"""Overload resilience: the admission controller, the accounted
degradation ladder, graceful drain, and the shared backoff policy.

The two load-bearing properties (property-tested below):

- **Hysteresis**: the controller moves at most one rung per observation
  and never de-escalates within ``cooldown`` observations of the last
  transition — so the ladder cannot flap EXACT <-> DEFERRED within a
  single batch (one observation per batch).
- **The account identity**: every offered packet lands in exactly one
  rung, so ``exact + deferred + aggregated + shed == offered`` holds for
  packets and bytes at every instant, including across merges and
  checkpoint round-trips.
"""

from __future__ import annotations


import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import EARDetConfig
from repro.service import (
    BackoffPolicy,
    DRAIN_EXIT_CODE,
    DegradationAccount,
    DegradationLevel,
    DetectionService,
    InProcessEngine,
    MultiprocessEngine,
    OverloadError,
    OverloadPolicy,
    RecoverableServiceError,
    RestartPolicy,
    RetryingSource,
    ShardOverload,
    StreamSource,
    Supervisor,
    write_checkpoint,
)
from repro.service.health import DeadLetterSink
from repro.service.overload import AdmissionController
from repro.service.sources import PacketSource

from conftest import mixed_packets as make_packets

CONFIG = EARDetConfig(
    rho=1_000_000, n=8, beta_th=3000, alpha=1518, beta_l=1000, gamma_l=50_000
)

LEVELS = list(DegradationLevel)


def account_sums(account: DegradationAccount) -> "tuple[int, int]":
    packets = (
        account.exact_packets + account.deferred_packets
        + account.aggregated_packets + account.shed_packets
    )
    size = (
        account.exact_bytes + account.deferred_bytes
        + account.aggregated_bytes + account.shed_bytes
    )
    return packets, size


# ------------------------------------------------------------ policy


class TestOverloadPolicy:
    def test_defaults_are_valid(self):
        policy = OverloadPolicy()
        assert policy.high_watermark > policy.low_watermark

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"high_watermark": 0.0},
            {"high_watermark": 1.5},
            {"low_watermark": 0.8, "high_watermark": 0.5},
            {"low_watermark": -0.1},
            {"cooldown": -1},
            {"defer_max_packets": 0},
            {"defer_deadline_batches": 0},
            {"aggregate_window_ns": 0},
            {"aggregate_max_flows": 0},
            {"drain_budget": 0},
            {"put_timeout_s": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            OverloadPolicy(**kwargs)

    def test_levels_are_ordered_with_labels(self):
        assert [level.label for level in LEVELS] == [
            "exact", "deferred", "aggregated", "shedding"
        ]
        assert DegradationLevel.EXACT < DegradationLevel.SHEDDING


# ------------------------------------------------ admission controller


def controller_at(
    level: DegradationLevel,
    policy: OverloadPolicy,
    cooldown_left: int = 0,
) -> AdmissionController:
    controller = AdmissionController(policy)
    controller.level = level
    controller._cooldown_left = cooldown_left
    return controller


class TestAdmissionController:
    """Exhaustive transition table plus the hysteresis property."""

    POLICY = OverloadPolicy(high_watermark=0.75, low_watermark=0.25,
                            cooldown=3)

    # (level, occupancy, cooldown_left, expected next level): every rung
    # crossed with every occupancy class and both cooldown states.
    TABLE = []
    for _level in LEVELS:
        _up = _level if _level is LEVELS[-1] else DegradationLevel(_level + 1)
        _down = _level if _level is LEVELS[0] else DegradationLevel(_level - 1)
        for _cool in (0, 2):
            _deesc = _down if _cool == 0 else _level
            TABLE.extend(
                [
                    (_level, 0.0, _cool, _deesc),      # at/below low
                    (_level, 0.25, _cool, _deesc),     # exactly low
                    (_level, 0.5, _cool, _level),      # hysteresis band
                    (_level, 0.75, _cool, _up),        # exactly high
                    (_level, 1.0, _cool, _up),         # saturated
                ]
            )

    @pytest.mark.parametrize("level,occupancy,cooldown_left,expected", TABLE)
    def test_transition_table(self, level, occupancy, cooldown_left,
                              expected):
        controller = controller_at(level, self.POLICY, cooldown_left)
        # cooldown decrements before the de-escalation check, so seed one
        # extra observation's worth.
        controller._cooldown_left = (
            cooldown_left + 1 if cooldown_left else 0
        )
        assert controller.observe(round(occupancy * 100), 100) is expected

    def test_escalation_ignores_cooldown(self):
        controller = controller_at(
            DegradationLevel.DEFERRED, self.POLICY, cooldown_left=99
        )
        assert controller.observe(80, 100) is DegradationLevel.AGGREGATED

    def test_max_level_clamps_escalation(self):
        policy = OverloadPolicy(max_level=DegradationLevel.AGGREGATED)
        controller = controller_at(DegradationLevel.AGGREGATED, policy)
        assert controller.observe(100, 100) is DegradationLevel.AGGREGATED

    def test_input_validation(self):
        controller = AdmissionController(self.POLICY)
        with pytest.raises(ValueError):
            controller.observe(1, 0)
        with pytest.raises(ValueError):
            controller.observe(-1, 10)

    def test_transition_log_is_bounded(self):
        policy = OverloadPolicy(cooldown=0)
        controller = AdmissionController(policy)
        for _ in range(3 * controller.LOG_LIMIT):
            controller.observe(100, 100)
            controller.observe(0, 100)
        assert len(controller.transition_log) == controller.LOG_LIMIT

    def test_snapshot_round_trip(self):
        controller = AdmissionController(self.POLICY)
        controller.observe(100, 100)
        controller.observe(100, 100)
        restored = AdmissionController(self.POLICY)
        restored.restore(controller.snapshot())
        assert restored.level is controller.level
        assert restored.observations == controller.observations
        assert restored.transitions == controller.transitions
        assert restored._cooldown_left == controller._cooldown_left

    @settings(max_examples=60, deadline=None)
    @given(
        depths=st.lists(st.integers(min_value=0, max_value=120),
                        min_size=1, max_size=120),
        cooldown=st.integers(min_value=1, max_value=6),
        seed_level=st.sampled_from(LEVELS),
    )
    def test_hysteresis_property(self, depths, cooldown, seed_level):
        """At most one rung per observation; de-escalations wait out the
        cooldown — so one batch (one observation) can never see the
        ladder flap EXACT -> DEFERRED -> EXACT."""
        policy = OverloadPolicy(high_watermark=0.75, low_watermark=0.25,
                                cooldown=cooldown)
        controller = controller_at(seed_level, policy,
                                   cooldown_left=cooldown)
        previous = controller.level
        for depth in depths:
            level = controller.observe(depth, 100)
            assert abs(level - previous) <= 1
            occupancy = depth / 100
            if level > previous:
                assert occupancy >= policy.high_watermark
            elif level < previous:
                assert occupancy <= policy.low_watermark
            previous = level
        # Every de-escalation happened >= cooldown observations after
        # the transition before it.
        log = controller.transition_log
        for before, after in zip(log, log[1:]):
            if after[2] < after[1]:  # a de-escalation
                assert after[0] - before[0] >= cooldown


# ------------------------------------------------- degradation account


admissions = st.lists(
    st.tuples(
        st.sampled_from(LEVELS),
        st.integers(min_value=1, max_value=1518),   # size
        st.integers(min_value=0, max_value=10**9),  # time_ns
    ),
    max_size=200,
)


class TestDegradationAccount:
    @settings(max_examples=60, deadline=None)
    @given(items=admissions)
    def test_identity_holds_at_every_instant(self, items):
        account = DegradationAccount()
        offered_packets = offered_bytes = 0
        for level, size, time_ns in items:
            account.admit(level, size, time_ns)
            offered_packets += 1
            offered_bytes += size
            assert account_sums(account) == (offered_packets, offered_bytes)
            assert account.offered_packets == offered_packets
            assert account.offered_bytes == offered_bytes

    @settings(max_examples=60, deadline=None)
    @given(items=admissions)
    def test_first_shed_is_the_earliest_shed(self, items):
        account = DegradationAccount()
        for level, size, time_ns in items:
            account.admit(level, size, time_ns)
        shed_times = [
            t for level, _, t in items
            if level is DegradationLevel.SHEDDING
        ]
        if shed_times:
            # Admission is stream-ordered, so "first" is the first admit.
            assert account.first_shed_ts == shed_times[0]
        else:
            assert account.first_shed_ts is None

    @settings(max_examples=60, deadline=None)
    @given(a=admissions, b=admissions)
    def test_merge_preserves_the_identity(self, a, b):
        left, right = DegradationAccount(), DegradationAccount()
        for level, size, time_ns in a:
            left.admit(level, size, time_ns)
        for level, size, time_ns in b:
            right.admit(level, size, time_ns)
        merged = DegradationAccount()
        merged.merge(left)
        merged.merge(right)
        total = len(a) + len(b)
        size = sum(s for _, s, _ in a) + sum(s for _, s, _ in b)
        assert account_sums(merged) == (total, size)
        # Each account keeps its first shed in admission order; the merge
        # keeps the minimum across accounts.
        firsts = [
            account.first_shed_ts
            for account in (left, right)
            if account.first_shed_ts is not None
        ]
        assert merged.first_shed_ts == (min(firsts) if firsts else None)

    def test_round_trip_and_unknown_field(self):
        account = DegradationAccount()
        account.admit(DegradationLevel.AGGREGATED, 100, 5)
        account.note_widening(1234)
        restored = DegradationAccount()
        restored.restore(account.as_dict())
        assert restored.as_dict() == account.as_dict()
        with pytest.raises(ValueError):
            restored.restore({"bogus": 1})


# ------------------------------------------------------ shard ladder


def shard_overload(policy=None) -> ShardOverload:
    policy = policy or OverloadPolicy(
        defer_max_packets=4, defer_deadline_batches=2,
        aggregate_window_ns=1_000, cooldown=1,
    )
    return ShardOverload(policy)


def force_level(state: ShardOverload, level: DegradationLevel) -> None:
    state.controller.level = level
    # A huge cooldown pins the forced level: observe() would otherwise
    # de-escalate immediately at low occupancy.
    state.controller._cooldown_left = 10**6


class TestShardOverload:
    def test_exact_is_a_passthrough(self):
        state = shard_overload()
        assert state.admit(10, 100, "a") == [(10, 100, "a")]
        assert state.pending == 0

    def test_deferred_buffers_then_releases_in_order(self):
        state = shard_overload()
        force_level(state, DegradationLevel.DEFERRED)
        packets = [(i, 10, "a") for i in range(4)]
        assert state.admit(*packets[0]) == []
        assert state.admit(*packets[1]) == []
        assert state.admit(*packets[2]) == []
        assert state.pending == 3
        # The fourth hits defer_max_packets: one in-order burst.
        assert state.admit(*packets[3]) == packets
        assert state.pending == 0
        assert state.defer_high_water == 4

    def test_deferred_deadline_releases_a_partial_buffer(self):
        state = shard_overload()
        force_level(state, DegradationLevel.DEFERRED)
        state.admit(0, 10, "a")
        assert state.on_batch_end() == []              # age 1 of 2
        assert state.on_batch_end() == [(0, 10, "a")]  # deadline
        assert state.pending == 0

    def test_aggregation_is_byte_exact_and_restamped(self):
        state = shard_overload()
        force_level(state, DegradationLevel.AGGREGATED)
        assert state.admit(0, 100, "a") == []
        assert state.admit(10, 50, "b") == []
        assert state.admit(20, 7, "a") == []
        # Window is 1000ns: this flushes every aggregate, stamped "now".
        released = state.admit(1_000, 1, "a")
        by_fid = {fid: (time_ns, size) for time_ns, size, fid in released}
        assert by_fid == {"a": (1_000, 100 + 7 + 1), "b": (1_000, 50)}
        assert state.account.max_widening_ns == 1_000  # flow a, first at 0
        assert state.pending == 0

    def test_aggregate_flow_cap_forces_an_early_flush(self):
        policy = OverloadPolicy(aggregate_window_ns=10**12,
                                aggregate_max_flows=3)
        state = shard_overload(policy)
        force_level(state, DegradationLevel.AGGREGATED)
        assert state.admit(0, 1, "a") == []
        assert state.admit(1, 1, "b") == []
        released = state.admit(2, 1, "c")
        assert {fid for _, _, fid in released} == {"a", "b", "c"}
        assert state.aggregate_flows_high_water == 3

    def test_shedding_returns_none_and_accounts(self):
        state = shard_overload()
        force_level(state, DegradationLevel.SHEDDING)
        assert state.admit(5, 100, "a") is None
        assert state.account.shed_packets == 1
        assert state.account.first_shed_ts == 5

    def test_level_change_flushes_the_orphaned_buffer(self):
        state = shard_overload()
        force_level(state, DegradationLevel.DEFERRED)
        state.admit(0, 10, "a")
        # High occupancy escalates DEFERRED -> AGGREGATED; the deferred
        # buffer no longer belongs to the new rung and comes back.
        released = state.observe(100, 100)
        assert released == [(0, 10, "a")]
        assert state.level is DegradationLevel.AGGREGATED
        assert state.pending == 0

    def test_flush_releases_every_rung_buffer(self):
        state = shard_overload()
        force_level(state, DegradationLevel.DEFERRED)
        state.admit(0, 10, "a")
        force_level(state, DegradationLevel.AGGREGATED)
        state.admit(5, 20, "b")
        released = state.flush()
        assert {fid for _, _, fid in released} == {"a", "b"}
        assert state.pending == 0

    def test_snapshot_requires_empty_buffers(self):
        state = shard_overload()
        force_level(state, DegradationLevel.DEFERRED)
        state.admit(0, 10, "a")
        with pytest.raises(RuntimeError):
            state.snapshot()
        state.flush()
        restored = shard_overload()
        restored.restore(state.snapshot())
        assert restored.account.as_dict() == state.account.as_dict()
        assert restored.level is state.level


# --------------------------------------------- in-process integration


class TestInProcessOverload:
    def test_unarmed_engine_has_no_overload_report(self):
        engine = InProcessEngine(CONFIG, shards=2)
        assert engine.overload_report() is None

    def test_soak_identity_and_accounted_drops(self):
        """5x oversubscription: every byte accounted, every loss a
        shedding-rung admission, memory bounded."""
        dead = DeadLetterSink(capacity=32)
        policy = OverloadPolicy(drain_budget=16, cooldown=2)
        service = DetectionService(
            CONFIG, shards=2, batch_size=160, queue_capacity=64,
            overload=policy, dead_letter=dead,
        )
        packets = make_packets(8000)
        try:
            report = service.serve(StreamSource(packets))
        finally:
            service.shutdown()
        account = report.overload["account"]
        offered = sum(p.size for p in packets)
        assert (
            account["exact_bytes"] + account["deferred_bytes"]
            + account["aggregated_bytes"] + account["shed_bytes"]
        ) == offered
        assert account["shed_packets"] > 0
        assert report.dropped == account["shed_packets"]
        assert all(
            letter.reason == "overload-shed" for letter in dead.entries
        )
        # Bounded: capacity plus what arrives while the ladder escalates.
        bound = 64 + 4 * 160
        assert all(
            h.queue_high_water <= bound for h in report.shard_health
        )
        assert report.overload["transitions"] > 0

    def test_calm_ladder_is_invisible(self):
        """Below the low watermark detections are bit-identical to the
        unarmed service (flows and timestamps)."""
        packets = make_packets(6000)

        def run(overload):
            service = DetectionService(CONFIG, shards=2, overload=overload)
            try:
                report = service.serve(StreamSource(packets))
            finally:
                service.shutdown()
            return report

        armed = run(OverloadPolicy(drain_budget=10**9))
        unarmed = run(None)
        assert armed.detections == unarmed.detections
        account = armed.overload["account"]
        assert account["exact_packets"] == len(packets)
        assert account["shed_packets"] == 0

    def test_pump_respects_the_drain_budget(self):
        policy = OverloadPolicy(drain_budget=5)
        engine = InProcessEngine(
            CONFIG, shards=1, queue_capacity=64, overload=policy
        )
        engine.ingest(make_packets(40))
        assert engine.pump() == 5          # policy default
        assert engine.pump(budget=10) == 10
        drained = 0
        while True:  # budget=None falls back to the policy default (5)
            step = engine.pump()
            if step == 0:
                break
            drained += step
        assert drained == 40 - 15
        assert engine.queue_depths() == [0]

    def test_health_reports_the_ladder_level(self):
        policy = OverloadPolicy(drain_budget=1, cooldown=8)
        engine = InProcessEngine(
            CONFIG, shards=1, queue_capacity=4, overload=policy
        )
        for start in range(0, 120, 40):
            engine.ingest(make_packets(40)[0:40])
        levels = {h.degradation_level for h in engine.health()}
        assert levels <= {"exact", "deferred", "aggregated", "shedding"}
        assert levels != {"exact"}

    def test_snapshot_round_trip_keeps_ladder_state(self):
        policy = OverloadPolicy(drain_budget=4, cooldown=2)
        engine = InProcessEngine(
            CONFIG, shards=2, queue_capacity=8, overload=policy
        )
        packets = make_packets(600)
        for i in range(0, 600, 100):
            engine.ingest(packets[i:i + 100])
            engine.pump()
        state = engine.snapshot()
        assert "routed" in state and "overload" in state
        clone = InProcessEngine(
            CONFIG, shards=2, queue_capacity=8, overload=policy
        )
        clone.restore(state)
        assert clone.overload_report() == engine.overload_report()
        assert clone.snapshot() == state

    def test_legacy_snapshot_without_routed_still_restores(self):
        engine = InProcessEngine(CONFIG, shards=2)
        engine.ingest(make_packets(200))
        state = engine.snapshot()
        legacy = dict(state)
        legacy.pop("routed", None)
        legacy.pop("overload", None)
        clone = InProcessEngine(CONFIG, shards=2)
        clone.restore(legacy)
        assert clone._routed == engine._routed


# -------------------------------------------- multiprocess integration


class TestMultiprocessOverload:
    def test_ladder_identity_on_the_worker_engine(self):
        policy = OverloadPolicy(cooldown=2)
        engine = MultiprocessEngine(
            CONFIG, shards=2, chunk_size=16, queue_capacity=4,
            overload=policy,
        )
        packets = make_packets(2000)
        try:
            for i in range(0, 2000, 250):
                engine.ingest(packets[i:i + 250])
            report = engine.overload_report()
            account = report["account"]
            offered_packets, offered_bytes = (
                len(packets), sum(p.size for p in packets)
            )
            assert (
                account["exact_packets"] + account["deferred_packets"]
                + account["aggregated_packets"] + account["shed_packets"]
            ) == offered_packets
            assert (
                account["exact_bytes"] + account["deferred_bytes"]
                + account["aggregated_bytes"] + account["shed_bytes"]
            ) == offered_bytes
        finally:
            engine.close()

    def test_full_queue_with_live_worker_raises_overload_error(self):
        from repro.service import FaultPlan

        # One chunk of headroom, a worker stalled for 2s, and a 0.3s
        # put budget: the put must fail typed, not hang.
        engine = MultiprocessEngine(
            CONFIG, shards=1, chunk_size=1, queue_capacity=1,
            fault_plan=FaultPlan.parse("stall:shard=0,at=1,secs=2.0"),
            put_timeout_s=0.3,
        )
        packets = make_packets(64)
        try:
            with pytest.raises(OverloadError) as exc_info:
                engine.ingest(packets)
            assert exc_info.value.shard == 0
            assert exc_info.value.queue_capacity == 1
            assert isinstance(exc_info.value, RecoverableServiceError)
        finally:
            engine.terminate()

    def test_drain_exit_code_marks_a_requested_drain(self):
        engine = MultiprocessEngine(CONFIG, shards=2, chunk_size=8)
        engine.ingest(make_packets(100))
        processes = list(engine._processes)
        engine.close(drain=True)
        assert [p.exitcode for p in processes] == [DRAIN_EXIT_CODE] * 2

    def test_plain_close_still_exits_zero(self):
        engine = MultiprocessEngine(CONFIG, shards=1, chunk_size=8)
        engine.ingest(make_packets(50))
        processes = list(engine._processes)
        engine.close()
        assert [p.exitcode for p in processes] == [0]


# ------------------------------------------------------ graceful drain


class TestGracefulDrain:
    def test_request_drain_stops_at_the_next_batch_boundary(self):
        service = DetectionService(CONFIG, shards=2, batch_size=100)
        packets = make_packets(5000)
        seen = []

        def on_progress(svc):
            seen.append(svc.ingested)
            if len(seen) == 3:
                svc.request_drain()

        report = service.serve(StreamSource(packets),
                               on_progress=on_progress)
        service.shutdown()
        assert report.packets == 300
        assert report.drained is True
        assert "graceful drain" in report.render()

    def test_pre_requested_drain_serves_nothing(self):
        service = DetectionService(CONFIG, shards=1)
        service.request_drain()
        report = service.serve(StreamSource(make_packets(100)))
        service.shutdown()
        assert report.packets == 0
        assert report.drained is True

    def test_drain_flushes_rung_buffers_nothing_stranded(self):
        """The stop/drain path must release deferred packets — the
        partial-batch flush regression."""
        policy = OverloadPolicy(defer_max_packets=10**6,
                                defer_deadline_batches=10**6)
        engine = InProcessEngine(
            CONFIG, shards=1, queue_capacity=1024, overload=policy
        )
        assert engine._overload is not None
        force_level(engine._overload[0], DegradationLevel.DEFERRED)
        engine.ingest(make_packets(50))
        assert engine._overload[0].pending == 50
        engine.flush()
        assert engine._overload[0].pending == 0
        assert engine.queue_depths() == [0]  # flush() also drains

    def test_mp_close_flushes_rung_buffers(self):
        policy = OverloadPolicy(defer_max_packets=10**6,
                                defer_deadline_batches=10**6)
        engine = MultiprocessEngine(
            CONFIG, shards=1, chunk_size=8, overload=policy
        )
        engine.ingest(make_packets(10))  # starts workers, level EXACT
        force_level(engine._overload[0], DegradationLevel.DEFERRED)
        engine.ingest(make_packets(30, seed=11))
        assert engine._overload[0].pending == 30
        state = engine.close()
        assert engine._overload[0].pending == 0
        processed = sum(s["stats"]["packets"] for s in state["shards"])
        assert processed == 40

    def test_supervisor_forwards_a_drain_request(self):
        supervisor = Supervisor(
            CONFIG, shards=1, policy=RestartPolicy(max_restarts=1)
        )
        supervisor.request_drain()
        assert supervisor.drain_requested
        try:
            report = supervisor.run(StreamSource(make_packets(500)))
        finally:
            supervisor.shutdown()
        assert report.packets == 0
        assert report.drained is True

    def test_service_report_dict_carries_overload_and_drained(self):
        service = DetectionService(
            CONFIG, shards=1, overload=OverloadPolicy()
        )
        report = service.serve(StreamSource(make_packets(200)))
        service.shutdown()
        payload = report.as_dict()
        assert payload["drained"] is False
        assert payload["overload"]["policy"] == "ladder"
        assert "overload ladder" in report.render()


# ----------------------------------------------------- backoff policy


class _FlakySource(PacketSource):
    """Fails transiently ``failures`` times at the given packet index."""

    def __init__(self, packets, fail_at, failures):
        self._packets = packets
        self._fail_at = fail_at
        self._remaining = failures
        self.name = "flaky"

    def iter_packets(self):
        from repro.service import TransientSourceError

        for index, packet in enumerate(self._packets):
            if index == self._fail_at and self._remaining > 0:
                self._remaining -= 1
                raise TransientSourceError(f"hiccup at {index}")
            yield packet


class TestBackoffPolicy:
    def test_schedule_is_exponential_and_capped(self):
        policy = BackoffPolicy(initial_s=0.1, factor=2.0, max_s=0.5)
        assert list(policy.delays(5)) == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_deterministic_and_only_shortens(self):
        policy = BackoffPolicy(initial_s=1.0, factor=2.0, max_s=8.0,
                               jitter=0.5, seed=42)
        again = BackoffPolicy(initial_s=1.0, factor=2.0, max_s=8.0,
                              jitter=0.5, seed=42)
        base = BackoffPolicy(initial_s=1.0, factor=2.0, max_s=8.0)
        for attempt in range(6):
            delay = policy.delay_s(attempt)
            assert delay == again.delay_s(attempt)  # seeded => repeatable
            ceiling = base.delay_s(attempt)
            assert ceiling * 0.5 <= delay <= ceiling

    def test_retrying_source_sleeps_the_policy_schedule(self):
        packets = make_packets(50)
        slept = []
        policy = BackoffPolicy(initial_s=0.05, factor=2.0, max_s=2.0)
        source = RetryingSource(
            _FlakySource(packets, fail_at=10, failures=3),
            max_retries=3, sleep=slept.append, backoff=policy,
        )
        assert list(source.iter_packets()) == packets
        assert slept == list(policy.delays(3))

    def test_restart_policy_exposes_an_equivalent_backoff(self):
        policy = RestartPolicy(backoff_initial_s=0.2, backoff_factor=3.0,
                               backoff_max_s=1.0)
        for attempt in range(5):
            assert policy.delay_s(attempt) == policy.backoff.delay_s(attempt)

    def test_checkpoint_write_retries_transient_oserror(self, tmp_path):
        target = tmp_path / "state.ckpt"
        payload = {"meta": {"kind": "t"}, "engine": {"shards": []}}
        calls = {"count": 0}
        import repro.service.checkpoint as checkpoint_module

        real_replace = checkpoint_module.os.replace

        def flaky_replace(src, dst):
            calls["count"] += 1
            if calls["count"] < 3:
                raise OSError("transient")
            return real_replace(src, dst)

        slept = []
        policy = BackoffPolicy(initial_s=0.01, factor=2.0, max_s=1.0)
        try:
            checkpoint_module.os.replace = flaky_replace
            write_checkpoint(target, payload, retry=policy, attempts=3,
                             sleep=slept.append)
        finally:
            checkpoint_module.os.replace = real_replace
        assert target.exists()
        assert slept == list(policy.delays(2))

    def test_checkpoint_write_fail_fast_without_retry(self, tmp_path):
        target = tmp_path / "state.ckpt"
        payload = {"meta": {"kind": "t"}, "engine": {"shards": []}}
        import repro.service.checkpoint as checkpoint_module

        real_replace = checkpoint_module.os.replace

        def broken_replace(src, dst):
            raise OSError("disk on fire")

        try:
            checkpoint_module.os.replace = broken_replace
            with pytest.raises(OSError):
                write_checkpoint(target, payload)
        finally:
            checkpoint_module.os.replace = real_replace


# ---------------------------------------------------------------- CLI


class TestOverloadCli:
    def _write_trace(self, tmp_path, count=3000):
        from repro.model.stream import PacketStream
        from repro.traffic import trace_io

        path = tmp_path / "trace.csv"
        trace_io.write_csv(path, PacketStream(make_packets(count)))
        return str(path)

    def test_serve_with_the_ladder_reports_the_account(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        trace = self._write_trace(tmp_path)
        code = main([
            "serve", "--trace", trace,
            "--rho", "1000000", "--gamma-l", "50000", "--gamma-h", "200000",
            "--shards", "2", "--batch-size", "200", "--queue-capacity", "32",
            "--overload-policy", "ladder", "--drain-budget", "8",
            "--overload-cooldown", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "overload ladder:" in out

    def test_bad_watermarks_exit_with_an_error(self, tmp_path):
        from repro.cli import main

        trace = self._write_trace(tmp_path, count=100)
        with pytest.raises(SystemExit):
            main([
                "serve", "--trace", trace,
                "--rho", "1000000", "--gamma-l", "50000",
                "--gamma-h", "200000",
                "--overload-policy", "ladder",
                "--low-watermark", "0.9", "--high-watermark", "0.5",
            ])
