"""Live resharding: layout algebra, the two-phase migration protocol,
rollback, the skew coordinator — and the differential chaos property
that justifies all of it: detections under any migration history, with
faults injected at any protocol phase, are bit-identical to a static
layout.

The fuzz seed honors ``EARDET_RESHARD_SEED`` so the CI reshard-chaos
job can sweep several packet streams; every migration fault fires at an
exact (migration index, phase) coordinate, so any failure here
reproduces bit for bit by re-running with the same seed.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.cli import main
from repro.core.config import EARDetConfig
from repro.model.packet import Packet
from repro.service import (
    BackoffPolicy,
    CheckpointError,
    Coordinator,
    CoordinatorPolicy,
    DeadLetterSink,
    DetectionService,
    FaultPlan,
    InProcessEngine,
    MigrationError,
    MigrationFault,
    MigrationPlan,
    MultiprocessEngine,
    RestartPolicy,
    ShardCrashError,
    ShardLayout,
    SlotMove,
    StreamSource,
    Supervisor,
    WatcherPolicy,
    execute_migration,
)
from repro.service.reshard import (
    MIGRATION_PHASES,
    decode_migration_record,
    encode_migration_record,
)

from conftest import mixed_packets

CONFIG = EARDetConfig(
    rho=1_000_000, n=8, beta_th=3000, alpha=1518, beta_l=1000, gamma_l=50_000
)

#: The CI reshard-chaos job sweeps this (see .github/workflows/ci.yml).
RESHARD_SEED = int(os.environ.get("EARDET_RESHARD_SEED", "7"))

#: Zero-delay retries: migration tests never really sleep.
FAST = BackoffPolicy(initial_s=0.0)


def make_packets(count=6000, seed=RESHARD_SEED, **options):
    return mixed_packets(count, seed, **options)


def static_run(packets, slots=8, shards=2, engine="inprocess", watcher=None):
    """The never-resharded reference every differential test compares
    against (same slot count — detections are only comparable at equal
    slot granularity)."""
    service = DetectionService(
        CONFIG, shards=shards, engine=engine, slots=slots, watcher=watcher
    )
    try:
        report = service.serve(packets, final_checkpoint=False)
    finally:
        service.shutdown()
    return report


def ingest_all(engine, packets, batch=512):
    for start in range(0, len(packets), batch):
        engine.ingest(packets[start:start + batch])
    engine.flush()


# ---------------------------------------------------------------- layouts


class TestShardLayout:
    def test_default_round_robin_and_identity(self):
        layout = ShardLayout.default(8, 2)
        assert layout.assignment == (0, 1, 0, 1, 0, 1, 0, 1)
        assert not layout.is_identity
        assert ShardLayout.default(3, 3).is_identity

    def test_shard_of_slots_of_counts(self):
        layout = ShardLayout.default(8, 3)
        assert layout.shard_of(7) == 7 % 3
        assert layout.slots_of(0) == [0, 3, 6]
        assert layout.counts() == [3, 3, 2]

    def test_apply_moves_slots_and_bumps_epoch(self):
        layout = ShardLayout.default(4, 2)
        plan = MigrationPlan.move_slots(layout, [0, 2], target=2)
        applied = layout.apply(plan)
        assert applied.epoch == 1
        assert applied.shards == 3
        assert applied.slots_of(2) == [0, 2]
        assert layout.epoch == 0  # immutable: the original is untouched

    def test_dict_round_trip(self):
        layout = ShardLayout.default(8, 3).apply(
            MigrationPlan.split(ShardLayout.default(8, 3), 0)
        )
        assert ShardLayout.from_dict(layout.as_dict()) == layout

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(slots=0, assignment=(), shards=1),
            dict(slots=2, assignment=(0,), shards=1),
            dict(slots=2, assignment=(0, 5), shards=2),
            dict(slots=2, assignment=(0, 1), shards=2, epoch=-1),
        ],
    )
    def test_rejects_malformed(self, kwargs):
        with pytest.raises(ValueError):
            ShardLayout(**kwargs)


class TestMigrationPlan:
    def test_split_moves_half_to_a_new_shard(self):
        layout = ShardLayout.default(8, 2)
        plan = MigrationPlan.split(layout, shard=0)
        assert plan.target_shards == 3
        assert len(plan.moves) == 2
        assert all(m.source == 0 and m.target == 2 for m in plan.moves)
        after = plan.resulting_layout(layout)
        assert sorted(after.slots_of(0) + after.slots_of(2)) == [0, 2, 4, 6]

    def test_merge_empties_the_source_keeping_it_as_spare(self):
        layout = ShardLayout.default(8, 2)
        plan = MigrationPlan.merge(layout, source=1, target=0)
        after = plan.resulting_layout(layout)
        assert after.slots_of(1) == []
        assert after.shards == 2  # hot spare, never shrunk
        assert after.slots_of(0) == list(range(8))

    def test_split_single_slot_shard_is_rejected(self):
        layout = ShardLayout.default(2, 2)
        with pytest.raises(ValueError):
            MigrationPlan.split(layout, shard=0)

    def test_validate_rejects_stale_plan(self):
        old = ShardLayout.default(8, 2)
        plan = MigrationPlan.split(old, shard=0)
        # relocate one of the slots the split plan wants to move
        moved = old.apply(
            MigrationPlan.move_slots(old, [plan.moves[0].slot], target=1)
        )
        with pytest.raises(ValueError):
            plan.validate(moved)

    def test_assignment_before_and_after(self):
        layout = ShardLayout.default(4, 2)
        plan = MigrationPlan.move_slots(layout, [1, 3], target=2)
        assert plan.assignment_before() == {1: 1, 3: 1}
        assert plan.assignment_after() == {1: 2, 3: 2}

    def test_describe_mentions_every_move(self):
        layout = ShardLayout.default(4, 2)
        text = MigrationPlan.split(layout, 1, reason="test").describe()
        assert "split" in text or "->" in text or "slot" in text


class TestMigrationRecord:
    def _states(self):
        engine = InProcessEngine(CONFIG, shards=2, slots=4)
        engine.ingest(make_packets(500))
        return engine, engine.extract_slots([1, 3])

    def test_round_trip(self):
        engine, states = self._states()
        layout = ShardLayout.default(4, 2)
        plan = MigrationPlan.move_slots(layout, [1, 3], target=2)
        record = encode_migration_record(plan, layout, engine.seed, states)
        decoded = decode_migration_record(record)
        assert decoded["states"] == states
        assert decoded["seed"] == engine.seed

    def test_corruption_is_detected(self):
        engine, states = self._states()
        layout = ShardLayout.default(4, 2)
        plan = MigrationPlan.move_slots(layout, [1, 3], target=2)
        record = bytearray(
            encode_migration_record(plan, layout, engine.seed, states)
        )
        record[len(record) // 2] ^= 0xFF
        with pytest.raises(CheckpointError):
            decode_migration_record(bytes(record))

    def test_empty_states_are_rejected(self):
        layout = ShardLayout.default(4, 2)
        plan = MigrationPlan.move_slots(layout, [1], target=2)
        record = encode_migration_record(plan, layout, 0, {})
        with pytest.raises(CheckpointError):
            decode_migration_record(record)


# ------------------------------------------------- the two-phase protocol


class TestExecuteMigration:
    def test_split_mid_stream_preserves_detections(self):
        packets = make_packets(6000)
        reference = static_run(packets)
        engine = InProcessEngine(CONFIG, shards=2, slots=8)
        ingest_all(engine, packets[:3000])
        report = execute_migration(
            engine, MigrationPlan.split(engine.layout, 0), backoff=FAST
        )
        ingest_all(engine, packets[3000:])
        assert report.committed and not report.rolled_back
        assert report.attempts == 1
        assert report.to_shards == 3 and report.slots_moved == 2
        assert report.pause_ns > 0
        assert engine.layout.epoch == 1
        assert engine.detections() == reference.detections

    @pytest.mark.parametrize("phase", MIGRATION_PHASES)
    def test_fail_fault_rolls_back_then_retry_commits(self, phase):
        packets = make_packets(4000)
        reference = static_run(packets)
        engine = InProcessEngine(CONFIG, shards=2, slots=8)
        ingest_all(engine, packets[:2000])
        plan = FaultPlan([MigrationFault(phase=phase, mode="fail", at=1)])
        report = execute_migration(
            engine,
            MigrationPlan.split(engine.layout, 0),
            backoff=FAST,
            fault_plan=plan,
        )
        ingest_all(engine, packets[2000:])
        assert report.committed
        assert report.attempts == 2  # one rollback, one clean pass
        assert engine.detections() == reference.detections

    @pytest.mark.parametrize("phase", MIGRATION_PHASES)
    def test_terminal_failure_rolls_back_with_state_intact(self, phase):
        """The regression behind the in-process rollback bug: a failed
        migration must leave every live detector exactly as it was —
        the stream continues and detections match the static run."""
        packets = make_packets(4000)
        reference = static_run(packets)
        engine = InProcessEngine(CONFIG, shards=2, slots=8)
        ingest_all(engine, packets[:2000])
        plan = FaultPlan([MigrationFault(phase=phase, mode="fail", at=1)])
        with pytest.raises(MigrationError) as exc:
            execute_migration(
                engine,
                MigrationPlan.split(engine.layout, 0),
                attempts=1,
                backoff=FAST,
                fault_plan=plan,
            )
        assert exc.value.rolled_back
        assert exc.value.phase == phase
        assert engine.layout.epoch == 0
        assert engine.layout.shard_of(0) == 0  # routing untouched
        ingest_all(engine, packets[2000:])
        assert engine.detections() == reference.detections
        assert engine.dropped == 0

    def test_stall_fault_trips_the_timeout(self):
        engine = InProcessEngine(CONFIG, shards=2, slots=8)
        engine.ingest(make_packets(500))
        plan = FaultPlan(
            [MigrationFault(phase="extract", mode="stall", at=1,
                            duration_s=0.05)]
        )
        with pytest.raises(MigrationError) as exc:
            execute_migration(
                engine,
                MigrationPlan.split(engine.layout, 0),
                attempts=1,
                timeout_s=0.01,
                backoff=FAST,
                fault_plan=plan,
            )
        assert "time budget" in str(exc.value)
        assert exc.value.rolled_back
        assert engine.layout.epoch == 0

    def test_kill_fault_propagates_without_rollback(self):
        """A worker death mid-migration belongs to the supervisor: the
        crash propagates so checkpoint recovery (exact under any
        layout) takes over instead of an in-place rollback."""
        engine = InProcessEngine(CONFIG, shards=2, slots=8)
        engine.ingest(make_packets(500))
        plan = FaultPlan(
            [MigrationFault(phase="install", mode="kill", at=1)]
        )
        with pytest.raises(ShardCrashError):
            execute_migration(
                engine,
                MigrationPlan.split(engine.layout, 0),
                backoff=FAST,
                fault_plan=plan,
            )

    def test_terminal_error_names_the_last_attempts_phase(self):
        """Attempt 1 fails at install (injected), attempt 2 at freeze:
        the terminal error names freeze, where the last attempt broke."""
        engine = InProcessEngine(CONFIG, shards=2, slots=8)
        engine.ingest(make_packets(500))
        prepare = engine.prepare_migration
        calls = []

        def prepare_failing_on_second_call(plan):
            calls.append(plan)
            if len(calls) == 2:
                raise RuntimeError("freeze broke on attempt 2")
            return prepare(plan)

        engine.prepare_migration = prepare_failing_on_second_call
        with pytest.raises(MigrationError) as exc:
            execute_migration(
                engine,
                MigrationPlan.split(engine.layout, 0),
                attempts=2,
                backoff=FAST,
                fault_plan=FaultPlan.parse("mig:phase=install,mode=fail,at=1"),
            )
        assert exc.value.phase == "freeze"
        assert "in the freeze phase (freeze broke on attempt 2)" in str(
            exc.value
        )
        assert exc.value.rolled_back and exc.value.attempts == 2
        assert engine.layout.epoch == 0

    def test_pause_starts_after_the_freeze_fault_gate(self):
        """The pause runs from the freeze action, after its fault gate:
        a stall injected at the freeze boundary is not part of it."""
        engine = InProcessEngine(CONFIG, shards=2, slots=8)
        engine.ingest(make_packets(500))
        report = execute_migration(
            engine,
            MigrationPlan.split(engine.layout, 0),
            backoff=FAST,
            fault_plan=FaultPlan.parse(
                "mig:phase=freeze,mode=stall,at=1,secs=0.2"
            ),
        )
        assert report.committed and report.attempts == 1
        assert 0 < report.pause_ns < 200_000_000

    @pytest.mark.parametrize(
        "prefix, phase, faults",
        [("mig", "install", "migration_faults"),
         ("tune", "verify", "tune_faults")],
        ids=["mig", "tune"],
    )
    def test_fault_parse_round_trips(self, prefix, phase, faults):
        spec = f"{prefix}:phase={phase},mode=stall,at=2,secs=0.5"
        plan = FaultPlan.parse(spec)
        (fault,) = getattr(plan, faults)
        assert fault.phase == phase and fault.mode == "stall"
        assert fault.at == 2 and fault.duration_s == 0.5
        assert FaultPlan.parse(plan.describe()).describe() == plan.describe()

    @pytest.mark.parametrize(
        "spec",
        [
            "mig:phase=warp,mode=fail,at=1",   # unknown phase
            "mig:phase=freeze,mode=melt,at=1",  # unknown mode
            "mig:phase=freeze,mode=fail,at=0",  # at must be >= 1
            "tune:phase=warp,mode=fail,at=1",
            "tune:phase=freeze,mode=melt,at=1",
            "tune:phase=freeze,mode=fail,at=0",
        ],
    )
    def test_fault_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)


# --------------------------------------------------------- snapshot adoption


class TestLayoutSnapshots:
    def test_restore_adopts_a_migrated_layout(self):
        packets = make_packets(4000)
        engine = InProcessEngine(CONFIG, shards=2, slots=8)
        ingest_all(engine, packets[:2000])
        execute_migration(
            engine, MigrationPlan.split(engine.layout, 0), backoff=FAST
        )
        snapshot = engine.snapshot()

        restored = InProcessEngine(CONFIG, shards=2, slots=8)
        restored.restore(snapshot)
        assert restored.layout == engine.layout
        assert restored.shard_count == 3
        ingest_all(engine, packets[2000:])
        ingest_all(restored, packets[2000:])
        assert restored.detections() == engine.detections()

    def test_identity_snapshot_stays_v1_compatible(self):
        """Without slots the snapshot keeps the exact pre-reshard shape
        (slot-indexed 'shards' list under an identity layout)."""
        engine = InProcessEngine(CONFIG, shards=2)
        engine.ingest(make_packets(500))
        snapshot = engine.snapshot()
        assert len(snapshot["shards"]) == 2
        restored = InProcessEngine(CONFIG, shards=2)
        restored.restore(snapshot)
        assert restored.detections() == engine.detections()


# ------------------------------------------------------------- coordinator


class FakeEngine:
    """Just enough engine for the coordinator: a layout and routed
    counters the tests bump by hand."""

    def __init__(self, slots=8, shards=2):
        self.layout = ShardLayout.default(slots, shards)
        self.routed = [0] * shards

    def add(self, *counts):
        for shard, count in enumerate(counts):
            self.routed[shard] += count


def aggressive_policy(**overrides):
    kwargs = dict(
        skew_high=1.5,
        skew_low=1.05,
        persistence=2,
        cooldown=3,
        min_window_packets=100,
        max_shards=4,
    )
    kwargs.update(overrides)
    return CoordinatorPolicy(**kwargs)


class TestCoordinator:
    def test_split_needs_persistence(self):
        engine = FakeEngine()
        coordinator = Coordinator(aggressive_policy())
        engine.add(900, 100)
        assert coordinator.observe(engine) is None  # streak 1 of 2
        engine.add(900, 100)
        plan = coordinator.observe(engine)
        assert plan is not None
        assert plan.moves[0].source == 0  # splits the hot shard
        assert coordinator.proposals == 1

    def test_small_windows_accumulate_instead_of_judging(self):
        engine = FakeEngine()
        coordinator = Coordinator(aggressive_policy(min_window_packets=1000))
        for _ in range(5):
            engine.add(90, 10)
            assert coordinator.observe(engine) is None
        assert coordinator.windows == 0
        engine.add(900, 100)  # cumulative window finally big enough
        coordinator.observe(engine)
        assert coordinator.windows == 1

    def test_cooldown_after_any_result(self):
        engine = FakeEngine()
        coordinator = Coordinator(aggressive_policy())
        engine.add(900, 100)
        coordinator.observe(engine)
        engine.add(900, 100)
        assert coordinator.observe(engine) is not None
        coordinator.note_result(False)  # rolled back — still cools down
        for _ in range(3):  # cooldown windows
            engine.add(900, 100)
            assert coordinator.observe(engine) is None
        engine.add(900, 100)  # streak must rebuild from zero
        assert coordinator.observe(engine) is None

    def test_balanced_load_never_flaps(self):
        engine = FakeEngine()
        coordinator = Coordinator(
            aggressive_policy(skew_low=1.01, merge_enabled=False)
        )
        for _ in range(20):
            engine.add(500, 500)
            assert coordinator.observe(engine) is None
        assert coordinator.proposals == 0

    def test_merge_proposed_when_skew_stays_low(self):
        engine = FakeEngine(shards=3)
        engine.layout = ShardLayout.default(8, 3)
        engine.routed = [0, 0, 0]
        coordinator = Coordinator(aggressive_policy(min_shards=1))
        engine.add(340, 330, 330)
        assert coordinator.observe(engine) is None
        engine.add(340, 330, 330)
        plan = coordinator.observe(engine)
        assert plan is not None
        targets = {move.target for move in plan.moves}
        sources = {move.source for move in plan.moves}
        assert len(sources) == 1  # the coldest shard is emptied
        assert len(targets) == 1

    def test_split_capped_at_max_shards_reuses_coldest(self):
        engine = FakeEngine(slots=8, shards=4)
        engine.layout = ShardLayout.default(8, 4)
        engine.routed = [0, 0, 0, 0]
        coordinator = Coordinator(aggressive_policy(max_shards=4))
        for _ in range(2):
            engine.add(1000, 10, 10, 10)
        coordinator.observe(engine)
        engine.add(1000, 10, 10, 10)
        plan = coordinator.observe(engine)
        assert plan is not None
        assert plan.target_shards == 4  # no fifth shard appears
        assert all(move.target != 0 for move in plan.moves)

    def test_single_slot_hot_shard_yields_no_plan(self):
        engine = FakeEngine(slots=2, shards=2)
        coordinator = Coordinator(aggressive_policy())
        for _ in range(4):
            engine.add(900, 100)
            assert coordinator.observe(engine) is None
        assert coordinator.proposals == 0

    def test_report_carries_decisions(self):
        engine = FakeEngine()
        coordinator = Coordinator(aggressive_policy())
        engine.add(900, 100)
        coordinator.observe(engine)
        engine.add(900, 100)
        coordinator.observe(engine)
        coordinator.note_result(True)
        report = coordinator.report()
        assert report["proposals"] == 1
        assert report["decisions"][-1]["committed"] is True
        assert report["decisions"][-1]["action"] == "split"


# ------------------------------------------------------ service integration


class TestServiceMigration:
    def test_apply_migration_mid_serve_is_invisible(self):
        packets = make_packets(6000)
        reference = static_run(packets)
        service = DetectionService(CONFIG, shards=2, slots=8)
        try:
            service.serve(packets, max_packets=3000, final_checkpoint=False)
            report = service.apply_migration(
                MigrationPlan.split(service.engine.layout, 0)
            )
            final = service.serve(packets, final_checkpoint=False)
        finally:
            service.shutdown()
        assert report.committed
        assert final.detections == reference.detections
        assert final.dropped == 0
        assert final.reshard is not None
        assert final.reshard["migrations"] == 1
        assert final.reshard["layout"]["epoch"] == 1
        assert final.exact

    def test_static_run_reports_no_reshard_section(self):
        report = static_run(make_packets(1000), slots=None, shards=2)
        assert report.reshard is None

    def test_rolled_back_migration_reaches_the_dead_letter_sink(self):
        sink = DeadLetterSink(capacity=16)
        service = DetectionService(
            CONFIG,
            shards=2,
            slots=8,
            dead_letter=sink,
            fault_plan=FaultPlan.parse("mig:phase=install,mode=fail,at=1"),
        )
        try:
            service.serve(make_packets(2000), final_checkpoint=False)
            with pytest.raises(MigrationError):
                service.apply_migration(
                    MigrationPlan.split(service.engine.layout, 0),
                    attempts=1,
                    backoff=FAST,
                )
            final = service.serve([], final_checkpoint=False)
        finally:
            service.shutdown()
        events = [e for e in sink.events if e["kind"] == "migration-rollback"]
        assert len(events) == 1
        assert events[0]["phase"] == "install"
        assert final.reshard["rollbacks"] == 1
        assert final.dropped == 0

    def test_coordinator_splits_a_skewed_stream_exactly(self):
        """End-to-end elasticity: a stream skewed onto one shard's slots
        makes the coordinator split it mid-serve; detections stay
        bit-identical to a static layout and nothing is lost."""
        from repro.detectors.hashing import StageHash

        hasher = StageHash(seed=0, buckets=8)
        hot = [f"flow-{i}" for i in range(200) if hasher(f"flow-{i}") % 2 == 0]
        rng = random.Random(RESHARD_SEED)
        packets = []
        time = 0
        for index in range(12_000):
            time += rng.randint(100, 20_000)
            fid = "heavy" if index % 11 == 0 else rng.choice(hot)
            packets.append(
                Packet(time=time, size=rng.randint(40, 1518), fid=fid)
            )
        reference = static_run(packets)
        policy = CoordinatorPolicy(
            skew_high=1.5,
            skew_low=1.05,
            persistence=2,
            cooldown=4,
            min_window_packets=512,
            max_shards=4,
            merge_enabled=False,
        )
        service = DetectionService(
            CONFIG, shards=2, slots=8, coordinator=policy, batch_size=256
        )
        try:
            report = service.serve(packets, final_checkpoint=False)
        finally:
            service.shutdown()
        assert report.reshard["migrations"] >= 1
        assert report.reshard["coordinator"]["proposals"] >= 1
        assert report.detections == reference.detections
        assert report.dropped == 0
        assert report.exact

    def test_checkpoint_inspect_reports_layout_and_per_shard_sizes(
        self, tmp_path, capsys
    ):
        """Satellite: ``eardet checkpoint inspect`` on a resharded
        checkpoint shows the layout and per-shard state sizes."""
        path = tmp_path / "svc.ckpt"
        service = DetectionService(
            CONFIG, shards=2, slots=8, checkpoint_path=str(path)
        )
        try:
            service.serve(make_packets(3000), max_packets=3000)
            service.apply_migration(
                MigrationPlan.split(service.engine.layout, 0)
            )
            service.serve([])  # final checkpoint carries the new layout
        finally:
            service.shutdown()

        assert main(["checkpoint", "inspect", "--checkpoint", str(path)]) == 0
        text = capsys.readouterr().out
        assert "8 slots over 3 shards (epoch 1)" in text
        assert "counters" in text and "blacklist" in text

        assert main(
            ["checkpoint", "inspect", "--checkpoint", str(path), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["layout"]["epoch"] == 1
        rows = payload["shard_summaries"]
        assert len(rows) == 3
        assert sum(len(row["per_slot"]) for row in rows) == 8
        assert all("counters" in row and "blacklisted" in row for row in rows)
        assert sum(row["packets"] for row in rows) == 3000


# ------------------------------------------------------- differential fuzz


def _random_plan(rng, layout):
    splittable = [
        shard for shard in range(layout.shards)
        if len(layout.slots_of(shard)) >= 2
    ]
    mergeable = [
        shard for shard in range(layout.shards) if layout.slots_of(shard)
    ]
    kind = rng.choice(["split", "move"] + (["merge"] * (layout.shards > 2)))
    if kind == "split" and splittable:
        return MigrationPlan.split(layout, rng.choice(splittable))
    if kind == "merge" and len(mergeable) > 1:
        source, target = rng.sample(mergeable, 2)
        return MigrationPlan.merge(layout, source, target)
    donor = rng.choice(mergeable)
    slot = rng.choice(layout.slots_of(donor))
    target = rng.randrange(layout.shards + 1)
    if target == donor:
        target = layout.shards
    return MigrationPlan.move_slots(layout, [slot], target)


def _random_fault_spec(rng, migrations):
    clauses = []
    for index in range(migrations):
        if rng.random() < 0.6:
            phase = rng.choice(MIGRATION_PHASES)
            mode = rng.choice(["fail", "fail", "stall"])
            clause = f"mig:phase={phase},mode={mode},at={index + 1}"
            if mode == "stall":
                clause += ",secs=0.01"
            clauses.append(clause)
    return ";".join(clauses)


class TestDifferentialFuzz:
    @pytest.mark.parametrize("round_", range(4))
    def test_inprocess_reshard_with_faults_equals_static(self, round_):
        rng = random.Random(RESHARD_SEED * 1000 + round_)
        packets = make_packets(5000, seed=rng.randrange(1 << 30))
        reference = static_run(packets)
        migrations = rng.randint(1, 3)
        spec = _random_fault_spec(rng, migrations)
        service = DetectionService(
            CONFIG,
            shards=2,
            slots=8,
            fault_plan=FaultPlan.parse(spec) if spec else None,
        )
        boundaries = sorted(rng.sample(range(1, 10), migrations))
        try:
            served = 0
            for boundary in boundaries:
                target = boundary * len(packets) // 10
                if target > served:
                    service.serve(
                        packets, max_packets=target, final_checkpoint=False
                    )
                    served = target
                plan = _random_plan(rng, service.engine.layout)
                report = service.apply_migration(plan, backoff=FAST)
                assert report.committed
            final = service.serve(packets, final_checkpoint=False)
        finally:
            service.shutdown()
        assert final.detections == reference.detections, (
            f"diverged: round {round_} spec {spec!r} plans at {boundaries}"
        )
        assert final.dropped == 0
        assert final.exact
        assert final.reshard["migrations"] == migrations

    @pytest.mark.parametrize("kind", ["clef", "loft"])
    def test_watcher_verdicts_survive_resharding(self, kind):
        """The two-stage pipeline under migration: exact detections AND
        the watcher's probabilistic verdicts are bit-identical to a
        static layout (the watcher stage is slot-granular too)."""
        packets = make_packets(5000)
        reference = static_run(packets, watcher=WatcherPolicy(kind=kind))
        service = DetectionService(
            CONFIG,
            shards=2,
            slots=8,
            watcher=WatcherPolicy(kind=kind),
            fault_plan=FaultPlan.parse("mig:phase=extract,mode=fail,at=1"),
        )
        try:
            service.serve(packets, max_packets=2500, final_checkpoint=False)
            service.apply_migration(
                MigrationPlan.split(service.engine.layout, 1), backoff=FAST
            )
            final = service.serve(packets, final_checkpoint=False)
        finally:
            service.shutdown()
        assert final.detections == reference.detections
        assert final.watcher == reference.watcher

    def test_multiprocess_reshard_with_faults_equals_static(self):
        packets = make_packets(8000)
        reference = static_run(packets, engine="multiprocess")
        service = DetectionService(
            CONFIG,
            shards=2,
            engine="multiprocess",
            slots=8,
            fault_plan=FaultPlan.parse(
                "mig:phase=install,mode=fail,at=1;"
                "mig:phase=cutover,mode=fail,at=2"
            ),
        )
        try:
            service.serve(packets, max_packets=3000, final_checkpoint=False)
            first = service.apply_migration(
                MigrationPlan.split(service.engine.layout, 0), backoff=FAST
            )
            service.serve(packets, max_packets=6000, final_checkpoint=False)
            second = service.apply_migration(
                MigrationPlan.merge(service.engine.layout, 2, 1),
                backoff=FAST,
            )
            final = service.serve(packets, final_checkpoint=False)
        finally:
            service.shutdown()
        assert first.attempts == 2 and second.attempts == 2
        assert final.detections == reference.detections
        assert final.dropped == 0
        assert final.reshard["migrations"] == 2


# --------------------------------------------- chaos: kill + supervised


def quiet_supervisor(**kwargs):
    kwargs.setdefault("policy", RestartPolicy(backoff_initial_s=0.0))
    kwargs.setdefault("sleep", lambda _s: None)
    return Supervisor(CONFIG, **kwargs)


class TestKillDuringMigration:
    def test_supervisor_recovers_a_kill_at_a_migration_boundary(
        self, tmp_path
    ):
        """The acceptance chaos test: the coordinator starts a migration
        mid-stream, an injected kill fires at its install boundary, the
        supervisor restores from checkpoint — detections match the
        static, never-killed, never-resharded reference exactly."""
        from repro.detectors.hashing import StageHash

        hasher = StageHash(seed=0, buckets=8)
        hot = [f"flow-{i}" for i in range(200) if hasher(f"flow-{i}") % 2 == 0]
        rng = random.Random(RESHARD_SEED + 17)
        packets = []
        time = 0
        for index in range(10_000):
            time += rng.randint(100, 20_000)
            fid = "heavy" if index % 11 == 0 else rng.choice(hot)
            packets.append(
                Packet(time=time, size=rng.randint(40, 1518), fid=fid)
            )
        reference = static_run(packets)
        policy = CoordinatorPolicy(
            skew_high=1.5,
            skew_low=1.05,
            persistence=2,
            cooldown=4,
            min_window_packets=512,
            max_shards=4,
            merge_enabled=False,
        )
        supervisor = quiet_supervisor(
            shards=2,
            slots=8,
            coordinator=policy,
            checkpoint_path=str(tmp_path / "svc.ckpt"),
            checkpoint_every=1000,
            batch_size=256,
            fault_plan=FaultPlan.parse("mig:phase=install,mode=kill,at=1"),
        )
        report = supervisor.run(StreamSource(packets))
        assert report.restarts == 1
        assert report.detections == reference.detections
        assert report.exact
        assert report.packets == len(packets)

    @pytest.mark.parametrize("kind", ["clef", "loft"])
    def test_watcher_verdicts_replay_bit_identically_after_kill(
        self, kind, tmp_path
    ):
        """Satellite: seeded proof that probabilistic watcher verdicts
        — not just exact detections — replay bit-identically through a
        kill + supervisor restore from checkpoint."""
        packets = make_packets(6000)
        reference = static_run(packets, slots=None,
                               watcher=WatcherPolicy(kind=kind))
        supervisor = quiet_supervisor(
            shards=2,
            watcher=WatcherPolicy(kind=kind),
            checkpoint_path=str(tmp_path / "svc.ckpt"),
            checkpoint_every=1000,
            batch_size=256,
            fault_plan=FaultPlan.parse("kill:shard=1,at=1500"),
        )
        report = supervisor.run(StreamSource(packets))
        assert report.restarts == 1
        assert report.detections == reference.detections
        assert report.watcher == reference.watcher
