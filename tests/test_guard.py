"""repro.guard: ingest validation policies and runtime invariant checks.

Covers the two halves of the guard subsystem — :class:`StreamValidator`
(per-violation-class policies, exact accounting, the bounded reorder
buffer) and :class:`InvariantChecker` (every seeded state corruption must
be caught within one sampling interval) — plus their integration with the
detectors and the streaming service (GuardedSource, ``invariant_every``,
the supervisor's permanent-abort path, and exactness reporting).
"""

from __future__ import annotations

import multiprocessing
from types import SimpleNamespace

import pytest

from repro.core.config import EARDetConfig
from repro.core.eardet import EARDet
from repro.detectors.exact import ExactLeakyBucketDetector
from repro.guard import (
    CLAMP,
    DROP,
    FID_INVALID,
    REJECT,
    REORDER,
    SIZE_RANGE,
    TIME_REGRESSION,
    GuardPolicy,
    InvariantChecker,
    InvariantViolation,
    StreamValidator,
    StreamViolationError,
    ValidationStats,
    validate_stream,
)
from repro.model.packet import MAX_PACKET_SIZE, MIN_PACKET_SIZE, Packet
from repro.model.stream import PacketStream
from repro.model.thresholds import ThresholdFunction
from repro.model.units import NS_PER_S
from repro.service import (
    DetectionService,
    GuardedSource,
    RecoverableServiceError,
    RetryingSource,
    StreamSource,
    Supervisor,
)
from repro.service.sources import validation_stats

CONFIG = EARDetConfig(
    rho=1_000_000, n=8, beta_th=3000, alpha=1518, beta_l=1000, gamma_l=50_000
)


def ordered_packets(count=40, gap=50_000, size=600, flows=5):
    return [
        Packet(time=i * gap, size=size, fid=i % flows) for i in range(count)
    ]


# ---------------------------------------------------------------------------
# GuardPolicy


def test_policy_rejects_unknown_actions():
    with pytest.raises(ValueError):
        GuardPolicy(size_range="mend")
    with pytest.raises(ValueError):
        GuardPolicy(fid_invalid=CLAMP)  # merging flows is not offered
    with pytest.raises(ValueError):
        GuardPolicy(time_regression=REORDER)  # needs a window
    with pytest.raises(ValueError):
        GuardPolicy(min_size=100, max_size=40)
    with pytest.raises(ValueError):
        GuardPolicy(min_size=0)


def test_policy_presets():
    assert GuardPolicy.strict().size_range == REJECT
    repair = GuardPolicy.repair()
    assert repair.size_range == CLAMP
    assert repair.fid_invalid == DROP
    reordering = GuardPolicy.reordering(window=16)
    assert reordering.time_regression == REORDER
    assert reordering.reorder_window == 16
    assert GuardPolicy().min_size == MIN_PACKET_SIZE
    assert GuardPolicy().max_size == MAX_PACKET_SIZE


# ---------------------------------------------------------------------------
# StreamValidator: strict policy


def test_strict_passes_clean_stream():
    packets = ordered_packets()
    stream, stats = validate_stream(packets)
    assert list(stream) == packets
    assert stats.examined == stats.emitted == len(packets)
    assert stats.total_violations == 0
    assert stats.mutated == 0


def test_strict_rejects_oversized_packet():
    packets = [
        Packet(time=0, size=600, fid="a"),
        Packet(time=1_000, size=MAX_PACKET_SIZE + 1, fid="b"),
    ]
    with pytest.raises(StreamViolationError) as excinfo:
        validate_stream(packets)
    assert excinfo.value.violation == SIZE_RANGE
    assert excinfo.value.index == 1
    assert excinfo.value.packet.size == MAX_PACKET_SIZE + 1


def test_strict_rejects_time_regression():
    packets = [
        Packet(time=1_000, size=600, fid="a"),
        Packet(time=500, size=600, fid="b"),
    ]
    with pytest.raises(StreamViolationError) as excinfo:
        validate_stream(packets)
    assert excinfo.value.violation == TIME_REGRESSION
    assert excinfo.value.index == 1


@pytest.mark.parametrize(
    "fid", [None, ["unhashable"]], ids=["none", "unhashable"]
)
def test_strict_rejects_invalid_fids(fid):
    bad = SimpleNamespace(time=0, size=600, fid=fid)
    with pytest.raises(StreamViolationError) as excinfo:
        validate_stream([bad])
    assert excinfo.value.violation == FID_INVALID


def test_virtual_prefixed_fid_is_an_ordinary_flow():
    """Virtual counters carry no flow ID, so ``("__virtual__", 3)`` names
    a real flow: strict validation passes it and, as a flooder, EARDet
    detects it exactly when it detects the same flood under a plain ID."""
    times = []
    for flooder in (("__virtual__", 3), "flooder"):
        packets = [
            Packet(time=i * 1_000_000, size=1_500, fid=flooder if i % 2 else i)
            for i in range(40)
        ]
        stream, stats = validate_stream(packets)
        assert stats.total_violations == 0
        assert stats.emitted == len(packets)
        detector = EARDet(CONFIG)
        for packet in stream:
            detector.observe(packet)
        detected = detector.detected
        assert list(detected) == [flooder]
        times.append(detected[flooder])
    assert times[0] == times[1]


def test_strict_rejects_negative_time_from_foreign_objects():
    # Packet itself refuses negative times; deserializers or subclasses
    # could still smuggle one through, so the validator re-checks.
    bad = SimpleNamespace(time=-5, size=600, fid="a")
    with pytest.raises(StreamViolationError) as excinfo:
        validate_stream([bad])
    assert excinfo.value.violation == "negative-time"


# ---------------------------------------------------------------------------
# StreamValidator: repair policy


def test_repair_clamps_sizes_both_ways():
    packets = [
        Packet(time=0, size=1, fid="tiny"),
        Packet(time=1_000, size=MAX_PACKET_SIZE + 400, fid="huge"),
        Packet(time=2_000, size=600, fid="fine"),
    ]
    stream, stats = validate_stream(packets, GuardPolicy.repair())
    assert [p.size for p in stream] == [MIN_PACKET_SIZE, MAX_PACKET_SIZE, 600]
    assert stats.clamped == 2
    assert stats.mutated == 2
    assert stats.violations == {SIZE_RANGE: 2}
    assert stats.first_mutation_index == 0
    assert stats.first_mutation_time_ns == 0


def test_repair_clamps_regression_to_predecessor_time():
    packets = [
        Packet(time=1_000, size=600, fid="a"),
        Packet(time=400, size=600, fid="b"),
        Packet(time=2_000, size=600, fid="c"),
    ]
    stream, stats = validate_stream(packets, GuardPolicy.repair())
    assert [p.time for p in stream] == [1_000, 1_000, 2_000]
    assert stats.violations == {TIME_REGRESSION: 1}
    assert stats.clamped == 1


def test_repair_drops_invalid_fids():
    packets = [
        Packet(time=0, size=600, fid="good"),
        SimpleNamespace(time=1_000, size=600, fid=None),
        Packet(time=2_000, size=600, fid="good"),
    ]
    stream, stats = validate_stream(packets, GuardPolicy.repair())
    assert len(stream) == 2
    assert stats.dropped == 1
    assert stats.mutated == 1
    assert stats.emitted == 2
    assert stats.examined == 3


def test_drop_policy_discards_offenders():
    policy = GuardPolicy(
        negative_time=DROP, time_regression=DROP, size_range=DROP,
        fid_invalid=DROP,
    )
    packets = [
        Packet(time=1_000, size=600, fid="a"),
        Packet(time=400, size=600, fid="late"),
        Packet(time=2_000, size=MAX_PACKET_SIZE + 1, fid="big"),
        Packet(time=3_000, size=600, fid="b"),
    ]
    stream, stats = validate_stream(packets, policy)
    assert [p.fid for p in stream] == ["a", "b"]
    assert stats.dropped == 2
    assert stats.mutated == 2


# ---------------------------------------------------------------------------
# StreamValidator: reorder policy


def test_reorder_restores_mildly_shuffled_stream():
    packets = ordered_packets(count=30)
    shuffled = packets[:]
    # Displace a few packets by 1-3 positions (well within the window).
    shuffled[4], shuffled[6] = shuffled[6], shuffled[4]
    shuffled[15], shuffled[17] = shuffled[17], shuffled[15]
    stream, stats = validate_stream(shuffled, GuardPolicy.reordering(8))
    assert list(stream) == packets  # exact multiset, exact order
    assert stats.reordered >= 2
    assert stats.mutated == 0  # reordering preserves the multiset
    assert stats.emitted == len(packets)


def test_reorder_drops_packet_displaced_beyond_window():
    packets = ordered_packets(count=20)
    # Move the first packet to the end: displaced by 19 > window 4.
    shuffled = packets[1:] + packets[:1]
    stream, stats = validate_stream(shuffled, GuardPolicy.reordering(4))
    assert list(stream) == packets[1:]
    assert stats.dropped == 1
    assert stats.mutated == 1  # the multiset changed after all


def test_reorder_output_is_always_monotone():
    import random

    rng = random.Random(11)
    packets = ordered_packets(count=60, gap=10_000)
    shuffled = packets[:]
    for _ in range(15):
        i = rng.randrange(len(shuffled) - 3)
        shuffled[i], shuffled[i + 2] = shuffled[i + 2], shuffled[i]
    stream, _ = validate_stream(shuffled, GuardPolicy.reordering(4))
    times = [p.time for p in stream]
    assert times == sorted(times)


# ---------------------------------------------------------------------------
# ValidationStats


def test_stats_accumulate_across_calls():
    validator = StreamValidator(GuardPolicy.repair())
    list(validator.iter_validated([Packet(time=0, size=1, fid="a")]))
    list(validator.iter_validated([Packet(time=0, size=1, fid="a")]))
    assert validator.stats.examined == 2
    assert validator.stats.clamped == 2


def test_stats_sample_capacity_bounds_detail():
    stats = ValidationStats(sample_capacity=3)
    validator = StreamValidator(GuardPolicy.repair(), stats=stats)
    bad = [Packet(time=i, size=1, fid=i) for i in range(10)]
    list(validator.iter_validated(bad))
    assert stats.clamped == 10  # counts stay exact
    assert len(stats.samples) == 3  # detail is bounded
    payload = stats.as_dict()
    assert payload["mutated"] == 10
    assert len(payload["samples"]) == 3
    assert payload["samples"][0]["violation"] == SIZE_RANGE


def test_stats_reset():
    stream, stats = validate_stream(
        [Packet(time=0, size=1, fid="a")], GuardPolicy.repair()
    )
    assert stats.mutated == 1
    stats.reset()
    assert stats.examined == 0
    assert stats.mutated == 0
    assert stats.first_mutation_index is None


def test_validate_returns_packet_stream():
    stream, _ = validate_stream(ordered_packets())
    assert isinstance(stream, PacketStream)


# ---------------------------------------------------------------------------
# InvariantChecker: clean runs


def test_checker_passes_clean_eardet_run():
    checker = InvariantChecker(every=1)
    detector = EARDet(CONFIG).attach_checker(checker)
    detector.observe_stream(ordered_packets(count=200, gap=5_000))
    assert checker.checks_run == 200
    assert checker.violations == 0


def test_checker_passes_clean_exact_run():
    checker = InvariantChecker(every=1)
    detector = ExactLeakyBucketDetector(
        ThresholdFunction(gamma=50_000, beta=3_000)
    ).attach_checker(checker)
    detector.observe_stream(ordered_packets(count=100, gap=5_000))
    assert checker.checks_run == 100
    assert checker.violations == 0


def test_checker_sampling_cadence():
    checker = InvariantChecker(every=7)
    detector = EARDet(CONFIG).attach_checker(checker)
    detector.observe_stream(ordered_packets(count=50))
    assert checker.checks_run == 50 // 7


def test_checker_rejects_bad_cadence():
    with pytest.raises(ValueError):
        InvariantChecker(every=0)


# ---------------------------------------------------------------------------
# InvariantChecker: every seeded corruption is caught within one interval


def primed_detector(count=100):
    """An EARDet mid-run with an armed every-packet checker.

    Uses the reference (dict-backed) counter store so corruption tests
    can reach directly into ``_values`` the way a memory bug would,
    bypassing the store's own API guards.
    """
    from repro.core.counters import ReferenceCounterStore

    checker = InvariantChecker(every=1)
    detector = EARDet(
        CONFIG, store_factory=ReferenceCounterStore
    ).attach_checker(checker)
    detector.observe_stream(ordered_packets(count=count, gap=5_000))
    return detector, checker


def next_packet(detector, size=600):
    return Packet(time=detector._last_time + 5_000, size=size, fid="next")


def assert_caught(detector, check):
    """The corruption must surface on the very next observed packet."""
    with pytest.raises(InvariantViolation) as excinfo:
        detector.observe(next_packet(detector))
    assert excinfo.value.check == check
    assert excinfo.value.detector == "eardet"
    assert excinfo.value.forensics["config"]["n"] == detector.config.n
    return excinfo.value


def test_corrupted_counter_value_is_caught():
    detector, _ = primed_detector()
    fid = next(iter(dict(detector._store.items())))
    bad = CONFIG.beta_th + CONFIG.alpha + 1
    detector._store._values[fid] = bad  # a bit flip the API would refuse
    error = assert_caught(detector, "counter-bound")
    assert error.observed == str(bad)


def test_zeroed_counter_is_caught():
    detector, _ = primed_detector()
    fid = next(iter(dict(detector._store.items())))
    detector._store._values[fid] = 0  # zeroed counters must be evicted
    assert_caught(detector, "counter-bound")


def test_oversized_store_is_caught():
    detector, _ = primed_detector()
    for extra in range(CONFIG.n + 1):
        detector._store._values[f"ghost-{extra}"] = 10
    assert_caught(detector, "store-size")


def test_carryover_out_of_range_is_caught():
    # A corrupted carryover numerator is transient — the next
    # idle-bandwidth integerization renormalizes it — so it is exactly
    # the kind of corruption only an in-interval sweep can see.
    detector, checker = primed_detector()
    detector._carryover.remainder_scaled = NS_PER_S  # >= NS/2 bound
    with pytest.raises(InvariantViolation) as excinfo:
        checker.check_now(detector)
    assert excinfo.value.check == "carryover-range"
    assert "carryover_numerator" in excinfo.value.forensics


def test_unreported_blacklisted_flow_is_caught():
    detector, _ = primed_detector()
    detector._blacklist.add("phantom")  # never reported to the sink
    assert_caught(detector, "blacklist-reported")


def test_blacklist_overflow_is_caught():
    detector, _ = primed_detector()
    for index in range(CONFIG.n + 1):
        fid = f"ghost-{index}"
        detector.sink.report(fid, 1)  # keep blacklist-reported satisfied
        detector._blacklist.add(fid)
    assert_caught(detector, "blacklist-bound")


def test_shrunk_sink_is_caught():
    config = EARDetConfig(
        rho=1_000_000, n=4, beta_th=2_000, alpha=1518, beta_l=500,
        gamma_l=50_000,
    )
    checker = InvariantChecker(every=1)
    detector = EARDet(config).attach_checker(checker)
    # One flow hammers the link until it is detected.
    packets = [
        Packet(time=i * 1_000, size=1_500, fid="attacker") for i in range(200)
    ]
    try:
        detector.observe_stream(packets)
    except InvariantViolation:  # pragma: no cover - must not happen
        raise
    assert len(detector.sink) > 0
    detector.sink.restore([])  # detections silently vanish
    detector._blacklist.reset()  # keep blacklist-reported from firing first
    assert_caught(detector, "sink-monotone")


def test_backward_clock_is_caught():
    detector, _ = primed_detector()
    detector._last_time -= 50_000
    # observe() itself would reject an out-of-order packet, so feed one
    # consistent with the corrupted clock: the checker must still notice
    # the detector's clock ran backward between samples.
    with pytest.raises(InvariantViolation) as excinfo:
        detector.observe(
            Packet(time=detector._last_time + 1_000, size=600, fid="next")
        )
    assert excinfo.value.check == "time-monotone"


def test_corrupt_bucket_level_is_caught():
    checker = InvariantChecker(every=1)
    detector = ExactLeakyBucketDetector(
        ThresholdFunction(gamma=50_000, beta=3_000)
    ).attach_checker(checker)
    detector.observe_stream(ordered_packets(count=50, gap=5_000))
    bucket = next(iter(detector._buckets.values()))
    bucket.level_scaled = bucket.peak_scaled + 1
    with pytest.raises(InvariantViolation) as excinfo:
        detector.observe(Packet(time=10**9, size=600, fid="next"))
    assert excinfo.value.check == "bucket-level"
    assert excinfo.value.detector == detector.name


def test_backward_bucket_clock_is_caught():
    checker = InvariantChecker(every=1)
    detector = ExactLeakyBucketDetector(
        ThresholdFunction(gamma=50_000, beta=3_000)
    ).attach_checker(checker)
    detector.observe_stream(ordered_packets(count=50, gap=5_000))
    bucket = next(iter(detector._buckets.values()))
    bucket.last_time -= 10_000
    with pytest.raises(InvariantViolation) as excinfo:
        detector.observe(Packet(time=10**9, size=600, fid="fresh"))
    assert excinfo.value.check == "bucket-drain"


def test_corruption_caught_within_one_sampling_interval():
    """With cadence k, a persistent corruption surfaces within <= k
    packets of being introduced."""
    from repro.core.counters import ReferenceCounterStore

    for every in (1, 5, 16):
        checker = InvariantChecker(every=every)
        detector = EARDet(
            CONFIG, store_factory=ReferenceCounterStore
        ).attach_checker(checker)
        detector.observe_stream(ordered_packets(count=64, gap=5_000))
        # Ghost entries past the store's budget: persistent (huge values
        # survive decrement_all) and invisible to normal operation.
        for extra in range(CONFIG.n):
            detector._store._values[f"ghost-{extra}"] = 10**9
        base = detector._last_time
        caught_after = None
        for i in range(1, every + 1):
            try:
                detector.observe(
                    Packet(time=base + i * 5_000, size=600, fid=i % 5)
                )
            except InvariantViolation as error:
                assert error.check in ("store-size", "counter-bound")
                caught_after = i
                break
        assert caught_after is not None and caught_after <= every, (
            f"every={every}: corruption not caught within one interval"
        )


# ---------------------------------------------------------------------------
# InvariantChecker: lifecycle (reset / restore must not false-positive)


def test_detector_reset_resets_checker():
    detector, checker = primed_detector()
    assert checker.packets_seen == 100
    detector.reset()
    assert checker.packets_seen == 0
    # A fresh run over the same detector must not trip sink-monotone.
    detector.observe_stream(ordered_packets(count=20))
    assert checker.violations == 0


def test_eardet_restore_resets_checker():
    detector, checker = primed_detector()
    snapshot = EARDet(CONFIG).observe_stream(
        ordered_packets(count=5)
    ).snapshot()
    detector.restore(snapshot)  # discontinuous state jump
    # Sink may have shrunk vs the tracker; restore must have cleared it.
    detector.observe(Packet(time=10**12, size=600, fid="after"))
    assert checker.violations == 0


def test_attach_checker_returns_detector_and_resets():
    checker = InvariantChecker(every=2)
    checker.packets_seen = 99
    detector = EARDet(CONFIG).attach_checker(checker)
    assert detector.checker is checker
    assert checker.packets_seen == 0
    assert detector.attach_checker(None).checker is None


def test_invariant_violation_payload_round_trips():
    detector, checker = primed_detector()
    detector._carryover.remainder_scaled = NS_PER_S
    with pytest.raises(InvariantViolation) as excinfo:
        checker.check_now(detector)
    payload = excinfo.value.as_dict()
    assert payload["check"] == "carryover-range"
    import json

    json.dumps(payload)  # must be JSON-safe (crosses process boundaries)


# ---------------------------------------------------------------------------
# Service integration


def test_guarded_source_screens_and_reports():
    packets = ordered_packets(count=50)
    packets[10] = Packet(time=packets[10].time, size=1, fid=packets[10].fid)
    source = GuardedSource(
        StreamSource(packets), policy=GuardPolicy.repair()
    )
    service = DetectionService(CONFIG, shards=2)
    report = service.serve(source)
    service.shutdown()
    assert report.validation is not None
    assert report.validation["clamped"] == 1
    assert report.validation_mutations == 1
    assert not report.exact  # a mutation voids the guarantee
    assert "exactness" in report.render()


def test_guarded_source_clean_stream_stays_exact():
    source = GuardedSource(
        StreamSource(ordered_packets(count=50)), policy=GuardPolicy.repair()
    )
    service = DetectionService(CONFIG, shards=2)
    report = service.serve(source)
    service.shutdown()
    assert report.validation is not None
    assert report.validation["mutated"] == 0
    assert report.exact


def test_trace_file_source_validates_before_stream_construction(tmp_path):
    """A disordered trace file must reach the validator, not die inside
    the reader's PacketStream constructor (regression: the repair policy
    never saw the packets it was configured to fix)."""
    from repro.service import TraceFileSource

    path = tmp_path / "dirty.csv"
    path.write_text(
        "time_ns,size,fid\n1000,100,a\n500,100,b\n2000,100,c\n"
    )
    validator = StreamValidator(GuardPolicy.repair())
    source = TraceFileSource(path, validator=validator)
    service = DetectionService(CONFIG, shards=2)
    report = service.serve(source)
    service.shutdown()
    assert report.packets == 3
    assert report.validation is not None
    # The violations schema is stable: every class is present, zero-filled.
    assert report.validation["violations"] == {
        "negative-time": 0,
        "time-regression": 1,
        "size-range": 0,
        "fid-invalid": 0,
    }
    assert not report.exact  # repair clamps, which voids exactness

    # Unguarded, the same trace still fails fast on the ordering contract.
    from repro.model.stream import StreamOrderError

    service = DetectionService(CONFIG, shards=2)
    with pytest.raises(StreamOrderError):
        service.serve(TraceFileSource(path))
    service.shutdown()


def test_validation_stats_found_through_wrapper_chain():
    guarded = GuardedSource(
        StreamSource(ordered_packets()), policy=GuardPolicy.repair()
    )
    wrapped = RetryingSource(guarded, max_retries=2)
    assert validation_stats(wrapped) is guarded.validator.stats
    assert validation_stats(StreamSource([])) is None


def test_guarded_source_strict_raises_through_serve():
    packets = ordered_packets(count=10)
    packets[5] = Packet(time=packets[5].time, size=1, fid="runt")
    source = GuardedSource(StreamSource(packets))  # strict by default
    service = DetectionService(CONFIG)
    with pytest.raises(StreamViolationError):
        service.serve(source)
    service.shutdown()


def test_inprocess_invariant_every_catches_corruption(monkeypatch):
    """A corruption inside a shard surfaces as InvariantViolation from
    serve(); seeded by making the checker's sweep fail deterministically."""
    boom = InvariantViolation(
        "seeded corruption", check="counter-bound", detector="eardet"
    )

    def exploding_check(self, detector):
        self.checks_run += 1
        if self.packets_seen >= 30:
            raise boom

    monkeypatch.setattr(InvariantChecker, "check_now", exploding_check)
    service = DetectionService(CONFIG, shards=2, invariant_every=10)
    with pytest.raises(InvariantViolation) as excinfo:
        service.serve(StreamSource(ordered_packets(count=200)))
    assert excinfo.value.check == "counter-bound"
    # The state is corrupt: tear down without draining (graceful
    # shutdown would re-run the failing sweep), like the supervisor does.
    service.abort()


def test_supervisor_treats_invariant_violation_as_permanent(monkeypatch):
    """No restart-looping on corrupted state: the supervisor aborts with
    forensics instead of burning the restart budget."""

    def exploding_check(self, detector):
        raise InvariantViolation(
            "seeded corruption", check="store-size", detector="eardet"
        )

    monkeypatch.setattr(InvariantChecker, "check_now", exploding_check)
    supervisor = Supervisor(
        CONFIG, shards=1, invariant_every=5, sleep=lambda _s: None
    )
    with pytest.raises(InvariantViolation):
        supervisor.run(StreamSource(ordered_packets(count=100)))
    supervisor.shutdown()
    assert supervisor.restarts == 0  # permanent: no restarts attempted
    assert any("InvariantViolation" in line for line in supervisor.incidents)


def test_invariant_violation_is_not_recoverable():
    assert not issubclass(InvariantViolation, RecoverableServiceError)
    from repro.service.errors import InvariantViolation as reexported

    assert reexported is InvariantViolation


@pytest.mark.slow
def test_multiprocess_invariant_violation_crosses_process_boundary(
    monkeypatch,
):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("seeding the checker requires fork inheritance")

    def exploding_check(self, detector):
        if self.packets_seen >= 50:
            raise InvariantViolation(
                "seeded corruption in worker",
                check="counter-bound",
                detector="eardet",
                observed=99999,
                bound=4518,
                forensics={"seeded": True},
            )

    monkeypatch.setattr(InvariantChecker, "check_now", exploding_check)
    service = DetectionService(
        CONFIG, shards=2, engine="multiprocess", invariant_every=10
    )
    with pytest.raises(InvariantViolation) as excinfo:
        service.serve(StreamSource(ordered_packets(count=3000, gap=2_000)))
    service.abort()
    assert excinfo.value.check == "counter-bound"
    assert excinfo.value.observed == "99999"
    assert excinfo.value.forensics.get("seeded") is True


# ---------------------------------------------------------------------------
# Satellite: the exact carryover API


def test_carryover_numerator_is_the_exact_integer_api():
    detector = EARDet(CONFIG).observe_stream(
        ordered_packets(count=37, gap=7_777)
    )
    numerator = detector.carryover_numerator
    assert isinstance(numerator, int)
    assert numerator == detector._carryover.remainder_scaled
    assert detector.carryover_bytes == numerator / NS_PER_S
    assert isinstance(detector.carryover_bytes, float)
