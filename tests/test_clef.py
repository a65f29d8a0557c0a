"""CLEF / RLFD: the recursive ambiguity-region watcher family.

Covers the in-core behaviours the service pipeline leans on: in-region
flows are localized and flagged, benign small flows stay clean, long
idle gaps fast-forward arithmetically to the same state as explicit
boundary crossings, snapshot/restore replays bit-identically, and the
column path (``TwinRLFD.observe_batch``) ends exactly where per-packet
``observe`` does.

The CI ambiguity-corpus job sweeps ``EARDET_PIPELINE_SEED`` (see
.github/workflows/ci.yml), which salts the column-path property.
"""

from __future__ import annotations

import json
import os
import random

import pytest
from conftest import (
    FID_KINDS,
    codec_round_trip,
    feed_columns,
    watcher_stream,
    with_fid_kind,
)
from hypothesis import given, settings, strategies as st

from repro.core.config import EARDetConfig
from repro.detectors import (
    CLEF,
    RecursiveLargeFlowDetector,
    TwinRLFD,
    rlfd_threshold,
)
from repro.model.packet import Packet
from repro.model.units import NS_PER_S

CONFIG = EARDetConfig(
    rho=1_000_000, n=4, beta_th=500, alpha=100, beta_l=200, gamma_l=10_000
)

PERIOD_NS = 50_000_000

#: The CI ambiguity-corpus job sweeps this (see .github/workflows/ci.yml).
PIPELINE_SEED = int(os.environ.get("EARDET_PIPELINE_SEED", "7"))


def make_rlfd(counters=16, depth=2, period_ns=PERIOD_NS, seed=0):
    return RecursiveLargeFlowDetector(
        counters=counters,
        depth=depth,
        period_ns=period_ns,
        threshold=rlfd_threshold(CONFIG.gamma_l, CONFIG.beta_l, period_ns),
        seed=seed,
    )


def in_region_mix(duration_ns=NS_PER_S, seed=3, attack_rate=25_000):
    """One in-region attacker (above gamma_l, far below rho/(n+1))
    among benign small flows."""
    rng = random.Random(seed)
    packets = []
    gap = (100 * NS_PER_S) // attack_rate
    t = rng.randint(0, gap)
    while t < duration_ns:
        packets.append(Packet(time=t, size=100, fid="atk"))
        t += gap
    for index in range(5):
        rate = 3_000  # well under gamma_l
        gap_b = (60 * NS_PER_S) // rate
        t = rng.randint(0, gap_b)
        while t < duration_ns:
            packets.append(Packet(time=t, size=60, fid=f"bg{index}"))
            t += gap_b
    packets.sort(key=lambda p: (p.time, str(p.fid)))
    return packets


class TestRLFDConstruction:
    def test_threshold_formula_is_integer_exact(self):
        assert rlfd_threshold(10_000, 200, PERIOD_NS) == (
            10_000 * PERIOD_NS
        ) // NS_PER_S + 200

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"counters": 0},
            {"depth": 0},
            {"period_ns": 0},
            {"threshold": -1},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        base = dict(counters=4, depth=2, period_ns=PERIOD_NS, threshold=100)
        base.update(kwargs)
        with pytest.raises(ValueError):
            RecursiveLargeFlowDetector(**base)


class TestRLFDDetection:
    def test_localizes_in_region_flow(self):
        detector = make_rlfd()
        detector.observe_stream(in_region_mix())
        assert detector.is_detected("atk")
        assert detector.stats.flags >= 1

    def test_benign_small_flows_stay_clean(self):
        detector = make_rlfd()
        detector.observe_stream(in_region_mix())
        assert [fid for fid in detector.detected if fid != "atk"] == []

    def test_descents_follow_the_heaviest_branch(self):
        detector = make_rlfd()
        detector.observe_stream(in_region_mix())
        assert detector.stats.descents >= 1
        assert detector.stats.period_ends >= detector.stats.descents

    def test_idle_gap_fast_forward_lands_on_a_period_boundary(self):
        """A packet after a huge idle gap lands in a freshly-started
        period aligned to the warm-up's boundary grid, with every stale
        counter cleared — the arithmetic fast-forward must not leave
        partial-period debris behind."""
        detector = make_rlfd()
        for p in in_region_mix(duration_ns=200_000_000):
            detector.observe(p)
        origin = detector.snapshot()["period_start"]
        gap_end = 200_000_000 + 50 * PERIOD_NS * detector.depth + 12_345
        detector.observe(Packet(time=gap_end, size=100, fid="atk"))
        snap = detector.snapshot()
        # Landed inside the period containing the late packet, on the
        # same boundary grid the warm-up established.
        assert snap["period_start"] <= gap_end < snap["period_start"] + PERIOD_NS
        assert (snap["period_start"] - origin) % PERIOD_NS == 0
        # Every pre-gap count is gone: at most the late packet remains.
        assert sum(snap["counts"]) in (0, 100)
        assert sum(1 for c in snap["counts"] if c) <= 1

    def test_reset_restores_initial_state(self):
        detector = make_rlfd()
        detector.observe_stream(in_region_mix())
        detector.reset()
        fresh = make_rlfd()
        assert detector.snapshot() == fresh.snapshot()


class TestRLFDSnapshot:
    def test_restore_then_replay_is_bit_identical(self):
        packets = in_region_mix()
        cut = len(packets) // 2
        a = make_rlfd()
        for p in packets[:cut]:
            a.observe(p)
        state = json.loads(json.dumps(a.snapshot()))
        b = make_rlfd()
        b.restore(state)
        for p in packets[cut:]:
            assert a.observe(p) == b.observe(p)
        assert a.snapshot() == b.snapshot()
        assert a.detected == b.detected

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError):
            make_rlfd().restore({"format": 99})

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param({"counts": [0] * 8}, id="counter-count"),
            pytest.param(
                {"level": 5, "path": [9, 9, 9]}, id="level-past-depth"
            ),
            pytest.param({"level": -1}, id="negative-level"),
            pytest.param({"level": 1, "path": []}, id="path-short-of-level"),
            pytest.param({"level": 1, "path": [9]}, id="branch-past-counters"),
            pytest.param({"level": 1, "path": [-1]}, id="negative-branch"),
            pytest.param({"epoch": -1}, id="negative-epoch"),
        ],
    )
    def test_rejects_wrong_counter_count(self, overrides):
        """Restore checks the state's shape against the receiving
        detector (m=4, d=2): its counter count, a level inside the tree,
        a path that leads to that level through existing branches, and
        a non-negative epoch."""
        state = {**make_rlfd(counters=4, depth=2).snapshot(), **overrides}
        with pytest.raises(ValueError):
            make_rlfd(counters=4, depth=2).restore(state)


class TestTwinRLFD:
    def test_both_twins_see_every_packet(self):
        twin = TwinRLFD.for_config(
            CONFIG, counters=16, depth=2,
            fast_period_ns=PERIOD_NS, slow_period_ns=8 * PERIOD_NS,
        )
        packets = in_region_mix()
        twin.observe_stream(packets)
        assert twin.fast.stats.packets == len(packets)
        assert twin.slow.stats.packets == len(packets)

    def test_detection_is_union_of_twins(self):
        twin = TwinRLFD.for_config(
            CONFIG, counters=16, depth=2,
            fast_period_ns=PERIOD_NS, slow_period_ns=8 * PERIOD_NS,
        )
        twin.observe_stream(in_region_mix())
        union = set(twin.fast.detected) | set(twin.slow.detected)
        assert set(twin.detected) == union
        assert "atk" in twin.detected

    def test_twins_use_distinct_salted_seeds(self):
        twin = TwinRLFD.for_config(
            CONFIG, counters=16, depth=2,
            fast_period_ns=PERIOD_NS, slow_period_ns=8 * PERIOD_NS, seed=5,
        )
        assert twin.fast.seed != twin.slow.seed

    def test_snapshot_round_trip(self):
        make = lambda: TwinRLFD.for_config(
            CONFIG, counters=16, depth=2,
            fast_period_ns=PERIOD_NS, slow_period_ns=8 * PERIOD_NS,
        )
        packets = in_region_mix()
        a = make()
        for p in packets[:400]:
            a.observe(p)
        b = make()
        b.restore(json.loads(json.dumps(a.snapshot())))
        for p in packets[400:]:
            assert a.observe(p) == b.observe(p)
        assert a.snapshot() == b.snapshot()


class TestCLEF:
    def make(self):
        return CLEF.for_config(
            CONFIG, counters=16, depth=2,
            fast_period_ns=PERIOD_NS, slow_period_ns=8 * PERIOD_NS,
        )

    def test_exact_and_probabilistic_sets_are_separate(self):
        clef = self.make()
        clef.observe_stream(in_region_mix())
        # The attacker is in-region: exact EARDet must stay silent,
        # the probabilistic side must carry the verdict.
        assert "atk" not in clef.exact_detections
        assert "atk" in clef.probabilistic_detections

    def test_restore_then_replay_matches_detections(self):
        packets = in_region_mix()
        a = self.make()
        for p in packets[:500]:
            a.observe(p)
        b = self.make()
        b.restore(json.loads(json.dumps(a.snapshot())))
        for p in packets[500:]:
            assert a.observe(p) == b.observe(p)
        # Raw store entries may differ in process-global virtual flow
        # ids; the verdict surfaces must be bit-identical.
        assert a.detected == b.detected
        assert a.exact_detections == b.exact_detections
        assert a.probabilistic_detections == b.probabilistic_detections
        assert a.watcher.snapshot() == b.watcher.snapshot()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    cut=st.integers(min_value=0, max_value=300),
)
def test_rlfd_restore_replay_property(seed, cut):
    """Any prefix/suffix split restores and replays bit-identically."""
    rng = random.Random(seed)
    packets = []
    t = 0
    for _ in range(300):
        t += rng.randint(1_000, 20_000_000)
        packets.append(
            Packet(time=t, size=rng.randint(1, 100), fid=rng.randint(0, 9))
        )
    make = lambda: make_rlfd(counters=8, depth=2, seed=seed)
    a = make()
    for p in packets[:cut]:
        a.observe(p)
    b = make()
    b.restore(json.loads(json.dumps(a.snapshot())))
    for p in packets[cut:]:
        assert a.observe(p) == b.observe(p)
    assert a.snapshot() == b.snapshot()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=0, max_value=400),
    cut=st.floats(min_value=0.0, max_value=1.0),
    kind=st.sampled_from(FID_KINDS),
)
def test_twin_observe_batch_equals_per_packet_observe(seed, count, cut, kind):
    """The column path is the per-packet path.  Over random column
    splits, idle gaps of up to 1 s (hundreds of periods, epochs and tree
    restarts at 1 ms periods), a codec restore at a random cut, and
    int, str, tuple, FiveTuple and bytes ids, ``observe_batch`` leaves
    the twin and both RLFDs with per-packet ``observe``'s snapshots and
    detections, in insertion order."""
    rng = random.Random(seed ^ PIPELINE_SEED)
    packets = with_fid_kind(watcher_stream(rng, count, NS_PER_S), kind)
    cut = int(cut * len(packets))

    def make():
        return TwinRLFD.for_config(
            CONFIG, counters=4, depth=3, fast_period_ns=1_000_000,
            slow_period_ns=4_000_000, seed=seed,
        )

    def run(feed):
        first = make()
        feed(first, packets[:cut])
        second = make()
        second.restore(codec_round_trip(first.snapshot()))
        feed(second, packets[cut:])
        return second

    reference = run(lambda twin, part: twin.observe_stream(part))
    batched = run(lambda twin, part: feed_columns(twin, part, rng))
    assert batched.snapshot() == reference.snapshot()
    for name in ("fast", "slow"):
        assert list(getattr(batched, name).detected.items()) == list(
            getattr(reference, name).detected.items()
        )
    assert list(batched.detected.items()) == list(reference.detected.items())
