"""LOFT: aggregation, inversion, and the bounded exact watchlist.

The behaviours the pipeline depends on: in-region flows are promoted
and flagged on *exact* post-promotion evidence, sketch collisions alone
never flag anyone, the watchlist stays bounded under churn,
snapshot/restore replays bit-identically through JSON, and the column
path (``LOFT.observe_batch``) ends exactly where per-packet ``observe``
does.

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
from repro.detectors import LOFT
from repro.model.packet import Packet
from repro.model.units import NS_PER_S

CONFIG = EARDetConfig(
    rho=1_000_000, n=4, beta_th=500, alpha=100, beta_l=200, gamma_l=10_000
)

EPOCH_NS = 100_000_000

#: The CI ambiguity-corpus job sweeps this (see .github/workflows/ci.yml).
PIPELINE_SEED = int(os.environ.get("EARDET_PIPELINE_SEED", "7"))


def make_loft(**overrides):
    kwargs = dict(
        aggregates=32,
        epoch_ns=EPOCH_NS,
        gamma=CONFIG.gamma_l,
        beta=CONFIG.beta_l,
        stages=2,
        watchlist=8,
        flow_limit=256,
        seed=0,
    )
    kwargs.update(overrides)
    return LOFT(**kwargs)


def paced(fid, rate, duration_ns, size=100, start_ns=0):
    gap = (size * NS_PER_S) // rate
    t, packets = start_ns, []
    while t < start_ns + duration_ns:
        packets.append(Packet(time=t, size=size, fid=fid))
        t += gap
    return packets


def in_region_mix(duration_ns=NS_PER_S, seed=3):
    rng = random.Random(seed)
    packets = list(paced("atk", 25_000, duration_ns))
    for index in range(5):
        packets.extend(
            paced(f"bg{index}", 3_000, duration_ns, size=60,
                  start_ns=rng.randint(0, 10_000))
        )
    packets.sort(key=lambda p: (p.time, str(p.fid)))
    return packets


class TestConstruction:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"aggregates": 0},
            {"epoch_ns": 0},
            {"gamma": -1},
            {"beta": -1},
            {"stages": 0},
            {"watchlist": 0},
            {"flow_limit": 0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            make_loft(**kwargs)

    def test_for_config_sizes_against_low_threshold(self):
        loft = LOFT.for_config(CONFIG, aggregates=16, epoch_ns=EPOCH_NS)
        assert loft.gamma == CONFIG.gamma_l
        assert loft.beta == CONFIG.beta_l


class TestDetection:
    def test_traces_in_region_flow(self):
        loft = make_loft()
        loft.observe_stream(in_region_mix())
        assert loft.is_detected("atk")
        assert loft.stats.promotions >= 1
        assert loft.stats.flags >= 1

    def test_benign_small_flows_stay_clean(self):
        loft = make_loft()
        loft.observe_stream(in_region_mix())
        assert [fid for fid in loft.detected if fid != "atk"] == []

    def test_flags_require_post_promotion_evidence(self):
        """A promoted flow starts with an empty exact bucket: promotion
        alone (e.g. via sketch collisions) never flags — the flow must
        keep overusing afterwards."""
        duration = 3 * EPOCH_NS
        # Overuses for one epoch, then goes silent forever.
        burst = paced("one-epoch", 25_000, EPOCH_NS)
        tail = paced("bg", 3_000, duration, size=60)
        packets = sorted(burst + tail, key=lambda p: (p.time, str(p.fid)))
        loft = make_loft()
        loft.observe_stream(packets)
        # It may well be promoted off the first epoch's sketch...
        assert loft.stats.promotions >= 1
        # ...but with no post-promotion traffic there is no exact
        # evidence, so it is never flagged.
        assert not loft.is_detected("one-epoch")

    def test_watchlist_stays_bounded_under_churn(self):
        loft = make_loft(watchlist=4)
        rng = random.Random(1)
        packets = []
        for index in range(12):  # 12 in-region flows fight for 4 slots
            packets.extend(
                paced(f"atk{index}", 22_000, NS_PER_S,
                      start_ns=rng.randint(0, 50_000))
            )
        packets.sort(key=lambda p: (p.time, str(p.fid)))
        for p in packets:
            loft.observe(p)
            assert len(loft.watched) <= 4
        assert loft.stats.evictions >= 1

    def test_flow_limit_bounds_epoch_tracking(self):
        loft = make_loft(flow_limit=16)
        t = 0
        for index in range(200):
            t += 10_000
            loft.observe(Packet(time=t, size=100, fid=("flood", index)))
        assert loft.stats.untracked_packets > 0

    def test_idle_gap_fast_forward_demotes_drained_entries(self):
        loft = make_loft()
        for p in in_region_mix(duration_ns=400_000_000):
            loft.observe(p)
        assert len(loft.watched) >= 1
        before = loft.epoch
        # A season of silence: every unflagged entry drains and demotes.
        loft.observe(Packet(time=100 * NS_PER_S, size=60, fid="bg0"))
        assert loft.epoch > before + 100
        assert all(fid in loft.sink for fid in loft.watched) or not loft.watched

    def test_reset_restores_initial_state(self):
        loft = make_loft()
        loft.observe_stream(in_region_mix())
        loft.reset()
        assert loft.snapshot() == make_loft().snapshot()


class TestSnapshot:
    def test_restore_then_replay_is_bit_identical(self):
        packets = in_region_mix()
        cut = len(packets) // 2
        a = make_loft()
        for p in packets[:cut]:
            a.observe(p)
        b = make_loft()
        b.restore(json.loads(json.dumps(a.snapshot())))
        for p in packets[cut:]:
            assert a.observe(p) == b.observe(p)
        assert a.snapshot() == b.snapshot()
        assert a.detected == b.detected

    def test_tuple_flow_ids_survive_json(self):
        a = make_loft()
        t = 0
        for _ in range(3000):
            t += 100_000  # 1 MB/s for 300 ms: spans several epochs
            a.observe(Packet(time=t, size=100, fid=("ip", 7)))
        assert ("ip", 7) in a.watched
        b = make_loft()
        b.restore(json.loads(json.dumps(a.snapshot())))
        assert b.watched == a.watched
        assert b.snapshot() == a.snapshot()

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError):
            make_loft().restore({"format": 99})

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param({"sketch": [[0] * 8] * 2}, id="aggregates"),
            pytest.param({"sketch": [[0] * 32]}, id="stages"),
            pytest.param(
                {"watch": [[f"w{i}", 0, 0, 0] for i in range(5)]},
                id="watch-past-watchlist",
            ),
            pytest.param(
                {"tracked": [f"t{i}" for i in range(10)]},
                id="tracked-past-flow-limit",
            ),
            pytest.param({"epoch_index": -1}, id="negative-epoch-index"),
        ],
    )
    def test_rejects_wrong_sketch_shape(self, overrides):
        """Restore checks the state's shape against the receiving
        detector (32 aggregates x 2 stages, watchlist 2, flow limit 3):
        the sketch, at most ``watchlist`` watched and ``flow_limit``
        tracked flows, and a non-negative epoch index."""
        make = lambda: make_loft(aggregates=32, watchlist=2, flow_limit=3)
        state = {**make().snapshot(), **overrides}
        with pytest.raises(ValueError):
            make().restore(state)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    cut=st.integers(min_value=0, max_value=300),
)
def test_loft_restore_replay_property(seed, cut):
    """Any prefix/suffix split restores and replays bit-identically,
    including through a JSON round trip."""
    rng = random.Random(seed)
    packets = []
    t = 0
    for _ in range(300):
        t += rng.randint(1_000, 20_000_000)
        packets.append(
            Packet(time=t, size=rng.randint(1, 100), fid=rng.randint(0, 9))
        )
    make = lambda: make_loft(aggregates=8, watchlist=4, seed=seed)
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
def test_observe_batch_equals_per_packet_observe(seed, count, cut, kind):
    """The column path is the per-packet path.  Over random column
    splits, idle gaps of up to 1 s (hundreds of 2 ms epochs: promotions,
    evictions, demotions, untracked packets), a codec restore at a
    random cut, and int, str, tuple, FiveTuple and bytes ids,
    ``observe_batch`` leaves per-packet ``observe``'s snapshot and
    detections, in insertion order."""
    rng = random.Random(seed ^ PIPELINE_SEED)
    packets = with_fid_kind(watcher_stream(rng, count, NS_PER_S), kind)
    cut = int(cut * len(packets))

    def make():
        return make_loft(
            aggregates=4, epoch_ns=2_000_000, watchlist=2, flow_limit=4,
            seed=seed,
        )

    def run(feed):
        first = make()
        feed(first, packets[:cut])
        second = make()
        second.restore(codec_round_trip(first.snapshot()))
        feed(second, packets[cut:])
        return second

    reference = run(lambda loft, part: loft.observe_stream(part))
    batched = run(lambda loft, part: feed_columns(loft, part, rng))
    assert batched.snapshot() == reference.snapshot()
    assert list(batched.detected.items()) == list(reference.detected.items())
