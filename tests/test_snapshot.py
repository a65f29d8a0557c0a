"""Exact checkpoint/restore: snapshot round-trips on every stateful
component, and the end-to-end property the service depends on —
``restore(snapshot(d))`` followed by a replayed suffix is byte-identical
(detections, detection timestamps, stats, logical counters) to the
uninterrupted run."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blacklist import Blacklist, ReportSink
from repro.core.config import EARDetConfig
from repro.core.counters import (
    CounterStoreError,
    HeapCounterStore,
    ReferenceCounterStore,
    VirtualUnit,
)
from repro.core.eardet import EARDet, ReconfigurationError, reconfigure_state
from repro.core.parallel import ParallelEARDet
from repro.core.virtual import Carryover
from repro.model.packet import Packet
from repro.service.checkpoint import Encoded, dumps, loads

from conftest import packet_lists

#: Tiny instance shared by the replay properties (a module constant, not
#: the ``small_config`` fixture: hypothesis forbids function-scoped
#: fixtures inside @given).
SMALL_CONFIG = EARDetConfig(
    rho=1_000_000, n=4, beta_th=500, alpha=100, beta_l=200, gamma_l=10_000
)


def assert_equivalent(left: EARDet, right: EARDet) -> None:
    """One logical state: equal detections and byte-identical snapshots
    (counters, virtual values, blacklist, carryover, link clock, stats)."""
    assert left.detected == right.detected
    assert dumps(left.snapshot()) == dumps(right.snapshot())


# ---------------------------------------------------------------- components


class TestComponentRoundTrips:
    def test_carryover(self):
        carry = Carryover()
        carry.integerize(1_234_567_891)
        state = carry.snapshot()
        restored = Carryover()
        restored.restore(state)
        assert restored.remainder_scaled == carry.remainder_scaled
        # the restored remainder keeps integerizing identically
        assert restored.integerize(999_999_999) == carry.integerize(999_999_999)

    def test_carryover_rejects_non_int(self):
        with pytest.raises(TypeError):
            Carryover().restore("nope")

    def test_blacklist(self):
        blacklist = Blacklist()
        for fid in ("a", 7, ("tuple", 1)):
            blacklist.add(fid)
        restored = Blacklist()
        restored.restore(blacklist.snapshot())
        assert set(restored) == set(blacklist)

    def test_report_sink_round_trip_keeps_first_times(self):
        sink = ReportSink()
        sink.report("x", 50)
        sink.report("y", 10)
        sink.report("x", 5)  # re-report must not move the timestamp
        restored = ReportSink()
        restored.restore(sink.snapshot())
        assert restored.as_dict() == {"x": 50, "y": 10}

    def test_sink_merge_keeps_earliest(self):
        a, b = ReportSink(), ReportSink()
        a.report("x", 50)
        b.report("x", 20)
        b.report("y", 99)
        a.merge(b)
        assert a.as_dict() == {"x": 20, "y": 99}

    @pytest.mark.parametrize("store_cls", [ReferenceCounterStore, HeapCounterStore])
    def test_counter_store_round_trip(self, store_cls):
        store = store_cls(4)
        store.insert("a", 10)
        store.insert("b", 25)
        store.insert("c", 7)
        store.decrement_all(5)
        restored = store_cls(4)
        restored.restore(store.snapshot())
        assert restored.as_dict() == store.as_dict()
        assert restored.min_value() == store.min_value()
        # mutations continue identically
        for s in (store, restored):
            s.increment("a", 3)
            s.decrement_all(2)
        assert restored.as_dict() == store.as_dict()

    def test_counter_store_snapshots_interchangeable_across_impls(self):
        heap = HeapCounterStore(3)
        heap.insert("a", 10)
        heap.insert("b", 4)
        heap.decrement_all(2)
        reference = ReferenceCounterStore(3)
        reference.restore(heap.snapshot())
        assert reference.as_dict() == heap.as_dict()

    def test_counter_store_snapshot_is_canonical(self):
        """One logical state, one snapshot: virtual counters are written
        as sorted values, whatever order they were stored in."""
        heap, reference = HeapCounterStore(4), ReferenceCounterStore(4)
        heap.insert("a", 2)
        for value in (5, 3, 9):
            heap.insert(VirtualUnit(), value)
        for value in (9, 5, 3):
            reference.insert(VirtualUnit(), value)
        reference.insert("a", 2)
        assert heap.snapshot()["virtual"] == [3, 5, 9]
        assert dumps(heap.snapshot()) == dumps(reference.snapshot())

    def test_counter_store_capacity_mismatch_rejected(self):
        store = HeapCounterStore(4)
        store.insert("a", 1)
        with pytest.raises(CounterStoreError):
            HeapCounterStore(5).restore(store.snapshot())


# ---------------------------------------------------------------- the codec


class TestBinaryCodec:
    values = st.recursive(
        st.none()
        | st.booleans()
        | st.integers()
        | st.floats(allow_nan=False)
        | st.text(max_size=20)
        | st.binary(max_size=20),
        lambda children: st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=8), children, max_size=4),
        max_leaves=25,
    )

    @given(values)
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, value):
        assert loads(dumps(value)) == value
        # An Encoded value is embedded verbatim: same bytes, same value.
        assert dumps(Encoded(value)) == dumps(value)

    def test_str_items_encode_like_lone_strs(self):
        """List and tuple items take a one-write path for short strs;
        the bytes match the str encoded on its own, on both sides of
        the one-byte length limit."""
        for text in ("f1", "\u00e9" * 63, "x" * 127, "x" * 128, "\u00e9" * 64):
            alone = dumps(text)[10:-4]  # the payload, without header/CRC
            assert dumps([text])[10:-4] == b"\x08\x01" + alone
            assert dumps((text, 1))[10:-4] == b"\x07\x02" + alone + b"\x03\x02"

    def test_round_trip_preserves_types(self):
        value = {"t": (1, "x"), "l": [1, "x"], "i": 2**200, "n": -(2**200)}
        restored = loads(dumps(value))
        assert restored == value
        assert isinstance(restored["t"], tuple)
        assert isinstance(restored["l"], list)

    def test_deterministic_bytes(self):
        value = {"a": [1, 2, ("x", None)], "b": True}
        assert dumps(value) == dumps(value)


# ------------------------------------------------- the end-to-end property


def _run_split(config, packets, split, factory):
    """Reference run vs snapshot-at-split + restore-into-fresh + replay."""
    reference = factory(config)
    for packet in packets:
        reference.observe(packet)

    original = factory(config)
    for packet in packets[:split]:
        original.observe(packet)
    state = original.snapshot()
    resumed = factory(config)
    resumed.restore(state)
    for packet in packets[split:]:
        resumed.observe(packet)
    return reference, resumed


class TestSnapshotReplayProperty:
    """The acceptance property: snapshot → restore → replay suffix is
    indistinguishable from never stopping."""

    @given(
        packets=packet_lists(max_packets=80, max_flows=5, max_gap_ns=5_000_000),
        split_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_eardet_heap_store(self, packets, split_fraction):
        split = int(len(packets) * split_fraction)
        reference, resumed = _run_split(
            SMALL_CONFIG, packets, split, lambda c: EARDet(c)
        )
        assert_equivalent(reference, resumed)

    @given(
        packets=packet_lists(max_packets=60, max_flows=5, max_gap_ns=5_000_000),
        split_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_eardet_reference_store(self, packets, split_fraction):
        split = int(len(packets) * split_fraction)
        reference, resumed = _run_split(
            SMALL_CONFIG,
            packets,
            split,
            lambda c: EARDet(c, store_factory=ReferenceCounterStore),
        )
        assert_equivalent(reference, resumed)

    @given(
        packets=packet_lists(max_packets=80, max_flows=8, max_gap_ns=5_000_000),
        split_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_parallel_eardet(self, packets, split_fraction):
        split = int(len(packets) * split_fraction)
        reference, resumed = _run_split(
            SMALL_CONFIG,
            packets,
            split,
            lambda c: ParallelEARDet(c, shards=3, seed=42),
        )
        assert reference.detected == resumed.detected
        for left, right in zip(reference.shards, resumed.shards):
            assert_equivalent(left, right)

    @given(
        packets=packet_lists(max_packets=60, max_flows=5, max_gap_ns=5_000_000),
        split_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_snapshot_survives_serialization(self, packets, split_fraction):
        """The same property with the binary codec in the loop — what a
        checkpoint file actually does to the state."""
        split = int(len(packets) * split_fraction)
        reference = EARDet(SMALL_CONFIG)
        for packet in packets:
            reference.observe(packet)
        original = EARDet(SMALL_CONFIG)
        for packet in packets[:split]:
            original.observe(packet)
        resumed = EARDet(SMALL_CONFIG)
        resumed.restore(loads(dumps(original.snapshot())))
        for packet in packets[split:]:
            resumed.observe(packet)
        assert_equivalent(reference, resumed)


def idle_packets(count, seed, flows):
    """A seeded stream with gaps of up to 3 ms on SMALL_CONFIG's 1 MB/s
    link: idle enough to leave virtual counters in the store."""
    rng = random.Random(seed)
    packets, time = [], 0
    for _ in range(count):
        time += rng.randint(100, 3_000_000)
        packets.append(
            Packet(time, rng.randint(40, 100), rng.randint(0, flows - 1))
        )
    return packets


def test_one_stream_one_snapshot():
    """Two detectors fed one stream in one process serialize to the same
    bytes: virtual counters are values, not names drawn from a sequence
    the first detector already advanced."""
    packets = idle_packets(50, seed=7, flows=6)
    first, second = EARDet(SMALL_CONFIG), EARDet(SMALL_CONFIG)
    for detector in (first, second):
        for packet in packets:
            detector.observe(packet)
    assert dumps(first.snapshot()) == dumps(second.snapshot())
    assert first.snapshot()["store"]["virtual"], "test needs virtual counters"


def test_reconfigure_counts_virtual_counters():
    """``reconfigure_state`` counts real and virtual counters against the
    new ``n``: one slot too few refuses, and exactly enough restores and
    continues identically to the uninterrupted detector."""
    packets = idle_packets(400, seed=11, flows=10)
    n = SMALL_CONFIG.n
    detector = EARDet(SMALL_CONFIG)
    for split, packet in enumerate(packets, start=1):
        detector.observe(packet)
        state = detector.snapshot()
        store = state["store"]
        if store["entries"] and store["virtual"] and len(detector.counters) == n:
            break
    else:
        pytest.fail("test needs a full store of real and virtual counters")
    with pytest.raises(ReconfigurationError):
        reconfigure_state(state, dataclasses.replace(SMALL_CONFIG, n=n - 1))
    resumed = EARDet(SMALL_CONFIG)
    resumed.restore(reconfigure_state(state, SMALL_CONFIG))
    for packet in packets[split:]:
        detector.observe(packet)
        resumed.observe(packet)
    assert_equivalent(detector, resumed)


class TestRestoreSafety:
    def test_format_version_checked(self, small_config):
        detector = EARDet(small_config)
        state = detector.snapshot()
        state["format"] = 999
        with pytest.raises(ValueError, match="snapshot format"):
            EARDet(small_config).restore(state)

    def test_parallel_seed_mismatch_rejected(self, small_config):
        state = ParallelEARDet(small_config, shards=2, seed=1).snapshot()
        with pytest.raises(ValueError, match="seed"):
            ParallelEARDet(small_config, shards=2, seed=2).restore(state)

    def test_parallel_shard_count_mismatch_rejected(self, small_config):
        state = ParallelEARDet(small_config, shards=2).snapshot()
        with pytest.raises(ValueError, match="shards"):
            ParallelEARDet(small_config, shards=3).restore(state)

    def test_restored_virtual_counters_continue_identically(
        self, small_config
    ):
        """Virtual counters restore under fresh keys: a detector restored
        through the codec and served more idle time ends in the
        uninterrupted detector's state."""
        packets = [
            Packet(time=time, size=100, fid="a")
            for time in (0, 1_000_000, 2_000_000)
        ]
        detector = EARDet(small_config)
        for packet in packets[:2]:
            detector.observe(packet)
        # Long idle gaps leave virtual counters in the store.
        state = detector.snapshot()
        assert state["store"]["virtual"], "test needs virtual counters"
        resumed = EARDet(small_config)
        resumed.restore(loads(dumps(state)))
        for twin in (detector, resumed):
            twin.observe(packets[2])
        assert_equivalent(detector, resumed)
