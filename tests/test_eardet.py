"""EARDet unit-level behaviour: the Figure 4 walk-through, blacklist
mechanics, virtual-traffic accounting, stats, and the reference/optimized
configuration switches."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EARDetConfig, engineer
from repro.core.counters import ReferenceCounterStore
from repro.core.eardet import EARDet
from repro.guard import InvariantChecker, InvariantViolation
from repro.model.packet import Packet
from repro.model.units import NS_PER_S
from repro.traffic.attacks import FloodingAttack
from repro.traffic.datasets import federico_like
from repro.traffic.mix import build_attack_scenario

from conftest import packet_lists


def flooded_federico():
    """A seeded paper-scale config and a federico_like(0.05) stream with
    five flooders on a mostly idle link."""
    dataset = federico_like(seed=7, scale=0.05)
    config = engineer(
        rho=dataset.rho,
        gamma_l=dataset.gamma_l,
        beta_l=dataset.beta_l,
        gamma_h=dataset.gamma_h,
        t_upincb_seconds=dataset.t_upincb_seconds,
    )
    scenario = build_attack_scenario(
        dataset.stream,
        FloodingAttack(rate=2 * dataset.gamma_h),
        attack_flows=5,
        rho=dataset.rho,
        seed=7,
    )
    return config, scenario.stream


def make_config(**overrides):
    defaults = dict(rho=1_000_000_000, n=3, beta_th=10, alpha=3, virtual_unit=1)
    defaults.update(overrides)
    return EARDetConfig(**defaults)


class TestFigure4WalkThrough:
    """The paper's Figure 4 example: n=3, beta_TH=10, alpha=3."""

    def test_counter_updates(self):
        detector = EARDet(make_config())
        # Prime the state to the figure's start: a=3, b=9, one empty slot.
        # Back-to-back packets at full link rate leave no idle bandwidth
        # (1 GB/s = 1 B/ns; each packet occupies exactly its size in ns).
        t = 0
        for _ in range(3):
            detector.observe(Packet(time=t, size=1, fid="a")); t += 1
        for _ in range(9):
            detector.observe(Packet(time=t, size=1, fid="b")); t += 1
        assert detector.counters == {"a": 3, "b": 9}

        # "flow g is added and its counter value becomes 2"
        detector.observe(Packet(time=t, size=2, fid="g")); t += 2
        assert detector.counters == {"a": 3, "b": 9, "g": 2}

        # "flow b is stored already, its counter is increased by 3;
        #  the new value exceeds beta_TH, and thus flow b is blacklisted"
        flagged = detector.observe(Packet(time=t, size=3, fid="b")); t += 3
        assert flagged
        assert detector.counters["b"] == 12  # > beta_TH = 10
        assert "b" in detector.blacklist

        # "the next flow, e, is not stored and there is no empty counter,
        #  so all counters are decreased by the packet size"
        detector.observe(Packet(time=t, size=2, fid="e")); t += 2
        assert detector.counters == {"a": 1, "b": 10}

        # "the virtual traffic is divided into single-unit packets with new
        #  flow IDs".  6 bytes of idle bandwidth arrive as 6 one-byte
        #  virtual flows into {a:1, b:10} with one free slot:
        #  u1 fills; u2 decrements 1 (evicting a AND u1 -> two slots);
        #  u3, u4 fill; u5 decrements 1 (evicting both); u6 fills.
        #  Net effect: b loses 2, one leftover virtual counter remains.
        detector.observe(Packet(time=t + 6, size=1, fid="h"))
        counters = detector.counters
        assert counters["b"] == 8
        assert "a" not in counters
        assert counters["h"] == 1
        assert sorted(counters.values()) == [1, 1, 8]  # b, h, one virtual

    def test_blacklisted_packets_skip_counters(self):
        detector = EARDet(make_config())
        t = 0
        for _ in range(11):
            detector.observe(Packet(time=t, size=1, fid="b")); t += 1
        assert "b" in detector.blacklist
        value = detector.counters["b"]
        detector.observe(Packet(time=t, size=3, fid="b"))
        assert detector.counters["b"] == value  # unchanged
        assert detector.stats.blacklisted_packets == 1


class TestDetection:
    def test_flow_exceeding_beta_th_is_reported(self):
        detector = EARDet(make_config())
        t = 0
        for index in range(11):
            flagged = detector.observe(Packet(time=t, size=1, fid="f"))
            t += 1
            assert flagged == (index >= 10)  # counter > 10 at the 11th byte
        assert detector.is_detected("f")
        assert detector.detection_time("f") == 10

    def test_observe_keeps_returning_true_for_detected_flow(self):
        detector = EARDet(make_config())
        t = 0
        for _ in range(11):
            detector.observe(Packet(time=t, size=1, fid="f")); t += 1
        assert detector.observe(Packet(time=t, size=1, fid="f"))

    def test_single_huge_packet_detected(self):
        detector = EARDet(make_config(beta_th=10, alpha=100))
        assert detector.observe(Packet(time=0, size=100, fid="elephant"))


class TestBlacklistLifecycle:
    def test_blacklist_bounded_by_counters(self):
        config = make_config(n=2, beta_th=5, alpha=20, virtual_unit=5)
        detector = EARDet(config)
        # Blacklist many distinct flows; the local blacklist must never
        # exceed n (pruning on each detection).
        t = 0
        for index in range(50):
            detector.observe(Packet(time=t, size=20, fid=("big", index)))
            t += 20
            assert len(detector.blacklist) <= config.n
        # The sink keeps every detection ever made (2 of every 3 flows
        # here: the third arrives to full counters and is absorbed by the
        # decrement — legal, since a single 20 B packet never violates
        # beta_h = alpha + 2 beta_TH = 30 B).
        assert len(detector.detected) == 34
        assert len(detector.blacklist) <= config.n

    def test_flow_leaves_blacklist_when_counter_decays(self):
        detector = EARDet(make_config())
        t = 0
        for _ in range(11):
            detector.observe(Packet(time=t, size=1, fid="b")); t += 1
        assert "b" in detector.blacklist
        # A long idle period drains every counter via virtual traffic.
        t += 1_000
        detector.observe(Packet(time=t, size=1, fid="x"))
        assert "b" not in detector.counters
        # The next packet of b is processed normally again...
        detector.observe(Packet(time=t + 1, size=1, fid="b"))
        assert "b" not in detector.blacklist
        assert detector.counters.get("b") == 1
        # ... but the sink still remembers the original detection.
        assert detector.is_detected("b")
        assert detector.detection_time("b") == 10


class TestVirtualTrafficAccounting:
    def test_idle_link_generates_virtual_traffic(self):
        detector = EARDet(make_config())
        detector.observe(Packet(time=0, size=1, fid="a"))
        detector.observe(Packet(time=100, size=1, fid="a"))
        # Gap 100 ns at 1 B/ns minus the 1 B previous packet = 99 B idle.
        assert detector.stats.virtual_bytes == 99

    def test_back_to_back_packets_generate_none(self):
        detector = EARDet(make_config())
        t = 0
        for _ in range(5):
            detector.observe(Packet(time=t, size=2, fid="a")); t += 2
        assert detector.stats.virtual_bytes == 0

    def test_oversubscribed_stream_clamps(self):
        detector = EARDet(make_config())
        detector.observe(Packet(time=0, size=100, fid="a"))
        detector.observe(Packet(time=1, size=100, fid="b"))  # wire-impossible
        assert detector.stats.oversubscribed_gaps == 1
        assert detector.stats.virtual_bytes == 0

    def test_fractional_idle_carryover(self):
        # 2 B/s link: a 1-second gap carries 2 bytes; a 0.25-second gap
        # carries 0.5 bytes, which must round via the carryover, not drop.
        config = EARDetConfig(rho=2, n=3, beta_th=10, alpha=3, virtual_unit=1)
        detector = EARDet(config)
        detector.observe(Packet(time=0, size=1, fid="a"))
        quarter = NS_PER_S // 4
        detector.observe(Packet(time=quarter, size=1, fid="a"))
        detector.observe(Packet(time=2 * quarter, size=1, fid="a"))
        # Gap volume each: 2 * 0.25s - 1 = -0.5 -> clamped to 0?  No:
        # 0.5 B - 1 B previous... rho*gap = 0.5 < size 1 -> oversubscribed.
        assert detector.stats.oversubscribed_gaps == 2

    def test_reference_virtual_mode_matches_fast(self):
        config = make_config()
        fast = EARDet(config)
        slow = EARDet(config, reference_virtual=True)
        packets = [
            Packet(time=0, size=3, fid="a"),
            Packet(time=50, size=2, fid="b"),
            Packet(time=51, size=3, fid="a"),
            Packet(time=200, size=1, fid="c"),
        ]
        for packet in packets:
            fast.observe(packet)
            slow.observe(packet)
        assert fast.snapshot() == slow.snapshot()
        assert fast.detected == slow.detected


class TestModesAndLifecycle:
    def test_reference_store_equivalence(self):
        config = make_config()
        optimized = EARDet(config)
        reference = EARDet(config, store_factory=ReferenceCounterStore)
        t = 0
        for index in range(60):
            packet = Packet(time=t, size=1 + index % 3, fid=("f", index % 5))
            optimized.observe(packet)
            reference.observe(packet)
            t += 1 + (index % 7)
        assert optimized.counters == reference.counters
        assert optimized.detected == reference.detected

    def test_reference_store_equivalence_on_attack_stream(self):
        """Heap and reference stores agree packet for packet on a
        paper-scale config over an idle link under flooding: virtual
        traffic, evictions, detections and blacklist pruning all run."""
        config, stream = flooded_federico()
        optimized = EARDet(config)
        reference = EARDet(config, store_factory=ReferenceCounterStore)
        optimized.observe_stream(stream)
        reference.observe_stream(stream)
        stats = optimized.stats.snapshot()
        assert stats["virtual_bytes"] > 0 and stats["detections"] > 0
        assert optimized.store_evictions > 0
        assert optimized.detected == reference.detected
        assert stats == reference.stats.snapshot()
        assert optimized.store_evictions == reference.store_evictions
        assert optimized.snapshot() == reference.snapshot()

    def test_blacklisted_consumes_link_mode(self):
        config = make_config()
        monitor = EARDet(config, blacklisted_consumes_link=True)
        t = 0
        for _ in range(11):
            monitor.observe(Packet(time=t, size=1, fid="b")); t += 1
        before = monitor.stats.virtual_bytes
        # Blacklisted packet occupying the wire: the following gap's idle
        # volume subtracts its bytes.
        monitor.observe(Packet(time=t, size=5, fid="b")); t += 5
        monitor.observe(Packet(time=t + 10, size=1, fid="x"))
        assert monitor.stats.virtual_bytes == before + 10

    def test_monitor_mode_link_accounting_ignores_blacklist(self):
        """With blacklisted flows occupying the wire, every packet
        consumes link bandwidth, so the idle volume (virtual bytes and
        oversubscribed gaps) must equal that of a detector that never
        blacklists anything."""
        config, stream = flooded_federico()
        monitor = EARDet(config, blacklisted_consumes_link=True)
        never = EARDet(dataclasses.replace(config, beta_th=10**15))
        monitor.observe_stream(stream)
        never.observe_stream(stream)
        assert monitor.stats.blacklisted_packets > 0
        assert never.stats.detections == 0
        assert monitor.stats.virtual_bytes == never.stats.virtual_bytes
        assert (
            monitor.stats.oversubscribed_gaps == never.stats.oversubscribed_gaps
        )
        assert monitor.carryover_numerator == never.carryover_numerator
        # Blacklisted packets still skip the counters.
        assert max(monitor.counters.values()) <= config.beta_th + config.alpha

    def test_reset_restores_initial_state(self, appendix_config):
        detector = EARDet(make_config())
        t = 0
        for _ in range(11):
            detector.observe(Packet(time=t, size=1, fid="b")); t += 1
        detector.reset()
        assert detector.counters == {}
        assert len(detector.blacklist) == 0
        assert detector.detected == {}
        assert detector.stats.packets == 0
        assert not detector.observe(Packet(time=0, size=1, fid="b"))

    def test_counter_count_and_repr(self):
        detector = EARDet(make_config())
        assert detector.counter_count() == 3
        assert "EARDet" in repr(detector)


class _TripChecker(InvariantChecker):
    """Checks every packet and raises at its ``at``-th one."""

    def __init__(self, at: int):
        super().__init__(every=1)
        self.at = at

    def after_packet(self, detector) -> None:
        super().after_packet(detector)
        if self.packets_seen == self.at:
            raise InvariantViolation(
                "tripped", check="test-trip", detector="eardet"
            )


def fed_detector(config, packets, chunk=None, checker=None):
    """An EARDet fed ``packets`` per packet through ``observe`` (``chunk``
    None) or in ``chunk``-packet column slices through ``observe_batch``."""
    detector = EARDet(config)
    if checker is not None:
        detector.attach_checker(checker)
    if chunk is None:
        for packet in packets:
            detector.observe(packet)
    else:
        for start in range(0, len(packets), chunk):
            part = packets[start:start + chunk]
            detector.observe_batch(
                [p.time for p in part],
                [p.size for p in part],
                [p.fid for p in part],
            )
    return detector


class TestObserveBatch:
    """``observe_batch`` over columns is ``observe`` per packet: one
    Algorithm-1 body, the same sink reports, the same checker calls."""

    @settings(max_examples=60, deadline=None)
    @given(
        packets=packet_lists(
            max_packets=80, max_flows=5, max_size=3, max_gap_ns=40
        ),
        chunk=st.integers(min_value=1, max_value=9),
        every=st.sampled_from([None, 1, 3]),
    )
    def test_matches_per_packet_observe(self, packets, chunk, every):
        config = make_config()
        per_packet = fed_detector(
            config, packets,
            checker=InvariantChecker(every) if every else None,
        )
        batched = fed_detector(
            config, packets, chunk=chunk,
            checker=InvariantChecker(every) if every else None,
        )
        assert batched.snapshot() == per_packet.snapshot()
        assert batched.detected == per_packet.detected
        assert batched.stats == per_packet.stats
        if every:
            for attr in ("packets_seen", "checks_run", "violations"):
                assert getattr(batched.checker, attr) == getattr(
                    per_packet.checker, attr
                )

    def test_matches_on_attack_stream_with_checker(self):
        """A paper-scale config under flooding (virtual traffic,
        evictions, detections and blacklist prunes all run) in
        1,024-packet columns with a sampled checker armed."""
        config, stream = flooded_federico()
        packets = list(stream)
        per_packet = fed_detector(
            config, packets, checker=InvariantChecker(64)
        )
        batched = fed_detector(
            config, packets, chunk=1024, checker=InvariantChecker(64)
        )
        assert per_packet.stats.detections > 0
        assert per_packet.stats.virtual_bytes > 0
        assert batched.snapshot() == per_packet.snapshot()
        assert batched.checker.checks_run == per_packet.checker.checks_run

    def test_violation_stops_at_the_same_packet(self):
        """A checker raising mid-batch stops the batch at that packet,
        exactly where per-packet ``observe`` stops."""
        config, stream = flooded_federico()
        packets = list(stream)[:5000]
        per_packet, batched = (
            EARDet(config).attach_checker(_TripChecker(1234))
            for _ in range(2)
        )
        with pytest.raises(InvariantViolation, match="tripped"):
            per_packet.observe_stream(packets)
        with pytest.raises(InvariantViolation, match="tripped"):
            batched.observe_batch(
                [p.time for p in packets],
                [p.size for p in packets],
                [p.fid for p in packets],
            )
        assert per_packet.stats.packets == 1234
        assert batched.stats == per_packet.stats
        assert batched.detected == per_packet.detected
