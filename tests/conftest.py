"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import strategies as st

from repro.core.config import EARDetConfig, engineer
from repro.model.packet import FiveTuple, Packet
from repro.model.stream import PacketStream
from repro.model.thresholds import ThresholdFunction

# ---------------------------------------------------------------- fixtures


@pytest.fixture
def small_config() -> EARDetConfig:
    """A tiny EARDet instance for fast unit tests."""
    return EARDetConfig(rho=1_000_000, n=4, beta_th=500, alpha=100, beta_l=200, gamma_l=10_000)


@pytest.fixture
def appendix_config() -> EARDetConfig:
    """The Appendix-A worked example's configuration (n=101)."""
    return engineer(
        rho=100_000_000,
        gamma_l=100_000,
        beta_l=6072,
        gamma_h=1_000_000,
        t_upincb_seconds=1.0,
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


# ---------------------------------------------------------------- strategies


@st.composite
def packet_lists(
    draw,
    max_packets: int = 60,
    max_flows: int = 6,
    max_size: int = 1518,
    max_gap_ns: int = 2_000_000,
):
    """A time-ordered list of packets over a handful of flows."""
    count = draw(st.integers(min_value=0, max_value=max_packets))
    packets = []
    time = 0
    for _ in range(count):
        time += draw(st.integers(min_value=0, max_value=max_gap_ns))
        packets.append(
            Packet(
                time=time,
                size=draw(st.integers(min_value=1, max_value=max_size)),
                fid=draw(st.integers(min_value=0, max_value=max_flows - 1)),
            )
        )
    return packets


@st.composite
def threshold_functions(draw, max_gamma: int = 10_000_000, max_beta: int = 100_000):
    return ThresholdFunction(
        gamma=draw(st.integers(min_value=1, max_value=max_gamma)),
        beta=draw(st.integers(min_value=1, max_value=max_beta)),
    )


@pytest.fixture
def tiny_stream() -> PacketStream:
    """A deterministic 3-flow stream for smoke tests."""
    return PacketStream(
        [
            Packet(time=0, size=100, fid="a"),
            Packet(time=1_000, size=200, fid="b"),
            Packet(time=2_000, size=100, fid="a"),
            Packet(time=5_000, size=300, fid="c"),
            Packet(time=9_000, size=50, fid="b"),
        ]
    )


# ---------------------------------------------------------- service streams


def mixed_packets(
    count=5000, seed=7, heavy_share=0.1, flows=50, max_gap_ns=40_000
):
    """The service suites' mixed stream: many small flows plus one flow,
    ``heavy``, heavy enough to be detected, seeded for reproducible
    chaos.  A ``max_gap_ns`` in the milliseconds idles the link, which
    leaves virtual counters in the stores.  Each suite binds its own
    defaults as ``make_packets``."""
    rng = random.Random(seed)
    packets = []
    time = 0
    for _ in range(count):
        time += rng.randint(100, max_gap_ns)
        if rng.random() < heavy_share:
            fid = "heavy"
        else:
            fid = f"flow-{rng.randint(0, flows - 1)}"
        packets.append(Packet(time=time, size=rng.randint(40, 1518), fid=fid))
    return packets


# ---------------------------------------------------------------- flow ids

#: Flow-ID kinds the transport differentials run over: ``str`` IDs (the
#: codec-list column), interned ints (the packed int64 column), and a mix
#: of every kind the value codec carries.
FID_KINDS = ("str", "int", "mixed")


def _mixed_fid(index: int):
    """The ``index``-th distinct flow's ID in the mixed stream: two bools,
    one int above 2**63, then ints, strs, tuples, FiveTuples and bytes
    in turn."""
    special = {0: True, 1: False, 2: 2**63 + 7}
    if index in special:
        return special[index]
    kinds = (
        lambda: 1000 + index,
        lambda: f"flow-{index}",
        lambda: ("pair", index),
        lambda: FiveTuple(0x0A000001, index, 80, 443),
        lambda: b"raw-%d" % index,
    )
    return kinds[index % len(kinds)]()


def with_fid_kind(packets, kind: str):
    """``packets`` with each distinct flow ID replaced per ``kind`` (see
    :data:`FID_KINDS`), in order of first appearance."""
    if kind == "str":
        return list(packets)
    mapping: dict = {}
    rewritten = []
    for packet in packets:
        index = mapping.setdefault(packet.fid, len(mapping))
        fid = index if kind == "int" else _mixed_fid(index)
        rewritten.append(Packet(time=packet.time, size=packet.size, fid=fid))
    return rewritten


# ------------------------------------------------------ watcher columns


def watcher_stream(rng: random.Random, count: int, idle_ns: int):
    """``count`` packets over eight ``str`` flows, one of them heavy:
    gaps of up to 200 us (equal times included) and, now and then, an
    idle gap of up to ``idle_ns``.  Gaps are whole multiples of 25 us,
    so packets land exactly on millisecond period boundaries too.
    Rewrite the ids with :func:`with_fid_kind`."""
    packets, time = [], 0
    for _ in range(count):
        if rng.random() < 0.05:
            time += rng.randint(0, idle_ns // 25_000) * 25_000
        else:
            time += rng.randint(0, 8) * 25_000
        index = 0 if rng.random() < 0.4 else rng.randint(1, 7)
        packets.append(
            Packet(time=time, size=rng.randint(1, 1500), fid=f"f{index}")
        )
    return packets


def feed_columns(detector, packets, rng: random.Random) -> None:
    """Feed ``packets`` to ``detector.observe_batch`` as ``(times, sizes,
    fids)`` chunks of random lengths, empty chunks included."""
    start = 0
    while start < len(packets):
        chunk = packets[start:start + rng.randint(0, 40)]
        detector.observe_batch(
            [p.time for p in chunk],
            [p.size for p in chunk],
            [p.fid for p in chunk],
        )
        start += len(chunk)


def codec_round_trip(state):
    """``state`` through JSON, or through the checkpoint codec when JSON
    cannot carry its flow ids (``FiveTuple``, ``bytes``)."""
    try:
        return json.loads(json.dumps(state))
    except TypeError:
        from repro.service.checkpoint import dumps, loads

        return loads(dumps(state))
