"""Seeded large-scale stress tests: the exactness guarantees at volume.

Hypothesis explores many small adversarial cases; these tests complement
it with a few *large* seeded streams (tens of thousands of packets,
realistic configs) where bookkeeping bugs that only manifest at scale —
heap staleness, carryover drift, blacklist churn, cycle-detection
interactions — would surface.  Each case runs EARDet over the stream and
asserts Definition 1 against exact ground truth.
"""

import math
import random

import pytest

from repro.analysis.groundtruth import label_stream
from repro.core.config import EARDetConfig, engineer
from repro.core.eardet import EARDet
from repro.model.packet import Packet
from repro.model.stream import PacketStream
from repro.model.thresholds import ThresholdFunction
from repro.traffic.link import serialize


def random_stream(seed: int, packets: int, flows: int, rho: int, alpha: int):
    """An adversarial-ish random stream: heavy-tailed sizes, bursty gaps,
    occasional long silences, flow IDs reused across epochs."""
    rng = random.Random(seed)
    out = []
    t = 0
    for index in range(packets):
        roll = rng.random()
        if roll < 0.02:
            t += rng.randrange(1, 50) * alpha * 1_000_000_000 // rho * 100
        elif roll < 0.4:
            t += 0  # burst: same-instant arrivals
        else:
            t += rng.randrange(1, 4 * alpha * 1_000_000_000 // rho)
        size = min(alpha, max(1, int(rng.paretovariate(1.2) * 40)))
        fid = rng.randrange(flows) if roll < 0.9 else ("rare", index % 17)
        out.append(Packet(time=t, size=size, fid=fid))
    return serialize(out, rho)


CASES = [
    # (seed, packets, flows, n, beta_th, rho)
    (1, 30_000, 40, 5, 3_000, 10_000_000),
    (2, 30_000, 400, 25, 7_000, 100_000_000),
    (3, 20_000, 8, 3, 500, 1_000_000),
]


@pytest.mark.parametrize("seed,packets,flows,n,beta_th,rho", CASES)
def test_exactness_at_scale(seed, packets, flows, n, beta_th, rho):
    alpha = 1518
    config = EARDetConfig(rho=rho, n=n, beta_th=beta_th, alpha=alpha, beta_l=beta_th // 2)
    stream = random_stream(seed, packets, flows, rho, alpha)
    gamma_l = int(config.rnfp) - 1
    assert gamma_l >= 1
    high = ThresholdFunction(gamma=math.ceil(config.rnfn), beta=config.beta_h)
    low = ThresholdFunction(gamma=gamma_l, beta=config.beta_l)
    labels = label_stream(stream, high=high, low=low)
    detector = EARDet(config).observe_stream(stream)
    assert detector.stats.oversubscribed_gaps == 0
    missed = [
        fid for fid, label in labels.items()
        if label.is_large and not detector.is_detected(fid)
    ]
    framed = [
        fid for fid, label in labels.items()
        if label.is_small and detector.is_detected(fid)
    ]
    assert not missed, f"no-FNl violated at scale: {missed[:5]}"
    assert not framed, f"no-FPs violated at scale: {framed[:5]}"
    # State invariants survived the run.
    assert len(detector.counters) <= n
    assert all(0 < v <= beta_th + alpha for v in detector.counters.values())


def test_engineered_config_on_long_mixed_trace():
    """A half-million-packet-second scenario through an engineered config:
    background + shaped small flows + attackers; exactness end to end."""
    from repro.traffic.attacks import FloodingAttack, ShrewAttack
    from repro.traffic.datasets import federico_like
    from repro.traffic.mix import build_attack_scenario
    from repro.model.units import milliseconds

    dataset = federico_like(seed=99, scale=0.2)
    config = engineer(
        rho=dataset.rho,
        gamma_l=dataset.gamma_l,
        beta_l=dataset.beta_l,
        gamma_h=dataset.gamma_h,
        t_upincb_seconds=1.0,
    )
    scenario = build_attack_scenario(
        dataset.stream,
        ShrewAttack(
            burst_rate=round(1.3 * dataset.gamma_h),
            burst_duration_ns=milliseconds(700),
        ),
        attack_flows=30,
        rho=dataset.rho,
        congested=True,
        seed=99,
    )
    high = ThresholdFunction(gamma=dataset.gamma_h, beta=config.beta_h)
    labels = label_stream(scenario.stream, high=high, low=dataset.low_threshold)
    detector = EARDet(config).observe_stream(scenario.stream)
    for fid, label in labels.items():
        if label.is_large:
            assert detector.is_detected(fid), fid
        elif label.is_small:
            assert not detector.is_detected(fid), fid


def _admit_step(store, fid, amount):
    """The fused Misra-Gries step EARDet runs on a full store."""
    leftover = store.admit(amount)
    if leftover > 0:
        store.insert(fid, leftover)


def _decrement_all_step(store, fid, amount):
    """The primitive step virtual traffic still calls."""
    store.decrement_all(min(amount, store.min_value()))


def test_counter_store_heap_health_over_long_run():
    """The lazy heap must not accumulate stale entries without bound,
    whichever step a full store takes."""
    from repro.core.counters import HeapCounterStore

    for full_step in (_admit_step, _decrement_all_step):
        rng = random.Random(7)
        store = HeapCounterStore(64)
        for index in range(200_000):
            fid = rng.randrange(200)
            amount = rng.randint(1, 1518)
            if fid in store:
                store.increment(fid, amount)
            elif not store.is_full:
                store.insert(fid, amount)
            else:
                full_step(store, fid, amount)
        # Lazy deletion keeps some staleness, but it must stay
        # proportional to the live set, not the operation count.
        assert len(store._heap) < 50_000, full_step.__name__
