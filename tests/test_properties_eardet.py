"""EARDet's exactness guarantees as property-based tests.

These are the paper's Theorems 4 and 6, asserted as *hard properties* on
randomized adversarial traffic:

- **no-FNl**: every flow that is ground-truth LARGE (some arbitrary window
  violates ``TH_h(t) = ceil(rho/(n+1)) t + (alpha + 2 beta_TH)``) must be
  detected;
- **no-FPs**: every flow that is ground-truth SMALL (all windows strictly
  under ``TH_l(t) = gamma_l t + beta_l`` with ``gamma_l < R_NFP``,
  ``beta_l < beta_TH``) must never be detected.

Traffic is arbitrary except for physics: the stream is serialized through
the link so it never exceeds capacity (the theorems' only assumption).
Both the optimized and the reference stores are exercised.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core.config import EARDetConfig
from repro.core.counters import ReferenceCounterStore
from repro.core.eardet import EARDet
from repro.analysis.groundtruth import label_stream
from repro.model.packet import Packet
from repro.model.thresholds import ThresholdFunction
from repro.traffic.link import serialize


@st.composite
def adversarial_scenarios(draw):
    """A small EARDet config plus an arbitrary capacity-respecting stream."""
    n = draw(st.integers(min_value=2, max_value=5))
    beta_th = draw(st.integers(min_value=4, max_value=40))
    alpha = draw(st.integers(min_value=2, max_value=20))
    beta_l = draw(st.integers(min_value=1, max_value=beta_th - 1))
    rho = draw(st.sampled_from([1_000, 1_000_000, 1_000_000_000]))
    unit = draw(st.integers(min_value=1, max_value=beta_th))
    config = EARDetConfig(
        rho=rho, n=n, beta_th=beta_th, alpha=alpha, beta_l=beta_l,
        virtual_unit=unit,
    )
    # The largest integer gamma_l strictly below R_NFP (skip the scenario
    # if even 1 B/s is too fast — possible only for tiny rho).
    rnfp = config.rnfp
    gamma_l = int(rnfp) if rnfp > int(rnfp) else int(rnfp) - 1
    count = draw(st.integers(min_value=0, max_value=80))
    packets = []
    time = 0
    # Mean gap tuned to the link speed so streams mix congestion and idle.
    max_gap = max(1, int(60 * alpha * 1_000_000_000 / rho))
    for _ in range(count):
        time += draw(st.integers(min_value=0, max_value=max_gap))
        packets.append(
            Packet(
                time=time,
                size=draw(st.integers(min_value=1, max_value=alpha)),
                fid=draw(st.integers(min_value=0, max_value=5)),
            )
        )
    return config, gamma_l, packets


@settings(max_examples=200, deadline=None)
@given(scenario=adversarial_scenarios())
def test_exactness_outside_ambiguity_region(scenario):
    """Definition 1, end to end: no FNl, no FPs, on arbitrary traffic."""
    config, gamma_l, packets = scenario
    if gamma_l < 1:
        return  # no protectable rate at this (tiny) link speed
    stream = serialize(packets, config.rho)
    high = ThresholdFunction(gamma=math.ceil(config.rnfn), beta=config.beta_h)
    low = ThresholdFunction(gamma=gamma_l, beta=config.beta_l)
    labels = label_stream(stream, high=high, low=low)

    detector = EARDet(config).observe_stream(stream)
    assert detector.stats.oversubscribed_gaps == 0  # physics held

    for fid, label in labels.items():
        if label.is_large:
            assert detector.is_detected(fid), (
                f"no-FNl violated: large flow {fid} escaped "
                f"(config={config}, volume={label.volume})"
            )
        elif label.is_small:
            assert not detector.is_detected(fid), (
                f"no-FPs violated: small flow {fid} accused "
                f"(config={config}, volume={label.volume})"
            )


@settings(max_examples=60, deadline=None)
@given(scenario=adversarial_scenarios())
def test_exactness_with_reference_store_and_virtual(scenario):
    """Same exactness property through the reference implementations."""
    config, gamma_l, packets = scenario
    if gamma_l < 1:
        return
    stream = serialize(packets, config.rho)
    high = ThresholdFunction(gamma=math.ceil(config.rnfn), beta=config.beta_h)
    low = ThresholdFunction(gamma=gamma_l, beta=config.beta_l)
    labels = label_stream(stream, high=high, low=low)
    detector = EARDet(
        config, store_factory=ReferenceCounterStore, reference_virtual=True
    ).observe_stream(stream)
    for fid, label in labels.items():
        if label.is_large:
            assert detector.is_detected(fid)
        elif label.is_small:
            assert not detector.is_detected(fid)


@settings(max_examples=100, deadline=None)
@given(scenario=adversarial_scenarios())
def test_implementations_agree_exactly(scenario):
    """Optimized and reference EARDet report identical detection sets with
    identical detection times (not just equal verdicts)."""
    config, _, packets = scenario
    stream = serialize(packets, config.rho)
    fast = EARDet(config).observe_stream(stream)
    slow = EARDet(
        config, store_factory=ReferenceCounterStore, reference_virtual=True
    ).observe_stream(stream)
    assert fast.detected == slow.detected
    assert fast.snapshot() == slow.snapshot()


@settings(max_examples=100, deadline=None)
@given(scenario=adversarial_scenarios())
def test_detection_is_immediate(scenario):
    """Fast detection (Section 2.3): a large flow is reported no later
    than the packet completing its first TH_h violation."""
    config, _, packets = scenario
    stream = serialize(packets, config.rho)
    high = ThresholdFunction(gamma=math.ceil(config.rnfn), beta=config.beta_h)
    low = ThresholdFunction(gamma=1, beta=1)
    labels = label_stream(stream, high=high, low=low)
    detector = EARDet(config).observe_stream(stream)
    for fid, label in labels.items():
        if label.is_large:
            detected_at = detector.detection_time(fid)
            assert detected_at is not None
            assert detected_at <= label.violation_time_ns


@settings(max_examples=100, deadline=None)
@given(scenario=adversarial_scenarios())
def test_state_invariants_throughout(scenario):
    """Counters never exceed beta_TH + alpha; blacklist never exceeds n;
    non-zero counters never exceed n (the L3 boundedness Theorem 4 uses)."""
    config, _, packets = scenario
    stream = serialize(packets, config.rho)
    detector = EARDet(config)
    cap = config.beta_th + config.alpha
    for packet in stream:
        detector.observe(packet)
        counters = detector.counters
        assert len(counters) <= config.n
        assert all(0 < value <= cap for value in counters.values())
        assert len(detector.blacklist) <= config.n
