"""Ablations over EARDet's design space (Section 4.5's tradeoffs).

Six studies, each isolating one design choice DESIGN.md calls out:

1. **Counters vs rate gap** (tradeoff 1): sweeping ``n`` shows the
   guaranteed-detection rate ``R_NFN = rho/(n+1)`` and the minimum rate
   gap shrinking as memory grows.
2. **Burst gap vs rate gap** (tradeoff 2, Equation 2): sweeping
   ``beta_h / beta_l`` shows the minimum rate gap exploding as the burst
   gap approaches its floor ``alpha/beta_l + 2`` and approaching 1 as it
   grows — including the paper's "rate gap 10 needs burst gap 2.53" point.
3. **Virtual-traffic unit size** (Section 3.3's optimization): smaller
   units mean more counter updates per idle byte; the study measures the
   actual update count over a real scenario, and asserts detection results
   are unchanged (unit size only trades work, not correctness, as long as
   units stay <= beta_TH).
4. **Counter-store implementation**: the optimized floating-ground heap
   vs the O(n) reference store — identical detections, different wall
   time.
5. **Incubation vs counter budget** (Section 4.4): extra counters lower
   the Theorem-7 bound; measurements sit under it at every budget.
6. **FMF conservative update**: Estan-Varghese's optimization trims the
   multistage filter's false positives without restoring exactness.
"""

from __future__ import annotations

import time as _time
from typing import Dict, List, Sequence

from ..core import theory
from ..core.config import EARDetConfig, engineer
from ..core.counters import HeapCounterStore, ReferenceCounterStore
from ..core.eardet import EARDet
from ..traffic.attacks import FloodingAttack
from ..traffic.datasets import federico_like
from ..traffic.mix import build_attack_scenario
from .figure8 import ALPHA, BETA_L, GAMMA_L, RHO
from .report import ExperimentParams, SeriesSet, Table


def counters_vs_rate_gap(
    counter_counts: Sequence[int] = (50, 101, 200, 400, 800),
) -> SeriesSet:
    """Tradeoff 1: more counters -> lower guaranteed-detection rate."""
    rnfns = [float(theory.rnfn(RHO, n)) for n in counter_counts]
    gaps = [rnfn / GAMMA_L for rnfn in rnfns]
    series = SeriesSet(
        title="Ablation: counters vs guaranteed rate (tradeoff 1)",
        x_label="counters n",
        x_values=list(counter_counts),
    )
    series.add_series("R_NFN (B/s)", [round(r, 1) for r in rnfns])
    series.add_series("rate gap R_NFN/gamma_l", [round(g, 2) for g in gaps])
    series.add_note(f"rho = {RHO} B/s, gamma_l = {GAMMA_L} B/s")
    return series


def burst_gap_vs_rate_gap(
    burst_gaps: Sequence[float] = (2.6, 2.53 + 0.5, 4.0, 6.0, 10.0, 20.0),
) -> SeriesSet:
    """Tradeoff 2 (Equation 2): rate gap vs burst gap."""
    floor = theory.min_burst_gap(ALPHA, BETA_L)
    xs = [round(gap, 2) for gap in burst_gaps if gap > floor]
    rate_gaps = [
        round(theory.min_rate_gap_approx(ALPHA, BETA_L, gap * BETA_L), 3)
        for gap in xs
    ]
    series = SeriesSet(
        title="Ablation: burst gap vs minimum rate gap (Equation 2)",
        x_label="burst gap beta_h/beta_l",
        x_values=xs,
    )
    series.add_series("min rate gap (gamma_h/gamma_l)", rate_gaps)
    series.add_note(f"burst-gap floor alpha/beta_l + 2 = {floor:.3f}")
    series.add_note(
        f"paper: rate gap 10 needs burst gap 2.53 "
        f"(reproduced: {theory.min_rate_gap_approx(ALPHA, BETA_L, round(2.53 * BETA_L)):.2f})"
    )
    return series


class _CountingStore(HeapCounterStore):
    """Heap store that counts mutating operations, for the unit-size study."""

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self.operations = 0

    def insert(self, fid, value):  # noqa: D102 - counted passthrough
        self.operations += 1
        super().insert(fid, value)

    def increment(self, fid, amount):  # noqa: D102
        self.operations += 1
        return super().increment(fid, amount)

    def decrement_all(self, amount):  # noqa: D102
        self.operations += 1
        super().decrement_all(amount)

    def admit(self, size):  # noqa: D102
        # The fused step bypasses decrement_all; a full store decrements
        # once per admitted flow, so count that decrement here.
        if size > 0 and self.is_full:
            self.operations += 1
        return super().admit(size)


def virtual_unit_size(
    params: ExperimentParams = ExperimentParams(),
    unit_fractions: Sequence[float] = (0.05, 0.25, 0.5, 1.0),
) -> Table:
    """Section 3.3: virtual-unit size trades update work for nothing else."""
    dataset = federico_like(seed=params.seed, scale=params.scale)
    base = engineer(
        rho=dataset.rho,
        gamma_l=dataset.gamma_l,
        beta_l=dataset.beta_l,
        gamma_h=dataset.gamma_h,
        t_upincb_seconds=dataset.t_upincb_seconds,
    )
    scenario = build_attack_scenario(
        dataset.stream,
        FloodingAttack(rate=2 * dataset.gamma_h),
        attack_flows=params.attack_flows,
        rho=dataset.rho,
        seed=params.seed,
    )
    table = Table(
        title="Ablation: virtual-traffic unit size (Section 3.3)",
        headers=["unit (B)", "store ops", "detected flows", "seconds"],
    )
    baseline_detected = None
    for fraction in unit_fractions:
        unit = max(1, round(fraction * base.beta_th))
        config = EARDetConfig(
            rho=base.rho,
            n=base.n,
            beta_th=base.beta_th,
            alpha=base.alpha,
            beta_l=base.beta_l,
            gamma_l=base.gamma_l,
            virtual_unit=unit,
        )
        detector = EARDet(config, store_factory=_CountingStore)
        started = _time.perf_counter()
        detector.observe_stream(scenario.stream)
        elapsed = _time.perf_counter() - started
        detected = len(detector.detected)
        if baseline_detected is None:
            baseline_detected = detected
        table.add_row(
            unit, detector._store.operations, detected, round(elapsed, 3)
        )
    table.add_note(
        "maximum legal unit (beta_TH) minimizes updates; detection sets "
        "may differ only inside the ambiguity region"
    )
    return table


def store_implementations(
    params: ExperimentParams = ExperimentParams(),
) -> Table:
    """Optimized vs reference counter store: identical output."""
    dataset = federico_like(seed=params.seed, scale=params.scale)
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
        attack_flows=params.attack_flows,
        rho=dataset.rho,
        seed=params.seed,
    )
    table = Table(
        title="Ablation: counter-store implementations",
        headers=["store", "detected flows", "seconds"],
    )
    detections: Dict[str, frozenset] = {}
    for name, factory in (
        ("heap + floating ground", HeapCounterStore),
        ("O(n) reference", ReferenceCounterStore),
    ):
        detector = EARDet(config, store_factory=factory)
        started = _time.perf_counter()
        detector.observe_stream(scenario.stream)
        elapsed = _time.perf_counter() - started
        detections[name] = frozenset(detector.detected)
        table.add_row(name, len(detector.detected), round(elapsed, 3))
    identical = len(set(detections.values())) == 1
    table.add_note(
        "detection sets identical"
        if identical
        else "DETECTION SETS DIFFER (bug!)"
    )
    return table


def run(params: ExperimentParams = ExperimentParams()) -> List:
    """All six ablation studies."""
    return [
        counters_vs_rate_gap(),
        burst_gap_vs_rate_gap(),
        virtual_unit_size(params),
        store_implementations(params),
        incubation_vs_counters(params),
        conservative_update(params),
    ]


if __name__ == "__main__":
    for item in run(ExperimentParams.quick()):
        print(item.render())
        print()


def incubation_vs_counters(
    params: ExperimentParams = ExperimentParams(),
    counter_counts: Sequence[int] = (107, 150, 250, 400),
) -> Table:
    """Section 4.4's remark, measured: adding counters beyond the minimum
    lowers the incubation bound — and the measured maximum with it."""
    from .harness import dataset_for, first_packet_times
    from ..analysis.runner import ExperimentRunner
    from ..model.thresholds import ThresholdFunction

    dataset = dataset_for(params)
    base = engineer(
        rho=dataset.rho,
        gamma_l=dataset.gamma_l,
        beta_l=dataset.beta_l,
        gamma_h=dataset.gamma_h,
        t_upincb_seconds=dataset.t_upincb_seconds,
    )
    rate = 2 * dataset.gamma_h
    scenario = build_attack_scenario(
        dataset.stream,
        FloodingAttack(rate=rate),
        attack_flows=params.attack_flows,
        rho=dataset.rho,
        seed=params.seed,
    )
    table = Table(
        title="Ablation: incubation period vs counter budget (Section 4.4)",
        headers=["n", "bound (s)", "max measured (s)", "avg measured (s)"],
    )
    for n in counter_counts:
        config = EARDetConfig(
            rho=base.rho,
            n=n,
            beta_th=base.beta_th,
            alpha=base.alpha,
            beta_l=base.beta_l,
            gamma_l=base.gamma_l,
        )
        high = ThresholdFunction(gamma=dataset.gamma_h, beta=config.beta_h)
        runner = ExperimentRunner(high, dataset.low_threshold)
        labels = runner.label(scenario.stream)
        starts = first_packet_times(scenario.stream, scenario.attack_fids)
        result = runner.run_one(
            "eardet", EARDet(config), scenario, labels,
            attack_start_times=starts,
        )
        bound = float(config.incubation_bound_seconds(rate))
        table.add_row(
            n,
            round(bound, 4),
            round(result.incubation.maximum or 0.0, 4),
            round(result.incubation.average or 0.0, 4),
        )
    table.add_note("flooding at 2x gamma_h; bound = (alpha+2 beta_TH)/(R_atk - rho/(n+1))")
    return table


def conservative_update(
    params: ExperimentParams = ExperimentParams(),
) -> Table:
    """Estan-Varghese's conservative-update optimization on FMF: fewer
    false accusations under attack, identical misses on bursts."""
    from .harness import FMF_WINDOW_NS, STAGES, SMALL_BUDGET, build_setup, dataset_for
    from ..analysis.runner import ExperimentRunner
    from ..detectors.fmf import FixedMultistageFilter

    dataset = dataset_for(params)
    setup = build_setup(dataset)
    scenario = build_attack_scenario(
        dataset.stream,
        FloodingAttack(rate=2 * dataset.gamma_h),
        attack_flows=params.attack_flows,
        rho=dataset.rho,
        congested=True,
        seed=params.seed,
    )
    runner = ExperimentRunner(setup.high, setup.low)
    for name, conservative in (("fmf-plain", False), ("fmf-conservative", True)):
        threshold = setup.fmf_threshold
        runner.register(
            name,
            lambda conservative=conservative, threshold=threshold: FixedMultistageFilter(
                stages=STAGES,
                buckets=SMALL_BUDGET,
                threshold=threshold,
                window_ns=FMF_WINDOW_NS,
                conservative_update=conservative,
            ),
        )
    results = runner.run_scenario(scenario)
    table = Table(
        title="Ablation: FMF conservative update (congested flooding)",
        headers=["variant", "attack detection", "benign FPs"],
    )
    for name, result in results.items():
        table.add_row(
            name,
            round(result.attack_detection.probability, 4),
            round(result.benign_fp.probability, 4),
        )
    table.add_note(
        "conservative update reduces counter inflation and hence FPs; it "
        "cannot restore exactness"
    )
    return table
