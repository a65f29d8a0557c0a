"""The adaptive control plane: scrapes, SLO burn rates, controller
hysteresis, and the guarded hot-reconfiguration differential.

The decisive fuzz (the PR's acceptance property): inject
``tune:phase=...,mode=kill|stall|fail`` at **every** protocol phase, on
**both** engines —

- a **rolled-back** retune leaves the run bit-identical to never having
  attempted it (same detections, same exact envelope, epoch still 0);
- a **committed** retune's pre-epoch detections are bit-identical to a
  static run of the old config over the same prefix, and the report
  labels both epochs with their stream positions;
- a **killed** retune propagates for the supervisor: restoring from the
  checkpoint finishes the stream bit-identical to the baseline (the
  checkpoint's recorded config epoch is authoritative).

The traffic seed honors ``EARDET_CONTROL_SEED`` so the CI control-chaos
job sweeps three corners of the input space and a red run reproduces
locally by exporting the same seed.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.control import (
    RETUNE_PHASES,
    ControlPolicy,
    ControlSample,
    Controller,
    RetunePlan,
    SLOAlert,
    SLOEvaluator,
    SLOPolicy,
    derive_config,
    sample_from_exposition,
    scrape_registry,
    verify_plan,
)
from repro.core.config import EARDetConfig, InfeasibleConfigError
from repro.forensics import ForensicsLab, replay_bundle
from repro.model.packet import Packet
from repro.service import (
    DetectionService,
    FaultPlan,
    RetuneError,
    ShardCrashError,
    read_checkpoint,
)
from repro.telemetry import Telemetry, render_json

from conftest import mixed_packets

CONFIG = EARDetConfig(
    rho=1_000_000, n=8, beta_th=3000, alpha=1518, beta_l=1000, gamma_l=50_000
)

#: The CI control-chaos job sweeps this (see .github/workflows/ci.yml).
CONTROL_SEED = int(os.environ.get("EARDET_CONTROL_SEED", "7"))

#: Solver inputs the test deployment was "engineered for": at
#: BUDGET_S the coarsen target below is feasible even clamped to the
#: full counter bank (n=8); at TIGHT_BUDGET_S the same clamped target
#: is infeasible (Eq. (7) leaves no beta_delta headroom at n=8).
GAMMA_H = 200_000
BUDGET_S = 1.0
TIGHT_BUDGET_S = 0.5
COARSEN_TARGET = 100_000

ENGINES = ("inprocess", "multiprocess")

SPLIT = 800  # retunes in the differential land at this stream position


def make_packets(count, seed, flows=40, **options):
    return mixed_packets(count, seed, flows=flows, **options)


def make_plan(config=CONFIG, target=COARSEN_TARGET, budget=BUDGET_S,
              min_counters=8):
    """A feasible coarsen plan whose new counter bank still holds a full
    occupancy-8 store (so ``apply_config`` never refuses it)."""
    new = derive_config(
        rho=config.rho,
        gamma_l=target,
        beta_l=config.beta_l,
        gamma_h=GAMMA_H,
        t_upincb_seconds=budget,
        alpha=config.alpha,
        min_counters=min_counters,
    )
    return RetunePlan(
        old_config=config,
        new_config=new,
        reason=f"test: gamma_l {config.gamma_l}->{target}",
        inputs={
            "gamma_l": target,
            "beta_l": config.beta_l,
            "gamma_h": GAMMA_H,
            "t_upincb_seconds": budget,
            "alpha": config.alpha,
        },
    )


def sample(packets=0, dropped=0, evictions=0, detections=0,
           counters=(0,), rungs=(0,), exact=True):
    return ControlSample(
        packets=packets,
        dropped=dropped,
        evictions=evictions,
        detections=detections,
        counters_in_use=counters,
        degradation=rungs,
        exact=exact,
    )


# ---------------------------------------------------------------------------
# Scrapes


class TestScrape:
    def test_empty_registry_scrapes_to_zeros(self):
        telemetry = Telemetry()
        s = scrape_registry(telemetry.registry)
        assert s.packets == 0 and s.evictions == 0
        assert s.max_occupancy == 0 and s.worst_rung == 0
        assert s.exact  # vacuously: no shard has recorded a loss

    def test_exposition_twin_matches_registry_scrape(self):
        """`tune --watch` sees the rendered JSON exposition; it must
        read the same sample the in-process controller reads."""
        telemetry = Telemetry()
        service = DetectionService(CONFIG, shards=2, telemetry=telemetry)
        try:
            service.serve(make_packets(600, CONTROL_SEED))
        finally:
            service.shutdown()
        direct = scrape_registry(telemetry.registry)
        # Round-trip through JSON text, exactly as the HTTP path does.
        rendered = sample_from_exposition(
            json.loads(json.dumps(render_json(telemetry.registry)))
        )
        assert rendered == direct
        assert direct.packets == 600
        assert direct.max_occupancy > 0


# ---------------------------------------------------------------------------
# SLO burn-rate rules


class TestSLORules:
    def test_pre_shedding_pages_before_any_packet_is_shed(self):
        """The point of the rule set: the page fires on the AGGREGATED
        rung — the last accountable stop — not once SHEDDING drops."""
        alerts = SLOEvaluator().evaluate(sample(rungs=(0, 2)))
        assert [a.rule for a in alerts] == ["pre-shedding"]
        assert alerts[0].severity == "page"

    def test_shedding_pages_as_its_own_rule(self):
        alerts = SLOEvaluator().evaluate(sample(rungs=(3,)))
        assert [a.rule for a in alerts] == ["shedding"]
        assert alerts[0].severity == "page"

    def test_exactness_lost_warns(self):
        alerts = SLOEvaluator().evaluate(sample(exact=False))
        assert [a.rule for a in alerts] == ["exactness-lost"]
        assert alerts[0].severity == "warn"

    def test_drop_burn_severity_ladder(self):
        policy = SLOPolicy(drop_budget=0.001, min_window_packets=1000)
        for dropped, expected in ((5, None), (30, "warn"), (200, "page")):
            evaluator = SLOEvaluator(policy)
            assert evaluator.evaluate(sample()) == []
            alerts = evaluator.evaluate(
                sample(packets=10_000, dropped=dropped)
            )
            burn = [a for a in alerts if a.rule == "drop-burn"]
            if expected is None:
                assert burn == []
            else:
                assert [a.severity for a in burn] == [expected]
                assert burn[0].observed == pytest.approx(
                    (dropped / 10_000) / 0.001
                )

    def test_small_windows_accumulate_instead_of_judging(self):
        evaluator = SLOEvaluator(SLOPolicy(min_window_packets=1024))
        evaluator.evaluate(sample())
        # 100-packet windows with 100% drop: too small to judge...
        for i in range(1, 10):
            alerts = evaluator.evaluate(
                sample(packets=i * 100, dropped=i * 100)
            )
            assert not [a for a in alerts if a.rule == "drop-burn"]
        # ...until the accumulated window crosses the floor.
        alerts = evaluator.evaluate(sample(packets=1100, dropped=1100))
        assert [a.severity for a in alerts if a.rule == "drop-burn"] == [
            "page"
        ]


# ---------------------------------------------------------------------------
# Controller hysteresis


def quick_policy(**overrides):
    kwargs = dict(
        gamma_h=GAMMA_H,
        t_upincb_seconds=BUDGET_S,
        min_window_packets=1,
        persistence=3,
        cooldown=2,
    )
    kwargs.update(overrides)
    return ControlPolicy(**kwargs)


PRESSURE = dict(counters=(8,), rungs=(1,))
SLACK = dict(counters=(3,), rungs=(0,))


class TestControllerHysteresis:
    def feed(self, controller, config, windows, **kind):
        """Feed `windows` consecutive 1000-packet windows of one shape;
        return the plans proposed (Nones dropped)."""
        base = controller._last.packets if controller._last else 0
        plans = []
        for i in range(windows):
            plan = controller.observe(
                sample(packets=base + (i + 1) * 1000, **kind), config
            )
            if plan is not None:
                plans.append(plan)
        return plans

    def test_pressure_must_persist_before_a_coarsen_is_proposed(self):
        controller = Controller(quick_policy(persistence=3))
        controller.observe(sample(), CONFIG)  # baseline
        assert self.feed(controller, CONFIG, 2, **PRESSURE) == []
        plans = self.feed(controller, CONFIG, 1, **PRESSURE)
        assert len(plans) == 1
        plan = plans[0]
        assert plan.inputs["gamma_l"] == 100_000  # 50k * widen_factor 2
        assert plan.new_config.gamma_l == 100_000
        assert plan.new_config.n >= 8  # clamped to the live occupancy
        verify_plan(plan, CONFIG)

    def test_slack_proposes_a_refine_toward_the_floor(self):
        controller = Controller(quick_policy(persistence=2))
        controller.observe(sample(), CONFIG)
        plans = self.feed(controller, CONFIG, 2, **SLACK)
        assert len(plans) == 1
        assert plans[0].inputs["gamma_l"] == 25_000  # 50k / widen_factor
        assert plans[0].new_config.gamma_l == 25_000

    def test_gamma_l_floor_is_an_end_stop_not_a_proposal_loop(self):
        controller = Controller(
            quick_policy(persistence=1, cooldown=0, gamma_l_min=50_000)
        )
        controller.observe(sample(), CONFIG)
        assert self.feed(controller, CONFIG, 5, **SLACK) == []
        assert controller.proposals == 0

    @pytest.mark.parametrize("committed", [True, False])
    def test_any_outcome_rearms_the_cooldown(self, committed):
        """Both a commit and a rollback re-arm the cooldown — a
        rolled-back retune must not be immediately retried into the
        same failure."""
        controller = Controller(quick_policy(persistence=1, cooldown=3))
        controller.observe(sample(), CONFIG)
        (plan,) = self.feed(controller, CONFIG, 1, **PRESSURE)
        controller.note_result(committed=committed, plan=plan)
        current = plan.new_config if committed else CONFIG
        # Three slack windows are absorbed by the cooldown...
        assert self.feed(controller, current, 3, **SLACK) == []
        # ...and only then may the controller act again (a refine, which
        # is feasible from either post-outcome config).
        assert len(self.feed(controller, current, 1, **SLACK)) == 1

    def test_infeasible_coarsen_is_recorded_once_and_cools_down(self):
        controller = Controller(
            quick_policy(
                persistence=1, t_upincb_seconds=TIGHT_BUDGET_S, cooldown=4
            )
        )
        controller.observe(sample(), CONFIG)
        # Occupancy 8 clamps the solver to n>=8, which the tight budget
        # cannot satisfy at the coarsen target.
        assert self.feed(controller, CONFIG, 1, **PRESSURE) == []
        assert controller.infeasibles == 1
        record = controller.take_infeasible()
        assert record["constraint"] == "eq7-headroom"
        assert record["direction"] == "coarsen"
        assert record["gamma_l_target"] == COARSEN_TARGET
        assert record["occupancy"] == 8
        assert controller.take_infeasible() is None  # consumed
        # Cooldown armed: sustained pressure is not re-judged right away.
        assert self.feed(controller, CONFIG, 4, **PRESSURE) == []
        assert controller.infeasibles == 1

    def test_paging_regression_reverts_the_committed_retune(self):
        controller = Controller(
            quick_policy(persistence=1, regression_windows=4)
        )
        controller.observe(sample(), CONFIG)
        (plan,) = self.feed(controller, CONFIG, 1, **PRESSURE)
        controller.note_result(committed=True, plan=plan)
        page = SLOAlert(
            rule="drop-burn", severity="page", detail="", observed=20.0,
            bound=14.0,
        )
        base = controller._last.packets
        revert = controller.observe(
            sample(packets=base + 1000, **PRESSURE),
            plan.new_config,
            alerts=[page],
        )
        assert revert is not None
        assert revert.old_config == plan.new_config
        assert revert.new_config == plan.old_config
        assert "slo-regression revert" in revert.reason

    def test_report_carries_decisions_and_policy(self):
        controller = Controller(quick_policy(persistence=1))
        controller.observe(sample(), CONFIG)
        self.feed(controller, CONFIG, 1, **PRESSURE)
        report = controller.report()
        assert report["proposals"] == 1
        assert report["policy"]["gamma_h"] == GAMMA_H
        assert report["decisions"][-1]["action"] == "coarsen"


# ---------------------------------------------------------------------------
# Plan soundness (the propose-phase gate)


class TestPlanSoundness:
    def test_noop_plans_are_rejected_at_construction(self):
        with pytest.raises(ValueError, match="no-op"):
            RetunePlan(old_config=CONFIG, new_config=CONFIG)

    def test_stale_plan_is_rejected(self):
        plan = make_plan()
        other = EARDetConfig(
            rho=2_000_000, n=8, beta_th=3000, alpha=1518, beta_l=1000,
            gamma_l=50_000,
        )
        with pytest.raises(ValueError, match="stale"):
            verify_plan(plan, other)

    def test_theorem_6_violations_are_rejected(self):
        bad = EARDetConfig(
            rho=CONFIG.rho,
            n=CONFIG.n,
            beta_th=CONFIG.beta_th,
            alpha=CONFIG.alpha,
            beta_l=CONFIG.beta_l,
            gamma_l=int(CONFIG.rnfp) + 1,
        )
        plan = RetunePlan(old_config=CONFIG, new_config=bad)
        with pytest.raises(ValueError, match="Theorem 6"):
            verify_plan(plan, CONFIG)

    def test_theorem_4_coverage_is_rechecked_against_gamma_h(self):
        plan = RetunePlan(
            old_config=CONFIG,
            new_config=make_plan().new_config,
            inputs={"gamma_h": 10_000},  # rnfn ~ 111k exceeds this
        )
        with pytest.raises(ValueError, match="Theorem 4"):
            verify_plan(plan, CONFIG)


# ---------------------------------------------------------------------------
# The kill/stall/fail × phase × engine differential


#: Per-engine baseline: the same traffic served with the same SPLIT but
#: no retune ever attempted (computed once, compared many times).
_BASELINES = {}


def baseline_report(engine):
    if engine not in _BASELINES:
        service = DetectionService(CONFIG, shards=2, engine=engine)
        try:
            service.serve(
                PACKETS, max_packets=SPLIT, final_checkpoint=False
            )
            prefix = dict(service.engine.detections())
            report = service.serve(PACKETS)
        finally:
            service.shutdown()
        _BASELINES[engine] = (prefix, report)
    return _BASELINES[engine]


PACKETS = make_packets(1600, CONTROL_SEED)


class TestRetuneDifferential:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("phase", RETUNE_PHASES)
    def test_rolled_back_retune_is_bit_identical_to_no_retune(
        self, engine, phase
    ):
        _, expected = baseline_report(engine)
        service = DetectionService(
            CONFIG,
            shards=2,
            engine=engine,
            fault_plan=FaultPlan.parse(f"tune:phase={phase},mode=fail,at=1"),
        )
        try:
            service.serve(PACKETS, max_packets=SPLIT, final_checkpoint=False)
            with pytest.raises(RetuneError) as excinfo:
                service.apply_retune(make_plan(), attempts=1)
            assert excinfo.value.phase == phase
            assert excinfo.value.rolled_back
            assert service.config_epoch == 0
            assert service.config == CONFIG
            report = service.serve(PACKETS)
        finally:
            service.shutdown()
        assert report.detections == expected.detections
        assert report.exact
        assert report.control["rollbacks"] == 1
        assert report.control["epoch"] == 0
        assert len(report.control["history"]) == 1

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("phase", RETUNE_PHASES)
    def test_stalled_retune_commits_with_pre_epoch_prefix_exact(
        self, engine, phase
    ):
        expected_prefix, _ = baseline_report(engine)
        service = DetectionService(
            CONFIG,
            shards=2,
            engine=engine,
            fault_plan=FaultPlan.parse(
                f"tune:phase={phase},mode=stall,at=1,secs=0.01"
            ),
        )
        try:
            service.serve(PACKETS, max_packets=SPLIT, final_checkpoint=False)
            prefix = dict(service.engine.detections())
            retune = service.apply_retune(make_plan())
            assert retune.committed and not retune.rolled_back
            assert (retune.from_epoch, retune.to_epoch) == (0, 1)
            assert retune.pause_ns > 0
            assert service.config_epoch == 1
            report = service.serve(PACKETS)
        finally:
            service.shutdown()
        # Pre-epoch detections are a static old-config run of the prefix.
        assert prefix == expected_prefix
        control = report.control
        assert control["epoch"] == 1 and control["retunes"] == 1
        epochs = [(e["epoch"], e["from_packets"]) for e in control["history"]]
        assert epochs == [(0, 0), (1, SPLIT)]
        assert control["history"][1]["config"]["gamma_l"] == COARSEN_TARGET

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("phase", RETUNE_PHASES)
    def test_killed_retune_recovers_from_checkpoint_bit_identical(
        self, tmp_path, engine, phase
    ):
        _, expected = baseline_report(engine)
        ckpt = tmp_path / "svc.ckpt"
        service = DetectionService(
            CONFIG,
            shards=2,
            engine=engine,
            checkpoint_path=str(ckpt),
            checkpoint_every=SPLIT,
            fault_plan=FaultPlan.parse(f"tune:phase={phase},mode=kill,at=1"),
        )
        try:
            service.serve(PACKETS, max_packets=SPLIT)
            with pytest.raises(ShardCrashError):
                service.apply_retune(make_plan(), attempts=1)
        finally:
            service.abort()
        # The supervisor's path: restore from the checkpoint, whose
        # recorded config epoch (0 — the kill aborted the commit) is
        # authoritative, and finish the stream.
        recovered = DetectionService.resume(str(ckpt), engine=engine)
        try:
            assert recovered.config_epoch == 0
            assert recovered.config == CONFIG
            report = recovered.serve(PACKETS)
        finally:
            recovered.shutdown()
        assert report.detections == expected.detections
        assert report.exact


@st.composite
def tune_chaos(draw):
    """A retune chaos cocktail: traffic salted by the CI seed, a random
    split point, and a fail-or-stall fault at a random phase."""
    return {
        "phase": draw(st.sampled_from(RETUNE_PHASES)),
        "mode": draw(st.sampled_from(["fail", "stall"])),
        "count": draw(st.integers(min_value=1000, max_value=1800)),
        "split": draw(st.integers(min_value=300, max_value=900)),
        "stream_seed": CONTROL_SEED * 1000
        + draw(st.integers(min_value=0, max_value=99)),
        "flows": draw(st.integers(min_value=10, max_value=60)),
    }


@settings(max_examples=6, deadline=None)
@given(tune_chaos())
def test_retune_differential_under_chaos(scenario):
    """The acceptance fuzz, with randomized traffic and split points:
    fail → bit-identical to never attempting; stall → commits with the
    pre-epoch prefix bit-identical to a static old-config run."""
    packets = make_packets(
        scenario["count"], scenario["stream_seed"], flows=scenario["flows"]
    )
    split = scenario["split"]

    static = DetectionService(CONFIG, shards=2)
    try:
        static.serve(packets, max_packets=split, final_checkpoint=False)
        static_prefix = dict(static.engine.detections())
        static_report = static.serve(packets)
    finally:
        static.shutdown()

    clause = f"tune:phase={scenario['phase']},mode={scenario['mode']},at=1"
    if scenario["mode"] == "stall":
        clause += ",secs=0.01"
    service = DetectionService(
        CONFIG, shards=2, fault_plan=FaultPlan.parse(clause)
    )
    try:
        service.serve(packets, max_packets=split, final_checkpoint=False)
        prefix = dict(service.engine.detections())
        if scenario["mode"] == "fail":
            with pytest.raises(RetuneError) as excinfo:
                service.apply_retune(make_plan(), attempts=1)
            assert excinfo.value.phase == scenario["phase"]
            assert service.config_epoch == 0
        else:
            retune = service.apply_retune(make_plan())
            assert retune.committed
            assert service.config_epoch == 1
        report = service.serve(packets)
    finally:
        service.shutdown()

    assert prefix == static_prefix
    if scenario["mode"] == "fail":
        assert report.detections == static_report.detections
        assert report.exact == static_report.exact


# ---------------------------------------------------------------------------
# The closed loop inside a serving service


class TestClosedLoop:
    def steady_packets(self, count, flows=4):
        """Gentle, perfectly steady traffic: a handful of small flows,
        zero evictions, rung 0 — the slack condition."""
        packets = []
        time = 0
        for i in range(count):
            time += 5_000
            packets.append(
                Packet(time=time, size=100, fid=f"f{i % flows}")
            )
        return packets

    def test_slack_drives_a_refine_and_every_surface_agrees(self, tmp_path):
        telemetry = Telemetry()
        ckpt = tmp_path / "svc.ckpt"
        policy = ControlPolicy(
            gamma_h=GAMMA_H,
            t_upincb_seconds=BUDGET_S,
            every_batches=1,
            min_window_packets=1,
            persistence=2,
            cooldown=1,
            gamma_l_min=10_000,
        )
        service = DetectionService(
            CONFIG,
            shards=2,
            telemetry=telemetry,
            controller=policy,
            checkpoint_path=str(ckpt),
            checkpoint_every=4000,
            batch_size=64,
        )
        try:
            report = service.serve(self.steady_packets(640))
        finally:
            service.shutdown()
        epoch = service.config_epoch
        assert epoch >= 1
        assert service.config.gamma_l < CONFIG.gamma_l  # refined
        # The report labels every epoch with its stream position.
        control = report.control
        assert control["epoch"] == epoch
        assert [e["epoch"] for e in control["history"]] == list(
            range(epoch + 1)
        )
        assert control["controller"]["proposals"] >= epoch
        # Telemetry carries the epoch gauge and the retune counter.
        registry = telemetry.registry
        epoch_values = [
            m.value for _, m in registry.get("eardet_config_epoch").collect()
        ]
        assert epoch_values == [epoch]
        retunes = sum(
            m.value or 0
            for _, m in registry.get("eardet_retunes_total").collect()
        )
        assert retunes == epoch
        # The checkpoint records the epoch, history, and solver inputs.
        meta = read_checkpoint(str(ckpt))["meta"]
        assert meta["control"]["epoch"] == epoch
        assert meta["control"]["inputs"]["gamma_h"] == GAMMA_H
        assert len(meta["control"]["history"]) == epoch + 1

    def test_checkpoint_inspect_renders_epoch_and_solver_inputs(
        self, tmp_path, capsys
    ):
        telemetry = Telemetry()
        ckpt = tmp_path / "svc.ckpt"
        service = DetectionService(
            CONFIG,
            shards=2,
            telemetry=telemetry,
            controller=ControlPolicy(
                gamma_h=GAMMA_H,
                t_upincb_seconds=BUDGET_S,
                every_batches=1,
                min_window_packets=1,
                persistence=2,
                cooldown=1,
            ),
            checkpoint_path=str(ckpt),
            checkpoint_every=4000,
            batch_size=64,
        )
        try:
            service.serve(self.steady_packets(640))
        finally:
            service.shutdown()
        assert service.config_epoch >= 1
        assert main(["checkpoint", "inspect", "--checkpoint", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert f"config epoch: {service.config_epoch}" in out
        assert f"gamma_h={GAMMA_H}" in out
        assert "t_upincb=1.0s" in out
        assert main(
            ["checkpoint", "inspect", "--checkpoint", str(ckpt), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["control"]["epoch"] == service.config_epoch
        assert payload["control"]["inputs"]["gamma_h"] == GAMMA_H

    def test_infeasible_coarsen_surfaces_as_an_incident(self, tmp_path):
        """Pressure whose only escape hatch the solver cannot grant: the
        loop must record a structured ``retune-infeasible`` incident,
        not crash and not silently weaken the config."""
        telemetry = Telemetry()
        lab = ForensicsLab(tmp_path / "forensics")
        policy = ControlPolicy(
            gamma_h=GAMMA_H,
            t_upincb_seconds=TIGHT_BUDGET_S,
            every_batches=1,
            min_window_packets=1,
            persistence=1,
            cooldown=2,
            eviction_rate_high=0.05,
            occupancy_high=0.8,
        )
        service = DetectionService(
            CONFIG,
            shards=2,
            telemetry=telemetry,
            controller=policy,
            forensics=lab,
            batch_size=64,
        )
        try:
            # 60 flows churn an 8-counter store: high eviction rate at
            # full occupancy — the pressure condition.
            report = service.serve(
                make_packets(1200, CONTROL_SEED, heavy_share=0.0, flows=60)
            )
        finally:
            service.shutdown()
            lab.close()
        assert report.control["infeasibles"] >= 1
        assert report.control["epoch"] == 0  # nothing was weakened
        records = [
            r
            for r in lab.store.records
            if r.incident_class == "retune-infeasible"
        ]
        assert records
        assert records[0].payload["constraint"] == "eq7-headroom"
        assert records[0].payload["gamma_l_target"] == COARSEN_TARGET

    def test_committed_retune_is_a_replayable_incident(self, tmp_path):
        lab = ForensicsLab(tmp_path / "forensics")
        service = DetectionService(
            CONFIG, shards=2, forensics=lab, batch_size=128
        )

        # Commit the retune *mid-serve* so the epoch transition lands
        # strictly inside the capture window (a retune between serve
        # episodes would coincide with the bundle baseline and leave no
        # transition for the replay to re-derive).
        def retune_at_split(svc):
            if svc._ingested >= SPLIT and not svc._retunes:
                svc.apply_retune(make_plan())

        try:
            service.serve(PACKETS, on_progress=retune_at_split)
        finally:
            service.shutdown()
            lab.close()
        retunes = [
            r for r in lab.store.records if r.incident_class == "retune"
        ]
        assert len(retunes) == 1
        record = retunes[0]
        assert record.bundle is not None
        assert record.payload["from_epoch"] == 0
        assert record.payload["to_epoch"] == 1
        result = replay_bundle(record.bundle)
        assert result.exact, f"retune replay diverged: {result.observed}"
        assert result.transitions_applied >= 1

    def test_rolled_back_retune_is_an_incident_too(self, tmp_path):
        lab = ForensicsLab(tmp_path / "forensics")
        service = DetectionService(
            CONFIG,
            shards=2,
            forensics=lab,
            batch_size=128,
            fault_plan=FaultPlan.parse("tune:phase=verify,mode=fail,at=1"),
        )
        try:
            service.serve(PACKETS, max_packets=SPLIT, final_checkpoint=False)
            with pytest.raises(RetuneError):
                service.apply_retune(make_plan(), attempts=1)
            service.serve(PACKETS)
        finally:
            service.shutdown()
            lab.close()
        records = [
            r
            for r in lab.store.records
            if r.incident_class == "retune-rollback"
        ]
        assert records
        assert records[0].payload["phase"] == "verify"

    def test_retune_incidents_past_the_event_cap_name_their_own_epochs(
        self, tmp_path
    ):
        """The dead-letter sink keeps the newest EVENT_CAPACITY events,
        and each retune incident reads its detail from the newest
        ``retune`` event: 300 alternating retunes, a short serve between
        each, leave 300 incidents naming epochs 0->1 up to 299->300."""
        lab = ForensicsLab(tmp_path / "forensics")
        service = DetectionService(CONFIG, shards=1, forensics=lab)
        coarsen = make_plan()
        revert = RetunePlan(
            old_config=coarsen.new_config,
            new_config=CONFIG,
            reason="test: revert",
            inputs=dict(coarsen.inputs, gamma_l=CONFIG.gamma_l),
        )
        try:
            for index in range(300):
                service.serve(
                    PACKETS, max_packets=5 * (index + 1),
                    final_checkpoint=False,
                )
                service.apply_retune(revert if index % 2 else coarsen)
            service.serve(PACKETS, final_checkpoint=False)
            sink = service.dead_letter
            assert sink.event_total == 300
            assert len(sink.events) == sink.EVENT_CAPACITY
        finally:
            service.shutdown()
            lab.close()
        epochs = [
            (r.payload["from_epoch"], r.payload["to_epoch"])
            for r in lab.store.records
            if r.incident_class == "retune"
        ]
        assert epochs == [(index, index + 1) for index in range(300)]


# ---------------------------------------------------------------------------
# The `eardet tune` CLI


@pytest.fixture
def service_checkpoint(tmp_path):
    """A checkpoint from a plain (controller-less) service run: full
    occupancy-8 store, epoch 0, no recorded solver inputs."""
    ckpt = tmp_path / "svc.ckpt"
    service = DetectionService(
        CONFIG, shards=2, checkpoint_path=str(ckpt), checkpoint_every=1600
    )
    try:
        service.serve(PACKETS)
    finally:
        service.shutdown()
    return ckpt


class TestTuneCLI:
    BASE_FLAGS = ["--gamma-h", str(GAMMA_H), "--t-upincb", str(BUDGET_S)]

    def tune(self, ckpt, *extra):
        return main(
            ["tune", "--checkpoint", str(ckpt), *self.BASE_FLAGS, *extra]
        )

    def test_propose_prints_plan_and_occupancy_clamp(
        self, service_checkpoint, capsys
    ):
        code = self.tune(
            service_checkpoint, "--tune-gamma-l", str(COARSEN_TARGET)
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "config epoch 0 -> 1" in out
        assert "occupancy clamp: n >= 8" in out
        assert "re-run with --apply" in out

    def test_propose_json_shape(self, service_checkpoint, capsys):
        code = self.tune(
            service_checkpoint, "--tune-gamma-l", str(COARSEN_TARGET),
            "--json",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] and payload["changed"]
        assert payload["proposed_epoch"] == 1
        assert payload["new_config"]["gamma_l"] == COARSEN_TARGET
        assert payload["new_config"]["n"] >= 8

    def test_infeasible_propose_exits_1_with_binding_constraint(
        self, service_checkpoint, capsys
    ):
        code = main(
            [
                "tune",
                "--checkpoint",
                str(service_checkpoint),
                "--gamma-h",
                str(GAMMA_H),
                "--t-upincb",
                str(TIGHT_BUDGET_S),
                "--tune-gamma-l",
                str(COARSEN_TARGET),
            ]
        )
        assert code == 1
        assert "binding constraint: eq7-headroom" in capsys.readouterr().out

    def test_tune_without_inputs_or_flags_refuses(self, service_checkpoint):
        with pytest.raises(SystemExit, match="requires --gamma-h"):
            main(["tune", "--checkpoint", str(service_checkpoint)])

    def test_apply_rewrites_the_checkpoint_at_the_new_epoch(
        self, service_checkpoint, capsys
    ):
        code = self.tune(
            service_checkpoint, "--tune-gamma-l", str(COARSEN_TARGET),
            "--apply",
        )
        assert code == 0
        assert "retune committed" in capsys.readouterr().out
        meta = read_checkpoint(str(service_checkpoint))["meta"]
        assert meta["control"]["epoch"] == 1
        assert meta["config"]["gamma_l"] == COARSEN_TARGET
        # The rewritten checkpoint records the solver inputs, so the
        # next tune needs no flags at all.
        assert meta["control"]["inputs"]["gamma_h"] == GAMMA_H
        assert (
            main(["tune", "--checkpoint", str(service_checkpoint)]) == 0
        )
        out = capsys.readouterr().out
        assert "no retune needed" in out or "config epoch 1 -> 2" in out

    def test_faulted_apply_rolls_back_and_leaves_the_file_untouched(
        self, service_checkpoint, capsys
    ):
        before = service_checkpoint.read_bytes()
        # apply_retune defaults to 3 attempts and tune faults fire once,
        # so forcing a terminal rollback takes one clause per attempt.
        clauses = ";".join(["tune:phase=apply,mode=fail,at=1"] * 3)
        code = self.tune(
            service_checkpoint,
            "--tune-gamma-l",
            str(COARSEN_TARGET),
            "--apply",
            "--fault-plan",
            clauses,
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "rolled back" in out
        assert service_checkpoint.read_bytes() == before

    def test_watch_polls_a_live_endpoint(self, capsys):
        telemetry = Telemetry()
        service = DetectionService(CONFIG, shards=2, telemetry=telemetry)
        try:
            service.serve(PACKETS, max_packets=SPLIT, final_checkpoint=False)
            server = telemetry.serve(port=0)
            try:
                port = server.url.rsplit(":", 1)[1]
                code = main(
                    [
                        "tune",
                        "--watch",
                        "--metrics-port",
                        port,
                        "--watch-rounds",
                        "2",
                        "--watch-interval",
                        "0.01",
                        "--json",
                    ]
                )
            finally:
                server.stop()
        finally:
            service.shutdown()
        assert code == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert [entry["round"] for entry in lines] == [1, 2]
        assert lines[0]["sample"]["packets"] == SPLIT

    def test_serve_control_requires_telemetry(self, tmp_path):
        from repro.traffic.trace_io import write_csv

        trace = tmp_path / "t.csv"
        write_csv(str(trace), make_packets(50, 1))
        with pytest.raises(SystemExit, match="needs telemetry"):
            main(
                [
                    "serve",
                    "--trace",
                    str(trace),
                    "--rho",
                    "1000000",
                    "--gamma-l",
                    "50000",
                    "--gamma-h",
                    "200000",
                    "--control",
                ]
            )
