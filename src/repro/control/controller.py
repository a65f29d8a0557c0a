"""The closed control loop: telemetry in, retune plans out.

The controller watches :class:`~repro.control.scrape.ControlSample`
windows for two sustained conditions and answers each by re-running the
Appendix-A solver (:func:`repro.core.config.engineer`) on adjusted
inputs:

- **pressure** — the overload ladder has climbed to (or past) the
  policy's pressure rung, or the counter store is evicting faster than
  the policy tolerates while sitting near capacity.  The response is to
  *coarsen*: raise the protected rate ``gamma_l``, which shrinks the
  solver's counter count ``n`` and cheapens the per-eviction
  decrement-all — trading ambiguity-region width for headroom, before
  the ladder ever reaches SHEDDING.
- **slack** — every shard on the EXACT rung, occupancy low, evictions
  quiet.  The response is to *refine*: lower ``gamma_l`` back toward
  its floor, growing ``n`` and tightening the ambiguity region.

Both directions run through :func:`derive_config`, which clamps the
solved ``n`` so the new counter bank can always hold the live
occupancy (``apply_config`` refuses to shrink below occupancy — the
clamp turns what would be a runtime
:class:`~repro.core.eardet.ReconfigurationError` into either a larger
feasible ``n`` or a typed
:class:`~repro.core.config.InfeasibleConfigError` at propose time).
An infeasible derivation never crashes the loop: the controller records
the structured error (binding constraint, observed value, bound) and
the service surfaces it as a ``retune-infeasible`` forensic incident.

Hysteresis follows the reshard coordinator: a persistence requirement
before acting, a cooldown after any attempt (committed, rolled back or
infeasible), and windows smaller than ``min_window_packets``
accumulate instead of being judged.  After a *committed* retune the
controller additionally arms a short **regression guard**: if a
page-severity SLO alert fires within ``regression_windows`` windows of
the commit, it proposes the exact inverse plan, rolling the fleet back
to the previous configuration through the same guarded protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.config import (
    EARDetConfig,
    InfeasibleConfigError,
    beta_delta_bounds,
    engineer,
)
from .retune import RetunePlan
from .scrape import ControlSample, scrape_registry
from .slo import SLOAlert, SLOEvaluator

__all__ = [
    "ControlPolicy",
    "Controller",
    "MAX_ALERTS",
    "MAX_DECISIONS",
    "derive_config",
]

#: Bounds on retained controller history (reports stay small).
MAX_DECISIONS = 64
MAX_ALERTS = 64


def derive_config(
    rho: int,
    gamma_l: int,
    beta_l: int,
    gamma_h: int,
    t_upincb_seconds: float,
    alpha: int,
    min_counters: int = 2,
    max_counters: Optional[int] = None,
) -> EARDetConfig:
    """:func:`~repro.core.config.engineer` with a capacity clamp on ``n``.

    The plain solver returns the *cheapest* feasible counter count,
    which live occupancy (or an operator's memory cap) may forbid.
    When the solved ``n`` falls outside ``[min_counters,
    max_counters]`` the clamp re-solves Eq. (10)/(7) at the clamped
    ``n`` via :func:`~repro.core.config.beta_delta_bounds`; the result
    either satisfies every inequality at the new ``n`` or raises a
    structured :class:`~repro.core.config.InfeasibleConfigError` naming
    the binding constraint — never a config that ``apply_config`` would
    reject at runtime.
    """
    if min_counters < 2:
        min_counters = 2
    if max_counters is not None and max_counters < min_counters:
        raise InfeasibleConfigError(
            f"capacity clamp is empty: min_counters={min_counters} exceeds "
            f"max_counters={max_counters}",
            constraint="clamp-empty",
            observed=float(min_counters),
            bound=float(max_counters),
        )
    candidate = engineer(
        rho, gamma_l, beta_l, gamma_h, t_upincb_seconds, alpha
    )
    n = candidate.n
    if n < min_counters:
        n = min_counters
    if max_counters is not None and n > max_counters:
        n = max_counters
    if n == candidate.n:
        return candidate
    lower, upper = beta_delta_bounds(
        n, rho, gamma_l, beta_l, gamma_h, t_upincb_seconds, alpha
    )
    beta_delta = math.floor(lower) + 1
    if beta_delta > upper:
        raise InfeasibleConfigError(
            f"clamped n={n} leaves no beta_delta inside Eq. (7): the "
            f"minimum headroom {beta_delta} exceeds the incubation-period "
            f"allowance {upper:.1f}",
            constraint="eq7-headroom",
            observed=float(beta_delta),
            bound=float(upper),
        )
    return EARDetConfig(
        rho=rho,
        n=n,
        beta_th=beta_l + beta_delta,
        alpha=alpha,
        beta_l=beta_l,
        gamma_l=gamma_l,
    )


@dataclass(frozen=True)
class ControlPolicy:
    """When the controller may act, and how hard it hesitates.

    ``gamma_h`` and ``t_upincb_seconds`` are the two Appendix-A solver
    inputs the running config does not record — the attack rate the
    deployment must keep catching and its incubation-period budget.
    Every derived config is re-verified against both (Theorem 4
    coverage is part of the retune executor's propose phase), so no
    retune can silently weaken the detection promise the deployment was
    engineered for.
    """

    gamma_h: int
    t_upincb_seconds: float
    every_batches: int = 8
    min_window_packets: int = 4096
    persistence: int = 3
    cooldown: int = 8
    pressure_rung: int = 1
    eviction_rate_high: float = 0.5
    occupancy_high: float = 0.85
    occupancy_low: float = 0.5
    widen_factor: float = 2.0
    gamma_l_min: int = 1
    gamma_l_max: Optional[int] = None
    max_counters: Optional[int] = None
    regression_windows: int = 4
    attempts: int = 3
    timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.gamma_h < 1:
            raise ValueError(f"gamma_h must be >= 1, got {self.gamma_h}")
        if self.t_upincb_seconds <= 0:
            raise ValueError(
                f"t_upincb_seconds must be > 0, got {self.t_upincb_seconds}"
            )
        if self.every_batches < 1:
            raise ValueError(
                f"every_batches must be >= 1, got {self.every_batches}"
            )
        if self.min_window_packets < 1:
            raise ValueError(
                f"min_window_packets must be >= 1, got "
                f"{self.min_window_packets}"
            )
        if self.persistence < 1:
            raise ValueError(
                f"persistence must be >= 1, got {self.persistence}"
            )
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")
        if not 1 <= self.pressure_rung <= 3:
            raise ValueError(
                f"pressure_rung must be in [1, 3], got {self.pressure_rung}"
            )
        if self.eviction_rate_high <= 0:
            raise ValueError(
                f"eviction_rate_high must be > 0, got "
                f"{self.eviction_rate_high}"
            )
        if not 0 < self.occupancy_low < self.occupancy_high <= 1:
            raise ValueError(
                f"need 0 < occupancy_low < occupancy_high <= 1, got "
                f"{self.occupancy_low}/{self.occupancy_high}"
            )
        if self.widen_factor <= 1:
            raise ValueError(
                f"widen_factor must be > 1, got {self.widen_factor}"
            )
        if self.gamma_l_min < 1:
            raise ValueError(
                f"gamma_l_min must be >= 1, got {self.gamma_l_min}"
            )
        if (
            self.gamma_l_max is not None
            and not self.gamma_l_min <= self.gamma_l_max < self.gamma_h
        ):
            raise ValueError(
                f"gamma_l_max must lie in [gamma_l_min, gamma_h), got "
                f"{self.gamma_l_max}"
            )
        if self.max_counters is not None and self.max_counters < 2:
            raise ValueError(
                f"max_counters must be >= 2, got {self.max_counters}"
            )
        if self.regression_windows < 0:
            raise ValueError(
                f"regression_windows must be >= 0, got "
                f"{self.regression_windows}"
            )
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")

    def as_dict(self) -> Dict[str, object]:
        return {
            "gamma_h": self.gamma_h,
            "t_upincb_seconds": self.t_upincb_seconds,
            "every_batches": self.every_batches,
            "min_window_packets": self.min_window_packets,
            "persistence": self.persistence,
            "cooldown": self.cooldown,
            "pressure_rung": self.pressure_rung,
            "eviction_rate_high": self.eviction_rate_high,
            "occupancy_high": self.occupancy_high,
            "occupancy_low": self.occupancy_low,
            "widen_factor": self.widen_factor,
            "gamma_l_min": self.gamma_l_min,
            "gamma_l_max": self.gamma_l_max,
            "max_counters": self.max_counters,
            "regression_windows": self.regression_windows,
            "attempts": self.attempts,
            "timeout_s": self.timeout_s,
        }


class Controller:
    """Telemetry watcher proposing retune plans with hysteresis.

    Call :meth:`tick` once per ingested batch (the service does); it
    returns a :class:`~repro.control.retune.RetunePlan` when action is
    due, else None.  The controller never executes plans itself — the
    service runs them through
    :func:`~repro.control.retune.execute_retune` so manual (``eardet
    tune --apply``) and automatic retunes share one code path (and one
    fault-injection surface).
    """

    def __init__(
        self,
        policy: ControlPolicy,
        slo: Optional[SLOEvaluator] = None,
    ):
        self.policy = policy
        self.slo = slo if slo is not None else SLOEvaluator()
        self._ticks = 0
        self._last: Optional[ControlSample] = None
        self._pressure_streak = 0
        self._slack_streak = 0
        self._cooldown = 0
        self._guard: Optional[Dict[str, object]] = None
        self._pending_infeasible: Optional[Dict[str, object]] = None
        self.windows = 0
        self.proposals = 0
        self.infeasibles = 0
        self.decisions: List[Dict[str, object]] = []
        self.alerts: List[Dict[str, object]] = []

    # -- solver inputs -----------------------------------------------------

    def solver_inputs(self, config: EARDetConfig) -> Dict[str, object]:
        """The full Appendix-A input vector for the running config —
        what checkpoint metadata records under ``meta["control"]`` and
        ``eardet checkpoint inspect`` renders."""
        return {
            "gamma_l": config.gamma_l,
            "beta_l": config.beta_l,
            "gamma_h": self.policy.gamma_h,
            "t_upincb_seconds": self.policy.t_upincb_seconds,
            "alpha": config.alpha,
        }

    # -- the per-batch entry point -----------------------------------------

    def tick(
        self, registry: object, config: EARDetConfig
    ) -> Optional[RetunePlan]:
        """Evaluate the loop if this batch lands on the sampling cadence.

        The off-cadence cost is one increment and one modulo — the
        entire idle overhead of an armed controller (gated ≤1% by
        ``benchmarks/trajectory.py --control``).
        """
        self._ticks += 1
        if self._ticks % self.policy.every_batches:
            return None
        sample = scrape_registry(registry)
        alerts = self.slo.evaluate(sample)
        for alert in alerts:
            self.alerts.append(alert.as_dict())
        if len(self.alerts) > MAX_ALERTS:
            del self.alerts[: len(self.alerts) - MAX_ALERTS]
        return self.observe(sample, config, alerts)

    def note_result(
        self, committed: bool, plan: Optional[RetunePlan] = None
    ) -> None:
        """Tell the controller how its last proposal went.  Both
        outcomes re-arm the cooldown (a rolled-back retune should not be
        immediately retried into the same failure); a commit
        additionally arms the post-apply regression guard."""
        self._cooldown = self.policy.cooldown
        self._pressure_streak = 0
        self._slack_streak = 0
        if self.decisions:
            self.decisions[-1]["committed"] = committed
        if committed and plan is not None and self.policy.regression_windows:
            self._guard = {
                "plan": plan,
                "windows": self.policy.regression_windows,
            }
        else:
            self._guard = None

    def take_infeasible(self) -> Optional[Dict[str, object]]:
        """The structured record of the last infeasible derivation, once
        (the service turns it into a ``retune-infeasible`` incident)."""
        record, self._pending_infeasible = self._pending_infeasible, None
        return record

    # -- the decision loop -------------------------------------------------

    def observe(
        self,
        sample: ControlSample,
        config: EARDetConfig,
        alerts: Sequence[SLOAlert] = (),
    ) -> Optional[RetunePlan]:
        """Update pressure/slack streaks from one sample; return a plan
        when hysteresis says act."""
        policy = self.policy
        last = self._last
        if last is None:
            self._last = sample
            return None
        window = sample.packets - last.packets
        if window < policy.min_window_packets:
            return None
        evictions = sample.evictions - last.evictions
        self._last = sample
        self.windows += 1

        # The regression guard outranks cooldown: a committed retune
        # that pages gets reverted through the same guarded protocol.
        revert = self._check_regression(alerts)
        if revert is not None:
            return revert

        if self._cooldown > 0:
            self._cooldown -= 1
            return None

        rung = sample.worst_rung
        occupancy = sample.max_occupancy
        occupancy_frac = occupancy / config.n
        eviction_rate = evictions / window
        pressure = rung >= policy.pressure_rung or (
            eviction_rate >= policy.eviction_rate_high
            and occupancy_frac >= policy.occupancy_high
        )
        slack = (
            rung == 0
            and eviction_rate < policy.eviction_rate_high
            and occupancy_frac <= policy.occupancy_low
        )
        if pressure:
            self._slack_streak = 0
            self._pressure_streak += 1
            if self._pressure_streak >= policy.persistence:
                return self._propose(
                    "coarsen", config, occupancy, rung, eviction_rate
                )
        elif slack:
            self._pressure_streak = 0
            self._slack_streak += 1
            if self._slack_streak >= policy.persistence:
                return self._propose(
                    "refine", config, occupancy, rung, eviction_rate
                )
        else:
            self._pressure_streak = 0
            self._slack_streak = 0
        return None

    def _check_regression(
        self, alerts: Sequence[SLOAlert]
    ) -> Optional[RetunePlan]:
        guard = self._guard
        if guard is None:
            return None
        paged = [a for a in alerts if a.severity == "page"]
        if paged:
            committed: RetunePlan = guard["plan"]  # type: ignore[assignment]
            self._guard = None
            plan = RetunePlan(
                old_config=committed.new_config,
                new_config=committed.old_config,
                reason=f"slo-regression revert: {paged[0].rule} paged "
                f"within {self.policy.regression_windows} windows of the "
                "commit",
                inputs=dict(committed.inputs),
            )
            self._record("revert", plan.reason, plan.describe())
            self.proposals += 1
            return plan
        guard["windows"] = int(guard["windows"]) - 1  # type: ignore[arg-type]
        if int(guard["windows"]) <= 0:  # type: ignore[arg-type]
            self._guard = None
        return None

    def _propose(
        self,
        direction: str,
        config: EARDetConfig,
        occupancy: int,
        rung: int,
        eviction_rate: float,
    ) -> Optional[RetunePlan]:
        policy = self.policy
        gamma_l = config.gamma_l or policy.gamma_l_min
        cap = (
            policy.gamma_l_max
            if policy.gamma_l_max is not None
            else policy.gamma_h - 1
        )
        if direction == "coarsen":
            target = min(math.ceil(gamma_l * policy.widen_factor), cap)
        else:
            target = max(
                math.floor(gamma_l / policy.widen_factor),
                policy.gamma_l_min,
            )
        if target == gamma_l:
            # Already at the knob's end stop; nothing to propose, but
            # reset the streak so the log is not spammed every window.
            self._pressure_streak = 0
            self._slack_streak = 0
            return None
        reason = (
            f"{direction}: rung={rung}, occupancy={occupancy}/{config.n}, "
            f"evictions/pkt={eviction_rate:.3f}, "
            f"gamma_l {gamma_l}->{target}"
        )
        try:
            new_config = derive_config(
                rho=config.rho,
                gamma_l=target,
                beta_l=config.beta_l,
                gamma_h=policy.gamma_h,
                t_upincb_seconds=policy.t_upincb_seconds,
                alpha=config.alpha,
                min_counters=max(2, occupancy),
                max_counters=policy.max_counters,
            )
        except InfeasibleConfigError as error:
            self.infeasibles += 1
            self._pending_infeasible = {
                "direction": direction,
                "gamma_l_target": target,
                "occupancy": occupancy,
                **error.as_dict(),
            }
            self._record(direction, reason, None, infeasible=True)
            # Re-arm the cooldown: the same inputs would stay infeasible
            # next window, so hammering the solver helps nobody.
            self._cooldown = policy.cooldown
            self._pressure_streak = 0
            self._slack_streak = 0
            return None
        if new_config == config:
            self._pressure_streak = 0
            self._slack_streak = 0
            return None
        plan = RetunePlan(
            old_config=config,
            new_config=new_config,
            reason=reason,
            inputs={**self.solver_inputs(config), "gamma_l": target},
        )
        self._record(direction, reason, plan.describe())
        self.proposals += 1
        return plan

    def _record(
        self,
        action: str,
        reason: str,
        plan: Optional[str],
        infeasible: bool = False,
    ) -> None:
        self.decisions.append(
            {
                "action": action,
                "reason": reason,
                "plan": plan,
                "window": self.windows,
                "infeasible": infeasible,
            }
        )
        if len(self.decisions) > MAX_DECISIONS:
            del self.decisions[: len(self.decisions) - MAX_DECISIONS]

    def report(self) -> Dict[str, object]:
        return {
            "policy": self.policy.as_dict(),
            "slo": self.slo.report(),
            "windows": self.windows,
            "proposals": self.proposals,
            "infeasibles": self.infeasibles,
            "cooldown_remaining": self._cooldown,
            "pressure_streak": self._pressure_streak,
            "slack_streak": self._slack_streak,
            "guard_armed": self._guard is not None,
            "decisions": list(self.decisions),
            "alerts": list(self.alerts),
        }

    def __repr__(self) -> str:
        return (
            f"Controller(windows={self.windows}, "
            f"proposals={self.proposals}, infeasibles={self.infeasibles}, "
            f"cooldown={self._cooldown})"
        )
