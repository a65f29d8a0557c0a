"""The guarded hot-reconfiguration protocol (retune executor).

Why a retune can be *exact outside the transition*
--------------------------------------------------

EARDet's detection state is config-independent except for the counter
bank's capacity (:func:`repro.core.eardet.reconfigure_state`), so at a
batch boundary — every queue drained, every rung buffer flushed — the
engines can rebuild every slot detector under a new
:class:`~repro.core.config.EARDetConfig` from its own snapshot and
continue.  Detections *before* the boundary were produced entirely
under the old config and are bit-identical to a static run of the old
config over that prefix; detections *after* it are governed by the new
config's guarantees.  The service stamps that boundary as an explicit
**config epoch**, so old-epoch exactness is never laundered into the
new one.

The five-phase protocol
-----------------------

:func:`execute_retune` runs a :class:`RetunePlan` at a batch boundary:

1. **propose** — re-verify the plan's §3/§4 guarantees against
   :mod:`repro.core.theory` (Theorem 6's ``gamma_l < R_NFP`` margin and
   Theorem 4's ``ceil(R_NFN) <= gamma_h`` coverage) and check the plan
   is executable against the engine's current config;
2. **freeze** — flush the engine (overload rung buffers released,
   every queued packet processed), pinning the stream boundary the
   epoch will be stamped at;
3. **apply** — ``engine.apply_config(new)``: every slot detector is
   rebuilt from its snapshot under the new config (build-all-then-swap
   inside each engine, so a failed apply leaves the old bank intact);
4. **verify** — re-run the §3 invariant sweep
   (:class:`repro.guard.invariants.InvariantChecker`) over detectors
   rebuilt from the *post-apply* snapshot: only a state that provably
   satisfies the new config's invariants is ever committed;
5. **commit** — the epoch increments (the service owns the counter)
   and the measured pause — from the start of the freeze action to the
   end of commit — is reported.

Any failure or per-phase timeout triggers **rollback**:
``engine.apply_config(old)``, which is always feasible because
rebuilding never changes a store's entry count — state that fitted the
old ``n`` before the attempt still fits it after.  Fault gates
(``tune:`` clauses), the time budget, retries, worker-crash passthrough
and the typed terminal :class:`~repro.service.errors.RetuneError` come
from the guarded-transition executor live migration shares
(:mod:`repro.service.transition`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..core.config import EARDetConfig, config_as_dict
from ..core.eardet import EARDet
from ..guard.invariants import InvariantChecker
from ..service.backoff import BackoffPolicy
from ..service.errors import RetuneError
from ..service.transition import RETUNE_PHASES, TransitionReport, run_transition

__all__ = [
    "RETUNE_PHASES",
    "RetunePlan",
    "RetuneReport",
    "config_as_dict",
    "execute_retune",
    "verify_plan",
]


@dataclass(frozen=True)
class RetunePlan:
    """One proposed configuration transition.

    ``inputs`` records the Appendix-A solver inputs the new config was
    derived from (``gamma_l``, ``beta_l``, ``gamma_h``,
    ``t_upincb_seconds``, ``alpha``) so checkpoints and forensics can
    show *why* the epoch changed, not just what it changed to.
    """

    old_config: EARDetConfig
    new_config: EARDetConfig
    reason: str = ""
    inputs: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.new_config == self.old_config:
            raise ValueError("retune plan is a no-op: configs are equal")

    def describe(self) -> str:
        old, new = self.old_config, self.new_config
        label = f" ({self.reason})" if self.reason else ""
        return (
            f"n {old.n}->{new.n}, beta_th {old.beta_th}->{new.beta_th}, "
            f"gamma_l {old.gamma_l}->{new.gamma_l}{label}"
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "old_config": config_as_dict(self.old_config),
            "new_config": config_as_dict(self.new_config),
            "reason": self.reason,
            "inputs": dict(self.inputs),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RetunePlan":
        return cls(
            old_config=EARDetConfig(**data["old_config"]),  # type: ignore[arg-type]
            new_config=EARDetConfig(**data["new_config"]),  # type: ignore[arg-type]
            reason=str(data.get("reason", "")),
            inputs=dict(data.get("inputs") or {}),  # type: ignore[arg-type]
        )


@dataclass
class RetuneReport(TransitionReport):
    """What one :func:`execute_retune` call did."""

    old_config: Dict[str, object] = field(default_factory=dict)
    new_config: Dict[str, object] = field(default_factory=dict)


def verify_plan(plan: RetunePlan, current: EARDetConfig) -> None:
    """The propose-phase soundness check, callable standalone (the CLI's
    ``eardet tune`` dry-run uses it).

    Raises ``ValueError`` when the plan is stale (its ``old_config`` is
    not the engine's current config) or when the new config fails its
    own recorded guarantees: Theorem 6 needs ``gamma_l < R_NFP`` for
    the no-FPs promise, and when the solver inputs carry a ``gamma_h``,
    Theorem 4 needs ``ceil(R_NFN) <= gamma_h`` for the no-FNl promise.
    """
    if plan.old_config != current:
        raise ValueError(
            f"stale retune plan: engine runs {config_as_dict(current)}, "
            f"plan expects {config_as_dict(plan.old_config)}"
        )
    new = plan.new_config
    if new.gamma_l and not new.gamma_l < new.rnfp:
        raise ValueError(
            f"new config breaks Theorem 6: gamma_l={new.gamma_l} is not "
            f"below R_NFP={float(new.rnfp):.1f}; small flows could be "
            "falsely accused"
        )
    gamma_h = plan.inputs.get("gamma_h")
    if gamma_h is not None and math.ceil(new.rnfn) > int(gamma_h):  # type: ignore[arg-type]
        raise ValueError(
            f"new config breaks Theorem 4 coverage: R_NFN="
            f"{float(new.rnfn):.1f} exceeds the required catch rate "
            f"gamma_h={gamma_h}"
        )


def _verify_restored_state(engine, config: EARDetConfig) -> None:
    """The verify phase: rebuild each slot detector from the engine's
    *post-apply* snapshot under the new config and run the full §3
    invariant sweep on it.  This exercises the exact snapshot/restore
    path a checkpoint resume (or supervised restart) would take, so a
    committed retune's state is known to restore cleanly *before* the
    epoch advances."""
    snapshot = engine.snapshot()
    for state in snapshot["shards"]:
        detector = EARDet(config)
        detector.restore(state)
        InvariantChecker(every=1).check_now(detector)


def execute_retune(
    engine,
    plan: RetunePlan,
    attempts: int = 3,
    backoff: Optional[BackoffPolicy] = None,
    timeout_s: Optional[float] = 30.0,
    fault_plan=None,
    retune_index: int = 1,
    from_epoch: int = 0,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> RetuneReport:
    """Run ``plan`` against ``engine`` under the five-phase protocol.

    Call at a batch boundary (nothing mid-ingest).  On success the
    engine runs ``plan.new_config`` and the report carries the measured
    freeze→commit pause plus the epoch transition.  On terminal failure
    the engine is back on ``plan.old_config`` (every attempt rolls back
    before retrying) and a :class:`~repro.service.errors.RetuneError`
    is raised; worker crashes (:class:`ShardCrashError`, including
    injected ``mode=kill`` faults) propagate un-rolled-back for the
    supervisor's checkpoint restore, whose recorded config epoch is
    authoritative.
    """
    # Soundness is checked before anything is touched: a stale or
    # theory-breaking plan raises here with no rollback needed (and
    # rollback below can safely target plan.old_config, which is known
    # to be the engine's live config).
    verify_plan(plan, engine.config)
    report = RetuneReport(
        plan=plan.describe(),
        committed=False,
        attempts=0,
        phase_reached=RETUNE_PHASES[0],
        from_epoch=from_epoch,
        to_epoch=from_epoch,
        old_config=config_as_dict(plan.old_config),
        new_config=config_as_dict(plan.new_config),
    )
    actions = (
        # Re-checked per attempt: a previous attempt's rollback must
        # have restored exactly the config the plan expects.
        lambda scratch: verify_plan(plan, engine.config),
        lambda scratch: engine.flush(),
        lambda scratch: engine.apply_config(plan.new_config),
        lambda scratch: _verify_restored_state(engine, plan.new_config),
        lambda scratch: None,  # commit: the service advances the epoch
    )
    run_transition(
        RetuneError,
        zip(RETUNE_PHASES, actions),
        lambda scratch: engine.apply_config(plan.old_config),
        report,
        attempts=attempts,
        backoff=backoff,
        timeout_s=timeout_s,
        fault_plan=fault_plan,
        index=retune_index,
        clock=clock,
        sleep=sleep,
    )
    report.to_epoch = from_epoch + 1
    return report
