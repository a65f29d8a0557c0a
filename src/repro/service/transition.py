"""One guarded-transition executor for live migration and hot retune.

Two live transitions must preserve EARDet's exactness guarantee in the
service: slot migration (:func:`repro.service.reshard.execute_migration`)
and configuration retune (:func:`repro.control.retune.execute_retune`).
Each is an ordered list of ``(phase, action)`` steps run at a batch
boundary, and :func:`run_transition` is the one loop both run:

- **fault gate** — before each action the run's
  :class:`~repro.service.faults.FaultPlan` may fire one armed ``mig:`` /
  ``tune:`` fault for this phase of the ``index``-th transition
  (positional and fire-once, so retries converge): ``stall`` sleeps,
  ``kill`` raises a worker death, ``fail`` a transient failure;
- **time budget** — checked at every boundary *between* phases, never
  after the last one: once the final action ran the transition has
  committed;
- **rollback, then retry** — any failure rolls the engine back and
  retries under a :class:`~repro.service.backoff.BackoffPolicy`, up to
  ``attempts`` times; each attempt starts from empty scratch state;
- **crash passthrough** — a :class:`~repro.service.errors.ShardCrashError`
  (real or injected ``mode=kill``) propagates without rollback: the
  supervisor's checkpoint restore is exact under any layout and carries
  the checkpoint's own config epoch;
- **typed terminal error** — the protocol's
  :class:`~repro.service.errors.TransitionError` subclass, naming the
  phase the *last* attempt failed in; ``rolled_back=False`` when the
  rollback itself failed (state suspect: restore from checkpoint).

The reported pause runs from the start of the ``freeze`` action (after
its fault gate) to the end of the last phase.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple, Type

from .backoff import DEFAULT_BACKOFF, BackoffPolicy
from .errors import ShardCrashError, TransitionError

__all__ = [
    "MIGRATION_PHASES",
    "RETUNE_PHASES",
    "TransitionReport",
    "run_transition",
]

#: The migration protocol's phases, in order (see repro.service.reshard).
MIGRATION_PHASES = ("freeze", "extract", "install", "cutover")

#: The retune protocol's phases, in order (see repro.control.retune).
RETUNE_PHASES = ("propose", "freeze", "apply", "verify", "commit")

#: The phase whose action starts the measured pause (both protocols
#: have one).
PAUSE_PHASE = "freeze"


@dataclass
class TransitionReport:
    """What one guarded transition did: the fields both protocols
    report.  Subclasses add their own between ``to_epoch`` and
    ``pause_ns``."""

    plan: str
    committed: bool
    attempts: int
    phase_reached: str
    rolled_back: bool = False
    from_epoch: int = 0
    to_epoch: int = 0
    pause_ns: int = 0
    error: Optional[str] = None


class _TransientFailure(Exception):
    """An injected ``mode=fail`` fault, or a blown time budget: rolled
    back and retried like any other failure."""


def run_transition(
    error_type: Type[TransitionError],
    steps: Iterable[Tuple[str, Callable[[Dict[str, object]], None]]],
    rollback: Callable[[Dict[str, object]], None],
    report: TransitionReport,
    attempts: int = 3,
    backoff: Optional[BackoffPolicy] = None,
    timeout_s: Optional[float] = 30.0,
    fault_plan=None,
    index: int = 1,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> TransitionReport:
    """Run ``steps`` — ``(phase, action)`` pairs — under the guarded
    protocol (see the module docstring) and return ``report`` marked
    committed, or raise ``error_type``.  Each action and the rollback
    get the attempt's scratch dict.  ``index`` is the transition's
    1-based position in the run, which fault clauses are keyed on."""
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    if backoff is None:
        backoff = DEFAULT_BACKOFF
    steps = list(steps)
    kind = error_type.kind
    last_error: Optional[Exception] = None
    for attempt in range(attempts):
        report.attempts = attempt + 1
        deadline = None if timeout_s is None else clock() + timeout_s
        scratch: Dict[str, object] = {}
        paused_ns = 0
        try:
            for number, (phase, action) in enumerate(steps):
                if number and deadline is not None and clock() > deadline:
                    raise _TransientFailure(
                        f"{kind} exceeded its time budget at the "
                        f"{report.phase_reached} boundary"
                    )
                report.phase_reached = phase
                fault = (
                    fault_plan.take_phase(kind, phase, index)
                    if fault_plan is not None
                    else None
                )
                if fault is not None:
                    where = f"during {kind} {index} at the {phase} boundary"
                    if fault.mode == "kill":
                        raise ShardCrashError(f"injected kill {where}")
                    if fault.mode == "fail":
                        raise _TransientFailure(f"injected failure {where}")
                    sleep(fault.duration_s)  # mode=stall
                if phase == PAUSE_PHASE:
                    paused_ns = time.monotonic_ns()
                action(scratch)
        except ShardCrashError:
            raise
        except Exception as error:
            last_error = error
            try:
                rollback(scratch)
            except Exception as rollback_error:
                raise error_type(
                    f"{kind} failed in the {report.phase_reached} phase AND "
                    f"rollback failed ({rollback_error}); "
                    f"{error_type.state} is suspect — restore from checkpoint",
                    phase=report.phase_reached,
                    plan=report.plan,
                    rolled_back=False,
                    attempts=attempt + 1,
                ) from error
            report.rolled_back = True
            if attempt + 1 < attempts:
                sleep(backoff.delay_s(attempt))
            continue
        report.committed = True
        report.rolled_back = False
        report.pause_ns = time.monotonic_ns() - paused_ns
        return report
    report.error = str(last_error)
    raise error_type(
        f"{kind} failed after {attempts} attempt(s) in the "
        f"{report.phase_reached} phase ({last_error}); rolled back to the "
        f"pre-{kind} {error_type.state} (epoch {report.from_epoch})",
        phase=report.phase_reached,
        plan=report.plan,
        rolled_back=True,
        attempts=attempts,
    ) from last_error

