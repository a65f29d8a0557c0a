"""Ingest hardening and runtime invariant guardrails.

The paper's headline guarantees — no-FN above ``TH_h``, no-FP below
``TH_l``, exactness outside the ambiguity region — are deterministic
invariants *of the algorithm state*, but they are conditional on sane
input: a trace with non-monotonic timestamps, out-of-range sizes, or
unusable flow IDs can drive EARDet into states where the guarantees
are void with no signal to the operator.  This package closes both gaps:

- :mod:`repro.guard.validator` hardens the ingest boundary.  A
  :class:`StreamValidator` wraps any packet iterable and enforces
  timestamp monotonicity, the ``min_size <= size <= max_size`` envelope
  (configurable alpha), non-negative times and flow-ID sanity — with an
  explicit, per-violation-class policy (``reject`` / ``clamp`` /
  ``drop`` / bounded ``reorder``) and exact integer accounting of every
  packet a policy touched.  A clamped or dropped packet voids the
  exactness guarantee the same way a lost one does, and the service
  layer reflects that in its :class:`~repro.service.health.ServiceReport`.
- :mod:`repro.guard.invariants` asserts the paper's Section-3 algorithm-
  state invariants at a configurable sampling cadence while the detector
  runs: counters bounded by ``beta_th + alpha``, the virtual-traffic
  carryover numerator inside its half-open window, counter-store size
  ``<= n``, blacklist discipline, and monotone time/drain progression.
  A violated invariant raises a typed :class:`InvariantViolation`
  carrying full state forensics; the service supervisor treats it as
  permanent (restarting cannot fix corrupted logic or memory).

See ``docs/GUARDRAILS.md`` for policies, the invariant catalogue, and
measured overhead.
"""

from .invariants import InvariantChecker, InvariantViolation
from .validator import (
    CLAMP,
    DROP,
    FID_INVALID,
    NEGATIVE_TIME,
    REJECT,
    REORDER,
    SIZE_RANGE,
    TIME_REGRESSION,
    GuardPolicy,
    StreamValidator,
    StreamViolationError,
    ValidationStats,
    ViolationSample,
    validate_stream,
)

__all__ = [
    "CLAMP",
    "DROP",
    "FID_INVALID",
    "GuardPolicy",
    "InvariantChecker",
    "InvariantViolation",
    "NEGATIVE_TIME",
    "REJECT",
    "REORDER",
    "SIZE_RANGE",
    "StreamValidator",
    "StreamViolationError",
    "TIME_REGRESSION",
    "ValidationStats",
    "ViolationSample",
    "validate_stream",
]
