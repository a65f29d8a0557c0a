"""EARDet configuration and the Appendix-A parameter-engineering solver.

A detector instance is fully determined by four primitive parameters —
link capacity ``rho``, counter count ``n``, counter threshold ``beta_TH``
and maximum packet size ``alpha`` — from which all of the paper's
guarantees follow (Section 4):

- every flow violating ``TH_h(t) = gamma_h t + beta_h`` with
  ``gamma_h >= rho/(n+1)`` and ``beta_h >= alpha + 2 beta_TH`` is caught
  (Theorem 4),
- no flow complying with ``TH_l(t) = gamma_l t + beta_l`` with
  ``beta_l < beta_TH`` and ``gamma_l < R_NFP`` is ever caught (Theorem 6).

:func:`engineer` solves the designer's inverse problem from Section 4.6 /
Appendix A: given the link, the small-flow profile to protect
(``gamma_l, beta_l``), the attack rate to catch (``gamma_h``) and an
incubation-period budget, produce the cheapest ``(n, beta_delta)`` pair —
the paper's Equation (10) choice of minimum ``n`` and minimum
``beta_delta``.  The solver reproduces the paper's worked example
(Appendix A) and Table 5's per-dataset parameters exactly; see
``tests/test_config.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional

from ..model.packet import MAX_PACKET_SIZE
from ..model.thresholds import ThresholdFunction
from . import theory


class InfeasibleConfigError(ValueError):
    """Raised when no (n, beta_delta) pair satisfies the requirements.

    Beyond the human-readable message, the error carries the *binding
    constraint* in structured form so machine callers (the adaptive
    control plane feeding :func:`engineer` from live telemetry scrapes)
    can report which inequality failed and by how much instead of
    pattern-matching message text:

    - :attr:`constraint` — stable slug naming the failed inequality
      (``"gamma-ordering"``, ``"budget-positive"``, ``"eq12-incubation"``,
      ``"eq10-margin"``, ``"eq7-headroom"``, ``"eq9-empty"``).
    - :attr:`observed` — the offending value as supplied/derived.
    - :attr:`bound` — the limit the constraint required.
    - :attr:`shortfall` — how far ``observed`` is on the wrong side of
      ``bound`` (always >= 0; the "by how much").
    """

    def __init__(
        self,
        message: str,
        constraint: str = "unspecified",
        observed: Optional[float] = None,
        bound: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.constraint = constraint
        self.observed = observed
        self.bound = bound

    @property
    def shortfall(self) -> Optional[float]:
        """Distance from the bound, when both sides are known."""
        if self.observed is None or self.bound is None:
            return None
        return abs(self.observed - self.bound)

    def as_dict(self) -> Dict[str, object]:
        """Machine-consumable form (incident payloads, ``--json``)."""
        return {
            "message": str(self),
            "constraint": self.constraint,
            "observed": self.observed,
            "bound": self.bound,
            "shortfall": self.shortfall,
        }


@dataclass(frozen=True)
class EARDetConfig:
    """Complete parameterization of one EARDet instance.

    Attributes
    ----------
    rho:
        Link capacity in bytes/second.
    n:
        Number of counters.
    beta_th:
        Counter threshold in bytes; a flow whose counter exceeds this is
        declared large.
    alpha:
        Maximum packet size in bytes (1518 throughout the paper).
    beta_l, gamma_l:
        The low-bandwidth threshold this instance was engineered to
        protect, recorded for reporting; ``beta_l`` also determines
        ``beta_delta = beta_th - beta_l`` and hence :attr:`rnfp`.
    virtual_unit:
        Size of one virtual flow in bytes.  Defaults to ``beta_th`` — the
        paper's maximum (and cheapest) legal unit size.
    """

    rho: int
    n: int
    beta_th: int
    alpha: int = MAX_PACKET_SIZE
    beta_l: int = 0
    gamma_l: int = 0
    virtual_unit: Optional[int] = field(default=None)

    def __post_init__(self) -> None:
        if self.rho <= 0:
            raise ValueError(f"link capacity must be positive, got {self.rho}")
        if self.n < 2:
            raise ValueError(f"need at least 2 counters, got n={self.n}")
        if self.beta_th <= 0:
            raise ValueError(f"beta_th must be positive, got {self.beta_th}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not 0 <= self.beta_l < self.beta_th:
            raise ValueError(
                f"beta_l={self.beta_l} must satisfy 0 <= beta_l < "
                f"beta_th={self.beta_th} (Theorem 6)"
            )
        unit = self.virtual_unit
        if unit is None:
            object.__setattr__(self, "virtual_unit", self.beta_th)
        elif not 0 < unit <= self.beta_th:
            raise ValueError(
                f"virtual unit {unit} must be in (0, beta_th={self.beta_th}] "
                "to avoid false alarms on virtual flows (Section 3.3)"
            )

    # -- guarantees ---------------------------------------------------------

    @property
    def rnfn(self) -> Fraction:
        """No-FNl rate: flows at ``gamma_h >= rho/(n+1)`` are always caught."""
        return theory.rnfn(self.rho, self.n)

    @property
    def beta_h(self) -> int:
        """No-FNl burst: ``alpha + 2 beta_th`` (Theorem 4)."""
        return theory.beta_h_guarantee(self.alpha, self.beta_th)

    @property
    def beta_delta(self) -> int:
        """``beta_th - beta_l`` — the counter headroom above the protected
        burst size."""
        return self.beta_th - self.beta_l

    @property
    def rnfp(self) -> Fraction:
        """No-FPs rate for the recorded ``beta_l`` (Theorem 6)."""
        return theory.rnfp(self.rho, self.n, self.alpha, self.beta_l, self.beta_delta)

    @property
    def high_threshold(self) -> ThresholdFunction:
        """The guaranteed-detection threshold ``TH_h`` of this instance.

        ``gamma_h`` is the smallest integer rate >= ``rho/(n+1)``, so the
        returned integer threshold is within the guarantee.
        """
        return ThresholdFunction(gamma=math.ceil(self.rnfn), beta=self.beta_h)

    @property
    def low_threshold(self) -> ThresholdFunction:
        """The protected threshold ``TH_l`` recorded at engineering time."""
        return ThresholdFunction(gamma=self.gamma_l, beta=self.beta_l)

    def incubation_bound_seconds(self, attack_rate) -> Fraction:
        """Theorem 7's incubation bound for a given attack rate."""
        return theory.incubation_bound_seconds(
            self.rho, self.n, self.alpha, self.beta_th, attack_rate
        )

    def describe(self) -> str:
        """Multi-line human-readable summary (Table 5 row style)."""
        lines = [
            f"EARDet(n={self.n}, beta_th={self.beta_th}B, "
            f"rho={self.rho}B/s, alpha={self.alpha}B)",
            f"  no-FNl: catches gamma_h >= {float(self.rnfn):.1f}B/s, "
            f"beta_h >= {self.beta_h}B",
        ]
        if self.beta_l:
            lines.append(
                f"  no-FPs: protects gamma_l < {float(self.rnfp):.1f}B/s, "
                f"beta_l = {self.beta_l}B"
            )
        return "\n".join(lines)


def config_as_dict(config: EARDetConfig) -> Dict[str, object]:
    """The seven-field wire/checkpoint form of a config.

    Checkpoint metadata, forensics bundles, the retune records and the
    remote ``assign``/``reconfig`` ops all use this one shape (key order
    included, so the encoded bytes are stable), and ``EARDetConfig(**d)``
    round-trips."""
    return {
        "rho": config.rho,
        "n": config.n,
        "beta_th": config.beta_th,
        "alpha": config.alpha,
        "beta_l": config.beta_l,
        "gamma_l": config.gamma_l,
        "virtual_unit": config.virtual_unit,
    }


def engineer(
    rho: int,
    gamma_l: int,
    beta_l: int,
    gamma_h: int,
    t_upincb_seconds: float,
    alpha: int = MAX_PACKET_SIZE,
) -> EARDetConfig:
    """Solve the Appendix-A design problem.

    Given the link capacity, the small-flow profile ``(gamma_l, beta_l)``
    to protect, the attack rate ``gamma_h`` to catch, and an upper bound on
    the incubation period, compute the cheapest configuration: minimum
    counter count ``n = n_min`` (Eq. 9) and minimum headroom
    ``beta_delta`` (Eq. 10).

    Raises :class:`InfeasibleConfigError` when the inequality set has no
    solution (Eq. 11/12), with a message that reports the smallest feasible
    ``t_upincb`` so callers can relax their requirement.
    """
    if gamma_h <= gamma_l:
        raise InfeasibleConfigError(
            f"gamma_h={gamma_h} must exceed gamma_l={gamma_l} (Section 4.3)",
            constraint="gamma-ordering",
            observed=float(gamma_h),
            bound=float(gamma_l),
        )
    if t_upincb_seconds <= 0:
        raise InfeasibleConfigError(
            f"t_upincb must be positive, got {t_upincb_seconds}",
            constraint="budget-positive",
            observed=float(t_upincb_seconds),
            bound=0.0,
        )
    m = gamma_h + gamma_l - 2 * (alpha + beta_l) / t_upincb_seconds
    discriminant = m * m - 4 * gamma_h * gamma_l
    if m < 0 or discriminant < 0:
        minimum = theory.min_t_upincb(gamma_h, gamma_l, alpha, beta_l)
        raise InfeasibleConfigError(
            f"no (n, beta_delta) satisfies t_upincb={t_upincb_seconds}s; "
            f"Eq. (12) requires t_upincb >= {minimum:.4f}s for these "
            "thresholds",
            constraint="eq12-incubation",
            observed=float(t_upincb_seconds),
            bound=float(minimum),
        )
    root = math.sqrt(discriminant)
    n_min = math.ceil(rho / ((m + root) / 2)) - 1
    n_max = math.floor(rho / ((m - root) / 2)) - 1 if m > root else None
    n = max(n_min, 2)

    # Eq. (10): beta_delta_min = gamma_l (alpha + beta_l) / (rho/(n+1) - gamma_l),
    # taken strictly (Theorem 6 needs gamma_l < R_NFP), hence floor + 1.
    margin = Fraction(rho, n + 1) - gamma_l
    if margin <= 0:
        raise InfeasibleConfigError(
            f"n={n} counters put R_NFN={float(Fraction(rho, n + 1)):.1f}B/s "
            f"at or below gamma_l={gamma_l}B/s; the no-FPs bound is empty",
            constraint="eq10-margin",
            observed=float(Fraction(rho, n + 1)),
            bound=float(gamma_l),
        )
    beta_delta = math.floor(Fraction(gamma_l * (alpha + beta_l)) / margin) + 1

    # Sanity: the upper branch of Eq. (7) must admit this beta_delta.
    upper = (t_upincb_seconds * (gamma_h - rho / (n + 1)) - 2 * (alpha + beta_l)) / 2
    if beta_delta > upper:
        raise InfeasibleConfigError(
            f"beta_delta={beta_delta} exceeds the incubation-period budget's "
            f"allowance {upper:.1f} at n={n} (Eq. 7); "
            f"n_max={n_max}, try a larger t_upincb or gamma_h",
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


def feasible_counter_range(
    rho: int,
    gamma_l: int,
    beta_l: int,
    gamma_h: int,
    t_upincb_seconds: float,
    alpha: int = MAX_PACKET_SIZE,
):
    """The ``[n_min, n_max]`` range of Eq. (9), for exploring the solution
    space (Figure 8).  Returns ``(n_min, n_max)``; raises
    :class:`InfeasibleConfigError` when empty."""
    m = gamma_h + gamma_l - 2 * (alpha + beta_l) / t_upincb_seconds
    discriminant = m * m - 4 * gamma_h * gamma_l
    if m < 0 or discriminant < 0:
        raise InfeasibleConfigError(
            "Eq. (9) has no solution; see engineer()",
            constraint="eq9-empty",
            observed=float(min(m, discriminant)),
            bound=0.0,
        )
    root = math.sqrt(discriminant)
    n_min = math.ceil(rho / ((m + root) / 2)) - 1
    n_max = math.floor(rho / ((m - root) / 2)) - 1
    return max(n_min, 2), n_max


def beta_delta_bounds(
    n: int,
    rho: int,
    gamma_l: int,
    beta_l: int,
    gamma_h: int,
    t_upincb_seconds: float,
    alpha: int = MAX_PACKET_SIZE,
):
    """Eq. (7)'s lower and upper bounds on ``beta_delta`` at a given ``n``
    (the two curves of Figure 8).  Returns ``(lower, upper)`` as floats;
    the pair is empty (lower > upper) outside the feasible ``n`` range."""
    margin = rho / (n + 1) - gamma_l
    if margin <= 0:
        raise InfeasibleConfigError(
            f"n={n} puts R_NFN at or below gamma_l; no beta_delta works",
            constraint="eq10-margin",
            observed=rho / (n + 1),
            bound=float(gamma_l),
        )
    lower = gamma_l * (alpha + beta_l) / margin
    upper = (t_upincb_seconds * (gamma_h - rho / (n + 1)) - 2 * (alpha + beta_l)) / 2
    return lower, upper
