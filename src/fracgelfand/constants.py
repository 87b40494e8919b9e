"""Closed-form constants of the radial fractional Gelfand problem.

The fractional Laplacian (-Delta)^s on R^n comes with a family of exact
Gamma-function identities used throughout this library:

* ``lambda0``            -- the coupling making log|x|^{-2s} an exact global
                            solution of (-Delta)^s u = lambda e^u,
* ``hardy_constant``     -- the fractional Hardy constant H_{n,s},
* ``power_coefficient``  -- the multiplier in
                            (-Delta)^s |x|^{-alpha} = C(n,s,alpha) |x|^{-alpha-2s},
* ``operator_normalization`` -- the constant c_{n,s} in front of the
                            principal-value integral giving Fourier symbol
                            |xi|^{2s},
* ``epsilon_expansion``  -- near-endpoint behaviour of the power coefficient.

All formulas are composed in log space with ``math.lgamma`` and exponentiated
once, so they remain finite for dimensions far beyond double-precision
Gamma overflow.  They are differences of lgamma values of size ~n log n,
whose rounding grows with n: ``ProblemParams`` refuses n > 10^6, where the
Gamma ratios are still within 2e-9 relative and the threshold margin's sign
is resolved with 10^4 to spare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


__all__ = [
    "DomainError",
    "RegimeError",
    "ProblemParams",
    "lambda0",
    "hardy_constant",
    "power_coefficient",
    "operator_normalization",
    "epsilon_expansion",
]

LOG2 = math.log(2.0)
LOG_PI = math.log(math.pi)


class DomainError(ValueError):
    """An argument lies outside the formula's domain of validity."""


class RegimeError(ValueError):
    """The (n, s) pair is in the wrong regime (needs n > 2s)."""


@dataclass(frozen=True)
class ProblemParams:
    """Ambient dimension n in [1, 10^6] and fractional order s in (0, 1].

    s = 1 is admitted here as the classical analytic limit for cross-checks;
    the discretized operator module rejects it.  Past n = 10^6 the lgamma
    differences lose the closed forms' digits (lambda0 is off by 1.7e-3
    relative at n = 10^12) and the threshold margin rounds to zero near
    s = 0, so those dimensions are refused.
    """

    n: int
    s: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise DomainError(f"dimension n must be an integer, got {self.n!r}")
        if not 1 <= self.n <= 10**6:
            raise DomainError(f"dimension n must lie in [1, 10^6], got {self.n}")
        s = float(self.s)
        if not math.isfinite(s) or not 0.0 < s <= 1.0:
            raise DomainError(f"fractional order s must lie in (0, 1], got {self.s!r}")
        object.__setattr__(self, "s", s)

    @property
    def supercritical(self) -> bool:
        """True when n > 2s, the regime where the singular profile exists."""
        return self.n > 2.0 * self.s


def _require_supercritical(p: ProblemParams) -> None:
    if not p.supercritical:
        raise RegimeError(f"requires n > 2s, got n={p.n}, s={p.s}")


def lambda0(p: ProblemParams) -> float:
    """Coupling for which log|x|^{-2s} solves the problem globally.

    lambda0 = 2^{2s} Gamma(n/2) Gamma(1+s) / Gamma((n-2s)/2), for n > 2s.
    """
    _require_supercritical(p)
    n, s = p.n, p.s
    log_val = (2.0 * s * LOG2 + math.lgamma(n / 2.0) + math.lgamma(1.0 + s)
               - math.lgamma((n - 2.0 * s) / 2.0))
    return math.exp(log_val)


def hardy_constant(p: ProblemParams) -> float:
    """Fractional Hardy constant H = 2^{2s} (Gamma((n+2s)/4)/Gamma((n-2s)/4))^2."""
    _require_supercritical(p)
    n, s = p.n, p.s
    log_val = 2.0 * s * LOG2 + 2.0 * (math.lgamma((n + 2.0 * s) / 4.0)
                                      - math.lgamma((n - 2.0 * s) / 4.0))
    return math.exp(log_val)


def power_coefficient(p: ProblemParams, alpha: float) -> float:
    """Multiplier C(n,s,alpha) in (-Delta)^s |x|^{-alpha} = C |x|^{-alpha-2s}.

    Valid for 0 < alpha < n - 2s; symmetric under alpha <-> n - 2s - alpha
    and maximal at the midpoint, where it equals ``hardy_constant``.
    """
    _require_supercritical(p)
    n, s = p.n, p.s
    alpha = float(alpha)
    if not math.isfinite(alpha) or not 0.0 < alpha < n - 2.0 * s:
        raise DomainError(f"alpha must lie in (0, n-2s) = (0, {n - 2.0 * s}), got {alpha!r}")
    log_val = (
        2.0 * s * LOG2
        + math.lgamma((alpha + 2.0 * s) / 2.0)
        + math.lgamma((n - alpha) / 2.0)
        - math.lgamma((n - alpha - 2.0 * s) / 2.0)
        - math.lgamma(alpha / 2.0)
    )
    return math.exp(log_val)


def _normalization(n: int, s: float) -> float | None:
    """c_{n,s}, or None where it overflows a double."""
    log_val = (2.0 * s * LOG2 + math.log(s) + math.lgamma(n / 2.0 + s) - (n / 2.0) * LOG_PI
               - math.lgamma(1.0 - s))
    try:
        return math.exp(log_val)
    except OverflowError:
        return None


def operator_normalization(p: ProblemParams) -> float:
    """Constant c_{n,s} normalizing the PV integral to Fourier symbol |xi|^{2s}.

    c_{n,s} = 4^s s Gamma(n/2 + s) / (pi^{n/2} Gamma(1 - s)), for 0 < s < 1.
    It grows like (n / (2 pi e))^{n/2} and overflows a double past a largest
    dimension (437 at s = 0.5); those dimensions raise DomainError naming it.
    """
    n, s = p.n, p.s
    if not 0.0 < s < 1.0:
        raise DomainError(f"operator normalization needs 0 < s < 1, got s={s}")
    c = _normalization(n, s)
    if c is None:
        # log c_{n,s} is convex in n and c_{1,s} is finite, so the admissible
        # dimensions are 1..lo: bisect for lo.
        lo, hi = 1, n
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if _normalization(mid, s) is not None else (lo, mid)
        raise DomainError(f"c_(n,s) overflows a double for n > {lo} at s = {s}, got n = {n}")
    return c


def epsilon_expansion(p: ProblemParams, eps: float) -> tuple[float, float]:
    """Near-endpoint values (A, B) of the power-map coefficient.

    A(eps) = C(n, s, (n-2s-eps)/2) -> hardy_constant as eps -> 0, and
    B(eps) = (2s/eps) C(n, s, n-2s-eps) -> lambda0.  B converges at sharp
    first order in eps; A is even in eps (the coefficient is symmetric about
    the midpoint exponent) so its error is quadratic.
    """
    _require_supercritical(p)
    n, s = p.n, p.s
    eps = float(eps)
    if not math.isfinite(eps) or not 0.0 < eps < (n - 2.0 * s) / 2.0:
        raise DomainError(f"eps must lie in (0, (n-2s)/2) = (0, {(n - 2.0 * s) / 2.0}), got {eps!r}")
    a_val = power_coefficient(p, (n - 2.0 * s - eps) / 2.0)
    b_val = (2.0 * s / eps) * power_coefficient(p, n - 2.0 * s - eps)
    return a_val, b_val
