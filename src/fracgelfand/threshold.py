"""Boundedness analyzer for the extremal solution.

The extremal solution of the fractional Gelfand problem on the unit ball is
bounded whenever n <= 2s, or when n > 2s and the Gamma-ratio inequality
lambda0(n,s) > H_{n,s} holds.  This module evaluates the log-space margin
ln lambda0 - ln H, classifies (n, s) pairs, and locates the critical s at
which the margin changes sign for each dimension (it does so only for
n = 8 and n = 9; dimensions up to 7 satisfy the inequality for every s,
dimensions 10 and above for none).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .constants import ProblemParams, RegimeError
from .specfun import log_gamma

__all__ = [
    "Regime",
    "RegularityVerdict",
    "ThresholdRow",
    "margin",
    "critical_s",
    "classify",
    "threshold_table",
]

#: Lower end of the s-scan; margin -> 0 as s -> 0 so roots are sought inside.
_S_LO = 1e-6
_S_HI = 1.0 - 1e-12
_SCAN_SAMPLES = 200


class Regime(enum.Enum):
    """Boundedness classification of (n, s)."""

    BOUNDED_SUBCRITICAL = "BoundedSubcritical"
    BOUNDED_BY_INEQUALITY = "BoundedByInequality"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class RegularityVerdict:
    """Classification plus the log-margin (defined only when n > 2s)."""

    regime: Regime
    margin: float | None


def margin(p: ProblemParams) -> float:
    """Return ln lambda0(n,s) - ln H_{n,s}; positive means bounded.

    The common 2^{2s} factor cancels, so this is a pure Gamma-ratio margin,
    computed entirely in log space.  Requires n > 2s.
    """
    if not p.supercritical:
        raise RegimeError(f"margin needs n > 2s, got n={p.n}, s={p.s}")
    n, s = p.n, p.s
    return (
        log_gamma(n / 2.0)
        + log_gamma(1.0 + s)
        - log_gamma((n - 2.0 * s) / 2.0)
        - 2.0 * log_gamma((n + 2.0 * s) / 4.0)
        + 2.0 * log_gamma((n - 2.0 * s) / 4.0)
    )


def _margin_ns(n: int, s: float) -> float:
    return margin(ProblemParams(n, s))


def _s_upper(n: int) -> float:
    # margin is defined only for s < n/2; for n = 1 that caps the scan at 1/2.
    return min(_S_HI, n / 2.0 - 1e-9)


def critical_s(n: int, tol: float = 1e-8) -> float | None:
    """Root of margin(n, .) in s, or None if the margin has constant sign.

    A 200-sample scan brackets the sign change, then bisection refines it to
    ``tol``.  The margin is smooth and crosses zero at most once on the
    admissible interval (verified by the scan).
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    hi = _s_upper(n)
    if hi <= _S_LO:
        return None
    samples = [_S_LO + (hi - _S_LO) * k / (_SCAN_SAMPLES - 1) for k in range(_SCAN_SAMPLES)]
    values = [_margin_ns(n, s) for s in samples]
    bracket = None
    for sa, sb, fa, fb in zip(samples, samples[1:], values, values[1:]):
        if fa == 0.0:
            return sa
        if fa * fb < 0.0:
            bracket = (sa, sb, fa)
            break
    if bracket is None:
        return None
    lo, hi, flo = bracket
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = _margin_ns(n, mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def classify(p: ProblemParams) -> RegularityVerdict:
    """Classify (n, s): subcritical, bounded by the inequality, or inconclusive."""
    if not p.supercritical:
        return RegularityVerdict(Regime.BOUNDED_SUBCRITICAL, None)
    m = margin(p)
    if m > 0.0:
        return RegularityVerdict(Regime.BOUNDED_BY_INEQUALITY, m)
    return RegularityVerdict(Regime.INCONCLUSIVE, m)


@dataclass(frozen=True)
class ThresholdRow:
    """Per-dimension summary: critical s (if any) and the all-s verdict."""

    n: int
    critical_s: float | None
    all_s_bounded: bool


def threshold_table(n_max: int, tol: float = 1e-8) -> list[ThresholdRow]:
    """One row per dimension n in [1, n_max].

    ``all_s_bounded`` is True when every s in (0, 1) yields a bounded
    extremal solution: either because n <= 2s applies at the top of the
    range and the margin stays positive below it, or because the margin is
    positive on the whole admissible interval.
    """
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 1:
        raise ValueError(f"n_max must be a positive integer, got {n_max!r}")
    rows = []
    for n in range(1, n_max + 1):
        root = critical_s(n, tol)
        if root is None:
            # Constant-sign margin: bounded for all s iff the sign is positive
            # (sample mid-interval), or the whole range is subcritical.
            hi = _s_upper(n)
            if hi <= _S_LO:
                all_bounded = True
            else:
                all_bounded = _margin_ns(n, 0.5 * (_S_LO + hi)) > 0.0
        else:
            all_bounded = False
        rows.append(ThresholdRow(n=n, critical_s=root, all_s_bounded=all_bounded))
    return rows
