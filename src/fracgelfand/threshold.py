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
import math
from dataclasses import dataclass

from .constants import ProblemParams, RegimeError

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
ROOT_TOL = 1e-8   # bracket width at which bisection for critical_s stops


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
        math.lgamma(n / 2.0)
        + math.lgamma(1.0 + s)
        - math.lgamma((n - 2.0 * s) / 2.0)
        - 2.0 * math.lgamma((n + 2.0 * s) / 4.0)
        + 2.0 * math.lgamma((n - 2.0 * s) / 4.0)
    )


def _margin_ns(n: int, s: float) -> float:
    return margin(ProblemParams(n, s))


def _s_upper(n: int) -> float:
    # margin is defined only for s < n/2; for n = 1 that caps the scan at 1/2.
    return min(_S_HI, n / 2.0 - 1e-9)


def critical_s(n: int) -> float | None:
    """Root of margin(n, .) in s, or None if the margin has constant sign.

    A 200-sample scan brackets the sign change, then bisection narrows the
    bracket to ``ROOT_TOL`` (1e-8) and returns its midpoint.  The margin is
    smooth and crosses zero at most once on the admissible interval (verified
    by the scan).
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    hi = _s_upper(n)
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
    while hi - lo > ROOT_TOL:
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


def threshold_table(n_max: int) -> list[ThresholdRow]:
    """One row per dimension n in [1, n_max], critical s from ``critical_s``.

    ``all_s_bounded`` is True when every s in (0, 1) yields a bounded
    extremal solution: the margin is positive on the whole admissible
    interval s < min(1, n/2), and for n = 1 the s >= 1/2 above it are
    subcritical (n <= 2s).  Dimensions past ProblemParams' bound (10^6) are
    refused before any row is computed.
    """
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 1:
        raise ValueError(f"n_max must be a positive integer, got {n_max!r}")
    ProblemParams(n_max, 1.0)   # DomainError past the dimension bound
    rows = []
    for n in range(1, n_max + 1):
        root = critical_s(n)
        # A constant-sign margin is bounded for all s iff it is positive
        # (sampled mid-interval).
        all_bounded = root is None and _margin_ns(n, 0.5 * (_S_LO + _s_upper(n))) > 0.0
        rows.append(ThresholdRow(n=n, critical_s=root, all_s_bounded=all_bounded))
    return rows
