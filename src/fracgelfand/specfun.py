"""Log-space Gamma evaluation.

Every constant in this library is a product of Gamma-function values whose
factors overflow double precision near argument 170 even though the ratios
stay moderate.  All downstream formulas therefore compose ``log_gamma``
values and exponentiate once at the end, which keeps dimensions up to a few
hundred representable.
"""

from __future__ import annotations

import math

__all__ = ["log_gamma"]


def log_gamma(x: float) -> float:
    """Return ln Gamma(x) for x > 0.

    ``math.lgamma``: within 1.4e-15 max(1, |ln Gamma(x)|) of 30-digit values
    on [1e-6, 200].  Non-positive or non-finite arguments raise
    ``ValueError``.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"log_gamma requires finite x > 0, got {x!r}")
    return math.lgamma(x)

