import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracgelfand import log_gamma

# mpmath.loggamma at 40 digits, rounded to double precision.
MPMATH_VALUES = {
    0.5: 0.5723649429247000870717,
    0.001: 6.907178885383853682512,
    1.5: -0.1207822376352452223455,
    7.25: 7.052185450738539444926,
    37.2: 96.43971016156839032402,
    150.75: 603.7668223739874758781,
    200.0: 857.9336698258574368183,
}


def test_frozen_values():
    for x, expected in MPMATH_VALUES.items():
        assert log_gamma(x) == pytest.approx(expected, rel=1e-14)


def test_integer_factorials():
    # Gamma(k) = (k-1)!
    for k in range(1, 20):
        assert log_gamma(k) == pytest.approx(math.log(math.factorial(k - 1)), rel=1e-14, abs=1e-14)


def test_against_mpmath_sweep():
    mpmath.mp.dps = 30
    x = 1e-3
    while x <= 200.0:
        expected = float(mpmath.loggamma(x))
        assert log_gamma(x) == pytest.approx(expected, rel=1e-13, abs=1e-13)
        x *= 1.9
    assert log_gamma(200.0) == pytest.approx(float(mpmath.loggamma(200)), rel=1e-13)


@given(st.floats(min_value=0.01, max_value=95.0))
def test_recurrence(x):
    # Gamma(x+1) = x Gamma(x)
    assert log_gamma(x + 1.0) == pytest.approx(log_gamma(x) + math.log(x), rel=1e-12, abs=1e-12)


@given(st.floats(min_value=0.05, max_value=0.95))
def test_reflection(x):
    # Gamma(x) Gamma(1-x) = pi / sin(pi x)
    lhs = log_gamma(x) + log_gamma(1.0 - x)
    rhs = math.log(math.pi / math.sin(math.pi * x))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(max_examples=50)
@given(st.floats(min_value=0.01, max_value=80.0))
def test_duplication(x):
    # Legendre: Gamma(2x) = Gamma(x) Gamma(x+1/2) 2^{2x-1} / sqrt(pi)
    lhs = log_gamma(2.0 * x)
    rhs = log_gamma(x) + log_gamma(x + 0.5) + (2.0 * x - 1.0) * math.log(2.0) - 0.5 * math.log(math.pi)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-11)


def test_domain_errors():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            log_gamma(bad)
