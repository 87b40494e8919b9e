import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracgelfand import (
    DomainError,
    ProblemParams,
    RegimeError,
    epsilon_expansion,
    hardy_constant,
    lambda0,
    operator_normalization,
    power_coefficient,
)

# mpmath at 40 digits, rounded to double precision.
LAMBDA0_ORACLE = {
    (1, 0.3): 0.5251951450082622947257,
    (2, 0.5): 1.0,
    (3, 0.5): 1.570796326794896619231,
    (9, 0.7): 5.94180356078645045663,
    (10, 0.9): 11.79832160709078907878,
    (12, 0.5): 4.063492063492063492063,
}
HARDY_ORACLE = {
    (1, 0.3): 0.08239905095010294723955,
    (2, 0.5): 0.2284732905222318126875,
    (3, 0.5): 0.6366197723675813430755,
    (9, 0.7): 5.831057257715826574496,
    (10, 0.9): 12.16788968016431136934,
    (12, 0.5): 5.024478708428135140186,
}
COEFF_ORACLE = {
    (3, 0.5, 1.0): 0.6366197723675813430755,
    (9, 0.7, 3.1): 5.672994284512480991597,
    (10, 0.9, 2.0): 9.143699245495360921563,
}

PAIRS = st.sampled_from([(1, 0.3), (2, 0.5), (3, 0.5), (5, 0.1), (9, 0.7), (10, 0.9), (15, 0.5)])


def test_lambda0_oracle():
    for (n, s), expected in LAMBDA0_ORACLE.items():
        assert lambda0(ProblemParams(n, s)) == pytest.approx(expected, rel=1e-13)


def test_lambda0_exact_half_integer():
    # 2 Gamma(1) Gamma(3/2) / Gamma(1/2) = 1 exactly.
    assert lambda0(ProblemParams(2, 0.5)) == pytest.approx(1.0, rel=1e-14)


def test_hardy_oracle():
    for (n, s), expected in HARDY_ORACLE.items():
        assert hardy_constant(ProblemParams(n, s)) == pytest.approx(expected, rel=1e-13)


def test_power_coefficient_oracle():
    for (n, s, alpha), expected in COEFF_ORACLE.items():
        assert power_coefficient(ProblemParams(n, s), alpha) == pytest.approx(expected, rel=1e-13)


def test_normalization_elementary_value():
    # n=3, s=1/2: 2 * (1/2) * Gamma(2) / (pi^{3/2} Gamma(1/2)) = 1/pi^2.
    p = ProblemParams(3, 0.5)
    assert operator_normalization(p) == pytest.approx(1.0 / math.pi**2, rel=1e-14)
    assert operator_normalization(p) == pytest.approx(0.1013211836423377714439, rel=1e-13)
    assert operator_normalization(ProblemParams(12, 0.5)) == pytest.approx(
        0.168944976795474759654, rel=1e-13
    )


@given(PAIRS)
def test_midpoint_equals_hardy(pair):
    n, s = pair
    p = ProblemParams(n, s)
    mid = (n - 2.0 * s) / 2.0
    assert power_coefficient(p, mid) == pytest.approx(hardy_constant(p), rel=1e-12)


@given(PAIRS, st.floats(min_value=0.02, max_value=0.98))
def test_power_coefficient_symmetry(pair, t):
    n, s = pair
    p = ProblemParams(n, s)
    alpha = t * (n - 2.0 * s)
    left = power_coefficient(p, alpha)
    right = power_coefficient(p, (n - 2.0 * s) - alpha)
    assert left == pytest.approx(right, rel=1e-10)


@given(PAIRS, st.floats(min_value=0.02, max_value=0.48))
def test_midpoint_is_maximum(pair, t):
    n, s = pair
    p = ProblemParams(n, s)
    alpha = t * (n - 2.0 * s)
    assert power_coefficient(p, alpha) < hardy_constant(p) * (1.0 + 1e-12)


def test_large_dimension_no_overflow():
    p = ProblemParams(200, 0.5)
    for value in (lambda0(p), hardy_constant(p), operator_normalization(p)):
        assert math.isfinite(value) and value > 0.0
    a, b = epsilon_expansion(p, 1e-3)
    assert math.isfinite(a) and math.isfinite(b)


def test_normalization_overflow_is_typed():
    # c_{n,s} passes the largest double between n = 437 and 438 at s = 0.5.
    for n in (300, 437):
        assert math.isfinite(operator_normalization(ProblemParams(n, 0.5)))
    for n in (438, 600, 1300):
        with pytest.raises(DomainError, match="n > 437 at s = 0.5"):
            operator_normalization(ProblemParams(n, 0.5))


def test_params_validation():
    with pytest.raises(DomainError):
        ProblemParams(0, 0.5)
    with pytest.raises(DomainError):
        ProblemParams(True, 0.5)
    with pytest.raises(DomainError):
        ProblemParams(2.0, 0.5)
    with pytest.raises(DomainError):
        ProblemParams(3, 0.0)
    with pytest.raises(DomainError):
        ProblemParams(3, 1.5)
    with pytest.raises(DomainError):
        ProblemParams(3, math.nan)
    # s = 1 is the admitted classical limit.
    assert ProblemParams(3, 1).s == 1.0


def test_classical_limit_rejected_by_normalization():
    with pytest.raises(DomainError):
        operator_normalization(ProblemParams(3, 1.0))


def test_regime_errors():
    # n = 2s and n < 2s are outside the singular regime.
    for p in (ProblemParams(1, 0.5), ProblemParams(1, 0.7), ProblemParams(2, 1.0)):
        with pytest.raises(RegimeError):
            lambda0(p)
        with pytest.raises(RegimeError):
            hardy_constant(p)


def test_power_coefficient_domain():
    p = ProblemParams(3, 0.5)
    for alpha in (0.0, -0.5, 2.0, 2.5, math.nan):
        with pytest.raises(DomainError):
            power_coefficient(p, alpha)


def test_epsilon_expansion_domain():
    p = ProblemParams(3, 0.5)
    for eps in (0.0, -0.1, 1.0, math.inf):
        with pytest.raises(DomainError):
            epsilon_expansion(p, eps)


def test_epsilon_expansion_limits():
    for n, s in ((3, 0.5), (10, 0.9)):
        p = ProblemParams(n, s)
        a, b = epsilon_expansion(p, 1e-6)
        assert a == pytest.approx(hardy_constant(p), rel=1e-9)
        assert b == pytest.approx(lambda0(p), rel=1e-4)


def test_epsilon_expansion_orders():
    # Halving eps divides the A error by ~4 (even symmetry) and the B error by ~2.
    for n, s in ((3, 0.5), (9, 0.7)):
        p = ProblemParams(n, s)
        h, lam0 = hardy_constant(p), lambda0(p)
        a1, b1 = epsilon_expansion(p, 0.2)
        a2, b2 = epsilon_expansion(p, 0.1)
        ratio_a = abs(a1 - h) / abs(a2 - h)
        ratio_b = abs(b1 - lam0) / abs(b2 - lam0)
        assert 3.3 < ratio_a < 4.7
        assert 1.7 < ratio_b < 2.4
