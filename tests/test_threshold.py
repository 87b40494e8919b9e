import math

import mpmath
import pytest

from fracgelfand import (
    DomainError,
    ProblemParams,
    Regime,
    RegimeError,
    classify,
    critical_s,
    hardy_constant,
    lambda0,
    margin,
    threshold_table,
)
from fracgelfand.threshold import ROOT_TOL

# Independent mpmath bisection of ln(lambda0/H) = 0, frozen at 1e-12.
CRITICAL_S_8 = 0.282066718154768
CRITICAL_S_9 = 0.632376106083033


def test_critical_roots():
    # Bisection stops at a bracket of width ROOT_TOL and returns its midpoint.
    assert abs(critical_s(8) - CRITICAL_S_8) <= ROOT_TOL
    assert abs(critical_s(9) - CRITICAL_S_9) <= ROOT_TOL


def test_roots_are_sign_changes():
    # Boundedness kicks in above the critical s for n = 8 and 9.
    for n, root in ((8, critical_s(8)), (9, critical_s(9))):
        assert margin(ProblemParams(n, root - 1e-4)) < 0.0
        assert margin(ProblemParams(n, root + 1e-4)) > 0.0


def test_low_dimensions_have_no_root():
    for n in range(1, 8):
        assert critical_s(n) is None


def test_high_dimensions_have_no_root():
    for n in (10, 11, 12, 20):
        assert critical_s(n) is None
        for s in (0.05, 0.5, 0.95):
            assert margin(ProblemParams(n, s)) < 0.0


def test_dimension_bound():
    # Up to n = 10^6 the margin keeps its sign down to the scan's lowest s,
    # and lambda0 and H keep their digits up to the lgamma differences'
    # rounding (one ulp of lgamma(n/2) ~ 6.2e6 is 9.3e-10; gated at four).
    # Past it that rounding sets the margin to zero near s = 0, where the
    # scan would report a bogus root, so the dimension is refused, by the
    # table before its loop.
    for n in (10, 10**3, 10**6):
        assert critical_s(n) is None
    big = mpmath.mpf(10**6)
    with mpmath.workdps(40):
        for s in (1e-6, 0.3, 0.5, 0.9, 1.0):
            p, sm = ProblemParams(10**6, s), mpmath.mpf(s)
            lam = 4**sm * mpmath.gamma(big / 2) * mpmath.gamma(1 + sm) / mpmath.gamma((big - 2 * sm) / 2)
            har = 4**sm * (mpmath.gamma((big + 2 * sm) / 4) / mpmath.gamma((big - 2 * sm) / 4)) ** 2
            assert lambda0(p) == pytest.approx(float(lam), rel=4e-9)
            assert hardy_constant(p) == pytest.approx(float(har), rel=4e-9)
    with pytest.raises(DomainError, match=r"\[1, 10\^6\]"):
        ProblemParams(10**6 + 1, 0.5)
    for n in (10**6 + 1, 10**11):
        with pytest.raises(DomainError):
            critical_s(n)
    with pytest.raises(DomainError):
        threshold_table(10**6 + 1)


def test_dimension_ten_classical_endpoint():
    # n = 10, s = 1 is the classical borderline: lambda0 = H exactly.
    p = ProblemParams(10, 1.0)
    assert abs(margin(p)) <= 1e-12
    assert lambda0(p) == pytest.approx(hardy_constant(p), rel=1e-12)


def test_margin_matches_direct_gamma_ratio():
    # Same inequality via math.gamma directly, viable for moderate n.
    for n in range(1, 31):
        for s in (0.1, 0.45, 0.8):
            if n <= 2.0 * s:
                continue
            lam = 4.0**s * math.gamma(n / 2.0) * math.gamma(1.0 + s) / math.gamma((n - 2.0 * s) / 2.0)
            har = 4.0**s * (math.gamma((n + 2.0 * s) / 4.0) / math.gamma((n - 2.0 * s) / 4.0)) ** 2
            direct = math.log(lam) - math.log(har)
            assert margin(ProblemParams(n, s)) == pytest.approx(direct, rel=1e-10, abs=1e-11)


def test_classify_regimes():
    assert classify(ProblemParams(1, 0.7)).regime is Regime.BOUNDED_SUBCRITICAL
    assert classify(ProblemParams(1, 0.7)).margin is None
    assert classify(ProblemParams(3, 0.5)).regime is Regime.BOUNDED_BY_INEQUALITY
    assert classify(ProblemParams(3, 0.5)).margin > 0.0
    assert classify(ProblemParams(10, 0.5)).regime is Regime.INCONCLUSIVE
    assert classify(ProblemParams(10, 0.5)).margin < 0.0
    assert classify(ProblemParams(8, 0.2)).regime is Regime.INCONCLUSIVE
    assert classify(ProblemParams(8, 0.4)).regime is Regime.BOUNDED_BY_INEQUALITY


def test_margin_requires_supercritical():
    with pytest.raises(RegimeError):
        margin(ProblemParams(1, 0.5))


def test_table_shape_and_verdicts():
    rows = threshold_table(12)
    assert [row.n for row in rows] == list(range(1, 13))
    for row in rows:
        if row.n <= 7:
            assert row.critical_s is None
            assert row.all_s_bounded
        elif row.n <= 9:
            assert row.critical_s is not None
            assert not row.all_s_bounded
        else:
            assert row.critical_s is None
            assert not row.all_s_bounded
    assert rows[7].critical_s == pytest.approx(CRITICAL_S_8, abs=1e-6)
    assert rows[8].critical_s == pytest.approx(CRITICAL_S_9, abs=1e-6)


def test_input_validation():
    with pytest.raises(ValueError):
        critical_s(0)
    with pytest.raises(ValueError):
        critical_s(True)
    with pytest.raises(ValueError):
        threshold_table(0)
