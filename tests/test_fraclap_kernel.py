import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import hyp2f1

from fracgelfand import DomainError, ProblemParams, angular_kernel, sphere_area
from fracgelfand.fraclap import _phi


def two_point_1d(s, r, rho):
    return abs(r - rho) ** -(1.0 + 2.0 * s) + (r + rho) ** -(1.0 + 2.0 * s)


def elementary_3d(s, r, rho):
    e = 1.0 + 2.0 * s
    return (2.0 * math.pi / (e * r * rho)) * (abs(r - rho) ** -e - (r + rho) ** -e)


def brute_force(n, s, r, rho):
    # Riesz kernel integrated over the unit sphere's polar angle.
    def integrand(theta):
        d2 = r * r + rho * rho - 2.0 * r * rho * math.cos(theta)
        return d2 ** (-(n + 2.0 * s) / 2.0) * math.sin(theta) ** (n - 2)

    val, err = quad(integrand, 0.0, math.pi, limit=400, epsabs=0.0, epsrel=1e-11)
    assert err < 1e-8 * abs(val)
    return sphere_area(n - 1) * val


def test_one_dimensional_reflection_form():
    for s in (0.1, 0.5, 0.9):
        p = ProblemParams(1, s)
        for r, rho in ((0.2, 0.7), (0.9, 0.3), (0.05, 1.5)):
            assert angular_kernel(p, r, rho) == pytest.approx(two_point_1d(s, r, rho), rel=1e-12)


def test_three_dimensional_closed_form():
    for s in (0.3, 0.5, 0.9):
        p = ProblemParams(3, s)
        for r, rho in ((0.3, 0.7), (0.1, 0.9), (0.6, 0.61)):
            assert angular_kernel(p, r, rho) == pytest.approx(elementary_3d(s, r, rho), rel=1e-11)


def test_spot_value():
    # (2 pi / (2 * 0.21)) * (0.4^-2 - 1) = 25 pi at n=3, s=1/2, r=0.3, rho=0.7.
    assert angular_kernel(ProblemParams(3, 0.5), 0.3, 0.7) == pytest.approx(25.0 * math.pi, rel=1e-12)


def test_origin_limit():
    for n, s in ((1, 0.5), (3, 0.3), (7, 0.8)):
        p = ProblemParams(n, s)
        for rho in (0.25, 1.0, 3.0):
            expected = sphere_area(n) * rho ** -(n + 2.0 * s)
            assert angular_kernel(p, 0.0, rho) == pytest.approx(expected, rel=1e-12)


def test_against_polar_quadrature():
    for n in (2, 4, 7, 12):
        for s in (0.3, 0.75):
            p = ProblemParams(n, s)
            for r, rho in ((0.3, 0.8), (0.5, 0.6), (1.2, 0.4)):
                expected = brute_force(n, s, r, rho)
                assert angular_kernel(p, r, rho) == pytest.approx(expected, rel=1e-8)


@settings(max_examples=60)
@given(
    st.sampled_from([(1, 0.5), (2, 0.3), (3, 0.5), (9, 0.7)]),
    st.floats(min_value=0.05, max_value=2.0),
    st.floats(min_value=0.05, max_value=2.0),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_symmetry_and_scaling(pair, r, rho, t):
    n, s = pair
    if abs(r - rho) < 1e-3:
        return
    p = ProblemParams(n, s)
    k = angular_kernel(p, r, rho)
    assert angular_kernel(p, rho, r) == pytest.approx(k, rel=1e-12)
    assert angular_kernel(p, t * r, t * rho) == pytest.approx(t ** -(n + 2.0 * s) * k, rel=1e-11)
    assert k > 0.0


def test_diagonal_and_domain_rejected():
    p = ProblemParams(3, 0.5)
    with pytest.raises(DomainError):
        angular_kernel(p, 0.5, 0.5)
    with pytest.raises(DomainError):
        angular_kernel(p, 0.5, 0.0)
    with pytest.raises(DomainError):
        angular_kernel(p, -0.1, 0.5)


_ORDERS = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
_ARGS = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1e-16, max_value=1e-2).map(lambda w: 1.0 - w),
)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=16), _ORDERS, st.lists(_ARGS, min_size=1, max_size=24))
def test_phi_evaluator_against_mpmath(n, s, zs):
    # The kernel's Phi on all of [0, 1], and the exterior mass's
    # Psi = 2F1(-s, n/2-s; n/2; z) below z = 1, where the mass is finite.
    for b, args in ((0.5 * n - s - 1.0, zs), (0.5 * n - s, [x for x in zs if x < 1.0])):
        if not args:
            continue
        got = _phi(-s, b, 0.5 * n)(np.array(args))
        with mpmath.workdps(30):
            want = [mpmath.hyp2f1(-s, b, 0.5 * n, mpmath.mpf(x)) for x in args]
        rel = [abs((mpmath.mpf(g) - w) / w) for g, w in zip(got, want)]
        assert max(rel) <= 2e-13


def test_phi_polynomial_cases_are_hyp2f1():
    z = np.concatenate([np.linspace(0.0, 1.0, 1001), 1.0 - np.logspace(-16, -2, 200)])
    for n, s in ((1, 0.5), (3, 0.5)):
        a, b, c = -s, 0.5 * n - s - 1.0, 0.5 * n
        assert np.array_equal(_phi(a, b, c)(z), hyp2f1(a, b, c, z))
    # Psi = 2F1(-s, n/2-s; n/2; z) is a polynomial only at (1, 0.5), where it is 1.
    assert np.array_equal(_phi(-0.5, 0.0, 0.5)(z), np.ones_like(z))
