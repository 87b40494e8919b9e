import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import hyp2f1, roots_jacobi

from fracgelfand import ProblemParams, sphere_area
from fracgelfand.fraclap import _chebyshev, _gauss_jacobi, _kernel, _phi, _PhiTable


def test_sphere_area_against_mpmath():
    worst = 0.0
    with mpmath.workdps(40):
        for n in range(1, 61):
            half = mpmath.mpf(n) / 2
            exact = 2 * mpmath.pi**half / mpmath.gamma(half)
            worst = max(worst, float(abs(sphere_area(n) - exact) / exact))
    assert worst <= 2e-15
    # Past Gamma's overflow the log form takes over and stays finite.
    assert 0.0 < sphere_area(400) < sphere_area(340)


def angular_kernel(p, r, rho):
    """The angular reduction k(r, rho) of the Riesz kernel, r != rho, from the
    library's K = rho^{n-1} k taken at the larger radius."""
    big, small = max(r, rho), min(r, rho)
    return float(_kernel(p, small, np.array([big]), big - small)[0]) * big ** (1 - p.n)


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


def gathered_phi(table, z):
    """Reference evaluator of a Phi table: every entry gathers its piece's coefficients."""
    return gathered_phi_at_gap(table, 1.0 - np.asarray(z, dtype=float))


def gathered_phi_at_gap(table, w):
    """``gathered_phi`` at z = 1 - w, each w mapped onto its piece by ldexp."""
    w = np.asarray(w, dtype=float)
    k = np.maximum(-np.frexp(np.maximum(w, 2.0**-54))[1], 0).astype(np.intp)
    x = np.ldexp(w, k + 2) - 3.0
    out = table._coef[-1].take(k)
    for cj in table._coef[-2::-1]:
        out *= x
        out += cj.take(k)
    return out


def _phi_inputs():
    # Every piece of the table: uniform z, then w = 1 - z in each octave
    # [2^-k, 2^(1-k)), k = 1..55, and the piece edges z = 0, w = 1/2,
    # w = 2^-53 and z = 1.
    rng = np.random.default_rng(3)
    w = np.ldexp(1.0 + rng.random(600), -rng.integers(1, 56, 600))
    flat = np.concatenate([rng.random(600), 1.0 - w, [0.0, 0.5, 1.0 - 2.0**-53, 1.0]])
    rng.shuffle(flat)
    return [
        np.array(0.0), np.array(0.5), np.array(1.0 - 2.0**-53), np.array(1.0), np.array(0.3),
        flat,
        flat[:1200].reshape(2, 3, 10, 20),
        flat[:1200].reshape(30, 40).T,
        flat[::7],
    ]


@settings(max_examples=25, deadline=None)
@example(1, 0.3)
@example(64, 0.5)
@given(st.integers(min_value=1, max_value=64), _ORDERS)
def test_phi_table_matches_gathered_reference(n, s):
    # The table's one Horner pass, with its piece index clamped at 0 for
    # z = 0 (w = 1, binary exponent 1) and at the last piece for z = 1, gives
    # the reference's values bit for bit, in the input's shape.
    for b in (0.5 * n - s - 1.0, 0.5 * n - s):
        table = _PhiTable(-s, b, 0.5 * n)
        for z in _phi_inputs():
            got, want = table(z), gathered_phi(table, z)
            assert np.shape(got) == np.shape(z)
            assert np.array_equal(got, want)


_GAP_EDGES = [0.0, 5e-324, 1e-310, 2.0**-60, 2.0**-54, 2.0**-53, np.nextafter(0.5, 0.0), 0.5,
              0.75, np.nextafter(1.0, 0.0), 1.0]
# Gaps 1 - z in [0, 1]: uniform, and spread over every binary exponent.
_GAPS = st.one_of(st.floats(min_value=0.0, max_value=1.0),
                  st.builds(math.ldexp, st.floats(min_value=0.5, max_value=1.0),
                            st.integers(min_value=-1074, max_value=0)))


@settings(max_examples=25, deadline=None)
@example(1, 0.3, [])
@example(7, 0.5, [])
@given(st.integers(min_value=1, max_value=64), _ORDERS, st.lists(_GAPS, max_size=40))
def test_at_gap_matches_the_ldexp_mapping(n, s, gaps):
    # at_gap maps w onto its piece as w * 2^(k+2) from a table of powers of
    # two; a product by a power of two does not round, so it gives the bits of
    # the ldexp mapping, at the piece edges and on subnormal w too, for
    # Phi's and Psi's b.
    w = np.array(_GAP_EDGES + gaps)
    for b in (0.5 * n - s - 1.0, 0.5 * n - s):
        table = _PhiTable(-s, b, 0.5 * n)
        assert np.array_equal(table.at_gap(w), gathered_phi_at_gap(table, w))


def per_piece_phi_coef(a, b, c):
    """Reference build of the Phi table's coefficients, one piece at a time:
    two Gauss series, and per piece a numpy polyval for the step to its
    centre and for its 17 nodes, the library's 17 first-kind Chebyshev
    points."""
    from numpy.polynomial.polynomial import polyval

    hi = np.ldexp(1.0, -np.arange(53))
    x, _ = _chebyshev(17)
    w = 0.75 * hi[:, None] + 0.25 * hi[:, None] * x
    k0 = max(1, math.ceil(math.log2(c / 8.0)))

    def gauss(z):
        term, value, deriv = np.ones_like(z), np.ones_like(z), np.zeros_like(z)
        for j in range(1 << (k0 + 5)):
            term = term * ((a + j) * (b + j) / ((c + j) * (j + 1))) * z
            value += term
            deriv += (j + 1) * term / z
        return value, deriv

    values = np.empty_like(w)
    values[:k0] = gauss(1.0 - w[:k0])[0]
    y, dy = gauss(np.array([1.0 - hi[k0]]))
    w0 = float(hi[k0])
    taylor = _PhiTable._taylor(a, b, c, w0, float(y[0]), -float(dy[0]))
    for k in range(k0, 53):
        tau = (0.75 * float(hi[k]) - w0) / w0
        y = polyval(tau, taylor)
        dy = polyval(tau, [j * taylor[j] for j in range(1, len(taylor))]) / w0
        w0 = 0.75 * float(hi[k])
        taylor = _PhiTable._taylor(a, b, c, w0, y, dy)
        values[k] = polyval((w[k] - w0) / w0, taylor)
    t_mono = np.zeros((17, 17))
    t_mono[0, 0] = t_mono[1, 1] = 1.0
    for j in range(1, 16):
        t_mono[j + 1, 1:] = 2.0 * t_mono[j, :-1]
        t_mono[j + 1] -= t_mono[j - 1]
    theta = (np.arange(17) + 0.5) * (np.pi / 17)
    mono = np.zeros((54, 17))
    mono[:-1] = np.linalg.solve(np.cos(theta[:, None] * np.arange(17)), values.T).T @ t_mono
    mono[-1, 0] = polyval(-1.0, taylor)
    return np.ascontiguousarray(mono.T)


@settings(max_examples=20, deadline=None)
@example(1, 0.3)
@example(64, 0.5)
@example(200, 0.5)
@given(st.integers(min_value=1, max_value=64), _ORDERS)
def test_phi_table_matches_the_per_piece_build(n, s):
    # The re-expansion chain in plain floats and one Horner over every
    # piece's nodes give the per-piece build's coefficients bit for bit, for
    # Phi's and Psi's b.  n > 16 sums the Gauss series over two or more
    # pieces (k0 >= 2), and n = 200 over four.
    for b in (0.5 * n - s - 1.0, 0.5 * n - s):
        assert np.array_equal(_PhiTable(-s, b, 0.5 * n)._coef, per_piece_phi_coef(-s, b, 0.5 * n))


_JACOBI_BETAS = np.linspace(-0.98, 1.98, 38)


@pytest.mark.parametrize(
    "orders, betas, node_tol, weight_tol",
    [
        pytest.param([10], _JACOBI_BETAS, 1e-15, 1e-13, id="10"),
        pytest.param([12], _JACOBI_BETAS, 1e-15, 1e-13, id="12"),
        # beta = 0 is Gauss-Legendre: the panel rules' orders and the Jacobi rules'.
        pytest.param([5, 6, 8, 10, 12], [0.0], 2e-16, 2e-15, id="legendre"),
    ],
)
def test_gauss_jacobi_rule(orders, betas, node_tol, weight_tol):
    # The Gauss-Jacobi rules assembly uses, weight (1 + x)^beta, beta = 1 - 2s
    # or 2 - 2s, and the Gauss-Legendre rules.  Weights are gated against
    # 30-digit rules rather than scipy: near beta = -1 scipy's own weights are
    # off by 2.7e-12 relative.
    for q in orders:
        for beta in betas:
            x, w = _gauss_jacobi(q, beta)
            assert np.max(np.abs(x - roots_jacobi(q, 0.0, beta)[0])) <= 1e-15
            with mpmath.workdps(30):
                if beta == 0.0:
                    xm, wm = mpmath.gauss_quadrature(q, "legendre")
                else:
                    xm, wm = mpmath.gauss_quadrature(q, "jacobi", 0, mpmath.mpf(beta))
            assert np.max(np.abs(x - np.array(xm.tolist(), dtype=float).ravel())) <= node_tol
            wm = np.array(wm.tolist(), dtype=float).ravel()
            assert np.max(np.abs(w / wm - 1.0)) <= weight_tol


def test_gauss_jacobi_rule_is_computed_once():
    # Each rule is an eigensolve; the energy form asks for the same two on
    # every call, so they are cached per (q, beta) and handed out read-only.
    x, w = _gauss_jacobi(12, 0.4)
    again = _gauss_jacobi(12, 0.4)
    assert again[0] is x and again[1] is w
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0
