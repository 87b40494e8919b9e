import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from fracgelfand import (
    DomainError,
    ProblemParams,
    RadialFunction,
    RadialGrid,
    TailKind,
    TailSpec,
    assemble,
    lambda0,
    operator_normalization,
    power_coefficient,
    quadratic_form,
)
from fracgelfand.fraclap import _exterior_blocks, _exterior_mass


def window(grid, lo=0.2, hi=0.8):
    r = grid.interior
    return (r >= lo) & (r <= hi)


def rel_err_on_window(op, fn, tail, exact, singular=True):
    u = RadialFunction.from_callable(op.grid, fn, tail=tail, singular_at_origin=singular)
    got = op.apply_interior(u.interior, tail)
    mask = window(op.grid)
    want = np.array([exact(r) for r in op.grid.interior[mask]])
    return float(np.max(np.abs(got[mask] - want) / np.abs(want)))


# ---------------------------------------------------------------- validation


def test_grid_validation():
    with pytest.raises(DomainError):
        RadialGrid(nodes=np.linspace(0.0, 1.0, 10))
    with pytest.raises(DomainError):
        RadialGrid(nodes=np.linspace(0.1, 1.0, 33))
    with pytest.raises(DomainError):
        RadialGrid(nodes=np.linspace(0.0, 0.9, 33))
    bad = np.linspace(0.0, 1.0, 33)
    bad[5] = bad[7]
    with pytest.raises(DomainError):
        RadialGrid(nodes=bad)
    with pytest.raises(DomainError):
        RadialGrid.graded(32, grading=0.5)
    with pytest.raises(DomainError, match="grading"):
        RadialGrid.graded(32, grading=math.nan)
    with pytest.raises(DomainError):
        RadialGrid.graded(15)


def test_oversized_grid_refused_before_allocation():
    # 20000 panels would need ~3.2 GB per dense interior matrix.
    with pytest.raises(DomainError, match="budget"):
        RadialGrid.graded(20000)


def test_graded_grid_shape():
    grid = RadialGrid.graded(64, grading=2.0)
    assert grid.n_panels == 64
    assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 1.0
    # Quadratic grading: first panel ~ N^{-2}, symmetric clustering at r=1.
    assert grid.nodes[1] == pytest.approx(1.0 / 64**2, rel=0.05)
    assert 1.0 - grid.nodes[-2] == pytest.approx(grid.nodes[1], rel=1e-12)
    uniform = RadialGrid.graded(32, grading=1.0)
    assert np.allclose(np.diff(uniform.nodes), 1.0 / 32)


def test_tail_validation():
    with pytest.raises(DomainError):
        TailSpec.power(-0.5)
    with pytest.raises(DomainError):
        TailSpec.power(1.0, math.inf)
    spec = TailSpec.power(1.5, 2.0)
    assert spec.boundary_value(0.5) == 2.0
    assert TailSpec.zero().boundary_value(0.5) == 0.0
    assert TailSpec.log_power().boundary_value(0.5) == 0.0
    rho = np.array([1.0, 2.0, 4.0])
    assert np.allclose(spec.values(rho, 0.5), 2.0 * rho**-1.5)
    assert np.allclose(TailSpec.log_power(3.0).values(rho, 0.25), -1.5 * np.log(rho))


def test_radial_function_validation():
    grid = RadialGrid.graded(32)
    with pytest.raises(DomainError):
        RadialFunction(grid=grid, values=np.zeros(5))
    bad = np.zeros_like(grid.nodes)
    bad[3] = np.nan
    with pytest.raises(DomainError):
        RadialFunction(grid=grid, values=bad)
    # Only the origin node may be non-finite, and only when flagged.
    sing = np.ones_like(grid.nodes)
    sing[0] = np.inf
    with pytest.raises(DomainError):
        RadialFunction(grid=grid, values=sing)
    fn = RadialFunction(grid=grid, values=sing, singular_at_origin=True)
    assert fn.interior.size == grid.nodes.size - 2


# ---------------------------------------------------------------- exactness


def test_constants_annihilate_exactly(operator_cache):
    for n, s in ((1, 0.5), (3, 0.5), (10, 0.9)):
        op = operator_cache(n, s, 32)
        for c in (1.0, -3.7):
            out = op.apply_interior(np.full(op.n_interior, c), TailSpec.power(0.0, c))
            assert np.max(np.abs(out)) == 0.0


def dyda_exterior_mass(n, s, r):
    """(-Delta)^s 1_B at radii r < 1 (Dyda's closed form at p = 0).

    It equals c_{n,s} times the zero-tail row mass."""
    with mpmath.workdps(30):
        coeff = (mpmath.mpf(4) ** s * mpmath.gamma(s + 0.5 * n)
                 / (mpmath.gamma(0.5 * n) * mpmath.gamma(1 - s)))
        return np.array([float(coeff * mpmath.hyp2f1(s + 0.5 * n, s, 0.5 * n, mpmath.mpf(x) ** 2))
                         for x in r])


_EXTERIOR_CASES = [(1, 0.3), (2, 0.7), (3, 0.5), (10, 0.9)]


@pytest.mark.parametrize("n, s", _EXTERIOR_CASES + [(1, 0.02), (3, 0.01)])
def test_exterior_mass_matches_closed_form(operator_cache, n, s):
    """Zero-tail row masses, at the collocation rows and at the points where
    the energy form samples its exterior density tau."""
    op = operator_cache(n, s, 256)
    r = op.grid.interior
    rel = np.abs(op.normalization * op.tail_mass / dyda_exterior_mass(n, s, r) - 1.0)
    assert rel.max() <= 1e-11
    nodes = op.grid.nodes
    xq, _ = leggauss(6)
    pts = (0.5 * (nodes[:-1] + nodes[1:])[:, None] + 0.5 * np.diff(nodes)[:, None] * xq).ravel()
    c = operator_normalization(ProblemParams(n, s))
    rel = np.abs(c * _exterior_mass(ProblemParams(n, s), pts) / dyda_exterior_mass(n, s, pts) - 1.0)
    assert rel.max() <= 1e-11


@pytest.mark.parametrize("n, s", _EXTERIOR_CASES)
def test_exterior_quadrature_matches_closed_form(n, s):
    """Row sums of the quadrature that nonzero exterior data are integrated with."""
    p = ProblemParams(n, s)
    r = RadialGrid.graded(256).interior
    mass = np.empty_like(r)
    for rows, _, wk in _exterior_blocks(p, r):
        mass[rows] = wk.sum(axis=1)
    rel = np.abs(operator_normalization(p) * mass / dyda_exterior_mass(n, s, r) - 1.0)
    assert rel.max() <= 1e-11


def test_matrix_row_sums_match_constant_response(operator_cache):
    op = operator_cache(3, 0.5, 32)
    lhs = op.matrix @ np.ones(op.n_interior)
    # A@1 is the response to 1 in the ball and 0 outside, which is the
    # difference-form action on u = 0 with the constant exterior datum -1.
    rhs = op.apply_interior(np.zeros(op.n_interior), TailSpec.power(0.0, -1.0))
    scale = np.abs(op.matrix).sum(axis=1)
    assert np.max(np.abs(lhs - rhs) / scale) < 1e-13


def test_linearity(operator_cache):
    op = operator_cache(2, 0.5, 32)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(op.n_interior)
    v = rng.standard_normal(op.n_interior)
    zero = TailSpec.zero()
    lhs = op.apply_interior(2.5 * u - 0.3 * v, zero)
    rhs = 2.5 * op.apply_interior(u, zero) - 0.3 * op.apply_interior(v, zero)
    scale = np.max(np.abs(lhs)) + 1.0
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


# ---------------------------------------------------------------- analytic maps


def test_power_map_accuracy_and_refinement(operator_cache):
    cases = ((3, 0.5, 1.0), (9, 0.7, 3.1), (10, 0.9, 2.0))
    for n, s, alpha in cases:
        p = ProblemParams(n, s)
        coeff = power_coefficient(p, alpha)
        errs = []
        for panels in (64, 128):
            op = operator_cache(n, s, panels)
            errs.append(
                rel_err_on_window(
                    op,
                    lambda r: r**-alpha,
                    TailSpec.power(alpha),
                    lambda r: coeff * r ** -(alpha + 2.0 * s),
                )
            )
        assert errs[0] < 3e-2
        assert errs[1] < errs[0]
        assert errs[1] < 5e-3


def test_solid_bump_map(operator_cache):
    # (1 - r^2)_+^s maps to the constant 2^{2s} G(n/2+s) G(1+s) / G(n/2);
    # for n = 2, s = 1/2 that constant is pi/2.
    op = operator_cache(2, 0.5, 128)
    err = rel_err_on_window(
        op,
        lambda r: (1.0 - r * r) ** 0.5,
        TailSpec.zero(),
        lambda r: 0.5 * math.pi,
        singular=False,
    )
    assert err < 2e-3


def test_log_power_map(operator_cache):
    # log r^{-2s} maps to lambda0 * r^{-2s} with the matching log tail.
    for n, s in ((3, 0.5), (10, 0.9)):
        op = operator_cache(n, s, 128)
        lam0 = lambda0(ProblemParams(n, s))
        err = rel_err_on_window(
            op,
            lambda r: -2.0 * s * math.log(r),
            TailSpec.log_power(),
            lambda r: lam0 * r ** (-2.0 * s),
        )
        assert err < 5e-3


def test_apply_wraps_interior(operator_cache):
    op = operator_cache(2, 0.5, 32)
    u = RadialFunction.from_callable(op.grid, lambda r: (1.0 - r * r) ** 0.5)
    out = op.apply(u)
    assert isinstance(out, RadialFunction)
    assert np.allclose(out.values[1:-1], op.apply_interior(u.interior, u.tail))
    assert math.isfinite(out.values[0]) and math.isfinite(out.values[-1])
    sing = RadialFunction.from_callable(
        op.grid, lambda r: r**-0.3, tail=TailSpec.power(0.3), singular_at_origin=True
    )
    assert op.apply(sing).values[0] == np.inf
    mismatched = RadialFunction.from_callable(RadialGrid.graded(48), lambda r: r)
    with pytest.raises(DomainError):
        op.apply(mismatched)


# ---------------------------------------------------------------- energy form


def test_quadratic_form_symmetry_and_psd(operator_cache):
    op = operator_cache(3, 0.5, 48)
    smat = op.stability_form
    assert np.array_equal(smat, smat.T)
    rng = np.random.default_rng(11)
    scale = np.abs(smat).max()
    for _ in range(50):
        eta = rng.standard_normal(op.n_interior)
        energy = eta @ smat @ eta
        assert energy >= -1e-10 * scale * float(eta @ eta)
    eigs = np.linalg.eigvalsh(smat)
    assert eigs.min() >= -1e-10 * scale


def test_quadratic_form_pairing(operator_cache):
    op = operator_cache(3, 0.5, 48)
    eta = RadialFunction.from_callable(op.grid, lambda r: (1.0 - r * r))
    zeta = RadialFunction.from_callable(op.grid, lambda r: r * (1.0 - r))
    q = quadratic_form(op, eta, zeta)
    assert q == pytest.approx(quadratic_form(op, zeta, eta), rel=1e-12)
    assert quadratic_form(op, eta, eta) > 0.0
    with pytest.raises(DomainError):
        quadratic_form(op, RadialFunction.from_callable(op.grid, lambda r: r, tail=TailSpec.power(1.0)), eta)
    other = RadialFunction.from_callable(RadialGrid.graded(32), lambda r: r)
    with pytest.raises(DomainError):
        quadratic_form(op, other, other)


def test_interval_ground_state_eigenvalue(operator_cache):
    # Dual route: generalized eigenpair of the energy form against hat masses
    # reproduces the half-Laplacian ground state on (-1, 1), mu_1 = 1.157774.
    from scipy.linalg import eigh

    op = operator_cache(1, 0.5, 192)
    smat = op.stability_form
    nodes = op.grid.nodes
    n_nodes = nodes.size
    mass = np.zeros((n_nodes, n_nodes))
    for i in range(n_nodes - 1):
        h = nodes[i + 1] - nodes[i]
        mass[i, i] += h / 3.0
        mass[i + 1, i + 1] += h / 3.0
        mass[i, i + 1] += h / 6.0
        mass[i + 1, i] += h / 6.0
    # Fold the origin row onto its even-extension representation.
    from fracgelfand.fraclap import origin_fold_weights

    e1, e2 = origin_fold_weights(op.grid)
    mass[1, :] += e1 * mass[0, :]
    mass[2, :] += e2 * mass[0, :]
    mass[:, 1] += e1 * mass[:, 0]
    mass[:, 2] += e2 * mass[:, 0]
    mass = 2.0 * mass[1:-1, 1:-1]  # |S^0| = 2: the radial measure counts both half-lines
    mu = eigh(smat, mass, eigvals_only=True, subset_by_index=(0, 0))[0]
    assert mu == pytest.approx(1.157774, abs=5e-4)


def test_assembly_rejects_classical_limit():
    with pytest.raises(DomainError):
        assemble(ProblemParams(2, 1.0), RadialGrid.graded(32))


def test_tail_kind_enum_round_trip():
    for kind in TailKind:
        assert TailKind(kind.value) is kind
