import dataclasses
import json
import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigvalsh

from fracgelfand import (
    BranchTraceError,
    ContinuationConfig,
    DomainError,
    EigenSolveError,
    InfeasibleError,
    NoConvergenceError,
    ProblemParams,
    RadialGrid,
    assemble,
    hardy_constant,
    proof_test_function,
    quadratic_form,
    singular_profile_diagnostic,
    singular_solution_residual,
    solve_at_peak,
    sphere_area,
    stability_eigenvalue,
    stability_inequality_check,
    torsion_center_value,
    trace_branch,
)
from fracgelfand import fraclap
from fracgelfand.fraclap import origin_fold_weights
from fracgelfand.gelfand import (
    _MAX_NEWTON_ITERS,
    _MAX_PEAK_POINTS,
    _newton_solve,
    _weighted_mass,
)

# mpmath at 40 digits, rounded to double precision.
TORSION_ORACLE = {
    (1, 0.3): 1.119174954070122266774,
    (2, 0.5): 0.6366197723675813430755,
    (3, 0.5): 0.5,
    (9, 0.7): 0.1488967826791775284229,
    (10, 0.9): 0.07076300633499481320616,
    (12, 0.5): 0.2351726720434355322184,
}


@pytest.fixture(scope="module")
def branch_1d(operator_cache):
    op = operator_cache(1, 0.5, 96)
    cfg = ContinuationConfig(
        params=ProblemParams(1, 0.5), grid=op.grid,
        peak_start=0.25, peak_end=3.5, peak_step=0.25, _op=op,
    )
    return op, trace_branch(cfg)


@pytest.fixture(scope="module")
def partial_12(operator_cache):
    op = operator_cache(12, 0.5, 96)
    cfg = ContinuationConfig(
        params=ProblemParams(12, 0.5), grid=op.grid,
        peak_start=1.0, peak_end=16.0, peak_step=1.0, _op=op,
    )
    with pytest.raises(BranchTraceError) as excinfo:
        trace_branch(cfg)
    return op, excinfo.value


def test_torsion_center_oracle():
    for (n, s), expected in TORSION_ORACLE.items():
        assert torsion_center_value(ProblemParams(n, s)) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("n, s, rel", [(3, 0.5, 5e-4), (3, 0.01, 1e-5)], ids=["3-0.5", "3-0.01"])
def test_torsion_matches_grid_solve(operator_cache, n, s, rel):
    # At s = 0.01 the exterior mass decays like rho^{-2s}: a far field cut at
    # any radius a quadrature can reach loses a visible share of it.
    op = operator_cache(n, s, 128)
    z = np.linalg.solve(op.matrix, np.ones(op.n_interior))
    e1, e2 = origin_fold_weights(op.grid)
    z0 = e1 * z[0] + e2 * z[1]
    assert z0 == pytest.approx(torsion_center_value(ProblemParams(n, s)), rel=rel)


def test_config_validation(operator_cache):
    op = operator_cache(1, 0.5, 96)
    p = ProblemParams(1, 0.5)
    with pytest.raises(DomainError):
        ContinuationConfig(params=p, grid=op.grid, peak_start=0.0)
    with pytest.raises(DomainError):
        ContinuationConfig(params=p, grid=op.grid, peak_start=2.0, peak_end=1.0)
    with pytest.raises(DomainError):
        ContinuationConfig(params=p, grid=op.grid, peak_step=0.0)
    with pytest.raises(DomainError):
        ContinuationConfig(params=p, grid=op.grid, newton_tol=-1e-10)
    # NaN fails every comparison, so each bound must reject it explicitly.
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="newton_tol"):
            ContinuationConfig(params=p, grid=op.grid, newton_tol=bad)
        with pytest.raises(DomainError, match="peak_step"):
            ContinuationConfig(params=p, grid=op.grid, peak_step=bad)
    # The point budget counts what trace_branch's np.arange yields.
    cfg = ContinuationConfig(params=p, grid=op.grid, peak_step=6.0 / _MAX_PEAK_POINTS)
    points = np.arange(cfg.peak_start, cfg.peak_end + 0.5 * cfg.peak_step, cfg.peak_step)
    assert points.size <= _MAX_PEAK_POINTS
    for kwargs in ({"peak_step": 1e-9}, {"peak_step": 5.0 / _MAX_PEAK_POINTS},
                   {"peak_end": math.inf}):
        with pytest.raises(DomainError, match="budget"):
            ContinuationConfig(params=p, grid=op.grid, **kwargs)


def test_solve_at_peak_basic(operator_cache):
    op = operator_cache(3, 0.5, 96)
    cfg = ContinuationConfig(params=ProblemParams(3, 0.5), grid=op.grid, _op=op)
    pt = solve_at_peak(cfg, 0.5)
    assert pt.residual_norm <= cfg.newton_tol
    assert pt.peak == pytest.approx(0.5, abs=1e-9)
    assert pt.profile.values[0] == pytest.approx(0.5, abs=1e-9)
    assert 0 < pt.newton_iters <= _MAX_NEWTON_ITERS
    assert pt.lam > 0.0
    assert math.isfinite(pt.stability_eig)
    # Solved profile is radially decreasing with zero boundary value.
    assert pt.profile.values[-1] == 0.0
    assert np.all(np.diff(pt.profile.values) < 0.0)


def test_dirichlet_path_builds_no_exterior_quadrature(monkeypatch):
    def refuse(*args):
        raise AssertionError("exterior quadrature built on the zero-exterior path")

    monkeypatch.setattr(fraclap, "_exterior_blocks", refuse)
    p = ProblemParams(3, 0.5)
    op = assemble(p, RadialGrid.graded(48))
    assert np.all(np.isfinite(op.stability_form))
    cfg = ContinuationConfig(params=p, grid=op.grid, _op=op)
    pt = solve_at_peak(cfg, 0.5)
    assert pt.stable
    lhs, rhs = stability_inequality_check(op, pt, rho0=0.5, eps=0.1)
    assert lhs <= rhs


def test_warm_start_agrees_with_cold(branch_1d):
    op, branch = branch_1d
    cfg = ContinuationConfig(params=ProblemParams(1, 0.5), grid=op.grid, _op=op)
    warm = solve_at_peak(cfg, 1.0, warm_start=branch.points[2])
    cold = solve_at_peak(cfg, 1.0)
    assert warm.lam == pytest.approx(cold.lam, abs=1e-9)
    assert np.max(np.abs(warm.profile.values - cold.profile.values)) < 1e-9


def test_invalid_center_value(operator_cache):
    op = operator_cache(1, 0.5, 96)
    cfg = ContinuationConfig(params=ProblemParams(1, 0.5), grid=op.grid, _op=op)
    for m in (0.0, -1.0):
        with pytest.raises(DomainError):
            solve_at_peak(cfg, m)


def test_negative_center_value_is_infeasible(operator_cache):
    # solve_at_peak refuses m <= 0 up front, so the guard is reached through
    # _newton_solve: from the torsion-scaled start it converges to the state
    # with u(0) = -0.1, which needs lam < 0 and must be rejected.
    op = operator_cache(3, 0.5, 96)
    e1, e2 = origin_fold_weights(op.grid)
    z = np.linalg.solve(op.matrix, np.ones(op.n_interior))
    z0 = e1 * z[0] + e2 * z[1]
    m = -0.1
    with pytest.raises(InfeasibleError) as excinfo:
        _newton_solve(op, m, (m / z0) * z, m / z0, 1e-10)
    assert excinfo.value.lam == pytest.approx(-0.218, abs=1e-2)


def test_branch_fold_and_extremal_estimate(branch_1d):
    _, branch = branch_1d
    assert np.all(np.diff(branch.peaks) > 0.0)
    assert branch.fold_detected
    assert 0 < branch.fold_index < len(branch.points) - 1
    lam_star = branch.lambda_star_estimate
    assert lam_star >= branch.lams.max()
    assert lam_star == pytest.approx(0.4157, abs=5e-3)


def test_branch_stability_sign_change(branch_1d):
    _, branch = branch_1d
    mus = np.array([pt.stability_eig for pt in branch.points])
    assert mus[0] > 0.0
    assert mus[-1] < 0.0
    first_negative = int(np.argmax(mus < 0.0))
    assert abs(first_negative - branch.fold_index) <= 1


def test_branch_serialization(branch_1d):
    _, branch = branch_1d
    csv = branch.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "peak,lambda,stability_eig,residual_norm,newton_iters"
    assert len(lines) == len(branch.points) + 1
    data = json.loads(branch.to_json())
    assert data["fold_detected"] is True
    assert data["n"] == 1 and data["s"] == 0.5
    assert data["lambda_star_estimate"] == pytest.approx(branch.lambda_star_estimate)
    assert len(data["points"]) == len(branch.points)
    assert set(data["points"][0]) == {
        "peak", "lambda", "stability_eig", "residual_norm", "newton_iters"}


def test_stability_eigenvalue_deterministic_and_checked(branch_1d, operator_cache):
    op, branch = branch_1d
    pt = branch.points[3]
    assert stability_eigenvalue(op, pt) == stability_eigenvalue(op, pt)
    with pytest.raises(DomainError):
        stability_eigenvalue(operator_cache(1, 0.5, 64), pt)


def test_stability_eigenvalue_matches_dense_solver(branch_1d):
    op, branch = branch_1d
    for pt in (branch.points[0], branch.points[5], branch.points[-1]):
        cm = op.stability_form - pt.lam * _weighted_mass(op, pt.profile.values)
        d = 1.0 / np.sqrt(op.weights)
        sym = d[:, None] * cm * d[None, :]
        dense = eigvalsh(0.5 * (sym + sym.T)).min()
        assert pt.stability_eig == pytest.approx(dense, abs=1e-9 * max(1.0, abs(dense)))


@pytest.mark.parametrize("n", [1, 3, 10])
def test_weighted_mass_closed_form(operator_cache, n):
    op = operator_cache(n, 0.5, 64)
    nodes = op.grid.nodes
    mass0 = _weighted_mass(op, np.zeros(nodes.size))
    # The folded interior hats sum to 1 - phi_N: 1 on [0, r_{N-1}], (1-r)/h on
    # the last panel.  With t = 1 - r the last-panel integral is a binomial sum.
    with mpmath.workdps(40):
        r_last = mpmath.mpf(float(nodes[-2]))
        h = 1 - r_last
        tail = sum(
            mpmath.binomial(n - 1, k) * (-1) ** k * h ** (k + 3) / (k + 3)
            for k in range(n)
        ) / h**2
        area = 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2)
        exact = float(area * (r_last**n / n + tail))
    assert mass0.sum() == pytest.approx(exact, rel=1e-13, abs=0.0)
    # A constant profile scales the density by e^c.
    scale = np.abs(mass0).max()
    for c in (-3.0, 1.7):
        mass_c = _weighted_mass(op, np.full(nodes.size, c))
        assert np.abs(mass_c - math.exp(c) * mass0).max() <= 1e-13 * math.exp(c) * scale
    # u = 1 - 2 r^2 makes the origin panel's density e^{a0 + b0 r^2} with
    # b0 != 0.  The documented interpolant: that even parabola on [0, r_1],
    # u log-linear in r on every other panel.
    values = 1.0 - 2.0 * nodes**2
    got = _weighted_mass(op, values).sum()
    with mpmath.workdps(30):
        r = [mpmath.mpf(float(x)) for x in nodes]
        v = [mpmath.mpf(float(x)) for x in values]
        a0 = (r[2] ** 2 * v[1] - r[1] ** 2 * v[2]) / (r[2] ** 2 - r[1] ** 2)
        b0 = (v[1] - a0) / r[1] ** 2
        total = mpmath.quad(lambda x: mpmath.exp(a0 + b0 * x * x) * x ** (n - 1), [0, r[1]])
        for k in range(1, len(r) - 1):
            beta = (v[k + 1] - v[k]) / mpmath.log(r[k + 1] / r[k])
            # 1^T M 1 weighs the density by (1 - phi_N)^2 (see above).
            hat = (lambda x: 1) if k < len(r) - 2 else (lambda x: ((1 - x) / (1 - r[k])) ** 2)
            total += mpmath.quad(
                lambda x, k=k, beta=beta, hat=hat:
                    hat(x) * mpmath.exp(v[k]) * (x / r[k]) ** beta * x ** (n - 1),
                [r[k], r[k + 1]])
        exact = float(area * total)
    assert got == pytest.approx(exact, rel=1e-13, abs=0.0)


def test_stability_eigenvalue_overflow_is_typed(branch_1d):
    op, branch = branch_1d
    pt = branch.points[3]
    values = pt.profile.values.copy()
    values[values.size // 2] = 800.0
    # Finite nodal data whose e^u overflows a double.
    hot = dataclasses.replace(pt, profile=dataclasses.replace(pt.profile, values=values))
    with pytest.raises(EigenSolveError):
        stability_eigenvalue(op, hot)


def test_small_peak_slope_matches_torsion(operator_cache):
    op = operator_cache(3, 0.5, 128)
    cfg = ContinuationConfig(params=ProblemParams(3, 0.5), grid=op.grid, _op=op)
    pt1 = solve_at_peak(cfg, 0.01)
    pt2 = solve_at_peak(cfg, 0.02)
    # Richardson in m kills the O(m) bias of the secant slope.
    slope = 2.0 * (pt1.lam / 0.01) - pt2.lam / 0.02
    assert slope == pytest.approx(1.0 / torsion_center_value(ProblemParams(3, 0.5)), rel=2e-2)


def test_trace_branch_reports_partial_progress(partial_12):
    _, exc = partial_12
    assert "center value" in str(exc)
    assert isinstance(exc.__cause__, NoConvergenceError)
    assert math.isfinite(exc.__cause__.residual_norm)
    partial = exc.partial
    assert 5 <= len(partial.points) <= 12
    assert np.all(np.diff(partial.peaks) > 0.0)
    assert partial.params == ProblemParams(12, 0.5)
    # Every solved point converged even though the next one failed.
    assert all(pt.residual_norm <= 1e-10 for pt in partial.points)


def test_singular_regime_stays_stable(partial_12):
    _, exc = partial_12
    mu_last = exc.partial.points[-1].stability_eig
    assert mu_last > -1e-3
    assert 2.0 < mu_last < 4.5


def test_singular_regime_stability_under_refinement(operator_cache):
    op = operator_cache(12, 0.5, 128)
    cfg = ContinuationConfig(params=ProblemParams(12, 0.5), grid=op.grid, peak_end=8.0, _op=op)
    pt = solve_at_peak(cfg, 6.0)
    assert pt.stability_eig > -1e-3
    assert 2.0 < pt.stability_eig < 4.5


def test_singular_diagnostic_in_singular_regime(partial_12):
    _, exc = partial_12
    report = singular_profile_diagnostic(exc.partial, 0.5)
    assert report.sigma == 0.5
    assert report.threshold_radius is not None and report.threshold_radius > 0.05
    assert np.all(report.probe_ratios > 1.0)
    assert report.increasing_trend
    assert report.radii.size == report.ratios.size > 0


def test_singular_diagnostic_on_smooth_branch(branch_1d):
    _, branch = branch_1d
    strict = singular_profile_diagnostic(branch, 0.5)
    loose = singular_profile_diagnostic(branch, 0.99)
    # Bounded profiles fall below half the singular envelope near the origin.
    assert strict.threshold_radius is None
    assert loose.threshold_radius is not None
    assert np.all(strict.probe_ratios < 1.0)


def test_singular_diagnostic_validation(branch_1d):
    _, branch = branch_1d
    from fracgelfand import Branch

    for sigma in (0.0, 1.0, -0.5):
        with pytest.raises(DomainError):
            singular_profile_diagnostic(branch, sigma)
    with pytest.raises(DomainError):
        singular_profile_diagnostic(Branch(params=ProblemParams(1, 0.5)), 0.5)
    with pytest.raises(DomainError):
        singular_profile_diagnostic(Branch(points=list(branch.points)), 0.5)


def test_singular_diagnostic_warns_on_coarse_grid():
    p = ProblemParams(1, 0.5)
    cfg = ContinuationConfig(
        params=p, grid=RadialGrid.graded(16), peak_start=0.5, peak_end=1.0, peak_step=0.5
    )
    branch = trace_branch(cfg)
    with pytest.warns(UserWarning, match="no node"):
        singular_profile_diagnostic(branch, 0.5)


def test_proof_test_function_shape(operator_cache):
    op = operator_cache(1, 0.5, 96)
    psi = proof_test_function(ProblemParams(1, 0.5), op.grid, 0.5, 0.1)
    r = op.grid.nodes
    expo = 0.5 * (2.0 * 0.5 - 1 + 0.1)
    inside = (r > 0.0) & (r <= 0.5)
    assert np.allclose(psi.values[inside], r[inside] ** expo, rtol=1e-12)
    assert np.max(np.abs(psi.values[r >= 0.75])) == 0.0
    assert not psi.singular_at_origin
    assert proof_test_function(ProblemParams(3, 0.5), op.grid, 0.5, 0.1).singular_at_origin
    with pytest.raises(DomainError):
        proof_test_function(ProblemParams(1, 0.5), op.grid, 1.0, 0.1)
    with pytest.raises(DomainError):
        proof_test_function(ProblemParams(1, 0.5), op.grid, 0.5, 0.0)


def test_proof_function_energy_scales_at_most_inversely(operator_cache):
    # eps * Q(psi_eps, psi_eps) stays bounded as the exponent approaches the
    # critical power (continuum value <= 2 H |S^{n-1}|), so the energy blowup
    # is at most 1/eps.
    op = operator_cache(3, 0.5, 96)
    p = ProblemParams(3, 0.5)
    bound = 2.0 * hardy_constant(p) * sphere_area(3)
    scaled = []
    for eps in (0.4, 0.2, 0.1, 0.05):
        psi = proof_test_function(p, op.grid, 0.5, eps)
        scaled.append(eps * quadratic_form(op, psi, psi))
    assert all(0.0 < val < bound for val in scaled)
    assert np.all(np.diff(scaled) < 0.0)


def test_inequality_holds_at_stable_point(branch_1d):
    op, branch = branch_1d
    pt = branch.points[1]
    lhs, rhs = stability_inequality_check(op, pt, 0.5, 0.1)
    assert rhs > 0.0
    assert lhs <= rhs + 1e-3 * abs(rhs)


def test_inequality_rejects_unstable_point(branch_1d):
    op, branch = branch_1d
    with pytest.raises(DomainError):
        stability_inequality_check(op, branch.points[-1], 0.5, 0.1)


def test_singular_residual_decreases_under_refinement():
    p = ProblemParams(3, 0.5)
    res = [singular_solution_residual(p, RadialGrid.graded(n)) for n in (128, 256)]
    assert res[1] < res[0]
    assert res[1] < 1e-3
    with pytest.raises(DomainError):
        singular_solution_residual(ProblemParams(1, 0.7), RadialGrid.graded(32))
