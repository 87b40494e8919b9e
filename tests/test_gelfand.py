import dataclasses
import functools
import inspect
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigh, eigvalsh

from fracgelfand import (
    Branch,
    BranchTraceError,
    ContinuationConfig,
    DomainError,
    EigenSolveError,
    GridDepthError,
    InfeasibleError,
    NoConvergenceError,
    ProblemParams,
    RadialGrid,
    TailSpec,
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
from fracgelfand import fraclap, gelfand
from fracgelfand.cli import _VERIFY_EPS
from fracgelfand.gelfand import (
    _MAX_NEWTON_ITERS,
    _MAX_PEAK_POINTS,
    _krylov_step,
    _newton_solve,
    _torsion,
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
def branch_1d():
    cfg = ContinuationConfig(
        params=ProblemParams(1, 0.5), grid=RadialGrid.graded(96),
        peak_start=0.25, peak_end=3.5, peak_step=0.25,
    )
    return cfg.operator(), trace_branch(cfg)


@pytest.fixture(scope="module")
def fold_ladder():
    # The benchmark's fold-verify branch: (1, 0.5), graded(256), m = 0.05 .. 3.
    cfg = ContinuationConfig(
        params=ProblemParams(1, 0.5), grid=RadialGrid.graded(256),
        peak_start=0.05, peak_end=3.0, peak_step=0.05,
    )
    return cfg.operator(), trace_branch(cfg)


@pytest.fixture(scope="module")
def partial_12():
    # graded(96) resolves center values up to 2s log(1/r_1) = 9.11: the
    # trace stops at m = 10.
    cfg = ContinuationConfig(
        params=ProblemParams(12, 0.5), grid=RadialGrid.graded(96),
        peak_start=1.0, peak_end=16.0, peak_step=1.0,
    )
    with pytest.raises(BranchTraceError) as excinfo:
        trace_branch(cfg)
    return cfg.operator(), excinfo.value


def test_torsion_center_oracle():
    for (n, s), expected in TORSION_ORACLE.items():
        assert torsion_center_value(ProblemParams(n, s)) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("n, s, rel", [(3, 0.5, 5e-4), (3, 0.01, 1e-5)], ids=["3-0.5", "3-0.01"])
def test_torsion_matches_grid_solve(operator_cache, n, s, rel):
    # The Galerkin torsion S z = b(0), from which cold starts are scaled.  At
    # s = 0.01 the exterior mass decays like rho^{-2s}: a far field cut at
    # any radius a quadrature can reach would lose a visible share of it.
    op = operator_cache(n, s, 128)
    z0 = op.grid.origin_value(_torsion(op))
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
    cfg = ContinuationConfig(params=ProblemParams(3, 0.5), grid=op.grid)
    pt = solve_at_peak(cfg, 0.5, op=op)
    assert pt.residual_norm <= cfg.newton_tol
    assert pt.peak == pytest.approx(0.5, abs=1e-9)
    assert pt.profile.values[0] == pytest.approx(0.5, abs=1e-9)
    assert 0 < pt.newton_iters <= _MAX_NEWTON_ITERS
    assert pt.lam > 0.0
    assert math.isfinite(pt.stability_eig)
    # Solved profile is radially decreasing with zero boundary value.
    assert pt.profile.values[-1] == 0.0
    assert np.all(np.diff(pt.profile.values) < 0.0)


def test_branch_builds_no_collocation_couplings(monkeypatch):
    # Newton, the pencil and the energy inequality all run on the Galerkin
    # form: a trace, and the inequality at its stable points, never assemble
    # the collocation couplings, nor read their exterior row masses.
    def refuse(*args):
        raise AssertionError("collocation couplings assembled on the Galerkin path")

    monkeypatch.setattr(fraclap, "_far_partition", refuse)
    monkeypatch.setattr(fraclap.OperatorMatrix, "tail_mass", property(refuse))
    cfg = ContinuationConfig(params=ProblemParams(3, 0.5), grid=RadialGrid.graded(48),
                             peak_start=0.5, peak_end=2.0, peak_step=0.5)
    with pytest.raises(AssertionError, match="collocation"):
        cfg.operator().couple_quad
    branch = trace_branch(cfg)
    assert len(branch.points) == 4
    for pt in branch.points:
        if pt.stable:
            stability_inequality_check(cfg.operator(), pt, rho0=0.5, eps=0.1)


def test_newton_makes_no_dense_solve(monkeypatch):
    # Newton steps are Krylov solves on the operator's cached S^{-1}, which
    # the cold start's torsion reads too: neither a trace nor a cold solve
    # factors a dense system.
    def refuse(*args, **kwargs):
        raise AssertionError("dense solve on the Newton path")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    cfg = ContinuationConfig(params=ProblemParams(3, 0.5), grid=RadialGrid.graded(48),
                             peak_start=0.5, peak_end=2.0, peak_step=0.5)
    assert len(trace_branch(cfg).points) == 4
    assert solve_at_peak(cfg, 1.25).newton_iters > 0


def test_pencil_reads_newtons_e_u_quadrature(operator_cache, monkeypatch):
    # The pencil takes (b, E) from Newton's converged iterate: a warm-started
    # solve runs the e^u quadrature once for its start and once per Newton
    # iteration (no line search halves a step here), and not for the pencil.
    op = operator_cache(1, 0.5, 64)
    cfg = ContinuationConfig(params=op.params, grid=op.grid, peak_start=0.25, peak_end=1.0)
    warm = solve_at_peak(cfg, 0.5, warm_start=solve_at_peak(cfg, 0.25, op=op), op=op)
    exp_mass = fraclap.OperatorMatrix.exp_mass
    calls = []

    def counting(self, values):
        calls.append(values)
        return exp_mass(self, values)

    monkeypatch.setattr(fraclap.OperatorMatrix, "exp_mass", counting)
    pt = solve_at_peak(cfg, 0.75, warm_start=warm, op=op)
    assert pt.newton_iters > 0
    assert len(calls) == pt.newton_iters + 1
    monkeypatch.undo()
    # The public eigenvalue runs the quadrature itself, on the same values.
    assert stability_eigenvalue(op, pt) == pt.stability_eig


def test_gelfand_writes_no_fold_arithmetic():
    # fraclap owns the hat basis: gelfand reads the border row only as the
    # grid's origin value, and its masses only through exp_mass and the
    # operator's consistent mass.
    source = inspect.getsource(gelfand)
    assert "origin_fold" not in source
    assert "weights" not in source


def test_only_the_grid_reads_the_origin_fold():
    # The couplings, the energy form and the operator's masses fold the
    # origin node through the grid's methods, and every Galerkin local mass
    # goes through one routine.
    for obj in (fraclap._assemble_couplings, fraclap._assemble_energy,
                fraclap._separated_pairs, fraclap.OperatorMatrix):
        assert "origin_fold" not in inspect.getsource(obj)
    assert (inspect.getsource(fraclap).count("origin_fold")
            == inspect.getsource(fraclap.RadialGrid).count("origin_fold"))
    assert not hasattr(fraclap, "_add_local_mass")


def dense_bordered_solve(op, lam, mass, rhs):
    """[[S - lam E, -b], [c^T, 0]] x = rhs by LU, the rows of S scaled by
    1 / max_j |S_ij| as the dense Newton did."""
    load, diag, off = mass
    ni = op.n_interior
    jac = np.zeros((ni + 1, ni + 1))
    jac[:ni, :ni] = op.stability_form - lam * (np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    jac[:ni, ni] = -load
    jac[ni, :2] = op.grid.origin_fold
    scale = np.append(1.0 / np.abs(op.stability_form).max(axis=1), 1.0)
    return np.linalg.solve(scale[:, None] * jac, scale * rhs)


def test_krylov_step_matches_a_dense_bordered_solve(fold_ladder, partial_12):
    # On both sides of the fold, where S - lam E turns singular and only the
    # border keeps the system regular, and along (12, 0.5) on graded(96),
    # whose hat masses span ~40 decades.  The right side is a Newton step's
    # (-F, m - c^T u) at a state 1% off the solved one.
    op, branch = fold_ladder
    first = next(k for k, pt in enumerate(branch.points) if pt.stability_eig < 0.0)
    cases = [(op, branch.points[first - 1 : first + 1]),
             (partial_12[0], partial_12[1].partial.points)]
    for op, points in cases:
        for pt in points:
            u = 1.01 * pt.profile.interior
            mass = op.exp_mass(op.grid.profile(u).values)
            rhs = np.append(pt.lam * mass[0] - op.stability_form @ u,
                            pt.peak - op.grid.origin_value(u))
            got = _krylov_step(op, pt.lam, mass, rhs[:-1], rhs[-1])
            want = dense_bordered_solve(op, pt.lam, mass, rhs)
            assert abs(got[-1] - want[-1]) <= 1e-9 * abs(want[-1])
            assert np.abs(got[:-1] - want[:-1]).max() <= 1e-9 * np.abs(want[:-1]).max()


def test_fold_ladder_matches_the_dense_newton(fold_ladder):
    # data/fold_verify_dense_newton.json is the CLI's branch at the data's
    # argv as ``dense_bordered_solve`` per Newton step traced it, in place
    # of ``_krylov_step``; its mu column is ``dense_pencil_eig`` at the
    # traced states.  The Krylov step takes the same iterations at every
    # point and moves lam by roundoff.
    ref = json.loads((Path(__file__).parent / "data" / "fold_verify_dense_newton.json").read_text())
    _, branch = fold_ladder
    peak, lam, mu, iters = (np.array(col) for col in zip(*ref["points"]))
    assert [pt.newton_iters for pt in branch.points] == iters.tolist()
    assert iters.sum() == 65
    assert np.abs(branch.peaks - peak).max() <= 1e-14
    assert np.abs(branch.lams - lam).max() <= 1e-13
    assert np.abs(np.array([pt.stability_eig for pt in branch.points]) - mu).max() <= 1e-11
    assert abs(branch.lambda_star_estimate - ref["lambda_star_estimate"]) <= 1e-12


def test_dirichlet_path_builds_no_exterior_quadrature(monkeypatch):
    def refuse(*args):
        raise AssertionError("exterior quadrature built on the zero-exterior path")

    monkeypatch.setattr(fraclap, "_exterior_blocks", refuse)
    p = ProblemParams(3, 0.5)
    op = assemble(p, RadialGrid.graded(48))
    assert np.all(np.isfinite(op.stability_form))
    cfg = ContinuationConfig(params=p, grid=op.grid)
    pt = solve_at_peak(cfg, 0.5, op=op)
    assert pt.stable
    lhs, rhs = stability_inequality_check(op, pt, rho0=0.5, eps=0.1)
    assert lhs <= rhs


def test_warm_start_agrees_with_cold(branch_1d):
    op, branch = branch_1d
    cfg = ContinuationConfig(params=ProblemParams(1, 0.5), grid=op.grid)
    warm = solve_at_peak(cfg, 1.0, warm_start=branch.points[2], op=op)
    cold = solve_at_peak(cfg, 1.0, op=op)
    assert warm.lam == pytest.approx(cold.lam, abs=1e-9)
    assert np.max(np.abs(warm.profile.values - cold.profile.values)) < 1e-9


def test_warm_start_chain_replays_trace_branch(operator_cache):
    # Chaining solve_at_peak from each previous point over trace_branch's
    # peaks must reproduce trace_branch bit for bit: the extrapolation may
    # use nothing but the warm start and the predecessors it holds.
    # trace_branch assembles the config's own operator, which must equal the
    # shared one bit for bit.
    op = operator_cache(1, 0.5, 64)
    cfg = ContinuationConfig(params=ProblemParams(1, 0.5), grid=op.grid, peak_start=0.05,
                             peak_end=3.0, peak_step=0.05)
    chained = Branch(params=cfg.params)
    previous = None
    for m in np.arange(cfg.peak_start, cfg.peak_end + 0.5 * cfg.peak_step, cfg.peak_step):
        previous = solve_at_peak(cfg, float(m), warm_start=previous, op=op)
        chained.points.append(previous)
    traced = trace_branch(cfg)
    assert traced.fold_detected
    assert chained.to_json() == traced.to_json()
    # Each point holds its up to three predecessors' own arrays, no copy.
    assert [len(pt._predecessors) for pt in chained.points[:5]] == [0, 1, 2, 3, 3]
    for pt, before in zip(chained.points[1:], chained.points):
        m, u, lam = pt._predecessors[0]
        assert (m, lam) == (before.peak, before.lam) and u.base is before.profile.values
        assert pt._predecessors[1:] == before._predecessors[:2]


def test_long_warm_start_step_falls_back_to_the_point(operator_cache, monkeypatch):
    # Should Newton fail from the extrapolation of a jump to m = 3, past the
    # fold, it starts again from the m = 0.5 point shifted to m.  The first
    # start is made to fail here, whether or not it overshoots.
    op = operator_cache(1, 0.5, 128)
    cfg = ContinuationConfig(params=ProblemParams(1, 0.5), grid=op.grid, peak_start=0.25,
                             peak_end=3.0)
    near = solve_at_peak(cfg, 0.5, warm_start=solve_at_peak(cfg, 0.25, op=op), op=op)
    calls = []

    def failing_first(*args):
        calls.append(args[2].copy())
        if len(calls) == 1:
            raise NoConvergenceError("first start", near.profile, near.lam, 1.0, 0)
        return _newton_solve(*args)

    monkeypatch.setattr(gelfand, "_newton_solve", failing_first)
    far = solve_at_peak(cfg, 3.0, warm_start=near, op=op)
    assert len(calls) == 2
    # near holds one predecessor, so the extrapolation is the line through
    # it and near.  Each start is shifted to center value 3; for the line
    # that shift is roundoff, since its center values are m.
    (m0, u0, _), = near._predecessors
    u1 = near.profile.interior
    line = u1 + (3.0 - near.peak) * ((u0 - u1) / (m0 - near.peak))
    assert abs(op.grid.origin_value(line) - 3.0) < 1e-14
    assert np.array_equal(calls[0], line + (3.0 - op.grid.origin_value(line)))
    assert np.array_equal(calls[1], near.profile.interior + (3.0 - near.peak))
    monkeypatch.undo()
    # The same state as the end of a trace in steps of 0.25.
    assert far.lam == pytest.approx(trace_branch(cfg).points[-1].lam, abs=1e-9)


def test_warm_start_extrapolates_by_the_cubic_through_four_points(operator_cache, monkeypatch):
    # On states cubic in m, at uneven steps, the start from a chain's k-th
    # point is the polynomial of order min(k - 1, 3) through it and the
    # points before it: the line from the second, the quadratic from the
    # third, and from the fourth on the cubic itself.  Newton and the pencil
    # are stubbed: Newton records its start and returns the exact state.
    op = operator_cache(1, 0.5, 32)
    cfg = ContinuationConfig(params=op.params, grid=op.grid, peak_end=2.0)
    w = np.sin(7.0 * op.grid.interior)
    w -= op.grid.origin_value(w)               # u(0) = m on every state

    def state(m):
        return m + (0.2 - m + 0.7 * m**2 - 0.3 * m**3) * w, 0.4 * m - 0.1 * m**2 + 0.05 * m**3

    starts = []

    def exact(op, m, u0, lam0, tol):
        starts.append((u0, lam0))
        u, lam = state(m)
        return u, lam, 0.0, 1, None

    monkeypatch.setattr(gelfand, "_newton_solve", exact)
    monkeypatch.setattr(gelfand, "_smallest_pencil_eigs", lambda op, pencils: [1.0] * len(pencils))
    peaks = [0.3, 0.5, 0.9, 1.0, 1.35, 1.4]
    chain = [solve_at_peak(cfg, peaks[0], op=op)]
    for m in peaks[1:]:
        chain.append(solve_at_peak(cfg, m, warm_start=chain[-1], op=op))
    assert [pt.peak for pt in chain] == pytest.approx(peaks, abs=1e-15)

    def interpolant(nodes, m):
        # Lagrange's form of the polynomial through the states at nodes.
        weights = [math.prod((m - b) / (a - b) for b in nodes if b != a) for a in nodes]
        return tuple(sum(c * v for c, v in zip(weights, vals)) for vals in zip(*map(state, nodes)))

    # Newton succeeds from each first start: one start per solve.  The
    # second starts from the first point alone, shifted to its m; then the
    # orders run 1, 2, 3, 3, and only the cubic is exact.
    assert len(starts) == len(peaks)
    for k in range(1, len(peaks)):
        m, nodes = peaks[k], peaks[max(0, k - 4) : k]
        u, lam = interpolant(nodes, m)
        u0, lam0 = starts[k]
        assert np.abs(u0 - (u + (m - op.grid.origin_value(u)))).max() <= 1e-14
        assert lam0 == pytest.approx(lam, abs=1e-15)
        exact_u, exact_lam = state(m)
        assert (np.abs(u0 - exact_u).max() <= 1e-14) == (len(nodes) == 4)


def test_a_chain_that_revisits_a_center_value_divides_by_no_zero_step(operator_cache):
    # A point keeps no predecessor at its own center value: the next
    # extrapolation's divided differences would divide by a zero step, a
    # RuntimeWarning, which the suite makes an error.
    op = operator_cache(1, 0.5, 64)
    cfg = ContinuationConfig(params=op.params, grid=op.grid, peak_end=3.0)
    chain = [solve_at_peak(cfg, 0.25, op=op)]
    for m in (0.5, 0.75, 0.5, 0.5, 0.75, 1.0):
        chain.append(solve_at_peak(cfg, m, warm_start=chain[-1], op=op))
    kept = [[m for m, _, _ in pt._predecessors] for pt in chain[3:]]
    assert kept == [pytest.approx(ms, abs=1e-15) for ms in
                    ([0.75, 0.25], [0.75, 0.25], [0.5, 0.25], [0.75, 0.5, 0.25])]
    assert all(pt.residual_norm <= cfg.newton_tol for pt in chain)


@pytest.mark.parametrize("n, s, panels, peak_start, peak_end, peak_step, secant", [
    (3, 0.5, 256, 1.0, 11.0, 1.0, 54),
    (12, 0.5, 128, 1.0, 8.0, 1.0, 40),
    (2, 0.9, 256, 0.25, 6.0, 0.25, 56),
], ids=["3-0.5", "12-0.5", "2-0.9"])
def test_extrapolation_takes_no_more_newton_iterations_than_the_secant(
        operator_cache, n, s, panels, peak_start, peak_end, peak_step, secant):
    # ``secant``: the Newton iterations over the branch when each start was
    # the line through the warm start and the point before it.  The cubic
    # takes 52, 38 and 51.
    op = operator_cache(n, s, panels)
    cfg = ContinuationConfig(params=op.params, grid=op.grid, peak_start=peak_start,
                             peak_end=peak_end, peak_step=peak_step)
    chain = []
    for m in np.arange(peak_start, peak_end + 0.5 * peak_step, peak_step):
        chain.append(solve_at_peak(cfg, float(m), warm_start=chain[-1] if chain else None, op=op))
    assert all(pt.residual_norm <= cfg.newton_tol for pt in chain)
    assert sum(pt.newton_iters for pt in chain) <= secant


def test_invalid_center_value(operator_cache):
    op = operator_cache(1, 0.5, 96)
    cfg = ContinuationConfig(params=ProblemParams(1, 0.5), grid=op.grid)
    for m in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="center value"):
            solve_at_peak(cfg, m, op=op)


def test_solve_at_peak_refuses_a_foreign_operator(operator_cache):
    # An operator of other params or on another grid would solve another
    # problem and label it with the config's.
    cfg = ContinuationConfig(params=ProblemParams(1, 0.5), grid=RadialGrid.graded(32))
    for op in (operator_cache(3, 0.5, 32), operator_cache(1, 0.5, 32, grading=3.0),
               operator_cache(1, 0.5, 48)):
        with pytest.raises(DomainError, match="operator"):
            solve_at_peak(cfg, 0.5, op=op)
    own = operator_cache(1, 0.5, 32)
    assert solve_at_peak(cfg, 0.5, op=own).lam == solve_at_peak(cfg, 0.5).lam


def test_solve_at_peak_refuses_a_warm_start_from_another_grid(operator_cache):
    # Its interior values would be read as nodal values of the config's grid.
    foreign = ContinuationConfig(params=ProblemParams(1, 0.5),
                                 grid=RadialGrid.graded(32, grading=3.0))
    point = solve_at_peak(foreign, 0.5, op=operator_cache(1, 0.5, 32, grading=3.0))
    cfg = ContinuationConfig(params=ProblemParams(1, 0.5), grid=RadialGrid.graded(32))
    with pytest.raises(DomainError, match="warm start"):
        solve_at_peak(cfg, 0.75, warm_start=point, op=operator_cache(1, 0.5, 32))


def test_config_has_no_operator_argument():
    grid = RadialGrid.graded(32)
    with pytest.raises(TypeError):
        ContinuationConfig(params=ProblemParams(1, 0.5), grid=grid, _op=None)
    # Configs compare by value, grids included, and not by their cached operator.
    a = ContinuationConfig(params=ProblemParams(1, 0.5), grid=grid)
    b = ContinuationConfig(params=ProblemParams(1, 0.5), grid=RadialGrid.graded(32))
    a.operator()
    assert a == b
    assert a != ContinuationConfig(params=ProblemParams(1, 0.5),
                                   grid=RadialGrid.graded(32, grading=3.0))


def test_negative_center_value_is_infeasible(operator_cache):
    # solve_at_peak refuses m <= 0 up front, so the guard is reached through
    # _newton_solve: from the torsion-scaled start it converges to the state
    # with u(0) = -0.1, which needs lam < 0 and must be rejected.
    op = operator_cache(3, 0.5, 96)
    z = _torsion(op)
    z0 = op.grid.origin_value(z)
    m = -0.1
    with pytest.raises(InfeasibleError) as excinfo:
        _newton_solve(op, m, (m / z0) * z, m / z0, 1e-10)
    assert excinfo.value.lam == pytest.approx(-0.218, abs=1e-2)


def test_overflowing_start_is_not_converged(operator_cache):
    # e^800 overflows: the row-relative residual of that start is NaN, which
    # must count as unconverged, not pass the tolerance test by comparing false.
    # At one node only, the load's single inf reaches the Krylov step's Schur
    # complement as inf - inf, which must not surface as a RuntimeWarning.
    op = operator_cache(1, 0.5, 32)
    with pytest.raises(NoConvergenceError, match="nan"):
        _newton_solve(op, 800.0, np.full(op.n_interior, 800.0), 1.0, 1e-12)
    hot = np.full(op.n_interior, 0.5)
    hot[op.n_interior // 2] = 800.0
    with pytest.raises(NoConvergenceError, match="nan"):
        _newton_solve(op, 0.5, hot, 1.0, 1e-12)


def test_branch_fold_and_extremal_estimate(branch_1d):
    _, branch = branch_1d
    assert np.all(np.diff(branch.peaks) > 0.0)
    assert branch.fold_detected
    assert 0 < branch.fold_index < len(branch.points) - 1
    lam_star = branch.lambda_star_estimate
    assert lam_star >= branch.lams.max()
    assert lam_star == pytest.approx(0.4157, abs=5e-3)


def test_fold_needs_an_interior_maximum(branch_1d):
    # A branch that starts past the fold (lam decreasing from its first
    # point) or stops before it (lam increasing to its last) brackets no
    # fold; only the whole branch does.
    _, branch = branch_1d
    params, i = branch.params, branch.fold_index
    assert Branch(params, branch.points).fold_detected
    assert not Branch(params, branch.points[i:]).fold_detected
    assert not Branch(params, branch.points[: i + 1]).fold_detected
    assert not Branch(params, branch.points[i - 1 : i + 1]).fold_detected


def test_branch_stability_sign_change(branch_1d):
    _, branch = branch_1d
    mus = np.array([pt.stability_eig for pt in branch.points])
    assert mus[0] > 0.0
    assert mus[-1] < 0.0
    first_negative = int(np.argmax(mus < 0.0))
    assert abs(first_negative - branch.fold_index) <= 1


def test_points_before_the_fold_are_stable(fold_ladder):
    # The fold is bounded by the first loss of stability, also on a window
    # that starts past it, where lam's later turn is no fold.  (3, 0.5)
    # folds at m = 1.5; past it lam falls to m = 3.5 and turns again at
    # m = 5.5, every point unstable.
    cfg = ContinuationConfig(params=ProblemParams(3, 0.5), grid=RadialGrid.graded(64),
                             peak_start=0.25, peak_end=7.0, peak_step=0.25)
    branch_3d = trace_branch(cfg)
    window = Branch(branch_3d.params, [pt for pt in branch_3d.points if pt.peak >= 3.0])
    for branch in (fold_ladder[1], branch_3d, window):
        first_unstable = next(i for i, pt in enumerate(branch.points) if not pt.stable)
        assert all(pt.stable for pt in branch.points[: branch.fold_index])
        assert branch.fold_index <= first_unstable
    assert branch_3d.fold_detected and branch_3d.peaks[branch_3d.fold_index] == 1.5
    assert window.fold_index == 0 and not window.fold_detected


def test_window_past_the_fold_estimates_no_lambda_star():
    # (3, 0.5) from m = 3: every point is unstable, so lam's turn at m = 5.5
    # brackets no fold, and the estimate is only the largest lam traced.
    cfg = ContinuationConfig(params=ProblemParams(3, 0.5), grid=RadialGrid.graded(64),
                             peak_start=3.0, peak_end=7.0, peak_step=0.5)
    branch = trace_branch(cfg)
    assert not any(pt.stable for pt in branch.points)
    assert not branch.fold_detected
    assert branch.lambda_star_estimate == branch.lams.max()


def test_fold_is_where_the_stability_eigenvalue_vanishes():
    # Newton and the stability pencil share one discretization, the Galerkin
    # energy form, so the fold of lam(m) is where the pencil turns singular:
    # the zero of mu(m) and the zero of dlam/dm coincide.  dlam/dm is taken
    # by central differences with h = 1e-3, whose O(h^2) bias (3e-7 in m at
    # N = 64, 128 and 256) is what the two may differ by.
    cfg = ContinuationConfig(params=ProblemParams(1, 0.5), grid=RadialGrid.graded(64),
                             peak_start=0.05, peak_end=2.0, peak_step=0.05)
    points = trace_branch(cfg).points

    def solve(m):
        return solve_at_peak(cfg, m, warm_start=min(points, key=lambda pt: abs(pt.peak - m)))

    def secant(f, a, b):
        fa, fb = f(a), f(b)
        for _ in range(30):
            if abs(b - a) <= 1e-12 or fb == fa:
                break
            a, b, fa = b, b - fb * (b - a) / (fb - fa), fb
            fb = f(b)
        return b

    first = next(k for k, pt in enumerate(points) if pt.stability_eig < 0.0)
    m_mu = secant(lambda m: solve(m).stability_eig, points[first - 1].peak, points[first].peak)
    h = 1e-3
    fold = int(np.argmax([pt.lam for pt in points]))
    m_fold = secant(lambda m: (solve(m + h).lam - solve(m - h).lam) / (2.0 * h),
                    points[fold - 1].peak, points[fold + 1].peak)
    assert abs(m_mu - m_fold) <= 1e-6


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
    # The replay contract: every stored value comes back bit for bit, on the
    # operator the branch was traced on and on a fresh assembly of it.
    fresh = assemble(op.params, op.grid)
    for pt in branch.points:
        assert stability_eigenvalue(op, pt) == pt.stability_eig
        assert stability_eigenvalue(fresh, pt) == pt.stability_eig
    pt = branch.points[3]
    for other in (operator_cache(1, 0.5, 64), operator_cache(1, 0.5, 96, grading=3.0)):
        with pytest.raises(DomainError, match="grid"):
            stability_eigenvalue(other, pt)


def dense_mass(op, values):
    """The tridiagonal e^u mass as a dense matrix, from its bands."""
    _, diag, off = op.exp_mass(values)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def dense_pencil_eig(op, pt):
    """Smallest eigenvalue of (S - lam E) eta = mu B eta, B built from
    ``op.mass``, by scipy's generalized ``eigh``, polished by the Rayleigh
    quotient of its eigenvector.  eigh's own roundoff is ~eps times the
    pencil's largest eigenvalue (5.9e4 at (3, 0.5), graded(256)), and it
    moves mu by up to 5e-11 with the LAPACK driver; the quotient carries
    the square of the eigenvector's error, within 5e-15 of a long-double
    quotient in every case below."""
    _, diag, off = op.mass
    mass = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    pencil = op.stability_form - pt.lam * dense_mass(op, pt.profile.values)
    x = eigh(pencil, mass, subset_by_index=(0, 0))[1][:, 0]
    return (x @ pencil @ x) / (x @ mass @ x)


def test_stability_eigenvalue_matches_dense_solver(branch_1d, operator_cache, monkeypatch):
    def chain(op, peaks):
        """Warm-started points at the given center values, on ``op``."""
        cfg = ContinuationConfig(params=op.params, grid=op.grid, peak_end=peaks[-1] + 1.0)
        points = [solve_at_peak(cfg, peaks[0], op=op)]
        for m in peaks[1:]:
            points.append(solve_at_peak(cfg, m, warm_start=points[-1], op=op))
        return points

    op, branch = branch_1d
    # Every point of the 1-d branch: mu < 0 at each one past the fold.
    post_fold = branch.points[branch.fold_index + 1 :]
    assert post_fold and max(pt.stability_eig for pt in post_fold) < 0.0
    cases = [(op, branch.points)] + [
        (other, chain(other, peaks)) for other, peaks in (
            (operator_cache(7, 0.5, 512), [1.0, 2.0, 3.0, 4.0]),
            (operator_cache(3, 0.5, 128, grading=3.0), [0.5, 1.0, 1.5, 2.0]),
            (operator_cache(1, 0.3, 1024), [1.0, 2.0]),
        )
    ]
    for op, points in cases:
        for pt in points:
            dense = dense_pencil_eig(op, pt)
            assert pt.stability_eig == pytest.approx(dense, abs=1e-9 * max(1.0, abs(dense)))
    # (12, 0.5): B's bands reach down to r^11 h, ~1e-44 on graded(96), at
    # m = 6 there, and along graded(256) up to m = 9.  (1, 0.05): s near 0,
    # where a lumped mass has grid-scale modes below the smooth one.
    # (3, 0.5) on graded(256) up to its depth, Morse index 5 at m = 11:
    # past m = 9 Davidson needs more than its 64 vectors.
    restarting = operator_cache(3, 0.5, 256)
    deep = chain(restarting, [float(m) for m in range(1, 12)])
    cases = [(restarting, deep)] + [
        (other, chain(other, peaks)) for other, peaks in (
            (assemble(ProblemParams(12, 0.5), RadialGrid.graded(96)), [6.0]),
            (operator_cache(12, 0.5, 256), [float(m) for m in range(1, 10)]),
            (operator_cache(1, 0.05, 256), [0.05 * k for k in range(1, 21)]),
        )
    ]
    for op, points in cases:
        for pt in points:
            dense = dense_pencil_eig(op, pt)
            assert abs(pt.stability_eig - dense) <= 1e-12 * max(1.0, abs(dense))
    # Without restarts, at least one of the (3, 0.5) pencils runs out of basis.
    monkeypatch.setattr(gelfand, "_EIG_RESTARTS", 0)
    failed = 0
    for pt in deep:
        try:
            stability_eigenvalue(restarting, pt)
        except EigenSolveError:
            failed += 1
    assert failed > 0


def test_stability_sign_does_not_depend_on_the_mass(fold_ladder):
    # Sylvester's law of inertia: mu < 0 exactly when S - lam E has a
    # negative eigenvalue, whichever SPD mass normalizes the pencil.
    op, branch = fold_ladder
    for pt in branch.points:
        plain = eigvalsh(op.stability_form - pt.lam * dense_mass(op, pt.profile.values)).min()
        assert np.sign(pt.stability_eig) == np.sign(plain)


def test_small_s_pencil_has_no_grid_scale_mode(operator_cache):
    # Under the consistent mass mu is the smooth mode at small s, 0.59496 on
    # both grids.  A diagonal (lumped) mass has grid-scale modes below it
    # here, and its mu reads 0.444 and 0.484.
    mus = [solve_at_peak(ContinuationConfig(params=op.params, grid=op.grid), 0.4, op=op).stability_eig
           for op in (operator_cache(1, 0.05, 128), operator_cache(1, 0.05, 256))]
    assert abs(mus[0] - mus[1]) <= 2e-6
    assert mus[1] == pytest.approx(0.594958, abs=1e-6)


@pytest.mark.parametrize("n", [1, 3, 10])
def test_weighted_mass_closed_form(operator_cache, n):
    op = operator_cache(n, 0.5, 64)
    nodes = op.grid.nodes
    mass0 = dense_mass(op, np.zeros(nodes.size))
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
        mass_c = dense_mass(op, np.full(nodes.size, c))
        assert np.abs(mass_c - math.exp(c) * mass0).max() <= 1e-13 * math.exp(c) * scale
    # Nodal values of u = 1 - 2 r^2.  The documented interpolant: u_h linear
    # in r on every panel, the origin panel included.
    values = 1.0 - 2.0 * nodes**2
    got = dense_mass(op, values).sum()
    with mpmath.workdps(30):
        r = [mpmath.mpf(float(x)) for x in nodes]
        v = [mpmath.mpf(float(x)) for x in values]
        total = 0
        for k in range(len(r) - 1):
            slope = (v[k + 1] - v[k]) / (r[k + 1] - r[k])
            # 1^T M 1 weighs the density by (1 - phi_N)^2 (see above).
            hat = (lambda x: 1) if k < len(r) - 2 else (lambda x: ((1 - x) / (1 - r[k])) ** 2)
            total += mpmath.quad(
                lambda x, k=k, slope=slope, hat=hat:
                    hat(x) * mpmath.exp(v[k] + slope * (x - r[k])) * x ** (n - 1),
                [r[k], r[k + 1]])
        exact = float(area * total)
    assert got == pytest.approx(exact, rel=1e-13, abs=0.0)


def test_gauss_legendre_rules_are_computed_once_per_order(monkeypatch):
    """Every Gauss-Legendre rule is _gauss_jacobi(q, 0.0), read from its
    cache: over a power-tail apply at N = 1024, whose exterior quadrature
    runs many blocks of rows, and two solves with their pencils, each rule is
    computed once, and nothing but the cache computes one."""
    calls = []
    compute = fraclap._gauss_jacobi.__wrapped__

    def counting(q, beta):
        calls.append((q, beta))
        return compute(q, beta)

    cached = functools.lru_cache(maxsize=64)(counting)
    monkeypatch.setattr(fraclap, "_gauss_jacobi", cached)
    op = assemble(ProblemParams(1, 0.3), RadialGrid.graded(1024))
    op.apply_interior(np.cos(op.grid.interior), TailSpec.power(0.2))
    cfg = ContinuationConfig(params=ProblemParams(3, 0.5), grid=RadialGrid.graded(64))
    solve_at_peak(cfg, 1.0, warm_start=solve_at_peak(cfg, 0.5))
    legendre = [q for q, beta in calls if beta == 0.0]
    assert {fraclap._TAIL_ORDER, fraclap._SLIVER_ORDER, fraclap._PANEL_ORDER - 1} <= set(legendre)
    assert sorted(calls) == sorted(set(calls))
    # A call past the cache (through __wrapped__) is a computation but no miss.
    assert cached.cache_info().misses == len(calls)


def test_stability_eigenvalue_overflow_is_typed(branch_1d):
    op, branch = branch_1d
    pt = branch.points[3]
    values = pt.profile.values.copy()
    values[values.size // 2] = 800.0
    # Finite nodal data whose e^u overflows a double.
    hot = dataclasses.replace(pt, profile=dataclasses.replace(pt.profile, values=values))
    with pytest.raises(EigenSolveError):
        stability_eigenvalue(op, hot)


def test_stability_eigenvalue_budget_is_typed(branch_1d, monkeypatch):
    op, branch = branch_1d
    # Two basis vectors and one restart from the lowest Ritz vector: three
    # steps, too few for the Ritz error bound.
    monkeypatch.setattr(gelfand, "_EIG_MAX_BASIS", 2)
    monkeypatch.setattr(gelfand, "_EIG_RESTARTS", 1)
    with pytest.raises(EigenSolveError, match="did not converge in 2 basis vectors and 1 restarts"):
        stability_eigenvalue(op, branch.points[3])
    cfg = ContinuationConfig(params=op.params, grid=op.grid, peak_start=0.25, peak_end=1.0)
    with pytest.raises(BranchTraceError) as excinfo:
        trace_branch(cfg)
    assert isinstance(excinfo.value.__cause__, EigenSolveError)
    assert excinfo.value.partial.params == op.params
    assert excinfo.value.partial.points == []


def _ladder(n, s, panels, peak_end):
    """Center values 1, 2, ..., peak_end on graded(panels)."""
    return ContinuationConfig(params=ProblemParams(n, s), grid=RadialGrid.graded(panels),
                              peak_start=1.0, peak_end=peak_end, peak_step=1.0)


def _summary(points):
    return [(pt.peak, pt.lam, pt.stability_eig, pt.newton_iters, pt.residual_norm) for pt in points]


def one_pencil_davidson(op, mass, lam):
    """The Davidson iteration on a single pencil, one vector at a time, as
    the library ran it before it stacked pencils (success path only)."""
    band0, band1 = lam * mass[1], lam * mass[2]
    _, mass0, mass1 = op.mass
    ni = op.n_interior
    size = min(gelfand._EIG_MAX_BASIS, ni)
    basis, weighed, image = (np.empty((size, ni)) for _ in range(3))
    proj = np.empty((size, size))
    t = _torsion(op)
    k = restarts = 0
    while True:
        bt = gelfand._tridiagonal(mass0, mass1, t)
        norm = math.sqrt(float(t @ bt))
        basis[k], weighed[k] = t / norm, bt / norm
        image[k] = op.stability_form @ basis[k] - gelfand._tridiagonal(band0, band1, basis[k])
        proj[k, : k + 1] = proj[: k + 1, k] = basis[: k + 1] @ image[k]
        k += 1
        theta, vecs = np.linalg.eigh(proj[:k, :k])
        y = vecs[:, 0]
        resid = y @ image[:k] - theta[0] * (y @ weighed[:k])
        t = op._energy_inverse @ resid
        if k == ni or (k > 1 and resid @ t <= np.finfo(float).eps * (theta[1] - theta[0])):
            return float(theta[0])
        if k == size:
            assert restarts < gelfand._EIG_RESTARTS
            keep = size // 2
            lowest = vecs[:, :keep].T
            basis[:keep], weighed[:keep], image[:keep] = (lowest @ basis[:k], lowest @ weighed[:k],
                                                          lowest @ image[:k])
            proj[:keep, :keep] = np.diag(theta[:keep])
            k, restarts = keep, restarts + 1
        for _ in range(2):
            t -= (weighed[:k] @ t) @ basis[:k]


def test_batched_pencils_match_one_pencil_solves(fold_ladder):
    # Every mu of a stack is bitwise the one its pencil gives alone, in
    # either order, and the one the unstacked iteration gives; so is every
    # mu trace_branch stored.  On the benchmark's fold ladder, on (3, 0.5)
    # up to Morse index 5, where the stack restarts past its 64 vectors at
    # m = 9, 10 and 11, and on (12, 0.5), whose pencils take 13-24 steps.
    cases = [fold_ladder] + [(cfg.operator(), trace_branch(cfg))
                             for cfg in (_ladder(3, 0.5, 256, 11.0), _ladder(12, 0.5, 128, 8.0))]
    for op, branch in cases:
        pencils = [(op.exp_mass(pt.profile.values), pt.lam) for pt in branch.points]
        alone = [gelfand._smallest_pencil_eigs(op, [pencil])[0] for pencil in pencils]
        assert alone == [one_pencil_davidson(op, *pencil) for pencil in pencils]
        assert alone == [pt.stability_eig for pt in branch.points]
        assert gelfand._smallest_pencil_eigs(op, pencils) == alone
        assert gelfand._smallest_pencil_eigs(op, pencils[::-1]) == alone[::-1]


def _stack(op):
    """Pencils per Davidson stack in a trace on ``op``'s grid."""
    return op._block_rows(3 * gelfand._EIG_FIRST_ROWS * op.n_interior, gelfand._EIG_STACK_BLOCKS)


def _stack_sizes(monkeypatch):
    """The sizes of the stacks gelfand's pencil solver is handed from now on."""
    sizes = []
    solve = gelfand._smallest_pencil_eigs

    def counting(op, pencils):
        sizes.append(len(pencils))
        return solve(op, pencils)

    monkeypatch.setattr(gelfand, "_smallest_pencil_eigs", counting)
    return sizes


def _trace_ladder(op):
    return trace_branch(ContinuationConfig(params=op.params, grid=op.grid, peak_start=0.05,
                                           peak_end=3.0, peak_step=0.05))


def test_trace_solves_its_pencils_in_batches(fold_ladder, monkeypatch):
    # The ladder's 60 pencils go to the solver a stack at a time, not one per
    # point: as many as keep their three 8-row basis arrays within 512 KiB,
    # two of fraclap's blocks, which is 10 at N = 256.
    op, branch = fold_ladder
    batch = _stack(op)
    budget = gelfand._EIG_STACK_BLOCKS * fraclap._BLOCK_ENTRIES * 8    # bytes
    assert budget == 512 * 1024 and batch == 10
    assert 3 * batch * gelfand._EIG_FIRST_ROWS * op.n_interior * 8 <= budget
    assert 3 * (batch + 1) * gelfand._EIG_FIRST_ROWS * op.n_interior * 8 > budget
    sizes = _stack_sizes(monkeypatch)
    traced = _trace_ladder(op)
    assert len(sizes) == math.ceil(len(branch.points) / batch)
    assert sizes[:-1] == [batch] * (len(sizes) - 1)
    assert _summary(traced.points) == _summary(branch.points)


@pytest.mark.parametrize("blocks, sizes", [(0, [1] * 60), (2, [10] * 6), (12, [60])],
                         ids=["one-pencil", "default", "whole-ladder"])
def test_pencil_stack_size_leaves_the_branch_alone(fold_ladder, monkeypatch, blocks, sizes):
    # A budget that holds no pencil still stacks one; 12 blocks hold all 60.
    # Every value of the trace, the fold estimate too, is the default's.
    op, branch = fold_ladder
    monkeypatch.setattr(gelfand, "_EIG_STACK_BLOCKS", blocks)
    stacks = _stack_sizes(monkeypatch)
    traced = _trace_ladder(op)
    assert stacks == sizes
    assert _summary(traced.points) == _summary(branch.points)
    assert traced.to_json() == branch.to_json()


def test_trace_failure_inside_a_batch_is_the_chains(monkeypatch):
    # With 12 basis vectors the (3, 0.5) pencil runs out of restarts at
    # m = 8, inside a batch whose later points Newton has solved already.
    # The trace reports what a chain of solve_at_peak calls meets first.
    monkeypatch.setattr(gelfand, "_EIG_MAX_BASIS", 12)
    cfg = _ladder(3, 0.5, 256, 11.0)
    op = cfg.operator()
    chain = []
    with pytest.raises(EigenSolveError) as alone:
        for m in range(1, 12):
            chain.append(solve_at_peak(cfg, float(m), warm_start=chain[-1] if chain else None))
    failed = len(chain) + 1.0
    batch = _stack(op)
    assert failed == 8.0 and 0 < len(chain) % batch < batch - 1
    message = f"continuation stopped at center value m={failed:.6g}: {alone.value}"

    def check(traced):
        assert str(traced) == message
        assert type(traced.__cause__) is EigenSolveError
        assert str(traced.__cause__) == str(alone.value)
        assert _summary(traced.partial.points) == _summary(chain)

    with pytest.raises(BranchTraceError) as excinfo:
        trace_branch(cfg)
    check(excinfo.value)
    # A Newton failure later in the same batch does not mask it.
    newton = _newton_solve

    def failing_past(op, m, u0, lam0, tol):
        if m > failed:
            raise NoConvergenceError(f"no solve at m={m}", op.grid.profile(u0), lam0, 1.0, 0)
        return newton(op, m, u0, lam0, tol)

    monkeypatch.setattr(gelfand, "_newton_solve", failing_past)
    with pytest.raises(BranchTraceError) as excinfo:
        trace_branch(cfg)
    check(excinfo.value)
    # Without the pencil failure, the Newton failure stops the trace.
    monkeypatch.setattr(gelfand, "_EIG_MAX_BASIS", 64)
    with pytest.raises(BranchTraceError, match="m=9: no solve at m=9") as excinfo:
        trace_branch(cfg)
    assert isinstance(excinfo.value.__cause__, NoConvergenceError)
    assert len(excinfo.value.partial.points) == 8


def test_rayleigh_ritz_failure_stays_with_its_pencil(fold_ladder, monkeypatch):
    # A stacked eigh that fails names no member: the stack is solved again
    # one pencil at a time, so the failure lands on its own pencil and the
    # others keep their values.
    op, branch = fold_ladder
    points = branch.points[:5]
    pencils = [(op.exp_mass(pt.profile.values), pt.lam) for pt in points]
    eigh = np.linalg.eigh
    first = []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: first.append(a[0, 0, 0]) or eigh(a))
    gelfand._smallest_pencil_eigs(op, pencils[2:3])

    def failing(a):
        if a.shape[-1] == 3 and np.any(a[:, 0, 0] == first[0]):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", failing)
    mus = gelfand._smallest_pencil_eigs(op, pencils)
    assert mus[:2] + mus[3:] == [pt.stability_eig for pt in points[:2] + points[3:]]
    assert isinstance(mus[2], EigenSolveError)
    assert str(mus[2]) == "Rayleigh-Ritz eigensolve failed: Eigenvalues did not converge"
    assert isinstance(mus[2].__cause__, np.linalg.LinAlgError)


def test_small_peak_slope_matches_torsion(operator_cache):
    op = operator_cache(3, 0.5, 128)
    cfg = ContinuationConfig(params=ProblemParams(3, 0.5), grid=op.grid)
    pt1 = solve_at_peak(cfg, 0.01, op=op)
    pt2 = solve_at_peak(cfg, 0.02, op=op)
    # Richardson in m kills the O(m) bias of the secant slope.
    slope = 2.0 * (pt1.lam / 0.01) - pt2.lam / 0.02
    assert slope == pytest.approx(1.0 / torsion_center_value(ProblemParams(3, 0.5)), rel=2e-2)


def test_trace_branch_reports_partial_progress(partial_12):
    _, exc = partial_12
    assert "center value m=10" in str(exc)
    assert isinstance(exc.__cause__, GridDepthError)
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
    cfg = ContinuationConfig(params=ProblemParams(12, 0.5), grid=op.grid, peak_end=8.0)
    pt = solve_at_peak(cfg, 6.0, op=op)
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


def test_singular_diagnostic_against_reference(branch_1d, partial_12):
    """probe_ratios against linear interpolation in log r between the two
    nodes around r = 0.01, and threshold_radius against a scan of the
    leading run of ratios above 1 - sigma."""
    for branch, sigma in ((branch_1d[1], 0.5), (branch_1d[1], 0.99), (partial_12[1].partial, 0.5)):
        report = singular_profile_diagnostic(branch, sigma)
        s = branch.params.s
        want = []
        for pt in sorted(branch.points, key=lambda pt: pt.peak)[-3:]:
            r = pt.profile.grid.interior
            q = pt.profile.interior / (2.0 * s * np.log(1.0 / r))
            j = int(np.searchsorted(r, 0.01))   # r[j - 1] < 0.01 <= r[j]
            t = (math.log(0.01) - math.log(r[j - 1])) / (math.log(r[j]) - math.log(r[j - 1]))
            want.append((1.0 - t) * q[j - 1] + t * q[j])
        assert report.probe_ratios.size == 3
        assert np.abs(report.probe_ratios - np.array(want)).max() <= 1e-14
        threshold = None
        for r_val, q_val in zip(report.radii, report.ratios):
            if q_val <= 1.0 - sigma:
                break
            threshold = float(r_val)
        assert report.threshold_radius == threshold


def test_singular_diagnostic_validation(branch_1d):
    _, branch = branch_1d
    for sigma in (0.0, 1.0, -0.5):
        with pytest.raises(DomainError):
            singular_profile_diagnostic(branch, sigma)
    with pytest.raises(DomainError):
        singular_profile_diagnostic(Branch(params=ProblemParams(1, 0.5)), 0.5)


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

    # Scalar reference: the smoothstep's arithmetic is unchanged, numpy's pow
    # may round differently by an ulp.
    def reference(x, rho0=0.5, rho1=0.75):
        if x >= rho1:
            return 0.0
        t = max(0.0, (x - rho0) / (rho1 - rho0))
        return x**expo * (1.0 - t * t * t * (10.0 + t * (-15.0 + 6.0 * t)))

    assert np.allclose(psi.values, [reference(x) for x in r], rtol=4e-16, atol=0.0)
    assert proof_test_function(ProblemParams(3, 0.5), op.grid, 0.5, 0.1).singular_at_origin
    with pytest.raises(DomainError):
        proof_test_function(ProblemParams(1, 0.5), op.grid, 1.0, 0.1)
    for eps in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            proof_test_function(ProblemParams(1, 0.5), op.grid, 0.5, eps)


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


def test_inequality_lhs_is_the_operator_pairing_at_solved_points(branch_1d):
    # lhs = lam int e^u psi^2 from the solved equation; at a solved point it
    # is the energy form's pairing of u with psi^2, up to the residual.
    op, branch = branch_1d
    psi = proof_test_function(op.params, op.grid, 0.5, 0.1)
    for pt in branch.points:
        if not pt.stable:
            continue
        want = float(psi.interior**2 @ (op.stability_form @ pt.profile.interior))
        lhs, _ = stability_inequality_check(op, pt, 0.5, 0.1)
        assert type(lhs) is float
        assert lhs == pytest.approx(want, rel=1e-9, abs=0.0)


def test_inequality_rejects_point_on_another_grid(branch_1d, operator_cache):
    # Same node count, other grading: the point's values sit on other radii.
    _, branch = branch_1d
    with pytest.raises(DomainError, match="grid"):
        stability_inequality_check(operator_cache(1, 0.5, 96, grading=3.0),
                                   branch.points[1], 0.5, 0.1)


def test_inequality_rejects_unstable_point(branch_1d):
    op, branch = branch_1d
    with pytest.raises(DomainError):
        stability_inequality_check(op, branch.points[-1], 0.5, 0.1)


def _one_point_sides(op, pt, rho0, eps):
    """Both sides of the energy inequality, built for this point and eps alone."""
    psi = proof_test_function(op.params, op.grid, rho0, eps)
    lhs = float(pt.lam * (psi.interior**2 @ op.exp_mass(pt.profile.values)[0]))
    return lhs, quadratic_form(op, psi, psi)


def test_batched_inequality_is_the_one_point_check(fold_ladder):
    # branch --verify's sides at the ladder's 22 pre-fold points and its
    # three eps, in one call: each bitwise the one-point check's, in any
    # order of the points.
    op, branch = fold_ladder
    pre_fold = branch.points[: branch.fold_index]
    assert len(pre_fold) == 22
    want = [[_one_point_sides(op, pt, 0.5, eps) for eps in _VERIFY_EPS] for pt in pre_fold]
    assert [[stability_inequality_check(op, pt, 0.5, eps) for eps in _VERIFY_EPS]
            for pt in pre_fold] == want
    assert gelfand._inequality_sides(op, pre_fold, 0.5, _VERIFY_EPS) == want
    order = np.random.default_rng(3).permutation(len(pre_fold))
    shuffled = gelfand._inequality_sides(op, [pre_fold[i] for i in order], 0.5, _VERIFY_EPS)
    assert shuffled == [want[i] for i in order]
    assert gelfand._inequality_sides(op, pre_fold[::-1], 0.5, _VERIFY_EPS[::-1]) == [
        row[::-1] for row in want[::-1]]


def test_batched_inequality_refuses_before_any_work(fold_ladder, monkeypatch):
    # An unstable point, or one on another grid, anywhere in the list is
    # refused with the one-point check's error, before any test function
    # or e^u load is built.
    op, branch = fold_ladder
    pre_fold = branch.points[: branch.fold_index]
    other = fraclap.OperatorMatrix(params=op.params, grid=RadialGrid.graded(256, grading=3.0))
    elsewhere = dataclasses.replace(pre_fold[0],
                                    profile=other.grid.profile(pre_fold[0].profile.interior))
    built = []
    monkeypatch.setattr(gelfand, "proof_test_function", lambda *a: built.append(a))
    monkeypatch.setattr(fraclap.OperatorMatrix, "exp_mass", lambda self, v: built.append(v))
    for bad, check_op in ((branch.points[-1], op), (elsewhere, op), (pre_fold[0], other)):
        with pytest.raises(DomainError) as alone:
            stability_inequality_check(check_op, bad, 0.5, 0.1)
        for points in ([bad] + pre_fold[1:], pre_fold[1:] + [bad]):
            with pytest.raises(DomainError) as batched:
                gelfand._inequality_sides(check_op, points, 0.5, _VERIFY_EPS)
            assert str(batched.value) == str(alone.value)
    assert built == []


def test_singular_residual_decreases_under_refinement():
    p = ProblemParams(3, 0.5)
    res = [singular_solution_residual(p, RadialGrid.graded(n)) for n in (128, 256)]
    assert res[1] < res[0]
    assert res[1] < 1e-3
    with pytest.raises(DomainError):
        singular_solution_residual(ProblemParams(1, 0.7), RadialGrid.graded(32))
