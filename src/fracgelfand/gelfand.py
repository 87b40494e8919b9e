"""Nonlinear solver layer: minimal-branch continuation for (-Delta)^s u = lam e^u.

The solver is Dirichlet-only, as is the problem: u = 0 outside the unit ball,
so every residual uses the zero-exterior operator and every profile ends at 0.

The branch is parametrized by the center value m = u(0) rather than lam: lam
folds at the extremal parameter, m does not.  Each solve treats lam as an
extra Newton unknown closed by the center constraint, which keeps the
augmented Jacobian square and well conditioned through the fold.  Stability of
a computed point is the sign of the smallest eigenvalue of the symmetric
pencil (S - lam E) eta = mu M eta with S the energy form, E the e^u-weighted
radial mass and M the plain radial mass, found by one LAPACK symmetric
eigensolve (deterministic: no random start).

Also provides the diagnostics used to probe the singular regime: the
log-profile ratio along a branch, the proof-style test function built from a
negative power core and a quintic cutoff, the two-sided energy inequality for
stable points, and the residual of the exact singular solution log r^{-2s}.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .constants import DomainError, ProblemParams, lambda0
from .fraclap import (
    OperatorMatrix,
    RadialFunction,
    RadialGrid,
    TailSpec,
    assemble,
    origin_fold_weights,
    quadratic_form,
    sphere_area,
)
from .specfun import log_gamma

__all__ = [
    "BranchPoint",
    "Branch",
    "ContinuationConfig",
    "NoConvergenceError",
    "InfeasibleError",
    "BranchTraceError",
    "EigenSolveError",
    "SingularProfileReport",
    "torsion_center_value",
    "solve_at_peak",
    "trace_branch",
    "stability_eigenvalue",
    "proof_test_function",
    "stability_inequality_check",
    "singular_profile_diagnostic",
    "singular_solution_residual",
]

_STABILITY_TOL = 1e-6
_MAX_NEWTON_ITERS = 50
_MAX_PEAK_POINTS = 10_000   # largest number of center values one trace may solve
_PROBE_RADIUS = 0.01
_ZERO_TAIL = TailSpec.zero()


class NoConvergenceError(RuntimeError):
    """Newton failed within the iteration budget; carries the last iterate."""

    def __init__(self, message: str, profile: RadialFunction, lam: float,
                 residual_norm: float, iterations: int):
        super().__init__(message)
        self.profile = profile
        self.lam = lam
        self.residual_norm = residual_norm
        self.iterations = iterations


class InfeasibleError(RuntimeError):
    """A converged state violated lam > 0."""

    def __init__(self, message: str, lam: float):
        super().__init__(message)
        self.lam = lam


class BranchTraceError(RuntimeError):
    """Continuation aborted; carries the partial branch traced so far."""

    def __init__(self, message: str, partial: "Branch"):
        super().__init__(message)
        self.partial = partial


class EigenSolveError(RuntimeError):
    """Stability pencil was non-finite or its eigensolve failed."""


def torsion_center_value(p: ProblemParams) -> float:
    """Center value of the solution of (-Delta)^s z = 1 in the unit ball.

    z = (1-r^2)^s Gamma(n/2) / (2^{2s} Gamma(1+s) Gamma((n+2s)/2)); the small-m
    branch slope is lam/m -> 1/z(0).
    """
    logz = (
        log_gamma(0.5 * p.n)
        - 2.0 * p.s * math.log(2.0)
        - log_gamma(1.0 + p.s)
        - log_gamma(0.5 * (p.n + 2.0 * p.s))
    )
    return math.exp(logz)


@dataclass
class BranchPoint:
    """One solved state on the continuation branch."""

    lam: float
    profile: RadialFunction
    peak: float
    stability_eig: float
    newton_iters: int
    residual_norm: float

    @property
    def stable(self) -> bool:
        """Nonnegative stability eigenvalue, up to _STABILITY_TOL."""
        return self.stability_eig >= -_STABILITY_TOL


@dataclass
class Branch:
    """Ordered continuation output (points by increasing peak)."""

    points: list[BranchPoint] = field(default_factory=list)
    params: ProblemParams | None = None

    @property
    def peaks(self) -> np.ndarray:
        return np.array([pt.peak for pt in self.points])

    @property
    def lams(self) -> np.ndarray:
        return np.array([pt.lam for pt in self.points])

    @property
    def fold_detected(self) -> bool:
        """True when lam attains an interior maximum along the branch."""
        lams = self.lams
        if lams.size < 3:
            return False
        imax = int(np.argmax(lams))
        return bool(imax < lams.size - 1 and lams[imax + 1] < lams[imax])

    @property
    def fold_index(self) -> int:
        return int(np.argmax(self.lams))

    @property
    def lambda_star_estimate(self) -> float:
        """Max computed lam, refined by the vertex of a quadratic fit in m
        through the three points nearest the fold when one is bracketed."""
        lams = self.lams
        if lams.size == 0:
            return math.nan
        best = float(lams.max())
        i = self.fold_index
        if 0 < i < lams.size - 1:
            m = self.peaks[i - 1 : i + 2]
            y = lams[i - 1 : i + 2]
            coef = np.polyfit(m, y, 2)
            if coef[0] < 0.0:
                vertex = float(np.polyval(coef, -coef[1] / (2.0 * coef[0])))
                best = max(best, vertex)
        return best

    def to_csv(self) -> str:
        lines = ["peak,lambda,stability_eig,residual_norm,newton_iters"]
        for pt in self.points:
            lines.append(
                f"{pt.peak:.12g},{pt.lam:.12g},{pt.stability_eig:.12g},"
                f"{pt.residual_norm:.12g},{pt.newton_iters}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        lam_star = self.lambda_star_estimate
        data = {
            "lambda_star_estimate": lam_star if math.isfinite(lam_star) else None,
            "fold_detected": self.fold_detected,
            "points": [
                {"peak": pt.peak, "lambda": pt.lam, "stability_eig": pt.stability_eig,
                 "residual_norm": pt.residual_norm, "newton_iters": pt.newton_iters}
                for pt in self.points
            ],
        }
        if self.params is not None:
            data["n"] = self.params.n
            data["s"] = self.params.s
        return json.dumps(data, indent=2)


@dataclass
class ContinuationConfig:
    """Settings for one branch trace."""

    params: ProblemParams
    grid: RadialGrid
    peak_start: float = 0.1
    peak_end: float = 6.0
    peak_step: float = 0.25
    newton_tol: float = 1e-10
    _op: OperatorMatrix | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.peak_start < self.peak_end:
            raise DomainError("need 0 < peak_start < peak_end")
        if not 0.0 < self.peak_step < math.inf:
            raise DomainError("peak_step must be finite and positive")
        if not 0.0 < self.newton_tol < math.inf:
            raise DomainError("newton_tol must be finite and positive")
        # The point count np.arange gives in trace_branch, without allocating.
        points = (self.peak_end + 0.5 * self.peak_step - self.peak_start) / self.peak_step
        if points > _MAX_PEAK_POINTS:
            raise DomainError(f"peak range needs ~{points:.3g} solves, above the budget "
                              f"of {_MAX_PEAK_POINTS} (peak_step {self.peak_step:g})")

    def operator(self) -> OperatorMatrix:
        if self._op is None:
            self._op = assemble(self.params, self.grid)
        return self._op


def _newton_solve(op: OperatorMatrix, m: float, u0: np.ndarray, lam0: float,
                  tol: float) -> tuple[np.ndarray, float, float, int]:
    """Augmented Newton for (operator u) - lam e^u = 0 with center value m."""
    e1, e2 = origin_fold_weights(op.grid)
    amat = op.matrix
    ni = op.n_interior
    diag = np.arange(ni)
    u = u0.copy()
    lam = lam0

    def residual(uv: np.ndarray, lv: float) -> np.ndarray:
        out = np.empty(ni + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            out[:ni] = op.apply_interior(uv, _ZERO_TAIL) - lv * np.exp(uv)
        out[ni] = e1 * uv[0] + e2 * uv[1] - m
        return out

    fvec = residual(u, lam)
    fnorm = float(np.abs(fvec).max())
    iters = 0
    while fnorm > tol and iters < _MAX_NEWTON_ITERS:
        with np.errstate(over="ignore"):
            expu = np.exp(u)
        jac = np.zeros((ni + 1, ni + 1))
        jac[:ni, :ni] = amat
        jac[diag, diag] -= lam * expu
        jac[:ni, ni] = -expu
        jac[ni, 0] = e1
        jac[ni, 1] = e2
        try:
            step = np.linalg.solve(jac, -fvec)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(
                f"singular Newton Jacobian at center value m={m}",
                _as_profile(op, u), lam, fnorm, iters,
            ) from exc
        t = 1.0
        for _ in range(30):
            u_new = u + t * step[:ni]
            lam_new = lam + t * step[ni]
            f_new = residual(u_new, lam_new)
            fn_new = float(np.abs(f_new).max())
            if math.isfinite(fn_new) and fn_new < fnorm:
                break
            t *= 0.5
        else:
            raise NoConvergenceError(
                f"Newton line search stalled at m={m} (residual {fnorm:.3e})",
                _as_profile(op, u), lam, fnorm, iters,
            )
        u, lam, fvec, fnorm = u_new, lam_new, f_new, fn_new
        iters += 1

    if fnorm > tol:
        raise NoConvergenceError(
            f"Newton did not reach tol={tol:.1e} in {_MAX_NEWTON_ITERS} iterations at m={m} "
            f"(residual {fnorm:.3e})",
            _as_profile(op, u), lam, fnorm, iters,
        )
    if lam <= 0.0:
        raise InfeasibleError(f"converged state has lam = {lam:.6g} <= 0", lam)
    return u, lam, fnorm, iters


def _as_profile(op: OperatorMatrix, u_int: np.ndarray) -> RadialFunction:
    e1, e2 = origin_fold_weights(op.grid)
    values = np.zeros(op.grid.nodes.size)   # u = 0 at the boundary node
    values[1:-1] = u_int
    values[0] = e1 * u_int[0] + e2 * u_int[1]
    return RadialFunction(grid=op.grid, values=values)


_MASS_GAUSS = np.polynomial.legendre.leggauss(6)


def _weighted_mass(op: OperatorMatrix, values: np.ndarray) -> np.ndarray:
    """Consistent mass matrix with density e^u over the folded hat basis.

    u is interpolated linearly in log r on interior panels (exact for
    log-power profiles, where the density is r^{-2s}; a lumped diagonal pairs
    such densities with the innermost nodal values and overestimates the mass
    there by an O(1) factor, driving the stability pencil to -inf under
    refinement).  The origin panel uses the even-parabola extrapolation, so a
    singular value at r = 0 never enters.  All panels are integrated at once
    by 6-point Gauss.
    """
    nodes = op.grid.nodes
    n_basis = nodes.size
    xg, wg = _MASS_GAUSS
    e1, e2 = origin_fold_weights(op.grid)
    ra, rb = nodes[:-1, None], nodes[1:, None]
    half = 0.5 * (rb - ra)
    r = 0.5 * (ra + rb) + half * xg
    a0 = e1 * values[1] + e2 * values[2]
    b0 = (values[1] - a0) / nodes[1] ** 2
    beta = (values[2:] - values[1:-1]) / np.log(nodes[2:] / nodes[1:-1])
    dens = np.empty_like(r)
    dens[0] = np.exp(a0 + b0 * r[0] * r[0])
    dens[1:] = np.exp(values[1:-1, None]) * (r[1:] / ra[1:]) ** beta[:, None]
    common = sphere_area(op.params.n) * half * wg * r ** (op.params.n - 1) * dens
    rise = (r - ra) / (rb - ra)
    fall = 1.0 - rise
    diag_lo = np.einsum("ij,ij->i", common, fall * fall)
    diag_hi = np.einsum("ij,ij->i", common, rise * rise)
    cross = np.einsum("ij,ij->i", common, rise * fall)
    full = np.zeros((n_basis, n_basis))
    idx = np.arange(n_basis - 1)
    full[idx, idx] = diag_lo
    full[idx + 1, idx + 1] += diag_hi
    full[idx, idx + 1] = cross
    full[idx + 1, idx] = cross
    # origin fold congruence, then restrict to the interior basis
    full[1, :] += e1 * full[0, :]
    full[2, :] += e2 * full[0, :]
    full[:, 1] += e1 * full[:, 0]
    full[:, 2] += e2 * full[:, 0]
    return full[1 : n_basis - 1, 1 : n_basis - 1]


def _smallest_pencil_eig(op: OperatorMatrix, values: np.ndarray, lam: float) -> float:
    """Smallest mu of (S - lam E) eta = mu M eta, deterministic.

    M = diag(weights) is scaled out with D = M^{-1/2}, and the smallest
    eigenvalue of the symmetrized D (S - lam E) D comes from one LAPACK
    symmetric eigensolve (no random start).  A non-finite pencil (e^u
    overflow) or a LAPACK failure raises EigenSolveError.
    """
    from scipy.linalg import LinAlgError, eigh

    d = 1.0 / np.sqrt(op.weights)
    with np.errstate(over="ignore", invalid="ignore"):
        cmat = op.stability_form - lam * _weighted_mass(op, values)
        cmat = d[:, None] * cmat * d[None, :]
        cmat = 0.5 * (cmat + cmat.T)
    if not np.isfinite(cmat).all():
        raise EigenSolveError("stability pencil has non-finite entries (e^u overflow)")
    try:
        return float(eigh(cmat, eigvals_only=True, subset_by_index=[0, 0],
                          overwrite_a=True, check_finite=False)[0])
    except LinAlgError as exc:
        raise EigenSolveError(f"symmetric eigensolve failed: {exc}") from exc


def stability_eigenvalue(op: OperatorMatrix, point: BranchPoint) -> float:
    """Smallest eigenvalue of the stability pencil at a solved point."""
    if point.profile.grid.nodes.shape != op.grid.nodes.shape or not np.array_equal(
        point.profile.grid.nodes, op.grid.nodes
    ):
        raise DomainError("branch point grid does not match operator grid")
    return _smallest_pencil_eig(op, point.profile.values, point.lam)


def solve_at_peak(cfg: ContinuationConfig, m: float,
                  warm_start: BranchPoint | None = None,
                  op: OperatorMatrix | None = None) -> BranchPoint:
    """Solve the problem with prescribed center value u(0) = m.

    lam is recovered as part of the Newton solve.  Cold starts scale the
    torsion profile (operator response to the constant source), warm starts
    reuse the previous branch point.
    """
    if m <= 0.0:
        raise DomainError(f"center value must be positive, got {m}")
    operator = op if op is not None else cfg.operator()
    e1, e2 = origin_fold_weights(operator.grid)
    if warm_start is not None:
        u0 = warm_start.profile.interior.copy()
        center = e1 * u0[0] + e2 * u0[1]
        u0 += m - center
        lam0 = warm_start.lam
    else:
        z = np.linalg.solve(operator.matrix, np.ones(operator.n_interior))
        z0 = e1 * z[0] + e2 * z[1]
        u0 = (m / z0) * z
        lam0 = m / z0

    u, lam, fnorm, iters = _newton_solve(operator, m, u0, lam0, cfg.newton_tol)
    profile = _as_profile(operator, u)
    mu = _smallest_pencil_eig(operator, profile.values, lam)
    peak = e1 * u[0] + e2 * u[1]
    return BranchPoint(
        lam=lam, profile=profile, peak=peak, stability_eig=mu,
        newton_iters=iters, residual_norm=fnorm,
    )


def trace_branch(cfg: ContinuationConfig) -> Branch:
    """March the center value from peak_start to peak_end with warm starts."""
    peaks = np.arange(cfg.peak_start, cfg.peak_end + 0.5 * cfg.peak_step, cfg.peak_step)
    branch = Branch(params=cfg.params)
    previous: BranchPoint | None = None
    operator = cfg.operator()
    for m in peaks:
        try:
            point = solve_at_peak(cfg, float(m), warm_start=previous, op=operator)
        except (NoConvergenceError, InfeasibleError, EigenSolveError) as exc:
            raise BranchTraceError(
                f"continuation stopped at center value m={float(m):.6g}: {exc}", branch
            ) from exc
        branch.points.append(point)
        previous = point
    return branch


def proof_test_function(p: ProblemParams, grid: RadialGrid, rho0: float,
                        eps: float) -> RadialFunction:
    """Test profile r^{(2s-n+eps)/2} inside r < rho0, blended smoothly to 0.

    The blend is a quintic smoothstep between rho0 and (1+rho0)/2, giving a
    C^2 compactly supported function, singular at the origin whenever the
    exponent is negative.
    """
    if not 0.0 < rho0 < 1.0:
        raise DomainError(f"need 0 < rho0 < 1, got {rho0}")
    if eps <= 0.0:
        raise DomainError(f"need eps > 0, got {eps}")
    expo = 0.5 * (2.0 * p.s - p.n + eps)
    rho1 = 0.5 * (1.0 + rho0)

    def chi(r: float) -> float:
        if r <= rho0:
            return 1.0
        if r >= rho1:
            return 0.0
        t = (r - rho0) / (rho1 - rho0)
        return 1.0 - t * t * t * (10.0 + t * (-15.0 + 6.0 * t))

    def psi(r: float) -> float:
        c = chi(r)
        return 0.0 if c == 0.0 else r**expo * c

    return RadialFunction.from_callable(
        grid, psi, TailSpec.zero(), singular_at_origin=(expo < 0.0)
    )


def stability_inequality_check(op: OperatorMatrix, point: BranchPoint,
                               rho0: float, eps: float) -> tuple[float, float]:
    """Both sides of the stable-solution energy inequality.

    lhs = integral of u against the operator action on psi^2, rhs = energy of
    psi, with psi the proof test profile.  The lhs pairing is evaluated in its
    adjoint form (operator applied to the solved profile, weighted by psi^2):
    the two orderings agree as double integrals, but applying the discrete
    operator to psi^2 ~ r^{2s-n+eps} directly is dominated by origin
    discretization error at any fixed grid.  For a stable point the contract
    is lhs <= rhs up to quadrature tolerance.  Unstable input is rejected.
    """
    if not point.stable:
        raise DomainError(
            f"inequality check requires a stable point (stability_eig = "
            f"{point.stability_eig:.3e})"
        )
    psi = proof_test_function(op.params, op.grid, rho0, eps)
    action_u = op.apply_interior(point.profile.interior, point.profile.tail)
    lhs = float(np.dot(op.weights, psi.interior**2 * action_u))
    rhs = quadratic_form(op, psi, psi)
    return lhs, rhs


@dataclass(frozen=True)
class SingularProfileReport:
    """Log-profile comparison near the origin for the highest-peak point."""

    sigma: float
    radii: np.ndarray              # sampled nodes in (0, 0.1]
    ratios: np.ndarray             # u(r) / (2s log(1/r))
    threshold_radius: float | None # largest node below which ratio > 1 - sigma
    probe_radius: float
    probe_ratios: np.ndarray       # probe ratio for the three highest peaks
    increasing_trend: bool         # probe ratio grows with the peak


def _ratio_profile(point: BranchPoint, s: float) -> tuple[np.ndarray, np.ndarray]:
    r = point.profile.grid.interior
    u = point.profile.interior
    mask = (r > 0.0) & (r <= 0.1)
    rr = r[mask]
    return rr, u[mask] / (2.0 * s * np.log(1.0 / rr))


def _probe_ratio(point: BranchPoint, s: float, probe: float) -> float:
    """Ratio at the probe radius, interpolated linearly in log r."""
    rr, ratios = _ratio_profile(point, s)
    if rr.size == 0:
        return math.nan
    if probe <= rr[0]:
        return float(ratios[0])
    j = int(np.searchsorted(rr, probe))
    j = min(max(j, 1), rr.size - 1)
    x0, x1 = math.log(rr[j - 1]), math.log(rr[j])
    t = (math.log(probe) - x0) / (x1 - x0)
    return float((1.0 - t) * ratios[j - 1] + t * ratios[j])


def singular_profile_diagnostic(branch: Branch, sigma: float) -> SingularProfileReport:
    """Compare the highest-peak profile against (1-sigma) log r^{-2s}.

    threshold_radius is the largest sampled node such that every node at or
    below it has ratio above 1-sigma (None when even the innermost node
    fails).  The trend flag tracks the ratio at r = 0.01 across the three
    highest-peak points: increasing toward 1 is the singular-limit signature.
    """
    if not 0.0 < sigma < 1.0:
        raise DomainError(f"need 0 < sigma < 1, got {sigma}")
    if not branch.points:
        raise DomainError("branch has no points")
    if branch.params is None:
        raise DomainError("branch carries no problem parameters")
    s = branch.params.s
    by_peak = sorted(branch.points, key=lambda pt: pt.peak)
    top = by_peak[-1]

    grid_r = top.profile.grid.interior
    if not np.any((grid_r > 0.0) & (grid_r < 1e-3)):
        warnings.warn(
            "grid has no node in (0, 1e-3); near-origin diagnostics will be coarse",
            stacklevel=2,
        )

    radii, ratios = _ratio_profile(top, s)
    threshold: float | None = None
    for r_val, q_val in zip(radii, ratios):
        if q_val > 1.0 - sigma:
            threshold = float(r_val)
        else:
            break

    tail_pts = by_peak[-3:] if len(by_peak) >= 3 else by_peak
    probes = np.array([_probe_ratio(pt, s, _PROBE_RADIUS) for pt in tail_pts])
    increasing = probes.size >= 2 and bool(np.all(np.diff(probes) > 0.0))

    return SingularProfileReport(
        sigma=sigma,
        radii=radii,
        ratios=ratios,
        threshold_radius=threshold,
        probe_radius=_PROBE_RADIUS,
        probe_ratios=probes,
        increasing_trend=increasing,
    )


def singular_solution_residual(p: ProblemParams, grid: RadialGrid) -> float:
    """Relative residual of u = log r^{-2s}, lam = lam0, on r in [0.1, 0.9]."""
    if not p.supercritical:
        raise DomainError("singular solution requires n > 2s")
    op = assemble(p, grid)
    s = p.s
    values = np.empty(grid.nodes.size)
    values[0] = np.inf
    values[1:] = -2.0 * s * np.log(grid.nodes[1:])
    u = RadialFunction(grid=grid, values=values, tail=TailSpec.log_power(1.0),
                       singular_at_origin=True)
    lam = lambda0(p)
    action = op.apply_interior(u.interior, u.tail)
    r = grid.interior
    target = lam * r ** (-2.0 * s)
    rel = np.abs(action - target) / target
    mask = (r >= 0.1) & (r <= 0.9)
    return float(rel[mask].max())
