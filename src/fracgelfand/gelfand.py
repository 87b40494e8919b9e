"""Nonlinear solver layer: minimal-branch continuation for (-Delta)^s u = lam e^u.

Dirichlet-only (u = 0 outside the unit ball), on fraclap's Galerkin form, not
its collocation: Newton solves S u = lam b(u), S the energy form and b the
e^u load, and stability is the sign of the smallest eigenvalue mu of the
pencil (S - lam E) eta = mu B eta, E = db/du the e^u mass and B its value
at u = 0, so mu = 0 exactly at the fold dlam/dm = 0.

The branch is parametrized by the center value m = u(0) rather than lam: lam
folds at the extremal parameter, m does not.  Each solve treats lam as an
extra Newton unknown closed by the center constraint, which keeps the
augmented Jacobian square and well conditioned through the fold.  Warm starts
extrapolate (u, lam) by the polynomial in m through the previous point and
up to three before it, a cubic along a trace, so a point typically costs one
Newton iteration.  Each Newton step is a GMRES solve preconditioned by the
energy form's inverse, which the operator caches once; no dense system is
factored per iteration.  mu comes from a preconditioned Davidson iteration
on the same inverse that reads nothing but the point and the operator; a
trace hands it the pencils of several points at once, up to two of fraclap's
blocks of basis arrays, which it steps together, bit for bit as it would one
at a time.

Also provides the diagnostics used to probe the singular regime: the
log-profile ratio along a branch, the proof-style test function built from a
negative power core and a quintic cutoff, the two-sided energy inequality for
stable points (for many points and eps at once, each test function and load
built once, bit for bit as point by point), and the residual of the exact
singular solution log r^{-2s}.
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
    quadratic_form,
)

__all__ = [
    "BranchPoint",
    "Branch",
    "ContinuationConfig",
    "NoConvergenceError",
    "InfeasibleError",
    "BranchTraceError",
    "EigenSolveError",
    "GridDepthError",
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
_EIG_MAX_BASIS = 64        # Davidson basis vectors per stability eigenvalue
_EIG_RESTARTS = 8          # Davidson restarts, each from the lowest half of the Ritz vectors
_EIG_FIRST_ROWS = 8        # basis rows a pencil's arrays start with; they double up to _EIG_MAX_BASIS
# A trace's Davidson stacks hold as many pencils as keep their three basis
# arrays, at _EIG_FIRST_ROWS rows each, within this many of fraclap's 256 KiB
# blocks: 10 pencils at N = 256, 21 at N = 128, one from N = 1367 on.
_EIG_STACK_BLOCKS = 2
_KRYLOV_MAX_BASIS = 64     # GMRES vectors per Newton step
_KRYLOV_TOL = 1e-10        # GMRES's preconditioned relative residual
_MAX_NEWTON_ITERS = 50
_MAX_PEAK_POINTS = 10_000   # largest number of center values one trace may solve
_PROBE_RADIUS = 0.01


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
    """A converged state violated lam > 0 or u > 0 in the ball."""

    def __init__(self, message: str, lam: float):
        super().__init__(message)
        self.lam = lam


class BranchTraceError(RuntimeError):
    """Continuation aborted; carries the partial branch traced so far."""

    def __init__(self, message: str, partial: "Branch"):
        super().__init__(message)
        self.partial = partial


class EigenSolveError(RuntimeError):
    """Stability pencil was non-finite, or its iteration failed or ran out of basis."""


class GridDepthError(RuntimeError):
    """A center value beyond the grid's depth 2s log(1/r_1), refused before any solve."""


def torsion_center_value(p: ProblemParams) -> float:
    """Center value of the solution of (-Delta)^s z = 1 in the unit ball.

    z = (1-r^2)^s Gamma(n/2) / (2^{2s} Gamma(1+s) Gamma((n+2s)/2)); the small-m
    branch slope is lam/m -> 1/z(0).
    """
    logz = (
        math.lgamma(0.5 * p.n)
        - 2.0 * p.s * math.log(2.0)
        - math.lgamma(1.0 + p.s)
        - math.lgamma(0.5 * (p.n + 2.0 * p.s))
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
    # (m, u, lam) of up to three points solved before this one, newest
    # first, u their own arrays (empty after a cold start): solve_at_peak
    # extrapolates from here by the polynomial in m through them and this
    # point.  Not serialized.
    _predecessors: tuple = field(default=(), init=False, repr=False, compare=False)

    @property
    def stable(self) -> bool:
        """Nonnegative stability eigenvalue, up to _STABILITY_TOL."""
        return self.stability_eig >= -_STABILITY_TOL


@dataclass
class Branch:
    """Ordered continuation output for one (n, s): points by increasing peak,
    with the fold (``fold_index``) no later than the first unstable point."""

    params: ProblemParams
    points: list[BranchPoint] = field(default_factory=list)

    @property
    def peaks(self) -> np.ndarray:
        return np.array([pt.peak for pt in self.points])

    @property
    def lams(self) -> np.ndarray:
        return np.array([pt.lam for pt in self.points])

    @property
    def fold_index(self) -> int:
        """The point nearest the fold: the largest lam up to and including the
        first point that is not ``stable`` (over all points when every one
        is), so every point before it is stable."""
        end = next((i + 1 for i, pt in enumerate(self.points) if not pt.stable), len(self.points))
        return int(np.argmax(self.lams[:end])) if end else 0

    @property
    def fold_detected(self) -> bool:
        """True when ``fold_index`` is interior and lam falls after it; a
        branch that starts past the fold or stops before it brackets none."""
        lams, i = self.lams, self.fold_index
        return bool(0 < i < lams.size - 1 and lams[i + 1] < lams[i])

    @property
    def lambda_star_estimate(self) -> float:
        """When ``fold_detected``, lam at ``fold_index`` refined by the vertex
        of a quadratic fit in m through it and its neighbours; otherwise only
        the largest lam traced (nan on an empty branch)."""
        lams = self.lams
        if not self.fold_detected:
            return float(lams.max()) if lams.size else math.nan
        i = self.fold_index
        coef = np.polyfit(self.peaks[i - 1 : i + 2], lams[i - 1 : i + 2], 2)
        if coef[0] >= 0.0:
            return float(lams[i])
        return max(float(lams[i]), float(np.polyval(coef, -coef[1] / (2.0 * coef[0]))))

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
            "n": self.params.n,
            "s": self.params.s,
        }
        return json.dumps(data, indent=2)


@dataclass
class ContinuationConfig:
    """Settings for one branch trace, and its operator ``operator()``."""

    params: ProblemParams
    grid: RadialGrid
    peak_start: float = 0.1
    peak_end: float = 6.0
    peak_step: float = 0.25
    newton_tol: float = 1e-12   # bound on Newton's row-relative residual
    _op: OperatorMatrix | None = field(default=None, init=False, repr=False, compare=False)

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
        # Its parts are built on first use; making it here refuses s = 1 and an
        # overflowing c_{n,s} before a caller writes anything.
        self._op = OperatorMatrix(params=self.params, grid=self.grid)

    def operator(self) -> OperatorMatrix:
        return self._op


def _newton_solve(op: OperatorMatrix, m: float, u0: np.ndarray, lam0: float,
                  tol: float) -> tuple[np.ndarray, float, float, int, tuple]:
    """Newton for S u = lam b(u), c^T u = m (the grid's origin value) in (u, lam).

    Each step solves the bordered system [[S - lam E, -b], [c^T, 0]] by
    ``_krylov_step``, matrix-free.  The line search halves the step until
    max |D F| decreases, D = 1 / max_j |S_ij| the operator's fixed row
    factors, which keep rows whose masses span dozens of decades (large
    n) on one scale.  ``tol`` bounds the row-relative residual, each row
    against its roundoff scale: max_i |F_i| / (|S| |u| + |lam| |b|)_i.  The
    line search and this bound alone judge convergence; an inexact step only
    costs iterations.  c^T u = m holds from the start.  Returns u, lam,
    the residual, the iteration count and (b, E's bands) at u.
    """
    smat = op.stability_form
    mag, scale = op._stability_rows
    ni = op.n_interior
    u = u0.copy()
    lam = lam0

    def residual(uv: np.ndarray, lv: float):
        # F, max |D F|, the row-relative residual, and (b, E's bands).
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            mass = op.exp_mass(np.concatenate(([op.grid.origin_value(uv)], uv, [0.0])))
            fv = smat @ uv - lv * mass[0]
            rel = np.abs(fv) / (mag @ np.abs(uv) + abs(lv) * np.abs(mass[0]))
            return fv, float(np.abs(scale * fv).max()), float(rel.max()), mass

    fvec, merit, fnorm, mass = residual(u, lam)
    iters = 0
    while not fnorm <= tol and iters < _MAX_NEWTON_ITERS:   # a NaN residual iterates too
        try:
            # Non-finite data (e^u overflow) give a non-finite step, which the
            # line search refuses.
            with np.errstate(over="ignore", invalid="ignore"):
                step = _krylov_step(op, lam, mass, -fvec, m - op.grid.origin_value(u))
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(
                f"singular energy form at center value m={m}",
                op.grid.profile(u), lam, fnorm, iters,
            ) from exc
        t = 1.0
        for _ in range(30):
            u_new = u + t * step[:ni]
            lam_new = lam + t * step[ni]
            trial = residual(u_new, lam_new)
            if math.isfinite(trial[1]) and trial[1] < merit:
                break
            t *= 0.5
        else:
            raise NoConvergenceError(
                f"Newton line search stalled at m={m} (residual {fnorm:.3e})",
                op.grid.profile(u), lam, fnorm, iters,
            )
        u, lam = u_new, lam_new
        fvec, merit, fnorm, mass = trial
        iters += 1

    if not fnorm <= tol:
        raise NoConvergenceError(
            f"Newton did not reach tol={tol:.1e} in {_MAX_NEWTON_ITERS} iterations at m={m} "
            f"(residual {fnorm:.3e})",
            op.grid.profile(u), lam, fnorm, iters,
        )
    if lam <= 0.0:
        raise InfeasibleError(f"converged state has lam = {lam:.6g} <= 0", lam)
    # Maximum principle: lam e^u > 0 with zero exterior data forces u > 0.
    if u.min() <= 0.0:
        raise InfeasibleError(f"converged state has min u = {u.min():.6g} <= 0", lam)
    return u, lam, fnorm, iters, mass


def _krylov_step(op: OperatorMatrix, lam: float,
                 mass: tuple[np.ndarray, np.ndarray, np.ndarray],
                 f: np.ndarray, g: float) -> np.ndarray:
    """Solve [[S - lam E, -b], [c^T, 0]] x = (f, g), (b, E's bands) = ``mass``.

    GMRES (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7 (1986)) from zero,
    left-preconditioned by K = [[S, -b], [c^T, 0]], as in Newton-Krylov
    (Knoll and Keyes, J. Comput. Phys. 193 (2004)).  K^{-1} reads the
    operator's cached S^{-1}, c^T x as the grid's origin value of x, and
    the scalar Schur complement c^T S^{-1} b, formed once per call, so the
    preconditioned matrix is I - K^{-1} [[lam E, 0], [0, 0]]: one
    matrix-vector product and E's three bands per Krylov vector.  Each new vector is orthogonalized twice,
    Givens rotations keep the least-squares residual, and the iteration stops
    once it is below _KRYLOV_TOL of the preconditioned right side, or at
    _KRYLOV_MAX_BASIS vectors.  Either way the result is the minimal-residual
    iterate; a zero right side gives zero, non-finite data a non-finite x.
    """
    load, band0, band1 = mass
    lam0, lam1 = lam * band0, lam * band1
    sinv = op._energy_inverse
    border = op.grid.origin_value     # c^T
    ni = op.n_interior
    w = sinv @ load                   # S^{-1} b
    sigma = border(w)                 # c^T S^{-1} b

    def precondition(f: np.ndarray, g: float, out: np.ndarray) -> np.ndarray:
        # K^{-1} (f, g) into out: x = S^{-1} f + y w, y from c^T x = g.
        x = sinv @ f
        out[ni] = y = (g - border(x)) / sigma
        np.add(x, y * w, out=out[:ni])
        return out

    r0 = precondition(f, g, np.empty(ni + 1))
    beta = math.sqrt(r0 @ r0)
    if beta == 0.0 or not math.isfinite(beta):
        return r0
    size = min(_KRYLOV_MAX_BASIS, ni + 1)
    basis = np.empty((size, ni + 1))
    basis[0] = r0 / beta
    cols: list[list[float]] = []      # the rotated Hessenberg matrix, column by column
    cs: list[float] = []
    sn: list[float] = []
    g = [beta]                        # the rotated right side beta e_1
    t = np.empty(ni + 1)
    while len(cols) < size and abs(g[-1]) > _KRYLOV_TOL * beta:
        k = len(cols)
        ev = _tridiagonal(lam0, lam1, basis[k, :ni])
        np.subtract(basis[k], precondition(ev, 0.0, t), out=t)
        prior = basis[: k + 1]
        h = prior @ t
        t -= h @ prior
        again = prior @ t
        t -= again @ prior
        col = (h + again).tolist()
        norm = math.sqrt(t @ t)
        for i in range(k):
            col[i], col[i + 1] = cs[i] * col[i] + sn[i] * col[i + 1], cs[i] * col[i + 1] - sn[i] * col[i]
        rho = math.hypot(col[k], norm)
        if not rho > 0.0:             # singular on the Krylov space, or non-finite data
            break
        cs.append(col[k] / rho)
        sn.append(norm / rho)
        col[k] = rho
        cols.append(col)
        g.append(-sn[k] * g[k])
        g[k] *= cs[k]
        if not norm > 0.0:            # the Krylov space is invariant: x is exact
            break
        if k + 1 < size:
            np.divide(t, norm, out=basis[k + 1])
    # Back substitution on the rotated, upper-triangular Hessenberg matrix.
    k = len(cols)
    y = g[:k]
    for i in range(k - 1, -1, -1):
        y[i] = (y[i] - sum(cols[j][i] * y[j] for j in range(i + 1, k))) / cols[i][i]
    return np.asarray(y) @ basis[:k]


def _tridiagonal(band0: np.ndarray, band1: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The symmetric tridiagonal matrix with diagonal band0 and off-diagonal
    band1, times x, or times each row of x with bands of x's shape."""
    y = band0 * x
    y[..., :-1] += band1 * x[..., 1:]
    y[..., 1:] += band1 * x[..., :-1]
    return y


# Products over a stack of pencils, member by member, each by the BLAS
# routine the product of one member alone runs: dot for x[j] @ y[j], gemv
# for a[j] @ x[j] and x[j] @ a[j] (a may be one matrix for every member).
# One matrix product over the whole stack would round otherwise.
def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _matvecs(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    return (a @ x[:, :, None])[:, :, 0]


def _vecmats(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    return (x[:, None, :] @ a)[:, 0]


def _torsion(op: OperatorMatrix) -> np.ndarray:
    """Galerkin torsion z = S^{-1} b(0), b(0) the load of the source 1: one
    matrix-vector product with the cached inverse."""
    return op._energy_inverse @ op.mass[0]


def _smallest_pencil_eigs(op: OperatorMatrix, pencils: list) -> list:
    """Smallest mu of (S - lam E) eta = mu B eta for each (mass, lam) of
    ``pencils``, (b, E's bands) = mass: each mu, or the EigenSolveError its
    pencil fails with, in order.

    B = E(0) is the operator's consistent mass ``op.mass``; by Sylvester's
    law of inertia the sign of mu does not depend on which SPD mass
    normalizes the pencil.  Generalized Davidson (Davidson, J. Comput. Phys.
    17 (1975); Morgan and Scott, SIAM J. Sci. Stat. Comput. 7 (1986)),
    applied matrix-free: S times a vector, lam E and B on their three
    bands.  The basis is B-orthonormal and starts from the torsion
    S^{-1} b(0).  It grows by S^{-1} r, r the Ritz residual and S^{-1} the
    operator's cached inverse, B-orthogonalized twice against it;
    Rayleigh-Ritz is a small symmetric eigensolve.  At _EIG_MAX_BASIS
    vectors the basis restarts from its lowest half of Ritz vectors, at
    most _EIG_RESTARTS times: past the first turns of the branch the lowest
    eigenvalues crowd together.  The iteration stops once
    r S^{-1} r <= eps (theta_2 - theta_1): as S <= nu B, nu the largest
    eigenvalue of (S, B), the Ritz error bound, r's squared B^{-1}-norm
    over the gap, is then below a dense solver's own eps nu.  It also
    stops, exactly, when the basis spans the space.  Non-finite bands (e^u
    overflow), a basis that loses rank, or no convergence within the
    restarts fail the pencil with EigenSolveError; a singular S raises it
    for every pencil.

    The pencils run as one stack, in step: every numpy call takes all of
    them, and each call runs, member by member, the BLAS routine (dot,
    gemv, gemm) and the LAPACK eigensolve a stack of one would.  So each
    mu depends on its own (op, mass, lam) alone, bitwise, whichever stack
    it is solved in.  A pencil leaves the stack once it converges or
    fails; the rest restart together.  The basis arrays grow with the
    basis, doubling up to _EIG_MAX_BASIS vectors.
    """
    lams = np.array([[lam] for _, lam in pencils])
    with np.errstate(over="ignore", invalid="ignore"):
        band0, band1 = (lams * np.array([mass[j] for mass, _ in pencils]) for j in (1, 2))
    finite = np.isfinite(band0).all(axis=1) & np.isfinite(band1).all(axis=1)
    out = [None if ok else EigenSolveError("stability pencil has non-finite entries (e^u overflow)")
           for ok in finite]
    live = np.flatnonzero(finite)
    smat = op.stability_form
    try:
        sinv = op._energy_inverse
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"energy form is singular: {exc}") from exc
    _, mass0, mass1 = op.mass

    ni = op.n_interior
    size = min(_EIG_MAX_BASIS, ni)
    keep = size // 2
    band0, band1, t = band0[live], band1[live], np.tile(_torsion(op), (live.size, 1))
    # Pencil by pencil: B-orthonormal rows V, B V, (S - lam E) V, V (S - lam E) V^T.
    basis, weighed, image, proj = (np.empty((live.size, 0, cols)) for cols in (ni, ni, ni, size))
    done = np.zeros(live.size, dtype=bool)
    k = restarts = 0
    while True:
        bt = _tridiagonal(mass0, mass1, t)
        norm2 = _dots(t, bt)
        for j in np.flatnonzero(~(done | (norm2 > 0.0))):
            out[live[j]] = EigenSolveError(f"stability eigensolve lost rank at basis size {k}")
        stay = ~done & (norm2 > 0.0)
        if not stay.all() or k == basis.shape[1]:   # drop the pencils done; double full arrays
            live, band0, band1, t, bt, norm2 = (a[stay] for a in (live, band0, band1, t, bt, norm2))
            if not live.size:
                return out
            rows = basis.shape[1] if k < basis.shape[1] else min(size, 2 * k or _EIG_FIRST_ROWS)
            basis, weighed, image, proj = (
                np.concatenate((a[stay, :k], np.empty((live.size, rows - k, a.shape[2]))), axis=1)
                for a in (basis, weighed, image, proj))
        norm = np.sqrt(norm2)[:, None]
        basis[:, k], weighed[:, k] = t / norm, bt / norm
        row = basis[:, k]
        image[:, k] = _matvecs(smat, row) - _tridiagonal(band0, band1, row)
        proj[:, k, : k + 1] = proj[:, : k + 1, k] = _matvecs(basis[:, : k + 1], image[:, k])
        k += 1
        try:
            theta, vecs = np.linalg.eigh(proj[:, :k, :k])
        except np.linalg.LinAlgError as exc:
            if live.size > 1:   # alone, each pencil takes the same steps: find the one that fails
                return [_smallest_pencil_eigs(op, [pencils[i]])[0] if i in live else mu
                        for i, mu in enumerate(out)]
            out[live[0]] = EigenSolveError(f"Rayleigh-Ritz eigensolve failed: {exc}")
            out[live[0]].__cause__ = exc
            return out
        y = vecs[:, :, 0]
        resid = _vecmats(y, image[:, :k]) - theta[:, :1] * _vecmats(y, weighed[:, :k])
        t = _matvecs(sinv, resid)
        gap = theta[:, 1] - theta[:, 0] if k > 1 else -math.inf
        done = (k == ni) | (_dots(resid, t) <= np.finfo(float).eps * gap)
        for j in np.flatnonzero(done):
            out[live[j]] = float(theta[j, 0])
        if k == size and not done.all():
            if restarts == _EIG_RESTARTS:
                for j in np.flatnonzero(~done):
                    out[live[j]] = EigenSolveError(
                        f"stability eigensolve did not converge in {k} basis vectors and {restarts} "
                        f"restarts (residual {float(np.linalg.norm(resid[j])):.3e})")
                return out
            lowest = vecs[:, :, :keep].transpose(0, 2, 1)
            basis[:, :keep], weighed[:, :keep], image[:, :keep] = (
                lowest @ a[:, :k] for a in (basis, weighed, image))
            proj[:, :keep, :keep] = 0.0
            proj[:, range(keep), range(keep)] = theta[:, :keep]
            k, restarts = keep, restarts + 1
        for _ in range(2):
            t -= _vecmats(_matvecs(weighed[:, :k], t), basis[:, :k])


def stability_eigenvalue(op: OperatorMatrix, point: BranchPoint) -> float:
    """Smallest eigenvalue of the stability pencil at a solved point: the
    batched Davidson on this one pencil, bitwise the point's own
    ``stability_eig``, whichever batch that was solved in."""
    if point.profile.grid != op.grid:
        raise DomainError("branch point grid does not match operator grid")
    with np.errstate(over="ignore", invalid="ignore"):
        mass = op.exp_mass(point.profile.values)
    (mu,) = _smallest_pencil_eigs(op, [(mass, point.lam)])
    if isinstance(mu, EigenSolveError):
        raise mu
    return mu


def _extrapolate(nodes: tuple, m: float) -> tuple[np.ndarray, float]:
    """(u, lam) at center value m of the polynomial in m through the
    (m_i, u_i, lam_i) of ``nodes``, at distinct m_i: Newton's divided
    differences from the first node, evaluated by Horner's rule."""
    peaks = [node[0] for node in nodes]
    diffs = [np.append(u, lam) for _, u, lam in nodes]
    for k in range(1, len(nodes)):
        for i in range(len(nodes) - 1, k - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (peaks[i] - peaks[i - k])
    value = diffs[-1]
    for i in range(len(nodes) - 2, -1, -1):
        value = diffs[i] + (m - peaks[i]) * value
    return value[:-1], float(value[-1])


def _solve_peaks(cfg: ContinuationConfig, peaks: list[float], previous: BranchPoint | None,
                 op: OperatorMatrix | None) -> tuple[list[BranchPoint], tuple | None]:
    """Newton at each center value of ``peaks`` in turn, warm-started from
    the point before (``previous`` at the first), and the stability pencils
    of the points, solved together by ``_smallest_pencil_eigs`` as many at a
    time as keep its three basis arrays, at _EIG_FIRST_ROWS rows each,
    within _EIG_STACK_BLOCKS blocks of the operator's temporary budget.
    Returns the points up to the first center value whose Newton solve or
    pencil fails, and that (m, error), or None; points past a failed pencil
    are dropped.  ``solve_at_peak`` documents one solve.
    """
    stack = OperatorMatrix._block_rows(3 * _EIG_FIRST_ROWS * (cfg.grid.n_panels - 1),
                                       _EIG_STACK_BLOCKS)
    points: list[BranchPoint] = []
    pending: list = []      # (m, point, (b, E's bands)): solved by Newton, awaiting mu
    failure = None
    for m in peaks:
        try:
            if not 0.0 < m < math.inf:
                raise DomainError(f"center value must be positive and finite, got {m}")
            depth = 2.0 * cfg.params.s * math.log(1.0 / cfg.grid.nodes[1])
            if m > depth:
                raise GridDepthError(f"center value m={m} is deeper than the grid resolves: "
                                     f"2s log(1/r_1) = {depth:.6g}")
            operator = cfg.operator() if op is None else op
            if operator.params != cfg.params or operator.grid != cfg.grid:
                raise DomainError("operator does not match the config's params and grid")
            nodes = ()      # (m, u, lam) of the warm start, then of its predecessors
            if previous is not None:
                if previous.profile.grid != cfg.grid:
                    raise DomainError("warm start lies on another grid than the config's")
                starts = [(previous.profile.interior, previous.lam)]
                nodes = ((previous.peak, *starts[0]), *previous._predecessors)
                if previous._predecessors:
                    starts.insert(0, _extrapolate(nodes, m))
                # Shift each start to the prescribed center value.
                starts = [(u0 + (m - operator.grid.origin_value(u0)), lam0) for u0, lam0 in starts]
            else:
                z = _torsion(operator)
                z0 = operator.grid.origin_value(z)
                starts = [((m / z0) * z, m / z0)]
            for k, (u0, lam0) in enumerate(starts):
                try:
                    u, lam, fnorm, iters, mass = _newton_solve(operator, m, u0, lam0, cfg.newton_tol)
                    break
                except (NoConvergenceError, InfeasibleError):
                    if k == len(starts) - 1:
                        raise
            profile = operator.grid.profile(u)
            peak = profile.values[0]
            previous = BranchPoint(lam=lam, profile=profile, peak=peak, stability_eig=math.nan,
                                   newton_iters=iters, residual_norm=fnorm)
            # Up to three nodes, all at center values other than this point's.
            previous._predecessors = tuple(node for node in nodes if node[0] != peak)[:3]
            pending.append((m, previous, mass))
        except (NoConvergenceError, InfeasibleError, GridDepthError) as exc:
            failure = m, exc
        if pending and (failure or m == peaks[-1] or len(pending) == stack):
            mus = _smallest_pencil_eigs(operator, [(mass, pt.lam) for _, pt, mass in pending])
            for (m_pt, point, _), mu in zip(pending, mus):
                if isinstance(mu, EigenSolveError):
                    failure = m_pt, mu      # before any failure of a later point
                    break
                point.stability_eig = mu
                points.append(point)
            pending.clear()
        if failure:
            break
    return points, failure


def solve_at_peak(cfg: ContinuationConfig, m: float,
                  warm_start: BranchPoint | None = None,
                  op: OperatorMatrix | None = None) -> BranchPoint:
    """Solve the problem with prescribed center value u(0) = m, 0 < m < inf.

    Past the grid's depth 2s log(1/r_1), where -2s log r meets m, the grid
    cannot resolve the profile: ``GridDepthError`` before any solve.  Runs on
    ``cfg.operator()``, or on ``op``, which must match the config's params
    and grid; ``warm_start`` must lie on the config's grid.  Cold starts
    scale the Galerkin torsion S z = b(0).  Warm starts extrapolate (u, lam)
    to m by the polynomial through the previous point and the up to three
    points it was chained from, at distinct center values: linear from a
    chain's second point, quadratic from its third, cubic after.  The new
    point holds its own up to three predecessors, so ``trace_branch``, which
    runs the same Newton solves in a chain, is a cubic-predictor
    continuation.  Should Newton fail from the extrapolation, it starts again
    from the previous point itself, whose failure is the one raised.  The
    stability eigenvalue is the batched Davidson's on this one pencil,
    bitwise the value ``trace_branch`` finds in its batches.
    """
    points, failure = _solve_peaks(cfg, [m], warm_start, op)
    if failure:
        raise failure[1]
    return points[0]


def trace_branch(cfg: ContinuationConfig) -> Branch:
    """March the center value from peak_start to peak_end with warm starts.

    The chain of ``solve_at_peak`` solves, with the stability pencils
    solved in batches (``_solve_peaks``): every value is bitwise the chain's.
    A failure stops the trace at the first center value whose solve or
    pencil fails, and ``BranchTraceError`` carries the partial branch of the
    points before it.
    """
    peaks = np.arange(cfg.peak_start, cfg.peak_end + 0.5 * cfg.peak_step, cfg.peak_step)
    points, failure = _solve_peaks(cfg, peaks.tolist(), None, None)
    branch = Branch(params=cfg.params, points=points)
    if failure:
        m, exc = failure
        raise BranchTraceError(f"continuation stopped at center value m={m:.6g}: {exc}", branch) from exc
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
    if not 0.0 < eps < math.inf:
        raise DomainError(f"need 0 < eps < inf, got {eps}")
    expo = 0.5 * (2.0 * p.s - p.n + eps)
    rho1 = 0.5 * (1.0 + rho0)
    r = grid.nodes
    t = np.clip((r - rho0) / (rho1 - rho0), 0.0, 1.0)    # chi = 1 at t = 0, 0 at t = 1
    chi = 1.0 - t * t * t * (10.0 + t * (-15.0 + 6.0 * t))
    values = np.empty_like(r)
    values[0] = math.inf if expo < 0.0 else 0.0**expo
    values[1:] = r[1:] ** expo * chi[1:]
    return RadialFunction(grid=grid, values=values, tail=TailSpec.zero(),
                          singular_at_origin=(expo < 0.0))


def stability_inequality_check(op: OperatorMatrix, point: BranchPoint,
                               rho0: float, eps: float) -> tuple[float, float]:
    """Both sides of the stable-solution energy inequality.

    lhs = integral of u against the operator action on psi^2, rhs = energy of
    psi, with psi the proof test profile.  The lhs pairing is read from the
    solved equation S u = lam b(u) as lam int e^{u_h} (psi^2)_h, the e^u load
    against psi^2 at the nodes.  For a stable point the contract is
    lhs <= rhs up to quadrature tolerance.  Unstable input is rejected, as is
    a point on another grid than the operator's.  The one-point, one-eps
    call of ``_inequality_sides``, which ``branch --verify`` makes for all
    its points and eps at once.
    """
    ((lhs_rhs,),) = _inequality_sides(op, [point], rho0, [eps])
    return lhs_rhs


def _inequality_sides(op: OperatorMatrix, points: list[BranchPoint], rho0: float,
                      eps_values: list[float]) -> list[list[tuple[float, float]]]:
    """``stability_inequality_check`` at every point of ``points`` for every
    eps of ``eps_values``: (lhs, rhs) by point, then by eps, each bitwise
    the same whichever points and eps share the call.  Builds psi and its
    energy once per eps, and each point's e^u load once.  Refuses the first
    point on another grid or unstable, as the one-point check does, before
    computing anything.
    """
    for point in points:
        if point.profile.grid != op.grid:
            raise DomainError("branch point grid does not match operator grid")
        if not point.stable:
            raise DomainError(
                f"inequality check requires a stable point (stability_eig = "
                f"{point.stability_eig:.3e})"
            )
    tests = []      # (psi^2, energy of psi) by eps
    for eps in eps_values:
        psi = proof_test_function(op.params, op.grid, rho0, eps)
        tests.append((psi.interior**2, quadratic_form(op, psi, psi)))
    sides = []
    for point in points:
        load = op.exp_mass(point.profile.values)[0]
        sides.append([(float(point.lam * (weight @ load)), rhs) for weight, rhs in tests])
    return sides


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
    mask = r <= 0.1
    rr = r[mask]
    return rr, u[mask] / (2.0 * s * np.log(1.0 / rr))


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
    passing = int(np.cumprod(ratios > 1.0 - sigma).sum())   # the leading run above 1 - sigma
    threshold = float(radii[passing - 1]) if passing else None

    # The ratio at the probe radius, linear in log r between sampled nodes
    # and held at the end values outside them.
    profiles = [_ratio_profile(pt, s) for pt in by_peak[-3:]]
    probes = np.array([np.interp(math.log(_PROBE_RADIUS), np.log(rr), q) if rr.size else math.nan
                       for rr, q in profiles])
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
    s = p.s
    r = grid.interior
    action = assemble(p, grid).apply_interior(-2.0 * s * np.log(r), TailSpec.log_power(1.0))
    target = lambda0(p) * r ** (-2.0 * s)
    rel = np.abs(action - target) / target
    mask = (r >= 0.1) & (r <= 0.9)
    return float(rel[mask].max())
