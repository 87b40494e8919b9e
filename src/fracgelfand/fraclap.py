"""Radial collocation discretization of the fractional Laplacian on the unit ball.

For radial u the principal-value integral reduces to one dimension,

    (-Delta)^s u(r) = c_{n,s} PV int_0^inf (u(r) - u(rho)) K(r, rho) drho,

where K(r, rho) = rho^{n-1} k(r, rho) and k is the integral of
|r e_1 - rho w|^{-(n+2s)} over unit directions w.  The angular factor has the
closed form

    k(r, rho) = |S^{n-1}| M^{-(n+2s)} (1-z)^{-(1+2s)} 2F1(-s, n/2-s-1; n/2; z),

with M = max(r, rho) and z = (min/max)^2; the hypergeometric factor is bounded
on [0, 1], so the only singularity is the |r - rho|^{-(1+2s)} line.

Discretization (per collocation row r_i):

* the two panels touching r_i are integrated against the parabola through
  (r_{i-1}, r_i, r_{i+1});  the symmetric core (-h, h), h = min of the two
  panel widths, is evaluated with Gauss-Jacobi moments of weight delta^{1-2s}
  (the odd/even split makes the principal value exact), the leftover one-sided
  sliver with Gauss-Legendre;
* all other panels inside the ball use per-panel Gauss-Legendre against a
  piecewise-quadratic 3-node Lagrange interpolant of u;
* for zero exterior data (the Dirichlet problem) the exterior integral is
  u(r) times the row mass int_{rho > 1} K drho = (-Delta)^s 1_B / c_{n,s} in
  Dyda's closed form (*Fract. Calc. Appl. Anal.* 15 (2012) 536-555), which
  also gives the energy form's exterior density.  Nonzero exterior data are
  integrated on each call over (1, 2], refined toward 1 at the row's boundary
  distance, and over (2, inf) in rho = 2/t with dyadic panels in t.

All of it runs over blocks of rows, not row by row, through one kernel.  Its
hypergeometric factor, and the one in the closed-form mass, come from a table
built on first use per parameter set: piecewise Chebyshev on octaves of 1 - z,
refined geometrically toward the endpoint term, or scipy's hyp2f1 directly
where the function is a polynomial.

The origin node is eliminated by the even-quadratic extrapolation
u_0 = e1*u_1 + e2*u_2 consistent with u'(0) = 0; the boundary node carries the
exterior datum's limit g(1).  ``apply`` evaluates the operator in difference
form (couplings times u_i - u_j), which keeps the constant-annihilation
property at roundoff level even where the tail mass is ~ dist^{-2s} large:
the quadrature's own sums carry both u_i and a nonzero datum, never the closed
form (the two differ by up to ~5e-14 relative near r = 1).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import hyp2f1, roots_jacobi

from .constants import DomainError, ProblemParams, operator_normalization
from .specfun import log_gamma

__all__ = [
    "RadialGrid",
    "TailKind",
    "TailSpec",
    "RadialFunction",
    "OperatorMatrix",
    "sphere_area",
    "angular_kernel",
    "assemble",
    "apply",
    "quadratic_form",
]

# Gauss order per far panel in the ball; the near-field Gauss-Jacobi core
# uses twice as many nodes, the energy form's separated pairs one fewer.
_PANEL_ORDER = 6
_TAIL_SEG_A_ORDER = 12     # Gauss order per panel on (1, 2]
_TAIL_SEG_B_ORDER = 8      # Gauss order per dyadic panel beyond 2
_SLIVER_ORDER = 8
_PHI_DEGREE = 16           # Chebyshev degree per piece of the Phi table
_PHI_PIECES = 54           # octaves [2^-(k+1), 2^-k] of 1 - z, k < 53, then z = 1
# Kernel entries evaluated at once.  Bounds every block temporary and keeps
# the hypergeometric table's working set in cache.
_BLOCK_ENTRIES = 1 << 14
# Largest dense interior matrix (N-1)^2 float64 values a grid may imply; the
# solvers hold several such matrices at once.
_DENSE_BUDGET_BYTES = 1 << 29


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n: 2 pi^{n/2} / Gamma(n/2)."""
    return math.exp(math.log(2.0) + 0.5 * n * math.log(math.pi) - log_gamma(n / 2.0))


# ----------------------------------------------------------------------
# grid


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing nodes r_0 = 0 < ... < r_N = 1 on the unit radius."""

    nodes: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 17:
            raise DomainError("grid needs at least 16 panels (17 nodes)")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise DomainError("grid must span [0, 1] with r_0 = 0 and r_N = 1")
        if not np.all(np.diff(nodes) > 0.0):
            raise DomainError("grid nodes must increase strictly")
        _check_dense_budget(self.n_panels)

    @property
    def n_panels(self) -> int:
        return self.nodes.size - 1

    @property
    def interior(self) -> np.ndarray:
        return self.nodes[1:-1]

    @classmethod
    def graded(cls, n_panels: int, grading: float = 2.0) -> "RadialGrid":
        """Algebraically graded grid clustering nodes at both r=0 and r=1.

        The map t^p / (t^p + (1-t)^p), p = grading >= 1 (1 is uniform), gives
        spacing ~ (1/N)^p at both ends and ~ p/N in the middle.
        """
        if n_panels < 16:
            raise DomainError(f"need at least 16 panels, got {n_panels}")
        _check_dense_budget(n_panels)
        p = float(grading)
        if not p >= 1.0:
            raise DomainError(f"grading exponent must be >= 1, got {p}")
        t = np.linspace(0.0, 1.0, n_panels + 1)
        tp = t**p
        omp = (1.0 - t) ** p
        nodes = tp / (tp + omp)
        nodes[0], nodes[-1] = 0.0, 1.0
        return cls(nodes=nodes)


def _check_dense_budget(n_panels: int) -> None:
    """Refuse grids whose dense interior matrices would exceed the budget."""
    need = 8 * (n_panels - 1) ** 2
    if need > _DENSE_BUDGET_BYTES:
        raise DomainError(
            f"{n_panels} panels need {need / 1e9:.3g} GB per dense interior matrix, "
            f"above the budget of {_DENSE_BUDGET_BYTES / 1e9:.3g} GB "
            f"(at most {math.isqrt(_DENSE_BUDGET_BYTES // 8) + 1} panels)"
        )


def origin_fold_weights(grid: RadialGrid) -> tuple[float, float]:
    """Weights (e1, e2) with u(0) = e1 u(r_1) + e2 u(r_2).

    Even-quadratic extrapolation: exact for u = a + b r^2 (radial smoothness
    forces u'(0) = 0) and exact for constants (e1 + e2 = 1).
    """
    r1, r2 = grid.nodes[1], grid.nodes[2]
    denom = r2 * r2 - r1 * r1
    return r2 * r2 / denom, -r1 * r1 / denom


# ----------------------------------------------------------------------
# exterior data


class TailKind(enum.Enum):
    ZERO = "zero"
    POWER = "power"
    LOG_POWER = "log_power"


@dataclass(frozen=True)
class TailSpec:
    """Analytic description of the function outside the unit ball.

    zero: 0;  power: coeff * r^{-alpha} (alpha >= 0; alpha = 0 is the constant
    tail used by the PV-consistency test);  log_power: coeff * log r^{-2s}.
    """

    kind: TailKind
    alpha: float = 0.0
    coeff: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is TailKind.POWER:
            if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
                raise DomainError(f"power tail requires alpha >= 0, got {self.alpha}")
        if not math.isfinite(self.coeff):
            raise DomainError("tail coefficient must be finite")

    @classmethod
    def zero(cls) -> "TailSpec":
        return cls(TailKind.ZERO)

    @classmethod
    def power(cls, alpha: float, coeff: float = 1.0) -> "TailSpec":
        return cls(TailKind.POWER, alpha=float(alpha), coeff=float(coeff))

    @classmethod
    def log_power(cls, coeff: float = 1.0) -> "TailSpec":
        return cls(TailKind.LOG_POWER, coeff=float(coeff))

    def values(self, rho: np.ndarray, s: float) -> np.ndarray:
        """Evaluate the exterior datum at radii rho > 1."""
        rho = np.asarray(rho, dtype=float)
        if self.kind is TailKind.ZERO:
            return np.zeros_like(rho)
        if self.kind is TailKind.POWER:
            return self.coeff * rho ** (-self.alpha)
        return -2.0 * s * self.coeff * np.log(rho)

    def boundary_value(self, s: float) -> float:
        """Limit of the exterior datum as r -> 1+ (carried by the boundary node)."""
        if self.kind is TailKind.POWER:
            return self.coeff
        return 0.0


@dataclass
class RadialFunction:
    """Nodal values on a radial grid plus the exterior datum.

    Values must be finite at every node; the origin node alone may be
    non-finite when ``singular_at_origin`` is set (profiles like r^{-a} or
    log 1/r).  The operator never evaluates such functions at r = 0.
    """

    grid: RadialGrid
    values: np.ndarray
    tail: TailSpec = field(default_factory=TailSpec.zero)
    singular_at_origin: bool = False

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise DomainError(
                f"values shape {values.shape} does not match grid with {self.grid.nodes.size} nodes"
            )
        check = values[1:] if self.singular_at_origin else values
        if not np.all(np.isfinite(check)):
            raise DomainError("nodal values must be finite (except r_0 when flagged singular)")
        self.values = values

    @classmethod
    def from_callable(cls, grid: RadialGrid, fn, tail: TailSpec | None = None,
                      singular_at_origin: bool = False) -> "RadialFunction":
        tail = tail if tail is not None else TailSpec.zero()
        nodes = grid.nodes
        values = np.empty_like(nodes)
        if singular_at_origin:
            values[0] = np.inf
            values[1:] = [fn(r) for r in nodes[1:]]
        else:
            values[:] = [fn(r) for r in nodes]
        return cls(grid=grid, values=values, tail=tail, singular_at_origin=singular_at_origin)

    @property
    def interior(self) -> np.ndarray:
        return self.values[1:-1]


# ----------------------------------------------------------------------
# angular kernel


class _PhiTable:
    """Phi(z) = 2F1(a, b; c; z) on [0, 1] as a piecewise-Chebyshev table.

    The pieces are octaves of w = 1 - z: [1/2, 1] (z <= 1/2), then
    [2^-(k+1), 2^-k] for k = 1..52.  On this geometric mesh one degree
    resolves the (1-z)^{c-a-b} endpoint term everywhere (Trefethen,
    *Approximation Theory and Approximation Practice*, 2013).  The last piece
    holds the constant Phi(1) for w < 2^-53, which for a double z means z = 1
    (accurate for c - a - b >= 1, where the endpoint term is below 2^-52).

    Node values come from the Gauss series on the first pieces (z <= 1/2
    unless c > 16) and, toward z = 1, from Taylor re-expansion of the
    hypergeometric equation at each piece's centre.  No connection formula is
    involved, so nothing cancels when c - a - b is close to an integer.
    """

    def __init__(self, a: float, b: float, c: float):
        cheb = np.polynomial.chebyshev
        poly = np.polynomial.polynomial
        hi = np.ldexp(1.0, -np.arange(_PHI_PIECES - 1))
        x = cheb.chebpts1(_PHI_DEGREE + 1)
        w = 0.75 * hi[:, None] + 0.25 * hi[:, None] * x   # nodes per piece, in w
        # A forward Taylor recurrence amplifies roundoff through the equation's
        # z^{1-c} solution, the more the larger c w0, so re-expansion starts
        # only at w0 <= 8/c.  Above that the Gauss series is summed: 2^(k0+5)
        # terms reach 2^-64, and where z goes past 1/2 (c > 16, so b > 0) all
        # terms after the first share one sign, so nothing cancels.
        k0 = max(1, math.ceil(math.log2(c / 8.0)))

        def gauss(z):
            # Gauss series and its z-derivative.
            term, value, deriv = np.ones_like(z), np.ones_like(z), np.zeros_like(z)
            for j in range(1 << (k0 + 5)):
                term = term * ((a + j) * (b + j) / ((c + j) * (j + 1))) * z
                value += term
                deriv += (j + 1) * term / z
            return value, deriv

        values = np.empty_like(w)
        values[:k0] = gauss(1.0 - w[:k0])[0]
        y, dy = gauss(np.array([1.0 - hi[k0]]))
        w0, taylor = hi[k0], self._taylor(a, b, c, hi[k0], y[0], -dy[0])
        for k in range(k0, _PHI_PIECES - 1):
            # Step to the piece's centre (|step| = radius / 4 or / 2), expand there.
            tau = (0.75 * hi[k] - w0) / w0
            y = poly.polyval(tau, taylor)
            dy = poly.polyval(tau, poly.polyder(taylor)) / w0
            w0 = 0.75 * hi[k]
            taylor = self._taylor(a, b, c, w0, y, dy)
            values[k] = poly.polyval((w[k] - w0) / w0, taylor)
        # Evaluated by Horner in the monomial basis: the nearest singularity
        # is at x = -3 on every piece, so the coefficients decay and the
        # conversion loses nothing measurable (<= 1 ulp against Clenshaw).
        t_mono = np.zeros((_PHI_DEGREE + 1, _PHI_DEGREE + 1))   # row j: T_j in x^k
        t_mono[0, 0] = t_mono[1, 1] = 1.0
        for j in range(1, _PHI_DEGREE):
            t_mono[j + 1, 1:] = 2.0 * t_mono[j, :-1]
            t_mono[j + 1] -= t_mono[j - 1]
        mono = np.zeros((_PHI_PIECES, _PHI_DEGREE + 1))
        mono[:-1] = cheb.chebfit(x, values.T, _PHI_DEGREE).T @ t_mono
        # Phi(1): the last expansion at w = 0, where its singular part
        # (w0 + t)^{1+2s} sums to below w0^{1+2s} ~ 2^-52.
        mono[-1, 0] = poly.polyval(-1.0, taylor)
        self._coef = np.ascontiguousarray(mono.T)   # row j: x^j coefficient per piece

    @staticmethod
    def _taylor(a: float, b: float, c: float, w0: float, y0: float, dy0: float) -> np.ndarray:
        """Scaled Taylor coefficients y_j w0^j of the solution about w = w0.

        In w the hypergeometric equation reads
        w(1-w) y'' + [(a+b+1-c) - (a+b+1) w] y' - ab y = 0.  For w0 <= 1/2
        its nearest singular point is w = 0, so the series converges for
        |w - w0| < w0 and the scaled coefficients stay bounded.
        """
        q0 = (a + b + 1.0 - c) - (a + b + 1.0) * w0
        p1 = 1.0 - 2.0 * w0
        y = np.empty(64)
        y[0], y[1] = y0, dy0 * w0
        for j in range(62):
            y[j + 2] = ((j + a) * (j + b) * w0 * y[j] - (p1 * j + q0) * (j + 1) * y[j + 1]) / (
                (1.0 - w0) * (j + 1) * (j + 2))
        return y

    def __call__(self, z: np.ndarray) -> np.ndarray:
        w = 1.0 - np.asarray(z, dtype=float)
        # w in [2^-(k+1), 2^-k) has binary exponent -k; w < 2^-53 is z = 1.
        k = np.maximum(-np.frexp(np.maximum(w, 2.0**-54))[1], 0).astype(np.intp)
        x = np.ldexp(w, k + 2) - 3.0   # piece k mapped onto [-1, 1]
        out = self._coef[-1].take(k)
        for cj in self._coef[-2::-1]:
            out *= x
            out += cj.take(k)
        return out


@functools.lru_cache(maxsize=64)
def _phi(a: float, b: float, c: float):
    """Evaluator of 2F1(a, b; c; z) on [0, 1], built once per (a, b, c).

    Used with a = -s, c = n/2 for the kernel's Phi (b = n/2-s-1) and the
    exterior mass's Psi (b = n/2-s).  Where the function is a polynomial (b a
    nonpositive integer) scipy's hyp2f1 is exact and faster than the table,
    so it is used directly.
    """
    if b <= 0.0 and b == math.floor(b):
        return functools.partial(hyp2f1, a, b, c)
    return _PhiTable(a, b, c)


def _kernel(p: ProblemParams, r: np.ndarray | float, rho: np.ndarray,
            dist: np.ndarray | float | None = None) -> np.ndarray:
    """K(r, rho) = rho^{n-1} k(r, rho), broadcast over r and rho.

    ``dist`` replaces |r - rho| in the singular factor: pass it where it is
    known more accurately than the difference of the rounded radii, or pass 1
    for the smooth part G = K |r - rho|^{1+2s}.  Factored as
    (rho/M)^{n-1} * (M / ((r+rho) dist))^{1+2s} * Phi so the power terms stay
    O(1) even for dimension-sized exponents at large radii.
    """
    big = np.maximum(r, rho)
    small = np.minimum(r, rho)
    z = (small / big) ** 2
    gap = (r + rho) * (np.abs(r - rho) if dist is None else dist)
    return (
        sphere_area(p.n)
        * (rho / big) ** (p.n - 1)
        * (big / gap) ** (1.0 + 2.0 * p.s)
        * _phi(-p.s, 0.5 * p.n - p.s - 1.0, 0.5 * p.n)(z)
    )


def angular_kernel(p: ProblemParams, r: float, rho: float) -> float:
    """Angular reduction k(r, rho) of the Riesz kernel; symmetric in (r, rho).

    For n = 1 this is |r-rho|^{-(1+2s)} + (r+rho)^{-(1+2s)}; for r = 0 it is
    |S^{n-1}| rho^{-(n+2s)}.  Coincident radii are rejected (the diagonal is
    handled by the principal-value assembly, not here).
    """
    r, rho = float(r), float(rho)
    if r < 0.0 or rho <= 0.0:
        raise DomainError(f"need r >= 0 and rho > 0, got r={r}, rho={rho}")
    if r == rho:
        raise DomainError("coincident radii: kernel is singular on the diagonal")
    big, small = max(r, rho), min(r, rho)
    return float(_kernel(p, small, np.array([big]))[0]) * big ** (1 - p.n)


# ----------------------------------------------------------------------
# operator


@dataclass
class OperatorMatrix:
    """Assembled collocation operator on a grid's interior nodes.

    ``matrix`` is the dense interior action A for zero exterior data (the
    operator applied to functions vanishing at the boundary node and
    outside), built on first access and cached.  ``apply_interior`` and
    ``apply`` take any exterior datum and evaluate in difference form, which
    annihilates constants exactly.  ``couple_quad`` holds the
    nonnegative-kernel couplings between interior nodes (quadratic
    interpolant, origin fold applied), ``couple_quad_bnd`` those to the
    boundary node, ``tail_mass`` the closed-form exterior row masses,
    ``weights`` the radial hat masses |S^{n-1}| int phi_i r^{n-1} dr.
    """

    params: ProblemParams
    grid: RadialGrid
    normalization: float
    couple_quad: np.ndarray       # (Ni, Ni) interior couplings, origin fold applied
    couple_quad_bnd: np.ndarray   # (Ni,) coupling to the boundary node
    tail_mass: np.ndarray         # (Ni,) int_{rho > 1} K(r_i, rho) drho
    weights: np.ndarray           # (Ni,) radial hat masses
    _matrix: np.ndarray | None = None
    _stability_form: np.ndarray | None = None

    @property
    def n_interior(self) -> int:
        return self.couple_quad.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """Dense interior matrix A; A@1 is the action on the ball's indicator (read-only)."""
        if self._matrix is None:
            total = self.couple_quad.sum(axis=1) + self.couple_quad_bnd + self.tail_mass
            self._matrix = self.normalization * (np.diag(total) - self.couple_quad)
            self._matrix.flags.writeable = False
        return self._matrix

    def apply_interior(self, u_int: np.ndarray, tail: TailSpec) -> np.ndarray:
        """Difference-form action at interior nodes.

        Every term multiplies a pointwise difference, so a globally constant
        function (matching constant tail) yields exact zeros instead of the
        cancellation of ~dist^{-2s} terms a matvec would incur.  Only a zero
        tail uses the closed-form mass.
        """
        u_int = np.asarray(u_int, dtype=float)
        # Products are formed in place: this runs in every Newton residual.
        diff = u_int[:, None] - u_int[None, :]
        diff *= self.couple_quad
        out = diff.sum(axis=1)
        g1 = tail.boundary_value(self.params.s)
        out += self.couple_quad_bnd * (u_int - g1)
        if tail.kind is TailKind.ZERO:
            out += self.tail_mass * u_int
        else:
            for rows, rho, wk in _exterior_blocks(self.params, self.grid.interior):
                rel = tail.values(rho, self.params.s)
                np.subtract(u_int[rows, None], rel, out=rel)
                rel *= wk
                out[rows] += rel.sum(axis=1)
        return self.normalization * out

    def apply(self, u: RadialFunction) -> RadialFunction:
        if u.grid.nodes.shape != self.grid.nodes.shape or not np.array_equal(u.grid.nodes, self.grid.nodes):
            raise DomainError("function grid does not match operator grid")
        out_int = self.apply_interior(u.interior, u.tail)
        values = np.empty_like(u.values)
        values[1:-1] = out_int
        # Endpoint rows are not collocated; fill with extrapolations so the
        # result is a plottable RadialFunction.  The origin value is flagged
        # singular when the input was (the operator output then blows up too).
        if u.singular_at_origin:
            values[0] = np.inf
        else:
            e1, e2 = origin_fold_weights(self.grid)
            values[0] = e1 * out_int[0] + e2 * out_int[1]
        r = self.grid.nodes
        slope = (out_int[-1] - out_int[-2]) / (r[-2] - r[-3])
        values[-1] = out_int[-1] + slope * (r[-1] - r[-2])
        return RadialFunction(grid=self.grid, values=values, tail=TailSpec.zero(),
                              singular_at_origin=u.singular_at_origin)

    @property
    def stability_form(self) -> np.ndarray:
        """Symmetric PSD matrix S of the zero-tail energy form.

        Assembled as the Galerkin double integral of the difference kernel
        over piecewise-linear hats (built lazily, cached).  Every quadrature
        contribution is a nonnegative multiple of an outer product, so the
        matrix is positive semidefinite by construction, which a weighted
        symmetrization of the collocation rows does not guarantee once the
        radial masses near the origin differ by many orders of magnitude.
        """
        if self._stability_form is None:
            self._stability_form = _assemble_energy(self.params, self.grid)
        return self._stability_form


def _hat_masses(grid: RadialGrid, n: int, area: float) -> np.ndarray:
    """Exact |S^{n-1}| int phi_i(r) r^{n-1} dr for interior hats."""
    r = grid.nodes
    rn = r ** n
    rn1 = r ** (n + 1)
    h = np.diff(r)

    def seg_rising(a_idx, b_idx):
        # int_{r_a}^{r_b} (rho - r_a)/h * rho^{n-1} drho
        ha = r[b_idx] - r[a_idx]
        return ((rn1[b_idx] - rn1[a_idx]) / (n + 1) - r[a_idx] * (rn[b_idx] - rn[a_idx]) / n) / ha

    def seg_falling(a_idx, b_idx):
        # int_{r_a}^{r_b} (r_b - rho)/h * rho^{n-1} drho
        hb = r[b_idx] - r[a_idx]
        return (r[b_idx] * (rn[b_idx] - rn[a_idx]) / n - (rn1[b_idx] - rn1[a_idx]) / (n + 1)) / hb

    idx = np.arange(1, r.size - 1)
    return area * (seg_rising(idx - 1, idx) + seg_falling(idx, idx + 1))


def _row_blocks(n_rows: int, row_entries: int):
    """Slices of consecutive rows holding at most _BLOCK_ENTRIES entries.

    A row wider than the budget makes a block by itself.
    """
    step = max(1, _BLOCK_ENTRIES // row_entries)
    for lo in range(0, n_rows, step):
        yield slice(lo, min(n_rows, lo + step))


def _exterior_blocks(p: ProblemParams, radii: np.ndarray):
    """Exterior quadrature (rows, rho, weight * K(r, rho)) for radii r < 1.

    Yields row slices of at most _BLOCK_ENTRIES entries.  (1, 2] is split at
    1 + d (2^k - 1), capped at 2, with d = 1 - r: panels geometrically refined
    toward 1 at the scale of the row's boundary distance, on which the kernel
    varies.  Nodes are placed by their offset u from 1, and the kernel's
    singular factor uses rho - r = d + u, which keeps full relative precision
    however small d is.  Every row gets the panel count of the row closest to
    the boundary; a row's surplus panels have zero width at rho = 2 and so
    zero weights.  (2, inf) uses rho = 2/t with dyadic panels in t, the same
    for every row; the integrand decays like t^{2s-1}, so the panel depth is
    adapted to s for ~1e-15 truncation.

    Known limit: the depth min(400, 25/s + 8) drops a relative 2^{-802 s} of
    the row mass once the cap binds (3.9e-3 at s = 0.01, 5.7e-8 at s = 0.03),
    so nonzero tails are truncated at s below ~0.06.
    """
    radii = np.asarray(radii, dtype=float)
    d_min = 1.0 - float(radii.max())
    n_near = 1
    while d_min * (2.0**n_near - 1.0) < 1.0:
        n_near += 1
    steps = 2.0 ** np.arange(n_near + 1) - 1.0
    xs, ws = leggauss(_TAIL_SEG_A_ORDER)

    xf, wf = leggauss(_TAIL_SEG_B_ORDER)
    depth = min(400, int(25.0 / p.s) + 8)
    t_hi = 0.5 ** np.arange(depth)
    t_mid, t_half = 0.75 * t_hi, 0.25 * t_hi
    t = (t_mid[:, None] + t_half[:, None] * xf).ravel()
    rho_far = 2.0 / t
    w_far = (t_half[:, None] * wf).ravel() * (2.0 / t**2)

    for rows in _row_blocks(radii.size, n_near * _TAIL_SEG_A_ORDER + t.size):
        r = radii[rows, None]
        d = 1.0 - r
        m = r.shape[0]
        breaks = np.minimum(1.0, d * steps)      # offsets from rho = 1
        mid = 0.5 * (breaks[:, :-1] + breaks[:, 1:])
        half = 0.5 * (breaks[:, 1:] - breaks[:, :-1])
        u = (mid[:, :, None] + half[:, :, None] * xs).reshape(m, -1)
        w_near = (half[:, :, None] * ws).reshape(m, -1)
        rho = np.concatenate([1.0 + u, np.broadcast_to(rho_far, (m, t.size))], axis=1)
        wk = np.concatenate([w_near * _kernel(p, r, 1.0 + u, dist=d + u),
                             w_far * _kernel(p, r, rho_far)], axis=1)
        yield rows, rho, wk


def _exterior_mass(p: ProblemParams, radii: np.ndarray) -> np.ndarray:
    """int_{rho > 1} K(r, rho) drho at each radius r < 1 (the zero-tail row mass).

    Dyda's (-Delta)^s 1_B / c_{n,s} after Euler's transformation (its Gamma
    factors cancel against c_{n,s}): |S^{n-1}|/(2s) ((1-r)(1+r))^{-2s} Psi(r^2)
    with Psi = 2F1(-s, n/2-s; n/2; .) > 0 on [0, 1).  1 - r is exact near r = 1.
    """
    n, s = p.n, p.s
    r = np.asarray(radii, dtype=float)
    psi = _phi(-s, 0.5 * n - s, 0.5 * n)(r * r)
    return sphere_area(n) / (2.0 * s) * ((1.0 - r) * (1.0 + r)) ** (-2.0 * s) * psi


def assemble(p: ProblemParams, grid: RadialGrid) -> OperatorMatrix:
    """Assemble the dense radial operator for (n, s) on the grid.

    Rejects s = 1 (classical limit is out of the singular-integral scheme's
    scope) and grids below 16 panels (enforced by RadialGrid).
    """
    if not 0.0 < p.s < 1.0:
        raise DomainError(f"discretized operator requires 0 < s < 1, got s={p.s}")
    n, s = p.n, p.s
    c = operator_normalization(p)
    r = grid.nodes
    npan = grid.n_panels
    ni = npan - 1
    e1, e2 = origin_fold_weights(grid)

    q_far = _PANEL_ORDER
    xs_far, ws_far = leggauss(q_far)
    q_near = 2 * _PANEL_ORDER
    xj, wj = roots_jacobi(q_near, 0.0, 1.0 - 2.0 * s)
    xs_sl, ws_sl = leggauss(_SLIVER_ORDER)

    # Grid-wide far-panel quadrature: nodes, weights and interpolation tables
    # are row-independent; only the kernel values change per row.
    mid = 0.5 * (r[:-1] + r[1:])
    half = 0.5 * np.diff(r)
    rho_far = mid[:, None] + half[:, None] * xs_far[None, :]          # (npan, q)
    w_far = half[:, None] * ws_far[None, :]                           # (npan, q)
    stencil = np.stack([np.arange(npan) - 1, np.arange(npan), np.arange(npan) + 1], axis=1)
    stencil[0] = [0, 1, 2]
    x0, x1, x2 = r[stencil[:, 0], None], r[stencil[:, 1], None], r[stencil[:, 2], None]
    # Quadrature weight times Lagrange basis, one table per stencil node.
    lag = np.empty((3, npan, q_far))
    lag[0] = w_far * ((rho_far - x1) * (rho_far - x2) / ((x0 - x1) * (x0 - x2)))
    lag[1] = w_far * ((rho_far - x0) * (rho_far - x2) / ((x1 - x0) * (x1 - x2)))
    lag[2] = w_far * ((rho_far - x0) * (rho_far - x1) / ((x2 - x0) * (x2 - x1)))

    cq = np.zeros((ni, npan + 1))

    # Far field over row blocks; the panels adjacent to r_i belong to the
    # near field.
    for blk in _row_blocks(ni, npan * q_far):
        rows = np.arange(blk.start + 1, blk.stop + 1)
        b = np.arange(rows.size)
        kmat = _kernel(p, r[rows, None, None], rho_far)
        kmat[b, rows - 1] = 0.0
        kmat[b, rows] = 0.0
        contrib_q = np.stack([np.einsum("bpq,pq->bp", kmat, lag_j) for lag_j in lag], axis=2)
        flat_q = cq[blk].reshape(-1)
        base = (b * (npan + 1))[:, None, None]
        np.add.at(flat_q, (base + stencil[None, :, :]).ravel(), contrib_q.ravel())
        cq[blk] = flat_q.reshape(rows.size, npan + 1)

    # Near field, all rows at once (2 q_near + 8 kernel values per row): the
    # two panels touching r_i against the parabola through r_{i-1}, r_i, r_{i+1}.
    i = np.arange(1, npan)
    ri = r[i, None]
    h_l = r[i] - r[i - 1]
    h_r = r[i + 1] - r[i]
    hm = np.minimum(h_l, h_r)
    wa_r = h_l / (h_r * (h_l + h_r))
    wa_l = h_r / (h_l * (h_l + h_r))
    wb_r = 1.0 / (h_r * (h_l + h_r))
    wb_l = -1.0 / (h_l * (h_l + h_r))

    delta = 0.5 * hm[:, None] * (1.0 + xj)
    gp = _kernel(p, ri, ri + delta, dist=1.0)
    gm = _kernel(p, ri, ri - delta, dist=1.0)
    scale = (0.5 * hm) ** (2.0 - 2.0 * s)
    j1 = scale * (((gp - gm) / delta) @ wj)
    j2 = scale * ((gp + gm) @ wj)
    c_right = j1 * wa_r + j2 * wb_r
    c_left = -(j1 * wa_l + j2 * wb_l)

    # One-sided leftover of the wider adjacent panel, integrated against the
    # same parabola (regular there: distance >= hm from r_i).  Rows whose
    # panels have equal widths get zero weights.
    right = h_r > hm
    a_edge = np.where(right, r[i] + hm, r[i - 1])
    b_edge = np.where(right, r[i + 1], r[i] - hm)
    halfp = np.where(right | (h_l > hm), 0.5 * (b_edge - a_edge), 0.0)[:, None]
    rho_sl = 0.5 * (a_edge + b_edge)[:, None] + halfp * xs_sl
    delta_sl = rho_sl - ri
    k_sl = halfp * ws_sl * _kernel(p, ri, rho_sl)
    c_right += (k_sl * (delta_sl * (wa_r[:, None] + wb_r[:, None] * delta_sl))).sum(axis=1)
    c_left -= (k_sl * (delta_sl * (wa_l[:, None] + wb_l[:, None] * delta_sl))).sum(axis=1)
    cq[i - 1, i + 1] += c_right
    cq[i - 1, i - 1] += c_left

    # Fold the origin column onto nodes 1 and 2:  C(u_i - u_0) =
    # C e1 (u_i - u_1) + C e2 (u_i - u_2)  since e1 + e2 = 1.
    cq[:, 1] += e1 * cq[:, 0]
    cq[:, 2] += e2 * cq[:, 0]

    return OperatorMatrix(
        params=p,
        grid=grid,
        normalization=c,
        couple_quad=cq[:, 1:npan].copy(),
        couple_quad_bnd=cq[:, npan].copy(),
        tail_mass=_exterior_mass(p, r[1:npan]),
        weights=_hat_masses(grid, n, sphere_area(n)),
    )


def _assemble_energy(p: ProblemParams, grid: RadialGrid) -> np.ndarray:
    """Galerkin matrix of the energy form over interior piecewise-linear hats.

    Uses the symmetric double-integral identity

        Q(eta, zeta) = (1/2) cns |S| iint (eta(r)-eta(rho)) (zeta(r)-zeta(rho))
                                         r^{n-1} rho^{n-1} k(r, rho) dr drho,

    valid for functions vanishing outside the ball.  Same-panel pairs reduce
    exactly to |r-rho|^{1-2s} times a smooth factor (hat differences are
    linear in r-rho there) and use Gauss-Jacobi in the gap variable; panel
    pairs sharing a corner use a Duffy split; separated pairs use tensor
    Gauss-Legendre; the exterior region contributes the local density
    tau(r) = cns |S| r^{n-1} times the closed-form exterior mass, which is
    positive.  The origin hat is folded with the even-quadratic weights, the
    boundary hat is dropped (Dirichlet), so the result is PSD by construction.
    """
    n, s = p.n, p.s
    area = sphere_area(n)
    pref = operator_normalization(p) * area
    r = grid.nodes
    npan = grid.n_panels
    h = np.diff(r)
    smat = np.zeros((npan + 1, npan + 1))

    def kap_full(rv: np.ndarray, pv: np.ndarray) -> np.ndarray:
        return pref * rv ** (n - 1) * _kernel(p, rv, pv)

    def kap_reg(rv: np.ndarray, pv: np.ndarray) -> np.ndarray:
        return pref * rv ** (n - 1) * _kernel(p, rv, pv, dist=1.0)

    # --- separated panel pairs (gap of at least one panel), tensor Gauss.
    q = _PANEL_ORDER - 1
    xg, wg = leggauss(q)
    mid = 0.5 * (r[:-1] + r[1:])
    half = 0.5 * h
    pts = mid[:, None] + half[:, None] * xg[None, :]      # (npan, q)
    wts = half[:, None] * wg[None, :]
    fall = (r[1:, None] - pts) / h[:, None]               # phi_p on panel p
    rise = (pts - r[:-1, None]) / h[:, None]              # phi_{p+1} on panel p
    for off in range(2, npan):
        pi = np.arange(0, npan - off)
        pj = pi + off
        tmat = (wts[pi, :, None] * wts[pj, None, :]) * kap_full(
            pts[pi, :, None], pts[pj, None, :]
        )
        row_m = tmat.sum(axis=2)     # rho integrated out
        col_m = tmat.sum(axis=1)     # r integrated out
        fa, fb = fall[pi], rise[pi]
        ga, gb = fall[pj], rise[pj]
        smat[pi, pi] += (fa * fa * row_m).sum(axis=1)
        smat[pi, pi + 1] += (fa * fb * row_m).sum(axis=1)
        smat[pi + 1, pi + 1] += (fb * fb * row_m).sum(axis=1)
        smat[pj, pj] += (ga * ga * col_m).sum(axis=1)
        smat[pj, pj + 1] += (ga * gb * col_m).sum(axis=1)
        smat[pj + 1, pj + 1] += (gb * gb * col_m).sum(axis=1)
        smat[pi, pj] -= np.einsum("mq,mqp,mp->m", fa, tmat, ga)
        smat[pi, pj + 1] -= np.einsum("mq,mqp,mp->m", fa, tmat, gb)
        smat[pi + 1, pj] -= np.einsum("mq,mqp,mp->m", fb, tmat, ga)
        smat[pi + 1, pj + 1] -= np.einsum("mq,mqp,mp->m", fb, tmat, gb)

    # --- same-panel pairs: hat differences are slope*(r-rho) exactly, so the
    # pair energy is a single edge weight times the graph-Laplacian block.
    # Gap u (Jacobi weight u^{1-2s}) outer, position along the panel inner.
    qj, qg = 10, 6
    xj, wj = roots_jacobi(qj, 0.0, 1.0 - 2.0 * s)
    xgi, wgi = leggauss(qg)
    pan = np.arange(npan)
    u_gap = 0.5 * h[:, None] * (1.0 + xj)                     # (npan, qj)
    wdt = 0.5 * (h[:, None] - u_gap)
    rg = r[:-1, None, None] + wdt[:, :, None] * (1.0 + xgi)    # (npan, qj, qg)
    inner = wdt * (kap_reg(rg, rg + u_gap[:, :, None]) @ wgi)
    edge = (0.5 * h) ** (2.0 - 2.0 * s) * (inner @ wj) / h**2
    smat[pan + 1, pan + 1] += edge
    smat[pan, pan] += edge
    smat[pan, pan + 1] -= edge

    # --- corner-sharing pairs: Duffy coordinates xi = t v, chi = t (1-v)
    # around the shared node r_c; the net t-power is 2-2s (Jacobi) on
    # t < min width.  Rows: the npan-1 corners; columns: t nodes.
    qt = 8
    xt, wt = leggauss(qt)
    xj2, wj2 = roots_jacobi(qj, 0.0, 2.0 - 2.0 * s)
    a, b = h[:-1, None], h[1:, None]
    m = np.minimum(a, b)
    tm, th = 0.5 * (m + a + b), 0.5 * (a + b - m)
    # t in (0, m): Jacobi weight t^{2-2s} after the area Jacobian and the two
    # linear hat-difference factors;  t in (m, a+b): plain Gauss with
    # explicit t^{2-2s}.
    t = np.concatenate([0.5 * m * (1.0 + xj2), tm + th * xt], axis=1)
    base = np.concatenate([(0.5 * m) ** (3.0 - 2.0 * s) * wj2,
                           th * wt * (tm + th * xt) ** (2.0 - 2.0 * s)], axis=1)
    # Every t node lies below a + b, so vlo < vhi on all of them.
    vlo = np.maximum(0.0, 1.0 - b / t)                        # (npan-1, qj+qt)
    vhi = np.minimum(1.0, a / t)
    v = (0.5 * (vhi + vlo))[:, :, None] + (0.5 * (vhi - vlo))[:, :, None] * xgi
    wv = base[:, :, None] * (0.5 * (vhi - vlo))[:, :, None] * wgi
    rc = r[1:-1, None, None]
    tv = t[:, :, None]
    wkv = wv * kap_reg(rc - tv * v, rc + tv * (1.0 - v))
    a3, b3 = a[:, :, None], b[:, :, None]
    d = (v / a3, (1.0 - v) / b3 - v / a3, -(1.0 - v) / b3)   # hats p, p+1, p+2
    corner = pan[:-1]
    for i, j in ((2, 2), (1, 1), (1, 2), (0, 0), (0, 1), (0, 2)):
        smat[corner + i, corner + j] += (wkv * d[i] * d[j]).sum(axis=(1, 2))

    # --- exterior region: local positive density tau(r) integrated
    # against hat products on each panel.
    xq, wq = leggauss(6)
    rq = mid[:, None] + half[:, None] * xq
    tau = pref * rq ** (n - 1) * _exterior_mass(p, rq.ravel()).reshape(rq.shape)
    wtau = half[:, None] * wq * tau
    fa = (r[1:, None] - rq) / h[:, None]
    fb = (rq - r[:-1, None]) / h[:, None]
    smat[pan + 1, pan + 1] += (wtau * (fb * fb)).sum(axis=1)
    smat[pan, pan] += (wtau * (fa * fa)).sum(axis=1)
    smat[pan, pan + 1] += (wtau * (fa * fb)).sum(axis=1)

    smat = np.triu(smat) + np.triu(smat, 1).T
    e1, e2 = origin_fold_weights(grid)
    smat[1, :] += e1 * smat[0, :]
    smat[2, :] += e2 * smat[0, :]
    smat[:, 1] += e1 * smat[:, 0]
    smat[:, 2] += e2 * smat[:, 0]
    return smat[1:npan, 1:npan].copy()


def apply(op: OperatorMatrix, u: RadialFunction) -> RadialFunction:
    """Operator action (-Delta)^s u at interior nodes (module-level form)."""
    return op.apply(u)


def quadratic_form(op: OperatorMatrix, eta: RadialFunction, zeta: RadialFunction) -> float:
    """Energy pairing int_0^1 eta (-Delta)^s zeta |S^{n-1}| r^{n-1} dr.

    Test functions must vanish outside the ball (zero tails); values at the
    boundary node are taken as zero.  Exactly symmetric by construction.
    """
    for fn in (eta, zeta):
        if fn.tail.kind is not TailKind.ZERO:
            raise DomainError("quadratic form requires zero-tail test functions")
        if fn.grid.nodes.shape != op.grid.nodes.shape or not np.array_equal(fn.grid.nodes, op.grid.nodes):
            raise DomainError("function grid does not match operator grid")
    smat = op.stability_form
    return float(eta.interior @ smat @ zeta.interior)
