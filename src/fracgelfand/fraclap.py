"""Radial discretizations of the fractional Laplacian on the unit ball: the
collocation of ``apply``, below, and the Gelfand solver's Galerkin energy form.

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
  (the odd/even split makes the principal value exact; the rule comes from
  the Golub-Welsch eigenproblem), the leftover one-sided sliver with
  Gauss-Legendre;
* all other panels inside the ball are integrated against a
  piecewise-quadratic 3-node Lagrange interpolant of u, by panel clustering
  (Hackbusch-Nowak, *Numer. Math.* 54 (1989) 463-491): over a binary tree of
  panel ranges, a cluster at least its own width from the row replaces
  K(r_i, .) by its 16-point Chebyshev interpolant, whose exact moments
  against the panels' stencil bases are formed at the leaves and carried up
  the tree by transfer matrices; panels of leaves (16 panels) nearer the
  row use 6-point Gauss-Legendre, with which the interpolant agrees to
  roundoff;
* for zero exterior data (the Dirichlet problem) the exterior integral is
  u(r) times the row mass int_{rho > 1} K drho = (-Delta)^s 1_B / c_{n,s} in
  Dyda's closed form (*Fract. Calc. Appl. Anal.* 15 (2012) 536-555), which
  also gives the energy form's exterior density.  Nonzero exterior data are
  integrated on each call over (1, 2] by Gauss panels refined toward 1 at the
  row's boundary distance, and beyond rho = 2 exactly, term by term, from the
  kernel's series in (r/rho)^2 <= 1/4 that Euler's transformation gives.

The Galerkin energy form integrates the same kernel over pairs of panels;
its separated pairs go by the same tree, as pairs of clusters at least their
widths apart, on which the kernel's tensor Chebyshev interpolant replaces
it (see ``_assemble_energy``).  Both far fields take their clusters' moments
from one sweep up the tree (``_nested_moments``).

All of it runs over blocks of rows, not row by row, through one kernel.  Its
hypergeometric factor, and the one in the closed-form mass, come from a table
built on first use per parameter set: piecewise Chebyshev on octaves of 1 - z,
refined geometrically toward the endpoint term, or the terminating Gauss sum
where the function is a polynomial.  The module needs numpy's arrays and
linear algebra and the standard library only: every Gauss rule comes from
``_gauss_jacobi`` and every Chebyshev point from ``_chebyshev``.

The origin node is eliminated by the even-quadratic fold u_0 = e1 u_1 +
e2 u_2 (u'(0) = 0), which only ``RadialGrid`` applies; the boundary node
carries the datum's limit g(1).  Every Galerkin local mass and load comes
from ``_local_mass``.  ``apply`` sums couplings times u_i - u_j, so
constants are annihilated at roundoff even where the tail mass is
~ dist^{-2s} large.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import DomainError, ProblemParams, operator_normalization

__all__ = [
    "RadialGrid",
    "TailKind",
    "TailSpec",
    "RadialFunction",
    "OperatorMatrix",
    "sphere_area",
    "assemble",
    "apply",
    "quadratic_form",
]

# Gauss order per far panel in the ball.  The near-field Gauss-Jacobi core
# uses twice as many nodes, the energy form's separated pairs one fewer.
_PANEL_ORDER = 6
# Panel clustering: the binary tree of panel ranges stops at leaves of at
# most _LEAF_PANELS panels, and a cluster far enough from a row (collocation)
# or from another cluster (the energy form) replaces the kernel by its
# interpolant in _CLUSTER_ORDER Chebyshev points per cluster.
_LEAF_PANELS = 16
_CLUSTER_ORDER = 16
_TAIL_ORDER = 12           # Gauss order per panel on (1, 2]
_FAR_TERMS = 40            # terms of the kernel's series beyond rho = 2
_SLIVER_ORDER = 8
_PHI_DEGREE = 16           # Chebyshev degree per piece of the Phi table
_PHI_PIECES = 54           # octaves [2^-(k+1), 2^-k] of 1 - z, k < 53, then z = 1
_POW2 = np.ldexp(1.0, np.arange(_PHI_PIECES) + 2)   # 2^(k+2) takes piece k of 1 - z onto [2, 4]
# Kernel entries per block of rows.  Bounds every block temporary, and is
# large enough that a kernel call amortizes its fixed cost (tens of
# microseconds) over its entries; the far field groups the row blocks of
# its clusters, a few hundred entries each, up to half of it (see
# ``_assemble_couplings``).  A temporary of this size (256 KiB) is above
# glibc's initial mmap threshold; _row_blocks raises it.
_BLOCK_ENTRIES = 1 << 15
# Largest dense interior matrix, (N-1)^2 float64 values, that a grid may
# imply.  Each dense stage here holds one such array plus block temporaries:
# assemble its coupling buffer, which the operator keeps without a copy; the
# energy form its matrix, kept as the operator's stability_form; apply none.
# A branch never builds the couplings.  The Gelfand solvers add |S| and the
# inverse S^{-1} that Newton's Krylov steps, the torsion and the pencil
# share, both kept by the operator (the inversion holds a transient copy of
# S), so a branch holds three.
_DENSE_BUDGET_BYTES = 1 << 29


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n: 2 pi^{n/2} / Gamma(n/2).

    Within 1.5e-15 relative of 40-digit values for n <= 60 by ``math.gamma``;
    exponentiating ``math.lgamma`` instead amplifies its 3-5e-16 absolute error
    at the half-integers to 1.2e-14.  Past n = 340, where Gamma(n/2)
    overflows, the log form is the only one.
    """
    if n <= 340:
        return 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)
    return math.exp(math.log(2.0) + 0.5 * n * math.log(math.pi) - math.lgamma(n / 2.0))


@functools.lru_cache(maxsize=64)
def _gauss_jacobi(q: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """q-point Gauss rule for the weight (1 + x)^beta on (-1, 1), beta > -1,
    read-only and once per (q, beta).

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the polynomials P_k^{(0, beta)}.  One Newton step on the
    orthonormal p_q polishes them, and the weights are the Christoffel numbers
    1 / sum_{k<q} p_k(x)^2 at the polished nodes.  Against 30-digit rules for
    beta in [-0.98, 1.98] the nodes are within 2.3e-16 and the weights within
    8e-15 relative; beta = 0, Gauss-Legendre, within 1.1e-16 and 1.3e-15.
    """
    k = np.arange(1, q + 1, dtype=float)
    t = 2.0 * k + beta
    diag = np.empty(q)                       # a_0 .. a_{q-1}
    diag[0] = beta / (beta + 2.0)
    diag[1:] = beta * beta / (t[:-1] * (t[:-1] + 2.0))
    off = 2.0 * k * (k + beta) / (t * np.sqrt((t - 1.0) * (t + 1.0)))   # b_1 .. b_q
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1))

    def recurrence(x):
        # b_{j+1} p_{j+1} = (x - a_j) p_j - b_j p_{j-1} from p_0 = mu_0^{-1/2},
        # mu_0 = 2^{beta+1} / (beta+1); returns p_q, p_q' and sum_{j<q} p_j^2.
        p_prev, p = np.zeros_like(x), np.full_like(x, ((beta + 1.0) / 2.0 ** (beta + 1.0)) ** 0.5)
        dp_prev, dp = np.zeros_like(x), np.zeros_like(x)
        total = np.zeros_like(x)
        for j in range(q):
            total += p * p
            b_j = off[j - 1] if j else 0.0
            p_next = ((x - diag[j]) * p - b_j * p_prev) / off[j]
            dp_next = ((x - diag[j]) * dp + p - b_j * dp_prev) / off[j]
            p_prev, p, dp_prev, dp = p, p_next, dp, dp_next
        return p, dp, total

    p, dp, _ = recurrence(x)
    x = x - p / dp
    return _read_only(x), _read_only(1.0 / recurrence(x)[2])


# ----------------------------------------------------------------------
# grid


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing nodes r_0 = 0 < ... < r_N = 1, copied, read-only
    and equal by value."""

    nodes: np.ndarray

    def __post_init__(self) -> None:
        nodes = _read_only(np.array(self.nodes, dtype=float))
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 17:
            raise DomainError("grid needs at least 16 panels (17 nodes)")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise DomainError("grid must span [0, 1] with r_0 = 0 and r_N = 1")
        if not np.all(np.diff(nodes) > 0.0):
            raise DomainError("grid nodes must increase strictly")
        _check_dense_budget(self.n_panels)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RadialGrid) and np.array_equal(self.nodes, other.nodes)

    @property
    def n_panels(self) -> int:
        return self.nodes.size - 1

    @property
    def interior(self) -> np.ndarray:
        return self.nodes[1:-1]

    @functools.cached_property
    def origin_fold(self) -> tuple[float, float]:
        """Weights (e1, e2) with u(0) = e1 u(r_1) + e2 u(r_2).

        Even-quadratic extrapolation: exact for u = a + b r^2 (radial
        smoothness forces u'(0) = 0) and exact for constants (e1 + e2 = 1).
        """
        r1, r2 = self.nodes[1], self.nodes[2]
        denom = r2 * r2 - r1 * r1
        return r2 * r2 / denom, -r1 * r1 / denom

    def origin_value(self, u_int: np.ndarray) -> float:
        """The origin value e1 u_1 + e2 u_2 of interior values u_1 .. u_{N-1}."""
        return self.origin_fold[0] * u_int[0] + self.origin_fold[1] * u_int[1]

    def fold_origin(self, rows: np.ndarray) -> None:
        """Add e1 and e2 times row 0 to rows 1 and 2 in place (fold a matrix, then its .T)."""
        e1, e2 = self.origin_fold
        rows[1] += e1 * rows[0]
        rows[2] += e2 * rows[0]

    def fold_origin_bands(self, diag: np.ndarray, off: np.ndarray) -> None:
        """Both folds of a symmetric tridiagonal matrix, in place on its bands:
        the dense folds' operations on its leading 3x3 block, in scalars."""
        e1, e2 = self.origin_fold
        m00, m01 = diag[0], off[0]
        m10 = m01 + e1 * m00   # entry (1, 0) after the row fold
        diag[1] = (diag[1] + e1 * m01) + e1 * m10
        diag[2] += e2 * (e2 * m00)
        off[1] += e2 * m10

    def profile(self, u_int: np.ndarray) -> "RadialFunction":
        """The Dirichlet profile of interior values: u_0 by the fold, u_N = 0."""
        values = np.r_[self.origin_value(u_int), u_int, 0.0]
        return RadialFunction(grid=self, values=values)

    @classmethod
    def graded(cls, n_panels: int, grading: float = 2.0) -> "RadialGrid":
        """Algebraically graded grid clustering nodes at both r=0 and r=1.

        The map t^p / (t^p + (1-t)^p), p = grading >= 1 (1 is uniform), gives
        spacing ~ (1/N)^p at both ends and ~ p/N in the middle.  A grading so
        strong that nodes coincide in floating point is refused.
        """
        if n_panels < 16:
            raise DomainError(f"need at least 16 panels, got {n_panels}")
        _check_dense_budget(n_panels)
        p = float(grading)
        if not (p >= 1.0 and math.isfinite(p)):
            raise DomainError(f"grading exponent must be finite and >= 1, got {p}")
        t = np.linspace(0.0, 1.0, n_panels + 1)
        tp = t**p
        # Both powers underflow near t = 1/2 only for p > 1000, where the
        # nodes toward r = 1 have already rounded to 1 and the check in
        # __post_init__ refuses the grid; the floor keeps that 0/0 out.
        nodes = tp / np.maximum(tp + (1.0 - t) ** p, np.finfo(float).tiny)
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

    def far_mean(self, beta: float, s: float) -> float:
        """Mean of the datum over rho > 2 under the weight rho^{-1-beta}, beta > 0."""
        if self.kind is TailKind.ZERO:
            return 0.0
        if self.kind is TailKind.POWER:
            return self.coeff * 2.0 ** (-self.alpha) * (beta / (beta + self.alpha))
        return -2.0 * s * self.coeff * (math.log(2.0) + 1.0 / beta)


@dataclass(frozen=True)
class RadialFunction:
    """Nodal values on a radial grid plus the exterior datum.

    Values must be finite at every node; the origin node alone may be
    non-finite when ``singular_at_origin`` is set (profiles like r^{-a} or
    log 1/r).  The operator never evaluates such functions at r = 0.  Like the
    grid's nodes, the values are copied and read-only, so no later write to
    the caller's array reaches them.
    """

    grid: RadialGrid
    values: np.ndarray
    tail: TailSpec = field(default_factory=TailSpec.zero)
    singular_at_origin: bool = False

    def __post_init__(self) -> None:
        values = _read_only(np.array(self.values, dtype=float))
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.nodes.shape:
            raise DomainError(
                f"values shape {values.shape} does not match grid with {self.grid.nodes.size} nodes"
            )
        check = values[1:] if self.singular_at_origin else values
        if not np.all(np.isfinite(check)):
            raise DomainError("nodal values must be finite (except r_0 when flagged singular)")

    @classmethod
    def from_callable(cls, grid: RadialGrid, fn, tail: TailSpec = TailSpec.zero(),
                      singular_at_origin: bool = False) -> "RadialFunction":
        first = 1 if singular_at_origin else 0   # a singular origin value is inf
        values = np.full_like(grid.nodes, np.inf)
        values[first:] = [fn(r) for r in grid.nodes[first:]]
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

    Each piece interpolates at _PHI_DEGREE + 1 first-kind Chebyshev points, by
    one solve with the matrix cos(j theta_k) of their angles.  Node values
    come from the Gauss series on the first pieces (z <= 1/2 unless c > 16)
    and, toward z = 1, from Taylor re-expansion of the hypergeometric equation
    at each piece's centre.  No connection formula is involved, so nothing
    cancels when c - a - b is close to an integer.  The chain of re-expansions
    is sequential and runs in plain floats; the expansions are kept, and every
    piece's nodes are then evaluated by one Horner over all pieces at once.

    Evaluation finds each entry's piece k from the binary exponent of w, maps
    w onto the piece's [-1, 1] by w 2^(k+2) - 3 (a product by a power of two
    from the _POW2 table, which does not round), and runs one Horner over
    all entries with the piece's coefficients gathered per entry.  Called
    with z it forms w = 1 - z; ``at_gap`` takes w itself from a caller that
    has it exactly, where 1 - z would carry the rounding of z.
    """

    def __init__(self, a: float, b: float, c: float):
        hi = np.ldexp(1.0, -np.arange(_PHI_PIECES - 1))
        x, _ = _chebyshev(_PHI_DEGREE + 1)
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

        # One series for the first k0 pieces' nodes and the first expansion point.
        y, dy = gauss(np.append(1.0 - w[:k0], 1.0 - hi[k0]))
        values = np.empty_like(w)
        values[:k0] = y[:-1].reshape(k0, -1)
        w0 = float(hi[k0])
        row = self._taylor(a, b, c, w0, float(y[-1]), -float(dy[-1]))
        centre = 0.75 * hi[k0:]
        taylor = np.empty((centre.size, len(row)))   # row i: expansion about centre[i]
        for i, w1 in enumerate(centre.tolist()):
            # Step to the piece's centre (|step| = radius / 4 or / 2), expand there.
            tau = (w1 - w0) / w0
            y0 = _horner(row, tau)
            dy0 = _horner([j * row[j] for j in range(1, len(row))], tau) / w0
            w0 = w1
            row = self._taylor(a, b, c, w0, y0, dy0)
            taylor[i] = row
        # Every piece's nodes at once, by one Horner over the (pieces, nodes) block.
        t = (w[k0:] - centre[:, None]) / centre[:, None]
        block = values[k0:]
        block[:] = taylor[:, -1:]
        for cj in taylor.T[-2::-1]:
            block *= t
            block += cj[:, None]
        # Evaluated by Horner in the monomial basis: the nearest singularity
        # is at x = -3 on every piece, so the coefficients decay and the
        # conversion loses nothing measurable (<= 1 ulp against Clenshaw).
        t_mono = np.zeros((_PHI_DEGREE + 1, _PHI_DEGREE + 1))   # row j: T_j in x^k
        t_mono[0, 0] = t_mono[1, 1] = 1.0
        for j in range(1, _PHI_DEGREE):
            t_mono[j + 1, 1:] = 2.0 * t_mono[j, :-1]
            t_mono[j + 1] -= t_mono[j - 1]
        # T_j(x_k) = cos(j theta_k), at the points' angles theta_k.
        theta = (np.arange(_PHI_DEGREE + 1) + 0.5) * (np.pi / (_PHI_DEGREE + 1))
        vander = np.cos(theta[:, None] * np.arange(_PHI_DEGREE + 1))
        mono = np.zeros((_PHI_PIECES, _PHI_DEGREE + 1))
        mono[:-1] = np.linalg.solve(vander, values.T).T @ t_mono
        # Phi(1): the last expansion at w = 0, where its singular part
        # (w0 + t)^{1+2s} sums to below w0^{1+2s} ~ 2^-52.
        mono[-1, 0] = _horner(row, -1.0)
        self._coef = np.ascontiguousarray(mono.T)   # row j: x^j coefficient per piece

    @staticmethod
    def _taylor(a: float, b: float, c: float, w0: float, y0: float, dy0: float) -> list[float]:
        """Scaled Taylor coefficients y_j w0^j of the solution about w = w0.

        In w the hypergeometric equation reads
        w(1-w) y'' + [(a+b+1-c) - (a+b+1) w] y' - ab y = 0.  For w0 <= 1/2
        its nearest singular point is w = 0, so the series converges for
        |w - w0| < w0 and the scaled coefficients stay bounded.
        """
        q0 = (a + b + 1.0 - c) - (a + b + 1.0) * w0
        p1 = 1.0 - 2.0 * w0
        y = [y0, dy0 * w0]
        for j in range(62):
            y.append(((j + a) * (j + b) * w0 * y[j] - (p1 * j + q0) * (j + 1) * y[j + 1]) / (
                (1.0 - w0) * (j + 1) * (j + 2)))
        return y

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return self.at_gap(1.0 - np.asarray(z, dtype=float))

    def at_gap(self, w: np.ndarray) -> np.ndarray:
        """Phi(1 - w) for w in [0, 1].

        Piece k's point is x = w 2^(k+2) - 3, with the power of two taken
        from _POW2: the same bits as ``np.ldexp(w, k + 2) - 3``, subnormal w
        included, at less cost than ldexp's per-entry exponent arithmetic.
        """
        w = np.asarray(w, dtype=float)
        flat = w.ravel()
        # w in [2^-(k+1), 2^-k) has binary exponent -k; w = 1 (z = 0) has
        # exponent 1 but belongs to piece 0, and w < 2^-53 is z = 1.
        k = np.maximum(-np.frexp(np.maximum(flat, 2.0**-54))[1], 0).astype(np.intp)
        x = flat * _POW2.take(k)   # piece k mapped onto [2, 4], exactly
        x -= 3.0                   # and onto [-1, 1]
        out = self._coef[-1].take(k)
        for cj in self._coef[-2::-1]:
            out *= x
            out += cj.take(k)
        return out.reshape(w.shape)


@functools.lru_cache(maxsize=64)
def _phi(a: float, b: float, c: float):
    """Evaluator of 2F1(a, b; c; z) on [0, 1], built once per (a, b, c).

    Used with a = -s, c = n/2 for the kernel's Phi (b = n/2-s-1) and the
    exterior mass's Psi (b = n/2-s).  Where the function is a polynomial (b a
    nonpositive integer: Phi = 1 + z at (n, s) = (1, 0.5), Phi = 1 at
    (3, 0.5), Psi = 1 at (1, 0.5)) its terminating Gauss sum is exact and
    faster than the table, so it is summed directly.
    """
    if b <= 0.0 and b == math.floor(b):
        return functools.partial(_gauss_polynomial, a, b, c)
    return _PhiTable(a, b, c)


def _horner(coef: list[float], x: float) -> float:
    """sum_j coef[j] x^j in plain floats, in numpy polyval's order of operations."""
    out = coef[-1]
    for cj in coef[-2::-1]:
        out = cj + out * x
    return out


def _gauss_polynomial(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    """2F1(a, b; c; z) for a nonpositive integer b: the Gauss sum's -b + 1 terms."""
    out = np.ones_like(z, dtype=float)
    term = 1.0
    for k in range(int(-b)):
        term = term * ((a + k) * (b + k) / ((c + k) * (k + 1))) * z
        out += term
    return out


def _kernel(p: ProblemParams, r: np.ndarray | float, rho: np.ndarray,
            dist: np.ndarray | float) -> np.ndarray:
    """K(r, rho) = rho^{n-1} k(r, rho), broadcast over r and rho.

    ``dist`` is |r - rho| in the singular factor, formed by the caller: from
    offsets within a panel, which keep full relative precision near r = 1
    where the difference of the rounded radii does not, or 1 for the smooth
    part G = K |r - rho|^{1+2s}.  Factored as
    (rho/M)^{n-1} * (M / ((r+rho) dist))^{1+2s} * Phi so the power terms stay
    O(1) even for dimension-sized exponents at large radii.
    """
    # In place, in the operation order of the plain product (so bitwise the
    # same): every temporary is a whole block, and each one saved is a block
    # less written to and read back from memory.
    big = np.maximum(r, rho)
    z = np.minimum(r, rho)
    z /= big
    z *= z
    out = rho / big
    out **= p.n - 1
    out *= sphere_area(p.n)
    gap = r + rho
    gap *= dist
    big /= gap
    del gap
    big **= 1.0 + 2.0 * p.s
    out *= big
    del big
    out *= _phi(-p.s, 0.5 * p.n - p.s - 1.0, 0.5 * p.n)(z)
    return out


# ----------------------------------------------------------------------
# operator


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """The radial operator for (params, grid); every part is built on first
    access, cached and read-only, its origin node folded by the grid.
    Galerkin (the Gelfand solver's): the energy form ``stability_form`` and
    its inverse, the e^u load and mass of ``exp_mass``, and ``mass``, their
    value at u = 0.  Collocation (``assemble`` builds it up front): the
    couplings ``couple_quad`` and ``couple_quad_bnd`` and the row masses
    ``tail_mass`` of ``apply_interior``'s difference form, exact on constants.
    """

    params: ProblemParams
    grid: RadialGrid

    def __post_init__(self) -> None:
        if not 0.0 < self.params.s < 1.0:
            raise DomainError(f"discretized operator requires 0 < s < 1, got s={self.params.s}")
        operator_normalization(self.params)   # refuses an overflowing c_{n,s} before any work

    @property
    def n_interior(self) -> int:
        return self.grid.n_panels - 1

    @staticmethod
    def _block_rows(row_entries: int, blocks: int = 1) -> int:
        """Rows of ``row_entries`` entries that ``blocks`` blocks of
        temporaries hold (at least one): the row blocks here, the pencil
        stacks of gelfand."""
        return max(1, blocks * _BLOCK_ENTRIES // row_entries)

    @functools.cached_property
    def _couplings(self) -> tuple[np.ndarray, np.ndarray]:
        return _assemble_couplings(self.params, self.grid)

    couple_quad = property(lambda self: self._couplings[0])       # (Ni, Ni), origin fold applied
    couple_quad_bnd = property(lambda self: self._couplings[1])   # (Ni,), to the boundary node

    @functools.cached_property
    def normalization(self) -> float:
        """The constant c_{n,s} in front of the principal-value integral."""
        return operator_normalization(self.params)

    _exp_rule = functools.cached_property(lambda self: _mass_rule(self.params, self.grid))

    def exp_mass(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Load b_i = int e^{u_h} phi_i and mass E_ij = int e^{u_h} phi_i phi_j.

        u_h is the hat interpolant of ``values`` (at all nodes, u_0 the origin
        fold of u_1, u_2), linear in r on every panel; E = db/du.  ``_local_mass``
        takes e^{u_h} at ``_mass_rule``'s points, and the grid folds the origin
        hat.  Returns b (Ni,), E's diagonal (Ni,) and off-diagonal (Ni-1,).
        """
        _, weight, (fall, rise) = self._exp_rule
        load, diag, off = _local_mass(
            weight * np.exp(values[:-1, None] * fall + values[1:, None] * rise), (fall, rise))
        self.grid.fold_origin(load)
        self.grid.fold_origin_bands(diag, off)
        return load[1:-1], diag[1:-1], off[1:-1]

    @functools.cached_property
    def mass(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``exp_mass`` at u = 0 (read-only): the load b(0) of the source 1
        and the bands of the consistent mass B_ij = int phi_i phi_j."""
        return tuple(_read_only(a) for a in self.exp_mass(np.zeros(self.grid.nodes.size)))

    @functools.cached_property
    def tail_mass(self) -> np.ndarray:
        """Closed-form row masses int_{rho > 1} K(r_i, rho) drho (read-only).

        Only zero-exterior work reads them, so a power-tail run never builds
        the Psi table behind them.
        """
        interior = self.grid.interior
        return _read_only(_exterior_mass(self.params, interior, 1.0 - interior))

    def apply_interior(self, u_int: np.ndarray, tail: TailSpec) -> np.ndarray:
        """Difference-form action at interior nodes.

        Every term multiplies a pointwise difference, so a globally constant
        function (matching constant tail) yields exact zeros instead of the
        cancellation of ~dist^{-2s} terms a matvec would incur.  Only a zero
        tail uses the closed-form mass.  The differences are formed over
        blocks of rows, so no temporary is larger than a block; each row's
        sum is the one over the whole matrix, bit for bit.
        """
        u_int = np.asarray(u_int, dtype=float)
        # Products are formed in place.
        out = np.empty_like(u_int)
        for rows in _row_blocks(u_int.size, u_int.size):
            diff = u_int[rows, None] - u_int[None, :]
            diff *= self.couple_quad[rows]
            out[rows] = diff.sum(axis=1)
        g1 = tail.boundary_value(self.params.s)
        out += self.couple_quad_bnd * (u_int - g1)
        if tail.kind is TailKind.ZERO:
            out += self.tail_mass * u_int
        else:
            for rows, rel, wk in _exterior_blocks(self.params, self.grid.interior, tail):
                np.subtract(u_int[rows, None], rel, out=rel)
                rel *= wk
                out[rows] += rel.sum(axis=1)
        return self.normalization * out

    @functools.cached_property
    def stability_form(self) -> np.ndarray:
        """Symmetric PSD matrix S of the zero-tail energy form (read-only).

        The Galerkin double integral of the difference kernel over
        piecewise-linear hats: every quadrature contribution is a nonnegative
        multiple of an outer product, so S is PSD by construction, which a
        weighted symmetrization of the collocation rows is not once the
        radial masses near the origin differ by orders of magnitude.
        """
        return _read_only(_assemble_energy(self.params, self.grid))

    @functools.cached_property
    def _energy_inverse(self) -> np.ndarray:
        """S^{-1} (read-only), the Gelfand solvers' one dense inverse.

        Newton's Krylov steps and the stability pencil precondition by it:
        lam E is a bounded L^2 term next to the energy, so one inverse
        serves every point of a branch.  The torsion reads it too.
        """
        return _read_only(np.linalg.inv(self.stability_form))

    @functools.cached_property
    def _stability_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """|S| and the row factors 1 / max_j |S_ij| (read-only): Newton's
        roundoff scale and the weights of its line search's merit."""
        mag = np.abs(self.stability_form)
        return _read_only(mag), _read_only(1.0 / mag.max(axis=1))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _panel_rule(h: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """q-point Gauss-Legendre, _gauss_jacobi(q, 0), on every panel of widths h
    (any shape), by offset.

    Returns the nodes' offsets from each panel's left node and their weights
    (h.shape + (q,)), and the panel's two hats at the nodes (2, q): falling
    (the left node's) and rising (the right node's), the same on every panel.
    A point is then the left node plus its offset, and a distance between
    points the difference of nodes plus the difference of offsets.
    """
    x, w = _gauss_jacobi(q, 0.0)
    half = 0.5 * np.asarray(h)[..., None]
    return half * (1.0 + x), half * w, np.stack([0.5 * (1.0 - x), 0.5 * (1.0 + x)])


def _mass_rule(p: ProblemParams, grid: RadialGrid) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The local masses' 6-point panel rule: offsets (panel, 6), weights
    |S^{n-1}| w r^{n-1} (read-only), and the falling and rising hats."""
    off, w, (fall, rise) = _panel_rule(np.diff(grid.nodes), 6)
    weight = sphere_area(p.n) * w * (grid.nodes[:-1, None] + off) ** (p.n - 1)
    return off, _read_only(weight), (fall, rise)


def _local_mass(dens: np.ndarray, hat) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Load int f phi_i (N+1,) and the bands (N+1,), (N,) of int f phi_i phi_j
    over all nodes, unfolded, for f given by its weighted values ``dens``
    (panel, q) at a panel rule's points, where the hats are ``hat`` (2, q)."""
    fall, rise = hat
    load, diag = np.zeros((2, dens.shape[0] + 1))
    load[:-1], diag[:-1] = dens @ fall, dens @ (fall * fall)
    load[1:] += dens @ rise
    diag[1:] += dens @ (rise * rise)
    return load, diag, dens @ (rise * fall)


def _row_blocks(stop: int, row_entries: int, start: int = 0):
    """Slices of consecutive rows start..stop-1 holding at most _BLOCK_ENTRIES entries.

    A row wider than the budget makes a block by itself.  In a fresh process
    too, each block reuses the memory of the block before it (see below).
    """
    # glibc serves an allocation above its mmap threshold (128 KiB at start)
    # by mmap and unmaps it on free, so in a fresh process every block's
    # temporaries would page-fault in anew.  Freeing an mmapped chunk (up to
    # 32 MiB) raises the mmap threshold to its size and the trim threshold to
    # twice that (mallopt(3), dynamic thresholds); from then on the blocks'
    # temporaries come from the heap and stay there for the next block.
    # np.empty touches no page; under another allocator this changes nothing.
    np.empty(4 * _BLOCK_ENTRIES)   # 1 MiB, freed at once
    step = OperatorMatrix._block_rows(row_entries)
    for lo in range(start, stop, step):
        yield slice(lo, min(stop, lo + step))


def _exterior_blocks(p: ProblemParams, radii: np.ndarray, tail: TailSpec):
    """Exterior quadrature (rows, datum, weight * K(r, rho)) for radii r < 1.

    Yields row slices of at most _BLOCK_ENTRIES entries; ``datum`` holds the
    tail's values at the nodes and is the caller's to overwrite.  (1, 2] is
    split at 1 + d (2^k - 1), capped at 2, with d = 1 - r: panels
    geometrically refined toward 1 at the scale of the row's boundary
    distance, on which the kernel varies.  Nodes are placed by their offset u
    from 1 (a break plus the offset within its panel), and the kernel's
    singular factor uses rho - r = d + u, which keeps full relative precision
    however small d is.  Every row carries only its own panels: the rows are
    cut into runs of equal panel count, each run into blocks, so a row's
    columns, and its sum, do not depend on the block it falls in.

    Beyond rho = 2, Euler's transformation of Phi gives
    K(r, rho) = |S^{n-1}| rho^{-1-2s} 2F1(n/2+s, 1+s; n/2; (r/rho)^2)
    = |S^{n-1}| sum_k f_k r^{2k} rho^{-1-beta_k}, with
    f_k = (n/2+s)_k (1+s)_k / ((n/2)_k k!) and beta_k = 2s + 2k, and each term
    integrates exactly: column k has the weight
    |S^{n-1}| f_k r^{2k} 2^{-beta_k} / beta_k and the datum's mean under
    rho^{-1-beta_k} (``TailSpec.far_mean``).  As r/rho <= 1/2 and f_k grows
    like k^{2s}, term k is below 4^-k k^2 of the first, so _FAR_TERMS terms
    are exact to roundoff.  A mean per term, rather than one column for the
    whole series, keeps a constant datum exactly constant.
    """
    radii = np.asarray(radii, dtype=float)
    d_min = 1.0 - float(radii.max())
    n_near = 1
    while d_min * (2.0**n_near - 1.0) < 1.0:
        n_near += 1
    steps = 2.0 ** np.arange(n_near + 1) - 1.0
    # Break k sits at d (2^k - 1); a row needs them up to the first one past 1.
    counts = np.count_nonzero((1.0 - radii)[:, None] * steps < 1.0, axis=1)
    cuts = (np.flatnonzero(np.diff(counts)) + 1).tolist()

    k = np.arange(_FAR_TERMS, dtype=float)
    beta = 2.0 * p.s + 2.0 * k
    h = 0.5 * p.n
    f = np.cumprod(np.r_[1.0, ((h + p.s + k) * (1.0 + p.s + k) / ((h + k) * (k + 1.0)))[:-1]])
    w_far = sphere_area(p.n) * f * 2.0 ** (-beta) / beta
    g_far = np.array([tail.far_mean(b, p.s) for b in beta])

    for start, stop in zip([0] + cuts, cuts + [radii.size]):
        n_pan = int(counts[start])
        for rows in _row_blocks(stop, n_pan * _TAIL_ORDER + _FAR_TERMS, start):
            r = radii[rows, None]
            d = 1.0 - r
            breaks = np.minimum(1.0, d * steps[: n_pan + 1])   # offsets from rho = 1
            off, w, _ = _panel_rule(np.diff(breaks, axis=1), _TAIL_ORDER)
            u, w = (breaks[:, :-1, None] + off).reshape(r.size, -1), w.reshape(r.size, -1)
            rho = 1.0 + u
            g = np.concatenate([tail.values(rho, p.s), np.broadcast_to(g_far, (r.size, k.size))], 1)
            wk = np.concatenate([w * _kernel(p, r, rho, dist=d + u), w_far * (r * r) ** k], 1)
            yield rows, g, wk


def _exterior_mass(p: ProblemParams, radii: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """int_{rho > 1} K(r, rho) drho at each radius r < 1 (the zero-tail row mass).

    Dyda's (-Delta)^s 1_B / c_{n,s} after Euler's transformation (its Gamma
    factors cancel against c_{n,s}): |S^{n-1}|/(2s) ((1-r)(1+r))^{-2s} Psi(r^2)
    with Psi = 2F1(-s, n/2-s; n/2; .) > 0 on [0, 1).  The caller passes
    gaps = 1 - r, formed where it is exact: at a grid node, 1 - r itself; at
    a point inside a panel, the panel's 1 - r_p less the point's offset.
    Near r = 1 it is 1 - r^2 = gaps (1 + r) that Psi resolves, so a tabled
    Psi takes that product; a polynomial Psi takes r^2, in which it is exact.
    """
    n, s = p.n, p.s
    table = _phi(-s, 0.5 * n - s, 0.5 * n)
    w = gaps * (1.0 + radii)
    psi = table.at_gap(w) if isinstance(table, _PhiTable) else table(radii * radii)
    return sphere_area(n) / (2.0 * s) * w ** (-2.0 * s) * psi


def _add_stencil(out: np.ndarray, lo: int, *parts: np.ndarray) -> None:
    """Add contributions (rows, m) of panels lo..lo+m-1 to their node columns in out.

    Over a w-node stencil (w = len(parts), 2 or 3) panel p feeds the nodes
    max(p + 2 - w, 0) + j through parts[j]: the 3-node Lagrange stencil p-1,
    p, p+1 (panel 0: nodes 0, 1, 2) and the 2-node hats p, p+1.  out's
    columns are the nodes from the first panel's first stencil node on:
    max(lo + 2 - w, 0) .. lo + m.  Slice adds, last node first, so that every
    column sums its panels in ascending order, as one ``np.add.at`` over the
    stencil does.
    """
    if lo + 2 < len(parts):
        for j, part in enumerate(parts):
            out[:, j] += part[:, 0]
        parts = [part[:, 1:] for part in parts]   # panel 1 feeds nodes 0, 1, 2 too
    m = parts[0].shape[1]
    for j in reversed(range(len(parts))):
        out[:, j : m + j] += parts[j]


def _children(lo: int, hi: int) -> tuple[tuple[int, int], ...]:
    """The cluster tree's split of the panel range lo..hi-1: its two halves
    at the middle index, or none for a leaf of at most _LEAF_PANELS panels."""
    if hi - lo <= _LEAF_PANELS:
        return ()
    mid = (lo + hi) // 2
    return (lo, mid), (mid, hi)


@functools.lru_cache(maxsize=None)
def _chebyshev(order: int = _CLUSTER_ORDER) -> tuple[np.ndarray, np.ndarray]:
    """First-kind Chebyshev points cos theta_k, theta_k = (k + 1/2) pi/order,
    and barycentric weights (-1)^k sin theta_k (read-only): the clusters'
    points, and at order _PHI_DEGREE + 1 the Phi table's."""
    theta = (np.arange(order) + 0.5) * (np.pi / order)
    bary = np.where(np.arange(order) % 2, -1.0, 1.0) * np.sin(theta)
    return _read_only(np.cos(theta)), _read_only(bary)


def _cluster_basis(rel: np.ndarray, radius: float | np.ndarray) -> np.ndarray:
    """The Lagrange basis of a cluster's Chebyshev points at given points.

    The cluster spans [a, a + 2 radius], and points are given by their
    offsets from a.  Returns the basis L_k at the offsets ``rel`` by the
    barycentric formula, (_CLUSTER_ORDER,) + rel.shape; an array ``radius``
    broadcasts against ``rel``, one cluster per point.
    """
    cheb, bary = _chebyshev()
    expand = (slice(None),) + (None,) * np.ndim(rel)
    t = bary[expand] / ((rel - radius) / radius - cheb[expand])
    t /= t.sum(axis=0)
    return t


def _transfers(nodes: np.ndarray, clusters) -> dict[tuple[int, int], np.ndarray]:
    """The transfer matrix of every child of the given clusters, by child.

    On a child, its parent's Lagrange basis (degree < _CLUSTER_ORDER) is
    exactly the child's interpolant of it, L_k = sum_l L_k(c_l) L'_l, with
    c_l the child's Chebyshev points; so a parent's moments are its
    children's moments times L_k(c_l), (k, l), and values at the parent's
    points are carried down to the child's by the same matrix (H^2-matrices;
    Hackbusch, *Hierarchical Matrices*, Springer 2015, ch. 8).  The points
    are placed by their offsets from the parent's left end.  One evaluation
    of the basis serves every child, and each matrix is a separate array, so
    a caller can drop them one by one.
    """
    pairs = [(c, kid) for c in clusters for kid in _children(*c)]
    if not pairs:
        return {}
    cheb, _ = _chebyshev()
    (lo, hi), (klo, khi) = (np.array(c).T for c in zip(*pairs))
    points = (nodes[klo] - nodes[lo])[:, None] + (0.5 * (nodes[khi] - nodes[klo]))[:, None] * (1.0 + cheb)
    t = _cluster_basis(points, (0.5 * (nodes[hi] - nodes[lo]))[:, None])   # (k, child, l)
    return {kid: t[:, i].copy() for i, (_, kid) in enumerate(pairs)}


def _subtree(lo: int, hi: int):
    """The cluster lo..hi-1 and its descendants in the cluster tree, each
    before its children."""
    yield lo, hi
    for kid in _children(lo, hi):
        yield from _subtree(*kid)


def _far_partition(nodes: np.ndarray) -> list[tuple[tuple[slice, ...], int, int, bool]]:
    """Far-field regions of ``assemble``: (rows, lo, hi, admissible) per cluster.

    The clusters are the panel ranges lo..hi-1 of a binary tree, split at the
    middle index down to leaves of at most _LEAF_PANELS panels; ``rows`` are
    slices of interior rows (row k collocates at nodes[k + 1]).  A row takes
    the first cluster on its way down from the root that is admissible for
    it, at a distance of at least its width [nodes[lo], nodes[hi]]; the rows
    a cluster takes form at most two ranges, one below it and one above.  A
    leaf is integrated panel by panel (admissible False) for the rows within
    its width, which no cluster holding it serves.  So every panel not
    adjacent to a row is covered exactly once for that row.
    """
    radii = nodes[1:-1]
    out = []

    def visit(lo: int, hi: int, start: int, stop: int) -> None:
        # Rows start..stop-1 are those that no cluster holding this one serves.
        a, b = nodes[lo], nodes[hi]
        r = radii[start:stop]
        far = np.maximum(a - r, r - b) >= b - a
        below = start + np.count_nonzero(far & (r < a))
        above = stop - np.count_nonzero(far & (r > b))
        rows = tuple(slice(i, j) for i, j in ((start, below), (above, stop)) if i < j)
        if rows:
            out.append((rows, lo, hi, True))
        kids = _children(lo, hi)
        if not kids:
            out.append(((slice(below, above),), lo, hi, False))
        for kid in kids:
            visit(*kid, below, above)

    visit(0, nodes.size - 1, 0, radii.size)
    return out


def _nested_moments(nodes: np.ndarray, tree, transfer: dict, off: np.ndarray,
                    weights: np.ndarray, grow: int):
    """Moments of a far field's clusters, children first: the one moment
    sweep of the collocation far field and the energy form.

    Yields every cluster (lo, hi) of the panel tree in post-order, left to
    right, with its moments if it is in ``tree`` (a set of clusters with all
    their descendants), else None.  The moments (kind, k, column) are those
    of its Lagrange basis L_k against the stencil bases of its panels, on
    the nodes max(lo + 2 - w, 0)..hi of a w-node stencil (``_add_stencil``).
    The panels' Gauss rule is given by its nodes' offsets ``off`` (q, panel)
    and by ``weights`` (kind, stencil node, q, panel), weight times each
    stencil node's basis; the last kind also carries (rho/b)^grow, rho the
    Gauss node and b = nodes[hi].  The collocation far field passes its
    3-node Lagrange stencil as two kinds, for rows below and above a
    cluster, with grow = n - 1; the energy form the two hats times the
    weights of a lower and of an upper cluster, with grow = 0.

    Only the leaves evaluate their basis at the Gauss nodes.  A parent's
    moments are its children's times their transfer matrices, which it
    takes out of ``transfer`` (``_transfers`` of the tree) as it uses them,
    and (rho/b)^grow picks up (b_child/b)^grow at each step up; both are
    exact, so the moments differ from the basis summed over the cluster's
    Gauss nodes by roundoff.  A cluster's moments are dropped once its
    parent has them and the caller has moved on.
    """
    kinds, width = weights.shape[:2]
    done = {}   # moments of the clusters whose parent is still to come
    for lo, hi in sorted(_subtree(0, nodes.size - 1), key=lambda c: (c[1], c[1] - c[0])):
        start = max(lo + 2 - width, 0)
        kids = _children(lo, hi)
        parts = [done.pop(kid, None) for kid in kids]
        moments = None
        if (lo, hi) in tree and kids:
            moments = np.zeros((kinds, _CLUSTER_ORDER, hi + 1 - start))
            for (klo, khi), part in zip(kids, parts):
                part = transfer.pop((klo, khi)) @ part
                part[-1] *= (nodes[khi] / nodes[hi]) ** grow
                moments[..., max(klo + 2 - width, 0) - start : khi + 1 - start] += part
        elif (lo, hi) in tree:
            # L_k at the Gauss nodes (k, q, panel), placed by their offsets from
            # the leaf's left end.
            t = _cluster_basis((nodes[lo:hi] - nodes[lo]) + off[:, lo:hi], 0.5 * (nodes[hi] - nodes[lo]))
            w = np.array(weights[..., lo:hi].swapaxes(0, 1))   # (stencil node, kind, q, panel)
            w[:, -1] *= ((nodes[lo:hi] + off[:, lo:hi]) / nodes[hi]) ** grow
            # Per panel, (stencil node and kind, q) @ (q, k).
            per_panel = w.reshape(width * kinds, -1, hi - lo).transpose(2, 0, 1) @ t.transpose(2, 1, 0)
            moments = np.zeros((kinds * _CLUSTER_ORDER, hi + 1 - start))
            _add_stencil(moments, lo, *per_panel.reshape(hi - lo, width, -1).transpose(1, 2, 0))
            moments = moments.reshape(kinds, _CLUSTER_ORDER, -1)
        del parts
        if moments is not None:
            done[lo, hi] = moments
        yield (lo, hi), moments


def assemble(p: ProblemParams, grid: RadialGrid) -> OperatorMatrix:
    """The radial operator for (n, s) on the grid, its collocation couplings built.

    Rejects s = 1 (classical limit is out of the singular-integral scheme's
    scope) and grids below 16 panels (enforced by RadialGrid).
    """
    op = OperatorMatrix(params=p, grid=grid)
    op.couple_quad
    return op


def _assemble_couplings(p: ProblemParams, grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """Collocation couplings (interior, boundary node), read-only, for ``OperatorMatrix``."""
    s = p.s
    r = grid.nodes
    npan = grid.n_panels
    ni = npan - 1

    q_near = 2 * _PANEL_ORDER
    xj, wj = _gauss_jacobi(q_near, 1.0 - 2.0 * s)

    # Grid-wide Gauss rules per panel: nodes (q, 1, npan), their offsets from
    # the panel's left end (q, 1, npan), and weight times Lagrange basis
    # (3, q, npan), one table per stencil node p-1, p, p+1 of panel p (panel
    # 0: nodes 0, 1, 2).  Differences to nodes are formed as (r_p - x) +
    # offset: near r = 1 a node's rounded value is off by up to half an ulp
    # of 1, which on panels ~1e-9 wide (grading 3, 1024 panels) would cost
    # ~1e-8 of a coupling.
    first = np.maximum(np.arange(npan) - 1, 0)
    x0, x1, x2 = r[first], r[first + 1], r[first + 2]

    def far_rule(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Contiguous (q, npan): a strided view would change einsum's summation order.
        off, w = (np.ascontiguousarray(a.T) for a in _panel_rule(np.diff(r), q)[:2])
        d0, d1, d2 = (r[:-1] - x0) + off, (r[:-1] - x1) + off, (r[:-1] - x2) + off
        return (r[:-1] + off)[:, None, :], off[:, None, :], np.stack([
            w * (d1 * d2 / ((x0 - x1) * (x0 - x2))),
            w * (d0 * d2 / ((x1 - x0) * (x1 - x2))),
            w * (d0 * d1 / ((x2 - x0) * (x2 - x1)))])

    rho_direct, off_direct, lag_direct = far_rule(_PANEL_ORDER)
    # Moments of the stencil basis against a leaf's Lagrange basis, degree
    # _CLUSTER_ORDER + 1, times (rho/b)^{n-1} for rows above the leaf (see
    # below): exact under this rule up to n = 3.
    _, off_mom, lag_mom = far_rule(_CLUSTER_ORDER // 2 + 2)
    cheb, _ = _chebyshev()
    cq = np.zeros((ni, npan + 1))

    # Far field (Hackbusch-Nowak panel clustering).  On a cluster at least
    # its width from the row, K(r_i, .) is analytic, singular only at
    # rho = +-r_i, and its Chebyshev interpolant converges geometrically; the
    # row's couplings are then the kernel at the cluster's points times the
    # interpolant's exact moments against the panels' stencil bases, summed
    # onto the stencil nodes.  Below the row, K(r, rho) = (rho/r)^{n-1}
    # K(rho, r), and K(rho, r) is interpolated instead: the factor that makes
    # K tiny near rho = 0 goes into the moments as (rho/b)^{n-1}, b the
    # cluster's top, and into the row scale (b/r)^{n-1}.  So couplings to
    # the panels near the origin keep their relative accuracy, which a u
    # singular there needs.  A leaf closer to the row keeps per-panel Gauss,
    # with the two panels adjacent to the row (near field) zeroed.
    #
    # The moments are nested (``_nested_moments``, which the energy form
    # shares; the stencil basis goes in twice, as is for rows below a cluster
    # and times (rho/b)^{n-1} for rows above): formed at the leaves and
    # carried up by transfer matrices, with the tree swept children first, so
    # a cluster's moments are dropped once its parent has them and its rows
    # are queued.  Row blocks of clusters wait until the next one would take
    # their kernel entries past half of _BLOCK_ENTRIES, then share one kernel
    # call: the Phi table's gathers make a call's temporaries several times
    # its entries, and at the whole budget they would pass the trim threshold
    # that _row_blocks sets, so each call would fault its memory in anew.
    radii = grid.interior
    served, direct = {}, {}
    for rows, lo, hi, admissible in _far_partition(r):
        (served if admissible else direct)[lo, hi] = rows
    # (rows, columns, cluster's left end, points' offsets from it, moments,
    # row scale); their kernel entries
    pending, queued = [], 0

    def flush():
        nonlocal queued
        rad = np.concatenate([radii[blk] for blk, *_ in pending])[:, None]
        gap = np.concatenate([(a - radii[blk])[:, None] + off for blk, _, a, off, *_ in pending])
        pts = rad + gap
        low = np.minimum(rad, pts)
        # In place: two whole-call arrays fewer held through the kernel call.
        kmat = _kernel(p, low, np.maximum(rad, pts, out=pts), dist=np.abs(gap, out=gap))
        at = 0
        for blk, cols, _, _, moments, scale in pending:
            block = kmat[at : at + blk.stop - blk.start]
            block *= scale
            cq[blk, cols] += block @ moments
            at += blk.stop - blk.start
        pending.clear()
        queued = 0

    tree = dict.fromkeys(c for x in served for c in _subtree(*x))
    for (lo, hi), moments in _nested_moments(r, tree, _transfers(r, tree), off_mom[:, 0],
                                             np.broadcast_to(lag_mom, (2,) + lag_mom.shape), p.n - 1):
        start = max(lo - 1, 0)
        cols = slice(start, hi + 1)
        off = 0.5 * (r[hi] - r[lo]) * (1.0 + cheb)   # the Chebyshev points' offsets from r_lo
        for sl in served.get((lo, hi), ()):
            above = radii[sl.start] > r[hi]
            for blk in _row_blocks(sl.stop, max(_CLUSTER_ORDER, hi + 1 - start), sl.start):
                entries = (blk.stop - blk.start) * _CLUSTER_ORDER
                if queued and queued + entries > _BLOCK_ENTRIES // 2:
                    flush()
                scale = ((r[hi] / radii[blk]) ** (p.n - 1))[:, None] if above else 1.0
                pending.append((blk, cols, r[lo], off, moments[int(above)], scale))
                queued += entries
        for sl in direct.get((lo, hi), ()):
            pan = np.arange(lo, hi)
            for blk in _row_blocks(sl.stop, _PANEL_ORDER * pan.size, sl.start):
                k = np.arange(blk.start, blk.stop)[:, None]     # adjacent panels k, k + 1
                dist = np.abs((r[lo:hi] - radii[k]) + off_direct[..., lo:hi])
                kmat = _kernel(p, radii[k], rho_direct[..., lo:hi], dist)   # (node, row, panel)
                kmat[:, (pan == k) | (pan == k + 1)] = 0.0
                _add_stencil(cq[blk, cols], lo,
                             *np.einsum("qbp,jqp->jbp", kmat, lag_direct[..., lo:hi]))
    if pending:
        flush()

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
    # panels have equal widths get zero weights.  Its nodes are placed by
    # their offsets from r_i, (hm, h_r) on the right or (-h_l, -hm) on the left.
    off_sl, w_sl, _ = _panel_rule(np.maximum(h_l, h_r) - hm, _SLIVER_ORDER)
    delta_sl = np.where(h_r > hm, hm, -h_l)[:, None] + off_sl
    k_sl = w_sl * _kernel(p, ri, ri + delta_sl, np.abs(delta_sl))
    c_right += (k_sl * (delta_sl * (wa_r[:, None] + wb_r[:, None] * delta_sl))).sum(axis=1)
    c_left -= (k_sl * (delta_sl * (wa_l[:, None] + wb_l[:, None] * delta_sl))).sum(axis=1)
    cq[i - 1, i + 1] += c_right
    cq[i - 1, i - 1] += c_left

    # Fold the origin column onto nodes 1 and 2:  C(u_i - u_0) =
    # C e1 (u_i - u_1) + C e2 (u_i - u_2)  since e1 + e2 = 1.
    grid.fold_origin(cq.T)

    # The interior couplings are a read-only view of cq, without a copy.
    return _read_only(cq[:, 1:npan]), _read_only(cq[:, npan].copy())


def _energy_partition(nodes: np.ndarray) -> tuple[list[tuple[int, int, int, int]], ...]:
    """Block-cluster tree of the energy form's separated panel pairs pj >= pi + 2.

    Pairs of clusters of ``_children``'s tree, from the root paired with
    itself down: a cluster paired with itself splits into its halves' three
    pairs; a cluster X below a cluster Y is admissible when the gap between
    them is at least the width of each, and otherwise splits into the pairs
    of their halves (a leaf stays whole), down to a pair of leaves.  Returns
    the pairs of leaves (near) and the admissible pairs (far), each as
    (lo_X, hi_X, lo_Y, hi_Y).  Every separated panel pair lies in exactly one
    of them.
    """
    near, far = [], []

    def visit(x: tuple[int, int], y: tuple[int, int]) -> None:
        (lo1, hi1), (lo2, hi2) = x, y
        kx, ky = _children(lo1, hi1), _children(lo2, hi2)
        if x == y and kx:
            for a, b in ((0, 0), (0, 1), (1, 1)):
                visit(kx[a], kx[b])
        elif nodes[lo2] - nodes[hi1] >= max(nodes[hi1] - nodes[lo1], nodes[hi2] - nodes[lo2]):
            far.append(x + y)
        elif kx or ky:
            for a in kx or (x,):
                for b in ky or (y,):
                    visit(a, b)
        else:
            near.append(x + y)

    root = (0, nodes.size - 1)
    visit(root, root)
    return near, far


def _separated_pairs(p: ProblemParams, grid: RadialGrid, smat: np.ndarray) -> tuple:
    """Add the cross terms of the energy form's separated panel pairs
    (pj >= pi + 2) to the upper triangle of smat, (N+1)^2 over all nodes, and
    return their local masses (panel, q) and the hats (2, q) at the points.

    Each pair is integrated by 5x5 tensor Gauss-Legendre, and its quadrature
    weights t satisfy the split

        iint (eta(r)-eta(rho))(zeta(r)-zeta(rho)) t
          = local mass of r + local mass of rho - cross terms,

    so the masses (t summed over the other panel) accumulate per Gauss point
    and enter like the exterior density; the cross terms couple hats p, p+1
    of panel pi with hats of panel pj.  With r < rho, t is pref r^{n-1} w
    times K(r, rho) w', K = rho^{n-1} k.  The pairs of leaves of
    ``_energy_partition`` evaluate K at every pair of Gauss points
    (``_near_pairs``); its admissible pairs of clusters interpolate it
    (``_far_pairs``).
    """
    r = grid.nodes
    off, wts, hat = _panel_rule(np.diff(r), _PANEL_ORDER - 1)
    wlow = operator_normalization(p) * sphere_area(p.n) * (r[:-1, None] + off) ** (p.n - 1) * wts
    near, far = _energy_partition(r)
    mass = _near_pairs(p, r, off, wlow, wts, hat, near, smat)
    return mass + _far_pairs(p, r, off, wlow, wts, hat, far, smat), hat


def _panel_pairs(blocks: list[tuple[int, int, int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Panels pi, pj of the separated pairs (pj >= pi + 2) in the blocks
    lo_X..hi_X-1 x lo_Y..hi_Y-1, block by block and row by row."""
    lo1, hi1, lo2, hi2 = np.array(blocks).T
    cols = hi2 - lo2
    size = (hi1 - lo1) * cols
    block = np.repeat(np.arange(len(blocks)), size)
    k = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    pi, pj = lo1[block] + k // cols[block], lo2[block] + k % cols[block]
    sep = pj >= pi + 2
    return pi[sep], pj[sep]


def _near_pairs(p: ProblemParams, r: np.ndarray, off: np.ndarray, wlow: np.ndarray,
                wts: np.ndarray, hat: np.ndarray, near: list[tuple[int, int, int, int]],
                smat: np.ndarray) -> np.ndarray:
    """Cross terms of the separated panel pairs of pairs of leaves, added to
    smat, and their masses (panel, q) at the panels' Gauss points (offsets
    ``off``, weights ``wlow`` at r and ``wts`` at rho, hats ``hat``).

    The kernel is evaluated at all q x q point pairs of a panel pair, over
    blocks of pairs.  A pair's distance is (r_pj - r_pi) + (offset_j -
    offset_i), which keeps full relative precision near r = 1, where the
    rounded points would not.  A block's kernel arguments are gathered, row
    by row, from tables (panel, q * q) of the points, offsets and weights
    repeated (as r) or tiled (as rho), so they come whole and contiguous.  A
    pair's weights t, flattened, against the rows of ``reduce`` give its
    cross terms hat_x t hat_y^T, then t's row and column sums: one matrix
    product per block of pairs.
    """
    npan, q = off.shape
    near_i, near_j = _panel_pairs(near)
    pts = r[:-1, None] + off
    (row_pts, row_off, row_w), (col_pts, col_off, col_w) = (
        [np.repeat(a, q, axis=1) for a in (pts, off, wlow)],
        [np.tile(a, (1, q)) for a in (pts, off, wts)])
    ones, eye = np.ones(q), np.eye(q)
    reduce = np.concatenate([[np.outer(hat[x], hat[y]).ravel() for x in (0, 1) for y in (0, 1)],
                             np.kron(eye, ones), np.kron(ones, eye)])
    spread = npan * np.arange(q)[:, None]
    mass_t = np.zeros((q, npan))
    flat = smat.reshape(-1)
    for blk in _row_blocks(near_i.size, q * q):
        pi, pj = near_i[blk], near_j[blk]
        dist = col_off.take(pj, axis=0)
        dist -= row_off.take(pi, axis=0)
        dist += (r[pj] - r[pi])[:, None]
        tmat = _kernel(p, row_pts.take(pi, axis=0), col_pts.take(pj, axis=0), dist)   # (pair, q * q)
        del dist                                          # one block array less at the peak
        tmat *= row_w.take(pi, axis=0)
        tmat *= col_w.take(pj, axis=0)
        sums = reduce @ tmat.T
        at = pi * smat.shape[1] + pj                      # (pi, pj) in smat, flat
        for xy, step in enumerate((0, 1, smat.shape[1], smat.shape[1] + 1)):
            flat[at + step] -= sums[xy]
        for pan, part in ((pi, sums[4 : 4 + q]), (pj, sums[4 + q :])):
            mass_t.ravel()[:] += np.bincount((pan + spread).ravel(), part.ravel(), mass_t.size)
    return mass_t.T


def _far_pairs(p: ProblemParams, r: np.ndarray, off: np.ndarray, wlow: np.ndarray,
               wts: np.ndarray, hat: np.ndarray, far: list[tuple[int, int, int, int]],
               smat: np.ndarray) -> np.ndarray:
    """Cross terms of the admissible pairs of clusters, added to smat, and
    their masses (panel, q) at the Gauss points, as for ``_near_pairs``.

    On an admissible pair of clusters X below Y (Hackbusch-Nowak panel
    clustering) K is analytic, singular only at rho = +-r, and its tensor
    interpolant in the clusters' Chebyshev points replaces it at the Gauss
    points.  With the moments M_X = sum over X's points of pref r^{n-1} w
    hat L_k and M_Y = sum over Y's of w hat L_l, the cross block is
    M_X T M_Y^T, T the kernel at the Chebyshev points (distances again by
    offsets), and the masses are the same contraction against 1, summed per
    cluster at its Chebyshev points.  The factor r^{n-1}, which makes the
    integrand tiny near r = 0, stays in the moments, not in the interpolant,
    so pairs of panels near the origin keep their relative accuracy.  The
    interpolated weights are within 1e-10 of the kernel's, relative to each
    (6e-11 at (10, 0.9)), so they stay positive, and the form PSD.

    The moments come from the collocation far field's sweep,
    ``_nested_moments``, against the two hats: formed at the leaves and
    carried up the tree.  The masses' values at a cluster's Chebyshev points
    are carried down by the same transfer matrices, and at the leaves to the
    Gauss points.
    """
    npan, q = off.shape
    cheb, _ = _chebyshev()
    weights = np.stack([wlow, wts])      # (2, panel, q): as a lower and as an upper cluster
    # The admissible pairs' clusters and their descendants; per child, the
    # transfer matrix L_k(c_l), k of its parent (the sweep up empties a copy
    # of the dict, the sweep down reads it).  Per cluster of a pair: its
    # moments (2, k, node), as the lower and as the upper cluster, and their
    # sums over its nodes (2, k).
    clusters = dict.fromkeys(x for blk in far for x in (blk[:2], blk[2:]))
    tree = dict.fromkeys(c for x in clusters for c in _subtree(*x))
    transfer = _transfers(r, tree)
    hats = weights.transpose(0, 2, 1)[:, None] * hat[:, :, None]   # (kind, hat, q, panel)
    moments = {c: mom for c, mom in _nested_moments(r, tree, dict(transfer), off.T, hats, 0)
               if c in clusters}
    sums = {c: mom.sum(axis=2) for c, mom in moments.items()}

    # The masses' sums at each cluster's Chebyshev points, (2, k).
    at_cheb = {c: np.zeros((2, _CLUSTER_ORDER)) for c in tree}
    # Half-size kernel calls, as in the collocation far field: a Phi table's
    # gathers make a call's temporaries several times its entries.
    for blk in _row_blocks(len(far), 2 * _CLUSTER_ORDER**2):
        lo1, hi1, lo2, hi2 = np.array(far[blk]).T
        off1 = (0.5 * (r[hi1] - r[lo1]))[:, None] * (1.0 + cheb)
        off2 = (0.5 * (r[hi2] - r[lo2]))[:, None] * (1.0 + cheb)
        dist = off2[:, None, :] - off1[:, :, None]
        dist += (r[lo2] - r[lo1])[:, None, None]
        tmat = _kernel(p, (r[lo1, None] + off1)[:, :, None], (r[lo2, None] + off2)[:, None, :], dist)
        for (a, b, c, d), tb in zip(far[blk], tmat):
            smat[a : b + 1, c : d + 1] -= moments[a, b][0].T @ (tb @ moments[c, d][1])
            at_cheb[a, b][0] += tb @ sums[c, d][1]
            at_cheb[c, d][1] += sums[a, b][0] @ tb

    # The masses' values at each cluster's Chebyshev points, carried down
    # (parents first) to the leaves, and there to the Gauss points.
    mass = np.zeros((npan, q))
    down = {}
    for lo, hi in sorted(tree, key=lambda c: c[0] - c[1]):
        vals = at_cheb[lo, hi] + down.pop((lo, hi), 0.0)
        kids = _children(lo, hi)
        for kid in kids:
            down[kid] = vals @ transfer[kid]
        if not kids:
            t = _cluster_basis((r[lo:hi] - r[lo])[:, None] + off[lo:hi], 0.5 * (r[hi] - r[lo]))
            mass[lo:hi] = (np.einsum("rk,kpa->rpa", vals, t) * weights[:, lo:hi]).sum(axis=0)
    return mass


def _assemble_energy(p: ProblemParams, grid: RadialGrid) -> np.ndarray:
    """Galerkin matrix of the energy form over interior piecewise-linear hats.

    Uses the symmetric double-integral identity

        Q(eta, zeta) = (1/2) cns |S| iint (eta(r)-eta(rho)) (zeta(r)-zeta(rho))
                                         r^{n-1} rho^{n-1} k(r, rho) dr drho,

    valid for functions vanishing outside the ball.  Same-panel pairs reduce
    exactly to |r-rho|^{1-2s} times a smooth factor (hat differences are
    linear in r-rho there) and use Gauss-Jacobi in the gap variable; panel
    pairs sharing a corner use a Duffy split; separated pairs (pj >= pi + 2)
    use 5x5 tensor Gauss-Legendre, with the kernel replaced by its tensor
    Chebyshev interpolant on pairs of clusters at least their widths apart
    (``_separated_pairs``); the exterior region contributes the local density
    tau(r) = cns |S| r^{n-1} times the closed-form exterior mass, which is
    positive.  One ``_local_mass`` adds every tridiagonal part.  The grid
    folds the origin hat, the boundary hat is dropped (Dirichlet), so the
    result is PSD by construction.  Against the exact energy of Dyda's
    (1-r^2)_+^{s+1} the relative error is ~9e-5 at 128 panels and falls
    like N^-2.  The interpolant moves the form by ~2e-15 of its largest
    entry against 5x5 Gauss on every separated pair, and cuts the kernel
    entries of those pairs from 0.81M to 0.24M at (1, 0.5), N = 256, and
    from 13.07M to 1.02M at (1, 0.3), N = 1024.

    All three kinds of pairs run over blocks, and the contributions go to
    the upper triangle only, which is then mirrored in place: the one
    (N+1)^2 work matrix is the only dense array, and the result is a view of
    its interior.
    """
    n, s = p.n, p.s
    cns = operator_normalization(p)
    pref = cns * sphere_area(n)
    r = grid.nodes
    npan = grid.n_panels
    h = np.diff(r)
    smat = np.zeros((npan + 1, npan + 1))

    def kap_reg(rv: np.ndarray, pv: np.ndarray) -> np.ndarray:
        return pref * rv ** (n - 1) * _kernel(p, rv, pv, dist=1.0)

    sep_mass, sep_hat = _separated_pairs(p, grid, smat)

    # --- same-panel pairs: hat differences are slope*(r-rho) exactly, so the
    # pair energy is a single edge weight times the graph-Laplacian block.
    # Gap u (Jacobi weight u^{1-2s}) outer, position along the panel inner.
    qj, qg = 10, 6
    xj, wj = _gauss_jacobi(qj, 1.0 - 2.0 * s)
    xgi, wgi = _gauss_jacobi(qg, 0.0)
    edge = np.empty(npan)
    for rows in _row_blocks(npan, qj * qg):
        u_gap = 0.5 * h[rows, None] * (1.0 + xj)               # (panel, qj)
        wdt = 0.5 * (h[rows, None] - u_gap)
        rg = r[rows, None, None] + wdt[:, :, None] * (1.0 + xgi)   # (panel, qj, qg)
        inner = wdt * (kap_reg(rg, rg + u_gap[:, :, None]) @ wgi)
        edge[rows] = (0.5 * h[rows]) ** (2.0 - 2.0 * s) * (inner @ wj) / h[rows] ** 2

    # --- exterior region: local positive density tau(r) at exp_mass's
    # points, 1 - r as (1 - r_p) - offset.  Its masses, the separated pairs'
    # and the edges, edge (eta_p - eta_{p+1}) (zeta_p - zeta_{p+1}) as a
    # local mass against hat values 1 and -1, make one tridiagonal matrix.
    off, weight, hat = _mass_rule(p, grid)
    tau = weight * (cns * _exterior_mass(p, r[:-1, None] + off, (1.0 - r[:-1, None]) - off))
    _, band0, band1 = _local_mass(np.c_[sep_mass, tau, edge], np.c_[sep_hat, hat, [1.0, -1.0]])
    smat.flat[:: npan + 2] += band0
    smat.flat[1 :: npan + 2] += band1

    # --- corner-sharing pairs: Duffy coordinates xi = t v, chi = t (1-v)
    # around the shared node r_c; the net t-power is 2-2s (Jacobi) on
    # t < min width.  Rows: the npan-1 corners, over blocks; columns: t nodes.
    qt = 8
    xt, wt = _gauss_jacobi(qt, 0.0)
    xj2, wj2 = _gauss_jacobi(qj, 2.0 - 2.0 * s)
    for rows in _row_blocks(npan - 1, (qj + qt) * qg):
        a, b = h[rows, None], h[rows.start + 1 : rows.stop + 1, None]
        m = np.minimum(a, b)
        tm, th = 0.5 * (m + a + b), 0.5 * (a + b - m)
        # t in (0, m): Jacobi weight t^{2-2s} after the area Jacobian and the
        # two linear hat-difference factors;  t in (m, a+b): plain Gauss with
        # explicit t^{2-2s}.
        t = np.concatenate([0.5 * m * (1.0 + xj2), tm + th * xt], axis=1)
        base = np.concatenate([(0.5 * m) ** (3.0 - 2.0 * s) * wj2,
                               th * wt * (tm + th * xt) ** (2.0 - 2.0 * s)], axis=1)
        # Every t node lies below a + b, so vlo < vhi on all of them.
        vlo = np.maximum(0.0, 1.0 - b / t)                    # (corner, qj+qt)
        vhi = np.minimum(1.0, a / t)
        v = (0.5 * (vhi + vlo))[:, :, None] + (0.5 * (vhi - vlo))[:, :, None] * xgi
        wv = base[:, :, None] * (0.5 * (vhi - vlo))[:, :, None] * wgi
        rc = r[rows.start + 1 : rows.stop + 1, None, None]
        tv = t[:, :, None]
        wkv = wv * kap_reg(rc - tv * v, rc + tv * (1.0 - v))
        a3, b3 = a[:, :, None], b[:, :, None]
        d = (v / a3, (1.0 - v) / b3 - v / a3, -(1.0 - v) / b3)   # hats p, p+1, p+2
        corner = np.arange(rows.start, rows.stop)
        for i, j in ((2, 2), (1, 1), (1, 2), (0, 0), (0, 1), (0, 2)):
            smat[corner + i, corner + j] += (wkv * d[i] * d[j]).sum(axis=(1, 2))

    # Every contribution above went to the upper triangle; mirror it in
    # place, a block of rows at a time.
    for rows in _row_blocks(npan + 1, npan + 1):
        smat[rows, : rows.start] = smat[: rows.start, rows].T
        diag = smat[rows, rows]
        diag += np.triu(diag, 1).T
    grid.fold_origin(smat)
    grid.fold_origin(smat.T)
    return smat[1:npan, 1:npan]


def apply(op: OperatorMatrix, u: RadialFunction) -> RadialFunction:
    """Operator action (-Delta)^s u as a RadialFunction on the operator's grid.

    Interior values come from ``op.apply_interior``.  Endpoint rows are not
    collocated; they are filled with extrapolations so the result is a
    plottable RadialFunction.  The origin value is flagged singular when the
    input was (the operator output then blows up too).
    """
    if u.grid != op.grid:
        raise DomainError("function grid does not match operator grid")
    out_int = op.apply_interior(u.interior, u.tail)
    values = np.empty_like(u.values)
    values[1:-1] = out_int
    values[0] = np.inf if u.singular_at_origin else op.grid.origin_value(out_int)
    r = op.grid.nodes
    slope = (out_int[-1] - out_int[-2]) / (r[-2] - r[-3])
    values[-1] = out_int[-1] + slope * (r[-1] - r[-2])
    return RadialFunction(grid=op.grid, values=values, tail=TailSpec.zero(),
                          singular_at_origin=u.singular_at_origin)


def quadratic_form(op: OperatorMatrix, eta: RadialFunction, zeta: RadialFunction) -> float:
    """Energy pairing int_0^1 eta (-Delta)^s zeta |S^{n-1}| r^{n-1} dr.

    Test functions must vanish outside the ball (zero tails); values at the
    boundary node are taken as zero.  Exactly symmetric by construction.
    """
    for fn in (eta, zeta):
        if fn.tail.kind is not TailKind.ZERO:
            raise DomainError("quadratic form requires zero-tail test functions")
        if fn.grid != op.grid:
            raise DomainError("function grid does not match operator grid")
    smat = op.stability_form
    return float(eta.interior @ smat @ zeta.interior)
