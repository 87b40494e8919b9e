import dataclasses
import functools
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import fracgelfand
from fracgelfand import (
    DomainError,
    ProblemParams,
    RadialFunction,
    RadialGrid,
    TailKind,
    TailSpec,
    apply,
    assemble,
    lambda0,
    operator_normalization,
    power_coefficient,
    quadratic_form,
    sphere_area,
)
from fracgelfand import fraclap
from fracgelfand.fraclap import (
    _add_stencil,
    _assemble_energy,
    _exterior_blocks,
    _exterior_mass,
    _phi,
)


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


def test_grids_compare_by_value():
    grid = RadialGrid.graded(32)
    assert grid == RadialGrid.graded(32)
    assert grid == RadialGrid(nodes=list(grid.nodes))
    assert grid != RadialGrid.graded(32, grading=3.0)
    assert grid != RadialGrid.graded(33)


def test_grid_copies_and_freezes_its_nodes():
    source = np.linspace(0.0, 1.0, 33)
    grid = RadialGrid(nodes=source)
    source[1] = 0.5
    assert grid.nodes[1] == 1.0 / 32
    with pytest.raises(ValueError):
        grid.nodes[1] = 0.5


def test_function_copies_and_freezes_its_values():
    grid = RadialGrid.graded(32)
    source = 1.0 - grid.nodes**2
    f = RadialFunction(grid=grid, values=source)
    source[3] = np.nan
    assert f.values[3] == 1.0 - grid.nodes[3] ** 2
    with pytest.raises(ValueError):
        f.values[3] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.values = source


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


def dyda_exterior_mass(n, s, r, off=None, dps=30):
    """(-Delta)^s 1_B at radii r < 1 (Dyda's closed form at p = 0), or at
    the exact points r + off when offsets are given.

    It equals c_{n,s} times the zero-tail row mass."""
    with mpmath.workdps(dps):
        coeff = (mpmath.mpf(4) ** s * mpmath.gamma(s + 0.5 * n)
                 / (mpmath.gamma(0.5 * n) * mpmath.gamma(1 - s)))
        pts = [mpmath.mpf(x) for x in r]
        if off is not None:
            pts = [x + mpmath.mpf(o) for x, o in zip(pts, off)]
        return np.array([float(coeff * mpmath.hyp2f1(s + 0.5 * n, s, 0.5 * n, x**2))
                         for x in pts])


def energy_exterior_points(nodes, panels):
    """The points where the energy form samples its exterior density tau on
    the given panels: left nodes, offsets and gaps 1 - r, all by panel."""
    off, _, _ = fraclap._panel_rule(np.diff(nodes), 6)
    left = np.broadcast_to(nodes[:-1, None], off.shape)[panels].ravel()
    off = off[panels].ravel()
    return left + off, (1.0 - left) - off, left, off


_EXTERIOR_CASES = [(1, 0.3), (2, 0.7), (3, 0.5), (10, 0.9)]


@pytest.mark.parametrize("n, s", _EXTERIOR_CASES + [(1, 0.02), (3, 0.01)])
def test_exterior_mass_matches_closed_form(operator_cache, n, s):
    """Zero-tail row masses, at the collocation rows and at the points where
    the energy form samples its exterior density tau, whose distance to
    r = 1 comes from panel offsets; the reference is taken at the exact
    points r_p + offset."""
    op = operator_cache(n, s, 256)
    r = op.grid.interior
    rel = np.abs(op.normalization * op.tail_mass / dyda_exterior_mass(n, s, r) - 1.0)
    assert rel.max() <= 1e-11
    pts, gaps, left, off = energy_exterior_points(op.grid.nodes, slice(None))
    c = operator_normalization(ProblemParams(n, s))
    got = c * _exterior_mass(ProblemParams(n, s), pts, gaps)
    rel = np.abs(got / dyda_exterior_mass(n, s, left, off) - 1.0)
    assert rel.max() <= 1e-14


@pytest.mark.parametrize("n, s, gate", [(1, 0.5, 1e-14), (3, 0.3, 1e-14)])
def test_exterior_mass_near_the_boundary_at_grading_3(n, s, gate):
    """The energy form's exterior density on the last 10 panels of a
    grading-3 grid, N = 1024 (the last panel 9.3e-10 wide), against 40-digit
    values at the exact points.  At (1, 0.5) Psi = 1, so only 1 - r and
    1 + r enter; at (3, 0.3) Psi resolves 1 - r^2, which it takes as
    (1 - r)(1 + r): from z = r^2 instead, the rounding of r^2 near r = 1
    costs ~5e-13."""
    p = ProblemParams(n, s)
    pts, gaps, left, off = energy_exterior_points(RadialGrid.graded(1024, 3.0).nodes,
                                                  slice(-10, None))
    got = operator_normalization(p) * _exterior_mass(p, pts, gaps)
    rel = np.abs(got / dyda_exterior_mass(n, s, left, off, dps=40) - 1.0)
    assert rel.max() <= gate


def test_stencil_slice_adds_match_add_at():
    # The far fields' slice adds sum each column in the order of one
    # np.add.at over the panel stencil, bit for bit; magnitudes spread over
    # 16 decades make any other order round differently.  Panel ranges from
    # panel 0 and from inside the grid, over the 3-node stencil (panel 0:
    # nodes 0, 1, 2) and the 2-node hats.
    rng = np.random.default_rng(5)
    rows, npan = 7, 40
    contrib = [rng.standard_normal((rows, npan)) * 10.0 ** rng.integers(-8, 8, (rows, npan))
               for _ in range(3)]
    start = rng.standard_normal((rows, npan + 1))
    base = (np.arange(rows) * (npan + 1))[:, None, None]
    for width in (3, 2):
        stencil = np.maximum(np.arange(npan) + 2 - width, 0)[:, None] + np.arange(width)
        for lo, hi in ((0, npan), (0, 9), (1, 17), (23, npan)):
            want = start.copy()
            np.add.at(want.reshape(-1), (base + stencil[None, lo:hi]).ravel(),
                      np.stack(contrib[:width], axis=2)[:, lo:hi].ravel())
            got = start.copy()
            _add_stencil(got[:, max(lo + 2 - width, 0) : hi + 1], lo,
                         *(c[:, lo:hi] for c in contrib[:width]))
            assert got.tobytes() == want.tobytes()


def _assert_clusters_match_six_points(monkeypatch, p, grid):
    # With the whole grid one leaf, which no row admits, every far panel gets
    # 6-point Gauss: the direct rule that clustering replaces.  Couplings to
    # the panels near the origin are tiny beside a row's largest one, but a
    # power r^-alpha multiplies them by up to r_1^-alpha, so the operator's
    # action on one is compared as well, row by row.
    alpha = 0.5 * (p.n - 2.0 * p.s)
    u = RadialFunction.from_callable(grid, lambda r: r**-alpha, tail=TailSpec.power(alpha),
                                     singular_at_origin=True)
    ops = [assemble(p, grid)]
    monkeypatch.setattr(fraclap, "_LEAF_PANELS", grid.n_panels)
    ops.append(assemble(p, grid))
    got, want = (np.column_stack([op.couple_quad, op.couple_quad_bnd]) for op in ops)
    scale = np.abs(want).max(axis=1, keepdims=True)
    assert (np.abs(got - want) / scale).max() <= 1e-12
    got, want = (op.apply_interior(u.interior, u.tail) for op in ops)
    assert (np.abs(got - want) / np.abs(want)).max() <= 1e-12


@pytest.mark.parametrize("n, s, grading", [(1, 0.3, 2.0), (3, 0.05, 2.0), (7, 0.5, 2.0),
                                           (12, 0.5, 2.0), (3, 0.5, 3.0), (10, 0.9, 2.0)])
def test_far_field_order_split_matches_six_points(monkeypatch, n, s, grading):
    # On clusters of panels at least their width from a row, the kernel's
    # 16-point Chebyshev interpolant replaces 6-point Gauss per panel; no
    # coupling moves by more than 1e-12 of its row's largest one, and the
    # action on a power by no more than 1e-12 of itself.
    _assert_clusters_match_six_points(monkeypatch, ProblemParams(n, s), RadialGrid.graded(256, grading))


def test_far_field_clusters_match_six_points_at_1024(monkeypatch):
    _assert_clusters_match_six_points(monkeypatch, ProblemParams(1, 0.3), RadialGrid.graded(1024))


def test_far_field_regions_cover_each_panel_once():
    # For every row, each panel not adjacent to it is integrated exactly once:
    # by one cluster at least its width away, or by a leaf's per-panel Gauss,
    # which also visits the adjacent panels (assembly zeroes them there).
    for grid in (RadialGrid.graded(256, 3.0), RadialGrid.graded(1024)):
        nodes, npan = grid.nodes, grid.n_panels
        count = np.zeros((npan - 1, npan), dtype=int)   # interior row (node - 1) x panel
        clusters = 0
        for rows, lo, hi, admissible in fraclap._far_partition(nodes):
            for sl in rows:
                count[sl, lo:hi] += 1
                if admissible:
                    r = nodes[sl.start + 1 : sl.stop + 1]
                    assert r.size and (np.maximum(nodes[lo] - r, r - nodes[hi])
                                       >= nodes[hi] - nodes[lo]).all()
            clusters += admissible
        assert clusters > 0
        assert np.array_equal(count, np.ones_like(count))


def test_far_field_kernel_entries(monkeypatch):
    # Per-panel Gauss on every far panel (6 points near a block of rows, 4
    # beyond) takes 4,335,290 kernel entries here; clustering takes 527,376.
    entries = []
    kernel = fraclap._kernel

    def counting(*args, **kwargs):
        out = kernel(*args, **kwargs)
        entries.append(out.size)
        return out

    monkeypatch.setattr(fraclap, "_kernel", counting)
    assemble(ProblemParams(1, 0.3), RadialGrid.graded(1024))
    assert sum(entries) < 1_000_000


def _direct_moments(nodes, tree, transfer, off, weights, grow):
    """``_nested_moments`` without nesting: every cluster evaluates its own
    Lagrange basis at all of its panels' Gauss nodes and sums it against
    each kind's weights per stencil node, the last kind times (rho/b)^grow."""
    kinds, width = weights.shape[:2]
    for lo, hi in sorted(fraclap._subtree(0, nodes.size - 1), key=lambda c: (c[1], c[1] - c[0])):
        if (lo, hi) not in tree:
            yield (lo, hi), None
            continue
        t = fraclap._cluster_basis((nodes[lo:hi] - nodes[lo]) + off[:, lo:hi], 0.5 * (nodes[hi] - nodes[lo]))
        moments = np.zeros((kinds, fraclap._CLUSTER_ORDER, hi + 1 - max(lo + 2 - width, 0)))
        for kind in range(kinds):
            w = weights[kind, ..., lo:hi]
            if kind == kinds - 1:
                w = w * ((nodes[lo:hi] + off[:, lo:hi]) / nodes[hi]) ** grow
            _add_stencil(moments[kind], lo, *np.einsum("kqp,jqp->jkp", t, w))
        yield (lo, hi), moments


@pytest.mark.parametrize("n, s, panels, grading", [(1, 0.3, 1024, 2.0), (3, 0.5, 256, 3.0),
                                                   (12, 0.5, 256, 2.0), (60, 0.5, 256, 2.0),
                                                   (3, 0.5, 777, 2.0)])
def test_nested_moments_match_direct_formation(monkeypatch, n, s, panels, grading):
    # Moments carried up the tree by transfer matrices, with (rho/b)^{n-1}
    # rescaled by (b_child/b)^{n-1} at each step, against the same moments
    # formed cluster by cluster: the couplings agree to roundoff, 1e-15 of
    # each row's largest one (the largest gap is 1e-17).  At n = 60,
    # (rho/b)^{n-1} spans 256 decades over the first leaf; on graded(777)
    # sibling clusters differ by one panel.
    p, grid = ProblemParams(n, s), RadialGrid.graded(panels, grading)
    got = np.column_stack(fraclap._assemble_couplings(p, grid))
    monkeypatch.setattr(fraclap, "_nested_moments", _direct_moments)
    want = np.column_stack(fraclap._assemble_couplings(p, grid))
    scale = np.abs(want).max(axis=1, keepdims=True)
    assert (np.abs(got - want) / scale).max() <= 1e-15


@pytest.mark.parametrize("n, s, panels", [(3, 0.5, 256), (12, 0.5, 256), (3, 0.5, 300), (12, 0.5, 300)])
def test_energy_moments_match_direct_formation(monkeypatch, n, s, panels):
    # The energy form takes its clusters' hat moments from the same sweep
    # (two kinds, a 2-node stencil, grow = 0); against the moments formed
    # cluster by cluster it moves by roundoff, at most 1.5e-16 of its largest
    # entry here (about one ulp), against a 1e-15 gate.  On graded(300)
    # sibling clusters differ by one panel.
    p, grid = ProblemParams(n, s), RadialGrid.graded(panels)
    got = _assemble_energy(p, grid)
    monkeypatch.setattr(fraclap, "_nested_moments", _direct_moments)
    want = _assemble_energy(p, grid)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_couplings_near_the_boundary_against_mpmath():
    """Couplings to panels of width ~1e-9 next to r = 1 (grading 3, 1024
    panels), where a Gauss node placed as mid + half x is off by up to half an
    ulp of 1: 1e-9 of the distance to a row 6e-8 from the boundary, 1e-7 of a
    panel.  Row node 1020 takes its leaf's panels 1022 and 1023 by per-panel
    Gauss (16 and 126 half-widths away) and row node 1000 takes the leaf
    1008..1023 as a cluster; each coupling is the sum over a node's panels of
    the integral of K against the panel's stencil basis, here
    K = 4 pi rho^2 / (rho^2 - r^2)^2 at (n, s) = (3, 0.5)."""
    grid = RadialGrid.graded(1024, grading=3.0)
    op = assemble(ProblemParams(3, 0.5), grid)
    cq = np.column_stack([op.couple_quad, op.couple_quad_bnd])   # column j: node j + 1
    with mpmath.workdps(30):
        r = [mpmath.mpf(float(x)) for x in grid.nodes]

        def coupling(i, j):
            def basis(pan, rho):   # stencil nodes pan-1, pan, pan+1; the one at j
                others = [r[m] for m in (pan - 1, pan, pan + 1) if m != j]
                return (rho - others[0]) * (rho - others[1]) / ((r[j] - others[0]) * (r[j] - others[1]))

            kern = lambda rho: 4 * mpmath.pi * rho**2 / (rho**2 - r[i] ** 2) ** 2
            return sum(mpmath.quad(lambda rho: kern(rho) * basis(pan, rho), [r[pan], r[pan + 1]])
                       for pan in (j - 1, j, j + 1) if pan + 1 < len(r))

        for i, j in [(1020, 1023), (1020, 1024)] + [(1000, j) for j in range(1010, 1019, 2)]:
            assert abs(float(cq[i - 1, j - 1] / coupling(i, j)) - 1.0) <= 1e-14


def _recorded_kernel_calls(monkeypatch, keep):
    """Arguments and copied output of every kernel call for which keep(r, rho) holds."""
    calls = []
    kernel = fraclap._kernel

    def recording(p, r, rho, *args, **kwargs):
        out = kernel(p, r, rho, *args, **kwargs)
        if keep(np.asarray(r), np.asarray(rho)):
            calls.append((np.array(r), np.array(rho), out.copy()))
        return out

    monkeypatch.setattr(fraclap, "_kernel", recording)
    return calls


def test_sliver_rule_near_the_boundary_against_exact_arithmetic(monkeypatch):
    """The near field's one-sided sliver, the part of a row's wider adjacent
    panel beyond the symmetric core: its 8-point Gauss rule in floats against
    the same rule in exact arithmetic, node by node, on the rows next to r = 1
    at grading 3 (panels ~1e-9 wide).  The rule's nodes split
    [r_i + hm, r_{i+1}] or [r_{i-1}, r_i - hm], hm the smaller panel width;
    K = 4 pi rho^2 / (rho^2 - r^2)^2 at (n, s) = (3, 0.5)."""
    grid = RadialGrid.graded(1024, grading=3.0)
    ni = grid.n_panels - 1
    calls = _recorded_kernel_calls(
        monkeypatch, lambda r, rho: rho.shape == (ni, fraclap._SLIVER_ORDER))
    assemble(ProblemParams(3, 0.5), grid)
    (_, _, kern), = calls
    xs, _ = leggauss(fraclap._SLIVER_ORDER)
    with mpmath.workdps(40):
        r = [mpmath.mpf(float(x)) for x in grid.nodes]
        for i in range(ni - 20, ni + 1):                    # row node i, kernel row i - 1
            h_l, h_r = r[i] - r[i - 1], r[i + 1] - r[i]
            hm = min(h_l, h_r)
            a, b = (r[i] + hm, r[i + 1]) if h_r > hm else (r[i - 1], r[i] - hm)
            for k, x in enumerate(xs):
                rho = a + (b - a) * (1 + mpmath.mpf(float(x))) / 2
                want = 4 * mpmath.pi * rho**2 / (rho**2 - r[i] ** 2) ** 2
                assert abs(float(kern[i - 1, k] / want) - 1.0) <= 1e-14


def test_energy_separated_pairs_near_the_boundary_against_mpmath(monkeypatch):
    """Kernel values of the energy form's separated panel pairs near r = 1 at
    grading 3 (panels ~1e-9 wide, where a rounded point is off by up to half
    an ulp of 1); K = 4 pi rho^2 / (rho^2 - r^2)^2 at (n, s) = (3, 0.5).

    The pairs of leaves evaluate K at the rule's points r_p + h_p (1 + x) / 2,
    for every pair of the ten panels next to r = 1; the admissible pairs of
    clusters at their Chebyshev points a + (b - a) (1 + cos theta_k) / 2, for
    every pair whose upper cluster holds those panels.  Both take their
    distances from offsets."""
    grid = RadialGrid.graded(1024, grading=3.0)
    nodes, npan = grid.nodes, grid.n_panels
    first = npan - 12
    q, order = fraclap._PANEL_ORDER - 1, fraclap._CLUSTER_ORDER
    calls = _recorded_kernel_calls(
        monkeypatch, lambda r, rho: r.shape[1:] == (order, 1) or rho.max() > nodes[first])
    _assemble_energy(ProblemParams(3, 0.5), grid)
    xg, _ = leggauss(q)
    checked = blocks = 0
    with mpmath.workdps(40):
        r = [mpmath.mpf(float(x)) for x in nodes]
        x = [mpmath.mpf(float(v)) for v in xg]
        cheb = [mpmath.cos((k + mpmath.mpf(0.5)) * mpmath.pi / order) for k in range(order)]

        def kern(ra, rb):
            return 4 * mpmath.pi * rb**2 / (rb**2 - ra**2) ** 2

        def point(pan, k):
            return r[pan] + (r[pan + 1] - r[pan]) * (1 + x[k]) / 2

        def cluster(pts):
            # A cluster's end nodes from its Chebyshev points (descending).
            mid, half = (pts[0] + pts[-1]) / 2, (pts[0] - pts[-1]) / (2 * math.cos(math.pi / (2 * order)))
            return [int(np.abs(nodes - v).argmin()) for v in (mid - half, mid + half)]

        for rows, cols, out in calls:
            if rows.shape == (out.shape[0], q * q):          # pairs of leaves: (pair, q * q)
                pans = np.searchsorted(nodes, [rows[:, 0], cols[:, 0]]) - 1
                for c, (pi, pj) in enumerate(pans.T):
                    if pi < first:
                        continue
                    assert pj >= pi + 2
                    for a in range(q):
                        for b in range(q):
                            want = kern(point(pi, a), point(pj, b))
                            assert abs(float(out[c, a * q + b] / want) - 1.0) <= 1e-14
                            checked += 1
            elif rows.shape[1:] == (order, 1):                # admissible pairs: (pair, k, l)
                for blk in range(rows.shape[0]):
                    (lo1, hi1), (lo2, hi2) = cluster(rows[blk, :, 0]), cluster(cols[blk, 0])
                    if hi2 <= npan - 10:
                        continue
                    assert hi1 < lo2 and r[lo2] - r[hi1] >= max(r[hi1] - r[lo1], r[hi2] - r[lo2])
                    xs, ys = ([r[lo] + (r[hi] - r[lo]) * (1 + c) / 2 for c in cheb]
                              for lo, hi in ((lo1, hi1), (lo2, hi2)))
                    for k in range(order):
                        for l in range(order):
                            assert abs(float(out[blk, k, l] / kern(xs[k], ys[l])) - 1.0) <= 1e-14
                    blocks += 1
    assert checked == 25 * sum(range(1, 11))
    assert blocks == sum(hi2 == npan for *_, hi2 in fraclap._energy_partition(nodes)[1]) > 0


def _all_pairs_separated(p, grid, smat):
    """The energy form's separated panel pairs (pj >= pi + 2) by 5x5 tensor
    Gauss-Legendre over every pair, as ``_separated_pairs`` gives them: the
    cross terms added to smat's upper triangle, the local masses and hats
    returned.  A port of the loop the block-cluster tree replaced, over
    blocks of 8 rows."""
    n = p.n
    pref = operator_normalization(p) * sphere_area(n)
    r = grid.nodes
    npan = grid.n_panels
    h = np.diff(r)
    xg, wg = leggauss(fraclap._PANEL_ORDER - 1)
    q = xg.size
    off, wts = 0.5 * h[:, None] * (1.0 + xg), 0.5 * h[:, None] * wg
    hat = np.stack([0.5 * (1.0 - xg), 0.5 * (1.0 + xg)])
    pts = r[:-1, None] + off
    sep_mass = np.zeros((npan, q))
    for start in range(0, npan - 2, 8):
        pi = np.arange(start, min(start + 8, npan - 2))
        pj = np.arange(start + 2, npan)
        sep = pj >= pi[:, None] + 2
        dist = off[pj] - off[pi, :, None, None]
        dist += np.where(sep, r[pj] - r[pi, None], 1.0)[:, None, :, None]
        tmat = fraclap._kernel(p, pts[pi, :, None, None], pts[pj], dist)
        tmat *= pref * pts[pi, :, None, None] ** (n - 1)
        tmat *= wts[pi, :, None, None] * np.where(sep[:, None, :, None], wts[pj], 0.0)
        sep_mass[pi] += tmat.sum(axis=(2, 3))
        sep_mass[pj] += tmat.sum(axis=(0, 1))
        cross = (hat @ tmat.reshape(pi.size, q, -1)).reshape(pi.size, 2, pj.size, q) @ hat.T
        for x in (0, 1):
            for y in (0, 1):
                smat[pi[0] + x : pi[-1] + 1 + x, pj[0] + y : npan + y] -= cross[:, x, :, y]
    return sep_mass, hat


@pytest.mark.parametrize("n, s", [(3, 0.5), (12, 0.5)])
def test_clustered_separated_pairs_match_all_pairs_gauss(monkeypatch, n, s):
    """On admissible pairs of clusters the kernel's tensor Chebyshev
    interpolant replaces 5x5 Gauss per panel pair: the energy form moves by
    no more than 1e-13 of its largest entry.  At (12, 0.5) the r^{n-1} factor
    that the moments carry spans 42 decades over the first leaf."""
    p, grid = ProblemParams(n, s), RadialGrid.graded(256)
    got = _assemble_energy(p, grid)
    monkeypatch.setattr(fraclap, "_separated_pairs", _all_pairs_separated)
    want = _assemble_energy(p, grid)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_energy_form_kernel_entries(monkeypatch):
    # The all-pairs 5x5 Gauss took 13.07M kernel entries for the separated
    # pairs alone at (1, 0.3), N = 1024; the block-cluster tree takes 1.02M,
    # and the corner-sharing and same-panel pairs 0.17M.
    entries = []
    kernel = fraclap._kernel

    def counting(*args, **kwargs):
        out = kernel(*args, **kwargs)
        entries.append(out.size)
        return out

    monkeypatch.setattr(fraclap, "_kernel", counting)
    _assemble_energy(ProblemParams(1, 0.3), RadialGrid.graded(1024))
    assert sum(entries) <= 1_600_000


def test_energy_partition_covers_each_separated_pair_once():
    # Every panel pair pj >= pi + 2 lies in exactly one pair of leaves or one
    # admissible pair of clusters, and an admissible pair's gap is at least
    # the width of each of its clusters.
    for grid in (RadialGrid.graded(256, 3.0), RadialGrid.graded(1024)):
        nodes, npan = grid.nodes, grid.n_panels
        count = np.zeros((npan, npan), dtype=np.int8)
        near, far = fraclap._energy_partition(nodes)
        pi, pj = fraclap._panel_pairs(near)
        count[pi, pj] += 1
        for lo1, hi1, lo2, hi2 in far:
            assert nodes[lo2] - nodes[hi1] >= max(nodes[hi1] - nodes[lo1], nodes[hi2] - nodes[lo2])
            count[lo1:hi1, lo2:hi2] += 1
        assert far and np.array_equal(count, np.triu(np.ones_like(count), 2))


def test_operator_derives_everything_from_params_and_grid(operator_cache, monkeypatch):
    # params and grid are the whole constructor; every part is derived on
    # first access, cached and read-only.  The collocation couplings are
    # built only when read (assemble reads them), as a view of one buffer.
    OperatorMatrix = fraclap.OperatorMatrix
    assert [f.name for f in dataclasses.fields(OperatorMatrix)] == ["params", "grid"]
    op = operator_cache(3, 0.5, 32)
    for name in ("couple_quad", "couple_quad_bnd", "tail_mass", "stability_form"):
        arr = getattr(op, name)
        assert getattr(op, name) is arr
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    # The consistent mass: exp_mass at u = 0, cached as one read-only tuple.
    assert op.mass is op.mass
    for arr, want in zip(op.mass, op.exp_mass(np.zeros(op.grid.nodes.size)), strict=True):
        assert np.array_equal(arr, want)
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    assert op.couple_quad.shape == (31, 31) and op.couple_quad.base.shape == (31, 33)
    assert op.normalization == operator_normalization(op.params)
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.grid = RadialGrid.graded(48)
    with pytest.raises(AttributeError):
        op.couple_quad = np.zeros_like(op.couple_quad)
    monkeypatch.setattr(fraclap, "_far_partition", None)   # any coupling build fails
    lazy = OperatorMatrix(params=op.params, grid=op.grid)
    assert np.array_equal(lazy.stability_form, op.stability_form)
    with pytest.raises(TypeError):
        lazy.couple_quad
    with pytest.raises(DomainError):
        OperatorMatrix(params=ProblemParams(2, 1.0), grid=op.grid)


def _whole_matrix_apply(op, u, tail):
    # The difference form over the whole matrix at once, plus the exterior
    # quadrature's blocks as they are: the reference for apply_interior's
    # row blocks.
    out = ((u[:, None] - u[None, :]) * op.couple_quad).sum(axis=1)
    out += op.couple_quad_bnd * (u - tail.boundary_value(op.params.s))
    if tail.kind is TailKind.ZERO:
        out += op.tail_mass * u
    else:
        for rows, rel, wk in _exterior_blocks(op.params, op.grid.interior, tail):
            out[rows] += ((u[rows, None] - rel) * wk).sum(axis=1)
    return op.normalization * out


@pytest.mark.parametrize("n, s, panels", [(1, 0.3, 256), (3, 0.5, 128), (7, 0.5, 64)])
def test_apply_row_blocks_are_bitwise(monkeypatch, operator_cache, n, s, panels):
    """apply_interior over row blocks of 1,024 entries (several rows each,
    and a last block cut short) sums every row as the whole matrix does, bit
    for bit, and as at the default block size, for all three tails: each row
    of the (1, 2] quadrature carries its own panels, whatever its block."""
    op = operator_cache(n, s, panels)
    u = op.grid.interior ** -0.2 + np.cos(7.0 * op.grid.interior)
    tails = (TailSpec.power(0.2, 1.3), TailSpec.log_power(0.7), TailSpec.zero())
    default = [op.apply_interior(u, tail) for tail in tails]
    monkeypatch.setattr(fraclap, "_BLOCK_ENTRIES", 1 << 10)
    assert op.n_interior % ((1 << 10) // op.n_interior) != 0
    for tail, want in zip(tails, default):
        got = op.apply_interior(u, tail)
        assert np.array_equal(got, _whole_matrix_apply(op, u, tail))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n, s, panels", [(1, 0.3, 256), (3, 0.5, 128), (12, 0.5, 64),
                                           (12, 0.5, 256)])
def test_assembly_and_energy_form_are_block_size_invariant(monkeypatch, n, s, panels):
    """With row blocks of 1,024 entries instead of 32,768, assembly's far
    field and the energy form's separated, corner and same-panel pairs cover
    the same entries: each row stays within 1e-14 of its largest entry.  At
    (12, 0.5) on 256 panels the energy form's admissible pairs, whose
    moments carry r^{n-1}, share kernel calls four at a time."""
    p, grid = ProblemParams(n, s), RadialGrid.graded(panels)
    want = [assemble(p, grid).couple_quad, _assemble_energy(p, grid)]
    monkeypatch.setattr(fraclap, "_BLOCK_ENTRIES", 1 << 10)
    got = [assemble(p, grid).couple_quad, _assemble_energy(p, grid)]
    for a, b in zip(got, want):
        scale = np.abs(b).max(axis=1)
        assert np.all(np.abs(a - b).max(axis=1) <= 1e-14 * scale)


def _traced_peak(fn):
    """Peak bytes of the allocations traced during fn() (numpy's included),
    above what was allocated when it started."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


_DENSE_BYTES = 8 * 1024**2   # one dense array at N = 1024, ~(N-1)^2 float64


def _params_and_grid_1024():
    # (1, 0.3), N = 1024, with the Phi and Psi tables built beforehand: they
    # are built once per parameter set and are not measured.
    p = ProblemParams(1, 0.3)
    assemble(p, RadialGrid.graded(64)).tail_mass
    return p, RadialGrid.graded(1024)


def test_assembly_holds_one_dense_array():
    # The coupling buffer, handed to the operator without a copy, and
    # block temporaries.
    p, grid = _params_and_grid_1024()
    peak = _traced_peak(lambda: assemble(p, grid))
    assert peak <= _DENSE_BYTES + 4 * 2**20


@pytest.mark.parametrize("tail", [TailSpec.power(0.2), TailSpec.zero()], ids=["power", "zero"])
def test_apply_holds_no_dense_array(tail):
    # Row blocks of the difference form, and of the exterior quadrature.
    p, grid = _params_and_grid_1024()
    op = assemble(p, grid)
    op.tail_mass
    u = grid.interior ** -0.2
    peak = _traced_peak(lambda: op.apply_interior(u, tail))
    assert peak <= 4 * 2**20


def test_energy_form_holds_one_dense_array():
    # The matrix, mirrored in place and returned as a view, and block
    # temporaries.
    p, grid = _params_and_grid_1024()
    peak = _traced_peak(lambda: _assemble_energy(p, grid))
    assert peak <= 2 * _DENSE_BYTES


def test_tail_mass_is_built_on_first_use():
    # A power-tail run reads only the kernel's Phi table; the row masses, and
    # the Psi table behind them, wait for the first zero-tail use.
    p, grid = ProblemParams(1, 0.3), RadialGrid.graded(64)
    _phi.cache_clear()
    op = assemble(p, grid)
    u = RadialFunction.from_callable(grid, lambda r: r**-0.2, TailSpec.power(0.2),
                                     singular_at_origin=True)
    apply(op, u)
    assert _phi.cache_info().currsize == 1
    mass = op.tail_mass
    assert _phi.cache_info().currsize == 2
    assert mass.tobytes() == _exterior_mass(p, grid.interior, 1.0 - grid.interior).tobytes()
    assert op.tail_mass is mass and not mass.flags.writeable
    # The zero-tail action on the ball's indicator reads the row masses.
    ones = op.apply_interior(np.ones(op.n_interior), TailSpec.zero())
    assert np.array_equal(ones, op.normalization * (op.couple_quad_bnd + mass))


@pytest.mark.parametrize("n, s", _EXTERIOR_CASES + [(1, 0.02), (3, 0.01), (60, 0.5), (3, 1e-4),
                                                   (2, 0.99)])
def test_exterior_quadrature_matches_closed_form(n, s):
    """Row sums of the quadrature that nonzero exterior data are integrated with.

    At small s most of the mass lies beyond rho = 2 (2^-2s of it at r = 0),
    in the far-field series' first term."""
    p = ProblemParams(n, s)
    r = RadialGrid.graded(256).interior
    mass = np.empty_like(r)
    for rows, _, wk in _exterior_blocks(p, r, TailSpec.zero()):
        mass[rows] = wk.sum(axis=1)
    rel = np.abs(operator_normalization(p) * mass / dyda_exterior_mass(n, s, r) - 1.0)
    assert rel.max() <= 1e-14


@pytest.mark.parametrize("n", [1, 12])
@pytest.mark.parametrize("s", [1e-4, 0.5, 0.99])
def test_exterior_far_series_against_mpmath(n, s):
    """The exterior columns beyond rho = 2, int_2^inf g K drho, against
    30-digit quadrature of the kernel's closed form |S^{n-1}| rho^{-1-2s}
    (1-z)^{-1-2s} 2F1(-s, n/2-s-1; n/2; z), z = (r/rho)^2, for power and log
    data.  rho = 2 t^{-1/(2s)} makes rho^{-1-2s} drho a multiple of dt, so
    the slow decay at small s costs the quadrature nothing."""
    p = ProblemParams(n, s)
    for r in (0.5, 1.0 - 1e-6):
        for tail in (TailSpec.power(0.0), TailSpec.power(0.7), TailSpec.log_power(1.0)):
            (_, g, wk), = _exterior_blocks(p, np.array([r]), tail)
            got = float((g * wk)[0, -fraclap._FAR_TERMS:].sum())
            with mpmath.workdps(30):
                ms, mr, half = mpmath.mpf(s), mpmath.mpf(r), mpmath.mpf(n) / 2

                def integrand(t):
                    rho = 2 * t ** (-1 / (2 * ms))
                    z = (mr / rho) ** 2
                    datum = (rho ** -mpmath.mpf(tail.alpha) if tail.kind is TailKind.POWER
                             else -2 * ms * mpmath.log(rho))
                    return datum * (1 - z) ** (-1 - 2 * ms) * mpmath.hyp2f1(-ms, half - ms - 1, half, z)

                area = 2 * mpmath.pi**half / mpmath.gamma(half)
                want = float(area * 2 ** (-2 * ms) / (2 * ms) * mpmath.quad(integrand, [0, 1]))
            assert abs(got / want - 1.0) <= 1e-14


@pytest.mark.parametrize("s", [0.3, 0.01, 1e-3, 1e-5])
def test_exterior_quadrature_tail_moments_at_origin(s):
    """At r = 0 the kernel is exactly |S^{n-1}| rho^{-1-2s}, so each tail's
    exterior integral is known: |S|/(2s + alpha) for rho^{-alpha} and |S|/(2s)
    for the log datum -2s log rho.  At s = 0.01 and below, most of it lies
    beyond rho = 2, where at r = 0 only the far-field series' first term is
    nonzero."""
    for n in (1, 3):
        p = ProblemParams(n, s)
        for tail, exact in ((TailSpec.power(0.0), 1.0 / (2.0 * s)),
                            (TailSpec.power(0.05), 1.0 / (2.0 * s + 0.05)),
                            (TailSpec.log_power(-1.0), 1.0 / (2.0 * s))):
            (_, g, wk), = _exterior_blocks(p, np.array([0.0]), tail)
            got = float((g * wk).sum()) / sphere_area(n)
            assert abs(got / exact - 1.0) <= 1e-11


def test_exterior_near_panels_per_row_block(monkeypatch):
    """Each row of the (1, 2] quadrature carries only its own panels.  At
    N = 1024 the rows need 3,538 panels, 42,456 kernel entries; counted from
    each block's row nearest the boundary they took 55,980, and counted from
    the grid's last row alone, every row would take 20 panels (245,520
    entries, 83% with zero weight)."""
    calls = _recorded_kernel_calls(monkeypatch, lambda r, rho: True)
    for _ in _exterior_blocks(ProblemParams(1, 0.3), RadialGrid.graded(1024).interior,
                              TailSpec.power(0.2)):
        pass
    assert sum(out.size for *_, out in calls) == 42_456


def _dense_row_scale(op):
    """Row sums of |A|, A the dense zero-tail collocation matrix."""
    total = op.couple_quad.sum(axis=1) + op.couple_quad_bnd + op.tail_mass
    return np.abs(op.normalization * (np.diag(total) - op.couple_quad)).sum(axis=1)


def test_matrix_row_sums_match_constant_response(operator_cache):
    op = operator_cache(3, 0.5, 32)
    lhs = op.apply_interior(np.ones(op.n_interior), TailSpec.zero())
    # A@1 is the response to 1 in the ball and 0 outside, which is the
    # difference-form action on u = 0 with the constant exterior datum -1.
    rhs = op.apply_interior(np.zeros(op.n_interior), TailSpec.power(0.0, -1.0))
    assert np.max(np.abs(lhs - rhs) / _dense_row_scale(op)) < 1e-13


@pytest.mark.parametrize("n, s", [(1, 0.02), (3, 0.01)])
def test_constant_tail_matches_row_sums_at_small_s(operator_cache, n, s):
    # Small s, where the exterior beyond rho = 2 carries much of the mass:
    # A@1 uses the closed-form row mass, the constant tail the exterior
    # quadrature with its far-field series.
    op = operator_cache(n, s, 32)
    lhs = op.apply_interior(np.ones(op.n_interior), TailSpec.zero())
    rhs = op.apply_interior(np.zeros(op.n_interior), TailSpec.power(0.0, -1.0))
    assert np.max(np.abs(lhs - rhs) / _dense_row_scale(op)) < 1e-11


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
    out = apply(op, u)
    assert isinstance(out, RadialFunction)
    assert np.allclose(out.values[1:-1], op.apply_interior(u.interior, u.tail))
    assert math.isfinite(out.values[0]) and math.isfinite(out.values[-1])
    sing = RadialFunction.from_callable(
        op.grid, lambda r: r**-0.3, tail=TailSpec.power(0.3), singular_at_origin=True
    )
    assert apply(op, sing).values[0] == np.inf
    for grid in (RadialGrid.graded(48), RadialGrid.graded(32, grading=3.0)):
        with pytest.raises(DomainError, match="grid"):
            apply(op, RadialFunction.from_callable(grid, lambda r: r))
    # A grid equal by value is accepted, whichever object holds the nodes.
    same = RadialFunction.from_callable(RadialGrid.graded(32), lambda r: (1.0 - r * r) ** 0.5)
    assert np.array_equal(apply(op, same).values, out.values)


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


@pytest.mark.parametrize("n, s", [(1, 0.5), (3, 0.3), (8, 0.7), (2, 0.1)])
def test_energy_form_oracle(n, s):
    # Dyda: (-Delta)^s (1-r^2)_+^{s+1} = C (1 - (1+2s/n) r^2) in the ball with
    # C = 4^s Gamma(s+2) Gamma(n/2+s) / Gamma(n/2), so eta = (1-r^2)_+^{s+1}
    # has energy |S^{n-1}| int_0^1 eta C (1 - (1+2s/n) r^2) r^{n-1} dr
    #   = |S^{n-1}| C/2 [B(n/2, s+2) - (1+2s/n) B(n/2+1, s+2)].
    with mpmath.workdps(30):
        ms, half = mpmath.mpf(s), mpmath.mpf(n) / 2
        c = 4**ms * mpmath.gamma(ms + 2) * mpmath.gamma(half + ms) / mpmath.gamma(half)
        area = 2 * mpmath.pi**half / mpmath.gamma(half)
        exact = float(area * c / 2 * (mpmath.beta(half, ms + 2)
                                      - (1 + 2 * ms / n) * mpmath.beta(half + 1, ms + 2)))
    errs = []
    for panels in (64, 128, 256):
        grid = RadialGrid.graded(panels)
        eta = (1.0 - grid.interior**2) ** (s + 1.0)
        energy = eta @ _assemble_energy(ProblemParams(n, s), grid) @ eta
        errs.append(abs(energy - exact) / exact)
    assert errs[1] <= 1e-4
    # Order over two doublings: at (8, 0.7) the 128 -> 256 step alone reads
    # 1.73, then 1.98 and 2.09 on the next two.
    assert math.log2(errs[0] / errs[2]) / 2.0 >= 1.8


_DYDA_CASES = [(1, 0.5), (3, 0.5), (8, 0.35), (12, 0.5), (1, 0.1), (1, 0.9), (2, 0.9)]
_DYDA_BANDS = (0.25, 0.5, 0.75, 0.9, 0.99)   # inner edges of the six radial bands


@functools.lru_cache(maxsize=None)
def _dyda_band_errors(n, s, panels):
    """Dirichlet solves of Dyda's (-Delta)^s (1 - r^2)_+^{s+k} = C0 (k = 0)
    and C1 (1 - (1 + 2s/n) r^2) (k = 1), C_k = 4^s Gamma(1+s+k)
    Gamma(n/2+s) / Gamma(n/2): S z = the folded Galerkin load of the right
    side at the masses' rule.  Returns max |z - (1 - r^2)^{s+k}| per band,
    relative to the exact maximum, (k, band)."""
    p, grid = ProblemParams(n, s), RadialGrid.graded(panels)
    smat = _assemble_energy(p, grid)
    off, weight, hat = fraclap._mass_rule(p, grid)
    rq, r = grid.nodes[:-1, None] + off, grid.interior
    band = np.digitize(r, _DYDA_BANDS)
    errs = []
    for k in (0, 1):
        c = 4.0**s * math.gamma(1.0 + s + k) * math.gamma(0.5 * n + s) / math.gamma(0.5 * n)
        load = fraclap._local_mass(weight * c * (1.0 - k * (1.0 + 2.0 * s / n) * rq**2), hat)[0]
        grid.fold_origin(load)
        exact = (1.0 - r * r) ** (s + k)
        err = np.abs(np.linalg.solve(smat, load[1:-1]) - exact) / exact.max()
        errs.append([err[band == b].max() for b in range(6)])
    return np.array(errs)


@pytest.mark.parametrize("n, s", _DYDA_CASES)
def test_dyda_oracle_band_errors(n, s):
    # At 256 panels every band but k = 0's last is within 1.9e-5.  There the
    # dist^s boundary layer leaves 0.011-0.11 times 256^-2s (3.6e-2 at
    # s = 0.1).
    errs = _dyda_band_errors(n, s, 256)
    assert errs[1].max() <= 2.5e-5
    assert errs[0, :5].max() <= 2.5e-5
    assert errs[0, 5] <= 0.15 * 256.0 ** (-2.0 * s)


_S09_REASON = ("at s = 0.9 k = 0's orders are erratic: 0.12 in the last band from 256 to "
               "512 panels, 0.9-1.7 in the inner bands from 512 to 1024.  The energy "
               "form's corner-sharing pairs integrate t over (m, a + b) by one Gauss "
               "rule across the kink of the v-limits at t = max(a, b)")


@pytest.mark.parametrize("n, s, k", [
    pytest.param(n, s, k, marks=[pytest.mark.xfail(strict=True, reason=_S09_REASON)]
                 if s == 0.9 and k == 0 else [])
    for n, s in _DYDA_CASES for k in (0, 1)])
def test_dyda_oracle_band_orders(n, s, k):
    # Observed orders per band, from 256 to 512 panels: >= 1.84 below
    # r = 0.99; in the last band >= 2.02 for k = 1, and ~2s for k = 0 (the
    # dist^s boundary layer, 1.01, 0.71 and 0.20 at s = 0.5, 0.35 and 0.1).
    # At s = 0.9 they are measured from 512 to 1024, where k = 1's bands
    # below r = 0.99 read 1.82-1.99 (1.56-1.77 from 256 to 512) and its last
    # band 1.64 (2.10 from 256 to 512), ungated for the xfail's reason.
    coarse = 512 if s == 0.9 else 256
    order = np.log2(_dyda_band_errors(n, s, coarse)[k] / _dyda_band_errors(n, s, 2 * coarse)[k])
    assert order[:5].min() >= 1.8
    if k == 0:
        assert order[5] >= 2.0 * s - 0.15
    elif s < 0.9:
        assert order[5] >= 1.8


def test_interval_ground_state_eigenvalue(operator_cache):
    # Dual route: generalized eigenpair of the energy form against the P1 mass
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
    e1, e2 = op.grid.origin_fold
    mass[1, :] += e1 * mass[0, :]
    mass[2, :] += e2 * mass[0, :]
    mass[:, 1] += e1 * mass[:, 0]
    mass[:, 2] += e2 * mass[:, 0]
    mass = 2.0 * mass[1:-1, 1:-1]  # |S^0| = 2: the radial measure counts both half-lines
    # The same folded P1 mass is the operator's consistent mass B = E(0).
    _, diag, off = op.mass
    banded = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    assert np.abs(banded - mass).max() <= 1e-14 * np.abs(mass).max()
    mu = eigh(smat, mass, eigvals_only=True, subset_by_index=(0, 0))[0]
    assert mu == pytest.approx(1.157774, abs=5e-4)


def test_assembly_rejects_classical_limit():
    with pytest.raises(DomainError):
        assemble(ProblemParams(2, 1.0), RadialGrid.graded(32))


def test_tail_kind_enum_round_trip():
    for kind in TailKind:
        assert TailKind(kind.value) is kind


_COLD_ASSEMBLY_SCRIPT = """
import resource, sys
from fracgelfand import ProblemParams, RadialGrid, assemble
p, grid = ProblemParams(1, 0.3), RadialGrid.graded(int(sys.argv[1]))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assemble(p, grid)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_cold_assembly_reuses_block_temporaries():
    # In a fresh process glibc would unmap each block's freed temporaries and
    # fault them in again in the next block (~10k minor faults at N = 512);
    # once _row_blocks has raised its mmap threshold they stay on the heap.
    # What is left is mostly the first touch of the coupling buffer, at
    # N = 1024 partly in transparent huge pages (numpy asks for them on
    # arrays from 4 MiB): ~1.4k at N = 512 and ~1.8k at N = 1024.  A copy of
    # the buffer, or kernel calls whose temporaries pass glibc's trim
    # threshold, would add thousands.  MALLOC_* settings would fix the
    # thresholds, so none is passed.
    src = str(Path(fracgelfand.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for panels in (512, 1024):
        proc = subprocess.run([sys.executable, "-c", _COLD_ASSEMBLY_SCRIPT, str(panels)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.strip().splitlines()[-1]) < 2000, panels
