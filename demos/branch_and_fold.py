"""Trace the minimal branch of (-Delta)^s u = lambda e^u and find the fold.

Continuation runs in the center value m = u(0) with lambda recovered by the
augmented Newton solve, so the trace walks through the fold where
d(lambda)/dm = 0 without any arclength machinery.  Newton and the stability
pencil share one discretization, the Galerkin energy form, so the smallest
eigenvalue of the pencil crosses zero exactly at the discrete fold: the low
branch is the stable (minimal) one, and lambda at mu = 0, found by a secant
on mu(m), converges to lambda* at second order under grid refinement.
"""

import math

from fracgelfand import (ContinuationConfig, ProblemParams, RadialGrid, solve_at_peak,
                         torsion_center_value, trace_branch)

p = ProblemParams(1, 0.5)
cfg = ContinuationConfig(
    params=p,
    grid=RadialGrid.graded(128),
    peak_start=0.25,
    peak_end=3.0,
    peak_step=0.25,
)
branch = trace_branch(cfg)

print("peak continuation for n = 1, s = 1/2 (half-Laplacian on the interval)")
print(f"{'m':>6} {'lambda':>10} {'stability':>11} {'iters':>6} {'residual':>10}")
for pt in branch.points:
    print(f"{pt.peak:>6.2f} {pt.lam:>10.6f} {pt.stability_eig:>+11.4f} "
          f"{pt.newton_iters:>6} {pt.residual_norm:>10.2e}")

print(f"\nfold detected: {branch.fold_detected} "
      f"(index {branch.fold_index}, m = {branch.peaks[branch.fold_index]:.2f})")
print(f"extremal parameter estimate: lambda* = {branch.lambda_star_estimate:.6f}")

# the initial slope of the branch is the reciprocal torsion center value
cfg_small = ContinuationConfig(params=p, grid=cfg.grid, peak_start=0.005, peak_end=0.1)
pt1 = solve_at_peak(cfg_small, 0.01, op=cfg.operator())
pt2 = solve_at_peak(cfg_small, 0.02, op=cfg.operator())
slope = 2.0 * (pt1.lam / 0.01) - pt2.lam / 0.02
print(f"small-peak slope lambda/m -> {slope:.6f} "
      f"(closed form 1/z(0) = {1.0 / torsion_center_value(p):.6f})")


def lam_at_zero_mu(panels):
    """lambda where mu(m) = 0: a secant on mu from the first sign change of a
    trace in steps of 0.05, each step one warm-started solve (at most 8)."""
    cfg = ContinuationConfig(params=p, grid=RadialGrid.graded(panels),
                             peak_start=0.05, peak_end=1.5, peak_step=0.05)
    points = trace_branch(cfg).points
    k = next(i for i, pt in enumerate(points) if pt.stability_eig < 0.0)
    a, b = points[k - 1], points[k]
    for _ in range(8):
        if abs(b.stability_eig) < 1e-13:
            break
        m = b.peak - b.stability_eig * (b.peak - a.peak) / (b.stability_eig - a.stability_eig)
        a, b = b, solve_at_peak(cfg, m, warm_start=b)
    return b.lam


print("\nlambda at mu = 0 under refinement (graded grids):")
lams = [(n, lam_at_zero_mu(n)) for n in (64, 128, 256, 512)]
for j, (n, lam) in enumerate(lams):
    line = f"  N = {n:>3}: lambda = {lam:.12f}"
    if 0 < j < len(lams) - 1:
        ratio = (lams[j - 1][1] - lam) / (lam - lams[j + 1][1])
        line += f"   observed order {math.log2(ratio):.2f}"
    print(line)
richardson = lams[-1][1] - (lams[-2][1] - lams[-1][1]) / 3.0
print(f"  Richardson estimate (order 2): lambda* = {richardson:.8f}")
