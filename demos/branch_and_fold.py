"""Trace the minimal branch of (-Delta)^s u = lambda e^u and find the fold.

Continuation runs in the center value m = u(0) with lambda recovered by the
augmented Newton solve, so the trace walks through the fold where
d(lambda)/dm = 0 without any arclength machinery.  The smallest eigenvalue of
the stability pencil crosses zero at the fold: the low branch is the stable
(minimal) one.
"""

from fracgelfand import ContinuationConfig, ProblemParams, RadialGrid, trace_branch, torsion_center_value

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
from fracgelfand import solve_at_peak

pt1 = solve_at_peak(cfg_small, 0.01, op=cfg.operator())
pt2 = solve_at_peak(cfg_small, 0.02, op=cfg.operator())
slope = 2.0 * (pt1.lam / 0.01) - pt2.lam / 0.02
print(f"small-peak slope lambda/m -> {slope:.6f} "
      f"(closed form 1/z(0) = {1.0 / torsion_center_value(p):.6f})")
