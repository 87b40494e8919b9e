"""Command-line front end.

Subcommands: constants, threshold, verify-powers, branch, stability, diagnose.
Every run resolves an output directory (--outdir flag, else the
FRACGELFAND_OUTDIR environment variable, else the working directory), writes a
run_metadata.json with the versions and the run's config, and emits its
artifacts there.  The config is every parsed argument but the output directory,
plus what the subcommand derives from them (tolerances, alphas, eps values), so
the parser is the one declaration of a run's inputs.  CSV artifacts carry 12
significant digits and embed the config as a leading comment line; tables print
6.  Nothing written contains a timestamp, so re-running with an identical
configuration reproduces every artifact byte for byte.

branch and diagnose share one trace: when continuation stops partway, both
report the failure on stderr, write their artifacts from the points solved so
far (diagnose writes none when there are no points), and exit 1.

Exit codes: 0 success, 1 numerical or tolerance failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .constants import (
    DomainError,
    ProblemParams,
    RegimeError,
    epsilon_expansion,
    hardy_constant,
    lambda0,
    operator_normalization,
    power_coefficient,
)
from .fraclap import OperatorMatrix, RadialFunction, RadialGrid, TailSpec, apply, assemble
from .gelfand import (
    Branch,
    BranchTraceError,
    ContinuationConfig,
    EigenSolveError,
    GridDepthError,
    InfeasibleError,
    NoConvergenceError,
    _inequality_sides,
    singular_profile_diagnostic,
    singular_solution_residual,
    solve_at_peak,
    stability_inequality_check,
    torsion_center_value,
    trace_branch,
)
from .threshold import ROOT_TOL, classify, threshold_table

_POWER_TOL = 1e-2
_INEQ_SLACK = 1e-3
_RHO0 = 0.5             # default cutoff radius of the energy inequality's test function
_EPS_TABLE = (1e-2, 1e-3, 1e-4)
_VERIFY_EPS = (0.05, 0.1, 0.2)
_LOG_MAX_FLOAT = math.log(sys.float_info.max)

_GNUPLOT_SCRIPT = """set terminal pngcairo size 900,600
set output 'bifurcation.png'
set xlabel 'lambda'
set ylabel 'u(0)'
set grid
plot 'bifurcation.dat' using 1:2 with linespoints pointtype 7 pointsize 0.6 notitle
"""


def _config(args: argparse.Namespace, **derived) -> dict:
    """A run's inputs: every parsed argument but the output directory, plus
    what the subcommand derives from them."""
    config = {k: v for k, v in vars(args).items() if k not in ("outdir", "handler")}
    return {**config, **derived}


def _outdir(args: argparse.Namespace, config: dict) -> Path:
    """Resolve and create the output directory, and write run_metadata.json there."""
    path = Path(args.outdir or os.environ.get("FRACGELFAND_OUTDIR") or ".")
    path.mkdir(parents=True, exist_ok=True)
    record = {
        "config": config,
        "versions": {
            "fracgelfand": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    (path / "run_metadata.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    return path


def _config_line(config: dict) -> str:
    return "# config: " + json.dumps(config, sort_keys=True)


def _params(args: argparse.Namespace) -> ProblemParams:
    return ProblemParams(args.n, args.s)


def cmd_constants(args: argparse.Namespace) -> int:
    p = _params(args)
    rows = [("normalization", operator_normalization(p)),
            ("torsion_center", torsion_center_value(p))]
    verdict = classify(p)
    if p.supercritical:
        rows = [("lambda0", lambda0(p)), ("hardy_constant", hardy_constant(p)),
                ("margin", verdict.margin)] + rows
    config = _config(args)
    out = _outdir(args, config)

    lines = [_config_line(config), "quantity,value"]
    lines += [f"{name},{value:.12g}" for name, value in rows]
    lines.append(f"classification,{verdict.regime.value}")
    (out / "constants.csv").write_text("\n".join(lines) + "\n")

    print(f"n = {p.n}, s = {p.s}  ({verdict.regime.value})")
    for name, value in rows:
        print(f"  {name:<16} {value:.6g}")
    return 0


def cmd_threshold(args: argparse.Namespace) -> int:
    rows = threshold_table(args.n_max)
    config = _config(args, tol=ROOT_TOL)
    out = _outdir(args, config)

    lines = [_config_line(config), "n,critical_s,all_s_bounded"]
    for row in rows:
        crit = "" if row.critical_s is None else f"{row.critical_s:.12g}"
        lines.append(f"{row.n},{crit},{row.all_s_bounded}")
    (out / "threshold.csv").write_text("\n".join(lines) + "\n")

    print(f"{'n':>3}  {'critical s':>12}  verdict")
    for row in rows:
        if row.all_s_bounded:
            print(f"{row.n:>3}  {'-':>12}  bounded for all s")
        elif row.critical_s is not None:
            print(f"{row.n:>3}  {row.critical_s:>12.6g}  bounded for s above threshold")
        else:
            print(f"{row.n:>3}  {'-':>12}  inconclusive for all s")
    return 0


def _power_map_error(op: OperatorMatrix, alpha: float) -> float:
    p, grid = op.params, op.grid
    u = RadialFunction.from_callable(
        grid, lambda r: r ** (-alpha), TailSpec.power(alpha), singular_at_origin=True
    )
    result = apply(op, u)
    r = grid.interior
    expected = power_coefficient(p, alpha) * r ** (-alpha - 2.0 * p.s)
    window = (r >= 0.2) & (r <= 0.8)
    rel = np.abs(result.interior - expected) / np.abs(expected)
    return float(rel[window].max())


def cmd_verify_powers(args: argparse.Namespace) -> int:
    p = _params(args)
    if args.eps_table:
        h = hardy_constant(p)
        l0 = lambda0(p)
        table = [(eps, *epsilon_expansion(p, eps)) for eps in _EPS_TABLE]
        config = _config(args, eps_values=list(_EPS_TABLE))
        out = _outdir(args, config)
        lines = [_config_line(config), "eps,abs_err_midpoint,abs_err_endpoint"]
        print(f"{'eps':>8}  {'|A-H|':>12}  {'|B-lambda0|':>12}")
        for eps, a_val, b_val in table:
            ea, eb = abs(a_val - h), abs(b_val - l0)
            lines.append(f"{eps:.12g},{ea:.12g},{eb:.12g}")
            print(f"{eps:>8.0e}  {ea:>12.6g}  {eb:>12.6g}")
        (out / "eps_table.csv").write_text("\n".join(lines) + "\n")
        for j in range(len(table) - 1):
            ra = abs(table[j][1] - h) / abs(table[j + 1][1] - h)
            rb = abs(table[j][2] - l0) / abs(table[j + 1][2] - l0)
            print(f"decade {table[j][0]:.0e} -> {table[j+1][0]:.0e}: "
                  f"midpoint ratio {ra:.3g} (order {math.log10(ra):.2f}), "
                  f"endpoint ratio {rb:.3g} (order {math.log10(rb):.2f})")
        return 0

    alphas = args.alpha or [(p.n - 2.0 * p.s) / 2.0]
    grid = RadialGrid.graded(args.grid)
    operator_normalization(p)   # an overflowing c_{n,s} is the first error to report
    for alpha in alphas:
        if not 0.0 < alpha < p.n - 2.0 * p.s:
            raise DomainError(
                f"alpha must lie in (0, n-2s) = (0, {p.n - 2.0 * p.s:g}), got {alpha:g}"
            )
    # C(n,s,alpha) <= H: below `top`, r^-alpha and its image C r^(-alpha-2s)
    # stay finite at r_1.
    log_r1 = math.log(grid.nodes[1])
    top = (_LOG_MAX_FLOAT - max(0.0, math.log(hardy_constant(p)))) / -log_r1 - 2.0 * p.s
    for alpha in alphas:
        if alpha >= top:
            raise DomainError(f"alpha = {alpha:g}: r^-alpha or its image overflows a double at "
                              f"r_1 = {grid.nodes[1]:.6g}; the largest admissible alpha on "
                              f"this grid is {top:.10g}")
    config = _config(args, alphas=list(alphas), tol=_POWER_TOL)
    out = _outdir(args, config)

    lines = [_config_line(config), "alpha,max_rel_error,tol,passed"]
    failed = []
    op = assemble(p, grid)
    for alpha in alphas:
        err = _power_map_error(op, alpha)
        ok = err <= _POWER_TOL
        if not ok:
            failed.append((alpha, err))
        lines.append(f"{alpha:.12g},{err:.12g},{_POWER_TOL:.12g},{ok}")
        print(f"alpha = {alpha:<10.6g} max rel error {err:.6g}  "
              f"{'PASS' if ok else 'FAIL'} (tol {_POWER_TOL:g})")
    (out / "verify_powers.csv").write_text("\n".join(lines) + "\n")
    if failed:
        for alpha, err in failed:
            print(f"FAIL: alpha = {alpha:g} error {err:.6g} exceeds {_POWER_TOL:g}",
                  file=sys.stderr)
        return 1
    return 0


def _solve_config(args: argparse.Namespace, **peaks: float) -> ContinuationConfig:
    return ContinuationConfig(params=_params(args), newton_tol=args.newton_tol,
                              grid=RadialGrid.graded(args.grid, grading=args.grading), **peaks)


def _branch_config(args: argparse.Namespace) -> ContinuationConfig:
    return _solve_config(args, peak_start=args.peak_min, peak_end=args.peak_max,
                         peak_step=args.peak_step)


def _trace(cfg: ContinuationConfig) -> tuple[Branch, BranchTraceError | None]:
    """The traced branch, or the partial one with the error that stopped it
    (reported on stderr)."""
    try:
        return trace_branch(cfg), None
    except BranchTraceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        print(f"partial branch with {len(exc.partial.points)} points saved", file=sys.stderr)
        return exc.partial, exc


def _holds(lhs: float, rhs: float) -> bool:
    """Whether the energy inequality lhs <= rhs holds up to _INEQ_SLACK."""
    return lhs <= rhs + _INEQ_SLACK * abs(rhs)


def _check_unit(flag: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise DomainError(f"--{flag} must satisfy 0 < {flag} < 1, got {value}")


def cmd_branch(args: argparse.Namespace) -> int:
    if args.verify:
        _check_unit("rho0", args.rho0)
    cfg = _branch_config(args)
    config = _config(args)
    out = _outdir(args, config)
    branch, failure = _trace(cfg)

    (out / "branch.csv").write_text(_config_line(config) + "\n" + branch.to_csv())
    extra = json.loads(branch.to_json())
    extra["config"] = config
    dat_lines = [_config_line(config)]
    dat_lines += [f"{pt.lam:.12g} {pt.peak:.12g}" for pt in branch.points]
    (out / "bifurcation.dat").write_text("\n".join(dat_lines) + "\n")
    (out / "bifurcation.gp").write_text(_GNUPLOT_SCRIPT)

    rc = 0 if failure is None else 1
    if failure is None:
        star = branch.lambda_star_estimate
        print(f"{len(branch.points)} branch points; fold detected: {branch.fold_detected}")
        if branch.fold_detected:
            print(f"lambda* estimate: {star:.6g}")
        elif math.isfinite(star):
            print(f"no fold bracketed; largest lambda traced: {star:.6g}")

    if args.verify and branch.points:
        op = cfg.operator()
        pre_fold = branch.points[: branch.fold_index]
        # A branch that starts at or past the fold has no point to check,
        # and a check of nothing does not pass.
        all_ok = bool(pre_fold)
        if not pre_fold:
            print("no branch point below the fold to verify")
        # All points and eps at once; every point before fold_index is
        # stable, so _inequality_sides refuses none.
        for pt, sides in zip(pre_fold, _inequality_sides(op, pre_fold, args.rho0, _VERIFY_EPS)):
            ok = all(_holds(lhs, rhs) for lhs, rhs in sides)
            checks = [f"mu={pt.stability_eig:+.3e}"]
            checks += [f"eps={eps:g}: lhs-rhs={lhs - rhs:+.3e}"
                       for eps, (lhs, rhs) in zip(_VERIFY_EPS, sides)]
            all_ok = all_ok and ok
            print(f"m={pt.peak:.4g}  {'PASS' if ok else 'FAIL'}  " + "  ".join(checks))
        extra["verify_passed"] = all_ok
        if not all_ok:
            rc = max(rc, 1)

    (out / "branch.json").write_text(json.dumps(extra, indent=2))
    return rc


def cmd_stability(args: argparse.Namespace) -> int:
    if not 0.0 < args.peak < math.inf:
        raise DomainError(f"--peak must satisfy 0 < peak < inf, got {args.peak}")
    _check_unit("rho0", args.rho0)
    if not 0.0 < args.eps < math.inf:
        raise DomainError(f"--eps must satisfy 0 < eps < inf, got {args.eps}")
    cfg = _solve_config(args)   # one solve: the peak range keeps its defaults
    config = _config(args)
    out = _outdir(args, config)

    point = solve_at_peak(cfg, args.peak)
    stable = point.stable
    print(f"m = {point.peak:.6g}: lambda = {point.lam:.6g}, "
          f"stability_eig = {point.stability_eig:+.6g} ({'stable' if stable else 'unstable'})")

    record = {
        "config": config, "lambda": point.lam, "peak": point.peak,
        "stability_eig": point.stability_eig, "residual_norm": point.residual_norm,
        "newton_iters": point.newton_iters, "stable": stable,
    }
    rc = 0
    if stable:
        lhs, rhs = stability_inequality_check(cfg.operator(), point, rho0=args.rho0, eps=args.eps)
        ok = _holds(lhs, rhs)
        print(f"energy inequality (rho0={args.rho0:g}, eps={args.eps:g}): "
              f"lhs = {lhs:.6g}, rhs = {rhs:.6g}  {'PASS' if ok else 'FAIL'}")
        record["inequality"] = {"rho0": args.rho0, "eps": args.eps,
                                "lhs": lhs, "rhs": rhs, "passed": ok}
        if not ok:
            rc = 1
    (out / "stability.json").write_text(json.dumps(record, indent=2))
    return rc


def cmd_diagnose(args: argparse.Namespace) -> int:
    if args.singular_residual:
        grid = RadialGrid.graded(args.grid, grading=args.grading)
        res = singular_solution_residual(_params(args), grid)
        config = _config(args)
        out = _outdir(args, config)
        print(f"singular solution relative residual on [0.1, 0.9]: {res:.6g}")
        (out / "diagnose.json").write_text(json.dumps(
            {"config": config, "relative_residual": res}, indent=2))
        return 0

    _check_unit("sigma", args.sigma)
    cfg = _branch_config(args)
    config = _config(args)
    out = _outdir(args, config)
    branch, failure = _trace(cfg)
    if not branch.points:
        return 1
    report = singular_profile_diagnostic(branch, args.sigma)
    print(f"{len(branch.points)} points to peak {branch.peaks[-1]:.4g}; "
          f"fold detected: {branch.fold_detected}")
    print(f"ratio u/(2s log(1/r)) at r = {report.probe_radius:g} for the three "
          f"highest peaks: {[f'{x:.6g}' for x in report.probe_ratios]}")
    print(f"increasing trend: {report.increasing_trend}; "
          f"threshold radius (sigma={args.sigma:g}): {report.threshold_radius}")
    (out / "diagnose.json").write_text(json.dumps({
        "config": config,
        "fold_detected": branch.fold_detected,
        "threshold_radius": report.threshold_radius,
        "probe_radius": report.probe_radius,
        "probe_ratios": [float(x) for x in report.probe_ratios],
        "increasing_trend": report.increasing_trend,
    }, indent=2))
    return 0 if failure is None else 1


def _add_common(sub: argparse.ArgumentParser, grid_default: int = 128) -> None:
    sub.add_argument("--n", type=int, required=True, help="dimension")
    sub.add_argument("--s", type=float, required=True, help="fractional order in (0,1)")
    sub.add_argument("--grid", type=int, default=grid_default, help="number of radial panels")
    sub.add_argument("--grading", type=float, default=2.0, help="grid grading exponent")


def _add_continuation(sub: argparse.ArgumentParser, peak_max: float = 6.0) -> None:
    sub.add_argument("--peak-min", type=float, default=0.25)
    sub.add_argument("--peak-max", type=float, default=peak_max)
    sub.add_argument("--peak-step", type=float, default=0.25)
    sub.add_argument("--newton-tol", type=float, default=ContinuationConfig.newton_tol)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracgelfand",
        description="Fractional Gelfand problem: constants, thresholds, operator "
                    "verification, branch continuation, and diagnostics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--outdir", default=None,
                        help="artifact directory (default: $FRACGELFAND_OUTDIR or .)")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("constants", help="closed-form constants for (n, s)")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--s", type=float, required=True)
    sub.set_defaults(handler=cmd_constants)

    sub = subs.add_parser("threshold", help="boundedness threshold table")
    sub.add_argument("--n-max", type=int, required=True)
    sub.set_defaults(handler=cmd_threshold)

    sub = subs.add_parser("verify-powers", help="operator oracle on power functions")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--s", type=float, required=True)
    sub.add_argument("--alpha", type=float, action="append",
                     help="power exponent (repeatable); default midpoint (n-2s)/2")
    sub.add_argument("--grid", type=int, default=512)
    sub.add_argument("--eps-table", action="store_true",
                     help="print the small-eps coefficient convergence table")
    sub.set_defaults(handler=cmd_verify_powers)

    sub = subs.add_parser("branch", help="trace the solution branch by peak continuation")
    _add_common(sub)
    _add_continuation(sub)
    sub.add_argument("--verify", action="store_true",
                     help="check stability and the energy inequality at pre-fold points")
    sub.add_argument("--rho0", type=float, default=_RHO0)
    sub.set_defaults(handler=cmd_branch)

    sub = subs.add_parser("stability", help="stability eigenvalue at one branch point")
    _add_common(sub)
    sub.add_argument("--peak", type=float, required=True)
    sub.add_argument("--rho0", type=float, default=_RHO0)
    sub.add_argument("--eps", type=float, default=0.1)
    sub.add_argument("--newton-tol", type=float, default=ContinuationConfig.newton_tol)
    sub.set_defaults(handler=cmd_stability)

    sub = subs.add_parser("diagnose", help="singular-regime diagnostics")
    _add_common(sub, grid_default=192)
    _add_continuation(sub, peak_max=9.0)
    sub.add_argument("--sigma", type=float, default=0.5)
    sub.add_argument("--singular-residual", action="store_true",
                     help="residual of the exact singular solution instead of a branch trace")
    sub.set_defaults(handler=cmd_diagnose)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (DomainError, RegimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"usage: run 'fracgelfand {args.subcommand} --help' for valid inputs",
              file=sys.stderr)
        return 2
    except (NoConvergenceError, InfeasibleError, EigenSolveError, GridDepthError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
