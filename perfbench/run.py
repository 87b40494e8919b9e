"""Benchmark of the fracgelfand CLI, end to end and per layer.

    python3 perfbench/run.py --workload powers --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from src/.
Each timed run is a fresh single process (perfbench/worker.py) that imports
fracgelfand.cli and calls cli.main on a fixed argument list.  With --trace 0
the CLI is run repeatedly for about --seconds: wall_s is the fastest of
those runs (outside load on a shared machine only adds time; on powers the
fastest run spread half as much across runs as the median run did),
setup_s and peak_rss_mb are medians, and power_rel_err is the power-map
oracle error for the workload's operator.  With --trace 1 the CLI is run
once untraced, then the same work is replayed through the public API of
fraclap and gelfand with spans around each call, which gives the per-layer
metrics.  Every output is checked; a run whose outputs fail a check counts
as failed.  BLAS is held to one thread in every measured process.

Workloads (all inputs fixed; the seed only names the run's scratch files):
  powers        verify-powers at N = 1024 for (1, 0.3): almost all dense
                assembly, with the slowest hyp2f1 case and a power tail.
                No energy form, Newton or eigen-solve.
  fold-verify   branch through the fold for (1, 0.5) with --verify: the
                most time in gelfand (60 Newton solves and pencil
                eigen-solves) plus the energy inequality at pre-fold points.
                Phi is a polynomial here.

The last stdout line is the JSON result; lines before it list every metric
with its unit and the environment.  Scratch output goes to .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = {
    "powers": ["verify-powers", "--n", "1", "--s", "0.3", "--grid", "1024"],
    "fold-verify": ["branch", "--n", "1", "--s", "0.5", "--grid", "256", "--peak-min", "0.05",
                    "--peak-max", "3", "--peak-step", "0.05", "--verify"],
}
# Power-map oracle at each workload's (n, grid); the powers run is its own.
# (1, 0.5) admits no power (n - 2s = 0), so fold-verify's uses s = 0.3.
ORACLE = {
    "powers": None,
    "fold-verify": ["verify-powers", "--n", "1", "--s", "0.3", "--grid", "256"],
}
# Known failure, run untimed on traced runs: Newton stalls at a residual just
# above its tolerance, so the CLI exits 1 with an empty branch.
PROBE = ["branch", "--n", "10", "--s", "0.9", "--grid", "256", "--peak-max", "4"]

POWER_TOL = 1e-2
MIN_REPS = 3
# A run, its workers included, ends within this many seconds of starting.
DEADLINE = time.monotonic() + 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "power_rel_err": "ratio"}
PER_LAYER_UNITS = {
    "fraclap.assemble_s": "s", "fraclap.energy_s": "s", "fraclap.apply_s": "s",
    "gelfand.solve_s": "s", "gelfand.eigen_s": "s", "gelfand.newton_s": "s",
    "gelfand.newton_iters": "count", "gelfand.points": "count", "gelfand.verify_s": "s",
    "gelfand.probe_points": "count", "cli.artifact_bytes": "count", "trace.overhead_s": "s",
}


class CheckFailed(Exception):
    pass


# What a failed run or check can raise; each counts as one failed attempt.
ERRORS = (CheckFailed, OSError, ValueError, KeyError, IndexError, subprocess.TimeoutExpired)


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS thread: on a shared 2-core machine a second OpenBLAS thread
    # doubled fold-verify's time and made it swing with outside load.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("FRACGELFAND_OUTDIR", None)
    return env


def run_worker(mode: str, argv: list[str]) -> dict:
    """Start one worker process, wait for it, and return its JSON result."""
    remaining = DEADLINE - time.monotonic()
    if remaining <= 0:
        raise CheckFailed("run time budget spent")
    proc = subprocess.run([sys.executable, str(WORKER), mode, *argv], cwd=ROOT,
                          env=worker_env(), capture_output=True, text=True, timeout=remaining)
    if proc.returncode != 0:
        raise CheckFailed(f"worker {mode} {' '.join(argv)} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def artifacts(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir()) if p.is_file()}


def read_power_error(outdir: Path) -> tuple[str, float]:
    rows = (outdir / "verify_powers.csv").read_text().splitlines()[2:]
    text = rows[0].split(",")[1]
    return text, float(text)


def check_outputs(workload: str, outdir: Path, res: dict) -> None:
    """Per-workload output checks; raise CheckFailed on any mismatch."""
    if res["rc"] != 0:
        raise CheckFailed(f"exit code {res['rc']}: {res['stderr'].strip()[-500:]}")
    if workload == "powers":
        _, err = read_power_error(outdir)
        if not err <= POWER_TOL:
            raise CheckFailed(f"power_rel_err {err} above {POWER_TOL}")
    elif workload == "fold-verify":
        data = json.loads((outdir / "branch.json").read_text())
        if len(data["points"]) != 60 or not data["fold_detected"] or not data["verify_passed"]:
            raise CheckFailed(f"branch: {len(data['points'])} points, fold "
                              f"{data['fold_detected']}, verify {data.get('verify_passed')}")


def check_replay(workload: str, outdir: Path, trace: dict) -> None:
    """The traced replay must reproduce the untraced run bit for bit."""
    summary = trace["summary"]
    if workload == "powers":
        text, _ = read_power_error(outdir)
        replayed = summary["power_rel_err"]
        if f"{replayed:.12g}" != text or not replayed <= POWER_TOL:
            raise CheckFailed(f"replayed power error {replayed!r} vs CLI {text}")
        return
    cli_branch = json.loads((outdir / "branch.json").read_text())
    for name, ref in (("trace_branch", summary["reference"]), ("the CLI's branch.json", cli_branch)):
        if summary["points"] != ref["points"] or (
                summary["lambda_star_estimate"] != ref["lambda_star_estimate"]):
            raise CheckFailed(f"replayed branch differs from {name}")


def run_untraced(workload: str, seconds: float, scratch: Path, min_reps: int) -> tuple[list, int]:
    """Repeat the CLI run for about `seconds`; return per-run results and failures."""
    argv = WORKLOADS[workload]
    reps: list[dict] = []
    failed = 0
    reference: dict[str, bytes] | None = None
    start = time.perf_counter()
    while len(reps) < min_reps or (time.perf_counter() - start) * (1 + 1 / len(reps)) <= seconds:
        outdir = scratch / f"rep{len(reps)}"
        try:
            res = run_worker("cli", [str(outdir), *argv])
            check_outputs(workload, outdir, res)
            files = artifacts(outdir)
            if reference is None:
                reference = files
            elif files != reference:
                raise CheckFailed("artifacts differ from the first run's")
            res["artifact_bytes"] = sum(len(b) for b in files.values())
            res["outdir"] = outdir
        except ERRORS as exc:
            print(f"FAIL {workload} run {len(reps)}: {exc}")
            failed += 1
            res = None
        reps.append(res)
    return reps, failed


def oracle_error(workload: str, reps: list, scratch: Path) -> float:
    if ORACLE[workload] is None:
        return read_power_error(next(r for r in reps if r)["outdir"])[1]
    outdir = scratch / "oracle"
    res = run_worker("cli", [str(outdir), *ORACLE[workload]])
    check_outputs("powers", outdir, res)
    return read_power_error(outdir)[1]


def probe_points(scratch: Path) -> int:
    outdir = scratch / "probe"
    run_worker("cli", [str(outdir), *PROBE])
    return len(json.loads((outdir / "branch.json").read_text())["points"])


def span_total(spans: list, name: str) -> float:
    return sum(sp["end"] - sp["start"] for sp in spans if sp["name"] == name)


def layer_metrics(cli_res: dict, trace: dict, probe: int) -> dict:
    spans, summary = trace["spans"], trace["summary"]
    points = summary.get("points", [])
    solve = span_total(spans, "gelfand.solve_at_peak")
    eigen = span_total(spans, "gelfand.stability_eigenvalue")
    traced = span_total(spans, "run") - span_total(spans, "repeat")
    return {
        "fraclap.assemble_s": span_total(spans, "fraclap.assemble"),
        "fraclap.energy_s": span_total(spans, "fraclap.energy"),
        "fraclap.apply_s": span_total(spans, "fraclap.apply"),
        "gelfand.solve_s": solve,
        "gelfand.eigen_s": eigen,
        "gelfand.newton_s": solve - eigen,
        "gelfand.newton_iters": sum(pt["newton_iters"] for pt in points),
        "gelfand.points": len(points),
        "gelfand.verify_s": span_total(spans, "gelfand.stability_inequality_check"),
        "gelfand.probe_points": probe,
        "cli.artifact_bytes": cli_res["artifact_bytes"],
        "trace.overhead_s": traced - cli_res["wall_s"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # Exit through SystemExit so subprocess.run kills and reaps a running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "fracgelfand" / "cli.py").is_file():
        print(f"error: no fracgelfand sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    record: dict = {"workload": args.workload, "argv": WORKLOADS[args.workload],
                    "seed": args.seed, "trace": args.trace}
    if args.trace == 0:
        reps, failed = run_untraced(args.workload, args.seconds, scratch, MIN_REPS)
        attempted = len(reps)
        good = [r for r in reps if r]
        metrics = {}
        if good:
            metrics = {
                "wall_s": min(r["wall_s"] for r in good),
                "setup_s": statistics.median(r["setup_s"] for r in good),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
            }
            attempted += 1
            try:
                metrics["power_rel_err"] = oracle_error(args.workload, reps, scratch)
            except ERRORS as exc:
                print(f"FAIL {args.workload} operator oracle: {exc}")
                failed += 1
        units = END_TO_END_UNITS
        record["samples"] = {k: [r[k] for r in good] for k in ("wall_s", "setup_s", "peak_rss_mb")}
        env = good[0]["env"] if good else {}
    else:
        reps, failed = run_untraced(args.workload, 0.0, scratch, 1)
        attempted = 2
        metrics = {}
        env = {}
        if reps[0]:
            try:
                trace = run_worker("trace", WORKLOADS[args.workload])
                check_replay(args.workload, reps[0]["outdir"], trace)
                metrics = layer_metrics(reps[0], trace, probe_points(scratch))
                record["spans"] = trace["spans"]
                env = reps[0]["env"]
            except ERRORS as exc:
                print(f"FAIL {args.workload} traced run: {exc}")
                failed += 1
        else:
            failed += 1  # the replay has no untraced run to be checked against
        units = PER_LAYER_UNITS

    correct = failed == 0 and set(metrics) == set(units)
    record.update(env=env, metrics=metrics, attempted=attempted, failed=failed)
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"fail_frac = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, values in record.get("samples", {}).items():
        print(f"{name}: {len(values)} runs, median {statistics.median(values):.6g}, "
              f"min {min(values):.6g}, max {max(values):.6g}")
    for child in scratch.iterdir():
        shutil.rmtree(child, ignore_errors=True)
    (scratch / "result.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
