"""One measured process of the benchmark; started fresh by run.py each time.

    python3 perfbench/worker.py cli OUTDIR ARG...  time the CLI as a user runs it
    python3 perfbench/worker.py trace ARG...       replay the same run through the
                                                   public API of fraclap and gelfand,
                                                   recording spans

Either mode prints one JSON object as its last stdout line.  The package is
imported from the PYTHONPATH that run.py sets (the checkout's src/).
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import sys
import time


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy wheels bundle, if that is the BLAS."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "lib*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version()}


def run_cli(outdir: str, argv: list[str]) -> dict:
    t0 = time.perf_counter()
    from fracgelfand import cli
    t1 = time.perf_counter()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["--outdir", outdir, *argv])
    t2 = time.perf_counter()
    return {"setup_s": t1 - t0, "wall_s": t2 - t1, "rc": rc,
            "peak_rss_mb": _peak_rss_mb(), "stderr": err.getvalue(), "env": environment()}


class Tracer:
    """In-memory spans (id, parent id, name, start, end), written out by the caller."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
               "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def _replay_powers(tr: Tracer, args) -> dict:
    import numpy as np
    from fracgelfand import (ProblemParams, RadialFunction, RadialGrid, TailSpec,
                             apply, assemble, power_coefficient)

    p = ProblemParams(args.n, args.s)
    alpha = (p.n - 2.0 * p.s) / 2.0
    grid = RadialGrid.graded(args.grid)
    with tr.span("fraclap.assemble"):
        op = assemble(p, grid)
    with tr.span("fraclap.from_callable"):
        u = RadialFunction.from_callable(grid, lambda r: r ** (-alpha),
                                         TailSpec.power(alpha), singular_at_origin=True)
    with tr.span("fraclap.apply"):
        result = apply(op, u)
    r = grid.interior
    expected = power_coefficient(p, alpha) * r ** (-alpha - 2.0 * p.s)
    window = (r >= 0.2) & (r <= 0.8)
    return {"power_rel_err": float((np.abs(result.interior - expected)
                                    / np.abs(expected))[window].max())}


def _replay_branch(tr: Tracer, args):
    """Mirror of trace_branch and of `branch --verify`: operator, energy form,
    warm-started solves, then the energy inequality at pre-fold points."""
    import numpy as np
    from fracgelfand import (Branch, ContinuationConfig, ProblemParams, RadialGrid,
                             solve_at_peak, stability_eigenvalue, stability_inequality_check)

    cfg = ContinuationConfig(
        params=ProblemParams(args.n, args.s),
        grid=RadialGrid.graded(args.grid, grading=args.grading),
        peak_start=args.peak_min, peak_end=args.peak_max,
        peak_step=args.peak_step, newton_tol=args.newton_tol,
    )
    with tr.span("fraclap.assemble"):
        op = cfg.operator()
    with tr.span("fraclap.energy"):
        op.stability_form
    branch = Branch(params=cfg.params)
    previous = None
    peaks = np.arange(cfg.peak_start, cfg.peak_end + 0.5 * cfg.peak_step, cfg.peak_step)
    for m in peaks:
        with tr.span("gelfand.solve_at_peak"):
            point = solve_at_peak(cfg, float(m), warm_start=previous, op=op)
        branch.points.append(point)
        previous = point
    # Repeat of the pencil solve each point already did, timed on its own;
    # run.py leaves these spans out of the tracing overhead.
    with tr.span("repeat"):
        for point in branch.points:
            with tr.span("gelfand.stability_eigenvalue"):
                mu = stability_eigenvalue(op, point)
            if mu != point.stability_eig:
                raise RuntimeError(f"stability_eigenvalue repeat differs at m={point.peak}")
    if args.verify:
        for point in branch.points[: branch.fold_index]:
            for eps in (0.05, 0.1, 0.2):
                with tr.span("gelfand.stability_inequality_check"):
                    stability_inequality_check(op, point, rho0=args.rho0, eps=eps)
    return json.loads(branch.to_json()), cfg


def run_trace(argv: list[str]) -> dict:
    from fracgelfand import cli

    tr = Tracer()
    cfg = None
    with tr.span("run"):
        with tr.span("cli.parse"):
            args = cli.build_parser().parse_args(argv)
        if args.subcommand == "verify-powers":
            summary = _replay_powers(tr, args)
        elif args.subcommand == "branch":
            summary, cfg = _replay_branch(tr, args)
        else:
            raise SystemExit(f"no replay for subcommand {args.subcommand!r}")
    if cfg is not None:
        # Untimed reference: the library's own continuation on the same
        # (already assembled) operator, which the replay must reproduce.
        from fracgelfand import trace_branch
        summary["reference"] = json.loads(trace_branch(cfg).to_json())
    return {"summary": summary, "spans": tr.spans}


def main() -> int:
    mode, *argv = sys.argv[1:]
    result = run_cli(argv[0], argv[1:]) if mode == "cli" else run_trace(argv)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
