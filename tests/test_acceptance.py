"""Acceptance gate: one test per numbered capability contract.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Shared branch traces live in module fixtures so the continuation
criteria reuse each other's solves.
"""

import math
import time

import numpy as np
import pytest

from fracgelfand import (
    ContinuationConfig,
    DomainError,
    ProblemParams,
    RadialFunction,
    RadialGrid,
    RegimeError,
    TailSpec,
    epsilon_expansion,
    hardy_constant,
    lambda0,
    margin,
    power_coefficient,
    critical_s,
    singular_solution_residual,
    stability_inequality_check,
    torsion_center_value,
    trace_branch,
)
from fracgelfand.cli import main as cli_main
from fracgelfand.fraclap import assemble


@pytest.fixture(scope="module")
def continuation_branches():
    """Coarse + fold-refined branches for (1, 0.5) and (3, 0.5) at 192 panels."""
    out = {}
    t0 = time.perf_counter()
    for n, s in ((1, 0.5), (3, 0.5)):
        p = ProblemParams(n, s)
        grid = RadialGrid.graded(192)
        cfg = ContinuationConfig(params=p, grid=grid, peak_start=0.25,
                                 peak_end=3.5, peak_step=0.25)
        coarse = trace_branch(cfg)
        m_fold = float(coarse.peaks[coarse.fold_index])
        fine_cfg = ContinuationConfig(
            params=p, grid=grid, peak_start=m_fold - 0.25,
            peak_end=m_fold + 0.25, peak_step=0.02,
        )
        refined = trace_branch(fine_cfg)
        out[(n, s)] = {"op": cfg.operator(), "coarse": coarse, "refined": refined}
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def singular_branch_12():
    cfg = ContinuationConfig(
        params=ProblemParams(12, 0.5), grid=RadialGrid.graded(256),
        peak_start=1.0, peak_end=9.0, peak_step=1.0,
    )
    t0 = time.perf_counter()
    branch = trace_branch(cfg)
    return branch, time.perf_counter() - t0


def test_criterion_1_threshold_reproduction():
    t0 = time.perf_counter()
    assert critical_s(8) == pytest.approx(0.28206, abs=1e-4)
    assert critical_s(9) == pytest.approx(0.63237, abs=1e-4)
    for n in range(2, 8):
        assert critical_s(n) is None
        for s in np.arange(0.01, 1.0, 0.01):
            assert margin(ProblemParams(n, float(s))) > 0.0
    for s in np.arange(1e-3, 1.0, 1e-3):
        assert margin(ProblemParams(10, float(s))) < 0.0
    assert abs(margin(ProblemParams(10, 1.0))) <= 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_gamma_identity_suite():
    t0 = time.perf_counter()
    checked = 0
    for n in (1, 3, 5, 9, 15):
        for s in (0.1, 0.5, 0.9):
            if n <= 2.0 * s:
                continue  # coefficient domain (0, n-2s) is empty
            p = ProblemParams(n, s)
            width = n - 2.0 * s
            h = hardy_constant(p)
            assert power_coefficient(p, width / 2.0) == pytest.approx(h, rel=1e-12)
            for t in np.linspace(1.0 / 11.0, 10.0 / 11.0, 10):
                alpha = float(t) * width
                left = power_coefficient(p, alpha)
                right = power_coefficient(p, width - alpha)
                assert left == pytest.approx(right, rel=1e-12)
                checked += 1
    assert checked == 130  # 13 admissible (n, s) pairs x 10 exponents
    assert time.perf_counter() - t0 < 1.0


def test_criterion_3_small_eps_limits():
    # The endpoint limit converges at sharp first order.  The midpoint limit
    # approaches H through even symmetry, so its measured order is ~2; that
    # still satisfies the first-order envelope |A - H| <= K * eps.
    t0 = time.perf_counter()
    eps_values = (1e-2, 1e-3, 1e-4)
    for n, s in ((3, 0.5), (9, 0.7)):
        p = ProblemParams(n, s)
        h, l0 = hardy_constant(p), lambda0(p)
        table = [epsilon_expansion(p, eps) for eps in eps_values]
        err_a = [abs(a - h) for a, _ in table]
        err_b = [abs(b - l0) for _, b in table]
        envelope = err_a[0] / eps_values[0]
        for (ea, eb), eps in zip(zip(err_a, err_b), eps_values):
            assert ea <= envelope * eps * (1.0 + 1e-9)
            assert eb > 0.0
        for j in range(2):
            order_a = math.log10(err_a[j] / err_a[j + 1])
            order_b = math.log10(err_b[j] / err_b[j + 1])
            print(f"(n,s)=({n},{s}) decade {j}: midpoint order {order_a:.2f}, "
                  f"endpoint order {order_b:.2f}")
            assert 0.9 <= order_b <= 1.1
            assert order_a >= 0.9
    assert time.perf_counter() - t0 < 1.0


def test_criterion_4_operator_power_oracle():
    t0 = time.perf_counter()
    matrix = [(n, s) for n in (1, 3, 5) for s in (0.3, 0.5, 0.7)]
    admissible = [(n, s) for n, s in matrix if n > 2.0 * s]
    assert len(admissible) == 7
    for n, s in ((1, 0.5), (1, 0.7)):
        with pytest.raises(RegimeError):
            power_coefficient(ProblemParams(n, s), (n - 2.0 * s) / 2.0)
    for n, s in admissible:
        p = ProblemParams(n, s)
        alpha = (n - 2.0 * s) / 2.0
        coeff = power_coefficient(p, alpha)
        errs = []
        for panels in (512, 1024):
            grid = RadialGrid.graded(panels)
            op = assemble(p, grid)
            u = RadialFunction.from_callable(
                grid, lambda r: r**-alpha, TailSpec.power(alpha), singular_at_origin=True
            )
            got = op.apply_interior(u.interior, u.tail)
            r = grid.interior
            mask = (r >= 0.2) & (r <= 0.8)
            want = coeff * r[mask] ** -(alpha + 2.0 * s)
            errs.append(float(np.max(np.abs(got[mask] - want) / want)))
            const = op.apply_interior(np.ones(op.n_interior), TailSpec.power(0.0, 1.0))
            assert np.max(np.abs(const)) <= 1e-8
        print(f"(n,s,alpha)=({n},{s},{alpha:.2f}): err512 {errs[0]:.3e} err1024 {errs[1]:.3e}")
        assert errs[0] <= 1e-2
        assert errs[1] < errs[0]
    assert time.perf_counter() - t0 < 60.0


def test_criterion_5_singular_solution_residual():
    t0 = time.perf_counter()
    for n, s in ((3, 0.5), (10, 0.9)):
        p = ProblemParams(n, s)
        res = [singular_solution_residual(p, RadialGrid.graded(panels))
               for panels in (512, 1024)]
        print(f"(n,s)=({n},{s}): residual512 {res[0]:.3e} residual1024 {res[1]:.3e}")
        assert res[0] <= 1e-2
        assert res[1] < res[0]
    assert time.perf_counter() - t0 < 60.0


def test_criterion_6_branch_fold_and_stability(continuation_branches):
    t0 = time.perf_counter()
    for n, s in ((1, 0.5), (3, 0.5)):
        entry = continuation_branches[(n, s)]
        coarse, refined = entry["coarse"], entry["refined"]
        assert coarse.fold_detected
        assert refined.fold_detected
        for branch in (coarse, refined):
            mus = np.array([pt.stability_eig for pt in branch.points])
            assert np.all(mus[: branch.fold_index] >= -1e-6)
            first_negative = int(np.argmax(mus < 0.0))
            assert mus[first_negative] < 0.0
            assert abs(first_negative - branch.fold_index) <= 1
        mu_at_max = refined.points[refined.fold_index].stability_eig
        print(f"(n,s)=({n},{s}): lambda* {refined.lambda_star_estimate:.6f}, "
              f"|mu| at fold sample {abs(mu_at_max):.2e}")
        assert abs(mu_at_max) <= 2e-2

        cfg = ContinuationConfig(params=ProblemParams(n, s), grid=entry["op"].grid,
                                 peak_start=0.005, peak_end=0.1)
        from fracgelfand import solve_at_peak

        pt1 = solve_at_peak(cfg, 0.01, op=entry["op"])
        pt2 = solve_at_peak(cfg, 0.02, op=entry["op"])
        slope = 2.0 * (pt1.lam / 0.01) - pt2.lam / 0.02
        target = 1.0 / torsion_center_value(ProblemParams(n, s))
        print(f"(n,s)=({n},{s}): small-peak slope {slope:.6f} vs 1/z(0) {target:.6f}")
        assert slope == pytest.approx(target, rel=0.02)
    assert continuation_branches["elapsed"] + (time.perf_counter() - t0) < 300.0


def test_criterion_7_energy_inequality_at_stable_points(continuation_branches):
    checked = 0
    expected = 0
    for n, s in ((1, 0.5), (3, 0.5)):
        entry = continuation_branches[(n, s)]
        op = entry["op"]
        for branch in (entry["coarse"], entry["refined"]):
            expected += 3 * branch.fold_index
            for pt in branch.points[: branch.fold_index]:
                for eps in (0.05, 0.1, 0.2):
                    lhs, rhs = stability_inequality_check(op, pt, rho0=0.5, eps=eps)
                    assert lhs <= rhs + 1e-3 * abs(rhs)
                    checked += 1
    print(f"inequality verified at {checked} (point, eps) combinations")
    assert checked == expected > 0


def test_criterion_8_singular_regime_trend(continuation_branches, singular_branch_12):
    branch12, elapsed12 = singular_branch_12
    from fracgelfand import classify, Regime, singular_profile_diagnostic

    assert classify(ProblemParams(12, 0.5)).regime is Regime.INCONCLUSIVE
    assert not branch12.fold_detected
    report = singular_profile_diagnostic(branch12, 0.5)
    print(f"(12,0.5) probe ratios at r=0.01: {[f'{x:.5f}' for x in report.probe_ratios]}")
    assert report.probe_ratios.size == 3
    assert np.all(np.diff(report.probe_ratios) > 0.0)

    assert classify(ProblemParams(3, 0.5)).regime is Regime.BOUNDED_BY_INEQUALITY
    coarse3 = continuation_branches[(3, 0.5)]["coarse"]
    assert coarse3.fold_detected
    lams = coarse3.lams
    assert coarse3.fold_index < len(lams) - 2
    print(f"(3,0.5) post-fold lambda tail: {lams[-2]:.6f} -> {lams[-1]:.6f}")
    assert lams[-1] < lams[-2] < lams[coarse3.fold_index]
    assert elapsed12 < 300.0


def test_criterion_9_deterministic_reruns(tmp_path):
    runs = {
        "threshold": ["threshold", "--n-max", "10"],
        "branch": ["branch", "--n", "1", "--s", "0.5", "--grid", "96",
                   "--peak-max", "2.0"],
    }
    artifacts = {
        "threshold": ("threshold.csv",),
        "branch": ("branch.csv", "bifurcation.dat", "branch.json"),
    }
    for name, argv in runs.items():
        dirs = (tmp_path / f"{name}_a", tmp_path / f"{name}_b")
        for d in dirs:
            assert cli_main(["--outdir", str(d), *argv]) == 0
        for artifact in artifacts[name]:
            first = (dirs[0] / artifact).read_bytes()
            second = (dirs[1] / artifact).read_bytes()
            assert first == second, f"{artifact} differs between identical runs"
