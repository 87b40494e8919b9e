import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import fracgelfand
from fracgelfand import BranchTraceError, assemble, cli, singular_profile_diagnostic, trace_branch
from fracgelfand.cli import main
from fracgelfand.threshold import ROOT_TOL


def run(tmp_path, *argv):
    return main(["--outdir", str(tmp_path), *argv])


def test_constants_supercritical(tmp_path, capsys):
    assert run(tmp_path, "constants", "--n", "3", "--s", "0.5") == 0
    out = capsys.readouterr().out
    assert "BoundedByInequality" in out
    csv = (tmp_path / "constants.csv").read_text()
    first, header = csv.split("\n")[:2]
    assert first.startswith("# config: {") and '"subcommand": "constants"' in first
    assert header == "quantity,value"
    assert "lambda0," in csv and "hardy_constant," in csv and "torsion_center," in csv
    meta = json.loads((tmp_path / "run_metadata.json").read_text())
    assert meta["config"]["n"] == 3
    assert set(meta["versions"]) == {"fracgelfand", "numpy", "python"}


def test_constants_subcritical(tmp_path, capsys):
    assert run(tmp_path, "constants", "--n", "1", "--s", "0.7") == 0
    csv = (tmp_path / "constants.csv").read_text()
    assert "lambda0" not in csv
    assert "classification,BoundedSubcritical" in csv


@pytest.mark.parametrize("argv", [["constants"], ["verify-powers", "--grid", "64"]])
def test_normalization_overflow_usage_error(tmp_path, capsys, argv):
    assert run(tmp_path, argv[0], "--n", "1300", "--s", "0.5", *argv[1:]) == 2
    err = capsys.readouterr().err
    assert "n > 437" in err and "--help" in err


def test_threshold_table(tmp_path, capsys):
    assert run(tmp_path, "threshold", "--n-max", "10") == 0
    out = capsys.readouterr().out
    assert "bounded for all s" in out
    assert "bounded for s above threshold" in out
    assert "inconclusive for all s" in out
    lines = (tmp_path / "threshold.csv").read_text().strip().split("\n")
    assert lines[1] == "n,critical_s,all_s_bounded"
    assert len(lines) == 12
    assert lines[2].startswith("1,,True")
    assert lines[-1].startswith("10,,False")


def test_threshold_usage_error(tmp_path, capsys):
    assert run(tmp_path, "threshold", "--n-max", "0") == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--help" in err


def test_invalid_order_usage_error(tmp_path, capsys):
    assert run(tmp_path, "constants", "--n", "3", "--s", "1.5") == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("verify-powers", "--n", "1", "--s", "0.3"),
    ("branch", "--n", "1", "--s", "0.5"),
    ("diagnose", "--n", "3", "--s", "0.5", "--singular-residual"),
])
def test_oversized_grid_usage_error(tmp_path, capsys, argv):
    assert run(tmp_path, *argv, "--grid", "20000") == 2
    assert "budget" in capsys.readouterr().err
    assert not (tmp_path / "run_metadata.json").exists()


@pytest.mark.parametrize("argv", [
    ("branch", "--peak-max", "1", "--newton-tol", "nan"),
    ("branch", "--peak-max", "1", "--newton-tol", "inf"),
    ("branch", "--peak-max", "1", "--peak-step", "nan"),
    ("diagnose", "--peak-max", "1", "--newton-tol", "nan"),
    ("stability", "--peak", "0.5", "--newton-tol", "nan"),
])
def test_non_finite_solver_settings_usage_error(tmp_path, capsys, argv):
    # NaN compares false with everything, so a "<= 0" check lets it through.
    assert run(tmp_path, argv[0], "--n", "1", "--s", "0.5", "--grid", "32", *argv[1:]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "run_metadata.json").exists()


@pytest.mark.parametrize("argv, message", [
    (("diagnose", "--n", "3", "--s", "0.5", "--sigma", "2"), "sigma"),
    (("diagnose", "--n", "3", "--s", "0.5", "--sigma", "nan"), "sigma"),
    (("diagnose", "--n", "1", "--s", "0.5", "--singular-residual"), "n > 2s"),
] + [((*cmd, "--n", n, "--s", s), message)
     for cmd in (("branch",), ("stability", "--peak", "1"), ("diagnose",),
                 ("diagnose", "--singular-residual"))
     for n, s, message in (("500", "0.5", "overflows"), ("3", "1", "0 < s < 1"))] + [
    (("verify-powers", "--n", "1", "--s", "0.5", "--eps-table"), "n > 2s"),
    (("verify-powers", "--n", "1", "--s", "0.495", "--eps-table"), "eps must lie in"),
])
def test_operator_usage_error_before_artifacts(tmp_path, capsys, argv, message):
    # Refused before run_metadata.json, and before a trace that a bad
    # --sigma would only reject at its end.  The eps table is computed before
    # run_metadata.json too: n = 2s has no expansion, and (n - 2s)/2 = 0.005
    # admits none of its eps.
    assert run(tmp_path, *argv, "--grid", "32") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run_metadata.json").exists()


@pytest.mark.parametrize("subcommand", ["branch", "diagnose"])
def test_peak_budget_usage_error(tmp_path, capsys, subcommand):
    # ~6e9 continuation points: refused before any solve or artifact.
    assert run(tmp_path, subcommand, "--n", "1", "--s", "0.5", "--peak-step", "1e-9") == 2
    assert "budget" in capsys.readouterr().err
    assert not (tmp_path / "run_metadata.json").exists()


def test_verify_powers_default_midpoint(tmp_path, capsys):
    assert run(tmp_path, "verify-powers", "--n", "3", "--s", "0.5", "--grid", "96") == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    lines = (tmp_path / "verify_powers.csv").read_text().strip().split("\n")
    assert lines[1] == "alpha,max_rel_error,tol,passed"
    alpha, err, tol, passed = lines[2].split(",")
    assert float(alpha) == 1.0  # midpoint of (0, n-2s)
    assert float(err) <= float(tol)
    assert passed == "True"


def test_verify_powers_tolerance_failure(tmp_path, capsys):
    # 64 panels cannot hit 1e-2 for (n, s, alpha) = (10, 0.9, 2); honest exit 1.
    rc = run(tmp_path, "verify-powers", "--n", "10", "--s", "0.9",
             "--alpha", "2.0", "--grid", "64")
    assert rc == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "exceeds" in captured.err
    assert ",False" in (tmp_path / "verify_powers.csv").read_text()


def test_verify_powers_alpha_domain(tmp_path, capsys):
    assert run(tmp_path, "verify-powers", "--n", "3", "--s", "0.5", "--alpha", "2.5") == 2
    assert "alpha must lie in" in capsys.readouterr().err


def test_verify_powers_refuses_overflowing_power(tmp_path, capsys):
    # At n = 200 the midpoint alpha = 99.5 puts r_1^-alpha beyond a double on
    # 64 panels: refused before metadata or assembly, without a warning.
    argv = ("verify-powers", "--n", "200", "--s", "0.5", "--grid", "64")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(tmp_path, *argv) == 2
    assert caught == []
    assert not (tmp_path / "run_metadata.json").exists()
    err = capsys.readouterr().err
    limit = float(err.split("largest admissible alpha on this grid is ")[1].split()[0])
    assert 80.0 < limit < 99.5
    # Just inside the limit the run completes: no overflow, an honest FAIL
    # (64 panels are far too coarse at n = 200).
    inside = tmp_path / "inside"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(inside, *argv, "--alpha", repr(limit * (1.0 - 1e-9))) == 1
    assert caught == []
    assert "FAIL" in capsys.readouterr().out
    assert (inside / "run_metadata.json").exists()
    assert run(tmp_path, *argv, "--alpha", repr(limit * (1.0 + 1e-9))) == 2


def test_verify_powers_assembles_once_for_all_alphas(tmp_path, monkeypatch):
    calls = []

    def counting(p, grid):
        calls.append(p)
        return assemble(p, grid)

    monkeypatch.setattr(cli, "assemble", counting)
    argv = ("verify-powers", "--n", "3", "--s", "0.5", "--grid", "64")
    alphas = ("0.5", "0.75", "1.0")
    assert run(tmp_path, *argv, *[x for a in alphas for x in ("--alpha", a)]) == 0
    assert len(calls) == 1
    rows = (tmp_path / "verify_powers.csv").read_text().split("\n")[2:5]
    for alpha, row in zip(alphas, rows):
        assert run(tmp_path / alpha, *argv, "--alpha", alpha) == 0
        assert (tmp_path / alpha / "verify_powers.csv").read_text().split("\n")[2] == row
    assert len(calls) == 4


def test_verify_powers_eps_table(tmp_path, capsys):
    assert run(tmp_path, "verify-powers", "--n", "3", "--s", "0.5", "--eps-table") == 0
    out = capsys.readouterr().out
    assert "order 2.00" in out  # midpoint error is quadratic in eps
    assert "order 1.00" in out  # endpoint error is linear in eps
    lines = (tmp_path / "eps_table.csv").read_text().strip().split("\n")
    assert lines[1] == "eps,abs_err_midpoint,abs_err_endpoint"
    assert len(lines) == 5


def test_branch_artifacts(tmp_path, capsys):
    rc = run(tmp_path, "branch", "--n", "1", "--s", "0.5", "--grid", "96",
             "--peak-max", "2.0")
    assert rc == 0
    out = capsys.readouterr().out
    assert "fold detected: True" in out
    assert "lambda* estimate" in out

    csv_lines = (tmp_path / "branch.csv").read_text().strip().split("\n")
    assert csv_lines[0].startswith("# config: ")
    assert csv_lines[1] == "peak,lambda,stability_eig,residual_norm,newton_iters"
    assert len(csv_lines) == 2 + 8  # peaks 0.25 .. 2.0

    data = json.loads((tmp_path / "branch.json").read_text())
    assert data["fold_detected"] is True
    assert data["n"] == 1 and data["s"] == 0.5
    assert data["config"]["subcommand"] == "branch"

    dat_lines = (tmp_path / "bifurcation.dat").read_text().strip().split("\n")
    assert len(dat_lines) == 1 + 8
    lam, peak = dat_lines[1].split()
    assert 0.0 < float(lam) < 1.0 and float(peak) == 0.25
    assert "bifurcation.dat" in (tmp_path / "bifurcation.gp").read_text()


def test_branch_verify(tmp_path, capsys):
    rc = run(tmp_path, "branch", "--n", "1", "--s", "0.5", "--grid", "96",
             "--peak-max", "1.5", "--verify")
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    data = json.loads((tmp_path / "branch.json").read_text())
    assert data["verify_passed"] is True


def test_branch_verify_checks_every_point_in_one_call(tmp_path, capsys, monkeypatch):
    # branch --verify hands all pre-fold points and its three eps to the
    # batched inequality at once; stability keeps the one-point check.
    calls = []
    sides = cli._inequality_sides
    monkeypatch.setattr(cli, "_inequality_sides",
                        lambda op, points, rho0, eps: calls.append((len(points), eps))
                        or sides(op, points, rho0, eps))
    monkeypatch.setattr(cli, "stability_inequality_check", None)
    assert run(tmp_path, "branch", "--n", "1", "--s", "0.5", "--grid", "64",
               "--peak-max", "3", "--verify") == 0
    data = json.loads((tmp_path / "branch.json").read_text())
    pre_fold = [line for line in capsys.readouterr().out.split("\n") if "PASS" in line]
    assert calls == [(len(pre_fold), cli._VERIFY_EPS)]
    assert 0 < len(pre_fold) < len(data["points"]) and data["verify_passed"] is True


def test_branch_past_the_fold_verifies_nothing(tmp_path, capsys):
    # Three points on the unstable side, lam decreasing from the first: no
    # fold is bracketed, no point lies below one, and nothing checked passes
    # nothing.
    rc = run(tmp_path, "branch", "--n", "1", "--s", "0.5", "--grid", "64",
             "--peak-min", "2.9", "--peak-max", "3.5", "--verify")
    assert rc == 1
    out = capsys.readouterr().out
    assert "fold detected: False" in out and "PASS" not in out
    assert "lambda* estimate" not in out
    assert "no fold bracketed; largest lambda traced: 0.244592" in out
    data = json.loads((tmp_path / "branch.json").read_text())
    assert len(data["points"]) == 3 and all(p["stability_eig"] < 0.0 for p in data["points"])
    assert data["fold_detected"] is False and data["verify_passed"] is False


# (3, 0.5) on graded(64) from m = 3: every point lies past the fold, with
# mu from -3.3 down to -183, while lam falls to m = 3.5 and turns again at
# m = 5.5.
_PAST_THE_FOLD_3D = ("--n", "3", "--s", "0.5", "--grid", "64",
                     "--peak-min", "3", "--peak-max", "7", "--peak-step", "0.5")


def test_branch_past_a_later_turn_verifies_nothing(tmp_path, capsys):
    # The later turn of lam is not the fold: the fold is bounded by the
    # first unstable point, here the first point, so none is checked.
    rc = run(tmp_path, "branch", *_PAST_THE_FOLD_3D, "--verify")
    assert rc == 1
    out = capsys.readouterr().out
    assert "fold detected: False" in out and "PASS" not in out
    assert "lambda* estimate" not in out
    assert "no fold bracketed; largest lambda traced: 0.88075" in out
    assert "no branch point below the fold to verify" in out
    data = json.loads((tmp_path / "branch.json").read_text())
    assert all(p["stability_eig"] < 0.0 for p in data["points"])
    assert data["fold_detected"] is False and data["verify_passed"] is False


def test_diagnose_past_a_later_turn_detects_no_fold(tmp_path):
    assert run(tmp_path, "diagnose", *_PAST_THE_FOLD_3D) == 0
    data = json.loads((tmp_path / "diagnose.json").read_text())
    assert data["fold_detected"] is False


def test_branch_diagnose_sigma_is_usage_error(tmp_path):
    # The profile diagnostic is `diagnose`'s alone.
    with pytest.raises(SystemExit) as excinfo:
        run(tmp_path, "branch", "--n", "1", "--s", "0.5", "--diagnose-sigma", "0.5")
    assert excinfo.value.code == 2


def test_branch_partial_failure(tmp_path, capsys):
    rc = run(tmp_path, "branch", "--n", "12", "--s", "0.5", "--grid", "64",
             "--peak-min", "1.0", "--peak-max", "16.0", "--peak-step", "1.0")
    assert rc == 1
    err = capsys.readouterr().err
    assert "solver failure" in err and "partial branch" in err
    csv_lines = (tmp_path / "branch.csv").read_text().strip().split("\n")
    assert len(csv_lines) >= 2 + 3  # partial points still saved
    data = json.loads((tmp_path / "branch.json").read_text())
    assert len(data["points"]) == len(csv_lines) - 2


def test_stability_stable_point(tmp_path, capsys):
    rc = run(tmp_path, "stability", "--n", "1", "--s", "0.5", "--grid", "96",
             "--peak", "0.5")
    assert rc == 0
    out = capsys.readouterr().out
    assert "(stable)" in out and "PASS" in out
    data = json.loads((tmp_path / "stability.json").read_text())
    assert data["stable"] is True
    assert data["inequality"]["passed"] is True
    assert data["inequality"]["lhs"] <= data["inequality"]["rhs"]


def test_stability_unstable_point(tmp_path, capsys):
    rc = run(tmp_path, "stability", "--n", "1", "--s", "0.5", "--grid", "96",
             "--peak", "2.0")
    assert rc == 0
    assert "(unstable)" in capsys.readouterr().out
    data = json.loads((tmp_path / "stability.json").read_text())
    assert data["stable"] is False
    assert "inequality" not in data


@pytest.mark.parametrize("peak", ["nan", "0", "-1", "inf"])
def test_stability_peak_domain(tmp_path, capsys, peak):
    rc = run(tmp_path, "stability", "--n", "1", "--s", "0.5", "--grid", "32", "--peak", peak)
    assert rc == 2
    assert "--peak" in capsys.readouterr().err
    assert not (tmp_path / "run_metadata.json").exists()


@pytest.mark.parametrize("argv", [
    ("--peak", "0.5", "--eps", "nan"),
    ("--peak", "0.5", "--eps", "inf"),
    ("--peak", "0.5", "--rho0", "nan"),
    ("--peak", "2.0", "--rho0", "2"),     # unstable point: no inequality is run
    ("--peak", "2.0", "--eps", "0"),
])
def test_stability_test_function_domain(tmp_path, capsys, argv):
    # Refused before the solve, whether or not the point turns out stable.
    rc = run(tmp_path, "stability", "--n", "1", "--s", "0.5", "--grid", "32", *argv)
    assert rc == 2
    out, err = capsys.readouterr()
    assert "m =" not in out
    assert argv[2] in err
    assert not (tmp_path / "run_metadata.json").exists()


@pytest.mark.parametrize("grading, reason", [("inf", "finite"), ("1100", "increase strictly")])
def test_extreme_grading_usage_error(tmp_path, grading, reason):
    # A fresh process shows warnings as the CLI prints them; with RuntimeWarning
    # an error, a 0/0 in the grid map would exit 1 with a traceback.
    proc = subprocess.run(
        [sys.executable, "-m", "fracgelfand", "--outdir", str(tmp_path), "stability", "--n", "1",
         "--s", "0.5", "--grid", "32", "--peak", "0.5", "--grading", grading],
        env=dict(_src_env(), PYTHONWARNINGS="error::RuntimeWarning"),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert reason in proc.stderr
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    assert not (tmp_path / "run_metadata.json").exists()


def test_branch_verify_rho0_domain(tmp_path, capsys):
    rc = run(tmp_path, "branch", "--n", "1", "--s", "0.5", "--grid", "32", "--peak-max", "0.5",
             "--verify", "--rho0", "2")
    assert rc == 2
    out, err = capsys.readouterr()
    assert "branch points" not in out
    assert "--rho0" in err
    assert not (tmp_path / "run_metadata.json").exists()


def test_stability_numerical_failure(tmp_path, capsys):
    # Cold starts far beyond the fold do not converge; exit 1, no artifact lie.
    rc = run(tmp_path, "stability", "--n", "1", "--s", "0.5", "--grid", "96",
             "--peak", "3.0")
    assert rc == 1
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "stability.json").exists()
    # One solve is not a trace: the peak-range budget does not apply.
    rc = run(tmp_path, "stability", "--n", "12", "--s", "0.5", "--grid", "32",
             "--peak", "2600")
    assert rc == 1
    err = capsys.readouterr().err
    assert "numerical failure" in err and "budget" not in err


def test_diagnose_singular_residual(tmp_path, capsys):
    rc = run(tmp_path, "diagnose", "--n", "3", "--s", "0.5", "--grid", "96",
             "--singular-residual")
    assert rc == 0
    assert "relative residual" in capsys.readouterr().out
    data = json.loads((tmp_path / "diagnose.json").read_text())
    assert 0.0 < data["relative_residual"] < 1e-2


def test_diagnose_profile_trend(tmp_path, capsys):
    rc = run(tmp_path, "diagnose", "--n", "12", "--s", "0.5", "--grid", "64",
             "--peak-min", "1.0", "--peak-max", "5.0", "--peak-step", "1.0")
    assert rc == 0
    out = capsys.readouterr().out
    assert "increasing trend: True" in out
    data = json.loads((tmp_path / "diagnose.json").read_text())
    assert data["increasing_trend"] is True
    assert len(data["probe_ratios"]) == 3
    assert data["fold_detected"] is False


def test_diagnose_partial_branch(tmp_path, capsys):
    # (12, 0.5) on 64 panels stops partway; the diagnostic comes from the
    # points solved before the failure, and the exit code still reports it.
    argv = ("--n", "12", "--s", "0.5", "--grid", "64",
            "--peak-min", "1.0", "--peak-max", "16.0", "--peak-step", "1.0")
    assert run(tmp_path, "diagnose", *argv) == 1
    captured = capsys.readouterr()
    assert "solver failure" in captured.err and "partial branch" in captured.err
    args = cli.build_parser().parse_args(["branch", *argv])
    with pytest.raises(BranchTraceError) as excinfo:
        trace_branch(cli._branch_config(args))
    partial = excinfo.value.partial
    assert len(partial.points) >= 3
    assert f"{len(partial.points)} points to peak" in captured.out
    report = singular_profile_diagnostic(partial, 0.5)
    data = json.loads((tmp_path / "diagnose.json").read_text())
    assert data["probe_ratios"] == [float(x) for x in report.probe_ratios]
    assert len(data["probe_ratios"]) == 3
    assert data["threshold_radius"] == report.threshold_radius


@pytest.mark.parametrize("subcommand", ["branch", "diagnose"])
def test_nonpositive_profile_is_refused(tmp_path, capsys, subcommand):
    # m = 20 on (12, 0.5), N = 64 lies past the grid's depth 2s log(1/r_1):
    # a solve there could only return a grid-scale spike, with lam e^u > 0
    # but u < 0 inside (against the maximum principle), so the center value
    # is refused before Newton runs: exit 1.
    rc = run(tmp_path, subcommand, "--n", "12", "--s", "0.5", "--grid", "64",
             "--peak-min", "20", "--peak-max", "21", "--peak-step", "1")
    assert rc == 1
    err = capsys.readouterr().err
    assert "deeper than the grid resolves: 2s log(1/r_1) = 8.28652" in err
    assert "partial branch with 0 points" in err


def test_diagnose_without_points_writes_no_diagnostic(tmp_path, capsys):
    # m = 9 is past the grid's depth 8.29, so the first point already fails:
    # nothing to diagnose.
    rc = run(tmp_path, "diagnose", "--n", "12", "--s", "0.5", "--grid", "64",
             "--peak-min", "9.0", "--peak-max", "10.0", "--peak-step", "1.0")
    assert rc == 1
    assert "partial branch with 0 points" in capsys.readouterr().err
    assert (tmp_path / "run_metadata.json").exists()
    assert not (tmp_path / "diagnose.json").exists()


@pytest.mark.parametrize("argv, derived", [
    (("constants", "--n", "3", "--s", "0.5"), {}),
    (("threshold", "--n-max", "4"), {"tol": ROOT_TOL}),
    (("verify-powers", "--n", "3", "--s", "0.5", "--grid", "64"), {"alphas": [1.0], "tol": 1e-2}),
    (("verify-powers", "--n", "3", "--s", "0.5", "--eps-table"),
     {"eps_values": [1e-2, 1e-3, 1e-4]}),
    (("branch", "--n", "1", "--s", "0.5", "--grid", "32", "--peak-max", "0.5"), {}),
    (("stability", "--n", "1", "--s", "0.5", "--grid", "32", "--peak", "0.5"), {}),
    (("diagnose", "--n", "3", "--s", "0.5", "--grid", "32", "--singular-residual"), {}),
    (("diagnose", "--n", "12", "--s", "0.5", "--grid", "64",
      "--peak-min", "1.0", "--peak-max", "3.0", "--peak-step", "1.0"), {}),
], ids=["constants", "threshold", "verify-powers", "eps-table", "branch", "stability",
        "singular-residual", "profile-trend"])
def test_config_is_the_parsed_arguments(tmp_path, argv, derived):
    # run_metadata.json records every parsed argument but the output
    # directory, plus what the subcommand derives from them.
    assert run(tmp_path, *argv) == 0
    parsed = vars(cli.build_parser().parse_args(list(argv)))
    del parsed["outdir"], parsed["handler"]
    meta = json.loads((tmp_path / "run_metadata.json").read_text())
    assert meta["config"] == {**parsed, **derived}


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACGELFAND_OUTDIR", str(tmp_path / "nested" / "artifacts"))
    assert main(["constants", "--n", "2", "--s", "0.5"]) == 0
    assert (tmp_path / "nested" / "artifacts" / "constants.csv").exists()


def test_reruns_are_byte_identical(tmp_path):
    args = ["branch", "--n", "1", "--s", "0.5", "--grid", "48", "--peak-max", "1.5"]
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        assert main(["--outdir", str(d), *args]) == 0
    for name in ("branch.csv", "branch.json", "bifurcation.dat", "bifurcation.gp",
                 "run_metadata.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip()


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


# Runs every subcommand in a fresh interpreter in which importing scipy fails,
# then prints each exit code and every scipy module that got loaded anyway.
_NO_SCIPY_SCRIPT = """
import json, sys
sys.modules["scipy"] = None
from fracgelfand.cli import main
runs = {
    "constants": ["constants", "--n", "3", "--s", "0.5"],
    "threshold": ["threshold", "--n-max", "10"],
    "verify-powers": ["verify-powers", "--n", "1", "--s", "0.3", "--grid", "64"],
    "branch": ["branch", "--n", "1", "--s", "0.5", "--grid", "64", "--peak-max", "3", "--verify"],
    "stability": ["stability", "--n", "1", "--s", "0.5", "--grid", "64", "--peak", "0.5"],
    "diagnose": ["diagnose", "--n", "3", "--s", "0.5", "--grid", "64", "--singular-residual"],
}
codes = {name: main(["--outdir", sys.argv[1], *argv]) for name, argv in runs.items()}
loaded = sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None)
print(json.dumps({"codes": codes, "scipy_modules": loaded}))
"""


def test_runtime_needs_no_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path)], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["codes"] == {"constants": 0, "threshold": 0, "verify-powers": 0, "branch": 0,
                               "stability": 0, "diagnose": 0}
    assert report["scipy_modules"] == []
    meta = json.loads((tmp_path / "run_metadata.json").read_text())
    assert "scipy" not in meta["versions"]


# Runs the two benchmark subcommands in a fresh interpreter and prints every
# numpy.polynomial module that got loaded: the runtime takes its Gauss and
# Chebyshev rules from fraclap, and that package costs each process ~3 ms and
# ~0.8 MB to import.
_NO_POLYNOMIAL_SCRIPT = """
import json, sys
from fracgelfand.cli import main
codes = [main(["--outdir", sys.argv[1], *argv]) for argv in (
    ["verify-powers", "--n", "1", "--s", "0.3", "--grid", "64"],
    ["branch", "--n", "1", "--s", "0.5", "--grid", "64", "--peak-max", "1", "--verify"],
)]
loaded = sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "polynomial"])
print(json.dumps({"codes": codes, "polynomial_modules": loaded}))
"""


def test_runtime_never_imports_numpy_polynomial(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _NO_POLYNOMIAL_SCRIPT, str(tmp_path)],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report == {"codes": [0, 0], "polynomial_modules": []}


def _src_env() -> dict:
    src = str(Path(fracgelfand.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _worker_trace(*argv: str) -> dict:
    worker = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    proc = subprocess.run([sys.executable, str(worker), "trace", *argv], env=_src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])["summary"]


def test_benchmark_worker_replays_the_public_api():
    # The benchmark's traced mode replays each workload through ContinuationConfig,
    # cfg.operator(), solve_at_peak(..., op=) and stability_eigenvalue; the
    # branch replay must reproduce the library's own trace_branch.
    summary = _worker_trace("branch", "--n", "1", "--s", "0.5", "--grid", "32",
                            "--peak-max", "0.5", "--verify")
    reference = summary["reference"]
    assert len(summary["points"]) == 2
    assert summary["points"] == reference["points"]
    assert summary["lambda_star_estimate"] == reference["lambda_star_estimate"]
    summary = _worker_trace("verify-powers", "--n", "1", "--s", "0.3", "--grid", "64")
    assert summary["power_rel_err"] <= 1e-2
