"""End-to-end command-line behavior, exit codes, and file outputs."""

import csv
import dataclasses
import json
import os
import subprocess
import sys

import pytest

from dvs import cli
from dvs.serialize import emit_report
from dvs.solver import solve

CLI = [sys.executable, "-m", "dvs.cli"]


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(CLI + list(args), capture_output=True,
                          text=True, env=full_env)


def test_solve_writes_report_and_exits_zero(example1_path, tmp_path):
    out = tmp_path / "report.json"
    cp = run_cli("solve", str(example1_path), "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    assert "status=CertifiedGlobal" in cp.stdout
    assert "objective=" in cp.stdout and "gap=" in cp.stdout
    doc = json.loads(out.read_bytes())
    assert doc["x"] == [5.0, 2.0, 5.0, 2.0, 2.0]
    assert "trace" not in doc


def test_solve_trace_flag_embeds_trace(example1_path, tmp_path):
    out = tmp_path / "report.json"
    cp = run_cli("solve", str(example1_path), "--trace", "--out", str(out))
    assert cp.returncode == 0
    doc = json.loads(out.read_bytes())
    assert len(doc["trace"]) == doc["iterations"] + 1


def test_solve_exit_three_without_certificate(tmp_path):
    prob = tmp_path / "p.json"
    out = tmp_path / "r.json"
    cp = run_cli("gen", "--n", "3", "--m", "2", "--seed", "1",
                 "--values", "-2,1", "--out", str(prob))
    assert cp.returncode == 0
    cp = run_cli("solve", str(prob), "--fallback-oracle", "0",
                 "--out", str(out))
    assert cp.returncode == 3
    assert "status=NoCertificate" in cp.stdout
    # with the fallback enabled the answer is exact but still uncertified
    cp = run_cli("solve", str(prob), "--out", str(out))
    assert cp.returncode == 3
    assert "status=OracleFallback" in cp.stdout


def test_solve_missing_file_exits_two(tmp_path):
    cp = run_cli("solve", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "r.json"))
    assert cp.returncode == 2
    assert "error:" in cp.stderr


def test_solve_invalid_problem_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1}')
    cp = run_cli("solve", str(bad), "--out", str(tmp_path / "r.json"))
    assert cp.returncode == 2


@pytest.mark.parametrize("flag,value", [("--tol-gap", "0"),
                                        ("--tol-gap", "inf"),
                                        ("--tol-gap", "nan"),
                                        ("--tol-gap", "1e-3")])
def test_solve_non_finite_tolerance_exits_two(example1_path, tmp_path,
                                              flag, value):
    # The gap tolerance is the fixed TOL_GAP; there is no flag for it, so
    # any value, finite or not, is an unknown argument.
    out = tmp_path / "r.json"
    cp = run_cli("solve", str(example1_path), flag, value, "--out", str(out))
    assert cp.returncode == 2
    assert "unrecognized arguments: --tol-gap" in cp.stderr
    assert "Traceback" not in cp.stderr
    assert not out.exists()


def test_check_passes_a_report_with_a_nan_dual_value(tmp_path):
    # c = 1e300 overflows the dual value to NaN.  The report must still be
    # one check reads: the NaN dual counts as off the cone, so the gap is
    # "Infinity".  Child processes keep the kernel's overflow warnings out
    # of the test run.
    prob = tmp_path / "p.json"
    out = tmp_path / "r.json"
    prob.write_text(json.dumps({
        "n": 2, "m": 1, "Q": [[1.0, 0.0], [0.0, 1.0]], "c": [1e300, 0.0],
        "A": [[1.0, 1.0]], "b": [5.0], "U": [[0.0, 1.0, 2.0]] * 2}))
    cp = run_cli("solve", str(prob), "--fallback-oracle", "0",
                 "--out", str(out))
    assert cp.returncode == 3, cp.stderr
    doc = json.loads(out.read_bytes())
    assert doc["status"] == "NoCertificate"
    assert doc["certificate"]["gap"] == "Infinity"
    assert doc["certificate"]["in_cone"] is False
    cp = run_cli("check", str(prob), str(out))
    assert cp.returncode == 0, cp.stdout + cp.stderr
    assert cp.stdout.strip() == "PASS"


def test_oracle_reports_objective(example1_path, tmp_path):
    out = tmp_path / "oracle.json"
    cp = run_cli("oracle", str(example1_path), "--out", str(out))
    assert cp.returncode == 0
    assert "feasible=196/243" in cp.stdout
    doc = json.loads(out.read_bytes())
    assert doc["status"] == "OracleExact"
    assert doc["x"] == [5.0, 2.0, 5.0, 2.0, 2.0]


def test_oracle_limit_exits_two(example1_path, tmp_path):
    cp = run_cli("oracle", str(example1_path), "--limit", "10",
                 "--out", str(tmp_path / "o.json"))
    assert cp.returncode == 2


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("gen", "--n", "4", "--m", "2", "--seed", "9",
                   "--out", str(a)).returncode == 0
    assert run_cli("gen", "--n", "4", "--m", "2", "--seed", "9",
                   "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_bytes())
    assert doc["n"] == 4 and doc["m"] == 2
    assert doc["U"][0] == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_gen_output_solves(tmp_path):
    prob = tmp_path / "p.json"
    run_cli("gen", "--n", "3", "--m", "1", "--seed", "2", "--out", str(prob))
    cp = run_cli("solve", str(prob), "--out", str(tmp_path / "r.json"))
    assert cp.returncode in (0, 3)


def test_lift_writes_lifted_problem(example1_path, tmp_path):
    out = tmp_path / "lifted.json"
    cp = run_cli("lift", str(example1_path), "--out", str(out))
    assert cp.returncode == 0
    doc = json.loads(out.read_bytes())
    assert doc["K"] == 15
    assert doc["B"][0][0] == pytest.approx(13.72)


def test_toy_solution_output():
    cp = run_cli("toy", "--alpha", "1", "--lambda", "2", "--f", "0.5")
    assert cp.returncode == 0
    doc = json.loads(cp.stdout)
    assert doc["sigma1"] == pytest.approx(0.236417, abs=1e-4)
    assert doc["x"][0] == pytest.approx(2.11491, abs=1e-4)
    assert doc["primal_value"] == pytest.approx(-1.02951, abs=1e-4)


def test_toy_accepts_negative_vector_f():
    cp = run_cli("toy", "--alpha", "1", "--lambda", "2", "--f", "-0.3,0.4")
    assert cp.returncode == 0
    doc = json.loads(cp.stdout)
    assert doc["primal_value"] == pytest.approx(-1.02951, abs=1e-4)


def test_toy_curves_csv(tmp_path):
    out = tmp_path / "curves.csv"
    cp = run_cli("toy", "--alpha", "1", "--lambda", "2", "--f", "0.5",
                 "--curves", str(out), "--range", "-5:5", "--steps", "11")
    assert cp.returncode == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["kind", "abscissa", "value"]
    kinds = [r[0] for r in rows[1:]]
    assert kinds.count("primal") == 11
    assert kinds.count("dual") == 10
    abscissas = [float(r[1]) for r in rows[1:] if r[0] == "primal"]
    assert abscissas[0] == -5.0 and abscissas[-1] == 5.0


def test_toy_zero_f_exits_two():
    cp = run_cli("toy", "--alpha", "1", "--lambda", "2", "--f", "0")
    assert cp.returncode == 2


@pytest.mark.parametrize("alpha,lam,f", [
    ("1e300", "1", "1"),      # the largest root fails the residual check
    ("1e-300", "1", "1"),     # x = 1.26e100: the primal value overflows
    ("nan", "1", "1"), ("inf", "1", "1"), ("1", "nan", "1"),
    ("1", "inf", "1"), ("1", "1", "nan"), ("1", "1", "0.5,inf")])
def test_toy_extreme_or_non_finite_input_exits_two(alpha, lam, f, capsys):
    assert cli.main(["toy", "--alpha", alpha, "--lambda", lam,
                     "--f", f]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")


def test_toy_negative_steps_exits_two_before_printing(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    assert cli.main(["toy", "--alpha", "1", "--lambda", "2", "--f", "0.5",
                     "--curves", str(out), "--steps", "-3"]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert "--steps must be >= 0" in err
    assert not out.exists()


@pytest.mark.parametrize("span", ["nan:5", "-5:nan", "-inf:5", "-5:inf"])
def test_toy_non_finite_range_exits_two_before_printing(span, tmp_path,
                                                        capsys):
    out = tmp_path / "curves.csv"
    assert cli.main(["toy", "--alpha", "1", "--lambda", "1", "--f", "1",
                     "--curves", str(out), "--range", span,
                     "--steps", "3"]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert "--range bounds must be finite" in err
    assert not out.exists()


def test_check_round_trip(example1_path, tmp_path):
    report = tmp_path / "report.json"
    run_cli("solve", str(example1_path), "--out", str(report))
    cp = run_cli("check", str(example1_path), str(report))
    assert cp.returncode == 0
    assert cp.stdout.strip() == "PASS"


def test_check_fails_on_tampered_report(example1_path, tmp_path):
    report = tmp_path / "report.json"
    run_cli("solve", str(example1_path), "--out", str(report))
    doc = json.loads(report.read_bytes())
    doc["objective"] -= 1.0
    report.write_text(json.dumps(doc))
    cp = run_cli("check", str(example1_path), str(report))
    assert cp.returncode == 4
    assert cp.stdout.startswith("FAIL")
    assert "objective" in cp.stdout


def test_check_nan_gap_exits_two(example1_path, tmp_path):
    report = tmp_path / "report.json"
    run_cli("solve", str(example1_path), "--out", str(report))
    doc = json.loads(report.read_bytes())
    doc["certificate"]["gap"] = float("nan")
    report.write_text(json.dumps(doc))
    cp = run_cli("check", str(example1_path), str(report))
    assert cp.returncode == 2
    assert "PASS" not in cp.stdout


def test_check_fails_off_the_cone(example1_path, tmp_path):
    report = tmp_path / "report.json"
    run_cli("solve", str(example1_path), "--out", str(report))
    doc = json.loads(report.read_bytes())
    # lowering mu[0] far enough leaves G(mu) indefinite
    doc["dual_point"]["mu"][0] = -1e3
    report.write_text(json.dumps(doc))
    cp = run_cli("check", str(example1_path), str(report))
    assert cp.returncode == 4
    assert "certificate status" in cp.stdout


def test_check_accepts_every_pipeline_report(example1_path, example2_path,
                                             tmp_path):
    for i, path in enumerate((example1_path, example2_path)):
        report = tmp_path / f"report{i}.json"
        assert run_cli("solve", str(path), "--out", str(report)).returncode == 0
        assert run_cli("check", str(path), str(report)).returncode == 0


def test_infeasible_problem_exits_two(tmp_path):
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({
        "n": 1, "m": 1, "Q": [[1.0]], "c": [0.0],
        "A": [[1.0]], "b": [-10.0], "U": [[0.0, 1.0]]}))
    cp = run_cli("oracle", str(prob), "--out", str(tmp_path / "o.json"))
    assert cp.returncode == 2


def test_log_env_controls_diagnostics(example1_path, tmp_path):
    quiet = run_cli("solve", str(example1_path),
                    "--out", str(tmp_path / "a.json"), env={"DVS_LOG": "quiet"})
    info = run_cli("solve", str(example1_path),
                   "--out", str(tmp_path / "b.json"), env={"DVS_LOG": "info"})
    assert quiet.stderr == ""
    assert "dual ascent" in info.stderr


def test_solve_reports_are_byte_identical(example1_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("solve", str(example1_path), "--out", str(a))
    run_cli("solve", str(example1_path), "--out", str(b))
    da, db = json.loads(a.read_bytes()), json.loads(b.read_bytes())
    da.pop("seconds"), db.pop("seconds")
    assert da == db


@pytest.mark.parametrize("key, value", [
    ("dual_point", {}), ("dual_point", []), ("dual_point", "drop tau"),
    ("certificate", {}), ("certificate", []),
    ("certificate", "drop"), ("dual_point", "drop"), ("y", "drop")])
def test_check_malformed_certificate_objects_exit_two(example1_path, tmp_path,
                                                      key, value):
    report = tmp_path / "report.json"
    run_cli("solve", str(example1_path), "--out", str(report))
    doc = json.loads(report.read_bytes())
    if value == "drop tau":
        del doc[key]["tau"]
    elif value == "drop":
        del doc[key]
    else:
        doc[key] = value
    report.write_text(json.dumps(doc))
    cp = run_cli("check", str(example1_path), str(report))
    assert cp.returncode == 2, cp.stderr
    assert "Traceback" not in cp.stderr
    assert f"$.{key}" in cp.stderr


def test_solve_reports_match_across_blas_threads(tmp_path):
    prob = tmp_path / "p.json"
    assert run_cli("gen", "--n", "50", "--m", "5", "--seed", "4292",
                   "--out", str(prob)).returncode == 0
    docs = []
    for threads in ("1", "2"):
        out = tmp_path / f"r{threads}.json"
        cp = run_cli("solve", str(prob), "--out", str(out),
                     env={"OPENBLAS_NUM_THREADS": threads})
        assert cp.returncode == 0, cp.stderr
        doc = json.loads(out.read_bytes())
        doc.pop("seconds")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_in_process_calls_share_the_parser_but_no_state(example1, example1_path,
                                                        tmp_path, capsys):
    # main() reuses one parser; a flag given to one call must not carry
    # over to the next, and a bad flag still exits 2.
    assert cli._build_parser() is cli._build_parser()
    short, full = tmp_path / "short.json", tmp_path / "full.json"
    assert cli.main(["solve", str(example1_path), "--max-iter", "1",
                     "--out", str(short)]) == 3
    assert json.loads(short.read_bytes())["iterations"] == 1
    assert cli.main(["solve", str(example1_path), "--out", str(full)]) == 0
    doc = json.loads(full.read_bytes())
    doc["seconds"] = 0.0
    fresh = emit_report(dataclasses.replace(solve(example1), seconds=0.0))
    assert doc == json.loads(fresh)
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", str(example1_path), "--max-iters", "1",
                  "--out", str(full)])
    assert exc.value.code == 2
    assert cli.main(["check", str(example1_path), str(full)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"
