"""End-to-end command-line behavior, exit codes, and file outputs."""

import contextlib
import csv
import dataclasses
import io
import json
import logging
import os
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from dvs import cli
from dvs.model import DiscreteQP
from dvs.serialize import emit_problem, emit_report
from dvs.solver import solve

# Started only by the tests whose subject is a new interpreter; every
# other test runs cli.main in the test process through run_cli.
CLI = [sys.executable, "-m", "dvs.cli"]


def run_cli(*args, env=None):
    """`dvs *args` run in this process, with ``env`` added to os.environ
    for the call: its exit code (argparse's SystemExit included) and what
    it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env or {}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(),
                                       err.getvalue())


def run_process(*args, env=None):
    """`python -m dvs.cli *args` in a new interpreter, with ``env`` added
    to its environment."""
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env={**os.environ, **(env or {})})


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


# c = 1e300 overflows the dual value at the ascent's initial point.
OVERFLOWING_PROBLEM = {
    "n": 2, "m": 1, "Q": [[1.0, 0.0], [0.0, 1.0]], "c": [1e300, 0.0],
    "A": [[1.0, 1.0]], "b": [5.0], "U": [[0.0, 1.0, 2.0]] * 2}
# Data whose initial point itself overflows: ||B||_inf = 1e320 and the
# scaled matrix S Q S has an entry 1e320.
OVERFLOWING_START = {
    "n": 2, "m": 1, "Q": [[1e300, 0.0], [0.0, 1.0]], "c": [0.0, 0.0],
    "A": [[1.0, 1.0]], "b": [5e10], "U": [[0.0, 1e10], [0.0, 1.0]]}


def test_declared_size_beyond_the_file_exits_two(tmp_path, capsys):
    # A 4 MB file that declares n = 10**6 with one-entry Q rows: the
    # parser meets row 0's length before it allocates the n-by-n matrix
    # (7.28 TiB), so both commands give a dimension error.
    n = 10 ** 6
    prob, out = tmp_path / "p.json", tmp_path / "r.json"
    prob.write_text(f'{{"n": {n}, "m": 0, "Q": [{", ".join(["[0]"] * n)}], '
                    '"c": [], "A": [], "b": [], "U": []}')
    assert prob.stat().st_size > 4_000_000
    message = f"error: Q: expected shape ({n}, {n}), got row 0 has 1 entries\n"
    assert cli.main(["solve", str(prob), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", message)
    assert not out.exists()
    out.write_text("{}")
    assert cli.main(["check", str(prob), str(out)]) == 2
    assert capsys.readouterr() == ("", message)


def test_solve_overflowing_data_exits_two(tmp_path, capsys):
    # An input error before the ascent starts, with no overflow warning
    # (tier-1 turns a RuntimeWarning into an error) and no report.
    prob, out = tmp_path / "p.json", tmp_path / "r.json"
    for problem in (OVERFLOWING_PROBLEM, OVERFLOWING_START):
        prob.write_text(json.dumps(problem))
        for fallback in ("24", "0"):
            assert cli.main(["solve", str(prob), "--fallback-oracle",
                             fallback, "--out", str(out)]) == 2
            stdout, err = capsys.readouterr()
            assert stdout == ""
            assert err == ("error: the dual value at the initial point is "
                           "not finite: the problem data overflow doubles\n")
            assert not out.exists()


def test_check_passes_a_report_with_a_nan_dual_value(tmp_path, capsys):
    # solve no longer writes a report for these data, but check must still
    # read the one earlier versions wrote at --fallback-oracle 0: the NaN
    # dual value counts as off the cone, so the gap is "Infinity".  The
    # check runs in-process, so an overflow warning from the kernel fails
    # the test (tier-1 turns a RuntimeWarning into an error).
    prob = tmp_path / "p.json"
    out = tmp_path / "r.json"
    prob.write_text(json.dumps(OVERFLOWING_PROBLEM))
    out.write_text(json.dumps({
        "version": "0.1.0", "status": "NoCertificate", "x": [2, 0],
        "objective": -2e300,
        "certificate": {"status": "NoCertificate", "primal_feas_residual": 0,
                        "dual_feas_residual": -0.0,
                        "complementarity_residual": 0, "gap": "Infinity",
                        "in_cone": False},
        "dual_point": {"sigma": [0],
                       "tau": [6.9513406156901686e+297,
                               -0.0046180072823568345],
                       "mu": [0.007] * 6},
        "y": [-4.9652432969215489e+299, 0.33333333333333331,
              4.9652432969215489e+299, 0.82985766302548813,
              0.33333333333333331, -0.16319099635882151],
        "iterations": 0, "solver_status": "LineSearchStall",
        "low_confidence_blocks": [], "tol_gap": 1e-6, "seconds": 0.0}))
    assert cli.main(["check", str(prob), str(out)]) == 0
    assert capsys.readouterr() == ("PASS\n", "")


def test_oracle_reports_objective(example1_path, tmp_path):
    out = tmp_path / "oracle.json"
    cp = run_cli("oracle", str(example1_path), "--out", str(out))
    assert cp.returncode == 0
    assert "feasible=196/243" in cp.stdout
    doc = json.loads(out.read_bytes())
    assert doc["status"] == "OracleExact"
    assert doc["x"] == [5.0, 2.0, 5.0, 2.0, 2.0]


def test_oracle_limit_exits_two(tmp_path, capsys):
    # 2**25 selections exceed the one fixed limit, which has no flag.
    n = 25
    prob, out = tmp_path / "p.json", tmp_path / "o.json"
    prob.write_bytes(emit_problem(DiscreteQP(
        Q=np.eye(n), c=np.zeros(n), A=np.ones((1, n)),
        b=np.array([float(n)]), U=[[0.0, 1.0]] * n)))
    assert cli.main(["oracle", str(prob), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: 33554432 combinations exceed limit 20000000\n")
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", str(prob), "--limit", "10", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --limit" in capsys.readouterr().err


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


def test_toy_overflowing_curves_exit_two_before_printing(tmp_path, capsys):
    # The samples at +-1e200 overflow both curves; nothing is printed or
    # written, and no overflow warning escapes.
    out = tmp_path / "c.csv"
    assert cli.main(["toy", "--alpha", "1", "--lambda", "1", "--f", "1",
                     "--curves", str(out), "--range", "-1e200:1e200",
                     "--steps", "3"]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert "overflows doubles" in err
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


@pytest.mark.parametrize("span", ["5", "", "1:2:3", "a:5", "-5:"])
def test_toy_malformed_range_exits_two_naming_the_form(span):
    cp = run_cli("toy", "--alpha", "1", "--lambda", "1", "--f", "1",
                 "--range", span)
    assert cp.returncode == 2 and cp.stdout == ""
    assert cp.stderr == (f"error: --range must have the form lo:hi, "
                         f"got {span!r}\n")


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


def test_infeasible_problem_exits_two(tmp_path, capsys):
    prob, out = tmp_path / "p.json", tmp_path / "r.json"
    prob.write_text(json.dumps({
        "n": 1, "m": 1, "Q": [[1.0]], "c": [0.0],
        "A": [[1.0]], "b": [-10.0], "U": [[0.0, 1.0]]}))
    cp = run_cli("oracle", str(prob), "--out", str(tmp_path / "o.json"))
    assert cp.returncode == 2
    # solve: the dual value passes the largest objective of any selection
    # within a few steps, which proves the data infeasible, at K = 2 and
    # at K = 52, beyond the oracle fallback.  One error line, no overflow
    # warning (tier-1 turns a RuntimeWarning into an error), no report.
    for n in (1, 26):
        if n > 1:
            prob.write_text(json.dumps({
                "n": n, "m": 1, "Q": np.eye(n).tolist(), "c": [0.0] * n,
                "A": [[1.0] * n], "b": [-1.0], "U": [[0.0, 1.0]] * n}))
        assert cli.main(["solve", str(prob), "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("error: no selection satisfies Ax <= b: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()


def test_log_env_controls_diagnostics(example1_path, tmp_path):
    quiet = run_cli("solve", str(example1_path),
                    "--out", str(tmp_path / "a.json"), env={"DVS_LOG": "quiet"})
    info = run_cli("solve", str(example1_path),
                   "--out", str(tmp_path / "b.json"), env={"DVS_LOG": "info"})
    assert quiet.stderr == ""
    assert "dual ascent" in info.stderr


def _logger_state():
    root, dvs_logger = logging.getLogger(), logging.getLogger("dvs")
    return (list(root.handlers), root.level, list(dvs_logger.handlers),
            dvs_logger.level, dvs_logger.propagate)


def test_every_main_call_reads_dvs_log_and_restores_the_loggers(
        example1_path, tmp_path):
    # One process, one main() call per DVS_LOG value: each call's records
    # go once to that call's stderr, and no call leaves a handler, level
    # or propagate flag behind on the root or "dvs" logger.
    before = _logger_state()
    out = str(tmp_path / "r.json")
    for value in ("quiet", "info", "quiet", "trace", "Loud"):
        cp = run_cli("solve", str(example1_path), "--out", out,
                     env={"DVS_LOG": value})
        assert cp.returncode == 0, cp.stderr
        assert _logger_state() == before
        lines = cp.stderr.splitlines()
        if value == "quiet":
            assert cp.stderr == ""
        elif value == "info":
            assert sum("dual ascent" in line for line in lines) == 1
            assert all(line.startswith("INFO dvs.") for line in lines)
        elif value == "trace":
            iterations = int(re.search(r"iterations=(\d+)",
                                       cp.stdout).group(1))
            steps = [int(m.group(1)) for m in
                     (re.match(r"DEBUG dvs\.solver: iter (\d+) dual=", line)
                      for line in lines) if m]
            assert iterations > 1 and steps == list(range(iterations))
        else:
            assert lines == [
                "WARNING dvs: unknown DVS_LOG value 'loud'; using quiet"]
    # An error exit and argparse's SystemExit restore the loggers too.
    cp = run_cli("solve", str(tmp_path / "nope.json"), "--out", out,
                 env={"DVS_LOG": "info"})
    assert cp.returncode == 2 and cp.stderr.startswith("error:")
    assert _logger_state() == before
    cp = run_cli("solve", str(example1_path), "--no-such-flag",
                 "--out", out, env={"DVS_LOG": "trace"})
    assert cp.returncode == 2 and "unrecognized arguments" in cp.stderr
    assert _logger_state() == before


def test_module_entry_point_exit_codes_and_log(example1_path, tmp_path):
    # The one test of `python -m dvs.cli` itself, so it starts new
    # interpreters: sys.exit(main()) carries exit codes 0, 3 and 2 out,
    # and DVS_LOG=info reaches the process's real stderr.
    prob, out = tmp_path / "p.json", tmp_path / "r.json"
    cp = run_process("solve", str(example1_path), "--out", str(out),
                     env={"DVS_LOG": "info"})
    assert cp.returncode == 0 and "status=CertifiedGlobal" in cp.stdout
    assert "INFO dvs.solver: dual ascent: " in cp.stderr
    assert run_cli("gen", "--n", "3", "--m", "2", "--seed", "1",
                   "--values", "-2,1", "--out", str(prob)).returncode == 0
    cp = run_process("solve", str(prob), "--fallback-oracle", "0",
                     "--out", str(out), env={"DVS_LOG": "quiet"})
    assert cp.returncode == 3 and "status=NoCertificate" in cp.stdout
    assert cp.stderr == ""
    cp = run_process("check", str(tmp_path / "nope.json"), str(out))
    assert cp.returncode == 2 and cp.stdout == ""
    assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1


def test_solve_reports_are_byte_identical(example1_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("solve", str(example1_path), "--out", str(a))
    run_cli("solve", str(example1_path), "--out", str(b))
    da, db = json.loads(a.read_bytes()), json.loads(b.read_bytes())
    da.pop("seconds"), db.pop("seconds")
    assert da == db


@pytest.mark.parametrize("key, value", [
    ("dual_point", {}), ("dual_point", []), ("dual_point", "drop mu"),
    ("certificate", {}), ("certificate", []),
    ("certificate", "drop"), ("dual_point", "drop")])
def test_check_malformed_certificate_objects_exit_two(example1_path, tmp_path,
                                                      key, value):
    report = tmp_path / "report.json"
    run_cli("solve", str(example1_path), "--out", str(report))
    doc = json.loads(report.read_bytes())
    if value == "drop mu":
        del doc[key]["mu"]
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
    # Each solve starts a new interpreter: OPENBLAS_NUM_THREADS is read
    # once, when the BLAS library loads.
    prob = tmp_path / "p.json"
    assert run_cli("gen", "--n", "50", "--m", "5", "--seed", "4292",
                   "--out", str(prob)).returncode == 0
    docs = []
    for threads in ("1", "2"):
        out = tmp_path / f"r{threads}.json"
        cp = run_process("solve", str(prob), "--out", str(out),
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
    traced, full = tmp_path / "traced.json", tmp_path / "full.json"
    assert cli.main(["solve", str(example1_path), "--trace",
                     "--out", str(traced)]) == 0
    assert "trace" in json.loads(traced.read_bytes())
    assert cli.main(["solve", str(example1_path), "--out", str(full)]) == 0
    doc = json.loads(full.read_bytes())
    doc["seconds"] = 0.0
    fresh = emit_report(dataclasses.replace(solve(example1), seconds=0.0))
    assert doc == json.loads(fresh)
    for flag in ("--max-iter", "--max-iters"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", str(example1_path), flag, "5",
                      "--out", str(full)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert cli.main(["check", str(example1_path), str(full)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"
