"""Byte-deterministic JSON emission, strict parsing, and report checking."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from dvs import cli
from dvs.errors import DimensionError, SchemaError
from dvs.generator import GenSpec, generate
from dvs.lift import lift
from dvs.model import DiscreteQP, is_feasible, objective
from dvs.oracle import enumerate_discrete
from dvs.serialize import (
    _parse_matrix,
    _parse_vector,
    check,
    emit_lifted,
    emit_oracle_report,
    emit_problem,
    emit_report,
    emit_toy_solution,
    parse_problem,
    parse_report,
)
from dvs.solver import solve, verify_kkt

FIXTURES = Path(__file__).parent / "fixtures"


def two_var_problem():
    return DiscreteQP(Q=2.0 * np.eye(2), c=np.array([4.0, 2.0]),
                      A=np.array([[1.0, 1.0]]), b=np.array([3.0]),
                      U=[[1.0, 2.0], [1.0, 2.0]])


def test_problem_round_trip_is_byte_identical(example1, example2):
    for p in (example1, example2, two_var_problem()):
        data = emit_problem(p)
        again = emit_problem(parse_problem(data))
        assert data == again


def test_emitted_floats_round_trip_exactly():
    # values chosen to be awkward in decimal
    p = DiscreteQP(Q=np.array([[0.1 + 0.2]]), c=np.array([1.0 / 3.0]),
                   A=np.array([[np.pi]]), b=np.array([1e-17]),
                   U=[[2.0 ** -52, 1.0]])
    q = parse_problem(emit_problem(p))
    assert q.Q[0, 0] == p.Q[0, 0]
    assert q.c[0] == p.c[0]
    assert q.A[0, 0] == p.A[0, 0]
    assert q.b[0] == p.b[0]
    assert q.U[0][0] == p.U[0][0]


def test_emitted_problem_is_valid_json(example1):
    doc = json.loads(emit_problem(example1))
    assert list(doc.keys()) == ["n", "m", "Q", "c", "A", "b", "U"]
    assert doc["n"] == 5


def test_parse_rejects_unknown_key(example1):
    doc = json.loads(emit_problem(example1))
    doc["extra"] = 1
    with pytest.raises(SchemaError) as exc:
        parse_problem(json.dumps(doc))
    assert "$.extra" in str(exc.value)


def test_parse_rejects_missing_key(example1):
    doc = json.loads(emit_problem(example1))
    del doc["b"]
    with pytest.raises(SchemaError):
        parse_problem(json.dumps(doc))


def test_parse_rejects_wrong_column_count(example1):
    doc = json.loads(emit_problem(example1))
    doc["A"] = [row[:-1] for row in doc["A"]]
    with pytest.raises(DimensionError):
        parse_problem(json.dumps(doc))


def test_parse_rejects_non_finite_entry(example1):
    doc = json.loads(emit_problem(example1))
    doc["c"][0] = "oops"
    with pytest.raises(SchemaError) as exc:
        parse_problem(json.dumps(doc))
    assert "$.c[0]" in str(exc.value)
    text = json.dumps(doc).replace('"oops"', "NaN")
    with pytest.raises(SchemaError):
        parse_problem(text)


def test_parse_rejects_duplicate_value(example1):
    doc = json.loads(emit_problem(example1))
    doc["U"][2] = [2.0, 2.0, 5.0]
    with pytest.raises(SchemaError) as exc:
        parse_problem(json.dumps(doc))
    assert "U[2]" in str(exc.value)


def test_parse_rejects_malformed_json():
    with pytest.raises(SchemaError):
        parse_problem(b"{not json")
    with pytest.raises(SchemaError):
        parse_problem(b"[1, 2, 3]")
    with pytest.raises(SchemaError, match=r"^\$: not valid JSON"):
        parse_problem(b"\xff")


def test_report_round_trip_and_key_order(example1):
    r = solve(example1)
    data = emit_report(r)
    doc = json.loads(data)
    assert list(doc.keys()) == [
        "version", "status", "x", "objective", "certificate", "dual_point",
        "iterations", "solver_status", "seconds"]
    assert not hasattr(r, "y") and not hasattr(r, "low_confidence_blocks")
    assert list(doc["certificate"].keys()) == [
        "status", "primal_feas_residual", "complementarity_residual", "gap",
        "in_cone"]
    assert list(doc["dual_point"].keys()) == ["sigma", "mu"]
    assert doc["status"] == "CertifiedGlobal"
    assert doc["certificate"]["in_cone"] is True
    assert "trace" not in doc
    with_trace = json.loads(emit_report(r, include_trace=True))
    assert with_trace["trace"][-1] == pytest.approx(-227.86, abs=0.5)


def test_reports_are_deterministic_up_to_timing(example1):
    r1 = dataclasses.replace(solve(example1), seconds=0.0)
    r2 = dataclasses.replace(solve(example1), seconds=0.0)
    assert emit_report(r1) == emit_report(r2)


def test_emit_lifted_contents(example1):
    doc = json.loads(emit_lifted(lift(example1)))
    assert doc["K"] == 15
    assert doc["blocks"][0] == [0, 3]
    assert len(doc["B"]) == 15 and len(doc["B"][0]) == 15
    assert doc["U_flat"][:3] == [2.0, 3.0, 5.0]


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_emit_lifted_matches_pinned_bytes(name):
    # The lift is elementwise products only, so its bytes do not depend on
    # the BLAS build.
    problem = (FIXTURES / f"{name}.json").read_bytes()
    pinned = (FIXTURES / f"{name}.lifted.json").read_bytes()
    assert emit_lifted(lift(parse_problem(problem))) == pinned


def test_emit_toy_solution_shape():
    doc = json.loads(emit_toy_solution([2.0], -1.0, -1.0, 0.25))
    assert list(doc.keys()) == ["sigma1", "x", "primal_value", "dual_value"]


def test_emit_oracle_report_shape():
    doc = json.loads(emit_oracle_report([1.0, 2.0], -5.0, 3, 4, 0.01))
    assert doc["status"] == "OracleExact"
    assert doc["feasible_count"] == 3
    assert doc["total_count"] == 4


def test_parse_report_minimal_shape():
    rep = parse_report(b'{"status": "X", "x": [1.0], "objective": 2.0}')
    assert rep["objective"] == 2.0
    with pytest.raises(SchemaError):
        parse_report(b'{"status": "X"}')


def test_check_passes_fresh_report(example1):
    report = emit_report(solve(example1))
    passed, failures = check(emit_problem(example1), report)
    assert passed, failures


def test_check_passes_oracle_report(example1):
    x, value, feasible, total = enumerate_discrete(example1)
    report = emit_oracle_report(x, value, feasible, total, 0.1)
    passed, failures = check(emit_problem(example1), report)
    assert passed, failures


def test_check_flags_tampered_objective(example1):
    doc = json.loads(emit_report(solve(example1)))
    doc["objective"] += 0.5
    passed, failures = check(emit_problem(example1), json.dumps(doc))
    assert not passed
    assert any("objective" in f for f in failures)


def test_check_flags_infeasible_x(example1):
    doc = json.loads(emit_report(solve(example1)))
    doc["x"] = [5.0, 5.0, 5.0, 5.0, 5.0]  # violates Ax <= b
    passed, failures = check(emit_problem(example1), json.dumps(doc))
    assert not passed
    assert any("feasibility" in f for f in failures)


def test_check_flags_tampered_certificate_status(example1):
    doc = json.loads(emit_report(solve(example1)))
    doc["certificate"]["status"] = "NoCertificate"
    doc["status"] = "NoCertificate"
    passed, failures = check(emit_problem(example1), json.dumps(doc))
    assert not passed
    assert any("certificate status" in f for f in failures)


def test_check_flags_x_that_does_not_match_y(example1):
    doc = json.loads(emit_report(solve(example1)))
    doc["x"] = [2.0, 2.0, 2.0, 2.0, 2.0]  # feasible, not the ascent's x
    # recompute the claimed objective so only the certificate, recomputed
    # at this x, can fire
    x = np.array(doc["x"])
    doc["objective"] = float(0.5 * x @ example1.Q @ x - example1.c @ x)
    passed, failures = check(emit_problem(example1), json.dumps(doc))
    assert not passed
    assert any(f.startswith("certificate status: claimed 'CertifiedGlobal'")
               for f in failures), failures
    assert any(f.startswith("certificate gap") for f in failures), failures


@pytest.mark.parametrize("path", [("certificate", "gap"),
                                  ("certificate", "primal_feas_residual"),
                                  ("certificate", "complementarity_residual"),
                                  ("dual_point", "mu", 0)])
def test_check_rejects_non_finite_certificate_numbers(example1, path):
    doc = json.loads(emit_report(solve(example1)))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = float("nan")
    with pytest.raises(SchemaError) as exc:
        check(emit_problem(example1), json.dumps(doc))
    assert "non-finite" in str(exc.value)


def test_off_cone_report_round_trips_and_rechecks(example1):
    # Off the PD cone the gap is infinite; the report stays valid JSON and
    # an honest NoCertificate report re-verifies.
    r = solve(example1)
    mu = r.dual_point.mu.copy()
    mu[0] = -1e3
    d = dataclasses.replace(r.dual_point, mu=mu)
    cert = verify_kkt(lift(example1), r.x, d)
    assert cert.gap == math.inf and cert.status == "NoCertificate"
    r = dataclasses.replace(r, dual_point=d, certificate=cert,
                            status="NoCertificate")
    data = emit_report(r)
    doc = json.loads(data)
    assert doc["certificate"]["gap"] == "Infinity"
    assert parse_report(data)["status"] == "NoCertificate"
    passed, failures = check(emit_problem(example1), data)
    assert passed, failures
    # a finite claimed gap no longer matches, and "NaN" is not a number
    doc["certificate"]["gap"] = 1.0
    assert not check(emit_problem(example1), json.dumps(doc))[0]
    doc["certificate"]["gap"] = "NaN"
    with pytest.raises(SchemaError):
        check(emit_problem(example1), json.dumps(doc))


def test_check_requires_the_certificate_of_a_solver_report(example1):
    # A feasible selection far above the optimum, claimed CertifiedGlobal
    # with its objective recomputed and no y, must not skip the
    # certificate's re-verification, and without its certificate it is a
    # SchemaError.
    doc = json.loads(emit_report(solve(example1)))
    x = np.array([2.0, 2.0, 2.0, 2.0, 2.0])
    assert is_feasible(example1, x)
    doc["x"], doc["objective"] = x.tolist(), objective(example1, x)
    assert "y" not in doc
    passed, failures = check(emit_problem(example1), json.dumps(doc))
    assert not passed
    assert any(f.startswith("certificate status") for f in failures), failures
    del doc["certificate"]
    with pytest.raises(SchemaError, match=r"^\$\.certificate: missing"):
        check(emit_problem(example1), json.dumps(doc))
    doc = json.loads(emit_report(solve(example1)))
    for status in ("Certified", "KKTOnly"):
        doc["status"] = status
        with pytest.raises(SchemaError, match=r"^\$\.status: unknown"):
            check(emit_problem(example1), json.dumps(doc))


def test_check_judges_at_most_the_default_tol_gap(example1):
    # A feasible selection 156 above the optimum, with its recomputed
    # certificate numbers, claimed CertifiedGlobal under "tol_gap": 1e300.
    r = solve(example1)
    q = lift(example1)
    pick = [0, 3, 6, 9, 12]
    x = q.U_flat[pick]
    cert = verify_kkt(q, x, r.dual_point)
    assert cert.in_cone and cert.gap > 100.0
    doc = json.loads(emit_report(dataclasses.replace(
        r, x=x, objective=objective(example1, x),
        certificate=dataclasses.replace(cert, status="CertifiedGlobal"))))
    doc["tol_gap"] = 1e300
    passed, failures = check(emit_problem(example1), json.dumps(doc))
    assert not passed
    assert any(f.startswith("certificate status") for f in failures), failures


def test_check_ignores_a_tighter_report_tol_gap(example1):
    # check judges every report at TOL_GAP: an honest certified report
    # edited to claim "tol_gap": 1e-12, far below its own gap, passes.
    r = solve(example1)
    assert r.status == "CertifiedGlobal" and r.certificate.gap > 1e-12
    doc = json.loads(emit_report(r))
    doc["tol_gap"] = 1e-12
    passed, failures = check(emit_problem(example1), json.dumps(doc))
    assert passed, failures


def test_check_gives_older_reports_the_verdict_of_the_trimmed_report(
        example1):
    # Earlier versions also wrote "tol_gap" (1e-6), the certificate's
    # "dual_feas_residual" (0 on the cone), the selector "y", its
    # "low_confidence_blocks" and the dual point's one-hot multipliers
    # "tau".  check ignores all five, whatever their value, so such a
    # report gets its trimmed report's verdict.
    fallback = generate(GenSpec(n=3, m=2, seed=1, value_set=(-2.0, 1.0)))
    honest = solve(example1)
    forged = json.loads(emit_report(honest))
    forged["objective"] -= 1.0
    cases = [(example1, emit_report(honest)), (example1, json.dumps(forged)),
             (fallback, emit_report(solve(fallback))),
             (fallback, emit_report(solve(fallback, fallback_oracle_max_K=0)))]
    verdicts = []
    for p, data in cases:
        problem = emit_problem(p)
        trimmed = check(problem, data)
        verdicts.append(trimmed[0])
        K, n = lift(p).K, p.n
        for tol_gap, dual_feas, y, flagged, tau in (
                (1e-6, 0.0, np.eye(K)[0].tolist(), [], [-1.5] * n),
                (1e-6, -0.0, [0.5] * K, [0, 1], [0.25] * (n + 1)),
                (1e300, 5.0, [0.0], [-1], [float("nan")] * n),
                (-1.0, float("nan"), [float("nan")] * K, [0.5], "tau"),
                ("x", None, "y", None, None)):
            doc = json.loads(data)
            doc["tol_gap"] = tol_gap
            doc["certificate"]["dual_feas_residual"] = dual_feas
            doc["y"], doc["low_confidence_blocks"] = y, flagged
            doc["dual_point"]["tau"] = tau
            assert check(problem, json.dumps(doc)) == trimmed
    assert verdicts == [True, False, True, False]


def test_check_certifies_the_reported_x_whatever_produced_it(example1):
    # A certificate speaks for the report's x.  Example 1's x is replaced
    # by another feasible selection, and the uncertified ascent of a
    # fallback instance by its oracle optimum, which is not the rounding
    # of any reported y: with the certificate recomputed at the new x the
    # report PASSes, and under the certificate of the old x it FAILs.
    fallback = generate(GenSpec(n=3, m=2, seed=1, value_set=(-2.0, 1.0)))
    x_opt, _, _, _ = enumerate_discrete(fallback)
    for p, r, x in ((example1, solve(example1), np.full(5, 2.0)),
                    (fallback, solve(fallback, fallback_oracle_max_K=0),
                     x_opt)):
        assert is_feasible(p, x) and not np.array_equal(x, r.x)
        moved = dataclasses.replace(r, x=x, objective=objective(p, x))
        cert = verify_kkt(lift(p), x, r.dual_point)
        assert cert.status == "NoCertificate" and cert != r.certificate
        honest = dataclasses.replace(moved, certificate=cert,
                                     status="NoCertificate")
        assert check(emit_problem(p), emit_report(honest)) == (True, [])
        passed, failures = check(emit_problem(p), emit_report(moved))
        assert not passed
        assert all(f.startswith("certificate") or f.startswith("report")
                   for f in failures), failures


def test_check_judges_at_the_fixed_cone_floor(example1):
    # mu_4 = 1e-9 is below the cone floor 1e-8 and moves no residual or
    # the gap; the report claims CertifiedGlobal with its recomputed
    # numbers and "mu_min": 1e-300, which check must ignore.
    r = solve(example1)
    mu = r.dual_point.mu.copy()
    mu[4] = 1e-9
    d = dataclasses.replace(r.dual_point, mu=mu)
    cert = verify_kkt(lift(example1), r.x, d)
    assert not cert.in_cone and cert.gap <= 1e-6 * (1.0 + abs(r.objective))
    claimed = dataclasses.replace(cert, in_cone=True,
                                  status="CertifiedGlobal")
    doc = json.loads(emit_report(dataclasses.replace(
        r, dual_point=d, certificate=claimed)))
    doc["mu_min"] = 1e-300
    passed, failures = check(emit_problem(example1), json.dumps(doc))
    assert not passed
    assert any(f.startswith("certificate status") for f in failures), failures


@pytest.mark.parametrize("claim", [False, "no", None, 1])
def test_check_reads_the_certificate_in_cone(tmp_path, claim):
    # A CertifiedGlobal report whose certificate claims anything but the
    # recomputed in_cone (true): false FAILs, and a claim that is not true
    # or false is a SchemaError: `dvs check` exits 4 and 2.
    p = generate(GenSpec(5, 3, 42))
    r = solve(p)
    assert r.status == "CertifiedGlobal" and r.certificate.in_cone is True
    doc = json.loads(emit_report(r))
    doc["certificate"]["in_cone"] = claim
    problem, report = tmp_path / "p.json", tmp_path / "r.json"
    problem.write_bytes(emit_problem(p))
    report.write_text(json.dumps(doc))
    if isinstance(claim, bool):
        passed, failures = check(problem.read_bytes(), report.read_bytes())
        assert not passed
        assert any(f.startswith("certificate in_cone") for f in failures), \
            failures
        assert cli.main(["check", str(problem), str(report)]) == 4
    else:
        with pytest.raises(SchemaError,
                           match=r"^\$\.certificate\.in_cone: expected"):
            check(problem.read_bytes(), report.read_bytes())
        assert cli.main(["check", str(problem), str(report)]) == 2


def test_check_requires_the_certificate_in_cone(example1):
    doc = json.loads(emit_report(solve(example1)))
    del doc["certificate"]["in_cone"]
    with pytest.raises(SchemaError, match=r'missing key "in_cone"'):
        check(emit_problem(example1), json.dumps(doc))


# The per-entry parser the bulk one replaced, kept as the reference.
def _reference_number(v, path):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(v).__name__}")
    if not math.isfinite(v):
        raise SchemaError(path, f"non-finite number {v}")
    return float(v)


def _reference_vector(v, path, length, field):
    if not isinstance(v, list):
        raise SchemaError(path, "expected an array")
    if len(v) != length:
        raise DimensionError(field, f"({length},)", f"({len(v)},)")
    return np.array([_reference_number(x, f"{path}[{i}]")
                     for i, x in enumerate(v)])


def _reference_matrix(v, path, rows, cols, field):
    if not isinstance(v, list):
        raise SchemaError(path, "expected an array of arrays")
    if len(v) != rows:
        raise DimensionError(field, f"({rows}, {cols})", f"({len(v)}, ...)")
    out = np.empty((rows, cols))
    for i, row in enumerate(v):
        if not isinstance(row, list):
            raise SchemaError(f"{path}[{i}]", "expected an array")
        if len(row) != cols:
            raise DimensionError(field, f"({rows}, {cols})",
                                 f"row {i} has {len(row)} entries")
        out[i] = [_reference_number(x, f"{path}[{i}][{j}]")
                  for j, x in enumerate(row)]
    return out


def _outcome(parse, text, *args):
    """The parsed array bit for bit, or the error type and message."""
    try:
        a = parse(json.loads(text), "$.v", *args)
    except (SchemaError, DimensionError) as exc:
        return type(exc).__name__, str(exc)
    return a.dtype.str, a.shape, a.tobytes()


@pytest.mark.parametrize("text", [
    "[1, 2, 3]", "[-0.0, 0, 1e308]", "[5e-324, -1e308, 9007199254740993]",
    "[1, 2.5, 18446744073709551616]", "[true, 1, 2]", "[1, false, 2]",
    "[1, 2, null]", '[1, "1", 2]', "[1, [1], 2]", "[1, {}, 2]",
    "[NaN, 1, 2]", "[1, Infinity, 2]", "[1, 2, -Infinity]", "[1e999, 1, 2]",
    "[1, null, NaN]", "[1, 2]", "[]", "{}", "3", "null"])
def test_bulk_vector_parse_matches_per_entry_reference(text):
    assert (_outcome(_parse_vector, text, 3, "v")
            == _outcome(_reference_vector, text, 3, "v"))


@pytest.mark.parametrize("text", [
    "[[1, 2, 3], [4, 5, 6]]", "[[1, 2.0, -3], [0, 1e-300, -0.0]]",
    "[[1, 2, 3], [4, 5, true]]", "[[1, 2, 3], [4, 5, false]]",
    "[[1, 2, 3], [4, 5, null]]", '[[1, 2, 3], [4, "5", 6]]',
    "[[1, 2, 3], [4, [5], 6]]", "[[1, 2, 3], [4, {}, 6]]",
    "[[1, 2.5, 3], [4, 5, NaN]]", "[[Infinity, 2, 3], [4, 5, 6]]",
    "[[1, 2, 3], [1e999, 5, 6]]", "[[1, null, 3], [4, 5]]",
    "[[1, 2, 3], [4, 5]]", "[[1, 2, 3], 4]", "[[1, 2, 3]]", "[]", "{}"])
def test_bulk_matrix_parse_matches_per_entry_reference(text):
    assert (_outcome(_parse_matrix, text, 2, 3, "v")
            == _outcome(_reference_matrix, text, 2, 3, "v"))


def test_number_too_large_for_a_double_is_a_schema_error(example1, tmp_path,
                                                         capsys):
    big = "1" + "0" * 400
    doc = json.loads(emit_problem(example1))
    doc["Q"][4][2] = "big"
    text = json.dumps(doc).replace('"big"', big)
    with pytest.raises(SchemaError, match=r"^\$\.Q\[4\]\[2\]: number too large"):
        parse_problem(text)
    with pytest.raises(SchemaError, match=r"^\$\.x\[1\]: number too large"):
        parse_report(f'{{"status": "X", "x": [1, {big}], "objective": 0}}')
    with pytest.raises(SchemaError, match=r"^\$\.objective: number too large"):
        parse_report(f'{{"status": "X", "x": [1], "objective": -{big}}}')
    # past the interpreter's 4300-digit limit json.loads itself refuses it
    with pytest.raises(SchemaError, match=r"^\$: not valid JSON"):
        parse_report(f'{{"status": "X", "x": [{"1" * 5000}], "objective": 0}}')
    path, out = tmp_path / "p.json", tmp_path / "lifted.json"
    path.write_text(text)
    assert cli.main(["lift", str(path), "--out", str(out)]) == 2
    assert "$.Q[4][2]: number too large" in capsys.readouterr().err
    assert not out.exists()


def test_check_reruns_the_oracle_on_an_oracle_exact_report(example1):
    # A feasible selection 156 above the optimum claimed as the oracle's.
    x = np.full(5, 2.0)
    assert is_feasible(example1, x)
    report = emit_oracle_report(x, objective(example1, x), 196, 243, 0.0)
    passed, failures = check(emit_problem(example1), report)
    assert not passed
    assert [f for f in failures if f.startswith("optimality")] == failures
    assert "oracle optimum -227.8" in failures[0]


def test_check_reruns_the_oracle_on_an_oracle_fallback_report():
    # Criterion 4's second instance falls back to the oracle (optimum 0).
    p = generate(GenSpec(n=4, m=1, seed=1002, value_set=(-1.0, 0.0, 2.0)))
    r = solve(p)
    assert r.status == "OracleFallback"
    assert check(emit_problem(p), emit_report(r)) == (True, [])
    # A feasible x far above it, with its own recomputed certificate, so
    # only the oracle re-run can fire.
    x = np.full(4, -1.0)
    assert is_feasible(p, x)
    forged = emit_report(dataclasses.replace(
        r, x=x, objective=objective(p, x),
        certificate=verify_kkt(lift(p), x, r.dual_point)))
    passed, failures = check(emit_problem(p), forged)
    assert not passed
    assert len(failures) == 1 and failures[0].startswith("optimality")


def test_check_fails_an_oracle_report_beyond_the_oracle_limit():
    # 2**25 selections exceed the default limit, so even the true optimum
    # cannot be verified and must not PASS.
    n = 25
    p = DiscreteQP(Q=np.eye(n), c=np.zeros(n), A=np.ones((1, n)),
                   b=np.array([float(n)]), U=[[0.0, 1.0]] * n)
    report = emit_oracle_report(np.zeros(n), 0.0, 2 ** n, 2 ** n, 0.0)
    passed, failures = check(emit_problem(p), report)
    assert not passed
    assert failures == ["optimality: the oracle cannot verify this "
                        "OracleExact report: 33554432 combinations exceed "
                        "limit 20000000"]
