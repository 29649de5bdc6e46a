"""Byte-deterministic JSON emission, strict parsing, and report checking."""

import dataclasses
import json
import math

import numpy as np
import pytest

from dvs.errors import DimensionError, SchemaError
from dvs.lift import lift
from dvs.model import DiscreteQP, objective
from dvs.oracle import enumerate_discrete
from dvs.serialize import (
    check,
    emit_lifted,
    emit_oracle_report,
    emit_problem,
    emit_report,
    emit_toy_solution,
    parse_problem,
    parse_report,
)
from dvs.solver import round_binary, solve, verify_kkt


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


def test_report_round_trip_and_key_order(example1):
    r = solve(example1)
    data = emit_report(r)
    doc = json.loads(data)
    assert list(doc.keys()) == [
        "version", "status", "x", "objective", "certificate", "dual_point",
        "y", "iterations", "solver_status", "low_confidence_blocks",
        "tol_gap", "mu_min", "seconds"]
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
    doc["x"] = [2.0, 2.0, 2.0, 2.0, 2.0]  # feasible but not decoded from y
    # recompute the claimed objective so only the decode check can fire
    x = np.array(doc["x"])
    doc["objective"] = float(0.5 * x @ example1.Q @ x - example1.c @ x)
    passed, failures = check(emit_problem(example1), json.dumps(doc))
    assert not passed
    assert any("decode" in f for f in failures)


@pytest.mark.parametrize("path", [("certificate", "gap"),
                                  ("certificate", "primal_feas_residual"),
                                  ("tol_gap",), ("mu_min",)])
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
    q = lift(example1)
    x, _ = round_binary(r.y, q)
    cert = verify_kkt(q, x, d, tol_gap=r.tol_gap, mu_min=r.mu_min)
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


def test_check_judges_at_most_the_default_tol_gap(example1):
    # A feasible selection 156 above the optimum, with its recomputed
    # certificate numbers, claimed CertifiedGlobal under "tol_gap": 1e300.
    r = solve(example1)
    q = lift(example1)
    pick = [0, 3, 6, 9, 12]
    x = q.U_flat[pick]
    cert = verify_kkt(q, x, r.dual_point, tol_gap=1e300, mu_min=r.mu_min)
    assert cert.status == "CertifiedGlobal" and cert.gap > 100.0
    y = np.zeros(q.K)
    y[pick] = 1.0
    doc = json.loads(emit_report(dataclasses.replace(
        r, x=x, objective=objective(example1, x), certificate=cert, y=y,
        tol_gap=1e300)))
    passed, failures = check(emit_problem(example1), json.dumps(doc))
    assert not passed
    assert any(f.startswith("certificate status") for f in failures), failures
