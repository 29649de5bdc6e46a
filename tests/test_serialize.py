"""Byte-deterministic JSON emission, strict parsing, and report checking."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from dvs import cli, serialize
from dvs.errors import DimensionError, SchemaError
from dvs.generator import GenSpec, generate
from dvs.model import (
    NO_CERTIFICATE,
    Certificate,
    DiscreteQP,
    DualPoint,
    SolveReport,
    is_feasible,
    lift,
    objective,
)
from dvs.oracle import enumerate_discrete
from dvs.serialize import (
    _parse_matrix,
    _parse_value_sets,
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
from dvs.toy import ToyInstance, toy_solve

from families import suite_spec

FIXTURES = Path(__file__).parent / "fixtures"


def _spelled(v, ints=True):
    """``v`` as a file spells it, for exact comparison: each finite float
    as its hex form, which tells every bit, each non-finite one as its
    string, and each int as itself (or, with ``ints`` false, as the hex
    form of the same float)."""
    if isinstance(v, dict):
        return {k: _spelled(x, ints) for k, x in v.items()}
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_spelled(x, ints) for x in
                (v.tolist() if isinstance(v, np.ndarray) else v)]
    if isinstance(v, float) and not math.isfinite(v):
        return "NaN" if v != v else ("Infinity" if v > 0 else "-Infinity")
    if isinstance(v, float) or (isinstance(v, int) and not ints
                                and not isinstance(v, bool)):
        return float(v).hex()
    return v


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


def test_negative_zero_round_trips_byte_for_byte():
    # Written as "-0", -0.0 would read back as the integer 0 and re-emit
    # as "0".  In U, Q and c it keeps its sign and its bytes, also in the
    # problem `dvs gen --n 2 --m 1 --seed 1 --values -0,1` writes.
    p = DiscreteQP(Q=[[-0.0, 1.0], [1.0, 2.0]], c=[-0.0, 1.0],
                   A=[[1.0, 1.0]], b=[3.0], U=[[-0.0, 1.0], [1.0, -0.0]])
    generated = generate(GenSpec(n=2, m=1, seed=1, value_set=(-0.0, 1.0)))
    for problem in (p, generated):
        data = emit_problem(problem)
        assert b"-0.0" in data
        assert emit_problem(parse_problem(data)) == data
    again = parse_problem(emit_problem(p))
    for v in (again.Q[0, 0], again.c[0], again.U[0][0], again.U[1][1]):
        assert v == 0.0 and math.copysign(1.0, v) < 0.0


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


def test_parse_names_an_overflowing_symmetrization():
    doc = {"n": 1, "m": 0, "Q": [[1e308]], "c": [0], "A": [], "b": [],
           "U": [[0, 1]]}
    with pytest.raises(ValueError,
                       match=r"^the symmetrization of Q overflows$"):
        parse_problem(json.dumps(doc))


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
        "status", "primal_feas_residual", "gap"]
    assert list(doc["dual_point"].keys()) == ["sigma", "mu"]
    assert doc["status"] == doc["certificate"]["status"] == "CertifiedGlobal"
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
    data = emit_toy_solution([2.0], -1.0, -1.0, 0.25)
    doc = json.loads(data)
    assert list(doc.keys()) == ["sigma1", "x", "primal_value", "dual_value"]
    assert data == (b'{\n'
                    b'  "sigma1": 0.25,\n'
                    b'  "x": [2.0],\n'
                    b'  "primal_value": -1.0,\n'
                    b'  "dual_value": -1.0\n'
                    b'}\n')


def test_emit_oracle_report_shape():
    data = emit_oracle_report([1.0, 2.0], -5.0, 3, 4, 0.01)
    doc = json.loads(data)
    assert doc["status"] == "OracleExact"
    assert doc["feasible_count"] == 3
    assert doc["total_count"] == 4
    assert data == (b'{\n'
                    b'  "version": "0.1.0",\n'
                    b'  "status": "OracleExact",\n'
                    b'  "x": [1.0,2.0],\n'
                    b'  "objective": -5.0,\n'
                    b'  "feasible_count": 3,\n'
                    b'  "total_count": 4,\n'
                    b'  "seconds": 0.01\n'
                    b'}\n')


# The bytes the hand-built report below had when floats were written with
# 17 significant digits and ", " separators: files written so still read.
SEVENTEEN_DIGIT_REPORT = (
    b'{\n'
    b'  "version": "0.1.0",\n'
    b'  "status": "NoCertificate",\n'
    b'  "x": [1, -2],\n'
    b'  "objective": 0.30000000000000004,\n'
    b'  "certificate": {"status": "NoCertificate", '
    b'"primal_feas_residual": 0.33333333333333331, '
    b'"gap": "Infinity"},\n'
    b'  "dual_point": {"sigma": [0], "mu": [1e-08, 0.5]},\n'
    b'  "iterations": 7,\n'
    b'  "solver_status": "Converged",\n'
    b'  "seconds": 0.125,\n'
    b'  "trace": ["-Infinity", "NaN"]\n'
    b'}\n')


def test_emit_report_matches_pinned_bytes():
    # A hand-built report, so the bytes do not depend on the solver: ints
    # stay ints, floats take their shortest round-trip spelling, non-finite
    # numbers are strings, and nested objects and arrays sit on one line.
    r = SolveReport(
        x=np.array([1.0, -2.0]), objective=0.1 + 0.2,
        certificate=Certificate(NO_CERTIFICATE, 1.0 / 3.0, math.inf),
        dual_point=DualPoint(sigma=[0.0], mu=[1e-8, 0.5]),
        iterations=7, status=NO_CERTIFICATE, solver_status="Converged",
        trace=(-math.inf, math.nan), seconds=0.125)
    head = (b'{\n'
            b'  "version": "0.1.0",\n'
            b'  "status": "NoCertificate",\n'
            b'  "x": [1.0,-2.0],\n'
            b'  "objective": 0.30000000000000004,\n'
            b'  "certificate": {"status":"NoCertificate",'
            b'"primal_feas_residual":0.3333333333333333,'
            b'"gap":"Infinity"},\n'
            b'  "dual_point": {"sigma":[0.0],"mu":[1e-8,0.5]},\n'
            b'  "iterations": 7,\n'
            b'  "solver_status": "Converged",\n'
            b'  "seconds": 0.125')
    assert emit_report(r) == head + b'\n}\n'
    data = emit_report(r, include_trace=True)
    assert data == head + b',\n  "trace": ["-Infinity","NaN"]\n}\n'
    # Where the old file has an int, the new one has the same float.
    old, new = parse_report(SEVENTEEN_DIGIT_REPORT), parse_report(data)
    assert _spelled(old, ints=False) == _spelled(new, ints=False)


def test_tricky_doubles_keep_their_pinned_spelling():
    # orjson's shortest round-trip spelling, pinned: a release that
    # respells a float changes every file's bytes and fails here first.
    values = [-0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1e16, 1e22,
              2.0 ** 53, 1.7976931348623157e308]
    line = (b'  "x": [-0.0,5e-324,2.2250738585072014e-308,0.1,1e16,1e22,'
            b'9007199254740992.0,1.7976931348623157e308],\n')
    for x in (values, np.array(values)):
        assert line in emit_oracle_report(x, 0.0, 1, 1, 0.0)


@pytest.fixture(scope="module")
def emitted_kinds(example1):
    """Each kind of file, with the values its keys hold, in file order."""
    p = example1
    r = solve(p)
    report = {
        "version": "0.1.0", "status": r.status, "x": r.x,
        "objective": r.objective,
        "certificate": {"status": r.certificate.status,
                        "primal_feas_residual":
                            r.certificate.primal_feas_residual,
                        "gap": r.certificate.gap},
        "dual_point": {"sigma": r.dual_point.sigma, "mu": r.dual_point.mu},
        "iterations": r.iterations, "solver_status": r.solver_status,
        "seconds": r.seconds}
    q = lift(p)
    x, value, feasible, total = enumerate_discrete(p)
    tx, primal, dual, sigma1 = toy_solve(ToyInstance(alpha=1.0, lam=2.0,
                                                     f=[0.5, -0.25]))
    return {
        "problem": (emit_problem(p), {k: getattr(p, k) for k in
                                      ("n", "m", "Q", "c", "A", "b", "U")}),
        "report": (emit_report(r), report),
        "report with trace": (emit_report(r, include_trace=True),
                              {**report, "trace": r.trace}),
        "lifted": (emit_lifted(q), {f.name: getattr(q, f.name)
                                    for f in dataclasses.fields(q)}),
        "oracle": (emit_oracle_report(x, value, feasible, total, 0.25),
                   {"version": "0.1.0", "status": "OracleExact", "x": x,
                    "objective": value, "feasible_count": feasible,
                    "total_count": total, "seconds": 0.25}),
        "toy": (emit_toy_solution(tx, primal, dual, sigma1),
                {"sigma1": sigma1, "x": tx, "primal_value": primal,
                 "dual_value": dual}),
    }


@pytest.mark.parametrize("kind", ["problem", "report", "report with trace",
                                  "lifted", "oracle", "toy"])
def test_every_emitted_kind_reads_back_bit_for_bit(emitted_kinds, kind):
    data, values = emitted_kinds[kind]
    # One key per line, two-space indent, each value on one line.
    lines = data.split(b"\n")
    assert lines[0] == b"{" and lines[-2:] == [b"}", b""]
    assert len(lines) == len(values) + 3
    assert all(line.startswith(b'  "') for line in lines[1:-2])
    # Both decoders read every value back, ints as ints, floats bit for
    # bit, and the values re-emit as the same bytes.
    for doc in (serialize._load(data), json.loads(data)):
        assert list(doc) == list(values)
        assert _spelled(doc) == _spelled(values)
        assert serialize._emit(doc) == data


def test_non_finite_values_are_strings_wherever_they_appear():
    # A scalar, arrays, a nested object's scalar and array, and the trace
    # tuple; orjson alone would write each as null.  A numpy scalar beside
    # them is still a number.
    r = SolveReport(
        x=np.array([math.nan, 1.0]), objective=-math.inf,
        certificate=Certificate(NO_CERTIFICATE, np.float64(0.5), math.inf),
        dual_point=DualPoint(sigma=[-math.inf], mu=[math.inf, 0.5]),
        iterations=3, status=NO_CERTIFICATE, solver_status="Converged",
        trace=(-math.inf, math.nan, 1.0), seconds=0.0)
    data = emit_report(r, include_trace=True)
    assert b"null" not in data
    for line in (b'  "x": ["NaN",1.0],\n', b'  "objective": "-Infinity",\n',
                 b'"primal_feas_residual":0.5,"gap":"Infinity"}',
                 b'{"sigma":["-Infinity"],"mu":["Infinity",0.5]}',
                 b'["-Infinity","NaN",1.0]'):
        assert line in data
    assert json.loads(data) == serialize._load(data)


def test_problem_past_the_opener_bound_round_trips_through_the_stdlib(
        monkeypatch):
    # n = 520 at m = 5 holds 1,051 openers, so the stdlib reads it: the
    # arrays come back bit for bit, and the solve's report PASSes check.
    p = generate(GenSpec(520, 5, 4762))
    data = emit_problem(p)
    assert data.count(b"[") + data.count(b"{") == 1051
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads",
                        lambda s: calls.append(len(s)) or loads(s))
    q = parse_problem(data)
    assert len(calls) == 1
    for name in ("Q", "c", "A", "b", "sizes", "U_flat"):
        assert getattr(q, name).tobytes() == getattr(p, name).tobytes()
    assert check(data, emit_report(solve(q))) == (True, [])


def test_parse_report_minimal_shape():
    rep = parse_report(b'{"status": "X", "x": [1.0], "objective": 2.0}')
    assert rep["objective"] == 2.0
    with pytest.raises(SchemaError):
        parse_report(b'{"status": "X"}')


def test_check_passes_fresh_report(example1):
    report = emit_report(solve(example1))
    passed, failures = check(emit_problem(example1), report)
    assert passed, failures
    # check reads only the keys it needs: keys it does not know, at the
    # top level or in a nested object, leave the verdict alone.
    doc = json.loads(report)
    doc["foo"], doc["certificate"]["bar"], doc["dual_point"]["baz"] = 1, "x", []
    assert check(emit_problem(example1), json.dumps(doc)) == (True, [])


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
                                  ("dual_point", "sigma", 0),
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
    cert = verify_kkt(example1, r.x, d)
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
    pick = [0, 3, 6, 9, 12]
    x = example1.U_flat[pick]
    cert = verify_kkt(example1, x, r.dual_point)
    assert math.isfinite(cert.gap) and cert.gap > 100.0
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
    # "dual_feas_residual" (0 on the cone), "in_cone" and
    # "complementarity_residual", the selector "y", its
    # "low_confidence_blocks" and the dual point's one-hot multipliers
    # "tau".  check ignores all seven, whatever their value, so such a
    # report gets its trimmed report's verdict, which is the verdict when
    # they are absent.
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
        K, n = p.K, p.n
        assert not {"in_cone", "complementarity_residual"} & set(
            json.loads(data)["certificate"])
        for tol_gap, dual_feas, in_cone, comp, y, flagged, tau in (
                (1e-6, 0.0, True, 0.0, np.eye(K)[0].tolist(), [],
                 [-1.5] * n),
                (1e-6, -0.0, False, 5.0, [0.5] * K, [0, 1],
                 [0.25] * (n + 1)),
                (1e300, 5.0, "no", float("nan"), [0.0], [-1],
                 [float("nan")] * n),
                (-1.0, float("nan"), None, "x", [float("nan")] * K, [0.5],
                 "tau"),
                ("x", None, 1, None, "y", None, None)):
            doc = json.loads(data)
            doc["tol_gap"] = tol_gap
            doc["certificate"]["dual_feas_residual"] = dual_feas
            doc["certificate"]["in_cone"] = in_cone
            doc["certificate"]["complementarity_residual"] = comp
            doc["y"], doc["low_confidence_blocks"] = y, flagged
            doc["dual_point"]["tau"] = tau
            assert check(problem, json.dumps(doc)) == trimmed
    assert verdicts == [True, False, True, False]


@pytest.mark.parametrize("claim", [False, "no", None, 1])
def test_check_reads_the_certificate_in_cone(tmp_path, claim):
    # Earlier reports wrote the certificate's "in_cone".  check reads the
    # cone off the dual point alone, so a certified report whose "in_cone"
    # claims false, or is not a boolean, still PASSes: `dvs check` exits 0.
    p = generate(GenSpec(5, 3, 42))
    r = solve(p)
    assert r.status == "CertifiedGlobal"
    doc = json.loads(emit_report(r))
    assert "in_cone" not in doc["certificate"]
    doc["certificate"]["in_cone"] = claim
    problem, report = tmp_path / "p.json", tmp_path / "r.json"
    problem.write_bytes(emit_problem(p))
    report.write_text(json.dumps(doc))
    assert check(problem.read_bytes(), report.read_bytes()) == (True, [])
    assert cli.main(["check", str(problem), str(report)]) == 0


def test_check_requires_the_certificate_in_cone(example1):
    # The dual point of a CertifiedGlobal report must lie in the cone: a
    # report without "in_cone" PASSes, and the same report at sigma_0 = -1
    # FAILs, since off the cone the dual value is -inf and the gap infinite.
    r = solve(example1)
    doc = json.loads(emit_report(r))
    assert "in_cone" not in doc["certificate"]
    assert check(emit_problem(example1), json.dumps(doc)) == (True, [])
    doc["dual_point"]["sigma"][0] = -1.0
    passed, failures = check(emit_problem(example1), json.dumps(doc))
    assert not passed
    assert any(f.startswith("certificate status") for f in failures), failures
    assert any(f.startswith("certificate gap") and f.endswith("inf")
               for f in failures), failures


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
        cert = verify_kkt(p, x, r.dual_point)
        assert cert.status == "NoCertificate" and cert != r.certificate
        honest = dataclasses.replace(moved, certificate=cert,
                                     status="NoCertificate")
        assert check(emit_problem(p), emit_report(honest)) == (True, [])
        passed, failures = check(emit_problem(p), emit_report(moved))
        assert not passed
        assert all(f.startswith("certificate") or f.startswith("report")
                   for f in failures), failures


def test_check_judges_at_the_fixed_cone_floor(example1):
    # mu_4 = 1e-9, below the cone floor 1e-8, and sigma_j = -1e-12 each
    # barely move the dual value, but they leave the cone: its dual value
    # is -inf and the gap infinite.  The report keeps the certified
    # certificate of the point on the cone and claims "mu_min": 1e-300,
    # which check must ignore.
    r = solve(example1)
    assert r.status == "CertifiedGlobal"
    for name, index, value in (("mu", 4, 1e-9), ("sigma", 0, -1e-12)):
        moved = getattr(r.dual_point, name).copy()
        moved[index] = value
        d = dataclasses.replace(r.dual_point, **{name: moved})
        cert = verify_kkt(example1, r.x, d)
        assert cert.status == "NoCertificate" and cert.gap == math.inf
        doc = json.loads(emit_report(dataclasses.replace(r, dual_point=d)))
        doc["mu_min"] = 1e-300
        passed, failures = check(emit_problem(example1), json.dumps(doc))
        assert not passed
        assert any(f.startswith("certificate status") for f in failures), \
            failures
        assert any(f.startswith("certificate gap") and f.endswith("inf")
                   for f in failures), failures


# The per-entry parser the bulk one replaced, kept as the reference.
def _reference_number(v, path):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(v).__name__}")
    try:
        f = float(v)
    except OverflowError:
        raise SchemaError(path, "number too large for a double") from None
    if not math.isfinite(f):
        raise SchemaError(path, f"non-finite number {v}")
    return f


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


def _reference_value_sets(v, path, n):
    if not isinstance(v, list) or len(v) != n:
        raise SchemaError(path, f"expected {n} value sets")
    out = []
    for i, ui in enumerate(v):
        if not isinstance(ui, list) or not ui:
            raise SchemaError(f"{path}[{i}]", "expected a non-empty array")
        vals = tuple(_reference_number(x, f"{path}[{i}][{j}]")
                     for j, x in enumerate(ui))
        if len(set(vals)) != len(vals):
            raise SchemaError(f"{path}[{i}]", "duplicate value in set")
        out.append(vals)
    return tuple(out)


def _outcome(parse, text, *args):
    """The parsed array or value sets bit for bit, or the error type and
    message."""
    try:
        a = parse(json.loads(text), "$.v", *args)
    except (SchemaError, DimensionError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(a, tuple):
        return tuple(tuple(map(float.hex, ui)) for ui in a)
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


@pytest.mark.parametrize("text", [
    "[[0, 1], [-1, 0, 2.5], [7]]", "[[0], [1, 2, 3, 4, 5], [-0.0, 6]]",
    "[[5e-324, -1e308], [9007199254740993], [18446744073709551616, 1]]",
    "[[0, 1], [], [2]]", "[[], [1], [2]]", "[[0, 1], 3, [2]]",
    "[[0, 1], [2], {}]", "[[0, 1], [2], null]",
    "[[0, true], [1], [2]]", "[[0, 1], [false], [2]]",
    '[[0, 1], ["1"], [2]]', "[[0, 1], [2, null], [3]]",
    "[[0, 1], [2, [3]], [4]]", "[[0, NaN], [1], [2]]",
    "[[0, 1], [1e999], [2]]", "[[0, 1], [2], [-Infinity]]",
    "[[0, 1], [%s, 2], [3]]" % ("1" + "0" * 400),
    "[[0, 1], [2], [-%s]]" % ("9" * 400),
    "[[0, 1, 0], [1], [2]]", "[[0, 1], [2, 2.0], [3]]",
    "[[1], [-0.0, 0.0], [2]]", "[[0, 0], [1e999], [2]]",
    "[[0, NaN], [1, 1], [2]]", "[[0, 1], [], [2, 2]]", "[[0, 1], [2]]",
    "[[0], [1], [2], [3]]", "[]", "{}", "3"])
def test_bulk_value_set_parse_matches_per_entry_reference(text):
    assert (_outcome(_parse_value_sets, text, 3)
            == _outcome(_reference_value_sets, text, 3))


def test_parse_problem_converts_whole_fields_whatever_n(monkeypatch):
    # One bulk conversion per field: the per-entry walk, which names the
    # first bad entry, never runs on valid input, so a problem of n = 50
    # makes as many conversions as one of n = 5.
    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("_bulk", "_per_entry"):
        monkeypatch.setattr(serialize, name,
                            counted(name, getattr(serialize, name)))
    counts = []
    for n in (5, 50):
        data = emit_problem(generate(suite_spec(n)))
        calls.update(_bulk=0, _per_entry=0)
        parse_problem(data)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[0]["_per_entry"] == 0 and counts[0]["_bulk"] > 0
    doc = json.loads(data)
    doc["U"][17][1] = True
    calls.update(_bulk=0, _per_entry=0)
    with pytest.raises(SchemaError, match=r"^\$\.U\[17\]\[1\]: expected a number"):
        parse_problem(json.dumps(doc))
    assert calls["_per_entry"] > 0


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


def _refuse(*args, **kwargs):
    raise AssertionError("json.loads called")


def test_load_reads_back_every_float_written_bit_for_bit(monkeypatch):
    # Random bit patterns reach every exponent, subnormals included.  The
    # array and the list of the same floats are written alike, and the
    # stdlib reads back what orjson reads.
    bits = np.random.default_rng(34).integers(0, 2 ** 64, 120_000,
                                              dtype=np.uint64)
    finite = bits.view(float)[np.isfinite(bits.view(float))]
    info = np.finfo(float)
    values = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, info.tiny,
                              -info.tiny, info.max, -info.max], finite])
    assert len(values) > 100_000
    data = emit_oracle_report(values, 0.0, 1, 1, 0.0)
    assert emit_oracle_report(values.tolist(), 0.0, 1, 1, 0.0) == data
    by_stdlib = np.array(json.loads(data)["x"], dtype=float)
    monkeypatch.setattr(json, "loads", _refuse)
    got = np.array(serialize._load(data)["x"], dtype=float)
    for read in (got, by_stdlib):
        assert read.tobytes() == values.tobytes()


@pytest.mark.parametrize("n", [5, 50])
def test_emitted_files_parse_without_the_stdlib_decoder(n, monkeypatch):
    p = generate(suite_spec(n))
    problem = emit_problem(p)
    reports = [emit_report(solve(p))]
    if n == 5:
        x, value, feasible, total = enumerate_discrete(p)
        reports.append(emit_oracle_report(x, value, feasible, total, 0.0))
    verdicts = [check(problem, r) for r in reports]
    parsed = [json.loads(r) for r in reports]
    monkeypatch.setattr(json, "loads", _refuse)
    assert emit_problem(parse_problem(problem)) == problem
    for report, doc, verdict in zip(reports, parsed, verdicts):
        rep = parse_report(report)
        assert rep["x"].tolist() == doc["x"] and rep["status"] == doc["status"]
        assert check(problem, report) == verdict


def test_input_past_the_opener_bound_is_read_by_the_stdlib(monkeypatch):
    # A problem of n = 1 holds m + 8 openers: the object, Q and its row,
    # c, A and its m rows, b, and U and its set.
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads",
                        lambda s: calls.append(len(s)) or loads(s))
    for m, openers in ((1016, 1024), (1017, 1025)):
        data = emit_problem(generate(GenSpec(1, m, 34)))
        assert data.count(b"[") + data.count(b"{") == openers
        for form in (data, data.decode()):
            calls.clear()
            assert emit_problem(parse_problem(form)) == data
            assert len(calls) == (openers > 1024)


def test_integer_past_two_to_the_64_is_a_float(example1):
    # orjson reads an integer outside [-2**63, 2**64) as a float, so such
    # an n is refused as a non-integer; the exit code stays 2.
    doc = json.loads(emit_problem(example1))
    for n, error in ((2 ** 64 - 1, DimensionError),
                     (2 ** 64, SchemaError)):
        doc["n"] = n
        with pytest.raises(error):
            parse_problem(json.dumps(doc))
    with pytest.raises(SchemaError,
                       match=r"^\$\.n: expected a non-negative integer$"):
        parse_problem(json.dumps(doc))


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
        certificate=verify_kkt(p, x, r.dual_point)))
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
