"""JSON (de)serialization with byte-deterministic output.

Problem files are objects with exactly the keys n, m, Q, c, A, b, U.
Every emitted file comes from one writer, :func:`_emit`, in one layout:
the top-level object has one key per line with a two-space indent, and
every nested object and array sits on one line.  Keys keep the order
they are given in; ints are written as ints and floats with 17
significant digits, which round-trips IEEE-754 doubles exactly (-0.0 is
written "-0.0", since "-0" reads back as an int) — so serialize -> parse
-> serialize is byte-identical and reports can be compared as bytes.
JSON has no non-finite numbers: they are the strings "Infinity",
"-Infinity" and "NaN" (the one a report can carry is the off-cone
certificate gap, "Infinity").

:func:`check` re-verifies a report's certificate at the report's own x:
a certificate speaks for that point, whatever produced it, so a report
carries no selector y and no rounding rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from itertools import chain, islice

import numpy as np

from . import __version__
from .errors import DimensionError, Infeasible, SchemaError, TooLarge
from .model import (
    CERTIFIED_GLOBAL,
    NO_CERTIFICATE,
    ORACLE_EXACT,
    ORACLE_FALLBACK,
    BinaryQP,
    DiscreteQP,
    DualPoint,
    SolveReport,
    is_feasible,
    objective,
)
from .oracle import enumerate_discrete
from .solver import verify_kkt
# Not called here; perfbench/tracing.py wraps these names.
from .model import lift  # noqa: F401
from .solver import round_binary  # noqa: F401

PROBLEM_KEYS = ("n", "m", "Q", "c", "A", "b", "U")
SOLVER_STATUSES = (CERTIFIED_GLOBAL, NO_CERTIFICATE, ORACLE_FALLBACK)
CERTIFICATE_NUMBERS = ("primal_feas_residual", "gap")
# The Python types json.loads gives a number; bool, a subclass of int,
# is deliberately not one of them.
_NUMBER_TYPES = {int, float}


def _json(v) -> str:
    """One value on one line: objects and arrays nest, keys in order."""
    if isinstance(v, float):
        if math.isfinite(v):
            text = format(v, ".17g")
            return "-0.0" if text == "-0" else text
        return '"NaN"' if v != v else ('"Infinity"' if v > 0 else '"-Infinity"')
    if isinstance(v, int):
        return str(int(v))
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, dict):
        return "{" + ", ".join(f"{_json(k)}: {_json(x)}"
                               for k, x in v.items()) + "}"
    # As Python numbers, an array's entries format faster.
    v = v.tolist() if isinstance(v, np.ndarray) else v
    return "[" + ", ".join(map(_json, v)) + "]"


def _emit(doc: dict) -> bytes:
    """A file's bytes: the top-level object, one key per line."""
    body = ",\n".join(f"  {_json(k)}: {_json(v)}" for k, v in doc.items())
    return f"{{\n{body}\n}}\n".encode()


def emit_problem(p: DiscreteQP) -> bytes:
    return _emit({key: getattr(p, key) for key in PROBLEM_KEYS})


def emit_lifted(q: BinaryQP) -> bytes:
    return _emit({f.name: getattr(q, f.name) for f in fields(q)})


def emit_report(r: SolveReport, include_trace: bool = False) -> bytes:
    doc = {
        "version": __version__, "status": r.status, "x": r.x,
        "objective": r.objective,
        "certificate": {key: getattr(r.certificate, key)
                        for key in ("status",) + CERTIFICATE_NUMBERS},
        "dual_point": {"sigma": r.dual_point.sigma, "mu": r.dual_point.mu},
        "iterations": r.iterations, "solver_status": r.solver_status,
        "seconds": r.seconds,
    }
    if include_trace:
        doc["trace"] = r.trace
    return _emit(doc)


def emit_toy_solution(x, primal: float, dual: float, sigma1: float) -> bytes:
    return _emit({"sigma1": sigma1, "x": x, "primal_value": primal,
                  "dual_value": dual})


def emit_oracle_report(x, value: float, feasible_count: int,
                       total_count: int, seconds: float) -> bytes:
    return _emit({"version": __version__, "status": ORACLE_EXACT, "x": x,
                  "objective": value, "feasible_count": feasible_count,
                  "total_count": total_count, "seconds": seconds})


def _load(data) -> object:
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return json.loads(data)
    except ValueError as exc:
        # A JSONDecodeError, bytes that are not UTF-8, or an integer
        # literal longer than the interpreter converts (4300 digits).
        raise SchemaError("$", f"not valid JSON: {exc}") from None


def _require_number(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(v).__name__}")
    try:
        f = float(v)
    except OverflowError:
        raise SchemaError(path, "number too large for a double") from None
    if not math.isfinite(f):
        raise SchemaError(path, f"non-finite number {v}")
    return f


def _bulk(v: list) -> np.ndarray | None:
    """The entries of a flat JSON array as one float array, or None.

    One type test, one conversion and one finiteness test cover the whole
    array; None means some entry is not a finite number, and the caller
    walks the entries with :func:`_per_entry` to name the first bad one.
    """
    if set(map(type, v)) <= _NUMBER_TYPES:
        try:
            a = np.array(v, dtype=float)
        except OverflowError:
            return None
        if np.isfinite(a).all():
            return a
    return None


def _per_entry(v: list, path: str) -> np.ndarray:
    """The entries of a JSON array, tested one by one: the SchemaError
    names the first entry that is not a finite number."""
    return np.array([_require_number(x, f"{path}[{i}]")
                     for i, x in enumerate(v)], dtype=float)


def _numbers(v: list, path: str) -> np.ndarray:
    """The entries of a JSON array as a float array."""
    a = _bulk(v)
    return _per_entry(v, path) if a is None else a


def _require_gap(v, path: str) -> float:
    """A gap is a finite number or "Infinity", the off-cone gap."""
    return math.inf if v == "Infinity" else _require_number(v, path)


def _require_object(v, path: str, keys) -> dict:
    if not isinstance(v, dict):
        raise SchemaError(path, f"expected an object, got {type(v).__name__}")
    for key in keys:
        if key not in v:
            raise SchemaError(path, f'missing key "{key}"')
    return v


def _require_count(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise SchemaError(path, "expected a non-negative integer")
    return v


def _parse_vector(v, path: str, length: int, field: str) -> np.ndarray:
    if not isinstance(v, list):
        raise SchemaError(path, "expected an array")
    if len(v) != length:
        raise DimensionError(field, f"({length},)", f"({len(v)},)")
    return _numbers(v, path)


def _parse_matrix(v, path: str, rows: int, cols: int, field: str) -> np.ndarray:
    if not isinstance(v, list):
        raise SchemaError(path, "expected an array of arrays")
    if len(v) != rows:
        raise DimensionError(field, f"({rows}, {cols})", f"({len(v)}, ...)")
    # Every row's length is checked before anything is converted, so the
    # array never outgrows what the file holds, whatever size it declares.
    if all(isinstance(row, list) and len(row) == cols for row in v):
        a = _bulk(list(chain.from_iterable(v)))
        if a is not None:
            return a.reshape(rows, cols)
    # The row-major walk raises the error of the first bad row or entry.
    out = []
    for i, row in enumerate(v):
        if not isinstance(row, list):
            raise SchemaError(f"{path}[{i}]", "expected an array")
        if len(row) != cols:
            raise DimensionError(field, f"({rows}, {cols})",
                                 f"row {i} has {len(row)} entries")
        out.append(_per_entry(row, f"{path}[{i}]"))
    return np.array(out, dtype=float).reshape(rows, cols)


def _parse_value_sets(v, path: str, n: int) -> tuple[tuple[float, ...], ...]:
    if not isinstance(v, list) or len(v) != n:
        raise SchemaError(path, f"expected {n} value sets")
    # As for a matrix: every set is checked to be a non-empty array before
    # all of them are converted together and sliced back out.
    if all(isinstance(ui, list) and ui for ui in v):
        a = _bulk(list(chain.from_iterable(v)))
        if a is not None:
            flat = iter(a.tolist())
            U = tuple(tuple(islice(flat, len(ui))) for ui in v)
            for i, ui in enumerate(U):
                if len(set(ui)) != len(ui):
                    raise SchemaError(f"{path}[{i}]", "duplicate value in set")
            return U
    # The set-by-set walk raises the error of the first bad set or entry.
    U = []
    for i, ui in enumerate(v):
        if not isinstance(ui, list) or not ui:
            raise SchemaError(f"{path}[{i}]", "expected a non-empty array")
        vals = tuple(_per_entry(ui, f"{path}[{i}]").tolist())
        if len(set(vals)) != len(vals):
            raise SchemaError(f"{path}[{i}]", "duplicate value in set")
        U.append(vals)
    return tuple(U)


def parse_problem(data) -> DiscreteQP:
    """Parse and validate a problem file; unknown keys are rejected."""
    doc = _load(data)
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected a JSON object")
    for key in doc:
        if key not in PROBLEM_KEYS:
            raise SchemaError(f"$.{key}", "unknown key")
    for key in PROBLEM_KEYS:
        if key not in doc:
            raise SchemaError("$", f'missing key "{key}"')
    n = _require_count(doc["n"], "$.n")
    m = _require_count(doc["m"], "$.m")
    if n < 1:
        raise SchemaError("$.n", "must be >= 1")
    Q = _parse_matrix(doc["Q"], "$.Q", n, n, "Q")
    c = _parse_vector(doc["c"], "$.c", n, "c")
    A = _parse_matrix(doc["A"], "$.A", m, n, "A")
    b = _parse_vector(doc["b"], "$.b", m, "b")
    U = _parse_value_sets(doc["U"], "$.U", n)
    return DiscreteQP(Q=Q, c=c, A=A, b=b, U=U)


def parse_report(data) -> dict:
    """Parse a report file into a plain dict, checking the minimal shape."""
    doc = _load(data)
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected a JSON object")
    for key in ("status", "x", "objective"):
        if key not in doc:
            raise SchemaError("$", f'missing key "{key}"')
    if not isinstance(doc["x"], list):
        raise SchemaError("$.x", "expected an array")
    doc["x"] = _numbers(doc["x"], "$.x")
    doc["objective"] = _require_number(doc["objective"], "$.objective")
    return doc


def check(problem_data, report_data) -> tuple[bool, list[str]]:
    """Re-verify a report against its problem from scratch.

    PASS requires: x feasible, the objective matching a recomputation
    within 1e-9, and — for every status but OracleExact — the
    certificate re-verifying (same primal residual, gap and status from
    the reported x, sigma and mu).  The certificate is judged on the
    fixed cone mu >= MU_MIN and at the fixed gap tolerance TOL_GAP.  The
    ``y``, ``low_confidence_blocks``, ``tol_gap``, ``mu_min``, certificate
    ``dual_feas_residual``, ``in_cone`` and ``complementarity_residual``,
    and ``dual_point.tau`` keys of older reports are ignored, whatever
    they hold, as is every other key not read here.  An OracleExact or
    OracleFallback report claims the enumerated optimum, so the oracle is
    re-run, at its one limit: the objective may exceed its optimum by at
    most 1e-9*(1+|optimum|), and a problem beyond that limit fails.
    Returns (passed, failures).

    A report with a solver status that lacks its certificate or dual
    point, or with an unknown status, is a SchemaError.
    """
    p = parse_problem(problem_data)
    rep = parse_report(report_data)
    status = rep["status"]
    if status in SOLVER_STATUSES:
        for key in ("certificate", "dual_point"):
            if key not in rep:
                raise SchemaError(f"$.{key}",
                                  f"missing from a {status} report")
    elif status != ORACLE_EXACT:
        raise SchemaError("$.status", f"unknown status {status!r}")
    failures = []
    x = rep["x"]
    if x.shape != (p.n,):
        return False, [f"x has {x.shape[0]} entries, expected {p.n}"]
    if not is_feasible(p, x):
        failures.append("feasibility: x violates Ax <= b or a value set")
    recomputed = objective(p, x)
    if abs(recomputed - rep["objective"]) > 1e-9:
        failures.append(
            f"objective mismatch: reported {rep['objective']!r}, "
            f"recomputed {recomputed!r}")
    if status in (ORACLE_EXACT, ORACLE_FALLBACK):
        try:
            _, optimum, _, _ = enumerate_discrete(p)
        except (TooLarge, Infeasible) as exc:
            failures.append(f"optimality: the oracle cannot verify this "
                            f"{status} report: {exc}")
        else:
            if rep["objective"] > optimum + 1e-9 * (1 + abs(optimum)):
                failures.append(
                    f"optimality: reported {rep['objective']!r}, "
                    f"oracle optimum {optimum!r}")

    if status != ORACLE_EXACT:
        cert = _require_object(rep["certificate"], "$.certificate",
                               ("status",) + CERTIFICATE_NUMBERS)
        claimed = {key: (_require_gap if key == "gap" else _require_number)(
            cert[key], f"$.certificate.{key}") for key in CERTIFICATE_NUMBERS}
        dp = _require_object(rep["dual_point"], "$.dual_point",
                             ("sigma", "mu"))
        d = DualPoint(sigma=_parse_vector(dp["sigma"], "$.dual_point.sigma", p.m, "sigma"),
                      mu=_parse_vector(dp["mu"], "$.dual_point.mu", p.K, "mu"))
        cert2 = verify_kkt(p, x, d)
        if cert2.status != cert["status"]:
            failures.append(
                f"certificate status: claimed {cert['status']!r}, "
                f"re-verified {cert2.status!r}")
        for key, value in claimed.items():
            got = getattr(cert2, key)
            if not (value == got or abs(value - got) <= 1e-9):
                failures.append(
                    f"certificate {key}: reported {cert[key]!r}, "
                    f"recomputed {got!r}")
        if status not in (cert2.status, ORACLE_FALLBACK):
            failures.append(
                f"report status {status!r} inconsistent with certificate "
                f"{cert2.status!r}")
    return not failures, failures
