"""JSON (de)serialization with byte-deterministic output.

Problem files are objects with exactly the keys n, m, Q, c, A, b, U.
Emitted JSON uses a fixed key order and formats every float with 17
significant digits, which round-trips IEEE-754 doubles exactly — so
serialize -> parse -> serialize is byte-identical and reports can be
compared as bytes.  JSON has no infinity: the one non-finite number a
report can carry, the off-cone certificate gap, is the string
"Infinity".

:func:`check` re-verifies a report's certificate at the report's own x:
a certificate speaks for that point, whatever produced it, so a report
carries no selector y and no rounding rule.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import __version__
from .errors import DimensionError, Infeasible, SchemaError, TooLarge
from .lift import lift
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
# Not called here; perfbench/tracing.py wraps this name.
from .solver import round_binary  # noqa: F401

PROBLEM_KEYS = ("n", "m", "Q", "c", "A", "b", "U")
SOLVER_STATUSES = (CERTIFIED_GLOBAL, NO_CERTIFICATE, ORACLE_FALLBACK)
CERTIFICATE_NUMBERS = ("primal_feas_residual", "complementarity_residual",
                       "gap")
# The Python types json.loads gives a number; bool, a subclass of int,
# is deliberately not one of them.
_NUMBER_TYPES = {int, float}


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    v = float(v)
    if math.isfinite(v):
        return format(v, ".17g")
    # JSON has no non-finite numbers: write them as strings.
    return '"NaN"' if v != v else ('"Infinity"' if v > 0 else '"-Infinity"')


def _vec(values) -> str:
    return "[" + ", ".join(_fmt(v) for v in values) + "]"


def _mat(rows) -> str:
    return "[" + ", ".join(_vec(r) for r in rows) + "]"


def _obj(pairs) -> str:
    return "{\n" + ",\n".join(f'  "{k}": {v}' for k, v in pairs) + "\n}"


def emit_problem(p: DiscreteQP) -> bytes:
    pairs = [
        ("n", _fmt(p.n)),
        ("m", _fmt(p.m)),
        ("Q", _mat(p.Q)),
        ("c", _vec(p.c)),
        ("A", _mat(p.A)),
        ("b", _vec(p.b)),
        ("U", _mat(p.U)),
    ]
    return (_obj(pairs) + "\n").encode()


def emit_lifted(q: BinaryQP) -> bytes:
    pairs = [
        ("K", _fmt(q.K)),
        ("blocks", _mat(q.blocks)),
        ("B", _mat(q.B)),
        ("h", _vec(q.h)),
        ("D", _mat(q.D)),
        ("H", _mat(q.H)),
        ("b", _vec(q.b)),
        ("U_flat", _vec(q.U_flat)),
    ]
    return (_obj(pairs) + "\n").encode()


def emit_report(r: SolveReport, include_trace: bool = False) -> bytes:
    cert = r.certificate
    cert_pairs = ", ".join([
        f'"status": "{cert.status}"',
        f'"primal_feas_residual": {_fmt(cert.primal_feas_residual)}',
        f'"complementarity_residual": {_fmt(cert.complementarity_residual)}',
        f'"gap": {_fmt(cert.gap)}',
        f'"in_cone": {_fmt(cert.in_cone)}',
    ])
    d = r.dual_point
    dual_pairs = f'"sigma": {_vec(d.sigma)}, "mu": {_vec(d.mu)}'
    pairs = [
        ("version", f'"{__version__}"'),
        ("status", f'"{r.status}"'),
        ("x", _vec(r.x)),
        ("objective", _fmt(r.objective)),
        ("certificate", "{" + cert_pairs + "}"),
        ("dual_point", "{" + dual_pairs + "}"),
        ("iterations", _fmt(r.iterations)),
        ("solver_status", f'"{r.solver_status}"'),
        ("seconds", _fmt(r.seconds)),
    ]
    if include_trace:
        pairs.append(("trace", _vec(r.trace)))
    return (_obj(pairs) + "\n").encode()


def emit_toy_solution(x, primal: float, dual: float, sigma1: float) -> bytes:
    pairs = [
        ("sigma1", _fmt(sigma1)),
        ("x", _vec(x)),
        ("primal_value", _fmt(primal)),
        ("dual_value", _fmt(dual)),
    ]
    return (_obj(pairs) + "\n").encode()


def emit_oracle_report(x, value: float, feasible_count: int,
                       total_count: int, seconds: float) -> bytes:
    pairs = [
        ("version", f'"{__version__}"'),
        ("status", f'"{ORACLE_EXACT}"'),
        ("x", _vec(x)),
        ("objective", _fmt(value)),
        ("feasible_count", _fmt(feasible_count)),
        ("total_count", _fmt(total_count)),
        ("seconds", _fmt(seconds)),
    ]
    return (_obj(pairs) + "\n").encode()


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


def _numbers(v: list, path: str) -> np.ndarray:
    """The entries of a JSON array as a float array.

    One type test, one conversion and one finiteness test cover the whole
    array; only when one fails does the per-entry check run, to raise the
    SchemaError that names the first bad entry.
    """
    if set(map(type, v)) <= _NUMBER_TYPES:
        try:
            a = np.array(v, dtype=float)
        except OverflowError:
            pass
        else:
            if np.isfinite(a).all():
                return a
    return np.array([_require_number(x, f"{path}[{i}]")
                     for i, x in enumerate(v)], dtype=float)


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
    # Rows are converted one by one and stacked at the end, so the array
    # never outgrows what the file holds, whatever size it declares.
    out = []
    for i, row in enumerate(v):
        if not isinstance(row, list):
            raise SchemaError(f"{path}[{i}]", "expected an array")
        if len(row) != cols:
            raise DimensionError(field, f"({rows}, {cols})",
                                 f"row {i} has {len(row)} entries")
        out.append(_numbers(row, f"{path}[{i}]"))
    return np.array(out, dtype=float).reshape(rows, cols)


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
    if not isinstance(doc["U"], list) or len(doc["U"]) != n:
        raise SchemaError("$.U", f"expected {n} value sets")
    U = []
    for i, ui in enumerate(doc["U"]):
        if not isinstance(ui, list) or not ui:
            raise SchemaError(f"$.U[{i}]", "expected a non-empty array")
        vals = tuple(_numbers(ui, f"$.U[{i}]").tolist())
        if len(set(vals)) != len(vals):
            raise SchemaError(f"$.U[{i}]", "duplicate value in set")
        U.append(vals)
    return DiscreteQP(Q=Q, c=c, A=A, b=b, U=tuple(U))


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
    certificate re-verifying (same residuals, gap, and status from the
    reported x, sigma and mu).  The certificate is judged on the fixed
    cone mu >= MU_MIN and at the fixed gap tolerance TOL_GAP.  The ``y``,
    ``low_confidence_blocks``, ``tol_gap``, ``mu_min``, certificate
    ``dual_feas_residual`` and ``dual_point.tau`` keys of older reports
    are ignored, whatever they hold.  An
    OracleExact or OracleFallback report claims the enumerated optimum,
    so the oracle is re-run, at its one limit: the objective may exceed
    its optimum by at most 1e-9*(1+|optimum|), and a problem beyond that
    limit fails.
    Returns (passed, failures).

    The claimed ``in_cone`` must be true or false and equal the
    recomputed one.  A report with a solver status that lacks its
    certificate or dual point, or with an unknown status, is a
    SchemaError.
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
                               ("status", "in_cone") + CERTIFICATE_NUMBERS)
        if not isinstance(cert["in_cone"], bool):
            raise SchemaError("$.certificate.in_cone",
                              f"expected true or false, got "
                              f"{type(cert['in_cone']).__name__}")
        claimed = {key: (_require_gap if key == "gap" else _require_number)(
            cert[key], f"$.certificate.{key}") for key in CERTIFICATE_NUMBERS}
        dp = _require_object(rep["dual_point"], "$.dual_point",
                             ("sigma", "mu"))
        q = lift(p)
        d = DualPoint(sigma=_parse_vector(dp["sigma"], "$.dual_point.sigma", q.m, "sigma"),
                      mu=_parse_vector(dp["mu"], "$.dual_point.mu", q.K, "mu"))
        cert2 = verify_kkt(q, x, d)
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
        if cert["in_cone"] != cert2.in_cone:
            failures.append(
                f"certificate in_cone: reported {cert['in_cone']!r}, "
                f"recomputed {bool(cert2.in_cone)!r}")
        if status not in (cert2.status, ORACLE_FALLBACK):
            failures.append(
                f"report status {status!r} inconsistent with certificate "
                f"{cert2.status!r}")
    return not failures, failures
