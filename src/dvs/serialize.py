"""JSON (de)serialization with byte-deterministic output.

Problem files are objects with exactly the keys n, m, Q, c, A, b, U.
Emitted JSON uses a fixed key order and formats every float with 17
significant digits, which round-trips IEEE-754 doubles exactly — so
serialize -> parse -> serialize is byte-identical and reports can be
compared as bytes.  JSON has no infinity: the one non-finite number a
report can carry, the off-cone certificate gap, is the string
"Infinity".
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import __version__
from .errors import DimensionError, SchemaError
from .lift import lift
from .model import (
    MU_MIN,
    TOL_GAP,
    BinaryQP,
    DiscreteQP,
    DualPoint,
    SolveReport,
    is_feasible,
    objective,
)
from .solver import round_binary, verify_kkt

PROBLEM_KEYS = ("n", "m", "Q", "c", "A", "b", "U")
CERTIFICATE_NUMBERS = ("primal_feas_residual", "dual_feas_residual",
                       "complementarity_residual", "gap")


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
        f'"dual_feas_residual": {_fmt(cert.dual_feas_residual)}',
        f'"complementarity_residual": {_fmt(cert.complementarity_residual)}',
        f'"gap": {_fmt(cert.gap)}',
        f'"in_cone": {_fmt(cert.in_cone)}',
    ])
    d = r.dual_point
    dual_pairs = ", ".join([
        f'"sigma": {_vec(d.sigma)}',
        f'"tau": {_vec(d.tau)}',
        f'"mu": {_vec(d.mu)}',
    ])
    pairs = [
        ("version", f'"{__version__}"'),
        ("status", f'"{r.status}"'),
        ("x", _vec(r.x)),
        ("objective", _fmt(r.objective)),
        ("certificate", "{" + cert_pairs + "}"),
        ("dual_point", "{" + dual_pairs + "}"),
        ("y", _vec(r.y)),
        ("iterations", _fmt(r.iterations)),
        ("solver_status", f'"{r.solver_status}"'),
        ("low_confidence_blocks", _vec(r.low_confidence_blocks)),
        ("tol_gap", _fmt(r.tol_gap)),
        ("mu_min", _fmt(r.mu_min)),
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
        ("status", '"OracleExact"'),
        ("x", _vec(x)),
        ("objective", _fmt(value)),
        ("feasible_count", _fmt(feasible_count)),
        ("total_count", _fmt(total_count)),
        ("seconds", _fmt(seconds)),
    ]
    return (_obj(pairs) + "\n").encode()


def _load(data) -> object:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from None


def _require_number(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(v).__name__}")
    if not math.isfinite(v):
        raise SchemaError(path, f"non-finite number {v}")
    return float(v)


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
    return np.array([_require_number(x, f"{path}[{i}]")
                     for i, x in enumerate(v)])


def _parse_matrix(v, path: str, rows: int, cols: int, field: str) -> np.ndarray:
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
        out[i] = [_require_number(x, f"{path}[{i}][{j}]")
                  for j, x in enumerate(row)]
    return out


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
        vals = tuple(_require_number(x, f"$.U[{i}][{j}]")
                     for j, x in enumerate(ui))
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
    doc["x"] = np.array([_require_number(v, f"$.x[{i}]")
                         for i, v in enumerate(doc["x"])])
    doc["objective"] = _require_number(doc["objective"], "$.objective")
    return doc


def check(problem_data, report_data) -> tuple[bool, list[str]]:
    """Re-verify a report against its problem from scratch.

    PASS requires: x feasible, the objective matching a recomputation
    within 1e-9, and — when the report carries a certificate — the
    certificate re-verifying (same residuals, gap, and status from the
    reported sigma, mu and the x the reported y rounds to; tau is
    recomputed, so the reported tau is informational).  The certificate
    is judged at the report's tol_gap or TOL_GAP, whichever is tighter,
    so a report cannot loosen its own test.  Returns (passed, failures).
    """
    p = parse_problem(problem_data)
    rep = parse_report(report_data)
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

    has_cert = all(k in rep for k in ("certificate", "dual_point", "y"))
    if has_cert:
        cert = _require_object(rep["certificate"], "$.certificate",
                               ("status",) + CERTIFICATE_NUMBERS)
        claimed = {key: (_require_gap if key == "gap" else _require_number)(
            cert[key], f"$.certificate.{key}") for key in CERTIFICATE_NUMBERS}
        dp = _require_object(rep["dual_point"], "$.dual_point",
                             ("sigma", "tau", "mu"))
        q = lift(p)
        y = _parse_vector(rep["y"], "$.y", q.K, "y")
        d = DualPoint(sigma=_parse_vector(dp["sigma"], "$.dual_point.sigma", q.m, "sigma"),
                      tau=_parse_vector(dp["tau"], "$.dual_point.tau", q.n, "tau"),
                      mu=_parse_vector(dp["mu"], "$.dual_point.mu", q.K, "mu"))
        tol_gap = _require_number(rep.get("tol_gap", TOL_GAP), "$.tol_gap")
        mu_min = _require_number(rep.get("mu_min", MU_MIN), "$.mu_min")
        x_y, _ = round_binary(y, q)
        cert2 = verify_kkt(q, x_y, d, tol_gap=min(tol_gap, TOL_GAP),
                           mu_min=mu_min)
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
        status = rep["status"]
        if status not in (cert2.status, "OracleFallback"):
            failures.append(
                f"report status {status!r} inconsistent with certificate "
                f"{cert2.status!r}")
        if status != "OracleFallback":
            if not np.array_equal(x_y, x):
                failures.append("x does not decode from the reported y")
    return not failures, failures
