"""Problem and solution data types plus objective/feasibility evaluation.

The original problem minimizes ``0.5 x'Qx - c'x`` subject to ``Ax <= b``
with each ``x[i]`` restricted to a finite value set ``U[i]``.  Its 0-1
lifting replaces ``x[i]`` by a one-hot selector block, giving a quadratic
over binary variables with the same optimal value.

All types are immutable after construction (arrays are marked read-only),
so values can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError

# Certificate / report status values.
CERTIFIED_GLOBAL = "CertifiedGlobal"
KKT_ONLY = "KKTOnly"
NO_CERTIFICATE = "NoCertificate"
ORACLE_FALLBACK = "OracleFallback"

VALUE_MEMBERSHIP_TOL = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.flags.writeable = False
    return a


def _check_shape(name, a, shape):
    if a.shape != shape:
        raise DimensionError(name, shape, a.shape)


@dataclass(frozen=True)
class DiscreteQP:
    """A quadratic objective over discrete value sets with Ax <= b.

    ``Q`` is symmetrized to ``(Q + Q') / 2`` on construction; the original
    matrix is not retained.  Value sets keep their user-given order, which
    fixes the coordinate order of the lifted 0-1 problem.
    """

    Q: np.ndarray
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    U: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise DimensionError("Q", "(n, n)", Q.shape)
        n = Q.shape[0]
        Q = _freeze((Q + Q.T) / 2.0)
        c = _freeze(np.asarray(self.c, dtype=float))
        _check_shape("c", c, (n,))
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[1] != n:
            raise DimensionError("A", f"(m, {n})", A.shape)
        m = A.shape[0]
        A = _freeze(A)
        b = _freeze(np.asarray(self.b, dtype=float))
        _check_shape("b", b, (m,))
        U = tuple(tuple(float(v) for v in ui) for ui in self.U)
        if len(U) != n:
            raise DimensionError("U", f"{n} value sets", f"{len(U)} value sets")
        for i, ui in enumerate(U):
            if not ui:
                raise ValueError(f"U[{i}] is empty")
            if len(set(ui)) != len(ui):
                raise ValueError(f"U[{i}] contains duplicate values")
        for name, value in (("Q", Q), ("c", c), ("A", A), ("b", b), ("U", U)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class BinaryQP:
    """The lifted 0-1 problem: minimize 0.5 y'By - h'y over one-hot blocks.

    ``blocks[i]`` is the half-open index range of variable i's selector
    coordinates; ``U_flat`` holds the candidate values in block order.  All
    modules index through ``blocks`` rather than recomputing offsets.
    """

    K: int
    B: np.ndarray
    h: np.ndarray
    D: np.ndarray
    H: np.ndarray
    b: np.ndarray
    blocks: tuple[tuple[int, int], ...]
    U_flat: np.ndarray

    def __post_init__(self):
        K = int(self.K)
        B = _freeze(np.asarray(self.B, dtype=float))
        _check_shape("B", B, (K, K))
        if not np.array_equal(B, B.T):
            raise ValueError("B is not exactly symmetric")
        h = _freeze(np.asarray(self.h, dtype=float))
        _check_shape("h", h, (K,))
        D = np.asarray(self.D, dtype=float)
        if D.ndim != 2 or D.shape[1] != K:
            raise DimensionError("D", f"(m, {K})", D.shape)
        m = D.shape[0]
        D = _freeze(D)
        b = _freeze(np.asarray(self.b, dtype=float))
        _check_shape("b", b, (m,))
        blocks = tuple((int(s), int(e)) for s, e in self.blocks)
        if sum(e - s for s, e in blocks) != K:
            raise ValueError("block lengths do not sum to K")
        n = len(blocks)
        H = np.asarray(self.H, dtype=float)
        _check_shape("H", H, (n, K))
        for i, (s, e) in enumerate(blocks):
            row = np.zeros(K)
            row[s:e] = 1.0
            if not np.array_equal(H[i], row):
                raise ValueError(f"H row {i} does not select block {i}")
        H = _freeze(H)
        U_flat = _freeze(np.asarray(self.U_flat, dtype=float))
        _check_shape("U_flat", U_flat, (K,))
        for name, value in (("K", K), ("B", B), ("h", h), ("D", D), ("H", H),
                            ("b", b), ("blocks", blocks), ("U_flat", U_flat)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.blocks)

    @property
    def m(self) -> int:
        return self.D.shape[0]


@dataclass(frozen=True)
class DualPoint:
    """Dual variables: sigma for Ax<=b rows, tau for the one-hot equalities
    (sign-unconstrained), mu for the Hadamard constraint."""

    sigma: np.ndarray
    tau: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        for name in ("sigma", "tau", "mu"):
            a = _freeze(np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
            if a.ndim != 1:
                raise DimensionError(name, "(k,)", a.shape)
            object.__setattr__(self, name, a)


@dataclass(frozen=True)
class Certificate:
    """KKT residuals, duality gap and the cone-membership verdict.

    ``status`` is CertifiedGlobal only when the dual point lies in the
    positive-definite dual cone and every residual passed its tolerance,
    which is checked where the certificate is assembled.
    """

    primal_feas_residual: float
    dual_feas_residual: float
    complementarity_residual: float
    gap: float
    in_cone: bool
    status: str

    def __post_init__(self):
        if self.status == CERTIFIED_GLOBAL and not self.in_cone:
            raise ValueError("CertifiedGlobal requires cone membership")


@dataclass(frozen=True)
class SolveReport:
    """Everything a solve produced: recovered point, certificate, trace.

    ``tol_gap`` and ``mu_min`` record the tolerances the certificate was
    judged against, so an emitted report can be re-verified later without
    access to the original solver configuration.
    """

    x: np.ndarray
    objective: float
    certificate: Certificate
    dual_point: DualPoint
    y: np.ndarray
    iterations: int
    status: str
    solver_status: str
    low_confidence_blocks: tuple[int, ...] = ()
    trace: tuple[float, ...] = ()
    seconds: float = 0.0
    tol_gap: float = 1e-6
    mu_min: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "x", _freeze(self.x))
        object.__setattr__(self, "y", _freeze(self.y))
        object.__setattr__(self, "trace", tuple(float(v) for v in self.trace))
        object.__setattr__(
            self, "low_confidence_blocks",
            tuple(int(i) for i in self.low_confidence_blocks))


def objective(p: DiscreteQP, x: np.ndarray) -> float:
    """Evaluate 0.5 x'Qx - c'x."""
    x = np.asarray(x, dtype=float)
    _check_shape("x", x, (p.n,))
    return float(0.5 * x @ p.Q @ x - p.c @ x)


def is_feasible(p: DiscreteQP, x: np.ndarray, tol: float = VALUE_MEMBERSHIP_TOL) -> bool:
    """True iff Ax <= b + tol and every x[i] is within tol of a U[i] member."""
    x = np.asarray(x, dtype=float)
    _check_shape("x", x, (p.n,))
    if p.m and np.any(p.A @ x > p.b + tol):
        return False
    for i, ui in enumerate(p.U):
        if min(abs(x[i] - u) for u in ui) > tol:
            return False
    return True


def binary_objective(q: BinaryQP, y: np.ndarray) -> float:
    """Evaluate 0.5 y'By - h'y on the lifted problem."""
    y = np.asarray(y, dtype=float)
    _check_shape("y", y, (q.K,))
    return float(0.5 * y @ q.B @ y - q.h @ y)
