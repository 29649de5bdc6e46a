"""Problem and solution data types plus objective/feasibility evaluation.

The original problem minimizes ``0.5 x'Qx - c'x`` subject to ``Ax <= b``
with each ``x[i]`` restricted to a finite value set ``U[i]``.  Its 0-1
lifting replaces ``x[i]`` by a one-hot selector block, giving a quadratic
over binary variables with the same optimal value.

All types are immutable after construction (arrays are marked read-only),
so values can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import DimensionError

# Certificate / report status values.
CERTIFIED_GLOBAL = "CertifiedGlobal"
NO_CERTIFICATE = "NoCertificate"
ORACLE_FALLBACK = "OracleFallback"
ORACLE_EXACT = "OracleExact"

VALUE_MEMBERSHIP_TOL = 1e-9
# The certificate's fixed relative duality-gap tolerance, and the fixed
# floor of its cone: mu >= MU_MIN is the computable stand-in for mu > 0.
TOL_GAP = 1e-6
MU_MIN = 1e-8


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
        if n == 0:
            raise ValueError("n = 0: the problem has no variables")
        # The symmetrized Q is a new array, so it is frozen without a copy.
        Q = (Q + Q.T) / 2.0
        Q.flags.writeable = False
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
            if not all(map(math.isfinite, ui)):
                raise ValueError(f"U[{i}] has a non-finite entry")
        for name, value in (("Q", Q), ("c", c), ("A", A), ("b", b)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} has a non-finite entry")
        for name, value in (("Q", Q), ("c", c), ("A", A), ("b", b), ("U", U)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True, eq=False)
class BinaryQP:
    """The lifted 0-1 problem of ``p``: minimize 0.5 y'By - h'y over one-hot
    blocks with Dy <= b.

    With ``M`` the K-by-n block matrix of candidate values, ``B = MQM'``,
    ``h = Mc``, ``D = AM'`` and ``H`` sums each block.  ``p``'s validated
    ``Q``, ``c``, ``A``, ``b`` are shared, not copied; ``h``, ``D``, ``B``,
    ``H``, ``blocks`` and ``alpha_base`` are derived on first read, and of
    the lifted arrays the solve and check paths read only ``D``, in the
    ascent's gradient.  ``U_flat``
    holds the candidate values in block order, and the block index arrays
    below are built once here, so no other module recomputes offsets:

    * ``block_of[k]``: the block of coordinate k;
    * ``starts``, ``sizes``: each block's first coordinate and length;
    * ``pad``: an n-by-max(sizes) gather of each block's coordinates,
      padded with the block's first coordinate.
    """

    p: DiscreteQP = field(repr=False)

    def __post_init__(self):
        p = self.p
        sizes = np.array([len(ui) for ui in p.U], dtype=np.intp)
        starts = np.cumsum(sizes) - sizes
        block_of = np.repeat(np.arange(p.n), sizes)
        offset = np.arange(sizes.max())
        pad = starts[:, None] + np.where(offset < sizes[:, None], offset, 0)
        U_flat = np.concatenate(p.U)
        for a in (sizes, starts, block_of, pad, U_flat):
            a.flags.writeable = False
        for name, value in (("Q", p.Q), ("c", p.c), ("A", p.A), ("b", p.b),
                            ("n", p.n), ("m", p.m), ("K", int(sizes.sum())),
                            ("U_flat", U_flat), ("block_of", block_of),
                            ("starts", starts), ("sizes", sizes), ("pad", pad)):
            object.__setattr__(self, name, value)

    @cached_property
    def h(self) -> np.ndarray:
        """The lifted linear term ``h[k] = c[i] u_k``."""
        return _freeze(np.repeat(self.c, self.sizes) * self.U_flat)

    @cached_property
    def D(self) -> np.ndarray:
        """The m-by-K lifted constraint rows ``D[r, k] = A[r, i] u_k``."""
        return _freeze(np.repeat(self.A, self.sizes, axis=1) * self.U_flat)

    @cached_property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        """Each block's half-open coordinate range ``(start, end)``."""
        return tuple((int(s), int(s + z))
                     for s, z in zip(self.starts, self.sizes))

    @cached_property
    def B(self) -> np.ndarray:
        """The K-by-K lifted quadratic ``B[k, l] = Q[i, j] u_k u_l``."""
        i = self.block_of
        return _freeze(self.Q[i][:, i] * np.outer(self.U_flat, self.U_flat))

    @cached_property
    def H(self) -> np.ndarray:
        """The n-by-K one-hot block selector: ``H[i, k] = 1`` iff k in block i."""
        return _freeze(self.block_of == np.arange(self.n)[:, None])

    @cached_property
    def alpha_base(self) -> np.ndarray:
        """``1 - sizes / 2``, the constant term of the kernel's alpha."""
        return _freeze(1.0 - 0.5 * self.sizes)

    def block_sums(self, v: np.ndarray) -> np.ndarray:
        """The per-block sums ``H v`` of a K-vector."""
        return np.add.reduceat(v, self.starts)


def lift(p: DiscreteQP) -> BinaryQP:
    """The lifted 0-1 problem for ``p``: with y one-hot per block, x = M'y
    turns 0.5 x'Qx - c'x into 0.5 y'By - h'y and Ax <= b into Dy <= b;
    ``B``, ``H``, ``h`` and ``D`` are derived when first read."""
    return BinaryQP(p)


@dataclass(frozen=True)
class DualPoint:
    """A point of the tau-eliminated dual: sigma for the Ax<=b rows, mu for
    the Hadamard constraint; the one-hot multipliers tau are maximized out."""

    sigma: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        for name in ("sigma", "mu"):
            a = _freeze(np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
            if a.ndim != 1:
                raise DimensionError(name, "(k,)", a.shape)
            object.__setattr__(self, name, a)


@dataclass(frozen=True)
class Certificate:
    """A point x's certificate: status, largest violation of Ax <= b, and
    the gap |objective - dual value|, infinite off the cone (dual -inf).

    CertifiedGlobal means x satisfies Ax <= b within VALUE_MEMBERSHIP_TOL
    and the gap is at most TOL_GAP (1 + |objective|): by weak duality the
    dual value bounds every feasible selection's objective from below.
    Only that status's finite gap is checked here.
    """

    status: str
    primal_feas_residual: float
    gap: float

    def __post_init__(self):
        if self.status == CERTIFIED_GLOBAL and not math.isfinite(self.gap):
            raise ValueError("CertifiedGlobal requires a finite gap")


@dataclass(frozen=True)
class SolveReport:
    """Everything a solve produced: the point x, x's certificate, trace.

    Every certificate is judged at the fixed gap tolerance ``TOL_GAP`` on
    the cone floor ``MU_MIN``.  ``tol_gap`` is that constant, a class
    attribute rather than a field; reports do not carry it.
    """

    x: np.ndarray
    objective: float
    certificate: Certificate
    dual_point: DualPoint
    iterations: int
    status: str
    solver_status: str
    trace: tuple[float, ...] = ()
    seconds: float = 0.0
    tol_gap: ClassVar[float] = TOL_GAP

    def __post_init__(self):
        object.__setattr__(self, "x", _freeze(self.x))
        object.__setattr__(self, "trace", tuple(float(v) for v in self.trace))


def objective(p: DiscreteQP, x: np.ndarray) -> float:
    """Evaluate 0.5 x'Qx - c'x."""
    x = np.asarray(x, dtype=float)
    _check_shape("x", x, (p.n,))
    return float(0.5 * x @ p.Q @ x - p.c @ x)


def is_feasible(p: DiscreteQP, x: np.ndarray) -> bool:
    """True iff Ax <= b and every x[i] is in U[i], up to VALUE_MEMBERSHIP_TOL."""
    x = np.asarray(x, dtype=float)
    _check_shape("x", x, (p.n,))
    if np.any(p.A @ x > p.b + VALUE_MEMBERSHIP_TOL):
        return False
    for i, ui in enumerate(p.U):
        if min(abs(x[i] - u) for u in ui) > VALUE_MEMBERSHIP_TOL:
            return False
    return True
