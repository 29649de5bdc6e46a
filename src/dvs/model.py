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
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
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
    """A read-only float copy of an array the caller may still hold."""
    return _readonly(np.array(a, dtype=float, copy=True))


def _readonly(a: np.ndarray) -> np.ndarray:
    """``a`` itself, marked read-only: for arrays no one else holds."""
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

    The value sets' flat layout is derived from ``U`` on first read, once
    per problem, so no other module recomputes offsets: ``U_flat`` holds
    the K candidate values in block order, ``block_of[k]`` is the block of
    coordinate k, and ``starts`` and ``sizes`` are each block's first
    coordinate and length.  The solver, ``dvs check``, :func:`is_feasible`
    and :func:`lift` read it; the oracle decodes ``U`` itself.
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
        # The symmetrized Q is a new array, halved in place and frozen
        # without a copy.  An overflow in it is named below, not warned of.
        raw = Q
        with np.errstate(over="ignore", invalid="ignore"):
            Q = raw + raw.T
        Q /= 2.0
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
        # Each set's entries as floats, mapped without a Python-level loop.
        U = tuple(map(tuple, map(map, repeat(float), self.U)))
        if len(U) != n:
            raise DimensionError("U", f"{n} value sets", f"{len(U)} value sets")
        # All sets are tested in one pass: set() drops a set's duplicate
        # values, and a non-finite entry makes the sum non-finite (so does
        # a finite sum that overflows, which the walk below then passes).
        if not (all(U) and sum(map(len, map(set, U))) == sum(map(len, U))
                and math.isfinite(sum(chain.from_iterable(U)))):
            # The set-by-set walk names the first bad set.
            for i, ui in enumerate(U):
                if not ui:
                    raise ValueError(f"U[{i}] is empty")
                if len(set(ui)) != len(ui):
                    raise ValueError(f"U[{i}] contains duplicate values")
                if not all(map(math.isfinite, ui)):
                    raise ValueError(f"U[{i}] has a non-finite entry")
        for name, value in (("Q", Q), ("c", c), ("A", A), ("b", b)):
            if not np.isfinite(value).all():
                if value is Q and np.isfinite(raw).all():
                    raise ValueError("the symmetrization of Q overflows")
                raise ValueError(f"{name} has a non-finite entry")
        for name, value in (("Q", Q), ("c", c), ("A", A), ("b", b), ("U", U)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @cached_property
    def sizes(self) -> np.ndarray:
        return _readonly(np.fromiter(map(len, self.U), np.intp, self.n))

    @cached_property
    def starts(self) -> np.ndarray:
        return _readonly(np.cumsum(self.sizes) - self.sizes)

    @cached_property
    def block_of(self) -> np.ndarray:
        return _readonly(np.repeat(np.arange(self.n), self.sizes))

    @cached_property
    def U_flat(self) -> np.ndarray:
        return _readonly(np.fromiter(chain.from_iterable(self.U), float,
                                     int(self.sizes.sum())))

    @property
    def K(self) -> int:
        return len(self.U_flat)

    @cached_property
    def alpha_base(self) -> np.ndarray:
        """``1 - sizes / 2``, the constant term of the kernel's alpha."""
        return _readonly(1.0 - 0.5 * self.sizes)

    @cached_property
    def pad(self) -> np.ndarray:
        """An n-by-max(sizes) gather of each block's coordinates, padded
        with the block's first coordinate."""
        offset = np.arange(self.sizes.max())
        return _readonly(self.starts[:, None]
                         + np.where(offset < self.sizes[:, None], offset, 0))

    def block_sums(self, v: np.ndarray) -> np.ndarray:
        """The per-block sums of a K-vector."""
        return np.add.reduceat(v, self.starts)


@dataclass(frozen=True, eq=False)
class BinaryQP:
    """A lifted 0-1 problem: minimize 0.5 y'By - h'y over one-hot y with
    Dy <= b, ``blocks`` holding each block's half-open coordinate range.
    Its fields are the keys of the file ``dvs lift`` writes, in file order,
    and its arrays are read-only.  Only ``dvs lift`` and the tests build
    one; ``solve`` and ``dvs check`` work on the DiscreteQP alone."""

    K: int
    blocks: tuple[tuple[int, int], ...]
    B: np.ndarray
    h: np.ndarray
    D: np.ndarray
    H: np.ndarray
    b: np.ndarray
    U_flat: np.ndarray

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @property
    def m(self) -> int:
        return self.D.shape[0]


def lift(p: DiscreteQP) -> BinaryQP:
    """The lifted 0-1 problem for ``p``: with y one-hot per block, x = M'y
    turns 0.5 x'Qx - c'x into 0.5 y'By - h'y and Ax <= b into Dy <= b.
    For coordinate k of block i and l of block j, ``B[k, l] = Q[i, j] u_k
    u_l``, ``h[k] = c[i] u_k``, ``D[r, k] = A[r, i] u_k`` and ``H[i, k] =
    1``; ``b`` and ``U_flat`` are ``p``'s.  Data for which an entry of B,
    h or D overflows doubles are a ValueError."""
    i, u = p.block_of, p.U_flat
    with np.errstate(over="ignore", invalid="ignore"):
        B, h, D = p.Q[i][:, i] * np.outer(u, u), p.c[i] * u, p.A[:, i] * u
    if not all(np.isfinite(a).all() for a in (B, h, D)):
        raise ValueError("the lifted problem overflows doubles")
    return BinaryQP(
        K=p.K,
        blocks=tuple((int(s), int(s + z)) for s, z in zip(p.starts, p.sizes)),
        B=_readonly(B), h=_readonly(h), D=_readonly(D),
        H=_readonly((i == np.arange(p.n)[:, None]).astype(float)),
        b=p.b, U_flat=u)


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
    and the gap is at most TOL_GAP (1 + |objective|), so by weak duality
    no feasible selection lies more than TOL_GAP (1 + |objective|) below
    x; x itself need not be a minimizer.  Only that status's finite gap is
    checked here.
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
    """True iff Ax <= b and every x[i] is in U[i], up to VALUE_MEMBERSHIP_TOL.

    Both tests ask that every row and every block be within tolerance, so
    a NaN coordinate, which no comparison holds for, is infeasible.  The
    blocks are read through ``p``'s value-set layout in one pass.
    """
    x = np.asarray(x, dtype=float)
    _check_shape("x", x, (p.n,))
    tol = VALUE_MEMBERSHIP_TOL
    return bool((p.A @ x <= p.b + tol).all() and (np.minimum.reduceat(
        np.abs(x[p.block_of] - p.U_flat), p.starts) <= tol).all())
