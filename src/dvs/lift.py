"""Lifting between the discrete problem and its one-hot 0-1 form.

With ``M`` the block-diagonal matrix whose i-th block is the row of
candidate values ``U[i]``, the substitution ``x = M'y`` (y one-hot per
block) turns ``0.5 x'Qx - c'x`` into ``0.5 y'By - h'y`` with ``B = MQM'``
and ``h = M'c`` — entrywise ``B[(i,j),(k,l)] = Q[i,k] U[i][j] U[k][l]``,
which :class:`BinaryQP` derives on demand rather than storing.
The linear rows map the same way: ``D = AM'`` so ``Ax <= b`` becomes
``Dy <= b``; ``H`` sums each block so one-hot reads ``Hy = 1``.
"""

from __future__ import annotations

import numpy as np

from .errors import BlockViolation, ValueNotInSet
from .model import VALUE_MEMBERSHIP_TOL, BinaryQP, DiscreteQP


def lift(p: DiscreteQP) -> BinaryQP:
    """Build the lifted 0-1 problem for ``p``.

    Only O(mK) arrays are formed here; ``B`` and ``H`` are derived from
    ``Q`` and the block structure when first read.
    """
    sizes = [len(ui) for ui in p.U]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    blocks = tuple((int(offsets[i]), int(offsets[i + 1])) for i in range(p.n))
    U_flat = np.concatenate([np.asarray(ui, dtype=float) for ui in p.U])
    K = int(offsets[-1])
    h = np.repeat(p.c, sizes) * U_flat
    D = np.repeat(p.A, sizes, axis=1) * U_flat
    return BinaryQP(K=K, Q=p.Q, c=p.c, A=p.A, b=p.b, h=h, D=D,
                    blocks=blocks, U_flat=U_flat)


def recover_x(q: BinaryQP, y: np.ndarray) -> np.ndarray:
    """Map a one-hot y back to x, insisting on exactly one 1 per block.

    y entries must be exactly 0.0 or 1.0; rounding fractional iterates is
    the solver's job, not the decoder's.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (q.K,):
        raise ValueError(f"y has shape {y.shape}, expected ({q.K},)")
    if not np.all((y == 0.0) | (y == 1.0)):
        bad = int(np.flatnonzero((y != 0.0) & (y != 1.0))[0])
        raise ValueError(f"y[{bad}] = {y[bad]!r} is not 0 or 1")
    x = np.empty(q.n)
    for i, (s, e) in enumerate(q.blocks):
        sel = np.flatnonzero(y[s:e] == 1.0)
        if sel.size != 1:
            raise BlockViolation(i, sel.size)
        x[i] = q.U_flat[s + sel[0]]
    return x


def encode_y(p: DiscreteQP, x: np.ndarray) -> np.ndarray:
    """Produce the one-hot y encoding x, the inverse of :func:`recover_x`.

    Each x[i] must sit within VALUE_MEMBERSHIP_TOL of some member of U[i];
    the first match wins, and genuine ties cannot arise because value sets
    are duplicate-free.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (p.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({p.n},)")
    parts = []
    for i, ui in enumerate(p.U):
        d = np.abs(np.asarray(ui) - x[i])
        j = int(np.argmin(d))
        if d[j] > VALUE_MEMBERSHIP_TOL:
            raise ValueNotInSet(i, float(x[i]))
        part = np.zeros(len(ui))
        part[j] = 1.0
        parts.append(part)
    return np.concatenate(parts)
