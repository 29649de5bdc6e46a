"""Lifting between the discrete problem and its one-hot 0-1 form.

With ``M`` the block-diagonal matrix whose i-th block is the row of
candidate values ``U[i]``, the substitution ``x = M'y`` (y one-hot per
block) turns ``0.5 x'Qx - c'x`` into ``0.5 y'By - h'y`` with ``B = MQM'``
and ``h = M'c`` — entrywise ``B[(i,j),(k,l)] = Q[i,k] U[i][j] U[k][l]``.
The linear rows map the same way: ``D = AM'`` so ``Ax <= b`` becomes
``Dy <= b``; ``H`` sums each block so one-hot reads ``Hy = 1``.
:class:`BinaryQP` derives all four from ``p`` on first read.
"""

from __future__ import annotations

from .model import BinaryQP, DiscreteQP


def lift(p: DiscreteQP) -> BinaryQP:
    """The lifted 0-1 problem for ``p``; ``B``, ``H``, ``h`` and ``D`` are
    derived when first read."""
    return BinaryQP(p)

