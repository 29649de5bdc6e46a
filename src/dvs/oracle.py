"""Exhaustive enumeration — ground truth for desk-scale instances.

Deliberately naive: every selection is evaluated from scratch (no
pruning, no incremental updates) so the oracle cannot share failure
modes with the solver.  Selections are visited in lexicographic block
order (last block varies fastest), so a value tie goes to the
lexicographically smallest selection: the first minimum visited.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import Infeasible, TooLarge
from .model import VALUE_MEMBERSHIP_TOL, BinaryQP, DiscreteQP

DEFAULT_LIMIT = 20_000_000
_CHUNK = 65536


def _radices(sizes: list[int]) -> np.ndarray:
    """Place values for mixed-radix decoding, last position fastest."""
    rad = np.ones(len(sizes), dtype=np.int64)
    for i in range(len(sizes) - 2, -1, -1):
        rad[i] = rad[i + 1] * sizes[i + 1]
    return rad


def enumerate_discrete(p: DiscreteQP) -> tuple[np.ndarray, float, int, int]:
    """Minimize over every selection from the value sets, subject to Ax<=b.

    Returns (x_best, value, feasible_count, total_count).  More than
    ``DEFAULT_LIMIT`` selections is TooLarge: ``dvs oracle``, the fallback
    of ``solve`` and ``dvs check`` share that one limit, so every oracle
    answer can be verified again.
    """
    sizes = [len(ui) for ui in p.U]
    total = math.prod(sizes)
    if total > DEFAULT_LIMIT:
        raise TooLarge(total, DEFAULT_LIMIT)
    rad = _radices(sizes)
    cols = [np.asarray(ui, dtype=float) for ui in p.U]

    best_value = math.inf
    best_index = -1
    feasible = 0
    for lo in range(0, total, _CHUNK):
        flat = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        X = np.empty((flat.size, p.n))
        for i in range(p.n):
            X[:, i] = cols[i][(flat // rad[i]) % sizes[i]]
        feas = np.all(X @ p.A.T <= p.b + VALUE_MEMBERSHIP_TOL, axis=1)
        nf = int(feas.sum())
        feasible += nf
        if nf == 0:
            continue
        Xf = X[feas]
        vals = 0.5 * np.einsum("ij,ij->i", Xf @ p.Q, Xf) - Xf @ p.c
        k = int(np.argmin(vals))
        v = float(vals[k])
        if v < best_value:
            best_value = v
            best_index = int(flat[feas][k])
    if feasible == 0:
        raise Infeasible("no selection satisfies Ax <= b")
    x = np.array([cols[i][(best_index // rad[i]) % sizes[i]]
                  for i in range(p.n)])
    return x, best_value, feasible, total


def enumerate_binary(q: BinaryQP) -> tuple[np.ndarray, float]:
    """Minimize 0.5 y'By - h'y over one-hot y with Dy <= b.

    Evaluates B, h, D directly through the selected coordinate indices —
    deliberately independent of the decoding in the lift module — so the
    equivalence of the lifted and original problems can be machine-checked.
    """
    sizes, starts = q.sizes.tolist(), q.starts
    total = math.prod(sizes)
    if total > DEFAULT_LIMIT:
        raise TooLarge(total, DEFAULT_LIMIT)
    rad = _radices(sizes)
    # The B gather materializes chunk*n*n floats; keep it bounded.
    chunk = max(1, min(_CHUNK, 4_000_000 // (q.n * q.n)))

    best_value = math.inf
    best_index = -1
    feasible = 0
    for lo in range(0, total, chunk):
        flat = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        sel = np.empty((flat.size, q.n), dtype=np.int64)
        for i in range(q.n):
            sel[:, i] = starts[i] + (flat // rad[i]) % sizes[i]
        dy = q.D.T[sel].sum(axis=1)
        feas = np.all(dy <= q.b + VALUE_MEMBERSHIP_TOL, axis=1)
        nf = int(feas.sum())
        feasible += nf
        if nf == 0:
            continue
        sf = sel[feas]
        vals = (0.5 * q.B[sf[:, :, None], sf[:, None, :]].sum(axis=(1, 2))
                - q.h[sf].sum(axis=1))
        k = int(np.argmin(vals))
        v = float(vals[k])
        if v < best_value:
            best_value = v
            best_index = int(flat[feas][k])
    if feasible == 0:
        raise Infeasible("no one-hot selection satisfies Dy <= b")
    y = np.zeros(q.K)
    for i in range(q.n):
        y[starts[i] + (best_index // rad[i]) % sizes[i]] = 1.0
    return y, best_value
