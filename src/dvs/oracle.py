"""Exhaustive enumeration — ground truth for desk-scale instances.

Deliberately naive: every selection is evaluated from scratch (no
pruning, no incremental updates) so the oracle cannot share failure
modes with the solver.  Both oracles number selection k as
``np.unravel_index(k, sizes)`` (last block fastest) and share one loop
that keeps the first minimum, so a value tie goes to the
lexicographically smallest selection; only the scoring is kept apart.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import Infeasible, TooLarge
from .model import VALUE_MEMBERSHIP_TOL, BinaryQP, DiscreteQP, objective

DEFAULT_LIMIT = 20_000_000
_CHUNK = 65536


def _search(sizes, chunk, evaluate, infeasible):
    """First minimum over every selection, ``chunk`` selections at a time.

    ``evaluate(idx)`` gets a C-ordered array with one row of value indices
    per selection and returns the feasible rows' mask and their values.
    Returns (the best row, value, feasible_count, total_count).
    """
    total = math.prod(sizes)
    if total > DEFAULT_LIMIT:
        raise TooLarge(total, DEFAULT_LIMIT)
    best_value, best, feasible = math.inf, None, 0
    for lo in range(0, total, chunk):
        flat = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        idx = np.array(np.unravel_index(flat, sizes)).T.copy()
        feas, vals = evaluate(idx)
        feasible += vals.size
        if vals.size:
            k = int(np.argmin(vals))
            if vals[k] < best_value:
                best_value, best = float(vals[k]), idx[feas][k]
    if feasible == 0:
        raise Infeasible(infeasible)
    return best, best_value, feasible, total


def enumerate_discrete(p: DiscreteQP) -> tuple[np.ndarray, float, int, int]:
    """Minimize over every selection from the value sets, subject to Ax<=b.

    Returns (x_best, value, feasible_count, total_count), ``value`` being
    :func:`dvs.model.objective` at x_best, as in every report: the batch
    scores, whose last bits depend on the chunk, only choose x_best.  More
    than ``DEFAULT_LIMIT`` selections is TooLarge: ``dvs oracle``, the
    fallback of ``solve`` and ``dvs check`` share that one limit, so every
    oracle answer can be verified again.
    """
    cols = [np.asarray(ui, dtype=float) for ui in p.U]

    def evaluate(idx):
        X = np.empty(idx.shape)
        for i, u in enumerate(cols):
            X[:, i] = u[idx[:, i]]
        feas = np.all(X @ p.A.T <= p.b + VALUE_MEMBERSHIP_TOL, axis=1)
        Xf = X[feas]
        return feas, 0.5 * np.einsum("ij,ij->i", Xf @ p.Q, Xf) - Xf @ p.c

    best, _, feasible, total = _search(
        [len(ui) for ui in p.U], _CHUNK, evaluate,
        "no selection satisfies Ax <= b")
    x = np.array([u[j] for u, j in zip(cols, best)])
    return x, objective(p, x), feasible, total


def enumerate_binary(q: BinaryQP) -> tuple[np.ndarray, float]:
    """Minimize 0.5 y'By - h'y over one-hot y with Dy <= b.

    Shares the numbering and loop of :func:`enumerate_discrete`, but scores
    B, h, D directly through the selected coordinate indices —
    deliberately independent of the decoding in the lift module — so the
    equivalence of the lifted and original problems can be machine-checked.
    """
    def evaluate(idx):
        sel = q.starts + idx
        feas = np.all(q.D.T[sel].sum(axis=1) <= q.b + VALUE_MEMBERSHIP_TOL,
                      axis=1)
        sf = sel[feas]
        return feas, (0.5 * q.B[sf[:, :, None], sf[:, None, :]].sum(axis=(1, 2))
                      - q.h[sf].sum(axis=1))

    # The B gather materializes chunk*n*n floats; keep it bounded.
    chunk = max(1, min(_CHUNK, 4_000_000 // (q.n * q.n)))
    best, value, _, _ = _search(q.sizes.tolist(), chunk, evaluate,
                                "no one-hot selection satisfies Dy <= b")
    y = np.zeros(q.K)
    y[q.starts + best] = 1.0
    return y, value
