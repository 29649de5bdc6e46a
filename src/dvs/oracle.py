"""Exhaustive enumeration — ground truth for desk-scale instances.

Deliberately naive: every selection is evaluated from scratch (no
pruning, no incremental updates) so the oracle cannot share failure
modes with the solver.  Selection k is ``np.unravel_index(k, sizes)``
(last block fastest) and the first minimum is kept, so a value tie goes
to the lexicographically smallest selection.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import Infeasible, TooLarge
from .model import VALUE_MEMBERSHIP_TOL, DiscreteQP, objective

DEFAULT_LIMIT = 20_000_000
_CHUNK = 65536


def enumerate_discrete(p: DiscreteQP) -> tuple[np.ndarray, float, int, int]:
    """Minimize over every selection from the value sets, subject to Ax<=b.

    Returns (x_best, value, feasible_count, total_count), ``value`` being
    :func:`dvs.model.objective` at x_best, as in every report: the batch
    scores of ``_CHUNK`` selections at a time, whose last bits depend on
    the chunk, only choose x_best.  More than ``DEFAULT_LIMIT`` selections
    is TooLarge: ``dvs oracle``, the fallback of ``solve`` and
    ``dvs check`` share that one limit, so every oracle answer can be
    verified again.  Data for which a feasible selection's objective
    overflows doubles are a ValueError.
    """
    cols = [np.asarray(ui, dtype=float) for ui in p.U]
    sizes = [u.size for u in cols]
    total = math.prod(sizes)
    if total > DEFAULT_LIMIT:
        raise TooLarge(total, DEFAULT_LIMIT)
    best_value, x, feasible = math.inf, None, 0
    for lo in range(0, total, _CHUNK):
        idx = np.unravel_index(np.arange(lo, min(lo + _CHUNK, total)), sizes)
        X = np.column_stack([u[j] for u, j in zip(cols, idx)])
        Xf = X[np.all(X @ p.A.T <= p.b + VALUE_MEMBERSHIP_TOL, axis=1)]
        feasible += len(Xf)
        if len(Xf):
            with np.errstate(over="ignore", invalid="ignore"):
                vals = 0.5 * np.einsum("ij,ij->i", Xf @ p.Q, Xf) - Xf @ p.c
            if not np.isfinite(vals).all():
                raise ValueError("the objective of a feasible selection "
                                 "overflows doubles")
            k = int(np.argmin(vals))
            if vals[k] < best_value:
                best_value, x = float(vals[k]), Xf[k].copy()
    if feasible == 0:
        raise Infeasible("no selection satisfies Ax <= b")
    return x, objective(p, x), feasible, total
