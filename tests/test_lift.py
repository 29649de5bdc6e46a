"""Lifting to one-hot 0-1 form."""

import json

import numpy as np
import pytest

from dvs.model import DiscreteQP, lift, objective
from dvs.serialize import parse_problem

from conftest import OVERFLOWING_OBJECTIVES


def test_lift_shapes_and_structure(example1):
    q = lift(example1)
    assert q.K == 15
    assert q.B.shape == (15, 15)
    assert q.h.shape == (15,)
    assert q.D.shape == (4, 15)
    assert q.H.shape == (5, 15)
    assert q.blocks == ((0, 3), (3, 6), (6, 9), (9, 12), (12, 15))
    # each H row selects exactly its block
    for i, (s, e) in enumerate(q.blocks):
        row = np.zeros(15)
        row[s:e] = 1.0
        assert np.array_equal(q.H[i], row)


def test_lift_entry_formulas(example1):
    q = lift(example1)
    # B[(i,j),(k,l)] = Q[i,k] * U[i][j] * U[k][l]
    assert q.B[0, 0] == pytest.approx(3.43 * 2 * 2)           # 13.72
    assert q.B[2, 2] == pytest.approx(3.43 * 5 * 5)
    assert q.B[0, 3] == pytest.approx(0.60 * 2 * 2)
    # h[(i,j)] = c[i] * U[i][j]
    assert q.h[0] == pytest.approx(38.97 * 2)                 # 77.94
    assert q.h[5] == pytest.approx(-24.17 * 5)
    # D[r,(i,j)] = A[r,i] * U[i][j]
    assert q.D[0, 0] == pytest.approx(0.94 * 2)
    assert q.D[3, 14] == pytest.approx(0.18 * 5)
    assert np.array_equal(q.b, example1.b)


def test_lift_b_exactly_symmetric(example1):
    q = lift(example1)
    assert np.array_equal(q.B, q.B.T)


def test_lift_singleton_sets():
    p = DiscreteQP(Q=np.array([[7.0]]), c=np.array([3.0]),
                   A=np.zeros((0, 1)), b=np.zeros(0), U=[[1.0]])
    q = lift(p)
    assert q.K == 1
    assert np.array_equal(q.B, [[7.0]])
    assert np.array_equal(q.h, [3.0])
    assert np.array_equal(q.H, [[1.0]])
    assert q.D.shape == (0, 1)


def test_lifted_objective_matches_original(example1):
    q = lift(example1)
    rng = np.random.default_rng(3)
    for _ in range(25):
        pick = rng.integers(0, 3, size=5)
        x = np.array([u[j] for u, j in zip(example1.U, pick)])
        y = np.zeros(q.K)
        y[example1.starts + pick] = 1.0
        assert 0.5 * y @ q.B @ y - q.h @ y == pytest.approx(
            objective(example1, x), abs=1e-9)


def test_lifted_b_has_zero_min_eigenvalue(example1, example2):
    # B = M Q M' has rank at most n < K, so its spectrum touches zero.
    for p in (example1, example2):
        q = lift(p)
        w = np.linalg.eigvalsh(q.B)
        assert w[0] <= 1e-8 * max(1.0, abs(w[-1]))


def test_lift_without_constraints():
    p = DiscreteQP(Q=np.eye(2), c=np.array([1.0, -1.0]),
                   A=np.zeros((0, 2)), b=np.zeros(0),
                   U=[[0.0, 1.0], [2.0, 3.0]])
    q = lift(p)
    assert q.m == 0 and q.K == 4
    assert np.array_equal(q.U_flat, [0.0, 1.0, 2.0, 3.0])


def test_lift_refuses_entries_that_overflow():
    # B[1, 1] = Q[0, 0] u_1 u_1 = 1e300 * 1e10 * 1e10.
    doc = dict(OVERFLOWING_OBJECTIVES[1], Q=[[1e300, 0], [0, 1]])
    with pytest.raises(ValueError,
                       match="^the lifted problem overflows doubles$"):
        lift(parse_problem(json.dumps(doc)))
