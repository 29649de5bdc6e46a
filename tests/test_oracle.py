"""Exhaustive enumeration over value sets and one-hot selections."""

import numpy as np
import pytest

from dvs import oracle
from dvs.errors import Infeasible, TooLarge
from dvs.model import DiscreteQP, lift
from dvs.oracle import enumerate_binary, enumerate_discrete


def two_var_problem():
    return DiscreteQP(Q=2.0 * np.eye(2), c=np.array([4.0, 2.0]),
                      A=np.array([[1.0, 1.0]]), b=np.array([3.0]),
                      U=[[1.0, 2.0], [1.0, 2.0]])


def test_enumerate_two_var_instance():
    x, value, feasible, total = enumerate_discrete(two_var_problem())
    assert np.array_equal(x, [2.0, 1.0])
    assert value == pytest.approx(-5.0)
    assert (feasible, total) == (3, 4)  # (2,2) violates x1+x2 <= 3


def test_enumerate_first_reference_instance(example1):
    x, value, feasible, total = enumerate_discrete(example1)
    assert np.array_equal(x, [5.0, 2.0, 5.0, 2.0, 2.0])
    assert value == pytest.approx(-227.87, abs=0.5)
    assert total == 3 ** 5
    assert 0 < feasible <= total


def test_enumerate_tie_break_is_lexicographic():
    # Objective identically zero: every selection ties, and the winner
    # must be the lexicographically first one.
    p = DiscreteQP(Q=np.zeros((2, 2)), c=np.zeros(2),
                   A=np.zeros((0, 2)), b=np.zeros(0),
                   U=[[3.0, 1.0], [2.0, 0.0]])
    x, value, _, _ = enumerate_discrete(p)
    assert np.array_equal(x, [3.0, 2.0])
    assert value == 0.0


def test_enumerate_infeasible():
    p = DiscreteQP(Q=np.eye(1), c=np.zeros(1),
                   A=np.array([[1.0]]), b=np.array([-10.0]), U=[[0.0, 1.0]])
    with pytest.raises(Infeasible):
        enumerate_discrete(p)


def test_enumerate_too_large(monkeypatch):
    # The limit is the module's one DEFAULT_LIMIT, not a parameter.
    p = two_var_problem()
    with pytest.raises(TypeError):
        enumerate_discrete(p, limit=3)
    monkeypatch.setattr(oracle, "DEFAULT_LIMIT", 3)
    with pytest.raises(TooLarge) as exc:
        enumerate_discrete(p)
    assert exc.value.combinations == 4
    assert exc.value.limit == 3


def test_enumerate_spans_chunk_boundaries():
    # 2^17 combinations forces several 65536-selection chunks.
    n = 17
    rng = np.random.default_rng(5)
    M = rng.standard_normal((n, n))
    p = DiscreteQP(Q=M @ M.T + np.eye(n), c=rng.standard_normal(n),
                   A=np.zeros((0, n)), b=np.zeros(0),
                   U=[[0.0, 1.0]] * n)
    x, value, feasible, total = enumerate_discrete(p)
    assert total == feasible == 2 ** 17
    assert value <= 0.0  # x = 0 is always available


def test_enumerate_binary_single_coordinate():
    # B = [[2]], h = [3]
    q = lift(DiscreteQP(Q=[[2.0]], c=[3.0], A=np.zeros((0, 1)),
                        b=np.zeros(0), U=[[1.0]]))
    y, value = enumerate_binary(q)
    assert np.array_equal(y, [1.0])
    assert value == pytest.approx(-2.0)


def test_enumerate_binary_two_coordinate_block():
    # B = [[1, 2], [2, 4]], h = 0: the first coordinate wins, 0.5 against 2
    q = lift(DiscreteQP(Q=[[1.0]], c=[0.0], A=np.zeros((0, 1)),
                        b=np.zeros(0), U=[[1.0, 2.0]]))
    y, value = enumerate_binary(q)
    assert np.array_equal(y, [1.0, 0.0])
    assert value == pytest.approx(0.5)


def test_lifted_enumeration_matches_original(example1):
    x, value, _, _ = enumerate_discrete(example1)
    q = lift(example1)
    y, lifted_value = enumerate_binary(q)
    assert abs(lifted_value - value) <= 1e-9
    # y is one-hot per block and selects the oracle's x.
    assert np.array_equal(q.block_sums(y), np.ones(q.n))
    assert set(y.tolist()) <= {0.0, 1.0}
    assert np.array_equal(q.block_sums(q.U_flat * y), x)


def test_binary_enumeration_respects_constraints():
    # One constraint that forbids the unconstrained optimum.
    p = two_var_problem()
    q = lift(p)
    y, value = enumerate_binary(q)
    assert np.all(q.D @ y <= q.b + 1e-9)
    assert value == pytest.approx(-5.0)
