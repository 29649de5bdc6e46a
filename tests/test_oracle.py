"""Exhaustive enumeration over the value sets, and the lift's one-hot
optimum, both against the itertools references of conftest."""

import itertools

import numpy as np
import pytest

from dvs import oracle
from dvs.errors import Infeasible, TooLarge
from dvs.generator import GenSpec, generate
from dvs.model import DiscreteQP, lift, objective
from dvs.oracle import enumerate_discrete

from conftest import (criterion4_spec, indefinite_spec, reference_binary,
                      reference_discrete)


def without_constraints(p):
    return DiscreteQP(Q=p.Q, c=p.c, A=np.zeros((0, p.n)), b=np.zeros(0),
                      U=p.U)


REFERENCE_SPECS = (
    [criterion4_spec(k) for k in range(1, 25)]
    + [indefinite_spec(k) for k in range(3)]
    + [GenSpec(5, 2, 9900 + k, (-2, -1, 0, 1, 2), coeff_range=(-1, 1))
       for k in range(2)])


def assert_matches_reference(p):
    """The oracle equals the walk over the value sets, and the walk over
    the lift's one-hot y reaches the same optimum at the same x."""
    x, value, feasible, total = enumerate_discrete(p)
    ref_x, ref_value, ref_feasible, ref_total = reference_discrete(p)
    assert np.array_equal(x, ref_x)
    assert value == pytest.approx(ref_value, rel=1e-12, abs=1e-12)
    assert (feasible, total) == (ref_feasible, ref_total)
    y, lifted_value = reference_binary(lift(p), p)
    assert np.array_equal(p.block_sums(p.U_flat * y), ref_x)
    assert lifted_value == pytest.approx(ref_value, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: str(s.seed))
@pytest.mark.parametrize("m0", [False, True], ids=["m", "m0"])
def test_oracles_match_itertools_reference(spec, m0):
    # The oracle and the lift, each against its itertools reference.
    p = generate(spec)
    assert_matches_reference(without_constraints(p) if m0 else p)


def tie_problem(c, A, b, U):
    n = len(U)
    return DiscreteQP(Q=np.zeros((n, n)), c=c, A=A, b=b, U=U)


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
    # x1 + x2 <= 4 rules out only the first selection, (3, 2): the oracle
    # must return (3, 1), the first feasible selection in product order,
    # not the numerically smallest.
    U = [[3.0, 1.0], [2.0, 1.0, 0.0]]
    p = tie_problem(np.zeros(2), np.array([[1.0, 1.0]]), np.array([4.0]), U)
    x, value, feasible, total = enumerate_discrete(p)
    assert np.array_equal(x, [3.0, 1.0])
    assert np.array_equal(x, reference_discrete(p)[0])
    assert (value, feasible, total) == (0.0, 5, 6)


def test_enumerate_infeasible():
    p = DiscreteQP(Q=np.eye(1), c=np.zeros(1),
                   A=np.array([[1.0]]), b=np.array([-10.0]), U=[[0.0, 1.0]])
    with pytest.raises(Infeasible) as exc:
        enumerate_discrete(p)
    assert str(exc.value) == "no selection satisfies Ax <= b"


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
    # At the limit itself the oracle still enumerates.
    monkeypatch.setattr(oracle, "DEFAULT_LIMIT", 4)
    assert enumerate_discrete(p)[3] == 4


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
    X = np.array(list(itertools.product(*p.U)))
    values = 0.5 * ((X @ p.Q) * X).sum(axis=1) - X @ p.c
    k = int(np.argmin(values))
    assert np.array_equal(x, X[k])
    assert value == pytest.approx(values[k], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_oracles_match_reference_across_small_chunks(monkeypatch, chunk):
    # The oracle reads the chunk size at call time; a small one makes
    # every instance cross many chunk boundaries.
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    for spec in REFERENCE_SPECS[::4]:
        assert_matches_reference(generate(spec))


@pytest.mark.parametrize("chunk", [None, 1, 7])
def test_oracle_value_is_the_objective_at_its_x(sweep_instances, monkeypatch,
                                                chunk):
    # The batch scores of a chunk can differ from objective(p, x) in the
    # last bit, by the chunk's size and feasible rows; the returned value
    # is objective's, whatever the chunk.
    if chunk is not None:
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
    problems = [p for p, _, _ in sweep_instances] + [
        generate(indefinite_spec(k)) for k in range(120)]
    for p in problems:
        x, value, _, _ = enumerate_discrete(p)
        assert value.hex() == objective(p, x).hex()


def test_tie_straddling_a_chunk_boundary_goes_to_the_first(monkeypatch):
    # Value -x2 over {0, 1}^3 in chunks of three selections: the minimum
    # -1 is first reached by (0, 1, 0), the last selection of the first
    # chunk, and again by (0, 1, 1), the first of the second chunk.
    monkeypatch.setattr(oracle, "_CHUNK", 3)
    U = [[0.0, 1.0]] * 3
    p = tie_problem(np.array([0.0, 1.0, 0.0]), np.zeros((0, 3)),
                    np.zeros(0), U)
    x, value, feasible, total = enumerate_discrete(p)
    assert np.array_equal(x, [0.0, 1.0, 0.0])
    assert (value, feasible, total) == (-1.0, 8, 8)
    # With x3 >= 1, (0, 1, 0) is infeasible: the tie is now between
    # (0, 1, 1) in the second chunk and (1, 1, 1) in the third.
    p = tie_problem(np.array([0.0, 1.0, 0.0]), np.array([[0.0, 0.0, -1.0]]),
                    np.array([-1.0]), U)
    x, _, feasible, _ = enumerate_discrete(p)
    assert np.array_equal(x, [0.0, 1.0, 1.0])
    assert feasible == 4


def test_first_chunk_without_feasible_selection(monkeypatch):
    # x1 >= 1 leaves the first half of {0, 1}^3 infeasible: with chunks of
    # two selections, the first two chunks have no feasible row at all.
    monkeypatch.setattr(oracle, "_CHUNK", 2)
    p = DiscreteQP(Q=np.eye(3), c=np.zeros(3), A=np.array([[-1.0, 0.0, 0.0]]),
                   b=np.array([-1.0]), U=[[0.0, 1.0]] * 3)
    assert_matches_reference(p)
    x, value, feasible, total = enumerate_discrete(p)
    assert np.array_equal(x, [1.0, 0.0, 0.0])
    assert (value, feasible, total) == (0.5, 4, 8)


def test_lifted_optimum_single_coordinate():
    # B = [[2]], h = [3]
    p = DiscreteQP(Q=[[2.0]], c=[3.0], A=np.zeros((0, 1)), b=np.zeros(0),
                   U=[[1.0]])
    y, value = reference_binary(lift(p), p)
    assert np.array_equal(y, [1.0])
    assert value == pytest.approx(-2.0)


def test_lifted_optimum_two_coordinate_block():
    # B = [[1, 2], [2, 4]], h = 0: the first coordinate wins, 0.5 against 2
    p = DiscreteQP(Q=[[1.0]], c=[0.0], A=np.zeros((0, 1)), b=np.zeros(0),
                   U=[[1.0, 2.0]])
    y, value = reference_binary(lift(p), p)
    assert np.array_equal(y, [1.0, 0.0])
    assert value == pytest.approx(0.5)


def test_lifted_enumeration_matches_original(example1):
    x, value, _, _ = enumerate_discrete(example1)
    y, lifted_value = reference_binary(lift(example1), example1)
    assert abs(lifted_value - value) <= 1e-9
    # y is one-hot per block and selects the oracle's x.
    assert np.array_equal(example1.block_sums(y), np.ones(example1.n))
    assert set(y.tolist()) <= {0.0, 1.0}
    assert np.array_equal(example1.block_sums(example1.U_flat * y), x)


def test_binary_enumeration_respects_constraints():
    # One constraint that forbids the unconstrained optimum.
    p = two_var_problem()
    q = lift(p)
    y, value = reference_binary(q, p)
    assert np.all(q.D @ y <= q.b + 1e-9)
    assert value == pytest.approx(-5.0)
