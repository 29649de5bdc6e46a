"""Validation and objective arithmetic for the core problem types."""

import dataclasses
import math
import re

import numpy as np
import pytest

from dvs.errors import DimensionError
from dvs.model import (
    Certificate,
    DiscreteQP,
    DualPoint,
    is_feasible,
    lift,
    objective,
)


def small_problem():
    return DiscreteQP(
        Q=np.array([[2.0, 0.0], [0.0, 2.0]]),
        c=np.array([4.0, 2.0]),
        A=np.array([[1.0, 1.0]]),
        b=np.array([3.0]),
        U=[[1.0, 2.0], [1.0, 2.0]],
    )


def test_objective_value():
    p = small_problem()
    # 0.5*(2*4 + 2*1) - (4*2 + 2*1) = 5 - 10 = -5
    assert objective(p, np.array([2.0, 1.0])) == pytest.approx(-5.0)


def test_q_is_symmetrized():
    p = DiscreteQP(
        Q=np.array([[1.0, 4.0], [0.0, 1.0]]),
        c=np.zeros(2),
        A=np.zeros((0, 2)),
        b=np.zeros(0),
        U=[[0.0, 1.0], [0.0, 1.0]],
    )
    assert np.array_equal(p.Q, np.array([[1.0, 2.0], [2.0, 1.0]]))
    # symmetrization preserves the quadratic form
    x = np.array([1.0, 1.0])
    assert objective(p, x) == pytest.approx(0.5 * (1 + 4 + 1))


def test_arrays_are_frozen():
    p = small_problem()
    with pytest.raises(ValueError):
        p.Q[0, 0] = 99.0


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionError):
        DiscreteQP(Q=np.eye(3), c=np.zeros(2), A=np.zeros((0, 2)),
                   b=np.zeros(0), U=[[0.0, 1.0]] * 2)
    with pytest.raises(DimensionError):
        DiscreteQP(Q=np.eye(2), c=np.zeros(2), A=np.ones((1, 3)),
                   b=np.ones(1), U=[[0.0, 1.0]] * 2)
    with pytest.raises(DimensionError):
        DiscreteQP(Q=np.eye(2), c=np.zeros(2), A=np.ones((2, 2)),
                   b=np.ones(1), U=[[0.0, 1.0]] * 2)


def test_empty_or_duplicate_value_set_rejected():
    with pytest.raises(ValueError, match=r"^n = 0"):
        DiscreteQP(Q=np.zeros((0, 0)), c=np.zeros(0), A=np.zeros((0, 0)),
                   b=np.zeros(0), U=[])
    with pytest.raises(ValueError):
        DiscreteQP(Q=np.eye(2), c=np.zeros(2), A=np.zeros((0, 2)),
                   b=np.zeros(0), U=[[], [0.0, 1.0]])
    with pytest.raises(ValueError):
        DiscreteQP(Q=np.eye(2), c=np.zeros(2), A=np.zeros((0, 2)),
                   b=np.zeros(0), U=[[1.0, 1.0], [0.0, 1.0]])


@pytest.mark.parametrize("field", ["Q", "c", "A", "b", "U[1]"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_data_rejected(field, bad):
    data = dict(Q=np.eye(2), c=np.ones(2), A=np.ones((1, 2)), b=np.ones(1),
                U=[[0.0, 1.0], [0.0, 1.0]])
    if field == "U[1]":
        data["U"] = [[0.0, 1.0], [0.0, bad]]
    else:
        data[field] = np.array(data[field], dtype=float)
        data[field].flat[-1] = bad
    with pytest.raises(ValueError, match=rf"^{re.escape(field)} has a non-finite"):
        DiscreteQP(**data)


def test_unconstrained_problem_allowed():
    p = DiscreteQP(Q=np.eye(2), c=np.zeros(2), A=np.zeros((0, 2)),
                   b=np.zeros(0), U=[[0.0, 1.0]] * 2)
    assert p.m == 0
    assert is_feasible(p, np.array([1.0, 0.0]))


def test_is_feasible_checks_constraints_and_membership():
    p = small_problem()
    assert is_feasible(p, np.array([2.0, 1.0]))
    assert not is_feasible(p, np.array([2.0, 2.0]))   # Ax <= b violated
    assert not is_feasible(p, np.array([1.5, 1.0]))   # 1.5 not in U_1
    assert is_feasible(p, np.array([2.0 + 1e-12, 1.0]))


def test_binary_objective_matches_quadratic_form():
    # One coordinate: B = [[2]], h = [3].
    q = lift(DiscreteQP(Q=[[2.0]], c=[3.0], A=np.zeros((0, 1)),
                        b=np.zeros(0), U=[[1.0]]))
    for y, value in (([1.0], -2.0), ([0.0], 0.0)):
        y = np.array(y)
        assert 0.5 * y @ q.B @ y - q.h @ y == pytest.approx(value)
    # The lifted 0.5 y'By - h'y is 0.5 x'Qx - c'x at x = M'y, on any y,
    # one-hot or not.
    p = small_problem()
    q = lift(p)
    for y in np.random.default_rng(2).standard_normal((5, q.K)):
        x = q.block_sums(q.U_flat * y)
        assert 0.5 * y @ q.B @ y - q.h @ y == pytest.approx(
            objective(p, x), abs=1e-12)


def test_lift_of_asymmetric_q_has_symmetric_b():
    # DiscreteQP symmetrizes Q and the lift shares that Q, so B = M Q M' is
    # exactly symmetric whatever Q the caller passed.
    q = lift(DiscreteQP(Q=[[1.0, 0.3], [0.1, 2.0]], c=np.zeros(2),
                        A=np.zeros((0, 2)), b=np.zeros(0),
                        U=[[0.0, 1.0], [1.0, 2.0]]))
    assert np.array_equal(q.B, q.B.T)
    assert np.array_equal(q.Q, [[1.0, 0.2], [0.2, 2.0]])


def test_certificate_requires_cone_for_global_status():
    # Off the cone the gap is infinite (or NaN from a broken caller).
    for gap in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite gap"):
            Certificate(status="CertifiedGlobal", primal_feas_residual=0.0,
                        gap=gap)
    assert Certificate(status="NoCertificate", primal_feas_residual=0.0,
                       gap=math.inf).gap == math.inf
    assert [f.name for f in dataclasses.fields(Certificate)] == [
        "status", "primal_feas_residual", "gap"]


def test_dual_point_shapes_preserved():
    d = DualPoint(sigma=np.zeros(3), mu=np.full(4, 0.5))
    assert d.sigma.shape == (3,) and d.mu.shape == (4,)
    assert [f.name for f in dataclasses.fields(d)] == ["sigma", "mu"]
    with pytest.raises(ValueError):
        d.mu[0] = 2.0
