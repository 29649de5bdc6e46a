"""Validation and objective arithmetic for the core problem types."""

import dataclasses
import math
import re

import numpy as np
import pytest

from dvs.errors import DimensionError
from dvs.generator import generate
from dvs.model import (
    VALUE_MEMBERSHIP_TOL,
    Certificate,
    DiscreteQP,
    DualPoint,
    is_feasible,
    lift,
    objective,
)
from dvs.solver import solve

from families import suite_spec


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
    # The value-set layout is derived on first read, not on construction.
    layout = ("U_flat", "block_of", "starts", "sizes")
    assert not set(layout) & set(vars(p))
    q = lift(p)
    for owner, names in ((p, layout + ("alpha_base", "pad")),
                         (q, ("B", "h", "D", "H", "b", "U_flat"))):
        for name in names:
            a = getattr(owner, name)
            assert not a.flags.writeable, name
            with pytest.raises(ValueError):
                a.flat[0] = 99
    assert q.H.dtype == float


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


@pytest.mark.parametrize("Q", [[[1e308]], [[0.0, 1e308], [1e308, 0.0]],
                               [[-1e308, -1e308], [-1e308, 0.0]]],
                         ids=["diagonal", "off-diagonal", "negative"])
def test_symmetrization_overflow_is_named(Q):
    # Every entry is finite, but Q + Q' overflows: a ValueError that says
    # so, with no overflow warning (tier-1 turns one into an error).
    n = len(Q)
    with pytest.raises(ValueError,
                       match=r"^the symmetrization of Q overflows$"):
        DiscreteQP(Q=Q, c=[0.0] * n, A=np.zeros((0, n)), b=[],
                   U=[[0.0, 1.0]] * n)


def test_opposite_infinities_in_q_are_non_finite():
    # inf + (-inf) in Q + Q' is NaN: no invalid-value warning, and the
    # input's own non-finite entry is named.
    with pytest.raises(ValueError, match=r"^Q has a non-finite entry$"):
        DiscreteQP(Q=[[0.0, np.inf], [-np.inf, 0.0]], c=[0.0, 0.0],
                   A=np.zeros((0, 2)), b=[], U=[[0.0, 1.0]] * 2)


def test_unconstrained_problem_allowed():
    p = DiscreteQP(Q=np.eye(2), c=np.zeros(2), A=np.zeros((0, 2)),
                   b=np.zeros(0), U=[[0.0, 1.0]] * 2)
    assert p.m == 0
    assert is_feasible(p, np.array([1.0, 0.0]))


def test_value_sets_equal_in_value_keep_their_zero_signs():
    # (0.0, 1.0) == (-0.0, 1.0): each set is converted on its own, so
    # neither takes the other's zero.
    p = DiscreteQP(Q=np.eye(2), c=np.zeros(2), A=np.zeros((0, 2)),
                   b=np.zeros(0), U=((0.0, 1.0), (-0.0, 1.0)))
    assert [math.copysign(1.0, ui[0]) for ui in p.U] == [1.0, -1.0]
    assert np.signbit(p.U_flat).tolist() == [False, False, True, False]


def test_is_feasible_checks_constraints_and_membership():
    p = small_problem()
    assert is_feasible(p, np.array([2.0, 1.0]))
    assert not is_feasible(p, np.array([2.0, 2.0]))   # Ax <= b violated
    assert not is_feasible(p, np.array([1.5, 1.0]))   # 1.5 not in U_1
    assert is_feasible(p, np.array([2.0 + 1e-12, 1.0]))
    # No comparison holds for NaN: a NaN coordinate is infeasible in a
    # constrained coordinate, with no constraints at all, and in a value
    # set of one value, as an infinite one is.
    binary = DiscreteQP(Q=np.eye(2), c=np.zeros(2), A=[[1.0, 1.0]], b=[1.0],
                        U=[[0.0, 1.0]] * 2)
    free = DiscreteQP(Q=np.eye(2), c=np.zeros(2), A=np.zeros((0, 2)),
                      b=np.zeros(0), U=[[1.0], [0.0, 1.0]])
    assert is_feasible(binary, [1.0, 0.0]) and is_feasible(free, [1.0, 0.0])
    for bad in (math.nan, math.inf, -math.inf):
        assert not is_feasible(binary, [bad, 0.0])
        assert not is_feasible(free, [1.0, bad])
        assert not is_feasible(free, [bad, 0.0])


def _reference_is_feasible(p, x):
    """The per-coordinate loop the one-pass test replaced, kept as the
    reference on finite x."""
    if np.any(p.A @ x > p.b + VALUE_MEMBERSHIP_TOL):
        return False
    for i, ui in enumerate(p.U):
        if min(abs(x[i] - u) for u in ui) > VALUE_MEMBERSHIP_TOL:
            return False
    return True


def test_is_feasible_matches_per_coordinate_reference(sweep_instances):
    # Criterion 4's instances at the oracle's x, with all coordinates and
    # then each of the first four moved by up to twice the tolerance; the
    # n = 50 suite at the solver's x and at random selections, which may
    # violate Ax <= b, moved the same way.
    tol = VALUE_MEMBERSHIP_TOL
    cases = [(p, x) for p, x, _ in sweep_instances]
    rng = np.random.default_rng(25)
    for i in range(3):
        p = generate(suite_spec(50, i))
        cases.append((p, solve(p).x))
        cases += [(p, np.array([rng.choice(ui) for ui in p.U]))
                  for _ in range(20)]
    seen = set()
    for p, x in cases:
        for step in (0.0, 0.5 * tol, tol, 2.0 * tol, -tol, -2.0 * tol):
            points = [x + step] + [x + step * e for e in np.eye(p.n)[:4]]
            for point in points:
                got = is_feasible(p, point)
                assert got == _reference_is_feasible(p, point), (p, point)
                seen.add(got)
    assert seen == {True, False}


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
        x = p.block_sums(p.U_flat * y)
        assert 0.5 * y @ q.B @ y - q.h @ y == pytest.approx(
            objective(p, x), abs=1e-12)


def test_lift_of_asymmetric_q_has_symmetric_b():
    # DiscreteQP symmetrizes Q and the lift reads that Q, so B = M Q M' is
    # exactly symmetric whatever Q the caller passed.
    p = DiscreteQP(Q=[[1.0, 0.3], [0.1, 2.0]], c=np.zeros(2),
                   A=np.zeros((0, 2)), b=np.zeros(0),
                   U=[[0.0, 1.0], [1.0, 2.0]])
    q = lift(p)
    assert np.array_equal(q.B, q.B.T)
    assert np.array_equal(p.Q, [[1.0, 0.2], [0.2, 2.0]])


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
