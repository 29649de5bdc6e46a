"""The 1-D-solvable double-well instance and its cubic dual."""

import numpy as np
import pytest

from dvs.errors import DegenerateF
from dvs.toy import (
    RESIDUAL_TOL,
    ToyInstance,
    dual_curve_value,
    primal_value,
    toy_curves,
    toy_dual_roots,
    toy_solve,
)

REFERENCE = ToyInstance(alpha=1.0, lam=2.0, f=[0.5])


def cubic_residual(t, s):
    ff = float(t.f @ t.f)
    return abs((s / t.alpha + t.lam) * s * s - 0.5 * ff)


def test_instance_validation():
    with pytest.raises(ValueError):
        ToyInstance(alpha=0.0, lam=1.0, f=[1.0])
    with pytest.raises(ValueError):
        ToyInstance(alpha=1.0, lam=-2.0, f=[1.0])
    with pytest.raises(ValueError):
        ToyInstance(alpha=1.0, lam=1.0, f=[[1.0, 2.0]])
    # Non-finite data would fail later, inside numpy.
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="alpha and lambda"):
            ToyInstance(alpha=bad, lam=1.0, f=[1.0])
        with pytest.raises(ValueError, match="alpha and lambda"):
            ToyInstance(alpha=1.0, lam=bad, f=[1.0])
        with pytest.raises(ValueError, match="f must be finite"):
            ToyInstance(alpha=1.0, lam=1.0, f=[1.0, bad])


def test_reference_solution_values():
    x, primal, dual, sigma1 = toy_solve(REFERENCE)
    assert sigma1 == pytest.approx(0.236417, abs=1e-4)
    assert x[0] == pytest.approx(2.11491, abs=1e-4)
    assert primal == pytest.approx(-1.02951, abs=1e-4)
    assert dual == pytest.approx(-1.02951, abs=1e-4)
    assert primal == pytest.approx(dual, abs=1e-9)


def test_roots_are_descending_with_small_residuals():
    roots = toy_dual_roots(REFERENCE)
    assert len(roots) == 3
    assert roots[0] > 0.0 > roots[1] > roots[2]
    assert roots == sorted(roots, reverse=True)
    ff = float(REFERENCE.f @ REFERENCE.f)
    scale = max(1.0, 0.5 * ff)
    for s in roots:
        assert cubic_residual(REFERENCE, s) <= RESIDUAL_TOL * scale


def test_every_nonzero_root_is_a_critical_value_match():
    # Each root sigma maps to x = f/sigma with Pi(x) = Pi_d(sigma).
    for t in (REFERENCE, ToyInstance(alpha=2.5, lam=0.7, f=[1.3]),
              ToyInstance(alpha=0.3, lam=4.0, f=[-0.8])):
        for s in toy_dual_roots(t):
            if s == 0.0:
                continue
            x = t.f / s
            assert primal_value(t, x) == pytest.approx(
                dual_curve_value(t, s), abs=1e-9)


def test_largest_root_beats_dense_grid():
    x, primal, _, _ = toy_solve(REFERENCE)
    grid = np.linspace(-5.0, 5.0, 10_000)
    values = (0.5 * REFERENCE.alpha * (0.5 * grid**2 - REFERENCE.lam) ** 2
              - grid * REFERENCE.f[0])
    assert primal <= values.min() + 1e-9


def test_vector_instance_reduces_to_scalar_norm():
    t = ToyInstance(alpha=1.0, lam=2.0, f=[0.5, 0.0, 0.0])
    x, primal, dual, sigma1 = toy_solve(t)
    assert x[0] == pytest.approx(2.11491, abs=1e-4)
    assert np.allclose(x[1:], 0.0)
    assert primal == pytest.approx(-1.02951, abs=1e-4)
    # rotating f leaves the dual cubic (and sigma_1) unchanged
    norm = np.sqrt(0.5**2)
    t_rot = ToyInstance(alpha=1.0, lam=2.0,
                        f=np.array([0.3, 0.4, 0.0]) * (norm / 0.5))
    assert toy_dual_roots(t_rot) == pytest.approx(toy_dual_roots(t))


def test_zero_f_is_degenerate():
    t = ToyInstance(alpha=1.5, lam=2.0, f=[0.0, 0.0])
    with pytest.raises(DegenerateF):
        toy_solve(t)
    roots = toy_dual_roots(t)
    assert roots == pytest.approx([0.0, -1.5 * 2.0])


def test_tiny_f_keeps_roots_separated():
    t = ToyInstance(alpha=1.0, lam=2.0, f=[1e-8])
    roots = toy_dual_roots(t)
    assert len(roots) == 3
    assert roots[0] > 0.0 > roots[1]
    # the two near-zero roots approach +-sqrt(ff / (2 lam))
    near = np.sqrt(1e-16 / 4.0)
    assert roots[0] == pytest.approx(near, rel=1e-3)
    assert roots[1] == pytest.approx(-near, rel=1e-3)


def test_curves_shape_and_pole_skip():
    rows = toy_curves(REFERENCE, (-2.0, 2.0), 5)
    kinds = [r[0] for r in rows]
    assert kinds.count("primal") == 5
    assert kinds.count("dual") == 4  # the exact 0 abscissa is skipped
    for kind, a, v in rows:
        expected = (primal_value(REFERENCE, [a]) if kind == "primal"
                    else dual_curve_value(REFERENCE, a))
        assert v == pytest.approx(expected)


def test_curves_zero_steps_is_empty():
    assert toy_curves(REFERENCE, (-5.0, 5.0), 0) == []


def test_curves_reject_vector_instances():
    t = ToyInstance(alpha=1.0, lam=2.0, f=[0.5, 0.1])
    with pytest.raises(ValueError):
        toy_curves(t, (-5.0, 5.0), 10)


def test_curve_dual_samples_stay_below_optimum():
    # weak duality along the emitted dual curve
    _, primal, _, _ = toy_solve(REFERENCE)
    rows = toy_curves(REFERENCE, (0.0, 5.0), 400)
    dual_rows = [(a, v) for kind, a, v in rows if kind == "dual" and a > 0]
    assert dual_rows
    assert all(v <= primal + 1e-9 for _, v in dual_rows)


def test_reference_points_lie_on_curves():
    x, primal, dual, sigma1 = toy_solve(REFERENCE)
    rows = toy_curves(REFERENCE, (-5.0, 5.0), 20_001)
    primal_pts = [(a, v) for kind, a, v in rows if kind == "primal"]
    dual_pts = [(a, v) for kind, a, v in rows if kind == "dual"]
    pa, pv = min(primal_pts, key=lambda r: abs(r[0] - x[0]))
    assert pv == pytest.approx(primal, abs=1e-4)
    da, dv = min(dual_pts, key=lambda r: abs(r[0] - sigma1))
    assert dv == pytest.approx(dual, abs=1e-4)
