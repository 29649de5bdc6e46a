"""The 1-D-solvable double-well demonstration of the duality mechanics.

The nonconvex primal is

    Pi(x) = 0.5 alpha (0.5 ||x||^2 - lambda)^2 - x'f,   x in R^n,

whose dual is the single-variable concave-on-(0,inf) function

    Pi_d(sigma) = -f'f / (2 sigma) - sigma^2 / (2 alpha) - lambda sigma.

Critical dual points solve the cubic (alpha^-1 sigma + lambda) sigma^2 =
0.5 f'f, which has at most three real roots sigma_1 >= 0 >= sigma_2 >=
sigma_3; each maps to a primal critical point x = f / sigma with equal
objective value, and the largest root certifies the global minimizer.
The cubic depends on f only through f'f, so vector instances reduce to
the scalar ||f||.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateF

RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class ToyInstance:
    alpha: float
    lam: float
    f: np.ndarray

    def __post_init__(self):
        if not (0 < self.alpha < np.inf and 0 < self.lam < np.inf):
            raise ValueError("alpha and lambda must be finite and > 0")
        f = np.atleast_1d(np.asarray(self.f, dtype=float)).copy()
        if f.ndim != 1:
            raise ValueError("f must be a vector")
        if not np.isfinite(f).all():
            raise ValueError("f must be finite")
        f.flags.writeable = False
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "f", f)


def primal_value(t: ToyInstance, x: np.ndarray) -> float:
    """Pi(x) = 0.5 alpha (0.5 ||x||^2 - lambda)^2 - x'f."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(0.5 * t.alpha * (0.5 * (x @ x) - t.lam) ** 2 - x @ t.f)


def dual_curve_value(t: ToyInstance, sigma: float) -> float:
    """Pi_d(sigma) = -f'f/(2 sigma) - sigma^2/(2 alpha) - lambda sigma."""
    ff = float(t.f @ t.f)
    return float(-ff / (2.0 * sigma) - sigma * sigma / (2.0 * t.alpha)
                 - t.lam * sigma)


def _cubic_residual(t: ToyInstance, sigma: float) -> float:
    ff = float(t.f @ t.f)
    return abs((sigma / t.alpha + t.lam) * sigma * sigma - 0.5 * ff)


def toy_dual_roots(t: ToyInstance) -> list[float]:
    """All real roots of (alpha^-1 s + lambda) s^2 = 0.5 f'f, descending.

    Found as companion-matrix eigenvalues (numpy.roots), then polished by
    a few Newton steps and de-duplicated; each returned root satisfies the
    cubic to a relative residual of 1e-10 or better.  A root that does not
    (alpha, lambda and f too far apart in scale for doubles) is a
    ValueError.
    """
    ff = float(t.f @ t.f)
    # Monic form: s^3 + alpha lambda s^2 - alpha ff / 2 = 0.
    raw = np.roots([1.0, t.alpha * t.lam, 0.0, -0.5 * t.alpha * ff])
    scale = max(1.0, 0.5 * ff)
    roots: list[float] = []
    for z in raw:
        if abs(z.imag) > 1e-8 * (1.0 + abs(z)):
            continue
        s = float(z.real)
        for _ in range(40):
            g = (s / t.alpha + t.lam) * s * s - 0.5 * ff
            dg = 3.0 * s * s / t.alpha + 2.0 * t.lam * s
            if abs(g) <= 1e-16 * scale or dg == 0.0:
                break
            s -= g / dg
        if any(abs(s - r) <= 1e-9 * max(1e-30, abs(s), abs(r)) for r in roots):
            continue
        if _cubic_residual(t, s) > RESIDUAL_TOL * scale:
            raise ValueError(
                f"root {s} fails the cubic residual check")
        roots.append(s)
    roots.sort(reverse=True)
    return roots


def toy_solve(t: ToyInstance) -> tuple[np.ndarray, float, float, float]:
    """Globally minimize Pi via the largest dual root.

    Returns (x, Pi(x), Pi_d(sigma_1), sigma_1) with the two values equal
    up to round-off (the complementary-dual identity).  A value that
    overflows doubles (alpha = 1e-300 with lambda = f = 1, say) is a
    ValueError.
    """
    if float(t.f @ t.f) == 0.0:
        raise DegenerateF("f = 0: every x with ||x||^2 = 2 lambda minimizes")
    sigma1 = toy_dual_roots(t)[0]
    x = t.f / sigma1
    with np.errstate(over="ignore", invalid="ignore"):
        primal, dual = primal_value(t, x), dual_curve_value(t, sigma1)
    if not (np.isfinite(primal) and np.isfinite(dual)):
        raise ValueError(f"Pi(x) = {primal}, Pi_d(sigma1) = {dual}: a value "
                         "overflows doubles")
    return x, primal, dual, sigma1


def toy_curves(t: ToyInstance, span: tuple[float, float],
               steps: int) -> list[tuple[str, float, float]]:
    """Sample (x, Pi(x)) and (sigma, Pi_d(sigma)) rows for plotting.

    Only defined for 1-D instances.  ``steps`` points are placed evenly
    across ``span`` for each curve; the dual curve skips an exact 0
    abscissa (pole).  steps=0 yields no rows.
    """
    if t.f.shape != (1,):
        raise ValueError("curves are only defined for 1-D instances")
    lo, hi = float(span[0]), float(span[1])
    grid = np.linspace(lo, hi, int(steps))
    rows = [("primal", float(v), primal_value(t, [v])) for v in grid]
    rows += [("dual", float(v), dual_curve_value(t, float(v)))
             for v in grid if v != 0.0]
    return rows
