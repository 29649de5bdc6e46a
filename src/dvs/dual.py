"""Dual function algebra for the lifted 0-1 problem.

For dual variables (sigma, tau, mu) define

    G(mu)            = B + 2 diag(mu)
    F(sigma,tau,mu)  = h - D'sigma - H'tau + mu
    P_dual           = -0.5 F' G^-1 F - sigma'b - tau'1

on the cone where G(mu) is positive definite; off it P_dual = -inf and
gives no bound.  The stationary primal point is y = G^-1 F, and the
gradient of P_dual evaluated through that y has the closed form

    d/dsigma = Dy - b,   d/dtau = Hy - 1,   d/dmu = y * (y - 1)

(the complementarity products reappear as the mu-gradient).  Maximizing
P_dual over the cone where sigma >= 0, mu > 0 and G(mu) is positive
definite yields a global-optimality certificate for the primal.

G(mu) is formed and factored only in :func:`factorize_g`, by Cholesky,
whose success is the positive-definiteness test.  P_dual is an exact
concave quadratic in the unconstrained tau, which :func:`eliminate_tau`
maximizes out by an inner n-by-n solve:

    G Z = [h - D'sigma + mu | H'],   S = H Z,   S tau = H y0 - 1,
    y = y0 - Z tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .model import BinaryQP, DualPoint

MU_MIN = 1e-8


@dataclass(frozen=True)
class GFactorization:
    """The Cholesky factor ``cho`` of G(mu), None when G is not PD."""

    cho: tuple | None

    @property
    def positive_definite(self) -> bool:
        return self.cho is not None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Return G^-1 rhs by two triangular solves."""
        if self.cho is None:
            raise LinAlgError("G(mu) is not positive definite")
        return cho_solve(self.cho, rhs, check_finite=False)


def f_vector(q: BinaryQP, d: DualPoint) -> np.ndarray:
    """F = h - D'sigma - H'tau + mu."""
    if d.tau.shape != (q.n,) or d.mu.shape != (q.K,) or d.sigma.shape != (q.m,):
        raise ValueError("dual point dimensions do not match the problem")
    F = q.h + d.mu - q.H.T @ d.tau
    if q.m:
        F = F - q.D.T @ d.sigma
    return F


def factorize_g(q: BinaryQP, mu: np.ndarray) -> GFactorization:
    """Form G(mu) = B + 2 diag(mu) and attempt its Cholesky factorization."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (q.K,):
        raise ValueError(f"mu has shape {mu.shape}, expected ({q.K},)")
    G = q.B.copy()
    G[np.diag_indices_from(G)] += 2.0 * mu
    try:
        return GFactorization(cho_factor(G, lower=True, check_finite=False))
    except LinAlgError:
        return GFactorization(None)


def recover_y(fact: GFactorization, F: np.ndarray) -> np.ndarray:
    """The stationary primal point y = G^-1 F (G must be PD)."""
    return fact.solve(np.asarray(F, dtype=float))


def eliminate_tau(q: BinaryQP, sigma: np.ndarray, mu: np.ndarray):
    """Maximize P_dual over tau at fixed (sigma, mu).

    Returns (P_dual, y, tau) at the optimal tau, or None when G(mu) is not
    PD or the n-by-n tau system is singular.
    """
    fact = factorize_g(q, mu)
    if not fact.positive_definite:
        return None
    ht = q.h + mu
    if q.m:
        ht = ht - q.D.T @ sigma
    sol = fact.solve(np.column_stack([ht, q.H.T]))
    y0 = sol[:, 0]
    Z = sol[:, 1:]
    S = q.H @ Z
    try:
        tau = np.linalg.solve(S, q.H @ y0 - 1.0)
    except np.linalg.LinAlgError:
        return None
    F = ht - q.H.T @ tau
    y = y0 - Z @ tau
    value = -0.5 * (F @ y) - tau.sum()
    if q.m:
        value -= sigma @ q.b
    return value, y, tau


def dual_value(q: BinaryQP, d: DualPoint, fact: GFactorization = None) -> float:
    """P_dual = -0.5 F'G^-1F - sigma'b - tau'1 on the PD cone, -inf off it."""
    if fact is None:
        fact = factorize_g(q, d.mu)
    if not fact.positive_definite:
        return -np.inf
    F = f_vector(q, d)
    val = -0.5 * F @ fact.solve(F) - d.tau.sum()
    if q.m:
        val -= d.sigma @ q.b
    return float(val)


def dual_gradient(q: BinaryQP, d: DualPoint,
                  fact: GFactorization = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascent gradient of P_dual, evaluated through y = G^-1F (G must be PD).

    Returns (d/dsigma, d/dtau, d/dmu) = (Dy - b, Hy - 1, y*(y-1)).
    """
    if fact is None:
        fact = factorize_g(q, d.mu)
    y = recover_y(fact, f_vector(q, d))
    gs = (q.D @ y - q.b) if q.m else np.zeros(0)
    gt = q.H @ y - 1.0
    gm = y * (y - 1.0)
    return gs, gt, gm


def in_dual_cone(q: BinaryQP, d: DualPoint, mu_min: float = MU_MIN,
                 fact: GFactorization = None) -> bool:
    """Membership in the certificate cone: sigma >= 0, mu >= mu_min, G PD.

    ``mu_min`` is the computable stand-in for strict positivity of mu;
    positive definiteness is the Cholesky test from :func:`factorize_g`
    (``fact``, when given, must be ``factorize_g(q, d.mu)``).
    """
    if q.m and np.any(d.sigma < 0.0):
        return False
    if np.any(d.mu < mu_min):
        return False
    if fact is None:
        fact = factorize_g(q, d.mu)
    return fact.positive_definite
