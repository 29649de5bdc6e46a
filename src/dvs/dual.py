"""Dual function algebra for the lifted 0-1 problem.

For dual variables (sigma, tau, mu) define

    G(mu)            = B + 2 diag(mu)
    F(sigma,tau,mu)  = h - D'sigma - H'tau + mu
    P_dual           = -0.5 F' G^-1 F - sigma'b - tau'1

where G(mu) is positive definite, with stationary primal point y = G^-1 F
and gradient (d/dsigma, d/dtau, d/dmu) = (Dy - b, Hy - 1, y * (y - 1)).
These tau-given functions (:func:`f_vector`, :func:`factorize_g`,
:func:`recover_y`, :func:`dual_value`, :func:`dual_gradient`,
:func:`in_dual_cone`) are the textbook definition on the ``BinaryQP`` that
:func:`dvs.model.lift` builds, with F and G(mu) formed densely as above and
G(mu) factored by ``scipy.linalg.cho_factor``; only the tests call them,
with tau as an argument.  The solver and ``dvs check`` call only
:func:`eliminate_tau`, on the ``DiscreteQP``, which forms no lifted array.

:func:`eliminate_tau` maximizes P_dual over tau, i.e. minimizes
0.5 y'G y - (F + H'tau)'y over {H y = 1}, which bounds every feasible 0-1
point from below as long as G is PD on ker H.  With B = M Q M', M the
K-by-n block matrix of candidate values, and per block rd = 1/(2 mu),
e = sum rd, ubar = sum u rd / e, du = u - ubar, V = sum rd du^2 and
c = ubar + sum du / 2, the minimizer is

    y = 1/2 + (alpha + beta du) rd,   beta = (x - c) / V,
    alpha = (1 - s/2 - beta sum rd du) / e,   tau = beta ubar - alpha,

where x solves (Q + diag(1/V)) x = gamma + c/V, gamma = c_problem - A'sigma,
as (I + S Q S) z = S (gamma - Q c), S = diag(sqrt V).  The centring keeps
alpha and beta on the scale of mu; H y = 1 and M'y = x by construction.

That one Cholesky is also the cone test.  For mu > 0 take y in ker H with
M'y = x: y'G y = x'Q x + sum 2 mu y^2, and per block the least
sum 2 mu y^2 subject to sum y = 0, sum u y = x_i is x_i^2 / V_i (at
y = x_i rd du / V_i).  So G|ker H is PD iff Q + diag(1/V) is, and G(mu)
PD implies it, never the other way round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.lapack import dpotrf, dpotrs

from .model import MU_MIN, BinaryQP, DiscreteQP, DualPoint

_EPS = np.finfo(float).eps


def _cholesky(Q: np.ndarray, s: np.ndarray):
    """The lower Cholesky factor L of A = I + diag(s) Q diag(s), or None
    when A is not positive definite or numerically singular: a pivot with
    min(diag L)^2 <= n eps max(diag A).  That floor is a floating-point
    guard, not a proof: ``dpotrf`` accepts matrices whose smallest
    eigenvalue is a round-off of their largest, and a solve through such
    a factor can put the dual value above every selection's objective.
    The matrix is formed in a new array and factored in place."""
    n = Q.shape[0]
    a = np.multiply(s[:, None], s)
    a *= Q
    a.flat[::n + 1] += 1.0
    # Python's max and min over the diagonals cost a third of two numpy
    # reductions at the n of a few where the kernel's calls add up.
    largest = max(a.diagonal().tolist())
    # a is symmetric, so its transpose is the same matrix in Fortran order,
    # which dpotrf factors without a copy.
    cho, info = dpotrf(a.T, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        return None
    pivot = min(cho.diagonal().tolist())
    return None if pivot * pivot <= n * _EPS * largest else cho


@dataclass
class GFactorization:
    """G(mu) = B + 2 diag(mu), formed densely: ``cho`` is its Cholesky
    factor as ``scipy.linalg.cho_factor`` returns it, None when G(mu) is
    not PD."""

    cho: tuple | None

    @property
    def positive_definite(self) -> bool:
        return self.cho is not None

    def solve(self, F: np.ndarray) -> np.ndarray:
        """Return y = G^-1 F for a K-vector F."""
        if self.cho is None:
            raise LinAlgError("G(mu) is not positive definite")
        return cho_solve(self.cho, F)


def f_vector(q: BinaryQP, d: DualPoint, tau: np.ndarray) -> np.ndarray:
    """F = h - D'sigma - H'tau + mu."""
    if tau.shape != (q.n,) or d.mu.shape != (q.K,) or d.sigma.shape != (q.m,):
        raise ValueError("dual point dimensions do not match the problem")
    return q.h + d.mu - q.H.T @ tau - q.D.T @ d.sigma


def factorize_g(q: BinaryQP, mu: np.ndarray) -> GFactorization:
    """Factor G(mu) = B + 2 diag(mu); off the cone (some mu_k <= 0, or G(mu)
    not PD) ``cho`` is None."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (q.K,):
        raise ValueError(f"mu has shape {mu.shape}, expected ({q.K},)")
    if not mu.min() > 0.0:
        return GFactorization(cho=None)
    try:
        return GFactorization(cho=cho_factor(q.B + 2.0 * np.diag(mu)))
    except LinAlgError:
        return GFactorization(cho=None)


def recover_y(fact: GFactorization, F: np.ndarray) -> np.ndarray:
    """The stationary primal point y = G^-1 F (G must be PD)."""
    return fact.solve(np.asarray(F, dtype=float))


def eliminate_tau(p: DiscreteQP, sigma: np.ndarray, mu: np.ndarray):
    """Maximize P_dual over tau at fixed (sigma, mu).

    Returns (P_dual, x, y, tau) at the optimal tau, x = M'y, or None off
    the cone: some mu_k <= 0, or Q + diag(1/V) not PD.
    """
    mu = np.asarray(mu, dtype=float)
    if not mu.min() > 0.0:
        return None
    u, rd, at, starts = p.U_flat, 0.5 / mu, p.block_of, p.starts
    e = np.add.reduceat(rd, starts)
    ubar = np.add.reduceat(u * rd, starts) / e
    du = u - ubar[at]
    rdu = rd * du
    sv = np.sqrt(np.add.reduceat(rdu * du, starts))
    cho = _cholesky(p.Q, sv)
    if cho is None:
        return None
    cc = ubar + 0.5 * np.add.reduceat(du, starts)
    gamma = p.c - p.A.T @ sigma
    # (Q + diag(1/V)) x = gamma + c/V as (I + S Q S) z = S (gamma - Q c),
    # x = c + S z with S = diag(sqrt V), so beta = (x - c)/V = z/sqrt V.  A
    # one-value block has V = 0 and x = c; its beta is read off the
    # stationarity condition beta = gamma - Q x.
    z = dpotrs(cho, sv * (gamma - p.Q @ cc), lower=1)[0]
    x = cc + sv * z
    Qx = p.Q @ x
    beta = np.divide(z, sv, out=gamma - Qx, where=sv > 0.0)
    alpha = (p.alpha_base - beta * np.add.reduceat(rdu, starts)) / e
    y = 0.5 + (alpha[at] + beta[at] * du) * rd
    tau = beta * ubar - alpha
    value = 0.5 * (x @ Qx) - gamma @ x + mu @ (y * (y - 1.0)) - sigma @ p.b
    return value, x, y, tau


def dual_value(q: BinaryQP, d: DualPoint, tau: np.ndarray) -> float:
    """P_dual = -0.5 F'G^-1F - sigma'b - tau'1 on the PD cone, -inf off it."""
    fact = factorize_g(q, d.mu)
    if not fact.positive_definite:
        return -np.inf
    F = f_vector(q, d, tau)
    return float(-0.5 * F @ fact.solve(F) - np.sum(tau) - d.sigma @ q.b)


def dual_gradient(q: BinaryQP, d: DualPoint, tau: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascent gradient of P_dual, evaluated through y = G^-1F (G must be PD).

    Returns (d/dsigma, d/dtau, d/dmu) = (Dy - b, Hy - 1, y*(y-1)).
    """
    y = recover_y(factorize_g(q, d.mu), f_vector(q, d, tau))
    return q.D @ y - q.b, q.H @ y - 1.0, y * (y - 1.0)


def in_dual_cone(q: BinaryQP, d: DualPoint) -> bool:
    """Membership in the tau-given cone: sigma >= 0, mu >= MU_MIN, G(mu) PD.

    This is narrower than the certificate's cone (Q + diag(1/V) PD, see
    the module docstring); it is kept as the reference for the weak-duality
    and gradient checks of the tau-given dual.
    """
    return (not np.any(d.sigma < 0.0) and not np.any(d.mu < MU_MIN)
            and factorize_g(q, d.mu).positive_definite)
