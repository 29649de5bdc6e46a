"""Dual function algebra for the lifted 0-1 problem.

For dual variables (sigma, tau, mu) define

    G(mu)            = B + 2 diag(mu)
    F(sigma,tau,mu)  = h - D'sigma - H'tau + mu
    P_dual           = -0.5 F' G^-1 F - sigma'b - tau'1

where G(mu) is positive definite, with stationary primal point y = G^-1 F
and gradient (d/dsigma, d/dtau, d/dmu) = (Dy - b, Hy - 1, y * (y - 1)).
These tau-given functions (:func:`factorize_g`, :func:`recover_y`,
:func:`dual_value`, :func:`dual_gradient`, :func:`in_dual_cone`) are the
reference the tests compare against; the solver and ``dvs check`` call
only :func:`eliminate_tau`.  No K-by-K matrix is formed: B = M Q M' with
M the K-by-n block matrix of candidate values, so with rd = 1/(2 mu) and
W = sum u^2 rd per block, G(mu) is PD exactly when mu > 0 and the
congruent n-by-n I + S Q S, S = diag(sqrt W), passes Cholesky.

:func:`eliminate_tau` maximizes P_dual over tau, i.e. minimizes
0.5 y'G y - (F + H'tau)'y over {H y = 1}, which bounds every feasible 0-1
point from below as long as G is PD on ker H.  Per block, with
e = sum rd, ubar = sum u rd / e, du = u - ubar, V = sum rd du^2 and
c = ubar + sum du / 2, the minimizer is

    y = 1/2 + (alpha + beta du) rd,   beta = (x - c) / V,
    alpha = (1 - s/2 - beta sum rd du) / e,   tau = beta ubar - alpha,

where x solves (Q + diag(1/V)) x = gamma + c/V, gamma = c_problem - A'sigma,
as (I + S Q S) z = S (gamma - Q c), S = diag(sqrt V).  The centring keeps
alpha and beta on the scale of mu, and H y = 1 holds by construction.

That one Cholesky is also the cone test.  For mu > 0 take y in ker H with
M'y = x: y'G y = x'Q x + sum 2 mu y^2, and per block the least
sum 2 mu y^2 subject to sum y = 0, sum u y = x_i is x_i^2 / V_i (at
y = x_i rd du / V_i).  So G|ker H is PD iff Q + diag(1/V) is.  Since
V = W - e ubar^2 <= W, G(mu) PD implies it, never the other way round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf, dpotrs

from .model import MU_MIN, BinaryQP, DualPoint


def _cholesky(Q: np.ndarray, s: np.ndarray):
    """The lower Cholesky factor of I + diag(s) Q diag(s), or None when that
    matrix is not positive definite."""
    a = Q * np.multiply.outer(s, s)
    a.flat[::a.shape[0] + 1] += 1.0
    # a is symmetric, so its transpose is the same matrix in Fortran order.
    cho, info = dpotrf(a.T, lower=1, clean=0, overwrite_a=1)
    return cho if info == 0 else None


@dataclass
class GFactorization:
    """G(mu) through its n-by-n reduction: ``cho`` factors I + S Q S with
    S = diag(sqrt W); None when G(mu) is not PD."""

    q: BinaryQP
    rd: np.ndarray
    sw: np.ndarray
    cho: np.ndarray | None

    @property
    def positive_definite(self) -> bool:
        return self.cho is not None

    def solve(self, F: np.ndarray) -> np.ndarray:
        """Return y = G^-1 F for a K-vector F.

        y = rd (F - M Q x) with x = M'y from the n-by-n system
        (Q + diag(1/W)) x = M'(rd F) / W.  Where mu is tiny, rd amplifies
        the rounding of F - M Q x, so M'y drifts from x; one refinement
        step solves G dy = M Q (x - M'y), whose right-hand side is small,
        and leaves a residual G y - F at round-off.
        """
        if self.cho is None:
            raise LinAlgError("G(mu) is not positive definite")
        q, rd, sw, u = self.q, self.rd, self.sw, self.q.U_flat
        # (Q + diag(1/W)) x = r is (I + S Q S) z = S r with x = S z.
        g = q.block_sums(u * rd * F)
        z = dpotrs(self.cho, np.divide(g, sw, out=np.zeros(q.n),
                                       where=sw > 0.0), lower=1)[0]
        y = rd * (F - u * (q.Q @ (sw * z))[q.block_of])
        # G dy = M rho has M'dy = S z with (I + S Q S) z = S rho, and
        # dy = rd u (rho - Q S z) = rd u z / S per block.
        rho = q.Q @ (sw * z - q.x_of(y))
        z = dpotrs(self.cho, sw * rho, lower=1)[0]
        return y + rd * u * np.divide(z, sw, out=np.zeros(q.n),
                                      where=sw > 0.0)[q.block_of]


def f_vector(q: BinaryQP, d: DualPoint) -> np.ndarray:
    """F = h - D'sigma - H'tau + mu."""
    if d.tau.shape != (q.n,) or d.mu.shape != (q.K,) or d.sigma.shape != (q.m,):
        raise ValueError("dual point dimensions do not match the problem")
    return q.h + d.mu - d.tau[q.block_of] - q.D.T @ d.sigma


def factorize_g(q: BinaryQP, mu: np.ndarray) -> GFactorization:
    """Decide whether G(mu) = B + 2 diag(mu) is PD by an n-by-n Cholesky.

    Off the cone (some mu_k <= 0, or I + S Q S not PD) ``cho`` is None.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (q.K,):
        raise ValueError(f"mu has shape {mu.shape}, expected ({q.K},)")
    if not mu.min() > 0.0:
        return GFactorization(q=q, rd=None, sw=None, cho=None)
    rd = 0.5 / mu
    sw = np.sqrt(q.block_sums(q.U_flat * q.U_flat * rd))
    return GFactorization(q=q, rd=rd, sw=sw, cho=_cholesky(q.Q, sw))


def recover_y(fact: GFactorization, F: np.ndarray) -> np.ndarray:
    """The stationary primal point y = G^-1 F (G must be PD)."""
    return fact.solve(np.asarray(F, dtype=float))


def eliminate_tau(q: BinaryQP, sigma: np.ndarray, mu: np.ndarray):
    """Maximize P_dual over tau at fixed (sigma, mu).

    Returns (P_dual, y, tau) at the optimal tau, or None off the cone: some
    mu_k <= 0, or Q + diag(1/V) not PD.
    """
    mu = np.asarray(mu, dtype=float)
    if not mu.min() > 0.0:
        return None
    u, rd, at = q.U_flat, 0.5 / mu, q.block_of
    e = q.block_sums(rd)
    ubar = q.block_sums(u * rd) / e
    du = u - ubar[at]
    rdu = rd * du
    sv = np.sqrt(q.block_sums(rdu * du))
    cho = _cholesky(q.Q, sv)
    if cho is None:
        return None
    cc = ubar + 0.5 * q.block_sums(du)
    gamma = q.c - q.A.T @ sigma
    # (Q + diag(1/V)) x = gamma + c/V as (I + S Q S) z = S (gamma - Q c),
    # x = c + S z with S = diag(sqrt V), so beta = (x - c)/V = z/sqrt V.  A
    # one-value block has V = 0 and x = c; its beta is read off the
    # stationarity condition beta = gamma - Q x.
    z = dpotrs(cho, sv * (gamma - q.Q @ cc), lower=1)[0]
    x = cc + sv * z
    Qx = q.Q @ x
    beta = np.divide(z, sv, out=gamma - Qx, where=sv > 0.0)
    alpha = (1.0 - 0.5 * q.sizes - beta * q.block_sums(rdu)) / e
    y = 0.5 + (alpha[at] + beta[at] * du) * rd
    tau = beta * ubar - alpha
    value = 0.5 * (x @ Qx) - gamma @ x + mu @ (y * (y - 1.0)) - sigma @ q.b
    return value, y, tau


def dual_value(q: BinaryQP, d: DualPoint) -> float:
    """P_dual = -0.5 F'G^-1F - sigma'b - tau'1 on the PD cone, -inf off it."""
    fact = factorize_g(q, d.mu)
    if not fact.positive_definite:
        return -np.inf
    F = f_vector(q, d)
    return float(-0.5 * F @ fact.solve(F) - d.tau.sum() - d.sigma @ q.b)


def dual_gradient(q: BinaryQP, d: DualPoint
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascent gradient of P_dual, evaluated through y = G^-1F (G must be PD).

    Returns (d/dsigma, d/dtau, d/dmu) = (Dy - b, Hy - 1, y*(y-1)).
    """
    y = recover_y(factorize_g(q, d.mu), f_vector(q, d))
    return q.D @ y - q.b, q.block_sums(y) - 1.0, y * (y - 1.0)


def in_dual_cone(q: BinaryQP, d: DualPoint, mu_min: float = MU_MIN) -> bool:
    """Membership in the tau-given cone: sigma >= 0, mu >= mu_min, G(mu) PD.

    This is narrower than the certificate's cone (Q + diag(1/V) PD, see
    the module docstring); it is kept as the reference for the weak-duality
    and gradient checks of the tau-given dual.
    """
    return (not np.any(d.sigma < 0.0) and not np.any(d.mu < mu_min)
            and factorize_g(q, d.mu).positive_definite)
