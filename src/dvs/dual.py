"""Dual function algebra for the lifted 0-1 problem.

For dual variables (sigma, tau, mu) define

    G(mu)            = B + 2 diag(mu)
    F(sigma,tau,mu)  = h - D'sigma - H'tau + mu
    P_dual           = -0.5 F' G^+ F - sigma'b - tau'1

where G^+ is the inverse when G is positive definite and the Moore-Penrose
pseudo-inverse otherwise.  The stationary primal point is y = G^+ F, and
the gradient of P_dual evaluated through that y has the closed form

    d/dsigma = Dy - b,   d/dtau = Hy - 1,   d/dmu = y * (y - 1)

(the complementarity products reappear as the mu-gradient; validity
requires nonsingular G, which the solver maintains).  Maximizing P_dual
over the cone where sigma >= 0, mu > 0 and G(mu) is positive definite
yields a global-optimality certificate for the primal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, eigh

from .model import BinaryQP, DualPoint

MU_MIN = 1e-8
PINV_TOL_FACTOR = 1e-10


@dataclass(frozen=True)
class GFactorization:
    """A solve handle for G(mu): Cholesky when PD, else eigendecomposition.

    ``positive_definite`` records which route was taken.
    """

    matrix: np.ndarray
    positive_definite: bool
    _cho: tuple = field(default=None, repr=False)
    _eigvals: np.ndarray = field(default=None, repr=False)
    _eigvecs: np.ndarray = field(default=None, repr=False)

    @cached_property
    def min_eig(self) -> float:
        """The smallest eigenvalue, computed on first read.

        Exact on the eigen route.  After a successful Cholesky it is the
        guaranteed-positive bound 1/||G^-1||_inf (valid since ||M||_2 <=
        ||M||_inf for symmetric M) rather than a round-off-negative exact
        eigenvalue — the factorization itself is the proof that the true
        minimum is positive.  The bound forms the full inverse, so nothing
        on the solve path reads it.
        """
        if not self.positive_definite:
            return float(self._eigvals[0])
        inv_cols = cho_solve(self._cho, np.eye(self.matrix.shape[0]),
                             check_finite=False)
        return 1.0 / float(np.abs(inv_cols).sum(axis=1).max())

    @property
    def pinv_cutoff(self) -> float:
        """Eigenvalues with magnitude at or below this are treated as zero."""
        if self.positive_definite:
            return 0.0
        w = self._eigvals
        return PINV_TOL_FACTOR * float(np.max(np.abs(w))) if w.size else 0.0

    def apply_pinv(self, rhs: np.ndarray) -> np.ndarray:
        """Return G^+ rhs (triangular solves when PD, spectral otherwise)."""
        if self.positive_definite:
            return cho_solve(self._cho, rhs, check_finite=False)
        w, V = self._eigvals, self._eigvecs
        keep = np.abs(w) > self.pinv_cutoff
        inv = np.zeros_like(w)
        inv[keep] = 1.0 / w[keep]
        return V @ (inv * (V.T @ rhs))


def g_matrix(q: BinaryQP, mu: np.ndarray) -> np.ndarray:
    """G(mu) = B + 2 diag(mu)."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (q.K,):
        raise ValueError(f"mu has shape {mu.shape}, expected ({q.K},)")
    G = q.B.copy()
    G[np.diag_indices_from(G)] += 2.0 * mu
    return G


def f_vector(q: BinaryQP, d: DualPoint) -> np.ndarray:
    """F = h - D'sigma - H'tau + mu."""
    if d.tau.shape != (q.n,) or d.mu.shape != (q.K,) or d.sigma.shape != (q.m,):
        raise ValueError("dual point dimensions do not match the problem")
    F = q.h + d.mu - q.H.T @ d.tau
    if q.m:
        F = F - q.D.T @ d.sigma
    return F


def factorize_g(q: BinaryQP, mu: np.ndarray) -> GFactorization:
    """Factor G(mu), attempting Cholesky first.

    Cholesky success is the positive-definiteness test used throughout;
    on failure we fall back to a symmetric eigendecomposition that
    supports pseudo-inverse solves and reports the smallest eigenvalue.
    """
    G = g_matrix(q, mu)
    G.flags.writeable = False
    try:
        cho = cho_factor(G, lower=True, check_finite=False)
    except LinAlgError:
        w, V = eigh(G, check_finite=False)
        return GFactorization(matrix=G, positive_definite=False,
                              _eigvals=w, _eigvecs=V)
    return GFactorization(matrix=G, positive_definite=True, _cho=cho)


def recover_y(fact: GFactorization, F: np.ndarray) -> tuple[np.ndarray, float]:
    """Return (G^+ F, relative residual ||G y - F|| / max(1, ||F||)).

    On the Cholesky route the residual is round-off noise.  On the
    pseudo-inverse route a residual above the cutoff means F had
    components outside the column space of G (the stationary problem has
    no finite solution there); callers decide how to react.
    """
    F = np.asarray(F, dtype=float)
    y = fact.apply_pinv(F)
    res = np.linalg.norm(fact.matrix @ y - F) / max(1.0, np.linalg.norm(F))
    return y, float(res)


def dual_value(q: BinaryQP, d: DualPoint, fact: GFactorization = None) -> float:
    """P_dual(sigma, tau, mu) = -0.5 F'G^+F - sigma'b - tau'1."""
    if fact is None:
        fact = factorize_g(q, d.mu)
    F = f_vector(q, d)
    val = -0.5 * F @ fact.apply_pinv(F) - d.tau.sum()
    if q.m:
        val -= d.sigma @ q.b
    return float(val)


def dual_gradient(q: BinaryQP, d: DualPoint,
                  fact: GFactorization = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascent gradient of P_dual, evaluated through y = G^+F.

    Returns (d/dsigma, d/dtau, d/dmu) = (Dy - b, Hy - 1, y*(y-1)).
    """
    if fact is None:
        fact = factorize_g(q, d.mu)
    y, _ = recover_y(fact, f_vector(q, d))
    gs = (q.D @ y - q.b) if q.m else np.zeros(0)
    gt = q.H @ y - 1.0
    gm = y * (y - 1.0)
    return gs, gt, gm


def total_complementary(q: BinaryQP, y: np.ndarray, d: DualPoint) -> float:
    """The saddle function Xi(y, d) = 0.5 y'G(mu)y - F'y - sigma'b - tau'1.

    At fixed d it is minimized over y by the stationary point whenever
    G(mu) is PD, and its minimum value equals P_dual(d); at a one-hot y it
    reproduces the lifted objective plus multiplier-weighted constraint
    terms.  Both identities are exercised by the tests.
    """
    y = np.asarray(y, dtype=float)
    G = g_matrix(q, d.mu)
    F = f_vector(q, d)
    val = 0.5 * y @ G @ y - F @ y - d.tau.sum()
    if q.m:
        val -= d.sigma @ q.b
    return float(val)


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
