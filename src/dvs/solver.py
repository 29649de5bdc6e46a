"""Concave dual maximization, rounding, certification, and the full solve.

The dual P_dual(sigma, tau, mu) is maximized with tau eliminated
(:func:`dvs.dual.eliminate_tau`, one n-by-n Cholesky per evaluation) over
the cone {sigma >= 0, mu >= 1e-8, Q + diag(1/V) PD}, so the outer
iteration works on (sigma, mu) only, with the ascent gradient
(D y - b, y * (y - 1)).  The outer loop is a projected L-BFGS, its
direction formed on the free coordinates from the compact representation
of Byrd, Nocedal & Schnabel ("Representations of quasi-Newton matrices
and their use in limited memory methods", Math. Prog. 63, 1994), with an
Armijo backtracking line search that rejects any trial off that cone —
feasibility before ascent.

The certificate is an n-level function of the rounded point x (each
block's largest y): :func:`certify` holds its residual, gap, cone and
status rules, and :func:`verify_kkt` feeds it one
:func:`dvs.dual.eliminate_tau` value, as ``dvs check`` does.  The ascent
certifies with the dual value of the iterate it already has, at every
iterate whose x meets that value within the gap tolerance and once at the
final iterate, and stops at the first that certifies.  The certified gap
is therefore at most ``tol_gap * (1 + |objective|)`` rather than
round-off.  Instances that never certify run the ascent to its other
stopping rules; the candidate at the final iterate is what ``solve``
reports.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvalsh
from scipy.linalg.lapack import dtrtrs

from .dual import eliminate_tau
# Not called here; perfbench/tracing.py wraps these two names.
from .dual import factorize_g, recover_y  # noqa: F401
from .lift import lift
from .model import (
    CERTIFIED_GLOBAL,
    MU_MIN,
    NO_CERTIFICATE,
    ORACLE_FALLBACK,
    TOL_GAP,
    BinaryQP,
    Certificate,
    DiscreteQP,
    DualPoint,
    SolveReport,
    objective,
)
from .oracle import enumerate_discrete

log = logging.getLogger("dvs.solver")

TERM_CERTIFIED = "Certified"
TERM_CONVERGED = "Converged"
TERM_MAX_ITER = "MaxIterations"
TERM_STALL = "LineSearchStall"

_ARMIJO_C1 = 1e-4
_MIN_STEP = 1e-16
_LBFGS_MEMORY = 20
_STALL_PATIENCE = 50
_TOL_GRAD = 1e-8


@dataclass(frozen=True)
class SolverConfig:
    """The certificate's gap tolerance, the ascent's iteration budget and
    the oracle-fallback threshold."""

    tol_gap: float = TOL_GAP
    max_iter: int = 5000
    fallback_oracle_max_K: int = 24

    def __post_init__(self):
        if not 0.0 < self.tol_gap < np.inf:
            raise ValueError("tol_gap must be finite and > 0")
        for name in ("max_iter", "fallback_oracle_max_K"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class Candidate:
    """The kernel's y at a dual point, the x it rounds to, and x's
    certificate."""

    y: np.ndarray
    x: np.ndarray
    low_confidence_blocks: tuple[int, ...]
    certificate: Certificate


@dataclass(frozen=True)
class AscentTrace:
    """Dual values of the accepted iterates, the termination reason and
    the candidate (rounded x and its certificate) at the final iterate."""

    values: tuple[float, ...]
    termination: str
    candidate: Candidate = field(default=None, compare=False, repr=False)

    @property
    def iterations(self) -> int:
        return len(self.values) - 1


def initial_point(q: BinaryQP) -> DualPoint:
    """sigma = 0, tau = 0, and a uniform mu that makes G(mu) safely PD.

    mu0 = max(MU_MIN, delta0 - lambda_min(B)/2) with delta0 =
    1e-3 (1 + ||B||_inf) gives G(mu0) >= 2 delta0 I, inside the kernel's
    cone, so the very first Cholesky attempt cannot fail.  Both come from n-level data: B = M Q M'
    has the nonzero spectrum of S Q S, S^2 = diag(sum u^2) = M'M, plus
    K - n zeros, and row k of |B| sums to |u_k| (|Q| M'|u|)_i.
    """
    au = np.abs(q.U_flat)
    b_norm = float((np.maximum.reduceat(au, q.starts)
                    * (np.abs(q.Q) @ q.block_sums(au))).max())
    s = np.sqrt(q.block_sums(q.U_flat * q.U_flat))
    lam_min = float(eigvalsh(q.Q * np.multiply.outer(s, s),
                             subset_by_index=(0, 0), check_finite=False)[0])
    if q.K > q.n:
        lam_min = min(0.0, lam_min)
    delta0 = 1e-3 * (1.0 + b_norm)
    mu0 = max(MU_MIN, delta0 - lam_min / 2.0)
    return DualPoint(sigma=np.zeros(q.m), tau=np.zeros(q.n),
                     mu=np.full(q.K, mu0))


def _evaluate(q: BinaryQP, w: np.ndarray):
    """(f, grad, y, tau) with f = -P_dual at the optimal tau and grad its
    (sigma, mu)-gradient; None off the cone (infeasible trial point)."""
    res = eliminate_tau(q, w[:q.m], w[q.m:])
    if res is None:
        return None
    value, y, tau = res
    return -value, -np.concatenate([q.D @ y - q.b, y * (y - 1.0)]), y, tau


class _LBFGSMemory:
    """The newest curvature pairs (s, y) in the compact form of Byrd,
    Nocedal & Schnabel (1994).

    Rows ``S[:k]``, ``Y[:k]`` hold the pairs oldest first; ``R`` keeps the
    upper triangle of S Y' and ``YY`` the Gram matrix Y Y', each updated by
    one matrix-vector product per pair.  A full memory shifts its oldest
    pair out.  ``apply`` computes the L-BFGS inverse-Hessian product with
    H0 = gamma I, gamma = s'y / y'y of the newest pair — the direction of
    the two-loop recursion, in a fixed handful of BLAS calls.
    """

    def __init__(self, size: int, dim: int):
        self.S = np.empty((size, dim))
        self.Y = np.empty((size, dim))
        self.R = np.zeros((size, size))
        self.YY = np.zeros((size, size))
        self.k = 0

    def append(self, s: np.ndarray, y: np.ndarray):
        if self.k == len(self.S):
            for a in (self.S, self.Y):
                a[:-1] = a[1:]
            for a in (self.R, self.YY):
                a[:-1, :-1] = a[1:, 1:]
            self.k -= 1
        k = self.k + 1
        self.S[k - 1] = s
        self.Y[k - 1] = y
        self.R[:k, k - 1] = self.S[:k] @ y
        self.YY[:k, k - 1] = self.YY[k - 1, :k] = self.Y[:k] @ y
        self.k = k

    def apply(self, r: np.ndarray) -> np.ndarray:
        """H r; with no pairs stored, r scaled to at most unit norm."""
        k = self.k
        if not k:
            return r / max(1.0, np.linalg.norm(r))
        S, Y, R = self.S[:k], self.Y[:k], self.R[:k, :k]
        gamma = R[-1, -1] / self.YY[k - 1, k - 1]
        t = dtrtrs(R, S @ r)[0]
        p = dtrtrs(R, R.diagonal() * t
                   + gamma * (self.YY[:k, :k] @ t - Y @ r), trans=1)[0]
        return gamma * r + S.T @ p - gamma * (Y.T @ t)


def maximize_dual(q: BinaryQP, cfg: SolverConfig = None) -> tuple[DualPoint, AscentTrace]:
    """Projected L-BFGS ascent of P_dual over {sigma >= 0, mu >= MU_MIN}.

    The L-BFGS direction comes from the compact representation of the
    last 20 curvature pairs (Byrd, Nocedal & Schnabel, Math. Prog. 63,
    1994); a non-descent direction clears the memory and falls back to
    steepest ascent.  Every accepted iterate stays on the cone of
    :func:`dvs.dual.eliminate_tau` and never decreases the dual value; the
    trace records the dual value of the initial point and of each
    accepted step, and carries the candidate at the final iterate.
    Terminates at the first iterate (the initial point included) whose
    rounded x certifies as CertifiedGlobal ("Certified"); otherwise when
    the projected gradient infinity-norm falls to 1e-8 ("Converged"),
    after max_iter steps ("MaxIterations"), or when no further progress
    is possible — the line search finds no ascent step above 1e-16, or
    the dual value has been exactly flat for 50 consecutive accepted
    steps ("LineSearchStall", best iterate returned — typically at the
    round-off floor).
    """
    if cfg is None:
        cfg = SolverConfig()
    m, K = q.m, q.K
    start = initial_point(q)
    w = np.concatenate([start.sigma, start.mu])
    lb = np.concatenate([np.zeros(m), np.full(K, MU_MIN)])

    f, g, y, tau = _evaluate(q, w)
    evaluations, rejections, resets = 1, 0, 0
    values = [-f]
    memory = _LBFGSMemory(_LBFGS_MEMORY, m + K)
    termination = TERM_MAX_ITER
    flat_steps = 0
    for it in range(cfg.max_iter + 1):
        # Only an x whose objective meets the dual value -f can certify.
        x = q.U_flat[_block_argmax(y, q)]
        value = objective(q, x)
        cert = None
        if abs(value + f) <= cfg.tol_gap * (1.0 + abs(value)):
            cert = certify(q, x, w[:m], w[m:], -f, cfg.tol_gap)
            if cert.status == CERTIFIED_GLOBAL:
                termination = TERM_CERTIFIED
                break
        if flat_steps >= _STALL_PATIENCE:
            termination = TERM_STALL
            break
        if it == cfg.max_iter:
            break
        at_bound = w <= lb
        pg = np.where(at_bound, np.minimum(g, 0.0), g)
        pg_norm = float(np.abs(pg).max())
        if pg_norm <= _TOL_GRAD:
            termination = TERM_CONVERGED
            break
        if it % 50 == 0:
            log.debug("iter %d dual=%.12g pg=%.3e", it, -f, pg_norm)

        # L-BFGS on the free coordinates; bound-active coordinates whose
        # gradient pushes outward are frozen.
        frozen = at_bound & (g > 0)
        r = np.where(frozen, 0.0, g)
        direction = -np.where(frozen, 0.0, memory.apply(r))
        if g @ direction >= 0.0:
            memory.k = 0
            resets += 1
            direction = -memory.apply(r)

        step = 1.0
        accepted = None
        while step >= _MIN_STEP:
            w_try = np.maximum(w + step * direction, lb)
            dg = g @ (w_try - w)
            if dg < 0.0:
                res = _evaluate(q, w_try)
                evaluations += 1
                if res is None:
                    rejections += 1
                elif res[0] <= f + _ARMIJO_C1 * dg:
                    accepted = (w_try, res)
                    break
            step *= 0.5
        if accepted is None:
            termination = TERM_STALL
            break

        w_try, (f_try, g_try, y_try, tau_try) = accepted
        flat_steps = 0 if f_try < f else flat_steps + 1
        s_v = w_try - w
        y_v = g_try - g
        curv = s_v @ y_v
        if curv > 1e-12 * np.linalg.norm(s_v) * np.linalg.norm(y_v):
            memory.append(s_v, y_v)
        w, f, g, y, tau = w_try, f_try, g_try, y_try, tau_try
        values.append(-f)

    log.info("dual ascent: %s after %d iterations, dual=%.12g, "
             "%d dual evaluations, %d cone rejections, %d L-BFGS resets",
             termination, len(values) - 1, -f, evaluations, rejections,
             resets)
    x, flagged = round_binary(y, q)
    if cert is None:
        cert = certify(q, x, w[:m], w[m:], -f, cfg.tol_gap)
    candidate = Candidate(y=y, x=x, low_confidence_blocks=flagged,
                          certificate=cert)
    return (DualPoint(sigma=w[:m], tau=tau, mu=w[m:]),
            AscentTrace(values=tuple(values), termination=termination,
                        candidate=candidate))


def _block_argmax(y: np.ndarray, q: BinaryQP) -> np.ndarray:
    """The coordinate of each block's largest y, ties to the lowest index.

    One gather through ``q.pad`` lines the blocks up as rows; its padding
    repeats each block's first coordinate, which can never win a tie.
    """
    return q.starts + y[q.pad].argmax(axis=1)


def round_binary(y: np.ndarray, q: BinaryQP
                 ) -> tuple[np.ndarray, tuple[int, ...]]:
    """Argmax rounding per block: x takes each block's value at its
    largest y, ties to the lowest index.

    Returns x and the indices of low-confidence blocks (largest
    coordinate below 0.5).
    """
    y = np.asarray(y, dtype=float)
    pick = _block_argmax(y, q)
    return q.U_flat[pick], tuple(np.flatnonzero(y[pick] < 0.5).tolist())


def certify(q: BinaryQP, x: np.ndarray, sigma: np.ndarray, mu: np.ndarray,
            dual: float, tol_gap: float) -> Certificate:
    """Judge the point x with one value per block against the dual value
    ``dual`` at (sigma, mu), -inf off the cone.

    The one-hot and 0-1 residuals of x's selector vanish by construction,
    so the primal residual is the largest violation of A x <= b and the
    complementarity residual |sigma'(A x - b)|.  CertifiedGlobal requires
    cone membership (a finite ``dual``, sigma >= 0, mu >= MU_MIN), and the
    duality gap and both residuals at most ``tol_gap * (1 + |v|)`` with v
    the objective at x; every other point is NoCertificate.  The dual
    feasibility residual, the largest violation of sigma >= 0 and
    mu >= 0, is reported but is 0 on the cone.
    """
    slack = q.A @ x - q.b
    primal = max(float(np.max(slack, initial=-np.inf)), 0.0)
    comp = abs(float(sigma @ slack))
    dual_feas = max(-float(np.min(sigma, initial=np.inf)), -float(mu.min()),
                    0.0)
    value = objective(q, x)
    gap = float(abs(value - dual))
    in_cone = (dual > -np.inf and not np.any(sigma < 0.0)
               and not np.any(mu < MU_MIN))
    tol = tol_gap * (1.0 + abs(value))
    status = (CERTIFIED_GLOBAL if in_cone and max(primal, comp, gap) <= tol
              else NO_CERTIFICATE)
    return Certificate(primal_feas_residual=primal, dual_feas_residual=dual_feas,
                       complementarity_residual=comp, gap=gap,
                       in_cone=in_cone, status=status)


def verify_kkt(q: BinaryQP, x: np.ndarray, d: DualPoint,
               tol_gap: float = TOL_GAP) -> Certificate:
    """:func:`certify` x at the tau-maximized dual value of one
    :func:`dvs.dual.eliminate_tau` call at (d.sigma, d.mu); d.tau does not
    enter."""
    res = eliminate_tau(q, d.sigma, d.mu)
    return certify(q, np.asarray(x, dtype=float), d.sigma, d.mu,
                   -np.inf if res is None else res[0], tol_gap)


def solve(p: DiscreteQP, cfg: SolverConfig = None) -> SolveReport:
    """Lift and maximize the dual, then fall back.

    The ascent hands over the rounded x at its final iterate and x's
    certificate, certified or not.

    When the certificate is not CertifiedGlobal and the lifted dimension
    is at most ``fallback_oracle_max_K``, the exhaustive oracle supplies
    the answer and the report status becomes OracleFallback (the failed
    certificate is still reported as computed).  The reported objective
    is always recomputed from the original problem.
    """
    if cfg is None:
        cfg = SolverConfig()
    t0 = time.perf_counter()
    q = lift(p)
    d, trace = maximize_dual(q, cfg)
    candidate = trace.candidate
    cert, x = candidate.certificate, candidate.x
    status = cert.status
    if cert.status != CERTIFIED_GLOBAL and q.K <= cfg.fallback_oracle_max_K:
        log.info("certificate is %s; falling back to enumeration (K=%d)",
                 cert.status, q.K)
        x, _, _, _ = enumerate_discrete(p)
        status = ORACLE_FALLBACK
    return SolveReport(
        x=x, objective=objective(p, x), certificate=cert, dual_point=d,
        y=candidate.y, iterations=trace.iterations, status=status,
        solver_status=trace.termination,
        low_confidence_blocks=candidate.low_confidence_blocks,
        trace=trace.values, seconds=time.perf_counter() - t0,
        tol_gap=cfg.tol_gap)
