"""Concave dual maximization, rounding, certification, and the full solve.

The dual P_dual(sigma, tau, mu) is maximized with tau eliminated
(:func:`dvs.dual.eliminate_tau`, one n-by-n Cholesky per evaluation) over
the cone {sigma >= 0, mu >= 1e-8, Q + diag(1/V) PD}, so the outer
iteration works on (sigma, mu) only, with the ascent gradient
(A x - b, y * (y - 1)), x = M'y.  The outer loop is a projected L-BFGS, its
direction formed on the free coordinates from the compact representation
of Byrd, Nocedal & Schnabel ("Representations of quasi-Newton matrices
and their use in limited memory methods", Math. Prog. 63, 1994), which
holds for any initial inverse Hessian H0.  H0 is diagonal and follows the
multipliers (Gilbert & Lemarechal, "Some numerical experiments with
variable-storage quasi-Newton algorithms", Math. Prog. 45, 1989): gamma
max(mu_k, 3 mu0)^2 on mu_k and the mean of those on sigma, so the mu that
climb from mu0 to a hundred times it each step on their own scale rather
than on one shared by all K.  An Armijo backtracking line search rejects
any trial off that cone — feasibility before ascent — and any trial that
does not raise the dual value, so every accepted step raises it.  As in
L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16, 1995) the
curvature pairs model the free coordinates only: a pair's y is 0 on the
coordinates the step held at their bound.  A trial on the cone that
fails the Armijo test shortens the step to the maximizer of the
quadratic through the current value, the slope and the failed value
(Nocedal & Wright, *Numerical Optimization*, 2nd ed., section 3.5), kept
between 0.1 and 0.5 of the failed step, so the value that trial cost is
not thrown away; a trial off the cone, or with a value that is not
finite, halves it.  The ascent keeps its curvature pairs in buffers of
the memory size.

A certificate speaks for one point x with one value per block, whatever
produced it: :func:`certify` holds its feasibility, gap and status rules,
with the fixed gap tolerance ``TOL_GAP`` = 1e-6 and a dual value of -inf
off the cone, and
:func:`verify_kkt` feeds it one :func:`dvs.dual.eliminate_tau` value, as
``dvs check`` does for the x a report states.  The ascent's candidate is
the rounded point (each block's value at its largest y); it certifies with
the dual value of the iterate it already has, at every iterate whose x
meets that value within the gap tolerance and once at the final iterate,
and stops at the first that certifies.  The certified gap is therefore at
most ``TOL_GAP * (1 + |objective|)`` rather than round-off.  Instances
that never certify run the ascent to its other stopping rules; ``solve``
reports the rounded x at the final iterate, or the oracle's x when it
falls back, each with its certificate at the ascent's final dual point
(sigma, mu).  A dual value above the largest objective any selection can
take proves the data infeasible, and the ascent stops there.

The ascent starts at :func:`initial_point`'s one rule for value sets of
any size, mu0 = max(MU_MIN, delta0 - min(0, lambda)/2) with lambda the
smallest eigenvalue of S Q S: an O(n^2) Gershgorin row test shows
lambda >= 0 where S Q S is diagonally dominant, and only where it fails
does one eigensolve run.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvalsh
from scipy.linalg.lapack import dtrtrs

from .dual import eliminate_tau
from .errors import Infeasible
from .model import (
    CERTIFIED_GLOBAL,
    MU_MIN,
    NO_CERTIFICATE,
    ORACLE_FALLBACK,
    TOL_GAP,
    VALUE_MEMBERSHIP_TOL,
    Certificate,
    DiscreteQP,
    DualPoint,
    SolveReport,
    objective,
)
from .oracle import enumerate_discrete
# Not called here; perfbench/tracing.py wraps these names.
from .dual import factorize_g, recover_y  # noqa: F401
from .model import lift  # noqa: F401

log = logging.getLogger("dvs.solver")

TERM_CERTIFIED = "Certified"
TERM_CONVERGED = "Converged"
TERM_MAX_ITER = "MaxIterations"
TERM_STALL = "LineSearchStall"

_ARMIJO_C1 = 1e-4
# Bounds on the factor by which a failed Armijo trial shortens the step.
_BACKTRACK_MIN = 0.1
_BACKTRACK_MAX = 0.5
_MIN_STEP = 1e-16
_LBFGS_MEMORY = 20
# H0's mu-block scale is max(mu, _SCALE_FLOOR * mu0)^2: a multiplier's step
# follows its own size once it has grown past a few times its start.
_SCALE_FLOOR = 3.0
_TOL_GRAD = 1e-8
# The ascent's step budget, far above the most steps measured: 14 on
# criterion 4's instances, 114 on the first 120 of the indefinite family,
# and 14 on GenSpec(n, 5, 4242 + n) at both n = 300 and 1000.
_MAX_ITER = 5000
# The lifted dimension up to which ``solve`` falls back to the oracle.
FALLBACK_ORACLE_MAX_K = 24
_OVERFLOW = ("the dual value at the initial point is not finite: the "
             "problem data overflow doubles")


@dataclass(frozen=True)
class AscentTrace:
    """Dual values of the accepted iterates, the termination reason, and
    at the final iterate the rounded x and x's certificate."""

    values: tuple[float, ...]
    termination: str
    x: np.ndarray = field(default=None, compare=False, repr=False)
    certificate: Certificate = field(default=None, compare=False, repr=False)

    @property
    def iterations(self) -> int:
        return len(self.values) - 1


def initial_point(p: DiscreteQP) -> DualPoint:
    """sigma = 0 and a uniform mu that makes G(mu) safely PD.

    mu0 = max(MU_MIN, delta0 - min(0, lambda)/2) with delta0 =
    1e-3 (1 + ||B||_inf) and lambda the smallest eigenvalue of S Q S,
    S^2 = diag(sum u^2) = M'M.  B = M Q M' has the nonzero spectrum of
    S Q S plus K - n zeros, so min(0, lambda) <= lambda_min(B) whatever
    the sizes of the value sets, and G(mu0) >= 2 delta0 I: inside the
    kernel's cone, so the very first Cholesky attempt cannot fail.  Row k
    of |B| sums to |u_k| (|Q| M'|u|)_i, so both come from n-level data.
    min(0, lambda) is 0 whenever Gershgorin's row test shows S Q S
    diagonally dominant, 2 (SQS)_ii >= sum_j |(SQS)_ij| for every i, an
    O(n^2) pass; only where it fails does one ``eigvalsh`` call compute
    lambda.  Data for which ||B||_inf, S Q S or mu0 overflow doubles are a
    ValueError; the caller decides whether the overflow warns.
    """
    au = np.abs(p.U_flat)
    b_norm = float((np.maximum.reduceat(au, p.starts)
                    * (np.abs(p.Q) @ p.block_sums(au))).max())
    s = np.sqrt(p.block_sums(p.U_flat * p.U_flat))
    sqs = p.Q * np.multiply.outer(s, s)
    if not (math.isfinite(b_norm) and np.isfinite(sqs).all()):
        raise ValueError(_OVERFLOW)
    lam = 0.0
    if not (2.0 * sqs.diagonal() >= np.abs(sqs).sum(axis=1)).all():
        lam = min(0.0, float(eigvalsh(sqs, subset_by_index=(0, 0))[0]))
    delta0 = 1e-3 * (1.0 + b_norm)
    mu0 = max(MU_MIN, delta0 - lam / 2.0)
    if not math.isfinite(mu0):
        raise ValueError(_OVERFLOW)
    return DualPoint(sigma=np.zeros(p.m), mu=np.full(p.K, mu0))


def _gradient(p: DiscreteQP, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (sigma, mu)-gradient of P_dual at the optimal tau, whose
    selector is y and x = M'y: (A x - b, y * (y - 1)), the sigma and mu
    part of :func:`dvs.dual.dual_gradient`, whose D y is A x."""
    return np.concatenate([p.A @ x - p.b, y * (y - 1.0)])


class _LBFGSMemory:
    """The newest curvature pairs (s, y) in the compact form of Byrd,
    Nocedal & Schnabel (1994).

    The ``k`` stored pairs are the first ``k`` rows of ``S`` and ``Y``,
    oldest first; ``R`` keeps the upper triangle of S Y', updated by one
    matrix-vector product per pair.  A full memory drops its oldest pair
    by shifting every row, and every column of ``R``, up one.  Setting
    ``k = 0`` clears the memory.  The ascent stores y = g - g_try, the
    fall of the gradient of P_dual along s, so s'y > 0 where P_dual is
    concave and H models the inverse of -hess P_dual, which is PD;
    ``apply(g, d)`` is then an ascent direction.  ``apply`` computes the
    L-BFGS inverse-Hessian product with the diagonal H0 = gamma diag(d),
    gamma = s'y / y'Dy of the newest pair (Gilbert & Lemarechal, Math.
    Prog. 45, 1989) — the direction of the two-loop recursion with that
    H0, in a fixed handful of BLAS calls.  The compact form holds for any
    H0; the k-by-k Y D Y' it needs is formed once per direction.
    """

    def __init__(self, size: int, dim: int):
        self.size = size
        self.S = np.empty((size, dim))
        self.Y = np.empty((size, dim))
        self.R = np.zeros((size, size))
        self.k = 0

    def append(self, s: np.ndarray, y: np.ndarray):
        k = self.k
        if k == self.size:
            k -= 1
            for a in (self.S, self.Y):
                a[:k] = a[1:]
            self.R[:k, :k] = self.R[1:, 1:]
        self.S[k] = s
        self.Y[k] = y
        self.R[:k + 1, k] = self.S[:k + 1] @ y
        self.k = k + 1

    def apply(self, r: np.ndarray, d: np.ndarray) -> np.ndarray:
        """H r with H0 = gamma diag(d), d > 0; with no pairs stored, r
        scaled to at most unit norm."""
        k = self.k
        if not k:
            return r / max(1.0, np.linalg.norm(r))
        S, Y, R = self.S[:k], self.Y[:k], self.R[:k, :k]
        yd = Y * d
        ydy = yd @ Y.T
        gamma = R[-1, -1] / ydy[-1, -1]
        t = dtrtrs(R, S @ r)[0]
        p = dtrtrs(R, R.diagonal() * t + gamma * (ydy @ t - yd @ r),
                   trans=1)[0]
        return gamma * (d * r) + S.T @ p - gamma * (yd.T @ t)


@np.errstate(over="ignore", invalid="ignore")
def maximize_dual(p: DiscreteQP) -> tuple[DualPoint, AscentTrace]:
    """Projected L-BFGS ascent of P_dual over {sigma >= 0, mu >= MU_MIN}.

    The L-BFGS direction comes from the compact representation of the
    last 20 curvature pairs (Byrd, Nocedal & Schnabel, Math. Prog. 63,
    1994), each pair storing y = g - g_try, the fall of the gradient along
    the step s, with H0 = gamma diag(d) built once per iteration: d_k =
    max(mu_k, 3 mu0)^2 on mu, with mu0 the start's uniform mu, and the
    mean of those on sigma.  Below 3 mu0 every multiplier shares one
    scale, as with H0 = gamma I; above it each steps on its own.  A
    direction p with g'p <= 0 clears the memory and falls back to
    steepest ascent.  A coordinate at its bound whose gradient pushes
    outward (g < 0) is frozen: the direction and so the step s are 0
    there, and the stored pair (s, y) has y = 0 there too.  The gradient
    change of a coordinate the step held fixed is no curvature along the
    step; left in y it would enter y'Dy, the scale gamma = s'y / y'Dy and
    the products with other pairs, whose s may be nonzero there (s'y
    itself does not change).  L-BFGS-B (Byrd, Lu, Nocedal & Zhu, 1995)
    likewise keeps its model on the free variables.  The Armijo
    backtracking starts at the unit step and accepts a trial whose rise
    v_try - v over the dual value v is at least 1e-4 dg, dg = g'(w_try - w)
    > 0 the slope along the trial, so a flat trial fails however small dg
    is.  After a failed trial on the cone with a finite rise it multiplies
    the step by the maximizer t* = dg / (2 (dg - (v_try - v))) of the
    quadratic through v, dg and v_try, clamped to [0.1, 0.5], and after a
    trial off the cone or with a value that is not finite it halves the
    step.  Every accepted iterate stays on the cone of
    :func:`dvs.dual.eliminate_tau` and raises the dual value; the trace
    records the dual value of the initial point and of each accepted step,
    and carries the rounded x and its certificate at the final iterate.
    Terminates at the first iterate (the initial point included) whose
    rounded x certifies as CertifiedGlobal ("Certified"); otherwise when
    the projected gradient infinity-norm falls to 1e-8 ("Converged"),
    after ``_MAX_ITER`` steps ("MaxIterations"), or when no step along
    the direction, down to 1e-16 of it, raises the dual value
    ("LineSearchStall"; the last iterate, the best, is returned).
    The whole ascent runs with numpy's overflow and invalid warnings off.
    Data whose initial point or dual value there overflows doubles are a
    ValueError, raised before the first step; an overflow later, such as
    H0's max(mu, 3 mu0)^2 once mu0 passes about 1e154, leaves the line
    search no rising step ("LineSearchStall"), not a warning.
    By weak duality a dual value on the cone bounds every feasible
    selection's objective from below, and no selection's objective exceeds
    top = a'|Q|a / 2 + |c|'a, a_i = max |U_i|: an iterate whose dual value
    exceeds top + TOL_GAP (1 + |top|) proves the data infeasible, and the
    ascent raises :class:`dvs.errors.Infeasible` there.
    """
    m, K = p.m, p.K
    start = initial_point(p)
    w = np.concatenate([start.sigma, start.mu])
    res = eliminate_tau(p, start.sigma, start.mu)
    if res is None or not math.isfinite(res[0]):
        raise ValueError(_OVERFLOW)
    v, x_start, y, _ = res
    g = _gradient(p, x_start, y)
    # An overflowing or NaN top makes the comparison below never fire.
    a = np.maximum.reduceat(np.abs(p.U_flat), p.starts)
    top = 0.5 * (a @ np.abs(p.Q) @ a) + np.abs(p.c) @ a
    ceiling = top + TOL_GAP * (1.0 + abs(top))
    lb = np.concatenate([np.zeros(m), np.full(K, MU_MIN)])
    evaluations, rejections, resets = 1, 0, 0
    values = [v]
    memory = _LBFGSMemory(_LBFGS_MEMORY, m + K)
    # H0's diagonal: max(mu, floor)^2 on mu, its mean on sigma.
    floor = _SCALE_FLOOR * start.mu[0]
    scale = np.empty(m + K)
    termination = TERM_MAX_ITER
    selection = first_gap = None
    for it in range(_MAX_ITER + 1):
        if v > ceiling:
            raise Infeasible(f"no selection satisfies Ax <= b: the dual "
                             f"value {v:.6g} exceeds {top:.6g}, the "
                             f"largest objective of any selection")
        # Only an x whose objective meets the dual value v can certify;
        # the objective is recomputed only when the rounded x changes.
        x_it = round_binary(y, p)
        if x_it.tobytes() != selection:
            x, selection = x_it, x_it.tobytes()
            value = objective(p, x)
        cert = None
        if abs(value - v) <= TOL_GAP * (1.0 + abs(value)):
            if first_gap is None:
                first_gap = it
            cert = certify(p, x, w[:m], w[m:], v)
            if cert.status == CERTIFIED_GLOBAL:
                termination = TERM_CERTIFIED
                break
        if it == _MAX_ITER:
            break
        # Bound-active coordinates whose gradient pushes outward are
        # frozen; the rest of the gradient, r, is the projected gradient.
        frozen = (w <= lb) & (g < 0)
        r = np.where(frozen, 0.0, g)
        pg_norm = float(np.abs(r).max())
        if pg_norm <= _TOL_GRAD:
            termination = TERM_CONVERGED
            break
        log.debug("iter %d dual=%.12g pg=%.3e", it, v, pg_norm)

        # L-BFGS on the free coordinates.
        np.maximum(w, floor, out=scale)
        np.multiply(scale, scale, out=scale)
        scale[:m] = scale[m:].sum() / K
        direction = np.where(frozen, 0.0, memory.apply(r, scale))
        if g @ direction <= 0.0:
            memory.k = 0
            resets += 1
            direction = memory.apply(r, scale)

        step = 1.0
        accepted = None
        while step >= _MIN_STEP:
            w_try = np.maximum(w + step * direction, lb)
            dg = g @ (w_try - w)
            shrink = 0.5
            if dg > 0.0:
                res = eliminate_tau(p, w_try[:m], w_try[m:])
                evaluations += 1
                if res is None:
                    rejections += 1
                else:
                    # Not v_try >= v + c1 dg, whose sum rounds to v when
                    # c1 dg is below half an ulp of v: a flat trial fails.
                    rise = res[0] - v
                    if rise >= _ARMIJO_C1 * dg:
                        accepted = (w_try, res)
                        break
                    if math.isfinite(rise):
                        # The maximizer of the quadratic through v, dg
                        # and v_try, as a fraction of this step.
                        shrink = min(max(dg / (2.0 * (dg - rise)),
                                         _BACKTRACK_MIN), _BACKTRACK_MAX)
            step *= shrink
        if accepted is None:
            termination = TERM_STALL
            break

        w_try, (v_try, x_try, y_try, _) = accepted
        g_try = _gradient(p, x_try, y_try)
        s_v = w_try - w
        y_v = g - g_try
        # A frozen coordinate takes no step (w_try = w = lb there): its
        # gradient change is curvature outside the free subspace.
        y_v[frozen] = 0.0
        curv = s_v @ y_v
        if curv > 1e-12 * math.sqrt(s_v @ s_v) * math.sqrt(y_v @ y_v):
            memory.append(s_v, y_v)
        w, v, g, y = w_try, v_try, g_try, y_try
        values.append(v)

    log.info("dual ascent: %s after %d iterations, gap first met at "
             "iteration %s, dual=%.12g, %d dual evaluations, %d cone "
             "rejections, %d L-BFGS resets", termination, len(values) - 1,
             "none" if first_gap is None else first_gap, v, evaluations,
             rejections, resets)
    # Every exit leaves x, and cert when it was computed, at the final
    # iterate.
    if cert is None:
        cert = certify(p, x, w[:m], w[m:], v)
    return (DualPoint(sigma=w[:m], mu=w[m:]),
            AscentTrace(values=tuple(values), termination=termination, x=x,
                        certificate=cert))


def round_binary(y: np.ndarray, p: DiscreteQP) -> np.ndarray:
    """Argmax rounding per block: x takes each block's value at its
    largest y, ties to the lowest index.

    One gather through ``p.pad`` lines the blocks up as rows; its padding
    repeats each block's first coordinate, which can never win a tie.
    """
    return p.U_flat[p.starts + y[p.pad].argmax(axis=1)]


def certify(p: DiscreteQP, x: np.ndarray, sigma: np.ndarray, mu: np.ndarray,
            dual: float) -> Certificate:
    """Judge the point x with one value per block against the dual value
    ``dual`` at (sigma, mu).

    Off the cone (sigma < 0, mu < MU_MIN, or a ``dual`` that is not above
    -inf: a failed Cholesky or a NaN) the dual value is -inf, so the gap
    |objective(x) - dual| is infinite.  CertifiedGlobal requires x to
    satisfy A x <= b within ``VALUE_MEMBERSHIP_TOL`` (the feasibility rule
    of :func:`dvs.model.is_feasible`) and the gap to be at most
    ``TOL_GAP * (1 + |v|)`` with v the objective at x; every other point
    is NoCertificate.  Weak duality makes that a proof that no feasible
    selection lies more than ``TOL_GAP * (1 + |v|)`` below x: on the cone
    the dual value is at most the Lagrangian at x's selector, objective(x)
    + sigma'(A x - b), which is at most objective(x) for a feasible x, so
    no feasible selection's objective lies below it and |sigma'(A x - b)|
    is at most the gap.
    """
    slack = p.A @ x - p.b
    primal = max(float(np.max(slack, initial=-np.inf)), 0.0)
    if not dual > -np.inf or np.any(sigma < 0.0) or np.any(mu < MU_MIN):
        dual = -np.inf
    value = objective(p, x)
    gap = float(abs(value - dual))
    status = (CERTIFIED_GLOBAL if primal <= VALUE_MEMBERSHIP_TOL
              and gap <= TOL_GAP * (1.0 + abs(value)) else NO_CERTIFICATE)
    return Certificate(status=status, primal_feas_residual=primal, gap=gap)


def verify_kkt(p: DiscreteQP, x: np.ndarray, d: DualPoint) -> Certificate:
    """:func:`certify` x at the tau-maximized dual value of one
    :func:`dvs.dual.eliminate_tau` call at (d.sigma, d.mu).  The kernel
    runs under the ascent's ``np.errstate``: data that overflow it give a
    NaN or infinite value, not a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        res = eliminate_tau(p, d.sigma, d.mu)
    return certify(p, np.asarray(x, dtype=float), d.sigma, d.mu,
                   -np.inf if res is None else res[0])


def solve(p: DiscreteQP, *,
          fallback_oracle_max_K: int = FALLBACK_ORACLE_MAX_K) -> SolveReport:
    """Maximize the dual, then fall back.

    The ascent hands over the rounded x at its final iterate and x's
    certificate, certified or not.

    When the certificate is not CertifiedGlobal and the lifted dimension
    is at most ``fallback_oracle_max_K``, the exhaustive oracle supplies
    the answer and the report status becomes OracleFallback; the report's
    certificate is then the oracle x's, judged at the ascent's final dual
    point and dual value.  0 disables the fallback, and a value that is
    not an integer (a bool included) is a ValueError.  The reported
    objective is always recomputed from the original problem.  Data the
    ascent or the oracle proves infeasible raise ``Infeasible``.
    """
    if (isinstance(fallback_oracle_max_K, bool)
            or not isinstance(fallback_oracle_max_K, (int, np.integer))):
        raise ValueError("fallback_oracle_max_K must be an integer")
    t0 = time.perf_counter()
    d, trace = maximize_dual(p)
    cert, x = trace.certificate, trace.x
    status = cert.status
    if cert.status != CERTIFIED_GLOBAL and p.K <= fallback_oracle_max_K:
        log.info("certificate is %s; falling back to enumeration (K=%d)",
                 cert.status, p.K)
        x, _, _, _ = enumerate_discrete(p)
        cert = certify(p, x, d.sigma, d.mu, trace.values[-1])
        status = ORACLE_FALLBACK
    return SolveReport(
        x=x, objective=objective(p, x), certificate=cert, dual_point=d,
        iterations=trace.iterations, status=status,
        solver_status=trace.termination, trace=trace.values,
        seconds=time.perf_counter() - t0)
