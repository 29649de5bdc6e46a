"""Dual algebra: G/F assembly, factorization, recovery, value, gradient.

The kernel never forms the K-by-K G(mu); the tau-given reference and these
tests form it densely, to compare the structured solves against.
"""

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf

from dvs.dual import (
    MU_MIN,
    dual_gradient,
    dual_value,
    eliminate_tau,
    f_vector,
    factorize_g,
    in_dual_cone,
    recover_y,
)
from dvs.errors import Infeasible
from dvs.generator import GenSpec, generate
from dvs.model import (
    Certificate,
    DiscreteQP,
    DualPoint,
    SolveReport,
    lift,
    objective,
)
from dvs.oracle import enumerate_discrete
from dvs.serialize import check, emit_problem, emit_report
from dvs.solver import _gradient, initial_point, verify_kkt

from families import criterion4_spec, indefinite_spec, suite_spec

# Reference dual solution for the second shipped instance (rounded to two
# decimals in the source material, like the problem data itself).
EX2_TAU = np.array([-19.99, -20.12, -18.13, -18.37, -14.32,
                    -17.13, -18.46, -19.73, -17.65, -16.55])
EX2_MU = np.array([9.51, 0.97, 21.93, 53.36, 74.34,
                   9.95, 0.21, 20.53, 51.01, 71.35,
                   8.68, 0.77, 19.68, 48.03, 66.94,
                   8.30, 1.77, 21.91, 52.13, 72.27,
                   6.40, 1.54, 17.39, 41.19, 57.04,
                   7.57, 1.98, 21.10, 49.77, 68.90,
                   9.15, 0.16, 18.79, 46.72, 65.34,
                   9.82, 0.09, 19.90, 49.63, 69.45,
                   8.76, 0.13, 17.92, 44.60, 62.39,
                   6.26, 4.03, 24.60, 55.48, 76.04])


def one_variable_problem(q11, c1=0.0):
    """One variable with U = {1, 2}."""
    return DiscreteQP(Q=[[q11]], c=[c1], A=np.zeros((0, 1)), b=np.zeros(0),
                      U=[[1.0, 2.0]])


def one_variable_qp(q11, c1=0.0):
    """Its lift: B = q11 [[1, 2], [2, 4]], h = c1 (1, 2)."""
    return lift(one_variable_problem(q11, c1))


def dense_g(q, mu):
    """The K-by-K G(mu) = B + 2 diag(mu), formed only here as a reference."""
    return q.B + 2.0 * np.diag(mu)


def test_f_vector_form(example1):
    q = lift(example1)
    rng = np.random.default_rng(0)
    sigma, tau = rng.random(4), rng.random(5)
    d = DualPoint(sigma=sigma, mu=rng.random(15))
    F = f_vector(q, d, tau)
    expected = q.h - q.D.T @ d.sigma - q.H.T @ tau + d.mu
    assert np.allclose(F, expected, atol=1e-12)


def test_g_matrix_form(example1):
    # factorize_g factors exactly G(mu) = B + 2 diag(mu)
    q = lift(example1)
    mu = np.arange(1.0, 16.0)
    G = dense_g(q, mu)
    fact = factorize_g(q, mu)
    assert fact.positive_definite
    for rhs in np.random.default_rng(3).standard_normal((2, q.K)):
        assert np.allclose(G @ fact.solve(rhs), rhs, atol=1e-10)


def test_factorize_positive_definite_route():
    # G = [[1, 2], [2, 4]] + 2 I = [[3, 2], [2, 6]]
    q = one_variable_qp(1.0)
    fact = factorize_g(q, np.array([1.0, 1.0]))
    assert fact.positive_definite
    assert np.allclose(fact.solve(np.array([10.0, 16.0])), [2.0, 2.0])


def test_factorize_indefinite_route():
    # G = -5 [[1, 2], [2, 4]] + 2 I has determinant -46
    q = one_variable_qp(-5.0)
    fact = factorize_g(q, np.array([1.0, 1.0]))
    assert not fact.positive_definite


def test_factorize_singular_g_is_not_positive_definite():
    # G = -[[1, 2], [2, 4]] + diag(2, 8) = [[1, -2], [-2, 4]] is singular:
    # outside the open PD cone.  So is any mu with a zero entry.
    q = one_variable_qp(-1.0)
    assert not factorize_g(q, np.array([1.0, 4.0])).positive_definite
    assert factorize_g(q, np.array([1.0, 4.5])).positive_definite
    assert not factorize_g(one_variable_qp(1.0), np.zeros(2)).positive_definite
    assert not factorize_g(one_variable_qp(1.0),
                           np.array([1.0, -1.0])).positive_definite


def test_off_cone_dual_is_minus_infinity_and_uncertified():
    # G = -5 [[1, 2], [2, 4]] + 2 I is indefinite: P_dual gives no bound there.
    p = one_variable_problem(-5.0, c1=1.0)
    d = DualPoint(sigma=np.zeros(0), mu=np.ones(2))
    assert dual_value(lift(p), d, np.zeros(1)) == -np.inf
    cert = verify_kkt(p, np.array([2.0]), d)
    assert cert.status == "NoCertificate"
    assert cert.gap == np.inf


def test_eliminate_tau_maximizes_over_tau(example1):
    q = lift(example1)
    d0 = initial_point(example1)
    sigma = np.full(q.m, 0.1)
    value, _, y, tau = eliminate_tau(example1, sigma, d0.mu)
    d = DualPoint(sigma=sigma, mu=d0.mu)
    assert value == pytest.approx(dual_value(q, d, tau), abs=1e-9)
    assert np.allclose(y, recover_y(factorize_g(q, d.mu),
                                    f_vector(q, d, tau)))
    _, gt, _ = dual_gradient(q, d, tau)
    assert np.abs(gt).max() <= 1e-9  # the tau-gradient H y - 1 vanishes
    # off the cone there is nothing to maximize
    assert eliminate_tau(one_variable_problem(-5.0), np.zeros(0),
                         np.ones(2)) is None


def test_tau_eliminated_cone_is_wider_than_g_cone():
    # mu = (2, 2): V = 1/8, so Q + 1/V = 3 > 0, while G = -5 [[1, 2], [2, 4]]
    # + 4 I has determinant -84.  The tau-eliminated dual still bounds the
    # primal there, and a certificate at that point is on the cone: its
    # gap is finite.
    p = one_variable_problem(-5.0)
    mu = np.array([2.0, 2.0])
    assert not factorize_g(lift(p), mu).positive_definite
    value, _, _, _ = eliminate_tau(p, np.zeros(0), mu)
    assert value <= min(-2.5 * u * u for u in (1.0, 2.0))
    d = DualPoint(sigma=np.zeros(0), mu=mu)
    assert np.isfinite(verify_kkt(p, np.array([2.0]), d).gap)


def test_tau_eliminated_value_bounds_indefinite_instances():
    # Weak duality on the tau-eliminated cone: at random sigma >= 0, mu > 0
    # the value never exceeds the oracle optimum, also where G is not PD.
    rng = np.random.default_rng(13)
    accepted = outside_g = 0
    for k in range(1, 16):
        p = generate(GenSpec(2 + k % 3, 2, 7000 + k,
                             ((0.0, 1.0), (-1.0, 0.0, 2.0))[k % 2],
                             coeff_range=(-1.0, 1.0), dominance_boost=False))
        try:
            _, optimum, _, _ = enumerate_discrete(p)
        except Infeasible:
            continue
        for _ in range(40):
            mu = 10.0 ** rng.uniform(-2.0, 1.0, p.K)
            res = eliminate_tau(p, rng.random(p.m), mu)
            if res is None:
                continue
            accepted += 1
            outside_g += not factorize_g(lift(p), mu).positive_definite
            assert res[0] <= optimum + 1e-9 * (1.0 + abs(optimum))
    assert accepted > 100
    assert outside_g > 0


def differential_problems():
    """Criterion-4 instances, the n = 50 and n = 100 suites, and value sets
    with a 0, a lone {0} and single values."""
    for k in range(1, 13):
        yield generate(criterion4_spec(k))
    yield generate(suite_spec(50))
    yield generate(suite_spec(100))
    yield DiscreteQP(Q=[[2.0, 0.5, 0.1, 0.0], [0.5, 1.0, 0.2, 0.3],
                        [0.1, 0.2, 3.0, 0.4], [0.0, 0.3, 0.4, 1.5]],
                     c=[1.0, -3.0, 2.0, 0.5], A=[[1.0, 1.0, 1.0, 1.0]],
                     b=[6.0], U=[[0.0], [0.0, 1.0, 2.0], [5.0], [-1.0, 0.0]])


def differential_points(p, rng):
    """Interior points, points with about 30% of mu at MU_MIN, and mu
    spread over 1e-8 ... 1e3, each with sigma >= 0."""
    base = initial_point(p).mu
    for kind in range(3):
        for _ in range(3):
            mu = base * (1.0 + rng.random(p.K))
            if kind == 1:
                mu[rng.random(p.K) < 0.3] = MU_MIN
            elif kind == 2:
                mu = 10.0 ** rng.uniform(-8.0, 3.0, p.K)
            yield rng.random(p.m), mu


def test_kernel_refuses_a_factor_singular_to_round_off():
    # At mu = 1/4 a {0, 1} block has V = 1, so the kernel factors
    # I + Q = [[1, a], [a, 1]] with a = 1 - 2^-53: positive definite, but
    # its eigenvalues are 2^-53 and 2, and dpotrf accepts it with a last
    # pivot of 2^-52, at the floor n eps max(diag).  Through that factor
    # the dual value at sigma = 0 comes out 0, above the optimum -1 at
    # x = (1, 0), and x = (0, 0) would certify with gap 0.
    a = 1.0 - 2.0 ** -53
    p = DiscreteQP(Q=[[0.0, a], [a, 0.0]], c=[1.0, -1.0], A=[[1.0, 1.0]],
                   b=[2.0], U=[[0.0, 1.0], [0.0, 1.0]])
    assert dpotrf(np.eye(2) + p.Q)[1] == 0
    assert enumerate_discrete(p)[1] == -1.0
    d = DualPoint(sigma=np.zeros(1), mu=np.full(4, 0.25))
    assert eliminate_tau(p, d.sigma, d.mu) is None
    x = np.zeros(2)
    cert = Certificate(status="CertifiedGlobal", primal_feas_residual=0.0,
                       gap=0.0)
    assert verify_kkt(p, x, d).status == "NoCertificate"
    report = SolveReport(x=x, objective=0.0, certificate=cert, dual_point=d,
                         iterations=0, status="CertifiedGlobal",
                         solver_status="Certified")
    passed, failures = check(emit_problem(p), emit_report(report))
    assert not passed
    assert any(f.startswith("certificate status") for f in failures)


def test_structured_kernel_matches_dense_g():
    # Backward error of y = G^-1 F against the dense G, for tau eliminated
    # and for tau given (the optimal tau and a perturbed one).
    rng = np.random.default_rng(5)
    worst = worst_hy = 0.0
    for p in differential_problems():
        q = lift(p)
        for sigma, mu in differential_points(p, rng):
            G = dense_g(q, mu)
            np.linalg.cholesky(G)  # the dense verdict: positive definite
            fact = factorize_g(q, mu)
            assert fact.positive_definite
            _, _, y, tau = eliminate_tau(p, sigma, mu)
            worst_hy = max(worst_hy, np.abs(q.H @ y - 1.0).max())
            pairs = [(tau, y)]
            d = DualPoint(sigma=sigma, mu=mu)
            for t in (tau, tau + rng.standard_normal(q.n)):
                pairs.append((t, recover_y(fact, f_vector(q, d, t))))
            for t, yy in pairs:
                F = f_vector(q, d, t)
                scale = (np.abs(G).sum(axis=1).max() * np.abs(yy).max()
                         + np.abs(F).max())
                worst = max(worst, np.abs(G @ yy - F).max() / scale)
    assert worst <= 1e-12
    assert worst_hy <= 1e-12


def test_eliminate_tau_x_is_m_transpose_y():
    # The x the kernel solves for is M'y, so the ascent's sigma-gradient
    # A x - b is the lifted D y - b.  Each is checked against the sum it
    # replaces, to within round-off of that sum's magnitude; a one-value
    # block (V = 0) has x equal to its one value exactly.
    rng = np.random.default_rng(19)
    one_value = 0
    for p in differential_problems():
        q = lift(p)
        single = p.sizes == 1
        for sigma, mu in differential_points(p, rng):
            _, x, y, _ = eliminate_tau(p, sigma, mu)
            uy = p.U_flat * y
            assert np.all(np.abs(x - p.block_sums(uy))
                          <= 1e-12 * p.block_sums(np.abs(uy)))
            assert np.all(np.abs((p.A @ x - p.b) - (q.D @ y - q.b))
                          <= 1e-12 * (np.abs(q.D) @ np.abs(y) + np.abs(q.b)))
            assert np.array_equal(x[single], p.U_flat[p.starts[single]])
            one_value += int(single.sum())
    assert one_value > 0


def test_structured_cone_test_matches_dense_cholesky():
    # Indefinite Q: uniform 2 mu* = -lambda_min(B) is the G(mu) cone
    # boundary; mu within 5% above t mu* is off it for t <= 0.9, on it for
    # t >= 1.1.  Wherever the dense G(mu) is PD, the kernel's n-by-n cone
    # test must accept too (G PD implies Q + diag(1/V) PD), right at the
    # boundary included.
    rng = np.random.default_rng(9)
    verdicts = set()
    for p in differential_problems():
        Q = p.Q - 1.5 * abs(np.linalg.eigvalsh(p.Q)[0]) * np.eye(p.n) - 0.5
        p = DiscreteQP(Q=Q, c=p.c, A=p.A, b=p.b, U=p.U)
        q = lift(p)
        mu_star = -0.5 * np.linalg.eigvalsh(q.B)[0]
        for t in (0.5, 0.9, 1.1, 2.0):
            mu = t * mu_star * (1.0 + 0.05 * rng.random(q.K))
            try:
                np.linalg.cholesky(dense_g(q, mu))
                dense_pd = True
            except np.linalg.LinAlgError:
                dense_pd = False
            assert dense_pd == (t > 1)
            if dense_pd:
                assert eliminate_tau(p, rng.random(q.m), mu) is not None
            verdicts.add(dense_pd)
    assert verdicts == {True, False}


def test_dual_value_at_reference_point(example2):
    q = lift(example2)
    d = DualPoint(sigma=np.zeros(5), mu=EX2_MU)
    assert in_dual_cone(q, d)
    assert dual_value(q, d, EX2_TAU) == pytest.approx(45.54, abs=0.5)
    # the reference primal value at x = ones, for comparison
    y = np.zeros(q.K)
    y[example2.starts + [u.index(1.0) for u in example2.U]] = 1.0
    assert 0.5 * y @ q.B @ y - q.h @ y == pytest.approx(45.535, abs=1e-9)


def test_stationary_point_value_identity(example2):
    # The saddle function Xi(y, d) = 0.5 y'G y - F'y - sigma'b - tau'1 is
    # minimized over y at y = G^-1 F, where it equals P_dual(d).
    q = lift(example2)
    d = DualPoint(sigma=np.zeros(5), mu=EX2_MU)
    G = dense_g(q, d.mu)
    F = f_vector(q, d, EX2_TAU)

    def xi(z):
        return 0.5 * z @ G @ z - F @ z - d.sigma @ q.b - EX2_TAU.sum()

    y = recover_y(factorize_g(q, d.mu), F)
    assert xi(y) == pytest.approx(dual_value(q, d, EX2_TAU), abs=1e-9)
    rng = np.random.default_rng(1)
    for _ in range(10):
        z = y + 0.1 * rng.standard_normal(q.K)
        assert xi(z) >= xi(y)


def test_dual_gradient_matches_finite_differences(example1):
    q = lift(example1)
    d0 = initial_point(example1)
    rng = np.random.default_rng(7)
    for _ in range(5):
        sigma, tau = rng.random(q.m), rng.standard_normal(q.n)
        d = DualPoint(sigma=sigma, mu=d0.mu * (1.0 + rng.random(q.K)))
        gs, gt, gm = dual_gradient(q, d, tau)
        analytic = np.concatenate([gs, gt, gm])

        def value_at(w):
            return dual_value(q, DualPoint(sigma=w[:q.m], mu=w[q.m + q.n:]),
                              w[q.m:q.m + q.n])

        w0 = np.concatenate([d.sigma, tau, d.mu])
        fd = np.empty_like(w0)
        for i in range(w0.size):
            h = 1e-6 * max(1.0, abs(w0[i]))
            wp, wm = w0.copy(), w0.copy()
            wp[i] += h
            wm[i] -= h
            fd[i] = (value_at(wp) - value_at(wm)) / (2.0 * h)
        rel = np.abs(fd - analytic) / np.maximum(1.0, np.abs(analytic))
        assert rel.max() <= 1e-5


def test_eliminate_tau_gradient_matches_finite_differences():
    # The (sigma, mu)-gradient of P_dual that the ascent follows, formed
    # from eliminate_tau's y, against central differences of its value at
    # interior points: sigma > 0 and mu above the start point.
    rng = np.random.default_rng(17)
    problems = [(generate(criterion4_spec(k)), 5) for k in range(1, 31)]
    problems += [(generate(indefinite_spec(k)), 5) for k in range(20)]
    problems.append((generate(suite_spec(20)), 10))
    points = 0
    for p, count in problems:
        base = initial_point(p).mu
        for _ in range(count):
            w0 = np.concatenate([rng.random(p.m),
                                 base * (1.0 + rng.random(p.K))])
            res = eliminate_tau(p, w0[:p.m], w0[p.m:])
            assert res is not None
            grad = _gradient(p, res[1], res[2])

            def value_at(w):
                return eliminate_tau(p, w[:p.m], w[p.m:])[0]

            fd = np.empty_like(w0)
            for i in range(w0.size):
                h = 1e-6 * max(1.0, abs(w0[i]))
                wp, wm = w0.copy(), w0.copy()
                wp[i] += h
                wm[i] -= h
                fd[i] = (value_at(wp) - value_at(wm)) / (2.0 * h)
            rel = np.abs(fd - grad) / np.maximum(1.0, np.abs(grad))
            assert rel.max() <= 1e-6
            points += 1
    assert points == 260


def test_weak_duality_sampling(example1):
    q = lift(example1)
    d0 = initial_point(example1)
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(300):
        choice = rng.integers(0, 3, size=q.n)
        y = np.zeros(q.K)
        for i, (s, _) in enumerate(q.blocks):
            y[s + choice[i]] = 1.0
        if np.any(q.D @ y > q.b):
            continue
        sigma, tau = rng.random(q.m), rng.standard_normal(q.n)
        d = DualPoint(sigma=sigma, mu=d0.mu * (1.0 + rng.random(q.K)))
        assert in_dual_cone(q, d)
        assert dual_value(q, d, tau) <= 0.5 * y @ q.B @ y - q.h @ y + 1e-6
        # The certificate's bound: the tau-maximized value is at most the
        # Lagrangian objective(x) + sigma'(Ax - b) at x = M'y, so the gap
        # of a feasible x is at least |sigma'(Ax - b)|.
        x = q.U_flat[example1.starts + choice]
        v = objective(example1, x)
        assert v - eliminate_tau(example1, sigma, d.mu)[0] >= (
            -sigma @ (example1.A @ x - example1.b) - 1e-9 * (1.0 + abs(v)))
        checked += 1
    assert checked > 100


def test_in_dual_cone_rejections(example1):
    q = lift(example1)
    d0 = initial_point(example1)
    assert in_dual_cone(q, d0)
    bad_sigma = DualPoint(sigma=np.array([-1e-3, 0, 0, 0]), mu=d0.mu)
    assert not in_dual_cone(q, bad_sigma)
    mu = d0.mu.copy()
    mu[0] = MU_MIN / 10.0
    assert not in_dual_cone(q, DualPoint(sigma=d0.sigma, mu=mu))
    # an indefinite Q makes B indefinite, so the minimal mu leaves G non-PD
    p_ind = DiscreteQP(Q=[[0.0, 1.0], [1.0, 0.0]], c=[0.0, 0.0],
                       A=[[1.0, 1.0]], b=[10.0], U=[[0.0, 1.0], [0.0, 1.0]])
    q_ind = lift(p_ind)
    tiny = np.full(q_ind.K, MU_MIN)
    assert not factorize_g(q_ind, tiny).positive_definite
    assert not in_dual_cone(
        q_ind, DualPoint(sigma=np.zeros(1), mu=tiny))
