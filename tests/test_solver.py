"""Dual ascent, rounding, certification, and the end-to-end solve."""

import collections
import dataclasses
import json
import re

import numpy as np
import pytest
import scipy.linalg

from dvs import dual, solver
from dvs.dual import MU_MIN, eliminate_tau, factorize_g
from dvs.errors import Infeasible
from dvs.generator import GenSpec, generate
from dvs.model import (
    TOL_GAP,
    BinaryQP,
    DiscreteQP,
    DualPoint,
    lift,
    objective,
)
from dvs.oracle import enumerate_discrete
from dvs.serialize import check, emit_problem, emit_report
from dvs.solver import (
    TERM_CERTIFIED,
    TERM_CONVERGED,
    TERM_MAX_ITER,
    TERM_STALL,
    AscentTrace,
    initial_point,
    maximize_dual,
    round_binary,
    solve,
    verify_kkt,
)

from conftest import EX1_VALUE, EX1_X, EX2_VALUE, EX2_X, VALUE_TOL
from families import (
    indefinite_spec,
    interior_spec,
    planted,
    signed_spec,
    suite_spec,
)


def test_config_validation(example1):
    # The fallback threshold is solve's one setting: an integer >= 0, and
    # a bool (an int subclass) is not one.  0 is the one off switch.
    for bad in (2.5, True, False, np.True_, "24", -1, np.int64(-24)):
        with pytest.raises(ValueError,
                           match="fallback_oracle_max_K must be an integer"):
            solve(example1, fallback_oracle_max_K=bad)
    assert solve(example1, fallback_oracle_max_K=np.int64(0)).status == (
        "CertifiedGlobal")
    # It is keyword-only.  The step budget, the gap tolerance, the
    # ascent's gradient threshold and the cone floor are fixed.
    with pytest.raises(TypeError):
        solve(example1, 0)
    for name in ("max_iter", "tol_gap", "tol_grad", "mu_min"):
        with pytest.raises(TypeError):
            solve(example1, **{name: 1e-8})
    with pytest.raises(TypeError):
        maximize_dual(example1, 10)


def test_initial_point_is_interior(example1, example2):
    for p in (example1, example2):
        d = initial_point(p)
        assert np.array_equal(d.sigma, np.zeros(p.m))
        assert np.all(d.mu >= MU_MIN)
        assert factorize_g(lift(p), d.mu).positive_definite


def single_value_problems():
    """Problems whose every value set holds one value, with a PD, an
    indefinite and a negative definite Q, and a lone {0}: K = n, and
    y = 1 whatever mu."""
    rng = np.random.default_rng(23)
    for shift in (4.0, 0.0, -4.0):
        Q = rng.uniform(-1.0, 1.0, (4, 4)) + shift * np.eye(4)
        yield DiscreteQP(Q=Q, c=rng.uniform(-1.0, 1.0, 4), A=np.ones((1, 4)),
                         b=[10.0], U=[[2.0], [-1.0], [0.0], [3.0]])


def start_rule_mu0(p):
    """mu0 by the rule, with lambda from scipy.linalg.eigvalsh."""
    s = np.sqrt(p.block_sums(p.U_flat * p.U_flat))
    sqs = p.Q * np.multiply.outer(s, s)
    lam = scipy.linalg.eigvalsh(sqs, subset_by_index=(0, 0))[0]
    au = np.abs(p.U_flat)
    b_norm = (np.maximum.reduceat(au, p.starts)
              * (np.abs(p.Q) @ p.block_sums(au))).max()
    return max(MU_MIN, 1e-3 * (1.0 + b_norm) - min(0.0, lam) / 2.0)


def test_initial_point_matches_eigvalsh_bit_for_bit(criterion4_problems,
                                                    indefinite_instances):
    # mu0 is the one rule of initial_point, max(MU_MIN, delta0 -
    # min(0, lambda_min(S Q S)) / 2), for every value-set shape: on the
    # PD families mu0 does not depend on lambda_min, on the indefinite one
    # and the indefinite single-value problems it does.
    problems = (criterion4_problems
                + [generate(suite_spec(50, i)) for i in range(3)]
                + [generate(GenSpec(300, 5, 4242))]
                + [p for p, _, _ in indefinite_instances]
                + list(single_value_problems()))
    for p in problems:
        mu0 = start_rule_mu0(p)
        assert np.array_equal(initial_point(p).mu, np.full(p.K, mu0))


def test_initial_point_decides_dominant_data_without_an_eigensolve(
        monkeypatch, example1, example2, criterion4_problems):
    # Gershgorin's row test shows S Q S diagonally dominant on every
    # dominance-boosted family and both fixtures, so no eigenvalue is
    # computed there; the indefinite family still needs one each.
    def refuse(*args, **kwargs):
        raise AssertionError("initial_point computed an eigenvalue")

    monkeypatch.setattr(solver, "eigvalsh", refuse)
    for p in (criterion4_problems
              + [generate(suite_spec(n)) for n in (20, 50, 100, 300)]
              + [example1, example2]):
        assert np.array_equal(initial_point(p).mu,
                              np.full(p.K, start_rule_mu0(p)))
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return scipy.linalg.eigvalsh(*args, **kwargs)

    monkeypatch.setattr(solver, "eigvalsh", counted)
    for k in range(5):
        initial_point(indefinite(k))
    assert len(calls) == 5


def dense_row_test_mu0(p):
    """(mu0, dominant) by the rule as it reads with S Q S formed densely:
    Gershgorin's row test on |S Q S| itself, and lambda from eigvalsh only
    where the test fails."""
    s = np.sqrt(p.block_sums(p.U_flat * p.U_flat))
    sqs = p.Q * np.multiply.outer(s, s)
    dominant = bool((2.0 * sqs.diagonal() >= np.abs(sqs).sum(axis=1)).all())
    lam = 0.0 if dominant else min(
        0.0, scipy.linalg.eigvalsh(sqs, subset_by_index=(0, 0))[0])
    au = np.abs(p.U_flat)
    b_norm = (np.maximum.reduceat(au, p.starts)
              * (np.abs(p.Q) @ p.block_sums(au))).max()
    return max(MU_MIN, 1e-3 * (1.0 + b_norm) - lam / 2.0), dominant


def test_initial_point_row_test_from_abs_q_matches_the_dense_one(
        monkeypatch, criterion4_problems):
    # The row test reads s_i (|Q| s)_i for row i of |S Q S|: on every
    # family it decides as the dense test does, so mu0 is the same to the
    # bit and eigvalsh runs on exactly the same problems.
    problems = (
        criterion4_problems
        + [indefinite(k) for k in range(600)]
        + [generate(suite_spec(n, i)) for n in (20, 50, 100, 300)
           for i in range(3)]
        + [generate(spec(n, i)) for spec in (interior_spec, signed_spec)
           for n in (12, 20, 30) for i in range(3)]
        + [planted(n, i)[0] for n in (12, 30) for i in range(3)]
        + [planted(300)[0]])
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return scipy.linalg.eigvalsh(*args, **kwargs)

    monkeypatch.setattr(solver, "eigvalsh", counted)
    dominant = 0
    for p in problems:
        mu0, is_dominant = dense_row_test_mu0(p)
        calls.clear()
        assert np.array_equal(initial_point(p).mu, np.full(p.K, mu0))
        assert len(calls) == (not is_dominant)
        dominant += is_dominant
    # Both verdicts occur.
    assert 0 < dominant < len(problems)


def test_maximize_dual_reaches_reference_value(example1):
    d, trace = maximize_dual(example1)
    assert trace.termination == TERM_CERTIFIED
    assert trace.values[-1] == pytest.approx(EX1_VALUE, abs=VALUE_TOL)
    # iterate respects the cone bounds
    assert np.all(d.sigma >= 0.0)
    assert np.all(d.mu >= MU_MIN)
    assert factorize_g(lift(example1), d.mu).positive_definite


def test_trace_is_monotone_nondecreasing(example1, example2,
                                         criterion4_problems):
    # Every accepted step raises the dual value.  The indefinite instances
    # backtrack far more than the examples, and end on both rules that
    # leave the ascent uncertified: k = 0 and 1 on a line search that
    # finds no rise, k = 98 converged.
    ends = {0: TERM_STALL, 1: TERM_STALL, 98: TERM_CONVERGED}
    for k, end in ends.items():
        _, trace = maximize_dual(indefinite(k))
        assert trace.termination == end
        assert all(b > a for a, b in zip(trace.values, trace.values[1:]))
    for p in [example1, example2] + criterion4_problems[:20]:
        values = maximize_dual(p)[1].values
        assert all(b > a for a, b in zip(values, values[1:]))


def test_trace_log_level_logs_every_iteration(example1, caplog):
    # DVS_LOG=trace is DEBUG: one "iter <i>" record for each iteration
    # that tried a step, which for a certified ascent is every iteration
    # before the certifying one.
    with caplog.at_level("DEBUG", logger="dvs.solver"):
        _, trace = maximize_dual(example1)
    assert trace.termination == TERM_CERTIFIED and trace.iterations > 1
    logged = [int(match.group(1)) for match in
              (re.match(r"iter (\d+) dual=", rec.getMessage())
               for rec in caplog.records) if match]
    assert logged == list(range(trace.iterations))


def test_max_iter_is_honoured(example1, monkeypatch):
    monkeypatch.setattr(solver, "_MAX_ITER", 3)
    _, trace = maximize_dual(example1)
    assert trace.termination == TERM_MAX_ITER
    assert trace.iterations == 3


def test_ascent_stalls_when_no_step_raises_the_value():
    # These indefinite instances stop where the line search finds no step
    # that raises the dual value; every step before it did.
    for k in (0, 4, 5):
        _, trace = maximize_dual(indefinite(k))
        v = trace.values
        assert trace.termination == TERM_STALL
        assert all(b > a for a, b in zip(v, v[1:]))


def test_an_exactly_flat_trial_is_rejected(monkeypatch):
    # Every trial returns exactly the start value 1e8.  The gradient,
    # 1e-3 everywhere, makes 1e-4 of the slope along a trial at most
    # 2e-9, below half an ulp of 1e8 (7.5e-9), so 1e8 + 1e-4 dg rounds to
    # 1e8; the measured rise, 0, still fails, and the ascent stalls at
    # its start.  U up to 2e4 puts the objective bound (4e8) above 1e8.
    p = DiscreteQP(Q=np.eye(2), c=np.zeros(2), A=np.ones((1, 2)),
                   b=np.array([1e5]), U=((0.0, 1e4, 2e4), (0.0, 2e4)))
    real = solver.eliminate_tau
    calls = []

    def flat(p, sigma, mu):
        calls.append(1)
        _, x, y, tau = real(p, sigma, mu)
        return 1e8, x, y, tau

    monkeypatch.setattr(solver, "eliminate_tau", flat)
    monkeypatch.setattr(solver, "_gradient",
                        lambda p, x, y: np.full(p.m + p.K, 1e-3))
    _, trace = maximize_dual(p)
    assert trace.termination == TERM_STALL
    assert trace.values == (1e8,)
    assert len(calls) > 2  # the start and more than one trial


def test_ascent_trace_iteration_count():
    t = AscentTrace(values=(1.0, 2.0, 3.0), termination=TERM_CONVERGED)
    assert t.iterations == 2


def blocks_2_3():
    """A problem with blocks ((0, 2), (2, 5)); U_flat = 0, 1, 2, 3, 4 names
    each coordinate."""
    return DiscreteQP(Q=np.eye(2), c=np.zeros(2), A=np.zeros((0, 2)),
                      b=np.zeros(0), U=[[0.0, 1.0], [2.0, 3.0, 4.0]])


def test_round_binary_basics():
    y = np.array([0.8, 0.2, 0.1, 0.6, 0.3])
    assert np.array_equal(round_binary(y, blocks_2_3()), [0, 3])
    # a block's largest y picks its value even below 0.5
    y = np.array([0.8, 0.2, 0.35, 0.33, 0.32])
    assert np.array_equal(round_binary(y, blocks_2_3()), [0, 2])


def test_round_binary_tie_takes_lowest_index():
    q = blocks_2_3()
    x = round_binary(np.array([0.5, 0.5, 0.2, 0.7, 0.7]), q)
    assert np.array_equal(x, [0, 3])
    # the padding of the short block never wins, even on a tie
    x = round_binary(np.array([0.9, 0.9, 0.2, 0.2, 0.2]), q)
    assert np.array_equal(x, [0, 2])


def test_round_binary_matches_per_block_loop():
    # The per-block argmax loop the vectorized form replaced.
    rng = np.random.default_rng(4)
    for _ in range(5):
        sizes = rng.integers(1, 5, size=6)
        p = DiscreteQP(Q=np.eye(6), c=np.zeros(6), A=np.zeros((0, 6)),
                       b=np.zeros(0), U=[range(s) for s in sizes])
        for y in np.round(rng.random((20, p.K)), 1):
            ref = np.zeros(p.n)
            for i, (s, z) in enumerate(zip(p.starts, p.sizes)):
                ref[i] = p.U_flat[s + int(np.argmax(y[s:s + z]))]
            assert np.array_equal(round_binary(y, p), ref)


def test_verify_kkt_certifies_reference_solution(example1):
    d, _ = maximize_dual(example1)
    cert = verify_kkt(example1, EX1_X, d)
    assert cert.status == "CertifiedGlobal"
    assert cert.gap <= 1e-6 * 230.0
    assert cert.primal_feas_residual <= 1e-9
    # weak duality bounds the complementarity residual by the gap
    slack = example1.A @ EX1_X - example1.b
    assert abs(d.sigma @ slack) <= cert.gap


def test_verify_kkt_detects_wrong_point(example1):
    d, _ = maximize_dual(example1)
    x = example1.U_flat[[0, 3, 6, 9, 12]]  # a valid selection, not the optimum
    cert = verify_kkt(example1, x, d)
    assert cert.status == "NoCertificate"
    assert cert.gap > 1.0


def test_verify_kkt_cone_failure_is_no_certificate(example1):
    d, _ = maximize_dual(example1)
    assert verify_kkt(example1, EX1_X, d).status == "CertifiedGlobal"
    sigma = d.sigma.copy()
    # all constraints are inactive at the optimum, so this sign flip is too
    # small to move the dual value, but it leaves the cone: the dual value
    # there is -inf and the gap infinite
    sigma[int(np.argmin(sigma))] = -1e-12
    d_bad = DualPoint(sigma=sigma, mu=d.mu)
    cert = verify_kkt(example1, EX1_X, d_bad)
    assert cert.status == "NoCertificate"
    assert cert.gap == np.inf
    assert cert.primal_feas_residual <= 1e-9


def test_solve_first_reference_instance(example1):
    r = solve(example1)
    assert r.status == "CertifiedGlobal"
    assert np.array_equal(r.x, EX1_X)
    assert r.objective == pytest.approx(EX1_VALUE, abs=VALUE_TOL)
    assert r.solver_status == TERM_CERTIFIED
    assert r.certificate.gap <= 1e-6 * (1.0 + abs(r.objective))
    assert r.seconds > 0.0


def test_solve_second_reference_instance(example2):
    r = solve(example2)
    assert r.status == "CertifiedGlobal"
    assert np.array_equal(r.x, EX2_X)
    assert r.objective == pytest.approx(EX2_VALUE, abs=VALUE_TOL)


def test_solve_agrees_with_enumeration(example1):
    r = solve(example1)
    x, value, _, _ = enumerate_discrete(example1)
    assert np.array_equal(r.x, x)
    assert r.objective == pytest.approx(value, abs=1e-9)


def test_solve_falls_back_to_enumeration_when_uncertified():
    p = generate(GenSpec(n=3, m=2, seed=1, value_set=(-2.0, 1.0)))
    r = solve(p)
    assert r.status == "OracleFallback"
    assert r.certificate.status == "NoCertificate"
    x, value, _, _ = enumerate_discrete(p)
    assert np.array_equal(r.x, x)
    assert r.objective == pytest.approx(value, abs=1e-12)


def test_solve_reports_honestly_with_fallback_disabled():
    p = generate(GenSpec(n=3, m=2, seed=1, value_set=(-2.0, 1.0)))
    r = solve(p, fallback_oracle_max_K=0)
    assert r.status == "NoCertificate"
    assert r.solver_status != TERM_CERTIFIED
    # the rounded point is still decoded and evaluated
    assert r.x.shape == (3,)
    assert np.isfinite(r.objective)


def test_solve_forced_single_choice():
    p = DiscreteQP(Q=np.array([[2.0]]), c=np.array([1.0]),
                   A=np.array([[1.0]]), b=np.array([10.0]), U=[[5.0]])
    r = solve(p)
    assert np.array_equal(r.x, [5.0])
    assert r.objective == pytest.approx(0.5 * 2 * 25 - 5)


def test_solve_report_records_tolerances(example1):
    # The fixed gap tolerance is a constant of SolveReport, not a field,
    # and there is no cone floor; neither is written to the report.
    r = solve(example1)
    assert r.tol_gap == TOL_GAP
    assert "tol_gap" not in {f.name for f in dataclasses.fields(r)}
    assert not hasattr(r, "mu_min")
    doc = json.loads(emit_report(r))
    assert "tol_gap" not in doc and "mu_min" not in doc
    assert "dual_feas_residual" not in doc["certificate"]


@pytest.mark.parametrize("name, most", [("example1", 103), ("example2", 187)])
def test_reference_instances_stop_certified_early(name, most, request):
    # Run to the round-off floor these took 206 and 375 iterations.
    _, trace = maximize_dual(request.getfixturevalue(name))
    assert trace.termination == TERM_CERTIFIED
    assert trace.iterations <= most
    assert trace.certificate.status == "CertifiedGlobal"


def test_certified_stop_reports_pass_check(example1, monkeypatch):
    r = solve(example1)
    assert r.solver_status == TERM_CERTIFIED
    tol = r.tol_gap * (1.0 + abs(r.objective))
    assert r.certificate.gap <= tol
    passed, failures = check(emit_problem(example1), emit_report(r))
    assert passed, failures
    # The ascent stops at the first iterate that certifies, so the gap is
    # not at round-off: the iterate before it fails the gap test.
    monkeypatch.setattr(solver, "_MAX_ITER", r.iterations - 1)
    _, trace = maximize_dual(example1)
    assert trace.termination == TERM_MAX_ITER
    gap = trace.certificate.gap
    assert gap > TOL_GAP * (1.0 + abs(objective(example1, trace.x)))


def test_ascent_log_reports_evaluations_and_rejections(example1, caplog):
    with caplog.at_level("INFO", logger="dvs.solver"):
        maximize_dual(example1)
    line = next(rec.getMessage() for rec in caplog.records
                if rec.getMessage().startswith("dual ascent:"))
    found = re.search(r"after (\d+) iterations, .* (\d+) dual evaluations, "
                      r"(\d+) cone rejections", line)
    assert found, line
    iterations, evaluations, rejections = map(int, found.groups())
    # one evaluation for the start point, at least one per accepted step
    assert evaluations >= iterations + 1 + rejections
    resets = re.search(r", (\d+) L-BFGS resets$", line)
    assert resets, line
    # at most one reset per iteration's direction
    assert 0 <= int(resets.group(1)) <= iterations


def test_ascent_log_reports_the_first_gap_iteration(example1, monkeypatch,
                                                    caplog):
    # The ascent certifies x exactly at the iterates whose x meets the
    # dual value within the gap tolerance, and once more at the final
    # iterate when none of them did: the first such certify is at the
    # logged iteration, or there is just the final one.
    duals = []

    def recorded(p, x, sigma, mu, dual):
        duals.append(dual)
        return certify(p, x, sigma, mu, dual)

    certify = solver.certify
    monkeypatch.setattr(solver, "certify", recorded)
    met = set()
    for p in (example1, generate(suite_spec(50)), indefinite(0),
              indefinite(1), indefinite(2)):
        duals.clear()
        caplog.clear()
        with caplog.at_level("INFO", logger="dvs.solver"):
            _, trace = maximize_dual(p)
        line = next(rec.getMessage() for rec in caplog.records
                    if rec.getMessage().startswith("dual ascent:"))
        first = re.search(r", gap first met at iteration (\d+|none), ",
                          line).group(1)
        met.add(first == "none")
        if first == "none":
            assert duals == [trace.values[-1]]
            cert = trace.certificate
            assert cert.gap > TOL_GAP * (1.0 + abs(objective(p, trace.x)))
        else:
            assert 0 <= int(first) <= trace.iterations
            assert duals[0] == trace.values[int(first)]
    assert met == {True, False}


def scripted_line_search(monkeypatch, problem, script):
    """The trial steps of the first line search of ``problem``'s ascent
    with the dual evaluation and its gradient stubbed.

    The start point gets the value 0 and the gradient 0.1 everywhere, so
    the first direction is +0.1 everywhere and no trial is projected.
    Trial k answers by ``script[k]``: None leaves the cone, "nan" has a
    NaN value, and a number t is a failed Armijo trial whose quadratic
    through the start value, the slope and its value has its maximizer t
    of the way along the trial step.  The trial after the script is
    accepted.
    """
    assert problem.m > 0  # the steps are read off sigma_1, which starts at 0
    real = solver.eliminate_tau
    points, start = [], []

    def stub(p, sigma, mu):
        w = np.concatenate([sigma, mu])
        points.append(w)
        if not start:
            _, x, y, tau = real(p, sigma, mu)
            start.extend((w, np.full_like(w, 0.1), x, y, tau))
            return 0.0, x, y, tau
        w0, g0, x, y, tau = start
        k = len(points) - 2
        if k == len(script):
            return 1.0, x, y, tau
        if script[k] is None:
            return None
        dg = g0 @ (w - w0)
        value = (np.nan if script[k] == "nan"
                 else dg - dg / (2.0 * script[k]))
        return value, x, y, tau

    def gradient(p, x, y):
        return np.full(p.m + p.K, 0.1 if len(points) == 1 else 0.05)

    monkeypatch.setattr(solver, "eliminate_tau", stub)
    monkeypatch.setattr(solver, "_gradient", gradient)
    monkeypatch.setattr(solver, "_MAX_ITER", 1)
    maximize_dual(problem)
    assert len(points) == len(script) + 2
    return [(w[0] - points[0][0]) / 0.1 for w in points[1:]]


@pytest.mark.parametrize("script, factors", [
    ([0.3], [0.3]),                    # inside (0.1, 0.5): the minimizer
    ([0.3, 0.2], [0.3, 0.2]),          # one failure after another
    ([0.01], [0.1]),                   # far too long a step: 0.1
    ([1e-9], [0.1]),
    ([0.49999], [0.49999]),            # lowers the value by 2e-5 dg: fails
    ([None], [0.5]),                   # off the cone: halve
    (["nan"], [0.5]),                  # no value to interpolate: halve
    ([None, 0.25, "nan"], [0.5, 0.25, 0.5]),
])
def test_failed_armijo_trial_interpolates_the_next_step(
        example1, monkeypatch, script, factors):
    steps = scripted_line_search(monkeypatch, example1, script)
    expected = [1.0]
    for factor in factors:
        expected.append(expected[-1] * factor)
    assert steps == pytest.approx(expected, rel=1e-12)


def test_n50_suite_certifies_in_fewer_dual_evaluations(caplog):
    # Halving after every failed Armijo trial took 112 + 107 + 115 = 334
    # evaluations for the same three certificates.
    evaluations = 0
    for i in range(3):
        caplog.clear()
        with caplog.at_level("INFO", logger="dvs.solver"):
            _, trace = maximize_dual(generate(suite_spec(50, i)))
        assert trace.termination == TERM_CERTIFIED
        assert trace.certificate.status == "CertifiedGlobal"
        assert np.array_equal(trace.x, np.ones(50))
        line = next(rec.getMessage() for rec in caplog.records
                    if rec.getMessage().startswith("dual ascent:"))
        evaluations += int(re.search(r"(\d+) dual evaluations", line).group(1))
    assert evaluations <= 270


def test_solve_n100_certifies_and_checks():
    # K = 500: the n-by-n kernel makes this a fraction of a second.
    p = generate(suite_spec(100))
    r = solve(p)
    assert r.status == "CertifiedGlobal"
    passed, failures = check(emit_problem(p), emit_report(r))
    assert passed, failures


def test_solve_and_check_never_build_the_lifted_problem(monkeypatch, example1):
    # solve and check work on the DiscreteQP alone: building a BinaryQP,
    # which lift does, fails the test.  The instances cover a certified
    # ascent, the n = 50 suite, an oracle fallback and an indefinite
    # instance that certifies only on the tau-eliminated cone.
    def refuse(self, *args, **kwargs):
        raise AssertionError("a BinaryQP was built")

    monkeypatch.setattr(BinaryQP, "__init__", refuse)
    fallback = generate(GenSpec(n=3, m=2, seed=1, value_set=(-2.0, 1.0)))
    for p, status in ((example1, "CertifiedGlobal"),
                      (generate(suite_spec(50)), "CertifiedGlobal"),
                      (fallback, "OracleFallback"),
                      (indefinite(32), "CertifiedGlobal")):
        r = solve(p)
        assert r.status == status
        passed, failures = check(emit_problem(p), emit_report(r))
        assert passed, failures
        with pytest.raises(AssertionError, match="a BinaryQP was built"):
            lift(p)


def test_solve_and_check_take_one_cholesky_per_dual_evaluation(monkeypatch,
                                                               example1):
    # The tau-given G(mu) path is off the solve and check paths: every dual
    # evaluation is one eliminate_tau call, which is one n-by-n Cholesky.
    def refuse(*args, **kwargs):
        raise AssertionError("the tau-given G(mu) path was taken")

    counts = {"evaluations": 0, "choleskys": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dual.GFactorization, "solve", refuse)
    monkeypatch.setattr(dual, "factorize_g", refuse)
    monkeypatch.setattr(solver, "factorize_g", refuse)
    monkeypatch.setattr(solver, "eliminate_tau",
                        counted("evaluations", solver.eliminate_tau))
    monkeypatch.setattr(dual, "_cholesky", counted("choleskys", dual._cholesky))
    fallback = generate(GenSpec(n=3, m=2, seed=1, value_set=(-2.0, 1.0)))
    for p, status in ((example1, "CertifiedGlobal"),
                      (generate(suite_spec(50)), "CertifiedGlobal"),
                      (fallback, "OracleFallback")):
        r = solve(p)
        assert r.status == status
        passed, failures = check(emit_problem(p), emit_report(r))
        assert passed, failures
    assert counts["evaluations"] > 0
    assert counts["choleskys"] == counts["evaluations"]


# Indefinite instances with a Q that is not diagonally dominant; k = 32 and
# 55 certify only on the tau-eliminated cone, where G(mu) is not PD.
INDEFINITE_KS = (30, 31, 32, 33, 55)


def indefinite(k):
    return generate(indefinite_spec(k))


def test_indefinite_certificates_match_the_oracle(indefinite_instances):
    certified = 0
    for k in INDEFINITE_KS:
        p, _, value = indefinite_instances[k]
        r = solve(p, fallback_oracle_max_K=0)
        if r.status != "CertifiedGlobal":
            continue
        certified += 1
        assert r.objective == pytest.approx(value, abs=1e-9)
        assert not factorize_g(lift(p), r.dual_point.mu).positive_definite
    assert certified >= 1


@pytest.mark.parametrize("k", [13, 316, 351, 502])
def test_indefinite_final_dual_never_exceeds_the_optimum(k):
    # Weak duality on the ascent's own iterates.  Without the kernel's
    # pivot floor k = 351 ended with the dual value 0.136 above its
    # optimum -2.334 (I + SQS at its last step had eigenvalue ratio 3e-17,
    # which dpotrf accepted), and with the diagonal H0 k = 13 ended at
    # 8.21 above -0.233.
    p = indefinite(k)
    _, optimum, _, _ = enumerate_discrete(p)
    r = solve(p, fallback_oracle_max_K=0)
    assert r.trace[-1] <= optimum + TOL_GAP * (1.0 + abs(optimum))


def dense_bfgs(pairs, r, d):
    """H r from the dense BFGS inverse update H <- (I - rho s y') H
    (I - rho y s') + rho s s', rho = 1/s'y, over the pairs (s, y) oldest
    first, starting at H0 = (s'y / y'Dy) D of the newest, D = diag(d); with
    no pairs, r scaled to at most unit norm."""
    if not pairs:
        return r / max(1.0, np.linalg.norm(r))
    s_v, y_v = pairs[-1]
    h = np.diag((s_v @ y_v) / (y_v @ (d * y_v)) * d)
    for s_v, y_v in pairs:
        rho = 1.0 / (s_v @ y_v)
        v = np.eye(len(r)) - rho * np.outer(y_v, s_v)
        h = v.T @ h @ v + rho * np.outer(s_v, s_v)
    return h @ r


def assert_matches_dense_bfgs(got, pairs, r, d):
    """``got`` = the direction on the stored (s, y, 1/s'y) ``pairs``
    against the dense BFGS update on the same (s, y)."""
    ref = dense_bfgs([(s_v, y_v) for s_v, y_v, _ in pairs], r, d)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("size", [1, 3, 5, 20])
def test_compact_lbfgs_matches_two_loop_on_random_pairs(size):
    # The two-loop direction over a deque of ``size`` pairs against the
    # dense BFGS update: 3 size + 25 appends, a reset (clear) of the full
    # deque, and 3 size + 25 appends more, so on each side of the reset the
    # deque rolls over (drops its oldest pair) at least twice.  Each
    # product draws its own positive diagonal d of H0, spread over four
    # orders of magnitude.
    rng = np.random.default_rng(size)
    dim = 60
    # y = M s + noise with M SPD keeps s'y > 0, as the curvature test does
    basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    M = basis @ np.diag(rng.uniform(0.1, 10.0, dim)) @ basis.T
    pairs = collections.deque(maxlen=size)
    for phase in range(2):
        appended = rollovers = 0
        for _ in range(3 * size + 25):
            s_v = rng.standard_normal(dim)
            y_v = M @ s_v + 0.01 * rng.standard_normal(dim)
            assert s_v @ y_v > 0.0
            pairs.append((s_v, y_v, 1.0 / (s_v @ y_v)))
            appended += 1
            rollovers += appended > size
            assert len(pairs) == min(appended, size)
            r = np.where(rng.random(dim) < 0.1, 0.0, rng.standard_normal(dim))
            d = 10.0 ** rng.uniform(-2.0, 2.0, dim)
            assert_matches_dense_bfgs(
                solver._direction(pairs, r, d), pairs, r, d)
        assert rollovers >= 2
        pairs.clear()
        assert_matches_dense_bfgs(solver._direction(pairs, r, d), pairs, r, d)


class CountedPairs(collections.deque):
    """The ascent's pair deque, counting the pairs appended."""

    appended = 0

    def append(self, pair):
        self.appended += 1
        super().append(pair)


def checked_ascent(p):
    """The trace of ``p``'s ascent, with every L-BFGS direction checked
    against the dense BFGS update on the same pairs, and (pairs held,
    pairs appended) at each."""
    checked = []
    real = solver._direction

    def direction(pairs, r, d):
        got = real(pairs, r, d)
        assert_matches_dense_bfgs(got, pairs, r, d)
        checked.append((len(pairs), pairs.appended))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "deque", CountedPairs)
        mp.setattr(solver, "_direction", direction)
        _, trace = maximize_dual(p)
    return trace, checked


def test_compact_lbfgs_matches_two_loop_on_ascent_pairs():
    # Every direction of two real ascents, a certified n = 100 one (13
    # steps) and a converged indefinite one, checked against the dense
    # BFGS update.  Each fills the deque to every size it can hold and
    # rolls it over: more pairs appended than it holds.  (Stalled ascents
    # append more, but their last pairs sit at the round-off floor, where
    # two forms of the product can part by far more than 1e-12.)
    size = solver._LBFGS_MEMORY
    for p, end in ((generate(suite_spec(100)), TERM_CERTIFIED),
                   (indefinite(98), TERM_CONVERGED)):
        trace, checked = checked_ascent(p)
        assert trace.termination == end
        assert set(range(1, size + 1)) <= {k for k, _ in checked}
        assert max(n for _, n in checked) >= size + 5


def test_ascent_pairs_carry_no_curvature_of_frozen_coordinates(monkeypatch):
    # A coordinate frozen at its bound takes no step, and the pair stored
    # for that step has y = 0 there: the gradient change of a held
    # coordinate is not curvature of the free subspace.
    trial, current, frozen, masked = [], [], [], [0]

    def evaluated(p, sigma, mu):
        res = evaluate(p, sigma, mu)
        if res is not None:
            trial[:] = [np.concatenate([sigma, mu])]
        return res

    def recorded(p, x, y):
        # The gradient is formed at the start point and at each accepted
        # trial, each the last point on the cone evaluated before it.
        g = gradient(p, x, y)
        current[:] = [trial[0], g.copy(), p.m]
        return g

    def checked(pairs, r, d):
        # The last gradient formed is the current iterate's.
        w, g, m = current
        lb = np.full(len(w), MU_MIN)
        lb[:m] = 0.0
        frozen[:] = [(w <= lb) & (g < 0)]
        return direction(pairs, r, d)

    class Checked(collections.deque):
        def append(self, pair):
            s, y, _ = pair
            assert np.all(s[frozen[0]] == 0.0)
            assert np.all(y[frozen[0]] == 0.0)
            masked[0] += int(frozen[0].sum())
            super().append(pair)

    evaluate, gradient = solver.eliminate_tau, solver._gradient
    direction = solver._direction
    monkeypatch.setattr(solver, "eliminate_tau", evaluated)
    monkeypatch.setattr(solver, "_gradient", recorded)
    monkeypatch.setattr(solver, "_direction", checked)
    monkeypatch.setattr(solver, "deque", Checked)
    for p in (generate(suite_spec(50, 1)), indefinite(0)):
        maximize_dual(p)
    assert masked[0] > 0


@pytest.mark.parametrize(
    "spec", [suite_spec(50, i) for i in range(3)]
    + [suite_spec(n) for n in (20, 100, 300)],
    ids=lambda spec: f"{spec.n}-{spec.seed}")
def test_generator_suite_certifies_within_30_steps(spec):
    # 12 or 13 steps each with 3 curvature pairs (14 to 17 with 20 pairs,
    # 18 to 22 with 20 pairs and H0 = gamma I); with the frozen
    # coordinates' gradient change left in the curvature pairs they took
    # 59 to 129.
    _, trace = maximize_dual(generate(spec))
    assert trace.termination == TERM_CERTIFIED
    assert trace.iterations <= 30


def _suite_ascent_steps(n):
    """Steps of the certified dual ascents on the first 3 suite
    instances at size n."""
    steps = []
    for i in range(3):
        _, trace = maximize_dual(generate(suite_spec(n, i)))
        assert trace.termination == TERM_CERTIFIED
        steps.append(trace.iterations)
    return steps


@pytest.mark.parametrize("n, most", [(50, 16), (300, 15)])
def test_diagonal_h0_certifies_the_suite_in_few_steps(n, most):
    # With H0 = gamma I and 20 curvature pairs these ascents took 20, 20,
    # 20 and 21, 20, 19 steps; H0 = gamma diag(max(mu, 3 mu0)^2) took 15,
    # 16, 15 and 14, 14, 14 with 20 pairs.
    assert max(_suite_ascent_steps(n)) <= most


@pytest.mark.parametrize("n, most", [(50, 12), (300, 13)])
def test_three_curvature_pairs_certify_the_suite_in_fewer_steps(n, most):
    # With the newest 3 pairs kept the ascents above take 12, 12, 12 and
    # 13, 13, 13 steps: older pairs describe a multiplier scale the ascent
    # has left.
    assert solver._LBFGS_MEMORY == 3
    assert max(_suite_ascent_steps(n)) <= most


@pytest.mark.parametrize("seed", [500, 503, 507])
def test_h0_scale_overflow_stalls_without_a_warning(seed):
    # H0 squares max(mu, 3 mu0), which overflows once mu0 passes about
    # 1e154; under tier-1's filter a leaked overflow warning is an error.
    # Every scale ends as the x1e100 copy does: a stall before any step.
    p = generate(GenSpec(4, 2, seed, (0, 1, 3)))
    for factor in (1e100, 1e150, 1e160, 1e200, 1e250, 1e300):
        r = solve(dataclasses.replace(p, Q=p.Q * factor, c=p.c * factor),
                  fallback_oracle_max_K=0)
        assert (r.status, r.solver_status, r.iterations) == (
            "NoCertificate", TERM_STALL, 0)


@pytest.fixture
def criterion4_problems(sweep_instances):
    """Criterion 4's 200 feasible instances, in sweep order."""
    return [p for p, _, _ in sweep_instances]


def test_certified_objective_is_within_the_gap_tolerance_of_the_optimum():
    # CertifiedGlobal claims that no feasible selection lies more than
    # TOL_GAP (1 + |objective|) below x, not that x is the minimizer.  With
    # Q = sI and c = (s, 0) the optimum is x = (1, 0) at -s/2, and at the
    # smaller scales x = (0, 0) is certified, within that tolerance of it.
    certified = 0
    for s in (1.0, 1e-4, 1e-6, 1e-8, 1e-12):
        p = DiscreteQP(Q=s * np.eye(2), c=[s, 0.0], A=[[1.0, 1.0]], b=[5.0],
                       U=[[0.0, 1.0, 2.0]] * 2)
        r = solve(p, fallback_oracle_max_K=0)
        if r.status != "CertifiedGlobal":
            continue
        certified += 1
        _, optimum, _, _ = enumerate_discrete(p)
        assert r.objective - optimum <= TOL_GAP * (1.0 + abs(r.objective))
    assert certified > 0


def test_solve_certificate_is_verify_kkt_of_the_reported_x(
        example1, example2, criterion4_problems):
    # The ascent certifies with the dual value it already has, and an
    # oracle fallback certifies the oracle's x with the ascent's last one;
    # check recomputes it.  Both must give the same certificate, bit for
    # bit, whichever x the report states.
    problems = (criterion4_problems[:40] + [generate(suite_spec(50)),
                                           example1, example2]
                + [indefinite(k) for k in INDEFINITE_KS])
    statuses = set()
    for p in problems:
        for fallback in (0, solver.FALLBACK_ORACLE_MAX_K):
            r = solve(p, fallback_oracle_max_K=fallback)
            assert r.certificate == verify_kkt(p, r.x, r.dual_point)
            statuses.add((r.status, r.certificate.status))
    assert statuses == {("CertifiedGlobal", "CertifiedGlobal"),
                        ("NoCertificate", "NoCertificate"),
                        ("OracleFallback", "NoCertificate")}


def test_a_point_that_violates_a_row_does_not_certify():
    # The only feasible point is x = 0; x = 1 violates x <= 1 - 1e-7 by
    # far less than the gap tolerance, but by more than the feasibility
    # rule of is_feasible and check allows.
    for slack in (1e-7, 5e-7, 1e-6):
        p = DiscreteQP(Q=np.array([[1.0]]), c=np.array([2.0]),
                       A=np.array([[1.0]]), b=np.array([1.0 - slack]),
                       U=((0.0, 1.0),))
        r = solve(p)
        assert r.status == "OracleFallback"
        assert np.array_equal(r.x, [0.0]) and r.objective == 0.0
        assert check(emit_problem(p), emit_report(r)) == (True, [])
        r = solve(p, fallback_oracle_max_K=0)
        assert r.status == "NoCertificate"
        assert r.certificate.primal_feas_residual > 1e-9


INFEASIBLE_PROBLEMS = [
    DiscreteQP(Q=[[1.0]], c=[0.0], A=[[1.0]], b=[-10.0], U=[[0.0, 1.0]]),
    DiscreteQP(Q=np.eye(26), c=np.zeros(26), A=np.ones((1, 26)), b=[-1.0],
               U=[[0.0, 1.0]] * 26),
    DiscreteQP(Q=np.eye(2), c=[1.0, 1.0], A=[[1.0, 1.0]], b=[1.0],
               U=[[3.0], [4.0]]),
    DiscreteQP(Q=np.eye(2), c=[1.0, 1.0], A=[[1.0, 1.0]], b=[-1.0],
               U=[[0.0, 1.0]] * 2),
    DiscreteQP(Q=[[2.0, 1.0], [1.0, 2.0]], c=[1.0, -1.0], A=[[1.0, 0.0]],
               b=[1.0], U=[[5.0], [0.0, 1.0, 2.0]]),
]


@pytest.mark.parametrize("p", INFEASIBLE_PROBLEMS,
                         ids=["n1", "n26", "single", "negative-b", "q21"])
def test_the_ascent_proves_infeasible_data_infeasible(p, monkeypatch):
    # Every selection's objective is at most a'|Q|a / 2 + |c|'a with
    # a_i = max |U_i|; a dual value above it (plus the gap tolerance)
    # proves that none is feasible.  These cross it within 10 steps, at
    # every fallback setting, before the dual value overflows.
    monkeypatch.setattr(solver, "_MAX_ITER", 10)
    with pytest.raises(Infeasible, match="no selection satisfies Ax <= b"):
        maximize_dual(p)
    for fallback in (24, 0):
        with pytest.raises(Infeasible):
            solve(p, fallback_oracle_max_K=fallback)


def test_an_optimum_equal_to_the_objective_bound_still_certifies():
    # Here the one selection is feasible and its objective is the bound
    # a'|Q|a / 2 + |c|'a itself, as is the dual value at the initial
    # point: only the margin above the bound tells it from infeasibility.
    for p in (DiscreteQP(Q=[[1.0]], c=[-1.0], A=[[1.0]], b=[10.0],
                         U=[[1.0]]),
              DiscreteQP(Q=np.eye(2), c=[-1.0, -1.0], A=[[1.0, 1.0]],
                         b=[10.0], U=[[1.0], [2.0]])):
        r = solve(p, fallback_oracle_max_K=0)
        assert r.status == "CertifiedGlobal" and r.iterations == 0
        a = np.abs(r.x)
        top = 0.5 * a @ np.abs(p.Q) @ a + np.abs(p.c) @ a
        assert r.trace == (r.objective,) == (top,)


def test_translating_the_value_sets_moves_only_x(criterion4_problems):
    # x' = x + t over U + t is the same problem with c + Qt and b + At.
    # Every status is unchanged and every certified x moves by exactly t.
    problems = criterion4_problems
    base = [solve(p, fallback_oracle_max_K=0) for p in problems]
    assert sum(r.status == "CertifiedGlobal" for r in base) >= 50
    for t in (-1.0, 3.0):
        for p, r in zip(problems, base):
            shifted = DiscreteQP(
                Q=p.Q, c=p.c + p.Q @ np.full(p.n, t), A=p.A,
                b=p.b + p.A @ np.full(p.n, t),
                U=[[u + t for u in ui] for ui in p.U])
            rt = solve(shifted, fallback_oracle_max_K=0)
            assert rt.status == r.status
            if r.status == "CertifiedGlobal":
                assert np.array_equal(rt.x, r.x + t)


def test_solve_evaluates_the_dual_once_per_logged_evaluation(example1,
                                                              caplog):
    calls = []

    def counted(*args):
        calls.append(1)
        return eliminate_tau(*args)

    fallback = generate(GenSpec(n=3, m=2, seed=1, value_set=(-2.0, 1.0)))
    for p in (example1, generate(suite_spec(50)), fallback):
        calls.clear()
        caplog.clear()
        with pytest.MonkeyPatch.context() as mp, \
                caplog.at_level("INFO", logger="dvs.solver"):
            mp.setattr(solver, "eliminate_tau", counted)
            solve(p)
        line = next(rec.getMessage() for rec in caplog.records
                    if rec.getMessage().startswith("dual ascent:"))
        logged = int(re.search(r"(\d+) dual evaluations", line).group(1))
        assert len(calls) == logged


def test_unconstrained_problems_solve_check_and_match_the_oracle():
    # m = 0 takes the same code path as m > 0, with empty A, b and sigma.
    # Generated Q and c with the constraint row dropped, value sets of
    # sizes 1-5, and every other Q swapped for the near-singular c c' + 1e-9 I.
    values = (1.0, 2.0, 3.0, 4.0, 5.0)
    certified = {"pd": 0, "near-singular": 0}
    for trial in range(30):
        n = 2 + trial % 4
        g = generate(GenSpec(n, 1, 9000 + trial))
        kind = "near-singular" if trial % 2 else "pd"
        Q = g.Q if kind == "pd" else np.outer(g.c, g.c) + 1e-9 * np.eye(n)
        p = DiscreteQP(Q=Q, c=5.0 * g.c, A=np.zeros((0, n)), b=np.zeros(0),
                       U=[values[:1 + (trial + i) % 5] for i in range(n)])
        r = solve(p, fallback_oracle_max_K=0)
        assert r.dual_point.sigma.shape == (0,)
        passed, failures = check(emit_problem(p), emit_report(r))
        assert passed, failures
        if r.status == "CertifiedGlobal":
            certified[kind] += 1
            _, value, _, _ = enumerate_discrete(p)
            assert r.objective == pytest.approx(value, abs=1e-9)
    assert min(certified.values()) >= 3, certified
