"""Dual ascent, rounding, certification, and the end-to-end solve."""

import re

import numpy as np
import pytest

from dvs.dual import MU_MIN, factorize_g
from dvs.generator import GenSpec, generate
from dvs.lift import lift
from dvs.model import BinaryQP, DiscreteQP, DualPoint
from dvs.oracle import enumerate_discrete
from dvs.serialize import check, emit_problem, emit_report
from dvs.solver import (
    TERM_CERTIFIED,
    TERM_CONVERGED,
    TERM_MAX_ITER,
    AscentTrace,
    SolverConfig,
    initial_point,
    maximize_dual,
    round_binary,
    solve,
    verify_kkt,
)

from conftest import EX1_VALUE, EX1_X, EX2_VALUE, EX2_X, VALUE_TOL


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol_grad=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol_gap=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(round_threshold=1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)


def test_initial_point_is_interior(example1, example2):
    for p in (example1, example2):
        q = lift(p)
        d = initial_point(q)
        assert np.array_equal(d.sigma, np.zeros(q.m))
        assert np.array_equal(d.tau, np.zeros(q.n))
        assert np.all(d.mu >= MU_MIN)
        assert factorize_g(q, d.mu).positive_definite


def test_maximize_dual_reaches_reference_value(example1):
    q = lift(example1)
    d, trace = maximize_dual(q)
    assert trace.termination == TERM_CERTIFIED
    assert trace.values[-1] == pytest.approx(EX1_VALUE, abs=VALUE_TOL)
    # iterate respects the cone bounds
    assert np.all(d.sigma >= 0.0)
    assert np.all(d.mu >= MU_MIN)
    assert factorize_g(q, d.mu).positive_definite


def test_trace_is_monotone_nondecreasing(example1, example2):
    for p in (example1, example2):
        values = maximize_dual(lift(p))[1].values
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_max_iter_is_honoured(example1):
    q = lift(example1)
    _, trace = maximize_dual(q, SolverConfig(max_iter=3))
    assert trace.termination == TERM_MAX_ITER
    assert trace.iterations == 3


def test_ascent_trace_iteration_count():
    t = AscentTrace(values=(1.0, 2.0, 3.0), termination=TERM_CONVERGED)
    assert t.iterations == 2


def blocks_2_3():
    """A lifted problem with blocks ((0, 2), (2, 5))."""
    return lift(DiscreteQP(Q=np.eye(2), c=np.zeros(2), A=np.zeros((0, 2)),
                           b=np.zeros(0), U=[[0.0, 1.0], [0.0, 1.0, 2.0]]))


def test_round_binary_basics():
    y = np.array([0.8, 0.2, 0.1, 0.6, 0.3])
    y01, flagged = round_binary(y, blocks_2_3())
    assert np.array_equal(y01, [1, 0, 0, 1, 0])
    assert flagged == ()


def test_round_binary_flags_low_confidence():
    y = np.array([0.8, 0.2, 0.35, 0.33, 0.32])
    y01, flagged = round_binary(y, blocks_2_3(), threshold=0.5)
    assert np.array_equal(y01, [1, 0, 1, 0, 0])
    assert flagged == (1,)


def test_round_binary_tie_takes_lowest_index():
    q = blocks_2_3()
    y01, _ = round_binary(np.array([0.5, 0.5, 0.2, 0.7, 0.7]), q)
    assert np.array_equal(y01, [1, 0, 0, 1, 0])
    # the padding of the short block never wins, even on a tie
    y01, _ = round_binary(np.array([0.9, 0.9, 0.2, 0.2, 0.2]), q)
    assert np.array_equal(y01, [1, 0, 1, 0, 0])


def test_round_binary_matches_per_block_loop():
    # The per-block argmax loop the vectorized form replaced.
    rng = np.random.default_rng(4)
    for _ in range(5):
        sizes = rng.integers(1, 5, size=6)
        q = lift(DiscreteQP(Q=np.eye(6), c=np.zeros(6), A=np.zeros((0, 6)),
                            b=np.zeros(0), U=[range(s) for s in sizes]))
        for y in np.round(rng.random((20, q.K)), 1):
            y01, flagged = round_binary(y, q, threshold=0.5)
            ref, ref_flagged = np.zeros(q.K), []
            for i, (s, e) in enumerate(q.blocks):
                j = s + int(np.argmax(y[s:e]))
                ref[j] = 1.0
                if y[j] < 0.5:
                    ref_flagged.append(i)
            assert np.array_equal(y01, ref)
            assert flagged == tuple(ref_flagged)


def test_verify_kkt_certifies_reference_solution(example1):
    q = lift(example1)
    d, _ = maximize_dual(q)
    y01 = np.array([0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0], float)
    cert = verify_kkt(q, y01, d, tol=1e-6 * 230.0)
    assert cert.status == "CertifiedGlobal"
    assert cert.in_cone
    assert cert.gap <= 1e-6 * 230.0
    assert cert.primal_feas_residual <= 1e-9
    assert cert.complementarity_residual <= 1e-6 * 230.0


def test_verify_kkt_detects_wrong_point(example1):
    q = lift(example1)
    d, _ = maximize_dual(q)
    y01 = np.zeros(15)
    y01[[0, 3, 6, 9, 12]] = 1.0  # valid one-hot, but not the optimum
    cert = verify_kkt(q, y01, d, tol=1e-6 * 230.0)
    assert cert.status == "NoCertificate"
    assert cert.gap > 1.0


def test_verify_kkt_cone_failure_downgrades_to_kkt_only(example1):
    q = lift(example1)
    d, _ = maximize_dual(q)
    y01 = np.array([0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0], float)
    sigma = d.sigma.copy()
    # all constraints are inactive at the optimum, so this sign flip is too
    # small to move any residual or the gap but still leaves the cone
    sigma[int(np.argmin(sigma))] = -1e-12
    d_bad = DualPoint(sigma=sigma, tau=d.tau, mu=d.mu)
    cert = verify_kkt(q, y01, d_bad, tol=1e-6 * 230.0)
    assert not cert.in_cone
    assert cert.status == "KKTOnly"


def test_solve_first_reference_instance(example1):
    r = solve(example1)
    assert r.status == "CertifiedGlobal"
    assert np.array_equal(r.x, EX1_X)
    assert r.objective == pytest.approx(EX1_VALUE, abs=VALUE_TOL)
    assert r.solver_status == TERM_CERTIFIED
    assert r.certificate.gap <= 1e-6 * (1.0 + abs(r.objective))
    assert r.low_confidence_blocks == ()
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
    r = solve(p, SolverConfig(fallback_oracle_max_K=0))
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
    cfg = SolverConfig(tol_gap=1e-7, mu_min=1e-9)
    r = solve(example1, cfg)
    assert r.tol_gap == 1e-7
    assert r.mu_min == 1e-9


@pytest.mark.parametrize("name, most", [("example1", 103), ("example2", 187)])
def test_reference_instances_stop_certified_early(name, most, request):
    # Run to the round-off floor these took 206 and 375 iterations.
    _, trace = maximize_dual(lift(request.getfixturevalue(name)))
    assert trace.termination == TERM_CERTIFIED
    assert trace.iterations <= most
    assert trace.candidate.certificate.status == "CertifiedGlobal"


def test_certified_stop_reports_pass_check(example1):
    r = solve(example1)
    assert r.solver_status == TERM_CERTIFIED
    # The gap is not at round-off but just inside its tolerance.
    tol = r.tol_gap * (1.0 + abs(r.objective))
    assert 0.5 * tol < r.certificate.gap <= tol
    passed, failures = check(emit_problem(example1), emit_report(r))
    assert passed, failures


def test_ascent_log_reports_evaluations_and_rejections(example1, caplog):
    with caplog.at_level("INFO", logger="dvs.solver"):
        maximize_dual(lift(example1))
    line = next(rec.getMessage() for rec in caplog.records
                if rec.getMessage().startswith("dual ascent:"))
    found = re.search(r"after (\d+) iterations, .* (\d+) dual evaluations, "
                      r"(\d+) cone rejections", line)
    assert found, line
    iterations, evaluations, rejections = map(int, found.groups())
    # one evaluation for the start point, at least one per accepted step
    assert evaluations >= iterations + 1 + rejections


def test_solve_n100_certifies_and_checks():
    # K = 500: the n-by-n kernel makes this a fraction of a second.
    p = generate(GenSpec(100, 5, 4342))
    r = solve(p)
    assert r.status == "CertifiedGlobal"
    passed, failures = check(emit_problem(p), emit_report(r))
    assert passed, failures


def test_solve_and_check_never_form_b_or_h(monkeypatch):
    def refuse(self):
        raise AssertionError("the K-by-K B or the n-by-K H was formed")

    monkeypatch.setattr(BinaryQP, "B", property(refuse))
    monkeypatch.setattr(BinaryQP, "H", property(refuse))
    p = generate(GenSpec(50, 5, 4292))
    r = solve(p)
    assert r.status == "CertifiedGlobal"
    passed, failures = check(emit_problem(p), emit_report(r))
    assert passed, failures
    with pytest.raises(AssertionError):
        lift(p).B
