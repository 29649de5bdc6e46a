"""Acceptance gate: nine end-to-end criteria, one printed verdict line each.

Run with plain ``pytest``; every criterion prints ``criterion N ... PASS``
or ``... FAIL`` directly to the terminal (bypassing capture) and then
asserts, so a red run still shows the full scoreboard.
"""

import dataclasses
import time

import numpy as np
import pytest

from dvs.dual import dual_value, in_dual_cone, dual_gradient
from dvs.errors import Infeasible
from dvs.generator import GenSpec, generate
from dvs.lift import lift
from dvs.model import DualPoint, binary_objective
from dvs.oracle import enumerate_binary, enumerate_discrete
from dvs.serialize import emit_oracle_report, emit_report, emit_toy_solution
from dvs.solver import initial_point, solve
from dvs.toy import RESIDUAL_TOL, ToyInstance, toy_dual_roots, toy_solve

from conftest import EX1_VALUE, EX1_X, EX2_VALUE, EX2_X, VALUE_TOL

SWEEP_VALUE_SETS = ((0.0, 1.0), (1.0, 2.0, 3.0), (-1.0, 0.0, 2.0), (2.0, 5.0))


def verdict(capsys, number, name, ok, detail=""):
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def sweep_instances():
    """200 small instances (n <= 4, |U_i| <= 3, K <= 12) with oracle answers."""
    instances = []
    k = 0
    while len(instances) < 200:
        k += 1
        p = generate(GenSpec(n=2 + (k % 3), m=1 + (k % 2), seed=1000 + k,
                             value_set=SWEEP_VALUE_SETS[k % 4]))
        try:
            x, value, _, _ = enumerate_discrete(p)
        except Infeasible:
            continue
        instances.append((p, x, value))
    return instances


def interior_cone_point(q, base_mu, rng):
    """(d, tau): a point of the tau-given cone and a tau to go with it."""
    sigma, tau = 0.1 + rng.random(q.m), rng.standard_normal(q.n)
    d = DualPoint(sigma=sigma, mu=base_mu * (1.0 + rng.random(q.K)))
    assert in_dual_cone(q, d)
    return d, tau


def test_criterion_1_first_reference_instance(example1, capsys):
    t0 = time.perf_counter()
    r = solve(example1)
    elapsed = time.perf_counter() - t0
    xo, vo, _, total = enumerate_discrete(example1)
    ok = (np.array_equal(r.x, EX1_X)
          and abs(r.objective - EX1_VALUE) <= VALUE_TOL
          and r.status == "CertifiedGlobal"
          and elapsed < 5.0
          and total == 243
          and np.array_equal(xo, r.x)
          and abs(vo - r.objective) <= 1e-9)
    verdict(capsys, 1, "reference instance 1", ok,
            f"x={r.x.tolist()} objective={r.objective:.6f} "
            f"status={r.status} time={elapsed:.2f}s oracle agrees="
            f"{np.array_equal(xo, r.x)}")


def test_criterion_2_second_reference_instance(example2, capsys):
    r = solve(example2)
    t0 = time.perf_counter()
    xo, vo, _, total = enumerate_discrete(example2)
    oracle_time = time.perf_counter() - t0
    ok = (np.array_equal(r.x, EX2_X)
          and abs(r.objective - EX2_VALUE) <= VALUE_TOL
          and r.status == "CertifiedGlobal"
          and total == 5 ** 10
          and oracle_time < 600.0
          and np.array_equal(xo, r.x)
          and abs(vo - r.objective) <= 1e-9)
    verdict(capsys, 2, "reference instance 2", ok,
            f"objective={r.objective:.6f} status={r.status} "
            f"oracle {total} combinations in {oracle_time:.1f}s")


def test_criterion_3_double_well_example(capsys):
    t = ToyInstance(alpha=1.0, lam=2.0, f=[0.5])
    x, primal, dual, sigma1 = toy_solve(t)
    scale = max(1.0, 0.5 * float(t.f @ t.f))
    residuals = [abs((s / t.alpha + t.lam) * s * s - 0.5 * float(t.f @ t.f))
                 for s in toy_dual_roots(t)]
    ok = (abs(sigma1 - 0.236417) <= 1e-4
          and abs(x[0] - 2.11491) <= 1e-4
          and abs(primal - (-1.02951)) <= 1e-4
          and abs(dual - (-1.02951)) <= 1e-4
          and max(residuals) <= RESIDUAL_TOL * scale)
    verdict(capsys, 3, "double-well example", ok,
            f"sigma1={sigma1:.6f} x1={x[0]:.5f} value={primal:.5f} "
            f"max cubic residual={max(residuals):.2e}")


def test_criterion_4_oracle_equivalence_sweep(sweep_instances, capsys):
    certified = violations = 0
    for p, _, oracle_value in sweep_instances:
        r = solve(p)
        if r.certificate.status != "CertifiedGlobal":
            continue
        certified += 1
        if (abs(r.objective - oracle_value)
                > 1e-6 * (1.0 + abs(oracle_value))):
            violations += 1
    rate = certified / len(sweep_instances)
    ok = len(sweep_instances) >= 200 and violations == 0
    verdict(capsys, 4, "oracle equivalence sweep", ok,
            f"{len(sweep_instances)} instances, certification rate "
            f"{rate:.1%}, {violations} violations")


def test_criterion_5_gradient_check(capsys):
    worst = 0.0
    for seed in range(20):
        p = generate(GenSpec(n=2 + seed % 3, m=1 + seed % 2, seed=7000 + seed,
                             value_set=(1.0, 2.0, 3.0)))
        q = lift(p)
        base_mu = initial_point(q).mu
        rng = np.random.default_rng(seed)
        for _ in range(100):
            d, tau = interior_cone_point(q, base_mu, rng)
            gs, gt, gm = dual_gradient(q, d, tau)
            analytic = np.concatenate([gs, gt, gm])
            w0 = np.concatenate([d.sigma, tau, d.mu])

            def value_at(w):
                return dual_value(q, DualPoint(sigma=w[:q.m],
                                               mu=w[q.m + q.n:]),
                                  w[q.m:q.m + q.n])

            fd = np.empty_like(w0)
            for i in range(w0.size):
                h = 1e-6 * max(1.0, abs(w0[i]))
                wp, wm = w0.copy(), w0.copy()
                wp[i] += h
                wm[i] -= h
                fd[i] = (value_at(wp) - value_at(wm)) / (2.0 * h)
            rel = np.abs(fd - analytic) / np.maximum(1.0, np.abs(analytic))
            worst = max(worst, float(rel.max()))
    ok = worst <= 1e-5
    verdict(capsys, 5, "gradient vs finite differences", ok,
            f"2000 cone points, max relative error {worst:.2e}")


def test_criterion_6_weak_duality(capsys):
    pairs = violations = 0
    instance = 0
    while pairs < 10_000:
        instance += 1
        p = generate(GenSpec(n=2 + instance % 3, m=1 + instance % 2,
                             seed=8000 + instance, value_set=(1.0, 2.0, 3.0)))
        q = lift(p)
        base_mu = initial_point(q).mu
        rng = np.random.default_rng(instance)
        sizes = [e - s for s, e in q.blocks]
        for _ in range(600):
            if pairs >= 10_000:
                break
            y = np.zeros(q.K)
            for i, (s, _) in enumerate(q.blocks):
                y[s + rng.integers(0, sizes[i])] = 1.0
            if np.any(q.D @ y > q.b):
                continue
            d, tau = interior_cone_point(q, base_mu, rng)
            if dual_value(q, d, tau) > binary_objective(q, y) + 1e-6:
                violations += 1
            pairs += 1
    ok = violations == 0
    verdict(capsys, 6, "weak duality sampling", ok,
            f"{pairs} (y, dual) pairs, {violations} violations")


def test_criterion_7_lifted_enumeration_equivalence(sweep_instances, capsys):
    worst = 0.0
    for p, _, oracle_value in sweep_instances:
        _, lifted_value = enumerate_binary(lift(p))
        worst = max(worst, abs(lifted_value - oracle_value))
    ok = worst <= 1e-9
    verdict(capsys, 7, "lifted enumeration equivalence", ok,
            f"{len(sweep_instances)} instances, max value difference "
            f"{worst:.2e}")


def test_criterion_8_scaling(capsys):
    budgets = {20: 60.0, 50: 300.0}
    details = []
    ok = True
    for n, budget in budgets.items():
        p = generate(GenSpec(n=n, m=5, seed=4242 + n))
        t0 = time.perf_counter()
        r = solve(p)
        elapsed = time.perf_counter() - t0
        terminal = r.status in ("CertifiedGlobal", "NoCertificate",
                                "OracleFallback")
        ok = ok and terminal and elapsed < budget
        details.append(f"n={n}: {r.status} in {elapsed:.1f}s")
    q = lift(generate(GenSpec(n=300, m=5, seed=4242)))
    ok = ok and q.K == 1500
    details.append(f"n=300 construction K={q.K}")
    verdict(capsys, 8, "scaling", ok, "; ".join(details))


def test_criterion_9_determinism(example1, example2, sweep_instances, capsys):
    mismatches = []

    def report_bytes(p):
        return emit_report(dataclasses.replace(solve(p), seconds=0.0))

    for name, p in [("instance-1", example1), ("instance-2", example2)]:
        if report_bytes(p) != report_bytes(p):
            mismatches.append(name)

    t = ToyInstance(alpha=1.0, lam=2.0, f=[0.5])
    if emit_toy_solution(*_toy_tuple(t)) != emit_toy_solution(*_toy_tuple(t)):
        mismatches.append("double-well")

    def oracle_bytes(p):
        x, v, feas, total = enumerate_discrete(p)
        return emit_oracle_report(x, v, feas, total, 0.0)

    if oracle_bytes(example1) != oracle_bytes(example1):
        mismatches.append("oracle")

    for i, (p, _, _) in enumerate(sweep_instances[:25]):
        if report_bytes(p) != report_bytes(p):
            mismatches.append(f"sweep-{i}")
    ok = not mismatches
    verdict(capsys, 9, "determinism", ok,
            "byte-identical reports" if ok else f"mismatches: {mismatches}")


def _toy_tuple(t):
    x, primal, dual, sigma1 = toy_solve(t)
    return x, primal, dual, sigma1
