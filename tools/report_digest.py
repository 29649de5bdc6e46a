"""A reproducible digest of the reports ``dvs`` writes for a fixed set.

Two commits that print the same digest wrote byte-identical reports for
every instance of the set.  The set, solved in this order:

1. criterion 4's 200 instances: for k = 1, 2, ...,
   ``GenSpec(2 + k % 3, 1 + k % 2, 1000 + k, SWEEP_VALUE_SETS[k % 4])``,
   skipping those the oracle finds infeasible, until 200 are kept (the
   rule of the ``sweep_instances`` fixture in tests/conftest.py);
2. the indefinite family ``GenSpec(8, 2, 7000 + k, (0, 1),
   coeff_range=(-1, 1), dominance_boost=False)`` for k = 0..119;
3. ``GenSpec(50, 5, seed)`` for seed = 4292, 4293, 4294.

The whole set is solved at ``fallback_oracle_max_K=24`` and then again at
0.  Each report is emitted with its trace and with ``seconds`` set to 0.
The script prints the report count, the count of each status, one
``status <family> <status> <count>`` line per family and status (zeros
included, so a family's lines sum to its report count and each status's
lines to its total), how many reports ``check`` PASSes, the total ascent
iterations of each of the three families over both fallback settings
(the ascent does not depend on the fallback, so each total is twice one
pass's), the total dual evaluations (``dvs.solver.eliminate_tau`` calls,
the ascent's hot loop) of each family's solves over both settings, one
``bound <family> <median> <max>`` line for criterion4 and indefinite, the
total bytes of the reports and the sha256 of the reports concatenated in
that order.  A ``bound`` line gives, to three significant digits, the
median and largest relative shortfall (optimum - final dual value) /
(1 + |optimum|) of the family's fallback-0 pass, against the oracle's
optimum: how far below the optimum the ascent's bound ends.  The
``status``, ``check PASS``, ``iterations``, ``evaluations`` and ``bound``
lines are committed as ``tools/digest_status.txt``; CI fails when the
run's differ from them.

Run from the repository root, with the BLAS pinned to one thread so the
bytes do not depend on the thread count:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/report_digest.py
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import statistics

from dvs import solver
from dvs.errors import Infeasible
from dvs.generator import GenSpec, generate
from dvs.oracle import enumerate_discrete
from dvs.serialize import check, emit_problem, emit_report
from dvs.solver import solve

SWEEP_VALUE_SETS = ((0.0, 1.0), (1.0, 2.0, 3.0), (-1.0, 0.0, 2.0), (2.0, 5.0))
FALLBACKS = (24, 0)


def instances():
    """(family, problem, oracle optimum or None) for the set, in the
    order of the module docstring; the n50 family has no optimum."""
    out = []
    k = 0
    while len(out) < 200:
        k += 1
        p = generate(GenSpec(n=2 + k % 3, m=1 + k % 2, seed=1000 + k,
                             value_set=SWEEP_VALUE_SETS[k % 4]))
        try:
            optimum = enumerate_discrete(p)[1]
        except Infeasible:
            continue
        out.append(("criterion4", p, optimum))
    for k in range(120):
        p = generate(GenSpec(8, 2, 7000 + k, (0.0, 1.0),
                             coeff_range=(-1.0, 1.0), dominance_boost=False))
        out.append(("indefinite", p, enumerate_discrete(p)[1]))
    out += [("n50", generate(GenSpec(50, 5, seed)), None)
            for seed in (4292, 4293, 4294)]
    return out


def main():
    calls = [0]
    evaluate = solver.eliminate_tau

    def counted(*args):
        calls[0] += 1
        return evaluate(*args)

    # check reaches the kernel through dvs.solver too; only the calls
    # made inside solve are counted.
    solver.eliminate_tau = counted
    problems = [(family, p, emit_problem(p), optimum)
                for family, p, optimum in instances()]
    digest = hashlib.sha256()
    statuses = collections.Counter()
    family_statuses = collections.Counter()
    iterations = collections.Counter()
    evaluations = collections.Counter()
    shortfalls = collections.defaultdict(list)
    reports = passed = size = 0
    for fallback in FALLBACKS:
        for family, p, problem, optimum in problems:
            before = calls[0]
            r = dataclasses.replace(
                solve(p, fallback_oracle_max_K=fallback), seconds=0.0)
            evaluations[family] += calls[0] - before
            data = emit_report(r, include_trace=True)
            digest.update(data)
            size += len(data)
            reports += 1
            statuses[r.status] += 1
            family_statuses[family, r.status] += 1
            iterations[family] += r.iterations
            passed += check(problem, data)[0]
            if fallback == 0 and optimum is not None:
                shortfalls[family].append(
                    (optimum - r.trace[-1]) / (1.0 + abs(optimum)))
    print(f"reports {reports}")
    for status, count in sorted(statuses.items()):
        print(f"{status} {count}")
    for family in iterations:
        for status in sorted(statuses):
            print(f"status {family} {status} "
                  f"{family_statuses[family, status]}")
    print(f"check PASS {passed}")
    for family, total in iterations.items():
        print(f"iterations {family} {total}")
    for family, total in evaluations.items():
        print(f"evaluations {family} {total}")
    for family, values in shortfalls.items():
        print(f"bound {family} {statistics.median(values):.3g} "
              f"{max(values):.3g}")
    print(f"bytes {size}")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
