"""A reproducible digest of the reports ``dvs`` writes for a fixed set.

Two commits that print the same digest wrote byte-identical reports for
every instance of the set.  The set, solved in this order:

1. criterion 4's 200 instances: for k = 1, 2, ...,
   ``GenSpec(2 + k % 3, 1 + k % 2, 1000 + k, SWEEP_VALUE_SETS[k % 4])``,
   skipping those the oracle finds infeasible, until 200 are kept (the
   rule of ``sweep_instances`` in tests/test_acceptance.py);
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
pass's), the total bytes of the reports and the sha256 of the reports
concatenated in that order.

Run from the repository root, with the BLAS pinned to one thread so the
bytes do not depend on the thread count:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/report_digest.py
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib

from dvs.errors import Infeasible
from dvs.generator import GenSpec, generate
from dvs.oracle import enumerate_discrete
from dvs.serialize import check, emit_problem, emit_report
from dvs.solver import solve

SWEEP_VALUE_SETS = ((0.0, 1.0), (1.0, 2.0, 3.0), (-1.0, 0.0, 2.0), (2.0, 5.0))
FALLBACKS = (24, 0)


def instances():
    """(family, problem) for the set, in the order of the module
    docstring."""
    out = []
    k = 0
    while len(out) < 200:
        k += 1
        p = generate(GenSpec(n=2 + k % 3, m=1 + k % 2, seed=1000 + k,
                             value_set=SWEEP_VALUE_SETS[k % 4]))
        try:
            enumerate_discrete(p)
        except Infeasible:
            continue
        out.append(("criterion4", p))
    out += [("indefinite",
             generate(GenSpec(8, 2, 7000 + k, (0.0, 1.0),
                              coeff_range=(-1.0, 1.0), dominance_boost=False)))
            for k in range(120)]
    out += [("n50", generate(GenSpec(50, 5, seed)))
            for seed in (4292, 4293, 4294)]
    return out


def main():
    problems = [(family, p, emit_problem(p)) for family, p in instances()]
    digest = hashlib.sha256()
    statuses = collections.Counter()
    family_statuses = collections.Counter()
    iterations = collections.Counter()
    reports = passed = size = 0
    for fallback in FALLBACKS:
        for family, p, problem in problems:
            r = dataclasses.replace(
                solve(p, fallback_oracle_max_K=fallback), seconds=0.0)
            data = emit_report(r, include_trace=True)
            digest.update(data)
            size += len(data)
            reports += 1
            statuses[r.status] += 1
            family_statuses[family, r.status] += 1
            iterations[family] += r.iterations
            passed += check(problem, data)[0]
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
    print(f"bytes {size}")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
