"""A reproducible digest of the reports ``dvs`` writes for a fixed set.

Two commits that print the same digest wrote byte-identical reports for
every instance of the set: criterion 4's 200 instances, the indefinite
family's 120 and the generator suite's first three at n = 50, from
tests/families.py in that order, solved at ``fallback_oracle_max_K=24``
and then at 0.  Each report is emitted with its trace and ``seconds`` 0.

Printed in order: the report count; each status's count; ``status
<family> <status> <count>`` for every pair, zeros included;
``termination <family> <reason> <count>``, why the fallback-0 pass's
ascents stopped, for every family and each of the four reasons, zeros
included; ``check PASS`` and its count; ``check FAIL <family> <kind>
<count>`` for each failing kind, the text before the ``:`` of a failing
report's first failure; each family's ascent ``iterations`` (twice one
pass's: the ascent does not depend on the fallback) and dual
``evaluations`` (``dvs.solver.eliminate_tau`` calls inside ``solve``)
over both passes; ``bound <family> <median> <max>`` to three significant
digits, the relative shortfall (optimum - final dual value) / (1 +
|optimum|) of the fallback-0 pass for each family with an oracle
optimum; ``problems <bytes> <sha256>`` over the problem files
(``emit_problem``) of the set, so one bit moved in a generated instance
shows; ``lift <bytes> <sha256>`` over the ``dvs lift`` files of the
set's problems; and the bytes and sha256 of the reports concatenated.
CI fails when the ``status``, ``termination``, ``check PASS``, ``check
FAIL``, ``iterations``, ``evaluations``, ``bound``, ``problems`` or
``lift`` lines differ from the committed ``tools/digest_status.txt``.

Run from the repository root, with the BLAS pinned to one thread so the
bytes do not depend on the thread count:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src:tests python3 tools/report_digest.py
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import statistics

from dvs import solver
from dvs.generator import generate
from dvs.model import lift
from dvs.serialize import check, emit_lifted, emit_problem, emit_report
from dvs.solver import (TERM_CERTIFIED, TERM_CONVERGED, TERM_MAX_ITER,
                        TERM_STALL, solve)
from families import criterion4_instances, indefinite_instances, suite_spec

FALLBACKS = (24, 0)
TERMINATIONS = (TERM_CERTIFIED, TERM_CONVERGED, TERM_STALL, TERM_MAX_ITER)


def instances():
    """(family, problem, oracle optimum or None) for the set, in the
    order of the module docstring; the n50 family has no optimum."""
    return ([("criterion4", p, v) for p, _, v in criterion4_instances()]
            + [("indefinite", p, v) for p, _, v in indefinite_instances()]
            + [("n50", generate(suite_spec(50, i)), None) for i in range(3)])


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
    terminations = collections.Counter()
    iterations = collections.Counter()
    evaluations = collections.Counter()
    shortfalls = collections.defaultdict(list)
    failed = collections.Counter()
    passed = size = 0
    for fallback in FALLBACKS:
        for family, p, problem, optimum in problems:
            before = calls[0]
            r = dataclasses.replace(
                solve(p, fallback_oracle_max_K=fallback), seconds=0.0)
            evaluations[family] += calls[0] - before
            data = emit_report(r, include_trace=True)
            digest.update(data)
            size += len(data)
            statuses[r.status] += 1
            family_statuses[family, r.status] += 1
            iterations[family] += r.iterations
            ok, failures = check(problem, data)
            passed += ok
            if failures:
                failed[family, failures[0].split(":")[0]] += 1
            if fallback == 0:
                terminations[family, r.solver_status] += 1
                if optimum is not None:
                    shortfalls[family].append(
                        (optimum - r.trace[-1]) / (1.0 + abs(optimum)))
    print(f"reports {sum(statuses.values())}")
    for status, count in sorted(statuses.items()):
        print(f"{status} {count}")
    for family in iterations:
        for status in sorted(statuses):
            print(f"status {family} {status} "
                  f"{family_statuses[family, status]}")
    for family in iterations:
        for reason in TERMINATIONS:
            print(f"termination {family} {reason} "
                  f"{terminations[family, reason]}")
    print(f"check PASS {passed}")
    for (family, kind), count in sorted(failed.items()):
        print(f"check FAIL {family} {kind} {count}")
    for family, total in iterations.items():
        print(f"iterations {family} {total}")
    for family, total in evaluations.items():
        print(f"evaluations {family} {total}")
    for family, values in shortfalls.items():
        print(f"bound {family} {statistics.median(values):.3g} "
              f"{max(values):.3g}")
    files = b"".join(problem for _, _, problem, _ in problems)
    print(f"problems {len(files)} {hashlib.sha256(files).hexdigest()}")
    lifted = b"".join(emit_lifted(lift(p)) for _, p, _, _ in problems)
    print(f"lift {len(lifted)} {hashlib.sha256(lifted).hexdigest()}")
    print(f"bytes {size}")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
