"""The fixed instance families of the tests and of tools/report_digest.py,
each defined once.  Outside pytest, put ``tests`` on the import path."""

import numpy as np

from dvs.generator import GenSpec, generate
from dvs.model import DiscreteQP
from dvs.oracle import enumerate_discrete

SWEEP_VALUE_SETS = ((0.0, 1.0), (1.0, 2.0, 3.0), (-1.0, 0.0, 2.0), (2.0, 5.0))


def criterion4_spec(k, base_seed=1000):
    """Criterion 4's k-th spec (n <= 4, |U_i| <= 3, K <= 12), seeded
    ``base_seed + k``: 1000 + k for criterion 4 itself."""
    return GenSpec(n=2 + k % 3, m=1 + k % 2, seed=base_seed + k,
                   value_set=SWEEP_VALUE_SETS[k % 4])


def indefinite_spec(k):
    """The k-th spec of the indefinite family: n = 8 over {0, 1}, with
    signed coefficients and no dominance boost, so Q is often indefinite."""
    return GenSpec(8, 2, 7000 + k, (0.0, 1.0), coeff_range=(-1.0, 1.0),
                   dominance_boost=False)


def suite_spec(n, i=0):
    """The i-th instance of the generator suite at size n."""
    return GenSpec(n, 5, 4242 + n + i)


def interior_spec(n, i=0):
    """The i-th spec of the interior family at size n: values -2..2 and
    signed coefficients, seeded 9900 + i."""
    return GenSpec(n, 5, 9900 + i, (-2.0, -1.0, 0.0, 1.0, 2.0),
                   coeff_range=(-1.0, 1.0))


def signed_spec(n, i=0):
    """The i-th spec of the signed family at size n: values 1..5 and
    signed coefficients, seeded 9800 + i."""
    return GenSpec(n, 5, 9800 + i, coeff_range=(-1.0, 1.0))


def planted(n, i=0, slack=1.0):
    """(problem, x*) of the planted family: the suite's i-th instance at
    size n with c = Q x* and b = A x* + slack.  Q is positive definite, so
    x* is the continuous minimizer and, being feasible, the one discrete
    minimizer.  x*_j is value (3 j + i) mod |U_j| of its set, a rule
    with no random draw, so every value of a set appears."""
    g = generate(suite_spec(n, i))
    x = np.array([u[(3 * j + i) % len(u)] for j, u in enumerate(g.U)])
    return DiscreteQP(Q=g.Q, c=g.Q @ x, A=g.A, b=g.A @ x + slack, U=g.U), x


def _with_optimum(specs):
    """(problem, oracle x, oracle value) for each spec."""
    return [(p, *enumerate_discrete(p)[:2]) for p in map(generate, specs)]


def criterion4_instances():
    """Criterion 4's instances, k = 1..200.  The generator's A >= 0 and
    midpoint b make the lower corner feasible, so every k is kept."""
    return _with_optimum(criterion4_spec(k) for k in range(1, 201))


def indefinite_instances():
    """The indefinite family's instances, k = 0..119."""
    return _with_optimum(indefinite_spec(k) for k in range(120))
