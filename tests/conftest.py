"""Shared fixtures: the two shipped reference instances and their knowns,
and the itertools references the exhaustive oracle and the lift are
checked against."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from dvs.errors import Infeasible
from dvs.generator import GenSpec, generate
from dvs.model import VALUE_MEMBERSHIP_TOL
from dvs.oracle import enumerate_discrete
from dvs.serialize import parse_problem

FIXTURES = Path(__file__).parent / "fixtures"

# Reference answers for the shipped instances.  Printed data in the source
# material is rounded to two decimals, hence the loose value tolerances.
EX1_X = np.array([5.0, 2.0, 5.0, 2.0, 2.0])
EX1_VALUE = -227.87
EX2_X = np.ones(10)
EX2_VALUE = 45.54
VALUE_TOL = 0.5
SWEEP_VALUE_SETS = ((0.0, 1.0), (1.0, 2.0, 3.0), (-1.0, 0.0, 2.0), (2.0, 5.0))


def reference_discrete(p):
    """First strict minimum of an itertools.product walk over the value
    sets, one selection at a time: (x, value, feasible, total)."""
    best_x, best_value, feasible, total = None, math.inf, 0, 0
    for selection in itertools.product(*p.U):
        total += 1
        x = np.array(selection)
        if np.all(p.A @ x <= p.b + VALUE_MEMBERSHIP_TOL):
            feasible += 1
            value = 0.5 * x @ p.Q @ x - p.c @ x
            if value < best_value:
                best_x, best_value = x, value
    return best_x, best_value, feasible, total


def reference_binary(q, p):
    """The same walk over one-hot y, blocks laid out from ``p.U`` and each
    y scored by the lifted ``q``'s B, h and D: (y, value)."""
    ends = list(itertools.accumulate(len(ui) for ui in p.U))
    blocks = [range(e - len(ui), e) for e, ui in zip(ends, p.U)]
    best_y, best_value = None, math.inf
    for selection in itertools.product(*blocks):
        y = np.zeros(ends[-1])
        y[list(selection)] = 1.0
        if np.all(q.D @ y <= q.b + VALUE_MEMBERSHIP_TOL):
            value = 0.5 * y @ q.B @ y - q.h @ y
            if value < best_value:
                best_y, best_value = y, value
    return best_y, best_value


@pytest.fixture(scope="session")
def example1():
    return parse_problem((FIXTURES / "example1.json").read_bytes())


@pytest.fixture(scope="session")
def example2():
    return parse_problem((FIXTURES / "example2.json").read_bytes())


@pytest.fixture(scope="session")
def example1_path():
    return FIXTURES / "example1.json"


@pytest.fixture(scope="session")
def example2_path():
    return FIXTURES / "example2.json"


@pytest.fixture(scope="session")
def sweep_instances():
    """Criterion 4's 200 small instances (n <= 4, |U_i| <= 3, K <= 12) with
    their oracle answers."""
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
