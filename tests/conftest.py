"""Shared fixtures: the two shipped reference instances and their knowns,
the instance families of families.py with their oracle answers, and the
itertools references the exhaustive oracle and the lift are checked
against."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from dvs.model import VALUE_MEMBERSHIP_TOL
from dvs.serialize import parse_problem

import families

FIXTURES = Path(__file__).parent / "fixtures"

# Reference answers for the shipped instances.  Printed data in the source
# material is rounded to two decimals, hence the loose value tolerances.
EX1_X = np.array([5.0, 2.0, 5.0, 2.0, 2.0])
EX1_VALUE = -227.87
EX2_X = np.ones(10)
EX2_VALUE = 45.54
VALUE_TOL = 0.5


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
    """Criterion 4's 200 instances with their oracle answers."""
    return families.criterion4_instances()


@pytest.fixture(scope="session")
def indefinite_instances():
    """The indefinite family's 120 instances with their oracle answers."""
    return families.indefinite_instances()
