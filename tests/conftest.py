"""Shared fixtures: the two shipped reference instances and their knowns."""

from pathlib import Path

import numpy as np
import pytest

from dvs.errors import Infeasible
from dvs.generator import GenSpec, generate
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
