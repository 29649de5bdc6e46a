"""Certified global minimization of quadratics over discrete value sets.

The problem is: minimize 0.5 x'Qx - c'x subject to Ax <= b with each
x[i] drawn from a finite set U[i].  The solver lifts this to a 0-1
quadratic program over one-hot selector blocks, maximizes a concave
dual function with the one-hot multipliers tau eliminated over the cone
{sigma >= 0, mu >= mu_min, Q + diag(1/V) PD} (one n-by-n Cholesky per
evaluation, see ``dvs.dual``), and turns a critical point in that cone
into a machine-checked global-optimality certificate (cone membership +
KKT residuals + duality gap).

The package exports only the quick-start entry points below; everything
else is imported from its module (``dvs.model``, ``dvs.lift``,
``dvs.dual``, ``dvs.solver``, ``dvs.oracle``, ``dvs.generator``,
``dvs.toy``, ``dvs.serialize``, ``dvs.errors``, ``dvs.cli``).
"""

__version__ = "0.1.0"

from .generator import GenSpec, generate
from .solver import SolverConfig, solve

__all__ = ["__version__", "GenSpec", "generate", "SolverConfig", "solve"]
