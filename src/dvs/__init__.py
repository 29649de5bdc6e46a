"""Certified global minimization of quadratics over discrete value sets.

The problem is: minimize 0.5 x'Qx - c'x subject to Ax <= b with each
x[i] drawn from a finite set U[i].  The solver maximizes the concave
dual of its 0-1 lifting over one-hot selector blocks, with the one-hot
multipliers tau eliminated, over the cone {sigma >= 0, mu >= 1e-8,
Q + diag(1/V) PD} (one n-by-n Cholesky per evaluation and no lifted
array, see ``dvs.dual``), and certifies a candidate x with three
entries: a status, x's largest violation of Ax <= b and the duality gap,
infinite off the cone.  x is CertifiedGlobal when it satisfies Ax <= b
within 1e-9 and the gap is at most 1e-6 (1 + |objective|): by weak duality
the dual value on the cone is at most objective(z) + sigma'(Az - b) <=
objective(z) for every feasible selection z, so none lies below it.

The package exports only the quick-start entry points below; everything
else is imported from its module (``dvs.model``, ``dvs.dual``,
``dvs.solver``, ``dvs.oracle``, ``dvs.generator``, ``dvs.toy``,
``dvs.serialize``, ``dvs.errors``, ``dvs.cli``; ``lift`` is in
``dvs.model``).
"""

__version__ = "0.1.0"

from .generator import GenSpec, generate
from .solver import solve

__all__ = ["__version__", "GenSpec", "generate", "solve"]
