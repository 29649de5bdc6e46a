"""Certified global minimization of quadratics over discrete value sets.

The problem is: minimize 0.5 x'Qx - c'x subject to Ax <= b with each
x[i] drawn from a finite set U[i].  The solver lifts this to a 0-1
quadratic program over one-hot selector blocks, maximizes a concave
dual function over the cone {sigma >= 0, mu > 0, G(mu) PD}, and turns a
critical point in that cone into a machine-checked global-optimality
certificate (cone membership + KKT residuals + duality gap).  A
brute-force enumeration oracle, a reproducible random-instance
generator, and a 1-D double-well demonstration round out the package.
"""

__version__ = "0.1.0"

from .dual import (
    MU_MIN,
    GFactorization,
    dual_gradient,
    dual_value,
    f_vector,
    factorize_g,
    in_dual_cone,
    recover_y,
)
from .errors import (
    BlockViolation,
    DegenerateF,
    DimensionError,
    DvsError,
    Infeasible,
    SchemaError,
    TooLarge,
    ValueNotInSet,
)
from .generator import GenSpec, XorShift64Star, generate, scaling_suite
from .lift import encode_y, lift, recover_x
from .model import (
    CERTIFIED_GLOBAL,
    KKT_ONLY,
    NO_CERTIFICATE,
    ORACLE_FALLBACK,
    BinaryQP,
    Certificate,
    DiscreteQP,
    DualPoint,
    SolveReport,
    binary_objective,
    is_feasible,
    objective,
)
from .oracle import enumerate_binary, enumerate_discrete
from .serialize import (
    check,
    emit_lifted,
    emit_problem,
    emit_report,
    parse_problem,
    parse_report,
)
from .solver import (
    AscentTrace,
    SolverConfig,
    initial_point,
    maximize_dual,
    round_binary,
    solve,
    verify_kkt,
)
from .toy import ToyInstance, toy_curves, toy_dual_roots, toy_solve

__all__ = [
    "__version__",
    # problem model
    "DiscreteQP", "BinaryQP", "DualPoint", "Certificate", "SolveReport",
    "objective", "is_feasible", "binary_objective",
    "CERTIFIED_GLOBAL", "KKT_ONLY", "NO_CERTIFICATE", "ORACLE_FALLBACK",
    # lifting
    "lift", "recover_x", "encode_y",
    # dual algebra
    "GFactorization", "f_vector", "factorize_g", "recover_y", "dual_value",
    "dual_gradient", "in_dual_cone", "MU_MIN",
    # solver
    "SolverConfig", "AscentTrace", "initial_point", "maximize_dual",
    "round_binary", "verify_kkt", "solve",
    # oracle
    "enumerate_discrete", "enumerate_binary",
    # instance generation
    "XorShift64Star", "GenSpec", "generate", "scaling_suite",
    # toy demonstration
    "ToyInstance", "toy_dual_roots", "toy_solve", "toy_curves",
    # serialization
    "parse_problem", "parse_report", "emit_problem", "emit_lifted",
    "emit_report", "check",
    # errors
    "DvsError", "DimensionError", "SchemaError", "BlockViolation",
    "ValueNotInSet", "TooLarge", "Infeasible", "DegenerateF",
]
