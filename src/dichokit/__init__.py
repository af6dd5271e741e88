"""dichokit: numerics for nonuniform dichotomies of nonautonomous systems.

The toolkit computes evolution operators of x' = A(t) x, verifies
generalized dichotomy bounds driven by four growth rates on pair grids and
estimates their constants, constructs the quadratic Lyapunov functions of a
dichotomy, and computes generalized Lyapunov spectra with the dichotomy
they imply.
"""

__version__ = "0.1.0"

from .growth import GrowthRate, RateQuadruple, builtin, product_rate, validate
from .system import (
    BlockSystem,
    CoefficientField,
    Example22Params,
    adjoint,
    constant_field,
    make_example22,
)
from .evolution import EvolutionOperator
from .dichotomy import (
    Certificate,
    DichotomySpec,
    check_projection,
    estimate_constants,
    square_grid,
    verify,
)
from .lyapfun import QuadraticLyapunov, classify, construct_S, derivative_condition

# the function spectrum stays dichokit.spectrum.spectrum: importing it here
# would rebind the name of its module; regularity is an alias of it
from .spectrum import dichotomy_from_spectrum, lyapunov_exponent, regularity

__all__ = [
    "GrowthRate",
    "RateQuadruple",
    "builtin",
    "product_rate",
    "validate",
    "BlockSystem",
    "CoefficientField",
    "Example22Params",
    "adjoint",
    "constant_field",
    "make_example22",
    "EvolutionOperator",
    "Certificate",
    "DichotomySpec",
    "check_projection",
    "estimate_constants",
    "square_grid",
    "verify",
    "QuadraticLyapunov",
    "classify",
    "construct_S",
    "derivative_condition",
    "dichotomy_from_spectrum",
    "lyapunov_exponent",
    "regularity",
    "__version__",
]
