"""fracell: fractional powers of divergence-form elliptic operators on boxes.

Three independent routes to L^s (spectral, semigroup quadrature, extension
problem) with cross-validation, kernel-estimate probes, half-line closed-form
oracles and Holder/boundary regularity exponent fits.
"""

__version__ = "0.1.0"

from .grids import (
    Grid,
    GridFunction,
    BoundaryCondition,
    DIRICHLET,
    NEUMANN,
    CoefficientField,
    l2_inner,
    l2_norm,
)
from .operators import DiscreteOperator, assemble
from .spectral import (
    EigenBasis,
    eigendecompose,
    fractional_apply,
    fractional_solve,
    fractional_solve_sine,
    hs_energy_norm,
    scaling_check,
)
from .semigroup import (
    SingularQuadrature,
    balakrishnan_apply,
    heat_apply,
    jump_kernel,
    killing_term,
    nonlocal_bilinear_form,
    greens_function,
    poisson_kernel,
)
from .extension import (
    ExtensionMesh,
    ExtensionField,
    ForcingData,
    solve_extension,
    solve_extension_forced,
    dtn_extract,
    extension_multipliers,
    extension_energy,
    extension_series_eval,
    bessel_k,
)

__all__ = [
    "Grid",
    "GridFunction",
    "BoundaryCondition",
    "DIRICHLET",
    "NEUMANN",
    "CoefficientField",
    "l2_inner",
    "l2_norm",
    "DiscreteOperator",
    "assemble",
    "EigenBasis",
    "eigendecompose",
    "fractional_apply",
    "fractional_solve",
    "fractional_solve_sine",
    "hs_energy_norm",
    "scaling_check",
    "SingularQuadrature",
    "balakrishnan_apply",
    "heat_apply",
    "jump_kernel",
    "killing_term",
    "nonlocal_bilinear_form",
    "greens_function",
    "poisson_kernel",
    "ExtensionMesh",
    "ExtensionField",
    "ForcingData",
    "solve_extension",
    "solve_extension_forced",
    "dtn_extract",
    "extension_multipliers",
    "extension_energy",
    "extension_series_eval",
    "bessel_k",
    "__version__",
]
