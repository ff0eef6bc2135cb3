"""Pseudo-spectral periodic-box simulator for the incompressible Maxwell
elastic-fluid model, with diagnostics that verify the electromagnetic laws
emerging from it."""

__version__ = "0.1.0"

from .fields import (  # noqa: F401
    FieldError,
    GridError,
    GridSpec,
    ScalarField,
    TensorField,
    VectorField,
    cross,
    dealias_field,
    dot,
    make_grid,
    mode_coefficient,
    norm_l2,
    norm_linf,
    spectral_norm_l2,
)
from .diffops import (  # noqa: F401
    ProjectionResult,
    advect_scalar,
    curl,
    curl_curl,
    div,
    divergence_tensor,
    double_advection,
    grad,
    grad_vector,
    gromeka_lamb_residual,
    hessian_contract,
    identity_residual_triple,
    laplacian,
    leray_project,
    vector_advection,
)
