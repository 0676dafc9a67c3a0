"""Arnoldi approximation of matrix square-root actions with certified
a posteriori and a priori error bounds, plus the desk-scale experiment
harness that exercises them."""

from . import arnoldi, bounds, errors, experiments, linalg, matgen
from .arnoldi import (
    AdaptiveResult,
    ArnoldiDecomposition,
    BoundAbsolute,
    ResidualRelative,
    arnoldi_extend,
    arnoldi_fun_action,
    arnoldi_start,
    fom_residual_norm,
    run_adaptive,
)
from .bounds import (
    BoundReport,
    QuadratureConfig,
    bound_apriori_invsqrt,
    bound_apriori_sqrt,
    bound_hermitian_invsqrt,
    bound_hermitian_jensen,
    bound_hermitian_loose,
    bound_perturbed,
    bound_posterior_modulus,
    bound_posterior_ritz,
    lambda_bar,
    quad_semi_infinite,
    scaling_term,
)
from .linalg import (
    DenseMatrix,
    RitzSpectrum,
    TridiagonalMatrix,
    dense_sqrt,
    hessenberg_eigenvalues,
    lu_solve,
    min_symmetric_eig,
    reference_invsqrt_action,
    reference_sqrt_action,
    sigma_max,
    sigma_min,
)
from .matgen import (
    SpectrumSpec,
    convection_diffusion,
    perturb_matrix,
    rhs_vector,
    skew_part,
    spectrum_matrix,
)

__version__ = "0.1.0"
