"""specnorm: normality testing for dense complex matrices.

Decides whether a square complex matrix is normal by testing the equality
sigma_n(zI - A) = dist(z, Lambda(A)) at one probe point per distinct
eigenvalue, and certifies a Normal verdict with an orthonormal eigenbasis.
"""

from .certifier import (
    CertifyConfig,
    NormalityCertificate,
    certify,
    commutator_normality_oracle,
)
from .errors import (
    ConvergenceError,
    DependenceError,
    DimensionError,
    IndeterminateError,
    NonFiniteError,
    SpecnormError,
)
from .generators import generate_matrix
from .kernels import (
    gram_schmidt_orthonormalize,
    householder_qr,
    rank_with_tol,
    schur,
    svd,
)
from .scan import check_corollary, scan_grid
from .spectral import (
    Spectrum,
    cluster_spectrum,
    dist_to_spectrum,
    gap,
    shifted_smallest_singular,
    spectrum_of,
    weyl_bounds_check,
)

__version__ = "0.1.0"

__all__ = [
    "CertifyConfig",
    "ConvergenceError",
    "DependenceError",
    "DimensionError",
    "IndeterminateError",
    "NonFiniteError",
    "NormalityCertificate",
    "SpecnormError",
    "Spectrum",
    "certify",
    "check_corollary",
    "cluster_spectrum",
    "commutator_normality_oracle",
    "dist_to_spectrum",
    "gap",
    "generate_matrix",
    "gram_schmidt_orthonormalize",
    "householder_qr",
    "rank_with_tol",
    "scan_grid",
    "schur",
    "shifted_smallest_singular",
    "spectrum_of",
    "svd",
    "weyl_bounds_check",
]
