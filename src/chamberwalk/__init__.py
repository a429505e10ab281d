"""Special functions of complex classical Lie groups and Monte-Carlo
verification of hypergroup convolution identities and strong laws for
singular spectra of biinvariant random matrix products."""

__version__ = "0.1.0"

from .roots import (
    RootSystem,
    RootSystemError,
    WeylElement,
    build_root_system,
    chamber_project,
    enumerate_weyl,
    in_chamber,
)
from .special import (
    SphericalRows,
    SphericalValue,
    m1_closed,
    m1_closed_rows,
    m1_expectation,
    semicharacter,
    spherical_phi,
    spherical_phi_rows,
    spherical_psi,
    spherical_psi_rows,
)
from .kernels import (
    hermitian_spectrum,
    log_singular_spectrum,
    sample_biinvariant,
)
from .convolve import (
    CheckResult,
    EmpiricalMeasure,
    SupportReport,
    conv_group_cloud,
    conv_hermitian_cloud,
    deformation_check,
    support_equivalence,
)
from .walk import (
    ProductAccumulator,
    WalkConfig,
    WalkReport,
    euclidean_walk_crosscheck,
    run_group_walk,
    substream,
)

__all__ = [
    "__version__",
    "RootSystem", "RootSystemError", "WeylElement", "build_root_system",
    "chamber_project", "enumerate_weyl", "in_chamber",
    "SphericalRows", "SphericalValue", "m1_closed", "m1_closed_rows",
    "m1_expectation", "semicharacter", "spherical_phi", "spherical_phi_rows",
    "spherical_psi", "spherical_psi_rows",
    "hermitian_spectrum", "log_singular_spectrum", "sample_biinvariant",
    "CheckResult", "EmpiricalMeasure", "SupportReport", "conv_group_cloud",
    "conv_hermitian_cloud", "deformation_check", "support_equivalence",
    "ProductAccumulator", "WalkConfig", "WalkReport",
    "euclidean_walk_crosscheck", "run_group_walk", "substream",
]
