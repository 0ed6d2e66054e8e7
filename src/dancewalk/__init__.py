"""dancewalk: exact analysis of random walks on finitely generated abelian groups.

The package computes, in exact integer/rational arithmetic, the objects
controlling the large-time behaviour of a finite-range random walk on
Z_{m1} x ... x Z_{mt} x Z^k: the walk subgroup and the coset "dance" it
forces, the unit-modulus locus of the characteristic function, spectral
gaps, total-variation bounds, and the Gaussian-times-dance local-limit
attractor, together with an irreducibility/period classifier.
"""

from .intlinalg import (
    AffinePointSet,
    HnfDecomposition,
    IntMatrix,
    InvariantViolationError,
    SnfDecomposition,
    TwistResult,
    UnimodularMatrix,
    affine_dim,
    hnf,
    snf,
    twist_to_coordinates,
)
from .group import (
    DualPoint,
    Element,
    GroupSpec,
    Homomorphism,
    Subgroup,
    UnsupportedOperationError,
    group_from_presentation,
    subgroup_generated,
    trivial_subgroup,
    whole_group,
)
from .measure import (
    Distribution,
    WalkPath,
    convolution_power,
    convolve,
    pushforward,
    sample_path,
    torsion_pushforward,
)
from .dance import (
    DanceData,
    SpectralGap,
    analyze_dance,
    dance_of,
    period_if_irreducible,
    spectral_gap,
    theta_by_integration,
)
from .llt import (
    Attractor,
    Classification,
    LltReport,
    MomentData,
    build_attractor,
    classify,
    llt_sup_error,
    mean_cov,
    time_average_error,
    tv_to_uniform_coset,
)

__version__ = "0.1.0"
