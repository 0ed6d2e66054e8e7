"""dancewalk: exact analysis of random walks on finitely generated abelian groups.

The package computes, in exact integer/rational arithmetic, the objects
controlling the large-time behaviour of a finite-range random walk on
Z_{m1} x ... x Z_{mt} x Z^k: the walk subgroup and the coset "dance" it
forces, the unit-modulus locus of the characteristic function, spectral
gaps, total-variation bounds, and the Gaussian-times-dance local-limit
attractor, together with an irreducibility/period classifier.
"""

# Each public name, by the module it is read from.  A name is imported on
# first access (PEP 562), so ``import dancewalk`` and ``import dancewalk.cli``
# compile none of these modules; each is loaded when a name of it is read.
_EXPORTS = {
    "intlinalg": (
        "AffinePointSet", "IntMatrix", "InvariantViolationError", "TwistResult",
        "UnimodularMatrix", "affine_dim", "twist_to_coordinates",
    ),
    "group": (
        "DualPoint", "Element", "GroupSpec", "Homomorphism", "Subgroup",
        "UnsupportedOperationError", "group_from_presentation", "subgroup_generated",
        "whole_group",
    ),
    "measure": (
        "Distribution", "WalkPath", "convolution_power", "convolve", "pushforward",
        "sample_path", "torsion_pushforward",
    ),
    "dance": (
        "DanceData", "SpectralGap", "analyze_dance", "dance_of", "spectral_gap",
        "theta_by_integration",
    ),
    "llt": (
        "Attractor", "Classification", "LltReport", "MomentData", "build_attractor",
        "classify", "llt_sup_error", "mean_cov", "time_average_error", "tv_to_uniform_coset",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads find it without this call
    return value


def __dir__():
    return sorted({*globals(), *__all__})
