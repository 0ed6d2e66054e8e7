import importlib
import inspect
import pkgutil
import types

import dancewalk

PUBLIC = {
    # intlinalg
    "AffinePointSet", "HnfDecomposition", "IntMatrix", "InvariantViolationError",
    "SnfDecomposition", "TwistResult", "UnimodularMatrix", "affine_dim",
    "bottom_row_unimodular", "hnf", "snf", "twist_to_coordinates",
    # group
    "DualPoint", "Element", "GroupSpec", "Homomorphism", "Subgroup",
    "UnsupportedOperationError", "group_from_presentation", "subgroup_generated",
    "trivial_subgroup", "whole_group",
    # measure
    "Distribution", "WalkPath", "convolution_power", "convolve", "pushforward",
    "sample_path", "torsion_pushforward",
    # dance
    "DanceData", "SpectralGap", "analyze_dance", "dance_of", "period_if_irreducible",
    "spectral_gap", "theta_by_integration",
    # llt
    "Attractor", "Classification", "LltReport", "MomentData", "build_attractor",
    "classify", "llt_sup_error", "mean_cov", "time_average_error", "tv_to_uniform_coset",
}

# (module, name) pairs that left the library; the float and Fraction
# references among them live in tests/reference.py
REMOVED = [
    ("dancewalk.llt", "gaussian_kernel"),
    ("dancewalk.llt", "attractor_eval"),
    ("dancewalk.llt", "evaluation_window"),
    ("dancewalk.dance", "char_fn"),
    ("dancewalk.dance", "omega_contains"),
    ("dancewalk.dance", "theta"),
    ("dancewalk.group", "character_eval"),
    ("dancewalk.intlinalg", "rational_inverse"),
    ("dancewalk.llt", "_classify_finite"),
]


def test_public_names_are_pinned():
    names = {n for n in dir(dancewalk)
             if not n.startswith("_") and not isinstance(getattr(dancewalk, n), types.ModuleType)}
    assert len(PUBLIC) == 46
    assert names == PUBLIC
    for name in PUBLIC:
        assert getattr(dancewalk, name) is not None


def test_removed_names_are_gone():
    for modname, name in REMOVED:
        assert not hasattr(importlib.import_module(modname), name), (modname, name)
    assert not hasattr(dancewalk.DualPoint, "value")
    assert not hasattr(dancewalk.Homomorphism, "compose")
    # no module of the package defines or re-exports a removed function
    removed = {name for _, name in REMOVED}
    for info in pkgutil.iter_modules(dancewalk.__path__):
        module = importlib.import_module(f"dancewalk.{info.name}")
        assert not removed & set(vars(module)), info.name


def test_group_from_presentation_takes_only_the_relations():
    assert len(inspect.signature(dancewalk.group_from_presentation).parameters) == 1
