import copy
import importlib
import json
import os
import pickle
import pkgutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import dancewalk
from dancewalk.scenarios import Check

SRC = str(Path(dancewalk.__file__).resolve().parent.parent)

# each public name by the module it is read from
HOMES = {
    "intlinalg": {"AffinePointSet", "IntMatrix", "InvariantViolationError", "TwistResult",
                  "UnimodularMatrix", "affine_dim", "twist_to_coordinates"},
    "group": {"DualPoint", "Element", "GroupSpec", "Homomorphism", "Subgroup",
              "UnsupportedOperationError", "subgroup_generated", "whole_group"},
    "measure": {"Distribution", "WalkPath", "convolution_power", "convolve", "pushforward",
                "sample_path", "torsion_pushforward"},
    "dance": {"DanceData", "SpectralGap", "analyze_dance", "dance_of", "spectral_gap",
              "theta_by_integration"},
    "llt": {"Attractor", "Classification", "LltReport", "MomentData", "build_attractor",
            "classify", "llt_sup_error", "mean_cov", "time_average_error", "tv_to_uniform_coset"},
}
PUBLIC = set().union(*HOMES.values())

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
    ("dancewalk.intlinalg", "bottom_row_unimodular"),
    ("dancewalk.intlinalg", "_complete"),
    ("dancewalk.intlinalg", "_primitive_orthogonal"),
    ("dancewalk.dance", "_characters"),
    ("dancewalk.intlinalg", "hnf"),
    ("dancewalk.intlinalg", "HnfDecomposition"),
    ("dancewalk.group", "trivial_subgroup"),
    ("dancewalk.intlinalg", "SnfDecomposition"),
    ("dancewalk.dance", "period_if_irreducible"),
    ("dancewalk.group", "group_from_presentation"),
    ("dancewalk.cli", "dump_spec"),
]

# (class, attribute) pairs of methods that left the library
REMOVED_METHODS = [
    ("DualPoint", "value"),
    ("Homomorphism", "compose"),
    ("Homomorphism", "identity"),
    ("GroupSpec", "is_trivial"),
    ("GroupSpec", "isomorphic_to"),
    ("Subgroup", "contains_coords"),
    ("DanceData", "theta_coords"),
    ("IntMatrix", "zeros"),
    ("IntMatrix", "__matmul__"),
    ("IntMatrix", "transpose"),
    ("Attractor", "case"),
    ("Attractor", "torsion_order"),
    ("DanceData", "coset_at"),
    ("DualPoint", "zero"),
    ("Element", "is_identity"),
    ("MomentData", "covariance_inverse"),
    ("IntMatrix", "inverse"),
    ("UnimodularMatrix", "inverse"),
    ("Attractor", "twist"),
]


def test_public_names_are_pinned():
    names = {n for n in dir(dancewalk)
             if not n.startswith("_") and not isinstance(getattr(dancewalk, n), types.ModuleType)}
    assert len(PUBLIC) == 38
    assert names == PUBLIC
    for name in PUBLIC:
        assert getattr(dancewalk, name) is not None


def test_each_public_name_is_its_modules_object():
    star = {}
    exec("from dancewalk import *", star)
    del star["__builtins__"]
    assert set(star) == set(dancewalk.__all__) == PUBLIC
    for modname, names in HOMES.items():
        module = importlib.import_module(f"dancewalk.{modname}")
        for name in names:
            assert getattr(dancewalk, name) is getattr(module, name) is star[name], name
    assert dancewalk.group.UnsupportedOperationError is dancewalk.UnsupportedOperationError
    assert dancewalk.intlinalg.InvariantViolationError is dancewalk.InvariantViolationError
    with pytest.raises(AttributeError):
        dancewalk.no_such_name


LAZY_CHECK = """
import json, sys
import dancewalk
at_import = sorted(m for m in sys.modules if m.startswith("dancewalk"))
dancewalk.affine_dim
print(json.dumps([at_import, sorted(m for m in sys.modules if m.startswith("dancewalk"))]))
"""


def test_import_dancewalk_loads_no_submodule():
    # a public name loads its module, and what that module imports, on first access
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", LAZY_CHECK],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    at_import, after_read = json.loads(proc.stdout)
    assert at_import == ["dancewalk"]
    assert after_read == ["dancewalk", "dancewalk._errors", "dancewalk._value",
                         "dancewalk.intlinalg"]


def test_removed_names_are_gone():
    for modname, name in REMOVED:
        assert not hasattr(importlib.import_module(modname), name), (modname, name)
    for cls, name in REMOVED_METHODS:
        assert not hasattr(getattr(dancewalk, cls), name), (cls, name)
    # no module of the package defines or re-exports a removed function
    removed = {name for _, name in REMOVED}
    for info in pkgutil.iter_modules(dancewalk.__path__):
        module = importlib.import_module(f"dancewalk.{info.name}")
        assert not removed & set(vars(module)), info.name


def _dance():
    z4z6 = dancewalk.GroupSpec([4, 6])
    walk = dancewalk.subgroup_generated(z4z6, [z4z6.element([2, 0])])
    dance = dancewalk.DanceData(walk, z4z6.identity())
    assert (dance.rank_d, dance.normalization_c, dance.omega_invariants) == (0, 12, ((2, 6), 0))
    return dance


def _value_cases():
    """(class, keyword fields, another value of the last field) for each former
    dataclass, the fields in their order and in normal form, so each instance
    holds exactly these values."""
    z4z = dancewalk.GroupSpec([4], 1)
    z4z6 = dancewalk.GroupSpec([4, 6])
    x = z4z.element([1], [2])
    unit = dancewalk.UnimodularMatrix(dancewalk.IntMatrix([[1, 1], [0, 1]]))
    moments = dancewalk.MomentData(1, (Fraction(1, 2),), ((Fraction(1, 4),),))
    hom = dancewalk.Homomorphism(z4z, dancewalk.GroupSpec((), 1), dancewalk.IntMatrix([[0, 1]]))
    dance = _dance()
    return [
        (dancewalk.AffinePointSet, dict(ambient_dim=2, points=((0, 1), (1, 0))), ((0, 0),)),
        (dancewalk.TwistResult, dict(phi=unit, w=(1,), d=1), 0),
        (dancewalk.GroupSpec, dict(torsion_moduli=(4, 6), free_rank=1), 2),
        (dancewalk.Element, dict(group=z4z, torsion=(3,), free=(-2,)), (5,)),
        (dancewalk.Homomorphism, dict(source=hom.source, target=hom.target, matrix=hom.matrix),
         dancewalk.IntMatrix([[0, -1]])),
        (dancewalk.DualPoint, dict(group=z4z, torsion_chars=(1,), torus_angles=(Fraction(1, 3),)),
         (Fraction(2, 3),)),
        (dancewalk.DanceData, dict(walk_subgroup=dance.walk_subgroup, base_point=dance.base_point),
         z4z6.element([1, 0])),
        (dancewalk.SpectralGap, dict(rho=0.5, achieved_at=dancewalk.DualPoint(z4z6, (2, 0))), None),
        (dancewalk.MomentData, dict(dim=1, mean=(Fraction(1, 2),), covariance=((Fraction(1, 4),),)),
         ((Fraction(1, 2),),)),
        (dancewalk.Attractor, dict(dance=dance, phi=hom, moments=moments), None),
        (dancewalk.LltReport, dict(n=3, sup_error=0.25, scaled_sup_error=0.5,
                                   sup_error_exact=Fraction(1, 4), tv_exact=Fraction(1, 8),
                                   tv_bound=0.2, worst_point=x), None),
        (dancewalk.Classification, dict(irreducible="yes", aperiodic="no", period=3,
                                        dance_cosets="three cosets", reason="why"), ""),
        (dancewalk.WalkPath, dict(positions=(z4z.identity(), x)), (x,)),
        (Check, dict(label="a check", passed=True, detail="all good"), ""),
    ]


def test_value_types_keep_the_dataclass_contract():
    cases = _value_cases()
    assert len(cases) == 14
    for cls, fields, other in cases:
        v = cls(**fields)
        assert all(getattr(v, name) == value for name, value in fields.items()), cls
        twin = cls(*fields.values())
        assert v == twin and hash(v) == hash(twin) and v is not twin, cls
        assert v != cls(**{**fields, list(fields)[-1]: other}), cls
        assert copy.copy(v) == v and pickle.loads(pickle.dumps(v)) == v, cls
        assert v != tuple(fields.values()), cls
        with pytest.raises(TypeError):
            iter(v)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(v, name, None)
            with pytest.raises(AttributeError):
                delattr(v, name)
        with pytest.raises(AttributeError):
            v.extra = 1  # slotted: no new attributes either
        if cls not in (dancewalk.GroupSpec, dancewalk.Element):
            shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
            assert repr(v) == f"{cls.__name__}({shown})"


def test_distribution_copies_pickles_and_stays_immutable():
    z4z6 = dancewalk.GroupSpec([4, 6])
    p = dancewalk.Distribution(z4z6, {z4z6.element([1, 1]): Fraction(1, 3),
                                      z4z6.element([0, 3]): Fraction(2, 3)})
    walk = dancewalk.dance_of(p).walk_subgroup
    assert copy.copy(p)._walk is walk  # the cached walk subgroup is kept
    for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert twin == p and hash(twin) == hash(p) and twin is not p
        assert twin.items() == p.items() and twin._walk == walk
    for name in ("group", "_den", "_nums", "_walk"):
        with pytest.raises(AttributeError):
            setattr(p, name, None)
        with pytest.raises(AttributeError):
            delattr(p, name)
    with pytest.raises(AttributeError):
        p.extra = 1
    assert (p.weight(z4z6.element([0, 3])) == Fraction(2, 3)
            and dancewalk.dance_of(p).walk_subgroup is walk)


def test_value_types_keep_their_defaults():
    a = dancewalk.Attractor(dance=_dance())
    assert (a.phi, a.moments) == (None, None)
    report = dancewalk.LltReport(n=3)
    assert report.n == 3
    assert all(getattr(report, name) is None for name in (
        "sup_error", "scaled_sup_error", "sup_error_exact", "tv_exact", "tv_bound",
        "worst_point"))
    c = dancewalk.Classification(irreducible="no", aperiodic="no", period=None, dance_cosets="d")
    assert c.reason == "" and c == dancewalk.Classification("no", "no", None, "d", reason="")
    assert Check("label", False).detail == ""
    trivial = dancewalk.GroupSpec()
    assert trivial == dancewalk.GroupSpec((), 0)
    assert dancewalk.Element(trivial) == dancewalk.Element(trivial, (), ())
    assert dancewalk.DualPoint(trivial) == dancewalk.DualPoint(trivial, (), ())


def test_group_values_are_keys_with_their_reprs():
    g, h = dancewalk.GroupSpec([4, 6], 1), dancewalk.GroupSpec((4, 6), 1)
    assert {g: "a"}[h] == "a" and len({g, h, dancewalk.GroupSpec([4, 6])}) == 2
    x, y = g.element([5, -1], [2]), g.element([1, 5], [2])
    assert {x: 1}[y] == 1 and len({x, y, g.identity()}) == 2
    assert repr(g) == "GroupSpec([4, 6], 1)"
    assert repr(x) == "Element((1, 5, 2))"
    assert repr(dancewalk.GroupSpec()) == "GroupSpec([], 0)"
    assert x != (g, (1, 5), (2,)) and g != ((4, 6), 1)


def test_value_equality_short_cuts_only_on_identity():
    # __eq__ answers True at once for the same object; copies still compare
    # field by field, and a value of another type never equals one
    for cls, fields, other in _value_cases():
        v, twin = cls(**fields), cls(**fields)
        assert v == v and not v != v, cls
        assert v == twin and hash(v) == hash(twin) and v is not twin, cls
        assert copy.deepcopy(v) == v and hash(copy.deepcopy(v)) == hash(v), cls
    z4z = dancewalk.GroupSpec([4], 1)
    x, xi = z4z.element([1], [0]), dancewalk.DualPoint(z4z, (1,), (0,))
    assert (x.group, x.torsion, x.free) == (xi.group, xi.torsion_chars, xi.torus_angles)
    assert x != xi and xi != x and not x == xi
    assert z4z.__eq__(x) is NotImplemented


def test_moment_data_determinant_and_inverse():
    m = dancewalk.MomentData(2, (Fraction(0), Fraction(1, 3)),
                             ((Fraction(1, 2), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 2))))
    assert m.covariance_det == Fraction(3, 16)
    # Gamma^(-1) = Q / det(L*Gamma), both kept from the one elimination
    inv = [[Fraction(e, m._det) for e in row] for row in m._q]
    assert inv == [[Fraction(8, 3), Fraction(-4, 3)], [Fraction(-4, 3), Fraction(8, 3)]]
    assert m.is_positive_definite()
    # the kept values take no part in equality
    assert m == dancewalk.MomentData(m.dim, m.mean, m.covariance)
    singular = dancewalk.MomentData(1, (Fraction(0),), ((Fraction(0),),))
    assert singular.covariance_det == 0 and singular._det == 0
    assert not singular.is_positive_definite()
