import gc
import itertools
import random
import tracemalloc
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, seed, settings, strategies as st

import dancewalk.group
from dancewalk.group import (
    DualPoint,
    Element,
    GroupSpec,
    Homomorphism,
    Subgroup,
    UnsupportedOperationError,
    subgroup_generated,
    whole_group,
)
from dancewalk.intlinalg import IntMatrix
from reference import closure, hermite_contains

Z12 = GroupSpec([12])
Z9 = GroupSpec([9])
Z2 = GroupSpec((), 2)
Z4Z = GroupSpec([4], 1)
Z4Z6 = GroupSpec([4, 6])


def test_element_arithmetic():
    a = Z12.element([-1])
    assert a.torsion == (11,)
    assert (a + a).torsion == (10,)
    x = Z4Z.element([1], [0])
    y = Z4Z.element([3], [5])
    assert (x + y) == Z4Z.element([0], [5])
    v = Z2.element((), [1, -1])
    assert (3 * v).free == (3, -3)
    assert (-v).free == (-1, 1)
    with pytest.raises(ValueError):
        Z12.element([0]) + Z9.element([0])


def test_element_ordering_and_reduction():
    a = Z12.element([5])
    b = Z12.element([17])
    assert a == b
    assert Z12.element([2]) < Z12.element([3])
    assert a <= b and Z12.element([2]) <= Z12.element([3]) and not a <= Z12.element([3])
    assert sorted([Z4Z.element([1], [0]), Z4Z.element([0], [7])])[0] == Z4Z.element([0], [7])


def test_group_spec_invariants():
    assert Z4Z6.invariant_factors == (2, 12)
    assert GroupSpec([2, 12]).invariant_factors == Z4Z6.invariant_factors
    assert GroupSpec([24]).invariant_factors == (24,) != Z4Z6.invariant_factors
    assert GroupSpec([6]).invariant_factors == (6,)
    assert GroupSpec([2, 3, 6]).invariant_factors == (6, 6)
    assert GroupSpec([2, 3]).invariant_factors == (6,)
    assert Z2.invariant_factors == ()
    assert Z4Z6.order == 24
    assert Z4Z.order is None
    with pytest.raises(ValueError):
        GroupSpec([1, 4])


def test_group_spec_rejects_non_integers():
    with pytest.raises(TypeError):
        GroupSpec([4.7], 1)
    with pytest.raises(TypeError):
        GroupSpec([4], 1.9)
    with pytest.raises(TypeError):
        GroupSpec([Fraction(8, 2)])
    assert GroupSpec([True + 3], True) == GroupSpec([4], 1)  # integer types are accepted


def test_element_rejects_non_integers():
    with pytest.raises(TypeError):
        Z4Z.element([5.5], [2])
    with pytest.raises(TypeError):
        Z4Z.element([5], [2.9])
    with pytest.raises(TypeError):
        Z4Z.element_from_coords((1, 2.0))
    assert Z4Z.element([5], [2]).coords() == (1, 2)


def test_dual_point_rejects_non_integer_characters():
    with pytest.raises(TypeError):
        DualPoint(Z12, [1.5])
    assert DualPoint(Z12, [13]).torsion_chars == (1,)
    assert DualPoint(Z4Z, [1], [Fraction(5, 4)]).torus_angles == (Fraction(1, 4),)


def _presented(relations):
    """Z^m modulo the row span of relations: the canonical quotient and its projection."""
    return Subgroup(GroupSpec((), relations.cols), relations.data).quotient_map()


def test_group_from_presentation():
    spec, proj = _presented(IntMatrix.diag([2, 3]))
    assert spec.torsion_moduli == (6,) and spec.free_rank == 0
    spec2, proj2 = _presented(IntMatrix([], cols=2))
    assert spec2 == GroupSpec((), 2)
    spec3, proj3 = _presented(IntMatrix([[2, 0]]))
    assert spec3.torsion_moduli == (2,) and spec3.free_rank == 1
    # projection is surjective onto the canonical form and kills relations
    assert proj3(Z2.element((), [2, 0])) == spec3.identity()
    assert proj3(Z2.element((), [1, 0])) != spec3.identity()


def test_group_from_presentation_projection_is_onto():
    rng = random.Random(5)
    for _ in range(100):
        m = rng.randrange(1, 4)
        rows = rng.randrange(0, 4)
        rel = IntMatrix([[rng.randrange(-6, 7) for _ in range(m)] for _ in range(rows)], cols=m)
        spec, proj = _presented(rel)
        src = GroupSpec((), m)
        for row in rel.data:
            assert proj(src.element((), row)) == spec.identity()
        if spec.is_finite and spec.order <= 64:
            image = {proj(src.element((), v)) for v in
                     itertools.product(range(-8, 9), repeat=m)}
            assert len(image) == spec.order


def test_subgroup_generated_examples():
    h = subgroup_generated(Z12, [Z12.element([3])])
    assert sorted(e.torsion[0] for e in h.elements()) == [0, 3, 6, 9]
    assert h.index() == 3
    assert h.order() == 4

    diag = subgroup_generated(Z2, [Z2.element((), [1, -1])])
    assert diag.rank() == 1
    assert diag.contains(Z2.element((), [2, -2]))
    assert not diag.contains(Z2.element((), [1, 0]))
    assert not diag.contains(Z2.element((), [1, 1]))
    assert diag.index() is None

    triv = subgroup_generated(Z4Z6, [])
    assert triv.order() == 1
    assert triv.contains(Z4Z6.identity())
    assert triv.quotient_invariants() == ((2, 12), 0)


def test_subgroup_canonical_representation():
    gens = [Z4Z6.element([1, 4]), Z4Z6.element([2, 2])]
    h1 = subgroup_generated(Z4Z6, gens)
    h2 = subgroup_generated(Z4Z6, list(reversed(gens)) + gens)
    assert h1 == h2
    assert hash(h1) == hash(h2)


def test_subgroup_contains_examples():
    assert subgroup_generated(Z12, [Z12.element([3])]).contains(Z12.element([9]))
    h = subgroup_generated(Z4Z, [Z4Z.element([2], [0])])
    assert h.contains(Z4Z.element([0], [0]))
    assert not h.contains(Z4Z.element([1], [0]))


def test_subgroup_index_and_rank():
    assert whole_group(Z12).index() == 1
    assert subgroup_generated(Z2, [Z2.element((), [1, -1])]).rank() == 1
    assert subgroup_generated(Z12, [Z12.element([3])]).rank() == 0
    elevator = subgroup_generated(Z4Z, [Z4Z.element([1], [1]), Z4Z.element([-1], [1])])
    assert elevator.rank() == 1
    assert elevator.index() == 2


def test_quotient_invariants():
    assert subgroup_generated(Z2, [Z2.element((), [1, -1])]).quotient_invariants() == ((), 1)
    h = subgroup_generated(Z4Z, [Z4Z.element([2], [0])])
    assert h.quotient_invariants() == ((2,), 1)
    assert whole_group(Z4Z6).quotient_invariants() == ((), 0)
    assert Subgroup(Z12, []).quotient_invariants() == ((12,), 0)


def test_quotient_map_well_defined():
    h = subgroup_generated(Z4Z, [Z4Z.element([1], [1]), Z4Z.element([-1], [1])])
    spec, proj = h.quotient_map()
    assert spec.torsion_moduli == (2,) and spec.free_rank == 0
    for x in [Z4Z.element([1], [1]), Z4Z.element([3], [1]), Z4Z.element([0], [2])]:
        assert proj(x) == spec.identity()
    assert proj(Z4Z.element([1], [0])) != spec.identity()


def test_coset_order():
    h = subgroup_generated(Z12, [Z12.element([3])])
    assert h.coset_order(Z12.element([1])) == 3
    assert h.coset_order(Z12.element([3])) == 1
    diag = subgroup_generated(Z2, [Z2.element((), [1, -1])])
    assert diag.coset_order(Z2.element((), [1, 0])) is None
    evens = subgroup_generated(GroupSpec((), 1), [GroupSpec((), 1).element((), [2])])
    assert evens.coset_order(GroupSpec((), 1).element((), [1])) == 2
    with pytest.raises(ValueError):
        h.coset_order(Z9.element([1]))
    # non-cyclic quotients: the order is the lcm over the quotient's axes, not the largest
    rng = random.Random(1729)
    for moduli in ([2, 6], [4, 6], [6, 6], [2, 2, 6], [3, 9], [2, 3, 4]):
        g = GroupSpec(moduli)
        for _ in range(20):
            h = subgroup_generated(g, [g.element([rng.randrange(m) for m in moduli])
                                       for _ in range(rng.randrange(0, 3))])
            for x in g.elements():
                assert h.coset_order(x) == next(r for r in itertools.count(1)
                                                if h.contains(r * x))


@st.composite
def membership_cases(draw):
    """A subgroup of a mixed group, coordinate vectors with unreduced
    residues (members, their neighbours and others), and shifts n*x0."""
    moduli = draw(st.lists(st.integers(2, 12), max_size=3))
    k = draw(st.integers(0, 2))
    free_part = draw(st.booleans())

    def vector(free=True):
        return draw(st.tuples(*(st.integers(-3 * m, 3 * m) for m in moduli),
                              *(st.integers(-6, 6) if free else st.just(0) for _ in range(k))))

    gens = [vector(free_part) for _ in range(draw(st.integers(0, 3)))]
    members = [[sum(draw(st.integers(-4, 4)) * g[i] for g in gens) for i in range(len(moduli) + k)]
               for _ in range(3)]
    probes = members + [[c + draw(st.integers(-1, 1)) for c in v] for v in members]
    probes += [vector() for _ in range(3)]
    return Subgroup(GroupSpec(moduli, k), gens), probes, vector(), draw(st.integers(-5, 5))


@seed(0xcd3f641c821b5b31266b923fc9d985d3ab7c8836827b516320d77325575918d68a4246e0d66d288cc4440866dbd50ef3)
@settings(max_examples=300, derandomize=True, deadline=None)
@given(membership_cases())
def test_membership_matches_hermite_reduction(case):
    # a zero image in the quotient, and theta's comparison of x and n*x0 in G/W,
    # against the Hermite reduction, on unreduced residues; torsion-only vectors
    # too when the subgroup is finite, as the window passes them
    h, probes, x0, n = case
    t, shift = len(h.parent.torsion_moduli), [n * c for c in x0]
    for v in probes:
        member = hermite_contains(h, v)
        assert (not any(h._image(v))) == member
        assert (h._image([a + b for a, b in zip(v, shift)]) == h._image(shift)) == member
        if h.rank() == 0:
            assert (not any(h._image(v[:t]))) == hermite_contains(h, v[:t])


@st.composite
def coordinate_cases(draw):
    """A subgroup of a mixed group, from generators with unreduced residues,
    and eight integers to draw coordinates and members from."""
    moduli = draw(st.lists(st.integers(2, 12), max_size=3))
    k = draw(st.integers(0, 3))
    gens = draw(st.lists(st.tuples(*(st.integers(-3 * m, 3 * m) for m in moduli),
                                   *(st.integers(-4, 4) for _ in range(k))), max_size=4))
    return Subgroup(GroupSpec(moduli, k), gens), draw(st.lists(st.integers(-9, 9), min_size=8,
                                                               max_size=8))


# the walk subgroup of 1/3 at 0, 2e1 and 2e2 in Z_12 x Z_12, of index c = 4
TWO_Z12_SQUARED = Subgroup(GroupSpec([12, 12]), [[2, 0], [0, 2]])


@seed(0x3a1f9c6e2b7d4a5c8e0f1b2d3c4a5e6f7a8b9c0d1e2f3a4b5c6d7e8f9a0b1c2d3e4f5a6b7c8d9e0f1a2b3c4d5e6f7a)
@settings(max_examples=300, derandomize=True, deadline=None)
@given(coordinate_cases())
@example((TWO_Z12_SQUARED, [5, -3, 0, 0, 0, 0, 0, 0]))
# <(1, 1)> in Z_2 x Z_4 is not a product of coordinate subgroups
@example((Subgroup(GroupSpec([2, 4]), [[1, 1]]), [3, 7, 0, 0, 0, 0, 0, 0]))
@example((Subgroup(GroupSpec([2, 4], 1), [[1, 1, 0], [0, 0, 1]]), [-1, 4, 2, 1, 0, 0, 0, 0]))
# twisted lattices of Z^2 (index 5) and of rank 2 in Z^3
@example((Subgroup(Z2, [[1, 2], [3, 1]]), [4, -7, 1, 2, 0, 0, 0, 0]))
@example((Subgroup(GroupSpec((), 3), [[1, 1, 0], [0, 1, 1]]), [2, -3, 5, -1, 0, 0, 0, 0]))
# the trivial and the whole subgroup
@example((Subgroup(Z4Z, []), [1, 2, 3, 4, 5, 6, 7, 8]))
@example((whole_group(GroupSpec([4, 6], 2)), [9, -9, 5, 3, -2, 1, 0, 0]))
def test_coordinate_map_is_an_isomorphism_onto_the_subgroup(case):
    h, ints = case
    g, t = h.parent, len(h.parent.torsion_moduli)
    orders, rows, _ = h._coordinates()
    cyclic = [e for e in orders if e]
    # Z_{e_1} x ... x Z_{e_s} x Z^d: a divisor chain of e_i > 1, then one Z per free rank
    assert all(e > 1 for e in cyclic) and all(b % a == 0 for a, b in zip(cyclic, cyclic[1:]))
    assert orders == (*cyclic, *(0,) * h.rank())
    assert all(not any(row[t:]) for row in rows[:len(cyclic)])
    if h.rank() == 0:
        assert prod(cyclic) == h.order()
    # the image is H
    assert Subgroup(g, rows) == h

    def embed(c):
        return g.element_from_coords([sum(a * row[j] for a, row in zip(c, rows))
                                      for j in range(g.dim)])

    # the inverse after the embedding is the identity on H's coordinates
    c = tuple(a % e if e else a for a, e in zip(ints, orders))
    assert h._coords_of(embed(c).coords()) == c
    # the embedding after the inverse is the identity on H, residues unreduced
    x = [sum(a * row[j] for a, row in zip(ints, h.basis.data)) for j in range(g.dim)]
    assert embed(h._coords_of(x)) == g.element_from_coords(x)
    assert all(not any(h._coords_of(r)) for r in dancewalk.group._relation_rows(g))


def test_base_point_independence():
    rng = random.Random(2024)
    groups = [GroupSpec([m]) for m in (2, 3, 4, 6, 9, 12)] + [
        GroupSpec([2, 4]), Z4Z6, GroupSpec((), 1), Z2, GroupSpec([3], 1), Z4Z]
    for _ in range(200):
        g = rng.choice(groups)
        size = rng.randrange(1, 5)
        pts = []
        for _ in range(size):
            tor = [rng.randrange(m) for m in g.torsion_moduli]
            free = [rng.randrange(-4, 5) for _ in range(g.free_rank)]
            pts.append(g.element(tor, free))
        subs = {subgroup_generated(g, [p - x for p in pts]) for x in pts}
        assert len(subs) == 1


def test_membership_brute_force_cross_check():
    # instances small enough (ambient dim <= 3, generator entries <= 2,
    # probes near the origin) that every member has a witness with
    # coefficients in [-10, 10], so enumeration decides membership both ways
    rng = random.Random(77)
    for _ in range(200):
        g = rng.choice([Z2, GroupSpec((), 3), GroupSpec([4], 1)])
        n_gens = 1 if g.free_rank == 3 else rng.randrange(1, 3)
        gens = []
        for _ in range(n_gens):
            tor = [rng.randrange(m) for m in g.torsion_moduli]
            free = [rng.randrange(-2, 3) for _ in range(g.free_rank)]
            gens.append(g.element(tor, free))
        h = subgroup_generated(g, gens)
        probe = g.element(
            [rng.randrange(m) for m in g.torsion_moduli],
            [rng.randrange(-3, 4) for _ in range(g.free_rank)],
        )
        small_members = set()
        for coeffs in itertools.product(range(-10, 11), repeat=len(gens)):
            acc = g.identity()
            for c, gen in zip(coeffs, gens):
                acc = acc + c * gen
            small_members.add(acc)
        assert h.contains(probe) == (probe in small_members)
        for x in rng.sample(sorted(small_members), min(5, len(small_members))):
            assert h.contains(x)


def test_subgroup_elements_match_brute_force():
    # random subgroups of the benchmark's sweep shapes, and finite ones
    # of groups with a free axis
    rng = random.Random(4242)
    shapes = [([12], 0), ([30], 0), ([2, 6], 0), ([4, 4], 0), ([3, 9], 0),
              ([2, 2, 4], 0), ([2, 2, 6], 0), ([3, 3, 3], 0), ([4, 6], 1), ([], 2)]
    for _ in range(120):
        g = GroupSpec(*rng.choice(shapes))
        gens = [g.element([rng.randrange(m) for m in g.torsion_moduli], [0] * g.free_rank)
                for _ in range(rng.randrange(0, 4))]
        h = subgroup_generated(g, gens)
        brute = [x for x in (g.element(t, [0] * g.free_rank) for t in
                             itertools.product(*(range(m) for m in g.torsion_moduli)))
                 if h.contains(x)]
        assert h.elements() == brute
        assert len(brute) == h.order()
        assert list(h.element_coords()) == [x.coords() for x in brute]


def test_whole_group_is_built_from_its_known_hermite_rows(monkeypatch):
    # the identity rows are the whole group's Hermite basis, so no reduction
    # runs; on a finite group its walk is the lexicographic order of the scans
    groups = [GroupSpec(*shape) for shape in [([], 0), ([12], 0), ([2, 6], 0), ([3, 9], 0),
                                              ([2, 2, 6], 0), ([4, 6], 1), ([4], 1), ([], 2)]]
    want = [Subgroup(g, IntMatrix.identity(g.dim).data) for g in groups]
    calls = []
    lattice_basis = dancewalk.group.lattice_basis
    monkeypatch.setattr(dancewalk.group, "lattice_basis",
                        lambda *args: calls.append(args) or lattice_basis(*args))
    got = [whole_group(g) for g in groups]
    assert calls == []
    assert got == want
    for g, h in zip(groups, got):
        if g.is_finite:
            want = itertools.product(*map(range, g.torsion_moduli))
            assert list(h.element_coords()) == list(want)


def brute_coset(h, shift):
    """H + shift, sorted, by a membership test at every torsion residue."""
    g = h.parent
    t = len(g.torsion_moduli)
    return sorted(y + shift[t:] for y in itertools.product(*map(range, g.torsion_moduli))
                  if not any(h._image([a - b for a, b in zip(y, shift)])))


def test_coset_walk_matches_brute_force():
    # H + n*x over random subgroups of the sweep shapes, over <(1, 1)> in
    # Z_2 x Z_4 (no product of coordinate subgroups), over subgroups of three
    # axes that are no such product either, and over finite subgroups of groups
    # with a free axis, where n*x has a free part; then over shifts n*r with r
    # unreduced and n negative.  Each coset is checked against the membership
    # scan and against the closure of its generators, which reads no lattice
    rng = random.Random(2024)
    shapes = [([12], 0), ([30], 0), ([2, 6], 0), ([4, 4], 0), ([3, 9], 0),
              ([2, 2, 4], 0), ([2, 2, 6], 0), ([3, 3, 3], 0), ([4, 6], 1), ([4], 1), ([], 2)]
    z2z4 = GroupSpec([2, 4])
    cases = [(z2z4, [z2z4.element([1, 1])], z2z4.element([c, d]))
             for c in range(2) for d in range(4)]
    for moduli, rows in [([6, 12, 30], [(1, 2, 3), (0, 1, 5)]), ([4, 6, 10], [(1, 1, 1)]),
                         ([2, 4, 8], [(1, 2, 2), (0, 1, 3)]), ([6, 6, 6], [(2, 3, 1)])]:
        g = GroupSpec(moduli)
        cases.append((g, [g.element(r) for r in rows], g.element([1] * len(moduli))))
    for _ in range(80):
        g = GroupSpec(*rng.choice(shapes))
        gens = [g.element([rng.randrange(m) for m in g.torsion_moduli], [0] * g.free_rank)
                for _ in range(rng.randrange(0, 4))]
        x = g.element([rng.randrange(m) for m in g.torsion_moduli],
                      [rng.randrange(-3, 4) for _ in range(g.free_rank)])
        cases.append((g, gens, x))
    non_product = 0
    for g, gens, x in cases:
        h, members = subgroup_generated(g, gens), closure(g, gens)
        non_product += any(any(row[j + 1:]) for j, row in enumerate(h.basis.data))
        raw = [rng.randrange(-3 * m, 3 * m) for m in g.torsion_moduli]
        raw += [rng.randrange(-3, 4) for _ in range(g.free_rank)]
        shifts = [(n * x).coords() for n in (0, 1, 7, 50)]
        shifts += [tuple(n * c for c in raw) for n in (1, -1, -7)]
        for shift in shifts:
            walk = list(h.element_coords(shift))
            assert walk == brute_coset(h, shift)
            s = g.element_from_coords(shift)
            assert walk == sorted((y + s).coords() for y in members)
    assert non_product >= 6
    h = subgroup_generated(z2z4, cases[0][1])
    assert list(h.element_coords((0, 1))) == [(0, 1), (0, 3), (1, 0), (1, 2)]
    assert list(h.element_coords((-1, 9))) == [(0, 0), (0, 2), (1, 1), (1, 3)]


def test_coset_walk_holds_no_list_beyond_the_whole_group():
    # <(1, 1)> in Z_2 x Z_2000000 has Hermite rows (1, 1) and (0, 2), so it is
    # no product of coordinate subgroups; each head steps its last axis as a
    # lazy range of 10^6 points, and the first points come with no list of them
    g = GroupSpec([2, 2000000])
    h = subgroup_generated(g, [g.element([1, 1])])
    assert h.basis.data == ((1, 1), (0, 2))
    gc.disable()
    tracemalloc.start()
    try:
        first = list(itertools.islice(h.element_coords(), 3))
        shifted = list(itertools.islice(h.element_coords((-1, 4000000)), 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak < 256 << 10
    assert first == [(0, 0), (0, 2), (0, 4)]
    assert shifted == [(0, 1), (0, 3), (0, 5)]


def test_annihilator_duality_brute_force():
    rng = random.Random(13)
    groups = [GroupSpec([n]) for n in (2, 3, 4, 6, 8, 9, 12, 25, 36, 60, 128, 199, 200)] + [
        GroupSpec([2, 4]), GroupSpec([4, 6]), GroupSpec([2, 2, 2]), GroupSpec([5, 5]),
        GroupSpec([2, 10]), GroupSpec([3, 9]), GroupSpec([13, 13]),
    ]
    for _ in range(200):
        g = rng.choice(groups)
        gens = [g.element([rng.randrange(m) for m in g.torsion_moduli])
                for _ in range(rng.randrange(0, 3))]
        h = subgroup_generated(g, gens)
        ann = h.annihilator()
        assert ann.parent == g.dual()
        elements = h.elements()
        brute = set()
        for chars in itertools.product(*(range(m) for m in g.torsion_moduli)):
            xi = DualPoint(g, chars, ())
            if all(xi.phase(e) == 0 for e in elements):
                brute.add(chars)
        assert {e.torsion for e in ann.elements()} == brute
        # |H| * |H^perp| = |G| for finite groups, and the double annihilator closes up
        assert h.order() * ann.order() == g.order
        assert ann.annihilator() == h


def test_annihilator_of_3z12_is_4z12():
    h = subgroup_generated(Z12, [Z12.element([3])])
    ann = h.annihilator()
    assert sorted(e.torsion[0] for e in ann.elements()) == [0, 4, 8]


def test_homomorphism_laws():
    m = IntMatrix([[1, 0]])
    proj = Homomorphism(Z2, GroupSpec((), 1), m)
    x = Z2.element((), [3, 5])
    assert proj(x).free == (3,)
    assert Homomorphism(Z2, Z2, IntMatrix.identity(2))(x) == x
    with pytest.raises(ValueError):
        Homomorphism(Z12, GroupSpec((), 1), IntMatrix([[1]]))  # torsion into free part
    doubling = Homomorphism(Z12, GroupSpec([6]), IntMatrix([[1]]))
    assert doubling(Z12.element([7])).torsion == (1,)


def test_character_phase_examples():
    xi = DualPoint(Z12, [4], ())
    assert xi.phase(Z12.element([3])) == 0
    assert xi.phase(Z12.element([1])) == Fraction(1, 3)
    z = GroupSpec((), 1)
    half = DualPoint(z, (), [Fraction(1, 2)])
    assert half.phase(z.element((), [3])) == Fraction(1, 2)


def test_character_phase_is_additive():
    rng = random.Random(4)
    for _ in range(200):
        g = rng.choice([Z12, Z4Z6, Z4Z, Z2])
        xi = DualPoint(
            g,
            [rng.randrange(m) for m in g.torsion_moduli],
            [Fraction(rng.randrange(0, 8), 8) for _ in range(g.free_rank)],
        )
        x = g.element([rng.randrange(m) for m in g.torsion_moduli],
                      [rng.randrange(-5, 6) for _ in range(g.free_rank)])
        y = g.element([rng.randrange(m) for m in g.torsion_moduli],
                      [rng.randrange(-5, 6) for _ in range(g.free_rank)])
        assert xi.phase(x + y) == (xi.phase(x) + xi.phase(y)) % 1


def test_infinite_group_guards():
    with pytest.raises(UnsupportedOperationError):
        list(Z4Z.elements())
    with pytest.raises(UnsupportedOperationError):
        Z4Z.dual()
    with pytest.raises(UnsupportedOperationError):
        subgroup_generated(Z4Z, [Z4Z.element([0], [1])]).elements()
