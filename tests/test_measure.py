import io
import json
import random
import sys
from fractions import Fraction
from math import comb, gcd, lcm
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, seed, settings, strategies as st

import dancewalk._recurrence
import dancewalk.measure
from dancewalk.cli import main
from dancewalk.dance import dance_of, theta_by_integration
from dancewalk.group import Element, GroupSpec, Homomorphism, Subgroup
from dancewalk.intlinalg import IntMatrix
from dancewalk.llt import build_attractor, llt_sup_error, tv_to_uniform_coset
from dancewalk.measure import (
    Distribution,
    convolution_power,
    convolve,
    pushforward,
    sample_path,
    torsion_pushforward,
)
from dancewalk.scenarios import elevator1, elevator2, spitzer, z12_walk
from reference import reference_path, sparse_convolve, sparse_power, uniform

Z12 = GroupSpec([12])
Z9 = GroupSpec([9])
Z2 = GroupSpec((), 2)
Z4Z = GroupSpec([4], 1)

half = Fraction(1, 2)
quarter = Fraction(1, 4)
# 1/2 on 0 and 1 in Z_2: p^2 is the ladder's (4, {(0,): 2, (1,): 2}), and the law over 2
COIN_Z2 = Distribution(GroupSpec([2]), {GroupSpec([2]).element([x]): half for x in (0, 1)})


def test_validation():
    with pytest.raises(ValueError):
        Distribution(Z12, {Z12.element([0]): Fraction(1, 2)})
    with pytest.raises(ValueError):
        Distribution(Z12, {})
    with pytest.raises(ValueError):
        Distribution(Z12, {Z12.element([0]): Fraction(3, 2), Z12.element([1]): Fraction(-1, 2)})
    d = Distribution(Z12, {Z12.element([0]): 1})
    assert d.weight(Z12.element([0])) == 1
    assert d.weight(Z12.element([5])) == 0


def test_convolve_identity():
    p = z12_walk()
    delta = Distribution.point_mass(Z12)
    assert convolve(delta, p) == p
    assert convolve(p, delta) == p


def test_convolve_z9():
    p = Distribution(Z9, {Z9.element([1]): half, Z9.element([4]): half})
    pp = convolve(p, p)
    assert pp.weight(Z9.element([2])) == quarter
    assert pp.weight(Z9.element([5])) == half
    assert pp.weight(Z9.element([8])) == quarter


def test_convolve_support_sumset():
    p = z12_walk()
    pp = convolve(p, p)
    assert {x.torsion[0] for x in pp.support()} == {10, 1, 4}
    assert pp.weight(Z12.element([-2])) == quarter
    assert pp.weight(Z12.element([1])) == half
    assert pp.weight(Z12.element([4])) == quarter


def test_convolution_power_basics():
    p = z12_walk()
    assert convolution_power(p, 1) == p
    assert convolution_power(p, 2) == convolve(p, p)
    assert convolution_power(p, 0) == Distribution.point_mass(Z12)
    with pytest.raises(ValueError):
        convolution_power(p, -1)


def test_z9_concentrates_on_moving_coset():
    p = Distribution(Z9, {Z9.element([1]): half, Z9.element([4]): half})
    pn = convolution_power(p, 30)
    coset = {x for x in Z9.elements() if (x.torsion[0] - 30) % 3 == 0}
    for x in Z9.elements():
        w = pn.weight(x)
        if x in coset:
            assert abs(w - Fraction(1, 3)) < Fraction(1, 2 ** 25)
        else:
            assert w == 0


def _random_distribution(rng, g, max_support=4):
    pts = set()
    for _ in range(rng.randrange(1, max_support + 1)):
        pts.add(g.element(
            [rng.randrange(m) for m in g.torsion_moduli],
            [rng.randrange(-3, 4) for _ in range(g.free_rank)],
        ))
    pts = sorted(pts)
    cuts = sorted(rng.randrange(1, 16) for _ in range(len(pts) - 1))
    weights = {}
    prev = 0
    for x, c in zip(pts, cuts + [16]):
        weights[x] = Fraction(c - prev, 16)
        prev = c
    weights = {x: w for x, w in weights.items() if w}
    return Distribution(g, weights)


def test_convolution_algebra_random():
    rng = random.Random(314)
    groups = [Z12, Z2, Z4Z, GroupSpec([2, 4])]
    for _ in range(200):
        g = rng.choice(groups)
        p = _random_distribution(rng, g)
        q = _random_distribution(rng, g)
        r = _random_distribution(rng, g)
        assert convolve(p, q) == convolve(q, p)
        assert convolve(convolve(p, q), r) == convolve(p, convolve(q, r))
        assert sum(w for _, w in convolve(p, q).items()) == 1


def test_power_matches_iterated_convolve():
    rng = random.Random(1618)
    for _ in range(30):
        g = rng.choice([Z12, Z4Z])
        p = _random_distribution(rng, g, max_support=3)
        acc = p
        for n in range(2, 9):
            acc = convolve(acc, p)
            assert convolution_power(p, n) == acc


def test_support_sumset_law():
    rng = random.Random(2718)
    for _ in range(50):
        g = rng.choice([Z12, Z2])
        p = _random_distribution(rng, g, max_support=3)
        for n, m in [(1, 2), (2, 3), (3, 4)]:
            lhs = {x for x in convolution_power(p, n + m).support()}
            sumset = {x + y for x in convolution_power(p, n).support()
                      for y in convolution_power(p, m).support()}
            assert lhs == sumset


@st.composite
def law_pairs(draw):
    """Two laws on one of the group shapes the packed kernel must handle."""
    small = st.integers(-3, 3)
    shape = draw(st.sampled_from(
        ["trivial", "cyclic", "two-cyclic", "free", "mixed", "line-z3", "sublattice-z2",
         "sparse-z", "three-cyclic", "cyclic-z2"]))
    if shape == "trivial":
        g, point = GroupSpec(), st.just(((), ()))
    elif shape == "cyclic":
        m = draw(st.integers(2, 13))
        g, point = GroupSpec([m]), st.tuples(st.tuples(st.integers(0, m - 1)), st.just(()))
    elif shape == "two-cyclic":
        g = GroupSpec([draw(st.integers(2, 7)), draw(st.integers(2, 7))])
        point = st.tuples(st.tuples(st.integers(0, 6), st.integers(0, 6)), st.just(()))
    elif shape == "three-cyclic":
        g = GroupSpec([draw(st.integers(2, 5)) for _ in range(3)])
        point = st.tuples(st.tuples(*[st.integers(0, 4)] * 3), st.just(()))
    elif shape == "free":
        k = draw(st.integers(1, 3))
        g, point = GroupSpec((), k), st.tuples(st.just(()), st.tuples(*[small] * k))
    elif shape == "mixed":
        g = GroupSpec([draw(st.integers(2, 6)), draw(st.integers(2, 6))], 1)
        point = st.tuples(st.tuples(st.integers(0, 5), st.integers(0, 5)), st.tuples(small))
    elif shape == "cyclic-z2":
        g = GroupSpec([draw(st.integers(2, 6))], 2)
        point = st.tuples(st.tuples(st.integers(0, 5)), st.tuples(small, small))
    elif shape == "line-z3":
        d, o = draw(st.tuples(small, small, small)), draw(st.tuples(small, small, small))
        g = GroupSpec((), 3)
        point = small.map(lambda t: ((), tuple(a + t * b for a, b in zip(o, d))))
    elif shape == "sublattice-z2":
        u, w = draw(st.tuples(small, small)), draw(st.tuples(small, small))
        g = GroupSpec((), 2)
        point = st.tuples(small, small).map(
            lambda ab: ((), tuple(ab[0] * x + ab[1] * y for x, y in zip(u, w))))
    else:
        g, point = GroupSpec((), 1), st.integers(-1, 2).map(lambda t: ((), (1000 * t,)))

    def law():
        weights = {}
        for tors, free in draw(st.lists(point, min_size=1, max_size=4)):
            x = g.element(tors, free)
            weights[x] = weights.get(x, 0) + draw(st.integers(1, 6))
        total = sum(weights.values())
        return Distribution(g, {x: Fraction(w, total) for x, w in weights.items()})

    return law(), law()


def _pair(moduli, rank, p_points, q_points):
    """Two laws on Z_moduli x Z^rank, the k-th point of each weighted k + 1."""
    g = GroupSpec(moduli, rank)

    def law(points):
        total = len(points) * (len(points) + 1) // 2
        return Distribution(g, {g.element(t, f): Fraction(k + 1, total)
                                for k, (t, f) in enumerate(points)})

    return law(p_points), law(q_points)


# one pair per law_pairs shape, in its order, and free rank 3: the draws
# alone cover a shape only as its place in sampled_from happens to let them
SHAPE_EXAMPLES = [
    _pair((), 0, [((), ())], [((), ())]),
    _pair((13,), 0, [((0,), ()), ((5,), ()), ((12,), ())], [((3,), ()), ((7,), ())]),
    _pair((6, 4), 0, [((0, 0), ()), ((1, 3), ()), ((5, 2), ())], [((2, 1), ())]),
    _pair((), 2, [((), (0, 0)), ((), (1, -2)), ((), (-3, 1))], [((), (2, 2)), ((), (0, -1))]),
    _pair((4, 6), 1, [((0, 0), (0,)), ((1, 5), (2,)), ((3, 2), (-1,))], [((2, 3), (1,))]),
    _pair((), 3, [((), (1 + t, -2 * t, 3 - t)) for t in (-1, 0, 2)], [((), (1, 0, 3))]),
    _pair((), 2, [((), (2 * a - b, a + 3 * b)) for a, b in ((0, 0), (1, 0), (1, 1))],
          [((), (-1, 3))]),
    _pair((), 1, [((), (-1000,)), ((), (0,)), ((), (2000,))], [((), (1000,))]),
    _pair((2, 3, 5), 0, [((0, 0, 0), ()), ((1, 2, 4), ()), ((1, 1, 3), ())], [((0, 2, 1), ())]),
    _pair((5,), 2, [((0,), (0, 0)), ((4,), (1, -1)), ((2,), (-2, 3))], [((1,), (0, 1))]),
    _pair((), 3, [((), (0, 0, 0)), ((), (1, 0, -1)), ((), (0, 2, 1)), ((), (-3, 1, 1))],
          [((), (1, 1, 1)), ((), (0, -1, 2))]),
    # both walk subgroups are <(1, 1)>, not a product of coordinate subgroups: c = 2
    _pair((2, 4), 0, [((0, 0), ()), ((1, 1), ()), ((0, 2), ())], [((1, 1), ()), ((0, 2), ())]),
]


def pin_shapes(second):
    """Add an @example per SHAPE_EXAMPLES pair, with second as the other argument."""
    def pin(test):
        for pq in SHAPE_EXAMPLES:
            test = example(pq, second)(test)
        return test
    return pin


@seed(0x1e722d1effe6fec2d5f3a46179fb22f5d7132249e23c17ecc5b86d9433196751bfd7b89859b79bbfaa674bd146f5c800)
@settings(max_examples=150, derandomize=True, deadline=None)
@given(law_pairs(), st.integers(0, 12))
@pin_shapes(12)
@example((COIN_Z2, COIN_Z2), 2)
def test_packed_convolution_matches_sparse_reference(pq, n):
    p, q = pq
    assert convolution_power(p, n) == sparse_power(p, n)
    assert convolve(p, q) == sparse_convolve(p, q)
    assert convolve(p, p) == sparse_convolve(p, p)


@seed(0x2e72fa24f8b1ec6588e42c1d5febd3ebdb300b45dd0559e8a852d5a82f45d6ad3d4bbef5c381410348044d7290b6680d)
@settings(max_examples=100, derandomize=True, deadline=None)
@given(law_pairs(), st.lists(st.integers(0, 12), min_size=1, max_size=6))
@pin_shapes([12, 0, 5, 5, 1])
@example((COIN_Z2, COIN_Z2), [2])
# a point mass on a mixed group: W is trivial, and its one key is ()
@example(_pair((4,), 1, [((3,), (2,))], [((3,), (2,))]), [0, 1, 3])
def test_power_ladder_matches_sparse_reference(pq, steps):
    # unsorted, repeated and zero steps, each against n sparse convolutions:
    # the ladder's numerators over p._den ** n, not reduced
    p, _ = pq
    got = list(dancewalk.measure._powers(p, steps))
    assert [n for n, *_ in got] == sorted(steps)
    for n, den, nums in got:
        assert den == p._den ** n
        assert nums == {x.coords(): w * den for x, w in sparse_power(p, n).items()}


KNIGHT = uniform(Z2, [((), (a, b)) for a in (1, -1, 2, -2) for b in (1, -1, 2, -2)
                      if abs(a) != abs(b)])  # its lattice has index 2 in Z^2
LAZY_Z2 = uniform(Z2, [((), (0, 0)), ((), (1, 0)), ((), (-1, 0)), ((), (0, 1)), ((), (0, -1))])
SIMPLE_Z = uniform(GroupSpec((), 1), [((), (-1,)), ((), (1,))])
# torsion-free walk subgroups in mixed groups, whose residues wrap mod 4
DIAGONAL_Z4Z = uniform(Z4Z, [((0,), (0,)), ((1,), (1,))])
DIAGONAL_Z2Z4Z2 = uniform(GroupSpec([2, 4], 2), [((0, 0), (0, 0)), ((1, 1), (1, 0)),
                                                 ((0, 1), (0, 1))])
SIMPLEX_Z6 = uniform(GroupSpec((), 6), [((), (0,) * 6)] + [
    ((), tuple(int(i == j) for i in range(6))) for j in range(6)])
W200 = uniform(Z2, [((), (i % 20 - 10, i // 20 - 5)) for i in range(200)])


@seed(0x5d4c2b7e8f1a3c6d9e0b2a4f6c8e1d3b5a7c9e0f2d4b6a8c1e3f5d7b9a0c2e4f6b8d1a3c5e7f9b0d2a4c6e8f1b3d5a)
@settings(max_examples=100, derandomize=True, deadline=None)
@given(law_pairs(), st.tuples(st.integers(0, 12), st.integers(1, 3)))
@pin_shapes((12, 3))
@example((KNIGHT, KNIGHT), (7, 2))
@example((spitzer(), spitzer()), (9, 3))
@example((SIMPLE_Z, SIMPLE_Z), (0, 3))
@example((DIAGONAL_Z4Z, DIAGONAL_Z4Z), (9, 2))
@example((DIAGONAL_Z2Z4Z2, DIAGONAL_Z2Z4Z2), (7, 3))
def test_recurrence_matches_sparse_reference(pq, window):
    # p^n, ..., p^(n+s-1), as the window of a time average reads them, each made by
    # the recurrence where W has no cyclic axis and by the ladder otherwise
    p, _ = pq
    n, s = window
    with mock.patch.object(dancewalk._recurrence, "cheaper", lambda *args: True):
        got = list(dancewalk.measure._powers(p, range(n, n + s)))
    assert [m for m, *_ in got] == list(range(n, n + s))
    for m, den, nums in got:
        assert den == p._den ** m
        assert nums == {x.coords(): w * den for x, w in sparse_power(p, m).items()}


# The benchmark sweep's group shapes: walks with torsion axes only
SWEEP_SHAPES = ((12,), (30,), (2, 6), (4, 4), (3, 9), (2, 2, 4), (2, 2, 6), (3, 3, 3))


def test_the_chooser_keeps_the_ladder_where_the_recurrence_costs_more(monkeypatch):
    made = {}
    for module, name in ((dancewalk.measure, "_product"), (dancewalk._recurrence, "power")):
        function = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, name=name, function=function:
                            made.__setitem__(name, made.get(name, 0) + 1) or function(*args))

    def methods(p, steps):
        made.clear()
        assert [n for n, *_ in dancewalk.measure._powers(p, steps)] == sorted(steps)
        return sorted(made)

    sweep = [uniform(GroupSpec(m), [((0,) * len(m), ()), ((1,) * len(m), ()),
                                    ((0,) * (len(m) - 1) + (2,), ())]) for m in SWEEP_SHAPES]
    # small tori, a wide support and a thin one over many axes stay on the ladder
    for p, steps in [*((q, [12]) for q in sweep), (W200, [2]), (W200, [3, 8]),
                     (SIMPLEX_Z6, [6]), (SIMPLEX_Z6, [2, 3])]:
        assert methods(p, steps) == ["_product"]
    # walks with few support points and no cyclic axis in W make no product
    for p in (LAZY_Z2, KNIGHT, SIMPLE_Z, spitzer(), DIAGONAL_Z4Z, DIAGONAL_Z2Z4Z2):
        assert methods(p, [2]) == methods(p, [10, 20, 30]) == methods(p, [40]) == ["power"]
    # p^1 is given, so neither method has work to do
    assert methods(LAZY_Z2, [1]) == methods(SIMPLE_Z, [0, 1]) == []


@seed(0xb64f574586f66fd856e684cc8d575c0ca1007b734ebe490b814794f402140b8d3c59db2d1a47ac2facc4079298edad34)
@settings(max_examples=100, derandomize=True, deadline=None)
@given(law_pairs(), st.integers(0, 6))
@pin_shapes(6)
# 1/3 at 0, 2e1 and 2e2 in Z_12 x Z_12: W = 2Z_12 x 2Z_12, of index c = 4
@example(_pair((12, 12), 0, [((0, 0), ()), ((2, 0), ()), ((0, 2), ())], [((4, 6), ())]), 5)
def test_kronecker_and_pairwise_kernels_agree(pq, n):
    # both laws packed in the own coordinates of the subgroup their steps generate
    p, q = pq
    pn = sparse_power(p, n)
    steps = dancewalk.measure._steps
    w = Subgroup(p.group, steps(pn) + steps(q))
    moduli = w._coordinates()[0]
    da, na = dancewalk.measure._pack_law(pn, w)
    db, nb = dancewalk.measure._pack_law(q, w)
    lo_a, lo_b, sides = dancewalk.measure._box(na, nb)
    packed = dancewalk.measure._kronecker(na, nb, lo_a, lo_b, sides, moduli, da * db)
    assert packed == dancewalk.measure._pairwise(na, nb, moduli)


def recorded_boxes(monkeypatch):
    """A list that collects the cell count of every box the packed kernel
    fills and of every power's box the recurrence runs over."""
    boxes = []
    pack, power = dancewalk.measure._pack, dancewalk._recurrence.power

    def recording_pack(nums, lo, strides, width, size):
        boxes.append(size)
        return pack(nums, lo, strides, width, size)

    def recording_power(law, n):
        boxes.append(dancewalk.measure._cells(law, (0,) * len(min(law[1])), n)[0])
        return power(law, n)

    monkeypatch.setattr(dancewalk.measure, "_pack", recording_pack)
    monkeypatch.setattr(dancewalk._recurrence, "power", recording_power)
    return boxes


def test_many_axis_walk_box_stays_small(monkeypatch):
    boxes = recorded_boxes(monkeypatch)
    z2 = GroupSpec([2] * 12)
    third = Fraction(1, 3)
    p = Distribution(z2, {z2.element([0] * 12): third, z2.element([1] * 12): third,
                          z2.element([i % 2 for i in range(12)]): third})
    assert convolution_power(p, 12) == sparse_power(p, 12)
    z6 = GroupSpec((), 6)
    corners = [[0] * 6] + [[int(i == j) for i in range(6)] for j in range(6)]
    simplex = Distribution(z6, {z6.element((), v): Fraction(1, 7) for v in corners})
    p6 = convolution_power(simplex, 6)
    assert len(p6) == comb(12, 6)
    assert p6 == sparse_power(simplex, 6)
    # Dense boxes would hold 3^12 = 531441 and 7^6 = 117649 cells; the
    # largest product of either ladder has 210 * 28 = 5880 pairs.
    assert max(boxes, default=0) <= 5880


def test_sublattice_walk_box_stays_linear(monkeypatch):
    boxes = recorded_boxes(monkeypatch)
    z = GroupSpec((), 1)
    p = Distribution(z, {z.element((), [0]): half, z.element((), [1000]): half})
    pn = convolution_power(p, 2000)
    assert len(pn) == 2001
    assert pn.support() == [z.element((), [1000 * k]) for k in range(2001)]
    assert pn.weight(z.element((), [1000 * 1000])) == Fraction(comb(2000, 1000), 2 ** 2000)
    # Boxes in the walk's lattice 1000Z; the ambient box would hold 2000001 cells.
    assert boxes and max(boxes) <= 2001


def test_pushforward_examples():
    p = spitzer()
    ident = Homomorphism(Z2, Z2, IntMatrix.identity(2))
    assert pushforward(p, ident) == p
    proj = Homomorphism(Z2, GroupSpec((), 1), IntMatrix([[1, 0]]))
    q = pushforward(p, proj)
    z = GroupSpec((), 1)
    assert q.weight(z.element((), [0])) == half
    assert q.weight(z.element((), [1])) == half
    heights = Homomorphism(Z4Z, GroupSpec((), 1), IntMatrix([[0, 1]]))
    q2 = pushforward(elevator2(), heights)
    assert q2.weight(z.element((), [0])) == half
    assert q2.weight(z.element((), [1])) == quarter
    assert q2.weight(z.element((), [-1])) == quarter


def test_pushforward_commutes_with_convolution():
    rng = random.Random(42)
    proj = Homomorphism(Z2, GroupSpec((), 1), IntMatrix([[2, 1]]))
    for _ in range(100):
        p = _random_distribution(rng, Z2, max_support=3)
        q = _random_distribution(rng, Z2, max_support=3)
        assert pushforward(convolve(p, q), proj) == convolve(pushforward(p, proj),
                                                             pushforward(q, proj))


def test_torsion_pushforward():
    p = z12_walk()
    assert torsion_pushforward(p) is p
    p1 = elevator1()
    q = torsion_pushforward(p1)
    z4 = GroupSpec([4])
    assert q.weight(z4.element([1])) == half
    assert q.weight(z4.element([3])) == half
    flat = torsion_pushforward(spitzer())
    assert flat.group == GroupSpec()
    assert flat.weight(flat.group.identity()) == 1


def reference_items(pairs):
    """Sorted (Element, Fraction) pairs of a law written as pairs, adding equal elements."""
    acc = {}
    for x, w in pairs:
        acc[x] = acc.get(x, 0) + Fraction(w)
    return sorted((x, w) for x, w in acc.items() if w)


@st.composite
def law_writings(draw):
    """A law on one of law_pairs' groups and several ways of writing it.

    The ways differ in entry order, split entries, unreduced torsion
    residues, weights written as unreduced "a/b" strings, and zero weights.
    """
    p, _ = draw(law_pairs())
    g = p.group
    entries = p.items()
    pairs = []
    for x, w in entries:
        cut = w * Fraction(draw(st.integers(0, 4)), 4)
        for part in (cut, w - cut):
            k = draw(st.integers(1, 3))
            torsion = [c + m * draw(st.integers(-2, 2))
                       for c, m in zip(x.torsion, g.torsion_moduli)]
            weight = f"{part.numerator * k}/{part.denominator * k}"
            pairs.append((g.element(torsion, x.free), weight))
    extra = g.element([0] * len(g.torsion_moduli), [5] * g.free_rank)
    pairs.append((extra, 0))
    return g, extra, [dict(entries), draw(st.permutations(entries)), draw(st.permutations(pairs))]


@seed(0xb9ffff1ccb6c079f64a54ba5ad5dc0d973e6e3499bba70b2ef063a1f747180ac40086f1256d3e7ad0f9f67a4d77c3dec)
@settings(max_examples=150, derandomize=True, deadline=None)
@given(law_writings())
def test_one_law_written_many_ways(case):
    g, extra, writings = case
    laws = [Distribution(g, w) for w in writings]
    assert all(q == laws[0] and hash(q) == hash(laws[0]) for q in laws)
    want = reference_items(writings[-1])
    den = lcm(*(w.denominator for _, w in want))
    for q in laws:
        assert q._den == den and gcd(den, *q._nums.values()) == 1
        assert q.items() == want
        assert q.support() == [x for x, _ in want]
        assert len(q) == len(want)
        assert all(q.weight(x) == w for x, w in want)
        assert q.weight(extra) == dict(want).get(extra, 0)
        assert q.weight(GroupSpec([7]).element([0])) == 0


def reference_pushforward(p, f):
    """Image law summed as Fractions over Elements."""
    out = {}
    for x, w in p.items():
        y = f(x)
        out[y] = out.get(y, Fraction(0)) + w
    return Distribution(f.target, out)


def reference_torsion_pushforward(p):
    g = p.group
    if g.free_rank == 0:
        return p
    target = g.torsion_component()
    out = {}
    for x, w in p.items():
        y = target.element(x.torsion, ())
        out[y] = out.get(y, Fraction(0)) + w
    return Distribution(target, out)


@st.composite
def laws_and_maps(draw):
    """A law on Z_a x Z_b x Z^k and a homomorphism from its group to Z_c x Z^j."""
    source = GroupSpec(draw(st.lists(st.integers(2, 6), max_size=2)), draw(st.integers(0, 2)))
    target = GroupSpec(draw(st.lists(st.integers(2, 12), max_size=1)), draw(st.integers(0, 2)))
    t, small = len(source.torsion_moduli), st.integers(-3, 3)
    rows = []
    for r in range(target.dim):
        c = target.torsion_moduli[r] if r < len(target.torsion_moduli) else 0
        # a torsion column must be killed by its modulus: m * e = 0 mod c (and e = 0 if c = 0)
        rows.append([draw(small) * (c // gcd(c, m)) if c else 0 for m in source.torsion_moduli]
                    + [draw(small) for _ in range(source.free_rank)])
    f = Homomorphism(source, target, IntMatrix(rows, cols=source.dim))
    points = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 5)] * t),
                                     st.tuples(*[small] * source.free_rank)),
                           min_size=1, max_size=5, unique=True))
    nums = [draw(st.integers(1, 5)) for _ in points]
    weights = {}
    for (tors, free), a in zip(points, nums):
        x = source.element(tors, free)
        weights[x] = weights.get(x, 0) + Fraction(a, sum(nums))
    return Distribution(source, weights), f


@seed(0xfac083bc23cc0b88c58d75c22e70800dba60eacc16f73700ec09d7b42805d3aed3df4c004daa344462635e4d25075784)
@settings(max_examples=150, derandomize=True, deadline=None)
@given(laws_and_maps())
def test_pushforwards_match_fraction_references(case):
    p, f = case
    assert pushforward(p, f) == reference_pushforward(p, f)
    assert torsion_pushforward(p) == reference_torsion_pushforward(p)
    # the sliced projection keeps the numerators, and their order, of the matrix route
    g, t = p.group, len(p.group.torsion_moduli)
    rows = [[int(i == j) for j in range(g.dim)] for i in range(t)]
    proj = Homomorphism(g, g.torsion_component(), IntMatrix(rows, cols=g.dim))
    assert list(torsion_pushforward(p)._nums.items()) == list(pushforward(p, proj)._nums.items())


def test_sample_path_contracts():
    p = z12_walk()
    assert sample_path(p, 0, 7).positions == (Z12.identity(),)
    assert len(sample_path(p, 0, 7)) == 0
    a = sample_path(p, 50, 123456789)
    assert len(a) == 50 and len(a.positions) == 51
    b = sample_path(p, 50, 123456789)
    assert a == b
    c = sample_path(p, 50, 987654321)
    assert c != a
    steps = {Z12.element([-1]), Z12.element([2])}
    for u, v in zip(a.positions, a.positions[1:]):
        assert (v - u) in steps


def test_sampler_matches_convolution_power():
    p = z12_walk()
    n = 6
    pn = convolution_power(p, n)
    trials = 10_000
    counts = {x: 0 for x in Z12.elements()}
    for seed in range(trials):
        path = sample_path(p, n, seed)
        counts[path.positions[-1]] += 1
    for x in Z12.elements():
        expect = float(pn.weight(x))
        sigma = (expect * (1 - expect) / trials) ** 0.5
        assert abs(counts[x] / trials - expect) <= 3 * sigma + 1e-12


def test_sample_path_rejects_negative_length():
    with pytest.raises(ValueError):
        sample_path(z12_walk(), -1, 0)


def test_step_counts_and_seeds_must_be_integers():
    # read through operator.index, as coordinates are: 2.5 would recurse in the
    # power plan or draw a path, and 2.0 would pass for 2
    p = z12_walk()
    a = build_attractor(p)
    calls = [lambda: convolution_power(p, 2.5), lambda: convolution_power(p, 2.0),
             lambda: tv_to_uniform_coset(p, 2.5), lambda: llt_sup_error(p, a, 2.5),
             lambda: sample_path(p, 3, 2.5)]
    calls += [lambda q=q: dance_of(q).theta(2.5, q.support()[0]) for q in (p, elevator2())]
    calls.append(lambda: theta_by_integration(p, 2.5, p.support()[0]))
    for call in calls:
        with pytest.raises(TypeError):
            call()
    assert convolution_power(p, True) == p  # integer types are accepted


@st.composite
def sampled_laws(draw):
    """A law on Z_m, Z_a x Z_b, Z^k or Z_m x Z^k whose weights have a large odd,
    a dyadic or a small denominator, and a seed and a length to walk it."""
    moduli, rank = draw(st.sampled_from([
        ((draw(st.integers(2, 13)),), 0),
        ((draw(st.integers(2, 7)), draw(st.integers(2, 7))), 0),
        ((), draw(st.integers(1, 3))),
        ((draw(st.integers(2, 9)),), draw(st.integers(1, 2))),
    ]))
    g = GroupSpec(moduli, rank)
    point = st.tuples(*[st.integers(0, m - 1) for m in moduli], *[st.integers(-3, 3)] * rank)
    points = draw(st.lists(point, min_size=1, max_size=6, unique=True))
    den = draw(st.sampled_from([3 ** 40, 5 ** 26, 2 ** 61 - 1, 2 ** 60, 2 ** 53, 2 ** 8, 7, 12])
               | st.integers(len(points), 2 ** 62))
    cuts = sorted(draw(st.lists(st.integers(1, max(den - 1, 1)), min_size=len(points) - 1,
                                max_size=len(points) - 1, unique=True)))
    nums = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    p = Distribution(g, {g.element_from_coords(c): Fraction(v, den) for c, v in zip(points, nums)})
    return p, draw(st.integers(0, 200)), draw(st.integers(0, 2 ** 64))


@seed(0x4d90e2773b6dce6c4a9980728cd183650e2d30ef64bf9744c4f83bf4622af298423283eaaf8a236039efd423e24dcb00)
@settings(max_examples=300, derandomize=True, deadline=None)
@given(sampled_laws())
def test_sampler_draws_the_fraction_references_steps(case):
    p, n, s = case
    assert sample_path(p, n, s).positions == reference_path(p, n, random.Random(s))


def _draws(values):
    """A stand-in for random.Random whose random() returns the given floats in turn."""
    return SimpleNamespace(random=iter(values).__next__)


def test_sampler_breaks_a_tie_as_the_fraction_reference(monkeypatch):
    # u = 1/2 and u = 3/4 are cumulative weights: each step is the point after the tie
    z = GroupSpec((), 1)
    p = Distribution(z, {z.element((), (-1,)): half, z.element((), (0,)): quarter,
                         z.element((), (1,)): quarter})
    monkeypatch.setattr(dancewalk.measure, "random",
                        SimpleNamespace(Random=lambda s: _draws([0.5, 0.75])))
    path = sample_path(p, 2, 0).positions
    assert path == reference_path(p, 2, _draws([0.5, 0.75]))
    assert [x.free for x in path] == [(0,), (0,), (1,)]


def test_sample_command_builds_no_element_per_step(monkeypatch, capsys):
    spec = ('{"group": {"torsion": [12], "rank": 1}, "distribution": ['
            '{"elem": {"torsion": [-1], "free": [1]}, "weight": "1/3"},'
            '{"elem": {"torsion": [2], "free": [0]}, "weight": "1/3"},'
            '{"elem": {"torsion": [0], "free": [-1]}, "weight": "1/3"}]}')
    built = []
    init = Element.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Element, "__init__", counted)
    monkeypatch.setattr(sys, "stdin", io.StringIO(spec))
    assert main(["sample", "--spec", "-", "--n", "1000", "--seed", "3", "--paths", "2"]) == 0
    paths = json.loads(capsys.readouterr().out)["paths"]
    assert [len(path) for path in paths] == [1001, 1001]
    assert len(built) <= 3
