import random
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import dancewalk.measure
from dancewalk.group import GroupSpec, Homomorphism
from dancewalk.intlinalg import IntMatrix
from dancewalk.measure import (
    Distribution,
    convolution_power,
    convolve,
    pushforward,
    sample_path,
    torsion_pushforward,
)
from dancewalk.scenarios import elevator1, elevator2, spitzer, z12_walk
from reference import sparse_convolve, sparse_power

Z12 = GroupSpec([12])
Z9 = GroupSpec([9])
Z2 = GroupSpec((), 2)
Z4Z = GroupSpec([4], 1)

half = Fraction(1, 2)
quarter = Fraction(1, 4)


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


@settings(max_examples=150, derandomize=True, deadline=None)
@given(law_pairs(), st.integers(0, 12))
def test_packed_convolution_matches_sparse_reference(pq, n):
    p, q = pq
    assert convolution_power(p, n) == sparse_power(p, n)
    assert convolve(p, q) == sparse_convolve(p, q)
    assert convolve(p, p) == sparse_convolve(p, p)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(law_pairs(), st.lists(st.integers(0, 12), min_size=1, max_size=6))
def test_power_ladder_matches_sparse_reference(pq, steps):
    # unsorted, repeated and zero steps, each against n sparse convolutions
    p, _ = pq
    got = list(dancewalk.measure._powers(p, steps))
    assert [n for n, _ in got] == sorted(steps)
    for n, law in got:
        den, nums = law._den, law._nums
        want = {x.coords(): w for x, w in sparse_power(p, n).items()}
        assert {c: Fraction(v, den) for c, v in nums.items()} == want


@settings(max_examples=100, derandomize=True, deadline=None)
@given(law_pairs(), st.integers(0, 6))
def test_kronecker_and_pairwise_kernels_agree(pq, n):
    p, q = pq
    pn = sparse_power(p, n)
    basis = dancewalk.measure._lattice(p.group, (pn, q))
    moduli = p.group.torsion_moduli + (0,) * len(basis)
    _, (da, na) = dancewalk.measure._pack_law(pn, basis)
    _, (db, nb) = dancewalk.measure._pack_law(q, basis)
    lo_a, lo_b, sides = dancewalk.measure._box(na, nb)
    packed = dancewalk.measure._kronecker(na, nb, lo_a, lo_b, sides, moduli, da * db)
    assert packed == dancewalk.measure._pairwise(na, nb, moduli)


def recorded_boxes(monkeypatch):
    """A list that collects the cell count of every box the packed kernel fills."""
    boxes = []
    pack = dancewalk.measure._pack

    def recording_pack(nums, lo, strides, width, size):
        boxes.append(size)
        return pack(nums, lo, strides, width, size)

    monkeypatch.setattr(dancewalk.measure, "_pack", recording_pack)
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
    ident = Homomorphism.identity(Z2)
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
    assert flat.group.is_trivial
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


@settings(max_examples=150, derandomize=True, deadline=None)
@given(laws_and_maps())
def test_pushforwards_match_fraction_references(case):
    p, f = case
    assert pushforward(p, f) == reference_pushforward(p, f)
    assert torsion_pushforward(p) == reference_torsion_pushforward(p)


def test_sample_path_contracts():
    p = z12_walk()
    assert sample_path(p, 0, 7).positions == (Z12.identity(),)
    a = sample_path(p, 50, 123456789)
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
