import cmath
import gc
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings, strategies as st

import dancewalk.dance
from dancewalk.group import DualPoint, GroupSpec, Homomorphism, Subgroup, subgroup_generated
from dancewalk.group import UnsupportedOperationError
from dancewalk.intlinalg import IntMatrix
from dancewalk.measure import Distribution, convolution_power, pushforward, torsion_pushforward
from dancewalk.dance import (
    SpectralGap,
    analyze_dance,
    dance_of,
    spectral_gap,
    theta_by_integration,
)
from dancewalk.llt import classify
from dancewalk.scenarios import elevator1, elevator2, spitzer, z4z6_walk, z9_walk, z12_walk
from reference import (
    _cyclotomic,
    char_fn,
    omega_contains,
    reference_spectral_gap,
    theta_by_fraction_integration,
)

Z12 = GroupSpec([12])
Z9 = GroupSpec([9])
Z2 = GroupSpec((), 2)
Z4Z = GroupSpec([4], 1)
Z4Z6 = GroupSpec([4, 6])


def test_analyze_dance_z12():
    d = analyze_dance(z12_walk())
    assert d.walk_subgroup == subgroup_generated(Z12, [Z12.element([3])])
    assert d.normalization_c == 3
    assert d.rank_d == 0
    assert d.omega_invariants == ((3,), 0)


def test_analyze_dance_spitzer():
    d = analyze_dance(spitzer())
    assert d.walk_subgroup == subgroup_generated(Z2, [Z2.element((), [1, -1])])
    assert d.rank_d == 1
    assert d.normalization_c == 1
    assert d.omega_invariants == ((), 1)  # the locus is a full circle


def test_analyze_dance_elevators():
    d1 = analyze_dance(elevator1())
    assert d1.rank_d == 0
    assert d1.normalization_c == 2
    assert d1.omega_invariants == ((2,), 1)
    assert d1.walk_subgroup == subgroup_generated(Z4Z, [Z4Z.element([2], [0])])
    d2 = analyze_dance(elevator2())
    assert d2.rank_d == 1
    assert d2.normalization_c == 2
    assert d2.omega_invariants == ((2,), 0)


def test_theta_z12():
    p = z12_walk()
    d = analyze_dance(p)
    for n in range(12):
        for x in Z12.elements():
            expected = 3 if (x.torsion[0] + n) % 3 == 0 else 0
            assert d.theta(n, x) == expected
    assert d.theta(0, Z12.identity()) == 3
    assert dance_of(p).theta(5, Z12.element([1])) == 3


def test_theta_spitzer_is_diagonal_delta():
    d = analyze_dance(spitzer())
    for n in range(12):
        for x in range(-4, 15):
            for y in range(-4, 15):
                expected = 1 if x + y == n else 0
                assert d.theta(n, Z2.element((), [x, y])) == expected


def test_theta_elevators():
    d1 = analyze_dance(elevator1())
    for n in range(6):
        for a in range(4):
            for c in range(-2, 7):
                expected = (1 + (-1) ** (n - a)) * (1 if c == n else 0)
                assert d1.theta(n, Z4Z.element([a], [c])) == expected
    d2 = analyze_dance(elevator2())
    for n in range(6):
        for a in range(4):
            for b in range(-5, 6):
                assert d2.theta(n, Z4Z.element([a], [b])) == 1 + (-1) ** (n - a - b)


def test_theta_by_integration_matches_theta():
    for p in [z12_walk(), z9_walk(1, 4), z9_walk(1, 3), z9_walk(0, 3), z4z6_walk()]:
        d = analyze_dance(p)
        g = p.group
        for n in range(13):
            for x in g.elements():
                val = theta_by_integration(p, n, x)
                assert val == pytest.approx(d.theta(n, x), abs=1e-9)


def test_theta_by_integration_trivial_group():
    g = GroupSpec()
    p = Distribution.point_mass(g)
    assert theta_by_integration(p, 3, g.identity()) == pytest.approx(1.0)
    with pytest.raises(UnsupportedOperationError):
        theta_by_integration(spitzer(), 1, Z2.identity())


def test_char_fn_values():
    p = z12_walk()
    assert char_fn(p, DualPoint(Z12, [0], ())) == pytest.approx(1.0)
    assert abs(char_fn(p, DualPoint(Z12, [6], ()))) < 1e-12
    assert abs(char_fn(p, DualPoint(Z12, [1], ()))) == pytest.approx(1 / math.sqrt(2))
    assert abs(char_fn(p, DualPoint(Z12, [4], ()))) == pytest.approx(1.0)


def test_omega_contains_examples():
    p = z12_walk()
    assert omega_contains(p, DualPoint(Z12, [4], ()))
    assert omega_contains(p, DualPoint(Z12, [8], ()))
    assert not omega_contains(p, DualPoint(Z12, [3], ()))
    assert omega_contains(p, DualPoint(Z12, [0], ()))
    p2 = elevator2()
    assert omega_contains(p2, DualPoint(Z4Z, [2], [Fraction(1, 2)]))
    assert not omega_contains(p2, DualPoint(Z4Z, [2], [0]))
    assert not omega_contains(p2, DualPoint(Z4Z, [0], [Fraction(1, 2)]))
    sp = spitzer()
    assert omega_contains(sp, DualPoint(Z2, (), [Fraction(1, 3), Fraction(1, 3)]))
    assert not omega_contains(sp, DualPoint(Z2, (), [Fraction(1, 3), Fraction(2, 3)]))


def test_omega_finite_enumeration_matches_annihilator():
    rng = random.Random(0xDA7CE)
    pool = [GroupSpec([n]) for n in (2, 3, 4, 6, 8, 9, 12, 25, 36, 60, 128, 199, 200)] + [
        GroupSpec([2, 4]), GroupSpec([4, 6]), GroupSpec([2, 2, 2]), GroupSpec([5, 5]),
        GroupSpec([2, 10]), GroupSpec([3, 9]), GroupSpec([13, 13]),
    ]
    for _ in range(200):
        p = random_finite_walk(rng, pool)
        g = p.group
        ann = analyze_dance(p).walk_subgroup.annihilator()
        brute = {chars for chars in itertools.product(*(range(m) for m in g.torsion_moduli))
                 if omega_contains(p, DualPoint(g, chars, ()))}
        assert brute == {e.torsion for e in ann.elements()}


def test_spectral_gap_z9():
    assert spectral_gap(z9_walk(1, 4)).rho == pytest.approx(0.5, abs=1e-12)
    rho = spectral_gap(z9_walk(1, 3)).rho
    expected = 0.5 * math.sqrt(2 + math.sqrt(3) * math.sin(math.pi / 9) + math.cos(math.pi / 9))
    assert rho == pytest.approx(expected, abs=1e-9)
    assert rho < 0.94
    # the maximum is attained at character 4 (and its negative, 5)
    assert abs(char_fn(z9_walk(1, 3), DualPoint(Z9, [4], ()))) == pytest.approx(expected, abs=1e-12)
    assert abs(char_fn(z9_walk(1, 3), DualPoint(Z9, [1], ()))) < expected - 0.1


def test_spectral_gap_elevators_and_z4z6():
    assert spectral_gap(elevator1()).rho == 0.0
    assert spectral_gap(elevator1()).achieved_at is None
    assert spectral_gap(z4z6_walk()).rho == pytest.approx(math.sqrt(2 + math.sqrt(3)) / 2,
                                                          abs=1e-12)
    # torsion projection of the diffusive elevator: rho = 1/2 at alpha = 1
    gap = spectral_gap(elevator2())
    assert gap.rho == pytest.approx(0.5, abs=1e-12)


def test_cyclotomic_polynomials():
    for n in range(1, 61):
        cyc = _cyclotomic(n)
        assert len(cyc) - 1 == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        for k in range(1, n + 1):
            if math.gcd(k, n) == 1:
                z = cmath.exp(2j * cmath.pi * k / n)
                assert abs(sum(c * z ** i for i, c in enumerate(cyc))) < 1e-6
    assert -2 in _cyclotomic(105)  # the first cyclotomic coefficient outside {-1, 0, 1}


@st.composite
def torsion_laws(draw):
    """A law on a group with torsion, for the spectral-gap scan.

    Shapes: cyclic, non-chain Z_2 x Z_3 x Z_6, three torsion axes, and two
    torsion axes with a constant (rank_d = 0) or a varying free part.
    Weights: random, uniform, or uniform on a coset of a cyclic subgroup,
    where every character off the locus is an exact zero.
    """
    shape = draw(st.sampled_from(
        ["cyclic", "non-chain", "three-axis", "constant-free", "varying-free"]))
    rank = 0
    if shape == "cyclic":
        moduli = [draw(st.integers(2, 40))]
    elif shape == "non-chain":
        moduli = [2, 3, 6]
    elif shape == "three-axis":
        moduli = [draw(st.integers(2, 5)) for _ in range(3)]
    else:
        moduli = [draw(st.integers(2, 8)), draw(st.integers(2, 8))]
        rank = draw(st.integers(1, 2))
    g = GroupSpec(moduli, rank)
    residues = st.tuples(*[st.integers(0, m - 1) for m in moduli])
    free = st.tuples(*[st.integers(-2, 2)] * rank)
    fixed_free = draw(free)
    weights_kind = draw(st.sampled_from(["random", "uniform", "coset"]))
    if weights_kind == "coset":
        x0, h = draw(residues), draw(residues)
        tors = []
        while not tors or tors[-1] != x0:
            j = len(tors) + 1
            tors.append(tuple((a + j * b) % m for a, b, m in zip(x0, h, moduli)))
    else:
        tors = draw(st.lists(residues, min_size=2, max_size=5))
    points = [g.element(t, draw(free) if shape == "varying-free" else fixed_free) for t in tors]
    if weights_kind == "random":
        weights = {}
        for x in points:
            weights[x] = weights.get(x, 0) + draw(st.integers(1, 6))
    else:
        weights = dict.fromkeys(points, 1)
    total = sum(weights.values())
    return Distribution(g, {x: Fraction(w, total) for x, w in weights.items()})


def _uniform(g: GroupSpec, points) -> Distribution:
    return Distribution(g, {g.element_from_coords(x): Fraction(1, len(points)) for x in points})


@seed(0x2806e9fed9f3dddb1abfd6d751ecff6d4b5c350f119eba212907510e9cfbc53b74ddfeed6e1118647fe4305dbbaa3162)
@settings(max_examples=300, derandomize=True, deadline=None)
@given(torsion_laws())
# the maximum beside the exact zeros at (4, 8) and (8, 4)
@example(_uniform(GroupSpec([12, 12]), [[0, 0], [1, 0], [0, 1]]))
# uniform on a coset of the non-cyclic subgroup <(1, 0, 0), (0, 0, 3)>
@example(_uniform(GroupSpec([2, 3, 6]), [[0, 1, 1], [1, 1, 1], [0, 1, 4], [1, 1, 4]]))
# W is infinite, and p_A is uniform on Z_2: rho is the exact 0 of p_A's own walk
# subgroup (the float scan reads 6.1e-17 at (1,))
@example(_uniform(GroupSpec([2], 1), [[0, 1], [1, -1]]))
def test_spectral_gap_matches_fraction_reference(p):
    ref = reference_spectral_gap(p)
    for gap in (spectral_gap(p), spectral_gap(torsion_pushforward(p))):  # p only through p_A
        assert gap.rho.hex() == ref.rho.hex()
        assert gap.achieved_at == ref.achieved_at


def test_exact_zero_characters_match_reference():
    p = _uniform(GroupSpec([60, 60]), [[0, 0], [1, 0], [0, 1]])
    gap, ref = spectral_gap(p), reference_spectral_gap(p)
    # the characters (20, 40) and (40, 20) give 1 + w + w^2 = 0 and are not the maximum
    assert gap.rho.hex() == ref.rho.hex()
    assert gap.achieved_at == ref.achieved_at
    gap = spectral_gap(_uniform(GroupSpec([3]), [[0], [1], [2]]))
    assert gap.rho == 0.0
    assert gap.achieved_at is None


def test_uniform_coset_law_is_decided_before_the_scan(monkeypatch):
    # |S| = |W_A| with equal weights gives rho = 0 from one Hermite form,
    # without drawing a character from Subgroup.element_coords
    drawn = []
    element_coords = Subgroup.element_coords
    monkeypatch.setattr(Subgroup, "element_coords",
                        lambda h, *args: (drawn.append(c) or c for c in element_coords(h, *args)))
    z60 = GroupSpec([60, 60])
    for p in (_uniform(z60, [[a, b] for a in range(0, 60, 3) for b in range(0, 60, 4)]),
              _uniform(GroupSpec([2, 3, 6]), [[0, 1, 1], [1, 1, 1], [0, 1, 4], [1, 1, 4]]),
              elevator1()):
        assert spectral_gap(p) == SpectralGap(rho=0.0, achieved_at=None)
    assert drawn == []
    spectral_gap(_uniform(z60, [[0, 0], [1, 0], [0, 1]]))  # not a coset: every character
    assert len(drawn) == 3600


def test_root_cache_stays_bounded(monkeypatch):
    # Z_5003 has 5003 phases; the scan keeps at most 4096 roots of unity,
    # and the gap is bit for bit what an unbounded cache gives
    caches = []
    lru_cache = dancewalk.dance.lru_cache

    def spy(*args, **kwargs):
        def wrap(fn):
            caches.append(lru_cache(*args, **kwargs)(fn))
            return caches[-1]
        return wrap

    monkeypatch.setattr(dancewalk.dance, "lru_cache", spy)
    z5003 = GroupSpec([5003])
    for weights, rho in [((Fraction(1, 2), Fraction(1, 2), 0), "0x1.fffff96272a33p-1"),
                         ((Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)),
                          "0x1.ffff642b8eeacp-1")]:
        p = Distribution(z5003, {z5003.element([x]): w
                                 for x, w in zip((0, 1, 7), weights) if w})
        gap = spectral_gap(p)
        assert gap.rho.hex() == rho
        assert gap.achieved_at == DualPoint(z5003, (1,), ())
        assert 0 < caches[-1].cache_info().currsize <= 4096
    assert len(caches) == 2


def test_gap_scan_holds_no_tuple_of_residues():
    # the scan steps its last axis as a lazy range: on Z_10007 it holds the
    # root cache, and no tuple of 10007 residues beside it
    z = GroupSpec([10007])
    p = Distribution(z, {z.element([0]): Fraction(1, 2), z.element([1]): Fraction(1, 2)})
    dance_of(p)
    gc.disable()
    tracemalloc.start()
    try:
        spectral_gap(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak < 1 << 20


def test_gap_below_rounding_bound_is_within_it():
    # one character of modulus 6e-30: the scan can only report it within
    # its rounding bound (|S| + 16) * 2**-52
    z6 = GroupSpec([6])
    p = Distribution(z6, {z6.element([x]): Fraction(1, 6) + Fraction((-1) ** x, 10 ** 30)
                          for x in range(6)})
    assert abs(spectral_gap(p).rho - 6e-30) <= (6 + 16) * 2.0 ** -52


def test_classification_period_is_given_for_irreducible_walks():
    # the period is Classification.period, given only for irreducible walks
    assert classify(z12_walk()).period == 3
    assert classify(z9_walk(1, 3)).period == 1
    c = classify(spitzer())
    assert c.irreducible == "no" and c.period is None


def test_base_point_independence_of_dance():
    rng = random.Random(321)
    groups = [Z12, Z4Z6, Z4Z, Z2]
    for _ in range(60):
        g = rng.choice(groups)
        pts = set()
        for _ in range(rng.randrange(1, 4)):
            pts.add(g.element([rng.randrange(m) for m in g.torsion_moduli],
                              [rng.randrange(-3, 4) for _ in range(g.free_rank)]))
        pts = sorted(pts)
        weights = {x: Fraction(1, len(pts)) for x in pts}
        p = Distribution(g, weights)
        d = analyze_dance(p)
        # dance values do not depend on which support point anchors the coset
        for n in range(5):
            for _ in range(5):
                x = g.element([rng.randrange(m) for m in g.torsion_moduli],
                              [rng.randrange(-6, 7) for _ in range(g.free_rank)])
                vals = {d.normalization_c if d.walk_subgroup.contains(x - n * x0) else 0
                        for x0 in pts}
                assert vals == {d.theta(n, x)}


def test_support_law():
    rng = random.Random(654)
    groups = [GroupSpec([m]) for m in (2, 3, 4, 6, 9, 12)] + [
        GroupSpec([2, 4]), Z4Z6, GroupSpec((), 1), Z2, GroupSpec([3], 1), Z4Z]
    for _ in range(40):
        g = rng.choice(groups)
        pts = set()
        for _ in range(rng.randrange(1, 4)):
            pts.add(g.element([rng.randrange(m) for m in g.torsion_moduli],
                              [rng.randrange(-2, 3) for _ in range(g.free_rank)]))
        pts = sorted(pts)
        p = Distribution(g, {x: Fraction(1, len(pts)) for x in pts})
        d = analyze_dance(p)
        pn = p
        for n in range(1, 16):
            for x in pn.support():
                assert d.theta(n, x) > 0
            pn = convolution_power(p, n + 1)


def test_support_equality_for_rank_zero_large_n():
    # at large steps the walk fills its whole live coset (finite examples)
    for p in [z12_walk(), z9_walk(1, 4), z9_walk(0, 3), z4z6_walk()]:
        d = analyze_dance(p)
        pn = convolution_power(p, 50)
        live = {x for x in p.group.elements() if d.theta(50, x) > 0}
        assert set(pn.support()) == live
    p1 = elevator1()
    d1 = analyze_dance(p1)
    pn = convolution_power(p1, 50)
    assert {x.coords() for x in pn.support()} == set(d1.coset_coords(50))


def test_live_coset_walk_matches_brute_force():
    # W + n*x0 for dancing walks (c > 1) and for finite W on Z_4 x Z, where
    # n*x0 has a nonzero free part, against every torsion residue tested
    half = Fraction(1, 2)
    mixed = [Distribution(Z4Z, {Z4Z.element([a], [b]): half for a, b in pts})
             for pts in (((0, 1), (1, 1)), ((0, 1), (2, 1)), ((1, 1), (3, 1)))]
    for p in [z12_walk(), z9_walk(1, 4), z9_walk(0, 3), z4z6_walk(), elevator1()] + mixed:
        d = analyze_dance(p)
        g = p.group
        for n in (0, 1, 7, 50):
            free = (n * d.base_point).free
            brute = sorted(y + free for y in itertools.product(*map(range, g.torsion_moduli))
                           if d.theta(n, g.element_from_coords(y + free)))
            assert list(d.coset_coords(n)) == brute
    assert sum(analyze_dance(p).normalization_c > 1 for p in mixed) == 2
    assert list(analyze_dance(mixed[0]).coset_coords(7)) == [(0, 7), (1, 7), (2, 7), (3, 7)]


def test_finite_mass_identity():
    # |Omega| * |W| = |G| on finite groups
    rng = random.Random(222)
    for _ in range(60):
        g = rng.choice([Z12, Z9, Z4Z6, GroupSpec([2, 4])])
        pts = sorted({g.element([rng.randrange(m) for m in g.torsion_moduli])
                      for _ in range(rng.randrange(1, 4))})
        p = Distribution(g, {x: Fraction(1, len(pts)) for x in pts})
        d = analyze_dance(p)
        assert d.normalization_c * d.walk_subgroup.order() == g.order


def test_period_multiple_of_base_point_lands_in_subgroup():
    for p, s in [(z12_walk(), 3), (z9_walk(1, 4), 3), (z4z6_walk(), 2), (z9_walk(1, 3), 1)]:
        d = analyze_dance(p)
        assert d.walk_subgroup.contains(s * d.base_point)


def test_factorization_at_locus_points():
    # characteristic function factors through the unit-modulus locus:
    # p_hat(xi0 + eta) = p_hat(xi0) * q_hat(eta) for xi0 in the locus and
    # eta a pure free-part character, q the free-part marginal
    p2 = elevator2()
    z = GroupSpec((), 1)
    heights = Homomorphism(Z4Z, z, IntMatrix([[0, 1]]))
    q = pushforward(p2, heights)
    for xi0 in [DualPoint(Z4Z, [0], [0]), DualPoint(Z4Z, [2], [Fraction(1, 2)])]:
        assert omega_contains(p2, xi0)
        for num in range(8):
            eta = Fraction(num, 8)
            shifted = DualPoint(Z4Z, xi0.torsion_chars, [xi0.torus_angles[0] + eta])
            lhs = char_fn(p2, shifted)
            rhs = char_fn(p2, xi0) * char_fn(q, DualPoint(z, (), [eta]))
            assert abs(lhs - rhs) < 1e-12


def random_finite_walk(rng, pool, max_points=3):
    """A walk on a group from pool with 1 to max_points points and weights in eighths."""
    g = rng.choice(pool)
    pts = sorted({g.element([rng.randrange(m) for m in g.torsion_moduli])
                  for _ in range(rng.randrange(1, max_points + 1))})
    cuts = sorted(rng.randrange(1, 8) for _ in range(len(pts) - 1)) + [8]
    prev, weights = 0, {}
    for x, cut in zip(pts, cuts):
        if cut > prev:
            weights[x] = Fraction(cut - prev, 8)
        prev = cut
    return Distribution(g, weights)


def test_theta_by_integration_random_mixed_groups():
    rng = random.Random(99991)
    pool = [GroupSpec([n]) for n in (4, 6, 9, 12, 15)] + [
        GroupSpec([2, 4]), GroupSpec([4, 6]), GroupSpec([3, 6]), GroupSpec([2, 2, 3])]
    for _ in range(60):
        p = random_finite_walk(rng, pool)
        d = analyze_dance(p)
        for n in range(0, 6):
            for x in p.group.elements():
                assert abs(theta_by_integration(p, n, x) - d.theta(n, x)) < 1e-9


def test_theta_by_integration_is_bit_identical_to_fraction_reference():
    # Integer phases j mod L give float(Fraction(j, L)) == j / L, so the
    # integration oracle must equal the Fraction route exactly, not nearly.
    rng = random.Random(20261018)
    pool = [GroupSpec([n]) for n in (2, 7, 10)] + [
        GroupSpec([3, 5]), GroupSpec([4, 6]), GroupSpec([2, 3, 4]), GroupSpec([2, 2, 2, 2])]
    for _ in range(60):
        p = random_finite_walk(rng, pool, max_points=5)
        for n in (0, 1, 5):
            for x in p.group.elements():
                assert theta_by_integration(p, n, x) == theta_by_fraction_integration(p, n, x)


def test_gaussian_envelope_near_zero():
    # |q_hat(eta)| <= exp(-eta.Gamma.eta/4) on a small grid, radian angles
    cases = []
    z = GroupSpec((), 1)
    heights = Homomorphism(Z4Z, z, IntMatrix([[0, 1]]))
    cases.append((pushforward(elevator2(), heights), 0.5))
    proj = Homomorphism(Z2, z, IntMatrix([[1, 0]]))
    cases.append((pushforward(spitzer(), proj), 0.25))
    for q, gamma in cases:
        for j in range(-20, 21):
            eta = 0.1 * j / 20
            val = sum(complex(w) * complex(math.cos(eta * x.free[0]), math.sin(eta * x.free[0]))
                      for x, w in q.items())
            assert abs(val) <= math.exp(-eta * gamma * eta / 4) + 1e-12
