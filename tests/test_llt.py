import cmath
import contextlib
import gc
import io
import itertools
import json
import math
import random
import re
import sys
import time
import tracemalloc
import weakref
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, seed, settings, strategies as st

import dancewalk.llt
from dancewalk.group import DualPoint, Element, GroupSpec, Homomorphism, whole_group
from dancewalk.group import UnsupportedOperationError
from dancewalk.intlinalg import (AffinePointSet, IntMatrix, InvariantViolationError,
                                 twist_to_coordinates)
from dancewalk.cli import main
from dancewalk.measure import (Distribution, _powers, convolution_power, convolve, pushforward,
                                torsion_pushforward)
from dancewalk.dance import DanceData, analyze_dance, spectral_gap
from dancewalk.llt import (
    Attractor,
    MomentData,
    _evaluated_window,
    _semigroup_witness,
    _sup_errors,
    _tv_series,
    build_attractor,
    classify,
    llt_sup_error,
    mean_cov,
    time_average_error,
    tv_to_uniform_coset,
)
from dancewalk.scenarios import elevator1, elevator2, spitzer, z4z6_walk, z9_walk, z12_walk
from reference import (attractor_eval, char_fn, closure, dump_spec, evaluation_window,
                       gaussian_kernel, rational_inverse, sparse_convolve, sparse_power)

Z12 = GroupSpec([12])
Z1 = GroupSpec((), 1)
Z2 = GroupSpec((), 2)

half = Fraction(1, 2)
quarter = Fraction(1, 4)


def _uniform(g, steps):
    return Distribution(g, {g.element(t, f): Fraction(1, len(steps)) for t, f in steps})


DRIFT_Z2 = _uniform(Z2, [((), (0, 0)), ((), (1, 0)), ((), (0, 1))])
SHEARED_LAZY_Z2 = _uniform(Z2, [((), (0, 0)), ((), (1, 1)), ((), (-1, -1)), ((), (1, 0)),
                                ((), (-1, 0))])
TWISTED_Z4_Z2 = _uniform(GroupSpec([4], 2), [((1,), (1, 0)), ((3,), (0, 1)), ((1,), (2, -1))])
# W_t = W ∩ Tor(G) = <(1, 1)>, of order 4, is not a product of coordinate subgroups; c = 2
DIAGONAL_Z2_Z4_Z = _uniform(GroupSpec([2, 4], 1), [((0, 0), (0,)), ((1, 1), (0,)), ((0, 0), (1,))])


def test_mean_cov_examples():
    d0 = Distribution.point_mass(Z1)
    m = mean_cov(d0)
    assert m.mean == (0,) and m.covariance == ((0,),)
    bern = Distribution(Z1, {Z1.element((), [0]): half, Z1.element((), [1]): half})
    m = mean_cov(bern)
    assert m.mean == (half,) and m.covariance == ((quarter,),)
    lazy = Distribution(Z1, {Z1.element((), [-1]): quarter, Z1.element((), [0]): half,
                             Z1.element((), [1]): quarter})
    m = mean_cov(lazy)
    assert m.mean == (0,) and m.covariance == ((half,),)
    with pytest.raises(ValueError):
        mean_cov(z12_walk())


def reference_mean_cov(q):
    """Moments summed as Fractions over Elements."""
    d = q.group.free_rank
    mean = [Fraction(0)] * d
    for x, w in q.items():
        for i in range(d):
            mean[i] += w * x.free[i]
    cov = [[Fraction(0)] * d for _ in range(d)]
    for x, w in q.items():
        for i in range(d):
            for j in range(d):
                cov[i][j] += w * x.free[i] * x.free[j] - w * mean[i] * mean[j]
    return MomentData(d, tuple(mean), tuple(tuple(r) for r in cov))


@seed(0x16c37226bec02eba47d2f8500a06a43ce8aa687c81f645695c8559f1c79acbdc400f7c8c174ecfa35a4caa89968607f)
@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.dictionaries(
    st.tuples(*[st.integers(-4, 4)] * d), st.integers(0, 6), min_size=1, max_size=6)))
def test_mean_cov_matches_fraction_reference(weights):
    d = len(next(iter(weights)))
    total = sum(weights.values())
    if total == 0:
        weights, total = {next(iter(weights)): 1}, 1
    g = GroupSpec((), d)
    q = Distribution(g, {g.element((), x): Fraction(a, total) for x, a in weights.items()})
    assert mean_cov(q) == reference_mean_cov(q)


def test_positive_definiteness_check():
    good = MomentData(2, (Fraction(0), Fraction(0)),
                      ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(2))))
    assert good.is_positive_definite()
    bad = MomentData(2, (Fraction(0), Fraction(0)),
                     ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(1))))
    assert not bad.is_positive_definite()


def test_gaussian_kernel_values():
    m = MomentData(1, (Fraction(0),), ((quarter,),))
    for n in (4, 25, 100):
        assert gaussian_kernel(m, n, [0]) == pytest.approx(math.sqrt(2 / (math.pi * n)))
    m2 = MomentData(2, (Fraction(0), Fraction(0)),
                    ((Fraction(3), Fraction(1)), (Fraction(1), Fraction(2))))
    det = 5.0
    assert gaussian_kernel(m2, 1, [0, 0]) == pytest.approx(1 / (2 * math.pi * math.sqrt(det)))
    mhalf = MomentData(1, (Fraction(0),), ((half,),))
    for b in (-3, 0, 2):
        assert gaussian_kernel(mhalf, 50, [b]) == pytest.approx(
            math.exp(-b * b / 50) / math.sqrt(math.pi * 50))
    with pytest.raises(ValueError):
        gaussian_kernel(m, 0, [0])
    with pytest.raises(ValueError):
        gaussian_kernel(MomentData(1, (Fraction(0),), ((Fraction(0),),)), 1, [0])


def test_build_attractor_spitzer():
    p = spitzer()
    a = build_attractor(p)
    assert a.rank_d == 1
    assert a.moments.mean == (half,)
    assert a.moments.covariance == ((quarter,),)
    assert p.group.torsion_order == 1
    # phi is the first twisted coordinate: here phi(x, y) = x
    assert a.phi.matrix == IntMatrix([[1, 0]])
    assert a.phi(Z2.element((), [3, 9])).free == (3,)


def test_build_attractor_elevators():
    p1 = elevator1()
    a1 = build_attractor(p1)
    assert a1.rank_d == 0
    assert p1.group.torsion_order == 4
    a2 = build_attractor(elevator2())
    assert a2.rank_d == 1
    assert a2.moments.mean == (Fraction(0),)
    assert a2.moments.covariance == ((half,),)


def test_attractor_eval_z12():
    p = z12_walk()
    a = build_attractor(p)
    for n in range(1, 25):
        for x in Z12.elements():
            expected = 0.25 if (x.torsion[0] + n) % 3 == 0 else 0.0
            assert attractor_eval(a, n, x) == expected


def test_attractor_eval_spitzer_formula():
    a = build_attractor(spitzer())
    for n in (10, 25):
        for x in range(0, n + 1):
            y = n - x
            val = attractor_eval(a, n, Z2.element((), [x, y]))
            expected = math.sqrt(2 / (math.pi * n)) * math.exp(-((x - y) ** 2) / (2 * n))
            assert val == pytest.approx(expected, rel=1e-12)
        assert attractor_eval(a, n, Z2.element((), [0, n + 1])) == 0.0


def test_sup_error_series_equals_each_step_alone():
    # one ladder for the series; every report as llt_sup_error gives it, in sorted order
    for p, steps in ((z12_walk(), (12, 10, 11)), (elevator1(), (4, 1)),
                     (elevator2(), (9, 2, 5)), (spitzer(), (6, 3))):
        a = build_attractor(p)
        assert list(_sup_errors(p, a, steps)) == [llt_sup_error(p, a, n) for n in sorted(steps)]
    with pytest.raises(ValueError):
        list(_sup_errors(p, a, (3, 0)))


def test_attractor_mass_near_one():
    for p in (spitzer(), elevator2()):
        a = build_attractor(p)
        n = 200
        window = evaluation_window(convolution_power(p, n), a, n)
        mass = sum(attractor_eval(a, n, x) for x in window)
        assert abs(mass - 1) < 0.02


def test_attractor_mass_random_rank_one_walks():
    rng = random.Random(99991)
    pool = [GroupSpec([2], 1), GroupSpec([3], 1), GroupSpec((), 1), GroupSpec([4], 1)]
    done = 0
    while done < 4:
        g = rng.choice(pool)
        pts = sorted({g.element([rng.randrange(m) for m in g.torsion_moduli],
                                [rng.randrange(-2, 3)]) for _ in range(rng.randrange(2, 5))})
        if len({x.free for x in pts}) < 2:
            continue
        done += 1
        p = Distribution(g, {x: Fraction(1, len(pts)) for x in pts})
        a = build_attractor(p)
        n = 120
        pn = convolution_power(p, n)
        mass = sum(attractor_eval(a, n, x) for x in evaluation_window(pn, a, n))
        assert abs(mass - 1) < 0.05, (g, pts, mass)


def test_time_average_s1_reduces_to_sup_error():
    p = z9_walk(1, 3)
    a = build_attractor(p)
    for n in (5, 12):
        assert time_average_error(p, a, n, 1) == pytest.approx(
            float(llt_sup_error(p, a, n).sup_error_exact), abs=1e-15)


def test_time_average_exponential_on_z9_and_diffusive_on_the_elevator():
    started = time.perf_counter()
    p14 = z9_walk(1, 4)
    a14 = build_attractor(p14)
    for n in range(1, 26):
        err = time_average_error(p14, a14, n, 3)
        assert err <= (8 / 9) * 0.5 ** n * (1 + 1e-9), f"n={n}"
    p2 = elevator2()
    a2 = build_attractor(p2)
    scaled = [math.sqrt(n) * time_average_error(p2, a2, n, 2) for n in (25, 50, 100, 200)]
    assert all(x > y for x, y in zip(scaled, scaled[1:]))
    assert time.perf_counter() - started < 30.0


def test_time_average_counts_support_beyond_the_window():
    # A near-Gaussian bulk (sd 30, cut at 2.7 sd) and mass 1/2000 at each of
    # -255 and 255, beyond 8 sd of the whole law: the error there is that
    # mass, and it exceeds the error at every point of the window.
    bulk = {x: round(10 ** 6 * math.exp(-x * x / 1800)) for x in range(-81, 82)}
    den = 2000 * sum(bulk.values())
    nums = {x: 1998 * v for x, v in bulk.items()}
    nums[-255] = nums[255] = sum(bulk.values())
    p = Distribution(Z1, {Z1.element((), [x]): Fraction(v, den) for x, v in nums.items()})
    a = build_attractor(p)
    assert 255 > 8 * math.sqrt(a.moments.covariance[0][0])
    assert time_average_error(p, a, 1, 1) == pytest.approx(1 / 2000, rel=1e-9)


class _Numerators(dict):
    """A numerator dict that a weak reference can watch."""


def test_time_average_holds_one_law_at_a_time(monkeypatch):
    # period 4 on Z_4 x Z_5: each step's numerators are released
    # before the ladder draws the next one
    released, powers = [], _powers

    def spy(p, steps):
        for n, den, nums in powers(p, steps):
            nums = _Numerators(nums)
            ref = weakref.ref(nums)
            yield n, den, nums
            del nums
            released.append(ref() is None)

    monkeypatch.setattr(dancewalk.llt, "_powers", spy)
    g = GroupSpec([4, 5])
    p = _uniform(g, [((1, 0), ()), ((1, 1), ()), ((1, 3), ())])
    err = time_average_error(p, build_attractor(p), 6, 4)
    assert released == [True] * 4
    assert err == pytest.approx(max(abs(float(sum(convolution_power(p, m).weight(x)
                                                  for m in range(6, 10)) / 4) - 1 / 20)
                                    for x in g.elements()), abs=1e-15)


def test_evaluated_window_rejects_support_off_the_live_coset():
    # elevator2 lives on torsion + free = n (mod 2): flipping a residue leaves the coset
    p, n = elevator2(), 3
    a = build_attractor(p)
    (_, _, nums), = _powers(p, (n,))
    window = {x: f for x, _, f in _evaluated_window(nums, a, n)}
    far = (0, 1001)  # on the live coset, beyond 8 standard deviations
    assert far not in window
    got = {x: f for x, _, f in _evaluated_window({**nums, far: 0}, a, n)}
    assert got.keys() == window.keys() | {far} and got[far] == 0.0
    for x in ((0, 0), (1, 1001)):  # off the coset: inside the window's box, and far beyond it
        with pytest.raises(InvariantViolationError):
            _evaluated_window({**nums, x: 1}, a, n)


def test_finite_window_rejects_support_off_the_live_coset():
    # d = 0: each key x of the law is tested by x - n*x0 in W; the live coset
    # is {1, 4, 7, 10} for z12 at n = 2
    p, n = z12_walk(), 2
    a = build_attractor(p)
    (_, _, nums), = _powers(p, (n,))
    assert [x for x, *_ in _evaluated_window(nums, a, n)] == [(1,), (4,), (7,), (10,)]
    for x in ((0,), (5,), (11,)):  # below, between and above the coset's points
        with pytest.raises(InvariantViolationError):
            _evaluated_window({**nums, x: 1}, a, n)


def test_finite_window_holds_no_list_of_the_live_coset():
    # d = 0 on Z_300 x Z_300: the live coset is all 90000 points, walked from
    # W's Hermite rows, and the first rows come with no list of them
    g = GroupSpec([300, 300])
    p = _uniform(g, [((0, 0), ()), ((1, 0), ()), ((0, 1), ())])
    a = build_attractor(p)
    (_, _, nums), = _powers(p, (1,))
    gc.disable()
    tracemalloc.start()
    try:
        rows = list(itertools.islice(_evaluated_window(nums, a, 1), 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak < 256 << 10
    assert rows == [((0, 0), 1, 1 / 90000), ((0, 1), 1, 1 / 90000), ((0, 2), 0, 1 / 90000)]


# 1/2 on (1, 1) and (1, -1) in Z_3 x Z: period 6, mean zero, |Tor(G)| = 3
DANCING_Z3_Z = _uniform(GroupSpec([3], 1), [((1,), (1,)), ((1,), (-1,))])
# 2/3 on +1 and 1/3 on -1 in Z: irreducible with period 2 and mean 1/3
DRIFT_CYCLE_Z = Distribution(Z1, {Z1.element((), [1]): Fraction(2, 3),
                                  Z1.element((), [-1]): Fraction(1, 3)})


@pytest.mark.parametrize("p, n, s", [(elevator2(), 9, 2), (SHEARED_LAZY_Z2, 5, 1),
                                     (DANCING_Z3_Z, 8, 6)])
def test_time_average_matches_fraction_reference(p, n, s):
    # mean zero: the limit is the dance-free attractor, the walk's own with W = G and
    # c = 1, so K^n(phi(x)) / |Tor(G)| on every torsion lift of the window and on the
    # support, with no dance to pick residues
    a = build_attractor(p)
    assert classify(p).period == s
    flat = Attractor(DanceData(whole_group(p.group), a.dance.base_point), a.phi, a.moments)
    average = {}
    for law in (convolution_power(p, m) for m in range(n, n + s)):
        for x in law.support():
            average[x] = average.get(x, 0) + law.weight(x) / s
    points = set(average).union(_reference_lifts(p, a, n))
    want = max(abs(float(average.get(x, 0)) - attractor_eval(flat, n, x)) for x in points)
    assert time_average_error(p, a, n, s) == want


def test_time_average_rejects_a_reducible_walk():
    # 1/2 on 0 and 3 in Z_9: s = 3 is the index of W = <3>, but the walk never
    # leaves W, so no average over 3 steps tends to the uniform law
    p = z9_walk(0, 3)
    assert classify(p).period is None and analyze_dance(p).walk_subgroup.index() == 3
    for n in (0, 50):
        with pytest.raises(ValueError, match="irreducible"):
            time_average_error(p, build_attractor(p), n, 3)


def test_time_average_preconditions():
    p = spitzer()  # reducible: x0 has infinite order in G/W
    with pytest.raises(ValueError, match="irreducible"):
        time_average_error(p, build_attractor(p), 10, 1)
    p = DRIFT_CYCLE_Z  # irreducible with period 2, but its mean 1/3 is not zero
    with pytest.raises(ValueError, match="mean-zero"):
        time_average_error(p, build_attractor(p), 10, 2)
    with pytest.raises(ValueError):
        time_average_error(z9_walk(1, 4), build_attractor(z9_walk(1, 4)), 10, 2)  # wrong s
    p = elevator2()  # the heat kernel needs n >= 1 on an infinite group
    with pytest.raises(ValueError, match="at least 1"):
        time_average_error(p, build_attractor(p), 0, 2)
    p = z9_walk(1, 4)  # a finite group keeps n = 0: the average of p^0, p^1, p^2 is 1/3 at 0
    assert time_average_error(p, build_attractor(p), 0, 3) == 2 / 9


def test_tv_uniform_immediately_for_drift_elevator():
    for n in (1, 3, 9):
        r = tv_to_uniform_coset(elevator1(), n)
        assert r.tv_exact == 0
        assert r.tv_bound == 0.0


def test_tv_z12():
    r = tv_to_uniform_coset(z12_walk(), 15)
    assert float(r.tv_exact) <= 1.5 * (1 / math.sqrt(2)) ** 15 * (1 + 1e-9)


def test_tv_bound_holds_across_examples():
    for p in (z12_walk(), z9_walk(1, 4), z9_walk(0, 3), elevator1()):
        for n in range(0, 41, 4):
            r = tv_to_uniform_coset(p, n)  # raises internally if bound fails
            assert r.tv_exact <= Fraction(r.tv_bound) or r.tv_exact == 0


def test_tv_rejects_infinite_walk_subgroup():
    with pytest.raises(UnsupportedOperationError):
        tv_to_uniform_coset(spitzer(), 5)


def _tv_and_time_average_walks():
    """Seeded random walks on finite groups, a uniform law on a coset of the
    non-cyclic W = <(1, 0), (0, 2)> in Z_2 x Z_4, and the rank-0 elevator1
    on the infinite Z_4 x Z."""
    rng = random.Random(2024)
    pool = [GroupSpec([m]) for m in (2, 3, 5, 6, 8, 9, 12)]
    pool += [GroupSpec(ms) for ms in ((2, 2), (2, 4), (3, 3), (2, 6), (2, 2, 2), (2, 2, 4))]
    walks = []
    for _ in range(60):
        g = rng.choice(pool)
        pts = {tuple(rng.randrange(m) for m in g.torsion_moduli) for _ in range(rng.randint(1, 4))}
        nums = [rng.randint(1, 4) for _ in pts]
        walks.append(Distribution(g, {g.element(x): Fraction(v, sum(nums))
                                      for x, v in zip(pts, nums)}))
    z2z4 = GroupSpec([2, 4])
    walks.append(_uniform(z2z4, [((1, 1), ()), ((0, 1), ()), ((1, 3), ()), ((0, 3), ())]))
    return walks + [elevator1()]


def test_tv_series_and_time_average_match_their_definitions():
    checked = non_cyclic = 0
    for p in _tv_and_time_average_walks():
        g, support = p.group, p.support()
        x0 = support[0]
        w = closure(g, [x - x0 for x in support])
        non_cyclic += all(any(x * k == g.identity() for k in range(1, len(w))) for x in w)
        steps = range(10)
        laws = [sparse_power(p, n) for n in range(len(steps) + 6)]
        for r in _tv_series(p, steps):
            pn, coset = laws[r.n], {x0 * r.n + y for y in w}
            want = sum(abs(pn.weight(x) - Fraction(x in coset, len(w)))
                       for x in coset | set(pn.support())) / 2
            assert r.tv_exact == want, (p, r.n)
        s = classify(p).period
        if not g.is_finite or s is None:
            continue
        a = build_attractor(p)
        for n in range(6):
            average = [sum(laws[m].weight(x) for m in range(n, n + s)) / s for x in g.elements()]
            want = max(abs(v - Fraction(1, g.order)) for v in average)
            assert time_average_error(p, a, n, s) == float(want), (p, n)
        checked += 1
    assert non_cyclic and checked >= 20


def test_classify_worked_examples():
    c = classify(z12_walk())
    assert (c.irreducible, c.aperiodic, c.period) == ("yes", "no", 3)
    c = classify(z9_walk(1, 3))
    assert (c.irreducible, c.aperiodic, c.period) == ("yes", "yes", 1)
    c = classify(z9_walk(0, 3))
    assert c.irreducible == "no" and c.period is None
    c = classify(z4z6_walk())
    assert (c.irreducible, c.aperiodic, c.period) == ("yes", "no", 2)


def test_classify_never_claims_irreducibility_for_drifting_full_walk():
    # 1/2 on 1 and 2 generate Z, but the walk never moves down
    p = Distribution(Z1, {Z1.element((), [1]): half, Z1.element((), [2]): half})
    c = classify(p)
    assert (c.irreducible, c.aperiodic, c.period) == ("no", "no", None)
    assert c.dance_cosets == "G_p is the whole group: there is no dance"
    assert "not as a semigroup" in c.reason


def test_classify_infinite_cases():
    c = classify(spitzer())
    assert (c.irreducible, c.aperiodic, c.period) == ("no", "no", None)
    c = classify(elevator1())
    assert c.irreducible == "no"
    # diffusive elevator: walk subgroup of index 2, x0 generating G/W and the
    # support's semigroup a group, so irreducible with period 2
    c = classify(elevator2())
    assert (c.irreducible, c.aperiodic, c.period) == ("yes", "no", 2)
    # simple random walk on Z: the same certified dancing shape
    c = classify(SIMPLE_Z)
    assert (c.irreducible, c.aperiodic, c.period) == ("yes", "no", 2)
    # mean-zero walk generating all of Z: certified irreducible aperiodic
    lazy = Distribution(Z1, {Z1.element((), [-1]): quarter, Z1.element((), [0]): half,
                             Z1.element((), [1]): quarter})
    c = classify(lazy)
    assert (c.irreducible, c.aperiodic, c.period) == ("yes", "yes", 1)
    # confined walk: increments inside a proper subgroup
    conf = Distribution(Z1, {Z1.element((), [0]): half, Z1.element((), [2]): half})
    c = classify(conf)
    assert c.irreducible == "no"


SIMPLE_Z = _uniform(Z1, [((), (1,)), ((), (-1,))])
KNIGHT = _uniform(Z2, [((), (a, b)) for a, b in itertools.product((1, -1, 2, -2), repeat=2)
                       if abs(a) != abs(b)])


@st.composite
def symmetric_walks(draw):
    """A walk on Z, Z^2 or Z_m x Z with S = -S and equal weight on s and -s."""
    g = draw(st.sampled_from((Z1, Z2, GroupSpec([2], 1), GroupSpec([3], 1))))
    halves = draw(st.lists(_coords(g, 2), min_size=1, max_size=3, unique=True))
    weights = [draw(st.integers(1, 3)) for _ in halves]
    law = {}
    for x, w in zip(halves, weights):
        for y in (g.element_from_coords(x), -g.element_from_coords(x)):
            law[y] = law.get(y, 0) + Fraction(w, 2 * sum(weights))
    return Distribution(g, law)


@seed(0x5d2c7a0e94b1f3c8a6e2d4b7f1093c5e8a7d6b2f4c1e9a3d5b8f7c6e2a4d1b9f3e8c7a5d2b6f4e1c9a8d3)
@settings(max_examples=60, derandomize=True, deadline=None)
@given(symmetric_walks())
@example(SIMPLE_Z)
@example(KNIGHT)
def test_classify_decides_symmetric_walks(p):
    # a symmetric walk has mean zero: it is irreducible with period [G:W] exactly
    # when x0 generates G/W, and reducible otherwise, as brute force confirms
    c, idx, generates = classify(p), *_index_and_generation(p)
    assert (c.irreducible, c.period) == (("yes", idx) if generates else ("no", None))
    _assert_reach_matches(p, c)


def _index_and_generation(p):
    """[G:W] and whether x0 generates G/W."""
    dance = analyze_dance(p)
    w = dance.walk_subgroup
    idx = w.index()
    return idx, idx is not None and w.coset_order(dance.base_point) == idx


def _assert_reach_matches(p, c):
    """By brute force: if c says irreducible, by some n <= 60 the return times
    have gcd c.period and the supports cover the box of every torsion residue
    times [-2, 2]^k; otherwise the supports up to n = 12 miss part of that box."""
    g = p.group
    box = {g.element_from_coords(x) for x in itertools.product(
        *(range(m) for m in g.torsion_moduli), *[range(-2, 3)] * g.free_rank)}
    seen, period, law = set(), 0, sparse_power(p, 0)
    for n in range(1, 61 if c.irreducible == "yes" else 13):
        law = sparse_convolve(law, p)  # sparse_power(p, n)
        support = set(law.support())
        seen |= support
        if g.identity() in support:
            period = gcd(period, n)
        if period == c.period and box <= seen:
            break
    if c.irreducible == "yes":
        assert period == c.period and box <= seen
    else:
        assert not box <= seen


def _witness_holds(vectors, found, witness):
    """The witness of _semigroup_witness, checked on its own: integers N_s >= 1
    with sum N_s * v_s = 0, or a y with y . v_s >= 0 for every s and > 0 for one."""
    if found:
        return (len(witness) == len(vectors) and all(type(n) is int and n >= 1 for n in witness)
                and all(sum(n * v[i] for n, v in zip(witness, vectors)) == 0
                        for i in range(len(vectors[0]))))
    dots = [sum(a * b for a, b in zip(witness, v)) for v in vectors]
    return min(dots) >= 0 and max(dots) > 0


@st.composite
def supports(draw):
    """A uniform walk on 1 to 5 points of Z, Z^2, Z^3, Z_2 x Z or Z_3 x Z^2,
    with free coordinates in -2..2."""
    g = draw(st.sampled_from((Z1, Z2, GroupSpec((), 3), GroupSpec([2], 1), GroupSpec([3], 2))))
    points = draw(st.lists(_coords(g, 2), min_size=1, max_size=5, unique=True))
    return Distribution(g, {g.element_from_coords(x): Fraction(1, len(points)) for x in points})


@seed(0x3f8a1c6e2b9d4f7a0c5e8b1d3f6a9c2e4b7d0f3a6c9e1b4d7f2a5c8e0b3d6f9a1c4e7b2d5f8a0c3e6b9d2f4)
@settings(max_examples=150, derandomize=True, deadline=None)
@given(supports())
@example(_uniform(Z1, [((), (1,)), ((), (0,))]))  # 0 is in the hull of {0, 1}, not its interior
@example(DRIFT_CYCLE_Z)
@example(_uniform(Z2, [((), (0, 0)), ((), (1, 0)), ((), (-1, 0)), ((), (0, 1))]))  # drift_up_z2
@example(_uniform(GroupSpec([4], 1), [((1,), (0,)), ((3,), (0,))]))  # free parts all zero
@example(_uniform(Z1, [((), (1,))]))  # a single point
@example(_uniform(Z2, [((), (1, 2)), ((), (-2, -4)), ((), (2, 4))]))  # on a line, both signs
@example(_uniform(GroupSpec((), 3), [((), (1, 0, 0)), ((), (0, 1, 0)), ((), (0, 0, 1)),
                                     ((), (-1, -1, -1))]))  # irreducible on Z^3, period 4
def test_classify_decides_by_the_semigroup_of_the_support(p):
    # irreducible exactly when x0 generates G/W and the steps' free parts carry
    # a witness N_s >= 1 of a group; the witness is checked on its own, and the
    # verdict against brute-force reachability
    vectors = [x.free for x in p.support()]
    found, witness = _semigroup_witness(vectors)
    assert _witness_holds(vectors, found, witness)
    c, idx, generates = classify(p), *_index_and_generation(p)
    assert (c.irreducible, c.period) == (("yes", idx) if generates and found else ("no", None))
    _assert_reach_matches(p, c)


AUTOMORPHISM_GROUPS = (
    GroupSpec([12]), GroupSpec([9]), GroupSpec([3]), GroupSpec([4, 6]), GroupSpec([2, 2, 6]),
    GroupSpec([4], 1), GroupSpec([2, 3], 1), GroupSpec([6], 2), GroupSpec((), 1), GroupSpec((), 2),
)


def _coords(g, reach):
    return st.tuples(*(st.integers(0, m - 1) for m in g.torsion_moduli),
                     *(st.integers(-reach, reach) for _ in range(g.free_rank)))


@st.composite
def small_walks(draw):
    """A walk of 1 to 3 points with integer weights on one of AUTOMORPHISM_GROUPS."""
    g = draw(st.sampled_from(AUTOMORPHISM_GROUPS))
    points = draw(st.lists(_coords(g, 3), min_size=1, max_size=min(3, g.order or 3), unique=True))
    weights = [draw(st.integers(1, 4)) for _ in points]
    return Distribution(g, {g.element_from_coords(x): Fraction(w, sum(weights))
                            for x, w in zip(points, weights)})


@st.composite
def walks_with_automorphisms(draw):
    """A walk of 1 to 3 points with integer weights, an automorphism of its group:
    a unit on each cyclic factor, (t, f) -> (t + M f mod m, f), the shear
    f0 += s * f1 and a sign flip of f0, and 1 to 4 points to compare dances at."""
    p = draw(small_walks())
    g = p.group
    t, k = len(g.torsion_moduli), g.free_rank
    units = [draw(st.sampled_from([u for u in range(1, m) if gcd(u, m) == 1]))
             for m in g.torsion_moduli]
    rows = [[units[i] * (i == j) for j in range(t)] + [draw(st.integers(-3, 3)) for _ in range(k)]
            for i in range(t)]
    free = [[int(i == j) for j in range(k)] for i in range(k)]
    if k >= 2:
        free[0][1] = draw(st.integers(-3, 3))
    if k and draw(st.booleans()):
        free[0] = [-e for e in free[0]]
    rows += [[0] * t + row for row in free]
    probes = draw(st.lists(_coords(g, 6), min_size=1, max_size=4))
    return (p, Homomorphism(g, g, IntMatrix(rows, cols=g.dim)),
            [g.element_from_coords(x) for x in probes])


def _cli(argv, p):
    """Return code and stdout of dancewalk.cli.main(argv), run in process on the walk p."""
    out, stdin = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(dump_spec(p))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--spec", "-"])
    finally:
        sys.stdin = stdin
    return code, json.loads(out.getvalue()) if code == 0 else None


@seed(0x67596ac5fb317bc92aebd48ae21c24830341605d7a5523f080a629d875fff5db36b96e3ee5116c6a4f9816ef922cc220)
@settings(max_examples=400, derandomize=True, deadline=None)
@given(walks_with_automorphisms())
# the coordinate swap on Z^2 and the unit 5 on the Z_12 dance, which the strategy does not draw
@example((spitzer(), Homomorphism(Z2, Z2, IntMatrix([[0, 1], [1, 0]])),
          [Z2.element((), x) for x in ((0, 0), (1, 0), (2, 3), (-4, 5), (6, -1))]))
@example((z12_walk(), Homomorphism(Z12, Z12, IntMatrix([[5]])), Z12.elements()))
def test_dance_facts_and_verdicts_are_automorphism_invariant(case):
    p, t, probes = case
    q = pushforward(p, t)
    dp, dq = analyze_dance(p), analyze_dance(q)
    assert ((dq.omega_invariants, dq.normalization_c, dq.rank_d)
            == (dp.omega_invariants, dp.normalization_c, dp.rank_d))
    assert dq.walk_subgroup.index() == dp.walk_subgroup.index()
    assert dq.walk_subgroup.order() == dp.walk_subgroup.order()
    assert classify(q) == classify(p)
    for n in range(6):
        for x in probes:
            assert dq.theta(n, t(x)) == dp.theta(n, x)
    if dp.rank_d == 0:
        for n in (1, 3):
            assert tv_to_uniform_coset(q, n).tv_exact == tv_to_uniform_coset(p, n).tv_exact


@seed(0x8ee62e516eaf190c1db795897b317c40087705e27ae2cdbd415f99d2803414870cc4b510e60cb2667d138a3466861355)
@settings(max_examples=400, derandomize=True, deadline=None)
@given(walks_with_automorphisms())
@example((spitzer(), Homomorphism(Z2, Z2, IntMatrix([[0, 1], [1, 0]])), []))
@example((z12_walk(), Homomorphism(Z12, Z12, IntMatrix([[5]])), []))
def test_laws_moments_and_cli_reports_follow_an_automorphism(case):
    # the image of p^(n) is t(p)^(n); the CLI reports the same facts on both walks
    p, t, _ = case
    q = pushforward(p, t)
    for n in range(7):
        assert convolution_power(q, n) == pushforward(convolution_power(p, n), t)
    if not p.group.torsion_moduli:  # on Z^k the moments move as (A mu, A Sigma A^T)
        a, mp, mq = t.matrix.data, mean_cov(p), mean_cov(q)
        k = len(a)
        assert mq.mean == tuple(sum(a[i][r] * mp.mean[r] for r in range(k)) for i in range(k))
        assert mq.covariance == tuple(tuple(sum(a[i][r] * mp.covariance[r][s] * a[j][s]
                                                for r in range(k) for s in range(k))
                                            for j in range(k)) for i in range(k))
    facts = []  # the walk subgroup's Hermite rows move with t, its order, index and rank do not
    for r in (p, q):
        (code, doc), (tv_code, tv) = _cli(["analyze"], r), _cli(["tv", "--n", "3"], r)
        w = doc["walk_subgroup"]
        facts.append((code, w["order"], w["index"], w["rank"], doc["normalization"], doc["omega"],
                      tv_code, tv and tv["tv_exact"]))
    assert facts[0] == facts[1]
    assert facts[0][0] == 0 and facts[0][6] == (0 if analyze_dance(p).rank_d == 0 else 2)
    if analyze_dance(p).rank_d >= 1:  # the sup error over the window is intrinsic too
        reports = []
        for r in (p, q):
            code, doc = _cli(["attractor", "--n", "5"], r)
            assert code == 0
            reports.append((doc["case"], doc["rank"], doc["normalization"],
                            doc["report"]["sup_error"], doc["report"]["scaled_sup_error"]))
        assert reports[0] == reports[1]


@st.composite
def translated_walks(draw):
    """A walk from small_walks and a translation g, its torsion residues
    drawn unreduced and negative too."""
    p = draw(small_walks())
    g = p.group
    shift = draw(st.tuples(*(st.integers(-2 * m, 2 * m) for m in g.torsion_moduli),
                           *(st.integers(-5, 5) for _ in range(g.free_rank))))
    return p, g.element_from_coords(shift)


@seed(0xc018c2747668c853230da9c870974a751d64854435707f104ee7e36cf4632d2b4b561895018fc8f23deced751e6984a6)
@settings(max_examples=300, derandomize=True, deadline=None)
@given(translated_walks())
def test_dance_facts_move_with_a_translation(case):
    # q(x) = p(x - g) walks from x0 + g with the same increments: the same W and
    # laws moved by n*g.  classify is not compared, since x0 + W moves: delta_0 on
    # Z_2 is confined, delta_1 irreducible with period 2.  Nor is rho bit for bit,
    # since the phases shift: both are within e_scan of the same exact maximum
    p, g = case
    q = Distribution(p.group, {x + g: w for x, w in p.items()})
    dp, dq = analyze_dance(p), analyze_dance(q)
    wp, wq = dp.walk_subgroup, dq.walk_subgroup
    assert wq.basis == wp.basis
    assert (dq.normalization_c, dq.rank_d) == (dp.normalization_c, dp.rank_d)
    assert (wq.index(), wq.order()) == (wp.index(), wp.order())
    for n in range(7):
        moved = Distribution(p.group, {x + n * g: w for x, w in convolution_power(p, n).items()})
        assert convolution_power(q, n) == moved
    if dp.rank_d == 0:
        for n in (1, 3):
            assert tv_to_uniform_coset(q, n).tv_exact == tv_to_uniform_coset(p, n).tv_exact
    else:
        ap, aq = build_attractor(p), build_attractor(q)
        assert aq.phi == ap.phi
        assert aq.moments.covariance == ap.moments.covariance
        assert aq.moments.mean == tuple(m + c for m, c in zip(ap.moments.mean, ap.phi(g).free))
    e_scan = (len(torsion_pushforward(p)) + 16) * 2.0 ** -52
    assert abs(spectral_gap(q).rho - spectral_gap(p).rho) <= 2 * e_scan


def _random_finite_walk(rng):
    g = rng.choice([GroupSpec([n]) for n in range(2, 13)] +
                   [GroupSpec([2, 4]), GroupSpec([4, 6]), GroupSpec([3, 3])])
    pts = sorted({g.element([rng.randrange(m) for m in g.torsion_moduli])
                  for _ in range(rng.randrange(1, 4))})
    return Distribution(g, {x: Fraction(1, len(pts)) for x in pts})


def _markov_brute_force(p):
    """Direct Markov-chain analysis from exact convolution supports.

    Returns (irreducible, period or None, set of reachable elements).
    """
    g = p.group
    horizon = g.order * g.order + 2
    steps = set(p.support())
    supp = {g.identity()}
    seen = set()
    returns = []
    for n in range(1, horizon + 1):
        supp = {x + s for x in supp for s in steps}
        seen |= supp
        if g.identity() in supp:
            returns.append(n)
    irreducible = seen == set(g.elements())
    period = 0
    for n in returns:
        period = gcd(period, n)
    return irreducible, (period if irreducible else None), seen


def test_classifier_matches_markov_brute_force():
    rng = random.Random(271828)
    reducible = 0
    for _ in range(50):
        p = _random_finite_walk(rng)
        want_irr, want_period, seen = _markov_brute_force(p)
        c = classify(p)
        assert c.irreducible == ("yes" if want_irr else "no")
        assert c.period == want_period
        if want_irr:
            assert c.aperiodic == ("yes" if want_period == 1 else "no")
        else:
            reducible += 1
            count = re.search(r"only (\d+) of (\d+) elements", c.dance_cosets)
            assert (int(count[1]), int(count[2])) == (len(seen), p.group.order)
        # irreducible and aperiodic iff the unit-modulus locus is trivial
        assert ((c.irreducible, c.aperiodic) == ("yes", "yes")) == \
            (analyze_dance(p).omega_invariants == ((), 0))
    assert reducible >= 5


def test_periodic_classes_partition_and_coincide():
    rng = random.Random(1414)
    found = 0
    while found < 25:
        p = _random_finite_walk(rng)
        c = classify(p)
        if c.irreducible != "yes":
            continue
        found += 1
        g = p.group
        s = c.period
        dance = analyze_dance(p)
        cosets = [set(map(g.element_from_coords, dance.coset_coords(k))) for k in range(s)]
        # pairwise disjoint and covering
        union = set()
        for i, ci in enumerate(cosets):
            for j in range(i + 1, s):
                assert not (ci & cosets[j])
            union |= ci
        assert union == set(g.elements())
        # reach classes at steps k mod s equal the cosets
        horizon = g.order * g.order + 2
        steps = set(p.support())
        supp = {g.identity()}
        klass = [set() for _ in range(s)]
        for n in range(1, horizon + 1):
            supp = {x + st for x in supp for st in steps}
            klass[n % s] |= supp
        for k in range(s):
            assert klass[k] == set(map(g.element_from_coords, dance.coset_coords(k)))


def test_fourier_inversion_oracle():
    rng = random.Random(5772)
    for _ in range(100):
        p = _random_finite_walk(rng)
        g = p.group
        duals = [DualPoint(g, chars, ()) for chars in
                 itertools.product(*(range(m) for m in g.torsion_moduli))]
        values = [char_fn(p, xi) for xi in duals]
        conjugates = {x: [cmath.exp(-2j * cmath.pi * float(xi.phase(x))) for xi in duals]
                      for x in g.elements()}
        pn = p
        for n in range(1, 21):
            powers = [v ** n for v in values]
            for x, row in conjugates.items():
                inv = sum(a * b for a, b in zip(powers, row)) / g.order
                assert abs(inv.real - float(pn.weight(x))) < 1e-9
                assert abs(inv.imag) < 1e-9
            if n < 20:
                pn = convolve(pn, p)


def test_evaluation_window_contains_support():
    for p in (z12_walk(), spitzer(), elevator2()):
        a = build_attractor(p)
        for n in (5, 12):
            window = set(evaluation_window(convolution_power(p, n), a, n))
            assert set(convolution_power(p, n).support()) <= window


def test_rank_two_lazy_walk():
    eighth = Fraction(1, 8)
    p = Distribution(Z2, {Z2.element((), [0, 0]): half,
                          Z2.element((), [1, 0]): eighth, Z2.element((), [-1, 0]): eighth,
                          Z2.element((), [0, 1]): eighth, Z2.element((), [0, -1]): eighth})
    a = build_attractor(p)
    assert a.rank_d == 2
    assert a.moments.mean == (0, 0)
    assert a.moments.covariance == ((quarter, 0), (0, quarter))
    c = classify(p)
    assert (c.irreducible, c.aperiodic, c.period) == ("yes", "yes", 1)
    scaled = [llt_sup_error(p, a, n).scaled_sup_error for n in (10, 20, 40)]
    assert all(x > y for x, y in zip(scaled, scaled[1:]))
    assert scaled[-1] < 2e-3  # measured 1.4902e-3 in the development oracle run


def test_rank_two_drifted_walk_with_correlated_covariance():
    third = Fraction(1, 3)
    p = Distribution(Z2, {Z2.element((), [0, 0]): third,
                          Z2.element((), [1, 0]): third, Z2.element((), [0, 1]): third})
    a = build_attractor(p)
    assert a.moments.mean == (third, third)
    assert a.moments.covariance == ((Fraction(2, 9), Fraction(-1, 9)),
                                    (Fraction(-1, 9), Fraction(2, 9)))
    assert a.moments.is_positive_definite()
    # full walk subgroup, but y = (1, 1) is >= 0 on every step: the walk never returns
    c = classify(p)
    assert (c.irreducible, c.period) == ("no", None)
    scaled = [llt_sup_error(p, a, n).scaled_sup_error for n in (10, 20, 40)]
    assert all(x > y for x, y in zip(scaled, scaled[1:]))


def _reference_lifts(p, a, n):
    """Every torsion lift of the integer points within 8 standard deviations
    of n*mu, by an exact Fraction quadratic form on each point of the box.
    The free part of the lifts of u is phi_full^(-1) (u, n*w), with phi_full
    and w the twist of p's free parts and the inverse by Fraction elimination."""
    g = p.group
    moments = a.moments
    inv = rational_inverse(moments.covariance)
    d = moments.dim
    center = [n * m for m in moments.mean]
    ranges = []
    for i in range(d):
        r = 8 * math.sqrt(n * float(moments.covariance[i][i]))
        ranges.append(range(math.floor(float(center[i]) - r), math.ceil(float(center[i]) + r) + 1))
    twist = twist_to_coordinates(AffinePointSet(g.free_rank, {x.free for x in p.support()}))
    tail = tuple(n * wi for wi in twist.w)
    inv_full = rational_inverse(twist.phi.matrix.data)
    residues = list(itertools.product(*(range(m) for m in g.torsion_moduli)))
    for u in itertools.product(*ranges):
        y = [c - ctr for c, ctr in zip(u, center)]
        if sum(y[i] * inv[i][j] * y[j] for i in range(d) for j in range(d)) <= 64 * n:
            free = [sum(e * c for e, c in zip(row, u + tail)) for row in inv_full]
            assert all(c.denominator == 1 for c in free)
            for tors in residues:
                yield Element(g, tors, map(int, free))


def reference_window(p, pn, a, n):
    """The evaluated window on Elements: supp(pn) with the live coset (d = 0)
    or the window lifts with theta > 0, each point evaluated by attractor_eval."""
    if a.rank_d == 0:
        live = map(pn.group.element_from_coords, a.dance.coset_coords(n))
    else:
        live = (x for x in _reference_lifts(p, a, n) if a.dance.theta(n, x) > 0)
    return [(x.coords(), pn.weight(x), a.dance.theta(n, x), attractor_eval(a, n, x))
            for x in sorted(set(pn.support()).union(live))]


KNIGHT_STEPS = [(0, (a, b)) for a, b in ((1, 2), (2, 1), (-1, 2), (-2, 1),
                                         (1, -2), (2, -1), (-1, -2), (-2, -1))]


@st.composite
def window_cases(draw):
    """(walk, n): free rank 1-3, with or without torsion axes, random or
    fixed sublattice (knight, Spitzer) supports, drifting or not.  n runs
    to 20 on rank 1 and lower where the reference's box grows faster:
    to 12 on rank 2, to 8 on the knight walk and to 2 on rank 3."""
    kind = draw(st.sampled_from(["random"] * 6 + ["knight", "spitzer"]))
    if kind == "random":
        rank = draw(st.integers(1, 3))
        moduli = draw(st.sampled_from([(), (), (2,), (3,), (4,), (2, 3)] if rank < 3 else [()]))
        g = GroupSpec(moduli, rank)
        residues = st.tuples(*[st.integers(0, m - 1) for m in moduli])
        free = st.tuples(*[st.integers(-1, 1)] * rank)
        points = draw(st.lists(st.tuples(residues, free), min_size=2, max_size=5, unique=True))
        nums = [draw(st.integers(1, 4)) for _ in points]
    else:
        g = Z2
        points = KNIGHT_STEPS if kind == "knight" else [((), (1, 0)), ((), (0, 1))]
        points = [((), x) for _, x in points]
        nums = [1] * len(points)
    p = Distribution(g, {g.element(t, f): Fraction(a, sum(nums)) for (t, f), a in zip(points, nums)})
    n = draw(st.integers(1, 8 if kind == "knight" else (20, 12, 2)[g.free_rank - 1]))
    return p, n


@seed(0xc9502b263ec1d7aff055d9783f13133e7e89ff57f041da179ee9bd84fc0f27a3b554f092cb9c99b890cff5b0aaf51915)
@settings(max_examples=150, derandomize=True, deadline=None)
@given(window_cases())
# on the window's edge: (u - n*mu) . Gamma^(-1) (u - n*mu) is 64n at u = 8 and n = 2
# (lazy walk) and 64n + 1 at u = 31 and n = 15 (simple walk)
@example((Distribution(Z1, {Z1.element((), [-1]): quarter, Z1.element((), [0]): half,
                            Z1.element((), [1]): quarter}), 2))
@example((Distribution(Z1, {Z1.element((), [-1]): half, Z1.element((), [1]): half}), 15))
# off-diagonal covariance with window points exactly on the ellipse: (-2, -2), (-2, 6) and
# (6, -2) at n = 2 on the drift walk, (0, 8) and (16, 8) at n = 5 on the sheared lazy walk
@example((DRIFT_Z2, 2))
@example((SHEARED_LAZY_Z2, 5))
# rank 1 in Z_4 x Z^2 (twisted), and c = 2: each window u keeps 2 of its 4 residues
@example((TWISTED_Z4_Z2, 5))
# rank 1 in Z_2 x Z_4 x Z: each window u lifts through the 4 residues of one coset of W_t
@example((DIAGONAL_Z2_Z4_Z, 12))
def test_evaluated_window_matches_fraction_reference(case):
    p, n = case
    a = build_attractor(p)
    pn = convolution_power(p, n)
    (_, den, nums), = _powers(p, (n,))
    got = [(x, Fraction(v, den), f) for x, v, f in _evaluated_window(nums, a, n)]
    want = reference_window(p, pn, a, n)
    # every window point is live: theta is c at each
    assert all(th == a.dance.normalization_c for _, _, th, _ in want)
    assert [(x, w, v.hex()) for x, w, v in got] == [(x, w, v.hex()) for x, w, _, v in want]


@pytest.mark.parametrize("n", [1, 30])
def test_a_walk_scaled_into_a_sublattice_reports_the_same_errors(n):
    # 1/3 at 0, s*e1 and s*e2 is the drift walk written in W = sZ^2: the window
    # walks only W's live points, the same ones, with the same kernel values
    s = 1000
    scaled = _uniform(Z2, [((), (0, 0)), ((), (s, 0)), ((), (0, s))])
    want, got = (llt_sup_error(p, build_attractor(p), n) for p in (DRIFT_Z2, scaled))
    assert (got.sup_error, got.scaled_sup_error) == (want.sup_error, want.scaled_sup_error)
    assert got.worst_point.free == tuple(s * c for c in want.worst_point.free)


def test_the_window_evaluates_the_kernel_once_per_live_point(monkeypatch):
    # the knight walk's W is the index-2 lattice of even coordinate sums: the window
    # steps through W + n*x0 alone, so the box's points off it cost no exp call
    p = Distribution(Z2, {Z2.element((), x): Fraction(1, 8) for _, x in KNIGHT_STEPS})
    a = build_attractor(p)
    (_, _, nums), = _powers(p, (20,))
    calls = []
    exp = math.exp
    monkeypatch.setattr(math, "exp", lambda x: calls.append(x) or exp(x))
    rows = list(_evaluated_window(nums, a, 20))
    assert len(calls) == len(rows) == 5025
