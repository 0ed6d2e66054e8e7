"""Acceptance suite: one test (and one printed verdict line) per criterion.

Criteria 1-5, the paper's worked examples, are the scenarios of
dancewalk.scenarios: `dancewalk examples NAME` runs one, and
tests/test_cli.py::test_golden_scenario_passes_every_check runs each within
its time budget; their tolerances live with the scenarios.  This module
keeps criterion 6, the time averages, and criterion 7, the ten property
suites.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import itertools
import math
import random
import time
from fractions import Fraction
from math import gcd

from dancewalk.dance import analyze_dance
from dancewalk.group import DualPoint, GroupSpec, Homomorphism, subgroup_generated
from dancewalk.intlinalg import (
    AffinePointSet,
    IntMatrix,
    affine_dim,
    bottom_row_unimodular,
    hnf,
    snf,
    twist_to_coordinates,
)
from dancewalk.llt import build_attractor, classify, time_average_error
from dancewalk.measure import Distribution, convolution_power, convolve, pushforward
from dancewalk.scenarios import elevator2, z9_walk
from reference import char_fn, omega_contains


def _verdict(num: int, label: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    print(f"[criterion {num}] PASS  {label}  ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_6_time_averages():
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
    _verdict(6, "time averages: exponential on Z_9, diffusive on the elevator", started, 30.0)


# --- criterion 7: property suites, each with at least 200 seeded cases ---


def _random_matrix(rng, max_dim=5, span=20):
    r = rng.randrange(1, max_dim + 1)
    c = rng.randrange(1, max_dim + 1)
    return IntMatrix([[rng.randrange(-span, span + 1) for _ in range(c)] for _ in range(r)])


def _suite_normal_forms(rng):
    for _ in range(200):
        m = _random_matrix(rng)
        s = snf(m)
        assert s.u.matrix @ m @ s.v.matrix == s.d
        assert s.u.matrix.det() in (1, -1) and s.v.matrix.det() in (1, -1)
        diag = s.diagonal
        for x, y in zip(diag, diag[1:]):
            assert (x == 0 and y == 0) or (x >= 0 and y % x == 0 if x else True)
        h = hnf(m)
        assert h.u.matrix @ m == h.h
        for i, j in h.pivots:
            assert h.h[i, j] > 0
            for r_above in range(i):
                assert 0 <= h.h[r_above, j] < h.h[i, j]


def _suite_bottom_row(rng):
    for _ in range(200):
        k = rng.randrange(2, 7)
        vec = [rng.randrange(-30, 31) for _ in range(k)]
        if all(v == 0 for v in vec):
            vec[rng.randrange(k)] = rng.randrange(1, 10)
        m = bottom_row_unimodular(vec)
        assert list(m.data[-1]) == vec
        g = 0
        for v in vec:
            g = gcd(g, v)
        assert m.det() == g


def _suite_twist(rng):
    done = 0
    while done < 200:
        k = rng.randrange(1, 5)
        d = rng.randrange(0, k)
        base = tuple(rng.randrange(-5, 6) for _ in range(k))
        dirs = [tuple(rng.randrange(-4, 5) for _ in range(k)) for _ in range(d)]
        pts = {base}
        for _ in range(d + 3):
            coeffs = [rng.randrange(-3, 4) for _ in range(d)]
            pts.add(tuple(b + sum(c * v[i] for c, v in zip(coeffs, dirs))
                          for i, b in enumerate(base)))
        s = AffinePointSet(k, pts)
        if affine_dim(s) != d:
            continue
        done += 1
        res = twist_to_coordinates(s)
        assert res.d == d
        assert res.phi.matrix @ res.phi.inverse == IntMatrix.identity(k)
        images = [res.phi.matrix.mul_vec(p) for p in s.points]
        assert all(img[d:] == res.w for img in images)
        if d:
            assert affine_dim(AffinePointSet(d, [img[:d] for img in images])) == d


_GROUP_POOL = [GroupSpec([n]) for n in (2, 3, 4, 6, 9, 12)] + [
    GroupSpec([2, 4]), GroupSpec([4, 6]), GroupSpec((), 1), GroupSpec((), 2),
    GroupSpec([3], 1), GroupSpec([4], 1),
]


def _random_walk(rng, g, max_support=4, reach=3):
    pts = set()
    for _ in range(rng.randrange(1, max_support + 1)):
        pts.add(g.element([rng.randrange(m) for m in g.torsion_moduli],
                          [rng.randrange(-reach, reach + 1) for _ in range(g.free_rank)]))
    pts = sorted(pts)
    return Distribution(g, {x: Fraction(1, len(pts)) for x in pts})


def _suite_base_point(rng):
    for _ in range(200):
        g = rng.choice(_GROUP_POOL)
        p = _random_walk(rng, g)
        pts = p.support()
        subs = {subgroup_generated(g, [x - x0 for x in pts]) for x0 in pts}
        assert len(subs) == 1


def _suite_support_inclusion(rng):
    for _ in range(200):
        g = rng.choice(_GROUP_POOL)
        p = _random_walk(rng, g, max_support=3, reach=2)
        d = analyze_dance(p)
        pn = p
        for n in range(1, 16):
            assert all(d.theta(n, x) > 0 for x in pn.support())
            if n < 15:
                pn = convolve(pn, p)


def _suite_theta_transport(rng):
    cases = 0
    while cases < 200:
        if rng.random() < 0.5:
            g = GroupSpec((), 2)
            p = _random_walk(rng, g, max_support=3, reach=2)
            mat = IntMatrix.identity(2)
            for _ in range(3):
                shear = [[1, 0], [0, 1]]
                i, j = rng.sample(range(2), 2)
                shear[i][j] = rng.randrange(-2, 3)
                mat = mat @ IntMatrix(shear)
            t = Homomorphism(g, g, mat)
        else:
            m = rng.choice((5, 7, 9, 12))
            g = GroupSpec([m])
            p = _random_walk(rng, g, max_support=3)
            unit = rng.choice([u for u in range(1, m) if gcd(u, m) == 1])
            t = Homomorphism(g, g, IntMatrix([[unit]]))
        cases += 1
        q = pushforward(p, t)
        dp, dq = analyze_dance(p), analyze_dance(q)
        assert dp.normalization_c == dq.normalization_c
        for n in range(0, 6):
            for _ in range(4):
                x = g.element([rng.randrange(mm) for mm in g.torsion_moduli],
                              [rng.randrange(-6, 7) for _ in range(g.free_rank)])
                assert dp.theta(n, x) == dq.theta(n, t(x))


def _suite_duality(rng):
    pool = [GroupSpec([n]) for n in (2, 3, 4, 6, 8, 9, 12, 25, 36, 60, 128, 199, 200)] + [
        GroupSpec([2, 4]), GroupSpec([4, 6]), GroupSpec([2, 2, 2]), GroupSpec([5, 5]),
        GroupSpec([2, 10]), GroupSpec([3, 9]), GroupSpec([13, 13]),
    ]
    for _ in range(200):
        g = rng.choice(pool)
        assert g.order <= 200
        p = _random_walk(rng, g, max_support=3)
        walk = analyze_dance(p).walk_subgroup
        ann = walk.annihilator()
        brute = {chars for chars in itertools.product(*(range(m) for m in g.torsion_moduli))
                 if omega_contains(p, DualPoint(g, chars, ()))}
        assert brute == {e.torsion for e in ann.elements()}
        assert ann.annihilator() == walk  # double annihilator closes up


def _suite_fourier_inversion(rng):
    finite = [GroupSpec([n]) for n in (2, 3, 4, 6, 9, 12)] + [GroupSpec([2, 4])]
    for _ in range(200):
        g = rng.choice(finite)
        p = _random_walk(rng, g, max_support=3)
        duals = [DualPoint(g, chars, ())
                 for chars in itertools.product(*(range(m) for m in g.torsion_moduli))]
        values = [(char_fn(p, xi), xi) for xi in duals]
        n = rng.randrange(1, 21)
        pn = convolution_power(p, n)
        for _ in range(4):
            x = g.element([rng.randrange(m) for m in g.torsion_moduli])
            total = sum(v ** n * complex(math.cos(2 * math.pi * float(xi.phase(x))),
                                         -math.sin(2 * math.pi * float(xi.phase(x))))
                        for v, xi in values) / g.order
            assert abs(total.real - float(pn.weight(x))) < 1e-9
            assert abs(total.imag) < 1e-9


def _support_classes(p, horizon, s):
    g = p.group
    steps = set(p.support())
    supp = {g.identity()}
    klass = [set() for _ in range(s)]
    returns = []
    for n in range(1, horizon + 1):
        supp = {x + st for x in supp for st in steps}
        klass[n % s] |= supp
        if g.identity() in supp:
            returns.append(n)
    return klass, returns


def _suite_periodic_classes(rng):
    finite = [GroupSpec([n]) for n in (2, 3, 4, 6, 9, 12)] + [GroupSpec([2, 4]), GroupSpec([3, 3])]
    done = 0
    while done < 200:
        g = rng.choice(finite)
        p = _random_walk(rng, g, max_support=3)
        c = classify(p)
        if c.irreducible != "yes":
            continue
        done += 1
        s = c.period
        d = analyze_dance(p)
        klass, _ = _support_classes(p, g.order * g.order + 2, s)
        for k in range(s):
            assert klass[k] == set(d.coset_at(k))
        cosets = [set(d.coset_at(k)) for k in range(s)]
        union = set()
        for i, ci in enumerate(cosets):
            for cj in cosets[i + 1:]:
                assert not (ci & cj)
            union |= ci
        assert union == set(g.elements())


def _suite_classifier(rng):
    finite = [GroupSpec([n]) for n in range(2, 13)] + [GroupSpec([2, 4]), GroupSpec([3, 3])]
    for _ in range(200):
        g = rng.choice(finite)
        p = _random_walk(rng, g, max_support=3)
        c = classify(p)
        _, returns = _support_classes(p, g.order * g.order + 2, 1)
        reach = set()
        supp = {g.identity()}
        steps = set(p.support())
        for _ in range(g.order * g.order + 2):
            supp = {x + st for x in supp for st in steps}
            reach |= supp
        want_irr = reach == set(g.elements())
        assert c.irreducible == ("yes" if want_irr else "no")
        if want_irr:
            period = 0
            for n in returns:
                period = gcd(period, n)
            assert c.period == period
            assert c.aperiodic == ("yes" if period == 1 else "no")
        else:
            assert c.period is None
        # on finite groups: irreducible + aperiodic iff the unit-modulus
        # locus is trivial iff the walk subgroup is everything
        trivial_locus = analyze_dance(p).omega_invariants == ((), 0)
        both = c.irreducible == "yes" and c.aperiodic == "yes"
        assert both == trivial_locus


def test_criterion_7_property_suites():
    started = time.perf_counter()
    suites = [
        ("normal-form identities", _suite_normal_forms),
        ("bottom-row completion contract", _suite_bottom_row),
        ("coordinate-twist postconditions", _suite_twist),
        ("base-point independence", _suite_base_point),
        ("support inclusion in the live coset", _suite_support_inclusion),
        ("dance transport along isomorphisms", _suite_theta_transport),
        ("annihilator duality vs brute force", _suite_duality),
        ("Fourier inversion on finite duals", _suite_fourier_inversion),
        ("periodic classes equal cosets", _suite_periodic_classes),
        ("classifier vs brute-force chain analysis", _suite_classifier),
    ]
    for i, (name, suite) in enumerate(suites):
        suite(random.Random(0xDA7CE + i))
        print(f"[criterion 7] suite ok: {name}")
    _verdict(7, "ten property suites, 200 seeded cases each", started, 120.0)
