"""The benchmark's workloads: walks, CLI invocations and their checks.

Every input is generated from the seed.  The two fixed walks keep their
law; the seed varies how the walk description is written (entry order,
residue representatives, split entries, unreduced weights), which the
CLI must parse to the same distribution.  The sweep's walks are drawn
from the seed.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import checks
from oracles import Walk, power_laws

F = Fraction

LAZY_Z2 = Walk((), 2, (((0, 0), F(1, 5)), ((1, 0), F(1, 5)), ((-1, 0), F(1, 5)),
                       ((0, 1), F(1, 5)), ((0, -1), F(1, 5))))


def torsion_walk(m: int) -> Walk:
    """Weight 1/3 each on 0, e1, e2 in Z_m x Z_m."""
    return Walk((m, m), 0, (((0, 0), F(1, 3)), ((1, 0), F(1, 3)), ((0, 1), F(1, 3))))


# Golden scenarios and the number of checks each must report passed.
SCENARIO_CHECKS = {"z12": 4, "z9-a1b3": 2, "z9-a1b4": 2, "z9-a0b3": 2, "z4z6": 4,
                   "z4z6-table": 1, "elevator1": 3, "elevator2": 3, "spitzer": 4}
QUICK_SCENARIOS = ("z9-a1b3", "z4z6-table")

# Sweep groups, 1 to 3 torsion axes.  Walk k uses shape k mod 8 and
# 2 + k mod 3 support points, so every block of 24 walks holds each
# (shape, support size) pair once and rounds differ only in the drawn
# points and weights.
SWEEP_SHAPES = ((12,), (30,), (2, 6), (4, 4), (3, 9), (2, 2, 4), (2, 2, 6), (3, 3, 3))
SWEEP_WALKS = 96
# One fixed walk, the same for every seed, on moduli that are not an
# invariant-factor chain.  `analyze` reports canonical_torsion [1, 6, 6]
# for Z_2 x Z_3 x Z_6 (the chain is [6, 6]), so this walk fails its check
# in every round until the program is mended.
FIXED_WALK = Walk((2, 3, 6), 0, (((0, 0, 0), F(1, 2)), ((1, 1, 1), F(1, 4)),
                                 ((0, 2, 3), F(1, 4))))


@dataclass
class Op:
    """One operation: the CLI calls it makes and the check of their stdout."""

    kind: str
    calls: list[tuple[list[str], str | None]]
    check: Callable[[list[bytes]], None]


@dataclass
class Workload:
    name: str
    cli_ops: list[Op] = field(default_factory=list)
    sweep_ops: list[Op] = field(default_factory=list)

    @property
    def ops(self) -> list[Op]:
        return self.cli_ops + self.sweep_ops


def spec_text(walk: Walk, rng: random.Random) -> str:
    """A walk description of the walk, written one of many equivalent ways."""
    t = len(walk.moduli)
    entries = []
    for x, w in walk.steps:
        parts = [w] if rng.random() < 0.6 else [w / 2, w / 2]
        for part in parts:
            k = rng.randint(1, 3)
            elem = {}
            if t:
                elem["torsion"] = [c + m * rng.randint(-2, 2) for c, m in zip(x, walk.moduli)]
            if walk.rank:
                elem["free"] = list(x[t:])
            entries.append({"elem": elem,
                            "weight": f"{part.numerator * k}/{part.denominator * k}"})
    rng.shuffle(entries)
    return json.dumps({"group": {"torsion": list(walk.moduli), "rank": walk.rank},
                       "distribution": entries})


def sweep_walk(rng: random.Random, k: int) -> Walk:
    moduli = SWEEP_SHAPES[k % len(SWEEP_SHAPES)]
    size = 2 + k % 3
    points = []
    while len(points) < size:
        x = tuple(rng.randrange(m) for m in moduli)
        if x not in points:
            points.append(x)
    nums = [rng.randint(1, 4) for _ in points]
    return Walk(moduli, 0, tuple((x, F(a, sum(nums))) for x, a in zip(points, nums)))


def _lazy_ops(rng, n_conv, ns_cmp, n_att) -> list[Op]:
    law = functools.cache(lambda: power_laws(LAZY_Z2, [n_conv, *ns_cmp, n_att]))
    spec = spec_text(LAZY_Z2, rng)
    cmp_arg = ",".join(map(str, ns_cmp))
    return [
        Op("convolve", [(["convolve", "--n", str(n_conv)], spec)],
           lambda outs: checks.check_convolve(n_conv, law()[n_conv], outs[0])),
        Op("compare", [(["compare", "--n", cmp_arg], spec)],
           lambda outs: checks.check_compare_lazy(ns_cmp, law(), outs[0])),
        Op("attractor", [(["attractor", "--n", str(n_att)], spec)],
           lambda outs: checks.check_attractor_lazy(n_att, law()[n_att], outs[0])),
    ]


def diffusive_z2(seed: int, quick: bool) -> Workload:
    rng = random.Random(seed)
    sizes = (6, (3, 5), 5) if quick else (40, (10, 20, 30), 30)
    return Workload("diffusive-z2", cli_ops=_lazy_ops(rng, *sizes))


def torsion_z60(seed: int, quick: bool) -> Workload:
    rng = random.Random(seed)
    m, n_tv, n_cmp = (6, 5, 5) if quick else (60, 50, 50)
    walk = torsion_walk(m)
    fx = functools.cache(lambda: checks.FiniteFacts(walk))
    spec = spec_text(walk, rng)
    return Workload("torsion-z60", cli_ops=[
        Op("analyze", [(["analyze"], spec)], lambda outs: checks.check_analyze(fx(), outs[0])),
        Op("tv", [(["tv", "--n", str(n_tv)], spec)],
           lambda outs: checks.check_tv(fx(), n_tv, outs[0])),
        Op("compare", [(["compare", "--n", str(n_cmp), "--format", "csv"], spec)],
           lambda outs: checks.check_compare_d0_csv(fx(), n_cmp, outs[0])),
    ])


def _walk_op(walk: Walk, rng: random.Random, n: int) -> Op:
    spec = spec_text(walk, rng)

    def check(outs):
        facts = checks.FiniteFacts(walk)
        checks.check_analyze(facts, outs[0])
        checks.check_tv(facts, n, outs[1])
        checks.check_attractor_d0(facts, n, outs[2])

    return Op("walk", [(["analyze"], spec), (["tv", "--n", str(n)], spec),
                       (["attractor", "--n", str(n)], spec)], check)


def small_walks(seed: int, quick: bool) -> Workload:
    rng = random.Random(seed)
    names = QUICK_SCENARIOS if quick else tuple(SCENARIO_CHECKS)
    count, n = (3, 4) if quick else (SWEEP_WALKS, 12)
    wl = Workload("small-walks")
    for name in names:
        k = SCENARIO_CHECKS[name]
        wl.cli_ops.append(Op("examples", [(["examples", name], None)],
                             lambda outs, k=k: checks.check_examples(k, outs[0])))
    for i in range(count):
        wl.sweep_ops.append(_walk_op(sweep_walk(rng, i), rng, n))
    wl.sweep_ops.append(_walk_op(FIXED_WALK, random.Random(0), n))
    return wl


WORKLOADS = {"diffusive-z2": diffusive_z2, "torsion-z60": torsion_z60,
             "small-walks": small_walks}
