"""Reference computations that the benchmark checks dancewalk against.

Nothing here imports dancewalk: every value is recomputed from the walk's
definition by the most direct method available, so a fault in the
program cannot also hide in its oracle.

A walk is given by its torsion moduli, its free rank and its steps, each
step a coordinate tuple (torsion coordinates first, reduced) with an
exact ``Fraction`` weight.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Walk:
    moduli: tuple[int, ...]
    rank: int
    steps: tuple[tuple[tuple[int, ...], Fraction], ...]

    def __post_init__(self):
        if sum(w for _, w in self.steps) != 1:
            raise ValueError("step weights must sum to 1")

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * (len(self.moduli) + self.rank)

    @property
    def order(self) -> int:
        """|G| of a finite group."""
        if self.rank:
            raise ValueError("group is infinite")
        return math.prod(self.moduli)

    def add(self, x, y) -> tuple[int, ...]:
        t = len(self.moduli)
        return tuple((a + b) % self.moduli[i] if i < t else a + b
                     for i, (a, b) in enumerate(zip(x, y)))

    def neg(self, x) -> tuple[int, ...]:
        return self.add(self.zero, tuple(-a for a in x))

    def scale(self, n: int, x) -> tuple[int, ...]:
        return self.add(self.zero, tuple(n * a for a in x))

    def elements(self):
        return itertools.product(*(range(m) for m in self.moduli))

    @property
    def base_point(self) -> tuple[int, ...]:
        """Least support point in lexicographic order."""
        return min(x for x, _ in self.steps)


def power_laws(walk: Walk, ns) -> dict[int, dict[tuple[int, ...], Fraction]]:
    """Exact p^(n) for each n in ns, by step-by-step integer DP.

    The numerators over the common denominator D^k are the coefficients
    of the k-th power of the step polynomial, with D the lcm of the step
    denominators; each step spreads every live coefficient over the
    support (cyclically on torsion axes).
    """
    wanted = set(ns)
    den = math.lcm(*(w.denominator for _, w in walk.steps))
    ints = [(x, int(w * den)) for x, w in walk.steps]
    cur = {walk.zero: 1}
    out = {}
    for k in range(1, max(wanted) + 1):
        nxt: dict[tuple[int, ...], int] = {}
        for y, c in cur.items():
            for x, a in ints:
                z = walk.add(y, x)
                nxt[z] = nxt.get(z, 0) + c * a
        cur = nxt
        if k in wanted:
            total = den ** k
            out[k] = {x: Fraction(c, total) for x, c in cur.items()}
    return out


def lazy_heat_kernel(t: int, x) -> float:
    """Heat kernel on Z^2 with covariance (2/5) I, the lazy 5-point walk's.

    K^t(x) = exp(-|x|^2 / (2 t v)) / (2 pi t v) with v = 2/5.
    """
    v = 0.4
    r2 = sum(c * c for c in x)
    return math.exp(-r2 / (2 * t * v)) / (2 * math.pi * t * v)


def lazy_window(n: int, law) -> set[tuple[int, ...]]:
    """Points the CLI evaluates for the lazy walk at step n.

    The support of p^(n) together with the Gaussian window of 8 standard
    deviations, x . Gamma^(-1) x <= 64 n, i.e. 5 |x|^2 <= 128 n.
    """
    r = math.isqrt(128 * n // 5) + 1
    pts = {(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1)
           if 5 * (a * a + b * b) <= 128 * n}
    return pts | set(law)


def _phase(walk: Walk, xi, x, big: int) -> int:
    return sum(k * c * (big // m) for k, c, m in zip(xi, x, walk.moduli)) % big


def char_modulus(walk: Walk, xi) -> float:
    big = math.lcm(*walk.moduli)
    return abs(sum(complex(w) * cmath.exp(2j * cmath.pi * _phase(walk, xi, x, big) / big)
                   for x, w in walk.steps))


def in_unit_locus(walk: Walk, xi) -> bool:
    """|p_hat(xi)| = 1 exactly: every step has the same integer phase."""
    big = math.lcm(*walk.moduli)
    phases = {_phase(walk, xi, x, big) for x, _ in walk.steps}
    return len(phases) == 1


# A modulus below this is an exact zero up to rounding: a nonzero sum of
# a few roots of unity with small-denominator weights is far larger.
ZERO_MODULUS = 1e-9


def spectral_gap(walk: Walk) -> float:
    """rho = max |p_hat| over characters off the unit-modulus locus (finite G)."""
    rho = 0.0
    for xi in walk.elements():
        if not in_unit_locus(walk, xi):
            m = char_modulus(walk, xi)
            if m >= ZERO_MODULUS:
                rho = max(rho, m)
    return rho


def closure(walk: Walk, gens) -> set[tuple[int, ...]]:
    """Subgroup of a finite group generated by gens, by BFS."""
    gens = [g for g in gens if any(g)]
    seen = {walk.zero}
    frontier = [walk.zero]
    while frontier:
        nxt = []
        for u in frontier:
            for g in gens:
                v = walk.add(u, g)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def walk_subgroup(walk: Walk) -> set[tuple[int, ...]]:
    """W = <supp(p) - x0> of a finite group."""
    x0 = walk.base_point
    return closure(walk, [walk.add(x, walk.neg(x0)) for x, _ in walk.steps])


def reach_and_period(walk: Walk) -> tuple[bool, int | None]:
    """Irreducibility by BFS from 0, and the period as the gcd of
    dist(u) + 1 - dist(u + s) over all edges (None when reducible)."""
    dist = {walk.zero: 0}
    frontier = [walk.zero]
    while frontier:
        nxt = []
        for u in frontier:
            for s, _ in walk.steps:
                v = walk.add(u, s)
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    if len(dist) != walk.order:
        return False, None
    period = 0
    for u, du in dist.items():
        for s, _ in walk.steps:
            period = math.gcd(period, du + 1 - dist[walk.add(u, s)])
    return True, period


def live_coset(walk: Walk, n: int, w: set) -> set[tuple[int, ...]]:
    shift = walk.scale(n, walk.base_point)
    return {walk.add(shift, x) for x in w}


def tv_to_uniform(law, coset: set) -> Fraction:
    """Exact TV distance between p^(n) and the uniform law on the coset."""
    u = Fraction(1, len(coset))
    total = sum((abs(law.get(x, 0) - (u if x in coset else 0)) for x in coset | set(law)),
                Fraction(0))
    return total / 2


def sup_error_d0(law, coset: set) -> Fraction:
    """Exact sup |p^(n)(x) - 1/|W| [x in coset]| (the rank-0 attractor)."""
    u = Fraction(1, len(coset))
    return max(abs(law.get(x, 0) - (u if x in coset else 0)) for x in coset | set(law))


def quotient_invariants(walk: Walk, w: set) -> list[int]:
    """Invariant factors d1 | d2 | ... of G/W (finite G), ascending.

    Read off from the sizes of the k-torsion subgroups of Q = G/W:
    |Q[k]| = |{x in G : kx in W}| / |W|.  For a prime p, the number of
    cyclic p-parts of exponent >= j is log_p(|Q[p^j]| / |Q[p^(j-1)]|).
    """
    q = walk.order // len(w)

    def torsion_size(k: int) -> int:
        return sum(1 for x in walk.elements() if walk.scale(k, x) in w) // len(w)

    exps_by_prime = {}
    rest = q
    p = 2
    while rest > 1:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            counts, prev, j = [], 1, 1
            while True:
                size = torsion_size(p ** j)
                if size == prev:
                    break
                ratio, c = size // prev, 0
                while ratio > 1:
                    ratio //= p
                    c += 1
                counts.append(c)
                prev, j = size, j + 1
            exps_by_prime[p] = [sum(1 for c in counts if c > i) for i in range(counts[0])]
        p += 1
    length = max((len(e) for e in exps_by_prime.values()), default=0)
    factors = [math.prod(p ** (e[i] if i < len(e) else 0) for p, e in exps_by_prime.items())
               for i in range(length)]
    return sorted(factors)
