"""The coset dance of a random walk.

A finite-range walk driven by p confines its step-n distribution to the
moving coset W + n*x0, where x0 is any support point and W is the walk
subgroup generated by supp(p) - x0 (the choice of x0 does not matter).
The dance function

    theta(n, x) = c * [x - n*x0 in W]

records this, scaled by the integer c = |Tor(G/W)|, which is also the
total Haar mass of the unit-modulus locus of p's characteristic
function.  That locus,

    Omega(p) = { characters xi : |p_hat(xi)| = 1 },

is a closed subgroup of the dual, dual to G/W, and W is exactly its
annihilator.  Membership in Omega(p) is decided exactly: |p_hat(xi)| = 1
holds precisely when xi has the same rational phase at every support
point, so no floating-point comparison is ever involved.

The spectral gap rho is the largest characteristic-function modulus
strictly inside the unit circle, taken over the finite dual of the
torsion component; it controls all the exponential error terms.
"""

from __future__ import annotations

import cmath
import itertools
from functools import lru_cache
from math import gcd, lcm

from ._value import Value
from .group import (
    DualPoint,
    Element,
    Subgroup,
    UnsupportedOperationError,
)
from .intlinalg import InvariantViolationError
from .measure import Distribution, torsion_pushforward


class DanceData(Value):
    """Structural description of a walk's coset dance.

    walk_subgroup   the subgroup W generated by supp(p) - x0
    base_point      the canonical x0: least support point, lexicographic
    rank_d          free rank of W (0 exactly when W is finite)
    normalization_c total Haar mass of the unit-modulus locus; equals
                    |Tor(G/W)|, and |G|/|W| when G is finite
    omega_invariants  canonical invariants of G/W; the unit-modulus
                    locus is isomorphic to the dual of G/W
    """

    __slots__ = ("walk_subgroup", "base_point", "rank_d", "normalization_c", "omega_invariants")

    def __init__(self, walk_subgroup: Subgroup, base_point: Element, rank_d: int,
                 normalization_c: int, omega_invariants: tuple[tuple[int, ...], int]):
        self._set(walk_subgroup, base_point, rank_d, normalization_c, omega_invariants)

    def theta(self, n: int, x: Element) -> int:
        """Dance function: normalization_c on the live coset, else 0."""
        if x.group != self.base_point.group:
            raise ValueError("element lives in a different group")
        return self.theta_coords(n, x.coords())

    def theta_coords(self, n: int, x: tuple[int, ...]) -> int:
        """theta(n, x) for x given by its coordinates."""
        diff = [a - n * b for a, b in zip(x, self.base_point.coords())]
        return self.normalization_c if self.walk_subgroup.contains_coords(diff) else 0

    def coset_at(self, n: int) -> list[Element]:
        """The live coset W + n*x0 (finite walk subgroups only)."""
        g = self.base_point.group
        return [g.element_from_coords(c) for c in self.coset_coords(n)]

    def coset_coords(self, n: int) -> list[tuple[int, ...]]:
        """Coordinate tuples of the live coset W + n*x0, sorted."""
        moduli = self.base_point.group.torsion_moduli
        shift = (n * self.base_point).coords()
        return sorted(tuple((a + b) % m for a, b, m in zip(w, shift, moduli)) + shift[len(moduli):]
                      for w in self.walk_subgroup.element_coords())


class SpectralGap(Value):
    """Largest sub-unit characteristic-function modulus on the torsion dual."""

    __slots__ = ("rho", "achieved_at")

    def __init__(self, rho: float, achieved_at: DualPoint | None):
        self._set(rho, achieved_at)


def analyze_dance(p: Distribution) -> DanceData:
    """Compute the walk subgroup and dance data of a distribution.

    The base point is fixed as the least support element so results are
    reproducible; any other support point yields the same data.
    """
    x0 = min(p._nums)
    walk = Subgroup(p.group, [[a - b for a, b in zip(x, x0)] for x in p._nums])
    moduli, free = walk.quotient_invariants()
    c = 1
    for m in moduli:
        c *= m
    return DanceData(
        walk_subgroup=walk,
        base_point=p.group.element_from_coords(x0),
        rank_d=walk.rank(),
        normalization_c=c,
        omega_invariants=(moduli, free),
    )


def dance_of(p: Distribution) -> DanceData:
    """analyze_dance(p), computed on first use and kept on the immutable p."""
    if p._dance is None:
        object.__setattr__(p, "_dance", analyze_dance(p))
    return p._dance


def _exact_poly_div(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact quotient of integer polynomials (den monic, coefficients low
    to high); used only for cyclotomic factors, where divisibility holds."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        q[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    return q


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_poly_div(poly, _cyclotomic(d))
    return tuple(poly)


def _phase_sum_is_zero(terms: dict[int, int], order: int) -> bool:
    """Exact vanishing test for sum of num * zeta**phase over terms.items().

    zeta = exp(2 pi i / order) and the numerators are integers.  With
    g = gcd(order, phases) the sum is a polynomial in the primitive
    (order // g)-th root zeta**g; it vanishes exactly when that
    cyclotomic polynomial divides it.
    """
    g = gcd(order, *terms)
    n = order // g
    rem = [0] * n
    for phase, num in terms.items():
        rem[phase // g] += num
    cyc = _cyclotomic(n)
    lead = len(cyc) - 1
    for i in range(len(rem) - 1, lead - 1, -1):
        c = rem[i]
        if c:
            for j, d in enumerate(cyc):
                rem[i - lead + j] -= c * d
    return not any(rem)


def _assert_constant_free_part(p: Distribution):
    t = len(p.group.torsion_moduli)
    if len({x[t:] for x in p._nums}) > 1:
        raise InvariantViolationError(
            "rank-0 walk with non-constant free part; the torsion projection "
            "would not match the sliced distribution")


def spectral_gap(p: Distribution) -> SpectralGap:
    """Exponential-error rate rho of the walk.

    Computed on the torsion projection p_A: rho is the largest
    |p_A_hat(alpha)| over torsion characters alpha outside the
    unit-modulus locus, 0 when no such character exists.  For finite
    groups p_A is p itself.  Character phases are integers mod
    L = lcm(m_i), so membership in the locus (one phase at every support
    point) is tested exactly; a modulus that could be 0 is settled by the
    exact cyclotomic test, and only the final modulus is floating point.
    """
    if dance_of(p).rank_d == 0:
        _assert_constant_free_part(p)
    pa = torsion_pushforward(p)
    moduli = pa.group.torsion_moduli
    order = lcm(*moduli)
    den = pa._den
    # phase of character k at x: sum(k_i * x_i * (L // m_i)) mod L
    points = [(tuple(c * (order // m) for c, m in zip(x, moduli)), v)
              for x, v in sorted(pa._nums.items())]

    @lru_cache(maxsize=None)
    def root(phase: int) -> complex:
        # k / L is the exact phase correctly rounded to a double
        return cmath.exp(2j * cmath.pi * (phase / order))

    rho = 0.0
    best = None
    for chars in itertools.product(*(range(m) for m in moduli)):
        terms: dict[int, int] = {}
        for scaled, num in points:
            phase = sum(k * c for k, c in zip(chars, scaled)) % order
            terms[phase] = terms.get(phase, 0) + num
        if len(terms) == 1:  # one phase everywhere: |p_A_hat| = 1
            continue
        modulus = abs(sum(complex(num / den) * root(phase) for phase, num in terms.items()))
        # Rounding error of modulus, with u = 2**-53 and weights summing
        # to 1: the weight quotient, the angle 2 pi * (k / L) (pi, the
        # quotient and the product round once each: under 2 pi * 3u < 19u),
        # sin and cos (within 1 ulp each, 2u) and the product with the
        # weight make each term off by under 23u times its weight, 23u in
        # all; adding the |S| terms costs at most sqrt(2) * (|S| - 1) * u
        # and abs one more u.  (|S| + 16) * 2**-52 bounds the total, so a
        # modulus above it cannot be 0 and needs no exact test.
        if modulus <= (len(terms) + 16) * 2.0 ** -52 and _phase_sum_is_zero(terms, order):
            modulus = 0.0
        if modulus > rho:
            rho, best = modulus, chars
    if best is not None:
        best = DualPoint(pa.group, best, ())
    return SpectralGap(rho=rho, achieved_at=best)


def theta_by_integration(p: Distribution, n: int, x: Element) -> float:
    """Brute-force dance function on a finite group.

    Sums p_hat(xi)^n * conj(chi_xi(x)) over the whole unit-modulus locus,
    located by the exact phase test; serves as an independent oracle for
    theta.  As in spectral_gap, the phases are integers mod L = lcm(m_i),
    and k / L is the exact phase correctly rounded to a double.  The exact
    result is a nonnegative integer, so the float sum is returned bare
    (its imaginary part vanishes up to rounding).
    """
    g = p.group
    if not g.is_finite:
        raise UnsupportedOperationError("integration oracle needs a finite dual")
    if x.group != g:
        raise ValueError("element is not in the paired group")
    moduli = g.torsion_moduli
    order = lcm(*moduli)
    scale = [order // m for m in moduli]
    first, *rest = [[c * s for c, s in zip(y, scale)] for y in sorted(p._nums)]
    target = [c * s for c, s in zip(x.torsion, scale)]
    total = 0 + 0j
    for chars in itertools.product(*(range(m) for m in moduli)):
        base = sum(k * c for k, c in zip(chars, first)) % order
        if any(sum(k * c for k, c in zip(chars, y)) % order != base for y in rest):
            continue
        # p_hat(xi) = exp(2 pi i * base / L) exactly on the locus
        phase = (n * base - sum(k * c for k, c in zip(chars, target))) % order
        total += cmath.exp(2j * cmath.pi * (phase / order))
    return total.real


def period_if_irreducible(p: Distribution) -> int:
    """Index of the walk subgroup; the walk's period when irreducible.

    Meaningful as a period only for irreducible walks (the caller, or
    classify, must establish that); for them the index [G : W] equals
    gcd of the return times.
    """
    idx = dance_of(p).walk_subgroup.index()
    if idx is None:
        raise ValueError("period undefined: [G:G_p] infinite")
    return idx
