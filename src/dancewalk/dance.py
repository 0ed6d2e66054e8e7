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
from math import lcm

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


def _assert_constant_free_part(p: Distribution):
    t = len(p.group.torsion_moduli)
    if len({x[t:] for x in p._nums}) > 1:
        raise InvariantViolationError(
            "rank-0 walk with non-constant free part; the torsion projection "
            "would not match the sliced distribution")


def _characters(moduli):
    """Every tuple of residues mod moduli, in lexicographic order, its last
    axis a lazy range: itertools.product would store each axis's residues."""
    heads = itertools.product(*map(range, moduli[:-1]))
    return ((*h, k) for h in heads for k in range(moduli[-1])) if moduli else [()]


def spectral_gap(p: Distribution) -> SpectralGap:
    """Exponential-error rate rho of the walk.

    Computed on the torsion projection p_A, on the finite group A: rho is
    the largest |p_A_hat(alpha)| over torsion characters alpha outside
    the unit-modulus locus Omega_A (p_A is p on finite groups).  Phases
    are integers mod L = lcm(m_i), so the locus (one phase at every
    support point) is found exactly; a modulus off it is a double within
    e_scan = (|S| + 16) * 2**-52 of the exact one, S = supp p_A.

    By Fourier inversion on A, every character off the locus is 0 exactly
    when p_A is uniform on a coset of W_A, the annihilator of Omega_A,
    that is on |S| = |W_A| points, W_A generated by S - x0.  That is
    decided before the scan, from one Hermite form, and then rho is 0.0
    and achieved_at None.  Otherwise rho is the largest double modulus and
    achieved_at the first character attaining it.  Above 2 * e_scan both
    are bit for bit those of a scan with an exact zero test at every
    character, as an exact zero computes to at most e_scan.  Below it, rho
    is rounding noise within e_scan of the true maximum: p(x) =
    1/6 + 10^-30 * (-1)^x on Z_6 has rho = 6 * 10^-30 and e_scan =
    22 * 2**-52 (about 4.9e-15), and the scan reports 1.24e-16 at (2,).
    """
    if dance_of(p).rank_d == 0:
        _assert_constant_free_part(p)
    pa = torsion_pushforward(p)
    if len(set(pa._nums.values())) == 1:
        x0 = next(iter(pa._nums))
        w_a = Subgroup(pa.group, [[a - b for a, b in zip(x, x0)] for x in pa._nums])
        if len(pa) == w_a.order():  # uniform on a coset of W_A
            return SpectralGap(rho=0.0, achieved_at=None)
    moduli = pa.group.torsion_moduli
    order = lcm(*moduli)
    den = pa._den
    # phase of character k at x: sum(k_i * x_i * (L // m_i)) mod L
    points = [(tuple(c * (order // m) for c, m in zip(x, moduli)), v)
              for x, v in sorted(pa._nums.items())]

    @lru_cache(maxsize=1 << 12)  # at most 4096 of the lcm(m_i) phases
    def root(phase: int) -> complex:
        # k / L is the exact phase correctly rounded to a double
        return cmath.exp(2j * cmath.pi * (phase / order))

    rho, best = 0.0, None
    for chars in _characters(moduli):
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
        # and abs one more u.  (|S| + 16) * 2**-52 bounds the total, so an
        # exactly zero character computes to at most that e_scan.
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
    for chars in _characters(moduli):
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
