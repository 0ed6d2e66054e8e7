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
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from operator import index

from ._value import Value
from .group import (
    DualPoint,
    Element,
    Subgroup,
    UnsupportedOperationError,
    whole_group,
)
from .measure import Distribution, _walk, torsion_pushforward


class DanceData(Value):
    """Structural description of a walk's coset dance: two fields, and
    what is read from W and the quotient map that W keeps.

    walk_subgroup   the subgroup W generated by supp(p) - x0
    base_point      the canonical x0: least support point, lexicographic
    rank_d          free rank of W (0 exactly when W is finite)
    normalization_c total Haar mass of the unit-modulus locus; equals
                    |Tor(G/W)|, and |G|/|W| when G is finite
    omega_invariants  canonical invariants of G/W; the unit-modulus
                    locus is isomorphic to the dual of G/W
    """

    __slots__ = ("walk_subgroup", "base_point")

    def __init__(self, walk_subgroup: Subgroup, base_point: Element):
        self._set(walk_subgroup, base_point)

    @property
    def rank_d(self) -> int:
        return self.walk_subgroup.rank()

    @property
    def normalization_c(self) -> int:
        return prod(self.walk_subgroup.quotient_invariants()[0])

    @property
    def omega_invariants(self) -> tuple[tuple[int, ...], int]:
        return self.walk_subgroup.quotient_invariants()

    def theta(self, n: int, x: Element) -> int:
        """Dance function: normalization_c on the live coset, else 0."""
        if x.group != self.base_point.group:
            raise ValueError("element lives in a different group")
        image = self.walk_subgroup._image  # live: x and n*x0 have one image in G/W
        live = image(x.coords()) == image([index(n) * c for c in self.base_point.coords()])
        return self.normalization_c if live else 0

    def coset_coords(self, n: int):
        """The live coset W + n*x0 (finite W only) by W.element_coords: lazy, sorted."""
        return self.walk_subgroup.element_coords([n * c for c in self.base_point.coords()])


class SpectralGap(Value):
    """Largest sub-unit characteristic-function modulus on the torsion dual.

    One made by spectral_gap also keeps _rho_up, the exact upper bound on
    the true gap that spectral_gap describes, for the TV bound to read.
    """

    __slots__ = ("rho", "achieved_at", "_rho_up")

    def __init__(self, rho: float, achieved_at: DualPoint | None):
        self._set(rho, achieved_at)


def analyze_dance(p: Distribution) -> DanceData:
    """Compute the walk subgroup and dance data of a distribution.

    The base point is fixed as the least support element so results are
    reproducible; any other support point yields the same data.
    """
    return DanceData(_walk(p), p.group.element_from_coords(min(p._nums)))


dance_of = analyze_dance  # the law keeps W, so the dance data need no cache


def _phase_sums(p: Distribution):
    """Each character k of p's finite group, in sorted order, with p's numerators
    summed by the phase of k at x: sum(k_i * x_i * (L // m_i)) mod L = lcm(m_i)."""
    moduli = p.group.torsion_moduli
    order = lcm(*moduli)
    points = [(tuple(c * (order // m) for c, m in zip(x, moduli)), v)
              for x, v in sorted(p._nums.items())]
    for chars in whole_group(p.group).element_coords():
        terms: dict[int, int] = {}
        for scaled, num in points:
            phase = sum(k * c for k, c in zip(chars, scaled)) % order
            terms[phase] = terms.get(phase, 0) + num
        yield chars, terms


# The most characters the gap scan visits.  It admits 1/2 on 0 and 1 in
# Z_1000003 (about 4 s of scan) and the 2**18 characters of Z_2^18.
_MAX_CHARACTERS = 10 ** 7


def _gap(rho: float, best, rho_up: Fraction) -> SpectralGap:
    """The gap rho, attained at best, keeping rho_up."""
    gap = SpectralGap(rho=rho, achieved_at=best)
    object.__setattr__(gap, "_rho_up", rho_up)
    return gap


def spectral_gap(p: Distribution) -> SpectralGap:
    """Exponential-error rate rho of the walk.

    Computed on the torsion projection p_A = torsion_pushforward(p), on
    the finite group A, and on p only through p_A: rho is the largest
    |p_A_hat(alpha)| over torsion characters alpha outside the
    unit-modulus locus Omega_A (p_A is p on finite groups).  Phases
    are integers mod L = lcm(m_i), so the locus (one phase at every
    support point) is found exactly; a modulus off it is a double within
    e_scan = (|S| + 16) * 2**-52 of the exact one, S = supp p_A.

    By Fourier inversion on A, every character off the locus is 0 exactly
    when p_A is uniform on a coset of its walk subgroup W_A, that is on
    |S| = |W_A| points.  That is decided before the scan, from the order
    of p_A's walk subgroup, and then rho is 0.0 and achieved_at
    None.  Otherwise rho is the largest double modulus and achieved_at
    the first character attaining it.  The true rho is at most the gap's
    _rho_up, which adds e_scan unless the scan was skipped.
    Above 2 * e_scan both are bit for bit those of a scan with an exact
    zero test at every character, as an exact zero computes to at most
    e_scan.  Below it, rho is rounding noise within e_scan of the true
    maximum: p(x) = 1/6 + 10^-30 * (-1)^x on Z_6 has rho = 6 * 10^-30,
    e_scan = 22 * 2**-52 (about 4.9e-15), and the scan reads 1.24e-16 at (2,).
    UnsupportedOperationError if the scan would visit more than
    _MAX_CHARACTERS characters, |A| of them.
    """
    pa = torsion_pushforward(p)
    if len(set(pa._nums.values())) == 1 and len(pa) == _walk(pa).order():
        return _gap(0.0, None, Fraction(0))
    if pa.group.torsion_order > _MAX_CHARACTERS:
        raise UnsupportedOperationError(
            f"the gap scan would visit {pa.group.torsion_order} characters, "
            f"past the budget of {_MAX_CHARACTERS}")
    order, den = lcm(*pa.group.torsion_moduli), pa._den

    @lru_cache(maxsize=1 << 12)  # at most 4096 of the lcm(m_i) phases
    def root(phase: int) -> complex:
        # k / L is the exact phase correctly rounded to a double
        return cmath.exp(2j * cmath.pi * (phase / order))

    rho, best = 0.0, None
    for chars, terms in _phase_sums(pa):
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
    return _gap(rho, best, Fraction(rho) + Fraction(len(pa) + 16, 1 << 52))


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
    order = lcm(*g.torsion_moduli)
    target = [c * (order // m) for c, m in zip(x.torsion, g.torsion_moduli)]
    total = 0 + 0j
    for chars, terms in _phase_sums(p):
        if len(terms) != 1:
            continue
        base, = terms  # p_hat(xi) = exp(2 pi i * base / L) exactly on the locus
        phase = (index(n) * base - sum(k * c for k, c in zip(chars, target))) % order
        total += cmath.exp(2j * cmath.pi * (phase / order))
    return total.real

