"""Finitely supported probability distributions with exact rational weights.

Convolution runs on a packed form of the law: integer numerators over
one common denominator, keyed by integer coordinates in the walk's own
lattice.  A torsion axis holds the residue in [0, m), folded mod m after
each product.  The free part of x - n*x0 is written in a Hermite basis
of the lattice L spanned by the free parts of supp(p) - x0, so a walk on
a line or a sublattice gets a box that grows with its own support and
not with the ambient Z^k.  A product packs both operands into
fixed-width slots of one integer (Kronecker substitution), makes a
single big-integer multiplication and reads the slots back with
``int.to_bytes``.  The box is dense, and its cells are the product of
its sides, so where it holds more cells than there are pairs of support
points (a thin support over many axes, or two far-apart residues of a
large Z_m) the product is the double loop over the pairs instead.
One power ladder (``_powers``) serves every set of steps; the window,
the TV sum and the CLI read its laws, keyed by group coordinates, and a
``Distribution`` is built only where the public API returns one.  Total
mass is exactly 1 after every operation.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .group import Element, GroupSpec, Homomorphism
from .intlinalg import InvariantViolationError, lattice_basis


class Distribution:
    """A probability distribution with finite support and rational weights."""

    __slots__ = ("group", "_weights", "_dance")

    def __init__(self, group: GroupSpec, weights):
        cleaned: dict[Element, Fraction] = {}
        for x, w in dict(weights).items():
            if x.group != group:
                raise ValueError("support point lives in a different group")
            w = Fraction(w)
            if w < 0:
                raise ValueError("negative weight")
            if w == 0:
                continue
            cleaned[x] = w
        if not cleaned:
            raise ValueError("support must be nonempty")
        den = lcm(*(w.denominator for w in cleaned.values()))
        if sum(w.numerator * (den // w.denominator) for w in cleaned.values()) != den:
            raise ValueError("weights must sum to exactly 1")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "_weights", cleaned)
        # DanceData of this law, filled in by dance.dance_of on first use.
        object.__setattr__(self, "_dance", None)

    def __setattr__(self, name, value):
        raise AttributeError("Distribution is immutable")

    @classmethod
    def point_mass(cls, group: GroupSpec, x: Element | None = None) -> "Distribution":
        return cls(group, {x if x is not None else group.identity(): Fraction(1)})

    def support(self) -> list[Element]:
        return sorted(self._weights)

    def weight(self, x: Element) -> Fraction:
        return self._weights.get(x, Fraction(0))

    def items(self):
        return sorted(self._weights.items())

    def __len__(self) -> int:
        return len(self._weights)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Distribution)
                and self.group == other.group
                and self._weights == other._weights)

    def __hash__(self) -> int:
        return hash((self.group, frozenset(self._weights.items())))

    def __repr__(self) -> str:
        entries = ", ".join(f"{x.coords()}: {w}" for x, w in self.items())
        return f"Distribution({{{entries}}})"


# A packed law is (den, {coords: numerator}) with the numerators summing
# to den; coords are the torsion residues followed by the lattice coordinates.
_Packed = tuple[int, dict[tuple[int, ...], int]]


def _base(p: Distribution) -> tuple[int, ...]:
    """Free part of the support point that p's lattice coordinates start from."""
    return next(iter(p._weights)).free


def _lattice(group: GroupSpec, laws) -> tuple[tuple[int, ...], ...]:
    """Hermite basis of the lattice spanned by free(supp(q)) - _base(q) over the laws."""
    diffs = {tuple(a - b for a, b in zip(x.free, _base(q))) for q in laws for x in q._weights}
    return lattice_basis(diffs, group.free_rank)


def _pack_law(p: Distribution, basis) -> tuple[tuple[int, ...], _Packed]:
    """p as (free base point, packed law) in the lattice coordinates of basis."""
    pivots = [next(j for j, e in enumerate(row) if e) for row in basis]
    base = _base(p)
    den = lcm(*(w.denominator for w in p._weights.values()))
    nums = {}
    for x, w in p._weights.items():
        coords = list(x.torsion)
        v = [a - b for a, b in zip(x.free, base)]
        for row, j in zip(basis, pivots):
            c = v[j] // row[j]  # exact: v lies in the lattice
            coords.append(c)
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        nums[tuple(coords)] = w.numerator * (den // w.denominator)
    return base, (den, nums)


def _unpack_law(t: int, basis, base, nums) -> dict[tuple[int, ...], int]:
    """The numerators of a packed law with t torsion axes, keyed by group coordinates."""
    out = {}
    for coords, v in nums.items():
        free = base
        for c, row in zip(coords[t:], basis):
            if c:
                free = [f + c * b for f, b in zip(free, row)]
        out[coords[:t] + tuple(free)] = v
    return out


def _distribution(group: GroupSpec, den: int, nums) -> Distribution:
    """The Distribution of numerators over den keyed by group coordinates."""
    return Distribution(group, {group.element_from_coords(c): Fraction(v, den)
                                for c, v in nums.items()})


def _box(na, nb) -> tuple[list[int], list[int], list[int]]:
    """Lowest key of each operand and the sides of the box holding every sum of keys."""
    lo_a, hi_a = _extent(na)
    lo_b, hi_b = (lo_a, hi_a) if nb is na else _extent(nb)
    return lo_a, lo_b, [ha - la + hb - lb + 1 for la, ha, lb, hb in zip(lo_a, hi_a, lo_b, hi_b)]


def _extent(nums) -> tuple[list[int], list[int]]:
    """Lowest and highest coordinate of the keys on every axis."""
    axes = list(zip(*nums))
    return [min(c) for c in axes], [max(c) for c in axes]


def _pack(nums, lo, strides, width: int, size: int) -> int:
    """The numerators in `width`-byte slots, at their offsets from lo in the box."""
    buf = bytearray(size * width)
    for coords, v in nums.items():
        at = width * sum((c - l) * s for c, l, s in zip(coords, lo, strides))
        buf[at:at + width] = v.to_bytes(width, "little")
    return int.from_bytes(buf, "little")


def _kronecker(na, nb, lo_a, lo_b, sides, moduli, bound: int) -> dict[tuple[int, ...], int]:
    """Convolution of two numerator dicts as one big-integer product over the box.

    bound is the largest coefficient the product can hold.
    """
    strides, size = [], 1
    for s in reversed(sides):
        strides.append(size)
        size *= s
    strides.reverse()
    width = (bound.bit_length() + 7) // 8
    packed = _pack(na, lo_a, strides, width, size)
    other = packed if nb is na else _pack(nb, lo_b, strides, width, size)
    raw = (packed * other).to_bytes(size * width, "little")
    values = [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]
    cells = itertools.product(*(range(a + b, a + b + s) for a, b, s in zip(lo_a, lo_b, sides)))
    out: dict[tuple[int, ...], int] = {}
    for c, v in zip(cells, values):
        if v:
            c = tuple(x % m if m else x for x, m in zip(c, moduli))
            out[c] = out.get(c, 0) + v
    return out


def _pairwise(na, nb, moduli) -> dict[tuple[int, ...], int]:
    """Convolution of two numerator dicts as the double loop over pairs of keys."""
    out: dict[tuple[int, ...], int] = {}
    for ca, va in na.items():
        for cb, vb in nb.items():
            c = tuple((x + y) % m if m else x + y for x, y, m in zip(ca, cb, moduli))
            out[c] = out.get(c, 0) + va * vb
    return out


def _product(a: _Packed, b: _Packed, moduli) -> _Packed:
    """Exact convolution of two packed laws.

    moduli gives m_i for a torsion axis, folded mod m_i, and 0 for a
    lattice axis.  The product is one Kronecker-packed multiplication
    unless its box has more cells than there are pairs of keys; then it
    is the double loop over the pairs.
    """
    (da, na), (db, nb) = a, b
    lo_a, lo_b, sides = _box(na, nb)
    if prod(sides) > len(na) * len(nb):
        return da * db, _pairwise(na, nb, moduli)
    return da * db, _kronecker(na, nb, lo_a, lo_b, sides, moduli, da * db)


def convolve(p: Distribution, q: Distribution) -> Distribution:
    """Distribution of X + Y for independent X ~ p, Y ~ q (exact)."""
    if p.group != q.group:
        raise ValueError("distributions live on different groups")
    basis = _lattice(p.group, (p, q))
    base_p, a = _pack_law(p, basis)
    base_q, b = (base_p, a) if q is p else _pack_law(q, basis)
    moduli = p.group.torsion_moduli + (0,) * len(basis)
    den, nums = _product(a, b, moduli)
    base = [x + y for x, y in zip(base_p, base_q)]
    return _distribution(p.group, den, _unpack_law(len(p.group.torsion_moduli), basis, base, nums))


def _powers(p: Distribution, steps):
    """(n, den, {group coords: numerator}) of p^(n) for each n in steps, in sorted order.

    Every power made is kept.  p^n is p^k * p^(n-k) for the largest k
    with both factors made (p^(n+1) from p^n and p, p^20 from p^10),
    else p^(n//2) * p^(n - n//2).  p^0 is the point mass at the identity.
    """
    g = p.group
    basis = _lattice(g, (p,))
    base, law = _pack_law(p, basis)
    moduli = g.torsion_moduli + (0,) * len(basis)
    made = {0: (1, {(0,) * len(moduli): 1}), 1: law}

    def power(n: int) -> _Packed:
        if n not in made:
            k = max((k for k in made if 0 < k < n and n - k in made), default=n // 2)
            made[n] = _product(power(k), power(n - k), moduli)
        return made[n]

    for n in sorted(steps):
        if n < 0:
            raise ValueError("negative convolution power")
        den, nums = power(n)
        if sum(nums.values()) != den:
            raise InvariantViolationError("convolution power lost mass")
        yield n, den, _unpack_law(len(g.torsion_moduli), basis, [n * c for c in base], nums)


def convolution_power(p: Distribution, n: int) -> Distribution:
    """The n-fold convolution of p with itself, by repeated squaring.

    n = 0 returns the point mass at the identity (the convolution unit);
    walks themselves start at n = 1.
    """
    (_, den, nums), = _powers(p, (n,))
    return _distribution(p.group, den, nums)


def pushforward(p: Distribution, f: Homomorphism) -> Distribution:
    """Image distribution q(y) = sum of p(x) over f(x) = y."""
    if f.source != p.group:
        raise ValueError("map does not start at the distribution's group")
    out: dict[Element, Fraction] = {}
    for x, w in p._weights.items():
        y = f(x)
        out[y] = out.get(y, Fraction(0)) + w
    return Distribution(f.target, out)


def torsion_pushforward(p: Distribution) -> Distribution:
    """Project onto the torsion component, aggregating weights."""
    g = p.group
    if g.free_rank == 0:
        return p
    target = g.torsion_component()
    out: dict[Element, Fraction] = {}
    for x, w in p._weights.items():
        y = target.element(x.torsion, ())
        out[y] = out.get(y, Fraction(0)) + w
    return Distribution(target, out)


@dataclass(frozen=True)
class WalkPath:
    """Positions of one walk realization, starting at the identity."""

    positions: tuple[Element, ...]

    def __len__(self) -> int:
        return len(self.positions) - 1


def sample_path(p: Distribution, n: int, seed: int) -> WalkPath:
    """A length-n walk driven by p, deterministic for a fixed seed.

    Steps are drawn by inverse CDF over the sorted support, comparing the
    generator's output against exact cumulative weights, so two runs with
    the same seed always produce identical paths.
    """
    if n < 0:
        raise ValueError("negative path length")
    rng = random.Random(seed)
    support = p.support()
    cumulative = []
    acc = Fraction(0)
    for x in support:
        acc += p.weight(x)
        cumulative.append((acc, x))
    pos = p.group.identity()
    positions = [pos]
    for _ in range(n):
        u = Fraction(rng.random())
        step = next(x for acc, x in cumulative if u < acc)
        pos = pos + step
        positions.append(pos)
    return WalkPath(tuple(positions))
