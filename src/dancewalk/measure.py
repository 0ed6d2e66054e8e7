"""Finitely supported probability distributions with exact rational weights.

A ``Distribution`` holds its law: integer numerators over one common
denominator in lowest terms, keyed by group coordinates (torsion
residues in [0, m), then the free part).  ``Element`` and ``Fraction``
objects are built only where ``support``, ``items``, ``weight`` and
``sample_path`` are called.  Convolution packs the law in the walk's own
lattice: the free part of x - n*x0 is written in a Hermite basis of the
lattice L spanned by the free parts of supp(p) - x0, so a walk on a
line or a sublattice gets a box that grows with its own support and not
with the ambient Z^k.  A product packs both operands into fixed-width
slots of one integer (Kronecker substitution), makes a single
big-integer multiplication and reads the slots of its ``int.to_bytes``
straight into the product's dict; torsion axes are folded mod m.  The
box is dense, and its cells are the product of its sides, so where it
holds more cells than there are pairs of support points (a thin support
over many axes, or two far-apart residues of a large Z_m) the product
is the double loop over the pairs instead.
``_powers`` serves every set of steps and yields the numerators of p^(n)
over p._den ** n, unreduced; ``convolution_power`` reduces them into a
``Distribution``.  It refuses a power past its bit budget, and chooses
its method, before any work.  A law with no torsion axis may take J. C.
P. Miller's recurrence, which makes each step alone from the law's
numerators, with no big-by-big product, in about the step's box cells
times |S| - 1 multiplications of a numerator by a small int; a walk with
few support points does.  The chooser weighs that against the planned
ladder's cost, its rungs' cells or pairs of keys and, growing fastest,
its top product, with the measured constants in ``_recurrence``: a
wide support (200 points of Z^2), a thin support over many axes (the
simplex on Z^6) and every walk with a torsion axis keep the ladder.  The
ladder frees each rung after its last read and drains a rung into the
step that reads it last.  Total mass is exactly 1 after every operation.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from math import comb, gcd, lcm, prod
from operator import add, index, mod

from ._value import Value
from .group import Element, GroupSpec, Homomorphism, UnsupportedOperationError
from .intlinalg import IntMatrix, InvariantViolationError, lattice_basis


class Distribution(Value):
    """A probability distribution with finite support and rational weights.

    weights is a mapping or (element, weight) pairs; equal elements add up.
    It is immutable and can be copied and pickled, as every Value; it is
    compared, hashed and shown by its law.
    """

    __slots__ = ("group", "_den", "_nums", "_dance")

    def __init__(self, group: GroupSpec, weights):
        fracs: dict[tuple[int, ...], Fraction] = {}
        for x, w in (weights.items() if hasattr(weights, "items") else weights):
            if x.group != group:
                raise ValueError("support point lives in a different group")
            w = Fraction(w)
            if w < 0:
                raise ValueError("negative weight")
            fracs[x.coords()] = fracs.get(x.coords(), 0) + w
        den = lcm(*(w.denominator for w in fracs.values()))
        nums = {c: w.numerator * (den // w.denominator) for c, w in fracs.items() if w}
        if not nums:
            raise ValueError("support must be nonempty")
        if sum(nums.values()) != den:
            raise ValueError("weights must sum to exactly 1")
        self._init(group, den, nums)

    @classmethod
    def _law(cls, group: GroupSpec, den: int, nums: dict) -> "Distribution":
        """The law of positive numerators over den keyed by group coordinates, unchecked."""
        g = gcd(den, *nums.values())
        if g > 1:
            den, nums = den // g, {c: v // g for c, v in nums.items()}
        p = object.__new__(cls)
        p._init(group, den, nums)
        return p

    def _init(self, group: GroupSpec, den: int, nums: dict):
        self._set(group)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_nums", nums)
        # DanceData of this law, filled in by dance.dance_of on first use.
        object.__setattr__(self, "_dance", None)

    @classmethod
    def point_mass(cls, group: GroupSpec, x: Element | None = None) -> "Distribution":
        return cls(group, {x if x is not None else group.identity(): Fraction(1)})

    def support(self) -> list[Element]:
        return [self.group.element_from_coords(c) for c in sorted(self._nums)]

    def weight(self, x: Element) -> Fraction:
        v = self._nums.get(x.coords(), 0) if x.group == self.group else 0
        return Fraction(v, self._den)

    def items(self) -> list[tuple[Element, Fraction]]:
        return [(self.group.element_from_coords(c), Fraction(v, self._den))
                for c, v in sorted(self._nums.items())]

    def __len__(self) -> int:
        return len(self._nums)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Distribution) and self.group == other.group
                and self._den == other._den and self._nums == other._nums)

    def __hash__(self) -> int:
        return hash((self.group, self._den, frozenset(self._nums.items())))

    def __repr__(self) -> str:
        entries = ", ".join(f"{x.coords()}: {w}" for x, w in self.items())
        return f"Distribution({{{entries}}})"


# A packed law is (den, {coords: numerator}) with the numerators summing
# to den; coords are the torsion residues followed by the lattice coordinates.
_Packed = tuple[int, dict[tuple[int, ...], int]]


def _base(p: Distribution) -> tuple[int, ...]:
    """Free part of the support point that p's lattice coordinates start from."""
    return next(iter(p._nums))[len(p.group.torsion_moduli):]


def _lattice(group: GroupSpec, laws) -> tuple[tuple[int, ...], ...]:
    """Hermite basis of the lattice spanned by free(supp(q)) - _base(q) over the laws."""
    t = len(group.torsion_moduli)
    diffs = {tuple(a - b for a, b in zip(x[t:], _base(q))) for q in laws for x in q._nums}
    return lattice_basis(diffs, group.free_rank)


def _pack_law(p: Distribution, basis) -> tuple[tuple[int, ...], _Packed]:
    """p as (free base point, packed law) in the lattice coordinates of basis."""
    pivots = [next(j for j, e in enumerate(row) if e) for row in basis]
    t = len(p.group.torsion_moduli)
    base = _base(p)
    nums = {}
    for x, num in p._nums.items():
        coords = list(x[:t])
        v = [a - b for a, b in zip(x[t:], base)]
        for row, j in zip(basis, pivots):
            c = v[j] // row[j]  # exact: v lies in the lattice
            coords.append(c)
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        nums[tuple(coords)] = num
    return base, (p._den, nums)


def _unpack_law(group: GroupSpec, basis, base, law: _Packed, drain: bool = True) -> _Packed:
    """A packed law keyed back by group coordinates, over the same den;
    with drain, the law's dict is emptied as it is read."""
    t = len(group.torsion_moduli)
    den, nums = law
    if sum(nums.values()) != den:
        raise InvariantViolationError("a convolution lost mass")
    out = {}
    for coords, v in (nums.popitem() for _ in range(len(nums))) if drain else nums.items():
        free = base
        for c, row in zip(coords[t:], basis):
            if c:
                free = [f + c * b for f, b in zip(free, row)]
        out[coords[:t] + tuple(free)] = v
    return den, out


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
    del packed, other
    cells = itertools.product(*(range(a + b, a + b + s) for a, b, s in zip(lo_a, lo_b, sides)))
    out: dict[tuple[int, ...], int] = {}
    for at, c in zip(range(0, len(raw), width), cells):
        v = int.from_bytes(raw[at:at + width], "little")
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
    base = [x + y for x, y in zip(base_p, base_q)]
    return Distribution._law(p.group, *_unpack_law(p.group, basis, base, _product(a, b, moduli)))


def _plan(plan: dict, n: int) -> None:
    """Add rung n, after the rungs it is made from, to plan, which maps each
    rung, in the order they are made, to the k with p^n = p^k * p^(n-k):
    the largest k with both factors planned (p^(n+1) from p^n and p, p^20
    from p^10), else n // 2."""
    if n not in plan:
        k = max((k for k in plan if 0 < k < n and n - k in plan), default=n // 2)
        _plan(plan, k)
        _plan(plan, n - k)
        plan[n] = k


# The most bits of numerators a power may hold: 2**30 bits is 128 MiB, a
# few times that while the ladder's top product is made.  p^6000 of the
# simple walk on Z is bounded by 7.2e7 bits.
_MAX_POWER_BITS = 2 ** 30


def _cells(law: _Packed, moduli, n: int) -> tuple[int, int]:
    """The cells of the box of the n-th power of a packed law (m_i on a
    torsion axis, n times the law's extent plus 1 on a lattice axis), and
    an upper bound on the cells the power holds: at most the box's and at
    most the multisets of n support points."""
    lo, hi = _extent(law[1])
    box = prod(m or n * (h - l) + 1 for m, l, h in zip(moduli, lo, hi))
    return box, min(box, comb(n + len(law[1]) - 1, n))


def _power_bits(law: _Packed, moduli, n: int) -> int:
    """An upper bound on the bits of the numerators of the n-th power of a
    packed law: its cells, each a numerator below den ** n."""
    return _cells(law, moduli, n)[1] * n * law[0].bit_length()


def _powers(p: Distribution, steps):
    """(n, den, nums) for each n in steps, in sorted order: p^(n)'s
    numerators by group coordinates over den = p._den ** n, unreduced.

    The ladder is planned by _plan before any work.  A law with no torsion
    axis then takes the recurrence, step by step, where _recurrence.cheaper
    finds it cheaper than the planned ladder.  Otherwise every rung is made
    once and freed after its last read, by a product or by a step; the
    step that reads a rung last drains it.  p^0 is the point mass at the
    identity.  UnsupportedOperationError before any work if the last
    step's numerators may hold more than _MAX_POWER_BITS bits.
    """
    steps = sorted(map(index, steps))
    if steps and steps[0] < 0:
        raise ValueError("negative convolution power")
    plan, ends = {0: 0, 1: 0}, []  # p^0 and p^1 are given, the rest made in order
    for n in steps:
        _plan(plan, n)
        ends.append(len(plan))
    order = list(plan.items())
    reads = Counter(steps + [r for n, k in order[2:] for r in (k, n - k)])
    g = p.group
    basis = _lattice(g, (p,))
    moduli = g.torsion_moduli + (0,) * len(basis)
    made = {0: (1, {(0,) * len(moduli): 1})}
    base, made[1] = _pack_law(p, basis)
    if steps and (bits := _power_bits(made[1], moduli, steps[-1])) > _MAX_POWER_BITS:
        raise UnsupportedOperationError(f"p^{steps[-1]} may hold {bits} bits of numerators, "
                                        f"past the {_MAX_POWER_BITS}-bit budget")
    if not g.torsion_moduli and basis:
        from . import _recurrence  # compiled only for a law with no torsion axis

        if _recurrence.cheaper(made[1], moduli, steps, order[2:]):
            for n in steps:
                yield n, p._den ** n, _recurrence.power(made[1], n, basis, base)
            return

    def read(n):
        reads[n] -= 1
        return made[n] if reads[n] else made.pop(n)

    for n, start, end in zip(steps, [2] + ends, ends):
        for m, k in order[start:end]:
            made[m] = _product(read(k), read(m - k), moduli)
        yield (n, *_unpack_law(g, basis, [n * c for c in base], read(n), n not in made))


def convolution_power(p: Distribution, n: int) -> Distribution:
    """The n-fold convolution of p with itself, from the one planned power ladder.

    n = 0 returns the point mass at the identity (the convolution unit);
    walks themselves start at n = 1.
    """
    (_, den, nums), = _powers(p, (n,))
    return Distribution._law(p.group, den, nums)


def pushforward(p: Distribution, f: Homomorphism) -> Distribution:
    """Image distribution q(y) = sum of p(x) over f(x) = y."""
    if f.source != p.group:
        raise ValueError("map does not start at the distribution's group")
    moduli = f.target.torsion_moduli
    out: dict[tuple[int, ...], int] = {}
    for x, v in p._nums.items():
        y = f.matrix.mul_vec(x)
        y = tuple(c % m for c, m in zip(y, moduli)) + y[len(moduli):]
        out[y] = out.get(y, 0) + v
    return Distribution._law(f.target, p._den, out)


def torsion_pushforward(p: Distribution) -> Distribution:
    """Project onto the torsion component, aggregating weights."""
    g = p.group
    if g.free_rank == 0:
        return p
    rows = [[int(i == j) for j in range(g.dim)] for i in range(len(g.torsion_moduli))]
    return pushforward(p, Homomorphism(g, g.torsion_component(), IntMatrix(rows, cols=g.dim)))


class WalkPath(Value):
    """Positions of one walk realization, starting at the identity."""

    __slots__ = ("positions",)

    def __init__(self, positions: tuple[Element, ...]):
        self._set(positions)

    def __len__(self) -> int:
        return len(self.positions) - 1


def _positions(p: Distribution, n: int, seed: int):
    """The n + 1 positions of a walk driven by p, as coordinate tuples from 0.

    A step is the first point of the sorted support whose cumulative
    numerator acc has u < acc / den.  random() returns exactly u = k / 2**53,
    so that is k * den < acc << 53, decided exactly by bisect_right.
    """
    moduli, den = p.group.torsion_moduli, p._den
    t, steps = len(moduli), sorted(p._nums)
    cuts = [acc << 53 for acc in itertools.accumulate(p._nums[x] for x in steps)]
    rng = random.Random(index(seed))
    pos = (0,) * p.group.dim
    yield pos
    for _ in range(n):
        pos = tuple(map(add, pos, steps[bisect_right(cuts, int(rng.random() * 2**53) * den)]))
        pos = tuple(map(mod, pos[:t], moduli)) + pos[t:]
        yield pos


def sample_path(p: Distribution, n: int, seed: int) -> WalkPath:
    """A length-n walk driven by p, the same for the same seed: the
    positions that _positions draws, as Elements."""
    if n < 0:
        raise ValueError("negative path length")
    if seed < 0:
        raise ValueError("negative seed")
    return WalkPath(tuple(map(p.group.element_from_coords, _positions(p, n, seed))))
