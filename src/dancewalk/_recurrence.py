"""Powers of a packed law with lattice axes only by J. C. P. Miller's
recurrence, and the rule by which measure._powers chooses it over the
power ladder before any work.  The module is compiled only where a law's
walk subgroup has no cyclic axis, so never for a walk on a finite group;
measure._unpack_law decodes its cells as it decodes the ladder's.
"""

from __future__ import annotations

import itertools
from math import prod

from .measure import _cells, _extent, _Packed


# The chooser's costs, in nanoseconds, as measured on CPython 3.11 (x86-64)
# over walks on Z, Z^2, Z^3 and Z^6 with 2 to 200 support points: each
# step of the recurrence and each product of the ladder 10000; a term of
# the recurrence, a numerator of b bits times a small int, 150 + 0.15 b; a
# cell or a pair of keys of a product, packed, read and unpacked, 1500;
# and the top product's Karatsuba multiplication 1 per 30-bit digit of its
# operands, to the power 1.585.
def cheaper(law: _Packed, moduli, steps, rungs) -> bool:
    """Whether the recurrence makes the steps more cheaply than the ladder
    makes its rungs, the (m, k) with p^m = p^k * p^(m-k) in the order they
    are made: the recurrence runs over every cell of each step's box with
    |S| - 1 terms, while each product costs the cells of its box or its
    pairs of keys, and the last and largest one its multiplication."""
    bits, size = law[0].bit_length(), len(law[1])
    cells = {n: _cells(law, moduli, n) for n in {1, *steps, *(m for m, _ in rungs)}}
    recurrence = sum(10000 + cells[n][0] * (size - 1) * (1000 + n * bits) * 3 // 20
                     for n in steps)
    work = [min(cells[m][0], cells[k][1] * cells[m - k][1]) for m, k in rungs]
    ladder = sum(10000 + 1500 * c for c in work)
    if rungs:
        ladder += (work[-1] * rungs[-1][0] * bits / 30) ** 1.585
    return recurrence < ladder


def power(law: _Packed, n: int):
    """The nonzero cells of the n-th power of a packed law with lattice
    axes only, lazily, as (coordinates, numerator) over den ** n in the
    law's own coordinates, by J. C. P. Miller's recurrence (Knuth, TAOCP
    vol. 2, 4.7).

    The power's box is flattened into one variable X, its last axis
    fastest, so the law is X^e * (w_0 + sum of w_j X^j) with w_0 != 0.
    From P (P^n)' = n P' P^n the n-th power of the bracket has the
    coefficients a_0 = w_0^n and a_k = sum of ((n + 1) j - k) w_j a_(k-j)
    over j, divided by k w_0, exactly: each a_k is a numerator over den ** n.
    """
    nums = law[1]
    lo, hi = _extent(nums)
    sides = [n * (h - l) + 1 for l, h in zip(lo, hi)]
    strides = [prod(sides[i + 1:]) for i in range(len(sides))]
    (e, w0), *rest = sorted((sum((c - l) * s for c, l, s in zip(x, lo, strides)), v)
                            for x, v in nums.items())
    terms = [(e - j, w, (n + 1) * (j - e) * w) for j, w in rest]
    deg = -terms[-1][0]
    a = [0] * deg + [w0 ** n]  # a_k at a[deg + k], so a_(k-j) is a[-j] when a_k is made
    for k in range(1, n * deg + 1):
        s = 0
        for j, w, c in terms:
            if x := a[j]:
                s += (c - k * w) * x
        a.append(s // (k * w0))
    del a[:deg]
    # a[i] is the box's cell n * e + i, the box read from its lowest corner
    box = itertools.product(*(range(n * l, n * l + s) for l, s in zip(lo, sides)))
    cells = itertools.islice(box, n * e, None)
    return zip(itertools.compress(cells, a), filter(None, a))
