"""Reference routines the tests compare the library against.

sparse_convolve and sparse_power are the double loop over both supports
that the packed convolution in dancewalk.measure replaced.  The library
answers each question once, on exact integers: membership reads the kept
projection onto the quotient, the gap scan and the integration oracle
use integer phases mod lcm(m_i), and the window pass evaluates the heat
kernel on one integer quadratic form read from one fraction-free
elimination.  Here are the Hermite reduction, the float and the Fraction
routes to the same values (hermite_contains, gaussian_kernel,
attractor_eval, char_fn, omega_contains, theta_by_fraction_integration,
rational_inverse), the window as a list of Elements
(evaluation_window) and a finite subgroup as the closure of {0} under
adding its generators, with no lattice (closure).  reference_spectral_gap is the gap scan on Fraction
phases with an exact zero test at every character (_char_modulus,
_unit_phase_sum_is_zero); _cyclotomic and _exact_poly_div give the
cyclotomic polynomials for that test, where the library decides rho = 0
once, by Fourier inversion.  _render is the recursive JSON writer that the flat
writer in dancewalk._writer replaced.  reference_path is the sampler that
measure._positions replaced: an inverse CDF over the sorted support that
compares Fraction(rng.random()) with Fraction cumulative weights and adds
Element steps.  No library path calls them.
hermite_form runs the library's Hermite kernel with a transform, and
matmul is the integer matrix product, for the normal-form checks.
dump_spec writes a Distribution back as a walk description, which
dancewalk.cli.load_spec parses to an identical Distribution, and uniform
builds the uniform law on a list of (torsion, free) points.
"""

import cmath
import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache

from dancewalk._writer import _fmt_float, _int_str
from dancewalk.dance import SpectralGap
from dancewalk.group import DualPoint, Element
from dancewalk.intlinalg import IntMatrix, _hnf
from dancewalk.llt import Attractor, MomentData, _evaluated_window
from dancewalk.measure import Distribution, torsion_pushforward


def sparse_convolve(p, q):
    """Reference convolution: the double loop over both supports, over a common denominator."""
    dp = math.lcm(*(w.denominator for _, w in p.items()))
    dq = math.lcm(*(w.denominator for _, w in q.items()))
    acc = {}
    for x, w in p.items():
        for y, v in q.items():
            z = x + y
            acc[z] = acc.get(z, 0) + int(w * dp) * int(v * dq)
    return Distribution(p.group, {z: Fraction(n, dp * dq) for z, n in acc.items()})


def sparse_power(p, n):
    """Reference power: n sparse convolutions with p, from the point mass."""
    acc = Distribution.point_mass(p.group)
    for _ in range(n):
        acc = sparse_convolve(acc, p)
    return acc


def reference_path(p, n, rng) -> tuple[Element, ...]:
    """The n + 1 positions of a walk driven by p, drawn by rng.random() on Fractions."""
    cumulative, acc = [], Fraction(0)
    for x, w in p.items():
        acc += w
        cumulative.append((acc, x))
    pos = p.group.identity()
    positions = [pos]
    for _ in range(n):
        u = Fraction(rng.random())
        step = next(x for acc, x in cumulative if u < acc)
        pos = pos + step
        positions.append(pos)
    return tuple(positions)


def gaussian_kernel(moments: MomentData, t, y) -> float:
    """Heat kernel K^t(y) with covariance t * Gamma.

    K^t(y) = exp(-y . Gamma^(-1) y / 2t) / ((2 pi t)^(d/2) sqrt(det Gamma));
    the inverse and determinant are exact rationals, only the final
    exponential and roots are floating point.
    """
    if t <= 0:
        raise ValueError("time parameter must be positive")
    det = moments.covariance_det
    inv = rational_inverse(moments.covariance)
    y = list(y)
    quad = sum(y[i] * inv[i][j] * y[j] for i in range(moments.dim) for j in range(moments.dim))
    norm = (2 * math.pi * float(t)) ** (moments.dim / 2) * math.sqrt(float(det))
    return math.exp(-float(quad) / (2 * float(t))) / norm


def attractor_eval(a: Attractor, n: int, x: Element) -> float:
    """Attractor value at step n >= 1 and point x (double precision)."""
    if n < 1:
        raise ValueError("attractor is evaluated at steps n >= 1")
    th = a.dance.theta(n, x)
    if th == 0:
        return 0.0
    if a.rank_d == 0:
        return th / x.group.torsion_order
    y = [Fraction(c) - n * m for c, m in zip(a.phi(x).free, a.moments.mean)]
    return (th / x.group.torsion_order) * gaussian_kernel(a.moments, n, y)


def evaluation_window(pn: Distribution, a: Attractor, n: int) -> list[Element]:
    """Support of the step-n law pn together with the effective range of the attractor.

    The attractor lives on the live coset: all of coset_coords(n) when
    d = 0, otherwise the window lifts with theta > 0.
    """
    return [pn.group.element_from_coords(x) for x, *_ in _evaluated_window(pn._nums, a, n)]


def hermite_contains(h, v) -> bool:
    """Membership of an integer coordinate vector in the subgroup h (torsion
    residues need not be reduced): clear each pivot column with its Hermite row."""
    v = list(v)
    for row in h.basis.data:
        j = next(i for i, e in enumerate(row) if e)  # the pivot column
        q, r = divmod(v[j], row[j])
        if r:
            return False
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def hermite_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """(h, u) with u @ m = h, h the canonical row Hermite form of m and u unimodular."""
    h, u = [list(r) for r in m.data], [[int(i == j) for j in range(m.rows)] for i in range(m.rows)]
    _hnf(h, m.cols, u)
    return IntMatrix(h, cols=m.cols), IntMatrix(u, cols=m.rows)


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product a @ b of integer matrices."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    return IntMatrix([[sum(r[k] * b.data[k][j] for k in range(a.cols)) for j in range(b.cols)]
                      for r in a.data], cols=b.cols)


def closure(g, gens):
    """The finite subgroup of g generated by the Elements gens, by closing {0} under adding them."""
    seen, todo = {g.identity()}, [g.identity()]
    while todo:
        x = todo.pop()
        for y in (x + s for s in gens):
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def char_fn(p: Distribution, xi: DualPoint) -> complex:
    """Characteristic function p_hat(xi), |value| <= 1.

    The value is assembled in double precision from exact rational
    phases; use omega_contains for the exact unit-modulus test.
    """
    if xi.group != p.group:
        raise ValueError("character pairs with a different group")
    return sum(complex(w) * cmath.exp(2j * cmath.pi * float(xi.phase(x)))
               for x, w in p.items())


def omega_contains(p: Distribution, xi: DualPoint) -> bool:
    """Exact test for |p_hat(xi)| = 1.

    The modulus is 1 precisely when every support point sees the same
    character phase, an equality of exact rationals.
    """
    support = p.support()
    base = xi.phase(support[0])
    return all(xi.phase(x) == base for x in support[1:])


def theta_by_fraction_integration(p: Distribution, n: int, x: Element) -> float:
    """theta_by_integration with a DualPoint per character and Fraction phases.

    Sums exp(2 pi i * (n * base - phase(x))) over the characters that see
    one phase, base, at every support point.
    """
    g = p.group
    support = p.support()
    total = 0 + 0j
    for chars in itertools.product(*(range(m) for m in g.torsion_moduli)):
        xi = DualPoint(g, chars, ())
        base = xi.phase(support[0])
        if any(xi.phase(y) != base for y in support[1:]):
            continue
        phase = (n * base - xi.phase(x)) % 1
        total += cmath.exp(2j * cmath.pi * float(phase))
    return total.real


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


def _unit_phase_sum_is_zero(terms: dict[Fraction, Fraction]) -> bool:
    """Exact vanishing test for sum of w * exp(2 pi i phase).

    With all phases rational the sum lives in a cyclotomic field: write
    it as a polynomial in a primitive N-th root of unity; it vanishes
    exactly when the N-th cyclotomic polynomial divides that polynomial.
    """
    n = 1
    for phase in terms:
        n = math.lcm(n, phase.denominator)
    coeffs = [Fraction(0)] * n
    for phase, w in terms.items():
        coeffs[int(phase * n) % n] += w
    cyc = _cyclotomic(n)
    rem = list(coeffs)
    lead = len(cyc) - 1
    for i in range(len(rem) - 1, lead - 1, -1):
        c = rem[i]
        if c:
            for j, d in enumerate(cyc):
                rem[i - lead + j] -= c * d
    return not any(rem)


def _char_modulus(p: Distribution, xi: DualPoint) -> float:
    """|p_hat(xi)| with exact zero detection at rational dual points."""
    terms: dict[Fraction, Fraction] = {}
    for x, w in p.items():
        phase = xi.phase(x)
        terms[phase] = terms.get(phase, Fraction(0)) + w
    if _unit_phase_sum_is_zero(terms):
        return 0.0
    return abs(sum(complex(w) * cmath.exp(2j * cmath.pi * float(phase))
                   for phase, w in terms.items()))


def reference_spectral_gap(p: Distribution) -> SpectralGap:
    """The gap scan on exact Fraction phases, one DualPoint per character,
    with the cyclotomic zero test run at every character off the locus."""
    pa = torsion_pushforward(p)
    rho, best = 0.0, None
    for chars in itertools.product(*(range(m) for m in pa.group.torsion_moduli)):
        xi = DualPoint(pa.group, chars, ())
        if omega_contains(pa, xi):
            continue
        modulus = _char_modulus(pa, xi)
        if modulus > rho:
            rho, best = modulus, xi
    return SpectralGap(rho=rho, achieved_at=best)


def rational_inverse(rows) -> list[list[Fraction]]:
    """Exact inverse of a square integer or rational matrix (Gauss-Jordan)."""
    n = len(rows)
    a = [[Fraction(e) for e in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [e * inv for e in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [e - f * g for e, g in zip(a[i], a[col])]
    return [row[n:] for row in a]


def uniform(g, points) -> Distribution:
    """The uniform law on the points of g, each a (torsion, free) pair."""
    return Distribution(g, {g.element(t, f): Fraction(1, len(points)) for t, f in points})


def dump_spec(p: Distribution) -> str:
    """The walk description document of p, written by _render."""
    return _render({
        "group": {"torsion": list(p.group.torsion_moduli), "rank": p.group.free_rank},
        "distribution": [{"elem": {"torsion": list(x.torsion), "free": list(x.free)}, "weight": w}
                         for x, w in p.items()],
    })


def _fmt_fraction(w: Fraction) -> str:
    num = _int_str(w.numerator)
    return f"{num}/{_int_str(w.denominator)}" if w.denominator != 1 else num


def _render(obj, indent: int = 0) -> str:
    """JSON with insertion-ordered keys and .12g floats."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(f'{pad}  {json.dumps(str(k))}: {_render(v, indent + 1)}'
                           for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        items = [_render(v, indent + 1) for v in obj]
        if sum(len(i) for i in items) < 60 and all("\n" not in i for i in items):
            return "[" + ", ".join(items) + "]"
        inner = ",\n".join(f"{pad}  {i}" for i in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, Fraction):
        return json.dumps(_fmt_fraction(obj))
    if isinstance(obj, int):
        return _int_str(obj)
    return json.dumps(obj)
