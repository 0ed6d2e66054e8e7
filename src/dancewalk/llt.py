"""Local-limit attractors and convergence reports.

The step-n distribution of a finite-range walk approaches

    theta(n, x) / |Tor(G)| * K^n(phi(x) - n*mu)

where theta is the dance function, phi is a surjection onto Z^d built by
twisting the free coordinates (d is the rank of the walk subgroup), and
K^t is the heat kernel with the exact covariance of the pushed-forward
step distribution.  When d = 0 the Gaussian factor degenerates to 1 and
the error is exponentially small in the spectral gap.

Everything algebraic (moments, covariance inverses, convolution powers,
total-variation distances) is exact rational arithmetic; floating point
appears only in Gaussian evaluation and in reported error magnitudes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add

from ._errors import InvariantViolationError, UnsupportedOperationError
from ._value import Value
from .dance import DanceData, dance_of, spectral_gap
from .group import Element, GroupSpec, Homomorphism, _progressions, whole_group
from .intlinalg import (
    AffinePointSet,
    IntMatrix,
    _bareiss,
    affine_dim,
    lattice_basis,
    twist_to_coordinates,
)
from .measure import Distribution, _powers, pushforward


class MomentData(Value):
    """Exact mean vector and covariance matrix of a distribution on Z^d.

    One fraction-free pass over [L*Gamma | I], L the lcm of Gamma's
    denominators, runs when it is built and keeps L, its pivots, det(L*Gamma)
    and Q = L * adj(L*Gamma): Gamma^(-1) = Q / det(L*Gamma) when det != 0.
    """

    __slots__ = ("dim", "mean", "covariance", "_den", "_lead", "_det", "_q")

    def __init__(self, dim: int, mean: tuple[Fraction, ...],
                 covariance: tuple[tuple[Fraction, ...], ...]):
        self._set(dim, mean, covariance)
        den = math.lcm(*(e.denominator for row in covariance for e in row))
        rows = [[int(e * den) for e in row] + [int(i == j) for j in range(dim)]
                for i, row in enumerate(covariance)]
        lead, det = _bareiss(rows, dim)
        for name, value in (("_den", den), ("_lead", lead), ("_det", det),
                            ("_q", [[den * e for e in r[dim:]] for r in rows])):
            object.__setattr__(self, name, value)

    @property
    def covariance_det(self) -> Fraction:
        return Fraction(self._det, self._den ** self.dim)

    def is_positive_definite(self) -> bool:
        """Exact Sylvester test: all leading principal minors positive."""
        return all(m > 0 for m in self._lead)


def mean_cov(q: Distribution) -> MomentData:
    """Exact moments of a distribution on a free group Z^d, d >= 1."""
    g = q.group
    if g.torsion_moduli or g.free_rank < 1:
        raise ValueError("moments are computed on free groups Z^d with d >= 1")
    d, den, nums = g.free_rank, q._den, q._nums
    # first and second moments times den, then Gamma = E[xx^T] - mu mu^T over den^2
    s1 = [sum(v * x[i] for x, v in nums.items()) for i in range(d)]
    s2 = [[sum(v * x[i] * x[j] for x, v in nums.items()) for j in range(d)] for i in range(d)]
    mean = tuple(Fraction(s, den) for s in s1)
    cov = tuple(tuple(Fraction(s2[i][j] * den - s1[i] * s1[j], den * den) for j in range(d))
                for i in range(d))
    return MomentData(d, mean, cov)


class Attractor(Value):
    """Evaluable local-limit attractor of a walk (phi and moments only when d >= 1).

    d = 0:  theta(n, x) / |Tor(G)| = 1 / |W| on the live coset  (+ exponentially small error)
    d >= 1: theta(n, x) / |Tor(G)| * K^n(phi(x) - n*mu)          (+ o(n^(-d/2)))
    """

    __slots__ = ("dance", "phi", "moments")

    def __init__(self, dance: DanceData, phi: Homomorphism | None = None,
                 moments: MomentData | None = None):
        self._set(dance, phi, moments)

    @property
    def rank_d(self) -> int:
        return self.dance.rank_d


def build_attractor(p: Distribution) -> Attractor:
    """Construct the attractor of a walk, twisting coordinates as needed.

    For rank d >= 1 the free parts of the support are moved into the
    first d coordinates by an automorphism; phi is that automorphism's
    top d rows composed with the free-part projection.  The pushforward
    of p along phi is checked to be genuinely d-dimensional with exactly
    positive-definite covariance.
    """
    dance = dance_of(p)
    g = p.group
    if dance.rank_d == 0:
        return Attractor(dance)
    k, t = g.free_rank, len(g.torsion_moduli)
    tw = twist_to_coordinates(AffinePointSet(k, {x[t:] for x in p._nums}))
    if tw.d != dance.rank_d:
        raise InvariantViolationError("support dimension disagrees with subgroup rank")
    d = tw.d
    rows = [[0] * t + list(tw.phi.matrix.data[i]) for i in range(d)]
    phi = Homomorphism(g, GroupSpec((), d), IntMatrix(rows, cols=g.dim))
    q = pushforward(p, phi)
    moments = mean_cov(q)
    if affine_dim(AffinePointSet(d, q._nums)) != d:
        raise InvariantViolationError("pushforward is not genuinely d-dimensional")
    if not moments.is_positive_definite():
        raise InvariantViolationError("covariance failed the positive-definiteness check")
    return Attractor(dance, phi, moments)


def _float(x, what: str) -> float:
    """float(x), refused unless it is finite, and nonzero when x is."""
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if math.isinf(f) or (x and not f):
        raise UnsupportedOperationError(f"the {what} is outside the float range")
    return f


# The most live points the window may list, over its box.  It admits the
# knight walk at n = 100 (32,640 points) and 1/200 on a 20 x 10 block of
# Z^2 at n = 200 (850,857 points).
_MAX_WINDOW_POINTS = 10 ** 7


def _evaluated_window(nums, a: Attractor, n: int):
    """The attractor a evaluated on the window at step n (n >= 1 when d >= 1).

    A stream of (coords, numerator, limit value) tuples, sorted as
    Elements sort, over the keys of nums (numerators by group coordinates)
    and the points where the limit is not negligible.  The keys of nums
    are checked when it is called, before its first row.

    Every point is on the live coset W + n*x0, where theta is c: all of it
    when d = 0 (the uniform law on it, 1 / |W|, walked from W's Hermite
    rows) and otherwise the window's points, valued c / |Tor(G)| times the
    heat kernel.  A key x of nums with x - n*x0 not in W is an invariant
    violation, as supp p^(n) lies in the live coset.  With W = G (the
    dance-free attractor that time_average_error reads) the live coset is
    all of G.

    For d >= 1 the value K^n(u - n*mu) at u = phi(x) comes from one exact
    integer quadratic form.  With dm the lcm of the mean's denominators
    and Q and det(L*Gamma) from the moments' one elimination, so that
    Gamma^(-1) = Q / det(L*Gamma), a point u of Z^d has the integer vector
    Y = dm*u - n*dm*mu and

        (u - n*mu) . Gamma^(-1) (u - n*mu) = Y . QY / (det(L*Gamma) * dm^2).

    So the 8-sigma window test Y . QY <= 64 * n * det(L*Gamma) * dm^2 is
    exact, and the exponent takes that quotient as int / int, which is
    correctly rounded as float(Fraction) is: every value is bit-identical
    to that of gaussian_kernel in tests/reference.py, the Fraction
    reference the tests compare against.

    The window steps through W's Hermite rows in (u, r, f) = (phi(x),
    torsion residues, free part): d pivot on u's axes, then t, W_t's, on
    r's.  As by Fincke and Pohst (1985), the first d - 1 coordinates of u
    take the progressions their pivots fix in a box and the last the exact
    interval where the form, a quadratic in it, is within bound, form and
    point stepping by integer differences; W_t's rows step each live u's
    residues into [0, m_j).

    UnsupportedOperationError if the live points, the progressions' points
    in the box on all d + t axes, number more than _MAX_WINDOW_POINTS.  A
    key of nums outside the window whose form exceeds 1492 * n *
    det(L*Gamma) * dm^2 gets the value 0.0 without the float quotient: the
    exponent is below -746, where exp is 0.0.
    """
    dance, w = a.dance, a.dance.walk_subgroup
    image = w._image  # pi onto G/W
    nx0 = [n * c for c in dance.base_point.coords()]
    live_at = image(nx0)
    if a.rank_d == 0:
        off = any(image(x) != live_at for x in nums)
        points = dance.coset_coords(n)
        values = itertools.repeat(1 / w.order())
    else:
        moments, phi = a.moments, a.phi.matrix
        moduli = w.parent.torsion_moduli
        d, t = moments.dim, len(moduli)
        dm = math.lcm(*(c.denominator for c in moments.mean))
        q, det = moments._q, moments._det
        shift = [int(n * dm * c) for c in moments.mean]  # exact: dm * mu is integral
        scale = det * dm * dm
        norm = ((2 * math.pi * float(n)) ** (d / 2)
                * math.sqrt(_float(moments.covariance_det, "covariance determinant")))

        def quad(y):  # Y . QY, over the leading coordinates when y is shorter
            return sum(yi * qij * yj for yi, row in zip(y, q) for qij, yj in zip(row, y))

        def kernel(form):  # K^n(u - n*mu) for the u with Y . QY = form
            return math.exp(-(form / scale) / (2 * float(n))) / norm

        rows = lattice_basis([phi.mul_vec(b) + b for b in w.basis.data], d + w.parent.dim)
        if not rows[d - 1][d - 1]:
            raise InvariantViolationError("W has a free row that phi sends to 0")
        box = []
        for i in range(d):  # every axis of u is range-checked; its last is not a box axis
            r = 8 * math.sqrt(_float(n * moments.covariance[i][i], f"variance n * Gamma[{i}][{i}]"))
            center = _float(n * moments.mean[i], f"mean n * mu[{i}]")
            box.append(range(math.floor(center - r), math.ceil(center + r) + 1))
        box += map(range, moduli)  # then the residues' axes
        # on each axis one progression of step the row's pivot
        size = math.prod(-((axis.start - axis.stop) // row[i])
                         for i, (axis, row) in enumerate(zip(box, rows)))
        if size > _MAX_WINDOW_POINTS:
            raise UnsupportedOperationError(
                f"the window at n = {n} would hold {size} points, "
                f"past the budget of {_MAX_WINDOW_POINTS}")
        bound = 64 * n * scale
        torsion, residues = [row[d:] for row in rows[d:]], box[d:]  # W_t on (r, f)
        heat = {}
        h, step = rows[d - 1][d - 1], rows[d - 1][d:]
        qll, sl = q[d - 1][d - 1], shift[d - 1]
        qa = qll * dm * dm
        for v in _progressions(rows, box[:d - 1], (*phi.mul_vec(nx0), *nx0)):
            # form(head, c) = qa*c^2 + qb*c + qc, c the last coordinate of u
            y = [dm * c - s for c, s in zip(v[:d - 1], shift)]
            cross = sum((q[d - 1][j] + q[j][d - 1]) * yj for j, yj in enumerate(y))
            qb = dm * (cross - 2 * qll * sl)
            qc = quad(y) - cross * sl + qll * sl * sl
            disc = qb * qb - 4 * qa * (qc - bound)
            if disc < 0:
                continue
            root = math.isqrt(disc)  # qa*c^2 + qb*c + qc <= bound iff |2*qa*c + qb| <= root
            lo, hi = -((root + qb) // (2 * qa)), (root - qb) // (2 * qa)
            lo += (v[d - 1] - lo) % h  # the first c of the coset's progression
            k = (lo - v[d - 1]) // h
            x = tuple(e + k * s for e, s in zip(v[d:], step))  # (r, f) at c = lo
            form, diff = qa * lo * lo + qb * lo + qc, h * (qa * (2 * lo + h) + qb)
            for _ in range(lo, hi + 1, h):
                value = kernel(form)
                for z in _progressions(torsion, residues, x) if t else (x,):  # x + W_t
                    heat[z] = value
                form, diff = form + diff, diff + 2 * qa * h * h
                x = tuple(map(add, x, step))
        for x in nums.keys() - heat.keys():
            if image(x) == live_at:
                y = [dm * c - s for c, s in zip(phi.mul_vec(x), shift)]
                form = quad(y)
                heat[x] = 0.0 if form > 1492 * n * scale else kernel(form)
        off = not heat.keys() >= nums.keys()
        points = sorted(heat)
        limit = dance.normalization_c / w.parent.torsion_order  # c / |Tor(G)|
        values = (limit * heat[x] for x in points)
    if off:
        raise InvariantViolationError("a support point of p^(n) lies off the live coset")
    return ((x, nums.get(x, 0), f) for x, f in zip(points, values))


class LltReport(Value):
    """Measured distance between p^(n) and its attractor at one step."""

    __slots__ = ("n", "sup_error", "scaled_sup_error", "sup_error_exact", "tv_exact",
                 "tv_bound", "worst_point")

    def __init__(self, n: int, sup_error: float | None = None,
                 scaled_sup_error: float | None = None, sup_error_exact: Fraction | None = None,
                 tv_exact: Fraction | None = None, tv_bound: float | None = None,
                 worst_point: Element | None = None):
        self._set(n, sup_error, scaled_sup_error, sup_error_exact, tv_exact, tv_bound,
                  worst_point)


def llt_sup_error(p: Distribution, a: Attractor, n: int) -> LltReport:
    """Sup over the effective range of |p^(n)(x) - attractor(n, x)|.

    The effective range is supp(p^(n)) united with the live-coset points
    whose Gaussian argument is within 8 standard deviations; outside it
    both terms vanish (exactly, or far below double precision).  In the
    d = 0 case the scan is exact rational arithmetic and the exact sup
    is reported alongside the float.
    """
    report, = _sup_errors(p, a, (n,))
    return report


def _largest_error(den: int, window, a: Attractor):
    """(error, exact error, point): the largest |v/den - limit| over the
    window and the first point attaining it, or None if it is 0; when
    d = 0, |v/den - 1/|W|| is taken exactly, over the one denominator
    den * |W|, and the exact error is a Fraction, otherwise None."""
    best, best_x = 0, None
    if a.rank_d == 0:
        size = a.dance.walk_subgroup.order()
        for x, v, _ in window:
            err = abs(v * size - den)
            if err > best:
                best, best_x = err, x
        exact = Fraction(best, den * size)
        return float(exact), exact, best_x
    for x, v, f in window:
        err = abs(v / den - f)
        if err > best:
            best, best_x = err, x
    return float(best), None, best_x


def _sup_errors(p: Distribution, a: Attractor, steps):
    """llt_sup_error(p, a, n) for each n in steps, in sorted order, with
    every power read from one ladder."""
    if any(n < 1 for n in steps):
        raise ValueError("n must be at least 1")
    for n, den, nums in _powers(p, steps):
        err, exact, x = _largest_error(den, _evaluated_window(nums, a, n), a)
        scale = n ** (a.rank_d / 2)
        yield LltReport(n=n, sup_error=err, scaled_sup_error=scale * err, sup_error_exact=exact,
                        worst_point=None if x is None else p.group.element_from_coords(x))


def time_average_error(p: Distribution, a: Attractor, n: int, s: int) -> float:
    """Deviation of the s-step average of p^(n..n+s-1) from its limit.

    For an irreducible walk of period s the average over s consecutive
    steps loses the dance, so it tends to the dance-free attractor: a's
    own with walk subgroup G and c = 1, which is 1/|G| on a finite group
    and (1 / |Tor(G)|) * K^n(phi(x)) on an infinite one with mean-zero
    pushforward.  ValueError unless s is the period that classify finds
    for an irreducible walk and, on an infinite group, the pushforward has
    mean zero and n >= 1.
    """
    if s != classify(p).period:
        raise ValueError("s must be the period [G:G_p] of an irreducible walk")
    if not p.group.is_finite:
        if a.rank_d == 0:
            raise InvariantViolationError("infinite irreducible walk must have rank >= 1")
        if any(m != 0 for m in a.moments.mean):
            raise ValueError("time-average limit requires a mean-zero pushforward")
        if n < 1:
            raise ValueError("n must be at least 1")
    total = {}  # s times the average law so far, as numerators over the last step's den
    for _, den, nums in _powers(p, range(n, n + s)):
        for x in total:
            total[x] *= p._den  # step k's den is p._den ** k
        for x, v in nums.items():
            total[x] = total.get(x, 0) + v
        del nums  # released before the ladder makes the next law
    flat = Attractor(DanceData(whole_group(p.group), a.dance.base_point), a.phi, a.moments)
    return _largest_error(s * den, _evaluated_window(total, flat, n), flat)[0]


def tv_to_uniform_coset(p: Distribution, n: int) -> LltReport:
    """Exact total-variation distance to the uniform law on the live coset.

    Needs a finite walk subgroup W.  Reports the exact rational
    tv(p^(n), uniform on W + n*x0) and the certified exponential bound
    (|W| - 1)/2 * rho_up^n, with rho_up the exact rational upper bound
    on the gap that dance.spectral_gap keeps beside rho: rho's double
    plus the scan's rounding bound e_scan, or 0 when p is uniform on a
    coset of W.  The bound holds for every n, is checked in exact
    arithmetic with no further slack, and is reported rounded upward to
    a double, so it is never 0 while positive.
    """
    report, = _tv_series(p, (n,))
    return report


def _tv_series(p: Distribution, steps):
    """tv_to_uniform_coset(p, n) for each n in steps, in sorted order, with
    every power read from one ladder and rho from one gap scan."""
    w_order = dance_of(p).walk_subgroup.order()
    if w_order is None:
        raise UnsupportedOperationError("walk subgroup is infinite; no uniform law on it")
    a, rho_up = build_attractor(p), spectral_gap(p)._rho_up
    for n, den, nums in _powers(p, steps):
        # the attractor is the uniform law 1 / |W| on the live coset:
        # sum of |p^(n)(x) - 1/|W|| over the one denominator den * |W|
        total = sum(abs(v * w_order - den) for _, v, _ in _evaluated_window(nums, a, n))
        tv = Fraction(total, 2 * den * w_order)
        bound = Fraction(w_order - 1, 2) * rho_up ** n
        if tv > bound:
            raise InvariantViolationError("exact TV distance exceeded its certified bound")
        f = float(bound)  # reported as the least double >= bound
        yield LltReport(n=n, tv_exact=tv,
                        tv_bound=math.nextafter(f, math.inf) if f < bound else f)


class Classification(Value):
    """Irreducibility and period classification of a walk.

    irreducible is "yes" or "no", and aperiodic is "yes" exactly when the
    walk is irreducible with period 1.  period is the gcd of the return
    times of an irreducible walk and None for a reducible one.
    dance_cosets describes the dance; reason says why a walk is reducible.
    """

    __slots__ = ("irreducible", "aperiodic", "period", "dance_cosets", "reason")

    def __init__(self, irreducible: str, aperiodic: str, period: int | None,
                 dance_cosets: str, reason: str = ""):
        self._set(irreducible, aperiodic, period, dance_cosets, reason)


def classify(p: Distribution) -> Classification:
    """Decide whether a walk is irreducible, and its period when it is.

    The walk is irreducible when the semigroup generated by S = supp p is
    all of G (Spitzer, Principles of Random Walk, ch. 1).  It reaches
    W + <x0>, so that needs x0 to generate G/W: r = [G : W] with r the
    order of x0 + W.  It also needs the semigroup to be a group, which
    holds exactly when integers N_s >= 1 give sum N_s * free(s) = 0: then
    sum N_s * s is torsion, so sum e * N_s * s = 0 with e the exponent of
    Tor(G), and each -s lies in the semigroup; conversely the relations
    s + sum a_t * t = 0 (a_t >= 0), one for each s, sum to such N.
    _semigroup_witness decides that exactly; on a finite group, with no
    free parts, it always holds.  The period d of an irreducible walk is
    [G : W]: a return at n needs n*x0 in W, so r | d; and the number of
    steps to a point, mod d, is a homomorphism G -> Z_d that sends each s
    to 1 and so kills W, so d | [G : W] = r.
    """
    g, dance = p.group, dance_of(p)
    w = dance.walk_subgroup
    quotient = w.quotient_map()[0].describe()
    idx, r = w.index(), w.coset_order(dance.base_point)
    if idx is not None and r == idx:
        cosets = ("G_p is the whole group: there is no dance" if idx == 1 else
                  f"the {idx} cosets G_p + k*x0 partition the group and the "
                  f"walk cycles through them; G/G_p = {quotient}")
        t = len(g.torsion_moduli)
        if g.is_finite or _semigroup_witness([x[t:] for x in p._nums])[0]:
            return Classification("yes", "yes" if idx == 1 else "no", idx, cosets)
        return Classification("no", "no", None, cosets, reason=(
            "the steps generate G but not as a semigroup: a homomorphism G -> R "
            "is nonnegative on every step and positive on some, so the walk "
            "never returns once it takes such a step"))
    if g.is_finite:
        return Classification(
            "no", "no", None,
            f"supp(p^(n)) stays inside the coset G_p + n*x0, G/G_p = {quotient}; "
            f"only {g.order // idx * r} of {g.order} elements are ever reachable",
            reason="reachable set is a proper subset of the group")
    if r is None:
        reason = ("the base point has infinite order in G/G_p, so the walk "
                  "never revisits the zero coset and never returns")
    elif r == 1:
        reason = "the walk is confined to the proper subgroup G_p"
    elif idx is None:
        reason = "[G:G_p] is infinite, but an irreducible walk has finite index equal to its period"
    else:
        reason = (f"the base point generates only {r} of the {idx} cosets of "
                  f"G_p, so the coset cycle cannot cover the group")
    return Classification(
        "no", "no", None,
        f"supp(p^(n)) is confined to the moving coset G_p + n*x0; G/G_p = {quotient}", reason)


def _semigroup_witness(vectors):
    """Whether the semigroup of the integer vectors v_s is a group, with a witness.

    Returns (True, N), integers N_s >= 1 with sum N_s * v_s = 0, or
    (False, y), an integer y with y . v_s >= 0 for every s and > 0 for
    some; by Stiemke's alternative exactly one exists.  A phase-1 simplex
    over Fractions, with Bland's rule against cycling, looks for M >= 0
    with A M = -A 1 (A has columns v_s, and N = 1 + M), each row signed
    so that its right side is >= 0 and the artificial basis is feasible.
    The artificial columns end as B^(-1), so they give the phase-1 dual
    u = c_B B^(-1).  At a positive optimum u . A_j <= 0 for every signed
    column and u . b > 0, so y is -u mapped back through the row signs.
    """
    m, k = len(vectors), len(vectors[0])
    sums = [sum(v[i] for v in vectors) for i in range(k)]
    signs = [-1 if total > 0 else 1 for total in sums]
    rows = [[Fraction(sign * v[i]) for v in vectors] + [Fraction(i == j) for j in range(k)]
            + [Fraction(-sign * sums[i])] for i, sign in enumerate(signs)]
    basis = list(range(m, m + k))  # the artificial columns m .. m + k - 1
    while True:
        # reduced costs: 1 on an artificial column, 0 on a step's, less c_B B^(-1) A_j
        live = [row for row, b in zip(rows, basis) if b >= m]
        cost = [(j >= m) - sum(row[j] for row in live) for j in range(m + k)]
        enter = next((j for j, c in enumerate(cost) if c < 0), None)
        if enter is None:
            break
        _, _, i = min((row[-1] / row[enter], basis[i], i)
                      for i, row in enumerate(rows) if row[enter] > 0)
        lead = rows[i][enter]
        rows[i] = pivot = [e / lead for e in rows[i]]
        rows = [row if row is pivot or not row[enter] else
                [a - row[enter] * b for a, b in zip(row, pivot)] for row in rows]
        basis[i] = enter
    found = not any(row[-1] for row in live)  # the phase-1 optimum is 0
    if found:
        value = dict(zip(basis, (row[-1] for row in rows)))
        witness = [1 + value.get(j, 0) for j in range(m)]
    else:
        witness = [-sign * sum(row[m + i] for row in live) for i, sign in enumerate(signs)]
    scale = math.lcm(*(e.denominator for e in witness))
    return found, [int(e * scale) for e in witness]
