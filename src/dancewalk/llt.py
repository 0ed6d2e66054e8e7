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
from bisect import bisect_left
from fractions import Fraction
from operator import add, mod, sub

from ._value import Value
from .dance import DanceData, dance_of, period_if_irreducible, spectral_gap
from .group import Element, GroupSpec, Homomorphism, UnsupportedOperationError
from .intlinalg import (
    AffinePointSet,
    IntMatrix,
    InvariantViolationError,
    TwistResult,
    _bareiss,
    affine_dim,
    twist_to_coordinates,
)
from .measure import Distribution, _powers, pushforward


class MomentData(Value):
    """Exact mean vector and covariance matrix of a distribution on Z^d.

    The elimination, the determinant and the inverse are computed on
    first use and kept in the slots _elim, _det and _inv.
    """

    __slots__ = ("dim", "mean", "covariance", "_elim", "_det", "_inv")

    def __init__(self, dim: int, mean: tuple[Fraction, ...],
                 covariance: tuple[tuple[Fraction, ...], ...]):
        self._set(dim, mean, covariance)
        for name in ("_elim", "_det", "_inv"):
            object.__setattr__(self, name, None)

    @property
    def _elimination(self) -> tuple[int, list[int], int, list[list[int]]]:
        """(L, lead, det, adj): one fraction-free pass over [L*Gamma | I],
        L the lcm of Gamma's denominators, with the pivots lead, det(L*Gamma)
        and adj(L*Gamma) it leaves (adj is meaningful when det != 0)."""
        if self._elim is None:
            d = self.dim
            den = math.lcm(*(e.denominator for row in self.covariance for e in row))
            rows = [[int(e * den) for e in row] + [int(i == j) for j in range(d)]
                    for i, row in enumerate(self.covariance)]
            lead, det = _bareiss(rows, d)
            object.__setattr__(self, "_elim", (den, lead, det, [r[d:] for r in rows]))
        return self._elim

    @property
    def covariance_det(self) -> Fraction:
        if self._det is None:
            den, _, det, _ = self._elimination
            object.__setattr__(self, "_det", Fraction(det, den ** self.dim))
        return self._det

    @property
    def covariance_inverse(self) -> tuple[tuple[Fraction, ...], ...]:
        """Gamma^(-1) = L * adj(L*Gamma) / det(L*Gamma)."""
        if self._inv is None:
            den, _, det, adj = self._elimination
            if not det:
                raise ValueError("covariance is singular")
            object.__setattr__(self, "_inv", tuple(tuple(Fraction(den * e, det) for e in row)
                                                   for row in adj))
        return self._inv

    def is_positive_definite(self) -> bool:
        """Exact Sylvester test: all leading principal minors positive."""
        return all(m > 0 for m in self._elimination[1])


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
    """Evaluable local-limit attractor of a walk.

    case "d0":   theta(n, x) / |Tor(G)|            (+ exponentially small error)
    case "dpos": theta(n, x) / |Tor(G)| * K^n(phi(x) - n*mu)   (+ o(n^(-d/2)))
    """

    __slots__ = ("dance", "case", "torsion_order", "phi", "moments", "twist")

    def __init__(self, dance: DanceData, case: str, torsion_order: int,
                 phi: Homomorphism | None = None, moments: MomentData | None = None,
                 twist: TwistResult | None = None):
        self._set(dance, case, torsion_order, phi, moments, twist)

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
    tor = g.torsion_order
    if dance.rank_d == 0:
        return Attractor(dance=dance, case="d0", torsion_order=tor)
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
    return Attractor(dance=dance, case="dpos", torsion_order=tor,
                     phi=phi, moments=moments, twist=tw)


def _float(x, what: str) -> float:
    """float(x), refused unless it is finite, and nonzero when x is."""
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if math.isinf(f) or (x and not f):
        raise UnsupportedOperationError(f"the {what} is outside the float range")
    return f


def _evaluated_window(nums, a: Attractor, n: int, live: bool = True):
    """A limit law evaluated on the window at step n.

    A stream of (coords, numerator, theta, limit value) tuples, sorted as
    Elements sort, over the keys of nums (numerators by group coordinates)
    and the points where the limit is not negligible.  The window is
    enumerated and checked when it is called, before its first row.

    With live, the limit is the attractor, at n >= 1 when d >= 1: theta
    is c at the points of the live coset W + n*x0, which are all of it
    when d = 0 (the uniform law on it, as c / |Tor(G)| = 1 / |W|) and
    otherwise the window lifts.  A key of nums off the live coset is an
    invariant violation, since supp p^(n) lies in it.  Without live, the
    limit is the average over one period, where the dance is lost: theta
    is 1, at every element of a finite G when d = 0, otherwise at every
    torsion lift of the window and at every key of nums.

    For d >= 1 the value K^n(u - n*mu) at u = phi(x) comes from one exact
    integer quadratic form.  With dm the lcm of the mean's denominators,
    L that of Gamma's and Q = L * adj(L*Gamma), so that Gamma^(-1) =
    Q / det(L*Gamma), a point u of Z^d has the integer vector
    Y = dm*u - n*dm*mu and

        (u - n*mu) . Gamma^(-1) (u - n*mu) = Y . QY / (det(L*Gamma) * dm^2).

    So the 8-sigma window test Y . QY <= 64 * n * det(L*Gamma) * dm^2 is
    exact, and the exponent takes that quotient as int / int, which is
    correctly rounded as float(Fraction) is: every value is bit-identical
    to that of gaussian_kernel in tests/reference.py, the Fraction
    reference the tests compare against.

    The free part of a live-coset point is phi_full^(-1) (u, n*w) for some
    u in Z^d, so the lifts of these u through every torsion residue cover
    the points where the attractor is not negligible; phi of each lift is
    u.  The window is enumerated as by Fincke and Pohst (1985): the first
    d - 1 coordinates of u run over a box, the last over the exact
    interval where the form, a quadratic in it, is within bound, and along
    that the form and the lift step by integer differences.  With pi the
    projection onto G/W, the lift (r, f) is live when
    pi(r, 0) = n*pi(x0) - pi(0, f), so the residues r are grouped by
    pi(r, 0) once.  Only torsion parts are compared: (r, f) - n*x0 has
    finite order in G/W, so its free part there is 0.  Without live there
    is nothing to tell apart, and every lift is kept.
    """
    dance, tor = a.dance, a.torsion_order
    theta = dance.normalization_c if live else 1
    if a.case == "d0":
        moduli = dance.base_point.group.torsion_moduli
        points = dance.coset_coords(n) if live else itertools.product(*map(range, moduli))
        off = live and any(points[i:i + 1] != [x] for x in nums for i in [bisect_left(points, x)])
        values = itertools.repeat(theta / tor)
    else:
        moments = a.moments
        d, inv = moments.dim, a.twist.phi.inverse
        dm = math.lcm(*(c.denominator for c in moments.mean))
        lden, _, det, adj = moments._elimination
        q = [[lden * e for e in row] for row in adj]
        shift = [int(n * dm * c) for c in moments.mean]  # exact: dm * mu is integral
        scale = det * dm * dm
        norm = ((2 * math.pi * float(n)) ** (d / 2)
                * math.sqrt(_float(moments.covariance_det, "covariance determinant")))

        def quad(y):  # Y . QY, over the leading coordinates when y is shorter
            return sum(yi * qij * yj for yi, row in zip(y, q) for qij, yj in zip(row, y))

        def kernel(form):  # K^n(u - n*mu) for the u with Y . QY = form
            return math.exp(-(form / scale) / (2 * float(n))) / norm

        k, tail = inv.rows, tuple(n * wi for wi in a.twist.w)
        box = []
        for i in range(d - 1):
            r = 8 * math.sqrt(_float(n * moments.covariance[i][i], f"variance n * Gamma[{i}][{i}]"))
            center = _float(n * moments.mean[i], f"mean n * mu[{i}]")
            box.append(range(math.floor(center - r), math.ceil(center + r) + 1))
        bound = 64 * n * scale

        if live:
            spec, proj = dance.walk_subgroup.quotient_map()
            pi, moduli = proj.matrix.data, spec.torsion_moduli
        else:
            pi, moduli = (), ()
        ts = len(moduli)

        def image(x):  # pi(x), its torsion part reduced
            v = [sum(e * c for e, c in zip(row, x)) for row in pi]
            return tuple(c % m for c, m in zip(v, moduli)) + tuple(v[ts:])

        live_at = image([n * c for c in dance.base_point.coords()])
        torsion = a.phi.source.torsion_moduli
        origin = (0,) * len(torsion)
        groups = {}  # the torsion residues r by pi(r, 0)
        for r in itertools.product(*(range(m) for m in torsion)):
            groups.setdefault(image(r + (0,) * k)[:ts], []).append(r)
        free_step = tuple(row[d - 1] for row in inv.data)
        key_step = image(origin + free_step)

        heat = {}
        qll, sl = q[d - 1][d - 1], shift[d - 1]
        qa = qll * dm * dm
        for head in itertools.product(*box):
            # form(head, v) = qa*v^2 + qb*v + qc, v the last coordinate of u
            y = [dm * c - s for c, s in zip(head, shift)]
            cross = sum((q[d - 1][j] + q[j][d - 1]) * yj for j, yj in enumerate(y))
            qb = dm * (cross - 2 * qll * sl)
            qc = quad(y) - cross * sl + qll * sl * sl
            disc = qb * qb - 4 * qa * (qc - bound)
            if disc < 0:
                continue
            root = math.isqrt(disc)  # qa*v^2 + qb*v + qc <= bound iff |2*qa*v + qb| <= root
            lo, hi = -((root + qb) // (2 * qa)), (root - qb) // (2 * qa)
            form, diff = qa * lo * lo + qb * lo + qc, qa * (2 * lo + 1) + qb
            free = inv.mul_vec(head + (lo,) + tail)
            key = tuple(map(mod, map(sub, live_at, image(origin + free)), moduli))
            for _ in range(lo, hi + 1):
                value = kernel(form)
                for r in groups.get(key, ()):
                    heat[r + free] = value
                form, diff = form + diff, diff + 2 * qa
                free = tuple(map(add, free, free_step))
                key = tuple(map(mod, map(sub, key, key_step), moduli))
        for x in nums.keys() - heat.keys():
            if image(x) == live_at:
                y = [dm * c - s for c, s in zip(a.phi.matrix.mul_vec(x), shift)]
                heat[x] = kernel(quad(y))
        off = not heat.keys() >= nums.keys()
        points = sorted(heat)
        values = (((theta / tor) * heat[x] if live else heat[x] / tor) for x in points)
    if off:
        raise InvariantViolationError("a support point of p^(n) lies off the live coset")
    return ((x, nums.get(x, 0), theta, f) for x, f in zip(points, values))


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
    d = 0, |v/den - theta/tor| is taken exactly, over the one denominator
    den * tor, and the exact error is a Fraction, otherwise None."""
    best, best_x = 0, None
    if a.case == "d0":
        tor = a.torsion_order
        for x, v, th, _ in window:
            err = abs(v * tor - th * den)
            if err > best:
                best, best_x = err, x
        exact = Fraction(best, den * tor)
        return float(exact), exact, best_x
    for x, v, _, f in window:
        err = abs(v / den - f)
        if err > best:
            best, best_x = err, x
    return float(best), None, best_x


def _sup_errors(p: Distribution, a: Attractor, steps):
    """llt_sup_error(p, a, n) for each n in steps, in sorted order, with
    every power read from one ladder."""
    if any(n < 1 for n in steps):
        raise ValueError("n must be at least 1")
    for n, pn in _powers(p, steps):
        err, exact, x = _largest_error(pn._den, _evaluated_window(pn._nums, a, n), a)
        scale = n ** (a.rank_d / 2)
        yield LltReport(n=n, sup_error=err, scaled_sup_error=scale * err, sup_error_exact=exact,
                        worst_point=None if x is None else p.group.element_from_coords(x))


def time_average_error(p: Distribution, a: Attractor, n: int, s: int) -> float:
    """Deviation of the s-step average of p^(n..n+s-1) from its limit.

    For an irreducible walk of period s the average over s consecutive
    steps loses the dance: on a finite group it tends to the uniform
    density 1/|G|; on an infinite group with mean-zero pushforward it
    tends to K^n(phi(x)) / |Tor(G)|.  Requires s to be the walk's period
    (the index of the walk subgroup), and n >= 1 on an infinite group.
    """
    if s != period_if_irreducible(p):
        raise ValueError("s must be the walk's period [G:G_p]")
    if not p.group.is_finite:
        if a.case != "dpos":
            raise InvariantViolationError("infinite irreducible walk must have rank >= 1")
        if any(m != 0 for m in a.moments.mean):
            raise ValueError("time-average limit requires a mean-zero pushforward")
        if n < 1:
            raise ValueError("n must be at least 1")
    laws = [(pn._den, pn._nums) for _, pn in _powers(p, range(n, n + s))]
    top = math.lcm(*(den for den, _ in laws))
    total = {}  # s times the average law, as numerators over top
    for den, nums in laws:
        for x, v in nums.items():
            total[x] = total.get(x, 0) + v * (top // den)
    return _largest_error(s * top, _evaluated_window(total, a, n, live=False), a)[0]


def tv_to_uniform_coset(p: Distribution, n: int) -> LltReport:
    """Exact total-variation distance to the uniform law on the live coset.

    Needs a finite walk subgroup W.  Reports the exact rational
    tv(p^(n), uniform on W + n*x0) and the certified exponential bound
    (|W| - 1)/2 * rho^n.  The bound is checked in exact arithmetic, with
    rho's double taken as an exact rational and a relative 1e-12 of
    upward slack for its rounding, and reported rounded upward to a
    double, so it is never 0 while positive.
    """
    report, = _tv_series(p, (n,))
    return report


def _tv_series(p: Distribution, steps):
    """tv_to_uniform_coset(p, n) for each n in steps, in sorted order, with
    every power read from one ladder and rho from one gap scan."""
    w_order = dance_of(p).walk_subgroup.order()
    if w_order is None:
        raise UnsupportedOperationError("walk subgroup is infinite; no uniform law on it")
    a, rho = build_attractor(p), Fraction(spectral_gap(p).rho)
    tor = a.torsion_order
    for n, pn in _powers(p, steps):
        # the attractor is the uniform law on the live coset, c / tor = 1 / |W|:
        # sum of |p^(n)(x) - theta/tor| over the one denominator den * tor
        den = pn._den
        total = sum(abs(v * tor - th * den) for _, v, th, _ in _evaluated_window(pn._nums, a, n))
        tv = Fraction(total, 2 * den * tor)
        bound = Fraction(w_order - 1, 2) * rho ** n * (1 + Fraction(1, 10 ** 12))
        if tv > bound:
            raise InvariantViolationError("exact TV distance exceeded its certified bound")
        f = float(bound)  # reported as the least double >= bound
        yield LltReport(n=n, tv_exact=tv,
                        tv_bound=math.nextafter(f, math.inf) if f < bound else f)


class Classification(Value):
    """Irreducibility and period classification of a walk.

    period is None when undefined (the walk is not known irreducible).
    For infinite groups the verdicts are only those certified by exact
    criteria; anything else is reported as undetermined with the failed
    hypothesis in `reason`.
    """

    __slots__ = ("irreducible", "aperiodic", "period", "dance_cosets", "reason")

    def __init__(self, irreducible: str, aperiodic: str, period: int | None,
                 dance_cosets: str, reason: str = ""):
        self._set(irreducible, aperiodic, period, dance_cosets, reason)


def classify(p: Distribution) -> Classification:
    """Classify a walk as irreducible/aperiodic where exactly decidable.

    The walk reaches W + <x0>, of index [G : W] / r with r the order of
    x0 + W in G/W.  Finite groups get exact answers: the walk is
    irreducible exactly when r = [G : W], which is then its period.
    On infinite groups, a sufficient criterion certifies yes/yes
    (G_p = G with mean-zero pushforward); proper walk subgroups yield
    sound negative verdicts; every remaining case is undetermined.
    """
    g = p.group
    dance = dance_of(p)
    w = dance.walk_subgroup
    quotient = GroupSpec(*dance.omega_invariants).describe()
    idx, r = w.index(), w.coset_order(dance.base_point)
    if g.is_finite:
        if r < idx:
            return Classification(
                irreducible="no", aperiodic="no", period=None,
                dance_cosets=(f"supp(p^(n)) stays inside the coset G_p + n*x0, "
                              f"G/G_p = {quotient}; only {g.order // idx * r} of {g.order} "
                              f"elements are ever reachable"),
                reason="reachable set is a proper subset of the group",
            )
        return Classification(
            irreducible="yes",
            aperiodic="yes" if idx == 1 else "no",
            period=idx,
            dance_cosets=(f"the {idx} cosets G_p + k*x0 partition the group and the "
                          f"walk cycles through them; G/G_p = {quotient}"),
        )
    base = f"supp(p^(n)) is confined to the moving coset G_p + n*x0; G/G_p = {quotient}"
    if idx == 1:
        # W = G: the twist is the identity, so the attractor's mean is that of the free parts
        t = len(g.torsion_moduli)
        if not any(sum(v * x[i] for x, v in p._nums.items()) for i in range(t, g.dim)):
            return Classification(
                irreducible="yes", aperiodic="yes", period=1,
                dance_cosets="G_p is the whole group: there is no dance",
            )
        return Classification(
            irreducible="undetermined", aperiodic="undetermined", period=None,
            dance_cosets="G_p is the whole group: there is no dance",
            reason=("the mean of the pushforward is nonzero, so the zero-mean "
                    "criterion does not apply; a drifting walk with full walk "
                    "subgroup may still fail to be irreducible"),
        )
    if r is None:
        return Classification(
            irreducible="no", aperiodic="no", period=None, dance_cosets=base,
            reason=("the base point has infinite order in G/G_p, so the walk "
                    "never revisits the zero coset and never returns"),
        )
    if r == 1:
        return Classification(
            irreducible="no", aperiodic="no", period=None, dance_cosets=base,
            reason="the walk is confined to the proper subgroup G_p",
        )
    if idx is None:
        return Classification(
            irreducible="no", aperiodic="no", period=None, dance_cosets=base,
            reason=("[G:G_p] is infinite, but an irreducible walk has finite "
                    "index equal to its period"),
        )
    if r < idx:
        return Classification(
            irreducible="no", aperiodic="no", period=None, dance_cosets=base,
            reason=(f"the base point generates only {r} of the {idx} cosets of "
                    f"G_p, so the coset cycle cannot cover the group"),
        )
    return Classification(
        irreducible="undetermined", aperiodic="no", period=None,
        dance_cosets=base + f"; the coset cycle has length {r}",
        reason=(f"the walk dances through {r} > 1 cosets so it is not aperiodic, "
                "but irreducibility inside the cycle is not decided by the "
                "implemented criteria"),
    )
