"""Checks of dancewalk's CLI output against the reference computations.

Each ``check_*`` function takes the exact bytes a command wrote to stdout
and raises ``CheckError`` on the first disagreement with the oracles in
``oracles.py`` or with a property the method must have.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import oracles


class CheckError(Exception):
    """A command's output disagrees with the reference."""


def require(cond: bool, msg: str):
    if not cond:
        raise CheckError(msg)


def _close(got: float, want: float, rel: float = 1e-9, tol: float = 1e-300) -> bool:
    return math.isclose(got, want, rel_tol=rel, abs_tol=tol)


def _json(out: bytes):
    try:
        return json.loads(out)
    except json.JSONDecodeError as e:
        raise CheckError(f"output is not JSON: {e}") from None


def _coords(elem: dict) -> tuple[int, ...]:
    return tuple(elem["torsion"]) + tuple(elem["free"])


def _exact_float(got: float, exact: Fraction, what: str):
    require(_close(got, float(exact), rel=1e-11), f"{what}: float {got!r} != {float(exact)!r}")


class FiniteFacts:
    """Oracle facts about a walk on a finite group, computed on demand."""

    def __init__(self, walk: oracles.Walk):
        self.walk = walk
        self._laws = {}
        self.w = oracles.walk_subgroup(walk)
        self.rho = oracles.spectral_gap(walk)

    def laws(self, ns):
        missing = sorted(set(ns) - set(self._laws))
        if missing:
            self._laws.update(oracles.power_laws(self.walk, missing))
        return {n: self._laws[n] for n in ns}

    def coset(self, n: int) -> set:
        return oracles.live_coset(self.walk, n, self.w)


def check_convolve(n: int, law, out: bytes):
    doc = _json(out)
    require(doc["n"] == n, f"n is {doc['n']}, expected {n}")
    require(doc["support_size"] == len(law),
            f"support_size {doc['support_size']} != {len(law)}")
    xs = [_coords(e["elem"]) for e in doc["weights"]]
    require(xs == sorted(law), "weights are not the sorted support of p^(n)")
    total = Fraction(0)
    for e, x in zip(doc["weights"], xs):
        w = Fraction(e["weight"])
        require(w == law[x], f"weight at {x} is {w}, expected {law[x]}")
        _exact_float(e["weight_float"], w, f"weight at {x}")
        total += w
    require(total == 1, f"weights sum to {total}")


def check_compare_lazy(ns, laws, out: bytes):
    """compare --format json on the lazy 5-point walk on Z^2 (W = G)."""
    records = _json(out)
    at = 0
    for n in sorted(ns):
        law = laws[n]
        window = sorted(oracles.lazy_window(n, law))
        block = records[at:at + len(window)]
        at += len(window)
        require([r["n"] for r in block] == [n] * len(window),
                f"n={n}: expected {len(window)} records")
        require([tuple(r["x"]) for r in block] == window,
                f"n={n}: points are not the sorted evaluation window")
        total = Fraction(0)
        for r in block:
            x = tuple(r["x"])
            p = Fraction(r["p"])
            require(p == law.get(x, 0), f"n={n} x={x}: p={p}, expected {law.get(x, 0)}")
            total += p
            _exact_float(r["p_float"], p, f"n={n} x={x} p")
            require(r["theta"] == 1, f"n={n} x={x}: theta={r['theta']} but W = G")
            k = oracles.lazy_heat_kernel(n, x)
            require(_close(r["attractor"], k), f"n={n} x={x}: attractor {r['attractor']!r} != {k!r}")
            err = abs(float(p) - k)
            require(_close(r["abs_error"], err, tol=1e-12 * max(float(p), k)),
                    f"n={n} x={x}: abs_error {r['abs_error']!r} != {err!r}")
        require(total == 1, f"n={n}: weights sum to {total}")
    require(at == len(records), f"{len(records) - at} records beyond the windows")


def check_attractor_lazy(n: int, law, out: bytes):
    """attractor on the lazy walk: exact moments and the sup error against
    the closed-form heat kernel (phi is unimodular, so K is read in x)."""
    doc = _json(out)
    require((doc["case"], doc["rank"], doc["torsion_order"], doc["normalization"])
            == ("dpos", 2, 1, 1), f"case/rank/order/c = {doc['case']}/{doc['rank']}/"
            f"{doc['torsion_order']}/{doc['normalization']}")
    phi = doc["phi_matrix"]
    require(abs(phi[0][0] * phi[1][1] - phi[0][1] * phi[1][0]) == 1, f"phi {phi} not unimodular")
    v = Fraction(2, 5)
    want_cov = [[v * sum(phi[i][k] * phi[j][k] for k in range(2)) for j in range(2)]
                for i in range(2)]
    got_cov = [[Fraction(c) for c in row] for row in doc["covariance"]]
    require(got_cov == want_cov, f"covariance {got_cov} != phi (2/5 I) phi^T = {want_cov}")
    require([Fraction(m) for m in doc["mean"]] == [0, 0], f"mean {doc['mean']} != 0")
    rep = doc["report"]
    errs = {x: abs(float(law.get(x, 0)) - oracles.lazy_heat_kernel(n, x))
            for x in oracles.lazy_window(n, law)}
    sup = max(errs.values())
    require(rep["n"] == n, f"report n {rep['n']} != {n}")
    require(_close(rep["sup_error"], sup), f"sup_error {rep['sup_error']!r} != {sup!r}")
    require(_close(rep["scaled_sup_error"], n * sup),
            f"scaled_sup_error {rep['scaled_sup_error']!r} != {n * sup!r}")
    require(rep["sup_error_exact"] is None, "sup_error_exact set for a Gaussian attractor")
    worst = _coords(rep["worst_point"])
    require(_close(errs.get(worst, -1.0), sup), f"worst_point {worst} does not attain the sup")


def check_analyze(facts: FiniteFacts, out: bytes):
    walk, w = facts.walk, facts.w
    doc = _json(out)
    g = doc["group"]
    require(g == {"torsion": list(walk.moduli), "rank": 0,
                  "canonical_torsion": oracles.quotient_invariants(walk, {walk.zero})},
            f"group {g}")
    require(_coords(doc["base_point"]) == walk.base_point, f"base_point {doc['base_point']}")
    sub = doc["walk_subgroup"]
    rows = [tuple(r) for r in sub["hnf_generators"]]
    require(oracles.closure(walk, [walk.add(walk.zero, r) for r in rows]) == w,
            f"hnf_generators {rows} do not generate W")
    index = walk.order // len(w)
    require((sub["order"], sub["index"], sub["rank"]) == (len(w), index, 0),
            f"order/index/rank {sub['order']}/{sub['index']}/{sub['rank']}, "
            f"expected {len(w)}/{index}/0")
    require(sub["index"] * sub["order"] == walk.order, "index * |W| != |G|")
    require(doc["normalization"] == index, f"normalization {doc['normalization']} != {index}")
    om = doc["omega"]
    want_q = oracles.quotient_invariants(walk, w)
    require((om["quotient_torsion"], om["quotient_rank"]) == (want_q, 0),
            f"omega {om['quotient_torsion']}/{om['quotient_rank']}, expected {want_q}/0")
    gap = doc["spectral_gap"]
    require(_close(gap["rho"], facts.rho, tol=1e-12), f"rho {gap['rho']!r} != {facts.rho!r}")
    if gap["achieved_at"] is None:
        require(facts.rho == 0, "achieved_at missing with rho > 0")
    else:
        xi = tuple(gap["achieved_at"])
        require(not oracles.in_unit_locus(walk, xi), f"achieved_at {xi} is on the locus")
        require(_close(oracles.char_modulus(walk, xi), gap["rho"], tol=1e-12),
                f"|p_hat({xi})| != rho")
    irreducible, period = oracles.reach_and_period(walk)
    cls = doc["classification"]
    want = (("yes", "yes" if period == 1 else "no", period) if irreducible
            else ("no", "no", "undefined"))
    got = (cls["irreducible"], cls["aperiodic"], cls["period"])
    require(got == want, f"classification {got}, expected {want}")


def check_tv(facts: FiniteFacts, n: int, out: bytes):
    doc = _json(out)
    law = facts.laws([n])[n]
    tv = oracles.tv_to_uniform(law, facts.coset(n))
    require(doc["n"] == n, f"n is {doc['n']}")
    got = Fraction(doc["tv_exact"])
    require(got == tv, f"tv_exact {got}, expected {tv}")
    _exact_float(doc["tv_exact_float"], got, "tv_exact")
    # The bound is printed rounded to 12 significant digits, so where it is
    # tight (|W| = 2) the printed value may sit just below the exact TV.
    require(tv <= Fraction(doc["tv_bound"]) * (1 + Fraction(1, 10 ** 11)),
            f"tv_exact {tv} > tv_bound {doc['tv_bound']!r}")
    bound = (len(facts.w) - 1) / 2 * facts.rho ** n
    require(_close(doc["tv_bound"], bound, rel=1e-8, tol=1e-300),
            f"tv_bound {doc['tv_bound']!r} != (|W|-1)/2 rho^n = {bound!r}")


def check_attractor_d0(facts: FiniteFacts, n: int, out: bytes):
    walk = facts.walk
    doc = _json(out)
    index = walk.order // len(facts.w)
    require((doc["case"], doc["rank"], doc["torsion_order"], doc["normalization"])
            == ("d0", 0, walk.order, index),
            f"case/rank/order/c = {doc['case']}/{doc['rank']}/{doc['torsion_order']}/"
            f"{doc['normalization']}")
    law = facts.laws([n])[n]
    coset = facts.coset(n)
    sup = oracles.sup_error_d0(law, coset)
    rep = doc["report"]
    require(rep["n"] == n, f"report n {rep['n']}")
    got = Fraction(rep["sup_error_exact"])
    require(got == sup, f"sup_error_exact {got}, expected {sup}")
    _exact_float(rep["sup_error"], sup, "sup_error")
    _exact_float(rep["scaled_sup_error"], sup, "scaled_sup_error")
    if sup == 0:
        require(rep["worst_point"] is None, "worst_point set with zero error")
    else:
        x = _coords(rep["worst_point"])
        u = Fraction(1, len(coset))
        require(abs(law.get(x, 0) - (u if x in coset else 0)) == sup,
                f"worst_point {x} does not attain the sup")


def check_compare_d0_csv(facts: FiniteFacts, n: int, out: bytes):
    """compare --format csv on a finite group (rank-0 attractor 1/|W|)."""
    walk = facts.walk
    rows = list(csv.reader(io.StringIO(out.decode())))
    t = len(walk.moduli)
    header = (["n"] + [f"x{i}" for i in range(t)]
              + ["p_num", "p_den", "p_float", "theta", "attractor", "abs_error"])
    require(rows[0] == header, f"header {rows[0]}")
    law = facts.laws([n])[n]
    coset = facts.coset(n)
    window = sorted(coset | set(law))
    body = rows[1:]
    require([tuple(int(c) for c in r[1:1 + t]) for r in body] == window,
            "points are not the sorted live coset")
    index = walk.order // len(facts.w)
    total = Fraction(0)
    for r in body:
        x = tuple(int(c) for c in r[1:1 + t])
        num, den = int(r[1 + t]), int(r[2 + t])
        require(int(r[0]) == n, f"row n {r[0]}")
        require(den > 0 and math.gcd(num, den) == 1, f"x={x}: {num}/{den} not in lowest terms")
        p = Fraction(num, den)
        require(p == law.get(x, 0), f"x={x}: p={p}, expected {law.get(x, 0)}")
        total += p
        _exact_float(float(r[3 + t]), p, f"x={x} p")
        theta = index if x in coset else 0
        require(int(r[4 + t]) == theta, f"x={x}: theta {r[4 + t]}, expected {theta}")
        att = theta / walk.order
        require(_close(float(r[5 + t]), att), f"x={x}: attractor {r[5 + t]} != {att!r}")
        err = abs(float(p) - att)
        require(_close(float(r[6 + t]), err, tol=1e-12 * max(float(p), att)),
                f"x={x}: abs_error {r[6 + t]} != {err!r}")
    require(total == 1, f"weights sum to {total}")


def check_examples(expected_checks: int, out: bytes):
    """A golden scenario: every check line PASS and a closing k/k tally."""
    lines = out.decode().splitlines()
    want = f"{expected_checks}/{expected_checks} checks passed"
    require(bool(lines) and lines[-1] == want, f"last line is not {want!r}")
    require(len(lines) - 1 == expected_checks, f"{len(lines) - 1} check lines")
    require(all(ln.startswith("PASS  ") for ln in lines[:-1]), "a scenario check failed")
