"""Command-line front end.

Reads a walk description as JSON (group plus exact rational weights),
runs the requested analysis, and emits JSON or CSV with deterministic
ordering and fixed 12-significant-digit float formatting, so identical
invocations are byte-identical.

Each command's output reaches stdout only once the command has succeeded.

Exit codes: 0 success, 1 stdout closed by its reader, 2 usage or parse
error, an output that cannot be spooled or an analysis the walk does not
admit (such as a uniform law on an infinite walk subgroup, or moments
outside the float range), 3 internal invariant violation, 4
golden-scenario mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from decimal import ROUND_CEILING, Decimal
from fractions import Fraction

from ._errors import InvariantViolationError, UnsupportedOperationError
from ._writer import (
    _SLICE,
    _SLOT,
    _Rows,
    _fmt_float,
    _fmt_ratio,
    _int_str,
    _render,
    _stream,
)

# Each command imports the analysis modules it calls when it runs, so that
# start-up, --help and a usage error compile none of them, and convolve,
# sample and twist never compile dance or llt.  Annotations are not
# evaluated (PEP 563): Distribution in them is dancewalk.measure's.


class SpecError(ValueError):
    """The input walk description is malformed or unreadable, the scenario is unknown,
    or the output cannot be spooled."""


def _ceil_12g(x: float) -> float:
    """x rounded upward to 12 significant digits, so its .12g form is never below x."""
    if x == 0:
        return x
    d = Decimal(x)
    y = float(d.quantize(Decimal(1).scaleb(d.adjusted() - 11), rounding=ROUND_CEILING))
    while Decimal(_fmt_float(y)) < d:  # a subnormal y holds fewer than 12 digits
        y = math.nextafter(y, math.inf)
    return y


def _spool(fill) -> None:
    """Run fill(write), which writes a command's text in pieces of at most
    _SLICE characters and does no other I/O, and copy the text to stdout
    once fill has returned.

    The text goes to a spool that moves to an unlinked temporary file
    past _SLICE characters, so no command holds its own text, and a
    command that fails part way prints nothing.
    """
    with tempfile.SpooledTemporaryFile(_SLICE, "w+", encoding="utf-8", newline="") as spool:
        try:
            fill(spool.write)
            spool.seek(0)
        except OSError as e:
            raise SpecError(f"cannot spool output: {e}") from None
        while piece := spool.read(_SLICE):
            sys.stdout.write(piece)


def _emit(obj):
    _spool(lambda write: _render(obj, write))


def _integers(what: str, values) -> list[int]:
    """values, which must be a JSON list of integers (no floats, no booleans)."""
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise TypeError(f"{what} must be JSON integers")
    return values


def load_spec(text: str) -> Distribution:
    """Parse a walk description document into a Distribution."""
    from .group import GroupSpec
    from .measure import Distribution

    try:
        # a number keeps its text, so a weight reaches Fraction exactly as a string would
        doc = json.loads(text, parse_float=str)
    # a JSONDecodeError, an integer past the digit limit, or nesting past the recursion limit
    except (ValueError, RecursionError) as e:
        raise SpecError(f"invalid JSON: {e}") from None
    try:
        gdoc = doc["group"]
        group = GroupSpec(_integers("torsion moduli", gdoc.get("torsion", [])),
                          *_integers("rank", [gdoc.get("rank", 0)]))
        weights = []
        for entry in doc["distribution"]:
            elem = entry["elem"]
            x = group.element(_integers("torsion coordinates", elem.get("torsion", [])),
                              _integers("free coordinates", elem.get("free", [])))
            w = str(entry["weight"])
            exponent = w.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
            # Fraction("1e-10000000") takes seconds; 4300 is the int digit limit parsing keeps
            if exponent.isdecimal() and int(exponent) > 4300:
                raise ValueError("weight exponent exceeds 4300 in magnitude")
            weights.append((x, Fraction(w)))
        return Distribution(group, weights)
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise SpecError(f"invalid walk description: {e}") from None


def _read_spec(path: str) -> Distribution:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        text.encode("utf-8")  # a byte that stdin's surrogateescape let through
    except (OSError, UnicodeError) as e:
        raise SpecError(f"cannot read {path}: {e}") from None
    return load_spec(text)


def _element_doc(x) -> dict:
    return {"torsion": list(x.torsion), "free": list(x.free)}


def _count_or_infinite(v):
    return "infinite" if v is None else v


def cmd_analyze(args) -> int:
    from .dance import dance_of, spectral_gap
    from .llt import classify

    p = _read_spec(args.spec)
    d = dance_of(p)
    gap = spectral_gap(p)
    cls = classify(p)
    omega = d.walk_subgroup.quotient_map()[0]
    out = {
        "group": {
            "torsion": list(p.group.torsion_moduli),
            "rank": p.group.free_rank,
            "canonical_torsion": list(p.group.invariant_factors),
        },
        "base_point": _element_doc(d.base_point),
        "walk_subgroup": {
            "hnf_generators": [list(r) for r in d.walk_subgroup.basis.data],
            "order": _count_or_infinite(d.walk_subgroup.order()),
            "index": _count_or_infinite(d.walk_subgroup.index()),
            "rank": d.rank_d,
        },
        "normalization": d.normalization_c,
        "omega": {
            "isomorphic_to": "dual of " + omega.describe(),
            "quotient_torsion": list(d.omega_invariants[0]),
            "quotient_rank": d.omega_invariants[1],
        },
        "spectral_gap": {
            "rho": gap.rho,
            "achieved_at": None if gap.achieved_at is None
            else list(gap.achieved_at.torsion_chars),
        },
        "classification": {
            "irreducible": cls.irreducible,
            "aperiodic": cls.aperiodic,
            "period": "undefined" if cls.period is None else cls.period,
            "dance_cosets": cls.dance_cosets,
            "reason": cls.reason,
        },
    }
    _emit(out)
    return 0


_WEIGHT = {"elem": {"torsion": _SLOT, "free": _SLOT}, "weight": _SLOT, "weight_float": _SLOT}


def _lowest(v: int, den: int) -> tuple[int, int, float]:
    """v / den as (numerator, denominator) in lowest terms, and as float(Fraction) rounds it."""
    g = math.gcd(v, den)
    return v // g, den // g, v / den


def cmd_convolve(args) -> int:
    from .measure import _powers

    p = _read_spec(args.spec)
    (_, den, nums), = _powers(p, (args.n,))
    t = len(p.group.torsion_moduli)

    def rows():
        for x in sorted(nums):
            num, d, f = _lowest(nums[x], den)
            yield x[:t], x[t:], _fmt_ratio(num, d), f

    _emit({"n": args.n, "support_size": len(nums), "weights": _Rows(_WEIGHT, rows())})
    return 0


def _compare_rows(den: int, nums: dict, a, n: int):
    """(x, numerator, denominator, p_float, theta, attractor, abs_error) at
    each window point of step n, from p^(n)'s numerators nums over den, the
    weight by _lowest.  Every window point is live: theta is c at each."""
    from .llt import _evaluated_window

    theta = a.dance.normalization_c
    for x, v, approx in _evaluated_window(nums, a, n):
        num, d, p_float = _lowest(v, den)
        yield x, num, d, p_float, theta, approx, abs(p_float - approx)


def _compare_steps(p: Distribution, ns: list[int]):
    """(n, rows of step n) for each step n in sorted order; each step's law
    is made when it is reached, and its rows as they are drawn."""
    from .llt import build_attractor
    from .measure import _powers

    a = build_attractor(p)
    for n, den, nums in _powers(p, ns):
        yield n, _compare_rows(den, nums, a, n)


_COMPARE = dict.fromkeys(("n", "x", "p", "p_float", "theta", "attractor", "abs_error"), _SLOT)


def cmd_compare(args) -> int:
    p = _read_spec(args.spec)
    try:
        ns = sorted({int(s) for s in args.n.split(",") if s.strip()})
    except ValueError:
        raise SpecError(f"bad step list {args.n!r}") from None
    if not ns or any(n < 1 for n in ns):
        raise SpecError("at least one step n >= 1 is required")
    steps = _compare_steps(p, ns)
    if args.format == "json":
        _emit(_Rows(_COMPARE, ((n, x, _fmt_ratio(num, den), *rest)
                               for n, rows in steps for x, num, den, *rest in rows)))
    else:
        def lines():
            header = (["n"] + [f"x{i}" for i in range(p.group.dim)]
                      + ["p_num", "p_den", "p_float", "theta", "attractor", "abs_error"])
            yield ",".join(header) + "\n"
            for n, rows in steps:
                for x, num, den, p_float, theta, approx, error in rows:
                    yield ",".join([str(n), *map(str, x), _int_str(num), _int_str(den),
                                    _fmt_float(p_float), str(theta), _fmt_float(approx),
                                    _fmt_float(error)]) + "\n"

        _spool(lambda write: _stream(lines(), write))
    return 0


def cmd_attractor(args) -> int:
    from .llt import build_attractor, llt_sup_error

    p = _read_spec(args.spec)
    a = build_attractor(p)
    report = llt_sup_error(p, a, args.n)
    out = {
        "case": "dpos" if a.rank_d else "d0",
        "rank": a.rank_d,
        "torsion_order": p.group.torsion_order,
        "normalization": a.dance.normalization_c,
    }
    if a.rank_d:
        out["phi_matrix"] = [list(r) for r in a.phi.matrix.data]
        out["mean"] = list(a.moments.mean)
        out["covariance"] = [list(r) for r in a.moments.covariance]
    out["report"] = {
        "n": report.n,
        "sup_error": report.sup_error,
        "scaled_sup_error": report.scaled_sup_error,
        "sup_error_exact": report.sup_error_exact,
        "worst_point": None if report.worst_point is None else _element_doc(report.worst_point),
    }
    _emit(out)
    return 0


def cmd_tv(args) -> int:
    from .llt import tv_to_uniform_coset

    p = _read_spec(args.spec)
    r = tv_to_uniform_coset(p, args.n)
    _emit({
        "n": r.n,
        "tv_exact": r.tv_exact,
        "tv_exact_float": float(r.tv_exact),
        "tv_bound": _ceil_12g(r.tv_bound),
    })
    return 0


def cmd_twist(args) -> int:
    from .intlinalg import AffinePointSet, twist_to_coordinates

    try:
        pts = [tuple(_integers("point coordinates", p)) for p in json.loads(args.points)]
    except (TypeError, ValueError, RecursionError) as e:  # a JSONDecodeError is a ValueError
        raise SpecError(f"bad point list: {e}") from None
    if not pts:
        raise SpecError("point list must be nonempty")
    dims = {len(p) for p in pts}
    if len(dims) != 1:
        raise SpecError("points must share one ambient dimension")
    res = twist_to_coordinates(AffinePointSet(dims.pop(), pts))
    _emit({
        "dimension": res.d,
        "automorphism": [list(r) for r in res.phi.matrix.data],
        "offset": list(res.w),
        "images": sorted([list(res.phi.matrix.mul_vec(p)) for p in pts]),
    })
    return 0


# The most coordinates sample may hold and write, n * paths * dim (a position of the
# trivial group counts as one): about 100 MB.  It admits --n 100000 --paths 3 on Z^2.
_MAX_SAMPLE_COORDS = 10 ** 6


def cmd_sample(args) -> int:
    from .measure import _positions

    p = _read_spec(args.spec)
    if (size := args.n * args.paths * max(p.group.dim, 1)) > _MAX_SAMPLE_COORDS:
        raise UnsupportedOperationError(
            f"sample would write {size} coordinates, past the budget of {_MAX_SAMPLE_COORDS}")
    paths = [list(_positions(p, args.n, args.seed + i)) for i in range(args.paths)]
    _emit({"n": args.n, "seed": args.seed, "paths": paths})
    return 0


def cmd_examples(args) -> int:
    from .scenarios import SCENARIOS

    runner = SCENARIOS.get(args.name)
    if runner is None:
        names = ", ".join(sorted(SCENARIOS))
        raise SpecError(f"unknown scenario {args.name!r}; available: {names}")
    checks = runner()
    failed = 0
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        failed += not c.passed
        line = f"{status}  {c.label}"
        if c.detail:
            line += f"  ({c.detail})"
        sys.stdout.write(line + "\n")
    sys.stdout.write(f"{len(checks) - failed}/{len(checks)} checks passed\n")
    return 4 if failed else 0


def _at_least(least: int):
    """An argparse type: an integer no smaller than least."""
    def count(text: str) -> int:
        v = int(text)
        if v < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {v}")
        return v
    return count


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every main() call."""
    parser = argparse.ArgumentParser(
        prog="dancewalk",
        description="Exact analysis of random walks on finitely generated abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_spec(sp):
        sp.add_argument("--spec", default="-", metavar="PATH",
                        help="walk description JSON (path or - for stdin)")
        return sp

    with_spec(sub.add_parser("analyze", help="walk subgroup, dance data, gap, classification")
              ).set_defaults(func=cmd_analyze)

    sp = with_spec(sub.add_parser("convolve", help="exact convolution power"))
    sp.add_argument("--n", type=_at_least(0), required=True)
    sp.set_defaults(func=cmd_convolve)

    sp = with_spec(sub.add_parser("compare", help="exact law vs attractor per point"))
    sp.add_argument("--n", required=True, metavar="A,B,C", help="comma-separated steps")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=cmd_compare)

    sp = with_spec(sub.add_parser("attractor", help="attractor data and sup-error report"))
    sp.add_argument("--n", type=_at_least(1), required=True)
    sp.set_defaults(func=cmd_attractor)

    sp = with_spec(sub.add_parser("tv", help="exact TV distance to the uniform coset law"))
    sp.add_argument("--n", type=_at_least(0), required=True)
    sp.set_defaults(func=cmd_tv)

    sp = sub.add_parser("twist", help="align a point set with its affine span")
    sp.add_argument("--points", required=True, metavar="JSON",
                    help='e.g. "[[1,0],[0,1]]"')
    sp.set_defaults(func=cmd_twist)

    sp = with_spec(sub.add_parser("sample", help="seeded walk paths"))
    sp.add_argument("--n", type=_at_least(0), required=True)
    sp.add_argument("--seed", type=_at_least(0), default=0)
    sp.add_argument("--paths", type=_at_least(0), default=1)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("examples", help="run a named golden scenario")
    sp.add_argument("name")
    sp.set_defaults(func=cmd_examples)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (SpecError, UnsupportedOperationError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except InvariantViolationError as e:
        sys.stderr.write(f"internal invariant violation: {e}\n")
        return 3
    except BrokenPipeError:
        # the reader closed stdout: what is left unflushed goes to the null
        # device, so the interpreter's own flush at exit fails no more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
