import argparse
import contextlib
import gc
import io
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, seed, settings, strategies as st

import dancewalk.cli
import dancewalk.dance
import dancewalk.group
import dancewalk.intlinalg
import dancewalk.llt
import dancewalk._recurrence
import dancewalk.measure
import dancewalk.scenarios
from dancewalk._writer import _SLOT, _render, _Rows
from dancewalk.cli import _SLICE, load_spec, main
from dancewalk.group import GroupSpec, Subgroup
from dancewalk.measure import convolution_power
from dancewalk.scenarios import SCENARIOS
from reference import _render as reference_render, dump_spec

SRC = str(Path(dancewalk.__file__).resolve().parent.parent)
GOLDEN = Path(__file__).resolve().parent / "golden"

Z12_SPEC = json.dumps({
    "group": {"torsion": [12], "rank": 0},
    "distribution": [
        {"elem": {"torsion": [-1]}, "weight": "1/2"},
        {"elem": {"torsion": [2]}, "weight": "1/2"},
    ],
})

SPITZER_SPEC = json.dumps({
    "group": {"torsion": [], "rank": 2},
    "distribution": [
        {"elem": {"free": [1, 0]}, "weight": "1/2"},
        {"elem": {"free": [0, 1]}, "weight": "1/2"},
    ],
})

Z4Z6_SPEC = json.dumps({
    "group": {"torsion": [4, 6], "rank": 0},
    "distribution": [
        {"elem": {"torsion": [1, 1]}, "weight": "1/2"},
        {"elem": {"torsion": [0, 3]}, "weight": "1/2"},
    ],
})

TORUS12_SPEC = json.dumps({
    "group": {"torsion": [12, 12], "rank": 0},
    "distribution": [
        {"elem": {"torsion": [0, 0]}, "weight": "1/3"},
        {"elem": {"torsion": [1, 0]}, "weight": "1/3"},
        {"elem": {"torsion": [0, 1]}, "weight": "1/3"},
    ],
})

Z2Z2Z6_SPEC = json.dumps({
    "group": {"torsion": [2, 2, 6], "rank": 0},
    "distribution": [
        {"elem": {"torsion": [1, 0, 1]}, "weight": "1/3"},
        {"elem": {"torsion": [0, 1, 1]}, "weight": "2/3"},
    ],
})


KNIGHT_SPEC = json.dumps({
    "group": {"torsion": [], "rank": 2},
    "distribution": [{"elem": {"free": [a, b]}, "weight": "1/8"}
                     for a, b in ((1, 2), (2, 1), (-1, 2), (-2, 1),
                                  (1, -2), (2, -1), (-1, -2), (-2, -1))],
})

ELEVATOR2_SPEC = json.dumps({
    "group": {"torsion": [4], "rank": 1},
    "distribution": [
        {"elem": {"torsion": [1], "free": [0]}, "weight": "1/4"},
        {"elem": {"torsion": [-1], "free": [0]}, "weight": "1/4"},
        {"elem": {"torsion": [0], "free": [1]}, "weight": "1/4"},
        {"elem": {"torsion": [0], "free": [-1]}, "weight": "1/4"},
    ],
})

# Mean (1/3, 1/3), covariance [[2/9, -1/9], [-1/9, 2/9]].
DRIFT_Z2_SPEC = json.dumps({
    "group": {"torsion": [], "rank": 2},
    "distribution": [
        {"elem": {"free": [0, 0]}, "weight": "1/3"},
        {"elem": {"free": [1, 0]}, "weight": "1/3"},
        {"elem": {"free": [0, 1]}, "weight": "1/3"},
    ],
})


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_cli(args, stdin="", timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "dancewalk.cli", *args],
        input=stdin, capture_output=True, text=True, timeout=timeout, env=cli_env(),
    )


def test_load_spec_roundtrip():
    p = load_spec(Z12_SPEC)
    assert len(p) == 2
    assert p.group.torsion_moduli == (12,)
    # torsion residues are reduced on parse
    assert {x.torsion[0] for x in p.support()} == {11, 2}
    with pytest.raises(ValueError):
        load_spec('{"group": {"torsion": [12]}, "distribution": []}')
    with pytest.raises(ValueError):
        load_spec("not json")
    with pytest.raises(ValueError):
        load_spec(json.dumps({
            "group": {"torsion": [12]},
            "distribution": [{"elem": {"torsion": [1]}, "weight": "1/3"}],
        }))


def test_spec_round_trip():
    for spec in (Z12_SPEC, SPITZER_SPEC, Z4Z6_SPEC):
        p = load_spec(spec)
        assert load_spec(dump_spec(p)) == p
        # serialization is canonical: dumping twice gives identical bytes
        assert dump_spec(load_spec(dump_spec(p))) == dump_spec(p)


def _decimal(w: Fraction) -> str | None:
    """w as an exact decimal such as "0.25", or None when it has no finite one."""
    for places in range(1, 8):
        digits = w * 10 ** places
        if digits.denominator == 1:
            whole, frac = divmod(int(digits), 10 ** places)
            return f"{whole}.{frac:0{places}d}"
    return None


@st.composite
def _rewritten_specs(draw):
    """(spec, rewritten spec) of a random walk on a finite or mixed group, the
    rewrite shuffling the entries, moving torsion residues by multiples of
    their moduli, splitting a weight in two and writing weights unreduced or
    as exact decimals."""
    moduli = draw(st.sampled_from(((2,), (3,), (4,), (6,), (12,), (2, 4), (3, 3), (2, 6))))
    rank = draw(st.integers(0, 1))
    coord = st.tuples(*(st.integers(0, m - 1) for m in moduli),
                      *(st.integers(-2, 2) for _ in range(rank)))
    points = draw(st.lists(coord, min_size=1, max_size=4, unique=True))
    den = draw(st.sampled_from((4, 5, 8, 10, 3, 6, 12)))
    cuts = sorted(draw(st.lists(st.integers(1, den - 1), max_size=len(points) - 1, unique=True)))
    if len(cuts) < len(points) - 1:
        points = points[:len(cuts) + 1]
    law = sorted(zip(points, (Fraction(b - a, den) for a, b in zip([0, *cuts], [*cuts, den]))))
    t = len(moduli)

    def entry(x, w, form="plain"):
        text = str(w)
        if form == "unreduced":
            k = draw(st.integers(2, 3))
            text = f"{k * w.numerator}/{k * w.denominator}"
        elif form == "decimal":
            text = _decimal(w) or text
        return {"elem": {"torsion": list(x[:t]), "free": list(x[t:])}, "weight": text}

    def spec(entries):
        return json.dumps({"group": {"torsion": list(moduli), "rank": rank},
                           "distribution": entries})

    pieces = list(law)
    i = draw(st.integers(0, len(pieces) - 1))
    x, w = pieces[i]
    part = w * draw(st.sampled_from((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))))
    pieces[i:i + 1] = [(x, part), (x, w - part)]
    moved = [(tuple(c + m * draw(st.integers(-2, 2)) for c, m in zip(x[:t], moduli)) + x[t:], w)
             for x, w in pieces]
    forms = st.sampled_from(("plain", "unreduced", "decimal"))
    rewritten = [entry(x, w, draw(forms)) for x, w in draw(st.permutations(moved))]
    return spec([entry(x, w) for x, w in law]), spec(rewritten), rank == 0


@seed(0x4919d1ff141a1ab27002d92d1e3bf4a380085219b293988929b39f449b48d8be730408a84d752bd7936ab2494be2a502)
@settings(max_examples=60, derandomize=True, deadline=None)
@given(_rewritten_specs())
def test_a_rewritten_spec_gives_the_same_output(case):
    # the same law written another way parses to an equal Distribution and
    # every command prints the same bytes for it
    spec, rewritten, finite = case
    assert load_spec(rewritten) == load_spec(spec)
    commands = [["analyze"], ["compare", "--n", "2"]] + [["tv", "--n", "3"]] * finite
    for command in commands:
        outputs = []
        for text in (spec, rewritten):
            out, err = io.StringIO(), io.StringIO()
            with mock.patch.object(sys, "stdin", io.StringIO(text)), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*command, "--spec", "-"])
            outputs.append((code, out.getvalue(), err.getvalue()))
        assert outputs[0] == outputs[1], command
        assert outputs[0][1]


def test_analyze_z12(tmp_path):
    path = tmp_path / "walk.json"
    path.write_text(Z12_SPEC)
    proc = run_cli(["analyze", "--spec", str(path)])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["walk_subgroup"]["hnf_generators"] == [[3]]
    assert doc["walk_subgroup"]["index"] == 3
    assert doc["normalization"] == 3
    assert doc["omega"]["quotient_torsion"] == [3]
    assert abs(doc["spectral_gap"]["rho"] - 0.7071067811865476) < 1e-11
    assert doc["classification"]["period"] == 3


def test_analyze_delta_walk():
    spec = json.dumps({
        "group": {"torsion": [12], "rank": 0},
        "distribution": [{"elem": {"torsion": [0]}, "weight": "1"}],
    })
    proc = run_cli(["analyze", "--spec", "-"], stdin=spec)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["walk_subgroup"]["order"] == 1
    assert doc["normalization"] == 12


def test_analyze_z4z6_omega():
    proc = run_cli(["analyze", "--spec", "-"], stdin=Z4Z6_SPEC)
    doc = json.loads(proc.stdout)
    assert doc["omega"]["quotient_torsion"] == [2]
    assert doc["classification"]["period"] == 2


def test_analyze_canonical_torsion_not_a_chain():
    spec = json.dumps({
        "group": {"torsion": [2, 3, 6], "rank": 0},
        "distribution": [
            {"elem": {"torsion": [0, 0, 0]}, "weight": "1/2"},
            {"elem": {"torsion": [1, 1, 1]}, "weight": "1/4"},
            {"elem": {"torsion": [0, 2, 3]}, "weight": "1/4"},
        ],
    })
    proc = run_cli(["analyze", "--spec", "-"], stdin=spec)
    assert json.loads(proc.stdout)["group"]["canonical_torsion"] == [6, 6]


def test_byte_determinism():
    a = run_cli(["analyze", "--spec", "-"], stdin=Z4Z6_SPEC)
    b = run_cli(["analyze", "--spec", "-"], stdin=Z4Z6_SPEC)
    assert a.stdout == b.stdout
    c = run_cli(["compare", "--spec", "-", "--n", "4,2", "--format", "csv"], stdin=Z12_SPEC)
    d = run_cli(["compare", "--spec", "-", "--n", "4,2", "--format", "csv"], stdin=Z12_SPEC)
    assert c.stdout == d.stdout


def test_compare_csv_spitzer():
    proc = run_cli(["compare", "--spec", "-", "--n", "12", "--format", "csv"],
                   stdin=SPITZER_SPEC)
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    header = lines[0].split(",")
    assert header == ["n", "x0", "x1", "p_num", "p_den", "p_float",
                      "theta", "attractor", "abs_error"]
    rows = [line.split(",") for line in lines[1:]]
    # window rows all live on the wave front x + y = n
    assert all(int(r[1]) + int(r[2]) == 12 for r in rows)
    support = {(int(r[1]), int(r[2])): (int(r[3]), int(r[4]))
               for r in rows if r[3] != "0"}
    assert len(support) == 13
    p = load_spec(SPITZER_SPEC)
    pn = convolution_power(p, 12)
    for x, w in pn.items():
        assert support[(x.free[0], x.free[1])] == (w.numerator, w.denominator)


def test_compare_json_ordering():
    # a step given twice is written once
    proc = run_cli(["compare", "--spec", "-", "--n", "3,1,2,3"], stdin=Z12_SPEC)
    records = json.loads(proc.stdout)
    keys = [(r["n"], tuple(r["x"])) for r in records]
    assert all(k < k_next for k, k_next in zip(keys, keys[1:]))
    for r in records:
        assert r["abs_error"] >= 0


def test_compare_rejects_empty_steps():
    proc = run_cli(["compare", "--spec", "-", "--n", ""], stdin=Z12_SPEC)
    assert proc.returncode == 2


@pytest.mark.parametrize("error, code", [(dancewalk.intlinalg.InvariantViolationError, 3),
                                         (dancewalk.group.UnsupportedOperationError, 2)])
@pytest.mark.parametrize("command", [["compare", "--n", "1,2"],
                                     ["compare", "--n", "1,2", "--format", "csv"]])
def test_a_failed_command_prints_nothing(error, code, command, monkeypatch, capsys):
    # the first step's rows are ready when the second step fails
    window = dancewalk.llt._evaluated_window

    def failing(nums, a, n):
        if n == 2:
            raise error("second step")
        return window(nums, a, n)

    monkeypatch.setattr(dancewalk.llt, "_evaluated_window", failing)
    monkeypatch.setattr(sys, "stdin", io.StringIO(LAZY_Z2_SPEC))
    assert main([*command, "--spec", "-"]) == code
    out = capsys.readouterr()
    assert out.out == "" and "second step" in out.err


def test_each_command_renders_once_through_the_cli_binding(monkeypatch, capsys):
    # bench/spans.py times rendering by wrapping dancewalk.cli._render; the rows
    # of compare and convolve are drawn once, so each call's text is kept as it is streamed
    texts = []
    render = dancewalk.cli._render

    def spy(obj, write):
        pieces = []
        render(obj, lambda piece: pieces.append(piece) or write(piece))
        texts.append("".join(pieces))

    monkeypatch.setattr(dancewalk.cli, "_render", spy)
    for command, spec in [(["convolve", "--n", "3"], KNIGHT_SPEC),
                          (["compare", "--n", "1,2"], LAZY_Z2_SPEC),
                          (["attractor", "--n", "3"], LAZY_Z2_SPEC), (["analyze"], Z12_SPEC)]:
        monkeypatch.setattr(sys, "stdin", io.StringIO(spec))
        assert main([*command, "--spec", "-"]) == 0
        assert capsys.readouterr().out == texts[-1]
    assert len(texts) == 4


def counted(monkeypatch, name, module=dancewalk.measure):
    """A list that collects the arguments of every call of module's name."""
    calls, function = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or function(*args))
    return calls


def test_compare_computes_each_power_once(monkeypatch, capsys):
    calls = counted(monkeypatch, "_product")
    # a walk with a torsion axis, so the ladder makes its powers
    monkeypatch.setattr(sys, "stdin", io.StringIO(ELEVATOR2_SPEC))
    assert main(["compare", "--spec", "-", "--n", "10,20,30"]) == 0
    assert capsys.readouterr().out
    # one ladder: p^2, p^3, p^5, p^10 by halving, then p^20 = p^10 * p^10, p^30 = p^20 * p^10
    assert 0 < len(calls) <= 9
    # p^(n+1) = p^n * p for each of the s consecutive steps after the first
    p = load_spec(Z12_SPEC)
    a = dancewalk.llt.build_attractor(p)
    s = dancewalk.llt.classify(p).period
    assert s > 1
    calls.clear()
    list(dancewalk.measure._powers(p, [7]))
    first = len(calls)
    calls.clear()
    dancewalk.llt.time_average_error(p, a, 7, s)
    assert len(calls) == first + s - 1


def test_compare_makes_each_step_once_by_the_recurrence(monkeypatch, capsys):
    # the lazy walk on Z^2 has no torsion axis: each step is one recurrence, and no product
    products, steps = counted(monkeypatch, "_product"), counted(monkeypatch, "power", dancewalk._recurrence)
    monkeypatch.setattr(sys, "stdin", io.StringIO(LAZY_Z2_SPEC))
    assert main(["compare", "--spec", "-", "--n", "30,10,20,10"]) == 0
    assert capsys.readouterr().out
    assert products == [] and [n for _, n, *_ in steps] == [10, 20, 30]


@pytest.mark.parametrize("name, one_ladder", [("elevator1", 19), ("elevator2", 9),
                                               ("spitzer", 0), ("z12", 24), ("z9-a1b4", 24)])
def test_each_sup_error_series_reads_one_ladder(name, one_ladder, monkeypatch):
    # elevator1 makes p^2, ..., p^20 once each; elevator2 makes p^2, p^3, p^6, p^12,
    # p^13 and p^25, then p^50, p^100 and p^200 as squares; spitzer's walk has no
    # torsion axis, so the recurrence makes its steps with no product; z12 makes p^2,
    # p^3, p^5, p^10, then p^11, ..., p^30 one step at a time; z9-a1b4's TV series
    # makes p^2, ..., p^25 once each and scans the gap once for all 25 steps
    calls, scans = counted(monkeypatch, "_product"), []
    gap = dancewalk.dance.spectral_gap
    for module in (dancewalk.llt, dancewalk.scenarios):
        monkeypatch.setattr(module, "spectral_gap", lambda p: scans.append(p) or gap(p))
    assert all(c.passed for c in SCENARIOS[name]())
    assert len(calls) == one_ladder
    assert len(scans) <= 1


def test_the_spitzer_series_makes_each_step_once_by_the_recurrence(monkeypatch):
    steps = counted(monkeypatch, "power", dancewalk._recurrence)
    assert all(c.passed for c in SCENARIOS["spitzer"]())
    assert [n for _, n, *_ in steps] == [25, 50, 100, 200]


LAZY_Z2_SPEC = json.dumps({
    "group": {"torsion": [], "rank": 2},
    "distribution": [{"elem": {"free": x}, "weight": "1/5"}
                     for x in ([0, 0], [1, 0], [-1, 0], [0, 1], [0, -1])],
})
# 1/3 on 0, 2e1 and 2e2 in Z_12 x Z_12: W = 2Z_12 x 2Z_12, of index c = 4
TORUS12_EVEN_SPEC = json.dumps({
    "group": {"torsion": [12, 12], "rank": 0},
    "distribution": [{"elem": {"torsion": x}, "weight": "1/3"}
                     for x in ([0, 0], [2, 0], [0, 2])],
})
# 1/3 on (0, 0; 0), (1, 1; 0) and (0, 0; 1) in Z_2 x Z_4 x Z: W_t = <(1, 1)>, c = 2
DIAGONAL_Z2_Z4_Z_SPEC = json.dumps({
    "group": {"torsion": [2, 4], "rank": 1},
    "distribution": [{"elem": {"torsion": t, "free": f}, "weight": "1/3"}
                     for t, f in (([0, 0], [0]), ([1, 1], [0]), ([0, 0], [1]))],
})
# 1/3 on 0, e1 and e2 in Z_60 x Z_60
TORSION_Z60_SPEC = json.dumps({
    "group": {"torsion": [60, 60], "rank": 0},
    "distribution": [{"elem": {"torsion": x}, "weight": "1/3"}
                     for x in ([0, 0], [1, 0], [0, 1])],
})


class _Discard:
    """A stdout that counts what is written to it and keeps none of it."""

    def __init__(self):
        self.chars = self.longest = 0

    def write(self, text):
        self.chars += len(text)
        self.longest = max(self.longest, len(text))
        return len(text)

    def writelines(self, texts):
        for text in texts:
            self.write(text)

    def flush(self):
        pass


def _draw_compare(spec, ns):
    for _, rows in dancewalk.cli._compare_steps(load_spec(spec), ns):
        for _ in rows:
            pass


def _draw_convolve(spec, n):
    (_, _, nums), = dancewalk.measure._powers(load_spec(spec), (n,))
    for x in sorted(nums):
        nums[x]


def _draw_sup_error(spec, n):
    p = load_spec(spec)
    dancewalk.llt.llt_sup_error(p, dancewalk.llt.build_attractor(p), n)


def _draw_sample(spec, n, paths):
    p = load_spec(spec)
    return [[list(x.coords()) for x in dancewalk.measure.sample_path(p, n, seed).positions]
            for seed in range(paths)]


def _traced_peak(run):
    """The peak of memory traced while run() runs, the cycle collector off."""
    gc.disable()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


@pytest.mark.parametrize("command, spec, draw, kib", [
    pytest.param(["compare", "--n", "10,20,30"], LAZY_Z2_SPEC,
                 lambda: _draw_compare(LAZY_Z2_SPEC, [10, 20, 30]), 256, id="compare-json"),
    pytest.param(["convolve", "--n", "40"], LAZY_Z2_SPEC,
                 lambda: _draw_convolve(LAZY_Z2_SPEC, 40), 256, id="convolve"),
    pytest.param(["compare", "--n", "50", "--format", "csv"], TORSION_Z60_SPEC,
                 lambda: _draw_compare(TORSION_Z60_SPEC, [50]), 256, id="compare-csv"),
    # a path position is an item of about 16 characters, held as a str of its
    # own until the slice is handed on: some 300 KB for a slice of them
    pytest.param(["sample", "--n", "10000", "--paths", "2"], LAZY_Z2_SPEC,
                 lambda: _draw_sample(LAZY_Z2_SPEC, 10000, 2), 512, id="sample")])
def test_output_costs_no_more_than_a_few_slices(command, spec, draw, kib, monkeypatch):
    # the writer holds about a slice of records or list items and the spool
    # moves to a file past a slice, so a command peaks within a few hundred
    # KiB of drawing its rows unwritten, however long its text; no write is
    # longer than a slice
    def run():
        monkeypatch.setattr(sys, "stdin", io.StringIO(spec))
        assert main([*command, "--spec", "-"]) == 0

    for traced in (False, True):  # the first runs build the parser and warm the caches
        out = _Discard()
        monkeypatch.setattr(sys, "stdout", out)
        peaks = (_traced_peak(draw), _traced_peak(run)) if traced else (draw(), run())
    assert out.chars > 3 * _SLICE
    assert 0 < out.longest <= _SLICE
    assert peaks[1] - peaks[0] < kib * 1024


@pytest.mark.parametrize("draw, kib", [
    pytest.param(lambda: _draw_compare(LAZY_Z2_SPEC, [10, 20, 30]), 864, id="compare"),
    pytest.param(lambda: _draw_convolve(LAZY_Z2_SPEC, 40), 800, id="convolve"),
    pytest.param(lambda: _draw_sup_error(LAZY_Z2_SPEC, 30), 800, id="sup-error"),
    pytest.param(lambda: _draw_compare(TORSION_Z60_SPEC, [50]), 720, id="compare-z60"),
    pytest.param(lambda: dancewalk.llt.tv_to_uniform_coset(load_spec(TORSION_Z60_SPEC), 50),
                 720, id="tv-z60")])
def test_drawing_the_rows_holds_one_step_at_a_time(draw, kib):
    # the ladder frees each rung after its last read, a step's law is drained
    # out of its rung and the window streams its rows: what is left at the peak
    # is about one step's law, some 660 KiB at n = 40 on the lazy walk
    draw()  # the first run warms the caches
    assert _traced_peak(draw) < kib * 1024


@pytest.mark.parametrize("command", [["compare", "--n", "20,21"],
                                     ["compare", "--n", "20,21", "--format", "csv"]])
def test_a_command_failing_after_its_spool_rolled_over_prints_nothing(command, monkeypatch,
                                                                       capsys):
    # step 20's rows fill several slices, so the spool is on disk when step 21 fails
    spooled = []
    write = tempfile.SpooledTemporaryFile.write
    monkeypatch.setattr(tempfile.SpooledTemporaryFile, "write",
                        lambda self, text: spooled.append(len(text)) or write(self, text))
    window = dancewalk.llt._evaluated_window

    def failing(nums, a, n):
        if n == 21:
            raise dancewalk.group.UnsupportedOperationError("step 21")
        return window(nums, a, n)

    monkeypatch.setattr(dancewalk.llt, "_evaluated_window", failing)
    monkeypatch.setattr(sys, "stdin", io.StringIO(LAZY_Z2_SPEC))
    assert main([*command, "--spec", "-"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: step 21\n"
    assert sum(spooled) > _SLICE


def test_an_output_that_cannot_be_spooled_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    monkeypatch.setattr(sys, "stdin", io.StringIO(LAZY_Z2_SPEC))
    assert main(["convolve", "--n", "40", "--spec", "-"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: cannot spool output: ") and out.err.count("\n") == 1
    # a short text never leaves memory
    monkeypatch.setattr(sys, "stdin", io.StringIO(LAZY_Z2_SPEC))
    assert main(["convolve", "--n", "1", "--spec", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["support_size"] == 5


@pytest.mark.parametrize("command", [["convolve", "--n", "40"],
                                     ["compare", "--n", "10,20", "--format", "csv"]])
def test_a_reader_closing_stdout_early_ends_the_command_quietly(command, tmp_path):
    # the text is longer than a pipe holds, so the command is still writing
    # when the reader goes: it exits 1 with nothing on stderr
    spec = tmp_path / "lazy.json"
    spec.write_text(LAZY_Z2_SPEC)
    with subprocess.Popen([sys.executable, "-m", "dancewalk.cli", *command, "--spec", str(spec)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env()) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=300) == 1
    assert err == b""


def _line_spec(steps):
    """A walk on Z^k: each step a (coordinates, weight) pair."""
    return json.dumps({"group": {"torsion": [], "rank": len(steps[0][0])},
                       "distribution": [{"elem": {"free": list(x)}, "weight": str(w)}
                                        for x, w in steps]})


TINY = Fraction(1, 10 ** 10)
FLOAT_RANGE_SPECS = {
    # the variance 10^320 / 4 is past the largest float
    "long-steps": (_line_spec([((0,), Fraction(1, 2)), ((10 ** 160,), Fraction(1, 2))]),
                   "covariance determinant"),
    # the variance, about 10^-400, rounds to 0
    "rare-step": (_line_spec([((0,), 1 - Fraction(1, 10 ** 400)),
                              ((1,), Fraction(1, 10 ** 400))]), "covariance determinant"),
    # the determinant is a float, 3 times the first variance is not
    "wide-box": (_line_spec([((0, 0), 1 - 2 * TINY), ((10 ** 159, 0), TINY), ((0, 1), TINY)]),
                 "variance n * Gamma[0][0]"),
}


@pytest.mark.parametrize("command", [["compare", "--n", "3"],
                                     ["compare", "--n", "3", "--format", "csv"],
                                     ["attractor", "--n", "3"]])
@pytest.mark.parametrize("name", sorted(FLOAT_RANGE_SPECS))
def test_moments_outside_the_float_range_exit_2(name, command, monkeypatch, capsys):
    spec, quantity = FLOAT_RANGE_SPECS[name]
    monkeypatch.setattr(sys, "stdin", io.StringIO(spec))
    assert main([*command, "--spec", "-"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: the {quantity} is outside the float range\n"


@pytest.mark.parametrize("command", [["compare", "--n", "3"],
                                     ["compare", "--n", "3", "--format", "csv"],
                                     ["attractor", "--n", "3"]])
def test_the_last_window_axis_is_range_checked(command, tmp_path):
    # wide-box with its axes swapped: the huge variance falls on the last twisted
    # axis, the one the window solves for instead of boxing; run in a child with
    # a timeout, since an unchecked axis makes the window scan about 10^150 points
    spec = tmp_path / "swapped.json"
    spec.write_text(_line_spec([((0, 0), 1 - 2 * TINY), ((0, 10 ** 159), TINY),
                                ((1, 0), TINY)]))
    proc = run_cli([*command, "--spec", str(spec)], timeout=20)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: the variance n * Gamma[1][1] is outside the float range\n"


def run_bounded(args, stdin):
    """run_cli in a child held to 1 GiB of address space and 30 s, so that an
    input the program fails to refuse cannot exhaust the machine."""
    limit = (1 << 30, 1 << 30)
    return subprocess.run(
        [sys.executable, "-m", "dancewalk.cli", *args], input=stdin, capture_output=True,
        text=True, timeout=30, env=cli_env(),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit),
    )


SIMPLE_Z_SPEC = json.dumps({
    "group": {"torsion": [], "rank": 1},
    "distribution": [{"elem": {"free": [x]}, "weight": "1/2"} for x in (-1, 1)],
})


@pytest.mark.parametrize("command", [["convolve"], ["compare"], ["attractor"]])
def test_a_power_past_the_bit_budget_exits_2(command):
    # p^(10^8) of the simple walk on Z: 10^8 + 1 cells (and as many multisets of
    # steps) times 10^8 * 2 bits, refused before the ladder's first product
    proc = run_bounded([*command, "--spec", "-", "--n", "100000000"], SIMPLE_Z_SPEC)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: p^100000000 may hold 20000000200000000 bits of numerators, "
                           "past the 1073741824-bit budget\n")


def test_a_sample_past_the_coordinates_budget_exits_2():
    # 10^8 positions of the simple walk on Z: held whole, they would not fit
    # in the child's 1 GiB, so the budget must refuse them before the first draw
    proc = run_bounded(["sample", "--spec", "-", "--n", "100000000"], SIMPLE_Z_SPEC)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: sample would write 100000000 coordinates, "
                           "past the budget of 1000000\n")


@pytest.mark.parametrize("command", [["analyze"], ["tv", "--n", "5"]])
def test_a_gap_scan_past_the_character_budget_exits_2(command):
    # 1/2 on 0 and 1 in Z_1000000007: not uniform on a coset of W_A, so the
    # scan would visit every one of the 1000000007 characters
    spec = json.dumps({"group": {"torsion": [1000000007], "rank": 0},
                       "distribution": [{"elem": {"torsion": [x]}, "weight": "1/2"}
                                        for x in (0, 1)]})
    proc = run_bounded([*command, "--spec", "-"], spec)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: the gap scan would visit 1000000007 characters, "
                           "past the budget of 10000000\n")


@pytest.mark.parametrize("s, n", [(300, 20), (1000, 1), (10 ** 50, 1)],
                         ids=["s300-n20", "s1000-n1", "s1e50-n1"])
def test_a_window_budget_counts_only_live_points(s, n):
    # 1/3 at 0, s*e1 and s*e2 in Z^2: the box of twisted Z^2 grows as s^2, but
    # only 1 of its points in s^2 is live, and only those count against the
    # budget: 34^2, 8^2 and 8^2 of them, not the box's 102434641, 56911936 and
    # more than 10^100 points
    spec = json.dumps({"group": {"torsion": [], "rank": 2},
                       "distribution": [{"elem": {"free": v}, "weight": "1/3"}
                                        for v in ([0, 0], [s, 0], [0, s])]})
    proc = run_bounded(["attractor", "--spec", "-", "--n", str(n)], spec)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["report"]["n"] == n


def test_a_window_past_the_points_budget_by_its_torsion_residues_exits_2():
    # 1/3 at (0; 0), (1; 0) and (0; 1) in Z_m x Z: W = G, so W_t = W ∩ Tor(G) is all
    # of Z_m, and each of the box's 10 points at n = 1 has m = 10^7 live lifts
    m = 10 ** 7
    spec = json.dumps({"group": {"torsion": [m], "rank": 1},
                       "distribution": [{"elem": {"torsion": [r], "free": [v]}, "weight": "1/3"}
                                        for r, v in ((0, 0), (1, 0), (0, 1))]})
    proc = run_bounded(["attractor", "--spec", "-", "--n", "1"], spec)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: the window at n = 1 would hold 100000000 points, "
                           "past the budget of 10000000\n")


def test_a_window_lifts_only_through_the_walk_subgroups_torsion():
    # 1/2 at (0, 1) and (0, -1) in Z_m x Z: W_t is trivial, so each live point of
    # the window has one lift, and none of the m = 10^7 residues of G is listed
    m = 10 ** 7
    spec = json.dumps({"group": {"torsion": [m], "rank": 1},
                       "distribution": [{"elem": {"torsion": [0], "free": [v]}, "weight": "1/2"}
                                        for v in (1, -1)]})
    proc = run_bounded(["attractor", "--spec", "-", "--n", "1"], spec)
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads(proc.stdout)
    assert (doc["torsion_order"], doc["normalization"]) == (m, 2 * m)
    assert doc["report"]["worst_point"] == {"torsion": [0], "free": [-1]}


def test_the_powers_of_a_dancing_torus_pack_in_the_walk_subgroups_coordinates():
    # 1/3 at 0, 2e1 and 2e2 in Z_120 x Z_120: W = 2Z_120 x 2Z_120 has c = 4 cosets, so
    # every power's box holds the 3600 cells of W and not the 14400 of G
    spec = json.dumps({"group": {"torsion": [120, 120], "rank": 0},
                       "distribution": [{"elem": {"torsion": x}, "weight": "1/3"}
                                        for x in ([0, 0], [2, 0], [0, 2])]})
    start = time.perf_counter()
    proc = run_bounded(["tv", "--spec", "-", "--n", "600"], spec)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert time.perf_counter() - start < 8
    assert json.loads(proc.stdout)["n"] == 600


def test_a_large_power_of_a_walk_with_no_torsion_is_made_well_inside_the_time_limit():
    # p^20000 of the simple walk on Z holds at most 8.0e8 bits, under the bit budget;
    # the ladder's top products take minutes, the recurrence well under a second
    start = time.perf_counter()
    proc = run_bounded(["attractor", "--spec", "-", "--n", "20000"], SIMPLE_Z_SPEC)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)["report"]
    assert report["n"] == 20000 and report["worst_point"] == {"torsion": [], "free": [0]}
    assert time.perf_counter() - start < 20


def test_window_makes_no_membership_or_kernel_calls(monkeypatch, capsys):
    # the window is scanned, tested and evaluated on coordinate tuples, and it
    # tells the live coset by the kept quotient map: no Hermite reduction per point
    calls = []

    def counting(owner, name):
        method = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.append(name) or method(*args))

    counting(Subgroup, "contains")
    counting(dancewalk.dance.DanceData, "theta")
    for command, spec in ((["compare", "--n", "3,7"], LAZY_Z2_SPEC),
                          (["attractor", "--n", "7"], LAZY_Z2_SPEC),
                          (["compare", "--n", "50", "--format", "csv"], TORSION_Z60_SPEC),
                          (["tv", "--n", "50"], TORSION_Z60_SPEC)):
        monkeypatch.setattr(sys, "stdin", io.StringIO(spec))
        assert main([*command, "--spec", "-"]) == 0
        assert capsys.readouterr().out
    assert calls == []


def test_one_lattice_basis_pass_over_the_support(monkeypatch, capsys):
    # the walk subgroup's, kept on the law: the gap scan's uniform-coset test reads
    # its Hermite rows, and the powers and the window its own coordinates
    calls = []
    basis = dancewalk.group.lattice_basis
    monkeypatch.setattr(dancewalk.group, "lattice_basis",
                        lambda rows, cols: calls.append(len(rows)) or basis(rows, cols))
    for spec, rows, commands in [
            # the support's differences and the two relation rows
            (TORSION_Z60_SPEC, 3 + 2, (["analyze"], ["tv", "--n", "50"], ["convolve", "--n", "50"],
                                       ["compare", "--n", "50", "--format", "csv"],
                                       ["attractor", "--n", "50"])),
            # c = 4, so the powers pack in coordinates other than G's
            (TORUS12_EVEN_SPEC, 3 + 2, (["convolve", "--n", "20"], ["compare", "--n", "10,20"],
                                        ["attractor", "--n", "20"])),
            # rank 2, so the window lifts its live points through the same map
            (DIAGONAL_Z2_Z4_Z_SPEC, 3 + 2, (["convolve", "--n", "20"], ["compare", "--n", "10,20"],
                                            ["attractor", "--n", "20"]))]:
        for command in commands:
            calls.clear()
            monkeypatch.setattr(sys, "stdin", io.StringIO(spec))
            assert main([*command, "--spec", "-"]) == 0
            assert capsys.readouterr().out
            assert calls == [rows]


def test_analyze_makes_one_hermite_pass_per_law(monkeypatch, capsys):
    passes = []
    basis = dancewalk.group.lattice_basis
    monkeypatch.setattr(dancewalk.group, "lattice_basis",
                        lambda rows, cols: passes.append(sorted(map(tuple, rows))) or basis(rows, cols))
    for spec in (Z4Z6_SPEC, SPITZER_SPEC):
        passes.clear()
        monkeypatch.setattr(sys, "stdin", io.StringIO(spec))
        assert main(["analyze", "--spec", "-"]) == 0
        assert capsys.readouterr().out
        # no law twice, and p once: on Spitzer's walk its torsion projection is the other
        p = load_spec(spec)
        rows = dancewalk.measure._steps(p) + dancewalk.group._relation_rows(p.group)
        assert len(set(map(tuple, passes))) == len(passes)
        assert passes.count(sorted(map(tuple, rows))) == 1


def test_one_smith_form_per_subgroup(monkeypatch, capsys):
    calls = []
    smith = dancewalk.group.snf
    monkeypatch.setattr(dancewalk.group, "snf", lambda m: calls.append(m) or smith(m))
    g = GroupSpec([4, 6])
    h = Subgroup(g, [[1, 1]])
    h.quotient_invariants()
    h.coset_order(g.element([1, 0]))
    h.coset_order(g.element([0, 1]))
    h.annihilator()
    h.quotient_map()
    assert len(calls) == 1
    # analyze: one Smith form for canonical_torsion, one for the walk subgroup
    calls.clear()
    monkeypatch.setattr(sys, "stdin", io.StringIO(Z4Z6Z_SPEC))
    assert main(["analyze", "--spec", "-"]) == 0
    assert capsys.readouterr().out
    assert len(calls) == 2


Z4Z6Z_SPEC = json.dumps({
    "group": {"torsion": [4, 6], "rank": 1},
    "distribution": [
        {"elem": {"torsion": [1, 1], "free": [1]}, "weight": "1/2"},
        {"elem": {"torsion": [0, 3], "free": [1]}, "weight": "1/2"},
    ],
})


def test_attractor_and_tv_commands():
    proc = run_cli(["attractor", "--spec", "-", "--n", "20"], stdin=Z12_SPEC)
    doc = json.loads(proc.stdout)
    assert doc["case"] == "d0"
    assert doc["report"]["n"] == 20
    proc = run_cli(["tv", "--spec", "-", "--n", "10"], stdin=Z12_SPEC)
    doc = json.loads(proc.stdout)
    assert doc["tv_exact_float"] <= doc["tv_bound"]
    proc = run_cli(["attractor", "--spec", "-", "--n", "25"], stdin=SPITZER_SPEC)
    doc = json.loads(proc.stdout)
    assert doc["mean"] == ["1/2"]
    assert doc["covariance"] == [["1/4"]]


@pytest.mark.parametrize("name, spec", [("torus12", TORUS12_SPEC), ("z2z2z6", Z2Z2Z6_SPEC)])
@pytest.mark.parametrize("command", [["analyze"], ["tv", "--n", "20"]])
def test_golden_stdout(name, spec, command, capsys, monkeypatch):
    # the bytes in tests/golden pin the printed rho, achieved_at and tv_bound
    _assert_golden(name, spec, command, capsys, monkeypatch)


@pytest.mark.parametrize("name, spec", [("knight", KNIGHT_SPEC), ("elevator2", ELEVATOR2_SPEC),
                                        ("drift_z2", DRIFT_Z2_SPEC)])
@pytest.mark.parametrize("command", [["compare", "--n", "1,4,9"],
                                     ["compare", "--n", "5", "--format", "csv"],
                                     ["attractor", "--n", "13"]])
def test_golden_stdout_attractor(name, spec, command, capsys, monkeypatch):
    # the bytes pin the window, its order and every printed attractor value
    _assert_golden(name, spec, command, capsys, monkeypatch)


# A rank-1 walk in Z^3: every step lies on the line through (1, 2, 3) with direction (2, 3, 4).
LINE_Z3_SPEC = json.dumps({
    "group": {"torsion": [], "rank": 3},
    "distribution": [
        {"elem": {"free": [1, 2, 3]}, "weight": "1/2"},
        {"elem": {"free": [3, 5, 7]}, "weight": "1/4"},
        {"elem": {"free": [-1, -1, -1]}, "weight": "1/4"},
    ],
})


@pytest.mark.parametrize("name, spec", [("spitzer", SPITZER_SPEC), ("line_z3", LINE_Z3_SPEC)])
def test_golden_stdout_twisted_attractor(name, spec, capsys, monkeypatch):
    # walks of rank d < k: the bytes pin the twist phi, the moments and the window
    _assert_golden(name, spec, ["attractor", "--n", "13"], capsys, monkeypatch)


TWIST_POINTS = {
    "line_z3": [[1, 2, 3], [3, 5, 7], [5, 8, 11]],
    "plane_z3": [[0, 0, 0], [2, 1, 3], [1, 3, -2], [3, 4, 1]],
    "line_z4": [[0, 1, 0, 2], [3, -1, 2, 7], [-3, 3, -2, -3]],
    "plane_z4": [[1, 1, 1, 1], [3, 2, -1, 4], [0, 4, 2, 1], [6, 0, -4, 7]],
}


@pytest.mark.parametrize("name", sorted(TWIST_POINTS))
def test_golden_stdout_twist(name, capsys):
    # point sets of affine dimension 1 and 2 in Z^3 and Z^4
    assert main(["twist", "--points", json.dumps(TWIST_POINTS[name])]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}_twist.json").read_bytes()


def _walk_spec(torsion, rank, steps):
    """A uniform walk on Z_torsion x Z^rank; each step is (torsion coords, free coords)."""
    return json.dumps({
        "group": {"torsion": torsion, "rank": rank},
        "distribution": [{"elem": {"torsion": t, "free": f}, "weight": f"1/{len(steps)}"}
                         for t, f in steps],
    })


# one walk on an infinite group per branch of classify, and both walks of the paper's abstract
ANALYZE_INFINITE = {
    "lazy_z2": (LAZY_Z2_SPEC, '"irreducible": "yes"'),
    # x0 generates G/G_p = 0, but the steps' semigroup is not a group
    "drift_z": (json.dumps({"group": {"torsion": [], "rank": 1}, "distribution": [
        {"elem": {"free": [1]}, "weight": "2/3"}, {"elem": {"free": [0]}, "weight": "1/3"}]}),
        "the steps generate G but not as a semigroup"),
    "drift_up_z2": (_walk_spec([], 2, [([], [0, 0]), ([], [1, 0]), ([], [-1, 0]), ([], [0, 1])]),
                    "the steps generate G but not as a semigroup"),
    "spitzer": (SPITZER_SPEC, "the base point has infinite order"),
    "even_z": (_walk_spec([], 1, [([], [0]), ([], [2])]), "confined to the proper subgroup"),
    "slab_z2z2": (_walk_spec([2], 2, [([1], [0, 0]), ([1], [1, 0])]),
                  "[G:G_p] is infinite"),
    "z4z_half": (_walk_spec([4], 1, [([1], [0]), ([1], [2])]),
                 "generates only 4 of the 8 cosets"),
    # x0 generating G/G_p and the steps' semigroup a group: period [G:G_p] = 2,
    # with mean zero or, for drift_cycle_z, not
    "simple_z": (_walk_spec([], 1, [([], [1]), ([], [-1])]), '"period": 2'),
    "knight": (KNIGHT_SPEC, '"period": 2'),
    "drift_cycle_z": (json.dumps({"group": {"torsion": [], "rank": 1}, "distribution": [
        {"elem": {"free": [1]}, "weight": "2/3"}, {"elem": {"free": [-1]}, "weight": "1/3"}]}),
        '"period": 2'),
}


@pytest.mark.parametrize("name", sorted(ANALYZE_INFINITE))
def test_golden_stdout_analyze_infinite(name, capsys, monkeypatch):
    # omega, canonical_torsion and the coset order come from the Smith form
    spec, branch = ANALYZE_INFINITE[name]
    _assert_golden(name, spec, ["analyze"], capsys, monkeypatch)
    assert branch in (GOLDEN / f"{name}_analyze.json").read_text()


def _assert_golden(name, spec, command, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(spec))
    assert main([*command, "--spec", "-"]) == 0
    suffix = "csv" if "csv" in command else "json"
    golden = GOLDEN / f"{name}_{command[0]}.{suffix}"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_unsupported_operation_exits_2():
    spec = json.dumps({
        "group": {"torsion": [], "rank": 1},
        "distribution": [
            {"elem": {"free": [0]}, "weight": "1/2"},
            {"elem": {"free": [1]}, "weight": "1/2"},
        ],
    })
    proc = run_cli(["tv", "--spec", "-", "--n", "3"], stdin=spec)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_tv_bound_printed_not_below_exact(capsys, monkeypatch):
    # |W| = 2 makes the certified bound tight: rounding it to nearest at
    # 12 digits would print a decimal below the exact TV at n = 3, 13.
    # From n = 656 on, rho^n = 3^-n is subnormal or below every double,
    # so a float power loses its slack and then reads 0.
    for n in (3, 13, 656, 679, 700):
        monkeypatch.setattr(sys, "stdin", io.StringIO(Z2Z2Z6_SPEC))
        assert main(["tv", "--spec", "-", "--n", str(n)]) == 0
        out = capsys.readouterr().out
        exact = Fraction(json.loads(out)["tv_exact"])
        printed = re.search(r'"tv_bound": (\S+)', out).group(1)
        assert Fraction(printed) >= exact > 0


def test_a_far_light_support_point_reads_attractor_zero(capsys, monkeypatch):
    # weight 10^-330 at 10^160 in Z: its form is far past the float range,
    # and its kernel value, exp of an exponent below -746, is 0.0
    tiny = Fraction(1, 10 ** 330)
    spec = json.dumps({"group": {"torsion": [], "rank": 1},
                       "distribution": [{"elem": {"free": [0]}, "weight": str(1 - tiny)},
                                        {"elem": {"free": [10 ** 160]}, "weight": str(tiny)}]})
    for command in ("attractor", "compare"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(spec))
        assert main([command, "--spec", "-", "--n", "1"]) == 0
        out = capsys.readouterr().out
    far, = [row for row in json.loads(out) if row["x"] == [10 ** 160]]
    assert (far["attractor"], far["abs_error"]) == (0, 0)


def test_twist_command():
    proc = run_cli(["twist", "--points", "[[1,0],[0,1]]"])
    doc = json.loads(proc.stdout)
    assert doc["dimension"] == 1
    assert doc["automorphism"] == [[1, 0], [1, 1]]
    assert doc["offset"] == [1]
    proc = run_cli(["twist", "--points", "[[5,7]]"])
    doc = json.loads(proc.stdout)
    assert doc["dimension"] == 0
    proc = run_cli(["twist", "--points", "[]"])
    assert proc.returncode == 2


def test_sample_refuses_a_negative_seed():
    # random.Random seeds from abs(seed), so the seeds -1, 0, 1 of three paths
    # would give the first and the third path alike
    proc = run_cli(["sample", "--spec", "-", "--n", "10", "--seed", "-1", "--paths", "3"],
                   stdin=Z12_SPEC)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "--seed: must be at least 0, got -1" in proc.stderr
    with pytest.raises(ValueError, match="negative seed"):
        dancewalk.measure.sample_path(load_spec(Z12_SPEC), 10, -1)


def test_sample_command_deterministic():
    a = run_cli(["sample", "--spec", "-", "--n", "10", "--seed", "42", "--paths", "3"],
                stdin=Z12_SPEC)
    b = run_cli(["sample", "--spec", "-", "--n", "10", "--seed", "42", "--paths", "3"],
                stdin=Z12_SPEC)
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert len(doc["paths"]) == 3
    assert all(len(path) == 11 for path in doc["paths"])
    assert all(path[0] == [0] for path in doc["paths"])


def test_examples_exit_codes():
    proc = run_cli(["examples", "z9-a1b4"])
    assert proc.returncode == 0
    assert "checks passed" in proc.stdout
    proc = run_cli(["examples", "does-not-exist"])
    assert proc.returncode == 2
    # a usage error like every other: one line with the error: prefix, and no stdout
    assert proc.stderr == ("error: unknown scenario 'does-not-exist'; available: "
                           + ", ".join(sorted(SCENARIOS)) + "\n")
    assert proc.stdout == ""


# The number of checks each golden scenario makes; z4z6-table is the one
# that checks the annihilator on all 24 two-point walks on Z_4 x Z_6.
SCENARIO_CHECK_COUNTS = {"z12": 4, "z9-a1b3": 2, "z9-a1b4": 2, "z9-a0b3": 2, "z4z6": 4,
                         "z4z6-table": 1, "elevator1": 3, "elevator2": 3, "spitzer": 4}
# Wall-clock budget of each scenario, in seconds
SCENARIO_BUDGETS = {"z12": 1, "z9-a1b3": 1, "z9-a1b4": 1, "z9-a0b3": 1, "z4z6": 1,
                    "z4z6-table": 1, "elevator1": 10, "elevator2": 10, "spitzer": 30}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_scenario_passes_every_check(name):
    assert SCENARIOS.keys() == SCENARIO_CHECK_COUNTS.keys() == SCENARIO_BUDGETS.keys()
    started = time.perf_counter()
    checks = SCENARIOS[name]()
    elapsed = time.perf_counter() - started
    assert [c.label for c in checks if not c.passed] == []
    assert len(checks) == SCENARIO_CHECK_COUNTS[name]
    assert elapsed < SCENARIO_BUDGETS[name], f"{name} took {elapsed:.2f}s"


def test_z12_rate_check_is_exact(monkeypatch):
    # rho = 2^(-1/2) exactly, so (9/12) rho^10 is 3/128: a sup error above it by a
    # relative 10^-10 fails the check, with no float slack to pass it
    err = Fraction(3, 128) * (1 + Fraction(1, 10**10))
    report = dancewalk.llt.LltReport(n=10, sup_error_exact=err)
    monkeypatch.setattr(dancewalk.scenarios, "_sup_errors", lambda p, a, steps: iter([report]))
    check = dancewalk.scenarios.run_z12()[-1]
    assert check.label == "sup error within (9/12) rho^n for n=10..30 [reference]"
    assert not check.passed
    assert check.detail == "n=10: 2.344e-02 > 2.344e-02"


def _one_point_spec(group, elem):
    return json.dumps({"group": group, "distribution": [{"elem": elem, "weight": "1"}]})


# moduli, rank and coordinates must be JSON integers; malformed shapes exit 2 too
NON_INTEGER_SPECS = [
    _one_point_spec({"torsion": [4.9], "rank": 1}, {"torsion": [1], "free": [0]}),
    _one_point_spec({"torsion": [4.0]}, {"torsion": [1]}),
    _one_point_spec({"torsion": "4"}, {"torsion": [1]}),
    _one_point_spec({"torsion": [True, 4]}, {"torsion": [0, 1]}),
    _one_point_spec({"torsion": [4], "rank": 1.5}, {"torsion": [1], "free": [0]}),
    _one_point_spec({"torsion": [4], "rank": True}, {"torsion": [1], "free": [0]}),
    _one_point_spec({"torsion": [4], "rank": 1}, {"torsion": [1.7], "free": [0]}),
    _one_point_spec({"torsion": [4], "rank": 1}, {"torsion": [1], "free": [0.9]}),
    _one_point_spec({"torsion": [4], "rank": 1}, {"torsion": [True], "free": [0]}),
    _one_point_spec({"torsion": [4], "rank": 1}, {"torsion": [1], "free": [False]}),
    _one_point_spec([4], {"torsion": [1]}),
    _one_point_spec({"torsion": [4]}, [1]),
]

# twist points must be lists of JSON integers; 1e400 parses as a float infinity, and
# nesting past the recursion limit makes the JSON parser raise RecursionError
NON_INTEGER_POINTS = ["[[1.7, true], [0.2, 3]]", '[["1", 2], [0, 3]]', "[[1e400, 2], [0, 3]]",
                      "[3, [0, 3]]", "[" * 3000]


def test_usage_errors_exit_2(tmp_path):
    proc = run_cli(["analyze", "--spec", "-"], stdin="{]")
    assert proc.returncode == 2
    proc = run_cli(["analyze", "--spec", "-"], stdin="[" * 3000)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: invalid JSON: "), proc.stderr
    not_utf8 = tmp_path / "spec.json"
    not_utf8.write_bytes(b'\xff\xfe{"group"')
    proc = run_cli(["analyze", "--spec", str(not_utf8)])
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: cannot read {not_utf8}: "), proc.stderr
    assert not proc.stdout
    # the same on stdin, where it decodes strictly
    proc = subprocess.run([sys.executable, "-m", "dancewalk.cli", "analyze", "--spec", "-"],
                          input=b"\xff{", capture_output=True, timeout=300,
                          env=dict(cli_env(), PYTHONIOENCODING="utf-8:strict"))
    assert proc.returncode == 2
    assert proc.stderr.decode().startswith("error: cannot read -: "), proc.stderr
    assert not proc.stdout
    # a stdin decoded with surrogateescape lets a non-UTF-8 byte through: refused the same
    spec = _one_point_spec({"torsion": [2]}, {"torsion": [0]}).encode()
    proc = subprocess.run([sys.executable, "-m", "dancewalk.cli", "analyze", "--spec", "-"],
                          input=spec.replace(b'"group"', b'"note": "\xff", "group"'),
                          capture_output=True, timeout=300,
                          env=dict(cli_env(), PYTHONIOENCODING="utf-8:surrogateescape"))
    assert proc.returncode == 2
    assert proc.stderr.decode().startswith("error: cannot read -: "), proc.stderr
    assert not proc.stdout
    proc = run_cli(["frobnicate"])
    assert proc.returncode == 2
    proc = run_cli(["analyze", "--spec", "/nonexistent/path.json"])
    assert proc.returncode == 2
    for args in (["convolve", "--n", "-1"], ["tv", "--n", "-1"], ["attractor", "--n", "0"],
                 ["attractor", "--n", "-3"], ["sample", "--n", "-1"],
                 ["sample", "--n", "3", "--paths", "-1"]):
        proc = run_cli([*args, "--spec", "-"], stdin=Z12_SPEC)
        assert proc.returncode == 2, args
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr, args
        assert not proc.stdout, args
    for spec in NON_INTEGER_SPECS:
        proc = run_cli(["analyze", "--spec", "-"], stdin=spec)
        assert proc.returncode == 2, spec
        assert proc.stderr.startswith("error: invalid walk description: "), (spec, proc.stderr)
        assert not proc.stdout, spec
    for points in NON_INTEGER_POINTS:
        proc = run_cli(["twist", "--points", points])
        assert proc.returncode == 2, points
        assert proc.stderr.startswith("error: bad point list: "), (points, proc.stderr)
        assert not proc.stdout, points


def _weights_spec(weights) -> str:
    """A walk on Z_len(weights) with the given weight texts, written into the JSON as they are."""
    entries = ", ".join(f'{{"elem": {{"torsion": [{i}]}}, "weight": {w}}}'
                        for i, w in enumerate(weights))
    return f'{{"group": {{"torsion": [{len(weights)}]}}, "distribution": [{entries}]}}'


def test_huge_weight_exponents_exit_2_fast():
    # Fraction("1e-10000000") alone takes seconds; the exponent is checked first,
    # on a weight written as a string or as a JSON number, which keeps its text
    for weight in ("1e-10000000", "1E+4301", "0.5e-4301", "1e" + "9" * 5000):
        for written in (json.dumps(weight), weight):
            spec = _weights_spec([written, '"1"'])
            proc = run_cli(["analyze", "--spec", "-"], stdin=spec, timeout=5)
            assert proc.returncode == 2, (written[:20], proc.stderr)
            assert proc.stderr.startswith("error: invalid walk description: ")
    # number weights are read exactly, never through a double: 1/2 + 1/2 + 10^-400
    # and 0.1000000000000000055511151231257827 + 0.9 both exceed 1
    for weights in (["0.5", "0.5", "1e-400"], ["0.1000000000000000055511151231257827", "0.9"]):
        proc = run_cli(["convolve", "--spec", "-", "--n", "1"], stdin=_weights_spec(weights))
        assert proc.returncode == 2, (weights, proc.stderr)
        assert proc.stderr.startswith("error: invalid walk description: "), proc.stderr
    assert load_spec(_weights_spec(["0.25", "0.75"])) == load_spec(_weights_spec(['"1/4"', '"3/4"']))
    # the bound itself is accepted: 10^-4300 + (1 - 10^-4300) = 1
    p = load_spec(json.dumps({"group": {"torsion": [2]}, "distribution": [
        {"elem": {"torsion": [0]}, "weight": "1e-4300"},
        {"elem": {"torsion": [1]}, "weight": "0." + "9" * 4300}]}))
    assert p.weight(p.group.element([0])) == Fraction(1, 10 ** 4300)


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kw: built.append(self) or init(self, *args, **kw))
    dancewalk.cli.build_parser.cache_clear()
    for _ in range(2):
        assert main(["twist", "--points", "[[1,0],[0,1]]"]) == 0
    assert capsys.readouterr().out
    # the top-level parser and its 8 subcommand parsers, for both calls
    assert len(built) == 9


def test_main_callable_directly(capsys):
    rc = main(["twist", "--points", "[[2,4],[2,5]]"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == 1


# 1/3 on 0 and 2/3 on 1 in Z_2: p^(n)(0) = (3^n + 1) / (2 * 3^n) for even n.
Z2_THIRDS_SPEC = json.dumps({
    "group": {"torsion": [2], "rank": 0},
    "distribution": [{"elem": {"torsion": [0]}, "weight": "1/3"},
                     {"elem": {"torsion": [1]}, "weight": "2/3"}],
})


def _long_str(v: int) -> str:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(v)
    finally:
        sys.set_int_max_str_digits(limit)


def test_exact_rationals_print_at_any_length():
    # 3^10000 has 4772 digits, past CPython's default int-to-str limit of 4300
    den = 3 ** 10000
    weight = f"{_long_str((den + 1) // 2)}/{_long_str(den)}"
    tv = f'"1/{_long_str(2 * den)}"'  # |p^(n)(0) - 1/2|, also the d = 0 sup error
    for args, want in ((["convolve"], f'"{weight}"'), (["compare"], f'"{weight}"'),
                       (["compare", "--format", "csv"], weight.replace("/", ",")),
                       (["tv"], tv), (["attractor"], tv)):
        proc = run_cli([*args, "--n", "10000", "--spec", "-"], stdin=Z2_THIRDS_SPEC, timeout=60)
        assert proc.returncode == 0, (args, proc.stderr)
        assert want in proc.stdout, args


def test_tv_bound_covers_the_gap_scans_rounding(capsys, monkeypatch):
    # rho = 1/3 exactly, read by the gap scan as a double 1.85e-17 below it,
    # and |W| = 2 makes the bound (1/2) * rho^n tight on tv = (1/2) * 3^-n:
    # in rho^n that rounding grows to n * 5.55e-17 relative, past 10^-12 from
    # n = 18015, so only the scan's own error bound e_scan covers every n
    for n in (18014, 18015, 50000):
        monkeypatch.setattr(sys, "stdin", io.StringIO(Z2_THIRDS_SPEC))
        assert main(["tv", "--spec", "-", "--n", str(n)]) == 0
        out = capsys.readouterr().out
        assert f'"tv_exact": "1/{_long_str(2 * 3 ** n)}"' in out
        printed = re.search(r'"tv_bound": (\S+)', out).group(1)
        assert Fraction(printed) >= Fraction(1, 2 * 3 ** n)


def test_parsing_keeps_the_int_digit_limit():
    big = "1" + "0" * 4999
    entries = '[{"elem": {"torsion": [0]}, "weight": %s}, {"elem": {"torsion": [1]}, "weight": %s}]'
    for weights in (('"1/%s"' % big, '"%s/%s"' % ("9" * 4999, big)), (big, "0")):
        spec = '{"group": {"torsion": [2]}, "distribution": %s}' % (entries % weights)
        proc = run_cli(["analyze", "--spec", "-"], stdin=spec, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr


W200_SPEC = json.dumps({
    "group": {"torsion": [], "rank": 2},
    "distribution": [{"elem": {"free": [i % 20 - 10, i // 20 - 5]}, "weight": "1/200"}
                     for i in range(200)],
})


def test_hermite_rows_fold_generators_before_hnf(monkeypatch, capsys):
    # a Hermite pass that carries a transform never sees the 200 generators
    calls = []
    _hnf = dancewalk.intlinalg._hnf

    def recording_hnf(h, cols, u=None):
        calls.append((len(h), u is not None))
        return _hnf(h, cols, u)

    monkeypatch.setattr(dancewalk.intlinalg, "_hnf", recording_hnf)
    for command in (["analyze"], ["attractor", "--n", "1"]):
        monkeypatch.setattr(sys, "stdin", io.StringIO(W200_SPEC))
        assert main([*command, "--spec", "-"]) == 0
        assert capsys.readouterr().out
    assert any(carries for _, carries in calls)
    assert all(rows <= 2 for rows, carries in calls if carries), calls


STDLIB_CHECK = """
import contextlib, io, json, sys
before = set(sys.modules)
from dancewalk.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps({"foreign": sorted(m for m in loaded
                                    if m != "dancewalk" and m not in sys.stdlib_module_names),
                  "csv": "csv" in sys.modules}))
"""


def test_runtime_imports_only_the_standard_library(tmp_path):
    z12, lazy = tmp_path / "z12.json", tmp_path / "lazy.json"
    z12.write_text(Z12_SPEC)
    lazy.write_text(LAZY_Z2_SPEC)
    calls = [["analyze", "--spec", str(z12)], ["convolve", "--spec", str(z12), "--n", "3"],
             ["compare", "--spec", str(lazy), "--n", "2,3"],
             ["compare", "--spec", str(lazy), "--n", "2", "--format", "csv"],
             ["attractor", "--spec", str(lazy), "--n", "3"], ["tv", "--spec", str(z12), "--n", "3"],
             ["twist", "--points", "[[1,0],[0,1]]"], ["sample", "--spec", str(z12), "--n", "3"],
             ["examples", "z12"]]
    proc = subprocess.run([sys.executable, "-c", STDLIB_CHECK, json.dumps(calls)],
                          capture_output=True, text=True, timeout=120, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    # no third-party module, and the CSV output is written without the csv module
    assert json.loads(proc.stdout) == {"foreign": [], "csv": False}


STARTUP_CHECK = """
import contextlib, io, json, sys
before = set(sys.modules)
import dancewalk.cli
loaded = sorted(set(sys.modules) - before)
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = dancewalk.cli.main(["examples", "z12"])
print(json.dumps({"loaded": loaded, "code": code, "out": out.getvalue(),
                  "scenarios": "dancewalk.scenarios" in sys.modules}))
"""


def test_cli_start_up_loads_no_dataclasses_inspect_or_scenarios():
    proc = subprocess.run([sys.executable, "-c", STARTUP_CHECK],
                          capture_output=True, text=True, timeout=120, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert "dancewalk.cli" in got["loaded"]
    assert not {"dataclasses", "inspect", "dancewalk.scenarios"} & set(got["loaded"])
    # examples still loads its scenarios on demand and runs them
    assert got["code"] == 0 and got["scenarios"]
    assert got["out"].endswith("checks passed\n") and "FAIL" not in got["out"]


COMMAND_MODULES_CHECK = """
import contextlib, io, json, sys
import dancewalk.cli
at_import = sorted(m for m in sys.modules if m.startswith("dancewalk."))
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = dancewalk.cli.main(json.loads(sys.argv[1]))
    except SystemExit as e:
        code = e.code
print(json.dumps({"at_import": at_import, "code": code,
                  "after": sorted(m for m in sys.modules if m.startswith("dancewalk."))}))
"""
ANALYSIS_MODULES = {f"dancewalk.{name}"
                    for name in ("intlinalg", "group", "measure", "dance", "llt", "scenarios")}
WALK_MODULES = {"dancewalk.intlinalg", "dancewalk.group", "dancewalk.measure"}


@pytest.mark.parametrize("argv, code, loaded", [
    (["--help"], 0, set()),
    (["analyze", "--bogus"], 2, set()),
    (["twist", "--points", "[[1,0],[0,1]]"], 0, {"dancewalk.intlinalg"}),
    (["convolve", "--n", "3", "--spec", "SPEC"], 0, WALK_MODULES),
    (["sample", "--n", "3", "--spec", "SPEC"], 0, WALK_MODULES),
    (["analyze", "--spec", "SPEC"], 0, ANALYSIS_MODULES - {"dancewalk.scenarios"}),
])
def test_each_command_loads_only_the_modules_it_runs(argv, code, loaded, tmp_path):
    spec = tmp_path / "z12.json"
    spec.write_text(Z12_SPEC)
    argv = [str(spec) if a == "SPEC" else a for a in argv]
    proc = subprocess.run([sys.executable, "-c", COMMAND_MODULES_CHECK, json.dumps(argv)],
                          capture_output=True, text=True, timeout=120, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    # the front end alone: no analysis module is compiled at start-up
    assert got["at_import"] == ["dancewalk._errors", "dancewalk._writer", "dancewalk.cli"]
    assert got["code"] == code
    assert set(got["after"]) & ANALYSIS_MODULES == loaded


@pytest.mark.parametrize("name, spec, command", [
    ("knight", KNIGHT_SPEC, ["convolve", "--n", "3"]),
    ("z2z2z6", Z2Z2Z6_SPEC, ["convolve", "--n", "4"]),
    ("elevator2", ELEVATOR2_SPEC, ["sample", "--n", "12", "--seed", "5", "--paths", "3"]),
])
def test_golden_stdout_convolve_and_sample(name, spec, command, capsys, monkeypatch):
    # the bytes pin the weights, their order and layout, and the seeded paths
    _assert_golden(name, spec, command, capsys, monkeypatch)


class _Big:
    """Stands in for an int of about 10**k, or a Fraction with that numerator, in the
    documents drawn below, which hypothesis must be able to repr; _expand makes it."""

    def __init__(self, k: int, fraction: bool):
        self.k, self.fraction = k, fraction

    def __repr__(self):
        return f"_Big({self.k}, {self.fraction})"


def _expand(doc):
    if isinstance(doc, _Big):
        return Fraction(-(10 ** doc.k) - 1, 3) if doc.fraction else 10 ** doc.k + 7
    if isinstance(doc, _Rows):
        return _Rows(doc.layout, [_expand(row) for row in doc.rows])
    if isinstance(doc, dict):
        return {k: _expand(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(_expand(v) for v in doc)
    return doc


# Two-slot rows of every kind of leaf, the kinds varying from row to row down a
# slot: ints past 2000 bits and past the digit limit, Fractions, bools, None,
# empty and 60-character lists, nested dicts, floats, strings and tuples of ints
ROWS_OF_EVERY_KIND = [
    (_Big(700, False), Fraction(-7, 3)), (True, None), (False, _Big(4400, False)),
    ([], ["a" * 58]), ({"k": {"j": [1, 2]}, "": {}}, [1] * 60), ((), ()), (2.5, "s\n"),
    ((1, 2), (-(10 ** 700),)), (None, (True, 1)), (-0.0, [(1, 2), [3]]),
]
# Tuples of ints down each slot, one length a slot: 30 items of 2 characters
# total 60, one item per line; 29 total 58, one line; then ints past 2000 bits
ROWS_OF_INT_TUPLES = [((-1,) * 30, (-1,) * 29), ((-2,) * 30, (7,) * 29), ((1,) * 30, (-9,) * 29)]
ROWS_OF_BIG_INT_TUPLES = [((10 ** 700, 1), (3, -4)), ((_Big(4301, False), 0), (5, 6))]


# Strings with quotes, backslashes, control characters and non-ASCII text, and ints
# and Fraction numerators past the 4300-digit conversion limit.
_TEXT = st.text(st.sampled_from('ab "\\/\n\t\x00\x1f\x7f\u00e9\u20ac\U0001f600') | st.characters(),
                max_size=8)
_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), _TEXT,
    st.fractions(), st.integers().map(Fraction),
    st.builds(_Big, st.integers(4301, 4400), st.booleans()))
_DOCUMENT = st.recursive(
    _SCALAR,
    lambda kids: (st.lists(kids, max_size=6) | st.lists(kids, max_size=6).map(tuple)
                  | st.dictionaries(_TEXT | st.integers() | st.booleans(), kids, max_size=4)),
    max_leaves=24)


@seed(0x435b2ec03b0bbd2d2a341ffad0c1f352b2bbb306cc913a1752ca59c41781c4d96e23830a15ff2e4d0860b80421b86de)
@settings(max_examples=200, derandomize=True, deadline=None)
@given(_DOCUMENT)
# a list is inlined when its items total under 60 characters and none spans lines
@example(["a" * 57])  # 59 characters: one line
@example(["a" * 58])  # 60: one item per line
@example([1] * 59)
@example([1] * 60)
@example(["x" * 27, "y" * 28])
@example(("x" * 27, "y" * 29))
@example([[], {}, (), [[]], [{}], {"": []}])
@example([[1, 2], [3, [4, 5]], [["a" * 50]]])
@example([{"a": 1}, {"b": [True, 1, None, False, 0]}])
@example([{1: 0}, {True: 0}, {"1": 0, 0: 1}, {False: 1}])  # keys equal as dict keys, not as text
@example({"k": [Fraction(5), _Big(4400, True), _Big(4500, False), [_Big(4301, False)]]})
@example({"rows": _Rows({"v": _SLOT, "w": {"x": _SLOT}}, ROWS_OF_EVERY_KIND)})
@example(_Rows({"v": _SLOT, "w": _SLOT}, ROWS_OF_INT_TUPLES))
def test_writer_matches_the_recursive_reference(doc):
    doc = _expand(doc)
    assert _text(doc) == reference_render(_records(doc))


def _records(doc):
    """doc with each _Rows, whose rows must be a list, as the list of dicts it stands for."""
    if isinstance(doc, _Rows):
        return [_fill(doc.layout, iter(row)) for row in doc.rows]
    if isinstance(doc, dict):
        return {k: _records(v) for k, v in doc.items()}
    return doc


@pytest.mark.parametrize("doc", [object(), {1, 2}, {"k": [1, [frozenset()]]},
                                 _Rows({"v": _SLOT}, [(1,), (object(),)])],
                         ids=["object", "set", "nested-frozenset", "row-leaf"])
def test_an_unsupported_value_raises_type_error(doc):
    with pytest.raises(TypeError, match="cannot write a value of type (object|set|frozenset)"):
        _render(doc, [].append)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda path: path.name)
def test_each_json_golden_is_the_recursive_reference_layout_of_its_document(path):
    # the layout, checked on real command output by a writer independent of _render
    text = path.read_text(encoding="utf-8")
    assert reference_render(json.loads(text)) + "\n" == text


def _text(obj):
    """The text _render writes for obj, gathered from its pieces, without its final newline."""
    pieces = []
    _render(obj, pieces.append)
    assert all(0 < len(piece) <= _SLICE for piece in pieces)
    text = "".join(pieces)
    assert text.endswith("\n")
    return text[:-1]


def test_long_documents_are_written_in_pieces_of_at_most_a_slice():
    # records are handed on once a slice of them is held; a record or a
    # document longer than a slice is cut
    layout = {"k": _SLOT, "v": _SLOT}
    rows = [(k, "x" * (k % 700)) for k in range(2000)] + [(-1, "y" * (3 * _SLICE))]
    doc = {"head": ["z" * (2 * _SLICE)], "rows": _Rows(layout, iter(rows)), "tail": 1}
    pieces = []
    _render(doc, pieces.append)
    assert "".join(pieces) == reference_render(
        {"head": ["z" * (2 * _SLICE)], "rows": [dict(zip(layout, row)) for row in rows],
         "tail": 1}) + "\n"
    assert len(pieces) > 20
    assert all(0 < len(piece) <= _SLICE for piece in pieces)


def _fill(layout, values):
    return {k: next(values) if v is _SLOT else _fill(v, values) for k, v in layout.items()}


def _leaves(layout):
    return sum(1 if v is _SLOT else _leaves(v) for v in layout.values())


@st.composite
def _tables(draw):
    """(layout, rows): a non-empty layout of up to two levels and rows of documents to fill it."""
    level = st.dictionaries(_TEXT, st.just(_SLOT), max_size=3)
    layout = draw(st.dictionaries(_TEXT, st.just(_SLOT) | level, min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(*[_DOCUMENT] * _leaves(layout)), max_size=4))
    return layout, rows


@seed(0xa28ac0ab2d44305d5439f33ae8ad543636dc8bdba526522bf05e0554f6dc71f4b93d75db4c8698c6eaac486e3a009845)
@settings(max_examples=60, derandomize=True, deadline=None)
@given(_tables(), _SCALAR)
@example(({"v": _SLOT}, []), None)  # an empty source
@example(({"v": _SLOT}, [(None,)]), None)  # a single row
@example(({"v": _SLOT}, [(["a" * 57],)]), 0)  # a slot list of 59 characters: one line
@example(({"v": _SLOT}, [(["a" * 58],), ([1] * 60,)]), 0)  # 60: one item per line
@example(({"v": _SLOT, "w": {"x": _SLOT}}, ROWS_OF_EVERY_KIND), None)
@example(({"v": _SLOT, "w": _SLOT}, ROWS_OF_INT_TUPLES), None)
@example(({"v": _SLOT, "w": _SLOT}, ROWS_OF_BIG_INT_TUPLES), {"k": {}})
@example(({"v": {}}, [(), ()]), 1)  # a layout with no slot
def test_rows_drawn_once_from_an_iterator_are_written_as_the_dicts_they_stand_for(table, head):
    # compare and convolve hand the writer generators, which can be drawn only once;
    # a list is drawn by the same loop
    layout, rows = table
    rows, head = _expand(rows), _expand(head)
    records = [_fill(layout, iter(row)) for row in rows]
    flat = reference_render(records)
    nested = reference_render({"head": head, "rows": records, "tail": []})
    for source in (list, iter):
        assert _text(_Rows(layout, source(rows))) == flat
        # nested a level down, as the weights of convolve are
        assert _text({"head": head, "rows": _Rows(layout, source(rows)),
                      "tail": _Rows(layout, source(()))}) == nested
