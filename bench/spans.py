"""Span tracing of dancewalk from outside the package.

``install`` replaces every binding of the traced functions (the module
attribute, each name re-imported into another dancewalk module, the
``Subgroup`` methods on the class and the golden-scenario runners in the
shared ``SCENARIOS`` table) with a wrapper that records a span.  Spans
are kept in memory; ``Tracer.dump`` writes them out once the run ends
and ``layer_metrics`` folds them into per-layer figures.

Each thread keeps its own span stack.  A span opened on a worker thread
with an empty stack (``compare`` fans out over a thread pool) takes the
innermost open span of the main thread as its parent, and a parent's
self time is its duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

# A span is a list: [name, parent span or None, start ns, end ns, counters].
# Spans named "" cover the tracer's own counting work; they are subtracted
# from their parent's self time and not reported.


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None, reentrant: bool = True):
        """fn wrapped in a span; count(args, result) gives its counters."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if not reentrant and stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            tail = stack[-1:] or tracer._main_stack[-1:]
            parent = tail[0] if tail else None
            span = [name, parent, perf_counter_ns(), 0, None]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter_ns()
                stack.pop()
                tracer.spans.append(span)
            if count is not None:
                t0 = perf_counter_ns()
                span[4] = count(args, result)
                if parent is not None:
                    tracer.spans.append(["", parent, t0, perf_counter_ns(), None])
            return result

        return wrapper

    def dump(self, path: str):
        """Write the spans as JSON lines: id, parent id, name, times, counters."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, t0, t1, counters) in enumerate(self.spans):
                if name:
                    fh.write(json.dumps({
                        "id": i, "parent": None if parent is None else ids.get(id(parent)),
                        "name": name, "start_ns": t0, "end_ns": t1,
                        "counters": counters}) + "\n")


def _union_ns(intervals, lo: int, hi: int) -> int:
    covered, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            covered += b - a
            end = b
    return covered


def self_times(spans) -> dict[int, int]:
    """Self time in ns of every span, keyed by id(span)."""
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[id(s[1])].append((s[2], s[3]))
    return {id(s): (s[3] - s[2]) - _union_ns(children.get(id(s), ()), s[2], s[3])
            for s in spans if s[0]}


# --- counters -------------------------------------------------------------

def _dist_key(p) -> tuple:
    return (repr(p.group), tuple((x.coords(), w) for x, w in p.items()))


def _count_convolve(args, result):
    p, q = args[0], args[1]
    weights = [w for _, w in result.items()]
    den = math.lcm(*(w.denominator for w in weights))
    bits = den.bit_length() + sum((w.numerator * (den // w.denominator)).bit_length()
                                  for w in weights)
    return {"pair_products": len(p) * len(q), "out_bits": bits}


def _count_power(args, result):
    return {"key": repr((_dist_key(args[0]), args[1]))}


def _count_analyze(args, result):
    return {"key": repr(_dist_key(args[0]))}


def _count_gap(args, result):
    return {"characters": math.prod(args[0].group.torsion_moduli)}


def _count_len(args, result):
    return {"points": len(result)}


def _count_hnf(args, result):
    entries = [e for row in args[0].data for e in row] + [e for row in result.h.data for e in row]
    return {"max_entry_bits": max((abs(e).bit_length() for e in entries), default=0)}


# (layer name, module, attribute, counter, reentrant)
FUNCTIONS = (
    ("intlinalg.hnf", "dancewalk.intlinalg", "hnf", _count_hnf, True),
    ("intlinalg.snf", "dancewalk.intlinalg", "snf", None, True),
    ("measure.convolve", "dancewalk.measure", "convolve", _count_convolve, True),
    ("measure.convolution_power", "dancewalk.measure", "convolution_power", _count_power, True),
    ("dance.analyze_dance", "dancewalk.dance", "analyze_dance", _count_analyze, True),
    ("dance.spectral_gap", "dancewalk.dance", "spectral_gap", _count_gap, True),
    ("llt.evaluation_window", "dancewalk.llt", "evaluation_window", _count_len, True),
    ("llt.llt_sup_error", "dancewalk.llt", "llt_sup_error", None, True),
    ("llt.attractor_eval", "dancewalk.llt", "attractor_eval", None, True),
    ("llt.gaussian_kernel", "dancewalk.llt", "gaussian_kernel", None, True),
    ("llt.tv_to_uniform_coset", "dancewalk.llt", "tv_to_uniform_coset", None, True),
    ("llt.classify", "dancewalk.llt", "classify", None, True),
    ("llt.build_attractor", "dancewalk.llt", "build_attractor", None, True),
    ("cli.render", "dancewalk.cli", "_render", None, False),
    ("cli.load_spec", "dancewalk.cli", "load_spec", None, True),
)
METHODS = (
    ("group.Subgroup.contains", "contains", None),
    ("group.Subgroup.elements", "elements", _count_len),
    ("group.Subgroup.annihilator", "annihilator", None),
)


def _rebind(original, wrapper):
    for modname, mod in list(sys.modules.items()):
        if modname == "dancewalk" or modname.startswith("dancewalk."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def install(tracer: Tracer):
    """Wrap every binding of the traced dancewalk functions."""
    import importlib

    import dancewalk.cli
    import dancewalk.scenarios
    from dancewalk.group import Subgroup

    for name, modname, attr, count, reentrant in FUNCTIONS:
        original = getattr(importlib.import_module(modname), attr, None)
        if original is not None:
            _rebind(original, tracer.wrap(name, original, count, reentrant))
    for name, attr, count in METHODS:
        original = getattr(Subgroup, attr, None)
        if original is not None:
            setattr(Subgroup, attr, tracer.wrap(name, original, count))
    for attr, original in list(vars(dancewalk.cli).items()):
        if attr.startswith("cmd_") and callable(original):
            _rebind(original, tracer.wrap("cli.command", original))
    table = dancewalk.scenarios.SCENARIOS
    for key, original in table.items():
        table[key] = tracer.wrap("scenarios.run", original)


# Names of the per-layer figures, in report order, with their units.
LAYER_METRICS = (
    ("measure.convolve.self_s", "s"), ("measure.convolve.calls", "count"),
    ("measure.convolve.pair_products", "count"), ("measure.convolve.out_bits", "bit"),
    ("measure.convolve.bits_per_s", "bit/s"),
    ("measure.convolution_power.calls", "count"),
    ("measure.convolution_power.distinct_share", "ratio"),
    ("dance.spectral_gap.self_s", "s"), ("dance.spectral_gap.characters", "count"),
    ("dance.spectral_gap.chars_per_s", "1/s"),
    ("dance.analyze_dance.calls", "count"), ("dance.analyze_dance.distinct_share", "ratio"),
    ("dance.analyze_dance.self_s", "s"),
    ("group.Subgroup.contains.calls", "count"), ("group.Subgroup.contains.self_s", "s"),
    ("group.Subgroup.elements.self_s", "s"), ("group.Subgroup.elements.points", "count"),
    ("group.Subgroup.annihilator.self_s", "s"),
    ("intlinalg.hnf.calls", "count"), ("intlinalg.hnf.self_s", "s"),
    ("intlinalg.hnf.max_entry_bits", "bit"),
    ("intlinalg.snf.calls", "count"), ("intlinalg.snf.self_s", "s"),
    ("llt.evaluation_window.self_s", "s"), ("llt.evaluation_window.points", "count"),
    ("llt.llt_sup_error.self_s", "s"),
    ("llt.attractor_eval.calls", "count"), ("llt.attractor_eval.self_s", "s"),
    ("llt.gaussian_kernel.calls", "count"), ("llt.gaussian_kernel.self_s", "s"),
    ("llt.tv_to_uniform_coset.self_s", "s"), ("llt.classify.self_s", "s"),
    ("llt.build_attractor.self_s", "s"),
    ("cli.render.self_s", "s"), ("cli.render.bytes", "byte"),
    ("cli.command.self_s", "s"), ("cli.load_spec.self_s", "s"),
    ("scenarios.run.self_s", "s"),
)


def layer_metrics(spans, stdout_bytes: int) -> dict[str, float]:
    """Fold spans into the LAYER_METRICS figures (0 where a layer never ran)."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    sums = defaultdict(int)
    maxes = defaultdict(int)
    keys = defaultdict(set)
    for s in spans:
        name, counters = s[0], s[4]
        if not name:
            continue
        calls[name] += 1
        self_ns[name] += selfs[id(s)]
        for k, v in (counters or {}).items():
            if k == "key":
                keys[name].add(v)
            elif k == "max_entry_bits":
                maxes[name] = max(maxes[name], v)
            else:
                sums[f"{name}.{k}"] += v
    out = {}
    for metric, _ in LAYER_METRICS:
        layer, _, field = metric.rpartition(".")
        if field == "self_s":
            out[metric] = self_ns[layer] / 1e9
        elif field == "calls":
            out[metric] = calls[layer]
        elif field == "distinct_share":
            out[metric] = len(keys[layer]) / calls[layer] if calls[layer] else 0.0
        elif field == "max_entry_bits":
            out[metric] = maxes[layer]
        elif metric == "measure.convolve.bits_per_s":
            s = self_ns["measure.convolve"] / 1e9
            out[metric] = sums["measure.convolve.out_bits"] / s if s else 0.0
        elif metric == "dance.spectral_gap.chars_per_s":
            s = self_ns["dance.spectral_gap"] / 1e9
            out[metric] = sums["dance.spectral_gap.characters"] / s if s else 0.0
        elif metric == "cli.render.bytes":
            out[metric] = stdout_bytes
        else:
            out[metric] = sums[metric]
    return out
