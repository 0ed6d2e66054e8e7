"""dancewalk benchmark: CLI-level end-to-end times and per-layer spans.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
With --trace 0 the workload's operations run as child processes that run
``dancewalk.cli`` as ``__main__``, as ``python -m`` does, in whole rounds,
round(S / 12) of them (at least one), and the end-to-end metrics are
reported.  With --trace 1 one
untraced round runs, then the same calls run once more in a single
traced interpreter (bench/inproc.py); its stdout must be byte-identical
to the untraced round's, and the per-layer metrics are reported.

Every output is checked against the reference computations in
oracles.py; an operation whose output fails its check counts as failed
and the run goes on.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  --quick shrinks every
workload to tiny sizes and still runs every check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 150
SETUP_SAMPLES = 11
# Seconds of --seconds budgeted per round.  A round takes 8-19 s on the
# 2-core VM the benchmark was built on, so 36 s gives 3 rounds of each
# workload and keeps every run of all three inside 60 s.
ROUND_BUDGET_S = 12
# Command kind -> per-command metric; the sweep runs in one child process.
KIND_METRICS = {"convolve": "convolve_s", "compare": "compare_s", "attractor": "attractor_s",
                "analyze": "analyze_s", "tv": "tv_s", "examples": "examples_s"}
# Reported by a traced run: the untraced round's per-command times, the
# per-layer span figures and the tracing overhead.
PER_LAYER = ([(m, "s") for m in KIND_METRICS.values()] + [("sweep_walks_per_s", "1/s")]
             + list(spans.LAYER_METRICS) + [("trace.overhead_s", "s")])


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DANCEWALK_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], stdin: bytes | None) -> tuple[subprocess.CompletedProcess, float]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, input=stdin or b"", capture_output=True,
                          env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    return proc, time.perf_counter() - t0


# ``python -m dancewalk.cli``, reporting the process's own peak resident set
# on stderr at exit.  VmHWM belongs to the memory map, which starts afresh
# at exec; ru_maxrss would also count the parent's size from before exec.
RUN_CLI = ("import atexit, runpy, sys\n"
           "atexit.register(lambda: sys.stderr.write(next(\n"
           "    ln for ln in open('/proc/self/status') if ln.startswith('VmHWM'))))\n"
           "runpy.run_module('dancewalk.cli', run_name='__main__', alter_sys=True)\n")


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-c", RUN_CLI, *args]


def peak_kb(stderr: bytes) -> int:
    """The VmHWM a child reported at exit, in kB (0 if it reported none)."""
    found = re.findall(rb"^VmHWM:\s*(\d+) kB", stderr, re.M)
    return int(found[-1]) if found else 0


def run_inproc(jobs, trace_path: Path | None = None) -> tuple[dict, float, int]:
    """Run CLI jobs in one bench/inproc.py child: its output, wall time and peak kB."""
    argv = [sys.executable, str(BENCH / "inproc.py")]
    if trace_path is not None:
        argv += ["--trace", str(trace_path)]
    payload = json.dumps([{"argv": a, "stdin": s} for a, s in jobs]).encode()
    proc, wall = run_child(argv, payload)
    if proc.returncode != 0:
        raise RuntimeError(f"in-process runner failed: {proc.stderr.decode()[-2000:]}")
    return json.loads(proc.stdout), wall, peak_kb(proc.stderr)


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing dancewalk.cli."""
    argv = [sys.executable, "-c", "import dancewalk.cli"]
    run_child(argv, None)  # warm the bytecode cache
    times = []
    for _ in range(SETUP_SAMPLES):
        proc, wall = run_child(argv, None)
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import dancewalk.cli: {proc.stderr.decode()[-2000:]}")
        times.append(wall)
    return statistics.median(times)


class Round:
    """One pass over a workload's operations, untraced.

    times holds the child wall time per command kind (summed over its
    calls), total_s their sum and peak_kb the largest child peak RSS.
    """

    def __init__(self, wl: Workload):
        self.times = defaultdict(float)
        self.outputs: list[list[tuple[int, bytes]]] = []
        self.peak_kb = 0
        for op in wl.cli_ops:
            (args, stdin), = op.calls
            proc, wall = run_child(cli_argv(args), None if stdin is None else stdin.encode())
            self.times[KIND_METRICS[op.kind]] += wall
            self.peak_kb = max(self.peak_kb, peak_kb(proc.stderr))
            self.outputs.append([(proc.returncode, proc.stdout)])
        if wl.sweep_ops:
            doc, wall, kb = run_inproc([c for op in wl.sweep_ops for c in op.calls])
            self.peak_kb = max(self.peak_kb, kb)
            results = iter(doc["results"])
            for op in wl.sweep_ops:
                self.outputs.append([(r["rc"], r["out"].encode())
                                     for r in (next(results) for _ in op.calls)])
            self.times["sweep_s"] = wall
            self.walks_per_s = len(wl.sweep_ops) / wall
        self.total_s = sum(self.times.values())


class Checker:
    """Checks each operation's outputs, once per distinct output."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self._verdicts = {}
        self.failures: list[str] = []

    def failed(self, i: int, outputs: list[tuple[int, bytes]]) -> bool:
        op = self.wl.ops[i]
        digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
        if digest not in self._verdicts:
            msg = None
            bad_rc = [rc for rc, _ in outputs if rc != 0]
            if bad_rc:
                msg = f"exit code {bad_rc[0]}"
            else:
                try:
                    op.check([out for _, out in outputs])
                except checks.CheckError as e:
                    msg = str(e)
                except (KeyError, IndexError, TypeError, ValueError, AttributeError) as e:
                    msg = f"malformed output: {type(e).__name__}: {e}"
            self._verdicts[digest] = msg
        msg = self._verdicts[digest]
        if msg is not None:
            self.failures.append(f"{op.kind} op {i}: {msg}")
        return msg is not None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(wl: Workload, seconds: float) -> tuple[dict, int, int, Checker]:
    checker = Checker(wl)
    setup_s = measure_setup()
    # A fixed number of rounds for a given --seconds, whatever the machine's
    # speed, so every run of a workload does the same work.
    rounds = [Round(wl) for _ in range(max(1, round(seconds / ROUND_BUDGET_S)))]
    attempted = len(rounds) * len(wl.ops)
    failed = sum(checker.failed(i, outs) for r in rounds for i, outs in enumerate(r.outputs))
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "total_s": metric(statistics.median(r.total_s for r in rounds), "s"),
        "peak_rss_mb": metric(max(r.peak_kb for r in rounds) / 1024, "MB"),
    }
    print(f"# {wl.name} round total_s " + " ".join(f"{r.total_s:.4f}" for r in rounds))
    for name in sorted(rounds[0].times):
        vals = [r.times[name] for r in rounds]
        print(f"# {wl.name} {name} median {statistics.median(vals):.4f} s over {len(vals)} rounds")
    if wl.sweep_ops:
        print(f"# {wl.name} sweep_walks_per_s median "
              f"{statistics.median(r.walks_per_s for r in rounds):.3f} 1/s")
    return metrics, attempted, failed, checker


def run_traced(wl: Workload) -> tuple[dict, int, int, Checker]:
    checker = Checker(wl)
    r = Round(wl)
    failed = sum(checker.failed(i, outs) for i, outs in enumerate(r.outputs))
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"spans-{wl.name}.jsonl"
    doc, traced_s, _ = run_inproc([c for op in wl.ops for c in op.calls], trace_path)
    results = iter(doc["results"])
    for i, (op, untraced) in enumerate(zip(wl.ops, r.outputs)):
        traced = [(res["rc"], res["out"].encode()) for res in (next(results) for _ in op.calls)]
        if traced != untraced:
            failed += 1
            checker.failures.append(f"{op.kind} op {i}: traced stdout differs")
        else:
            failed += checker.failed(i, traced)
    values = {name: r.times.get(name, 0.0) for name in KIND_METRICS.values()}
    values["sweep_walks_per_s"] = getattr(r, "walks_per_s", 0.0)
    values.update(doc["layers"])
    values["trace.overhead_s"] = traced_s - r.total_s
    metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER}
    return metrics, 2 * len(wl.ops), failed, checker


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dancewalk benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, every check")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dancewalk" / "cli.py").is_file():
        sys.stderr.write(f"error: no dancewalk sources under {ROOT / 'src'}\n")
        return 2
    wl = WORKLOADS[args.workload](args.seed, args.quick)
    if args.trace:
        metrics, attempted, failed, checker = run_traced(wl)
    else:
        metrics, attempted, failed, checker = run_untraced(wl, args.seconds)
    for msg in checker.failures[:20]:
        sys.stderr.write(f"FAILED {msg}\n")
    for name, m in metrics.items():
        print(f"# {wl.name} {name} {m['value']:.6g} {m['unit']}")
    # Operations whose output failed a check are counted in failed; every
    # other operation passed all of its checks.
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
