"""Run a list of dancewalk CLI calls in this one interpreter.

Reads a JSON list of jobs ``{"argv": [...], "stdin": text or null}`` from
stdin, runs each through ``dancewalk.cli.main`` with stdin and stdout
swapped for in-memory buffers, and prints one JSON object holding every
job's return code, stdout and stderr.  At exit it writes its own peak
resident set (the VmHWM line of /proc/self/status) to stderr.  With
``--trace PATH`` every traced function is wrapped first (see spans.py);
the spans are written to PATH after the last job and the per-layer
figures are added to the output.

    PYTHONPATH=src python3 bench/inproc.py [--trace PATH] < jobs.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import traceback


def peak_line() -> str:
    """This process's peak resident set, the "VmHWM: <n> kB" line of its status."""
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(ln for ln in fh if ln.startswith("VmHWM"))


def run_job(main, argv, stdin_text) -> dict:
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 1
            except Exception:  # the job failed; report it like an uncaught error would
                traceback.print_exc()
                rc = 1
    finally:
        sys.stdin = saved_stdin
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", metavar="PATH", help="record spans and write them here")
    args = parser.parse_args()
    jobs = json.load(sys.stdin)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    from dancewalk.cli import main as cli_main

    results = [run_job(cli_main, job["argv"], job["stdin"]) for job in jobs]
    doc = {"results": results}
    if tracer is not None:
        tracer.dump(args.trace)
        stdout_bytes = sum(len(r["out"].encode()) for r in results)
        doc["layers"] = spans.layer_metrics(tracer.spans, stdout_bytes)
    json.dump(doc, sys.stdout)
    sys.stdout.write("\n")
    sys.stderr.write(peak_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
