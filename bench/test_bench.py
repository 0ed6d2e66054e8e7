"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

The quick-mode tests run every workload end to end on tiny sizes with
every check.  The perturbation tests take a correct CLI output, change
one value and require the checker to reject it.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import checks
import run
import workloads
from oracles import power_laws

SPEC_RNG_SEED = 7


def cli(*args: str, walk=None) -> bytes:
    stdin = None if walk is None else workloads.spec_text(walk, random.Random(SPEC_RNG_SEED))
    proc, _ = run.run_child(run.cli_argv(list(args)), None if stdin is None else stdin.encode())
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def rejects(check, out: bytes):
    with pytest.raises(checks.CheckError):
        check(out)


def dump(doc) -> bytes:
    return json.dumps(doc).encode()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_quick_workload(name, trace):
    proc = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--workload", name,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick"],
                          capture_output=True, cwd=run.ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr.decode()
    doc = json.loads(proc.stdout.decode().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    ops = len(workloads.WORKLOADS[name](3, True).ops)
    assert doc["attempted"] % ops == 0
    # Only the fixed Z_2 x Z_3 x Z_6 walk fails, once per pass over small-walks.
    assert doc["failed"] == (doc["attempted"] // ops if name == "small-walks" else 0)
    if doc["failed"]:
        assert "canonical_torsion" in proc.stderr.decode()
    want = dict(run.PER_LAYER) if trace else {"setup_s": "s", "total_s": "s", "peak_rss_mb": "MB"}
    assert {k: m["unit"] for k, m in doc["metrics"].items()} == want
    if not trace:
        assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "torsion-z60",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""


def test_convolve_rejects_one_weight_off():
    n = 4
    law = power_laws(workloads.LAZY_Z2, [n])[n]
    out = cli("convolve", "--n", str(n), walk=workloads.LAZY_Z2)
    checks.check_convolve(n, law, out)
    doc = json.loads(out)
    w = Fraction(doc["weights"][3]["weight"]) + Fraction(1, 5 ** n)
    doc["weights"][3]["weight"] = f"{w.numerator}/{w.denominator}"
    rejects(lambda o: checks.check_convolve(n, law, o), dump(doc))


def test_compare_lazy_rejects_weight_and_theta():
    ns = (2, 3)
    laws = power_laws(workloads.LAZY_Z2, ns)
    out = cli("compare", "--n", "2,3", walk=workloads.LAZY_Z2)
    checks.check_compare_lazy(ns, laws, out)
    check = lambda o: checks.check_compare_lazy(ns, laws, o)  # noqa: E731
    doc = json.loads(out)
    i = next(i for i, r in enumerate(doc) if r["p"] != "0")
    w = Fraction(doc[i]["p"]) - Fraction(1, 5 ** doc[i]["n"])
    bad = json.loads(out)
    bad[i]["p"] = f"{w.numerator}/{w.denominator}"
    rejects(check, dump(bad))
    bad = json.loads(out)
    bad[i]["theta"] = 0
    rejects(check, dump(bad))
    bad = json.loads(out)
    bad[i]["attractor"] *= 1 + 1e-6
    rejects(check, dump(bad))
    rejects(check, dump(doc[:-1]))


def test_attractor_lazy_rejects_sup_error():
    n = 4
    law = power_laws(workloads.LAZY_Z2, [n])[n]
    out = cli("attractor", "--n", str(n), walk=workloads.LAZY_Z2)
    checks.check_attractor_lazy(n, law, out)
    doc = json.loads(out)
    doc["report"]["sup_error"] *= 1 + 1e-6
    rejects(lambda o: checks.check_attractor_lazy(n, law, o), dump(doc))


@pytest.fixture(scope="module")
def torus():
    walk = workloads.torsion_walk(6)
    return walk, checks.FiniteFacts(walk)


def test_analyze_rejects_rho_generators_and_period(torus):
    walk, facts = torus
    out = cli("analyze", walk=walk)
    checks.check_analyze(facts, out)
    check = lambda o: checks.check_analyze(facts, o)  # noqa: E731
    bad = json.loads(out)
    bad["spectral_gap"]["rho"] += 1e-6
    rejects(check, dump(bad))
    bad = json.loads(out)
    bad["walk_subgroup"]["hnf_generators"] = [[2, 0], [0, 1]]
    rejects(check, dump(bad))
    bad = json.loads(out)
    bad["classification"]["period"] = 2
    rejects(check, dump(bad))


def test_tv_rejects_value_and_bound(torus):
    walk, facts = torus
    n = 5
    out = cli("tv", "--n", str(n), walk=walk)
    checks.check_tv(facts, n, out)
    check = lambda o: checks.check_tv(facts, n, o)  # noqa: E731
    bad = json.loads(out)
    tv = Fraction(bad["tv_exact"]) + Fraction(1, 3 ** n)
    bad["tv_exact"] = f"{tv.numerator}/{tv.denominator}"
    rejects(check, dump(bad))
    bad = json.loads(out)
    bad["tv_bound"] = float(Fraction(bad["tv_exact"])) / 2
    rejects(check, dump(bad))


def test_compare_csv_rejects_theta_flip(torus):
    walk, facts = torus
    n = 5
    out = cli("compare", "--n", str(n), "--format", "csv", walk=walk)
    checks.check_compare_d0_csv(facts, n, out)
    lines = out.decode().splitlines()
    cells = lines[7].split(",")
    cells[-3] = "0" if cells[-3] == "1" else "1"
    lines[7] = ",".join(cells)
    rejects(lambda o: checks.check_compare_d0_csv(facts, n, o), ("\n".join(lines) + "\n").encode())


def test_attractor_d0_rejects_sup_error():
    walk = workloads.sweep_walk(random.Random(5), 2)
    facts = checks.FiniteFacts(walk)
    n = 4
    out = cli("attractor", "--n", str(n), walk=walk)
    checks.check_attractor_d0(facts, n, out)
    doc = json.loads(out)
    sup = Fraction(doc["report"]["sup_error_exact"]) + Fraction(1, 10 ** 9)
    doc["report"]["sup_error_exact"] = f"{sup.numerator}/{sup.denominator}"
    rejects(lambda o: checks.check_attractor_d0(facts, n, o), dump(doc))


def test_examples_rejects_failed_check():
    out = cli("examples", "z9-a1b3")
    checks.check_examples(2, out)
    rejects(lambda o: checks.check_examples(2, o), out.replace(b"PASS", b"FAIL", 1))
    rejects(lambda o: checks.check_examples(3, o), out)
