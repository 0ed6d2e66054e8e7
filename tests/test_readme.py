import io
import json
import re
import shlex
import sys
from fractions import Fraction
from pathlib import Path

from dancewalk.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(lang: str, after: str) -> str:
    """The first ``lang`` code block of the README that follows the text ``after``."""
    start = README.index(after)
    return re.search(rf"```{lang}\n(.*?)```", README[start:], re.S).group(1)


def test_readme_python_example_states_true_values():
    ns = {}
    exec(_block("python", "Example, the lazy mean-zero walk"), ns)
    g, d, a = ns["g"], ns["d"], ns["a"]
    assert d.theta(7, g.element([2], [1])) == 2
    assert a.moments.mean == (0,)
    assert a.moments.covariance == ((Fraction(1, 2),),)


def test_readme_walk_description_runs_through_analyze(capsys, monkeypatch):
    spec = _block("json", "Walks are described as JSON")
    monkeypatch.setattr(sys, "stdin", io.StringIO(spec))
    assert main(["analyze", "--spec", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["group"] == {"torsion": [12], "rank": 0, "canonical_torsion": [12]}
    assert doc["walk_subgroup"]["index"] == 3
    assert doc["classification"]["period"] == 3


def test_readme_command_block_runs_on_the_readme_walk(capsys, monkeypatch):
    spec = _block("json", "Walks are described as JSON")
    lines = _block("sh", "Walks are described as JSON").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    assert [c[:2] for c in commands] == [["dancewalk", name] for name in (
        "analyze", "convolve", "compare", "attractor", "tv", "twist", "sample", "examples")]
    for command in commands:
        argv = ["-" if a == "walk.json" else a for a in command[1:]]
        monkeypatch.setattr(sys, "stdin", io.StringIO(spec))
        assert main(argv) == 0, command
        out = capsys.readouterr().out
    assert "4/4 checks passed" in out
