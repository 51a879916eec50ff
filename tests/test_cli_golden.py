"""Replay recorded ``--json`` CLI outputs byte for byte.

``tests/data/cli_golden.json`` maps a case name to its argv, exit code and
stdout.  An argv entry starting with ``data/`` names a file in
``tests/data``.  The recording covers every subcommand except the full
``verify`` run; regenerate it (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from poissonenv.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"

CASES = {
    "lyndon": ["lyndon", "-n", "3", "-d", "3"],
    "bracket": ["bracket", "-n", "3", "x1*x2*(12)", "x2*x3 + 1/2*(13)"],
    "expand": ["expand", "-n", "3", "(123) - 2*[x1, (23)]"],
    "expand-not-lie": ["expand", "-n", "2", "x1*x2"],
    "e": ["e", "-n", "3", "x1*x2*(13) + 1/3*(12)*(12)"],
    "einv": ["einv", "-n", "3", "x1*x2*x1*x3 - 2*x3*x2"],
    "bp": ["bp", "-n", "3", "-p", "2", "x1*x1*x2", "x2*x3*(13)"],
    "star": ["star", "-n", "3", "-d", "3", "x1*x2*x3", "x3*(12) + x1*x1"],
    "envelope": ["envelope", "data/pres_quadric.txt", "-d", "2", "-N", "3"],
    "envelope-inhomogeneous": [
        "envelope", "data/pres_inhomogeneous.txt", "-d", "2", "-N", "3"
    ],
    "envelope-inhomogeneous-cubic": [
        "envelope", "data/pres_inhomogeneous_cubic.txt", "-d", "2", "-N", "4", "--json"
    ],
    "gap-witness": ["gap-witness"],
    "filtration": ["filtration", "data/poisson_window_2_1_3.json"],
    "filtration-noncommutative": ["filtration", "data/quantized_window_2_1_4.json"],
    "graded": ["graded", "-n", "2", "-d", "2", "-N", "1"],
    "ncembed": ["ncembed", "-n", "3", "-d", "2", "1231"],
    # coefficients over different denominators, summed over one lcm
    "star-mixed-denominators": [
        "star", "-n", "3", "-d", "9", "1/2*x1*x2 - 1/3*(12)", "2/5*x2*x3*x1 + x3"
    ],
    "bp-mixed-denominators": [
        "bp", "-n", "3", "-p", "2", "1/2*x1*x2 - 1/3*(12)", "2/5*x2*x3*x1 + x3"
    ],
    "ncembed-mixed-denominators": ["ncembed", "-n", "3", "-d", "3", "31213"],
    "verify-01": ["verify", "--suite", "01"],
}


def _argv(args):
    return [str(DATA / a[5:]) if a.startswith("data/") else a for a in args]


def _run(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(_argv(args) + ["--json"])
    return code, out.getvalue()


def _recorded():
    with open(GOLDEN) as fp:
        return json.load(fp)


def test_golden_covers_every_case():
    assert sorted(_recorded()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    want = _recorded()[name]
    assert want["argv"] == CASES[name]
    code, out = _run(CASES[name])
    assert code == want["exit"]
    assert out == want["stdout"]


if __name__ == "__main__":
    recorded = {}
    for name, args in CASES.items():
        code, out = _run(args)
        recorded[name] = {"argv": args, "exit": code, "stdout": out}
    with open(GOLDEN, "w") as fp:
        json.dump(recorded, fp, indent=1, sort_keys=True)
        fp.write("\n")
