"""Smoke runs of the experiment scripts the README points to."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import GOLDEN

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("script, args, header, last_line", [
    ("convergence_study.py", (), ["method", "step", "error", "order"],
     "wrote {csv}"),
    ("bump_geodesic.py", ("--rivals", "5"), ["tau", "q0", "q1", "q2", "q3"],
     "minimizer"),
])
def test_readme_script_runs(tmp_path, script, args, header, last_line):
    out = tmp_path / "table.csv"
    run = run_script(script, *args, "--csv", str(out))
    assert run.returncode == 0, run.stderr
    with open(out, newline="", encoding="utf-8") as fh:
        assert next(csv.reader(fh)) == header
    assert run.stdout.splitlines()[-1] == last_line.format(csv=out)


def test_bump_geodesic_headline(tmp_path):
    # the trajectory's end and the geodesic's scaled length, as printed
    out = tmp_path / "bump.csv"
    run = run_script("bump_geodesic.py", "--rivals", "5", "--csv", str(out))
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == (f"wrote 3001 states to {out}; "
                        "end [0.     1.3161 0.8396 0.    ]")
    assert lines[1] == "scaled length 3.762865696619"


def test_output_digests_of_the_demo_are_the_golden_ones():
    run = run_script("output_digests.py", "--seed", "3")
    assert run.returncode == 0, run.stderr
    digests = dict(line.split(" ") for line in run.stdout.splitlines())
    assert {name.split("/", 1)[0] for name in digests} == {
        "demo", "algebra", "trajectories", "grids"}
    assert {name[len("demo/"):]: digest for name, digest in digests.items()
            if name.startswith("demo/")} == GOLDEN
