"""Smoke runs of the experiment scripts the README points to."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scalefield.runner import EXIT_OK, run_scenario
from test_golden import GOLDEN

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
from output_digests import DEMO, load_workloads  # noqa: E402


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


# sha256 of the grids workload's outputs for seed 11, recorded on x86-64
# Linux (Python 3.11, numpy 2.4) as test_golden records the demo's.  The
# demo's gauge check runs in analytic mode on closed-form specs; this is the
# one pinned run of the central-mode residual over a tabulated phi.
GRIDS_SEED_11 = {
    "00_gauge-check.csv":
        "40bff97a919cb704a8fe3157c75341ed30ccb843f2a2e25b3ec16018e9cce18e",
    "01_pathlen.csv":
        "9ff610ccc747b0c88fc4999987e6301a14ff0c426df3f37bc72b1be6fba57ed6",
    "02_wavepacket.csv":
        "7a147fb2daa98bbec289504e4003e4cd2ddf62561c61d85fc8ef3b1acf03cdc2",
    "summary.json":
        "d8f86f492b465ad0782ed47f3b5935b6772c2ce11ac40e506288473e9a2ec558",
}


def test_grids_outputs_of_seed_11_are_pinned(tmp_path):
    scenario = tmp_path / "grids.json"
    load_workloads().write("grids", 11, str(scenario))
    out = tmp_path / "out"
    assert run_scenario(str(scenario), out=str(out)) == EXIT_OK
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir()}
    assert digests == GRIDS_SEED_11


# sha256 of the trajectories workload's outputs for seed 11, recorded the
# same way: two 2000-step RK4 geodesics on the 4d Minkowski box, which
# share tau_end, h_tau and drag contraction.
TRAJECTORIES_SEED_11 = {
    "00_geodesic.csv":
        "a11463beb81206a2de8773e06db618cea538a2099465e6452c6d1ea431701a94",
    "01_geodesic.csv":
        "8f9a4090e91ae41356bc4c3052bbfe035ef30f11a24668bede3af49c1c355353",
    "summary.json":
        "2d400ee98eaf1b647013fc46b23700af7975737397b38d7adf134040c2a3d20c",
}


def test_trajectories_outputs_of_seed_11_are_pinned(tmp_path):
    scenario = tmp_path / "trajectories.json"
    load_workloads().write("trajectories", 11, str(scenario))
    out = tmp_path / "out"
    assert run_scenario(str(scenario), out=str(out)) == EXIT_OK
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir()}
    assert digests == TRAJECTORIES_SEED_11


def test_task_peaks_prints_one_positive_peak_per_task(tmp_path):
    run = run_script("task_peaks.py", "--seed", "3")
    assert run.returncode == 0, run.stderr
    workloads = load_workloads()
    scenarios = {"demo": DEMO}
    for name in workloads.WORKLOADS:
        scenarios[name] = tmp_path / f"{name}.json"
        workloads.write(name, 3, str(scenarios[name]))
    want = [f"{name}/{i:02d}_{task['type']}"
            for name, path in scenarios.items()
            for i, task in enumerate(
                json.loads(Path(path).read_text(encoding="utf-8"))["tasks"])]
    lines = [line.split(" ") for line in run.stdout.splitlines()]
    assert [label for label, _ in lines] == want
    assert all(float(peak) > 0 for _, peak in lines)
