"""scipy is loaded only where a spline path is built.

``import scalefield``, a run of the demo scenario (axioms, a segment path
length, a geodesic on analytic theta, a packet, a gauge check and a
comparison) and a run of a scenario with a tabulated phi need numpy alone.
The probe runs in a fresh interpreter, since this test process has long
since imported scipy through other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "scenarios" / "demo.json"

PROBE = r"""
import json, os, sys, tempfile

import numpy as np

from scalefield import Manifold, SplinePath, TabulatedField
from scalefield.cli import main
from scalefield.runner import run_scenario

demo = sys.argv[1]
nodes = np.linspace(-1.0, 1.0, 5)
w1, w2, w3 = np.meshgrid(nodes, nodes, nodes, indexing="ij")
tabulated = {
    "manifold": {"dimension": 3, "bounds": [[-1.0, 1.0]] * 3, "nodes": 5},
    "fields": {"theta": {"family": "linear", "coefficients": [0.2, 0.0, 0.1]},
               "phi": {"family": "tabulated",
                       "values": (np.sin(w1) * w2 + w3 ** 2).tolist()},
               "gradient_mode": "central"},
    "tasks": [
        {"type": "pathlen", "path": {"kind": "segment",
                                     "start": [-0.5, -0.5, 0.0],
                                     "end": [0.5, 0.25, 0.0]}, "steps": 40},
        {"type": "wavepacket", "center": [0.0, 0.0, 0.0], "width": 0.5,
         "x0": [0.25, 0.0, 0.0], "momentum": [1.0, 0.0, 0.0]},
        {"type": "geodesic", "position": [0.0, 0.0, 0.0],
         "velocity": [0.1, 0.2, 0.0], "tau_end": 0.5, "h_tau": 0.05},
    ],
}


def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))


with tempfile.TemporaryDirectory() as out:
    demo_codes = [run_scenario(demo, out=os.path.join(out, "demo")),
                  main(["validate", demo])]
    after_demo = scipy_modules()
    path = os.path.join(out, "tabulated.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tabulated, fh)
    tabulated_codes = [run_scenario(path, out=os.path.join(out, "tabulated")),
                       main(["validate", path])]

m = Manifold.box([[-1.0, 1.0], [0.0, 2.0], [-2.0, 0.0]], 5)
values = np.arange(125.0).reshape(5, 5, 5) ** 1.5
pts = np.array([[0.1, 0.3, -0.2], [-0.7, 1.9, -1.3], [0.55, 1.05, -2.0],
                [1.3, -0.4, 0.2]])
tab = TabulatedField(m, values).value(pts)
after_tabulated = scipy_modules()

samples = np.stack([np.linspace(0.0, 1.0, 7), np.linspace(0.0, 1.0, 7) ** 2],
                   axis=-1)
s = np.linspace(0.0, 1.0, 11)
v0, v1 = np.array([1.0, 0.0]), np.array([1.0, 2.0])
q = SplinePath(samples, start_velocity=v0, end_velocity=v1)
pos, vel = q.position(s), q.velocity(s)
after_spline = scipy_modules()

from scipy.interpolate import CubicSpline, RegularGridInterpolator

direct_tab = RegularGridInterpolator(
    tuple(m.axis_nodes(a) for a in range(3)), values, method="linear",
    bounds_error=False, fill_value=None)(pts)
spline = CubicSpline(np.linspace(0.0, 1.0, 7), samples,
                     bc_type=((1, v0), (1, v1)))

print(json.dumps({
    "demo_codes": demo_codes,
    "after_demo": after_demo,
    "tabulated_codes": tabulated_codes,
    "after_tabulated": after_tabulated,
    "interpolate_after_spline": "scipy.interpolate" in after_spline,
    "tabulated_equal": bool(np.array_equal(tab, direct_tab)),
    "spline_equal": bool(np.array_equal(pos, spline(s))
                         and np.array_equal(vel, spline(s, 1))),
}))
"""


@pytest.fixture(scope="module")
def probe():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", PROBE, str(DEMO)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_demo_run_and_validate_load_no_scipy(probe):
    assert probe["demo_codes"] == [0, 0]
    assert probe["after_demo"] == []


def test_tabulated_field_loads_no_scipy_and_matches_it(probe):
    # a scenario with a tabulated phi runs and validates, and a tabulated
    # field evaluates, before the scipy reference is imported
    assert probe["tabulated_codes"] == [0, 0]
    assert probe["after_tabulated"] == []
    assert probe["tabulated_equal"]


def test_spline_path_loads_scipy_and_matches_it(probe):
    assert probe["interpolate_after_spline"]
    assert probe["spline_equal"]
