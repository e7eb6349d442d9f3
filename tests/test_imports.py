"""scipy is loaded only where a tabulated field or a spline path is built.

``import scalefield`` and a run of the demo scenario (axioms, a segment
path length, a geodesic on analytic theta, a packet, a gauge check and a
comparison) need numpy alone.  The probe runs in a fresh interpreter, since
this test process has long since imported scipy through other tests.
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
import json, sys, tempfile

import numpy as np

from scalefield import Manifold, SplinePath, TabulatedField
from scalefield.cli import main
from scalefield.runner import run_scenario

demo = sys.argv[1]


def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))


with tempfile.TemporaryDirectory() as out:
    run_code = run_scenario(demo, out=out)
validate_code = main(["validate", demo])
after_run = scipy_modules()

m = Manifold.box([[-1.0, 1.0], [0.0, 2.0], [-2.0, 0.0]], 5)
values = np.arange(125.0).reshape(5, 5, 5) ** 1.5
pts = np.array([[0.1, 0.3, -0.2], [-0.7, 1.9, -1.3], [0.55, 1.05, -2.0]])
tab = TabulatedField(m, values).value(pts)

samples = np.stack([np.linspace(0.0, 1.0, 7), np.linspace(0.0, 1.0, 7) ** 2],
                   axis=-1)
s = np.linspace(0.0, 1.0, 11)
v0, v1 = np.array([1.0, 0.0]), np.array([1.0, 2.0])
q = SplinePath(samples, start_velocity=v0, end_velocity=v1)
pos, vel = q.position(s), q.velocity(s)
after_build = scipy_modules()

from scipy.interpolate import CubicSpline, RegularGridInterpolator

direct_tab = RegularGridInterpolator(
    tuple(m.axis_nodes(a) for a in range(3)), values, method="linear",
    bounds_error=False, fill_value=None)(pts)
spline = CubicSpline(np.linspace(0.0, 1.0, 7), samples,
                     bc_type=((1, v0), (1, v1)))

print(json.dumps({
    "run_code": run_code,
    "validate_code": validate_code,
    "after_run": after_run,
    "interpolate_after_build": "scipy.interpolate" in after_build,
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
    assert probe["run_code"] == 0
    assert probe["validate_code"] == 0
    assert probe["after_run"] == []


def test_tabulated_field_and_spline_load_scipy_and_match_it(probe):
    assert probe["interpolate_after_build"]
    assert probe["tabulated_equal"]
    assert probe["spline_equal"]
