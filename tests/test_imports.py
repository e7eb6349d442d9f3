"""The package needs numpy alone: no scipy at runtime.

No module under ``src/`` imports scipy, ``pyproject.toml`` lists numpy as
the only runtime dependency, and a fresh interpreter in which scipy cannot
be imported runs the demo scenario (axioms, a segment path length, a
geodesic on analytic theta, a packet, a gauge check and a comparison), a
scenario with a tabulated phi, and the variational check of a trajectory
path.  scipy stays a test dependency: this process checks the probe's
numbers against it.  A last scan checks that no module under ``src/`` uses
another module's private names.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scalefield import Manifold
from scalefield.fields import ConstantField, GaussianField, ScalingField
from scalefield.geodesics import GeodesicState, integrate_geodesic, trajectory_path
from scalefield.paths import variational_check

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "scenarios" / "demo.json"

PROBE = r"""
import sys

sys.modules["scipy"] = None  # any scipy import now raises ImportError

import json, os, tempfile

import numpy as np

from scalefield import Manifold, TabulatedField
from scalefield.cli import main
from scalefield.fields import ConstantField, GaussianField, ScalingField
from scalefield.geodesics import GeodesicState, integrate_geodesic, trajectory_path
from scalefield.paths import variational_check
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

with tempfile.TemporaryDirectory() as out:
    demo_codes = [run_scenario(demo, out=os.path.join(out, "demo")),
                  main(["validate", demo])]
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

m4 = Manifold.box([(-3.0, 3.0)] * 4, 13)
f = ScalingField(m4, GaussianField(0.5, (0.0, 0.0, 0.6, 0.0), 0.8,
                                   axes=(1, 2, 3)),
                 ConstantField(0.0))
tr = integrate_geodesic(GeodesicState(np.array([0.0, -1.5, 0.0, 0.0]),
                                      np.array([0.0, 1.0, 0.0, 0.0])),
                        f, 3.0, 1e-2)
report = variational_check(trajectory_path(tr), f, perturbations=5,
                           steps=400)

print(json.dumps({
    "demo_codes": demo_codes,
    "tabulated_codes": tabulated_codes,
    "tabulated": tab.tolist(),
    "base_length": report.base_length,
    "minimizes": report.minimizes,
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


def test_no_module_under_src_imports_scipy():
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name == "scipy" or name.startswith("scipy.")]
    assert found == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_under_src_uses_another_modules_private_names():
    # a module may use its own _names (defined, assigned or set by string)
    # and no other module's
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        own = {n.name for n in nodes
               if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        own |= {n.value for n in nodes
                if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        own |= {n.attr for n in nodes
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)}
        for n in nodes:
            if isinstance(n, ast.ImportFrom):
                found += [f"{path.name}:{n.lineno} {alias.name}"
                          for alias in n.names if _private(alias.name)]
            elif (isinstance(n, ast.Attribute) and _private(n.attr)
                  and n.attr not in own):
                found.append(f"{path.name}:{n.lineno} {ast.unparse(n)}")
    assert found == []


def test_runtime_dependencies_are_numpy_alone():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S)
    assert block is not None
    names = [re.split(r"[<>=!~ ]", dep)[0]
             for dep in re.findall(r'"([^"]+)"', block.group(1))]
    assert names == ["numpy"]


def test_demo_run_and_validate_load_no_scipy(probe):
    assert probe["demo_codes"] == [0, 0]


def test_tabulated_field_loads_no_scipy_and_matches_it(probe):
    # a scenario with a tabulated phi runs and validates, and a tabulated
    # field evaluates, with scipy blocked; scipy here is the reference
    from scipy.interpolate import RegularGridInterpolator

    assert probe["tabulated_codes"] == [0, 0]
    m = Manifold.box([[-1.0, 1.0], [0.0, 2.0], [-2.0, 0.0]], 5)
    values = np.arange(125.0).reshape(5, 5, 5) ** 1.5
    pts = np.array([[0.1, 0.3, -0.2], [-0.7, 1.9, -1.3], [0.55, 1.05, -2.0],
                    [1.3, -0.4, 0.2]])
    direct = RegularGridInterpolator(
        tuple(m.axis_nodes(a) for a in range(3)), values, method="linear",
        bounds_error=False, fill_value=None)(pts)
    assert np.array_equal(np.array(probe["tabulated"]), direct)


def test_trajectory_path_variational_check_runs_without_scipy(probe):
    m = Manifold.box([(-3.0, 3.0)] * 4, 13)
    f = ScalingField(m, GaussianField(0.5, (0.0, 0.0, 0.6, 0.0), 0.8,
                                      axes=(1, 2, 3)),
                     ConstantField(0.0))
    tr = integrate_geodesic(GeodesicState(np.array([0.0, -1.5, 0.0, 0.0]),
                                          np.array([0.0, 1.0, 0.0, 0.0])),
                            f, 3.0, 1e-2)
    report = variational_check(trajectory_path(tr), f, perturbations=5,
                               steps=400)
    assert probe["minimizes"]
    assert probe["base_length"] == report.base_length
