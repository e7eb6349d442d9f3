"""The names the benchmark's tracer patches stay in place.

``perfbench/tracing.py`` wraps layer functions by name while a traced
benchmark runs (``perfbench/run.py --trace 1``).  These tests load that
module as it is, without writing anything under ``perfbench/``, install its
tracer around a demo run and check what a refactor could break: every name
it patches exists, each task is one span, and tracing changes no output
byte.
"""

import ast
import json
import types
from pathlib import Path

from scalefield import axioms, runner
from scalefield.fields import ScalingField
from scalefield.manifold import Manifold
from scalefield.paths import PolylinePath, SegmentPath

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
DEMO = ROOT / "scenarios" / "demo.json"
OWNERS = {"runner": runner, "axioms": axioms, "ScalingField": ScalingField,
          "Manifold": Manifold, "SegmentPath": SegmentPath,
          "PolylinePath": PolylinePath}


def _load_tracing() -> types.ModuleType:
    """The tracing module, compiled from its text so no cache file is made."""
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         module.__dict__)
    return module


def _patched_names():
    """(owner, attribute) of each row of the tracer's target table."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    installed = next(n for n in ast.walk(tree)
                     if isinstance(n, ast.FunctionDef) and n.name == "installed")
    table = next(n.value for n in ast.walk(installed)
                 if isinstance(n, ast.Assign)
                 and isinstance(n.targets[0], ast.Name)
                 and n.targets[0].id == "targets")
    return [(row.elts[0].id, row.elts[1].value) for row in table.elts]


def test_every_name_the_tracer_patches_exists():
    rows = _patched_names()
    assert rows
    missing = [f"{owner}.{attr}" for owner, attr in rows
               if attr not in vars(OWNERS[owner])]
    assert missing == []


def test_traced_demo_has_one_span_per_task_and_the_same_bytes(tmp_path):
    tracing = _load_tracing()
    originals = {(o, a): vars(OWNERS[o])[a] for o, a in _patched_names()}
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert runner.run_scenario(str(DEMO), out=str(plain)) == 0
    tracer = tracing.Tracer()
    with tracer.installed():
        assert runner.run_scenario(str(DEMO), out=str(traced)) == 0
    assert all(vars(OWNERS[o])[a] is fn for (o, a), fn in originals.items())

    tasks = [t["type"] for t in json.loads(DEMO.read_text("utf-8"))["tasks"]]
    names = [span[0] for span in tracer.spans]
    assert [n for n in names if n.startswith("runner.task.")] == [
        f"runner.task.{t}" for t in tasks]
    assert names.count("geodesics.integrate") == tasks.count("geodesic")

    files = sorted(p.name for p in plain.iterdir())
    assert files == sorted(p.name for p in traced.iterdir())
    for name in files:
        assert (traced / name).read_bytes() == (plain / name).read_bytes(), name
