"""Outside-in spans around the public functions of each scalefield layer.

Nothing under ``src/`` knows about tracing.  ``Tracer.installed()`` swaps
each traced function for a wrapper on the object it is looked up from at
call time (the ``runner`` module for the layer entry points, the classes
for methods), records one span per call, and puts every original back on
exit.  Spans stay in memory as tuples until the run ends.

A span is ``(name, start, end, parent, run, count)``: ``parent`` is the
index of the enclosing span (-1 for a root), ``run`` numbers the traced
``run_scenario`` call, and ``count`` is the work the call was handed or
returned (points, nodes, cells, checks, steps), or None.
"""

from __future__ import annotations

import functools
import math
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np


def _points(x) -> int:
    shape = np.shape(x)
    return math.prod(shape[:-1]) if len(shape) > 1 else 1


def _first_arg_points(args, kwargs, result) -> int:
    return _points(args[1])


def _cells(args, kwargs, result) -> int:
    header, rows = args[0], args[1]
    return len(header) * (len(rows) + 1)


def _axiom_checks(args, kwargs, result) -> Tuple[str, int]:
    return result.structure.kind, sum(r.checks for r in result.results)


def _geodesic_steps(args, kwargs, result) -> Tuple[int, bool]:
    return len(result) - 1, bool(result.left_domain)


def _residual_points(args, kwargs, result) -> int:
    return _points(args[3])


def _packet_nodes(args, kwargs, result) -> int:
    return int(result.amplitudes.size)


def _velocity_nodes(args, kwargs, result) -> int:
    return int(np.size(args[1]))


def _task_name(task_type: str) -> str:
    return f"runner.task.{task_type}"


class Tracer:
    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._stack: List[int] = []
        self.run = 0

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index, None)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, perf_counter(), None, parent, self.run, None))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, count) -> None:
        end = perf_counter()
        self._stack.pop()
        name, start, _, parent, run, _ = self.spans[index]
        self.spans[index] = (name, start, end, parent, run, count)

    def seconds(self, name: str) -> float:
        """Duration of the latest span called ``name``."""
        for span in reversed(self.spans):
            if span[0] == name:
                return span[2] - span[1]
        raise KeyError(name)

    def wrap(self, fn: Callable, name: str,
             count: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(index, None if count is None
                            else count(args, kwargs, result))
        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        from scalefield import axioms, runner
        from scalefield.fields import ScalingField
        from scalefield.manifold import Manifold
        from scalefield.paths import PolylinePath, SegmentPath

        targets = [
            (runner, "parse_scenario", "scenario.parse", None),
            (runner, "validate_scenario", "scenario.validate", None),
            (runner, "render_csv", "csvio.render", _cells),
            (runner, "axiom_suite", "axioms.suite", _axiom_checks),
            (axioms, "draw_values", "axioms.draw", None),
            (runner, "compare_outcomes", "outcomes.compare", None),
            (runner, "integrate_geodesic", "geodesics.integrate",
             _geodesic_steps),
            (runner, "scaled_path_length", "paths.scaled_length", None),
            (runner, "local_path_length", "paths.local_length", None),
            (runner, "invariance_residual", "gauge.residual",
             _residual_points),
            (runner, "gaussian_packet", "packets.gaussian", _packet_nodes),
            (runner, "scale_wave_packet", "packets.scale", _packet_nodes),
            (ScalingField, "gamma_delta", "fields.gamma_delta",
             _first_arg_points),
            (ScalingField, "theta_at", "fields.theta_at", _first_arg_points),
            (Manifold, "require_inside", "manifold.require_inside", None),
            (SegmentPath, "velocity", "paths.velocity", _velocity_nodes),
            (PolylinePath, "velocity", "paths.velocity", _velocity_nodes),
        ]
        saved = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _, _ in targets]
        handlers = dict(runner._HANDLERS)
        try:
            for owner, attr, name, count in targets:
                setattr(owner, attr, self.wrap(getattr(owner, attr), name,
                                               count))
            for task_type, handler in handlers.items():
                runner._HANDLERS[task_type] = self.wrap(
                    handler, _task_name(task_type))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
            runner._HANDLERS.update(handlers)

    def dump(self) -> Dict[str, Any]:
        """Spans in a compact, JSON-ready form (times in ns from the first)."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[ids[n], round((a - t0) * 1e9), round((b - t0) * 1e9), p, r,
                 c if not isinstance(c, tuple) else list(c)]
                for n, a, b, p, r, c in self.spans]
        return {"names": names,
                "columns": ["name", "start_ns", "end_ns", "parent", "run",
                            "count"],
                "spans": rows}


# -- per-layer metrics derived from the spans --------------------------------

def _self_times(spans: List[tuple]) -> List[float]:
    out = [b - a for _, a, b, _, _, _ in spans]
    for name, a, b, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= b - a
    return out


def _under(spans: List[tuple], index: int, ancestor: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def run_layer_metrics(spans: List[tuple], root: str) -> Dict[str, float]:
    """Per-layer metrics of one traced run (the spans of one ``run`` id)."""
    selft = _self_times(spans)
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counted: Dict[str, int] = {}
    for i, (name, a, b, _, _, c) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (b - a)
        own[name] = own.get(name, 0.0) + selft[i]
        calls[name] = calls.get(name, 0) + 1
        if isinstance(c, int):
            counted[name] = counted.get(name, 0) + c

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    m: Dict[str, float] = {}
    m["scenario.parse_s"] = t("scenario.parse")
    m["scenario.validate_s"] = t("scenario.validate")

    m["runner.self_s"] = own.get(root, 0.0) + sum(
        v for k, v in own.items() if k.startswith("runner.task."))

    cells = counted.get("csvio.render", 0)
    m["csvio.render_s"] = t("csvio.render")
    m["csvio.cells"] = cells
    m["csvio.ns_per_cell"] = ratio(t("csvio.render"), cells, 1e9)

    kinds: Dict[str, List[float]] = {}
    checks = 0
    for name, a, b, _, _, c in spans:
        if name == "axioms.suite":
            kind, n = c
            checks += n
            acc = kinds.setdefault(kind, [0.0, 0])
            acc[0] += b - a
            acc[1] += n
    m["axioms.suite_s"] = t("axioms.suite")
    m["axioms.draw_s"] = t("axioms.draw")
    m["axioms.checks"] = checks
    for kind in ("natural", "rational", "real", "complex"):
        secs, n = kinds.get(kind, (0.0, 0))
        m[f"axioms.us_per_check.{kind}"] = ratio(secs, n, 1e6)

    m["outcomes.compare_s"] = t("outcomes.compare")
    m["outcomes.calls"] = calls.get("outcomes.compare", 0)

    steps = left = 0
    for name, _, _, _, _, c in spans:
        if name == "geodesics.integrate":
            steps += c[0]
            left += int(c[1])
    m["geodesics.integrate_s"] = t("geodesics.integrate")
    m["geodesics.steps"] = steps
    m["geodesics.us_per_step"] = ratio(t("geodesics.integrate"), steps, 1e6)
    m["geodesics.left_domain"] = left

    for fn in ("gamma_delta", "theta_at"):
        name = f"fields.{fn}"
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.points"] = counted.get(name, 0)
        m[f"{name}.self_s"] = own.get(name, 0.0)
    field_calls = m["fields.gamma_delta.calls"] + m["fields.theta_at.calls"]
    m["fields.points_per_call"] = ratio(
        m["fields.gamma_delta.points"] + m["fields.theta_at.points"],
        field_calls)
    in_steps = {"fields.gamma_delta": 0, "manifold.require_inside": 0}
    if steps:
        for i, s in enumerate(spans):
            if s[0] in in_steps and _under(spans, i, "geodesics.integrate"):
                in_steps[s[0]] += 1
    m["fields.calls_per_step"] = ratio(in_steps["fields.gamma_delta"], steps)

    m["manifold.require_inside.calls"] = calls.get(
        "manifold.require_inside", 0)
    m["manifold.require_inside.self_s"] = own.get(
        "manifold.require_inside", 0.0)
    m["manifold.checks_per_step"] = ratio(
        in_steps["manifold.require_inside"], steps)

    nodes = counted.get("paths.velocity", 0)
    path_s = t("paths.scaled_length") + t("paths.local_length")
    m["paths.scaled_length_s"] = t("paths.scaled_length")
    m["paths.local_length_s"] = t("paths.local_length")
    m["paths.pieces"] = calls.get("paths.velocity", 0)
    m["paths.nodes"] = nodes
    m["paths.ns_per_node"] = ratio(path_s, nodes, 1e9)

    points = counted.get("gauge.residual", 0)
    m["gauge.residual_s"] = t("gauge.residual")
    m["gauge.points"] = points
    m["gauge.ns_per_point"] = ratio(t("gauge.residual"), points, 1e9)

    packet_nodes = counted.get("packets.gaussian", 0)
    packet_s = t("packets.gaussian") + t("packets.scale")
    m["packets.gaussian_s"] = t("packets.gaussian")
    m["packets.scale_s"] = t("packets.scale")
    m["packets.nodes"] = packet_nodes
    m["packets.ns_per_node"] = ratio(packet_s, packet_nodes, 1e9)
    return m


def layer_metrics(spans: List[tuple], root: str) -> Dict[str, float]:
    """Median over the traced runs of each per-run layer metric."""
    # runs are sequential, so each run's spans are one contiguous slice;
    # parents are re-indexed into that slice
    per_run = []
    first = 0
    for i in range(1, len(spans) + 1):
        if i == len(spans) or spans[i][4] != spans[first][4]:
            local = [(n, a, b, p - first if p >= 0 else -1, r, c)
                     for n, a, b, p, r, c in spans[first:i]]
            per_run.append(run_layer_metrics(local, root))
            first = i
    return {k: statistics.median(r[k] for r in per_run) for k in per_run[0]}
