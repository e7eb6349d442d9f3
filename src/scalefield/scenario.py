"""Declarative scenario files: strict parsing and semantic validation.

A scenario is one JSON object: a manifold block, a fields block (theta and
phi), an optional gauge block, a task list, a seed, and an output directory.
Parsing is strict in both directions: a missing required key and an
unrecognized key are both errors, every diagnostic names the offending
field by dotted path, and bad JSON reports the source line.  Parse errors
are structural (types, unknown keys, unknown family or task names);
validation errors are semantic (cross-field requirements such as a seed for
randomized tasks or a gauge block for gauge tasks).

Every JSON object is read by ``_keyed`` against a schema that maps each key
to a parser and a default, ``REQUIRED`` for a mandatory key.  Parsing yields
plain data, the dicts of those keys; validation builds every library object,
each once, and ``_build_spec`` alone builds field specs.  ``TASKS`` is
the one table of task types.  A row holds the task's key schema, its work
estimate, which validation holds to a budget, and its ``build`` column,
which makes the task's inputs with the library constructors: validation
refuses what they refuse, and the runner runs what validation built.  Keys
read by the ``_point`` parser hold points that validation requires inside
the bounds.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Dict, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .axioms import check_samples
from .errors import (
    DegenerateParameterization,
    ScaleFieldError,
    ScenarioParseError,
    ScenarioValidationError,
)
from .exact import parse_fraction
from .fields import (
    GRADIENT_MODES,
    CombinationField,
    ConstantField,
    FieldSpec,
    GaussianField,
    LinearField,
    RadialPolynomial,
    ScalingField,
    TabulatedField,
)
from .gauge import GaugeConfig, GaugeTransform, apply_transform
from .geodesics import GeodesicBatch, GeodesicState, rk4_steps
from .manifold import Manifold
from .outcomes import COMPARISON_MODES, ComparisonReport, Outcome, compare_outcomes
from .packets import check_gaussian_packet, slice_time
from .paths import PolylinePath, SegmentPath, simpson_pieces
from .structures import KINDS, BaseNumber, structure

# work budgets of one task, checked by validate_scenario: RK4 steps
# (geodesics.rk4_steps), axiom samples, and Simpson nodes or grid points
MAX_GEODESIC_STEPS = 1_000_000
MAX_AXIOM_SAMPLES = 100_000
MAX_POINTS = 10_000_000
SIGNATURES = {3: "euclidean", 4: "minkowski"}
REQUIRED = object()  # the default of a mandatory key

Parser = Callable[[Any, str], Any]
Schema = Dict[str, Tuple[Parser, Any]]


# -- strict tree walking ------------------------------------------------------


def _fail(path: str, message: str) -> "ScenarioParseError":
    return ScenarioParseError(f"{path}: {message}")


def _typed(node: Any, path: str, kind: Any, name: str) -> Any:
    if isinstance(node, bool) or not isinstance(node, kind):
        raise _fail(path, f"expected {name}, got {type(node).__name__}")
    return node


_mapping = partial(_typed, kind=dict, name="an object")
_string = partial(_typed, kind=str, name="a string")
_array = partial(_typed, kind=list, name="an array")


def _keyed(node: Any, path: str, schema: Schema) -> Dict[str, Any]:
    """Parse the object ``node`` key by key; an absent key takes its default.

    Parsers run in schema order, so one may depend on the raw value of a key
    listed before it: that key's own parser has accepted it by then.
    """
    tree = _mapping(node, path)
    for key, (_, default) in schema.items():
        if default is REQUIRED and key not in tree:
            raise _fail(path, f"missing required key {key!r}")
    for key in tree:
        if key not in schema:
            raise _fail(f"{path}.{key}", "unknown key")
    return {key: parse(tree[key], f"{path}.{key}") if key in tree else default
            for key, (parse, default) in schema.items()}


def _tagged(node: Any, path: str, tag: str,
            schemas: Dict[str, Callable[[int], Schema]], dim: int) -> Dict[str, Any]:
    """``_keyed`` on an object whose ``tag`` value picks the schema."""
    tree = _mapping(node, path)
    if tag not in tree:
        raise _fail(path, f"missing required key {tag!r}")
    kind = _choice(tree[tag], f"{path}.{tag}", tuple(schemas))
    return _keyed(tree, path, {tag: (_string, REQUIRED), **schemas[kind](dim)})


def _number(node: Any, path: str, positive: bool = False) -> float:
    # false for inf, NaN and an integer beyond the float range
    if not abs(_typed(node, path, (int, float), "a number")) <= sys.float_info.max:
        raise _fail(path, "number must be finite")
    if positive and not node > 0:
        raise _fail(path, "must be positive")
    return float(node)


_positive = partial(_number, positive=True)


def _integer(node: Any, path: str, least: float = -np.inf,
             most: float = np.inf, why: str = "") -> int:
    if not -2**63 <= _typed(node, path, int, "an integer") < 2**63:
        raise _fail(path, "integer outside the signed 64-bit range")
    if not least <= node <= most:
        raise _fail(path, why)
    return node


def _items(node: Any, path: str, parse: Parser, count: Optional[int] = None,
           what: str = "", kind: type = tuple) -> Tuple[Any, ...]:
    items = _array(node, path)
    if count is not None and len(items) != count:
        raise _fail(path, f"expected {count} {what}, got {len(items)}")
    return kind(parse(v, f"{path}[{i}]") for i, v in enumerate(items))


class Point(tuple):
    """Coordinates that validation requires inside the manifold bounds."""


_numbers = partial(_items, parse=_number, what="numbers")
_point = partial(_numbers, kind=Point)


def _choice(node: Any, path: str, allowed: Tuple[str, ...]) -> str:
    value = _string(node, path)
    if value not in allowed:
        raise _fail(path, f"expected one of {', '.join(allowed)}; got {value!r}")
    return value


def _one_of(*allowed: str) -> Parser:
    return partial(_choice, allowed=allowed)


def _exact(node: Any, path: str) -> Fraction:
    if isinstance(node, bool):
        raise _fail(path, "expected an integer or a fraction string")
    if isinstance(node, int):
        return Fraction(node)
    if isinstance(node, str):
        try:
            return parse_fraction(node)
        except (ValueError, ArithmeticError) as err:
            raise _fail(path, f"not an exact number: {err}")
    raise _fail(path, "expected an integer or a fraction string "
                      "(floats would lose exactness)")


# -- field specs --------------------------------------------------------------


def _axes(node: Any, path: str, dim: int) -> Tuple[int, ...]:
    axes = _items(node, path, _integer)
    for i, a in enumerate(axes):
        if not 0 <= a < dim:
            raise _fail(f"{path}[{i}]", f"axis {a} outside 0..{dim - 1}")
    return axes


def _coefficients(node: Any, path: str) -> Tuple[float, ...]:
    if not _array(node, path):
        raise _fail(path, "need at least one coefficient")
    return _numbers(node, path)


def _terms(node: Any, path: str, dim: int) -> Tuple[Dict[str, Any], ...]:
    term = {"weight": (_number, REQUIRED),
            "spec": (partial(parse_field_spec, dimension=dim), REQUIRED)}
    return _items(node, path, partial(_keyed, schema=term))


# family: (spec class, key schema on a grid of dimension dim)
_FAMILIES = {
    "constant": (ConstantField, lambda dim: {"constant": (_number, REQUIRED)}),
    "linear": (LinearField, lambda dim: {
        "coefficients": (partial(_numbers, count=dim), REQUIRED),
        "offset": (_number, 0.0)}),
    "gaussian": (GaussianField, lambda dim: {
        "amplitude": (_number, REQUIRED),
        "center": (partial(_numbers, count=dim), REQUIRED),
        "width": (_positive, REQUIRED),
        "axes": (partial(_axes, dim=dim), None)}),
    "radial_polynomial": (RadialPolynomial, lambda dim: {
        "coefficients": (_coefficients, REQUIRED)}),
    "combination": (CombinationField,
                    lambda dim: {"terms": (partial(_terms, dim=dim), REQUIRED)}),
    # validation checks the value grid against the manifold
    "tabulated": (TabulatedField, lambda dim: {"values": (_array, REQUIRED)}),
}
_FAMILY_KEYS = {name: keys for name, (_, keys) in _FAMILIES.items()}


def parse_field_spec(node: Any, path: str, dimension: int) -> Dict[str, Any]:
    """The spec's keys, its family among them; ``_build_spec`` builds it."""
    return _tagged(node, path, "family", _FAMILY_KEYS, dimension)


# -- parsed scenario ----------------------------------------------------------


@dataclass(frozen=True)
class Task:
    type: str
    params: Dict[str, Any]


@dataclass(frozen=True)
class Scenario:
    manifold: Dict[str, Any]
    fields: Dict[str, Any]
    gauge: Optional[Dict[str, Any]]
    tasks: Tuple[Task, ...]
    seed: Optional[int]
    output: Optional[str]


# -- block parsers ------------------------------------------------------------


def _spacing(node: Any, path: str, dim: int) -> Tuple[float, ...]:
    if isinstance(node, list):
        return _numbers(node, path, count=dim)
    return (_number(node, path),) * dim


def _parse_manifold(node: Any, path: str) -> Dict[str, Any]:
    dim = _mapping(node, path).get("dimension")
    signature = SIGNATURES.get(dim) if isinstance(dim, int) else None
    block = _keyed(node, path, {
        "dimension": (partial(_integer, least=3, most=4,
                              why="must be 3 or 4"), REQUIRED),
        "bounds": (partial(_items, parse=partial(_numbers, count=2),
                           count=dim, what="[lo, hi] pairs"), REQUIRED),
        "spacing": (partial(_spacing, dim=dim), None),
        "nodes": (partial(_integer, least=2,
                          why="need at least 2 nodes per axis"), None),
        "signature": (_one_of("euclidean", "minkowski"), signature),
    })
    if (block["spacing"] is None) == (block["nodes"] is None):
        raise _fail(path, "give exactly one of 'spacing' or 'nodes'")
    if block["signature"] != SIGNATURES[dim]:
        raise _fail(f"{path}.signature",
                    f"dimension {dim} carries the {SIGNATURES[dim]} signature")
    return block


def _parse_fields(node: Any, path: str, dim: int) -> Dict[str, Any]:
    spec = partial(parse_field_spec, dimension=dim)
    return _keyed(node, path, {
        "theta": (spec, REQUIRED),
        "phi": (spec, {"family": "constant", "constant": 0.0}),
        "gradient_mode": (_one_of(*GRADIENT_MODES), "analytic"),
        "gradient_step": (_number, None),
    })


def _parse_gauge(node: Any, path: str, dim: int) -> Dict[str, Any]:
    spec = partial(parse_field_spec, dimension=dim)
    return _keyed(node, path, {
        "g_r": (_number, REQUIRED),
        "g_i": (_number, REQUIRED),
        "h_i": (_number, REQUIRED),
        "photon": (partial(_items, parse=spec, count=dim,
                           what="component specs"), REQUIRED),
        "alpha": (spec, None),
        "gamma": (spec, None),
    })


def _parse_outcome(node: Any, path: str, dim: int) -> Dict[str, Any]:
    pair = partial(_items, parse=_exact, count=2, what="exact parts [re, im]")
    kind = _mapping(node, path).get("kind")
    return _keyed(node, path, {
        "location": (partial(_point, count=dim), REQUIRED),
        "kind": (_one_of(*KINDS), REQUIRED),
        "payload": (pair if kind == "complex" else _exact, REQUIRED),
    })


def _vertices(node: Any, path: str, dim: int) -> Tuple[Tuple[float, ...], ...]:
    if len(_array(node, path)) < 2:
        raise _fail(path, "need at least two vertices")
    return _items(node, path, partial(_point, count=dim))


_PATHS: Dict[str, Callable[[int], Schema]] = {
    "segment": lambda dim: {"start": (partial(_point, count=dim), REQUIRED),
                            "end": (partial(_point, count=dim), REQUIRED)},
    "polyline": lambda dim: {"vertices": (partial(_vertices, dim=dim),
                                          REQUIRED)},
}


class TaskType(NamedTuple):
    """Key schema on a grid of dimension dim; ``build(params, runtime)``
    gives the task handler's inputs; ``work(params, manifold)`` gives the key
    that sets the work and the amount, held to ``limit``."""

    keys: Callable[[int], Schema]
    build: Callable[[Dict[str, Any], "RuntimeScenario"], Any]
    work: Callable[..., Tuple[str, float]] = lambda params, manifold: ("", 0)
    limit: int = 0
    measure: str = ""
    randomized: bool = False


def _geodesic_steps(p: Dict[str, Any], m: Manifold) -> Tuple[str, float]:
    steps = p["tau_end"] / p["h_tau"]
    return "h_tau", steps if np.isinf(steps) else rk4_steps(steps)


def _path_of(spec: Dict[str, Any]):
    if spec["kind"] == "segment":
        return SegmentPath(np.array(spec["start"]), np.array(spec["end"]))
    return PolylinePath(np.array(spec["vertices"]))


def _simpson_nodes(p: Dict[str, Any], m: Manifold) -> Tuple[str, float]:
    pieces = simpson_pieces(_path_of(p["path"]), p["steps"])
    return "steps", sum(n + 1 for _, _, n in pieces)


def _structure(p: Dict[str, Any], rt: "RuntimeScenario"):
    check_samples(p["samples"])
    return structure(p["kind"], p["t"], p["s"])


def _path(p: Dict[str, Any], rt: "RuntimeScenario"):
    """(path, x_ref); x_ref defaults to the start of the path."""
    spec = p["path"]
    points = spec["vertices"] if spec["kind"] == "polyline" \
        else (spec["start"], spec["end"])
    if len(set(points)) == 1:
        raise DegenerateParameterization("tangent vanishes along the path")
    q = _path_of(spec)
    x_ref = np.array(p["x_ref"]) if p["x_ref"] is not None \
        else q.position(np.array(0.0))
    return q, x_ref


def _packet(p: Dict[str, Any], rt: "RuntimeScenario") -> Optional[float]:
    """The packet's time slice, once its norm is known to be positive."""
    check_gaussian_packet(rt.manifold, p["center"], p["width"], p["momentum"])
    return slice_time(rt.manifold, p["time_slice"])


def _transform(p: Dict[str, Any], rt: "RuntimeScenario") -> GaugeTransform:
    if rt.gauge_transform is None:
        raise ValueError("gauge-check needs a gauge block with an "
                         "alpha/gamma transform split")
    apply_transform(rt.field, rt.gauge_config, rt.gauge_transform)
    # the interior is built when the task runs; each of its nodes lies
    # between its two corners, so a gradient there refuses now any step
    # without margin that the run's gradients would refuse
    rt.field.gradient_of(rt.field.theta, rt.manifold.interior_corners())
    return rt.gauge_transform


def _outcome(spec: Dict[str, Any]) -> Outcome:
    if spec["kind"] == "complex":
        number = BaseNumber.complex(*spec["payload"])
    else:
        number = BaseNumber(spec["kind"], spec["payload"])
    return Outcome(np.array(spec["location"]), number)


def first_non_finite(results: Dict[str, Any]) -> Optional[str]:
    """The first key of a task's results, in the order the task reports
    them, whose value is or holds inf or NaN; None if there is none."""
    def finite(value: Any) -> bool:
        if isinstance(value, (list, tuple)):
            return all(map(finite, value))
        return not isinstance(value, (float, complex)) or np.isfinite(value)
    return next((k for k, v in results.items() if not finite(v)), None)


def _report(p: Dict[str, Any], rt: "RuntimeScenario") -> ComparisonReport:
    """The report the run renders, computed once; every value it reports
    must be finite."""
    pair = (_outcome(p["reference"]), _outcome(p["target"]))
    with np.errstate(all="ignore"):
        report = compare_outcomes(*pair, rt.field, mode=p["mode"])
    results = report.results()
    name = first_non_finite(results)
    if name is not None:
        raise ValueError(f"{name} is not finite: {results[name]}")
    return report


TASKS: Dict[str, TaskType] = {
    "axioms": TaskType(lambda dim: {
        "kind": (_one_of(*KINDS), REQUIRED),
        "t": (_exact, REQUIRED),
        "s": (_exact, REQUIRED),
        "samples": (_integer, 100)},
        _structure, lambda p, m: ("samples", p["samples"]),
        MAX_AXIOM_SAMPLES, "{:.6g} samples", randomized=True),
    "geodesic": TaskType(lambda dim: {
        "position": (partial(_point, count=dim), REQUIRED),
        "velocity": (partial(_numbers, count=dim), REQUIRED),
        "tau_end": (_positive, REQUIRED),
        "h_tau": (_positive, 1e-3),
        "drag_contraction": (_one_of("euclidean", "minkowski"), "euclidean")},
        lambda p, rt: GeodesicState(np.array(p["position"]),
                                    np.array(p["velocity"])),
        _geodesic_steps, MAX_GEODESIC_STEPS, "tau_end / h_tau = {:.6g} steps"),
    "pathlen": TaskType(lambda dim: {
        "path": (partial(_tagged, tag="kind", schemas=_PATHS, dim=dim),
                 REQUIRED),
        "x_ref": (partial(_point, count=dim), None),
        "steps": (partial(_integer, least=2,
                          why="need at least 2 quadrature steps"), 1000)},
        _path, _simpson_nodes, MAX_POINTS, "{:.6g} Simpson nodes"),
    # center and momentum are spatial: three axes in 3 and 4 dimensions
    "wavepacket": TaskType(lambda dim: {
        "center": (partial(_numbers, count=3), REQUIRED),
        "width": (_positive, REQUIRED),
        "x0": (partial(_point, count=dim), REQUIRED),
        "momentum": (partial(_numbers, count=3), None),
        "time_slice": (_number, None)},
        _packet,
        lambda p, m: ("", math.prod(float(m.grid_shape[a])
                                    for a in m.spatial_axes)),
        MAX_POINTS, "{:.6g} points in the spatial slice of the grid"),
    "gauge-check": TaskType(lambda dim: {
        "stride": (partial(_integer, least=1, why="must be at least 1"), 1)},
        _transform,
        # counts the whole interior, whatever the stride; the task visits
        # only the strided points, a block at a time
        lambda p, m: ("", math.prod(map(float, m.interior_shape))),
        MAX_POINTS, "{:.6g} interior grid points"),
    "compare": TaskType(lambda dim: {
        "reference": (partial(_parse_outcome, dim=dim), REQUIRED),
        "target": (partial(_parse_outcome, dim=dim), REQUIRED),
        "mode": (_one_of(*COMPARISON_MODES), "physical-transmission")},
        _report),
}
_TASK_KEYS = {name: row.keys for name, row in TASKS.items()}


def _parse_tasks(node: Any, path: str, dim: int) -> Tuple[Task, ...]:
    tasks = _items(node, path, partial(_tagged, tag="type",
                                       schemas=_TASK_KEYS, dim=dim))
    if not tasks:
        raise _fail(path, "need at least one task")
    return tuple(Task(params.pop("type"), params) for params in tasks)


def parse_scenario_text(text: str) -> Scenario:
    try:
        root = json.loads(text)
        manifold = _mapping(root, "scenario").get("manifold")
        dim = manifold.get("dimension") if isinstance(manifold, dict) else None
        return Scenario(**_keyed(root, "scenario", {
            "manifold": (_parse_manifold, REQUIRED),
            "fields": (partial(_parse_fields, dim=dim), REQUIRED),
            "gauge": (partial(_parse_gauge, dim=dim), None),
            "tasks": (partial(_parse_tasks, dim=dim), REQUIRED),
            "seed": (_integer, None),
            "output": (_string, None),
        }))
    except json.JSONDecodeError as err:
        raise ScenarioParseError(
            f"line {err.lineno}, column {err.colno}: {err.msg}")
    except RecursionError:
        raise ScenarioParseError("scenario: nested too deeply")
    except ValueError as err:  # an integer of more digits than int() takes
        raise ScenarioParseError(f"scenario: {err}")


def parse_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ScenarioParseError(f"cannot read {path}: {err.strerror}")
    return parse_scenario_text(text)


# -- semantic validation and runtime assembly ---------------------------------


@dataclass(frozen=True)
class RuntimeScenario:
    scenario: Scenario
    manifold: Manifold
    field: ScalingField
    gauge_config: Optional[GaugeConfig]
    gauge_transform: Optional[GaugeTransform]
    inputs: Tuple[Any, ...] = ()  # what each task's build column made


def _build_spec(spec: Dict, manifold: Manifold, label: str) -> FieldSpec:
    """Build a parsed spec: the one place a scenario's field specs are made."""
    params = dict(spec)
    family = params.pop("family")
    if family == "combination":
        params["terms"] = tuple(
            (t["weight"], _build_spec(t["spec"], manifold, label))
            for t in params["terms"])
    grid = (manifold,) if family == "tabulated" else ()
    try:
        return _FAMILIES[family][0](*grid, **params)
    except (TypeError, ValueError, ScenarioValidationError) as err:
        raise ScenarioValidationError(f"{label}: {err}")


def _batched(tasks: Tuple[Task, ...], inputs: list) -> Tuple[Any, ...]:
    """Each geodesic task's input as (state, batch).  In task order, the
    geodesics that share tau_end, h_tau and drag_contraction, and so one
    step count and step, share a GeodesicBatch while their tables together
    hold at most MAX_GEODESIC_STEPS + 1 rows, as many as one task may."""
    open_batches: Dict[tuple, Tuple[GeodesicBatch, int]] = {}
    for i, task in enumerate(tasks):
        if task.type != "geodesic":
            continue
        p = task.params
        key = (p["tau_end"], p["h_tau"], p["drag_contraction"])
        rows = rk4_steps(p["tau_end"] / p["h_tau"]) + 1
        batch, held = open_batches.get(key, (None, 0))
        if batch is None or held + rows > MAX_GEODESIC_STEPS + 1:
            batch, held = GeodesicBatch(), 0
        batch.states.append(inputs[i])
        open_batches[key] = batch, held + rows
        inputs[i] = inputs[i], batch
    return tuple(inputs)


def _points(value: Any, path: str) -> Iterator[Tuple[str, Point]]:
    """Every Point in a parsed value, with its dotted path."""
    if isinstance(value, Point):
        yield path, value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _points(item, f"{path}.{key}")
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from _points(item, f"{path}[{i}]")


def validate_scenario(scenario: Scenario) -> RuntimeScenario:
    """Check cross-field requirements; assemble the runtime and task inputs."""
    block = scenario.manifold
    try:
        if block["nodes"] is not None:
            manifold = Manifold.box(block["bounds"], block["nodes"])
        else:
            manifold = Manifold(block["dimension"], block["bounds"],
                                block["spacing"])
    except (ValueError, OverflowError) as err:
        raise ScenarioValidationError(f"scenario.manifold: {err}")

    fields = scenario.fields
    theta = _build_spec(fields["theta"], manifold, "scenario.fields.theta")
    phi = _build_spec(fields["phi"], manifold, "scenario.fields.phi")
    try:
        fieldref = ScalingField(manifold, theta, phi,
                                gradient_mode=fields["gradient_mode"],
                                gradient_step=fields["gradient_step"])
    except (ValueError, ScaleFieldError) as err:
        raise ScenarioValidationError(f"scenario.fields: {err}")

    gauge_config = gauge_transform = None
    if scenario.gauge is not None:
        g = scenario.gauge
        photon = tuple(_build_spec(s, manifold, f"scenario.gauge.photon[{i}]")
                       for i, s in enumerate(g["photon"]))
        gauge_config = GaugeConfig(g["g_r"], g["g_i"], g["h_i"], photon)
        if (g["alpha"] is None) != (g["gamma"] is None):
            raise ScenarioValidationError(
                "scenario.gauge: alpha and gamma come as a pair")
        if g["alpha"] is not None:
            gauge_transform = GaugeTransform(
                _build_spec(g["alpha"], manifold, "scenario.gauge.alpha"),
                _build_spec(g["gamma"], manifold, "scenario.gauge.gamma"))
            for name, spec in (("alpha", gauge_transform.alpha),
                               ("gamma", gauge_transform.gamma)):
                if not fieldref.differentiates(spec):
                    raise ScenarioValidationError(
                        f"scenario.gauge.{name}: no analytic gradient; "
                        "use central-difference mode")

    needs_seed = [i for i, t in enumerate(scenario.tasks)
                  if TASKS[t.type].randomized]
    if needs_seed and scenario.seed is None:
        raise ScenarioValidationError(
            f"scenario.seed: required because tasks"
            f"{needs_seed} draw random samples")

    runtime = RuntimeScenario(scenario, manifold, fieldref, gauge_config,
                              gauge_transform)
    inputs = []
    for i, task in enumerate(scenario.tasks):
        label = f"scenario.tasks[{i}]"
        for where, point in _points(task.params, label):
            if not manifold.contains(np.array(point)):
                raise ScenarioValidationError(
                    f"{where}: point {list(point)} outside bounds")
        row = TASKS[task.type]
        key, amount = row.work(task.params, manifold)
        if amount > row.limit:
            where = f"{label}.{key}" if key else label
            raise ScenarioValidationError(
                f"{where}: {row.measure.format(amount)}, "
                f"more than the limit of {row.limit}")
        try:
            inputs.append(row.build(task.params, runtime))
        except (ScaleFieldError, ValueError) as err:
            raise ScenarioValidationError(f"{label}: {err}")
    return replace(runtime, inputs=_batched(scenario.tasks, inputs))
