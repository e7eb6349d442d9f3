"""Declarative scenario files: strict parsing and semantic validation.

A scenario is one JSON object: a manifold block, a fields block (theta and
phi), an optional gauge block, a task list, a seed, and an output directory.
Parsing is strict in both directions: a missing required key and an
unrecognized key are both errors, every diagnostic names the offending
field by dotted path, and bad JSON reports the source line.  Parse errors
are structural (types, unknown keys, unknown family or task names);
validation errors are semantic (cross-field requirements such as a seed for
randomized tasks or a gauge block for gauge tasks).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .errors import (
    ScaleFieldError,
    ScenarioParseError,
    ScenarioValidationError,
)
from .exact import parse_fraction
from .fields import (
    CombinationField,
    ConstantField,
    FieldSpec,
    GaussianField,
    LinearField,
    RadialPolynomial,
    ScalingField,
    TabulatedField,
)
from .gauge import GaugeConfig, GaugeTransform
from .manifold import Manifold
from .structures import KINDS

FIELD_FAMILIES = ("constant", "linear", "gaussian", "radial_polynomial",
                  "combination", "tabulated")
TASK_TYPES = ("axioms", "geodesic", "pathlen", "wavepacket", "gauge-check",
              "compare")
RANDOMIZED_TASKS = ("axioms",)
# most RK4 steps (round(tau_end / h_tau)) one geodesic task may ask for
MAX_GEODESIC_STEPS = 1_000_000
PATH_KINDS = ("segment", "polyline")
SIGNATURES = {3: "euclidean", 4: "minkowski"}


# -- strict tree walking ------------------------------------------------------


def _fail(path: str, message: str) -> "ScenarioParseError":
    return ScenarioParseError(f"{path}: {message}")


def _mapping(node: Any, path: str) -> Dict[str, Any]:
    if not isinstance(node, dict):
        raise _fail(path, f"expected an object, got {type(node).__name__}")
    return node


def _check_keys(node: Dict[str, Any], path: str, required: Tuple[str, ...],
                optional: Tuple[str, ...] = ()) -> None:
    for key in required:
        if key not in node:
            raise _fail(path, f"missing required key {key!r}")
    allowed = set(required) | set(optional)
    for key in node:
        if key not in allowed:
            raise _fail(f"{path}.{key}", "unknown key")


def _number(node: Any, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise _fail(path, f"expected a number, got {type(node).__name__}")
    if not np.isfinite(node):
        raise _fail(path, "number must be finite")
    return float(node)


def _positive(node: Any, path: str) -> float:
    value = _number(node, path)
    if not value > 0:
        raise _fail(path, "must be positive")
    return value


def _integer(node: Any, path: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise _fail(path, f"expected an integer, got {type(node).__name__}")
    return node


def _string(node: Any, path: str) -> str:
    if not isinstance(node, str):
        raise _fail(path, f"expected a string, got {type(node).__name__}")
    return node


def _array(node: Any, path: str) -> List[Any]:
    if not isinstance(node, list):
        raise _fail(path, f"expected an array, got {type(node).__name__}")
    return node


def _numbers(node: Any, path: str, length: Optional[int] = None,
             ) -> Tuple[float, ...]:
    items = _array(node, path)
    if length is not None and len(items) != length:
        raise _fail(path, f"expected {length} numbers, got {len(items)}")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(items))


def _choice(node: Any, path: str, allowed: Tuple[str, ...]) -> str:
    value = _string(node, path)
    if value not in allowed:
        raise _fail(path, f"expected one of {', '.join(allowed)}; got {value!r}")
    return value


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


def build_field_spec(node: Any, path: str, dimension: int) -> FieldSpec:
    tree = _mapping(node, path)
    if "family" not in tree:
        raise _fail(path, "missing required key 'family'")
    family = _choice(tree["family"], f"{path}.family", FIELD_FAMILIES)
    if family == "constant":
        _check_keys(tree, path, ("family", "constant"))
        return ConstantField(_number(tree["constant"], f"{path}.constant"))
    if family == "linear":
        _check_keys(tree, path, ("family", "coefficients"), ("offset",))
        coeffs = _numbers(tree["coefficients"], f"{path}.coefficients",
                          dimension)
        offset = _number(tree.get("offset", 0.0), f"{path}.offset")
        return LinearField(coeffs, offset)
    if family == "gaussian":
        _check_keys(tree, path, ("family", "amplitude", "center", "width"),
                    ("axes",))
        axes = None
        if "axes" in tree:
            axes = tuple(_integer(a, f"{path}.axes[{i}]")
                         for i, a in enumerate(_array(tree["axes"],
                                                      f"{path}.axes")))
            for i, a in enumerate(axes):
                if not 0 <= a < dimension:
                    raise _fail(f"{path}.axes[{i}]",
                                f"axis {a} outside 0..{dimension - 1}")
        return GaussianField(
            _number(tree["amplitude"], f"{path}.amplitude"),
            _numbers(tree["center"], f"{path}.center", dimension),
            _positive(tree["width"], f"{path}.width"),
            axes=axes,
        )
    if family == "radial_polynomial":
        _check_keys(tree, path, ("family", "coefficients"))
        return RadialPolynomial(_numbers(tree["coefficients"],
                                         f"{path}.coefficients"))
    if family == "combination":
        _check_keys(tree, path, ("family", "terms"))
        terms = []
        for i, raw in enumerate(_array(tree["terms"], f"{path}.terms")):
            term = _mapping(raw, f"{path}.terms[{i}]")
            _check_keys(term, f"{path}.terms[{i}]", ("weight", "spec"))
            terms.append((
                _number(term["weight"], f"{path}.terms[{i}].weight"),
                build_field_spec(term["spec"], f"{path}.terms[{i}].spec",
                                 dimension),
            ))
        return CombinationField(tuple(terms))
    # tabulated: the value grid is checked against the manifold at build time
    _check_keys(tree, path, ("family", "values"))
    _array(tree["values"], f"{path}.values")
    return _TabulatedStub(tree["values"])


@dataclass(frozen=True)
class _TabulatedStub:
    """Placeholder until the manifold is known; built in build_runtime."""

    raw_values: Any


# -- parsed blocks ------------------------------------------------------------


@dataclass(frozen=True)
class ManifoldBlock:
    dimension: int
    bounds: Tuple[Tuple[float, float], ...]
    spacing: Optional[Tuple[float, ...]]
    nodes: Optional[int]
    signature: str


@dataclass(frozen=True)
class FieldsBlock:
    theta: FieldSpec
    phi: FieldSpec
    gradient_mode: str
    gradient_step: Optional[float]


@dataclass(frozen=True)
class GaugeBlock:
    g_r: float
    g_i: float
    h_i: float
    photon: Tuple[FieldSpec, ...]
    alpha: Optional[FieldSpec]
    gamma: Optional[FieldSpec]


@dataclass(frozen=True)
class OutcomeSpec:
    location: Tuple[float, ...]
    kind: str
    payload: Any


@dataclass(frozen=True)
class Task:
    type: str
    params: Dict[str, Any]


@dataclass(frozen=True)
class Scenario:
    manifold: ManifoldBlock
    fields: FieldsBlock
    gauge: Optional[GaugeBlock]
    tasks: Tuple[Task, ...]
    seed: Optional[int]
    output: Optional[str]


# -- block parsers ------------------------------------------------------------


def _parse_manifold(node: Any, path: str) -> ManifoldBlock:
    tree = _mapping(node, path)
    _check_keys(tree, path, ("dimension", "bounds"),
                ("spacing", "nodes", "signature"))
    dim = _integer(tree["dimension"], f"{path}.dimension")
    if dim not in SIGNATURES:
        raise _fail(f"{path}.dimension", "must be 3 or 4")
    raw_bounds = _array(tree["bounds"], f"{path}.bounds")
    if len(raw_bounds) != dim:
        raise _fail(f"{path}.bounds", f"expected {dim} [lo, hi] pairs")
    bounds = tuple(
        tuple(_numbers(pair, f"{path}.bounds[{i}]", 2))
        for i, pair in enumerate(raw_bounds)
    )
    if ("spacing" in tree) == ("nodes" in tree):
        raise _fail(path, "give exactly one of 'spacing' or 'nodes'")
    spacing = nodes = None
    if "spacing" in tree:
        raw = tree["spacing"]
        if isinstance(raw, list):
            spacing = _numbers(raw, f"{path}.spacing", dim)
        else:
            spacing = (_number(raw, f"{path}.spacing"),) * dim
    else:
        nodes = _integer(tree["nodes"], f"{path}.nodes")
        if nodes < 2:
            raise _fail(f"{path}.nodes", "need at least 2 nodes per axis")
    signature = _choice(tree.get("signature", SIGNATURES[dim]),
                        f"{path}.signature", ("euclidean", "minkowski"))
    if signature != SIGNATURES[dim]:
        raise _fail(f"{path}.signature",
                    f"dimension {dim} carries the {SIGNATURES[dim]} signature")
    return ManifoldBlock(dim, bounds, spacing, nodes, signature)


def _parse_fields(node: Any, path: str, dim: int) -> FieldsBlock:
    tree = _mapping(node, path)
    _check_keys(tree, path, ("theta",), ("phi", "gradient_mode",
                                         "gradient_step"))
    theta = build_field_spec(tree["theta"], f"{path}.theta", dim)
    phi: FieldSpec = ConstantField(0.0)
    if "phi" in tree:
        phi = build_field_spec(tree["phi"], f"{path}.phi", dim)
    mode = _choice(tree.get("gradient_mode", "analytic"),
                   f"{path}.gradient_mode", ("analytic", "central"))
    step = None
    if "gradient_step" in tree:
        step = _number(tree["gradient_step"], f"{path}.gradient_step")
    return FieldsBlock(theta, phi, mode, step)


def _parse_gauge(node: Any, path: str, dim: int) -> GaugeBlock:
    tree = _mapping(node, path)
    _check_keys(tree, path, ("g_r", "g_i", "h_i", "photon"),
                ("alpha", "gamma"))
    raw_photon = _array(tree["photon"], f"{path}.photon")
    if len(raw_photon) != dim:
        raise _fail(f"{path}.photon", f"expected {dim} component specs")
    photon = tuple(
        build_field_spec(spec, f"{path}.photon[{i}]", dim)
        for i, spec in enumerate(raw_photon)
    )
    alpha = gamma = None
    if "alpha" in tree:
        alpha = build_field_spec(tree["alpha"], f"{path}.alpha", dim)
    if "gamma" in tree:
        gamma = build_field_spec(tree["gamma"], f"{path}.gamma", dim)
    return GaugeBlock(_number(tree["g_r"], f"{path}.g_r"),
                      _number(tree["g_i"], f"{path}.g_i"),
                      _number(tree["h_i"], f"{path}.h_i"),
                      photon, alpha, gamma)


def _parse_outcome(node: Any, path: str, dim: int) -> OutcomeSpec:
    tree = _mapping(node, path)
    _check_keys(tree, path, ("location", "kind", "payload"))
    kind = _choice(tree["kind"], f"{path}.kind", tuple(KINDS))
    payload: Any
    if kind == "complex":
        parts = _array(tree["payload"], f"{path}.payload")
        if len(parts) != 2:
            raise _fail(f"{path}.payload", "complex payload is [re, im]")
        payload = (_exact(parts[0], f"{path}.payload[0]"),
                   _exact(parts[1], f"{path}.payload[1]"))
    else:
        payload = _exact(tree["payload"], f"{path}.payload")
    return OutcomeSpec(_numbers(tree["location"], f"{path}.location", dim),
                       kind, payload)


def _parse_path_spec(node: Any, path: str, dim: int) -> Dict[str, Any]:
    tree = _mapping(node, path)
    if "kind" not in tree:
        raise _fail(path, "missing required key 'kind'")
    kind = _choice(tree["kind"], f"{path}.kind", PATH_KINDS)
    if kind == "segment":
        _check_keys(tree, path, ("kind", "start", "end"))
        return {"kind": kind,
                "start": _numbers(tree["start"], f"{path}.start", dim),
                "end": _numbers(tree["end"], f"{path}.end", dim)}
    _check_keys(tree, path, ("kind", "vertices"))
    vertices = _array(tree["vertices"], f"{path}.vertices")
    if len(vertices) < 2:
        raise _fail(f"{path}.vertices", "need at least two vertices")
    return {"kind": kind,
            "vertices": tuple(_numbers(v, f"{path}.vertices[{i}]", dim)
                              for i, v in enumerate(vertices))}


def _parse_task(node: Any, path: str, dim: int) -> Task:
    tree = _mapping(node, path)
    if "type" not in tree:
        raise _fail(path, "missing required key 'type'")
    kind = _choice(tree["type"], f"{path}.type", TASK_TYPES)
    p: Dict[str, Any] = {}
    if kind == "axioms":
        _check_keys(tree, path, ("type", "kind", "t", "s"),
                    ("samples", "stride"))
        p["kind"] = _choice(tree["kind"], f"{path}.kind", tuple(KINDS))
        p["t"] = _exact(tree["t"], f"{path}.t")
        p["s"] = _exact(tree["s"], f"{path}.s")
        p["samples"] = _integer(tree.get("samples", 100), f"{path}.samples")
        p["stride"] = (_integer(tree["stride"], f"{path}.stride")
                       if "stride" in tree else None)
    elif kind == "geodesic":
        _check_keys(tree, path, ("type", "position", "velocity", "tau_end"),
                    ("h_tau", "drag_contraction"))
        p["position"] = _numbers(tree["position"], f"{path}.position", dim)
        p["velocity"] = _numbers(tree["velocity"], f"{path}.velocity", dim)
        p["tau_end"] = _positive(tree["tau_end"], f"{path}.tau_end")
        p["h_tau"] = _positive(tree.get("h_tau", 1e-3), f"{path}.h_tau")
        p["drag_contraction"] = _choice(
            tree.get("drag_contraction", "euclidean"),
            f"{path}.drag_contraction", ("euclidean", "minkowski"))
    elif kind == "pathlen":
        _check_keys(tree, path, ("type", "path"), ("x_ref", "steps"))
        p["path"] = _parse_path_spec(tree["path"], f"{path}.path", dim)
        p["x_ref"] = (_numbers(tree["x_ref"], f"{path}.x_ref", dim)
                      if "x_ref" in tree else None)
        p["steps"] = _integer(tree.get("steps", 1000), f"{path}.steps")
        if p["steps"] < 2:
            raise _fail(f"{path}.steps", "need at least 2 quadrature steps")
    elif kind == "wavepacket":
        _check_keys(tree, path, ("type", "center", "width", "x0"),
                    ("momentum", "time_slice"))
        spatial = dim - 1 if dim == 4 else dim
        p["center"] = _numbers(tree["center"], f"{path}.center", spatial)
        p["width"] = _positive(tree["width"], f"{path}.width")
        p["x0"] = _numbers(tree["x0"], f"{path}.x0", dim)
        p["momentum"] = (_numbers(tree["momentum"], f"{path}.momentum",
                                  spatial)
                         if "momentum" in tree else None)
        p["time_slice"] = (_number(tree["time_slice"], f"{path}.time_slice")
                           if "time_slice" in tree else None)
    elif kind == "gauge-check":
        _check_keys(tree, path, ("type",), ("stride",))
        p["stride"] = _integer(tree.get("stride", 1), f"{path}.stride")
        if p["stride"] < 1:
            raise _fail(f"{path}.stride", "must be at least 1")
    else:
        _check_keys(tree, path, ("type", "reference", "target"), ("mode",))
        p["reference"] = _parse_outcome(tree["reference"],
                                        f"{path}.reference", dim)
        p["target"] = _parse_outcome(tree["target"], f"{path}.target", dim)
        p["mode"] = _choice(tree.get("mode", "physical-transmission"),
                            f"{path}.mode",
                            ("physical-transmission", "parallel-transform"))
    return Task(kind, p)


def parse_scenario_text(text: str) -> Scenario:
    try:
        root = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioParseError(
            f"line {err.lineno}, column {err.colno}: {err.msg}")
    tree = _mapping(root, "scenario")
    _check_keys(tree, "scenario", ("manifold", "fields", "tasks"),
                ("gauge", "seed", "output"))
    manifold = _parse_manifold(tree["manifold"], "scenario.manifold")
    fields = _parse_fields(tree["fields"], "scenario.fields",
                           manifold.dimension)
    gauge = None
    if "gauge" in tree:
        gauge = _parse_gauge(tree["gauge"], "scenario.gauge",
                             manifold.dimension)
    raw_tasks = _array(tree["tasks"], "scenario.tasks")
    if not raw_tasks:
        raise _fail("scenario.tasks", "need at least one task")
    tasks = tuple(_parse_task(t, f"scenario.tasks[{i}]", manifold.dimension)
                  for i, t in enumerate(raw_tasks))
    seed = (_integer(tree["seed"], "scenario.seed")
            if "seed" in tree else None)
    output = (_string(tree["output"], "scenario.output")
              if "output" in tree else None)
    return Scenario(manifold, fields, gauge, tasks, seed, output)


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


def _build_spec(spec: FieldSpec, manifold: Manifold, label: str) -> FieldSpec:
    if isinstance(spec, _TabulatedStub):
        try:
            return TabulatedField(manifold, spec.raw_values)
        except (TypeError, ValueError, ScenarioValidationError) as err:
            raise ScenarioValidationError(f"{label}: {err}")
    if isinstance(spec, CombinationField):
        return CombinationField(tuple(
            (w, _build_spec(s, manifold, label)) for w, s in spec.terms))
    return spec


def validate_scenario(scenario: Scenario) -> RuntimeScenario:
    """Check cross-field requirements and assemble the runtime objects."""
    block = scenario.manifold
    try:
        if block.nodes is not None:
            manifold = Manifold.box(block.bounds, block.nodes)
        else:
            manifold = Manifold(block.dimension, block.bounds, block.spacing)
    except ValueError as err:
        raise ScenarioValidationError(f"scenario.manifold: {err}")

    try:
        theta = _build_spec(scenario.fields.theta, manifold,
                            "scenario.fields.theta")
        phi = _build_spec(scenario.fields.phi, manifold,
                          "scenario.fields.phi")
        fieldref = ScalingField(manifold, theta, phi,
                                gradient_mode=scenario.fields.gradient_mode,
                                gradient_step=scenario.fields.gradient_step)
    except (ValueError, ScaleFieldError) as err:
        if isinstance(err, ScenarioValidationError):
            raise
        raise ScenarioValidationError(f"scenario.fields: {err}")

    gauge_config = gauge_transform = None
    if scenario.gauge is not None:
        g = scenario.gauge
        photon = tuple(_build_spec(s, manifold, f"scenario.gauge.photon[{i}]")
                       for i, s in enumerate(g.photon))
        gauge_config = GaugeConfig(g.g_r, g.g_i, g.h_i, photon)
        if (g.alpha is None) != (g.gamma is None):
            raise ScenarioValidationError(
                "scenario.gauge: alpha and gamma come as a pair")
        if g.alpha is not None:
            gauge_transform = GaugeTransform(
                _build_spec(g.alpha, manifold, "scenario.gauge.alpha"),
                _build_spec(g.gamma, manifold, "scenario.gauge.gamma"))
            if fieldref.gradient_mode == "analytic":
                for name, spec in (("alpha", gauge_transform.alpha),
                                   ("gamma", gauge_transform.gamma)):
                    if not spec.has_analytic_gradient:
                        raise ScenarioValidationError(
                            f"scenario.gauge.{name}: no analytic gradient; "
                            "use central-difference mode")

    needs_seed = [i for i, t in enumerate(scenario.tasks)
                  if t.type in RANDOMIZED_TASKS]
    if needs_seed and scenario.seed is None:
        raise ScenarioValidationError(
            f"scenario.seed: required because tasks"
            f"{needs_seed} draw random samples")

    for i, task in enumerate(scenario.tasks):
        label = f"scenario.tasks[{i}]"
        if task.type == "gauge-check":
            if gauge_config is None or gauge_transform is None:
                raise ScenarioValidationError(
                    f"{label}: gauge-check needs a gauge block with an "
                    "alpha/gamma transform split")
        if task.type == "geodesic":
            p = task.params
            if not manifold.contains(np.array(p["position"])):
                raise ScenarioValidationError(
                    f"{label}.position: point {list(p['position'])} "
                    "outside bounds")
            steps = p["tau_end"] / p["h_tau"]
            if np.isinf(steps) or round(steps) > MAX_GEODESIC_STEPS:
                raise ScenarioValidationError(
                    f"{label}.h_tau: tau_end / h_tau = {steps:.6g} steps, "
                    f"more than the limit of {MAX_GEODESIC_STEPS}")
        if task.type == "wavepacket":
            if manifold.dimension == 4 and task.params["time_slice"] is None:
                raise ScenarioValidationError(
                    f"{label}.time_slice: required on a 4-dimensional grid")
        if task.type == "axioms":
            if task.params["samples"] < 3:
                raise ScenarioValidationError(
                    f"{label}.samples: need at least 3")
            if task.params["kind"] != "natural" and task.params["stride"]:
                raise ScenarioValidationError(
                    f"{label}.stride: only natural structures carry a stride")

    return RuntimeScenario(scenario, manifold, fieldref, gauge_config,
                           gauge_transform)
