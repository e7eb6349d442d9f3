"""Scenario files: strict two-way key checking and semantic validation.

Every structural defect must be a parse error naming the offending field by
dotted path; cross-field requirements are validation errors.  The round
trip test pins the documented defaults (phi, gradient mode, task knobs).
"""

import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from scalefield.cli import main
from scalefield.errors import ScenarioParseError, ScenarioValidationError
from scalefield.fields import (
    CombinationField,
    ConstantField,
    FieldSpec,
    GaussianField,
    LinearField,
    TabulatedField,
)
from scalefield.paths import PolylinePath, local_path_length
from scalefield.scenario import (
    TASKS,
    parse_scenario,
    parse_scenario_text,
    validate_scenario,
)


DEMO = Path(__file__).resolve().parent.parent / "scenarios" / "demo.json"


def base():
    return {
        "manifold": {"dimension": 3,
                     "bounds": [[-2.0, 2.0] for _ in range(3)], "nodes": 9},
        "fields": {"theta": {"family": "constant", "constant": 0.0}},
        "tasks": [{"type": "pathlen",
                   "path": {"kind": "segment",
                            "start": [0.0, 0.0, 0.0],
                            "end": [1.0, 0.0, 0.0]}}],
    }


def parse(doc):
    return parse_scenario_text(json.dumps(doc))


def fail_with(doc, fragment):
    with pytest.raises(ScenarioParseError, match=fragment):
        parse(doc)


# -- structural parsing --------------------------------------------------------


def test_minimal_scenario_parses_with_defaults():
    sc = parse(base())
    assert sc.manifold["dimension"] == 3
    assert sc.manifold["nodes"] == 9 and sc.manifold["spacing"] is None
    assert sc.manifold["signature"] == "euclidean"
    assert sc.fields["phi"] == {"family": "constant", "constant": 0.0}
    assert sc.fields["gradient_mode"] == "analytic"
    assert sc.fields["gradient_step"] is None
    assert sc.gauge is None and sc.seed is None and sc.output is None
    task = sc.tasks[0]
    assert task.params["steps"] == 1000
    assert task.params["x_ref"] is None


def test_bad_json_reports_the_source_line():
    with pytest.raises(ScenarioParseError, match="line 2"):
        parse_scenario_text('{\n "manifold": }')


def test_unknown_key_is_named_by_dotted_path():
    doc = base()
    doc["manifold"]["extra"] = 1
    fail_with(doc, r"scenario\.manifold\.extra: unknown key")


def test_unknown_top_level_key():
    doc = base()
    doc["comment"] = "hi"
    fail_with(doc, r"scenario\.comment: unknown key")


def test_unknown_field_family_lists_the_choices():
    doc = base()
    doc["fields"]["theta"] = {"family": "quadratic"}
    fail_with(doc, r"scenario\.fields\.theta\.family.*quadratic")


def test_unknown_task_type_is_an_error():
    doc = base()
    doc["tasks"][0]["type"] = "orbit"
    fail_with(doc, r"scenario\.tasks\[0\]\.type")


def test_tasks_must_be_nonempty():
    doc = base()
    doc["tasks"] = []
    fail_with(doc, "at least one task")


def test_wrong_node_types_are_refused():
    doc = base()
    doc["manifold"]["nodes"] = 8.5
    fail_with(doc, r"scenario\.manifold\.nodes.*integer")
    doc["manifold"]["nodes"] = True
    fail_with(doc, r"scenario\.manifold\.nodes.*integer")
    doc = base()
    doc["manifold"]["bounds"][1][0] = "low"
    fail_with(doc, r"scenario\.manifold\.bounds\[1\]\[0\].*number")


def test_dimension_must_be_3_or_4():
    doc = base()
    doc["manifold"]["dimension"] = 5
    fail_with(doc, r"scenario\.manifold\.dimension")


def test_bounds_count_must_match_dimension():
    doc = base()
    doc["manifold"]["bounds"] = [[-2.0, 2.0]] * 2
    fail_with(doc, r"scenario\.manifold\.bounds.*3")


def test_spacing_and_nodes_are_mutually_exclusive():
    doc = base()
    doc["manifold"]["spacing"] = 0.5
    fail_with(doc, "exactly one of")
    del doc["manifold"]["spacing"]
    del doc["manifold"]["nodes"]
    fail_with(doc, "exactly one of")


def test_nodes_floor():
    doc = base()
    doc["manifold"]["nodes"] = 1
    fail_with(doc, "at least 2 nodes")


def test_signature_is_fixed_by_the_dimension():
    doc = base()
    doc["manifold"]["signature"] = "minkowski"
    fail_with(doc, r"scenario\.manifold\.signature.*euclidean")
    doc["manifold"]["signature"] = "euclidean"
    assert parse(doc).manifold["signature"] == "euclidean"


def test_linear_coefficients_length_is_checked():
    doc = base()
    doc["fields"]["theta"] = {"family": "linear", "coefficients": [1.0, 2.0]}
    fail_with(doc, r"theta\.coefficients.*3 numbers")


def test_gaussian_axes_must_be_in_range():
    doc = base()
    doc["fields"]["theta"] = {"family": "gaussian", "amplitude": 1.0,
                              "center": [0.0, 0.0, 0.0], "width": 1.0,
                              "axes": [0, 3]}
    fail_with(doc, r"theta\.axes\[1\].*outside")


def test_combination_terms_parse_recursively():
    doc = base()
    doc["fields"]["theta"] = {
        "family": "combination",
        "terms": [
            {"weight": 2.0, "spec": {"family": "constant", "constant": 1.0}},
            {"weight": -1.0, "spec": {"family": "linear",
                                      "coefficients": [0.0, 1.0, 0.0]}},
        ],
    }
    parsed = parse(doc).fields["theta"]
    assert parsed["family"] == "combination"
    assert parsed["terms"][0] == {
        "weight": 2.0, "spec": {"family": "constant", "constant": 1.0}}
    assert parsed["terms"][1]["spec"]["family"] == "linear"
    # validation builds the field, weights and all
    theta = ok(doc).field.theta
    assert isinstance(theta, CombinationField)
    assert theta.terms == ((2.0, ConstantField(1.0)),
                           (-1.0, LinearField((0.0, 1.0, 0.0))))
    assert theta.value(np.array([0.0, 3.0, 0.0])) == 2.0 - 3.0


PLAIN = (dict, tuple, list, str, int, float, Fraction, type(None))


def _library_objects(value, path="scenario"):
    """Every value in a parsed tree that is not plain data, by path."""
    if not isinstance(value, PLAIN):
        return [(path, type(value).__name__)]
    if isinstance(value, dict):
        return [bad for key, item in value.items()
                for bad in _library_objects(item, f"{path}.{key}")]
    if isinstance(value, (tuple, list)):
        return [bad for i, item in enumerate(value)
                for bad in _library_objects(item, f"{path}[{i}]")]
    return []


def _tabulated_doc():
    doc = base()
    doc["manifold"]["nodes"] = 3
    doc["fields"] = {"theta": {"family": "tabulated",
                               "values": [[[0.5] * 3] * 3] * 3},
                     "gradient_mode": "central"}
    return doc


def _nested_combination_doc():
    doc = base()
    gaussian = {"family": "gaussian", "amplitude": 0.5,
                "center": [0.0, 0.0, 0.0], "width": 0.8, "axes": [1, 2]}
    inner = {"family": "combination",
             "terms": [{"weight": 0.5, "spec": gaussian},
                       {"weight": 2.0, "spec": {"family": "radial_polynomial",
                                                "coefficients": [0.0, 0.1]}}]}
    doc["fields"]["theta"] = {"family": "combination",
                              "terms": [{"weight": -1.0, "spec": inner}]}
    doc["gauge"] = {"g_r": 1.0, "g_i": 1.0, "h_i": 0.5,
                    "photon": [inner] * 3, "alpha": gaussian,
                    "gamma": {"family": "constant", "constant": 0.1}}
    return doc


@pytest.mark.parametrize("name", ["demo", "tabulated", "nested-combination"])
def test_parsing_yields_plain_data(name):
    if name == "demo":
        sc = parse_scenario(str(DEMO))
    else:
        sc = parse({"tabulated": _tabulated_doc,
                    "nested-combination": _nested_combination_doc}[name]())
    blocks = {"manifold": sc.manifold, "fields": sc.fields, "gauge": sc.gauge,
              "tasks": [t.params for t in sc.tasks], "seed": sc.seed,
              "output": sc.output}
    assert _library_objects(blocks) == []
    # and the data are a valid scenario, whose specs validation builds
    assert isinstance(validate_scenario(sc).field.theta, FieldSpec)


def test_validation_builds_a_combination_once(monkeypatch):
    built = []
    post_init = CombinationField.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(CombinationField, "__post_init__", counted)
    doc = base()
    doc["fields"]["theta"] = {
        "family": "combination",
        "terms": [{"weight": 2.0,
                   "spec": {"family": "constant", "constant": 1.0}}]}
    rt = validate_scenario(parse(doc))
    assert built == [rt.field.theta]


def test_exact_values_accept_integers_and_fraction_strings():
    doc = base()
    doc["seed"] = 1
    doc["tasks"] = [{"type": "axioms", "kind": "rational",
                     "t": "3/2", "s": 2}]
    task = parse(doc).tasks[0]
    assert task.params["t"] == Fraction(3, 2)
    assert task.params["s"] == Fraction(2)
    assert task.params["samples"] == 100


def test_floats_are_refused_where_exactness_matters():
    doc = base()
    doc["seed"] = 1
    doc["tasks"] = [{"type": "axioms", "kind": "rational",
                     "t": 1.5, "s": 2}]
    fail_with(doc, "floats would lose exactness")


def test_malformed_fraction_strings_are_refused():
    doc = base()
    doc["seed"] = 1
    doc["tasks"] = [{"type": "axioms", "kind": "rational",
                     "t": "3/2/5", "s": 2}]
    fail_with(doc, r"tasks\[0\]\.t.*not an exact number")


def test_polyline_needs_two_vertices():
    doc = base()
    doc["tasks"][0]["path"] = {"kind": "polyline",
                               "vertices": [[0.0, 0.0, 0.0]]}
    fail_with(doc, "two vertices")


def test_complex_payload_is_a_re_im_pair():
    doc = base()
    doc["tasks"] = [{"type": "compare",
                     "reference": {"location": [0.0, 0.0, 0.0],
                                   "kind": "complex", "payload": [1, 2, 3]},
                     "target": {"location": [1.0, 0.0, 0.0],
                                "kind": "complex", "payload": [1, 0]}}]
    fail_with(doc, r"reference\.payload.*\[re, im\]")


def test_missing_file_is_a_parse_error():
    with pytest.raises(ScenarioParseError, match="cannot read"):
        parse_scenario("/nonexistent/scenario.json")


# -- semantic validation -------------------------------------------------------


def ok(doc):
    return validate_scenario(parse(doc))


def invalid(doc, fragment):
    with pytest.raises(ScenarioValidationError, match=fragment):
        validate_scenario(parse(doc))


def test_randomized_tasks_require_a_seed():
    doc = base()
    doc["tasks"] = [{"type": "axioms", "kind": "rational", "t": "3/2",
                     "s": 2}]
    invalid(doc, "seed")
    doc["seed"] = 11
    assert ok(doc).scenario.seed == 11


def test_gauge_check_needs_a_gauge_block_with_a_transform():
    doc = base()
    doc["tasks"] = [{"type": "gauge-check"}]
    invalid(doc, "gauge-check needs a gauge block")
    doc["gauge"] = {"g_r": 1.0, "g_i": 1.0, "h_i": 0.5,
                    "photon": [{"family": "constant", "constant": 0.0}] * 3}
    invalid(doc, "gauge-check needs a gauge block")


def test_alpha_and_gamma_come_as_a_pair():
    doc = base()
    doc["gauge"] = {"g_r": 1.0, "g_i": 1.0, "h_i": 0.5,
                    "photon": [{"family": "constant", "constant": 0.0}] * 3,
                    "alpha": {"family": "constant", "constant": 0.2}}
    invalid(doc, "pair")


def test_photon_needs_one_spec_per_axis():
    doc = base()
    doc["gauge"] = {"g_r": 1.0, "g_i": 1.0, "h_i": 0.5,
                    "photon": [{"family": "constant", "constant": 0.0}] * 2}
    fail_with(doc, r"gauge\.photon.*3 component")


def test_wavepacket_on_a_4d_grid_needs_a_time_slice():
    doc = base()
    doc["manifold"] = {"dimension": 4, "bounds": [[-2.0, 2.0]] * 4,
                       "nodes": 9}
    doc["fields"]["theta"] = {"family": "constant", "constant": 0.0}
    doc["tasks"] = [{"type": "wavepacket", "center": [0.0, 0.0, 0.0],
                     "width": 0.5, "x0": [0.0, 0.0, 0.0, 0.0]}]
    invalid(doc, r"time_slice.*required")
    doc["tasks"][0]["time_slice"] = 0.0
    ok(doc)


def test_time_slice_on_a_3d_grid_is_a_validation_error():
    doc = base()
    doc["tasks"] = [{"type": "wavepacket", "center": [0.0, 0.0, 0.0],
                     "width": 0.5, "x0": [0.0, 0.0, 0.0], "time_slice": 0.0}]
    invalid(doc, re.escape("scenario.tasks[0]: time_slice only applies to "
                           "4-dimensional grids"))


def test_tabulated_values_must_match_the_grid_shape():
    doc = base()
    doc["manifold"]["nodes"] = 3
    grid = [[[0.0] * 3] * 3] * 2
    doc["fields"]["theta"] = {"family": "tabulated", "values": grid}
    invalid(doc, "shape")


def test_tabulated_values_of_the_right_shape_build():
    doc = base()
    doc["manifold"]["nodes"] = 3
    doc["fields"]["theta"] = {"family": "tabulated",
                              "values": [[[0.0] * 3] * 3] * 3}
    doc["fields"]["gradient_mode"] = "central"
    rt = ok(doc)
    assert isinstance(rt.field.theta, TabulatedField)


@pytest.mark.parametrize("cell", ["x", {}, "1.5"])
@pytest.mark.parametrize("where", ["fields.theta", "gauge.photon[0]",
                                   "gauge.alpha", "gauge.gamma"])
def test_non_numeric_tabulated_values_are_validation_errors(where, cell,
                                                            tmp_path):
    doc = base()
    doc["manifold"]["nodes"] = 3
    const = {"family": "constant", "constant": 0.0}
    bad = {"family": "tabulated", "values": [[[cell] * 3] * 3] * 3}
    doc["gauge"] = {"g_r": 1.0, "g_i": 1.0, "h_i": 0.5,
                    "photon": [const] * 3, "alpha": const, "gamma": const}
    if where == "fields.theta":
        doc["fields"]["theta"] = bad
    elif where == "gauge.photon[0]":
        doc["gauge"]["photon"] = [bad, const, const]
    else:
        doc["gauge"][where.split(".")[1]] = bad
    invalid(doc, re.escape(f"scenario.{where}: "))
    target = tmp_path / "scenario.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(target)]) == 3


@pytest.mark.parametrize("name", ["alpha", "gamma"])
def test_tabulated_transform_needs_central_gradients(name, tmp_path):
    doc = base()
    doc["manifold"]["nodes"] = 3
    const = {"family": "constant", "constant": 0.0}
    doc["gauge"] = {"g_r": 1.0, "g_i": 1.0, "h_i": 0.5,
                    "photon": [const] * 3, "alpha": const, "gamma": const}
    doc["gauge"][name] = {"family": "tabulated",
                          "values": [[[0.5] * 3] * 3] * 3}
    doc["tasks"] = [{"type": "gauge-check"}]
    invalid(doc, re.escape(f"scenario.gauge.{name}: no analytic gradient"))
    target = tmp_path / "scenario.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(target)]) == 3
    doc["fields"]["gradient_mode"] = "central"
    ok(doc)


@pytest.mark.parametrize("name", ["theta", "phi"])
def test_tabulated_field_needs_central_gradients(name, tmp_path, capsys):
    doc = base()
    doc["manifold"]["nodes"] = 3
    doc["fields"][name] = {"family": "tabulated",
                           "values": [[[0.5] * 3] * 3] * 3}
    message = f"scenario.fields: {name} has no analytic gradient"
    invalid(doc, re.escape(message))
    target = tmp_path / "scenario.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(target)]) == 3
    assert f"validation error: {message}" in capsys.readouterr().err
    doc["fields"]["gradient_mode"] = "central"
    ok(doc)


def test_manifold_construction_errors_become_validation_errors():
    doc = base()
    doc["manifold"]["bounds"][0] = [2.0, -2.0]
    invalid(doc, r"scenario\.manifold")


def test_stride_is_a_natural_only_knob(tmp_path, capsys):
    # a natural structure's stride is its factor t, so no kind takes one
    doc = base()
    doc["seed"] = 1
    for kind, t in (("rational", "3/2"), ("natural", 3)):
        doc["tasks"] = [{"type": "axioms", "kind": kind, "t": t, "s": 2,
                         "stride": 3}]
        target = tmp_path / f"{kind}.json"
        target.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(target)]) == 2
        assert "scenario.tasks[0].stride: unknown key" \
            in capsys.readouterr().err


def test_axiom_samples_floor():
    doc = base()
    doc["seed"] = 1
    doc["tasks"] = [{"type": "axioms", "kind": "rational", "t": "3/2",
                     "s": 2, "samples": 2}]
    invalid(doc, "at least 3")


def test_gaussian_theta_with_axes_survives_validation():
    doc = base()
    doc["fields"]["theta"] = {"family": "gaussian", "amplitude": 0.5,
                              "center": [0.0, 0.0, 0.0], "width": 0.8,
                              "axes": [1, 2]}
    rt = ok(doc)
    assert isinstance(rt.field.theta, GaussianField)
    assert rt.field.theta.axes == (1, 2)


def test_gauge_check_budget_counts_the_interior_before_the_stride():
    doc = base()
    const = {"family": "constant", "constant": 0.0}
    doc["gauge"] = {"g_r": 1.0, "g_i": 1.0, "h_i": 0.5,
                    "photon": [const] * 3, "alpha": const, "gamma": const}
    doc["tasks"] = [{"type": "gauge-check", "stride": 7}]
    doc["manifold"]["nodes"] = 217  # 215**3 = 9,938,375 interior points
    ok(doc)
    doc["manifold"]["nodes"] = 218  # 216**3 = 10,077,696, 1,439,671 strided
    invalid(doc, re.escape("scenario.tasks[0]: 1.00777e+07 interior grid "
                           "points, more than the limit of 10000000"))


@pytest.mark.parametrize("segments, steps, nodes", [
    (1000, 2500, 4928), (3, 1000, 1005), (1, 7, 9)])
def test_pathlen_budget_counts_the_nodes_the_quadrature_evaluates(
        monkeypatch, segments, steps, nodes):
    x = np.linspace(-1.0, 1.0, segments + 1)
    doc = base()
    doc["tasks"] = [{"type": "pathlen", "steps": steps,
                     "path": {"kind": "polyline",
                              "vertices": np.stack([x, x * x, 0 * x],
                                                   axis=-1).tolist()}}]
    rt = ok(doc)
    evaluated = []
    piece_velocity = PolylinePath.piece_velocity

    def counted(self, s, a, b):
        evaluated.append(np.size(s))
        return piece_velocity(self, s, a, b)

    monkeypatch.setattr(PolylinePath, "piece_velocity", counted)
    q, _ = rt.inputs[0]
    local_path_length(q, rt.manifold, steps)
    params = rt.scenario.tasks[0].params
    assert TASKS["pathlen"].work(params, rt.manifold) \
        == ("steps", sum(evaluated)) == ("steps", nodes)


def _deep_combination(depth):
    spec = {"family": "constant", "constant": 0.0}
    for _ in range(depth):
        spec = {"family": "combination",
                "terms": [{"weight": 1.0, "spec": spec}]}
    return spec


@pytest.mark.parametrize("text, code, fragment", [
    (json.dumps(base()).replace('"nodes": 9', '"nodes": ' + "9" * 5000),
     2, "scenario: Exceeds the limit"),
    (json.dumps({**base(), "fields": {"theta": _deep_combination(300)}}),
     2, "scenario: nested too deeply"),
    (json.dumps(base()).replace('"nodes": 9', '"nodes": ' + "9" * 30),
     2, "scenario.manifold.nodes: integer outside the signed 64-bit range"),
    (json.dumps(base()).replace('"constant": 0.0', '"constant": 1' + "0" * 400),
     2, "scenario.fields.theta.constant: number must be finite"),
    (json.dumps(base()).replace('"nodes": 9', '"spacing": 1e-320'),
     3, "scenario.manifold: "),
    (json.dumps({**base(), "seed": 1,
                 "tasks": [{"type": "axioms", "kind": "rational",
                            "t": "1e99999999", "s": 2}]}),
     2, "scenario.tasks[0].t: not an exact number: decimal exponent "
        "99999999 beyond the limit of 4300"),
    (json.dumps({**base(), "fields": {"theta": {
        "family": "radial_polynomial", "coefficients": []}}}),
     2, "scenario.fields.theta.coefficients: need at least one coefficient"),
], ids=["integer-digits", "nesting", "int64", "huge-integer", "tiny-spacing",
        "decimal-exponent", "empty-radial-polynomial"])
def test_extreme_inputs_are_parse_or_validation_errors(tmp_path, capsys, text,
                                                       code, fragment):
    target = tmp_path / "scenario.json"
    target.write_text(text, encoding="utf-8")
    assert main(["validate", str(target)]) == code
    assert fragment in capsys.readouterr().err
