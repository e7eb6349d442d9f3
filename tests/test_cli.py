"""End-to-end runs of the CLI: exit codes, output layout, determinism."""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scalefield import runner, scenario
from scalefield.cli import main
from scalefield.csvio import render_csv
from scalefield.fields import (
    ConstantField,
    GaussianField,
    LinearField,
    ScalingField,
    TabulatedField,
)
from scalefield.gauge import GaugeConfig, GaugeTransform, invariance_residual
from scalefield.manifold import Manifold
from scalefield.outcomes import compare_outcomes
from scalefield.runner import OUTPUT_ENV_VAR, resolve_output_dir
from scalefield.scenario import parse_scenario
from test_csvio import assert_same_lines

DEMO = Path(__file__).resolve().parent.parent / "scenarios" / "demo.json"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(OUTPUT_ENV_VAR, raising=False)


def minimal(tasks=None, **extra):
    doc = {
        "manifold": {"dimension": 3, "bounds": [[-2.0, 2.0]] * 3, "nodes": 9},
        "fields": {"theta": {"family": "linear",
                             "coefficients": [1.0, 0.0, 0.0]}},
        "tasks": tasks or [
            {"type": "pathlen",
             "path": {"kind": "segment",
                      "start": [0.0, 0.0, 0.0], "end": [1.0, 0.0, 0.0]}}],
    }
    doc.update(extra)
    return doc


def write(tmp_path, doc, name="scenario.json"):
    target = tmp_path / name
    target.write_text(json.dumps(doc), encoding="utf-8")
    return str(target)


def summary_of(out_dir):
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        return json.load(fh)


def strict_summary_of(out_dir):
    """summary.json, refusing the NaN and Infinity tokens JSON lacks."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        return json.load(fh, parse_constant=refuse)


def test_demo_scenario_runs_clean(tmp_path):
    out = tmp_path / "run"
    assert main(["run", str(DEMO), "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["00_axioms.csv", "01_pathlen.csv", "02_geodesic.csv",
                     "03_wavepacket.csv", "04_gauge-check.csv",
                     "05_compare.csv", "summary.json"]


def test_verbose_run_reports_each_task_and_writes_the_same_bytes(
        tmp_path, capsys):
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    assert main(["run", str(DEMO), "--out", str(quiet)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["run", str(DEMO), "--out", str(loud), "--verbose"]) == 0
    kinds = [t["type"] for t in
             json.loads(DEMO.read_text(encoding="utf-8"))["tasks"]]
    assert capsys.readouterr().out.splitlines() == [
        *(f"[{i:02d}] {kind}: ok" for i, kind in enumerate(kinds)),
        f"wrote {len(kinds)} task results to {loud}"]
    names = sorted(p.name for p in quiet.iterdir())
    assert names == sorted(p.name for p in loud.iterdir())
    for name in names:
        assert (loud / name).read_bytes() == (quiet / name).read_bytes(), name


def test_demo_summary_headline_numbers(tmp_path):
    out = str(tmp_path / "run")
    assert main(["run", str(DEMO), "--out", out]) == 0
    summary = summary_of(out)
    assert summary["status"] == "ok"
    assert summary["seed"] == 7
    tasks = summary["tasks"]
    assert [t["seed"] for t in tasks] == [7, 8, 9, 10, 11, 12]
    assert tasks[0]["results"]["all_passed"] is True
    scaled = tasks[1]["results"]["scaled_length"]
    assert scaled == pytest.approx(math.e - 1.0, rel=1e-12)
    assert tasks[4]["results"]["max_residual"] < 1e-10
    ratio = tasks[5]["results"]["ratio"]
    assert ratio[0] == pytest.approx(math.e, rel=1e-12) and ratio[1] == 0.0
    assert tasks[5]["results"]["values_match"] is False
    assert sorted(tasks[5]["results"]) == [
        "equal", "mismatch_factor", "ratio", "transported", "values_match"]


def _csv_cells(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        return header, np.loadtxt(fh, delimiter=",", ndmin=2)


@pytest.mark.parametrize("c", [0.7, -3.0, 40.0, 800.0, -800.0])
def test_demo_with_theta_shifted_by_a_constant_runs_as_the_demo(tmp_path, c):
    # the paper: the scaling field does not affect comparisons of outputs
    # with one another.  theta + c leaves Gamma, every f(y)/f(x) and every
    # verdict alone; only values that add c to theta and subtract it again
    # at points off the nodes round differently, by a few ulp
    base, out = tmp_path / "base", tmp_path / "shifted"
    assert main(["run", str(DEMO), "--out", str(base)]) == 0
    doc = json.loads(DEMO.read_text(encoding="utf-8"))
    doc["fields"]["theta"] = {"family": "combination", "terms": [
        {"weight": 1.0, "spec": doc["fields"]["theta"]},
        {"weight": 1.0, "spec": {"family": "constant", "constant": c}}]}
    path = write(tmp_path, doc)
    assert main(["validate", path]) == 0
    assert main(["run", path, "--out", str(out)]) == 0
    for name in ("00_axioms.csv", "02_geodesic.csv", "04_gauge-check.csv",
                 "05_compare.csv"):
        assert (out / name).read_bytes() == (base / name).read_bytes(), name
    for name in ("01_pathlen.csv", "03_wavepacket.csv"):
        (want_header, want), (header, got) = map(
            _csv_cells, (base / name, out / name))
        assert header == want_header
        np.testing.assert_array_max_ulp(got, want, maxulp=4)
    want, got = summary_of(base), summary_of(out)
    assert got["status"] == want["status"] == "ok"
    for w, g in zip(want["tasks"], got["tasks"], strict=True):
        assert g["status"] == w["status"], w["type"]
        if w["type"] == "pathlen":
            np.testing.assert_array_max_ulp(g["results"].pop("scaled_length"),
                                            w["results"].pop("scaled_length"),
                                            maxulp=4)
        assert g["results"] == w["results"], w["type"]


def test_demo_gauge_check_covers_strided_interior_points(tmp_path):
    out = str(tmp_path / "run")
    main(["run", str(DEMO), "--out", out])
    summary = summary_of(out)
    assert summary["tasks"][4]["results"]["points"] == 343  # 7**4 / 7


def test_reruns_are_byte_identical(tmp_path):
    first, second = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", str(DEMO), "--out", first]) == 0
    assert main(["run", str(DEMO), "--out", second]) == 0
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second))
    for name in names:
        a = Path(first, name).read_bytes()
        b = Path(second, name).read_bytes()
        assert a == b, name


def test_summary_contains_no_absolute_paths(tmp_path):
    out = tmp_path / "run"
    main(["run", str(DEMO), "--out", str(out)])
    text = (out / "summary.json").read_text(encoding="utf-8")
    assert str(DEMO.parent) not in text
    assert str(tmp_path) not in text


def test_seed_override_wins_over_the_scenario_seed(tmp_path):
    out = str(tmp_path / "run")
    assert main(["run", str(DEMO), "--out", out, "--seed", "99"]) == 0
    summary = summary_of(out)
    assert summary["seed"] == 99
    assert summary["tasks"][0]["seed"] == 99


def test_geodesic_csv_row_count_matches_the_step_grid(tmp_path):
    out = tmp_path / "run"
    main(["run", str(DEMO), "--out", str(out)])
    lines = (out / "02_geodesic.csv").read_text().splitlines()
    # tau_end 1.0 at h_tau 0.01: 100 steps, 101 states, one header
    assert len(lines) == 102
    assert lines[0].split(",")[:3] == ["tau", "q0", "q1"]


def test_pathlen_csv_prints_17_digit_floats(tmp_path):
    out = tmp_path / "run"
    main(["run", str(DEMO), "--out", str(out)])
    text = (out / "01_pathlen.csv").read_bytes().decode()
    assert text.endswith("\n") and "\r" not in text
    header, row, trailer = text.split("\n")
    assert header == "steps,local_length,scaled_length"
    assert row.split(",")[2] == "1.7182818284590549"
    assert trailer == ""


def test_parse_errors_exit_2(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{ nope", encoding="utf-8")
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert main(["validate", str(bad)]) == 2


def test_validation_errors_exit_3(tmp_path, capsys):
    doc = minimal(tasks=[{"type": "axioms", "kind": "rational",
                          "t": "3/2", "s": 2}])  # no seed
    path = write(tmp_path, doc)
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 3
    assert main(["validate", path]) == 3
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize("keys, value, where", [
    (("gauge", "alpha", "width"), 0.0, "scenario.gauge.alpha.width"),
    (("tasks", 2, "h_tau"), -0.01, "scenario.tasks[2].h_tau"),
    (("tasks", 2, "tau_end"), 0.0, "scenario.tasks[2].tau_end"),
    (("tasks", 1, "steps"), 1, "scenario.tasks[1].steps"),
    (("tasks", 3, "width"), 0.0, "scenario.tasks[3].width"),
], ids=["gaussian-width", "h_tau", "tau_end", "steps", "packet-width"])
def test_out_of_range_demo_values_are_parse_errors(tmp_path, capsys, keys,
                                                   value, where):
    doc = json.loads(DEMO.read_text(encoding="utf-8"))
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path = write(tmp_path, doc)
    assert main(["validate", path]) == 2
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
    assert f"parse error: {where}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("index, changes, where", [
    (2, {"position": [0.0, 5.0, 0.0, 0.0]}, "scenario.tasks[2].position"),
    (2, {"h_tau": 1e-9}, "scenario.tasks[2].h_tau"),
    (2, {"tau_end": 2.0, "h_tau": 1.9e-6}, "scenario.tasks[2].h_tau"),
    (2, {"tau_end": 1e300, "h_tau": 1e-300}, "scenario.tasks[2].h_tau"),
    (1, {"path": {"kind": "segment", "start": [0.0, 0.0, 0.0, 0.0],
                  "end": [0.0, 5.0, 0.0, 0.0]}},
     "scenario.tasks[1].path.end"),
    (1, {"path": {"kind": "polyline",
                  "vertices": [[0.0] * 4, [0.0, 1.0, 0.0, 0.0],
                               [0.0, 1.0, -2.5, 0.0]]}},
     "scenario.tasks[1].path.vertices[2]"),
    (1, {"x_ref": [2.1, 0.0, 0.0, 0.0]}, "scenario.tasks[1].x_ref"),
    (3, {"x0": [0.0, 0.5, 0.0, 9.0]}, "scenario.tasks[3].x0"),
    (5, {"target": {"location": [0.0, -3.0, 0.0, 0.0], "kind": "rational",
                    "payload": 5}}, "scenario.tasks[5].target.location"),
    (1, {"steps": 10 ** 12}, "scenario.tasks[1].steps"),
    (0, {"samples": 10 ** 9}, "scenario.tasks[0].samples"),
    (3, {"manifold": {"nodes": 10 ** 5}}, "scenario.tasks[3]"),
    # inputs the library constructors refuse
    (0, {"t": "0"}, "scenario.tasks[0]"),
    (0, {"s": "0"}, "scenario.tasks[0]"),
    (0, {"kind": "natural", "t": "3/2", "s": 2}, "scenario.tasks[0]"),
    (0, {"kind": "natural", "t": 3, "s": "-2"}, "scenario.tasks[0]"),
    (5, {"target": {"location": [0.0, 1.0, 0.0, 0.0], "kind": "natural",
                    "payload": -3}}, "scenario.tasks[5]"),
    (5, {"target": {"location": [0.0, 1.0, 0.0, 0.0], "kind": "natural",
                    "payload": "1/2"}}, "scenario.tasks[5]"),
    (3, {"time_slice": 5.0}, "scenario.tasks[3]"),
    (4, {"gauge": {"g_i": 0.0}}, "scenario.tasks[4]"),
    (4, {"gauge": {"h_i": 0.0}}, "scenario.tasks[4]"),
    # inputs no constructor refuses, checked without building the interior
    # or integrating the path
    (4, {"manifold": {"nodes": 2}}, "scenario.tasks[4]"),
    (1, {"path": {"kind": "segment", "start": [0.0, 0.5, 0.0, 0.0],
                  "end": [0.0, 0.5, 0.0, 0.0]}}, "scenario.tasks[1]"),
    (1, {"path": {"kind": "polyline", "vertices": [[0.0, 0.5, 0.0, 0.0]] * 3}},
     "scenario.tasks[1]"),
    (4, {"fields": {"gradient_mode": "central", "gradient_step": 3.0}},
     "scenario.tasks[4]"),
], ids=["start-outside", "tiny-step", "just-over-the-limit", "ratio-overflows",
        "path-end-outside", "vertex-outside", "x-ref-outside",
        "packet-x0-outside", "compare-location-outside", "simpson-nodes",
        "axiom-samples", "packet-slice", "axioms-t-zero", "axioms-s-zero",
        "natural-fractional-t", "natural-negative-s", "natural-negative-payload",
        "natural-fractional-payload", "time-slice-outside", "g-i-zero",
        "h-i-zero", "no-interior-node", "point-segment", "point-polyline",
        "gradient-step-over-margin"])
def test_geodesics_run_would_refuse_or_not_finish_are_validation_errors(
        tmp_path, capsys, index, changes, where):
    doc = json.loads(DEMO.read_text(encoding="utf-8"))
    changes = dict(changes)
    for block in ("manifold", "fields", "gauge"):
        doc[block].update(changes.pop(block, {}))
    doc["tasks"][index].update(changes)
    path = write(tmp_path, doc)
    # validate first: at a step limit that does not hold, run would not end
    assert main(["validate", path]) == 3
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 3
    assert f"validation error: {where}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def packet_on_a_small_grid(**packet):
    """One packet task on a 3-node grid over [-1, 1]^3 with constant theta."""
    return minimal(
        manifold={"dimension": 3, "bounds": [[-1.0, 1.0]] * 3, "nodes": 3},
        fields={"theta": {"family": "constant", "constant": 0.0}},
        tasks=[{"type": "wavepacket", "x0": [0.0, 0.0, 0.0], **packet}])


@pytest.mark.parametrize("packet, message", [
    ({"center": [100.0, 100.0, 100.0], "width": 0.5},
     "|amplitude|^2 underflows to 0 at the grid node [1.0, 1.0, 1.0] "
     "nearest the centre"),
    ({"center": [0.0, 0.0, 0.0], "width": 1e300},
     "width 1e+300 squared overflows a float"),
    ({"center": [0.0, 0.0, 0.0], "width": 0.5,
      "momentum": [1e308, 1e308, 0.0]},
     "packet amplitude is not finite on the grid"),
], ids=["norm-underflows", "width-squared-overflows", "phase-overflows"])
def test_packets_run_would_refuse_are_validation_errors(tmp_path, capsys,
                                                        packet, message):
    path = write(tmp_path, packet_on_a_small_grid(**packet))
    assert main(["validate", path]) == 3
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 3
    assert (f"validation error: scenario.tasks[0]: {message}\n"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_compare_payload_beyond_the_float_range_is_a_validation_error(
        tmp_path, capsys):
    base = fuzz_base()
    compare = base["tasks"][-1]
    compare["target"]["payload"] = [10 ** 400, "1/2"]
    path = write(tmp_path, minimal(tasks=[compare]))
    assert main(["validate", path]) == 3
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 3
    assert ("validation error: scenario.tasks[0]: target payload is beyond "
            "the float range\n" in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()
    # physical transmission compares the payloads exactly: nothing to convert
    compare["mode"] = "physical-transmission"
    path = write(tmp_path, minimal(tasks=[compare]))
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 0


# (theta's x0 coefficient, reference, target, the value the refusal names):
# the first value that is not finite in the order the report lists them,
# ratio, transported, mismatch_factor
NON_FINITE_COMPARES = {
    # the transported value e^3 * 1e308 overflows
    "transported": (3.0, ("complex", ["1e308", "0"]), ("complex", [1, "1/2"]),
                    "transported"),
    # the transported value over a subnormal target overflows
    "subnormal-target": (3.0, ("rational", "1"), ("rational", "1e-320"),
                         "mismatch_factor"),
    # the ratio e^800 overflows, and so do the values it multiplies
    "field-value": (800.0, ("rational", "1"), ("rational", "1"), "ratio"),
}


@pytest.mark.parametrize("theta, reference, target, name",
                         list(NON_FINITE_COMPARES.values()),
                         ids=list(NON_FINITE_COMPARES))
def test_compare_whose_report_would_not_be_finite_is_a_validation_error(
        tmp_path, capsys, theta, reference, target, name):
    def outcome(location, kind_payload):
        kind, payload = kind_payload
        return {"location": location, "kind": kind, "payload": payload}

    doc = minimal(tasks=[{"type": "compare", "mode": "parallel-transform",
                          "reference": outcome([0.0, 0.0, 0.0], reference),
                          "target": outcome([1.0, 0.0, 0.0], target)}])
    doc["manifold"]["nodes"] = 5
    doc["fields"]["theta"]["coefficients"] = [theta, 0.0, 0.0]
    path = write(tmp_path, doc)
    assert main(["validate", path]) == 3
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert f"validation error: scenario.tasks[0]: {name} is not finite" in err
    assert not (tmp_path / "o").exists()


def test_each_compare_task_computes_one_report(tmp_path, monkeypatch):
    # validate computes the report and run only renders it, in either mode
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("mode"))
        return compare_outcomes(*args, **kwargs)

    for module in (scenario, runner):
        monkeypatch.setattr(module, "compare_outcomes", counted)
    outcome = {"location": [0.0, 0.0, 0.0], "kind": "rational",
               "payload": "1/2"}
    tasks = [{"type": "compare", "mode": mode, "reference": outcome,
              "target": dict(outcome, location=[1.0, 0.0, 0.0])}
             for mode in ("physical-transmission", "parallel-transform")]
    out = tmp_path / "o"
    assert main(["run", write(tmp_path, minimal(tasks=tasks)),
                 "--out", str(out)]) == 0
    assert sorted(calls) == ["parallel-transform", "physical-transmission"]
    physical, parallel = summary_of(out)["tasks"]
    assert physical["results"]["equal"] and physical["results"]["ratio"] is None
    assert parallel["results"]["ratio"] == pytest.approx([math.e, 0.0],
                                                         rel=1e-12)


@pytest.mark.parametrize("alpha", [
    {"family": "gaussian", "amplitude": 0.4, "center": [0.0, 0.3, 0.0, 0.0],
     "width": 1.1, "axes": []},
    {"family": "constant", "constant": 0.4},
], ids=["gaussian-over-no-axes", "constant"])
def test_constant_alpha_validates_without_h_i(tmp_path, alpha):
    doc = json.loads(DEMO.read_text(encoding="utf-8"))
    doc["gauge"]["h_i"] = 0
    doc["gauge"]["alpha"] = alpha
    assert main(["validate", write(tmp_path, doc)]) == 0


def test_far_packet_with_a_representable_norm_runs(tmp_path):
    # |amplitude|^2 peaks near 1e-141 at the node [1, 0, 0]
    path = write(tmp_path, packet_on_a_small_grid(center=[10.0, 0.0, 0.0],
                                                  width=0.5))
    assert main(["validate", path]) == 0
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 0
    norm = summary_of(tmp_path / "o")["tasks"][0]["results"][
        "norm_squared_before"]
    assert 0.0 < norm < 1e-140


def test_overflowing_result_fails_its_task_and_summary_is_strict_json(
        tmp_path, capsys):
    doc = minimal(tasks=[
        {"type": "pathlen", "path": {"kind": "segment",
                                     "start": [-2.0, 0.0, 0.0],
                                     "end": [2.0, 0.0, 0.0]}}])
    doc["fields"]["theta"]["coefficients"] = [800.0, 0.0, 0.0]
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", write(tmp_path, doc), "--out", str(out)]) == 1

    summary = strict_summary_of(out)
    entry = summary["tasks"][0]
    assert summary["status"] == "failed"
    assert entry["status"] == "failed"
    assert entry["error"] == "non-finite result scaled_length"
    assert "results" not in entry
    assert not (out / "00_pathlen.csv").exists()
    assert "scaled_length" in capsys.readouterr().err


def test_packet_norm_overflow_is_found_by_run_not_validate(tmp_path, capsys):
    # f(w)/f(x0) = exp(400 w0) overflows the norm on the slice; validate
    # would have to evaluate every node to find it, so run finds it
    doc = minimal(tasks=[{"type": "wavepacket", "center": [0.0, 0.0, 0.0],
                          "x0": [0.0, 0.0, 0.0], "width": 0.5}])
    doc["manifold"]["nodes"] = 5
    doc["fields"]["theta"]["coefficients"] = [400.0, 0.0, 0.0]
    path, out = write(tmp_path, doc), tmp_path / "o"
    assert main(["validate", path]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", path, "--out", str(out)]) == 1

    summary = strict_summary_of(out)
    entry = summary["tasks"][0]
    assert summary["status"] == "failed"
    assert entry["status"] == "failed"
    assert entry["error"] == "packet norm must be finite and positive"
    assert "results" not in entry
    assert sorted(p.name for p in out.iterdir()) == ["summary.json"]
    assert "packet norm" in capsys.readouterr().err


def test_task_failures_exit_1_but_later_tasks_still_run(tmp_path, capsys):
    # exp(theta) = exp(x0) overflows on the way to x0 = 800, inside the
    # bounds: validation passes and only the run can find the failure
    doc = minimal(tasks=[
        {"type": "pathlen", "path": {"kind": "segment",
                                     "start": [0.0, 0.0, 0.0],
                                     "end": [800.0, 0.0, 0.0]}},
        {"type": "pathlen", "path": {"kind": "segment",
                                     "start": [0.0, 0.0, 0.0],
                                     "end": [1.0, 0.0, 0.0]}},
    ])
    doc["manifold"] = {"dimension": 3,
                       "bounds": [[-2.0, 1000.0], [-2.0, 2.0], [-2.0, 2.0]],
                       "spacing": [2.0, 0.5, 0.5]}
    path = write(tmp_path, doc)
    out = str(tmp_path / "o")
    assert main(["validate", path]) == 0
    assert main(["run", path, "--out", out]) == 1
    assert "task 0" in capsys.readouterr().err
    summary = summary_of(out)
    assert summary["status"] == "failed"
    assert summary["tasks"][0]["status"] == "failed"
    assert summary["tasks"][0]["error"] == "non-finite result scaled_length"
    assert summary["tasks"][1]["status"] == "ok"
    assert summary["tasks"][1]["results"]["scaled_length"] == pytest.approx(
        math.e - 1.0, rel=1e-12)


@pytest.mark.parametrize("stride", [1, 3])
def test_gauge_check_in_blocks_writes_the_csv_of_one_residual_call(
        tmp_path, stride):
    # 37**3 interior points: more than one block at either stride
    doc = minimal(
        manifold={"dimension": 3, "bounds": [[-2.0, 2.0]] * 3, "nodes": 39},
        fields={"theta": {"family": "gaussian", "amplitude": 0.4,
                          "center": [0.1, -0.2, 0.3], "width": 1.1},
                "phi": {"family": "linear",
                        "coefficients": [0.3, -0.1, 0.2]},
                "gradient_mode": "central"},
        gauge={"g_r": 1.0, "g_i": 0.8, "h_i": 0.5,
               "photon": [{"family": "constant", "constant": 0.1},
                          {"family": "linear",
                           "coefficients": [0.0, 0.2, -0.1]},
                          {"family": "constant", "constant": -0.3}],
               "alpha": {"family": "gaussian", "amplitude": 0.3,
                         "center": [0.2, 0.0, -0.1], "width": 0.9},
               "gamma": {"family": "linear",
                         "coefficients": [0.1, 0.2, -0.3]}},
        tasks=[{"type": "gauge-check", "stride": stride}])
    path = write(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["run", path, "--out", str(out)]) == 0
    rt = scenario.validate_scenario(parse_scenario(path))
    axes = [rt.manifold.axis_nodes(a)[1:-1] for a in range(3)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"),
                   axis=-1).reshape(-1, 3)[::stride]
    assert len(pts) > runner._GAUGE_BLOCK
    res = invariance_residual(rt.field, rt.gauge_config, rt.gauge_transform,
                              pts)
    want = render_csv(("x0", "x1", "x2", "residual"),
                      np.column_stack((pts, res)))
    assert_same_lines((out / "00_gauge-check.csv").read_bytes().decode("utf-8"),
                      want)
    results = summary_of(out)["tasks"][0]["results"]
    assert results["points"] == len(pts)
    assert results["max_residual"] == float(np.max(res))


def _gauge_check_working_peak(nodes):
    """tracemalloc peak of a stride-1 gauge-check task on a nodes**4 box with
    the grids workload's kinds of specs, less the (N, dim + 1) table the
    handler returns."""
    m = Manifold.box([(-2.0, 2.0)] * 4, nodes)
    wave = np.cos(m.grid_points() @ np.array([0.7, -0.4, 0.9, 0.3]))
    rt = types.SimpleNamespace(
        manifold=m,
        field=ScalingField(m, GaussianField(0.5, (0.1, -0.2, 0.3, 0.0), 1.1),
                           TabulatedField(m, 0.3 * wave),
                           gradient_mode="central"),
        gauge_config=GaugeConfig(
            1.0, 0.8, 0.6,
            (ConstantField(0.1), LinearField((0.0, 0.1, -0.2, 0.0)),
             ConstantField(-0.2), LinearField((0.1, 0.0, 0.0, 0.2)))))
    transform = GaugeTransform(
        GaussianField(0.4, (0.0, 0.2, -0.1, 0.3), 1.2),
        LinearField((0.2, -0.1, 0.3, 0.1)))
    tracemalloc.start()
    try:
        _, rows, _ = runner._run_gauge_check({"stride": 1}, transform, rt,
                                             None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) > runner._GAUGE_BLOCK
    return peak - rows.nbytes


def test_gauge_check_memory_does_not_grow_with_the_interior():
    # 13**4 and 17**4 interior points: the blocks' shared stencil values
    # are dropped with each block, so only the table grows
    small, large = (_gauge_check_working_peak(n) for n in (15, 19))
    assert large / small < 1.25


def test_unwritable_csv_fails_its_task_with_an_io_error(tmp_path, capsys):
    out = tmp_path / "o"
    (out / "00_pathlen.csv").mkdir(parents=True)
    assert main(["run", write(tmp_path, minimal()), "--out", str(out)]) == 1
    assert "task 0" in capsys.readouterr().err
    entry = summary_of(str(out))["tasks"][0]
    assert entry["status"] == "failed"
    assert entry["error"].startswith("cannot write")


def test_unwritable_output_directory_or_summary_exits_1(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    path = write(tmp_path, minimal())
    assert main(["run", path, "--out", str(blocker / "sub")]) == 1
    assert "error: cannot write" in capsys.readouterr().err
    out = tmp_path / "o"
    (out / "summary.json").mkdir(parents=True)
    assert main(["run", path, "--out", str(out)]) == 1
    assert "error: cannot write" in capsys.readouterr().err
    assert (out / "00_pathlen.csv").is_file()


def test_tabulated_theta_serves_single_point_tasks(tmp_path):
    # theta = x0 sampled on the 9^3 grid; multilinear interpolation is exact
    axis = [-2.0 + 0.5 * i for i in range(9)]
    grid = [[[x0] * 9 for _ in range(9)] for x0 in axis]
    doc = minimal(tasks=[
        {"type": "pathlen",
         "path": {"kind": "segment",
                  "start": [0.0, 0.0, 0.0], "end": [1.0, 0.0, 0.0]}},
        {"type": "compare", "mode": "parallel-transform",
         "reference": {"location": [0.0, 0.0, 0.0], "kind": "rational",
                       "payload": 1},
         "target": {"location": [1.0, 0.0, 0.0], "kind": "rational",
                    "payload": 1}}])
    doc["fields"] = {"theta": {"family": "tabulated", "values": grid},
                     "gradient_mode": "central"}
    out = str(tmp_path / "run")
    assert main(["run", write(tmp_path, doc), "--out", out]) == 0
    pathlen, compare = summary_of(out)["tasks"]
    assert pathlen["results"]["scaled_length"] == pytest.approx(
        math.e - 1, rel=1e-12)
    assert compare["results"]["ratio"] == pytest.approx([math.e, 0.0],
                                                        rel=1e-12)


def test_output_directory_precedence(tmp_path, monkeypatch):
    path = write(tmp_path, minimal(output="from_scenario"))
    scenario = parse_scenario(path)
    # scenario.output resolves next to the scenario file
    assert resolve_output_dir(scenario, path) == str(
        tmp_path / "from_scenario")
    monkeypatch.setenv(OUTPUT_ENV_VAR, "/env/dir")
    assert resolve_output_dir(scenario, path) == "/env/dir"
    assert resolve_output_dir(scenario, path, out="/cli/dir") == "/cli/dir"


def test_default_output_is_named_after_the_scenario(tmp_path):
    path = write(tmp_path, minimal(), name="probe.json")
    scenario = parse_scenario(path)
    assert resolve_output_dir(scenario, path) == str(tmp_path / "probe_out")


def test_env_var_output_is_honored(tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv(OUTPUT_ENV_VAR, str(target))
    path = write(tmp_path, minimal())
    assert main(["run", path]) == 0
    assert (target / "summary.json").exists()


def test_scenario_output_field_lands_beside_the_file(tmp_path):
    path = write(tmp_path, minimal(output="results"))
    assert main(["run", path]) == 0
    assert (tmp_path / "results" / "summary.json").exists()


def test_validate_reports_task_count(capsys):
    assert main(["validate", str(DEMO)]) == 0
    assert "ok: 6 task(s), dimension 4" in capsys.readouterr().out


def test_axioms_subcommand_prints_one_line_per_axiom(capsys):
    code = main(["axioms", "--kind", "rational", "--t", "3/2", "--s", "2",
                 "--samples", "25"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 11
    assert all("pass" in line for line in lines)


def test_axioms_subcommand_rejects_garbage_factors(capsys):
    assert main(["axioms", "--kind", "rational", "--t", "x", "--s", "2"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("samples", [2, scenario.MAX_AXIOM_SAMPLES + 1])
def test_axioms_subcommand_rejects_samples_out_of_range_before_work(
        monkeypatch, capsys, samples):
    def no_work(*args, **kwargs):
        raise AssertionError("the axiom suite ran")

    monkeypatch.setattr("scalefield.cli.axiom_suite", no_work)
    assert main(["axioms", "--kind", "rational", "--t", "3/2", "--s", "2",
                 "--samples", str(samples)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("t", ["1e4301", "1e99999999", "1e-99999999"])
def test_axioms_subcommand_rejects_huge_decimal_exponents_before_work(
        monkeypatch, capsys, t):
    def no_work(*args, **kwargs):
        raise AssertionError("the axiom suite ran")

    monkeypatch.setattr("scalefield.cli.axiom_suite", no_work)
    assert main(["axioms", "--kind", "rational", "--t", t, "--s", "2"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: decimal exponent ")


def test_console_script_round_trip(tmp_path):
    run = subprocess.run(
        [sys.executable, "-m", "scalefield.cli", "validate", str(DEMO)],
        capture_output=True, text=True)
    assert run.returncode == 0
    assert "ok: 6 task(s)" in run.stdout


# -- fuzzing the task table ----------------------------------------------------


def fuzz_base():
    """One valid task of every type on a small 3d grid with bounds +-2."""
    const = {"family": "constant", "constant": 0.0}
    return {
        "manifold": {"dimension": 3, "bounds": [[-2.0, 2.0]] * 3, "nodes": 5},
        "fields": {"theta": {"family": "linear",
                             "coefficients": [0.3, 0.0, 0.1]}},
        "gauge": {"g_r": 1.0, "g_i": 1.0, "h_i": 0.5, "photon": [const] * 3,
                  "alpha": const,
                  "gamma": {"family": "linear",
                            "coefficients": [0.1, 0.0, 0.0]}},
        "tasks": [
            {"type": "axioms", "kind": "rational", "t": "3/2", "s": 2,
             "samples": 12},
            {"type": "geodesic", "position": [0.0, 0.0, 0.0],
             "velocity": [0.1, 0.2, 0.0], "tau_end": 0.5, "h_tau": 0.05},
            {"type": "pathlen",
             "path": {"kind": "polyline",
                      "vertices": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                   [1.0, 1.0, 0.0]]},
             "x_ref": [0.0, 0.0, 0.0], "steps": 40},
            {"type": "wavepacket", "center": [0.0, 0.0, 0.0], "width": 0.5,
             "x0": [0.5, 0.0, 0.0], "momentum": [1.0, 0.0, 0.0]},
            {"type": "gauge-check", "stride": 2},
            {"type": "compare", "mode": "parallel-transform",
             "reference": {"location": [0.0, 0.0, 0.0], "kind": "complex",
                           "payload": [1, "1/2"]},
             "target": {"location": [1.0, 0.0, 0.0], "kind": "complex",
                        "payload": [1, "1/2"]}},
        ],
        "seed": 3,
    }


# the dotted path of every point in the base tasks, as the table marks them
FUZZ_POINTS = [
    (index, where)
    for index, task in enumerate(
        scenario.parse_scenario_text(json.dumps(fuzz_base())).tasks)
    for where, _ in scenario._points(task.params, "")
]
SWAPS = ["x", True, None, [], {}, [1.0], [[1.0, 2.0]], {"kind": "x"}, 0.5, 3]
EXTREMES = [0, -1, 5e-324, -1e-300, 1e-300, 1e300, -1e300,
            1.7976931348623157e308, 2 ** 53 + 1, 2 ** 63, -2 ** 63 - 1,
            10 ** 30, 10 ** 400]
JUST_OUTSIDE = [math.nextafter(2.0, 3.0), math.nextafter(-2.0, -3.0), 2.5,
                -1e6]
# run a scenario only if no task's work estimate is above this
FUZZ_RUN_WORK = 2000


def _node(task, where):
    """The list or object that holds the last step of a dotted path."""
    steps = [int(i) if i else k
             for k, i in re.findall(r"\.(\w+)|\[(\d+)\]", where)]
    for step in steps[:-1]:
        task = task[step]
    return task, steps[-1]


def _numeric_leaves(value, where=""):
    if isinstance(value, bool):
        return []
    if isinstance(value, (int, float)):
        return [where]
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    return [leaf for k, v in items
            for leaf in _numeric_leaves(
                v, f"{where}.{k}" if isinstance(k, str) else f"{where}[{k}]")]


@st.composite
def fuzzed_scenarios(draw):
    doc = fuzz_base()
    for _ in range(draw(st.integers(1, 2))):
        how = draw(st.sampled_from(["drop", "swap", "extreme", "outside"]))
        if how == "outside":
            index, where = draw(st.sampled_from(FUZZ_POINTS))
            try:
                holder, last = _node(doc["tasks"][index], where)
                point = holder[last]
                point[draw(st.integers(0, len(point) - 1))] = draw(
                    st.sampled_from(JUST_OUTSIDE))
            except (KeyError, IndexError, TypeError):
                pass  # an earlier mutation took the point away
            continue
        task = draw(st.sampled_from(doc["tasks"]))
        key = draw(st.sampled_from(sorted(scenario.TASKS[task["type"]].keys(3))))
        if how == "drop":
            task.pop(key, None)
        elif how == "swap":
            task[key] = draw(st.sampled_from(SWAPS))
        else:
            leaves = _numeric_leaves(task.get(key), f".{key}")
            holder, last = (_node(task, draw(st.sampled_from(leaves)))
                            if leaves else (task, key))
            holder[last] = draw(st.sampled_from(EXTREMES))
    return doc


def _small_work(path):
    rt = scenario.validate_scenario(parse_scenario(path))
    return all(scenario.TASKS[t.type].work(t.params, rt.manifold)[1]
               <= FUZZ_RUN_WORK for t in rt.scenario.tasks)


def test_fuzz_base_covers_every_task_type():
    assert ({t["type"] for t in fuzz_base()["tasks"]}
            == set(scenario.TASKS))
    assert len(FUZZ_POINTS) == 8


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=fuzzed_scenarios())
def test_fuzzed_tasks_end_with_a_documented_exit_code(doc):
    # dropped keys, swapped types, extreme numbers and points just outside
    # the bounds: parse and validate end 0, 2 or 3 and run ends 0 or 1,
    # never in a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code = main(["validate", path])
        assert code in (0, 2, 3)
        if code == 0 and _small_work(path):
            assert main(["run", path, "--out", os.path.join(tmp, "o")]) in (0, 1)
