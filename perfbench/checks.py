"""Output checks, run outside the timed region.

Each check returns a list of failure messages (empty when it passes).  They
read what ``run_scenario`` wrote (``summary.json`` and the CSVs) and
compare it with values the benchmark derives on its own from the scenario
tree it generated.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List

import numpy as np

GAUGE_RESIDUAL_MAX = 1e-10
# Simpson is exact on each constant-speed piece, so only rounding remains:
# at most 1e-12 relative, or the n*eps bound of summing n nodes when larger
LENGTH_RTOL = 1e-12
NORM_RTOL = 1e-12
# RK4 global error is C h^4.  The measured C of the generated fields is
# below 1e-3; 1.0 leaves a wide margin while a second-order defect (error
# ~ h^2 = 2.5e-7 at the benchmark's step) still fails by orders of
# magnitude.  Each step may add a few ulps of rounding on top.
RK4_ERROR_CONSTANT = 1.0
ROUNDING_PER_STEP = 8 * np.finfo(float).eps


def digests(out_dir: str) -> Dict[str, str]:
    """sha256 of every file the run wrote."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        h = hashlib.sha256()
        with open(os.path.join(out_dir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[name] = h.hexdigest()
    return out


def read_summary(out_dir: str) -> Dict[str, Any]:
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _rows(out_dir: str, name: str) -> List[Dict[str, str]]:
    with open(os.path.join(out_dir, name), encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def task_status(code: int, summary: Dict[str, Any]) -> List[List[str]]:
    """One result per task of a run, plus one if the exit code is wrong."""
    results = [[] if e["status"] == "ok" else
               [f"task {e['index']} ({e['type']}): {e.get('error')}"]
               for e in summary["tasks"]]
    if code != 0 and not any(results):
        results.append([f"run_scenario returned {code} with every task ok"])
    return results


def _axioms(entry, task, run: "Run") -> List[str]:
    expected = task["samples"] // 3
    bad = []
    for row in _rows(run.out_dir, entry["csv"]):
        if int(row["failures"]) != 0 or int(row["checks"]) != expected:
            bad.append(f"axioms {task['kind']}: {row['axiom']} "
                       f"{row['failures']} of {row['checks']} failed")
    if not entry["results"]["all_passed"]:
        bad.append(f"axioms {task['kind']}: summary reports failures")
    return bad


def _payload(spec) -> Any:
    p = spec["payload"]
    return tuple(Fraction(x) for x in p) if isinstance(p, list) \
        else Fraction(p)


def _compare(entry, task, run: "Run") -> List[str]:
    res = entry["results"]
    equal = _payload(task["reference"]) == _payload(task["target"])
    bad = []
    if res["equal"] != equal:
        bad.append(f"compare {entry['index']}: equal={res['equal']}, "
                   f"payloads say {equal}")
    if task["mode"] == "parallel-transform":
        ratio = res["ratio"]
        if ratio is None or not all(map(math.isfinite, ratio)):
            bad.append(f"compare {entry['index']}: ratio {ratio}")
    return bad


def minkowski_length(vertices) -> float:
    """Sum of |dt^2 - |dx|^2|^(1/2) over consecutive vertices."""
    v = np.asarray(vertices, dtype=float)
    d = np.diff(v, axis=0)
    sq = d[:, 0] ** 2 - np.sum(d[:, 1:] ** 2, axis=1)
    return math.fsum(np.sqrt(np.abs(sq)).tolist())


def _pathlen(entry, task, run: "Run") -> List[str]:
    path = task["path"]
    vertices = (path["vertices"] if path["kind"] == "polyline"
                else [path["start"], path["end"]])
    want = minkowski_length(vertices)
    got = entry["results"]["local_length"]
    rtol = max(LENGTH_RTOL, entry["params"]["steps"] * np.finfo(float).eps)
    bad = []
    if not abs(got - want) <= rtol * abs(want):
        bad.append(f"pathlen {entry['index']}: local_length {got!r}, "
                   f"segment sum {want!r}")
    if not math.isfinite(entry["results"]["scaled_length"]):
        bad.append(f"pathlen {entry['index']}: scaled_length not finite")
    return bad


def _gauge(entry, task, run: "Run") -> List[str]:
    worst = entry["results"]["max_residual"]
    if not worst <= GAUGE_RESIDUAL_MAX:
        return [f"gauge-check: max_residual {worst!r} > {GAUGE_RESIDUAL_MAX}"]
    return []


def _wavepacket(entry, task, run: "Run") -> List[str]:
    # norm of the unscaled packet, from the scenario alone
    m = run.tree["manifold"]
    (lo, hi), n = m["bounds"][1], m["nodes"]
    axis = np.linspace(lo, hi, n)
    mesh = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    d = mesh - np.asarray(task["center"])
    amp2 = np.exp(-np.sum(d * d, axis=-1) / task["width"] ** 2)
    want = float(np.sum(amp2)) * ((hi - lo) / (n - 1)) ** 3
    got = entry["results"]["norm_squared_before"]
    bad = []
    if not abs(got - want) <= NORM_RTOL * want:
        bad.append(f"wavepacket: norm_squared_before {got!r}, expected "
                   f"{want!r}")
    if not math.isfinite(entry["results"]["norm_squared_after"]):
        bad.append("wavepacket: norm_squared_after not finite")
    return bad


def _geodesic(entry, task, run: "Run") -> List[str]:
    """The endpoint against a half-step rerun, within the RK4 error bound."""
    from scalefield.geodesics import GeodesicState, integrate_geodesic

    res = entry["results"]
    if res["left_domain"]:
        return [f"geodesic {entry['index']}: left the domain"]
    h = task["h_tau"]
    half = integrate_geodesic(
        GeodesicState(np.array(task["position"]), np.array(task["velocity"])),
        run.fieldref, task["tau_end"], h / 2)
    steps = res["steps"]
    bound = RK4_ERROR_CONSTANT * h ** 4 + 2 * steps * ROUNDING_PER_STEP
    worst = max(
        float(np.max(np.abs(np.array(res["final_position"])
                            - half.final.position))),
        float(np.max(np.abs(np.array(res["final_velocity"])
                            - half.final.velocity))))
    if half.left_domain or not worst <= bound:
        return [f"geodesic {entry['index']}: half-step rerun differs by "
                f"{worst:.3g} > {bound:.3g}"]
    return []


@dataclass(frozen=True)
class Run:
    """What the checks read: the generated tree, the outputs, the field."""

    tree: Dict[str, Any]
    out_dir: str
    fieldref: Any


_CHECKS = {"axioms": _axioms, "compare": _compare, "pathlen": _pathlen,
           "gauge-check": _gauge, "wavepacket": _wavepacket,
           "geodesic": _geodesic}


def outputs(run: Run, summary: Dict[str, Any]) -> List[List[str]]:
    """Every per-task output check; one list of failures per check."""
    results = []
    for entry, task in zip(summary["tasks"], run.tree["tasks"]):
        try:
            results.append(_CHECKS[task["type"]](entry, task, run))
        except (KeyError, TypeError, ValueError, OSError) as err:
            results.append([f"task {entry['index']} ({task['type']}): "
                            f"unreadable output: {err!r}"])
    return results
