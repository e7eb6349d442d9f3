"""Execute scenario tasks in order and write CSV results plus summary.json.

Output layout: one CSV per task, named {index:02d}_{type}.csv, next to a
summary.json holding per-task status, resolved parameters (every default
echoed, so a run is self-describing), and headline scalars.  All file
content is deterministic for a fixed scenario and seed: no timestamps, no
absolute paths, sorted JSON keys, fixed float formatting.

Handlers run the inputs that ``validate_scenario`` built for each task, so
every precondition is checked once, before any task runs.

A task whose results hold inf or NaN fails and names the first such key;
numpy's floating-point warnings inside a task are silenced, so the failure
entry is the one report of an overflow.  summary.json is strict JSON.

Exit codes: 0 all tasks ok, 1 a task failed or the output directory or
summary.json could not be written ("error: cannot write ..." on stderr),
2 parse error, 3 validation error.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .axioms import axiom_suite
from .errors import (
    IoError,
    NonFiniteResult,
    ScaleFieldError,
    ScenarioParseError,
    ScenarioValidationError,
)
from .csvio import open_text, render_csv
from .gauge import invariance_residual
from .geodesics import integrate_geodesic
from .manifold import Manifold
from .outcomes import compare_outcomes  # noqa: F401 (perfbench traces it)
from .packets import gaussian_packet, packet_norm_squared, scale_wave_packet
from .paths import path_lengths
# perfbench traces the two one-length calls by these names
from .paths import local_path_length, scaled_path_length  # noqa: F401
from .scenario import (
    SIGNATURES,
    RuntimeScenario,
    Scenario,
    parse_scenario,
    validate_scenario,
)

EXIT_OK = 0
EXIT_TASK_FAILURE = 1
EXIT_PARSE_ERROR = 2
EXIT_VALIDATION_ERROR = 3

OUTPUT_ENV_VAR = "SCALEFIELD_OUT"

# interior points per invariance_residual call of a gauge check; with the
# stencil values that one call shares, a block takes about as much memory
# as a pathlen walk of 2**16 nodes (11 MiB in 4d)
_GAUGE_BLOCK = 1 << 13


def _jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, complex):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _finite(value: Any) -> bool:
    """False if a ``_jsonable`` value is or holds inf or NaN."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return True


def _complex_cells(z: Optional[complex]) -> Tuple[Optional[float], Optional[float]]:
    if z is None:
        return None, None
    return float(z.real), float(z.imag)


# -- task handlers: each takes (params, built inputs, runtime, seed) and ------
# -- returns (header, rows, results dict) -------------------------------------


def _run_axioms(p, st, rt: RuntimeScenario, seed: Optional[int]):
    report = axiom_suite(st, samples=p["samples"], seed=seed or 0)
    rows = [(r.name, r.checks, r.failures) for r in report.results]
    results = {
        "all_passed": report.all_passed,
        "failed_axioms": [r.name for r in report.results if r.failures],
    }
    return ("axiom", "checks", "failures"), rows, results


def _run_geodesic(p, built, rt: RuntimeScenario, seed: Optional[int]):
    # the first task of a batch integrates it; each task takes its own row
    state, batch = built
    tr = integrate_geodesic(state, rt.field, p["tau_end"], p["h_tau"],
                            drag_contraction=p["drag_contraction"],
                            batch=batch)
    dim = rt.manifold.dimension
    header = ("tau", *(f"q{m}" for m in range(dim)),
              *(f"v{m}" for m in range(dim)))
    results = {
        "left_domain": tr.left_domain,
        "steps": len(tr) - 1,
        "final_position": list(map(float, tr.final.position)),
        "final_velocity": list(map(float, tr.final.velocity)),
    }
    return header, tr.table, results


def _run_pathlen(p, built, rt: RuntimeScenario, seed: Optional[int]):
    q, x_ref = built
    local, scaled = path_lengths(q, rt.field, x_ref, p["steps"])
    rows = [(p["steps"], local, scaled)]
    results = {
        "local_length": local,
        "scaled_length": scaled,
        "x_ref": list(map(float, x_ref)),
    }
    return ("steps", "local_length", "scaled_length"), rows, results


def _run_wavepacket(p, time_slice, rt: RuntimeScenario, seed: Optional[int]):
    psi = gaussian_packet(rt.manifold, p["center"], p["width"],
                          momentum=p["momentum"], time_slice=time_slice)
    scaled = scale_wave_packet(psi, rt.field, np.array(p["x0"]))
    spatial = psi.points()[..., list(rt.manifold.spatial_axes)].reshape(-1, 3)
    amp = scaled.amplitudes.reshape(-1)
    header = ("w1", "w2", "w3", "re_psi", "im_psi")
    rows = np.column_stack((spatial, amp.real, amp.imag))
    results = {
        "norm_squared_before": packet_norm_squared(psi),
        "norm_squared_after": packet_norm_squared(scaled),
    }
    return header, rows, results


def _run_gauge_check(p, transform, rt: RuntimeScenario, seed: Optional[int]):
    manifold = rt.manifold
    stride = p["stride"]
    dim = manifold.dimension
    # the strided interior, a block of points at a time into one table
    count = len(range(0, math.prod(manifold.interior_shape), stride))
    rows = np.empty((count, dim + 1))
    for i0 in range(0, count, _GAUGE_BLOCK):
        i1 = min(i0 + _GAUGE_BLOCK, count)
        pts = manifold.interior_grid_points(np.arange(i0, i1) * stride)
        rows[i0:i1, :dim] = pts
        rows[i0:i1, dim] = invariance_residual(rt.field, rt.gauge_config,
                                               transform, pts)
    header = (*(f"x{m}" for m in range(dim)), "residual")
    results = {
        "points": count,
        "max_residual": float(np.max(rows[:, dim])),
    }
    return header, rows, results


def _run_compare(p, report, rt: RuntimeScenario, seed: Optional[int]):
    ratio = _complex_cells(report.ratio)
    transported = _complex_cells(report.transported)
    mismatch = _complex_cells(report.mismatch_factor)
    header = ("mode", "equal", "ratio_re", "ratio_im", "transported_re",
              "transported_im", "mismatch_re", "mismatch_im", "values_match")
    rows = [(report.mode, report.equal, *ratio, *transported, *mismatch,
             report.values_match)]
    return header, rows, report.results()


_HANDLERS = {
    "axioms": _run_axioms,
    "geodesic": _run_geodesic,
    "pathlen": _run_pathlen,
    "wavepacket": _run_wavepacket,
    "gauge-check": _run_gauge_check,
    "compare": _run_compare,
}


def _manifold_summary(m: Manifold) -> Dict[str, Any]:
    return {
        "dimension": m.dimension,
        "bounds": [list(b) for b in m.bounds],
        "spacing": list(m.spacing),
        "signature": SIGNATURES[m.dimension],
    }


def resolve_output_dir(scenario: Scenario, scenario_path: str,
                       out: Optional[str] = None) -> str:
    """--out beats SCALEFIELD_OUT beats the scenario's own output field."""
    if out:
        return out
    env = os.environ.get(OUTPUT_ENV_VAR)
    if env:
        return env
    if scenario.output:
        base = os.path.dirname(os.path.abspath(scenario_path))
        return os.path.join(base, scenario.output)
    stem = os.path.splitext(os.path.basename(scenario_path))[0]
    return os.path.join(os.path.dirname(os.path.abspath(scenario_path)),
                        f"{stem}_out")


def load_scenario(path: str) -> Tuple[int, Optional[RuntimeScenario]]:
    """Parse and validate ``path``, as ``run`` and ``validate`` both do.

    Returns (EXIT_OK, runtime), or (EXIT_PARSE_ERROR or
    EXIT_VALIDATION_ERROR, None) after printing the error to stderr.
    """
    try:
        scenario = parse_scenario(path)
    except ScenarioParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE_ERROR, None
    try:
        return EXIT_OK, validate_scenario(scenario)
    except ScenarioValidationError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR, None


def run_scenario(path: str, out: Optional[str] = None,
                 seed: Optional[int] = None, verbose: bool = False) -> int:
    """Parse, validate, run every task, write results; returns the exit code."""
    code, rt = load_scenario(path)
    if code != EXIT_OK:
        return code
    scenario = rt.scenario

    run_seed = seed if seed is not None else scenario.seed
    out_dir = resolve_output_dir(scenario, path, out)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as err:
        print(f"error: cannot write {out_dir}: {err.strerror}",
              file=sys.stderr)
        return EXIT_TASK_FAILURE

    entries: List[Dict[str, Any]] = []
    all_ok = True
    for index, (task, built) in enumerate(zip(scenario.tasks, rt.inputs)):
        csv_name = f"{index:02d}_{task.type}.csv"
        task_seed = run_seed + index if run_seed is not None else None
        entry: Dict[str, Any] = {
            "index": index,
            "type": task.type,
            "csv": csv_name,
            "seed": task_seed,
            "params": _jsonable(task.params),
        }
        try:
            with np.errstate(all="ignore"):
                header, rows, results = _HANDLERS[task.type](
                    task.params, built, rt, task_seed)
            results_tree = _jsonable(results)
            bad = [k for k, v in sorted(results_tree.items())
                   if not _finite(v)]
            if bad:
                raise NonFiniteResult(f"non-finite result {bad[0]}")
            with open_text(os.path.join(out_dir, csv_name)) as fh:
                render_csv(header, rows, fh)
            ok = results.get("all_passed", True)
            entry["status"] = "ok" if ok else "failed"
            if not ok:
                entry["error"] = "axiom failures: " + ", ".join(
                    results["failed_axioms"])
            entry["results"] = results_tree
        except (ScaleFieldError, ValueError, ArithmeticError) as err:
            entry["status"] = "failed"
            entry["error"] = str(err)
            print(f"task {index} ({task.type}) failed: {err}",
                  file=sys.stderr)
        all_ok = all_ok and entry["status"] == "ok"
        if verbose:
            print(f"[{index:02d}] {task.type}: {entry['status']}")
        entries.append(entry)

    summary = {
        "status": "ok" if all_ok else "failed",
        "seed": run_seed,
        "manifold": _manifold_summary(rt.manifold),
        "gradient_mode": scenario.fields["gradient_mode"],
        "tasks": entries,
    }
    try:
        with open_text(os.path.join(out_dir, "summary.json")) as fh:
            fh.write(json.dumps(summary, indent=2, sort_keys=True,
                                allow_nan=False) + "\n")
    except IoError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_TASK_FAILURE
    if verbose:
        print(f"wrote {len(entries)} task results to {out_dir}")
    return EXIT_OK if all_ok else EXIT_TASK_FAILURE
