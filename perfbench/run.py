"""scalefield benchmark: one workload, one seed, end to end or traced.

Usage:
    python3 perfbench/run.py --workload {algebra,trajectories,grids}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
The benchmark generates the workload's scenario file from the seed, then
drives the public entry point ``scalefield.runner.run_scenario`` on it in a
closed loop with one caller: each call starts when the previous returns.
Everything runs in this one process on one thread (numpy and BLAS pools
are pinned to one thread), except the set-up probes, which are fresh
interpreters started one at a time.

--trace 0 reports the end-to-end metrics:
    setup_s      median seconds from starting a fresh interpreter to a
                 ready runtime (import, parse_scenario, validate_scenario)
    run_s        median wall seconds of one warm run_scenario call
    peak_rss_mb  peak resident memory of this process after the timed calls
--trace 1 alternates untraced and traced calls and reports the per-layer
metrics derived from the spans (see tracing.py) plus the tracing overhead.

Both modes check the outputs outside the timed region (see checks.py).
Failed tasks and failed checks are counted against everything attempted;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Human-readable lines above it
give each metric with its unit and sample count, and the environment.
A fuller record (samples, environment, spans) is written to
``perfbench/results/<workload>-trace<k>.json``.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)

from environment import pin_threads  # noqa: E402

pin_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

import checks  # noqa: E402
import environment  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 5
MIN_CALLS = 3
MIN_TRACED_PAIRS = 2
ROOT_SPAN = "runner.run_scenario"
MIB = float(1 << 20)

# unit of every metric this benchmark prints
UNITS = {
    "setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB",
    "scenario.parse_s": "s", "scenario.validate_s": "s",
    "scenario.input_mb": "MiB",
    "runner.self_s": "s", "runner.output_mb": "MiB",
    "csvio.render_s": "s", "csvio.cells": "count", "csvio.ns_per_cell": "ns",
    "axioms.suite_s": "s", "axioms.draw_s": "s", "axioms.checks": "count",
    "axioms.us_per_check.natural": "us", "axioms.us_per_check.rational": "us",
    "axioms.us_per_check.real": "us", "axioms.us_per_check.complex": "us",
    "outcomes.compare_s": "s", "outcomes.calls": "count",
    "geodesics.integrate_s": "s", "geodesics.steps": "count",
    "geodesics.us_per_step": "us", "geodesics.left_domain": "count",
    "fields.gamma_delta.calls": "count", "fields.gamma_delta.points": "count",
    "fields.gamma_delta.self_s": "s",
    "fields.theta_at.calls": "count", "fields.theta_at.points": "count",
    "fields.theta_at.self_s": "s",
    "fields.points_per_call": "points/call",
    "fields.calls_per_step": "calls/step",
    "manifold.require_inside.calls": "count",
    "manifold.require_inside.self_s": "s",
    "manifold.checks_per_step": "calls/step",
    "paths.scaled_length_s": "s", "paths.local_length_s": "s",
    "paths.pieces": "count", "paths.nodes": "count",
    "paths.ns_per_node": "ns",
    "gauge.residual_s": "s", "gauge.points": "count",
    "gauge.ns_per_point": "ns",
    "packets.gaussian_s": "s", "packets.scale_s": "s",
    "packets.nodes": "count", "packets.ns_per_node": "ns",
    "trace.overhead_s": "s",
}


class Ledger:
    """Operations attempted and failed: tasks, set-up probes and checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def record(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(problems)


def measure_setup(scenario: str, ledger: Ledger) -> List[float]:
    """Seconds from launching a fresh interpreter to its "ready" line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(SETUP_LAUNCHES):
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, probe, scenario], env=env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        _, err = proc.communicate()
        problems = [] if line.strip() == "ready" and proc.returncode == 0 \
            else [f"set-up probe exited {proc.returncode}: {err.strip()}"]
        ledger.record(problems)
        samples.append(elapsed)
    return samples


class Bench:
    def __init__(self, workload: str, seed: int, work: str) -> None:
        self.scenario = os.path.join(work, "scenario.json")
        self.out = os.path.join(work, "out")
        self.tree = workloads.write(workload, seed, self.scenario)
        self.ledger = Ledger()
        self.reference: Optional[Dict[str, str]] = None

    def call(self, tracer: Optional[tracing.Tracer] = None) -> float:
        """One run_scenario call; returns its wall seconds.

        Everything after the timed call (reading the summary, hashing the
        outputs) is bookkeeping outside the measurement.
        """
        from scalefield.runner import run_scenario

        if tracer is None:
            start = perf_counter()
            code = run_scenario(self.scenario, out=self.out)
            elapsed = perf_counter() - start
        else:
            with tracer.installed():
                with tracer.span(ROOT_SPAN):
                    code = run_scenario(self.scenario, out=self.out)
            elapsed = tracer.seconds(ROOT_SPAN)
            tracer.run += 1
        self._account(code)
        return elapsed

    def _account(self, code: int) -> None:
        try:
            summary = checks.read_summary(self.out)
        except (OSError, ValueError) as err:
            for _ in self.tree["tasks"]:
                self.ledger.record([f"no summary.json: {err}"])
            return
        for problems in checks.task_status(code, summary):
            self.ledger.record(problems)
        digests = checks.digests(self.out)
        if self.reference is None:
            self.reference = digests
            return
        changed = sorted(k for k in set(digests) | set(self.reference)
                         if digests.get(k) != self.reference.get(k))
        self.ledger.record([f"output bytes differ between repetitions: "
                            f"{', '.join(changed)}"] if changed else [])

    def check_outputs(self) -> None:
        from scalefield.scenario import parse_scenario, validate_scenario

        summary = checks.read_summary(self.out)
        fieldref = validate_scenario(parse_scenario(self.scenario)).field
        run = checks.Run(self.tree, self.out, fieldref)
        for problems in checks.outputs(run, summary):
            self.ledger.record(problems)

    def output_mib(self) -> float:
        return sum(os.path.getsize(os.path.join(self.out, n))
                   for n in os.listdir(self.out)) / MIB


def computed_bytes(tree: Dict[str, Any], l2: int) -> Dict[str, Any]:
    """Array sizes of the bulk kernels, computed from the scenario."""
    n = tree["manifold"]["nodes"]
    dim = tree["manifold"]["dimension"]
    out: Dict[str, Any] = {"label": "computed from array shapes, not measured",
                           "L2_bytes": l2}
    for task in tree["tasks"]:
        if task["type"] == "gauge-check":
            pts = (n - 2) ** dim // task["stride"]
            out["gauge.points_array"] = pts * dim * 8
            out["gauge.connection_array"] = pts * dim * 16
        elif task["type"] == "pathlen" and task["path"]["kind"] == "segment":
            nodes = task["steps"] + 1
            out["paths.segment_velocity_array"] = nodes * dim * 8
        elif task["type"] == "wavepacket":
            nodes = n ** 3
            out["packets.points_array"] = nodes * dim * 8
            out["packets.amplitude_array"] = nodes * 16
    if l2:
        for key, value in list(out.items()):
            if key.endswith("_array"):
                out[key] = {"bytes": value, "times_L2": round(value / l2, 2)}
    return out


def _stats(values: List[float]) -> Dict[str, Any]:
    out: Dict[str, Any] = {"n": len(values),
                           "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    out["samples"] = values
    return out


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<34} {value:>14.6g} {unit:<6} {note}"


def run_untraced(bench: Bench, seconds: float) -> Dict[str, Any]:
    bench.call()                                   # warm-up, reference bytes
    samples: List[float] = []
    start = perf_counter()
    while len(samples) < MIN_CALLS or perf_counter() - start < seconds:
        samples.append(bench.call())
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB
    return {"run_s": _stats(samples), "peak_rss_mb": rss}


def run_traced(bench: Bench, seconds: float, tracer: tracing.Tracer):
    bench.call()                                   # warm-up, reference bytes
    plain: List[float] = []
    traced: List[float] = []
    start = perf_counter()
    while len(traced) < MIN_TRACED_PAIRS or perf_counter() - start < seconds:
        plain.append(bench.call())
        traced.append(bench.call(tracer))
    return plain, traced


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "scalefield", "__init__.py")):
        print(f"perfbench: no scalefield sources under {SRC}; run from the "
              "root of a scalefield checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    work = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        return _bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(args, work: str) -> int:
    bench = Bench(args.workload, args.seed, work)
    record: Dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace}
    metrics: Dict[str, float] = {}
    lines: List[str] = []

    # importing here first writes the bytecode caches (even where the
    # environment turns writing them off) and warms the file cache: a user
    # pays both once per install, not on every run
    sys.dont_write_bytecode = False
    import scalefield  # noqa: F401

    if args.trace == 0:
        setup = measure_setup(bench.scenario, bench.ledger)
        timed = run_untraced(bench, args.seconds)
        metrics["setup_s"] = statistics.median(setup)
        metrics["run_s"] = timed["run_s"]["median"]
        metrics["peak_rss_mb"] = timed["peak_rss_mb"]
        record["setup_s"] = _stats(setup)
        record["run_s"] = timed["run_s"]
        run = timed["run_s"]
        lines.append(_line("setup_s", metrics["setup_s"], "s",
                           f"n={len(setup)} launches, median"))
        lines.append(_line("run_s", metrics["run_s"], "s",
                           f"n={run['n']} calls, median, "
                           f"q1={run.get('q1', run['median']):.6g} "
                           f"q3={run.get('q3', run['median']):.6g}"))
        lines.append(_line("peak_rss_mb", metrics["peak_rss_mb"], "MiB",
                           "n=1 process, ru_maxrss after the timed calls"))
    else:
        tracer = tracing.Tracer()
        plain, traced = run_traced(bench, args.seconds, tracer)
        metrics.update(tracing.layer_metrics(tracer.spans, ROOT_SPAN))
        metrics["scenario.input_mb"] = os.path.getsize(bench.scenario) / MIB
        metrics["runner.output_mb"] = bench.output_mib()
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(plain))
        record["run_s_untraced"] = _stats(plain)
        record["run_s_traced"] = _stats(traced)
        record["spans"] = tracer.dump()
        for name in UNITS:
            if name in metrics and name not in ("setup_s", "run_s",
                                                "peak_rss_mb"):
                note = f"n={len(traced)} traced runs, median" \
                    if UNITS[name] in ("s", "ns", "us") else "n=1, per run"
                lines.append(_line(name, metrics[name], UNITS[name], note))

    bench.check_outputs()
    ledger = bench.ledger
    env = environment.block(bench.out)
    record["environment"] = env
    if args.workload == "grids":
        record["computed_bytes"] = computed_bytes(
            bench.tree, env["cache_bytes"].get("L2", 0))
    record["metrics"] = {k: {"value": v, "unit": UNITS[k]}
                         for k, v in metrics.items()}
    record["attempted"] = ledger.attempted
    record["failed"] = ledger.failed
    record["failures"] = ledger.messages

    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    if "computed_bytes" in record:
        print("grids kernel arrays (computed): "
              + json.dumps(record["computed_bytes"], sort_keys=True))
    for line in lines:
        print(line)
    print(f"  {'failed_ratio':<34} {ledger.failed / ledger.attempted:>14.6g} "
          f"{'ratio':<6} {ledger.failed} failed of {ledger.attempted} "
          "tasks, probes and checks")
    for message in ledger.messages[:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
