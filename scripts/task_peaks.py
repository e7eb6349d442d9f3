"""tracemalloc peak of every task's handler in the demo and the workloads.

Builds ``scenarios/demo.json`` and the ``algebra``, ``trajectories`` and
``grids`` scenarios for the seed, as ``output_digests.py`` does, validates
each, and runs each task's handler alone under ``tracemalloc``.  Prints one
line per task, ``<scenario>/<NN>_<type> <MiB>``: the most memory the handler
held at once, counted from its start, to the KiB; validation before it and
the CSV rendered after it are left out.

    python3 scripts/task_peaks.py [--seed N]
"""

import argparse
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from output_digests import DEMO, load_workloads
from scalefield import runner
from scalefield.errors import ScaleFieldError


def handler_peak(task, built, rt, seed) -> float:
    """The task handler's tracemalloc peak, in MiB."""
    tracemalloc.start()
    try:
        with np.errstate(all="ignore"):
            runner._HANDLERS[task.type](task.params, built, rt, seed)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=11,
                        help="workload seed (default 11)")
    args = parser.parse_args()
    workloads = load_workloads()
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        scenarios = {"demo": DEMO}
        for name in workloads.WORKLOADS:
            scenarios[name] = Path(tmp) / f"{name}.json"
            workloads.write(name, args.seed, str(scenarios[name]))
        for name, path in scenarios.items():
            code, rt = runner.load_scenario(str(path))
            if code != runner.EXIT_OK:
                status = 1
                continue
            seed = rt.scenario.seed
            for index, (task, built) in enumerate(zip(rt.scenario.tasks,
                                                      rt.inputs)):
                label = f"{name}/{index:02d}_{task.type}"
                try:
                    peak = handler_peak(task, built, rt, None if seed is None
                                        else seed + index)
                except (ScaleFieldError, ValueError, ArithmeticError) as err:
                    print(f"{label} failed: {err}", file=sys.stderr)
                    status = 1
                    continue
                print(f"{label} {peak:.3f}")
    return status


if __name__ == "__main__":
    sys.exit(main())
