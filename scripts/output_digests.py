"""sha256 of every output file of the demo and of the benchmark workloads.

Runs ``scenarios/demo.json`` and the ``algebra``, ``trajectories`` and
``grids`` scenarios that ``perfbench/workloads.py`` builds for the seed, each
into a temporary directory, and prints one line per output file,
``<scenario>/<file> <sha256>``.  Two trees whose outputs agree byte for byte
print the same lines, so diffing the printout of a change against that of
its parent shows whether any output byte moved.

    python3 scripts/output_digests.py [--seed N]
"""

import argparse
import hashlib
import sys
import tempfile
import types
from pathlib import Path
from typing import Dict

from scalefield.runner import EXIT_OK, run_scenario

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "scenarios" / "demo.json"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def load_workloads() -> types.ModuleType:
    """The workload generator, compiled from its text so that no bytecode
    cache is written next to it."""
    module = types.ModuleType("workloads")
    module.__file__ = str(WORKLOADS)
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS),
                 "exec"), module.__dict__)
    return module


def scenario_files(doc: str, tmp: str) -> Dict[str, Path]:
    """The demo and the workload scenarios for the command line's
    ``--seed``, written into ``tmp``, by name.  ``doc`` is the calling
    script's docstring, whose first line describes it in ``--help``."""
    parser = argparse.ArgumentParser(description=doc.split("\n")[0])
    parser.add_argument("--seed", type=int, default=11,
                        help="workload seed (default 11)")
    args = parser.parse_args()
    workloads = load_workloads()
    scenarios = {"demo": DEMO}
    for name in workloads.WORKLOADS:
        scenarios[name] = Path(tmp) / f"{name}.json"
        workloads.write(name, args.seed, str(scenarios[name]))
    return scenarios


def main() -> int:
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, path in scenario_files(__doc__, tmp).items():
            out = Path(tmp) / f"{name}_out"
            code = run_scenario(str(path), out=str(out))
            if code != EXIT_OK:
                print(f"{name}: run exited with {code}", file=sys.stderr)
                status = 1
            for output in sorted(out.iterdir()):
                digest = hashlib.sha256(output.read_bytes()).hexdigest()
                print(f"{name}/{output.name} {digest}")
    return status


if __name__ == "__main__":
    sys.exit(main())
