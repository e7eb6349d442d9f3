"""Run every workload, untraced and traced, and print one summary table.

Usage: python3 perfbench/all.py [--seed N] [--seconds S]

Each workload and mode runs as its own ``run.py`` process, one after the
other, so one workload's peak memory cannot mask another's.  The full
output of each run (every metric with its unit and sample count) is
printed as it finishes; the table at the end repeats the end-to-end
metrics and the failure counts.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args()

    rows = []
    status = 0
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}")
                status = 1
                continue
            results[trace] = json.loads(lines[-1])
        if 0 not in results:
            continue
        e2e = results[0]["metrics"]
        attempted = sum(r["attempted"] for r in results.values())
        failed = sum(r["failed"] for r in results.values())
        rows.append((workload, e2e["setup_s"]["value"],
                     e2e["run_s"]["value"], e2e["peak_rss_mb"]["value"],
                     failed, attempted))

    print()
    print(f"{'workload':<14}{'setup_s (s)':>13}{'run_s (s)':>12}"
          f"{'peak_rss_mb (MiB)':>20}  failed_ratio")
    for workload, setup, run, rss, failed, attempted in rows:
        print(f"{workload:<14}{setup:>13.4f}{run:>12.4f}{rss:>20.1f}  "
              f"{failed / attempted:.4g} ({failed} of {attempted})")
    return status


if __name__ == "__main__":
    sys.exit(main())
