"""Command-line front end.

    scalefield run <scenario.json> [--out DIR] [--seed N] [--verbose]
    scalefield validate <scenario.json>
    scalefield axioms --kind rational --t 3/2 --s 2 [--samples N] [--seed K]

`run` executes the scenario and reports 0 on success, 1 on a task failure
or when the output directory or summary.json cannot be written (stderr then
says "error: cannot write ..."), 2 on a parse error, 3 on a validation
error.  `validate` checks a scenario without running it (same 0/2/3
codes).  `axioms` exercises one scaled structure directly and reports 0
only if every axiom holds; it takes at most scenario.MAX_AXIOM_SAMPLES
samples, as an axioms task does.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .axioms import axiom_suite
from .errors import ScaleFieldError
from .exact import parse_fraction
from .runner import EXIT_OK, EXIT_TASK_FAILURE, load_scenario, run_scenario
from .scenario import MAX_AXIOM_SAMPLES
from .structures import KINDS, structure


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalefield",
        description="scenario-driven computations with scaled number "
                    "structures over a scaling field",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario file")
    run.add_argument("scenario", help="path to a scenario JSON file")
    run.add_argument("--out", help="output directory (beats SCALEFIELD_OUT "
                                   "and the scenario's own output field)")
    run.add_argument("--seed", type=int, help="override the scenario seed")
    run.add_argument("--verbose", action="store_true",
                     help="print per-task progress")

    val = sub.add_parser("validate", help="parse and validate a scenario "
                                          "without running it")
    val.add_argument("scenario", help="path to a scenario JSON file")

    ax = sub.add_parser("axioms", help="run the axiom suite on one structure")
    ax.add_argument("--kind", required=True, choices=sorted(KINDS))
    ax.add_argument("--t", required=True,
                    help="scaling factor t, e.g. 3/2 or 4")
    ax.add_argument("--s", required=True,
                    help="value level s, e.g. 2 or 1/3")
    ax.add_argument("--samples", type=int, default=100)
    ax.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_validate(path: str) -> int:
    code, rt = load_scenario(path)
    if code != EXIT_OK:
        return code
    print(f"ok: {len(rt.scenario.tasks)} task(s), "
          f"dimension {rt.manifold.dimension}")
    return EXIT_OK


def _cmd_axioms(args: argparse.Namespace) -> int:
    try:
        if not 3 <= args.samples <= MAX_AXIOM_SAMPLES:
            raise ValueError(f"--samples must be 3 to {MAX_AXIOM_SAMPLES}, "
                             f"got {args.samples}")
        st = structure(args.kind, parse_fraction(args.t),
                       parse_fraction(args.s))
        report = axiom_suite(st, samples=args.samples, seed=args.seed)
    except (ScaleFieldError, ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_TASK_FAILURE
    for line in report.lines():
        print(line)
    return EXIT_OK if report.all_passed else EXIT_TASK_FAILURE


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return run_scenario(args.scenario, out=args.out, seed=args.seed,
                            verbose=args.verbose)
    if args.command == "validate":
        return _cmd_validate(args.scenario)
    return _cmd_axioms(args)


if __name__ == "__main__":
    sys.exit(main())
