"""Bend a geodesic through a Gaussian theta bump and stress the minimizer.

Shoots a spatial geodesic past an off-axis bump on the 4d grid, then checks
its scaled length against endpoint-fixed sinusoidal perturbations.  The
trajectory goes to a CSV; the length gaps print as a summary.

    python3 scripts/bump_geodesic.py [--amplitude A] [--rivals N] [--seed K]
"""

import argparse

import numpy as np

from scalefield.csvio import emit_csv
from scalefield.fields import ConstantField, GaussianField, ScalingField
from scalefield.geodesics import GeodesicState, integrate_geodesic, trajectory_path
from scalefield.manifold import Manifold
from scalefield.paths import variational_check


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--amplitude", type=float, default=1e-2)
    parser.add_argument("--rivals", type=int, default=100)
    parser.add_argument("--seed", type=int, default=20260816)
    parser.add_argument("--csv", default="bump_trajectory.csv")
    args = parser.parse_args()

    m = Manifold.box([(-3.0, 3.0)] * 4, 13)
    f = ScalingField(m, GaussianField(0.5, (0.0, 0.0, 0.6, 0.0), 0.8,
                                      axes=(1, 2, 3)),
                     ConstantField(0.0))
    state = GeodesicState(np.array([0.0, -1.5, 0.0, 0.0]),
                          np.array([0.0, 1.0, 0.0, 0.0]))
    trajectory = integrate_geodesic(state, f, 3.0, 1e-3)

    # the tau and q columns of the [tau | q | v] state table
    emit_csv(("tau", "q0", "q1", "q2", "q3"), trajectory.table[:, :5],
             args.csv)
    print(f"wrote {len(trajectory)} states to {args.csv}; "
          f"end {np.round(trajectory.final.position, 4)}")

    report = variational_check(trajectory_path(trajectory), f,
                               perturbations=args.rivals,
                               amplitude=args.amplitude, seed=args.seed,
                               steps=2000)
    gaps = np.array(report.perturbed_lengths) - report.base_length
    print(f"scaled length {report.base_length:.12f}")
    print(f"rival gaps: min {gaps.min():.3e}, max {gaps.max():.3e}; "
          f"not shorter: {report.fraction_not_shorter:.0%}")
    print("minimizer" if report.minimizes else "NOT a minimizer")


if __name__ == "__main__":
    main()
