"""Seeded scenario generator for the benchmark workloads.

Each workload is a scenario JSON file, written here and consumed by
``scalefield.runner.run_scenario`` exactly like a user's file.  The seed
changes the numbers inside the scenario (factors, payloads, field shapes,
start points, vertices); it never changes the amount of work: task counts,
sample counts, step counts and grid sizes are constants of the workload.

Why these three workloads:

* ``algebra`` runs only the exact layer (exact/structures/axioms/outcomes)
  on a tiny 3d grid, so geometry and CSV volume are idle.
* ``trajectories`` runs the field geometry as many tiny calls: RK4 geodesics
  make four 1-point field calls per step.  It holds no polyline ``pathlen``
  task: ``PolylinePath.velocity`` hands each Simpson piece's end node the
  next segment's tangent, so a polyline's ``local_length`` misses the sum of
  its segments' lengths by up to about 1e-3 relative on every seed, and the
  benchmark's exact length check (see checks.py) would fail every run.
* ``grids`` runs the same geometry modules as a few bulk calls on arrays far
  larger than the L2 cache, reads a large tabulated field and writes
  megabytes of CSV.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from typing import Any, Dict, List, Tuple

WORKLOADS = ("algebra", "trajectories", "grids")

# -- fixed work per workload ---------------------------------------------------

AXIOM_KINDS = ("natural", "rational", "real", "complex")
AXIOM_SAMPLES = 1500
COMPARE_TASKS = 20
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
PRIMES = (11, 13, 17, 19, 23, 29, 31, 37)

GEODESICS = 2
GEODESIC_TAU_END = 1.0
GEODESIC_STEPS = 2000

GRID_NODES = 19
SEGMENT_STEPS = 1_000_000


def _box(dim: int, half: float = 2.0) -> List[List[float]]:
    return [[-half, half] for _ in range(dim)]


def _uniform(rng: random.Random, lo: float, hi: float, n: int) -> List[float]:
    return [rng.uniform(lo, hi) for _ in range(n)]


def _fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _positive_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(2, 9), rng.randint(2, 9))


def _factors(rng: random.Random, kind: str) -> Tuple[Any, Any]:
    """Structure factor t and level s for an axioms task.

    Distinct primes make t/s irreducible with a numerator and denominator
    of the same size for every seed, so the Fraction sizes, and with them
    the cost per check, do not depend on the seed.
    """
    if kind == "natural":
        t, s = rng.sample(SMALL_PRIMES, 2)
        return t, s
    p = rng.sample(PRIMES, 4)
    sign = rng.choice((1, -1))
    return (_fraction_text(Fraction(p[0], p[1])),
            _fraction_text(Fraction(sign * p[2], p[3])))


def _payload(rng: random.Random, kind: str) -> Any:
    if kind == "natural":
        return rng.randint(1, 50)
    if kind == "complex":
        return [_fraction_text(_positive_fraction(rng)),
                _fraction_text(-_positive_fraction(rng))]
    return _fraction_text(_positive_fraction(rng))


def algebra(seed: int) -> Dict[str, Any]:
    rng = random.Random(seed)
    tasks: List[Dict[str, Any]] = []
    for kind in AXIOM_KINDS:
        t, s = _factors(rng, kind)
        tasks.append({"type": "axioms", "kind": kind, "t": t, "s": s,
                      "samples": AXIOM_SAMPLES})
    for i in range(COMPARE_TASKS):
        kind = AXIOM_KINDS[i % len(AXIOM_KINDS)]
        reference = _payload(rng, kind)
        # every other comparison holds the same base number at both ends
        target = reference if i % 2 == 0 else _payload(rng, kind)
        tasks.append({
            "type": "compare",
            "reference": {"location": _uniform(rng, -1.0, 1.0, 3),
                          "kind": kind, "payload": reference},
            "target": {"location": _uniform(rng, -1.0, 1.0, 3),
                       "kind": kind, "payload": target},
            "mode": ("physical-transmission", "parallel-transform")[(i // 2) % 2],
        })
    return {
        "manifold": {"dimension": 3, "bounds": _box(3, 1.0), "nodes": 3},
        "fields": {
            "theta": {"family": "linear",
                      "coefficients": _uniform(rng, -0.5, 0.5, 3)},
            "phi": {"family": "linear",
                    "coefficients": _uniform(rng, -0.5, 0.5, 3)},
            "gradient_mode": "analytic",
        },
        "tasks": tasks,
        "seed": rng.randint(0, 2 ** 31 - 1),
    }


def trajectories(seed: int) -> Dict[str, Any]:
    rng = random.Random(seed)
    # |grad theta| <= 0.1 * sqrt(4) + 0.3 / (0.8 sqrt(e)) < 0.5 everywhere,
    # so with |v_mu| <= 0.3 at the start every acceleration component stays
    # well below 1 and a start within 0.5 of the origin moves less than 1
    # per axis over tau = 1: no trajectory comes near the +-2 bounds.
    theta = {"family": "combination", "terms": [
        {"weight": 1.0, "spec": {"family": "linear",
                                 "coefficients": _uniform(rng, -0.1, 0.1, 4)}},
        {"weight": 1.0, "spec": {"family": "gaussian",
                                 "amplitude": rng.uniform(0.15, 0.3),
                                 "center": [0.0, *_uniform(rng, -0.5, 0.5, 3)],
                                 "width": 0.8, "axes": [1, 2, 3]}},
    ]}
    tasks: List[Dict[str, Any]] = []
    for _ in range(GEODESICS):
        tasks.append({
            "type": "geodesic",
            "position": _uniform(rng, -0.5, 0.5, 4),
            "velocity": _uniform(rng, -0.3, 0.3, 4),
            "tau_end": GEODESIC_TAU_END,
            "h_tau": GEODESIC_TAU_END / GEODESIC_STEPS,
        })
    return {
        "manifold": {"dimension": 4, "bounds": _box(4), "nodes": 13,
                     "signature": "minkowski"},
        "fields": {"theta": theta, "gradient_mode": "analytic"},
        "tasks": tasks,
    }


def _tabulated_values(rng: random.Random, nodes: int) -> list:
    """A smooth seeded field on the full nodes^4 grid, as nested lists."""
    axis = [-2.0 + 4.0 * i / (nodes - 1) for i in range(nodes)]
    waves = [(rng.uniform(0.1, 0.3), _uniform(rng, -1.2, 1.2, 4),
              rng.uniform(0, 2 * math.pi)) for _ in range(3)]
    out = []
    for x0 in axis:
        cube = []
        for x1 in axis:
            plane = []
            for x2 in axis:
                row = []
                for x3 in axis:
                    row.append(sum(a * math.cos(k[0] * x0 + k[1] * x1
                                                + k[2] * x2 + k[3] * x3 + p)
                                   for a, k, p in waves))
                plane.append(row)
            cube.append(plane)
        out.append(cube)
    return out


def grids(seed: int) -> Dict[str, Any]:
    rng = random.Random(seed)
    n = GRID_NODES
    theta = {"family": "gaussian", "amplitude": rng.uniform(0.3, 0.6),
             "center": _uniform(rng, -0.5, 0.5, 4),
             "width": rng.uniform(0.9, 1.3)}
    phi = {"family": "tabulated", "values": _tabulated_values(rng, n)}
    gauge = {
        "g_r": 1.0, "g_i": rng.uniform(0.5, 1.5), "h_i": rng.uniform(0.3, 0.8),
        "photon": [
            {"family": "constant", "constant": rng.uniform(-0.3, 0.3)},
            {"family": "linear", "coefficients": _uniform(rng, -0.2, 0.2, 4)},
            {"family": "constant", "constant": rng.uniform(-0.3, 0.3)},
            {"family": "linear", "coefficients": _uniform(rng, -0.2, 0.2, 4)},
        ],
        "alpha": {"family": "gaussian", "amplitude": rng.uniform(0.2, 0.5),
                  "center": _uniform(rng, -0.5, 0.5, 4),
                  "width": rng.uniform(0.9, 1.3)},
        "gamma": {"family": "linear",
                  "coefficients": _uniform(rng, -0.3, 0.3, 4)},
    }
    tasks = [
        {"type": "gauge-check", "stride": 1},
        {"type": "pathlen",
         "path": {"kind": "segment", "start": _uniform(rng, -1.8, -0.2, 4),
                  "end": _uniform(rng, 0.2, 1.8, 4)},
         "steps": SEGMENT_STEPS},
        {"type": "wavepacket", "center": _uniform(rng, -0.5, 0.5, 3),
         "width": rng.uniform(0.5, 0.9), "x0": _uniform(rng, -1.0, 1.0, 4),
         "momentum": _uniform(rng, -2.0, 2.0, 3),
         "time_slice": -2.0 + 4.0 * rng.randint(0, n - 1) / (n - 1)},
    ]
    return {
        "manifold": {"dimension": 4, "bounds": _box(4), "nodes": n,
                     "signature": "minkowski"},
        "fields": {"theta": theta, "phi": phi, "gradient_mode": "central"},
        "gauge": gauge,
        "tasks": tasks,
    }


_BUILDERS = {"algebra": algebra, "trajectories": trajectories, "grids": grids}


def build(workload: str, seed: int) -> Dict[str, Any]:
    """The scenario tree of ``workload`` for ``seed``."""
    return _BUILDERS[workload](seed)


def write(workload: str, seed: int, path: str) -> Dict[str, Any]:
    """Write the scenario JSON to ``path`` and return the tree."""
    tree = build(workload, seed)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tree, fh)
    return tree
