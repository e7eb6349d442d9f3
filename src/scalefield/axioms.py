"""Randomized exact verification of scaled-structure axioms.

Every check is an exact equality on ComplexFraction int triples; there are
no tolerances anywhere in this module.  Sampling draws numerators and
denominators uniformly from [-10^6, 10^6] (denominators nonzero) with a
fixed seed, so a report is reproducible from (structure, samples, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .exact import ComplexFraction, Scalar, as_complex
from .structures import ScaledOps, ScaledStructure, scaled_ops

SPAN = 10 ** 6


@dataclass(frozen=True)
class AxiomResult:
    name: str
    checks: int
    failures: int
    counterexample: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass(frozen=True)
class AxiomReport:
    structure: ScaledStructure
    samples: int
    seed: int
    results: tuple

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list:
        out = []
        for r in self.results:
            status = "pass" if r.passed else "FAIL"
            line = f"{r.name:<28} {status}  checks={r.checks} failures={r.failures}"
            if r.counterexample:
                line += f"  [{r.counterexample}]"
            out.append(line)
        return out


def _draw_fraction(rng: random.Random) -> Fraction:
    num = rng.randint(-SPAN, SPAN)
    den = 0
    while den == 0:
        den = rng.randint(-SPAN, SPAN)
    return Fraction(num, den)


def draw_values(st: ScaledStructure, samples: int, rng: random.Random) -> list:
    """Draw ``samples`` structure values (level-s representations)."""
    w = as_complex(st.ratio)
    pool = []
    for _ in range(samples):
        if st.kind == "natural":
            underlying: Scalar = Fraction(rng.randint(0, SPAN))
        elif st.kind == "complex":
            underlying = ComplexFraction(_draw_fraction(rng), _draw_fraction(rng))
        else:
            underlying = _draw_fraction(rng)
        pool.append(w * underlying)
    return pool


def _fmt(vals: Sequence[Scalar]) -> str:
    return ", ".join(str(v) for v in vals)


def _axiom_table(ops: ScaledOps):
    """(name, arity, check) triples applicable to this structure."""
    st = ops.structure
    table = [
        ("add_commutative", 2,
         lambda a, b: ops.add(a, b) == ops.add(b, a)),
        ("add_associative", 3,
         lambda a, b, c: ops.add(ops.add(a, b), c) == ops.add(a, ops.add(b, c))),
        ("additive_identity", 1,
         lambda a: ops.add(a, ops.zero) == a),
        ("mul_commutative", 2,
         lambda a, b: ops.mul(a, b) == ops.mul(b, a)),
        ("mul_associative", 3,
         lambda a, b, c: ops.mul(ops.mul(a, b), c) == ops.mul(a, ops.mul(b, c))),
        ("multiplicative_identity", 1,
         lambda a: ops.mul(a, ops.identity) == a),
        ("distributive", 3,
         lambda a, b, c: ops.mul(a, ops.add(b, c))
         == ops.add(ops.mul(a, b), ops.mul(a, c))),
    ]
    if st.kind != "natural":
        table.append(("additive_inverse", 1,
                      lambda a: ops.add(a, ops.neg(a)) == ops.zero))
        table.append(("multiplicative_inverse", 1,
                      lambda a: a == 0
                      or ops.mul(a, ops.inv(a)) == ops.identity))
    if st.order_defined:
        def order_translation(a: Scalar, b: Scalar, c: Scalar) -> bool:
            if ops.lt(a, b):
                return ops.lt(ops.add(a, c), ops.add(b, c))
            if ops.lt(b, a):
                return ops.lt(ops.add(b, c), ops.add(a, c))
            return True

        def order_mul_positive(a: Scalar, b: Scalar) -> bool:
            if ops.lt(ops.zero, a) and ops.lt(ops.zero, b):
                return ops.lt(ops.zero, ops.mul(a, b))
            return True

        table.append(("order_translation", 3, order_translation))
        table.append(("order_mul_positive", 2, order_mul_positive))
    if ops.conj is not None:
        table.append(("conj_involution", 1,
                      lambda a: ops.conj(ops.conj(a)) == a))
        table.append(("conj_additive", 2,
                      lambda a, b: ops.conj(ops.add(a, b))
                      == ops.add(ops.conj(a), ops.conj(b))))
        table.append(("conj_multiplicative", 2,
                      lambda a, b: ops.conj(ops.mul(a, b))
                      == ops.mul(ops.conj(a), ops.conj(b))))
        table.append(("conj_fixes_identity", 1,
                      lambda a: ops.conj(ops.identity) == ops.identity))
    return table


def check_samples(samples: int) -> None:
    """Refuse a sample pool too small for a three-value axiom."""
    if samples < 3:
        raise ValueError("need at least 3 samples")


def axiom_suite(st: ScaledStructure, samples: int = 100, seed: int = 0,
                ops: Optional[ScaledOps] = None) -> AxiomReport:
    """Exercise every applicable axiom on randomly drawn exact values.

    ``ops`` overrides the operation table (used to demonstrate corrupted
    or alternative-factor operations); otherwise the table comes from
    ``scaled_ops(st)``.  Each axiom walks the drawn sample
    pool in a decorrelated rotation, consuming up to three values per check.
    """
    check_samples(samples)
    if ops is None:
        ops = scaled_ops(st)
    rng = random.Random(seed)
    pool = draw_values(st, samples, rng)
    n = len(pool)
    ring = pool + pool[:2]  # a check starting near the end wraps round
    checks_per_axiom = max(1, samples // 3)

    results = []
    for j, (name, arity, check) in enumerate(_axiom_table(ops)):
        failures = 0
        counterexample = None
        for k in range(checks_per_axiom):
            base = (7 * j + 3 * k) % n
            vals = ring[base:base + arity]
            if not check(*vals):
                failures += 1
                if counterexample is None:
                    counterexample = _fmt(vals)
        results.append(AxiomResult(name, checks_per_axiom, failures, counterexample))
    return AxiomReport(st, samples, seed, tuple(results))
