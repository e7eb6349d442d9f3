"""Comparing measurement or computation outcomes at different points.

An outcome is a base number sitting at a manifold point.  Two comparison
semantics coexist:

  physical-transmission: the base number itself is carried to the other
    location and compared there.  Base numbers carry no value of their own,
    so the verdict is plain payload equality and no scaling field can
    change it.

  parallel-transform: the *value* of the reference outcome is pushed
    through the connection, picking up the factor f(target)/f(source), and
    the transported value is held against the target's value.  The report
    carries the ratio, which is ``connection_factor``, the transported value
    and the residual mismatch factor.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional

import numpy as np

from .fields import ScalingField, connection_factor
from .structures import BaseNumber

COMPARISON_MODES = ("physical-transmission", "parallel-transform")


@dataclass(frozen=True, eq=False)
class Outcome:
    location: np.ndarray
    number: BaseNumber

    def __post_init__(self) -> None:
        object.__setattr__(self, "location",
                           np.asarray(self.location, dtype=float))
        if self.location.ndim != 1:
            raise ValueError("location must be a single point")


@dataclass(frozen=True)
class ComparisonReport:
    mode: str
    equal: bool
    ratio: Optional[complex] = None
    transported: Optional[complex] = None
    mismatch_factor: Optional[complex] = None
    values_match: Optional[bool] = None

    def results(self) -> Dict[str, object]:
        """What the comparison reports, by field name: every field but the
        mode, which the comparison was asked for."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "mode"}


def numbers_equal(a: BaseNumber, b: BaseNumber) -> bool:
    return a.kind == b.kind and a.payload == b.payload


def compare_outcomes(reference: Outcome, target: Outcome,
                     fieldref: ScalingField,
                     mode: str = "physical-transmission") -> ComparisonReport:
    """Compare the reference outcome against the target one.

    Both locations must lie on the field's manifold.  See the module
    docstring for what each mode reports.
    """
    if mode not in COMPARISON_MODES:
        raise ValueError(f"mode must be one of {COMPARISON_MODES}")
    fieldref.manifold.require_inside(reference.location)
    fieldref.manifold.require_inside(target.location)
    equal = numbers_equal(reference.number, target.number)
    if mode == "physical-transmission":
        return ComparisonReport(mode=mode, equal=equal)

    ratio = complex(connection_factor(fieldref, target.location,
                                      reference.location))
    r_value = complex(reference.number.payload)
    t_value = complex(target.number.payload)
    transported = ratio * r_value
    mismatch = transported / t_value if t_value != 0 else None
    return ComparisonReport(
        mode=mode,
        equal=equal,
        ratio=ratio,
        transported=transported,
        mismatch_factor=mismatch,
        values_match=(transported == t_value),
    )
