"""Fault rows: the checks that must turn red when the program is broken.

Each row names a module, an attribute of it, a faulty replacement and the
checks expected to fail while the replacement is in place.  A row runs only
its named checks, so the table stays fast; the clean tree passes them all.
The checks are tests of this suite, called directly.
"""

from functools import partial

import numpy as np
import pytest

import test_acceptance
import test_geodesic_pins
import test_geodesics
from scalefield import geodesics


def _rate_with(drag_sign: float, force_sign: float):
    """geodesics._rate with the drag and force terms scaled by the signs."""
    def rate(y, fieldref, drag, eta):
        q, v = y.reshape(2, -1)
        gamma = fieldref.gradient_of(fieldref.theta,
                                     fieldref.manifold.require_inside(q))
        accel = (-drag_sign * np.dot(drag * gamma, v) * v
                 - force_sign * eta * gamma)
        return np.concatenate((v, accel))
    return rate


CRITERION_10 = test_acceptance.test_criterion_10_geodesic_beats_100_perturbed_rivals
PINS = tuple(partial(test_geodesic_pins.test_geodesic_bits_are_pinned, name)
             for name in sorted(test_geodesic_pins.PINS))
REPELS = test_geodesics.test_euclidean_drag_repels_on_identity_metric
KEEPS_SPEED = test_geodesics.test_minkowski_spatial_motion_attracts_and_keeps_speed

FAULTS = {
    "drag term sign flipped": (
        geodesics, "_rate", _rate_with(-1.0, 1.0),
        (CRITERION_10, KEEPS_SPEED, *PINS)),
    "drag term dropped": (
        geodesics, "_rate", _rate_with(0.0, 1.0),
        (CRITERION_10, KEEPS_SPEED, *PINS)),
    "force term sign flipped": (
        geodesics, "_rate", _rate_with(1.0, -1.0),
        (CRITERION_10, REPELS, KEEPS_SPEED, *PINS)),
}


def _name(check) -> str:
    if isinstance(check, partial):
        return f"{check.func.__name__}{list(check.args)}"
    return check.__name__


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_turns_its_checks_red(fault, monkeypatch):
    module, attribute, replacement, checks = FAULTS[fault]
    monkeypatch.setattr(module, attribute, replacement)
    for check in checks:
        with pytest.raises(AssertionError):
            check()
            pytest.fail(f"{_name(check)} stayed green under {fault}")


def test_clean_tree_passes_every_named_check():
    checks = dict.fromkeys(c for *_, row in FAULTS.values() for c in row)
    for check in checks:
        check()


def test_the_unbroken_replacement_is_the_rate():
    field, state, *_ = test_geodesic_pins._trajectories_family()
    y = np.concatenate((state.position, state.velocity))
    args = (field, np.ones(4), field.manifold.metric_diagonal)
    assert np.array_equal(_rate_with(1.0, 1.0)(y, *args),
                          geodesics._rate(y, *args))
