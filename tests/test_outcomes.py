"""Outcome comparison: transmitted base numbers vs transported values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalefield.errors import OutOfBounds
from scalefield.fields import (
    ConstantField,
    GaussianField,
    LinearField,
    ScalingField,
    eval_f,
)
from scalefield.manifold import Manifold
from scalefield.outcomes import Outcome, compare_outcomes, numbers_equal
from scalefield.structures import BaseNumber

BOX = Manifold.box([(-2.0, 2.0)] * 4, 9)

FIELDS = [
    ScalingField(BOX, ConstantField(0.0), ConstantField(0.0)),
    ScalingField(BOX, LinearField((0.3, -0.2, 0.5, 0.1)), ConstantField(0.4)),
    ScalingField(BOX, GaussianField(1.1, (0.0, 0.5, 0.0, -0.5), 0.9),
                 LinearField((0.0, 0.2, -0.1, 0.0))),
]


def at(x1, number):
    return Outcome(np.array([0.0, x1, 0.0, 0.0]), number)


def test_equal_payloads_transmit_as_equal_under_any_field():
    r = at(-1.0, BaseNumber.rational("7/3"))
    t = at(1.5, BaseNumber.rational("7/3"))
    for f in FIELDS:
        assert compare_outcomes(r, t, f).equal


def test_unequal_payloads_stay_unequal_under_any_field():
    r = at(-1.0, BaseNumber.rational("7/3"))
    t = at(1.5, BaseNumber.rational("8/3"))
    for f in FIELDS:
        assert not compare_outcomes(r, t, f).equal


def test_kind_mismatch_is_unequal():
    assert not numbers_equal(BaseNumber.natural(5), BaseNumber.rational(5))


def test_unit_field_makes_both_modes_agree():
    f = FIELDS[0]
    r = at(-1.0, BaseNumber.rational(4))
    t_same = at(1.0, BaseNumber.rational(4))
    t_diff = at(1.0, BaseNumber.rational(5))
    for t in (t_same, t_diff):
        phys = compare_outcomes(r, t, f, mode="physical-transmission")
        par = compare_outcomes(r, t, f, mode="parallel-transform")
        assert par.ratio == 1.0 + 0.0j
        assert par.values_match == phys.equal


def test_transport_across_unit_theta_step():
    f = ScalingField(BOX, LinearField((0.0, 1.0, 0.0, 0.0)), ConstantField(0.0))
    r = at(0.0, BaseNumber.rational(5))
    t = at(1.0, BaseNumber.rational(5))
    report = compare_outcomes(r, t, f, mode="parallel-transform")
    assert report.equal
    assert report.ratio == pytest.approx(math.e, rel=1e-14)
    assert report.transported == pytest.approx(5.0 * math.e, rel=1e-14)
    assert report.mismatch_factor == pytest.approx(math.e, rel=1e-14)
    assert not report.values_match


def test_ratio_matches_literal_field_quotient():
    f = FIELDS[2]
    r = Outcome(np.array([0.5, -1.0, 0.25, 0.0]), BaseNumber.complex(2, 1))
    t = Outcome(np.array([-0.5, 1.0, 0.0, 1.5]), BaseNumber.complex(2, 1))
    report = compare_outcomes(r, t, f, mode="parallel-transform")
    literal = complex(eval_f(f, t.location) / eval_f(f, r.location))
    assert report.ratio == pytest.approx(literal, rel=1e-12)


def test_zero_target_value_has_no_mismatch_factor():
    f = FIELDS[1]
    r = at(0.0, BaseNumber.rational(3))
    t = at(1.0, BaseNumber.rational(0))
    report = compare_outcomes(r, t, f, mode="parallel-transform")
    assert report.mismatch_factor is None
    assert report.transported is not None


def test_physical_mode_reports_no_transport_numbers():
    report = compare_outcomes(at(0.0, BaseNumber.natural(2)),
                              at(1.0, BaseNumber.natural(2)), FIELDS[1])
    assert report.ratio is None
    assert report.transported is None
    assert report.mismatch_factor is None


def test_locations_must_be_on_the_manifold():
    r = Outcome(np.array([0.0, 5.0, 0.0, 0.0]), BaseNumber.natural(1))
    with pytest.raises(OutOfBounds):
        compare_outcomes(r, at(0.0, BaseNumber.natural(1)), FIELDS[0])


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        compare_outcomes(at(0.0, BaseNumber.natural(1)),
                         at(1.0, BaseNumber.natural(1)), FIELDS[0],
                         mode="telepathy")


@given(data=st.data())
@settings(max_examples=30)
def test_transmission_verdict_ignores_the_field(data):
    num = data.draw(st.integers(-50, 50), label="r_num")
    den = data.draw(st.integers(1, 20), label="den")
    same = data.draw(st.booleans(), label="same")
    r_payload = f"{num}/{den}"
    t_payload = r_payload if same else f"{num + 1}/{den}"
    coeffs = tuple(data.draw(st.floats(-0.8, 0.8)) for _ in range(4))
    f = ScalingField(BOX, LinearField(coeffs), ConstantField(0.1))
    r = at(-0.5, BaseNumber.rational(r_payload))
    t = at(0.5, BaseNumber.rational(t_payload))
    verdicts = {compare_outcomes(r, t, g).equal for g in (f, *FIELDS)}
    assert verdicts == {same}


@pytest.mark.parametrize("build, message", [
    (lambda: Outcome(np.zeros((1, 4)), BaseNumber.rational(1)),
     "location must be a single point"),
    (lambda: Outcome(np.float64(0.0), BaseNumber.rational(1)),
     "location must be a single point"),
    (lambda: compare_outcomes(at(0.0, BaseNumber.rational(1)),
                              at(1.0, BaseNumber.rational(1)), FIELDS[1],
                              mode="sideways"),
     "mode must be one of ('physical-transmission', 'parallel-transform')"),
    (lambda: compare_outcomes(at(0.0, BaseNumber.rational(10 ** 400)),
                              at(1.0, BaseNumber.rational(1)), FIELDS[1],
                              mode="parallel-transform"),
     "reference payload is beyond the float range"),
    (lambda: compare_outcomes(at(0.0, BaseNumber.rational(1)),
                              at(1.0, BaseNumber.complex(1, 10 ** 400)),
                              FIELDS[1], mode="parallel-transform"),
     "target payload is beyond the float range"),
], ids=["location-matrix", "location-scalar", "mode", "reference-payload",
        "target-payload"])
def test_outcome_refusals(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
