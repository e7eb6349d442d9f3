"""Fault rows: the checks that must turn red when the program is broken.

Each row names a module or class, an attribute of it, a faulty replacement
and the checks expected to fail while the replacement is in place.  A row
runs only its named checks, so the table stays fast; the clean tree passes
them all.  The checks are tests of this suite, called directly.
"""

import dataclasses
import itertools
import math
import tempfile
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import test_acceptance
import test_cli
import test_csvio
import test_exact
import test_fields
import test_gauge
import test_geodesic_pins
import test_geodesics
import test_golden
import test_packets
import test_paths
import test_scenario
import test_structures
from scalefield import csvio, exact, fields, gauge, geodesics, packets, paths
from scalefield import scenario, structures
from scalefield.errors import NotRepresentable
from scalefield.exact import as_exact
from scalefield.structures import (
    ScaledStructure,
    ScaledValue,
    _nonzero,
)


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


def _trapezoid_blocks(a, b, n):
    """paths._simpson_blocks with the trapezoid rule's weights."""
    w = np.full(n + 1, (b - a) / n)
    w[[0, -1]] *= 0.5
    yield np.linspace(a, b, n + 1), w


def _conjugated_factor(*args):
    return np.conj(fields.connection_factor(*args))


def _hermite_velocity_with_c2(self, s):
    """SplinePath.velocity with 2 c2 written as c2."""
    t, n, _, c1, c2, c3 = self._cubic(s)
    return (c1 + t * (c2 + t * (3.0 * c3))) * n


def _mul_with_real_sign_flipped(self, other):
    """ComplexFraction.__mul__ with + b1 b2 where - b1 b2 belongs."""
    o = exact.as_complex(other)
    a1, b1, a2, b2 = self._a, self._b, o._a, o._b
    return exact._make(a1 * a2 + b1 * b2, a1 * b2 + b1 * a2, self._d * o._d)


def _central_difference_over_h(fn, pts, axis, h):
    """fields.central_difference with step h where 2h belongs; in gauge it
    differences psi, in fields theta and phi."""
    offset = np.zeros(pts.shape[-1])
    offset[axis] = h
    return (fn(pts + offset) - fn(pts - offset)) / h


def _render_block_keyed_by_value(block):
    """csvio._render_block with cells keyed by float value, so -0 is 0."""
    keys, inverse = np.unique(block, return_inverse=True)
    texts = ("%.17g\n" * len(keys) % tuple(keys.tolist())).split("\n")[:-1]
    line = ",".join(["%s"] * block.shape[1]) + "\n"
    return line * len(block) % tuple(
        np.array(texts, dtype=object)[inverse.ravel()].tolist())


_apply_transform = gauge.apply_transform


def _transform_with_flipped_shift(coupling: str):
    """gauge.apply_transform with the shift divided by ``coupling`` (h_i: the
    photon's, g_i: phi's) of the opposite sign, made by negating that
    coupling for the transform alone."""
    def apply(fieldref, cfg, transform):
        value = getattr(cfg, coupling)
        new_field, new_cfg = _apply_transform(
            fieldref, dataclasses.replace(cfg, **{coupling: -value}),
            transform)
        return new_field, dataclasses.replace(new_cfg, **{coupling: value})
    return apply


def _evaluate_keyed_by_spec(spec, pts):
    """fields.evaluate with the share keyed by the spec alone, so a spec's
    values on the first point array it meets serve every later array."""
    share = fields._SHARE.get()
    if share is None:
        return spec.value(pts)
    entry = share.values.get(id(spec))
    if entry is None:
        entry = share.values[id(spec)] = (spec, pts, spec.value(pts))
    return entry[2]


_stencil = fields._stencil


def _stencil_with_plus_for_both(pts, axis, h):
    """fields._stencil handing out the +h array for both shifts inside a
    share."""
    plus, minus = _stencil(pts, axis, h)
    return (plus, plus) if fields._SHARE.get() is not None else (plus, minus)


_integrate = paths._integrate


def _integrate_dropping_the_weight(q, m, steps, weight=None):
    """paths._integrate whose weighted sum leaves the weight out."""
    total, weighted = _integrate(q, m, steps)
    return total, total if weight is not None else weighted


def _relabel_with_t_and_s_swapped(v, t, s, kind="rational"):
    """structures.relabel mapping v -> (s/t) v.  Its code replaces relabel's,
    so every name bound to relabel sees the fault; it reads only names that
    structures binds too."""
    tv, sv = _nonzero(t), _nonzero(s)
    if isinstance(v, ScaledValue):
        kind = v.structure.kind
        if v.structure.level_s != tv:
            raise NotRepresentable(
                f"value lives at level {v.structure.level_s}, not {tv}"
            )
        raw = v.value
    else:
        raw = v
    return ScaledValue(ScaledStructure(kind, sv, sv), sv / tv * as_exact(raw))


_build_spec = scenario._build_spec


def _build_spec_with_unit_weights(spec, manifold, label):
    """scenario._build_spec with every combination weight read as 1.0; its
    recursion into the terms calls this replacement too."""
    if spec["family"] == "combination":
        spec = {**spec, "terms": tuple({**t, "weight": 1.0}
                                       for t in spec["terms"])}
    return _build_spec(spec, manifold, label)


def _tabulated_with_axes_reversed(manifold, values):
    """TabulatedField built on its value grid with the axes reversed."""
    return fields.TabulatedField(manifold, np.transpose(values))


def _tabulated_value_with_weights_swapped(self, pts):
    """TabulatedField.value with the corner weights 1 - y and y swapped."""
    pts = np.asarray(pts, dtype=float)
    xi = pts.reshape(-1, len(self._axes))
    base = 0
    sides = []
    for a, (nodes, stride) in enumerate(self._axes):
        x = xi[:, a]
        i = np.clip(np.searchsorted(nodes, x, side="right") - 1,
                    0, len(nodes) - 2)
        y = (x - nodes[i]) / (nodes[i + 1] - nodes[i])
        base = base + i * stride
        sides.append(((0, y), (stride, 1 - y)))
    out = np.array([0.0])
    for corner in itertools.product(*sides):
        offset = sum(o for o, _ in corner)
        weight = math.prod((w for _, w in corner), start=1.0)
        out = out + self._flat[base + offset] * weight
    out[np.isnan(xi).any(axis=-1)] = np.nan
    return out.reshape(pts.shape[:-1])


def _tabulated_run():
    with tempfile.TemporaryDirectory() as out:
        test_cli.test_tabulated_theta_serves_single_point_tasks(Path(out))


def _demo_digests():
    with tempfile.TemporaryDirectory() as out:
        test_golden.test_demo_outputs_match_golden_digests(Path(out))


def _complex_digests():
    with tempfile.TemporaryDirectory() as out:
        test_golden.test_complex_scenario_outputs_match_golden_digests(
            Path(out))


CRITERION_05 = test_acceptance.test_criterion_05_flat_field_geodesics_are_straight_lines
CRITERION_06 = test_acceptance.test_criterion_06_scaled_length_of_a_unit_segment_is_e_minus_1
CRITERION_07 = test_acceptance.test_criterion_07_integrator_and_quadrature_convergence_orders
CRITERION_08 = test_acceptance.test_criterion_08_gauge_residual_vanishes_on_the_full_interior
CRITERION_09 = test_acceptance.test_criterion_09_central_differences_converge_at_second_order
CRITERION_10 = test_acceptance.test_criterion_10_geodesic_beats_100_perturbed_rivals
PINS = tuple(partial(test_geodesic_pins.test_geodesic_bits_are_pinned, name)
             for name in sorted(test_geodesic_pins.PINS))
REPELS = test_geodesics.test_euclidean_drag_repels_on_identity_metric
KEEPS_SPEED = test_geodesics.test_minkowski_spatial_motion_attracts_and_keeps_speed
# the operator check's body on one pair with nonzero imaginary parts, since
# Hypothesis spends seconds shrinking a failure it finds on its own
EXACT_MUL, EXACT_DIV = (
    partial(test_exact.test_binary_operators_match_the_pair_reference
            .hypothesis.inner_test, op, ref,
            (exact.ComplexFraction(2, 3), (Fraction(2), Fraction(3))),
            (exact.ComplexFraction(-1, 5), (Fraction(-1), Fraction(5))), False)
    for op, ref in test_exact.BINARY[2:])
COVARIANT = tuple(
    partial(test_gauge.test_covariant_derivative_is_gauge_covariant, mode)
    for mode in ("analytic", "central"))
REPEATS = tuple(
    partial(test_csvio.test_float_array_with_repeats_renders_the_bytes_of_its_rows,
            name)
    for name in ("signed-zeros", "across-blocks", "column-slice"))
TABULATED = (test_fields.test_tabulated_field_matches_sampled_function,
             *(partial(test_fields.test_tabulated_field_matches_scipy_bit_for_bit,
                       *case) for case in ((3, 6), (4, 5))),
             _tabulated_run)
SHARED = (test_gauge.test_residual_evaluates_each_field_once_per_stencil_point,
          test_gauge.test_shared_residual_equals_the_residual_of_its_unshared_terms)
RESIDUALS = (CRITERION_08, test_gauge.test_invariance_residual_is_machine_small,
             test_gauge.test_residual_in_central_difference_mode, _demo_digests)

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
    "trajectory positions read the velocity columns": (
        geodesics.Trajectory, "positions",
        property(lambda tr: tr.velocities),
        (*PINS, test_geodesics.test_flat_field_gives_straight_line,
         CRITERION_05, _demo_digests)),
    "weighted Simpson sum without its weight": (
        paths, "_integrate", _integrate_dropping_the_weight,
        (CRITERION_06, CRITERION_07, _demo_digests)),
    "Simpson replaced by the trapezoid rule": (
        paths, "_simpson_blocks", _trapezoid_blocks,
        (CRITERION_06, CRITERION_07)),
    "packet factor f(w)/f(x0) conjugated": (
        packets, "connection_factor", _conjugated_factor,
        (test_packets.test_scaled_amplitude_is_f_w_over_f_x0_at_every_node,
         test_packets.test_changing_reference_is_one_global_factor)),
    "Hermite velocity with c2 for 2 c2": (
        paths.SplinePath, "velocity", _hermite_velocity_with_c2,
        (test_paths.test_spline_with_exact_slopes_reproduces_a_cubic,)),
    "complex product with its real-part sign flipped": (
        exact.ComplexFraction, "__mul__", _mul_with_real_sign_flipped,
        (EXACT_MUL, EXACT_DIV, _complex_digests)),
    "central difference of psi over h where 2h belongs": (
        gauge, "central_difference", _central_difference_over_h,
        (*COVARIANT,
         test_gauge.test_gauge_derivative_reduces_to_plain_derivative,
         test_fields.test_covariant_derivative_kills_inverse_field_samples)),
    "CSV cells keyed by float value, -0 folded into 0": (
        csvio, "_render_block", _render_block_keyed_by_value,
        (*REPEATS,
         test_csvio.test_float_array_from_a_small_pool_renders_the_bytes_of_its_rows)),
    "photon shift sign flipped": (
        gauge, "apply_transform", _transform_with_flipped_shift("h_i"),
        RESIDUALS),
    "phi shift over g_i sign flipped": (
        gauge, "apply_transform", _transform_with_flipped_shift("g_i"),
        RESIDUALS),
    # criterion 08 and the demo run in analytic mode, where no spec meets
    # two point arrays; in central mode these faults zero every term of the
    # residual alike, so only the two share tests see them
    "evaluation share keyed by the spec alone": (
        fields, "evaluate", _evaluate_keyed_by_spec, SHARED),
    "evaluation share giving the +h array for both shifts": (
        fields, "_stencil", _stencil_with_plus_for_both, SHARED),
    "central difference of theta and phi over h where 2h belongs": (
        fields, "central_difference", _central_difference_over_h,
        (CRITERION_09, test_fields.test_central_gradient_matches_linear_exactly,
         test_fields.test_central_gradient_is_second_order)),
    "combination weights read as 1.0": (
        scenario, "_build_spec", _build_spec_with_unit_weights,
        (test_scenario.test_combination_terms_parse_recursively,)),
    "tabulated values built with their axes reversed": (
        scenario, "_FAMILIES",
        {**scenario._FAMILIES, "tabulated": (_tabulated_with_axes_reversed,
                                             scenario._FAMILY_KEYS["tabulated"])},
        (_tabulated_run,)),
    "tabulated corner weights 1 - y and y swapped": (
        fields.TabulatedField, "value", _tabulated_value_with_weights_swapped,
        TABULATED),
    # criterion 02 stays green: v -> (s/t) v composes as exactly as (t/s) v
    "relabel with t and s swapped": (
        structures.relabel, "__code__", _relabel_with_t_and_s_swapped.__code__,
        (test_structures.test_relabel_matches_stride_change,
         test_structures.test_relabel_two_hops_equals_direct,
         test_structures.test_relabel_complex_ratio)),
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


def test_the_swapped_relabel_is_relabel_with_its_levels_swapped():
    for v, t, s in ((Fraction(3), 4, 2), (Fraction(-5, 7), Fraction(2, 3), 9)):
        assert (_relabel_with_t_and_s_swapped(v, t, s).value
                == structures.relabel(v, s, t).value)
