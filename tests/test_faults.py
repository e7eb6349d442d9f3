"""Fault rows: the checks that must turn red when the program is broken.

Each row names a module or class, an attribute of it, a faulty replacement
and the checks expected to fail while the replacement is in place.  A row
runs only its named checks, so the table stays fast; the clean tree passes
them all.  The checks are tests of this suite, called directly.
"""

import dataclasses
import io
import itertools
import math
import tempfile
import types
from contextlib import redirect_stderr
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
import test_geodesic_batch
import test_geodesic_pins
import test_geodesics
import test_golden
import test_outcomes
import test_packets
import test_paths
import test_scenario
import test_scripts
import test_structures
from scalefield import csvio, exact, fields, gauge, geodesics, outcomes
from scalefield import packets, paths, scenario, structures
from scalefield.errors import BoundaryPoint, NotRepresentable, OutOfBounds
from scalefield.exact import as_exact
from scalefield.manifold import Manifold
from scalefield.structures import (
    ScaledStructure,
    ScaledValue,
    _nonzero,
)


def _rate_with(drag_sign: float, force_sign: float,
               across_rows: bool = False):
    """geodesics._rate with the drag and force terms scaled by the signs;
    with ``across_rows``, a batch's drag is one sum over all of its rows."""
    def rate(y, fieldref, minkowski, neg_eta):
        dim = neg_eta.shape[-1]
        v = y[..., dim:]
        gamma = fieldref.gradient_of(fieldref.theta, y[..., :dim])
        pull = neg_eta * gamma
        dg = -pull if minkowski else gamma
        c = np.vecdot(dg, v, keepdims=True)
        if across_rows:
            c = np.sum(dg * v)
        accel = force_sign * pull - drag_sign * c * v
        return np.concatenate((v, accel), axis=-1)
    return rate


def _step_each_keeping_the_leaving_rows(y, h, m, args):
    """geodesics._step_each with a row whose step leaves kept in the
    batch, at its last state, instead of stopped."""
    stepped = []
    for i in range(len(y)):
        try:
            stepped.append(geodesics._step(y[i:i + 1], h, m, args))
        except (OutOfBounds, BoundaryPoint):
            stepped.append(y[i:i + 1])
    return np.concatenate(stepped), np.ones(len(y), dtype=bool)


def _step_each_stopping_every_row(y, h, m, args):
    """geodesics._step_each stopping the whole batch for one leaving row."""
    return y[:0], np.zeros(len(y), dtype=bool)


def _step_testing_only_the_end(y, h, m, args):
    """geodesics._step with its stage points left out of the bounds test:
    only each row's end must lie on the grid."""
    k1 = geodesics._rate(y, *args)
    k2 = geodesics._rate(y + 0.5 * h * k1, *args)
    k3 = geodesics._rate(y + 0.5 * h * k2, *args)
    k4 = geodesics._rate(y + h * k3, *args)
    y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    m.require_inside(y[..., :m.dimension])
    return y


def _combination_gradient_from_its_first_term(self, pts):
    """CombinationField.gradient summing from its first term, not +0.0."""
    out = None
    for c, s in self.terms:
        g = fields.analytic_gradient(s, pts)
        g = g if c == 1.0 else c * g
        out = g if out is None else out + g
    return out


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


_differences = fields.ScalingField.differences


def _differences_over_h_for(specs: bool):
    """ScalingField.differences with step h where 2h belongs, for the specs
    it differences (theta, phi, a transform's alpha) if specs, else for the
    other functions of points it differences (psi)."""
    def differences(self, fn, pts, axes):
        d = _differences(self, fn, pts, axes)
        of_spec = isinstance(fn, partial) and fn.func is fields.evaluate
        return 2.0 * d if of_spec == specs else d
    return differences


def _axis_derivative_along_the_next_axis(self, pts):
    """AxisDerivativeField.value taking column (axis + 1) % dim of the
    gradient."""
    return self.field.gradient_of(self.base, pts)[
        ..., (self.axis + 1) % pts.shape[-1]]


def _gradient_of_keyed_by_spec(self, spec, pts):
    """ScalingField.gradient_of with the central share keyed by the spec
    alone, so a spec's gradient at the first point array it meets serves
    every later array."""
    if self.gradient_mode == "analytic":
        return fields.analytic_gradient(spec, pts)
    args = (partial(fields.evaluate, spec), pts,
            range(self.manifold.dimension))
    share = fields._SHARE.get()
    if share is None:
        return self.differences(*args)
    return fields._once(share, ("central", id(spec)), self.differences, *args)


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
    return fields._once(share, ("value", id(spec)), spec.value, pts)


def _analytic_gradient_afresh(spec, pts):
    """fields.analytic_gradient taking the gradient on every call, also
    inside a share."""
    return spec.gradient(pts)


_stencil = fields._stencil


def _stencil_with_plus_for_both(pts, axis, h):
    """fields._stencil handing out the +h array for both shifts inside a
    share."""
    plus, minus = _stencil(pts, axis, h)
    return (plus, plus) if fields._SHARE.get() is not None else (plus, minus)


# the name the replacement body below reads in fields' globals
_SHARE = fields._SHARE


def _shared_evaluation_starting_empty():
    """fields.shared_evaluation's body starting an empty share also inside
    an open one."""
    token = _SHARE.set({})
    try:
        yield
    finally:
        _SHARE.reset(token)


_first_non_finite = scenario.first_non_finite


def _first_non_finite_by_sorted_key(results):
    """scenario.first_non_finite scanning the keys in sorted order."""
    return _first_non_finite(dict(sorted(results.items())))


def _compare_refusal(case):
    """test_cli's non-finite compare refusal for one of its cases, with a
    stand-in for capsys that reads the stderr captured here."""
    err = io.StringIO()
    capsys = types.SimpleNamespace(
        readouterr=lambda: types.SimpleNamespace(err=err.getvalue()))
    with tempfile.TemporaryDirectory() as out, redirect_stderr(err):
        test_cli.test_compare_whose_report_would_not_be_finite_is_a_validation_error(
            Path(out), capsys, *test_cli.NON_FINITE_COMPARES[case])


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
    for a, (nodes, _, stride) in enumerate(self._axes):
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


_tabulated_init = fields.TabulatedField.__post_init__


def _tabulated_init_calling_every_table_finite(self):
    """TabulatedField.__post_init__ with the finiteness flag always set, so
    corners of weight zero are skipped in tables holding +-inf too."""
    _tabulated_init(self)
    object.__setattr__(self, "_finite", True)


def _interior_grid_points_row_major(self, index=None):
    """Manifold.interior_grid_points with its points stored as C-ordered
    rows, one after another."""
    shape = self.interior_shape
    if index is None:
        index = np.arange(math.prod(shape))
    cols = np.unravel_index(index, shape)
    return np.stack([self.axis_nodes(a)[1:-1][c]
                     for a, c in enumerate(cols)], axis=-1)


def _linear_value_in_the_points_order(self, pts):
    """LinearField.value taking a . x in whatever memory order the points
    come, so coordinate-major points move its bits."""
    return pts @ self._a + self.offset


def _integrate_with_a_dot_per_slice(q, m, steps, weight=None):
    """paths._integrate summing each slice of a block with its own np.dot."""
    eta = m.metric_diagonal
    total = weighted = 0.0
    for a, b, n in paths.simpson_pieces(q, steps):
        for s, w in paths._simpson_blocks(a, b, n):
            for i0 in range(0, len(s), paths._SLICE_NODES):
                part = slice(i0, i0 + paths._SLICE_NODES)
                v = q.piece_velocity(s[part], a, b)
                g = np.sqrt(np.abs((eta * v * v).sum(axis=-1)))
                total += float(np.dot(w[part], g))
                if weight is not None:
                    weighted += float(np.dot(
                        w[part], g * weight(q.position(s[part]))))
    return total, weighted


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


def _batched_scenario():
    with tempfile.TemporaryDirectory() as out:
        (test_geodesic_batch
         .test_batched_scenario_writes_what_each_geodesic_writes_alone(
             Path(out)))


def _grids_pin():
    with tempfile.TemporaryDirectory() as out:
        test_scripts.test_grids_outputs_of_seed_11_are_pinned(Path(out))


def _trajectories_pin():
    with tempfile.TemporaryDirectory() as out:
        test_scripts.test_trajectories_outputs_of_seed_11_are_pinned(Path(out))


CRITERION_05 = test_acceptance.test_criterion_05_flat_field_geodesics_are_straight_lines
CRITERION_06 = test_acceptance.test_criterion_06_scaled_length_of_a_unit_segment_is_e_minus_1
CRITERION_07 = test_acceptance.test_criterion_07_integrator_and_quadrature_convergence_orders
CRITERION_08 = test_acceptance.test_criterion_08_gauge_residual_vanishes_on_the_full_interior
CRITERION_09 = test_acceptance.test_criterion_09_central_differences_converge_at_second_order
CRITERION_10 = test_acceptance.test_criterion_10_geodesic_beats_100_perturbed_rivals
CRITERION_11 = test_acceptance.test_criterion_11_comparison_verdicts_ignore_the_field
PINS = tuple(partial(test_geodesic_pins.test_geodesic_bits_are_pinned, name)
             for name in sorted(test_geodesic_pins.PINS))
CENTRAL_PIN = partial(test_geodesic_pins.test_geodesic_bits_are_pinned,
                      "trajectories-family-central")
REPELS = test_geodesics.test_euclidean_drag_repels_on_identity_metric
KEEPS_SPEED = test_geodesics.test_minkowski_spatial_motion_attracts_and_keeps_speed
EXITS = test_geodesics.test_exit_gives_truncated_trajectory_not_an_exception
STAGE_LEAVES = (test_geodesics
                .test_a_step_whose_stage_point_leaves_stops_though_its_end_is_inside)
BATCH = {case: tuple(
    partial(test_geodesic_batch.test_batch_rows_are_their_lone_integrations,
            name, case) for name in sorted(test_geodesic_pins.PINS))
    for case in ("inside", "leaving", "margin")}
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
PARTIALS = tuple(
    partial(test_fields.test_axis_derivative_field_is_its_fields_partial, mode)
    for mode in ("analytic", "central"))
ON_NODES_WITH_INF = tuple(
    partial(test_fields.test_tabulated_field_on_nodes_matches_scipy_bit_for_bit,
            dim, "holding +-inf")
    for dim in (3, 4))
INTERIOR_LAYOUT = tuple(
    partial(test_fields.test_bulk_points_are_coordinate_major, name)
    for name in ("interior grid points", "interior grid points by index"))
LINEAR_LAYOUT = tuple(
    partial(test_fields.test_spec_bits_do_not_depend_on_the_points_layout,
            "linear", dim)
    for dim in (3, 4))
MULTI_BLOCK = tuple(
    partial(test_paths.test_multi_block_path_lengths_are_pinned, name)
    for name in sorted(test_paths.MULTI_BLOCK_PINS))
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
    # one trajectory is the batch of one.  A batch of one sums its drag
    # across rows as its own row's sum, bit for bit, and stops its one
    # leaving row either way, so the first and third of these three leave
    # the geodesic pins green and turn red only batches of two or more:
    # the first all 15 batch cases, the third the 10 leaving and margin
    # ones.  A leaving row kept stepping also keeps a lone trajectory
    # stepping, which turns red the exit tests of test_geodesics.py and
    # the lone pins of the leaving and margin cases as well
    "drag contracted across the batch axis": (
        geodesics, "_rate", _rate_with(1.0, 1.0, across_rows=True),
        (*BATCH["inside"], _batched_scenario, _trajectories_pin)),
    "a stopped batch row that keeps stepping": (
        geodesics, "_step_each", _step_each_keeping_the_leaving_rows,
        (*BATCH["leaving"], *BATCH["margin"], _batched_scenario,
         test_geodesic_batch.test_a_batch_that_leaves_entirely_stops_every_row,
         EXITS)),
    "one leaving row that stops the whole batch": (
        geodesics, "_step_each", _step_each_stopping_every_row,
        (*BATCH["leaving"], *BATCH["margin"], _batched_scenario,
         test_geodesic_batch.test_a_batch_that_leaves_entirely_stops_every_row)),
    "bounds tested at each step's end alone": (
        geodesics, "_step", _step_testing_only_the_end, (STAGE_LEAVES,)),
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
    # a refusal names the first non-finite value in the report's order;
    # the subnormal-target case names mismatch_factor in either order
    "non-finite result named in sorted key order": (
        scenario, "first_non_finite", _first_non_finite_by_sorted_key,
        (partial(_compare_refusal, "transported"),
         partial(_compare_refusal, "field-value"))),
    # outcomes reads f(y)/f(x) from connection_factor alone; the literal
    # quotient of field values is the tests' reference, not a runtime check
    "compare ratio conjugated": (
        outcomes, "connection_factor", _conjugated_factor,
        (test_outcomes.test_ratio_matches_literal_field_quotient,
         CRITERION_11, _demo_digests)),
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
        fields.ScalingField, "differences", _differences_over_h_for(False),
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
    "central gradient share keyed by the spec alone": (
        fields.ScalingField, "gradient_of", _gradient_of_keyed_by_spec,
        (test_gauge.test_residual_takes_each_central_gradient_once,)),
    "nested share starts empty": (
        fields.shared_evaluation.__wrapped__, "__code__",
        _shared_evaluation_starting_empty.__code__,
        (test_gauge.test_a_nested_share_joins_the_open_one,
         test_gauge.test_residual_takes_each_central_gradient_once)),
    "analytic gradient taken afresh inside a share": (
        fields, "analytic_gradient", _analytic_gradient_afresh,
        (test_gauge.test_residual_takes_alphas_analytic_gradient_once,)),
    "central difference of theta and phi over h where 2h belongs": (
        fields.ScalingField, "differences", _differences_over_h_for(True),
        (CRITERION_09, test_fields.test_central_gradient_matches_linear_exactly,
         test_fields.test_central_gradient_is_second_order, CENTRAL_PIN)),
    "photon shift differencing alpha along the next axis": (
        fields.AxisDerivativeField, "value",
        _axis_derivative_along_the_next_axis,
        (*RESIDUALS, *PARTIALS)),
    "combination gradient summed from its first term, not +0.0": (
        fields.CombinationField, "gradient",
        _combination_gradient_from_its_first_term,
        (test_fields.test_combination_gradient_sums_from_positive_zero,)),
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
    "tabulated corners skipped without the finiteness flag": (
        fields.TabulatedField, "__post_init__",
        _tabulated_init_calling_every_table_finite, ON_NODES_WITH_INF),
    "interior points built row-major": (
        Manifold, "interior_grid_points", _interior_grid_points_row_major,
        INTERIOR_LAYOUT),
    # grids evaluates linear photon components and a linear gamma on its
    # coordinate-major gauge points
    "linear spec without the row-major copy": (
        fields.LinearField, "value", _linear_value_in_the_points_order,
        (*LINEAR_LAYOUT, _grids_pin)),
    "Simpson block summed with one np.dot per slice": (
        paths, "_integrate", _integrate_with_a_dot_per_slice, MULTI_BLOCK),
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
    for minkowski in (False, True):
        args = (field, minkowski, -field.manifold.metric_diagonal[None, None])
        for states in (y[None, None], np.array([y, 0.5 * y, -y])[:, None]):
            assert np.array_equal(_rate_with(1.0, 1.0)(states, *args),
                                  geodesics._rate(states, *args))


def test_the_swapped_relabel_is_relabel_with_its_levels_swapped():
    for v, t, s in ((Fraction(3), 4, 2), (Fraction(-5, 7), Fraction(2, 3), 9)):
        assert (_relabel_with_t_and_s_swapped(v, t, s).value
                == structures.relabel(v, s, t).value)
