"""Path lengths, the theta weight, reference changes, variational check."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalefield.errors import DegenerateParameterization, OutOfBounds
from scalefield.fields import ConstantField, GaussianField, LinearField, ScalingField
from scalefield.manifold import Manifold
from scalefield.paths import (
    _BLOCK_NODES,
    AnalyticPath,
    PerturbedPath,
    PolylinePath,
    SegmentPath,
    SplinePath,
    change_reference,
    local_path_length,
    path_lengths,
    scaled_path_length,
    simpson_pieces,
    variational_check,
    _simpson_blocks,
)

BOX3 = Manifold.box([(-3.0, 3.0)] * 3, 13)
BOX4 = Manifold.box([(-3.0, 3.0)] * 4, 13)


def flat_field(m, theta=None, phi=None):
    return ScalingField(m, theta or ConstantField(0.0),
                        phi or ConstantField(0.0))


def test_unit_spatial_segment_in_minkowski():
    q = SegmentPath(np.zeros(4), np.array([0.0, 1.0, 0.0, 0.0]))
    assert local_path_length(q, BOX4, steps=10) == pytest.approx(1.0, abs=1e-14)


def test_unit_timelike_segment():
    q = SegmentPath(np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]))
    assert local_path_length(q, BOX4, steps=10) == pytest.approx(1.0, abs=1e-14)


def test_null_segment_has_zero_length():
    q = SegmentPath(np.zeros(4), np.array([1.0, 1.0, 0.0, 0.0]))
    assert local_path_length(q, BOX4, steps=10) == 0.0


def test_quarter_circle():
    q = AnalyticPath(
        lambda s: np.stack([np.cos(np.pi * s / 2), np.sin(np.pi * s / 2),
                            np.zeros_like(s)], axis=-1),
        lambda s: np.stack([-np.pi / 2 * np.sin(np.pi * s / 2),
                            np.pi / 2 * np.cos(np.pi * s / 2),
                            np.zeros_like(s)], axis=-1),
    )
    assert local_path_length(q, BOX3, steps=100) == pytest.approx(
        math.pi / 2, abs=1e-8)


def test_point_path_is_degenerate():
    q = SegmentPath(np.array([0.5, 0.5, 0.5]), np.array([0.5, 0.5, 0.5]))
    with pytest.raises(DegenerateParameterization):
        local_path_length(q, BOX3, steps=10)


def test_too_few_steps_rejected():
    q = SegmentPath(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError):
        local_path_length(q, BOX3, steps=1)


@pytest.mark.parametrize("n", [2, 2 ** 16 - 2, 2 ** 16, 2 ** 16 + 2, 10 ** 6])
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.25, 0.75), (1 / 3, 2 / 3)])
def test_simpson_blocks_are_linspace_nodes_and_1_4_2_weights(a, b, n):
    blocks = list(_simpson_blocks(a, b, n))
    assert all(len(s) == len(w) <= _BLOCK_NODES for s, w in blocks)
    s = np.concatenate([s for s, _ in blocks])
    w = np.concatenate([w for _, w in blocks])
    want_w = np.ones(n + 1)
    want_w[1:-1:2] = 4.0
    want_w[2:-1:2] = 2.0
    want_w *= (b - a) / (3.0 * n)
    assert np.array_equal(s, np.linspace(a, b, n + 1))
    assert np.array_equal(w, want_w)


@pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
def test_segment_nodes_are_the_broadcast_formula_bit_for_bit(shape):
    rng = np.random.default_rng(len(shape))
    start = rng.uniform(-2.0, 2.0, 4)
    start[1] = -0.0
    end = rng.uniform(-2.0, 2.0, 4)
    end[1] = 0.0
    s = rng.uniform(-0.5, 1.5, shape)
    q = SegmentPath(start, end)
    want = start + s[..., None] * (end - start), np.broadcast_to(
        end - start, s.shape + (4,))
    for got, ref in zip((q.position(s), q.velocity(s)), want):
        assert got.shape == ref.shape
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_long_segment_matches_its_minkowski_length():
    start = np.array([-1.5, -0.7, -1.2, -0.4])
    end = np.array([1.1, 1.6, 0.3, 1.4])
    d = end - start
    exact = math.sqrt(abs(d[0] ** 2 - d[1] ** 2 - d[2] ** 2 - d[3] ** 2))
    steps = 10 ** 6
    got = local_path_length(SegmentPath(start, end), BOX4, steps)
    assert got == pytest.approx(exact, rel=steps * np.finfo(float).eps,
                                abs=0.0)


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scaled_length_memory_does_not_grow_with_steps():
    f = flat_field(BOX4, theta=GaussianField(0.4, (0.1, -0.2, 0.0, 0.3), 1.1))
    q = SegmentPath(np.array([-1.5, -0.7, -1.2, -0.4]),
                    np.array([1.1, 1.6, 0.3, 1.4]))
    peaks = [_peak_bytes(lambda: scaled_path_length(q, f, np.zeros(4), steps))
             for steps in (2 ** 17, 2 ** 20)]
    assert peaks[1] / peaks[0] < 1.25


_RNG = np.random.default_rng(21)
_VERTICES = np.array([(-1.0, 0.2, -0.5, 0.0), (-0.2, 1.1, 0.3, 0.4),
                      (0.6, 0.9, 1.2, -0.3), (1.3, -0.4, 0.8, 0.5)])
ONE_WALK_PATHS = {
    # more nodes than one block, so the walk's partial sums are exercised
    "segment": (SegmentPath(np.array([-1.5, -0.7, -1.2, -0.4]),
                            np.array([1.1, 1.6, 0.3, 1.4])),
                3 * _BLOCK_NODES),
    "polyline": (PolylinePath(_VERTICES), 1000),
    "spline": (SplinePath(_RNG.uniform(-1.0, 1.0, (7, 4)),
                          _RNG.uniform(-1.0, 1.0, (7, 4))), 1000),
    "perturbed": (PerturbedPath(PolylinePath(_VERTICES),
                                _RNG.uniform(-0.1, 0.1, (5, 3)), (1, 2, 3)),
                  1000),
}


@pytest.mark.parametrize("name", sorted(ONE_WALK_PATHS))
def test_both_lengths_come_from_one_walk(name, monkeypatch):
    q, steps = ONE_WALK_PATHS[name]
    f = flat_field(BOX4, theta=GaussianField(0.4, (0.1, -0.2, 0.0, 0.3), 1.1))
    x_ref = np.array([0.2, 0.1, -0.3, 0.0])
    separate = (local_path_length(q, BOX4, steps),
                scaled_path_length(q, f, x_ref, steps))
    velocity = type(q).piece_velocity
    nodes = {}

    def counted(self, s, a, b):
        if self is q:
            nodes[a, b] = nodes.get((a, b), 0) + len(s)
        return velocity(self, s, a, b)

    monkeypatch.setattr(type(q), "piece_velocity", counted)
    assert path_lengths(q, f, x_ref, steps) == separate
    # every node's tangent is computed once: the calls of a piece, however
    # the walk slices it, take its n + 1 nodes
    assert nodes == {(a, b): n + 1 for a, b, n in simpson_pieces(q, steps)}


# path_lengths over more than three 2**16-node blocks, as float.hex: the
# block sums, their order and each node's integrand are all pinned
MULTI_BLOCK_STEPS = 3 * _BLOCK_NODES + 6000
MULTI_BLOCK_PINS = {
    "segment-4d-gaussian": (
        SegmentPath(np.array([-1.5, -0.7, -1.2, -0.4]),
                    np.array([1.1, 1.6, 0.3, 1.4])),
        flat_field(BOX4, theta=GaussianField(0.4, (0.1, -0.2, 0.0, 0.3), 1.1)),
        np.array([0.2, 0.1, -0.3, 0.0]),
        ("0x1.00a3a2bdeacc2p+1", "0x1.b0bdf9b0a8aeep+0")),
    "spline-3d-linear": (
        SplinePath(_RNG.uniform(-1.0, 1.0, (9, 3)),
                   _RNG.uniform(-1.0, 1.0, (9, 3))),
        flat_field(BOX3, theta=LinearField((0.3, -0.2, 0.45), 0.1)),
        np.array([0.5, -0.25, 0.0]),
        ("0x1.6e631cda848afp+3", "0x1.0a0b57a47c3d7p+3")),
}


@pytest.mark.parametrize("name", sorted(MULTI_BLOCK_PINS))
def test_multi_block_path_lengths_are_pinned(name):
    q, f, x_ref, pinned = MULTI_BLOCK_PINS[name]
    assert max(n for *_, n in simpson_pieces(q, MULTI_BLOCK_STEPS)) + 1 \
        > 3 * _BLOCK_NODES
    got = path_lengths(q, f, x_ref, MULTI_BLOCK_STEPS)
    assert tuple(x.hex() for x in got) == pinned


def test_polyline_elbow_is_exact():
    q = PolylinePath([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0)])
    assert local_path_length(q, BOX3, steps=6) == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("m, vertices", [
    (BOX3, [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 2.0, 0.0),
            (1.0, 2.0, 1.5)]),
    (BOX4, [(0.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
            (0.0, 1.0, 2.0, 0.0), (0.5, 1.0, 2.0, 1.5),
            (2.5, 1.0, 2.0, 1.5)]),
])
def test_polyline_with_unequal_segments_sums_segment_lengths(m, vertices):
    # Every Simpson piece must use its own segment's tangent at both ends,
    # including the vertex it shares with a longer or shorter neighbour.
    v = np.array(vertices)
    d = np.diff(v, axis=0)
    expected = float(np.sum(np.sqrt(np.abs(
        np.sum(m.metric_diagonal * d * d, axis=-1)))))
    q = PolylinePath(v)
    assert local_path_length(q, m) == pytest.approx(expected, rel=1e-12)
    scaled = scaled_path_length(q, flat_field(m), v[0])
    assert scaled == pytest.approx(expected, rel=1e-12)
    flat_bump = PerturbedPath(q, np.zeros((1, 1)), (1,))
    assert local_path_length(flat_bump, m) == pytest.approx(expected,
                                                            rel=1e-12)


def test_constant_theta_weight_is_identity():
    m = BOX3
    f = flat_field(m, theta=ConstantField(0.9))
    q = PolylinePath([(0.0, 0.0, 0.0), (0.5, 1.0, -0.5), (1.0, 1.0, 0.0)])
    assert scaled_path_length(q, f, np.zeros(3), steps=40) \
        == local_path_length(q, m, steps=40)


def test_exponential_weight_closed_form():
    f = flat_field(BOX4, theta=LinearField((0.0, 1.0, 0.0, 0.0)))
    q = SegmentPath(np.zeros(4), np.array([0.0, 1.0, 0.0, 0.0]))
    got = scaled_path_length(q, f, np.zeros(4), steps=1000)
    assert got == pytest.approx(math.e - 1.0, abs=1e-8)


def test_quadrature_error_falls_eightfold_per_doubling():
    b = 2.0
    f = flat_field(BOX4, theta=LinearField((0.0, b, 0.0, 0.0)))
    q = SegmentPath(np.zeros(4), np.array([0.0, 1.0, 0.0, 0.0]))
    exact = (math.exp(b) - 1.0) / b
    errs = [abs(scaled_path_length(q, f, np.zeros(4), steps=n) - exact)
            for n in (8, 16, 32)]
    assert errs[0] / errs[1] >= 8.0
    assert errs[1] / errs[2] >= 8.0


def test_path_leaving_bounds_is_caught():
    f = flat_field(BOX3, theta=LinearField((1.0, 0.0, 0.0)))
    q = SegmentPath(np.zeros(3), np.array([5.0, 0.0, 0.0]))
    with pytest.raises(OutOfBounds):
        scaled_path_length(q, f, np.zeros(3), steps=10)


def test_reference_change_examples():
    b = 0.7
    f = flat_field(BOX3, theta=LinearField((b, 0.0, 0.0)))
    z = np.array([1.0, 0.0, 0.0])
    assert change_reference(2.0, f, np.zeros(3), np.zeros(3)) == 2.0
    assert change_reference(2.0, f, np.zeros(3), z) \
        == pytest.approx(2.0 * math.exp(-b), rel=1e-14)


def test_reference_hops_compose():
    f = flat_field(BOX3, theta=GaussianField(0.8, (0.2, -0.1, 0.0), 1.1))
    a = np.array([-1.0, 0.5, 0.0])
    b = np.array([0.3, -0.4, 1.0])
    c = np.array([1.5, 1.0, -0.5])
    direct = change_reference(3.0, f, a, c)
    hops = change_reference(change_reference(3.0, f, a, b), f, b, c)
    assert hops == pytest.approx(direct, rel=1e-12)


def test_reference_change_matches_requadrature():
    f = flat_field(BOX3, theta=GaussianField(0.5, (0.0, 0.3, 0.0), 1.0))
    q = SegmentPath(np.array([-1.0, 0.0, 0.0]), np.array([1.0, 0.5, 0.0]))
    x = np.zeros(3)
    z = np.array([0.5, -0.5, 0.5])
    at_x = scaled_path_length(q, f, x, steps=200)
    at_z = scaled_path_length(q, f, z, steps=200)
    assert change_reference(at_x, f, x, z) == pytest.approx(at_z, rel=1e-13)


def test_spline_through_collinear_points_is_straight():
    samples = np.linspace(0, 1, 9)[:, None] * np.array([0.0, 1.0, 0.0, 0.0])
    q = SplinePath(samples, np.tile([0.0, 1.0, 0.0, 0.0], (9, 1)))
    assert local_path_length(q, BOX4, steps=64) == pytest.approx(1.0, abs=1e-12)


def _cubic(s):
    """q(s) = a + b s + c s^2 + d s^3 in 2d, and dq/ds."""
    a, b = np.array([1.0, 2.0]), np.array([-1.0, 0.5])
    c, d = np.array([3.0, -2.0]), np.array([0.7, 1.3])
    s = np.asarray(s, dtype=float)[..., None]
    return a + s * (b + s * (c + s * d)), b + s * (2.0 * c + s * 3.0 * d)


def test_spline_with_exact_slopes_reproduces_a_cubic():
    knots = np.linspace(0.0, 1.0, 8)
    q = SplinePath(*_cubic(knots))
    s = np.linspace(0.0, 1.0, 1001)
    position, velocity = _cubic(s)
    assert np.max(np.abs(q.position(s) - position)) < 1e-14
    assert np.max(np.abs(q.velocity(s) - velocity)) < 1e-13


def test_spline_takes_the_given_velocity_at_every_knot():
    rng = np.random.default_rng(3)
    samples = rng.normal(size=(12, 3))
    velocities = rng.normal(size=(12, 3))
    q = SplinePath(samples, velocities)
    knots = np.linspace(0.0, 1.0, 12)
    assert np.allclose(q.position(knots), samples, rtol=0.0, atol=1e-14)
    assert np.allclose(q.velocity(knots), velocities, rtol=0.0, atol=1e-13)


def test_spline_needs_one_velocity_per_sample():
    samples = np.zeros((5, 3))
    samples[:, 0] = np.linspace(0, 1, 5)
    for velocities in (np.array([1.0, 0.0, 0.0]), np.zeros((4, 3)),
                       np.zeros((5, 2))):
        with pytest.raises(ValueError):
            SplinePath(samples, velocities)


def test_perturbation_keeps_endpoints():
    base = SegmentPath(np.zeros(3), np.array([1.0, 0.0, 0.0]))
    rival = PerturbedPath(base, np.full((5, 2), 0.3), axes=(1, 2))
    ends = rival.position(np.array([0.0, 1.0]))
    assert np.allclose(ends[0], base.start, atol=1e-12)
    assert np.allclose(ends[1], base.end, atol=1e-12)


def test_straight_line_beats_all_rivals():
    f = flat_field(BOX3)
    q = SegmentPath(np.array([-1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    report = variational_check(q, f, perturbations=50, amplitude=1e-2,
                               seed=11, steps=400)
    assert report.minimizes
    assert report.fraction_not_shorter == 1.0


def test_detour_loses_to_some_rival():
    f = flat_field(BOX3)
    q = PolylinePath([(-1.0, 0.0, 0.0), (0.0, 0.4, 0.0), (1.0, 0.0, 0.0)])
    report = variational_check(q, f, perturbations=50, amplitude=1e-2,
                               seed=11, steps=400)
    assert report.fraction_not_shorter < 1.0
    assert not report.minimizes


@given(k=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
@settings(max_examples=20)
def test_constant_theta_never_changes_length(k):
    f = flat_field(BOX3, theta=ConstantField(k))
    q = SegmentPath(np.array([-1.0, -1.0, 0.0]), np.array([1.0, 1.0, 0.5]))
    assert scaled_path_length(q, f, np.ones(3), steps=20) \
        == local_path_length(q, BOX3, steps=20)


@given(data=st.data())
@settings(max_examples=20)
def test_reference_factor_is_exponent_difference(data):
    coeffs = [data.draw(st.floats(-0.5, 0.5), label=f"a{i}") for i in range(3)]
    f = flat_field(BOX3, theta=LinearField(tuple(coeffs)))
    frm = np.array([data.draw(st.floats(-2, 2)) for _ in range(3)])
    to = np.array([data.draw(st.floats(-2, 2)) for _ in range(3)])
    got = change_reference(1.0, f, frm, to)
    expected = math.exp(float(np.dot(coeffs, frm) - np.dot(coeffs, to)))
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("build, message", [
    (lambda: SegmentPath(np.zeros(3), np.zeros(2)),
     "endpoints must be two points of equal dimension"),
    (lambda: SegmentPath(np.zeros((2, 3)), np.zeros((2, 3))),
     "endpoints must be two points of equal dimension"),
    (lambda: PolylinePath(np.zeros((1, 3))),
     "need at least two vertices of equal dimension"),
    (lambda: PolylinePath(np.zeros(3)),
     "need at least two vertices of equal dimension"),
    (lambda: SplinePath(np.zeros((1, 3)), np.zeros((1, 3))),
     "need at least two samples of equal dimension"),
    (lambda: SplinePath(np.zeros((2, 3)), np.zeros((2, 2))),
     "need one velocity per sample"),
    (lambda: PerturbedPath(SegmentPath(np.zeros(3), np.ones(3)),
                           np.zeros((2, 3)), (1, 2)),
     "one coefficient column per perturbed axis"),
], ids=["segment-dimensions", "segment-rank", "polyline-one-vertex",
        "polyline-rank", "spline-one-sample", "spline-velocities",
        "perturbed-columns"])
def test_path_refusals(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
