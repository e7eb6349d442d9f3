"""Scaling field evaluation, connection factors, and covariant derivatives."""

import itertools
import math

import numpy as np
import pytest

from scalefield import fields
from scalefield.errors import (
    BoundaryPoint,
    OutOfBounds,
    ScenarioValidationError,
    ZeroLevel,
)
from scalefield.fields import (
    AxisDerivativeField,
    CombinationField,
    ConstantField,
    GaussianField,
    LinearField,
    RadialPolynomial,
    ScalingField,
    TabulatedField,
    connection_factor,
    eval_f,
    gradients,
)
from scalefield.gauge import (
    GaugeConfig,
    gauge_connection,
    gauge_covariant_derivative,
)
from scalefield.manifold import Manifold
from scalefield.packets import gaussian_packet, scale_wave_packet


def cube(lo=-2.0, hi=2.0, nodes=17, dim=3):
    return Manifold.box([(lo, hi)] * dim, nodes)


def no_gauge(dim=3):
    """g_r = g_i = 1 and a zero photon: the derivative of the bare field."""
    return GaugeConfig(1.0, 1.0, 0.0, (ConstantField(0.0),) * dim)


def test_unit_field_when_both_exponents_vanish():
    f = ScalingField(cube(), ConstantField(0.0), ConstantField(0.0))
    pts = f.manifold.grid_points()
    assert np.allclose(eval_f(f, pts), 1.0 + 0.0j, atol=0, rtol=0)


def test_field_value_combines_magnitude_and_phase():
    f = ScalingField(cube(), ConstantField(1.0), ConstantField(math.pi))
    val = complex(eval_f(f, np.zeros(3)))
    assert val == pytest.approx(-math.e, abs=1e-12)


def test_eval_rejects_outside_points():
    f = ScalingField(cube(), ConstantField(1.0))
    with pytest.raises(OutOfBounds):
        eval_f(f, np.array([0.0, 0.0, 5.0]))


def test_linear_theta_has_exact_gradient():
    f = ScalingField(cube(), LinearField((0.5, -1.0, 2.0)))
    gamma, delta = gradients(f, np.array([0.3, 0.1, -0.2]))
    assert np.array_equal(gamma, np.array([0.5, -1.0, 2.0]))
    assert np.array_equal(delta, np.zeros(3))


def test_central_gradient_matches_linear_exactly():
    f = ScalingField(cube(), LinearField((0.5, -1.0, 2.0)),
                     gradient_mode="central", gradient_step=0.25)
    gamma, _ = gradients(f, np.zeros(3))
    assert np.allclose(gamma, [0.5, -1.0, 2.0], atol=1e-12, rtol=0)


def test_central_gradient_is_second_order():
    spec = GaussianField(1.3, (0.2, -0.1, 0.4), 0.8)
    x = np.array([0.5, 0.3, -0.2])
    exact = spec.gradient(x)
    errs = []
    for h in (0.2, 0.1, 0.05):
        f = ScalingField(cube(), spec, gradient_mode="central", gradient_step=h)
        gamma, _ = gradients(f, x)
        errs.append(np.max(np.abs(gamma - exact)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(o > 1.9 for o in orders)


def test_central_gradient_needs_margin():
    f = ScalingField(cube(), GaussianField(1.0, (0.0, 0.0, 0.0), 1.0),
                     gradient_mode="central", gradient_step=0.5)
    with pytest.raises(BoundaryPoint):
        gradients(f, np.array([1.8, 0.0, 0.0]))


@pytest.mark.parametrize("mode", ["analytic", "central"])
def test_axis_derivative_field_is_its_fields_partial(mode):
    m = cube(-1.0, 1.0, 9, dim=4)
    if mode == "analytic":
        alpha = GaussianField(0.6, (0.2, -0.1, 0.3, 0.0), 0.9)
    else:
        wave = m.grid_points() @ np.array([0.7, -0.4, 0.9, 0.3])
        alpha = TabulatedField(m, np.sin(wave) * np.exp(-0.2 * wave * wave))
    f = ScalingField(m, LinearField((0.1, 0.2, -0.3, 0.4)),
                     gradient_mode=mode)
    pts = m.interior_grid_points()
    grad = f.gradient_of(alpha, pts)
    for mu in range(m.dimension):
        got = AxisDerivativeField(alpha, mu, f).value(pts)
        assert _same_bits(got, grad[..., mu]), mu


def test_radial_polynomial_gradient_matches_finite_difference():
    spec = RadialPolynomial((1.0, 0.0, 0.5, -0.25))
    x = np.array([0.4, -0.7, 0.2])
    h = 1e-6
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = h
        fd = (spec.value(x + e) - spec.value(x - e)) / (2 * h)
        assert spec.gradient(x)[axis] == pytest.approx(fd, rel=1e-7)
    assert np.array_equal(spec.gradient(np.zeros(3)), np.zeros(3))


def test_radial_polynomial_needs_a_coefficient():
    with pytest.raises(ValueError, match="at least one coefficient"):
        RadialPolynomial(())


def test_combination_gradient_sums_from_positive_zero():
    # a term's -0.0 comes back +0.0, as the sum starts from +0.0, also when
    # a weight of 1.0 takes the term's gradient as it is
    pts = np.array([[0.3, -0.4, 0.5], [-1.0, 0.2, 0.7]])
    for weight in (1.0, 2.0):
        spec = CombinationField(((weight, LinearField((-0.0, 1.0, -0.0))),))
        grad = spec.gradient(pts)
        assert np.array_equal(grad, [[0.0, weight, 0.0]] * 2)
        assert not np.signbit(grad).any()


def test_connection_factor_along_unit_gradient():
    f = ScalingField(cube(), LinearField((1.0, 0.0, 0.0)))
    ratio = complex(connection_factor(f, np.array([1.0, 0.0, 0.0]), np.zeros(3)))
    assert ratio == pytest.approx(math.e, rel=1e-14)


def test_connection_factor_is_one_at_equal_points():
    f = ScalingField(cube(), GaussianField(2.0, (0.1, 0.2, 0.3), 0.7),
                     LinearField((0.3, 0.0, -0.2)))
    x = np.array([0.4, -0.3, 0.9])
    assert complex(connection_factor(f, x, x)) == 1.0 + 0.0j


def test_connection_factor_cocycle():
    f = ScalingField(cube(), GaussianField(1.1, (0.0, 0.0, 0.0), 0.9),
                     LinearField((0.2, -0.4, 0.1)))
    x, y, z = np.array([0.1, 0.2, 0.3]), np.array([-0.5, 0.4, 0.0]), \
        np.array([0.9, -0.8, 0.5])
    lhs = complex(connection_factor(f, z, y)) * complex(connection_factor(f, y, x))
    rhs = complex(connection_factor(f, z, x))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_constant_shift_leaves_connection_unchanged():
    base_theta = GaussianField(0.8, (0.2, 0.0, -0.1), 0.6)
    base_phi = LinearField((0.1, 0.2, -0.3))
    f0 = ScalingField(cube(), base_theta, base_phi)
    f1 = ScalingField(
        cube(),
        CombinationField(((1.0, base_theta), (1.0, ConstantField(2.5)))),
        CombinationField(((1.0, base_phi), (1.0, ConstantField(-1.3)))),
    )
    x, y = np.array([0.3, -0.4, 0.2]), np.array([-0.9, 0.6, 0.1])
    g0, d0 = gradients(f0, x)
    g1, d1 = gradients(f1, x)
    assert np.allclose(g0, g1, atol=1e-14, rtol=0)
    assert np.allclose(d0, d1, atol=1e-14, rtol=0)
    c0, c1 = complex(connection_factor(f0, y, x)), \
        complex(connection_factor(f1, y, x))
    assert c1 == pytest.approx(c0, rel=1e-12)


def test_structure_derivative_is_gamma_plus_i_delta():
    f = ScalingField(cube(), LinearField((0.5, 0.0, 0.0)),
                     LinearField((0.0, 0.25, 0.0)))
    x = np.array([0.1, 0.1, 0.1])
    coefficient = gauge_connection(f, no_gauge(), x)
    assert coefficient[0] == pytest.approx(0.5 + 0j)
    assert coefficient[1] == pytest.approx(0.25j)


def test_covariant_derivative_of_constant_sample():
    m = cube(-1.0, 1.0, 21)
    f = ScalingField(m, LinearField((0.7, -0.2, 0.4)))
    x = np.array([m.axis_nodes(a)[10] for a in range(3)])
    out = gauge_covariant_derivative(
        lambda p: np.full(p.shape[:-1], 2.0 + 0.0j), f, no_gauge(), x)
    for mu, slope in enumerate((0.7, -0.2, 0.4)):
        assert out[..., mu] == pytest.approx(2.0 * slope, rel=1e-12)


def test_covariant_derivative_kills_inverse_field_samples():
    m = Manifold.box([(-0.5, 0.5)] * 3, 65)
    theta = LinearField((0.05, -0.03, 0.02))
    phi = LinearField((0.01, 0.02, -0.04))
    f = ScalingField(m, theta, phi, gradient_mode="central")
    psi0 = 1.7 - 0.4j

    def psi(p):
        return psi0 * np.exp(-theta.value(p) - 1j * phi.value(p))

    nodes = ((32, 32, 32), (5, 50, 20), (60, 1, 33))
    x = np.array([[m.axis_nodes(a)[i] for a, i in enumerate(node)]
                  for node in nodes])
    out = gauge_covariant_derivative(psi, f, no_gauge(), x)
    assert out.shape == (3, 3)
    assert float(np.max(np.abs(out))) < 1e-8


def test_covariant_derivative_needs_interior_node():
    m = cube(-1.0, 1.0, 11)
    f = ScalingField(m, ConstantField(0.0))

    def psi(p):
        return np.ones(p.shape[:-1])

    edge = np.array([-1.0, 0.0, 0.0])
    with pytest.raises(BoundaryPoint):
        gauge_covariant_derivative(psi, f, no_gauge(), edge)
    with pytest.raises(OutOfBounds):
        gauge_covariant_derivative(psi, f, no_gauge(), edge - 0.1)


def test_tabulated_field_matches_sampled_function():
    m = cube(-1.0, 1.0, 33)
    spec = GaussianField(1.0, (0.0, 0.0, 0.0), 0.8)
    tab = TabulatedField(m, spec.value(m.grid_points()))
    x = np.array([0.31, -0.4, 0.12])
    assert tab.value(x[None])[0] == pytest.approx(spec.value(x[None])[0], abs=2e-3)
    # one point in, one scalar out: shape (), like the analytic families
    assert tab.value(x).shape == spec.value(x).shape == ()
    node = np.array([m.axis_nodes(0)[7], m.axis_nodes(1)[12], m.axis_nodes(2)[20]])
    assert tab.value(node[None])[0] == pytest.approx(spec.value(node[None])[0],
                                                     abs=1e-12)


def test_tabulated_rejects_nan():
    m = cube(nodes=5)
    vals = np.zeros(m.grid_shape)
    vals[1, 2, 3] = np.nan
    with pytest.raises(ScenarioValidationError):
        TabulatedField(m, vals)


def _scipy_linear(m, values, pts):
    """scipy's multilinear interpolant with linear extrapolation, the
    reference ``TabulatedField`` reproduces bit for bit."""
    from scipy.interpolate import RegularGridInterpolator
    interp = RegularGridInterpolator(
        tuple(m.axis_nodes(a) for a in range(m.dimension)), values,
        method="linear", bounds_error=False, fill_value=None)
    return interp(pts).reshape(pts.shape[:-1])


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("dim, nodes", [(3, 6), (4, 5)])
def test_tabulated_field_matches_scipy_bit_for_bit(dim, nodes):
    rng = np.random.default_rng(dim)
    m = Manifold.box([(-1.0 - a, 0.5 + 0.25 * a) for a in range(dim)], nodes)
    values = rng.standard_normal(m.grid_shape) * 10.0 ** rng.integers(
        -6, 6, m.grid_shape)
    values.flat[::5] = 0.0
    values.flat[::7] = -0.0
    lo = np.array([b[0] for b in m.bounds])
    hi = np.array([b[1] for b in m.bounds])
    grid = m.grid_points()
    past = rng.uniform(lo - 0.5, hi + 0.5, (4000, dim))
    past[0], past[1] = lo - 0.25, hi + 0.25  # below and above every bound
    with_nan = past[:3].copy()
    with_nan[1, -1] = np.nan
    batches = {
        "past every bound": past,
        "every node": grid.reshape(-1, dim),
        "upper corner": grid[(-1,) * dim],
        "single point": past[7],
        "batch (a, b, dim)": past[:24].reshape(4, 6, dim),
        "a NaN coordinate": with_nan,
    }
    layouts = {"C": values, "Fortran": np.asfortranarray(values),
               "transposed": values.T.copy().T}
    for layout, vals in layouts.items():
        tab = TabulatedField(m, vals)
        for name, pts in batches.items():
            got = tab.value(pts)
            assert got.shape == pts.shape[:-1], (layout, name)
            assert _same_bits(got, _scipy_linear(m, values, pts)), (layout,
                                                                     name)
    assert np.isnan(TabulatedField(m, values).value(with_nan)).tolist() \
        == [False, True, False]


def _on_node_batches(m, rng):
    """Point batches that sit on a node along each subset of axes: on a
    node below the last (y = 0), on the last node (y = 1), at -0.0 where 0.0
    is a node, with a NaN coordinate in one row, and with the other axes
    far past the box in four rows; plus central-difference stencils of the
    interior grid nodes."""
    dim = m.dimension
    nodes = [m.axis_nodes(a) for a in range(dim)]
    lo = np.array([n[0] for n in nodes])
    hi = np.array([n[-1] for n in nodes])
    batches = {}
    for subset in itertools.product((False, True), repeat=dim):
        on = [a for a in range(dim) if subset[a]]
        below = rng.uniform(lo, hi, (48, dim))
        last, zero = below.copy(), below.copy()
        for a in on:
            below[:, a] = rng.choice(nodes[a][:-1], len(below))
            last[:, a] = nodes[a][-1]
            zero[:, a] = -0.0
        with_nan = below.copy()
        with_nan[5, -1] = np.nan
        # off the nodes, far past the box: a weight there may be inf, and
        # inf * 0 is NaN, so no corner is skipped
        far = below.copy()
        for a in set(range(dim)) - set(on):
            far[:4, a] = (np.inf, -np.inf, 1e200, -1e200)
        for name, pts in (("y = 0", below), ("y = 1", last),
                          ("-0.0 on the 0.0 node", zero),
                          ("a NaN coordinate", with_nan),
                          ("far past the box", far)):
            batches[name, subset] = pts
    interior = m.interior_grid_points()
    for a in range(dim):
        h = np.zeros(dim)
        h[a] = m.spacing[a]
        batches["stencil +h", a] = interior + h
        batches["stencil -h", a] = interior - h
    return batches


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("table", ["finite", "holding +-inf"])
def test_tabulated_field_on_nodes_matches_scipy_bit_for_bit(dim, table):
    # on a node the other side's weight is exactly 0: the kernel skips that
    # corner only where doing so keeps every bit, which a table holding inf
    # (inf * 0 is NaN) never does
    rng = np.random.default_rng(10 + dim)
    m = Manifold(dim, tuple((-1.0, 1.0 + 0.5 * a) for a in range(dim)),
                 (0.5,) * dim)
    assert all(0.0 in m.axis_nodes(a) for a in range(dim))
    values = rng.standard_normal(m.grid_shape)
    values.flat[::7] = -0.0
    if table == "holding +-inf":
        values.flat[::3] = np.inf
        values.flat[1::5] = -np.inf
    tab = TabulatedField(m, values)
    nans = 0
    with np.errstate(invalid="ignore", over="ignore"):
        for name, pts in _on_node_batches(m, rng).items():
            want = _scipy_linear(m, values, pts)
            assert _same_bits(tab.value(pts), want), name
            nans += np.isnan(want).sum()
    if table == "holding +-inf":
        assert nans > 0


_SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-308, 1.0, -3.5,
                      1e308, -1e308, np.inf, -np.inf, np.nan])


@pytest.mark.parametrize("shape", [(3,), (4,), (500, 3), (500, 4),
                                   (3, 5, 7, 4), (2, 1, 4), (33, 3)])
def test_coordinate_sum_is_the_last_axis_sum_bit_for_bit(shape):
    rng = np.random.default_rng(len(shape) * 10 + shape[-1])
    draws = [rng.choice(_SPECIALS, shape) for _ in range(300 // len(shape))]
    draws += [rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300,
                                                                shape)]
    draws += [np.full(shape, -0.0)]
    with np.errstate(all="ignore"):
        for x in draws:
            want = x.sum(axis=-1)
            got = fields.coordinate_sum(x)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            # the bit patterns, NaN payloads and signs of zero included
            assert np.array_equal(np.asarray(got).view(np.uint64),
                                  np.asarray(want).view(np.uint64)), x


def test_tabulated_requires_central_mode():
    m = cube(nodes=5)
    tab = TabulatedField(m, np.zeros(m.grid_shape))
    with pytest.raises(ScenarioValidationError):
        ScalingField(m, tab)
    ScalingField(m, tab, gradient_mode="central")  # fine


def test_level_must_be_nonzero():
    m = cube(nodes=5)
    f = ScalingField(m, ConstantField(0.0))
    psi = gaussian_packet(m, (0.0, 0.0, 0.0), 1.0)
    with pytest.raises(ZeroLevel):
        scale_wave_packet(psi, f, np.zeros(3), c=0.0)


def test_manifold_spacing_must_tile():
    with pytest.raises(ValueError):
        Manifold(3, ((0.0, 1.0),) * 3, (0.3, 0.3, 0.3))


@pytest.mark.parametrize("build, message", [
    (lambda: Manifold(2, ((0.0, 1.0),) * 2, (0.5, 0.5)),
     "dimension must be 3 or 4"),
    (lambda: Manifold(3, ((0.0, 1.0),) * 2, (0.5,) * 3),
     "one (lo, hi) pair per axis required"),
    (lambda: Manifold(3, ((0.0, 1.0),) * 3, (0.5,) * 2),
     "one spacing per axis required"),
    (lambda: Manifold(3, ((0.0, 1.0), (1.0, 1.0), (0.0, 1.0)), (0.5,) * 3),
     "empty axis range [1.0, 1.0]"),
    (lambda: Manifold(3, ((0.0, 1.0),) * 3, (0.5, 0.0, 0.5)),
     "spacing must be positive"),
    (lambda: cube(nodes=3).as_points(np.zeros((2, 4))),
     "points must have 3 components, got shape (2, 4)"),
], ids=["dimension", "bounds-count", "spacing-count", "empty-range",
        "zero-spacing", "point-components"])
def test_manifold_refusals(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: ScalingField(cube(nodes=3), ConstantField(0.0),
                          gradient_mode="sideways"),
     "unknown gradient_mode 'sideways'"),
    (lambda: ScalingField(cube(nodes=3), ConstantField(0.0),
                          gradient_step=0.0),
     "gradient step must be positive"),
    (lambda: ScalingField(cube(nodes=3), ConstantField(0.0),
                          gradient_step=-0.5),
     "gradient step must be positive"),
    (lambda: GaussianField(1.0, (0.0, 0.0, 0.0), 0.0),
     "width must be positive"),
    (lambda: GaussianField(1.0, (0.0, 0.0, 0.0), -1.0),
     "width must be positive"),
    (lambda: TabulatedField(cube(nodes=3), np.zeros((3, 3, 3))).value(
        np.zeros((2, 4))),
     "points must have 3 components, got shape (2, 4)"),
], ids=["gradient-mode", "zero-step", "negative-step", "zero-width",
        "negative-width", "tabulated-point-components"])
def test_field_refusals(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_minkowski_metric_on_dim_four():
    m = Manifold.box([(0.0, 1.0)] * 4, 5)
    assert np.array_equal(m.metric_diagonal, [1.0, -1.0, -1.0, -1.0])
    assert m.spatial_axes == (1, 2, 3)
