"""Gauge derivative, transforms, and the invariance identity."""

import math
import re
from functools import partial

import numpy as np
import pytest

from scalefield.errors import BoundaryPoint, OutOfBounds, ZeroCoupling
from scalefield.fields import (
    CombinationField,
    ConstantField,
    FieldSpec,
    GaussianField,
    LinearField,
    ScalingField,
    TabulatedField,
    connection_factor,
    eval_f,
    shared_evaluation,
)
from scalefield.gauge import (
    GaugeConfig,
    GaugeTransform,
    apply_transform,
    gauge_connection,
    gauge_covariant_derivative,
    invariance_residual,
)
from scalefield.manifold import Manifold


def spacetime(nodes=9, half=1.0):
    return Manifold.box([(-half, half)] * 4, nodes)


def make_field(m, theta=None, phi=None):
    theta = theta or LinearField((0.2, -0.3, 0.1, 0.4))
    phi = phi or GaussianField(0.7, (0.0, 0.1, -0.2, 0.0), 0.9)
    return ScalingField(m, theta, phi)


def constant_photon(values):
    return tuple(ConstantField(v) for v in values)


def test_gauge_derivative_of_constant_sample():
    m = spacetime(nodes=9)
    f = ScalingField(m, LinearField((0.5, 0.1, -0.2, 0.3)), ConstantField(0.0))
    cfg = GaugeConfig(g_r=1.5, g_i=2.0, h_i=0.75,
                      photon=constant_photon((0.2, -0.4, 0.6, 0.0)))
    psi0 = 1.0 - 2.0j
    x = np.array([m.axis_nodes(a)[4] for a in range(4)])
    got = gauge_covariant_derivative(lambda p: np.full(p.shape[:-1], psi0),
                                     f, cfg, x)
    for mu, (slope, b) in enumerate(zip((0.5, 0.1, -0.2, 0.3),
                                        (0.2, -0.4, 0.6, 0.0))):
        expected = (cfg.g_r * slope + 1j * cfg.h_i * b) * psi0
        assert got[..., mu] == pytest.approx(expected, rel=1e-12)


def test_gauge_derivative_reduces_to_plain_derivative():
    m = spacetime(nodes=9)
    f = ScalingField(m, ConstantField(0.0), ConstantField(0.0))
    cfg = GaugeConfig(0.0, 0.0, 0.0, constant_photon((1.0, 1.0, 1.0, 1.0)))
    pts = m.interior_grid_points()
    got = gauge_covariant_derivative(lambda p: p[..., 1] ** 2, f, cfg, pts)
    expected = np.zeros(pts.shape)
    expected[..., 1] = 2.0 * pts[..., 1]
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


def _covariance_mismatches(mode, sign):
    """max |D'psi' - e^{i beta} D psi| with psi' = e^{sign i beta} psi, on
    criterion 08's field and couplings, at steps 0.1, 0.05, 0.025, 0.0125."""
    m = Manifold.box([(-2.0, 2.0)] * 4, 17)
    theta = GaussianField(0.7, (0.1, -0.2, 0.3, 0.0), 1.2)
    phi = LinearField((0.05, -0.1, 0.2, 0.15), 0.3)
    cfg = GaugeConfig(1.0, 0.8, 0.6,
                      (ConstantField(0.2),
                       LinearField((0.0, 0.1, 0.0, 0.0)),
                       GaussianField(0.3, (0.0, 0.0, 0.0, 0.0), 1.4),
                       ConstantField(-0.1)))
    alpha = CombinationField((
        (1.0, LinearField((0.3, -0.2, 0.1, 0.25), 0.4)),
        (1.0, GaussianField(0.6, (0.2, 0.0, -0.3, 0.1), 1.1))))
    gamma = CombinationField((
        (1.0, LinearField((-0.1, 0.35, 0.2, -0.3), -0.2)),
        (1.0, GaussianField(-0.5, (0.0, 0.4, 0.1, -0.2), 0.9))))
    tr = GaugeTransform(alpha, gamma)
    k = np.array([0.4, -0.3, 0.2, 0.5])

    def psi(p):
        return (1.0 - 0.5j) * np.exp(-0.25 * (p * p).sum(axis=-1) + 1j * p @ k)

    def psi_t(p):
        return np.exp(sign * 1j * tr.beta.value(p)) * psi(p)

    pts = m.interior_grid_points()[::37]
    phase = np.exp(1j * tr.beta.value(pts))[..., None]
    mismatches = []
    for h in (0.1, 0.05, 0.025, 0.0125):
        f = ScalingField(m, theta, phi, gradient_mode=mode, gradient_step=h)
        f_t, cfg_t = apply_transform(f, cfg, tr)
        before = gauge_covariant_derivative(psi, f, cfg, pts)
        after = gauge_covariant_derivative(psi_t, f_t, cfg_t, pts)
        mismatches.append(float(np.max(np.abs(after - phase * before))))
    return mismatches


@pytest.mark.parametrize("mode", ["analytic", "central"])
def test_covariant_derivative_is_gauge_covariant(mode):
    # D'psi' = e^{i beta} D psi holds up to the O(h^2) error of the central
    # differences, and the wrong phase e^{-i beta} breaks it at every step
    mismatches = _covariance_mismatches(mode, +1.0)
    orders = [math.log2(coarse / fine)
              for coarse, fine in zip(mismatches, mismatches[1:])]
    assert all(1.9 < order < 2.1 for order in orders), (mismatches, orders)
    assert min(_covariance_mismatches(mode, -1.0)) > 0.1


def test_transform_shifts_delta_by_unit():
    m = spacetime()
    f = make_field(m, phi=LinearField((0.0, 2.0, 0.0, 0.0)))
    cfg = GaugeConfig(1.0, 3.0, 1.0, constant_photon((0.0,) * 4))
    tr = GaugeTransform(alpha=ConstantField(0.0),
                        gamma=LinearField((0.0, 3.0, 0.0, 0.0)))
    new_field, _ = apply_transform(f, cfg, tr)
    x = np.zeros(4)
    _, delta_before = f.gamma_delta(x)
    _, delta_after = new_field.gamma_delta(x)
    assert delta_after[1] == pytest.approx(delta_before[1] - 1.0, abs=1e-14)


def test_transform_shifts_photon_by_unit():
    m = spacetime()
    f = make_field(m)
    cfg = GaugeConfig(1.0, 1.0, 0.5, constant_photon((0.0, 0.3, 0.0, 0.9)))
    tr = GaugeTransform(alpha=LinearField((0.0, 0.0, 0.5, 0.0)),
                        gamma=ConstantField(0.0))
    _, new_cfg = apply_transform(f, cfg, tr)
    x = np.zeros(4)[None]
    b = new_cfg.photon_at(x)[0]
    assert b[2] == pytest.approx(0.0 - 1.0, abs=1e-14)
    assert b[1] == pytest.approx(0.3, abs=1e-14)


def test_gamma_component_untouched():
    m = spacetime()
    f = make_field(m)
    cfg = GaugeConfig(1.2, 0.8, 0.6, constant_photon((0.1,) * 4))
    tr = GaugeTransform(alpha=GaussianField(0.4, (0.0,) * 4, 1.1),
                        gamma=LinearField((0.3, 0.1, 0.0, -0.2)))
    new_field, _ = apply_transform(f, cfg, tr)
    x = np.array([0.2, -0.3, 0.4, 0.1])
    g0, _ = f.gamma_delta(x)
    g1, _ = new_field.gamma_delta(x)
    assert np.array_equal(g0, g1)


def test_invariance_residual_is_machine_small():
    m = spacetime()
    f = make_field(m)
    cfg = GaugeConfig(1.3, 0.9, 0.7,
                      photon=(LinearField((0.1, 0.0, 0.2, 0.0)),
                              ConstantField(0.4),
                              GaussianField(0.5, (0.1, 0.0, 0.0, -0.1), 1.3),
                              ConstantField(-0.2)))
    tr = GaugeTransform(alpha=GaussianField(0.6, (0.0, 0.2, 0.0, 0.0), 1.0),
                        gamma=LinearField((0.2, -0.1, 0.3, 0.1)))
    pts = m.interior_grid_points()
    res = invariance_residual(f, cfg, tr, pts)
    assert float(np.max(res)) < 1e-10


def test_sign_flipped_alpha_breaks_invariance_by_twice_its_gradient():
    m = spacetime()
    f = make_field(m)
    cfg = GaugeConfig(1.0, 1.0, 0.5, constant_photon((0.0,) * 4))
    alpha = LinearField((0.0, 0.8, 0.0, 0.0))
    tr = GaugeTransform(alpha=alpha, gamma=ConstantField(0.0))
    corrupt_photon = tuple(
        CombinationField(((1.0, b), (+1.0 / cfg.h_i,
                                     LinearField((0.0, 0.0, 0.0, 0.0))
                                     if mu != 1 else ConstantField(0.8))))
        for mu, b in enumerate(cfg.photon)
    )
    x = np.array([0.1, 0.2, -0.3, 0.0])
    before = gauge_connection(f, cfg, x)
    after = gauge_connection(f, GaugeConfig(1.0, 1.0, 0.5, corrupt_photon), x)
    dbeta = f.gradient_of(tr.beta, np.asarray(x))
    residual = np.max(np.abs(after + 1j * dbeta - before))
    assert residual == pytest.approx(2.0 * 0.8, rel=1e-12)


def test_split_additivity():
    m = spacetime()
    f = make_field(m)
    cfg = GaugeConfig(1.1, 0.6, 0.9,
                      photon=constant_photon((0.2, -0.1, 0.0, 0.3)))
    a1 = GaussianField(0.3, (0.0,) * 4, 1.2)
    a2 = LinearField((0.1, 0.0, -0.2, 0.0))
    g1 = LinearField((0.0, 0.4, 0.0, 0.1))
    g2 = GaussianField(0.2, (0.1, 0.0, 0.0, 0.0), 0.8)
    combined = GaugeTransform(CombinationField(((1.0, a1), (1.0, a2))),
                              CombinationField(((1.0, g1), (1.0, g2))))
    f_c, cfg_c = apply_transform(f, cfg, combined)
    f_s, cfg_s = apply_transform(*apply_transform(f, cfg,
                                                  GaugeTransform(a1, g1)),
                                 GaugeTransform(a2, g2))
    pts = m.interior_grid_points()[::97]
    _, d_c = f_c.gamma_delta(pts)
    _, d_s = f_s.gamma_delta(pts)
    assert np.allclose(d_c, d_s, atol=1e-13, rtol=0)
    assert np.allclose(cfg_c.photon_at(pts), cfg_s.photon_at(pts),
                       atol=1e-13, rtol=0)


def test_transformed_delta_has_vanishing_curl():
    m = spacetime()
    f = make_field(m)
    cfg = GaugeConfig(1.0, 0.75, 0.5, constant_photon((0.0,) * 4))
    tr = GaugeTransform(alpha=ConstantField(0.0),
                        gamma=GaussianField(0.9, (0.0, 0.1, 0.0, -0.1), 1.1))
    new_field, _ = apply_transform(f, cfg, tr)
    h = 1e-4
    x = np.array([0.15, -0.2, 0.25, 0.05])
    for i in range(4):
        for j in range(i + 1, 4):
            ei, ej = np.zeros(4), np.zeros(4)
            ei[i] = h
            ej[j] = h
            di = (new_field.gamma_delta(x + ei)[1][j]
                  - new_field.gamma_delta(x - ei)[1][j]) / (2 * h)
            dj = (new_field.gamma_delta(x + ej)[1][i]
                  - new_field.gamma_delta(x - ej)[1][i]) / (2 * h)
            assert di - dj == pytest.approx(0.0, abs=1e-7)


def test_zero_coupling_rejected_for_nonconstant_alpha():
    m = spacetime()
    f = make_field(m)
    cfg = GaugeConfig(1.0, 1.0, 0.0, constant_photon((0.0,) * 4))
    tr = GaugeTransform(alpha=LinearField((0.1, 0.0, 0.0, 0.0)),
                        gamma=ConstantField(0.0))
    with pytest.raises(ZeroCoupling):
        apply_transform(f, cfg, tr)


def test_constant_split_needs_no_couplings():
    m = spacetime()
    f = make_field(m)
    cfg = GaugeConfig(1.0, 0.0, 0.0, constant_photon((0.0,) * 4))
    tr = GaugeTransform(alpha=ConstantField(2.0), gamma=ConstantField(-1.0))
    new_field, new_cfg = apply_transform(f, cfg, tr)
    x = np.zeros(4)
    assert np.array_equal(new_field.gamma_delta(x)[1], f.gamma_delta(x)[1])
    assert new_cfg.photon == cfg.photon


def test_a_gaussian_over_no_axes_is_a_constant_split():
    m = spacetime()
    f = make_field(m)
    cfg = GaugeConfig(1.0, 0.0, 0.0, constant_photon((0.0,) * 4))
    bump = GaussianField(0.8, (0.0, 0.1, -0.2, 0.3), 0.7, axes=())
    assert bump.is_constant
    new_field, new_cfg = apply_transform(f, cfg, GaugeTransform(bump, bump))
    assert new_field.phi is f.phi
    assert new_cfg.photon == cfg.photon


def test_residual_in_central_difference_mode():
    m = spacetime(nodes=17, half=1.0)
    f = ScalingField(m, LinearField((0.2, -0.3, 0.1, 0.4)),
                     GaussianField(0.7, (0.0, 0.1, -0.2, 0.0), 0.9),
                     gradient_mode="central")
    cfg = GaugeConfig(1.3, 0.9, 0.7, constant_photon((0.1, 0.2, -0.3, 0.0)))
    tr = GaugeTransform(alpha=GaussianField(0.6, (0.0, 0.2, 0.0, 0.0), 1.0),
                        gamma=LinearField((0.2, -0.1, 0.3, 0.1)))
    x = np.zeros(4)
    h = f.gradient_step
    assert float(invariance_residual(f, cfg, tr, x)) < h ** 2


class Counted(FieldSpec):
    """A spec that records the leading shape of each point array it is
    evaluated on; with ``fails`` set it raises BoundaryPoint on arrays of
    that leading shape instead."""

    has_analytic_gradient = False

    def __init__(self, spec, fails=None):
        self.spec = spec
        self.fails = fails
        self.shapes = []

    def value(self, pts):
        if pts.shape[:-1] == self.fails:
            raise BoundaryPoint("refused")
        self.shapes.append(pts.shape[:-1])
        return self.spec.value(pts)

    @property
    def is_constant(self):
        return self.spec.is_constant


def _counted_gauge(gamma_fails=False):
    """The grids workload's mix of specs, each Counted, in central mode on
    the 7**4 interior points of a 9-node box: the leaves, the field, the
    couplings, the transform and the points."""
    m = spacetime(nodes=9, half=2.0)
    pts = m.interior_grid_points().reshape(-1, 4)
    wave = np.cos(m.grid_points() @ np.array([0.7, -0.4, 0.9, 0.3]) + 0.2)
    leaves = {
        "theta": Counted(GaussianField(0.5, (0.1, -0.2, 0.3, 0.0), 1.1)),
        "phi": Counted(TabulatedField(m, 0.3 * wave)),
        "alpha": Counted(GaussianField(0.4, (0.0, 0.2, -0.1, 0.3), 1.2)),
        "gamma": Counted(LinearField((0.2, -0.1, 0.3, 0.1)),
                         fails=pts.shape[:-1] if gamma_fails else None),
    }
    f = ScalingField(m, leaves["theta"], leaves["phi"],
                     gradient_mode="central")
    cfg = GaugeConfig(1.0, 0.8, 0.6,
                      (ConstantField(0.1), LinearField((0.0, 0.1, -0.2, 0.0)),
                       ConstantField(-0.2), LinearField((0.1, 0.0, 0.0, 0.2))))
    tr = GaugeTransform(leaves["alpha"], leaves["gamma"])
    for spec in leaves.values():
        spec.shapes.clear()
    return leaves, f, cfg, tr, pts


def test_residual_evaluates_each_field_once_per_stencil_point():
    leaves, f, cfg, tr, pts = _counted_gauge()
    invariance_residual(f, cfg, tr, pts)
    dim = pts.shape[-1]
    for name, spec in leaves.items():
        # the block's own stencil points, 2 dim of them per point; at most
        # one more call is apply_transform's probe at the box's centre
        assert spec.shapes.count(pts.shape[:-1]) == 2 * dim, name
        assert len(spec.shapes) <= 2 * dim + 1, name


@pytest.mark.parametrize("ending", ["return", "BoundaryPoint"])
def test_the_shared_values_end_with_the_residual_call(ending):
    leaves, f, cfg, tr, pts = _counted_gauge(
        gamma_fails=ending == "BoundaryPoint")
    theta = leaves["theta"]
    if ending == "return":
        invariance_residual(f, cfg, tr, pts)
    else:
        # gamma fails in the transformed Delta, after theta's values are in
        with pytest.raises(BoundaryPoint):
            invariance_residual(f, cfg, tr, pts)
    dim = pts.shape[-1]
    assert theta.shapes.count(pts.shape[:-1]) == 2 * dim
    theta.shapes.clear()
    f.gradient_of(theta, pts)
    f.gradient_of(theta, pts)
    assert theta.shapes.count(pts.shape[:-1]) == 2 * 2 * dim


def test_shared_residual_equals_the_residual_of_its_unshared_terms():
    leaves, f, cfg, tr, pts = _counted_gauge()
    new_field, new_cfg = apply_transform(f, cfg, tr)
    before = gauge_connection(f, cfg, pts)
    after = gauge_connection(new_field, new_cfg, pts)
    dbeta = f.gradient_of(tr.beta, pts)
    want = np.max(np.abs(after + 1j * dbeta - before), axis=-1)
    assert np.count_nonzero(want) > len(want) // 2
    assert np.array_equal(invariance_residual(f, cfg, tr, pts), want)


class CountedGradient(FieldSpec):
    """An analytic spec that counts the calls of its value and of its
    gradient."""

    def __init__(self, spec):
        self.spec = spec
        self.values = 0
        self.gradients = 0

    def value(self, pts):
        self.values += 1
        return self.spec.value(pts)

    def gradient(self, pts):
        self.gradients += 1
        return self.spec.gradient(pts)

    @property
    def is_constant(self):
        return self.spec.is_constant


def test_residual_takes_alphas_analytic_gradient_once():
    # the photon shift takes dim partials of alpha and d beta its gradient,
    # and both connections take theta's and phi's: in analytic mode each
    # spec's gradient is taken once per call
    m = spacetime(nodes=9, half=2.0)
    pts = m.interior_grid_points()
    specs = {
        "alpha": CountedGradient(GaussianField(0.4, (0.0, 0.2, -0.1, 0.3), 1.2)),
        "theta": CountedGradient(LinearField((0.2, -0.3, 0.1, 0.4))),
        "phi": CountedGradient(GaussianField(0.7, (0.0, 0.1, -0.2, 0.0), 0.9)),
    }
    f = make_field(m, specs["theta"], specs["phi"])
    cfg = GaugeConfig(1.0, 0.8, 0.6, constant_photon((0.1, 0.0, -0.2, 0.3)))
    tr = GaugeTransform(specs["alpha"], LinearField((0.2, -0.1, 0.3, 0.1)))
    for _ in range(2):
        for spec in specs.values():
            spec.gradients = 0
        assert np.max(invariance_residual(f, cfg, tr, pts)) < 1e-10
        assert {name: spec.gradients for name, spec in specs.items()} == {
            "alpha": 1, "theta": 1, "phi": 1}


def test_residual_takes_each_central_gradient_once():
    # in central mode the photon shift's dim partials of alpha are columns
    # of one difference of alpha, and both connections take theta's: each
    # spec is differenced once per call.  Inside one share, a spec met at a
    # second point array is differenced again
    leaves, f, cfg, tr, pts = _counted_gauge()
    differenced = []
    differences = ScalingField.differences

    def counted(self, fn, at, axes):
        differenced.append(fn.args[0])
        return differences(self, fn, at, axes)

    half = pts[::2]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ScalingField, "differences", counted)
        for _ in range(2):
            differenced.clear()
            invariance_residual(f, cfg, tr, pts)
            assert {name: sum(s is spec for s in differenced)
                    for name, spec in leaves.items()} == {
                "theta": 1, "phi": 1, "alpha": 1, "gamma": 0}
            assert len(differenced) == 5  # and phi - gamma / g_i, and beta
        differenced.clear()
        with shared_evaluation():
            grads = [f.gradient_of(leaves["alpha"], p)
                     for p in (pts, half, pts, half)]
        assert len(differenced) == 2
    assert np.array_equal(grads[3], f.gradient_of(leaves["alpha"], half))


def test_each_accessor_reads_the_shared_evaluation():
    m = spacetime(nodes=9, half=2.0)
    pts = m.interior_grid_points()
    theta = CountedGradient(LinearField((0.2, -0.3, 0.1, 0.4)))
    phi = CountedGradient(GaussianField(0.7, (0.0, 0.1, -0.2, 0.0), 0.9))
    f = make_field(m, theta, phi)
    theta.values = phi.values = 0
    with shared_evaluation():
        f.theta_at(pts)
        f.phi_at(pts)
        eval_f(f, pts)
        connection_factor(f, pts, pts)
        f.gamma_delta(pts)
    assert [(s.values, s.gradients) for s in (theta, phi)] == [(1, 1)] * 2


def test_off_grid_points_raise_out_of_bounds_naming_the_point():
    m = spacetime()
    f = make_field(m)
    cfg = GaugeConfig(1.0, 0.8, 0.6, constant_photon((0.1, 0.0, -0.2, 0.3)))
    tr = GaugeTransform(GaussianField(0.4, (0.0, 0.2, -0.1, 0.3), 1.2),
                        LinearField((0.2, -0.1, 0.3, 0.1)))
    pts = np.array([[0.0, 0.1, 0.0, 0.0], [0.5, 1.5, 0.0, 0.0]])
    for call in (partial(gauge_connection, f, cfg),
                 partial(invariance_residual, f, cfg, tr)):
        with pytest.raises(OutOfBounds, match=re.escape("[0.5, 1.5, 0.0, 0.0]")):
            call(pts)
