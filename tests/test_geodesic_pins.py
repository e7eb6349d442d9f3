"""Bit pins of integrated geodesics beyond the demo's linear theta.

The demo golden digests (test_golden.py) cover a linear theta only.  These
digests pin every bit of ``integrate_geodesic``'s taus, positions and
velocities on the field families whose evaluation carries precomputed
constants: a linear + spatial-Gaussian theta on the 4d Minkowski box (the
benchmark's trajectory family, whose linear terms are also pinned under
central-difference gradients at one point), a radial polynomial, and a
Gaussian under central-difference gradients.  They were recorded on x86-64 Linux
(Python 3.11, numpy 2.4).  A change meant to leave the arithmetic alone
must leave them alone; regenerate them only for a change meant to alter
the numbers, and say why in CHANGES.md.

The spec tests below check that the constants follow the fields they are
built from: ``dataclasses.replace`` gives a spec that evaluates with the new
values, and a manifold compares and hashes by its fields only.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from scalefield.fields import (
    CombinationField,
    ConstantField,
    GaussianField,
    LinearField,
    RadialPolynomial,
    ScalingField,
)
from scalefield.geodesics import GeodesicState, integrate_geodesic
from scalefield.manifold import Manifold

BOX3 = Manifold.box([(-2.0, 2.0)] * 3, 9)
BOX4 = Manifold.box([(-2.0, 2.0)] * 4, 13)


def _trajectories_family():
    theta = CombinationField((
        (1.0, LinearField((0.07, -0.03, 0.09, -0.05))),
        (1.0, GaussianField(0.22, (0.0, 0.31, -0.12, 0.4), 0.8,
                            axes=(1, 2, 3))),
    ))
    field = ScalingField(BOX4, theta, LinearField((0.1, 0.0, -0.2, 0.3)))
    state = GeodesicState(np.array([0.12, -0.35, 0.27, 0.05]),
                          np.array([0.21, -0.18, 0.25, 0.11]))
    return field, state, 1.0, 1.0 / 400, "euclidean"


def _trajectories_family_minkowski_drag():
    field, state, tau_end, h_tau, _ = _trajectories_family()
    return field, state, tau_end, h_tau, "minkowski"


def _trajectories_family_central():
    field, *rest = _trajectories_family()
    return (dataclasses.replace(field, gradient_mode="central"), *rest)


def _radial_polynomial():
    field = ScalingField(BOX3, RadialPolynomial((0.1, 0.3, -0.2, 0.05)))
    state = GeodesicState(np.array([-0.8, 0.4, 0.1]),
                          np.array([0.9, -0.2, 0.35]))
    return field, state, 1.0, 1.0 / 250, "euclidean"


def _central_gaussian():
    field = ScalingField(BOX3, GaussianField(0.6, (0.2, -0.3, 0.1), 0.7),
                         GaussianField(0.3, (0.0, 0.0, 0.0), 0.9),
                         gradient_mode="central")
    state = GeodesicState(np.array([-0.9, 0.2, -0.1]),
                          np.array([1.1, 0.15, 0.2]))
    return field, state, 1.0, 1.0 / 200, "euclidean"


PINS = {
    "trajectories-family": (
        _trajectories_family,
        "e9055f19673704618d3abebb894b2361d75caa498129a0c8e6dd2f15b71c2680"),
    "trajectories-family-minkowski-drag": (
        _trajectories_family_minkowski_drag,
        "64db3c6f85a2257e71d21cd1bf9fa77f0816140c37daf2aa273564a6775f65ce"),
    "trajectories-family-central": (
        _trajectories_family_central,
        "f56f5ecccd520d1d4ee1f05e939b9bebd671dc63b4e9ac3b31a5cba3b60a2721"),
    "radial-polynomial": (
        _radial_polynomial,
        "f6db54e55b6541630b00fdc184dd7c2a9d05c84faf9e0c49b2e425f17b6d137a"),
    "central-gaussian": (
        _central_gaussian,
        "d3b8be2e6042ff13ddaefd4e3c4a93fb16f292892f50e75db09974594c142a01"),
}


def trajectory_digest(build) -> str:
    field, state, tau_end, h_tau, drag = build()
    tr = integrate_geodesic(state, field, tau_end, h_tau,
                            drag_contraction=drag)
    h = hashlib.sha256()
    for arr in (tr.taus, tr.positions, tr.velocities):
        h.update(repr(arr.shape).encode())
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    h.update(b"left" if tr.left_domain else b"inside")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_geodesic_bits_are_pinned(name):
    build, digest = PINS[name]
    assert trajectory_digest(build) == digest


def test_replaced_specs_evaluate_with_their_new_values():
    pts = np.array([[0.3, -0.4, 0.5], [-1.0, 0.2, 0.7]])
    gauss = GaussianField(0.5, (0.1, 0.0, -0.2), 0.8, axes=(0, 2))
    wider = dataclasses.replace(gauss, width=1.3)
    assert np.array_equal(wider.value(pts),
                          GaussianField(0.5, (0.1, 0.0, -0.2), 1.3,
                                        axes=(0, 2)).value(pts))
    assert np.array_equal(wider.gradient(pts),
                          GaussianField(0.5, (0.1, 0.0, -0.2), 1.3,
                                        axes=(0, 2)).gradient(pts))
    assert not np.array_equal(wider.value(pts), gauss.value(pts))
    moved = dataclasses.replace(gauss, center=(0.4, 0.4, 0.4), axes=None)
    assert np.array_equal(moved.gradient(pts),
                          GaussianField(0.5, (0.4, 0.4, 0.4), 0.8)
                          .gradient(pts))

    lin = LinearField((1.0, 2.0, 3.0))
    steeper = dataclasses.replace(lin, coefficients=(-1.0, 0.5, 4.0))
    assert np.array_equal(steeper.gradient(pts),
                          np.broadcast_to([-1.0, 0.5, 4.0], pts.shape))
    assert np.array_equal(steeper.value(pts),
                          pts @ np.array([-1.0, 0.5, 4.0]))

    poly = RadialPolynomial((0.0, 1.0))
    curved = dataclasses.replace(poly, coefficients=(0.0, 0.0, 1.0))
    r = np.linalg.norm(pts, axis=-1)
    assert np.allclose(curved.value(pts), r * r, rtol=1e-15)
    assert np.allclose(curved.gradient(pts), 2.0 * pts, rtol=1e-15)


def test_specs_compare_and_hash_by_their_fields():
    assert GaussianField(0.5, (0.0, 0.0, 0.0), 1.0) == \
        GaussianField(0.5, (0.0, 0.0, 0.0), 1.0)
    assert LinearField((1, 2, 3)) == LinearField((1.0, 2.0, 3.0))
    assert hash(LinearField((1, 2, 3))) == hash(LinearField((1.0, 2.0, 3.0)))
    assert RadialPolynomial((1.0, 2.0)) != RadialPolynomial((1.0, 3.0))
    assert ConstantField(0.0) == ConstantField(0.0)


def test_manifold_compares_and_hashes_by_its_fields():
    a = Manifold.box([(-2.0, 2.0)] * 3, 9)
    b = Manifold(3, ((-2, 2), (-2, 2), (-2, 2)), (0.5, 0.5, 0.5))
    assert a == b
    assert hash(a) == hash(b)
    assert hash(a) == hash((a.dimension, a.bounds, a.spacing))
    assert a != Manifold.box([(-2.0, 2.0)] * 3, 5)
    assert dataclasses.replace(a, bounds=((-1.0, 1.0),) * 3).contains(
        np.array([1.5, 0.0, 0.0])) == np.False_
    assert a.contains(np.array([1.5, 0.0, 0.0])) == np.True_
    assert repr(a) == ("Manifold(dimension=3, bounds=((-2.0, 2.0), "
                       "(-2.0, 2.0), (-2.0, 2.0)), spacing=(0.5, 0.5, 0.5))")
