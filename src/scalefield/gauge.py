"""Gauge structure coupling the scaling connection to a photon-like field.

The derivative that acts on a matter field psi, a function of points, is

    D_mu psi = d_mu psi + (g_r Gamma_mu + i g_i Delta_mu + i h_i B_mu) psi,

with d_mu psi the field's central difference (``ScalingField.differences``)
that also differences theta and phi; every derivative here is the field's.

A transform is an explicit split beta = alpha + gamma of a phase function;
applying it shifts the photon components by -(1/h_i) d_mu alpha, the
field's partial of alpha, and the imaginary connection by -(1/g_i) d_mu
gamma while Gamma stays put, so the bracket above is invariant.
``invariance_residual`` measures how far a transformed configuration
drifts from that identity.  It evaluates each field once per stencil
point: the transformed pair embeds phi, theta and the photon again, and
d beta differences alpha and gamma again, so the call's terms share their
values (``fields.shared_evaluation``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Tuple

import numpy as np

from .errors import ZeroCoupling
from .fields import (
    AxisDerivativeField,
    CombinationField,
    FieldSpec,
    ScalingField,
    evaluate,
    shared_evaluation,
)


@dataclass(frozen=True)
class GaugeConfig:
    """Couplings and per-axis photon field components."""

    g_r: float
    g_i: float
    h_i: float
    photon: Tuple[FieldSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "photon", tuple(self.photon))

    def photon_at(self, pts: np.ndarray) -> np.ndarray:
        return np.stack([evaluate(b, pts) for b in self.photon], axis=-1)


@dataclass(frozen=True)
class GaugeTransform:
    """Explicit split beta = alpha + gamma of a U(1) phase function."""

    alpha: FieldSpec
    gamma: FieldSpec

    @property
    def beta(self) -> FieldSpec:
        return CombinationField(((1.0, self.alpha), (1.0, self.gamma)))


def _check_dim(cfg: GaugeConfig, fieldref: ScalingField) -> None:
    if len(cfg.photon) != fieldref.manifold.dimension:
        raise ValueError(
            f"photon field has {len(cfg.photon)} components on a "
            f"{fieldref.manifold.dimension}-dimensional manifold"
        )


def gauge_connection(fieldref: ScalingField, cfg: GaugeConfig, x) -> np.ndarray:
    """g_r Gamma + i g_i Delta + i h_i B as a complex covector at x.

    ``gamma_delta`` checks the bounds before anything is evaluated."""
    _check_dim(cfg, fieldref)
    pts = fieldref.manifold.as_points(x)
    gamma, delta = fieldref.gamma_delta(pts)
    return cfg.g_r * gamma + 1j * (cfg.g_i * delta + cfg.h_i * cfg.photon_at(pts))


def gauge_covariant_derivative(psi: Callable[[np.ndarray], np.ndarray],
                               fieldref: ScalingField, cfg: GaugeConfig,
                               x) -> np.ndarray:
    """D_mu psi for every mu at points x (..., dim), shape (..., dim).

    psi maps points to complex values; d_mu psi is the field's central
    difference, whose ``gradient_step`` every point needs as margin.
    g_r = g_i = 1 with a zero photon gives the derivative without a gauge
    field, d_mu psi + (Gamma_mu + i Delta_mu) psi.
    """
    _check_dim(cfg, fieldref)
    pts = fieldref.manifold.require_inside(x)
    dpsi = fieldref.differences(psi, pts, range(fieldref.manifold.dimension))
    return dpsi + gauge_connection(fieldref, cfg, pts) * psi(pts)[..., None]


def apply_transform(fieldref: ScalingField, cfg: GaugeConfig,
                    transform: GaugeTransform
                    ) -> Tuple[ScalingField, GaugeConfig]:
    """Transformed (field, config): B -> B - (1/h_i) d alpha,
    phi -> phi - gamma/g_i (so Delta -> Delta - (1/g_i) d gamma), Gamma fixed.
    """
    _check_dim(cfg, fieldref)
    if transform.gamma.is_constant:
        new_phi = fieldref.phi
    else:
        if cfg.g_i == 0:
            raise ZeroCoupling("gamma transform needs a nonzero g_i")
        new_phi = CombinationField(
            ((1.0, fieldref.phi), (-1.0 / cfg.g_i, transform.gamma)))

    if transform.alpha.is_constant:
        new_photon = cfg.photon
    else:
        if cfg.h_i == 0:
            raise ZeroCoupling("alpha transform needs a nonzero h_i")
        new_photon = tuple(
            CombinationField((
                (1.0, b),
                (-1.0 / cfg.h_i,
                 AxisDerivativeField(transform.alpha, mu, fieldref)),
            ))
            for mu, b in enumerate(cfg.photon)
        )

    new_cfg = GaugeConfig(cfg.g_r, cfg.g_i, cfg.h_i, new_photon)
    return replace(fieldref, phi=new_phi), new_cfg


def invariance_residual(fieldref: ScalingField, cfg: GaugeConfig,
                        transform: GaugeTransform, x) -> np.ndarray:
    """max_mu |connection' + i d_mu beta - connection| at x (vectorized).

    Zero (to rounding) whenever the transformed pair came from
    ``apply_transform``; any sign or factor corruption shows up as a
    residual of the size of the corrupted term.  The three terms below
    share one evaluation of each spec per stencil point.
    """
    _check_dim(cfg, fieldref)
    pts = fieldref.manifold.require_inside(x)
    new_field, new_cfg = apply_transform(fieldref, cfg, transform)
    with shared_evaluation():
        before = gauge_connection(fieldref, cfg, pts)
        after = gauge_connection(new_field, new_cfg, pts)
        dbeta = fieldref.gradient_of(transform.beta, pts)
    return np.max(np.abs(after + 1j * dbeta - before), axis=-1)
