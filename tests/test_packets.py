"""Wave-packet localization: level cancellation, shifts, references."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalefield.errors import OutOfBounds, ZeroLevel
from scalefield.fields import (
    CombinationField,
    ConstantField,
    GaussianField,
    LinearField,
    ScalingField,
    connection_factor,
    eval_f,
)
from scalefield.manifold import Manifold
from scalefield.packets import (
    WavePacket,
    canonical_momentum_shift,
    gaussian_packet,
    packet_norm_squared,
    scale_wave_packet,
)


def cube(nodes=17, half=4.0):
    return Manifold.box([(-half, half)] * 3, nodes)


def bumpy_field(m):
    return ScalingField(m, GaussianField(0.6, (0.3, -0.2, 0.1), 1.5),
                        LinearField((0.1, -0.2, 0.05)))


def test_unit_field_leaves_packet_alone():
    m = cube()
    f = ScalingField(m, ConstantField(0.0), ConstantField(0.0))
    psi = gaussian_packet(m, (0.0, 0.0, 0.0), 1.0)
    out = scale_wave_packet(psi, f, np.zeros(3))
    assert np.array_equal(out.amplitudes, psi.amplitudes)


def test_constant_theta_cancels_exactly():
    m = cube()
    f = ScalingField(m, ConstantField(3.7), ConstantField(0.0))
    psi = gaussian_packet(m, (0.5, 0.0, -0.5), 0.8)
    out = scale_wave_packet(psi, f, np.array([1.0, 1.0, 1.0]))
    assert np.array_equal(out.amplitudes, psi.amplitudes)


def test_level_drops_out_bit_for_bit():
    m = cube()
    f = bumpy_field(m)
    psi = gaussian_packet(m, (0.0, 0.0, 0.0), 1.0, momentum=(0.5, 0.0, -0.3))
    x0 = np.array([0.25, 0.0, -0.25])
    reference = scale_wave_packet(psi, f, x0, c=1).amplitudes.tobytes()
    for c in (2, -3, Fraction(1, 7)):
        again = scale_wave_packet(psi, f, x0, c=c).amplitudes.tobytes()
        assert again == reference


@given(c=st.one_of(
    st.integers(min_value=-10 ** 6, max_value=10 ** 6).filter(lambda n: n),
    st.fractions(min_value=-1000, max_value=1000).filter(lambda q: q != 0),
))
@settings(max_examples=25)
def test_any_nonzero_level_gives_identical_bytes(c):
    m = cube(nodes=9)
    f = bumpy_field(m)
    psi = gaussian_packet(m, (0.0, 0.0, 0.0), 1.2)
    x0 = np.zeros(3)
    assert (scale_wave_packet(psi, f, x0, c=c).amplitudes.tobytes()
            == scale_wave_packet(psi, f, x0, c=1).amplitudes.tobytes())


def test_zero_level_rejected():
    m = cube(nodes=9)
    psi = gaussian_packet(m, (0.0, 0.0, 0.0), 1.0)
    with pytest.raises(ZeroLevel):
        scale_wave_packet(psi, bumpy_field(m), np.zeros(3), c=0)


def test_reference_outside_grid_rejected():
    m = cube(nodes=9)
    psi = gaussian_packet(m, (0.0, 0.0, 0.0), 1.0)
    with pytest.raises(OutOfBounds):
        scale_wave_packet(psi, bumpy_field(m), np.array([9.0, 0.0, 0.0]))


def test_constant_shift_changes_nothing_measurable():
    m = cube()
    theta = GaussianField(0.6, (0.3, -0.2, 0.1), 1.5)
    phi = LinearField((0.1, -0.2, 0.05))
    f0 = ScalingField(m, theta, phi)
    f1 = ScalingField(m,
                      CombinationField(((1.0, theta), (1.0, ConstantField(2.5)))),
                      CombinationField(((1.0, phi), (1.0, ConstantField(-1.3)))))
    psi = gaussian_packet(m, (0.0, 0.5, 0.0), 1.0)
    x0 = np.array([-0.5, 0.0, 0.5])
    a = scale_wave_packet(psi, f0, x0).amplitudes
    b = scale_wave_packet(psi, f1, x0).amplitudes
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))


def test_changing_reference_is_one_global_factor():
    m = cube()
    f = bumpy_field(m)
    psi = gaussian_packet(m, (0.0, 0.0, 0.0), 1.0)
    x0 = np.array([0.5, 0.5, 0.0])
    y = np.array([-1.0, 0.25, 0.75])
    at_x0 = scale_wave_packet(psi, f, x0).amplitudes
    at_y = scale_wave_packet(psi, f, y).amplitudes
    factor = connection_factor(f, x0, y)
    assert np.allclose(at_y, factor * at_x0, rtol=1e-12, atol=1e-15)


def test_scaled_amplitude_is_f_w_over_f_x0_at_every_node():
    # phi varies, so the phase of each factor is checked, not only its size
    m = cube(nodes=9, half=2.0)
    f = ScalingField(m, GaussianField(0.4, (0.3, -0.2, 0.1), 1.2),
                     GaussianField(0.9, (-0.5, 0.4, 0.0), 1.0))
    psi = gaussian_packet(m, (0.2, 0.0, -0.1), 0.9, momentum=(0.5, -0.3, 0.2))
    x0 = np.array([0.5, -0.25, 0.75])
    expected = psi.amplitudes * eval_f(f, psi.points()) / eval_f(f, x0)
    out = scale_wave_packet(psi, f, x0).amplitudes
    assert np.allclose(out, expected, rtol=1e-13, atol=0.0)


def test_scaled_norm_agrees_with_double_resolution():
    theta = LinearField((0.8, 0.0, 0.0))
    phi = ConstantField(0.0)
    x0 = np.zeros(3)
    norms = []
    for nodes in (33, 65):
        m = cube(nodes=nodes)
        f = ScalingField(m, theta, phi)
        psi = gaussian_packet(m, (0.0, 0.0, 0.0), 0.6)
        norms.append(packet_norm_squared(scale_wave_packet(psi, f, x0)))
    coarse, fine = norms
    assert abs(coarse - fine) <= 1e-6 * abs(fine)


def test_norm_uses_cell_volume():
    m = cube(nodes=9, half=2.0)
    amp = np.zeros((9, 9, 9), dtype=complex)
    amp[4, 4, 4] = 2.0
    psi = WavePacket(m, amp)
    assert packet_norm_squared(psi) == pytest.approx(4.0 * 0.5 ** 3)


def test_empty_packet_rejected():
    m = cube(nodes=9)
    with pytest.raises(ValueError):
        WavePacket(m, np.zeros((9, 9, 9), dtype=complex))


def test_time_slice_bookkeeping():
    m4 = Manifold.box([(-1.0, 1.0)] * 4, 9)
    with pytest.raises(ValueError):
        WavePacket(m4, np.ones((9, 9, 9), dtype=complex))
    psi = WavePacket(m4, np.ones((9, 9, 9), dtype=complex), time_slice=0.25)
    assert np.all(psi.points()[..., 0] == 0.25)
    m3 = cube(nodes=9)
    with pytest.raises(ValueError):
        WavePacket(m3, np.ones((9, 9, 9), dtype=complex), time_slice=0.0)
    with pytest.raises(OutOfBounds):
        WavePacket(m4, np.ones((9, 9, 9), dtype=complex), time_slice=3.0)


def test_four_dimensional_packet_scales_on_its_slice():
    m4 = Manifold.box([(-1.0, 1.0)] * 4, 9)
    f = ScalingField(m4, LinearField((0.3, 0.5, 0.0, 0.0)), ConstantField(0.0))
    psi = WavePacket(m4, np.ones((9, 9, 9), dtype=complex), time_slice=0.5)
    x0 = np.array([0.5, 0.0, 0.0, 0.0])
    out = scale_wave_packet(psi, f, x0)
    w = psi.points()[2, 0, 0]
    expected = np.exp(0.5 * w[1])
    assert out.amplitudes[2, 0, 0] == pytest.approx(expected, rel=1e-14)


def test_momentum_shift_with_constant_field():
    m = cube(nodes=9)
    f = ScalingField(m, ConstantField(1.0), ConstantField(-2.0))
    p = np.array([0.1, 0.2, 0.3])
    out = canonical_momentum_shift(p, f, np.zeros(3))
    assert np.array_equal(out, p.astype(complex))


def test_momentum_shift_picks_up_both_gradients():
    m = cube(nodes=9)
    f = ScalingField(m, LinearField((0.4, 0.0, 0.0)),
                     LinearField((0.0, 0.7, 0.0)))
    out = canonical_momentum_shift(np.zeros(3), f, np.array([0.3, 0.1, -0.2]))
    assert out == pytest.approx(np.array([0.4, 0.7j, 0.0]))
