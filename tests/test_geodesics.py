"""Geodesic integration: straight-line limit, order, domain exits."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from scalefield import runner
from scalefield.errors import OutOfBounds
from scalefield.fields import ConstantField, GaussianField, LinearField, ScalingField
from scalefield.geodesics import (
    GeodesicState,
    Trajectory,
    integrate_geodesic,
    integrate_geodesics,
    rk4_steps,
    trajectory_path,
)
from scalefield.manifold import Manifold
from scalefield.paths import local_path_length
from scalefield.scenario import TASKS

BOX3 = Manifold.box([(-3.0, 3.0)] * 3, 13)
BOX4 = Manifold.box([(-3.0, 3.0)] * 4, 13)


def test_flat_field_gives_straight_line():
    f = ScalingField(BOX3, ConstantField(0.7), ConstantField(0.0))
    q0 = np.array([-1.0, 0.5, 0.0])
    v0 = np.array([1.5, -0.4, 0.3])
    tr = integrate_geodesic(GeodesicState(q0, v0), f, tau_end=1.0, h_tau=1e-3)
    expected = q0 + np.outer(tr.taus, v0)
    assert float(np.max(np.abs(tr.positions - expected))) < 1e-10
    assert not tr.left_domain
    assert len(tr) == 1001


def test_halving_the_step_cuts_error_sixteenfold():
    f = ScalingField(BOX3, GaussianField(0.8, (0.5, 0.6, 0.0), 1.0),
                     ConstantField(0.0))
    s0 = GeodesicState(np.array([-1.0, 0.0, 0.0]), np.array([1.0, 0.2, 0.0]))

    def endpoint(h):
        return integrate_geodesic(s0, f, tau_end=1.0, h_tau=h).final.position

    ref = endpoint(1.0 / 4096)
    err_h = np.max(np.abs(endpoint(1.0 / 16) - ref))
    err_h2 = np.max(np.abs(endpoint(1.0 / 32) - ref))
    assert 12.0 <= err_h / err_h2 <= 20.0


def test_exit_gives_truncated_trajectory_not_an_exception():
    f = ScalingField(BOX3, ConstantField(0.0), ConstantField(0.0))
    tr = integrate_geodesic(GeodesicState(np.zeros(3), np.array([10.0, 0.0, 0.0])),
                            f, tau_end=1.0, h_tau=0.01)
    assert tr.left_domain
    assert len(tr) < 101
    assert np.all(BOX3.contains(tr.positions))
    assert tr.final.position[0] <= 3.0


def test_starting_outside_is_an_error():
    f = ScalingField(BOX3, ConstantField(0.0), ConstantField(0.0))
    with pytest.raises(OutOfBounds):
        integrate_geodesic(GeodesicState(np.array([9.0, 0.0, 0.0]), np.ones(3)),
                           f, tau_end=1.0, h_tau=0.1)


def test_bad_steps_rejected():
    f = ScalingField(BOX3, ConstantField(0.0), ConstantField(0.0))
    s0 = GeodesicState(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError):
        integrate_geodesic(s0, f, tau_end=1.0, h_tau=0.0)
    with pytest.raises(ValueError):
        integrate_geodesic(s0, f, tau_end=-1.0, h_tau=0.1)


def test_mismatched_state_shapes_rejected():
    with pytest.raises(ValueError):
        GeodesicState(np.zeros(3), np.zeros(4))


def test_states_are_checked_against_the_manifold_once_per_call():
    f = ScalingField(BOX3, ConstantField(0.0), ConstantField(0.0))
    three = GeodesicState(np.zeros(3), np.ones(3))
    four = GeodesicState(np.zeros(4), np.ones(4))
    assert integrate_geodesics([], f, tau_end=1.0, h_tau=0.1) == []
    for states in ([four], [three, four]):
        with pytest.raises(ValueError,
                           match="dimension 4 on a manifold of dimension 3"):
            integrate_geodesics(states, f, tau_end=1.0, h_tau=0.1)
    with pytest.raises(ValueError, match="dimension 4 on a manifold"):
        integrate_geodesic(four, f, tau_end=1.0, h_tau=0.1)


def test_a_step_whose_stage_point_leaves_stops_though_its_end_is_inside():
    # one step of h = 0.25 from x0 = 1.9 at speed 1: its second stage point
    # sits at 1.9 + h/2 = 2.025, past the bound 2, but the pull of
    # Gamma = (4, 0, 0) brings the end back to x0 = 1.973
    theta = LinearField((4.0, 0.0, 0.0))
    s0 = GeodesicState(np.array([1.9, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    wide = ScalingField(Manifold.box([(-2.0, 3.0)] * 3, 11), theta)
    end = integrate_geodesic(s0, wide, 0.25, 0.25).final.position
    assert end[0] < 2.0 < 1.9 + 0.25 / 2
    narrow = ScalingField(Manifold.box([(-2.0, 2.0)] * 3, 9), theta)
    tr = integrate_geodesic(s0, narrow, 0.25, 0.25)
    assert tr.left_domain
    assert len(tr) == 1


def test_tau_grid_is_uniform_and_complete():
    f = ScalingField(BOX3, ConstantField(0.0), ConstantField(0.0))
    tr = integrate_geodesic(GeodesicState(np.zeros(3), np.ones(3) * 0.1),
                            f, tau_end=0.32, h_tau=0.1)
    # 0.32/0.1 rounds to 3 steps of 0.32/3
    assert len(tr) == 4
    assert tr.taus[-1] == pytest.approx(0.32, abs=1e-15)
    assert np.allclose(np.diff(tr.taus), 0.32 / 3, atol=1e-15)


@pytest.mark.parametrize("tau_end, h_tau", [
    (0.1, 0.3),  # the ratio rounds to 0, and one step runs
    (0.32, 0.1),
    (0.25, 0.1),
    (1.0, 0.4),
])
def test_step_budget_counts_the_steps_the_integrator_takes(tau_end, h_tau):
    f = ScalingField(BOX3, ConstantField(0.0), ConstantField(0.0))
    tr = integrate_geodesic(GeodesicState(np.zeros(3), np.ones(3) * 0.1),
                            f, tau_end, h_tau)
    work = TASKS["geodesic"].work({"tau_end": tau_end, "h_tau": h_tau}, BOX3)
    assert work == ("h_tau", len(tr) - 1)
    assert len(tr) - 1 == rk4_steps(tau_end / h_tau) >= 1


class PhiWithoutGradient(ConstantField):
    def gradient(self, pts):
        raise AssertionError("the phi gradient was evaluated")


def test_stages_ask_the_field_for_gamma_alone():
    theta = GaussianField(0.6, (0.3, 0.5, 0.0), 1.0)
    s0 = GeodesicState(np.array([-1.0, 0.0, 0.0]), np.array([1.0, 0.1, 0.0]))
    plain = integrate_geodesic(
        s0, ScalingField(BOX3, theta, ConstantField(0.2)), 1.0, 0.01)
    tr = integrate_geodesic(
        s0, ScalingField(BOX3, theta, PhiWithoutGradient(0.2)), 1.0, 0.01)
    assert np.array_equal(tr.positions, plain.positions)
    assert np.array_equal(tr.velocities, plain.velocities)


TABLE_CASE = (ScalingField(BOX4, LinearField((0.05, -0.02, 0.03, 0.01)),
                           ConstantField(0.0)),
              GeodesicState(np.zeros(4), np.array([0.2, 0.1, -0.1, 0.05])))


def test_one_call_peaks_near_its_state_table():
    # 20,000 steps in 4d fill 20,001 rows [tau | q | v] of 9 floats; states
    # kept as per-step Python objects would cost about six such tables
    f, s0 = TABLE_CASE
    tracemalloc.start()
    try:
        tr = integrate_geodesic(s0, f, tau_end=1.0, h_tau=1.0 / 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tr) == 20001 and not tr.left_domain
    assert peak <= 1.5 * 20001 * 9 * 8


def test_the_geodesic_task_writes_the_state_table_itself(monkeypatch):
    # the handler's rows are the integrator's table, not a copy of it
    f, s0 = TABLE_CASE
    made = []
    monkeypatch.setattr(runner, "integrate_geodesic", lambda *a, **k: (
        made.append(integrate_geodesic(*a, **k)) or made[-1]))
    params = {"tau_end": 1.0, "h_tau": 1.0 / 20000,
              "drag_contraction": "euclidean"}
    rt = SimpleNamespace(field=f, manifold=BOX4)
    tracemalloc.start()
    try:
        # with no batch, the handler integrates its state alone
        _, rows, results = runner._run_geodesic(params, (s0, None), rt, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert results["steps"] == 20000
    assert peak <= 1.5 * 20001 * 9 * 8
    assert rows is made[0].table


def test_a_trajectory_that_leaves_holds_only_its_rows():
    # q1 = 2.9 at unit speed reaches the bound at 3 after 10,000 of 100,000
    # steps; a view of those rows would keep the whole 7.2 MB table alive
    f = ScalingField(BOX4, ConstantField(0.0), ConstantField(0.0))
    s0 = GeodesicState(np.array([0.0, 2.9, 0.0, 0.0]),
                       np.array([0.0, 1.0, 0.0, 0.0]))
    tracemalloc.start()
    try:
        tr = integrate_geodesic(s0, f, tau_end=1.0, h_tau=1e-5)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert tr.left_domain and abs(len(tr) - 10001) <= 1
    assert held <= 1.5 * tr.table.nbytes


def test_euclidean_drag_repels_on_identity_metric():
    # identity metric: acceleration is -Gamma - (Gamma.v)v, away from the bump
    f = ScalingField(BOX3, GaussianField(1.0, (0.0, 1.0, 0.0), 0.8),
                     ConstantField(0.0))
    s0 = GeodesicState(np.array([-1.5, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    tr = integrate_geodesic(s0, f, tau_end=2.0, h_tau=1e-2)
    assert tr.final.position[1] < -1e-3


def test_minkowski_spatial_motion_attracts_and_keeps_speed():
    # signature flip turns the gradient term around; at unit Euclidean speed
    # the drag term exactly cancels the speed drift
    f = ScalingField(BOX4, GaussianField(1.0, (0.0, 0.0, 1.0, 0.0), 0.8,
                                         axes=(1, 2, 3)),
                     ConstantField(0.0))
    s0 = GeodesicState(np.array([0.0, -1.5, 0.0, 0.0]),
                       np.array([0.0, 1.0, 0.0, 0.0]))
    tr = integrate_geodesic(s0, f, tau_end=2.0, h_tau=1e-2)
    assert tr.final.position[2] > 1e-3
    assert np.all(tr.positions[:, 0] == 0.0)
    speeds = np.linalg.norm(tr.velocities[:, 1:], axis=1)
    assert float(np.max(np.abs(speeds - 1.0))) < 1e-9


def test_drag_contractions_differ_with_time_velocity():
    f = ScalingField(BOX4, LinearField((0.4, 0.3, 0.0, 0.0)),
                     ConstantField(0.0))
    s0 = GeodesicState(np.zeros(4), np.array([0.5, 0.4, 0.0, 0.0]))
    a = integrate_geodesic(s0, f, tau_end=1.0, h_tau=0.01)
    b = integrate_geodesic(s0, f, tau_end=1.0, h_tau=0.01,
                           drag_contraction="minkowski")
    assert not np.allclose(a.final.position, b.final.position, atol=1e-6)
    with pytest.raises(ValueError):
        integrate_geodesic(s0, f, tau_end=1.0, h_tau=0.1,
                           drag_contraction="conformal")


def test_trajectory_path_follows_the_samples():
    f = ScalingField(BOX3, GaussianField(0.6, (0.3, 0.5, 0.0), 1.0),
                     ConstantField(0.0))
    s0 = GeodesicState(np.array([-1.0, 0.0, 0.0]), np.array([1.0, 0.1, 0.0]))
    tr = integrate_geodesic(s0, f, tau_end=1.5, h_tau=0.01)
    path = trajectory_path(tr)
    assert np.allclose(path.position(np.array(0.0)), tr.positions[0], atol=1e-12)
    assert np.allclose(path.position(np.array(1.0)), tr.positions[-1], atol=1e-12)
    # chain rule: dq/ds = (dq/dtau) (dtau/ds)
    assert np.allclose(path.velocity(np.array(0.0)) / 1.5, tr.velocities[0],
                       atol=1e-12)
    mid = path.position(np.array(0.5))
    assert np.allclose(mid, tr.positions[len(tr) // 2], atol=1e-8)
    chords = float(np.sum(np.linalg.norm(np.diff(tr.positions, axis=0), axis=1)))
    assert local_path_length(path, BOX3, steps=600) == pytest.approx(
        chords, rel=1e-4)


def test_trajectory_path_agrees_with_a_clamped_cubic_spline():
    # criterion 10's bump geodesic; scipy's clamped CubicSpline through the
    # same states, with the same end slopes, is the reference
    from scipy.interpolate import CubicSpline

    m = Manifold.box([(-3.0, 3.0)] * 4, 13)
    f = ScalingField(m, GaussianField(0.5, (0.0, 0.0, 0.6, 0.0), 0.8,
                                      axes=(1, 2, 3)),
                     ConstantField(0.0))
    s0 = GeodesicState(np.array([0.0, -1.5, 0.0, 0.0]),
                       np.array([0.0, 1.0, 0.0, 0.0]))
    tr = integrate_geodesic(s0, f, 3.0, 1e-3)
    span = 3.0
    spline = CubicSpline(np.linspace(0.0, 1.0, len(tr)), tr.positions,
                         bc_type=((1, tr.velocities[0] * span),
                                  (1, tr.velocities[-1] * span)))
    path = trajectory_path(tr)
    s = np.linspace(0.0, 1.0, 20001)
    assert np.max(np.abs(path.position(s) - spline(s))) < 1e-14
    assert np.max(np.abs(path.velocity(s) - spline(s, 1))) < 1e-11


def test_trajectory_shape_validation():
    # a table is 2-D with rows [tau | q | v]: an odd column count
    for table in (np.zeros(3), np.zeros((2, 4))):
        with pytest.raises(ValueError):
            Trajectory(table)
    tr = Trajectory(np.arange(14.0).reshape(2, 7))
    assert tr.taus.tolist() == [0.0, 7.0]
    assert tr.positions.tolist() == [[1.0, 2.0, 3.0], [8.0, 9.0, 10.0]]
    assert tr.final.velocity.tolist() == [11.0, 12.0, 13.0]
