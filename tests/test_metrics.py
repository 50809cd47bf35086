"""Probe-vehicle reconstruction and the four performance measures."""

import numpy as np
import pytest
from dataclasses import replace

from vslsim import (
    DemandProfile,
    IncidentSchedule,
    MetricConfig,
    NetworkGeometry,
    Scenario,
    SimulationTrace,
    VirtualTrajectory,
    avg_emission,
    avg_stops,
    compute_metrics,
    default_emission_rate,
    emission_rate_from_table,
    reconstruct_trajectories,
    rrmse_density_pooled,
    simulate_scenario,
    speed_field,
    stop_count,
)


def constant_trace(
    fd,
    geometry,
    duration_h=0.5,
    dt_s=1.0,
    density=20.0,
    flow=2000.0,
    zone_limit=100.0,
):
    """Trace with time-invariant uniform fields, for closed-form checks."""
    n = int(round(duration_h * 3600.0 / dt_s)) + 1
    times = np.arange(n) * (dt_s / 3600.0)
    cells = geometry.num_cells
    return SimulationTrace(
        geometry=geometry,
        fd=fd,
        times=times,
        densities=np.full((n, cells), float(density)),
        flows=np.full((n, cells + 1), float(flow)),
        limits=np.hstack(
            (
                np.full((n, 1), float(zone_limit)),
                np.full((n, geometry.num_sections), fd.free_flow_speed),
            )
        ),
        demand=np.full(n, float(flow)),
        incident_active=np.zeros(n, dtype=bool),
        lc_active=np.zeros(n, dtype=bool),
    )


def make_trajectory(speeds, dt_h=1.0 / 360.0, entry=0.0, complete=True):
    speeds = np.asarray(speeds, dtype=float)
    durations = np.full(speeds.shape, dt_h)
    positions = np.concatenate(([0.0], np.cumsum(speeds * dt_h)))
    times = entry + np.arange(speeds.shape[0] + 1) * dt_h
    return VirtualTrajectory(
        entry_time=entry,
        times=times,
        positions=positions,
        speeds=speeds,
        durations=durations,
        exit_time=(entry + speeds.shape[0] * dt_h) if complete else None,
    )


def two_speed_trace(fd, slow_from_k=600, n=1861, seeds=(0, 600)):
    """One 10 km cell, 1 s steps: 60 km/h before step ``slow_from_k`` and
    30 km/h after, with inflow (hence a probe) only at the ``seeds`` steps."""
    geometry = NetworkGeometry(1, 10.0, 0.0)
    times = np.arange(n) / 3600.0
    flows = np.zeros((n, 2))
    flows[list(seeds), 0] = 1200.0
    flows[:, 1] = np.where(np.arange(n) < slow_from_k, 1200.0, 600.0)
    return SimulationTrace(
        geometry=geometry,
        fd=fd,
        times=times,
        densities=np.full((n, 1), 20.0),
        flows=flows,
        limits=np.full((n, 2), fd.free_flow_speed),
        demand=flows[:, 0].copy(),
        incident_active=np.zeros(n, dtype=bool),
        lc_active=np.zeros(n, dtype=bool),
    )


class TestCellSpeed:
    def test_flow_over_density_capped_by_limit(self, fd, geometry):
        field = speed_field(constant_trace(fd, geometry, density=48.0, flow=4800.0))
        assert np.allclose(field, 100.0)
        capped = speed_field(constant_trace(fd, geometry, density=20.0, flow=4000.0))
        assert np.allclose(capped, 100.0)

    def test_empty_cell_moves_at_limit(self, fd, geometry):
        for density, flow in ((0.0, 0.0), (0.5, 10.0)):  # 0.5 is below the floor
            field = speed_field(
                constant_trace(fd, geometry, density=density, flow=flow, zone_limit=80.0)
            )
            assert np.all(field[:, 0] == 80.0)
            assert np.all(field[:, 1:] == fd.free_flow_speed)

    def test_congested_speed(self, fd, geometry):
        field = speed_field(constant_trace(fd, geometry, density=200.0, flow=4320.0))
        assert np.allclose(field, 21.6)


class TestSpeedField:
    def test_zone_cell_uses_zone_limit(self, fd, geometry):
        trace = constant_trace(fd, geometry, density=70.0, flow=1400.0, zone_limit=20.0)
        field = speed_field(trace)
        assert field[0, 0] == pytest.approx(20.0)
        assert field[0, 1] == pytest.approx(20.0)  # q/rho = 20 everywhere here


class TestTrajectories:
    def test_free_flow_transit_time(self, fd, geometry):
        trace = constant_trace(fd, geometry, density=20.0, flow=2000.0)
        trajs = reconstruct_trajectories(trace, seed_interval=60.0 / 3600.0)
        assert trajs
        expected = geometry.total_length / fd.free_flow_speed
        for traj in trajs:
            if traj.complete:
                assert traj.transit_time == pytest.approx(expected, rel=1e-9)
        assert any(t.complete for t in trajs)

    def test_no_seeding_without_inflow(self, fd, geometry):
        trace = constant_trace(fd, geometry, density=0.0, flow=0.0)
        assert reconstruct_trajectories(trace, seed_interval=60.0 / 3600.0) == []

    def test_positions_non_decreasing(self, fd, geometry):
        trace = constant_trace(fd, geometry, density=150.0, flow=3000.0)
        for traj in reconstruct_trajectories(trace, seed_interval=300.0 / 3600.0):
            assert np.all(np.diff(traj.positions) >= -1e-12)

    def test_first_in_first_out_on_controlled_run(self, fd):
        from vslsim import VslRuleConfig

        scenario = Scenario(
            name="fifo",
            fd=fd,
            geometry=NetworkGeometry(3, 1.6, 1.2),
            demand=DemandProfile.constant(7000.0),
            incident=IncidentSchedule(start=2.0 / 60.0, end=12.0 / 60.0),
            controller="rule_based",
            vsl=VslRuleConfig(derating=0.8, switch_margin=0.02, quantize_step=5.0),
            lc=None,
            horizon=15.0 / 60.0,
            metrics=MetricConfig(),
        )
        trace = simulate_scenario(scenario)
        trajs = reconstruct_trajectories(trace, seed_interval=30.0 / 3600.0)
        dt = trace.dt
        for lead, trail in zip(trajs, trajs[1:]):
            offset = int(round((trail.entry_time - lead.entry_time) / dt))
            n = min(len(trail.positions), len(lead.positions) - offset)
            if n <= 0:
                continue
            lead_pos = lead.positions[offset : offset + n]
            assert np.all(trail.positions[:n] <= lead_pos + 1e-9)


class TestAtt:
    def test_mean_of_two(self, fd):
        # 10 km at 60 km/h (10 min), then 10 km at 30 km/h (20 min).
        trace = two_speed_trace(fd)
        report = compute_metrics(trace, 600.0 / 3600.0, 20.0, (0.0, 0.5))
        assert report.vehicles_counted == 2
        assert report.att_min == pytest.approx(15.0, rel=1e-6)

    def test_single_trajectory(self, fd, geometry):
        trace = constant_trace(fd, geometry, density=20.0, flow=2000.0)
        report = compute_metrics(trace, 1.0, 20.0, (0.0, 0.4))
        assert report.vehicles_counted == 1
        assert report.att_min == pytest.approx(60.0 * geometry.total_length / 100.0)

    def test_requires_a_completed_trip(self, fd, geometry):
        trace = constant_trace(fd, geometry, duration_h=0.05, density=20.0, flow=2000.0)
        report = compute_metrics(trace, 1.0, 20.0, (0.0, 0.05))
        assert report.vehicles_counted == 0
        assert np.isnan(report.att_min)


class TestStops:
    def test_hand_profile_two_stops(self):
        assert stop_count([100.0, 3.0, 50.0, 2.0, 80.0], 5.0, 10.0) == 2

    def test_never_below_threshold(self):
        assert stop_count([100.0, 40.0, 60.0], 5.0, 10.0) == 0

    def test_no_recount_without_resume(self):
        assert stop_count([100.0, 3.0, 7.0, 2.0, 4.0], 5.0, 10.0) == 1

    def test_thresholds_must_be_ordered(self):
        with pytest.raises(ValueError):
            stop_count([10.0], 10.0, 5.0)

    def test_average_over_identical_trajectories(self):
        profile = [100.0, 3.0, 50.0, 2.0, 80.0]
        trajs = [make_trajectory(profile) for _ in range(5)]
        assert avg_stops(trajs) == pytest.approx(2.0)

    def test_invariant_to_changes_above_resume(self):
        base = [100.0, 3.0, 50.0, 2.0, 80.0]
        wobbled = [95.0, 3.0, 70.0, 2.0, 12.0]
        assert stop_count(base, 5.0, 10.0) == stop_count(wobbled, 5.0, 10.0)


class TestEmission:
    def test_constant_speed_returns_rate_at_that_speed(self):
        traj = make_trajectory([80.0] * 50)
        assert avg_emission([traj]) == pytest.approx(default_emission_rate(80.0))

    def test_constant_rate_function(self):
        trajs = [make_trajectory([30.0] * 10), make_trajectory([90.0] * 40)]
        assert avg_emission(trajs, rate_fn=lambda v: 123.0) == pytest.approx(123.0)

    def test_equal_distance_trajectories_average_rates(self):
        rate = emission_rate_from_table([(50.0, 300.0), (100.0, 400.0)])
        # 50 km/h for 0.2 h and 100 km/h for 0.1 h both cover 10 km.
        slow = make_trajectory([50.0] * 72, dt_h=0.2 / 72)
        fast = make_trajectory([100.0] * 72, dt_h=0.1 / 72)
        assert avg_emission([slow, fast], rate_fn=rate) == pytest.approx(350.0)

    def test_default_curve_anchors(self):
        assert default_emission_rate(100.0) == pytest.approx(320.0, abs=0.1)
        assert default_emission_rate(20.0) == pytest.approx(395.0, abs=0.1)

    def test_table_needs_two_points(self):
        with pytest.raises(ValueError):
            emission_rate_from_table([(50.0, 300.0)])


class TestRrmse:
    def test_zero_when_on_target(self, fd, geometry):
        trace = constant_trace(fd, geometry, density=48.0)
        assert rrmse_density_pooled(trace, 48.0, 0.0, 0.4) == pytest.approx(0.0)

    def test_constant_offset(self, fd, geometry):
        trace = constant_trace(fd, geometry, density=60.0)
        assert rrmse_density_pooled(trace, 48.0, 0.0, 0.4) == pytest.approx(0.25)

    def test_shift_invariance(self, fd, geometry):
        trace = constant_trace(fd, geometry, density=60.0)
        early = rrmse_density_pooled(trace, 48.0, 0.0, 0.2)
        late = rrmse_density_pooled(trace, 48.0, 0.25, 0.45)
        assert early == pytest.approx(late)

    def test_linear_scaling_of_deviation(self, fd, geometry):
        base = constant_trace(fd, geometry, density=54.0)  # rho* + 6
        double = constant_trace(fd, geometry, density=60.0)  # rho* + 12
        assert rrmse_density_pooled(double, 48.0, 0.0, 0.4) == pytest.approx(
            2.0 * rrmse_density_pooled(base, 48.0, 0.0, 0.4)
        )

    def test_pooled_sees_localized_congestion(self, fd, geometry):
        trace = constant_trace(fd, geometry, density=40.0)
        densities = trace.densities.copy()
        densities[:, -1] = 150.0  # one congested section, rest below target
        trace.densities = densities
        # The cross-section mean (350 / 6 veh/km) sits only 10.3 veh/km off.
        cross = abs(np.mean(densities[0, 1:]) - 48.0) / 48.0
        pooled = rrmse_density_pooled(trace, 48.0, 0.0, 0.4)
        assert pooled == pytest.approx(np.sqrt((5 * 8.0**2 + 102.0**2) / 6) / 48.0)
        assert pooled > 4 * cross

    def test_window_outside_trace_rejected(self, fd, geometry):
        trace = constant_trace(fd, geometry, duration_h=0.1)
        with pytest.raises(ValueError):
            rrmse_density_pooled(trace, 48.0, 0.0, 0.2)
        with pytest.raises(ValueError):
            rrmse_density_pooled(trace, 48.0, 0.05, 0.01)
