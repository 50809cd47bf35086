"""Euler stepping, the run loop, conservation, and trace bookkeeping."""

import numpy as np
import pytest
from dataclasses import replace

from vslsim import (
    CflViolationError,
    ControllerError,
    DemandProfile,
    FlowVector,
    IncidentSchedule,
    MetricConfig,
    NetworkGeometry,
    Scenario,
    SpeedLimits,
    TrafficState,
    cfl_limit,
    interface_flows,
    run,
    simulate_scenario,
    step,
    warm_state,
)


def mini_scenario(fd, **overrides) -> Scenario:
    """Small fast corridor: three 1.6 km sections, no metering zone."""
    defaults = dict(
        name="mini",
        fd=fd,
        geometry=NetworkGeometry(3, 1.6, 0.0),
        demand=DemandProfile.constant(7000.0),
        incident=IncidentSchedule(start=2.0 / 60.0, end=8.0 / 60.0),
        controller="no_control",
        lc=None,
        horizon=10.0 / 60.0,
        dt=1.0,
        control_period=30.0,
        metrics=MetricConfig(),
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestStep:
    def test_single_cell_hand_arithmetic(self, fd):
        # rho' = 10 + (1/3600/1.6) * (3744 - 1000)
        geometry = NetworkGeometry(1, 1.6, 0.0)
        state = TrafficState(0.0, 10.0, np.array([10.0]))
        flows = FlowVector(3744.0, np.array([3744.0, 1000.0]))
        out = step(state, flows, geometry, 1.0 / 3600.0)
        assert out.densities[0] == pytest.approx(10.4763888889, rel=1e-9)

    def test_equilibrium_is_fixed_point(self, fd, geometry):
        state = TrafficState(0.0, 48.0, np.full(6, 48.0))
        limits = SpeedLimits.uniform(100.0, 6)
        flows = interface_flows(
            state, limits, fd, 4800.0, downstream_capacity=fd.downstream_capacity
        )
        after = step(state, flows, geometry, 1.0 / 3600.0)
        assert after.upstream_density == pytest.approx(48.0, rel=1e-12)
        assert np.allclose(after.densities, 48.0, rtol=1e-12)

    def test_empty_road_stays_empty(self, fd, geometry):
        state = TrafficState(0.0, 0.0, np.zeros(6))
        flows = interface_flows(state, SpeedLimits.uniform(100.0, 6), fd, 0.0)
        after = step(state, flows, geometry, 1.0 / 3600.0)
        assert after.upstream_density == 0.0
        assert np.all(after.densities == 0.0)

    def test_flux_mismatch_detected(self, fd):
        # An outflow far above what the cell holds drives density negative.
        geometry = NetworkGeometry(1, 0.1, 0.0)
        state = TrafficState(0.0, 1.0, np.array([1.0]))
        bogus = FlowVector(0.0, np.array([0.0, 7200.0]))
        with pytest.raises(ValueError, match="negative density"):
            step(state, bogus, geometry, 10.0 / 3600.0)

    def test_cfl_limit_value(self, fd, geometry):
        # min cell 1.6 km over the fastest wave 100 km/h = 57.6 s
        assert cfl_limit(geometry, fd) * 3600.0 == pytest.approx(57.6)


class TestRun:
    def test_free_flow_when_demand_below_dropped_capacity(self, fd):
        scenario = mini_scenario(fd, demand=DemandProfile.constant(4000.0))
        trace = simulate_scenario(scenario)
        assert float(np.max(trace.densities)) < fd.critical_density
        assert np.allclose(trace.flows[0], 4000.0)

    def test_capacity_drop_engages_without_control(self, fd):
        scenario = mini_scenario(fd)
        trace = simulate_scenario(scenario)
        during = trace.incident_active
        assert np.max(trace.section_densities[during, -1]) > 48.0
        assert np.min(trace.bottleneck_outflow[during]) == pytest.approx(4320.0)

    def test_bottleneck_cap_reverts_after_incident(self, fd):
        scenario = mini_scenario(fd, horizon=20.0 / 60.0)
        trace = simulate_scenario(scenario)
        after = trace.times >= scenario.incident.end
        # Recovery discharge exceeds the incident cap once lanes reopen.
        assert np.max(trace.bottleneck_outflow[after]) > fd.downstream_capacity

    def test_zero_horizon_yields_single_sample(self, fd):
        scenario = mini_scenario(fd, horizon=0.0, incident=None)
        trace = simulate_scenario(scenario)
        assert trace.num_samples == 1
        assert trace.times[0] == 0.0

    def test_densities_stay_in_range(self, fd):
        scenario = mini_scenario(fd, horizon=30.0 / 60.0)
        trace = simulate_scenario(scenario)
        assert np.all(trace.densities >= 0.0)
        assert np.all(trace.densities <= fd.outflow_jam_density + 1e-9)

    def test_deterministic_repetition(self, fd):
        a = simulate_scenario(mini_scenario(fd))
        b = simulate_scenario(mini_scenario(fd))
        assert np.array_equal(a.densities, b.densities)
        assert np.array_equal(a.flows, b.flows)
        assert np.array_equal(a.limits, b.limits)
        assert a.events == b.events

    def test_warm_state_matches_demand(self, fd):
        scenario = mini_scenario(fd)
        state = warm_state(scenario)
        assert np.allclose(state.densities, 70.0)

    def test_controller_rejected_on_bad_limits(self, fd):
        scenario = mini_scenario(fd)

        def too_fast(state, t):
            return SpeedLimits.uniform(150.0, 3)

        with pytest.raises(ControllerError):
            run(scenario, too_fast)

        def wrong_shape(state, t):
            return SpeedLimits.uniform(90.0, 5)

        with pytest.raises(ControllerError):
            run(scenario, wrong_shape)

        def not_limits(state, t):
            return (90.0, 90.0, 90.0)

        with pytest.raises(ControllerError):
            run(scenario, not_limits)

    def test_cfl_checked_before_running(self, fd):
        scenario = mini_scenario(fd, dt=120.0)
        with pytest.raises(CflViolationError):
            run(scenario, lambda s, t: SpeedLimits.uniform(100.0, 3))

    def test_events_logged(self, fd):
        scenario = mini_scenario(fd)
        trace = simulate_scenario(scenario)
        labels = [label for _, label in trace.events]
        assert "incident_start" in labels
        assert "incident_end" in labels


class TestConservation:
    def test_per_step_balance(self, fd):
        scenario = mini_scenario(fd)
        trace = simulate_scenario(scenario)
        lengths = scenario.geometry.cell_lengths()
        dt = trace.dt
        stored = trace.densities @ lengths
        for k in range(trace.num_samples - 1):
            delta = stored[k + 1] - stored[k]
            net = dt * (trace.flows[k, 0] - trace.flows[k, -1])
            assert delta == pytest.approx(net, rel=1e-9, abs=1e-9)

    def test_cumulative_balance(self, fd):
        scenario = mini_scenario(fd, horizon=30.0 / 60.0)
        trace = simulate_scenario(scenario)
        balance = trace.vehicle_balance()
        assert abs(balance["residual"]) <= 1e-6 * max(balance["entered"], 1.0)


class TestProfilesAndTypes:
    def test_demand_profile_steps(self):
        profile = DemandProfile(times=(0.0, 0.5, 1.0), flows=(1000.0, 2000.0, 500.0))
        assert profile.at(0.0) == 1000.0
        assert profile.at(0.49) == 1000.0
        assert profile.at(0.5) == 2000.0
        assert profile.at(2.0) == 500.0

    def test_demand_profile_validation(self):
        with pytest.raises(ValueError):
            DemandProfile(times=(0.5,), flows=(100.0,))
        with pytest.raises(ValueError):
            DemandProfile(times=(0.0, 0.0), flows=(1.0, 2.0))
        with pytest.raises(ValueError):
            DemandProfile(times=(0.0,), flows=(-1.0,))

    def test_incident_validation(self):
        with pytest.raises(ValueError):
            IncidentSchedule(start=1.0, end=0.5)
        with pytest.raises(ValueError):
            IncidentSchedule(start=0.0, end=1.0, lanes_closed=0)

    def test_trace_csv_round_numbers(self, fd, tmp_path):
        scenario = mini_scenario(fd, horizon=1.0 / 60.0, incident=None)
        trace = simulate_scenario(scenario)
        path = tmp_path / "trace.csv"
        trace.to_csv(path, comment="hash=abc123")
        lines = path.read_text().splitlines()
        assert lines[0] == "# hash=abc123"
        header = lines[1].split(",")
        # t, rho_0..rho_3, q_in, q_1..q_4, v_0..v_3, incident, lc
        assert len(header) == 1 + 4 + 5 + 4 + 2
        assert len(lines) == 2 + trace.num_samples

    def test_state_accessors_without_zone(self, fd):
        scenario = mini_scenario(fd)
        trace = simulate_scenario(scenario)
        state = trace.state_at(0)
        assert state.upstream_density == state.densities[0]
        limits = trace.limits_at(0)
        assert limits.num_sections == 3
