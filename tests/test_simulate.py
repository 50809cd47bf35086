"""Euler stepping, the run loop, conservation, and trace bookkeeping."""

import numpy as np
import pytest
from dataclasses import replace
from helpers import (
    fine_grid_scenario,
    one_state_flows,
    oracle_run,
    oracle_to_csv,
    random_triangle,
)
from hypothesis import given, settings, strategies as st

import vslsim.simulate
from vslsim import (
    ControllerError,
    DemandProfile,
    IncidentSchedule,
    LcConfig,
    MetricConfig,
    NetworkGeometry,
    Scenario,
    ScenarioValidationError,
    SpeedLimits,
    TrafficState,
    cfl_limit,
    high_demand_preset,
    moderate_demand_preset,
    run,
    simulate_scenario,
    warm_state,
)
from vslsim.ctm import engaged_drop, euler_update, fluxes, speed_caps
from vslsim.scenario import HIGH_DEMAND_ZONE_SWEEP


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


def free_flow_step(fd, geometry, rho, demand) -> np.ndarray:
    """Densities one 1 s step on, all limits at free flow, incident active."""
    v = np.full(geometry.num_sections + 1, fd.free_flow_speed)
    q = one_state_flows(rho, v, fd, demand)
    return euler_update(rho, q, (1.0 / 3600.0) / geometry.cell_lengths())


class TestStep:
    def test_single_cell_hand_arithmetic(self, fd):
        # rho' = 10 + (1/3600/1.6) * (3744 - 1000)
        geometry = NetworkGeometry(1, 1.6, 0.0)
        q = np.array([3744.0, 1000.0])
        out = euler_update(np.array([10.0]), q, (1.0 / 3600.0) / geometry.cell_lengths())
        assert out[0] == pytest.approx(10.4763888889, rel=1e-9)

    def test_equilibrium_is_fixed_point(self, fd, geometry):
        after = free_flow_step(fd, geometry, np.full(7, 48.0), 4800.0)
        assert np.allclose(after, 48.0, rtol=1e-12)

    def test_empty_road_stays_empty(self, fd, geometry):
        after = free_flow_step(fd, geometry, np.zeros(7), 0.0)
        assert np.all(after == 0.0)

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
        assert np.min(trace.flows[during, -1]) == pytest.approx(4320.0)

    def test_bottleneck_cap_reverts_after_incident(self, fd):
        scenario = mini_scenario(fd, horizon=20.0 / 60.0)
        trace = simulate_scenario(scenario)
        after = trace.times >= scenario.incident.end
        # Recovery discharge exceeds the incident cap once lanes reopen.
        assert np.max(trace.flows[after, -1]) > fd.downstream_capacity

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

        def too_fast_later(state, t):
            return SpeedLimits.uniform(150.0 if t > 5.0 / 60.0 else 90.0, 3)

        with pytest.raises(ControllerError, match="above free flow"):
            run(scenario, too_fast_later)

    @pytest.mark.parametrize(
        "zone, section, named",
        [(np.nan, 90.0, "zone speed limit"), (90.0, np.nan, "section speed limits")],
    )
    def test_nan_limit_stops_first_controller_call(self, fd, zone, section, named):
        scenario = mini_scenario(fd)
        calls = []

        def nan_limits(state, t):
            calls.append(t)
            return SpeedLimits(zone, np.array([90.0, section, 90.0]))

        with pytest.raises(ValueError, match=named):
            run(scenario, nan_limits)
        assert calls == [0.0]
        # A value that slipped past SpeedLimits is still refused by the run.
        forged = SpeedLimits.uniform(90.0, 3)
        object.__setattr__(forged, "zone", zone)
        object.__setattr__(forged, "sections", np.array([90.0, section, 90.0]))
        with pytest.raises(ControllerError, match="or NaN"):
            run(scenario, lambda s, t: forged)

    def test_initial_state_must_match_geometry(self, fd):
        with pytest.raises(ValueError, match="does not match the geometry"):
            run(
                mini_scenario(fd),
                lambda s, t: SpeedLimits.uniform(100.0, 3),
                initial_state=TrafficState.uniform(10.0, 5),
            )

    def test_cfl_checked_before_running(self, fd):
        # The scenario checks the CFL bound when it is built, so no run starts.
        with pytest.raises(ScenarioValidationError) as err:
            mini_scenario(fd, dt=120.0)
        assert any(v.startswith("dt:") and "CFL" in v for v in err.value.violations)

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

    @pytest.mark.parametrize(
        "t",
        [-0.1, float("nan"), np.array([0.0, -0.1, 0.5])],
        ids=["negative", "nan", "array"],
    )
    def test_demand_profile_rejects_time_before_start(self, t):
        profile = DemandProfile((0.0, 0.5), (1000.0, 2000.0))
        with pytest.raises(ValueError, match="non-negative"):
            profile.at(t)

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
        state = TrafficState.from_cells(0.0, trace.densities[0], has_zone=False)
        assert state.upstream_density == state.densities[0]
        assert state.num_sections == 3
        assert np.array_equal(state.all_densities(has_zone=False), trace.densities[0])


def replay_flows(scenario: Scenario, trace) -> np.ndarray:
    """``fluxes`` applied to the whole (T, C) density history at once."""
    fd = trace.fd
    cap_d = np.where(trace.incident_active, fd.downstream_capacity, fd.capacity)
    residual = scenario.lc.residual_drop if scenario.lc is not None else 0.0
    drop = engaged_drop(cap_d, fd, trace.lc_active, residual)
    caps = speed_caps(trace.limits, trace.geometry.num_cells, fd)
    return fluxes(trace.densities, trace.limits, caps, trace.demand, cap_d, drop, fd)


def assert_matches_oracle(scenario: Scenario, trace) -> None:
    ref = oracle_run(scenario)
    for name in (
        "times",
        "densities",
        "flows",
        "limits",
        "demand",
        "incident_active",
        "lc_active",
    ):
        assert np.array_equal(getattr(trace, name), getattr(ref, name)), name
    assert trace.events == ref.events


class TestKernelAgainstStepLoop:
    """The array kernel against the per-step, per-cell loop it replaced."""

    @pytest.mark.filterwarnings("ignore:switch time")
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sections=st.integers(1, 4),
        section_length=st.floats(0.3, 1.5),
        zone=st.one_of(st.just(0.0), st.floats(0.3, 3.0)),
        steps=st.lists(st.integers(1, 11), max_size=2, unique=True).map(
            lambda ts: [0] + sorted(ts)
        ),
        controller=st.sampled_from(["no_control", "rule_based", "rule_based_reactive"]),
        lane_change=st.booleans(),
    )
    def test_random_scenarios(
        self, seed, sections, section_length, zone, steps, controller, lane_change
    ):
        rng = np.random.default_rng(seed)
        fd = random_triangle(rng)
        flows = tuple(float(f) * fd.capacity for f in rng.uniform(0.3, 1.1, len(steps)))
        lc = None
        if lane_change:
            lc = LcConfig(
                advisory_distance_per_lane=800.0,
                residual_drop=float(rng.uniform(0.0, fd.capacity_drop_factor)),
            )
        scenario = Scenario(
            name="kernel",
            fd=fd,
            geometry=NetworkGeometry(sections, section_length, zone),
            demand=DemandProfile((0.0,) + tuple(t / 60.0 for t in steps[1:]), flows),
            incident=IncidentSchedule(start=2.0 / 60.0, end=8.0 / 60.0),
            controller=controller,
            lc=lc,
            horizon=12.0 / 60.0,
            control_period=10.0,
        )
        trace = simulate_scenario(scenario)
        assert_matches_oracle(scenario, trace)
        balance = trace.vehicle_balance()
        assert abs(balance["residual"]) <= 1e-9 * balance["entered"]
        assert np.all(trace.densities >= 0.0)
        assert np.all(trace.densities[:, -1] <= fd.outflow_jam_density)
        assert np.all(trace.flows >= 0.0)
        assert np.array_equal(replay_flows(scenario, trace), trace.flows)

    @pytest.mark.parametrize(
        "case", [*HIGH_DEMAND_ZONE_SWEEP, "moderate_demand", "fine_grid"], ids=str
    )
    def test_bundled_scenarios(self, case):
        if case == "moderate_demand":
            scenario = moderate_demand_preset()
        elif case == "fine_grid":
            scenario = fine_grid_scenario()
        else:
            base = high_demand_preset()
            geometry = replace(base.geometry, upstream_zone_length=case)
            scenario = replace(base, geometry=geometry)
        trace = simulate_scenario(scenario)
        assert_matches_oracle(scenario, trace)
        assert np.array_equal(replay_flows(scenario, trace), trace.flows)


class TestTraceCsv:
    @pytest.mark.parametrize("zone", [0.0, 1.2])
    @pytest.mark.parametrize("comment", [None, "scenario=mini hash=abc123"])
    def test_bytes_match_value_by_value_writer(self, fd, tmp_path, zone, comment):
        # 601 rows: several full blocks and a partial one.
        scenario = mini_scenario(fd, geometry=NetworkGeometry(3, 1.6, zone))
        trace = simulate_scenario(scenario)
        trace.to_csv(tmp_path / "blocked.csv", comment=comment)
        oracle_to_csv(trace, tmp_path / "oracle.csv", comment=comment)
        blocked = (tmp_path / "blocked.csv").read_bytes()
        assert blocked == (tmp_path / "oracle.csv").read_bytes()
        assert blocked.startswith(b"# scenario=mini") == (comment is not None)


class TestOutOfRangeStates:
    """Density and flow bounds are checked over the finished run; a breach
    names the first step and cell it happens at."""

    def test_oversized_flux_names_step_and_cell(self, fd, monkeypatch):
        real = vslsim.simulate.fluxes
        calls = []

        def leaky(*args, **kwargs):
            q = real(*args, **kwargs)
            calls.append(None)
            if len(calls) == 51:  # step 50: drain the last cell far too fast
                q[-1] = 1e6
            return q

        monkeypatch.setattr(vslsim.simulate, "fluxes", leaky)
        message = r"step 51 \(t = 0\.85 min\): cell 2 density -"
        with pytest.raises(ValueError, match=message):
            simulate_scenario(mini_scenario(fd))

    def test_nan_state_names_step_and_cell(self, fd):
        scenario = mini_scenario(fd)
        with pytest.raises(ValueError, match="densities must be non-negative"):
            TrafficState(0.0, 70.0, np.array([70.0, np.nan, 70.0]))
        # A state that slipped past TrafficState is still refused by the run.
        state = TrafficState.uniform(70.0, 3)
        object.__setattr__(state, "densities", np.array([70.0, np.nan, 70.0]))
        with pytest.raises(ValueError, match=r"step 0 \(t = 0 min\): cell 1 density nan"):
            run(scenario, lambda s, t: SpeedLimits.uniform(100.0, 3), initial_state=state)

    def test_overfull_bottleneck_names_step_and_cell(self, fd):
        scenario = mini_scenario(fd)
        state = TrafficState(0.0, 70.0, np.array([70.0, 70.0, 600.0]))
        message = r"step 0 \(t = 0 min\): bottleneck cell 2 density 600 outside \[0, 552\]"
        with pytest.raises(ValueError, match=message):
            run(scenario, lambda s, t: SpeedLimits.uniform(100.0, 3), initial_state=state)

    def test_nan_flow_mid_run_names_step_and_cell(self, fd, monkeypatch):
        real = vslsim.simulate.fluxes
        calls = []

        def broken(*args, **kwargs):
            q = real(*args, **kwargs)
            calls.append(None)
            if len(calls) == 121:  # step 120, between control instants
                q[1] = np.nan
            return q

        monkeypatch.setattr(vslsim.simulate, "fluxes", broken)
        message = r"step 120 \(t = 2 min\): flow nan into cell 1"
        with pytest.raises(ValueError, match=message):
            simulate_scenario(mini_scenario(fd))
