"""Euler stepping, the run loop, conservation, and trace bookkeeping."""

import re
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from helpers import (
    fine_grid_scenario,
    one_state_flows,
    oracle_run,
    oracle_to_csv,
    random_triangle,
)
from hypothesis import given, settings, strategies as st

import vslsim.simulate
import vslsim.sweep
from vslsim import (
    ControllerError,
    DemandProfile,
    IncidentSchedule,
    LcConfig,
    MetricConfig,
    NetworkGeometry,
    Scenario,
    ScenarioValidationError,
    SimulationTrace,
    SweepSpec,
    VslRuleConfig,
    apply_sweep_value,
    cfl_limit,
    evaluate_trace,
    high_demand_preset,
    make_controller,
    moderate_demand_preset,
    run,
    run_sweep,
    simulate_scenario,
    warm_state,
    zone_bound_report,
)
from vslsim.ctm import engaged_drop, euler_update, fluxes, speed_caps
from vslsim.scenario import HIGH_DEMAND_ZONE_SWEEP
from vslsim.sweep import SWEEP_VARIABLES


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
        assert state.shape == (3,)
        assert np.allclose(state, 70.0)

    def test_controller_rejected_on_bad_limits(self, fd):
        scenario = mini_scenario(fd)
        # Limits returned at t = 0 -> how the message shows them; N + 1 = 4.
        for limits, shown in (
            (np.full(4, 150.0), "[150.0, 150.0, 150.0, 150.0]"),
            (np.array([90.0, 90.0, 0.0, 90.0]), "[90.0, 90.0, 0.0, 90.0]"),
            (np.array([90.0, 90.0, 90.0, -5.0]), "[90.0, 90.0, 90.0, -5.0]"),
            (np.full(5, 90.0), "[90.0, 90.0, 90.0, 90.0, 90.0]"),
            (np.full(3, 90.0), "[90.0, 90.0, 90.0]"),
            ((90.0, 90.0, 90.0), "[90.0, 90.0, 90.0]"),
        ):
            calls = []

            def bad(cells, t):
                calls.append(t)
                return limits

            message = re.escape(f"controller returned {shown}; expected 4 limits")
            with pytest.raises(ControllerError, match=message):
                run(scenario, bad)
            assert calls == [0.0]

        def too_fast_later(cells, t):
            return np.full(4, 150.0 if t > 5.0 / 60.0 else 90.0)

        with pytest.raises(ControllerError, match=r"at most free flow \(100 km/h\)"):
            run(scenario, too_fast_later)

    @pytest.mark.parametrize(
        "zone, section, shown",
        [(np.nan, 90.0, "[nan, 90.0, 90.0, 90.0]"), (90.0, np.nan, "[90.0, 90.0, nan, 90.0]")],
        ids=["zone", "section"],
    )
    def test_nan_limit_stops_first_controller_call(self, fd, zone, section, shown):
        scenario = mini_scenario(fd)
        calls = []

        def nan_limits(cells, t):
            calls.append(t)
            return np.array([zone, 90.0, section, 90.0])

        with pytest.raises(ControllerError, match=re.escape(shown)):
            run(scenario, nan_limits)
        assert calls == [0.0]

    @pytest.mark.parametrize(
        "zone, section, shown",
        [(np.inf, 90.0, "[inf, 90.0, 90.0, 90.0]"), (90.0, np.inf, "[90.0, 90.0, inf, 90.0]")],
        ids=["zone", "section"],
    )
    def test_infinite_limit_stops_first_controller_call(self, fd, zone, section, shown):
        scenario = mini_scenario(fd)
        calls = []

        def infinite_limits(cells, t):
            calls.append(t)
            return np.array([zone, 90.0, section, 90.0])

        with pytest.raises(ControllerError, match=re.escape(shown)):
            run(scenario, infinite_limits)
        assert calls == [0.0]

    def test_controller_cannot_write_the_densities(self, fd):
        scenario = mini_scenario(fd)
        free = np.full(4, 100.0)

        def vandal(cells, t):
            assert cells.shape == (3,)
            with pytest.raises(ValueError, match="read-only"):
                cells[:] = 0.0
            return free

        clean = run(scenario, lambda cells, t: free)
        assert np.array_equal(run(scenario, vandal).densities, clean.densities)

    def test_run_copies_the_limits_it_keeps(self, fd):
        shared = np.full(4, 100.0)

        def reusing(cells, t):
            # One array, rewritten in place at every call.
            shared[0] = 50.0 if t < 5.0 / 60.0 else 100.0
            return shared

        trace = run(mini_scenario(fd), reusing)
        assert trace.limits[0, 0] == 50.0 and trace.limits[-1, 0] == 100.0

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

    def test_demand_scalar_and_array_lookups_agree(self):
        # The scalar lookup bisects the tuples, the array one searchsorts:
        # the same step at each breakpoint and one ulp either side of it.
        profile = DemandProfile((0.0, 0.25, 0.5, 4.0 / 3.0), (7000.0, 0.0, 6200.0, 7400.0))
        times = np.array(profile.times)
        near = np.concatenate(
            (times, np.nextafter(times, -np.inf), np.nextafter(times, np.inf))
        )
        near = near[near >= 0.0]
        array = profile.at(near)
        for t, flow in zip(near.tolist(), array.tolist()):
            assert type(profile.at(t)) is float
            assert profile.at(t) == flow
            assert profile.at(np.float64(t)) == flow
            assert profile.at(np.array(t)) == flow

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
        assert trace.section_densities.shape == (trace.num_samples, 3)
        assert np.array_equal(trace.section_densities, trace.densities)
        assert np.array_equal(trace.upstream_densities, trace.densities[:, 0])


def replay_flows(scenario: Scenario, trace) -> np.ndarray:
    """``fluxes`` applied to the whole (T, C) density history at once."""
    fd = trace.fd
    cap_d = np.where(trace.incident_active, fd.downstream_capacity, fd.capacity)
    residual = scenario.lc.residual_drop if scenario.lc is not None else 0.0
    drop = engaged_drop(cap_d, fd, trace.lc_active, residual)
    caps = speed_caps(trace.limits, trace.geometry.num_cells, fd)
    return fluxes(trace.densities, trace.limits, caps, trace.demand, cap_d, drop, fd)


def assert_matches_oracle(scenario: Scenario, trace) -> None:
    """Every per-step array equals the step loop's in shape and bytes, so
    signed zeros and NaN payloads count; the events are equal."""
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
        got, want = getattr(trace, name), getattr(ref, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert trace.events == ref.events


def off_grid_seconds(first: int, last: int):
    """Whole seconds from ``first`` to ``last`` that fall between the
    instants of a 10 s control period."""
    return st.integers(first, last).filter(lambda s: s % 10)


@st.composite
def kernel_scenarios(draw, horizon_min: float = 12.0, off_grid: bool = False) -> Scenario:
    """Random triangle, one to four sections, a zone cell or none, up to three
    demand steps, any controller, advisories on or off; closure 2 to 8 min.
    With ``off_grid`` the demand steps and the closure start and end fall on
    whole seconds between control instants, in hours as a file's minutes
    give them; the closure starts in the first 5 min and lasts up to 5 min."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sections = draw(st.integers(1, 4))
    section_length = draw(st.floats(0.3, 1.5))
    zone = draw(st.one_of(st.just(0.0), st.floats(0.3, 3.0)))
    if off_grid:
        seconds = off_grid_seconds(1, int(horizon_min * 60.0) - 1)
        steps = [0] + sorted(draw(st.lists(seconds, max_size=2, unique=True)))
        start = draw(off_grid_seconds(1, 299))
        end = draw(off_grid_seconds(start + 1, start + 300))
        times = tuple(s / 60.0 / 60.0 for s in steps[1:])
        incident = IncidentSchedule(start=start / 60.0 / 60.0, end=end / 60.0 / 60.0)
    else:
        steps = draw(
            st.lists(st.integers(1, 11), max_size=2, unique=True).map(
                lambda ts: [0] + sorted(ts)
            )
        )
        times = tuple(t / 60.0 for t in steps[1:])
        incident = IncidentSchedule(start=2.0 / 60.0, end=8.0 / 60.0)
    controller = draw(
        st.sampled_from(["no_control", "rule_based", "rule_based_reactive"])
    )
    lane_change = draw(st.booleans())
    fd = random_triangle(rng)
    flows = tuple(float(f) * fd.capacity for f in rng.uniform(0.3, 1.1, len(steps)))
    lc = None
    if lane_change:
        lc = LcConfig(
            advisory_distance_per_lane=800.0,
            residual_drop=float(rng.uniform(0.0, fd.capacity_drop_factor)),
        )
    return Scenario(
        name="kernel",
        fd=fd,
        geometry=NetworkGeometry(sections, section_length, zone),
        demand=DemandProfile((0.0,) + times, flows),
        incident=incident,
        controller=controller,
        lc=lc,
        horizon=horizon_min / 60.0,
        control_period=10.0,
    )


class TestKernelAgainstStepLoop:
    """The array kernel against the per-step, per-cell loop it replaced."""

    @pytest.mark.filterwarnings("ignore:switch time")
    @settings(max_examples=40, deadline=None)
    @given(scenario=kernel_scenarios())
    def test_random_scenarios(self, scenario):
        fd = scenario.fd
        trace = simulate_scenario(scenario)
        assert_matches_oracle(scenario, trace)
        balance = trace.vehicle_balance()
        assert abs(balance["residual"]) <= 1e-9 * balance["entered"]
        assert np.all(trace.densities >= 0.0)
        assert np.all(trace.densities[:, -1] <= fd.outflow_jam_density)
        assert np.all(trace.flows >= 0.0)
        assert np.array_equal(replay_flows(scenario, trace), trace.flows)

    @pytest.mark.filterwarnings("ignore:switch time")
    @settings(max_examples=40, deadline=None)
    @given(scenario=kernel_scenarios(off_grid=True))
    def test_events_between_control_instants(self, scenario):
        # A demand step or a flag switch between two control instants ends
        # a stretch of repeated steps there, not at the next instant.
        assert_matches_oracle(scenario, simulate_scenario(scenario))

    @pytest.mark.parametrize("zone", [0.0, 1.2])
    def test_signed_zero_demand(self, fd, zone):
        # A demand of -0.0 warms the road to -0.0, which one step turns into
        # +0.0: equal values, other bytes. The demand steps up at 5 min.
        demand = DemandProfile((0.0, 5.0 / 60.0), (-0.0, 7000.0))
        scenario = mini_scenario(fd, geometry=NetworkGeometry(3, 1.6, zone), demand=demand)
        trace = simulate_scenario(scenario)
        assert np.signbit(trace.densities[0]).all()
        assert not np.signbit(trace.densities[1:]).any()
        assert_matches_oracle(scenario, trace)

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


class TestEventStepping:
    """A step that leaves every row's state unchanged, bit for bit, repeats
    up to the next event (control instant, flag switch, demand step or
    horizon); those steps are filled, not stepped."""

    @pytest.mark.parametrize(
        "case, budget",
        [("high_demand", 4821), ("fine_grid", 9661), ("zone_0", 4154), ("zone_batch", 4821)],
    )
    def test_fluxes_calls_within_budget(self, case, budget, monkeypatch):
        # Stepping every step takes 5,401 calls (10,801 on the fine grid).
        # The warm-up before the incident is a fixed point, one call per
        # control period; zone 0's recovered free flow is another, from step
        # 4,082 to the incident end at step 4,800.
        base = high_demand_preset()
        zones = [
            replace(base, geometry=replace(base.geometry, upstream_zone_length=zone))
            for zone in HIGH_DEMAND_ZONE_SWEEP
        ]
        scenarios = {
            "high_demand": [base],
            "fine_grid": [fine_grid_scenario()],
            "zone_0": zones[:1],
            "zone_batch": zones[1:],
        }[case]
        real = vslsim.simulate.fluxes
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(vslsim.simulate, "fluxes", counting)
        controllers = [make_controller(s) for s in scenarios]
        results = vslsim.simulate.run_batch(scenarios, controllers)
        assert not [r for r in results if isinstance(r, Exception)]
        assert len(calls) <= budget


def following_density(scenario: Scenario):
    """A reactive law that posts new limits at almost every control instant:
    each sign's speed falls with the density of the cell it heads (the zone
    sign with the first cell's), and every limit lies in (0, v_f]."""
    fd = scenario.fd
    n = scenario.geometry.num_sections

    def controller(cells, t):
        row = np.empty(n + 1)
        row[0], row[1:] = cells[0], cells[-n:]
        return fd.free_flow_speed / (1.0 + row / fd.critical_density)

    return controller


def assert_blocks_are_flows(trace) -> None:
    """``trace._flow_blocks`` in blocks of 1, 7, T - 1, T and T + 1 rows
    tile the samples and concatenate to ``trace.flows`` bit for bit. Limits
    change at multiples of a 10- or 20-step control period, so blocks of 7
    rows cut stretches and hold their starts mid-block."""
    flows, samples = trace.flows, trace.num_samples
    for rows in (1, 7, samples - 1, samples, samples + 1):
        blocks = [(block, q.copy()) for block, q in trace._flow_blocks(rows)]
        starts = list(range(0, samples, rows))
        stops = starts[1:] + [samples]
        assert [(b.start, b.stop) for b, _ in blocks] == list(zip(starts, stops)), rows
        tiled = np.concatenate([q for _, q in blocks])
        assert tiled.tobytes() == flows.tobytes(), rows


class TestFlowBlocks:
    """The blocks the derived passes consume against the whole flows."""

    @pytest.mark.filterwarnings("ignore:switch time")
    @settings(max_examples=25, deadline=None)
    @given(scenario=kernel_scenarios(), chatter=st.booleans())
    def test_random_scenarios(self, scenario, chatter):
        controller = following_density(scenario) if chatter else None
        assert_blocks_are_flows(simulate_scenario(scenario, controller))

    def test_limits_changing_at_every_control_instant(self):
        scenario = fine_grid_scenario()
        trace = simulate_scenario(scenario, following_density(scenario))
        assert trace.limit_steps.size > 500
        assert any(step % 7 for step in trace.limit_steps.tolist())
        assert_blocks_are_flows(trace)
        assert np.array_equal(replay_flows(scenario, trace), trace.flows)


class TestTraceCsv:
    @pytest.mark.parametrize("zone", [0.0, 1.2])
    @pytest.mark.parametrize("comment", [None, "scenario=mini hash=abc123"])
    def test_bytes_match_value_by_value_writer(self, fd, tmp_path, zone, comment):
        # 601 rows of 10 varying values: a full block of 409 rows and a partial one.
        scenario = mini_scenario(fd, geometry=NetworkGeometry(3, 1.6, zone))
        trace = simulate_scenario(scenario)
        trace.to_csv(tmp_path / "blocked.csv", comment=comment)
        oracle_to_csv(trace, tmp_path / "oracle.csv", comment=comment)
        blocked = (tmp_path / "blocked.csv").read_bytes()
        assert blocked == (tmp_path / "oracle.csv").read_bytes()
        assert blocked.startswith(b"# scenario=mini") == (comment is not None)

    @pytest.mark.parametrize("zone", [0.0, 1.2])
    @pytest.mark.parametrize(
        "controller, lc", [("rule_based", LcConfig()), ("rule_based_reactive", None)]
    )
    def test_stretches_that_start_mid_block(self, fd, tmp_path, zone, controller, lc):
        # 610 rows, limits posted every 7 s; the closure holds from step 123
        # to step 608, so the flags switch at steps 123 and 609. The limits
        # change first at step 126 and last at step 609, the last sample,
        # which makes a one-row stretch. The closure times are in hours as a
        # file's minutes give them.
        scenario = mini_scenario(
            fd,
            geometry=NetworkGeometry(3, 1.6, zone),
            incident=IncidentSchedule(start=122.5 / 60.0 / 60.0, end=608.5 / 60.0 / 60.0),
            controller=controller,
            lc=lc,
            horizon=609.0 / 3600.0,
            control_period=7.0,
            vsl=VslRuleConfig(switch_margin=0.0),
        )
        trace = simulate_scenario(scenario)
        assert trace.num_samples == 610
        assert trace.limit_steps[1] == 126 and trace.limit_steps[-1] == 609
        trace.to_csv(tmp_path / "blocked.csv")
        oracle_to_csv(trace, tmp_path / "oracle.csv")
        assert (tmp_path / "blocked.csv").read_bytes() == (
            tmp_path / "oracle.csv"
        ).read_bytes()

    def test_writes_without_per_sample_limits(self, tmp_path, monkeypatch):
        def no_limits(trace):
            raise AssertionError("to_csv built the (T, N + 1) limits")

        trace = simulate_scenario(high_demand_preset())
        with monkeypatch.context() as patch:
            patch.setattr(SimulationTrace, "limits", property(no_limits))
            trace.to_csv(tmp_path / "blocked.csv")
        oracle_to_csv(trace, tmp_path / "oracle.csv")
        assert (tmp_path / "blocked.csv").read_bytes() == (
            tmp_path / "oracle.csv"
        ).read_bytes()


def assert_prints_as_g10(values) -> None:
    """``_format_g10`` gives the bytes of ``'%.10g,' % v`` for each value."""
    x = np.asarray(values, dtype=float)
    printed = vslsim.simulate._format_g10(x).tobytes().translate(None, b"\0")
    assert printed == "".join("%.10g," % v for v in x.tolist()).encode()


class TestFormatG10:
    """The trace CSV's numpy formatter against Python's own ``%.10g``."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40))
    def test_any_floats(self, values):
        assert_prints_as_g10(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_raw_bit_patterns(self, bits):
        assert_prints_as_g10(np.array(bits, dtype=np.uint64).view(np.float64))

    def test_edge_values(self):
        tiny = np.finfo(float).tiny
        values = [0.0, tiny, tiny / 2**10, 5e-324, np.finfo(float).max, np.nan, np.inf]
        values += [9999999999.5, 999999999.95, 1234567890.5, 0.5, 7000.0]
        for k in range(-5, 11):
            p = float(f"1e{k}")
            values += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
        values = np.array(values)
        assert_prints_as_g10(np.concatenate((values, -values)))

    def test_many_random_values(self):
        rng = np.random.default_rng(14)
        n = 50_000
        sign = rng.choice([-1.0, 1.0], n)
        assert_prints_as_g10(sign * 10.0 ** rng.uniform(-7.0, 12.0, n))
        assert_prints_as_g10(rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64))
        # Decimal halves of the tenth digit: exact ties, and the doubles next to them.
        halves = (rng.integers(10**9, 10**10, n) + 0.5) * 10.0 ** rng.integers(-13, 1, n)
        assert_prints_as_g10(sign * halves)
        # Round numbers: trailing zeros in every pair of digits.
        assert_prints_as_g10(sign * rng.integers(1, 10**6, n) * 10.0 ** rng.integers(-9, 5, n))


class TestOutOfRangeStates:
    """Density and flow bounds are checked over the finished run; a breach
    names the first step and cell it happens at."""

    def test_oversized_flux_names_step_and_cell(self, fd, monkeypatch):
        real = vslsim.simulate.fluxes
        calls = []
        # An empty road fills from step 0 on, so no step repeats the one
        # before it and is skipped: the n-th fluxes call is step n - 1.
        monkeypatch.setattr(vslsim.simulate, "warm_state", lambda s: np.zeros(3))

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

    def test_nan_state_names_step_and_cell(self, fd, monkeypatch):
        scenario = mini_scenario(fd)
        state = np.array([70.0, np.nan, 70.0])
        monkeypatch.setattr(vslsim.simulate, "warm_state", lambda s: state)
        with pytest.raises(ValueError, match=r"step 0 \(t = 0 min\): cell 1 density nan"):
            run(scenario, lambda cells, t: np.full(4, 100.0))

    def test_infinite_state_names_step_and_cell(self, fd, monkeypatch):
        scenario = mini_scenario(fd)
        state = np.array([70.0, np.inf, 70.0])
        monkeypatch.setattr(vslsim.simulate, "warm_state", lambda s: state)
        with pytest.raises(ValueError, match=r"step 0 \(t = 0 min\): cell 1 density inf"):
            run(scenario, lambda cells, t: np.full(4, 100.0))

    def test_overfull_bottleneck_names_step_and_cell(self, fd, monkeypatch):
        scenario = mini_scenario(fd)
        state = np.array([70.0, 70.0, 600.0])
        monkeypatch.setattr(vslsim.simulate, "warm_state", lambda s: state)
        message = r"step 0 \(t = 0 min\): bottleneck cell 2 density 600 outside \[0, 552\]"
        with pytest.raises(ValueError, match=message):
            run(scenario, lambda cells, t: np.full(4, 100.0))

    def test_nan_flow_mid_run_names_step_and_cell(self, fd, monkeypatch):
        real = vslsim.simulate.fluxes
        calls = []
        # Filling from an empty road, every step is called (see above).
        monkeypatch.setattr(vslsim.simulate, "warm_state", lambda s: np.zeros(3))

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


# Swept values per variable, drawn for a base scenario: distinct at the
# ``%g`` precision of the run names; a zone sweep always holds zone length 0.
SWEEP_VALUE_DRAWS = {
    "upstream_zone_length": lambda base: st.lists(
        st.integers(3, 30), min_size=1, max_size=3, unique=True
    ).map(lambda zs: [0.0] + [z / 10.0 for z in zs]),
    "demand": lambda base: st.lists(
        st.integers(30, 110), min_size=2, max_size=4, unique=True
    ).map(lambda ps: [p / 100.0 * base.fd.capacity for p in ps]),
    "derating": lambda base: st.lists(
        st.integers(50, 100), min_size=2, max_size=4, unique=True
    ).map(lambda ps: [p / 100.0 for p in ps]),
    "lc_residual_drop": lambda base: st.lists(
        st.integers(0, 90), min_size=2, max_size=4, unique=True
    ).map(lambda ps: [p / 100.0 for p in ps]),
}


def assert_sweep_equals_serial_runs(base: Scenario, variable: str, values) -> None:
    """Every row of ``run_sweep`` equals its value run on its own: densities,
    derived flows and limits, events and metrics, or the same failure."""
    traces = {}

    def keep(scenario, trace):
        traces[scenario.name] = trace
        return evaluate_trace(scenario, trace)

    with mock.patch.object(vslsim.sweep, "evaluate_trace", keep):
        rows = run_sweep(SweepSpec(base=base, variable=variable, values=tuple(values)))
    assert [row.value for row in rows] == list(values)
    for row, value in zip(rows, values):
        try:
            scenario = apply_sweep_value(base, variable, value)
            zone_bound_report(
                scenario.bound_inputs(), scenario.geometry.upstream_zone_length
            )
            ref = simulate_scenario(scenario)
            report = evaluate_trace(scenario, ref)
        except Exception as exc:
            expected = ("failed", str(exc), type(exc).__name__)
            assert (row.status, row.error, row.error_type) == expected
            continue
        trace = traces[row.name]
        for name in ("densities", "flows", "limits"):
            assert np.array_equal(getattr(trace, name), getattr(ref, name)), name
        assert trace.events == ref.events
        assert repr(row.metrics) == repr(report)  # NaN metrics compare too


class TestBatch:
    """Sweep values stepped as one batch against their runs one by one."""

    @pytest.mark.filterwarnings("ignore:switch time")
    @settings(max_examples=20, deadline=None)
    @given(base=kernel_scenarios(horizon_min=10.0), data=st.data())
    def test_sweep_rows_equal_serial_runs(self, base, data):
        variable = data.draw(st.sampled_from(SWEEP_VARIABLES))
        values = data.draw(st.permutations(data.draw(SWEEP_VALUE_DRAWS[variable](base))))
        assert_sweep_equals_serial_runs(base, variable, values)

    @pytest.mark.parametrize(
        "variable,values",
        [
            ("demand", (5500.0, 7000.0, 7400.0)),
            ("upstream_zone_length", (2.4, 0.0, 0.8, 4.8)),
        ],
    )
    def test_reactive_rows_equal_serial_runs(self, variable, values):
        # Each row's reactive rule reads its own bottleneck density.
        base = replace(high_demand_preset(), controller="rule_based_reactive")
        assert_sweep_equals_serial_runs(base, variable, values)

    @pytest.mark.parametrize("fault", ["controller", "state"])
    def test_failing_row_fails_alone(self, fault, monkeypatch, tmp_path):
        base = high_demand_preset()
        values = (0.8, 1.6, 0.0, 4.8)
        spec = SweepSpec(base=base, variable="upstream_zone_length", values=values)
        clean = tmp_path / "clean"
        clean.mkdir()
        before = run_sweep(spec, trace_dir=clean)

        target = apply_sweep_value(base, "upstream_zone_length", 1.6)
        if fault == "controller":
            # A NaN zone limit from 30 min on.
            def faulty(scenario):
                controller = make_controller(scenario)
                if scenario.name != target.name:
                    return controller

                def nan_later(cells, t):
                    limits = controller(cells, t).copy()
                    if t >= 0.5:
                        limits[0] = np.nan
                    return limits

                return nan_later

            monkeypatch.setattr(vslsim.sweep, "make_controller", faulty)
            with pytest.raises(ControllerError) as serial:
                simulate_scenario(target, faulty(target))
        else:
            real_warm_state = vslsim.simulate.warm_state

            def nan_state(scenario):
                state = real_warm_state(scenario)
                if scenario.name == target.name:
                    state[1:] = np.nan  # every section, not the zone
                return state

            monkeypatch.setattr(vslsim.simulate, "warm_state", nan_state)
            with pytest.raises(ValueError) as serial:
                simulate_scenario(target)

        faulted = tmp_path / "faulted"
        faulted.mkdir()
        after = run_sweep(spec, trace_dir=faulted)
        failed = after[1]
        assert failed.status == "failed"
        assert failed.error_type == type(serial.value).__name__
        assert failed.error == str(serial.value)
        assert not (faulted / f"{target.name}_trace.csv").exists()
        for i in (0, 2, 3):
            assert after[i] == before[i]
            name = f"{after[i].name}_trace.csv"
            assert (faulted / name).read_bytes() == (clean / name).read_bytes()

    @pytest.mark.parametrize("n_scenarios,n_controllers", [(2, 1), (1, 2)])
    def test_one_controller_per_scenario(
        self, fd, n_scenarios, n_controllers, monkeypatch
    ):
        scenario = mini_scenario(fd)

        def no_step(*args, **kwargs):
            raise AssertionError("stepped before the counts were checked")

        monkeypatch.setattr(vslsim.simulate, "fluxes", no_step)
        message = f"got {n_controllers} controllers for {n_scenarios} scenarios"
        with pytest.raises(ValueError, match=message):
            vslsim.simulate.run_batch(
                [scenario] * n_scenarios, [make_controller(scenario)] * n_controllers
            )


def test_lean_trace_stores_less():
    scenario = fine_grid_scenario()
    trace = simulate_scenario(scenario)
    samples = trace.num_samples
    per_step = {
        (samples, scenario.geometry.num_cells + 1),
        (samples, scenario.geometry.num_sections + 1),
    }
    arrays = {k: v for k, v in vars(trace).items() if isinstance(v, np.ndarray)}
    assert not [k for k, v in arrays.items() if k != "densities" and v.shape in per_step]
    floats = np.dtype(float).itemsize
    assert sum(a.nbytes for a in arrays.values()) <= (
        trace.densities.nbytes + 4 * samples * floats
    )


def test_derived_passes_allocate_a_block_at_a_time(tmp_path, monkeypatch):
    # Peak traced memory above entry, in units of the densities' bytes. The
    # metrics pass keeps its (T, C) speed field; no pass holds the whole
    # (T, C + 1) flows or (T, N + 1) limits, which took 5.2, 1.9 and 1.9
    # units when each pass derived them whole.
    scenario = fine_grid_scenario()
    trace = simulate_scenario(scenario)
    passes = {
        "evaluate_trace": (lambda: evaluate_trace(scenario, trace), 2.0),
        "to_csv": (lambda: trace.to_csv(tmp_path / "trace.csv"), 1.0),
        "vehicle_balance": (trace.vehicle_balance, 0.75),
    }

    def whole(trace):
        raise AssertionError("a derived pass built a whole-trace array")

    monkeypatch.setattr(SimulationTrace, "flows", property(whole))
    monkeypatch.setattr(SimulationTrace, "limits", property(whole))
    peaks = {}
    for name, (derive, _) in passes.items():
        derive()  # first calls build caches
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            derive()
            peaks[name] = (tracemalloc.get_traced_memory()[1] - entry) / trace.densities.nbytes
        finally:
            tracemalloc.stop()
    assert all(peaks[name] <= bound for name, (_, bound) in passes.items()), peaks
