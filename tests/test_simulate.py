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
    run_sweep,
    save_scenario,
    simulate_scenario,
    trace_events,
    warm_state,
    zone_bound_report,
)
from vslsim.cli import cli_dispatch
from vslsim.ctm import (
    bottleneck_operands,
    flow_row,
    flux_law,
    law_constants,
    speed_caps,
    update_law,
)
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
    return update_law(flow_row(q, rho), (1.0 / 3600.0) / geometry.cell_lengths())


class TestStep:
    def test_single_cell_hand_arithmetic(self, fd):
        # rho' = 10 + (1/3600/1.6) * (3744 - 1000)
        geometry = NetworkGeometry(1, 1.6, 0.0)
        q = np.array([3744.0, 1000.0])
        out = update_law(flow_row(q, np.array([10.0])), (1.0 / 3600.0) / geometry.cell_lengths())
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
        scenario = mini_scenario(fd)
        assert trace_events(scenario, a) == trace_events(scenario, b)

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
                simulate_scenario(scenario, bad)
            assert calls == [0.0]

        def too_fast_later(cells, t):
            return np.full(4, 150.0 if t > 5.0 / 60.0 else 90.0)

        with pytest.raises(ControllerError, match=r"at most free flow \(100 km/h\)"):
            simulate_scenario(scenario, too_fast_later)

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
            simulate_scenario(scenario, nan_limits)
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
            simulate_scenario(scenario, infinite_limits)
        assert calls == [0.0]

    def test_controller_cannot_write_the_densities(self, fd):
        scenario = mini_scenario(fd)
        free = np.full(4, 100.0)

        def vandal(cells, t):
            assert cells.shape == (3,)
            with pytest.raises(ValueError, match="read-only"):
                cells[:] = 0.0
            return free

        clean = simulate_scenario(scenario, lambda cells, t: free)
        vandalised = simulate_scenario(scenario, vandal)
        assert np.array_equal(vandalised.densities, clean.densities)

    def test_run_copies_the_limits_it_keeps(self, fd):
        shared = np.full(4, 100.0)

        def reusing(cells, t):
            # One array, rewritten in place at every call.
            shared[0] = 50.0 if t < 5.0 / 60.0 else 100.0
            return shared

        trace = simulate_scenario(mini_scenario(fd), reusing)
        assert trace.limits[0, 0] == 50.0 and trace.limits[-1, 0] == 100.0

    def test_cfl_checked_before_running(self, fd):
        # The scenario checks the CFL bound when it is built, so no run starts.
        with pytest.raises(ScenarioValidationError) as err:
            mini_scenario(fd, dt=120.0)
        assert any(v.startswith("dt:") and "CFL" in v for v in err.value.violations)

    def test_events_logged(self, fd):
        scenario = mini_scenario(fd)
        trace = simulate_scenario(scenario)
        labels = [label for _, label in trace_events(scenario, trace)]
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
        with pytest.raises(ValueError, match="equal length"):
            DemandProfile(times=(0.0, 1.0), flows=(1.0,))

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
    """``flux_law`` applied to the whole (T, C) density history at once."""
    fd, n = trace.fd, trace.geometry.num_cells
    closure_drop = fd.capacity_drop_factor if scenario.lc is None else scenario.lc.residual_drop
    bottleneck = bottleneck_operands(fd, trace.incident_active, closure_drop)
    caps = speed_caps(trace.limits, n, fd)
    row = flow_row(np.empty((trace.num_samples, n + 1)), trace.densities)
    return flux_law(row, trace.limits[:, -n:], caps, trace.demand, bottleneck, law_constants(fd))


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
    assert trace_events(scenario, trace) == ref.events


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


def benchmark_batch(case: str) -> list[Scenario]:
    """The scenarios of one benchmark run: the high_demand preset, the tests'
    fine grid, the zone sweep's zone 0, its eleven other zones, or all twelve
    (each set one batch)."""
    base = high_demand_preset()
    zones = [
        replace(base, geometry=replace(base.geometry, upstream_zone_length=zone))
        for zone in HIGH_DEMAND_ZONE_SWEEP
    ]
    return {
        "high_demand": [base],
        "fine_grid": [fine_grid_scenario()],
        "zone_0": zones[:1],
        "zone_batch": zones[1:],
        "zone_sweep": zones,
    }[case]


class TestEventStepping:
    """A step that leaves every row's state unchanged, bit for bit, repeats
    up to the next event (control instant, flag switch, demand step or
    horizon); those steps are filled, not stepped."""

    @pytest.mark.parametrize(
        "case, budget",
        [
            ("high_demand", 4821),
            ("fine_grid", 9661),
            ("zone_0", 4154),
            ("zone_batch", 4821),
            ("zone_sweep", 4821),
        ],
    )
    def test_fluxes_calls_within_budget(self, case, budget, monkeypatch):
        # Stepping every step takes 5,401 calls (10,801 on the fine grid).
        # The warm-up before the incident is a fixed point, one call per
        # control period; zone 0's recovered free flow is another, from step
        # 4,082 to the incident end at step 4,800. The whole sweep in one
        # batch steps as its eleven zones do, zone 0 behind a pass-through cell.
        scenarios = benchmark_batch(case)
        real = vslsim.simulate.flux_law
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        # The step loop calls the law through this name at every step, so a
        # loop that bypasses it counts 0 calls and fails.
        monkeypatch.setattr(vslsim.simulate, "flux_law", counting)
        controllers = [make_controller(s) for s in scenarios]
        results = vslsim.simulate.run_batch(scenarios, controllers)
        assert not [r for r in results if isinstance(r, Exception)]
        assert 0 < len(calls) <= budget

    @staticmethod
    def count_operand_builds(monkeypatch) -> dict[str, list]:
        """Calls of ``law_constants`` and ``bottleneck_operands`` through their
        names in ``vslsim.simulate``, recorded from now on."""
        built = {"law_constants": [], "bottleneck_operands": []}
        for name, calls in built.items():
            real = getattr(vslsim.simulate, name)

            def counting(*args, real=real, calls=calls):
                calls.append(None)
                return real(*args)

            monkeypatch.setattr(vslsim.simulate, name, counting)
        return built

    @pytest.mark.parametrize("case", ["high_demand", "zone_batch"])
    def test_law_operands_prepared_not_rebuilt(self, case, monkeypatch):
        # The diagram's constants are built once per run, and the bottleneck
        # operands once per input step, whatever the number of steps.
        scenarios = benchmark_batch(case)
        built = self.count_operand_builds(monkeypatch)
        controllers = [make_controller(s) for s in scenarios]
        results = vslsim.simulate.run_batch(scenarios, controllers)
        times = results[0].times
        n_steps = len(times) - 1
        named = [t for s in scenarios for t in (*s.demand.times, s.incident.start, s.incident.end)]
        input_steps = {0, *np.minimum(np.searchsorted(times, named), n_steps).tolist()}
        assert n_steps == 5400 and len(input_steps) == 3
        assert len(built["law_constants"]) == 1
        assert len(built["bottleneck_operands"]) == len(input_steps)

    def test_derived_pass_prepares_operands_once(self, monkeypatch):
        # A derived pass (trace CSV, metrics, balance) builds the constants
        # and the bottleneck operands once, whatever its blocks and stretches.
        trace = simulate_scenario(high_demand_preset())
        built = self.count_operand_builds(monkeypatch)
        blocks = list(trace._flow_blocks(7))
        assert len(blocks) == -(-trace.num_samples // 7)
        assert len(trace.limit_steps) > 1  # several stretches under posted rows
        assert len(built["law_constants"]) == 1
        assert len(built["bottleneck_operands"]) == 1


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


@pytest.mark.parametrize("preset", [high_demand_preset, fine_grid_scenario])
def test_csv_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, preset):
    # One row per block, blocks that end mid-row and mid-stretch, and one
    # block for the whole trace all write the default's bytes.
    trace = simulate_scenario(preset())
    trace.to_csv(tmp_path / "default.csv")
    expected = (tmp_path / "default.csv").read_bytes()
    for values in (1, 37, 4097, 10**7):
        monkeypatch.setattr(vslsim.simulate, "CSV_BLOCK_VALUES", values)
        trace.to_csv(tmp_path / "blocked.csv")
        assert (tmp_path / "blocked.csv").read_bytes() == expected, values


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
        # The smallest normal and the largest subnormal bound the exponent
        # tables' first binade; -max is among the negatives below.
        tiny = np.finfo(float).tiny
        values = [0.0, tiny, float.fromhex("0x0.fffffffffffffp-1022"), tiny / 2**10, 5e-324]
        values += [np.finfo(float).max, np.nan, np.inf]
        values += [9999999999.5, 999999999.95, 1234567890.5, 0.5, 7000.0]
        for k in range(-5, 11):
            p = float(f"1e{k}")
            values += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
        values = np.array(values)
        assert_prints_as_g10(np.concatenate((values, -values)))

    def test_band_tables_match_searchsorted(self):
        # At every biased exponent E: the binade's low end and last double, and
        # each power of ten with its two neighbours. The band of the low end,
        # plus one at or above the binade's edge, is the count of the literals
        # 1e-4 .. 1e9 at or below the value. (E = 2047 holds inf and NaN.)
        low_bands, edges = vslsim.simulate._g10_tables()[:2]
        assert low_bands.shape == edges.shape == (2048,)
        bands = np.array([float(f"1e{k}") for k in range(-4, 10)])
        exponents = np.arange(2048, dtype=np.int64)
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        values = np.concatenate(
            (
                (exponents << 52).view(np.float64),
                ((exponents << 52) | (2**52 - 1)).view(np.float64),
                powers,
                np.nextafter(powers, 0.0),
                np.nextafter(powers, np.inf),
            )
        )
        e = values.view(np.int64) >> 52
        band = low_bands[e] + (values >= edges[e])
        assert np.array_equal(band, np.searchsorted(bands, values, side="right"))

    def test_provable_values_skip_the_fallback(self):
        # Every value at decimal exponent -4 .. 9 whose exact ten-digit
        # product P lies within 1/2 - 2**-15 of its rounding D < 1e10 is
        # proved (the float product is within 2**-20 of P), not sent to
        # ``%``. The fallback prints the same bytes, so only its count shows
        # a band or bound that proves too little. The powers of ten 1e-4 ..
        # 1e9 sit on the band edges; high_demand's trace values are what the
        # CSV prints (its few near-ties are left out).
        class CountingArray(np.ndarray):
            fallback: list[int] = []

            def tolist(self):
                self.fallback.append(self.size)
                return super().tolist()

        def provable(v: float) -> bool:
            n, d = abs(v).as_integer_ratio()  # |v| = n / d, exactly
            e = len(str(n * 10**20 // d)) - 21  # 10**e <= |v| < 10**(e + 1)
            if not -4 <= e <= 9:
                return False
            scaled = n * 10 ** (9 - e)  # P * d
            digits = (2 * scaled + d) // (2 * d)
            return digits < 10**10 and abs(scaled - digits * d) * 2**16 < d * (2**15 - 2)

        trace = simulate_scenario(high_demand_preset())
        powers = [float(f"1e{k}") for k in range(-4, 10)]
        values = np.concatenate((powers, trace.times, trace.densities.ravel(), trace.flows.ravel()))
        values = np.array([v for v in np.unique(values).tolist() if provable(v)])
        assert set(powers) <= set(values.tolist())
        values = np.concatenate((values, -values))
        text = vslsim.simulate._format_g10(values.view(CountingArray))
        assert CountingArray.fallback == []
        printed = text.tobytes().translate(None, b"\0")
        assert printed == "".join("%.10g," % v for v in values.tolist()).encode()

    def test_no_floating_point_warning(self):
        # Under errstate(all="raise") a warning fails the test: the edge
        # values and raw bit patterns, signaling NaNs among them.
        rng = np.random.default_rng(20)
        signaling = np.array([0x7FF0000000000001, 0xFFF4000000000000], dtype=np.uint64)
        with np.errstate(all="raise"):
            self.test_edge_values()
            assert_prints_as_g10(signaling.view(np.float64))
            assert_prints_as_g10(rng.integers(0, 2**64, 10**5, dtype=np.uint64).view(np.float64))

    def test_all_zero_digit_groups(self):
        # The ten digits split 2 + 4 + 4: zero groups, all-nine groups and a
        # lone last digit, at every exponent printed in fixed notation.
        digits = ["1000000000", "1000010000", "1234000000", "1200000001", "9999999999"]
        values = [
            float(f"{sign}{d[0]}.{d[1:]}e{e}")
            for d in digits
            for e in range(-4, 10)
            for sign in "+-"
        ]
        assert ["%.10g" % abs(v) for v in values[:2]] == ["0.0001", "0.0001"]
        assert_prints_as_g10(values)

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
        real = vslsim.simulate.flux_law
        calls = []
        # An empty road fills from step 0 on, so no step repeats the one
        # before it and is skipped: the n-th flux_law call is step n - 1.
        monkeypatch.setattr(vslsim.simulate, "warm_state", lambda s: np.zeros(3))

        def leaky(*args, **kwargs):
            q = real(*args, **kwargs)
            calls.append(None)
            if len(calls) == 51:  # step 50: drain the last cell far too fast
                q[-1] = 1e6
            return q

        monkeypatch.setattr(vslsim.simulate, "flux_law", leaky)
        message = r"step 51 \(t = 0\.85 min\): cell 2 density -"
        with pytest.raises(ValueError, match=message):
            simulate_scenario(mini_scenario(fd))

    def test_nan_state_names_step_and_cell(self, fd, monkeypatch):
        scenario = mini_scenario(fd)
        state = np.array([70.0, np.nan, 70.0])
        monkeypatch.setattr(vslsim.simulate, "warm_state", lambda s: state)
        with pytest.raises(ValueError, match=r"step 0 \(t = 0 min\): cell 1 density nan"):
            simulate_scenario(scenario, lambda cells, t: np.full(4, 100.0))

    def test_infinite_state_names_step_and_cell(self, fd, monkeypatch):
        scenario = mini_scenario(fd)
        state = np.array([70.0, np.inf, 70.0])
        monkeypatch.setattr(vslsim.simulate, "warm_state", lambda s: state)
        with pytest.raises(ValueError, match=r"step 0 \(t = 0 min\): cell 1 density inf"):
            simulate_scenario(scenario, lambda cells, t: np.full(4, 100.0))

    def test_overfull_bottleneck_names_step_and_cell(self, fd, monkeypatch):
        scenario = mini_scenario(fd)
        state = np.array([70.0, 70.0, 600.0])
        monkeypatch.setattr(vslsim.simulate, "warm_state", lambda s: state)
        message = r"step 0 \(t = 0 min\): bottleneck cell 2 density 600 outside \[0, 552\]"
        with pytest.raises(ValueError, match=message):
            simulate_scenario(scenario, lambda cells, t: np.full(4, 100.0))

    def test_state_leaving_range_at_the_horizon_fails_before_its_controller(
        self, fd, monkeypatch
    ):
        # The last update writes a NaN into the horizon's state. The horizon
        # is a control instant: its densities are checked before the
        # controller reads them, so the run fails with the range error, not
        # with the controller's.
        real = vslsim.simulate.update_law
        calls = []
        # Filling from an empty road, every step is called (see above).
        monkeypatch.setattr(vslsim.simulate, "warm_state", lambda s: np.zeros(3))

        def leaking(*args):
            out = real(*args)
            calls.append(None)
            if len(calls) == 600:  # step 599 writes the horizon's state
                out[1] = np.nan
            return out

        def controller(cells, t):
            if np.isnan(cells).any():
                raise RuntimeError("the controller read a NaN density")
            return np.full(4, 100.0)

        monkeypatch.setattr(vslsim.simulate, "update_law", leaking)
        message = r"step 600 \(t = 10 min\): cell 1 density nan is negative or not finite"
        with pytest.raises(ValueError, match=message):
            simulate_scenario(mini_scenario(fd), controller)
        assert len(calls) == 600

    def test_nan_flow_mid_run_names_step_and_cell(self, fd, monkeypatch):
        real = vslsim.simulate.flux_law
        calls = []
        # Filling from an empty road, every step is called (see above).
        monkeypatch.setattr(vslsim.simulate, "warm_state", lambda s: np.zeros(3))

        def broken(*args, **kwargs):
            q = real(*args, **kwargs)
            calls.append(None)
            if len(calls) == 121:  # step 120, between control instants
                q[1] = np.nan
            return q

        monkeypatch.setattr(vslsim.simulate, "flux_law", broken)
        message = r"step 120 \(t = 2 min\): flow nan into cell 1"
        with pytest.raises(ValueError, match=message):
            simulate_scenario(mini_scenario(fd))

    def test_nan_flow_at_the_horizon_names_step_and_cell(self, fd, monkeypatch):
        # The horizon's flow row is computed after its event's check; the
        # end checks it alone.
        real = vslsim.simulate.flux_law
        calls = []
        monkeypatch.setattr(vslsim.simulate, "warm_state", lambda s: np.zeros(3))

        def broken(*args, **kwargs):
            q = real(*args, **kwargs)
            calls.append(None)
            if len(calls) == 601:  # step 600, the horizon
                q[1] = np.nan
            return q

        monkeypatch.setattr(vslsim.simulate, "flux_law", broken)
        message = r"step 600 \(t = 10 min\): flow nan into cell 1"
        with pytest.raises(ValueError, match=message):
            simulate_scenario(mini_scenario(fd))
        assert len(calls) == 601


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
        assert trace_events(scenario, trace) == trace_events(scenario, ref)
        assert repr(row.metrics) == repr(report)  # NaN metrics compare too


@st.composite
def batch_rows(draw, base: Scenario) -> list[Scenario]:
    """Two to five rows of ``base``'s batch key, each with its own zone (0 or
    0.3 to 3 km), demand flows on the base's demand times, controller, and
    advisories on or off."""
    size, fd = len(base.demand.times), base.fd
    shares = st.lists(st.floats(0.3, 1.1), min_size=size, max_size=size)
    controllers = st.sampled_from(["no_control", "rule_based", "rule_based_reactive"])
    residuals = st.floats(0.0, fd.capacity_drop_factor)
    advisories = st.none() | residuals.map(lambda r: LcConfig(800.0, residual_drop=r))
    rows = []
    for i in range(draw(st.integers(2, 5))):
        zone = draw(st.one_of(st.just(0.0), st.floats(0.3, 3.0)))
        flows = tuple(f * fd.capacity for f in draw(shares))
        rows.append(
            replace(
                base,
                name=f"row_{i}",
                geometry=replace(base.geometry, upstream_zone_length=zone),
                demand=DemandProfile(base.demand.times, flows),
                controller=draw(controllers),
                lc=draw(advisories),
            )
        )
    return rows


TRACE_ARRAYS = (
    "times",
    "densities",
    "demand",
    "incident_active",
    "lc_active",
    "limit_steps",
    "limit_rows",
    "flows",
)


def assert_batch_rows_run_solo(scenarios: list[Scenario]) -> None:
    """``run_batch`` gives every row the bytes of its solo run, or its failure."""
    results = vslsim.simulate.run_batch(scenarios, [make_controller(s) for s in scenarios])
    for scenario, got in zip(scenarios, results):
        try:
            want = simulate_scenario(scenario)
        except Exception as exc:
            assert (type(got), str(got)) == (type(exc), str(exc))
            continue
        assert not isinstance(got, Exception), got
        for name in TRACE_ARRAYS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (scenario.name, name)


class TestBatch:
    """Sweep values stepped as one batch against their runs one by one."""

    @pytest.mark.filterwarnings("ignore:switch time")
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), base=kernel_scenarios(horizon_min=10.0))
    def test_random_batch_rows_equal_solo_runs(self, base, data):
        assert_batch_rows_run_solo(data.draw(batch_rows(base)))

    @pytest.mark.slow
    @pytest.mark.filterwarnings("ignore:switch time")
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), base=kernel_scenarios())
    def test_many_random_batch_rows_equal_solo_runs(self, base, data):
        assert_batch_rows_run_solo(data.draw(batch_rows(base)))

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
            ("lc_residual_drop", (0.0, 0.05)),
        ],
    )
    def test_reactive_rows_equal_serial_runs(self, variable, values):
        # Each row's reactive rule reads its own bottleneck density.
        base = replace(high_demand_preset(), controller="rule_based_reactive")
        assert_sweep_equals_serial_runs(base, variable, values)

    def test_signed_zero_demand_rows_match_their_runs(self, monkeypatch, tmp_path):
        # The zone sweep's demand steps 7000 -> -0.0 -> 0.0 -> 6500 veh/h, and
        # its four rows step as one batch, zone 0 behind a pass-through cell.
        # At every batch step zone 0's flows are its own law's on its own
        # cells, bit for bit: from a warm road, an entrance flow of 0.0 where
        # its run sends -0.0 would reach no trace byte.
        times = (0.0, 20.0 / 60.0, 35.0 / 60.0, 50.0 / 60.0)
        demand = DemandProfile(times, (7000.0, -0.0, 0.0, 6500.0))
        base = replace(high_demand_preset(), demand=demand)
        values = (0.0, 0.8, 2.0, 4.8)
        real_run_batch, real_flux_law = vslsim.sweep.run_batch, vslsim.simulate.flux_law
        batches, entering = [], []

        def recording_run_batch(scenarios, controllers):
            batches.append([s.name for s in scenarios])
            return real_run_batch(scenarios, controllers)

        def own_law(row, v_cells, cap, demand, bottleneck, constants):
            q = real_flux_law(row, v_cells, cap, demand, bottleneck, constants)
            if np.ndim(v_cells) == 2:  # a batch step; zone 0 is row 0
                rho, own = row[0][0, 1:].copy(), np.empty(row[1].shape[1] - 1)
                tail = tuple(x.item(0) for x in bottleneck)
                own_cells = (v_cells[0, 1:].copy(), cap[0, 1:].copy(), demand.item(0))
                real_flux_law(flow_row(own, rho), *own_cells, tail, constants)
                assert q[0, 1:].tobytes() == own.tobytes()
                entering.append(own[0])
            return q

        monkeypatch.setattr(vslsim.sweep, "run_batch", recording_run_batch)
        monkeypatch.setattr(vslsim.simulate, "flux_law", own_law)
        spec = SweepSpec(base=base, variable="upstream_zone_length", values=values)
        rows = run_sweep(spec, trace_dir=tmp_path)
        monkeypatch.undo()
        assert [row.status for row in rows] == ["ok"] * len(values)
        assert batches == [[row.name for row in rows]]
        zeros = np.array(entering)[np.equal(entering, 0.0)]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()  # -0.0 and 0.0

        path = tmp_path / "scenario.json"
        for value in values:
            scenario = apply_sweep_value(base, "upstream_zone_length", value)
            save_scenario(scenario, path)
            assert cli_dispatch(["run", str(path), "--out", str(tmp_path / "run")]) == 0
            name = f"{scenario.name}_trace.csv"
            assert (tmp_path / name).read_bytes() == (tmp_path / "run" / name).read_bytes()

    def test_controllers_see_their_own_cells(self):
        # Zone 0 steps behind a pass-through cell; its controller gets its
        # own N cells at each control instant, as the 0.8 km row gets N + 1.
        base = high_demand_preset()
        zones = [apply_sweep_value(base, "upstream_zone_length", z) for z in (0.0, 0.8)]
        seen = [[] for _ in zones]

        def recording(controller, calls):
            def call(cells, t):
                calls.append(cells.copy())
                return controller(cells, t)

            return call

        controllers = [recording(make_controller(s), calls) for s, calls in zip(zones, seen)]
        results = vslsim.simulate.run_batch(zones, controllers)
        every = int(round(base.control_period_hours / base.dt_hours))
        for trace, calls in zip(results, seen):
            assert np.array(calls).tobytes() == trace.densities[::every].tobytes()

    @pytest.mark.parametrize("zone", [1.6, 0.0])
    @pytest.mark.parametrize("fault", ["controller", "state"])
    def test_failing_row_fails_alone(self, fault, zone, monkeypatch, tmp_path):
        # Zone 0 steps behind a pass-through cell in the same batch; its
        # errors name its own cells, as its own run's do.
        base = high_demand_preset()
        values = (0.8, 1.6, 0.0, 4.8)
        spec = SweepSpec(base=base, variable="upstream_zone_length", values=values)
        clean = tmp_path / "clean"
        clean.mkdir()
        before = run_sweep(spec, trace_dir=clean)

        target = apply_sweep_value(base, "upstream_zone_length", zone)
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
                    state[-base.geometry.num_sections :] = np.nan  # every section
                return state

            monkeypatch.setattr(vslsim.simulate, "warm_state", nan_state)
            with pytest.raises(ValueError) as serial:
                simulate_scenario(target)

        faulted = tmp_path / "faulted"
        faulted.mkdir()
        after = run_sweep(spec, trace_dir=faulted)
        failed = after[values.index(zone)]
        assert failed.status == "failed"
        assert failed.error_type == type(serial.value).__name__
        assert failed.error == str(serial.value)
        assert not (faulted / f"{target.name}_trace.csv").exists()
        for i in set(range(len(values))) - {values.index(zone)}:
            assert after[i] == before[i]
            name = f"{after[i].name}_trace.csv"
            assert (faulted / name).read_bytes() == (clean / name).read_bytes()

    @pytest.mark.parametrize(
        "period, incident_start",
        [(30.0, 10.0), (600.0, 10.0), (600.0, 7.5)],
        ids=["30.0", "600.0", "600.0-incident-at-7.5-min"],
    )
    def test_row_leaving_range_mid_period_fails_alone(self, period, incident_start, tmp_path):
        # Three demands, one block of span steps between checks: the control
        # period at 30 s, and at 600 s one derived-pass block (170 steps of
        # 3 x 8 flows), so checks fall between the control instants. Every
        # event checks: an incident starting at 7.5 min adds a check at its
        # input step 450, between the control instants 0 and 600.
        preset = high_demand_preset()
        incident = replace(preset.incident, start=incident_start / 60.0)
        base = replace(preset, control_period=period, incident=incident)
        scenarios = [apply_sweep_value(base, "demand", d) for d in (6500.0, 7000.0, 7400.0)]
        ctrl_every = int(period)  # 1 s steps
        span = min(ctrl_every, vslsim.simulate.CSV_BLOCK_VALUES // (3 * 8))
        assert (span < ctrl_every) == (period == 600.0)
        clean = [simulate_scenario(s) for s in scenarios]
        n_steps = clean[1].num_samples - 1
        named = [t for s in scenarios for t in (*s.demand.times, s.incident.start, s.incident.end)]
        input_steps = np.minimum(np.searchsorted(clean[1].times, named), n_steps).tolist()
        checks = sorted(
            {*range(0, n_steps + 1, span), *range(0, n_steps + 1, ctrl_every), *input_steps, n_steps}
        )
        assert (450 in checks and 450 % ctrl_every != 0) == (incident_start == 7.5)

        # Poison the 7,000 veh/h row from the first step its bottleneck
        # density sets a record at, when that step is not a check and (on
        # the long period) the check that finds it is not a control instant.
        rho_n = clean[1].densities[:, -1]
        record = np.maximum.accumulate(rho_n)
        first = next(
            k
            for k in range(1, n_steps)
            if rho_n[k] > record[k - 1]
            and k not in checks
            and (span == ctrl_every or min(c for c in checks if c > k) % ctrl_every)
        )
        real = vslsim.simulate.flux_law

        def poisoned(row, v_cells, cap, demand, bottleneck, constants):
            rho, q = row[:2]
            real(row, v_cells, cap, demand, bottleneck, constants)
            q[np.equal(demand, 7000.0) & (rho[..., -1] > record[first - 1])] = np.nan
            return q

        with mock.patch.object(vslsim.simulate, "flux_law", poisoned):
            with pytest.raises(ValueError) as solo:
                simulate_scenario(scenarios[1])
            controllers = [make_controller(s) for s in scenarios]
            results = vslsim.simulate.run_batch(scenarios, controllers)
        assert str(solo.value).startswith(f"step {first} ")
        assert type(results[1]) is type(solo.value)
        assert str(results[1]) == str(solo.value)
        for b in (0, 2):
            assert results[b].densities.tobytes() == clean[b].densities.tobytes()
            results[b].to_csv(tmp_path / "batch.csv")
            clean[b].to_csv(tmp_path / "solo.csv")
            assert (tmp_path / "batch.csv").read_bytes() == (tmp_path / "solo.csv").read_bytes()

    def test_one_batch_key(self, fd):
        scenarios = [mini_scenario(fd), mini_scenario(fd, dt=2.0)]
        with pytest.raises(ValueError, match="one batch_key"):
            vslsim.simulate.run_batch(scenarios, [make_controller(s) for s in scenarios])

    @pytest.mark.parametrize("n_scenarios,n_controllers", [(2, 1), (1, 2)])
    def test_one_controller_per_scenario(
        self, fd, n_scenarios, n_controllers, monkeypatch
    ):
        scenario = mini_scenario(fd)

        def no_step(*args, **kwargs):
            raise AssertionError("stepped before the counts were checked")

        monkeypatch.setattr(vslsim.simulate, "flux_law", no_step)
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


def test_control_period_past_the_horizon_allocates_for_the_run():
    # A period of 1e6 s on the 90-min run is valid: one control call at
    # step 0. The state and flow blocks, and the views of their rows, are
    # bounded by one derived-pass block (512 steps for this one-row run),
    # not by the period: 1e6 flow rows took 213 units of the densities.
    base = replace(high_demand_preset(), controller="no_control", incident=None)
    at_horizon = simulate_scenario(replace(base, control_period=5400.0))
    tracemalloc.start()
    try:
        trace = simulate_scenario(replace(base, control_period=1e6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.densities.tobytes() == at_horizon.densities.tobytes()
    assert peak <= 3.0 * trace.densities.nbytes


@pytest.mark.parametrize("rows", [1, 11])
def test_batch_traces_hold_contiguous_densities(rows):
    # The batch steps on a cells-major block; each trace's densities are
    # still a C-contiguous (T, C) row of the (B, T, C) history.
    base = high_demand_preset()
    zones = [
        replace(base, geometry=replace(base.geometry, upstream_zone_length=zone))
        for zone in HIGH_DEMAND_ZONE_SWEEP[1 : rows + 1]
    ]
    results = vslsim.simulate.run_batch(zones, [make_controller(s) for s in zones])
    assert len(results) == rows
    for trace in results:
        assert trace.densities.shape == (trace.num_samples, base.geometry.num_cells)
        assert trace.densities.flags.c_contiguous


def test_batch_with_a_period_past_the_horizon_holds_no_period_sized_block():
    # An 11-row zone batch, one control call at step 0. Traced peak in units
    # of the batch's densities: 1.23 with a state and flow block of one
    # derived-pass block (46 steps); a state block of the run adds 1.0 and a
    # flow block of the run 1.14 (the flow block alone read 2.45).
    base = replace(high_demand_preset(), control_period=1e6)
    zones = [
        replace(base, geometry=replace(base.geometry, upstream_zone_length=zone))
        for zone in HIGH_DEMAND_ZONE_SWEEP[1:]
    ]
    controllers = [make_controller(s) for s in zones]
    tracemalloc.start()
    try:
        results = vslsim.simulate.run_batch(zones, controllers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.35 * sum(trace.densities.nbytes for trace in results)


def test_batch_holds_no_input_copies():
    # The 12 high-demand zone lengths as one batch: the traces keep their
    # history, the shared times and references to their scenarios' schedules.
    # Per-sample demand, closure and advisory rows would add 10 bytes per row
    # and sample, 18% of the history, both held and at the peak. The run's
    # own working set above the history and times (its state and flow
    # blocks, 43 KiB, their row views, 29 KiB, the events and the limit
    # changes) peaked at 106 KiB.
    base = high_demand_preset()
    zones = [apply_sweep_value(base, "upstream_zone_length", z) for z in HIGH_DEMAND_ZONE_SWEEP]
    controllers = [make_controller(s) for s in zones]
    tracemalloc.start()
    try:
        traces = vslsim.simulate.run_batch(zones, controllers)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    history = traces[0].densities.base.nbytes
    assert all(trace.densities.base is traces[0].densities.base for trace in traces)
    assert held <= history + traces[0].times.nbytes + 64 * 1024
    assert peak <= history + traces[0].times.nbytes + 128 * 1024
