"""Probe-vehicle reconstruction and the four performance measures."""

from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from helpers import (
    GivenFlowsTrace,
    fine_grid_scenario,
    oracle_emission,
    oracle_probes,
    oracle_stops,
    random_triangle,
)
from hypothesis import given, settings, strategies as st

from vslsim import (
    DemandProfile,
    IncidentSchedule,
    MetricConfig,
    MetricsReport,
    NetworkGeometry,
    Scenario,
    avg_emission,
    avg_stops,
    default_emission_rate,
    emission_rate_from_table,
    evaluate_trace,
    high_demand_preset,
    reconstruct_trajectories,
    rrmse_density_pooled,
    simulate_scenario,
    speed_field,
    stop_count,
)
from vslsim.scenario import HIGH_DEMAND_ZONE_SWEEP


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
    return GivenFlowsTrace(
        geometry=geometry,
        fd=fd,
        times=times,
        densities=np.full((n, cells), float(density)),
        given_flows=np.full((n, cells + 1), float(flow)),
        limit_steps=np.array([0]),
        limit_rows=np.array(
            [[float(zone_limit)] + [fd.free_flow_speed] * geometry.num_sections]
        ),
        demand_profile=DemandProfile.constant(flow),
    )


def speed_trace(fd, speeds, section_length):
    """1 s steps on ``speeds.shape[1]`` equal cells without a zone whose probe
    speeds are ``speeds`` (one row per sample): density 20 veh/km everywhere
    and outflow 20 * speed, so a zero speed is a stalled, occupied cell."""
    n, cells = speeds.shape
    flows = np.hstack((np.full((n, 1), 1000.0), 20.0 * speeds))
    return GivenFlowsTrace(
        geometry=NetworkGeometry(cells, section_length, 0.0),
        fd=fd,
        times=np.arange(n) / 3600.0,
        densities=np.full((n, cells), 20.0),
        given_flows=flows,
        limit_steps=np.array([0]),
        limit_rows=np.full((1, cells + 1), fd.free_flow_speed),
        demand_profile=DemandProfile.constant(1000.0),
    )


def positions(probes, i):
    """km from the entrance of probe ``i`` at entry, each later sample
    instant, and exit."""
    return np.concatenate(([0.0], np.cumsum(probes.steps(i)[0])))


def two_speed_trace(fd, slow_from_k=600, n=1861, seeds=(0, 600)):
    """One 10 km cell, 1 s steps: 60 km/h before step ``slow_from_k`` and
    30 km/h after, with inflow (hence a probe) only at the ``seeds`` steps."""
    geometry = NetworkGeometry(1, 10.0, 0.0)
    times = np.arange(n) / 3600.0
    flows = np.zeros((n, 2))
    flows[list(seeds), 0] = 1200.0
    flows[:, 1] = np.where(np.arange(n) < slow_from_k, 1200.0, 600.0)
    changes = sorted({0, *seeds, *(k + 1 for k in seeds)} - {n})  # the demand pulses
    return GivenFlowsTrace(
        geometry=geometry,
        fd=fd,
        times=times,
        densities=np.full((n, 1), 20.0),
        given_flows=flows,
        limit_steps=np.array([0]),
        limit_rows=np.full((1, 2), fd.free_flow_speed),
        demand_profile=DemandProfile(tuple(times[changes]), tuple(flows[changes, 0])),
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
        probes = reconstruct_trajectories(trace, seed_interval=60.0 / 3600.0)
        assert probes
        expected = geometry.total_length / fd.free_flow_speed
        for row in probes:
            if np.isfinite(row[-1]):
                assert row[-1] - row[0] == pytest.approx(expected, rel=1e-9)
        assert probes.complete.any()

    def test_seed_interval_must_be_positive(self, fd, geometry):
        with pytest.raises(ValueError, match="seed_interval must be strictly positive"):
            reconstruct_trajectories(constant_trace(fd, geometry), 0.0)

    def test_no_seeding_without_inflow(self, fd, geometry):
        trace = constant_trace(fd, geometry, density=0.0, flow=0.0)
        assert len(reconstruct_trajectories(trace, seed_interval=1.0 / 60.0)) == 0

    def test_positions_non_decreasing(self, fd, geometry):
        trace = constant_trace(fd, geometry, density=150.0, flow=3000.0)
        probes = reconstruct_trajectories(trace, seed_interval=300.0 / 3600.0)
        assert np.all(probes.crossings[:, 1:] >= probes.crossings[:, :-1])
        for i in range(len(probes)):
            assert np.all(np.diff(positions(probes, i)) >= -1e-12)
            if probes.complete[i]:
                assert positions(probes, i)[-1] == pytest.approx(geometry.total_length)

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
        assert np.all(trajs.crossings[1:] >= trajs.crossings[:-1])
        dt = trace.dt
        for lead in range(len(trajs) - 1):
            entry = trajs.crossings[lead : lead + 2, 0]
            offset = int(round((entry[1] - entry[0]) / dt))
            trail_pos, lead_pos = positions(trajs, lead + 1), positions(trajs, lead)
            n = min(len(trail_pos), len(lead_pos) - offset)
            if n <= 0:
                continue
            assert np.all(trail_pos[:n] <= lead_pos[offset : offset + n] + 1e-9)


def trace_scenario(fd, trace, seed_interval_s):
    """A no-control scenario on the corridor and horizon of a trace with 1 s
    steps, seeding a probe every ``seed_interval_s`` seconds."""
    return Scenario(
        fd=fd,
        geometry=trace.geometry,
        demand=DemandProfile.constant(trace.demand[0]),
        controller="no_control",
        horizon=float(trace.times[-1]),
        dt=1.0,
        metrics=MetricConfig(seed_interval=seed_interval_s),
    )


class TestAtt:
    def test_mean_of_two(self, fd):
        # 10 km at 60 km/h (10 min), then 10 km at 30 km/h (20 min).
        trace = two_speed_trace(fd)
        report = evaluate_trace(trace_scenario(fd, trace, 600.0), trace)
        assert report.vehicles_counted == 2
        assert report.att_min == pytest.approx(15.0, rel=1e-6)

    def test_single_trajectory(self, fd, geometry):
        trace = constant_trace(fd, geometry, density=20.0, flow=2000.0)
        report = evaluate_trace(trace_scenario(fd, trace, 3600.0), trace)
        assert report.vehicles_counted == 1
        assert report.att_min == pytest.approx(60.0 * geometry.total_length / 100.0)

    def test_requires_a_completed_trip(self, fd, geometry):
        trace = constant_trace(fd, geometry, duration_h=0.05, density=20.0, flow=2000.0)
        report = evaluate_trace(trace_scenario(fd, trace, 3600.0), trace)
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

    def test_average_thresholds_must_be_ordered(self, fd, geometry):
        # Free flow takes the shortcut that never calls stop_count.
        probes = reconstruct_trajectories(constant_trace(fd, geometry), 60.0 / 3600.0)
        with pytest.raises(ValueError, match="v_stop must be below v_resume"):
            avg_stops(probes, 10.0, 5.0)

    def test_average_over_identical_trajectories(self, fd):
        # Speeds fixed in time vary along the road, so every probe meets the
        # same profile; steps straddling two cells average between them.
        speeds = np.tile([100.0, 3.0, 50.0, 2.0, 80.0], (900, 1))
        trace = speed_trace(fd, speeds, 0.05)
        probes = reconstruct_trajectories(trace, 60.0 / 3600.0)
        assert np.count_nonzero(probes.complete) >= 5
        assert avg_stops(probes, 5.0, 10.0) == pytest.approx(2.0)
        oracle = oracle_probes(trace, 60.0 / 3600.0)
        assert avg_stops(probes, 5.0, 10.0) == oracle_stops(oracle)

    def test_invariant_to_changes_above_resume(self):
        base = [100.0, 3.0, 50.0, 2.0, 80.0]
        wobbled = [95.0, 3.0, 70.0, 2.0, 12.0]
        assert stop_count(base, 5.0, 10.0) == stop_count(wobbled, 5.0, 10.0)


class TestEmission:
    def test_constant_speed_returns_rate_at_that_speed(self, fd, geometry):
        trace = constant_trace(fd, geometry, density=20.0, flow=1600.0)  # 80 km/h
        probes = reconstruct_trajectories(trace, 60.0 / 3600.0)
        emission = avg_emission(probes, default_emission_rate)
        assert emission == pytest.approx(default_emission_rate(80.0))

    def test_constant_rate_function(self, fd):
        probes = reconstruct_trajectories(two_speed_trace(fd), 600.0 / 3600.0)
        assert avg_emission(probes, rate_fn=lambda v: 123.0) == pytest.approx(123.0)

    def test_equal_distance_trajectories_average_rates(self, fd):
        rate = emission_rate_from_table([(30.0, 300.0), (60.0, 400.0)])
        # 10 km at 60 km/h, then 10 km at 30 km/h: equal distances.
        probes = reconstruct_trajectories(two_speed_trace(fd), 600.0 / 3600.0)
        assert avg_emission(probes, rate_fn=rate) == pytest.approx(350.0)

    def test_rate_functions_map_arrays(self):
        speeds = np.array([20.0, 50.0, 100.0])
        table = emission_rate_from_table([(30.0, 300.0), (60.0, 400.0)])
        for rate in (default_emission_rate, table):
            assert isinstance(rate(50.0), float)
            assert np.array_equal(rate(speeds), [rate(v) for v in speeds])
        with pytest.raises(ValueError):
            default_emission_rate(np.array([10.0, 0.0]))
        with pytest.raises(ValueError):
            default_emission_rate(-1.0)

    def test_stalled_cell_adds_no_grams(self, fd):
        # The middle cell stands still for 60 s: zero distance, zero grams,
        # and no rate evaluated at zero speed.
        speeds = np.full((1200, 3), 60.0)
        speeds[300:360, 1] = 0.0
        probes = reconstruct_trajectories(speed_trace(fd, speeds, 1.0), 30.0 / 3600.0)
        emission = avg_emission(probes, default_emission_rate)
        assert emission == pytest.approx(default_emission_rate(60.0))

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

    def test_target_must_be_positive(self, fd, geometry):
        trace = constant_trace(fd, geometry)
        with pytest.raises(ValueError, match="rho_star must be strictly positive"):
            rrmse_density_pooled(trace, 0.0, 0.0, 0.4)

    def test_window_outside_trace_rejected(self, fd, geometry):
        trace = constant_trace(fd, geometry, duration_h=0.1)
        with pytest.raises(ValueError):
            rrmse_density_pooled(trace, 48.0, 0.0, 0.2)
        with pytest.raises(ValueError):
            rrmse_density_pooled(trace, 48.0, 0.05, 0.01)


class TestSlowStopPath:
    """Speed fields with a cell below the stop threshold, where stops are
    counted from each probe's step-averaged speed profile."""

    @staticmethod
    def dip_trace(fd, dip):
        # Four 0.5 km cells at 60 km/h; cell 2 drops to ``dip`` for 90 s and
        # recovers, so probes inside it then stop once and drive on.
        speeds = np.full((1500, 4), 60.0)
        speeds[400:490, 2] = dip
        return speed_trace(fd, speeds, 0.5)

    def test_matches_step_walk_without_stall(self, fd):
        trace = self.dip_trace(fd, 2.0)
        probes = reconstruct_trajectories(trace, 20.0 / 3600.0)
        stops = avg_stops(probes, 5.0, 10.0)
        assert 0.0 < stops < 1.0  # only probes inside the dipped cell stop
        assert stops == oracle_stops(oracle_probes(trace, 20.0 / 3600.0))

    def test_true_stall_counts_each_held_probe_once(self, fd):
        # Outflow 0 at density 20 > floor: the cell is stalled, v = 0.
        trace = self.dip_trace(fd, 0.0)
        assert speed_field(trace).min() == 0.0
        probes = reconstruct_trajectories(trace, 20.0 / 3600.0)
        held = [
            i
            for i in np.flatnonzero(probes.complete)
            if np.any(probes.steps(i)[0] / probes.steps(i)[1] < 5.0)
        ]
        assert held
        completed = np.count_nonzero(probes.complete)
        assert avg_stops(probes, 5.0, 10.0) == pytest.approx(len(held) / completed)
        # The step walk stopped a probe's clock when it met the stalled cell
        # mid-step, so its step speed there was the approach speed; this
        # trace keeps both counts equal.
        oracle = oracle_probes(trace, 20.0 / 3600.0)
        assert avg_stops(probes, 5.0, 10.0) == oracle_stops(oracle)
        for row, ref in zip(probes, oracle):
            # An incomplete probe's exit is inf where the oracle's is None.
            ref_exit = np.inf if ref.exit_time is None else ref.exit_time
            assert row[-1] == pytest.approx(ref_exit, abs=1e-9)


def _random_scenario(seed, sections, section_length, zone, steps, controller):
    rng = np.random.default_rng(seed)
    fd = random_triangle(rng)
    flows = tuple(float(f) * fd.capacity for f in rng.uniform(0.3, 1.1, len(steps)))
    return Scenario(
        name="oracle",
        fd=fd,
        geometry=NetworkGeometry(sections, section_length, zone),
        demand=DemandProfile((0.0,) + tuple(t / 60.0 for t in steps[1:]), flows),
        incident=IncidentSchedule(start=2.0 / 60.0, end=8.0 / 60.0),
        controller=controller,
        horizon=12.0 / 60.0,
        metrics=MetricConfig(seed_interval=20.0),
    )


class TestAgainstStepWalk:
    """The crossing-time solver against the step-by-step walk it replaced."""

    @pytest.mark.filterwarnings("ignore:switch time")
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sections=st.integers(1, 4),
        section_length=st.floats(0.3, 1.5),
        zone=st.one_of(st.just(0.0), st.floats(0.3, 3.0)),
        steps=st.lists(st.integers(1, 11), max_size=2, unique=True).map(
            lambda ts: [0] + sorted(ts)
        ),
        controller=st.sampled_from(["rule_based", "rule_based_reactive"]),
    )
    def test_random_scenarios(
        self, seed, sections, section_length, zone, steps, controller
    ):
        scenario = _random_scenario(
            seed, sections, section_length, zone, steps, controller
        )
        trace = simulate_scenario(scenario)
        seed_interval = scenario.metrics.seed_interval / 3600.0
        probes = reconstruct_trajectories(trace, seed_interval)
        oracle = oracle_probes(trace, seed_interval)
        assert probes.crossings[:, 0].tolist() == [p.entry_time for p in oracle]
        assert probes.complete.tolist() == [p.complete for p in oracle]
        for row, ref in zip(probes, oracle):
            if ref.complete:
                assert abs((row[-1] - row[0]) - ref.transit_time) <= 1e-9
        crossings = probes.crossings
        assert np.all(crossings[1:] >= crossings[:-1])  # first in, first out

    @pytest.mark.parametrize(
        "zone", [*HIGH_DEMAND_ZONE_SWEEP, "fine_grid_reactive"], ids=str
    )
    def test_bundled_scenarios(self, zone):
        base = high_demand_preset()
        if zone == "fine_grid_reactive":
            scenario = fine_grid_scenario()
        else:
            geometry = replace(base.geometry, upstream_zone_length=zone)
            scenario = replace(base, geometry=geometry)
        trace = simulate_scenario(scenario)
        report = evaluate_trace(scenario, trace)
        oracle = oracle_probes(trace, scenario.metrics.seed_interval / 3600.0)
        done = [p for p in oracle if p.complete]
        assert report.vehicles_counted == len(done)
        att = 60.0 * np.mean([p.transit_time for p in done])
        assert report.att_min == pytest.approx(att, rel=1e-9)
        emission = oracle_emission(oracle)
        assert report.avg_emission_g_per_km == pytest.approx(emission, rel=1e-4)
        assert report.avg_stops == oracle_stops(oracle)


# One change per MetricConfig field, each moving the high-demand report away
# from the base settings below (stop and resume at 30 / 60 km/h, so that the
# slow probes held in the 20 km/h zone count a stop).
METRIC_CHANGES = {
    "stop_speed": 50.0,  # more probes fall below the stop threshold
    "resume_speed": 150.0,  # above free flow: the counter never arms
    "seed_interval": 60.0,  # s: one probe a minute
    "density_floor": 100.0,  # veh/km: dense cells move at the posted limit
    "emission_table": ((20.0, 400.0), (100.0, 300.0)),
}


@pytest.fixture(scope="module")
def high_demand_run():
    scenario = replace(
        high_demand_preset(), metrics=MetricConfig(stop_speed=30.0, resume_speed=60.0)
    )
    return scenario, simulate_scenario(scenario)


def component_report(scenario, trace):
    """The report assembled from the component functions by hand."""
    config = scenario.metrics
    probes = reconstruct_trajectories(
        trace, config.seed_interval / 3600.0, config.density_floor
    )
    done = probes.crossings[probes.complete]
    return MetricsReport(
        att_min=60.0 * float(np.mean(done[:, -1] - done[:, 0])),
        avg_stops=avg_stops(probes, config.stop_speed, config.resume_speed),
        avg_emission_g_per_km=avg_emission(probes, config.rate_fn()),
        rrmse=rrmse_density_pooled(trace, scenario.rho_star(), *scenario.metrics_window()),
        vehicles_counted=len(done),
    )


class TestEvaluateTrace:
    def test_changes_cover_every_setting(self):
        assert set(METRIC_CHANGES) == {f.name for f in fields(MetricConfig)}

    @pytest.mark.parametrize("name", METRIC_CHANGES)
    def test_honours_each_metric_setting(self, high_demand_run, name):
        base, trace = high_demand_run
        metrics = replace(base.metrics, **{name: METRIC_CHANGES[name]})
        scenario = replace(base, metrics=metrics)
        report = evaluate_trace(scenario, trace)
        expected = component_report(scenario, trace)
        assert asdict(report) == pytest.approx(asdict(expected), rel=1e-12)
        assert report != evaluate_trace(base, trace)
