"""Rule-based speed command law, schedule, derating, lane change advisories."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import fine_grid_scenario, random_triangle

from vslsim import (
    DemandProfile,
    IncidentSchedule,
    LcConfig,
    NoControl,
    RuleBasedReactive,
    RuleBasedSchedule,
    Scenario,
    VslRuleConfig,
    derated_command,
    lc_distance,
    rule_commands,
    simulate_scenario,
    v0_command,
    vsl_max_flow,
)
from vslsim.control import CONTROLLERS

INCIDENT = IncidentSchedule(start=10.0 / 60.0, end=80.0 / 60.0, lanes_closed=1)


def corridor(fd, geometry, cfg=VslRuleConfig()) -> Scenario:
    """The reference corridor at 7000 veh/h with the incident above."""
    return Scenario(
        fd=fd,
        geometry=geometry,
        demand=DemandProfile.constant(7000.0),
        incident=INCIDENT,
        vsl=cfg,
    )


class TestCommandLaw:
    def test_cleared_case(self, fd):
        # 30*4800/(30*312-4800) = 31.58
        assert v0_command(7000.0, 40.0, fd) == pytest.approx(31.5789, abs=1e-3)

    def test_congested_case(self, fd):
        # 30*4320/(30*312-4320) = 25.71
        assert v0_command(7000.0, 100.0, fd) == pytest.approx(25.7143, abs=1e-3)

    def test_low_demand_needs_no_metering(self, fd):
        assert v0_command(4000.0, 100.0, fd) == fd.free_flow_speed
        assert v0_command(4000.0, 20.0, fd) == fd.free_flow_speed

    def test_single_breakpoint_in_density(self, fd):
        threshold = fd.downstream_capacity / fd.free_flow_speed
        below = [v0_command(7000.0, rho, fd) for rho in (0.0, 10.0, threshold)]
        above = [v0_command(7000.0, rho, fd) for rho in (threshold + 1e-9, 100.0, 300.0)]
        assert len(set(below)) == 1
        assert len(set(above)) == 1
        assert below[0] != above[0]

    def test_congested_command_below_cleared(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            fd = random_triangle(rng)
            congested, cleared = rule_commands(fd)
            assert congested < cleared

    def test_flux_matching_identities(self, fd):
        congested, cleared = rule_commands(fd)
        assert vsl_max_flow(congested, fd) == pytest.approx(
            fd.dropped_capacity, rel=1e-9
        )
        assert vsl_max_flow(cleared, fd) == pytest.approx(
            fd.downstream_capacity, rel=1e-9
        )

    def test_commanded_speed_feasible_on_demand_branch(self):
        # With entrance occupancy below the command's own critical density,
        # the admitted flow stays under the congested discharge.
        rng = np.random.default_rng(33)
        for _ in range(100):
            fd = random_triangle(rng)
            congested, _ = rule_commands(fd)
            crit = fd.backprop_speed * fd.jam_density / (congested + fd.backprop_speed)
            rho0 = rng.uniform(0.0, 0.999 * crit)
            if rho0 > 0:
                assert congested < fd.dropped_capacity / rho0

    def test_malformed_diagram_rejected(self):
        bad = SimpleNamespace(
            downstream_capacity=5000.0,
            dropped_capacity=4500.0,
            backprop_speed=10.0,
            jam_density=300.0,
            free_flow_speed=100.0,
            outflow_jam_density=552.0,
        )
        with pytest.raises(ValueError, match="malformed"):
            v0_command(7000.0, 40.0, bad)

    def test_demand_checked(self, fd):
        with pytest.raises(ValueError, match="demand must be non-negative"):
            v0_command(-1.0, 40.0, fd)

    def test_density_range_checked(self, fd):
        with pytest.raises(ValueError):
            v0_command(7000.0, -1.0, fd)
        with pytest.raises(ValueError):
            v0_command(7000.0, 600.0, fd)


class TestDerating:
    def test_sign_grid_reproduces_posted_values(self, fd):
        cfg = VslRuleConfig(derating=0.8, quantize_step=5.0)
        congested, cleared = rule_commands(fd)
        assert derated_command(congested, cfg, fd) == pytest.approx(20.0)
        assert derated_command(cleared, cfg, fd) == pytest.approx(25.0)

    def test_default_derating_without_grid(self, fd):
        cfg = VslRuleConfig()
        congested, cleared = rule_commands(fd)
        assert derated_command(congested, cfg, fd) == pytest.approx(20.186, abs=1e-2)
        assert derated_command(cleared, cfg, fd) == pytest.approx(24.789, abs=1e-2)

    def test_free_flow_passes_through(self, fd):
        cfg = VslRuleConfig(derating=0.5, quantize_step=5.0)
        assert derated_command(fd.free_flow_speed, cfg, fd) == fd.free_flow_speed

    def test_quantization_never_reaches_zero(self, fd):
        cfg = VslRuleConfig(derating=0.1, quantize_step=5.0)
        assert derated_command(8.0, cfg, fd) == 5.0

    def test_grid_finer_than_floats_leaves_the_command(self, fd):
        # 16 / 5e-324 overflows to inf, which math.floor cannot take.
        cfg = VslRuleConfig(derating=0.5, quantize_step=5e-324)
        assert derated_command(32.0, cfg, fd) == 16.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VslRuleConfig(derating=0.0)
        with pytest.raises(ValueError):
            VslRuleConfig(derating=1.2)
        with pytest.raises(ValueError):
            VslRuleConfig(switch_margin=-0.1)


class TestSchedule:
    CFG = VslRuleConfig(derating=0.8, switch_margin=0.1, quantize_step=5.0)

    def test_posted_timeline(self, fd, geometry):
        # Incident at 10 min, switch at 30 min, cleared at 80 min.
        controller = RuleBasedSchedule(corridor(fd, geometry, self.CFG))
        state = np.full(7, 70.0)
        for minute, zone in ((15.0, 20.0), (45.0, 25.0), (85.0, 100.0), (5.0, 100.0)):
            limits = controller(state, minute / 60.0)
            assert limits[0] == pytest.approx(zone)
            assert np.all(limits[1:] == fd.free_flow_speed)
        # Each boundary takes the row that follows it; one ulp lower, the row before.
        start, switch, end = INCIDENT.start, controller.switch_time, INCIDENT.end
        for t, at, below in ((start, 20.0, 100.0), (switch, 25.0, 20.0), (end, 100.0, 25.0)):
            assert controller(state, t)[0] == at
            assert controller(state, math.nextafter(t, 0.0))[0] == below
        # A switch clamped to the closure end never posts the cleared row.
        with pytest.warns(UserWarning, match="clamping"):
            clamped = RuleBasedSchedule(corridor(fd, geometry, replace(self.CFG, switch_margin=5.0)))
        assert clamped.switch_time == end
        times = [start, math.nextafter(end, 0.0), end, *np.linspace(0.0, 1.5, 181).tolist()]
        posted = [clamped(state, t)[0] for t in times]
        assert posted[:3] == [20.0, 20.0, 100.0]
        assert 25.0 not in posted

    def test_switch_time_is_30_minutes(self, fd, geometry):
        assert corridor(fd, geometry, self.CFG).switch_time() == pytest.approx(0.5)

    def test_schedule_without_derating_matches_command_law(self, fd, geometry):
        cfg = VslRuleConfig(derating=1.0, switch_margin=0.1, quantize_step=0.0)
        controller = RuleBasedSchedule(corridor(fd, geometry, cfg))
        limits = controller(np.full(7, 70.0), 15.0 / 60.0)
        assert limits[0] == pytest.approx(v0_command(7000.0, 100.0, fd))

    def test_oversized_margin_clamps_to_incident_end(self, fd, geometry):
        cfg = VslRuleConfig(derating=0.8, switch_margin=5.0, quantize_step=5.0)
        with pytest.warns(UserWarning, match="clamping"):
            t_s = corridor(fd, geometry, cfg).switch_time()
        assert t_s == INCIDENT.end

    def test_downstream_limits_always_free_flow(self, fd, geometry):
        controller = RuleBasedSchedule(corridor(fd, geometry, self.CFG))
        state = np.full(7, 70.0)
        for minute in np.linspace(0.0, 90.0, 19):
            limits = controller(state, minute / 60.0)
            assert np.all(limits[1:] == fd.free_flow_speed)


class TestLaneChange:
    def test_advisory_distance(self):
        assert lc_distance(1, LcConfig(advisory_distance_per_lane=800.0)) == 800.0
        assert lc_distance(0, LcConfig(advisory_distance_per_lane=800.0)) == 0.0
        assert lc_distance(2, LcConfig(advisory_distance_per_lane=700.0)) == 1400.0

    def test_negative_lane_count_rejected(self):
        with pytest.raises(ValueError):
            lc_distance(-1, LcConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LcConfig(advisory_distance_per_lane=0.0)
        with pytest.raises(ValueError):
            LcConfig(residual_drop=1.0)


class TestControllers:
    def test_no_control_posts_free_flow(self, fd, geometry):
        controller = NoControl(corridor(fd, geometry))
        state = np.full(7, 150.0)
        limits = controller(state, 0.5)
        assert limits.shape == (7,) and not limits.flags.writeable
        assert limits[0] == fd.free_flow_speed
        assert np.all(limits[1:] == fd.free_flow_speed)

    def test_schedule_controller_before_incident(self, fd, geometry):
        controller = RuleBasedSchedule(corridor(fd, geometry, TestSchedule.CFG))
        limits = controller(np.full(7, 70.0), 5.0 / 60.0)
        assert limits[0] == fd.free_flow_speed
        assert controller.switch_time == pytest.approx(0.5)

    @pytest.mark.parametrize("kind", sorted(CONTROLLERS))
    def test_posts_read_only_rows_without_writing_the_cells(self, fd, geometry, kind):
        controller = CONTROLLERS[kind](corridor(fd, geometry, TestSchedule.CFG))
        for rho in (0.0, 40.0, 100.0, fd.jam_density):
            cells = np.full(7, rho)
            cells.flags.writeable = False
            # Before, during (both phases) and after the incident window.
            for t in (0.0, 20.0 / 60.0, 60.0 / 60.0, 90.0 / 60.0):
                limits = controller(cells, t)
                assert limits.shape == (geometry.num_sections + 1,)
                assert not limits.flags.writeable
                assert np.all(limits > 0.0) and np.all(limits <= fd.free_flow_speed)
                assert np.all(cells == rho)

    @pytest.mark.parametrize("rule", [RuleBasedSchedule, RuleBasedReactive])
    def test_rule_needs_an_incident(self, fd, geometry, rule):
        no_incident = replace(
            corridor(fd, geometry), controller="no_control", incident=None
        )
        with pytest.raises(ValueError, match="needs an incident"):
            rule(no_incident)

    def test_reactive_follows_measured_density(self, fd, geometry):
        cfg = VslRuleConfig(derating=0.8, quantize_step=5.0)
        controller = RuleBasedReactive(corridor(fd, geometry, cfg))
        congested = controller(np.full(7, 100.0), 20.0 / 60.0)
        assert congested[0] == pytest.approx(20.0)
        cleared = controller(np.full(7, 40.0), 20.0 / 60.0)
        assert cleared[0] == pytest.approx(25.0)
        outside = controller(np.full(7, 100.0), 5.0 / 60.0)
        assert outside[0] == fd.free_flow_speed

    def test_reactive_posts_one_row_per_command(self):
        scenario = fine_grid_scenario()
        controller = RuleBasedReactive(scenario)
        rows = []  # held, so no two rows returned share an id

        def recording(cells, t):
            rows.append(controller(cells, t))
            return rows[-1]

        simulate_scenario(scenario, recording)
        assert len(rows) == 541
        distinct = list({id(row): row for row in rows}.values())
        assert 2 <= len(distinct) <= 3
        assert not any(row.flags.writeable for row in distinct)
