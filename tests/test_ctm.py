"""Fundamental diagram, state types, and flux laws."""

import numpy as np
import pytest
from helpers import oracle_interface_flows, random_triangle

from vslsim import (
    FlowVector,
    FundamentalDiagram,
    NetworkGeometry,
    SpeedLimits,
    TrafficState,
    bottleneck_outflow,
    capacity_drop,
    equilibrium_density,
    interface_flows,
    vsl_max_flow,
)


class TestFundamentalDiagram:
    def test_reference_diagram_is_consistent(self, fd):
        assert fd.critical_density == pytest.approx(72.0)
        assert fd.dropped_capacity == pytest.approx(4320.0)

    def test_from_triangle_closes_jam_densities(self):
        built = FundamentalDiagram.from_triangle(
            capacity=7200.0,
            downstream_capacity=4800.0,
            free_flow_speed=100.0,
            backprop_speed=30.0,
            outflow_backprop_speed=15.0,
            capacity_drop_factor=0.1,
        )
        assert built.jam_density == pytest.approx(312.0)
        assert built.outflow_jam_density == pytest.approx(552.0)

    def test_inconsistent_triangle_rejected(self, fd):
        with pytest.raises(ValueError, match="triangle"):
            FundamentalDiagram(7200, 4800, 100, 30, 15, 400.0, 552, 0.1)

    @pytest.mark.parametrize("drop", [0.0, 1.0, -0.1, 1.5])
    def test_drop_factor_bounds(self, drop):
        with pytest.raises(ValueError):
            FundamentalDiagram.from_triangle(7200, 4800, 100, 30, 15, drop)

    def test_downstream_capacity_cannot_exceed_capacity(self):
        with pytest.raises(ValueError, match="downstream_capacity"):
            FundamentalDiagram.from_triangle(7200, 7300, 100, 30, 15, 0.1)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            FundamentalDiagram.from_triangle(-1, 4800, 100, 30, 15, 0.1)


class TestCriticalDensity:
    def test_reference_value(self, fd):
        assert fd.critical_density == pytest.approx(72.0)

    def test_unit_ratio(self):
        unit = FundamentalDiagram.from_triangle(100.0, 100.0, 100.0, 30.0, 15.0, 0.1)
        assert unit.critical_density == pytest.approx(1.0)

    def test_downstream_value(self):
        low = FundamentalDiagram.from_triangle(4800.0, 4800.0, 100.0, 30.0, 15.0, 0.1)
        assert low.critical_density == pytest.approx(48.0)


class TestVslMaxFlow:
    def test_free_flow_speed_recovers_capacity(self, fd):
        assert vsl_max_flow(100.0, fd) == pytest.approx(7200.0, rel=1e-12)

    def test_hand_value_at_20(self, fd):
        # 20 * 30 * 312 / 50
        assert vsl_max_flow(20.0, fd) == pytest.approx(3744.0)

    def test_matches_downstream_capacity_near_31_6(self, fd):
        assert vsl_max_flow(31.5789473684, fd) == pytest.approx(4800.0, rel=1e-6)

    def test_rejects_non_positive_speed(self, fd):
        with pytest.raises(ValueError):
            vsl_max_flow(0.0, fd)
        with pytest.raises(ValueError):
            vsl_max_flow(-5.0, fd)

    def test_never_exceeds_capacity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            fd = random_triangle(rng)
            speeds = rng.uniform(1e-3, fd.free_flow_speed, size=40)
            flows = np.array([vsl_max_flow(v, fd) for v in speeds])
            assert np.all(flows <= fd.capacity * (1 + 1e-12))
            assert vsl_max_flow(fd.free_flow_speed, fd) == pytest.approx(
                fd.capacity, rel=1e-9
            )


class TestBottleneckOutflow:
    def test_demand_branch_below_threshold(self, fd):
        assert bottleneck_outflow(40.0, fd) == pytest.approx(4000.0)

    def test_dropped_capacity_when_congested(self, fd):
        assert bottleneck_outflow(100.0, fd) == pytest.approx(4320.0)

    def test_zero_at_outflow_jam(self, fd):
        assert bottleneck_outflow(552.0, fd) == pytest.approx(0.0)

    def test_density_out_of_range_rejected(self, fd):
        with pytest.raises(ValueError):
            bottleneck_outflow(-1.0, fd)
        with pytest.raises(ValueError):
            bottleneck_outflow(553.0, fd)

    def test_no_drop_when_cap_reverts_to_capacity(self, fd):
        # Incident cleared: cap C, drop inert, outflow limited by its own wave.
        flow = bottleneck_outflow(100.0, fd, downstream_capacity=fd.capacity)
        assert flow == pytest.approx(15.0 * (552.0 - 100.0))

    def test_lane_change_replaces_drop_factor(self, fd):
        assert capacity_drop(100.0, fd) == pytest.approx(0.1)
        assert capacity_drop(100.0, fd, lc_active=True, lc_residual_drop=0.0) == 0.0
        assert capacity_drop(100.0, fd, lc_active=True, lc_residual_drop=0.04) == 0.04
        assert capacity_drop(48.0, fd) == 0.0  # threshold is strict

    def test_never_exceeds_downstream_capacity(self, fd):
        rng = np.random.default_rng(11)
        for rho in rng.uniform(0.0, 552.0, size=200):
            flow = bottleneck_outflow(float(rho), fd)
            assert flow <= fd.downstream_capacity + 1e-9
            if rho > 48.0:
                assert flow <= fd.dropped_capacity + 1e-9


class TestEquilibriumDensity:
    def test_clamps_at_downstream_capacity(self, fd):
        assert equilibrium_density(7000.0, fd) == pytest.approx(48.0)
        assert equilibrium_density(5500.0, fd) == pytest.approx(48.0)

    def test_zero_demand(self, fd):
        assert equilibrium_density(0.0, fd) == 0.0

    def test_below_capacity_demand(self, fd):
        assert equilibrium_density(4000.0, fd) == pytest.approx(40.0)


def _uniform_state(density: float, n: int = 6) -> TrafficState:
    return TrafficState.uniform(density, n)


def _free_limits(fd, n: int = 6) -> SpeedLimits:
    return SpeedLimits.uniform(fd.free_flow_speed, n)


class TestInterfaceFlows:
    def test_empty_road_all_zero(self, fd):
        flows = interface_flows(_uniform_state(0.0), _free_limits(fd), fd, 0.0)
        assert flows.inflow == 0.0
        assert np.all(flows.interfaces == 0.0)

    def test_entrance_three_way_min(self, fd):
        # min(demand 7000, limited max flow 3744, supply 30*(312-70)=7260)
        state = TrafficState(0.0, 70.0, np.full(6, 70.0))
        limits = SpeedLimits(20.0, np.full(6, 100.0))
        flows = interface_flows(state, limits, fd, 7000.0)
        assert flows.inflow == pytest.approx(3744.0)

    def test_uniform_equilibrium_carries_demand(self, fd):
        state = _uniform_state(48.0)
        flows = interface_flows(state, _free_limits(fd), fd, 4800.0)
        assert flows.inflow == pytest.approx(4800.0)
        assert np.allclose(flows.interfaces, 4800.0)

    def test_dimension_mismatch_rejected(self, fd):
        state = _uniform_state(10.0, n=6)
        limits = SpeedLimits.uniform(100.0, 5)
        with pytest.raises(ValueError, match="sections"):
            interface_flows(state, limits, fd, 1000.0)

    def test_no_zone_entrance_includes_first_section_cap(self, fd):
        state = _uniform_state(10.0)
        limits = SpeedLimits(20.0, np.full(6, 100.0))
        flows = interface_flows(state, limits, fd, 7000.0, has_zone=False)
        assert flows.inflow == pytest.approx(3744.0)
        assert flows.interfaces[0] == flows.inflow

    def test_monotone_in_sender_and_receiver_density(self, fd):
        rng = np.random.default_rng(3)
        limits = _free_limits(fd)
        for _ in range(50):
            rho = rng.uniform(0.0, 280.0, size=6)
            state = TrafficState(0.0, float(rng.uniform(0, 280)), rho)
            flows = interface_flows(state, limits, fd, 7000.0)
            i = int(rng.integers(0, 5))
            # Demand branch: more sender density never lowers the interface flow.
            bumped = rho.copy()
            bumped[i] = min(bumped[i] + 5.0, 312.0)
            up = interface_flows(TrafficState(0.0, state.upstream_density, bumped), limits, fd, 7000.0)
            assert up.interfaces[i + 1] >= flows.interfaces[i + 1] - 1e-9
            # Supply branch: more receiver density never raises it.
            recv = rho.copy()
            recv[i] = min(recv[i] + 5.0, 312.0)
            down = interface_flows(TrafficState(0.0, state.upstream_density, recv), limits, fd, 7000.0)
            assert down.interfaces[i] <= flows.interfaces[i] + 1e-9

    def test_all_flows_non_negative_for_valid_states(self, fd):
        rng = np.random.default_rng(5)
        for _ in range(100):
            rho = rng.uniform(0.0, 552.0, size=6)
            state = TrafficState(0.0, float(rng.uniform(0.0, 552.0)), rho)
            v0 = float(rng.uniform(1.0, 100.0))
            limits = SpeedLimits(v0, np.full(6, 100.0))
            flows = interface_flows(state, limits, fd, float(rng.uniform(0, 9000)))
            assert flows.inflow >= 0.0
            assert np.all(flows.interfaces >= 0.0)


    def test_matches_per_cell_law(self):
        # The array law against the per-cell loop it replaced, on arbitrary
        # states: jammed and empty cells, slow limits, both bottleneck caps,
        # and a bottleneck density exactly at the drop threshold.
        rng = np.random.default_rng(13)
        for _ in range(300):
            fd = random_triangle(rng)
            n = int(rng.integers(1, 6))
            cap_d = float(rng.choice([fd.downstream_capacity, fd.capacity]))
            rho = rng.uniform(0.0, fd.outflow_jam_density, size=n)
            rho[rng.uniform(size=n) < 0.2] = 0.0
            if rng.uniform() < 0.2:
                rho[-1] = cap_d / fd.free_flow_speed
            state = TrafficState(0.0, float(rng.uniform(0.0, 1.2 * fd.jam_density)), rho)
            v_f = fd.free_flow_speed
            zone_limit = float(rng.uniform(1.0, v_f))
            limits = SpeedLimits(zone_limit, rng.uniform(1.0, v_f, size=n))
            args = (
                state,
                limits,
                fd,
                float(rng.uniform(0.0, 1.2 * fd.capacity)),
                bool(rng.integers(2)),
                bool(rng.integers(2)),
                float(rng.uniform(0.0, fd.capacity_drop_factor)),
                cap_d,
            )
            got = interface_flows(*args)
            ref = oracle_interface_flows(*args)
            assert got.inflow == ref.inflow
            assert np.array_equal(got.interfaces, ref.interfaces)


class TestValueTypes:
    def test_traffic_state_immutable_and_validated(self):
        state = TrafficState(0.0, 10.0, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            state.densities[0] = 5.0
        with pytest.raises(ValueError):
            TrafficState(-1.0, 10.0, np.array([1.0]))
        with pytest.raises(ValueError):
            TrafficState(0.0, 10.0, np.array([-1.0]))

    def test_speed_limits_positive(self):
        with pytest.raises(ValueError):
            SpeedLimits(0.0, np.array([100.0]))
        with pytest.raises(ValueError):
            SpeedLimits(50.0, np.array([0.0]))

    def test_flow_vector_non_negative(self):
        with pytest.raises(ValueError):
            FlowVector(-1.0, np.array([0.0]))
        vec = FlowVector(1.0, np.array([2.0, 3.0]))
        assert vec.bottleneck == 3.0

    def test_geometry_properties(self, geometry):
        assert geometry.has_zone
        assert geometry.num_cells == 7
        assert geometry.total_length == pytest.approx(14.4)
        assert np.allclose(geometry.cell_lengths(), [4.8] + [1.6] * 6)
        flat = NetworkGeometry(6, 1.6, 0.0)
        assert not flat.has_zone
        assert flat.num_cells == 6

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            NetworkGeometry(0, 1.6)
        with pytest.raises(ValueError):
            NetworkGeometry(6, 1.6, -1.0)
