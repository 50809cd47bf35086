"""Fundamental diagram, geometry, and flux laws."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from helpers import one_state_flows, oracle_interface_flows, random_triangle

from vslsim import (
    FundamentalDiagram,
    NetworkGeometry,
    equilibrium_density,
    vsl_max_flow,
)
from vslsim.ctm import (
    bottleneck_operands,
    flow_row,
    flux_law,
    law_constants,
    speed_caps,
    update_law,
)


def discharge(rho_n, fd, **kwargs):
    """Bottleneck flow of one cell posted at free flow speed and holding
    ``rho_n`` (a scalar, or an array for many one-cell states at once)."""
    rho = np.asarray(rho_n, dtype=float)[..., None]
    return one_state_flows(rho, np.full(2, fd.free_flow_speed), fd, 0.0, **kwargs)[..., -1]


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
        assert discharge(40.0, fd) == pytest.approx(4000.0)

    def test_dropped_capacity_when_congested(self, fd):
        assert discharge(100.0, fd) == pytest.approx(4320.0)

    def test_zero_at_outflow_jam(self, fd):
        assert discharge(552.0, fd) == pytest.approx(0.0)

    def test_no_drop_when_cap_reverts_to_capacity(self, fd):
        # Incident cleared: cap C, drop inert, outflow limited by its own wave.
        flow = discharge(100.0, fd, closed=False)
        assert flow == pytest.approx(15.0 * (552.0 - 100.0))

    def test_lane_change_replaces_drop_factor(self, fd):
        cap_d = fd.downstream_capacity

        def dropped(closed, closure_drop):
            return bottleneck_operands(fd, closed, closure_drop)[1]

        assert dropped(True, fd.capacity_drop_factor) == pytest.approx(0.9 * cap_d)
        assert dropped(True, 0.0) == cap_d
        assert dropped(True, 0.04) == 0.96 * cap_d
        assert dropped(False, fd.capacity_drop_factor) == fd.capacity  # no bottleneck
        # A closure at the mainline capacity is no bottleneck: whatever its
        # drop, the dropped cap is cap_d itself and the threshold inf.
        flat = replace(fd, downstream_capacity=fd.capacity)
        for closure_drop in (0.0, fd.capacity_drop_factor, 0.04):
            cap, dropped_cap, threshold = bottleneck_operands(flat, True, closure_drop)
            assert cap == fd.capacity and dropped_cap is cap and threshold == np.inf
        assert discharge(100.0, fd, lc_active=True) == cap_d
        assert discharge(100.0, fd, lc_active=True, lc_residual_drop=0.04) == 0.96 * cap_d
        # The threshold is strict: at cap_d / v_f the full cap still applies.
        assert discharge(48.0, fd) == cap_d

    def test_never_exceeds_downstream_capacity(self, fd):
        rng = np.random.default_rng(11)
        rho = rng.uniform(0.0, 552.0, size=200)
        flow = discharge(rho, fd)
        assert np.all(flow <= fd.downstream_capacity + 1e-9)
        assert np.all(flow[rho > 48.0] <= fd.dropped_capacity + 1e-9)


class TestEquilibriumDensity:
    def test_clamps_at_downstream_capacity(self, fd):
        assert equilibrium_density(7000.0, fd) == pytest.approx(48.0)
        assert equilibrium_density(5500.0, fd) == pytest.approx(48.0)

    def test_zero_demand(self, fd):
        assert equilibrium_density(0.0, fd) == 0.0

    def test_below_capacity_demand(self, fd):
        assert equilibrium_density(4000.0, fd) == pytest.approx(40.0)


def _free_limits(fd, n: int = 6) -> np.ndarray:
    return np.full(n + 1, fd.free_flow_speed)


class TestInterfaceFlows:
    def test_empty_road_all_zero(self, fd):
        q = one_state_flows(np.zeros(7), _free_limits(fd), fd, 0.0)
        assert np.all(q == 0.0)

    def test_entrance_three_way_min(self, fd):
        # min(demand 7000, limited max flow 3744, supply 30*(312-70)=7260)
        limits = np.array([20.0] + [100.0] * 6)
        q = one_state_flows(np.full(7, 70.0), limits, fd, 7000.0)
        assert q[0] == pytest.approx(3744.0)

    def test_uniform_equilibrium_carries_demand(self, fd):
        q = one_state_flows(np.full(7, 48.0), _free_limits(fd), fd, 4800.0)
        assert np.allclose(q, 4800.0)

    def test_no_zone_entrance_includes_first_section_cap(self, fd):
        # Six cells, no zone cell: the zone command still caps the entrance.
        limits = np.array([20.0] + [100.0] * 6)
        q = one_state_flows(np.full(6, 10.0), limits, fd, 7000.0)
        assert q.shape == (7,)
        assert q[0] == pytest.approx(3744.0)

    def test_monotone_in_sender_and_receiver_density(self, fd):
        rng = np.random.default_rng(3)
        limits = _free_limits(fd)
        for _ in range(50):
            rho = rng.uniform(0.0, 280.0, size=6)
            cells = np.concatenate(([rng.uniform(0, 280)], rho))
            q = one_state_flows(cells, limits, fd, 7000.0)
            # Section i is cell i + 1: q[i + 1] feeds it, q[i + 2] drains it.
            i = int(rng.integers(0, 5))
            # Demand branch: more sender density never lowers the interface flow.
            bumped = cells.copy()
            bumped[i + 1] = min(bumped[i + 1] + 5.0, 312.0)
            after = one_state_flows(bumped, limits, fd, 7000.0)
            assert after[i + 2] >= q[i + 2] - 1e-9
            # Supply branch: more receiver density never raises it.
            assert after[i + 1] <= q[i + 1] + 1e-9

    def test_all_flows_non_negative_for_valid_states(self, fd):
        rng = np.random.default_rng(5)
        for _ in range(100):
            rho = rng.uniform(0.0, 552.0, size=6)
            cells = np.concatenate(([rng.uniform(0.0, 552.0)], rho))
            v0 = float(rng.uniform(1.0, 100.0))
            limits = np.array([v0] + [100.0] * 6)
            q = one_state_flows(cells, limits, fd, float(rng.uniform(0, 9000)))
            assert np.all(q >= 0.0)

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
            zone_rho = float(rng.uniform(0.0, 1.2 * fd.jam_density))
            v_f = fd.free_flow_speed
            zone_limit = float(rng.uniform(1.0, v_f))
            limits = np.concatenate(([zone_limit], rng.uniform(1.0, v_f, size=n)))
            demand = float(rng.uniform(0.0, 1.2 * fd.capacity))
            has_zone = bool(rng.integers(2))
            lc_active = bool(rng.integers(2))
            residual = float(rng.uniform(0.0, fd.capacity_drop_factor))
            cells = np.concatenate(([zone_rho], rho)) if has_zone else rho
            closed = cap_d == fd.downstream_capacity
            got = one_state_flows(cells, limits, fd, demand, lc_active, residual, closed)
            ref = oracle_interface_flows(
                cells, limits, fd, demand, has_zone, lc_active, residual, cap_d
            )
            assert np.array_equal(got, ref)


class TestOneStatePath:
    """``flux_law`` takes the last interface of one ``(C,)`` state on Python
    floats and of a ``(B, C)`` batch on arrays: the two give the same bits."""

    SPECIALS = (np.nan, np.inf, -np.inf, 0.0, -0.0)
    SCALARS = (float, np.float64, np.array)  # np.array(x) is 0-d

    def _special(self, rng, value, p=0.1):
        return float(rng.choice(self.SPECIALS)) if rng.uniform() < p else value

    def test_one_state_matches_batch_row(self):
        # Random diagrams and states, with the bottleneck exactly at the drop
        # threshold or past outflow_jam_density, NaN, infinities and signed
        # zeros in the bottleneck cell, another cell, the demand and each of
        # the cap, the dropped cap and the threshold, both caps with
        # advisories on and off, and the three bottleneck operands as Python
        # floats, numpy float64 and 0-d arrays.
        rng = np.random.default_rng(41)
        for _ in range(3000):
            fd = random_triangle(rng)
            n_sections = int(rng.integers(1, 7))
            n_cells = n_sections + int(rng.integers(2))
            closed = bool(rng.integers(2))
            lc_active = bool(rng.integers(2))
            residual = float(rng.uniform(0.0, fd.capacity_drop_factor))
            closure_drop = residual if lc_active else fd.capacity_drop_factor
            operands = bottleneck_operands(fd, closed, closure_drop)
            cap_d = float(operands[0])
            rho = rng.uniform(0.0, fd.jam_density, size=n_cells)
            rho[rng.uniform(size=n_cells) < 0.2] = 0.0
            tail = rng.uniform()
            if tail < 0.2:
                rho[-1] = cap_d / fd.free_flow_speed
            elif tail < 0.4:
                rho[-1] = rng.uniform(1.0, 1.5) * fd.outflow_jam_density
            rho[-1] = self._special(rng, rho[-1], 0.3)
            other = int(rng.integers(n_cells))
            rho[other] = self._special(rng, rho[other], 0.2)
            demand = self._special(rng, float(rng.uniform(0.0, 1.2 * fd.capacity)))
            operands = [self._special(rng, float(x), 0.05) for x in operands]
            v = rng.uniform(1.0, fd.free_flow_speed, size=n_sections + 1)
            cap = speed_caps(v, n_cells, fd)
            one_tail = [self.SCALARS[rng.integers(3)](x) for x in operands]
            rows = [np.array([x]) for x in operands]
            constants = law_constants(fd)
            one_row = flow_row(np.empty(n_cells + 1), rho)
            batch_row = flow_row(np.empty((1, n_cells + 1)), rho[None])
            one = flux_law(one_row, v[-n_cells:], cap, demand, one_tail, constants)
            batch = flux_law(
                batch_row, v[None, -n_cells:], cap[None], np.array([demand]), rows, constants
            )
            assert np.array_equal(one, batch[0], equal_nan=True)
            assert np.array_equal(np.signbit(one), np.signbit(batch[0]))


class TestPreparedViews:
    """``flux_law`` and ``update_law`` on flow rows, bottleneck operands and
    constants prepared once, on a block laid out as ``run_batch`` lays out its
    own (the batch axis innermost), give the bits of the same laws on fresh
    arrays and of the last interface as it was computed before its operands
    were prepared, also after the posted limits and the bottleneck's inputs
    change in place partway through a run."""

    RESIDUALS = (-0.0, 0.0, 0.04)

    @staticmethod
    def unprepared_tail(rho_n, sent_n, closed, lc, residual, fd):
        """The last interface from ``v_N * rho_N`` and the bottleneck's inputs,
        as the law computed it at every step before its operands were
        prepared: the cap and its engaged drop, then one product."""
        cap_d = np.where(closed, fd.downstream_capacity, fd.capacity)
        drop = np.where(
            cap_d < fd.capacity, np.where(lc, residual, fd.capacity_drop_factor), 0.0
        )
        rho_n, sent_n = np.asarray(rho_n), np.asarray(sent_n)
        return np.minimum(
            np.minimum(sent_n, (1.0 - drop * (rho_n > cap_d / fd.free_flow_speed)) * cap_d),
            fd.outflow_backprop_speed * (fd.outflow_jam_density - rho_n),
        )

    def draw_inputs(self, rng, rows, i):
        """Each row's bottleneck inputs: with or without the closure (without
        it there is no bottleneck, so no drop), advisories off or on, each
        residual. One row takes the ``i``-th combination; more take any."""
        combos = list(itertools.product((True, False), (False, True), self.RESIDUALS))
        order = [i % len(combos)] if rows == 1 else rng.permutation(len(combos))[:rows]
        picked = [combos[k] for k in order]
        return tuple(np.array(column) for column in zip(*picked))

    def draw_state(self, rng, fd, rho, cap_d, j):
        """Random densities, written in place, with signed zeros anywhere. The
        bottleneck cell holds a draw, NaN, -0.0 or exactly the drop threshold:
        in the first row each in turn, in the others one at random."""
        rho[...] = rng.uniform(0.0, fd.jam_density, size=rho.shape)
        rho[rng.uniform(size=rho.shape) < 0.15] = -0.0
        rows = np.atleast_2d(rho)
        choices = np.broadcast_arrays(rows[:, -1], np.nan, -0.0, cap_d / fd.free_flow_speed)
        pick = rng.integers(4, size=len(rows))
        pick[0] = j % 4
        rows[:, -1] = np.choose(pick, choices)

    @pytest.mark.parametrize(
        "rows, has_zone", [(1, True), (11, True), (1, False)], ids=["row", "block", "no_zone"]
    )
    def test_views_follow_the_block(self, rows, has_zone):
        rng = np.random.default_rng(24)
        fd = random_triangle(rng)
        n_sections, steps = 6, 48
        n_cells = n_sections + has_zone
        row = 0 if rows == 1 else slice(None)
        state = np.empty((steps + 1, n_cells, rows)).swapaxes(1, 2)
        flows = np.empty((steps, n_cells + 1, rows)).swapaxes(1, 2)
        posted = np.full((n_sections + 1, rows), fd.free_flow_speed).T
        caps = speed_caps(posted, n_cells, fd)
        lengths = rng.uniform(0.3, 3.0, size=(n_cells, rows))
        dtl = (0.5 * lengths.min() / fd.free_flow_speed / lengths).T[row]
        # The flow rows and constants, once: as run_batch prepares them.
        rhos = list(state[:, row])
        flow_rows = [flow_row(q, rho) for q, rho in zip(flows[:, row], rhos)]
        v_cells, cap, constants = posted[row, -n_cells:], caps[row], law_constants(fd)
        for j in range(steps):
            if j % 4 == 0:  # an input step: new bottleneck operands
                inputs = self.draw_inputs(rng, rows, j // 4)
                demand = rng.uniform(0.0, fd.capacity, size=rows)
                closed, lc, residual = inputs
                closure_drop = np.where(lc, residual, fd.capacity_drop_factor)
                tail = bottleneck_operands(fd, closed, closure_drop)
                if rows == 1:  # Python floats, as run_batch passes one row's
                    inputs = tuple(x.item(0) for x in inputs)
                    tail = tuple(x.item(0) for x in tail)
                    demand = demand.item(0)
            if j == steps // 2:  # new limits, written in place as run_batch writes them
                posted[...] = rng.uniform(1.0, fd.free_flow_speed, size=posted.shape)
                caps[...] = speed_caps(posted, n_cells, fd)
            rho, q = flow_rows[j][:2]
            self.draw_state(rng, fd, rho, tail[0], j)
            fresh_row = flow_row(np.empty(q.shape), rho.copy())
            fresh = flux_law(fresh_row, v_cells.copy(), cap.copy(), demand, tail, constants)
            expected = update_law(fresh_row, dtl.copy())
            sent_n = posted[row][..., -1] * rho[..., -1]
            unprepared = self.unprepared_tail(rho[..., -1], sent_n, *inputs, fd)
            flux_law(flow_rows[j], v_cells, cap, demand, tail, constants)
            update_law(flow_rows[j], dtl, rhos[j + 1])
            assert q.tobytes() == fresh.tobytes()
            assert rhos[j + 1].tobytes() == expected.tobytes()
            assert q[..., -1].tobytes() == unprepared.tobytes()


class TestDropFreeTail:
    """Where no row has a drop engaged, ``bottleneck_operands`` gives ``cap_d``
    itself as the dropped cap and ``flux_law``'s array tail takes it without
    selecting; where one row has, the tail selects. Either way each row of a
    batch gets the bytes of its own one-state run and of the selection path
    written out in ``TestPreparedViews.unprepared_tail``."""

    # The bottleneck cell of each input: a draw, -0.0, NaN, exactly cap_d / v_f
    # and just past it (above the threshold).
    CELLS = ("draw", -0.0, np.nan, "threshold", "past")

    def batch(self, inputs):
        """One row per (closed, lc, residual) input and bottleneck cell, laid
        out as ``run_batch`` lays out a block row; the operands and the flows."""
        rng = np.random.default_rng(28)
        fd = random_triangle(rng)
        combos = list(itertools.product(inputs, self.CELLS))
        closed, lc, residual = (np.array(x) for x in zip(*(c for c, _ in combos)))
        closure_drop = np.where(lc, residual, fd.capacity_drop_factor)
        tail = bottleneck_operands(fd, closed, closure_drop)
        n_sections, n_cells, rows = 6, 7, len(combos)
        rho = np.empty((n_cells, rows)).T
        rho[...] = rng.uniform(0.0, fd.jam_density, size=rho.shape)
        threshold = tail[0] / fd.free_flow_speed
        picks = {"draw": rho[:, -1], "threshold": threshold, "past": 1.05 * threshold}
        rho[:, -1] = [picks[c][b] if c in picks else c for b, (_, c) in enumerate(combos)]
        v = rng.uniform(1.0, fd.free_flow_speed, size=(rows, n_sections + 1))
        v[:, -1] = fd.free_flow_speed  # the bottleneck cell sends past its cap
        cap, demand = speed_caps(v, n_cells, fd), rng.uniform(0.0, fd.capacity, size=rows)
        row = flow_row(np.empty((n_cells + 1, rows)).T, rho)
        q = flux_law(row, v[:, -n_cells:], cap, demand, tail, law_constants(fd))
        for b in range(rows):
            one_tail = [float(x) for x in bottleneck_operands(fd, closed[b], closure_drop[b])]
            one_row = flow_row(np.empty(n_cells + 1), rho[b].copy())
            one = flux_law(
                one_row, v[b, -n_cells:], cap[b], demand.item(b), one_tail, law_constants(fd)
            )
            assert q[b].tobytes() == one.tobytes()
        unprepared = TestPreparedViews.unprepared_tail(
            rho[:, -1], v[:, -1] * rho[:, -1], closed, lc, residual, fd
        )
        assert q[:, -1].tobytes() == unprepared.tobytes()
        return fd, tail, q

    def test_drop_free_rows_skip_the_select(self):
        # No closure (with or without advisories), or advisories with residual 0.
        inputs = [(False, False, 0.0), (False, True, 0.04), (True, True, 0.0), (True, True, -0.0)]
        _, (cap_d, dropped, threshold), _ = self.batch(inputs)
        assert dropped is cap_d
        assert threshold == np.inf

    def test_one_engaged_drop_keeps_the_select(self):
        fd, (cap_d, dropped, _), q = self.batch([(True, True, 0.0), (True, True, 0.04)])
        assert dropped is not cap_d
        # Past the threshold the 0.04 rows discharge their dropped cap.
        past = len(self.CELLS) + self.CELLS.index("past")
        assert q[past, -1] == (1.0 - 0.04) * fd.downstream_capacity


class TestValueTypes:
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
