"""Zone-length lower bound, clearing and arrival times, chasing verdict."""

import numpy as np
import pytest
from dataclasses import replace
from pathlib import Path

from helpers import random_feasible_bound_inputs
from hypothesis import given, strategies as st

from vslsim import (
    BoundInputs,
    InfeasibleSpeedError,
    NetworkGeometry,
    arrival_time,
    chasing_verdict,
    l0_lower_bound,
    l0_lower_bound_raw,
    time_to_clear,
    v0_feasible,
    zone_bound_report,
)
from vslsim.bounds import BoundInputError


@pytest.fixture
def high_demand_inputs(fd):
    # Free flow at 7000 veh/h: every density 70 veh/km, command 20 km/h.
    return BoundInputs(fd, 6, 1.6, 20.0, 70.0, np.full(6, 70.0))


@pytest.fixture
def moderate_demand_inputs(fd):
    # Free flow at 5500 veh/h: every density 55 veh/km.
    return BoundInputs(fd, 6, 1.6, 20.0, 55.0, np.full(6, 55.0))


class TestLowerBound:
    def test_high_demand_value(self, high_demand_inputs):
        # (100*420 - 4320*6) * 20 * 1.6 / ((4320 - 20*70) * 100) = 1.762 km
        assert l0_lower_bound(high_demand_inputs) == pytest.approx(1.7621917808, rel=1e-9)

    def test_moderate_demand_value(self, moderate_demand_inputs):
        assert l0_lower_bound(moderate_demand_inputs) == pytest.approx(
            0.7036024845, rel=1e-9
        )

    def test_empty_road_clamped_to_zero(self, fd, geometry):
        inputs = BoundInputs(fd, 6, 1.6, 20.0, 0.0, np.zeros(6))
        assert l0_lower_bound(inputs) == 0.0
        assert l0_lower_bound_raw(inputs) < 0.0

    def test_infeasible_command_raises(self, fd, geometry):
        # 62 km/h at 70 veh/km admits 4340 veh/h, above the 4320 discharge.
        inputs = BoundInputs(fd, 6, 1.6, 62.0, 70.0, np.full(6, 70.0))
        with pytest.raises(InfeasibleSpeedError):
            l0_lower_bound(inputs)

    def test_monotone_in_command_and_densities(self, fd, geometry):
        base = BoundInputs(fd, 6, 1.6, 20.0, 70.0, np.full(6, 70.0))
        faster = replace(base, zone_limit=25.0)
        assert l0_lower_bound(faster) >= l0_lower_bound(base)
        denser = replace(base, densities=base.densities + 5.0)
        assert l0_lower_bound(denser) >= l0_lower_bound(base)
        longer = BoundInputs(fd, 12, 1.6, 20.0, 70.0, np.full(12, 70.0))
        assert l0_lower_bound(longer) >= l0_lower_bound(base)


class TestTimes:
    def test_clearing_time_high_demand(self, high_demand_inputs):
        # (4.8*70 + 1.6*420) / 4320 = 14 minutes exactly
        assert time_to_clear(high_demand_inputs, 4.8) * 60 == pytest.approx(14.0)

    def test_clearing_time_empty(self, fd):
        inputs = BoundInputs(fd, 6, 1.6, 20.0, 0.0, np.zeros(6))
        assert time_to_clear(inputs, 1.0) == 0.0

    def test_clearing_time_moderate(self, moderate_demand_inputs):
        # (1.6*55 + 1.6*330) / 4320 h; the free-flow inputs alone fix this.
        assert time_to_clear(moderate_demand_inputs, 1.6) * 60 == pytest.approx(
            8.5556, abs=1e-3
        )

    def test_arrival_time_values(self, fd):
        # 20 km/h in the zone, six 1.6 km sections at 100 km/h.
        inputs = BoundInputs(fd, 6, 1.6, 20.0, 0.0, np.zeros(6))
        assert arrival_time(inputs, 4.8) == pytest.approx(0.336)
        assert arrival_time(inputs, 0.0) == pytest.approx(0.096)
        assert arrival_time(inputs, 1.8) == pytest.approx(0.186)

    @pytest.mark.parametrize("time_of", [time_to_clear, arrival_time])
    @pytest.mark.parametrize("zone", [-5.0, np.inf, np.nan])
    def test_zone_length_outside_domain_raises(self, high_demand_inputs, time_of, zone):
        with pytest.raises(BoundInputError, match="zone_length") as info:
            time_of(high_demand_inputs, zone)
        assert info.value.field == "zone_length"

    def test_lengths_scale_linearly(self, fd):
        inputs = BoundInputs(fd, 6, 1.6, 20.0, 70.0, np.full(6, 70.0))
        doubled = BoundInputs(fd, 6, 3.2, 20.0, 70.0, np.full(6, 70.0))
        assert time_to_clear(doubled, 9.6) == pytest.approx(2 * time_to_clear(inputs, 4.8))
        assert arrival_time(doubled, 9.6) == pytest.approx(2 * arrival_time(inputs, 4.8))


class TestFeasibility:
    def test_reference_cases(self, fd):
        ok = BoundInputs(fd, 6, 1.6, 20.0, 70.0, np.full(6, 70.0))
        assert v0_feasible(ok)
        empty = BoundInputs(fd, 6, 1.6, 20.0, 0.0, np.zeros(6))
        assert v0_feasible(empty)
        too_fast = BoundInputs(fd, 6, 1.6, 62.0, 70.0, np.full(6, 70.0))
        assert not v0_feasible(too_fast)


class TestChasingVerdict:
    def test_above_bound_absorbed(self, high_demand_inputs):
        verdict = chasing_verdict(high_demand_inputs, 2.4)
        assert verdict.absorbed
        assert verdict.label == "absorbed"
        assert verdict.time_to_clear < verdict.arrival_time

    def test_exact_tie_is_risk(self):
        # Dyadic numbers so both times are exactly 4.0 h: absorption demands
        # a strict win, a tie is still a shockwave risk.
        from vslsim import FundamentalDiagram

        fd = FundamentalDiagram.from_triangle(
            capacity=32.0,
            downstream_capacity=32.0,
            free_flow_speed=128.0,
            backprop_speed=0.5,
            outflow_backprop_speed=0.5,
            capacity_drop_factor=0.5,
        )
        inputs = BoundInputs(fd, 2, 1.0, 2.0, 0.0, np.array([32.0, 32.0]))
        verdict = chasing_verdict(inputs, 7.96875)
        assert verdict.time_to_clear == verdict.arrival_time == 4.0
        assert not verdict.absorbed

    def test_just_below_bound_is_risk(self, high_demand_inputs):
        bound = l0_lower_bound(high_demand_inputs)
        assert not chasing_verdict(high_demand_inputs, bound * (1 - 1e-9)).absorbed
        assert chasing_verdict(high_demand_inputs, bound * (1 + 1e-9)).absorbed

    def test_no_zone_with_congested_road_is_risk(self, fd):
        inputs = BoundInputs(fd, 6, 1.6, 20.0, 100.0, np.full(6, 100.0))
        verdict = chasing_verdict(inputs, 0.0)
        assert not verdict.absorbed

    def test_equivalence_with_bound_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            inputs = random_feasible_bound_inputs(rng)
            raw = l0_lower_bound_raw(inputs)
            zone = float(rng.uniform(0.0, 12.0))
            assert chasing_verdict(inputs, zone).absorbed == (zone > raw)

    @given(seed=st.integers(0, 2**32 - 1), zone=st.floats(0.0, 12.0))
    def test_verdict_carries_both_times(self, seed, zone):
        # The race reads the clearing and the arrival time from one set of
        # inputs, with one signature.
        inputs = random_feasible_bound_inputs(np.random.default_rng(seed))
        verdict = chasing_verdict(inputs, zone)
        t_b, t_y = time_to_clear(inputs, zone), arrival_time(inputs, zone)
        assert (verdict.time_to_clear, verdict.arrival_time) == (t_b, t_y)
        assert verdict.absorbed == (t_b < t_y)

    def test_report_bundle(self, high_demand_inputs):
        report = zone_bound_report(high_demand_inputs, 4.8)
        assert report.feasible
        assert not report.vacuous
        assert report.absorbed
        assert report.lower_bound == pytest.approx(1.7621917808, rel=1e-9)
        assert report.label == "absorbed"

    @pytest.mark.parametrize(
        "zone_limit, zone, field, time",
        [(20.0, 1e308, "zone_length", "a clearing"), (1e-320, 1.0, "zone_limit", "an arrival")],
    )
    def test_report_rejects_times_past_the_float_range(self, fd, zone_limit, zone, field, time):
        # Two infinite times decide no race: 1e308 km would read shockwave_risk.
        inputs = BoundInputs(fd, 6, 1.6, zone_limit, 70.0, np.full(6, 70.0))
        with pytest.raises(BoundInputError) as err:
            zone_bound_report(inputs, zone)
        assert err.value.field == field
        assert str(err.value) == f"{field} gives {time} time past the float range"


@pytest.mark.slow
class TestSimulationAgreement:
    """The analytic verdict matches what the simulated corridor does.

    Clearing is read off the bottleneck section falling below its critical
    occupancy; arrival is the first probe vehicle seeded after the incident
    reaching the exit. The verdicts disagree in a band around the bound
    because the zone is one cell, up to 4.8 km long, which smears out the
    low-density gap the bound reasons about: refining only the 1.6 km
    sections widens the disagreement, and cutting the zone into cells of
    the refined section length too makes the verdicts agree. Agreement is
    asserted outside +-25% of the bound (the tightest band this one-cell
    zone supports).
    """

    def test_verdicts_match_outside_band(self, fd):
        from vslsim import (
            high_demand_preset,
            reconstruct_trajectories,
            simulate_scenario,
        )

        base = replace(high_demand_preset(), lc=None)
        inputs = base.bound_inputs()
        bound = l0_lower_bound(inputs)
        for zone in (0.0, 0.8, 1.2, 2.4, 3.2, 4.8):
            assert abs(zone - bound) > 0.25 * bound
            scenario = replace(
                base, geometry=replace(base.geometry, upstream_zone_length=zone)
            )
            trace = simulate_scenario(scenario)
            t0 = scenario.incident.start
            threshold = fd.downstream_capacity / fd.free_flow_speed
            after = trace.times > t0
            below = after & (trace.section_densities[:, -1] <= threshold)
            t_clear = trace.times[np.argmax(below)] if below.any() else np.inf
            probes = reconstruct_trajectories(trace, 10.0 / 3600.0)
            # An incomplete probe's exit is inf.
            t_arrive = next(row[-1] for row in probes if row[0] >= t0)
            simulated_absorbed = t_clear < t_arrive
            assert simulated_absorbed == chasing_verdict(inputs, zone).absorbed


def test_readme_python_api_block():
    """README's "Python API" block runs against the package's exports, and
    each expression line gives the value its comment states, to the digits
    shown."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8").split("## Python API", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    stated_values = []
    for line in block.splitlines():
        code, commented, comment = line.partition("#")
        if not commented or "=" in code:
            continue  # a statement, or a comment that states no value
        value = eval(code, namespace)
        stated = comment.split()[0]
        if stated.startswith('"'):
            assert value == stated.strip('"'), line
        else:
            digits = len(stated.partition(".")[2])
            assert value == pytest.approx(float(stated), abs=0.5 * 10.0**-digits), line
        stated_values.append(stated)
    assert stated_values == ["1.76", "14.0", '"absorbed"']
