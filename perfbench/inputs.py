"""Seeded workload inputs: the scenario and sweep-spec files the CLI receives.

The seed scales every demand flow of a workload by one factor in [0.98, 1.02]
(seed 0 leaves it at 1), so problem size -- steps, cells, probes, swept
values -- is the same for every seed. Files carry only fields the simulation
reads; the benchmark never passes a preset name to the program.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

REFERENCE_FD = {
    "capacity": 7200.0,
    "downstream_capacity": 4800.0,
    "free_flow_speed": 100.0,
    "backprop_speed": 30.0,
    "outflow_backprop_speed": 15.0,
    "jam_density": 312.0,
    "outflow_jam_density": 552.0,
    "capacity_drop_factor": 0.1,
}

# Zone lengths (km) of the high-demand study, as in the program's
# ZONE_SWEEPS["high_demand"].
HIGH_DEMAND_ZONE_SWEEP = (0.0, 0.8, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 3.2, 4.0, 4.8)

FULL_HORIZON_MIN = 90.0


def demand_scale(seed: int) -> float:
    """Demand factor for a workload seed; seed 0 is the unperturbed input."""
    if seed == 0:
        return 1.0
    return random.Random(seed).uniform(0.98, 1.02)


def _scenario(
    name: str,
    sections: int,
    section_km: float,
    zone_km: float,
    demand_times_min: list[float],
    flows: list[float],
    controller: str,
    dt_s: float,
    control_period_s: float,
    seed_interval_s: float,
    switch_margin_min: float,
    horizon_min: float,
) -> dict:
    # A shortened horizon compresses every schedule time by the same ratio.
    k = horizon_min / FULL_HORIZON_MIN
    return {
        "name": name,
        "fundamental_diagram": dict(REFERENCE_FD),
        "geometry": {
            "num_sections": sections,
            "section_length_km": section_km,
            "upstream_zone_length_km": zone_km,
        },
        "demand": {"times_min": [t * k for t in demand_times_min], "flows": flows},
        "incident": {"start_min": 10.0 * k, "end_min": 80.0 * k, "lanes_closed": 1},
        "controller": controller,
        "vsl": {
            "derating": 0.8,
            "switch_margin_min": switch_margin_min * k,
            "quantize_step": 5.0,
        },
        "lane_change": {"advisory_distance_per_lane_m": 800.0, "residual_drop": 0.0},
        "horizon_min": horizon_min,
        "dt_s": dt_s,
        "control_period_s": control_period_s,
        "metrics": {"seed_interval_s": seed_interval_s},
    }


def high_demand(scale: float, horizon_min: float) -> dict:
    """The bundled high_demand preset: six 1.6 km sections, 4.8 km zone,
    7000 veh/h, scheduled rule, 1 s step, a probe every 10 s."""
    return _scenario(
        "high_demand",
        sections=6,
        section_km=1.6,
        zone_km=4.8,
        demand_times_min=[0.0],
        flows=[7000.0 * scale],
        controller="rule_based",
        dt_s=1.0,
        control_period_s=30.0,
        seed_interval_s=10.0,
        switch_margin_min=6.0,
        horizon_min=horizon_min,
    )


def fine_grid_reactive(scale: float, horizon_min: float) -> dict:
    """Same corridor length cut into 24 x 0.4 km cells, stepped demand,
    reactive rule every 10 s, 0.5 s step, a probe every 120 s."""
    return _scenario(
        "fine_grid_reactive",
        sections=24,
        section_km=0.4,
        zone_km=4.8,
        demand_times_min=[0.0, 30.0, 60.0],
        flows=[f * scale for f in (7000.0, 6200.0, 7400.0)],
        controller="rule_based_reactive",
        dt_s=0.5,
        control_period_s=10.0,
        seed_interval_s=120.0,
        switch_margin_min=6.0,
        horizon_min=horizon_min,
    )


def _expect(scenario: dict, zone_km: float) -> dict:
    """What the checks need to know about one simulated scenario."""
    g = scenario["geometry"]
    return {
        "steps": round(scenario["horizon_min"] * 60.0 / scenario["dt_s"]),
        "sections": g["num_sections"],
        "section_km": g["section_length_km"],
        "zone_km": zone_km,
        "dt_h": scenario["dt_s"] / 3600.0,
        "rho_max": scenario["fundamental_diagram"]["outflow_jam_density"],
    }


def write_inputs(workload: str, seed: int, directory: Path, horizon_min: float) -> dict:
    """Write the workload's input file into ``directory``; return the job
    description the worker runs and checks against."""
    scale = demand_scale(seed)
    if workload in ("run_high_demand", "run_fine_grid_reactive"):
        build = high_demand if workload == "run_high_demand" else fine_grid_reactive
        scenario = build(scale, horizon_min)
        path = directory / f"{scenario['name']}.json"
        path.write_text(json.dumps(scenario, indent=2) + "\n", encoding="utf-8")
        return {
            "workload": workload,
            "kind": "run",
            "input": str(path),
            "argv": ["run", str(path)],
            "name": scenario["name"],
            "expect": _expect(scenario, scenario["geometry"]["upstream_zone_length_km"]),
            "demand_scale": scale,
        }
    if workload == "sweep_zone_high":
        base = high_demand(scale, horizon_min)
        spec = {
            "scenario": base,
            "variable": "upstream_zone_length",
            "values": list(HIGH_DEMAND_ZONE_SWEEP),
        }
        path = directory / "sweep_zone_high.json"
        path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
        return {
            "workload": workload,
            "kind": "sweep",
            "input": str(path),
            "argv": ["sweep", str(path), "--traces", "--workers", "1"],
            "name": base["name"],
            "values": list(HIGH_DEMAND_ZONE_SWEEP),
            "expect": {f"{v:g}": _expect(base, v) for v in HIGH_DEMAND_ZONE_SWEEP},
            "demand_scale": scale,
        }
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("run_high_demand", "run_fine_grid_reactive", "sweep_zone_high")
