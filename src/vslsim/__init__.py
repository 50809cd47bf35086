"""Macroscopic freeway bottleneck simulation with rule-based variable speed
limit and lane change control, plus the analytic sizing of the upstream
speed-limited zone."""

from .bounds import (
    BoundInputs,
    ChasingVerdict,
    InfeasibleSpeedError,
    ZoneBoundReport,
    arrival_time,
    chasing_verdict,
    l0_lower_bound,
    l0_lower_bound_raw,
    time_to_clear,
    v0_feasible,
    zone_bound_report,
)
from .calibrate import (
    CalibrationError,
    FdObservation,
    FitDiagnostics,
    fit_fundamental_diagram,
)
from .control import (
    LcConfig,
    NoControl,
    RuleBasedReactive,
    RuleBasedSchedule,
    VslRuleConfig,
    derated_command,
    lc_distance,
    rule_commands,
    v0_command,
)
from .ctm import (
    FundamentalDiagram,
    NetworkGeometry,
    SpeedLimits,
    TrafficState,
    equilibrium_density,
    vsl_max_flow,
)
from .metrics import (
    MetricsReport,
    ProbeSet,
    VirtualTrajectory,
    avg_emission,
    avg_stops,
    default_emission_rate,
    emission_rate_from_table,
    evaluate_trace,
    reconstruct_trajectories,
    rrmse_density_pooled,
    speed_field,
    stop_count,
)
from .scenario import (
    PRESETS,
    MetricConfig,
    Scenario,
    ScenarioValidationError,
    high_demand_preset,
    load_scenario,
    make_controller,
    moderate_demand_preset,
    save_scenario,
    scenario_from_dict,
    simulate_scenario,
)
from .simulate import (
    ControllerError,
    DemandProfile,
    IncidentSchedule,
    SimulationTrace,
    cfl_limit,
    run,
    warm_state,
)
from .sweep import SweepRow, SweepSpec, apply_sweep_value, run_sweep, sweep_rows_to_csv

__version__ = "0.1.0"
