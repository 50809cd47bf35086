"""Scenario schema, validation, presets, and the sweep harness."""

import json

import numpy as np
import pytest
from dataclasses import asdict, replace
from hypothesis import given, settings, strategies as st

import vslsim.sweep
from vslsim import (
    BoundInputs,
    DemandProfile,
    FdObservation,
    FundamentalDiagram,
    VslRuleConfig,
    IncidentSchedule,
    LcConfig,
    MetricConfig,
    NetworkGeometry,
    Scenario,
    ScenarioValidationError,
    SweepSpec,
    apply_sweep_value,
    evaluate_trace,
    high_demand_preset,
    load_scenario,
    make_controller,
    moderate_demand_preset,
    run_sweep,
    save_scenario,
    scenario_from_dict,
    simulate_scenario,
    sweep_rows_to_csv,
    vsl_max_flow,
)
from vslsim.cli import cli_dispatch
from vslsim.scenario import CONTROLLER_KINDS, PRESETS, ZONE_SWEEPS, trace_events
from vslsim.sweep import load_sweep_spec


class TestPresets:
    def test_high_demand_settings(self):
        s = high_demand_preset()
        assert s.demand.at(0.0) == 7000.0
        assert s.incident.start == pytest.approx(10.0 / 60.0)
        assert s.incident.end == pytest.approx(80.0 / 60.0)
        assert s.geometry.num_sections == 6
        assert s.geometry.section_length == pytest.approx(1.6)
        assert s.geometry.upstream_zone_length == pytest.approx(4.8)
        assert s.horizon == pytest.approx(1.5)
        assert replace(s) == s  # rebuilding re-checks every invariant

    def test_high_demand_posted_commands(self):
        s = high_demand_preset()
        controller = make_controller(s)
        assert controller.congested_command == pytest.approx(20.0)
        assert controller.cleared_command == pytest.approx(25.0)
        assert controller.switch_time == pytest.approx(0.5)

    def test_moderate_demand_settings(self):
        s = moderate_demand_preset()
        assert s.demand.at(0.0) == 5500.0
        assert s.geometry.upstream_zone_length == pytest.approx(1.6)
        assert s.switch_time() == pytest.approx(0.5)
        assert replace(s) == s

    def test_sweep_value_lists(self):
        assert len(ZONE_SWEEPS["high_demand"]) == 12
        assert len(ZONE_SWEEPS["moderate_demand"]) == 9
        assert ZONE_SWEEPS["high_demand"][0] == 0.0

    def test_presets_loadable_by_name(self):
        for name in PRESETS:
            assert load_scenario(name).name == name


def violations(base: Scenario, **changes) -> list[str]:
    """Every violation ``replace(base, **changes)`` raises at construction."""
    with pytest.raises(ScenarioValidationError) as err:
        replace(base, **changes)
    return err.value.violations


class TestValidation:
    def test_cfl_violation_reported_with_field(self, fd):
        problems = violations(high_demand_preset(), dt=120.0)
        assert any("dt" in p and "CFL" in p for p in problems)

    def test_all_violations_reported_at_once(self):
        problems = violations(
            high_demand_preset(),
            dt=120.0,
            name="",
            controller="magic",
            horizon=0.5,
        )
        assert len(problems) >= 4
        joined = "\n".join(problems)
        for needle in ("dt", "name", "controller", "horizon"):
            assert needle in joined

    @pytest.mark.parametrize(
        "changes, problem",
        [
            (dict(horizon=-1.0), "horizon: must be finite and non-negative"),
            (dict(horizon=np.nan), "horizon: must be finite and non-negative"),
            (dict(dt=0.0), "dt: must be finite and strictly positive"),
        ],
        ids=["negative_horizon", "nan_horizon", "zero_dt"],
    )
    def test_step_and_horizon_ranges(self, changes, problem):
        assert problem in violations(high_demand_preset(), **changes)

    def test_residual_drop_bounded_by_drop_factor(self, fd):
        problems = violations(high_demand_preset(), lc=LcConfig(residual_drop=0.5))
        assert any("residual_drop" in p for p in problems)

    def test_rule_based_needs_incident(self, fd):
        problems = violations(high_demand_preset(), incident=None, horizon=0.5)
        assert any("incident" in p for p in problems)

    @pytest.mark.parametrize(
        "changes, fields",
        [
            # The step was rounded: a 1.1 s control period ran as 1.4 s, and
            # the run stopped at 15.0033 min.
            (dict(dt=0.7, control_period=1.1, horizon=0.25), ("dt:", "control_period:")),
            # Only 30 min of the 80 min incident were simulated.
            (dict(horizon=0.5), ("horizon:",)),
            # The rule-based controller ran without an incident.
            (dict(incident=None), ("controller:",)),
        ],
        ids=["rounded_steps", "horizon_before_incident_end", "rule_without_incident"],
    )
    def test_reinterpreted_scenarios_rejected_when_built(self, changes, fields):
        problems = violations(high_demand_preset(), **changes)
        for field in fields:
            assert any(p.startswith(field) for p in problems), (field, problems)

    def test_closure_that_holds_no_step_rejected(self):
        # 3 s to 4 s as a file's minutes give them: step 3 lies one ulp below
        # the start and step 4 on the end, so no step of the run is closed.
        base, short = high_demand_preset(), dict(controller="no_control", horizon=5.0 / 60.0)
        closure = IncidentSchedule(start=0.05 / 60.0, end=4.0 / 60.0 / 60.0)
        assert violations(base, incident=closure, **short) == [
            "incident: no step of dt = 1 s lies in the closure"
        ]
        # Every one-second closure from whole seconds 1 to 299 s is rejected
        # exactly when no step of the grid lies in it.
        grid = np.arange(301) * base.dt_hours  # the run's times
        rejected = 0
        for second in range(1, 300):
            start, end = second / 60.0 / 60.0, (second + 1) / 60.0 / 60.0
            closure = IncidentSchedule(start=start, end=end)
            if np.searchsorted(grid, start) == np.searchsorted(grid, end):
                rejected += 1
                assert violations(base, incident=closure, **short)[0].startswith("incident:")
            else:
                replace(base, incident=closure, **short)
        assert rejected == 41

    def test_name_fits_its_longest_output_file_name(self):
        # <name>_metrics.json must fit in 255 bytes: 242 bytes of name do,
        # 243 do not, counted in UTF-8 ("é" takes two).
        base = high_demand_preset()
        assert replace(base, name="a" * 242).name == "a" * 242
        assert replace(base, name="é" * 121).name == "é" * 121
        for name, size in (("a" * 243, 243), ("a" * 250, 250), ("é" * 122, 244)):
            assert violations(base, name=name) == [
                f"name: {size} bytes in UTF-8, over the 242 that keep "
                "<name>_metrics.json within a 255-byte file name"
            ]


_FD = high_demand_preset().fd

# A valid keyword set for each value object with numeric fields.
VALID_KWARGS = {
    FundamentalDiagram: asdict(_FD),
    NetworkGeometry: dict(num_sections=6, section_length=1.6, upstream_zone_length=4.8),
    DemandProfile: dict(times=(0.0, 0.5), flows=(7000.0, 6000.0)),
    VslRuleConfig: dict(derating=0.8, switch_margin=0.1, quantize_step=5.0),
    LcConfig: dict(advisory_distance_per_lane=800.0, residual_drop=0.0),
    MetricConfig: dict(
        stop_speed=5.0,
        resume_speed=10.0,
        seed_interval=10.0,
        density_floor=1.0,
        emission_table=((100.0, 150.0), (0.0, 300.0)),
    ),
    IncidentSchedule: dict(start=0.1, end=1.0, lanes_closed=1),
    BoundInputs: dict(
        fd=_FD,
        num_sections=2,
        section_length=1.6,
        zone_limit=20.0,
        upstream_density=50.0,
        densities=(50.0, 50.0),
    ),
    FdObservation: dict(density=50.0, flow=5000.0),
}


def _spoil(value, bad):
    """``value`` with its last number (the last element of a sequence, the
    last number of the last pair) replaced by ``bad``."""
    if isinstance(value, tuple):
        return value[:-1] + (_spoil(value[-1], bad),)
    return bad


NON_FINITE_CASES = [
    (cls, key, bad)
    for cls, kwargs in VALID_KWARGS.items()
    for key, value in kwargs.items()
    if key != "fd"
    for bad in (float("nan"), float("inf"))
]


class TestNonFiniteRejectedWhenBuilt:
    @pytest.mark.parametrize(
        "cls, key, bad",
        NON_FINITE_CASES,
        ids=[f"{c.__name__}.{k}-{b}" for c, k, b in NON_FINITE_CASES],
    )
    def test_value_objects(self, cls, key, bad):
        kwargs = VALID_KWARGS[cls]
        cls(**kwargs)
        with pytest.raises(ValueError):
            cls(**{**kwargs, key: _spoil(kwargs[key], bad)})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_vsl_max_flow(self, bad):
        with pytest.raises(ValueError):
            vsl_max_flow(bad, _FD)
        with pytest.raises(ValueError):
            vsl_max_flow(np.array([20.0, bad]), _FD)


class TestSerialization:
    def test_round_trip_is_value_identical(self, tmp_path):
        for factory in PRESETS.values():
            scenario = factory()
            path = tmp_path / f"{scenario.name}.json"
            save_scenario(scenario, path)
            loaded = load_scenario(path)
            assert loaded == scenario
            assert loaded.to_dict() == scenario.to_dict()

    def test_reemitted_file_is_byte_identical(self, tmp_path):
        scenario = high_demand_preset()
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_scenario(scenario, first)
        save_scenario(load_scenario(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ScenarioValidationError, match="cannot read"):
            load_scenario(tmp_path / "nope.json")

    def test_empty_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ScenarioValidationError, match="not valid JSON"):
            load_scenario(path)

    def test_invalid_components_collected(self):
        data = high_demand_preset().to_dict()
        data["fundamental_diagram"]["capacity"] = -1.0
        data["geometry"]["num_sections"] = 0
        with pytest.raises(ScenarioValidationError) as err:
            scenario_from_dict(data)
        text = str(err.value)
        assert "fundamental_diagram" in text
        assert "geometry" in text

    def test_content_hash_stable(self):
        assert high_demand_preset().content_hash() == high_demand_preset().content_hash()
        assert (
            high_demand_preset().content_hash()
            != moderate_demand_preset().content_hash()
        )


class TestScenarioAnalytics:
    def test_phase1_zone_limit(self):
        assert high_demand_preset().phase1_zone_limit() == pytest.approx(20.0)

    def test_rho_star_and_window(self):
        s = high_demand_preset()
        assert s.rho_star() == pytest.approx(48.0)
        t_s, t_e = s.metrics_window()
        assert t_s == pytest.approx(0.5)
        assert t_e == pytest.approx(80.0 / 60.0)

    def test_no_switch_without_incident(self):
        s = replace(high_demand_preset(), controller="no_control", incident=None)
        assert s.switch_time() is None

    def test_bound_inputs_default_free_flow(self):
        inputs = high_demand_preset().bound_inputs()
        assert inputs.zone_limit == pytest.approx(20.0)
        assert np.allclose(inputs.densities, 70.0)
        assert inputs.upstream_density == pytest.approx(70.0)

    def test_bound_inputs_overrides(self):
        inputs = high_demand_preset().bound_inputs(
            zone_limit=25.0, upstream_density=60.0, densities=np.full(6, 55.0)
        )
        assert inputs.zone_limit == 25.0
        assert inputs.upstream_density == 60.0
        assert np.allclose(inputs.densities, 55.0)

    def test_closed_lanes_and_advisory_distance_change_no_simulated_number(self, tmp_path):
        # The closure discharges at downstream_capacity whatever lanes_closed,
        # and advisories act only through residual_drop: three closed lanes and
        # 50 m per lane change the advisory event and the hash, nothing else.
        base = high_demand_preset()
        variant = replace(
            base,
            incident=replace(base.incident, lanes_closed=3),
            lc=replace(base.lc, advisory_distance_per_lane=50.0),
        )
        runs = [(s, simulate_scenario(s)) for s in (base, variant)]
        (_, a), (_, b) = runs
        assert a.densities.tobytes() == b.densities.tobytes()
        bodies = []
        for i, (s, trace) in enumerate(runs):
            trace.to_csv(tmp_path / f"{i}.csv", comment=s.content_hash())
            bodies.append((tmp_path / f"{i}.csv").read_bytes().split(b"\n", 1)[1])
        assert bodies[0] == bodies[1]
        assert evaluate_trace(base, a) == evaluate_trace(variant, b)
        x, y = (dict(vars(s.bound_inputs())) for s in (base, variant))
        assert x.pop("densities").tobytes() == y.pop("densities").tobytes() and x == y
        assert base.switch_time() == variant.switch_time()
        events = [trace_events(s, trace) for s, trace in runs]
        changed = [(e, f) for e, f in zip(*events) if e != f]
        t0 = base.incident.start
        assert changed == [
            (
                (t0, "lane_change_advisories distance_m=800"),
                (t0, "lane_change_advisories distance_m=150"),
            )
        ]
        assert (base.content_hash(), variant.content_hash()) == ("e88d75b52af7", "bbb6e90062f4")


def _mini(fd):
    return Scenario(
        name="mini",
        fd=fd,
        geometry=NetworkGeometry(3, 1.6, 1.2),
        demand=DemandProfile.constant(7000.0),
        incident=IncidentSchedule(start=2.0 / 60.0, end=12.0 / 60.0),
        controller="rule_based",
        vsl=VslRuleConfig(derating=0.8, switch_margin=0.02, quantize_step=5.0),
        lc=None,
        horizon=15.0 / 60.0,
        metrics=MetricConfig(seed_interval=30.0),
    )


class TestSweep:
    def test_apply_value_variants(self, fd):
        base = _mini(fd)
        assert apply_sweep_value(base, "upstream_zone_length", 2.0).geometry.upstream_zone_length == 2.0
        assert apply_sweep_value(base, "demand", 5000.0).demand.at(0.0) == 5000.0
        assert apply_sweep_value(base, "derating", 0.9).vsl.derating == 0.9
        with pytest.raises(ValueError):
            apply_sweep_value(base, "dt", 2.0)
        with pytest.raises(ScenarioValidationError):
            apply_sweep_value(base, "lc_residual_drop", 0.05)  # no lane change config

    def test_single_value_sweep_matches_plain_run(self, fd):
        base = _mini(fd)
        spec = SweepSpec(base=base, variable="upstream_zone_length", values=(1.2,))
        rows = run_sweep(spec)
        assert len(rows) == 1
        assert rows[0].status == "ok"
        scenario = apply_sweep_value(base, "upstream_zone_length", 1.2)
        report = evaluate_trace(scenario, simulate_scenario(scenario))
        assert rows[0].metrics == report
        assert rows[0].bound is not None
        assert rows[0].bound.feasible

    def test_invalid_value_marks_row_failed(self, fd):
        spec = SweepSpec(base=_mini(fd), variable="derating", values=(0.8, 1.5))
        rows = run_sweep(spec)
        assert [r.status for r in rows] == ["ok", "failed"]
        assert "derating" in rows[1].error

    def test_row_failing_after_its_simulation(self, fd, tmp_path, monkeypatch):
        spec = SweepSpec(
            base=_mini(fd), variable="upstream_zone_length", values=(1.6, 0.8, 1.2)
        )
        clean, faulted = tmp_path / "clean", tmp_path / "faulted"
        clean.mkdir()
        faulted.mkdir()
        sweep_rows_to_csv(run_sweep(spec, trace_dir=clean), clean / "rows.csv")

        real_evaluate = vslsim.sweep.evaluate_trace

        def fails_at_0_8(scenario, trace):
            if scenario.geometry.upstream_zone_length == 0.8:
                raise ArithmeticError("metrics failed")
            return real_evaluate(scenario, trace)

        monkeypatch.setattr(vslsim.sweep, "evaluate_trace", fails_at_0_8)
        rows = run_sweep(spec, trace_dir=faulted)
        sweep_rows_to_csv(rows, faulted / "rows.csv")
        assert [r.status for r in rows] == ["ok", "failed", "ok"]
        assert (rows[1].error, rows[1].error_type) == ("metrics failed", "ArithmeticError")
        lines = {d: (d / "rows.csv").read_text().splitlines() for d in (clean, faulted)}
        for i in (0, 2):
            assert lines[faulted][1 + i] == lines[clean][1 + i]
            name = f"{rows[i].name}_trace.csv"
            assert (faulted / name).read_bytes() == (clean / name).read_bytes()

    def test_rows_keep_input_order_and_csv_is_deterministic(self, fd, tmp_path):
        spec = SweepSpec(
            base=_mini(fd), variable="upstream_zone_length", values=(1.6, 0.8, 1.2)
        )
        rows = run_sweep(spec)
        assert [r.value for r in rows] == [1.6, 0.8, 1.2]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        sweep_rows_to_csv(rows, a)
        sweep_rows_to_csv(run_sweep(spec), b)
        assert a.read_bytes() == b.read_bytes()

    def test_spec_validation(self, fd):
        with pytest.raises(ValueError):
            SweepSpec(base=_mini(fd), variable="upstream_zone_length", values=())
        with pytest.raises(ValueError):
            SweepSpec(base=_mini(fd), variable="nope", values=(1.0,))
        # Two rows of one run name would write one trace file.
        with pytest.raises(ScenarioValidationError) as err:
            SweepSpec(base=_mini(fd), variable="upstream_zone_length", values=(1.6, 1.6))
        name = f"{_mini(fd).name}_L0_1.6"
        assert err.value.violations == [f"values[1]: 1.6 gives the run name {name} of values[0]"]

    def test_spec_output_file_names_fit(self, fd):
        # The summary <name>_<variable>_sweep.csv must fit in 255 bytes.
        base = replace(_mini(fd), name="b" * 224)
        assert SweepSpec(base=base, variable="upstream_zone_length", values=(1.6,))
        with pytest.raises(ScenarioValidationError) as err:
            SweepSpec(
                base=replace(base, name="b" * 230), variable="upstream_zone_length", values=(1.6,)
            )
        assert err.value.violations == [
            "scenario.name: the summary file name <name>_upstream_zone_length_sweep.csv "
            "has 261 bytes in UTF-8, over 255"
        ]
        # Each row's run name must itself be a scenario name: 236 + len("_d_7000")
        # = 243 bytes is one too many, though <run name>_trace.csv would fit.
        base = replace(_mini(fd), name="c" * 236)
        with pytest.raises(ScenarioValidationError) as err:
            SweepSpec(base=base, variable="demand", values=(700.0, 7000.0))
        assert err.value.violations == [
            "values[1]: 7000.0 gives a run name of 243 bytes in UTF-8, over the 242 "
            "that keep its output file names within 255 bytes"
        ]

    def test_load_sweep_spec_from_preset(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "preset": "high_demand",
                    "variable": "upstream_zone_length",
                    "values": [0.0, 2.4],
                }
            )
        )
        spec = load_sweep_spec(path)
        assert spec.base.name == "high_demand"
        assert spec.values == (0.0, 2.4)

    def test_load_sweep_spec_rejects_unknown_preset(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"preset": "nope", "variable": "demand", "values": [1]}))
        with pytest.raises(ScenarioValidationError, match="preset"):
            load_sweep_spec(path)


class TestStrictSchema:
    def _doc(self):
        return high_demand_preset().to_dict()

    def _violations(self, doc):
        with pytest.raises(ScenarioValidationError) as err:
            scenario_from_dict(doc)
        return err.value.violations

    def test_defaults_come_from_the_dataclasses(self, fd):
        doc = self._doc()
        minimal = {
            key: doc[key] for key in ("fundamental_diagram", "geometry", "demand")
        }
        minimal["controller"] = "no_control"
        expected = Scenario(
            fd=fd,
            geometry=NetworkGeometry(6, 1.6, 4.8),
            demand=DemandProfile.constant(7000.0),
            controller="no_control",
        )
        assert scenario_from_dict(minimal) == expected
        assert expected.name == "scenario" and expected.incident is None

    def test_every_violation_collected_with_paths(self):
        doc = self._doc()
        doc["vsl"]["deratng"] = 0.8
        doc["geometry"]["num_sections"] = "6"
        doc["demand"]["flows"] = [7000.0, float("nan")]
        doc["metrics"]["emission_table"] = [[20.0, 300.0], [50.0]]
        del doc["fundamental_diagram"]["capacity"]
        problems = self._violations(doc)
        assert "vsl.deratng: unknown key" in problems
        assert "geometry.num_sections: expected a number" in problems
        assert "demand.flows[1]: must be a finite number" in problems
        assert "metrics.emission_table[1]: expected a pair of numbers" in problems
        assert "fundamental_diagram.capacity: missing" in problems

    def test_null_only_where_the_default_is_none(self):
        doc = self._doc()
        doc["incident"] = None
        doc["lane_change"] = None
        doc["controller"] = "no_control"
        scenario = scenario_from_dict(doc)
        assert scenario.incident is None and scenario.lc is None
        doc["vsl"] = None
        doc["dt_s"] = None
        problems = self._violations(doc)
        assert "vsl: expected an object" in problems
        assert "dt_s: expected a number" in problems

    def test_booleans_and_strings_are_not_numbers(self):
        doc = self._doc()
        doc["dt_s"] = True
        doc["horizon_min"] = "90"
        problems = self._violations(doc)
        assert "dt_s: expected a number" in problems
        assert "horizon_min: expected a number" in problems

    @pytest.mark.parametrize(
        "path, value, problem",
        [
            (("name",), 5, "name: expected a string"),
            (("demand", "flows"), 5, "demand.flows: expected a list"),
            # Too large for a float: math.isfinite overflows on it.
            (("horizon_min",), 10**400, "horizon_min: must be a finite number"),
        ],
        ids=["name_not_string", "flows_not_list", "int_beyond_float"],
    )
    def test_value_of_the_wrong_kind_named(self, path, value, problem):
        doc = self._doc()
        *parents, key = path
        section = doc
        for parent in parents:
            section = section[parent]
        section[key] = value
        assert problem in self._violations(doc)

    def test_integral_float_accepted_for_integers(self):
        doc = self._doc()
        doc["geometry"]["num_sections"] = 6.0
        assert scenario_from_dict(doc).geometry.num_sections == 6

    def test_single_point_emission_table_rejected(self):
        doc = self._doc()
        doc["metrics"]["emission_table"] = [[50.0, 300.0]]
        assert any("two points" in p for p in self._violations(doc))

    def test_emission_table_naming_a_speed_twice_rejected(self, tmp_path, capsys):
        # Interpolation would read the pair as a step: 100 g/km just below
        # 50 km/h and 300 at 50.
        table = [[50.0, 300.0], [50.0, 100.0], [100.0, 200.0]]
        with pytest.raises(ValueError, match="speed 50 km/h more than once"):
            MetricConfig(emission_table=tuple(map(tuple, table)))
        doc = self._doc()
        doc["metrics"]["emission_table"] = table
        problem = "metrics: emission table names the speed 50 km/h more than once"
        assert problem in self._violations(doc)
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(doc))
        assert cli_dispatch(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert problem in capsys.readouterr().err

    def test_emission_table_with_a_negative_rate_rejected(self, tmp_path, capsys):
        # Interpolation would report a negative CO2 per vehicle-km; a rate of
        # 0 stays valid.
        table = [[0.0, 100.0], [100.0, -50.0]]
        with pytest.raises(ValueError, match="rate -50 g/km at 100 km/h is negative"):
            MetricConfig(emission_table=tuple(map(tuple, table)))
        assert MetricConfig(emission_table=((0.0, 100.0), (100.0, 0.0))).rate_fn()(100.0) == 0.0
        doc = self._doc()
        doc["metrics"]["emission_table"] = table
        problem = "metrics: emission table rate -50 g/km at 100 km/h is negative"
        assert problem in self._violations(doc)
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(doc))
        assert cli_dispatch(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert problem in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name", ["", "a/b", "..\\x", "a\x00b", "tab\there", "a\ud800b", "\udcff"]
    )
    def test_unsafe_names_rejected(self, name):
        problems = violations(high_demand_preset(), name=name)
        assert any(p.startswith("name:") for p in problems)

    def test_plain_names_with_commas_and_quotes_accepted(self):
        assert replace(high_demand_preset(), name='a,"b" c').name == 'a,"b" c'

    def test_steps_must_divide_horizon_and_control_period(self):
        base = high_demand_preset()
        assert replace(base, dt=0.5, control_period=10.0).dt == 0.5
        assert any("horizon" in p for p in violations(base, dt=0.7))
        short = dict(dt=0.7, horizon=84.0 / 60.0)
        assert replace(base, **short, control_period=1.4).control_period == 1.4
        assert any(
            "control_period" in p for p in violations(base, **short, control_period=1.1)
        )
        assert any("control_period" in p for p in violations(base, control_period=0.5))


NAME_CHARACTERS = st.characters(
    categories=("L", "N", "P", "S", "Zs"), exclude_characters="/\\"
)


@st.composite
def scenario_documents(draw):
    """Random valid scenario files in JSON units."""
    unit = st.floats(0.0, 1.0)
    capacity = draw(st.floats(3000.0, 9000.0))
    v_f = draw(st.floats(60.0, 130.0))
    w = draw(st.floats(10.0, 45.0))
    fd = FundamentalDiagram.from_triangle(
        capacity=capacity,
        downstream_capacity=capacity * (0.5 + 0.5 * draw(unit)),
        free_flow_speed=v_f,
        backprop_speed=w,
        outflow_backprop_speed=w * (0.3 + 0.7 * draw(unit)),
        capacity_drop_factor=draw(st.floats(0.02, 0.4)),
    )
    dt = draw(st.sampled_from([0.5, 1.0, 2.0, 5.0]))
    horizon_min = draw(st.integers(20, 120))
    steps = round(horizon_min * 60.0 / dt)
    incident = draw(
        st.none()
        | st.builds(
            lambda a, b, lanes: {
                "start_min": a,
                "end_min": a + 1.0 + b * (horizon_min - a - 2.0),
                "lanes_closed": lanes,
            },
            st.floats(0.0, 10.0),
            unit,
            st.integers(1, 3),
        )
    )
    controller = "no_control" if incident is None else draw(st.sampled_from(CONTROLLER_KINDS))
    drop = fd.capacity_drop_factor
    times = sorted(draw(st.sets(st.integers(1, horizon_min), max_size=3)))
    flows = draw(st.lists(st.floats(0.0, 9000.0), min_size=len(times) + 1, max_size=len(times) + 1))
    stop = draw(st.floats(0.0, 20.0))
    table = draw(
        st.none()
        | st.lists(
            st.tuples(st.floats(1.0, 130.0), st.floats(50.0, 900.0)).map(list),
            min_size=2,
            max_size=4,
            unique_by=lambda point: point[0],  # a repeated speed is invalid
        )
    )
    zone = draw(st.sampled_from([0.0]) | st.floats(0.3, 5.0))
    return {
        # Letters, digits, punctuation, symbols and spaces: no line separator.
        "name": draw(st.text(NAME_CHARACTERS, min_size=1, max_size=12)),
        "fundamental_diagram": {
            f: getattr(fd, f) for f in FundamentalDiagram.__dataclass_fields__
        },
        "geometry": {
            "num_sections": draw(st.integers(1, 8)),
            "section_length_km": draw(st.floats(0.3, 3.0)),
            "upstream_zone_length_km": zone,
        },
        "demand": {"times_min": [0.0] + [float(t) for t in times], "flows": flows},
        "incident": incident,
        "controller": controller,
        "vsl": {
            "derating": draw(st.floats(0.05, 1.0)),
            "switch_margin_min": draw(st.floats(0.0, 30.0)),
            "quantize_step": draw(st.floats(0.0, 10.0)),
        },
        "lane_change": draw(
            st.none()
            | st.builds(
                lambda d, r: {"advisory_distance_per_lane_m": d, "residual_drop": r},
                st.floats(1.0, 2000.0),
                st.floats(0.0, drop),
            )
        ),
        "horizon_min": float(horizon_min),
        "dt_s": dt,
        # Up to three horizons: a period past the horizon calls the controller once.
        "control_period_s": dt * draw(st.integers(1, 60) | st.integers(1, 3 * steps)),
        "metrics": {
            "stop_speed": stop,
            "resume_speed": stop + draw(st.floats(0.1, 20.0)),
            "seed_interval_s": draw(st.floats(1.0, 600.0)),
            "density_floor": draw(st.floats(0.0, 5.0)),
            "emission_table": table,
        },
    }


UNKNOWN_KEYS = ["seed", "repetitions", "lanes_total", "deratng", "variabel"]


class TestRoundTripProperty:
    @settings(max_examples=80, deadline=None)
    @given(doc=scenario_documents())
    def test_parse_emit_parse_is_identity(self, doc, tmp_path_factory):
        scenario = scenario_from_dict(doc)
        again = scenario_from_dict(scenario.to_dict())
        assert again == scenario
        folder = tmp_path_factory.mktemp("round_trip")
        save_scenario(scenario, folder / "a.json")
        save_scenario(load_scenario(folder / "a.json"), folder / "b.json")
        assert (folder / "a.json").read_bytes() == (folder / "b.json").read_bytes()

    @settings(max_examples=80, deadline=None)
    @given(doc=scenario_documents(), data=st.data())
    def test_injected_key_rejected_with_its_path(self, doc, data):
        objects = [("", doc)] + [(k, v) for k, v in doc.items() if isinstance(v, dict)]
        path, target = data.draw(st.sampled_from(objects))
        key = data.draw(st.sampled_from(UNKNOWN_KEYS))
        target[key] = 1
        with pytest.raises(ScenarioValidationError) as err:
            scenario_from_dict(doc)
        dotted = f"{path}.{key}" if path else key
        assert err.value.violations == [f"{dotted}: unknown key"]


def hours_between(lo: float, hi: float):
    """Floats strictly between ``lo`` and ``hi``: hypothesis's own, which
    favour round values, or uniform ones, whose low bits are random."""
    uniform = st.integers(1, 2**53 - 1).map(lambda m: lo + (hi - lo) * (m / 2**53))
    return st.floats(lo, hi, exclude_min=True, exclude_max=True) | uniform.filter(
        lambda h: lo < h < hi
    )


@st.composite
def python_hours(draw):
    """A random file's scenario and new hour values for it, arbitrary floats
    as Python code may give them: ``(scenario, changes, hours)``, where
    ``changes`` is for ``dataclasses.replace`` and ``hours`` lists each new
    hour value under its file key, in the file's order. The closure lasts
    over two steps, so it holds one."""
    scenario = scenario_from_dict(draw(scenario_documents()))
    horizon = draw(st.integers(60, 7200)) * scenario.dt / 3600.0
    n = len(scenario.demand.times) - 1
    times = sorted(draw(st.lists(hours_between(0.0, 2.0), min_size=n, max_size=n, unique=True)))
    margin = draw(hours_between(0.0, 1.0))
    changes = {
        "demand": replace(scenario.demand, times=(0.0, *times)),
        "vsl": replace(scenario.vsl, switch_margin=margin),
        "horizon": horizon,
    }
    hours = [(f"demand.times_min[{i}]", t) for i, t in enumerate(changes["demand"].times)]
    if scenario.incident is not None:
        start = draw(hours_between(0.0, horizon / 2.0))
        end = draw(hours_between(start + 2 * scenario.dt_hours, horizon))
        changes["incident"] = replace(scenario.incident, start=start, end=end)
        hours += [("incident.start_min", start), ("incident.end_min", end)]
    hours += [("vsl.switch_margin_min", margin), ("horizon_min", horizon)]
    return scenario, changes, hours


class TestHoursTheFileCarries:
    """A scenario holds hours and its file minutes: building one rejects an
    hour value that the file's minutes would not give back."""

    @settings(max_examples=150, deadline=None)
    @given(drawn=python_hours())
    def test_every_built_scenario_reloads_equal(self, drawn, tmp_path_factory):
        scenario, changes, hours = drawn
        lost = [(key, h) for key, h in hours if (h * 60.0) / 60.0 != h]
        if lost:
            problems = violations(scenario, **changes)
            assert [p.split(":")[0] for p in problems] == [key for key, _ in lost]
            for problem, (_, h) in zip(problems, lost):
                assert problem.endswith(f"reads back as {(h * 60.0) / 60.0!r}")
            return
        built = replace(scenario, **changes)
        path = tmp_path_factory.mktemp("hours") / "scenario.json"
        save_scenario(built, path)
        loaded = load_scenario(path)
        assert loaded == built
        assert loaded.content_hash() == built.content_hash()

    def test_message_names_field_and_reloaded_value(self):
        # A closure ending at 608.5 s, given as 608.5 / 3600 h.
        base = high_demand_preset()
        end = 608.5 / 3600.0
        problems = violations(base, incident=IncidentSchedule(start=0.1, end=end))
        assert problems == [
            "incident.end_min: 0.16902777777777778 is written to the file as "
            "10.141666666666666, which reads back as 0.16902777777777775"
        ]
        # The same instant as a file gives it builds.
        replace(base, incident=IncidentSchedule(start=0.1, end=608.5 / 60.0 / 60.0))


class TestSweepSpecFile:
    def _write(self, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_unknown_key_and_nan_value_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            {"preset": "high_demand", "variabel": "demand", "values": [1.0, float("nan")]},
        )
        with pytest.raises(ScenarioValidationError) as err:
            load_sweep_spec(path)
        assert err.value.violations == [
            "variabel: unknown key",
            "values[1]: must be a finite number",
        ]

    def test_nested_scenario_paths_are_dotted(self, tmp_path):
        doc = high_demand_preset().to_dict()
        doc["vsl"]["deratng"] = 0.8
        path = self._write(tmp_path, {"scenario": doc, "values": [1.0]})
        with pytest.raises(ScenarioValidationError, match="scenario.vsl.deratng"):
            load_sweep_spec(path)
        doc = high_demand_preset().to_dict()
        doc["dt_s"] = 120
        path = self._write(tmp_path, {"scenario": doc, "values": [1.0]})
        with pytest.raises(ScenarioValidationError) as err:
            load_sweep_spec(path)
        assert [v.split(":")[0] for v in err.value.violations] == [
            "scenario.dt",
            "scenario.control_period",
        ]

    def test_preset_and_scenario_conflict(self, tmp_path):
        doc = high_demand_preset().to_dict()
        path = self._write(tmp_path, {"preset": "high_demand", "scenario": doc, "values": [1.0]})
        with pytest.raises(ScenarioValidationError, match="conflicts with preset"):
            load_sweep_spec(path)

    def test_base_is_required(self, tmp_path):
        path = self._write(tmp_path, {"values": [1.0]})
        with pytest.raises(ScenarioValidationError, match="preset or scenario: missing"):
            load_sweep_spec(path)

    def test_variable_defaults_to_zone_length(self, tmp_path):
        path = self._write(tmp_path, {"preset": "high_demand", "values": [2.4]})
        assert load_sweep_spec(path).variable == "upstream_zone_length"


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size, runs serially."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


class TestSweepWorkersAndCsv:
    # Deratings above 1 fail at validation; 0.6, 0.7 and 0.8 build and run.
    @pytest.mark.parametrize(
        "workers,cpus,values,expected",
        [
            (8, 2, (0.6, 0.7, 1.5, 0.8), [2]),
            (8, 16, (0.6, 0.7, 1.5, 0.8), [3]),
            (2, 16, (0.6, 0.7, 1.5, 0.8), [2]),
            (1, 16, (0.6, 0.7, 1.5, 0.8), []),
            # One value or none to run: no pool, whatever the workers and CPUs.
            (8, 16, (0.7, 1.5, 2.0), []),
            (8, 16, (1.5, 2.0, 3.0), []),
        ],
    )
    def test_pool_clamped_to_values_and_cpus(
        self, fd, monkeypatch, workers, cpus, values, expected
    ):
        import concurrent.futures
        import vslsim.sweep as sweep

        # run_sweep imports the pool class where it starts one.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        spec = SweepSpec(base=_mini(fd), variable="derating", values=values)
        rows = run_sweep(spec, workers)
        assert _RecordingPool.sizes == expected
        assert [r.status for r in rows] == ["ok" if v <= 1 else "failed" for v in values]

    def test_workers_below_one_rejected(self, fd):
        spec = SweepSpec(base=_mini(fd), variable="derating", values=(1.5,))
        with pytest.raises(ValueError, match="max_workers"):
            run_sweep(spec, 0)

    def test_pooled_sweep_writes_the_serial_bytes(self, fd, tmp_path, monkeypatch):
        import vslsim.sweep as sweep

        # Two CPUs even on a one-CPU machine, so two workers start a real pool.
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
        # 0 km steps behind a pass-through cell in the zone batch; -1 km fails to build.
        values = (0.0, 0.8, -1.0, 1.2, 1.6)
        spec = SweepSpec(base=_mini(fd), variable="upstream_zone_length", values=values)
        written = {}
        for workers in (1, 2):
            out = tmp_path / f"workers_{workers}"
            out.mkdir()
            rows = run_sweep(spec, workers, trace_dir=out)
            assert [r.status for r in rows] == ["ok", "ok", "failed", "ok", "ok"]
            sweep_rows_to_csv(rows, out / "summary.csv")
            written[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(written[1]) == 5  # the summary and four traces
        assert written[2] == written[1]

    def test_bound_times_past_the_float_range_fail_the_row(self, fd, tmp_path):
        # vslsim bound rejects 1e308 km, whose clearing time overflows; its row
        # fails the same way and leaves the 1.6 km row's bytes as they are.
        written = []
        for values in ((1.6,), (1.6, 1e308)):
            out = tmp_path / f"{len(values)}_values"
            out.mkdir()
            spec = SweepSpec(base=_mini(fd), variable="upstream_zone_length", values=values)
            rows = run_sweep(spec, trace_dir=out)
            sweep_rows_to_csv(rows, out / "summary.csv")
            written.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert [(r.status, r.error_type) for r in rows] == [
            ("ok", None),
            ("failed", "BoundInputError"),
        ]
        assert rows[1].error == "zone_length gives a clearing time past the float range"
        alone, both = written
        assert both.keys() == alone.keys()  # the summary and the 1.6 km trace
        assert both["mini_L0_1.6_trace.csv"] == alone["mini_L0_1.6_trace.csv"]
        summary = both["summary.csv"].splitlines()
        assert summary[:2] == alone["summary.csv"].splitlines()
        assert summary[2].startswith(b"upstream_zone_length,1e+308,mini_L0_1e+308,failed,")

    def test_failed_rows_named_like_ok_rows(self, fd):
        spec = SweepSpec(base=_mini(fd), variable="derating", values=(0.8, 1.5))
        rows = run_sweep(spec)
        assert [r.name for r in rows] == ["mini_alpha_0.8", "mini_alpha_1.5"]
        assert rows[1].error_type == "ValueError"

    def test_csv_well_formed_for_any_name_and_error(self, fd, tmp_path):
        import csv

        base = replace(_mini(fd), name='a,"b"')
        rows = run_sweep(SweepSpec(base=base, variable="derating", values=(0.8, 1.5)))
        path = tmp_path / "sweep.csv"
        sweep_rows_to_csv(rows, path)
        with open(path, encoding="utf-8", newline="") as fh:
            read = list(csv.DictReader(fh))
        assert len(read) == 2
        for record in read:
            assert len(record) == 17 and None not in record
        assert read[0]["name"] == 'a,"b"_alpha_0.8'
        assert read[1]["name"] == 'a,"b"_alpha_1.5'
        assert read[1]["error"] == rows[1].error
        assert read[1]["error_type"] == "ValueError"
        assert read[0]["verdict"] == rows[0].bound.label
