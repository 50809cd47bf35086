"""Command line dispatch, exit codes, and emitted files."""

import csv
import json

import pytest

from helpers import sample_fd_observations
import numpy as np

from vslsim import high_demand_preset, save_scenario
from vslsim.cli import cli_dispatch


def write_mini_scenario(tmp_path, **overrides):
    from dataclasses import replace

    from vslsim import (
        DemandProfile,
        IncidentSchedule,
        MetricConfig,
        NetworkGeometry,
        Scenario,
        VslRuleConfig,
    )

    scenario = Scenario(
        name="mini_cli",
        fd=high_demand_preset().fd,
        geometry=NetworkGeometry(3, 1.6, 1.2),
        demand=DemandProfile.constant(7000.0),
        incident=IncidentSchedule(start=2.0 / 60.0, end=12.0 / 60.0),
        controller="rule_based",
        vsl=VslRuleConfig(derating=0.8, switch_margin=0.02, quantize_step=5.0),
        lc=None,
        horizon=15.0 / 60.0,
        metrics=MetricConfig(seed_interval=30.0),
    )
    scenario = replace(scenario, **overrides)
    path = tmp_path / f"{scenario.name}.json"
    save_scenario(scenario, path)
    return path


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert cli_dispatch([]) == 1

    def test_unknown_command_is_usage_error(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_presets_lists_bundled_scenarios(self, capsys):
        assert cli_dispatch(["presets"]) == 0
        out = capsys.readouterr().out
        assert "high_demand" in out
        assert "moderate_demand" in out


class TestBound:
    def test_bound_on_preset_prints_lower_bound(self, capsys):
        assert cli_dispatch(["bound", "high_demand"]) == 0
        out = capsys.readouterr().out
        record = json.loads(out.strip().splitlines()[-1])
        assert record["lower_bound_km"] == pytest.approx(1.762, abs=1e-3)
        assert record["verdict"] == "absorbed"
        assert record["feasible"] is True

    def test_bound_with_overrides(self, capsys):
        assert (
            cli_dispatch(
                ["bound", "high_demand", "--v0", "20", "--zone-length", "1.2"]
            )
            == 0
        )
        record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert record["verdict"] == "shockwave_risk"

    def test_infeasible_command_is_validation_error(self, capsys):
        code = cli_dispatch(
            ["bound", "high_demand", "--v0", "62", "--upstream-density", "70"]
        )
        assert code == 2
        assert "no finite zone length" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--densities", "nan,40,40,40,40,40"),
            ("--zone-length", "nan"),
            ("--zone-length", "inf"),
            ("--densities", "1,2,x"),
            ("--densities", "1,2"),
            ("--v0", "nan"),
            ("--zone-length", "-1"),
            ("--upstream-density", "inf"),
        ],
    )
    def test_out_of_domain_flag_is_validation_error(self, capsys, flag, value):
        assert cli_dispatch(["bound", "high_demand", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"validation error: {flag}: ")


class TestRun:
    def test_run_writes_trace_and_metrics(self, tmp_path, capsys):
        path = write_mini_scenario(tmp_path)
        assert cli_dispatch(["run", str(path), "--out", str(tmp_path)]) == 0
        trace = tmp_path / "mini_cli_trace.csv"
        metrics = tmp_path / "mini_cli_metrics.json"
        assert trace.exists() and metrics.exists()
        record = json.loads(metrics.read_text())
        assert record["scenario"] == "mini_cli"
        assert record["metrics"]["vehicles_counted"] > 0
        first = trace.read_text().splitlines()[0]
        assert first.startswith("# scenario=mini_cli hash=")

    def test_zero_demand_reported_cleanly(self, tmp_path, capsys):
        from vslsim import DemandProfile

        path = write_mini_scenario(
            tmp_path,
            name="empty",
            demand=DemandProfile.constant(0.0),
            controller="no_control",
            incident=None,
            horizon=5.0 / 60.0,
        )
        assert cli_dispatch(["run", str(path), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "no probe vehicle completed" in out
        record = json.loads((tmp_path / "empty_metrics.json").read_text())
        assert record["metrics"]["att_min"] is None
        assert record["metrics"]["vehicles_counted"] == 0

    def test_invalid_scenario_is_validation_error(self, tmp_path, capsys):
        # An invalid Scenario cannot be built, so the file is edited instead.
        path = write_mini_scenario(tmp_path, name="bad")
        doc = json.loads(path.read_text())
        doc["dt_s"] = 120.0
        path.write_text(json.dumps(doc))
        assert cli_dispatch(["run", str(path)]) == 2
        assert "CFL" in capsys.readouterr().err

    def test_garbage_file_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert cli_dispatch(["run", str(path)]) == 2

    def test_clamped_switch_warns_once_per_run(self, tmp_path, capsys):
        import warnings
        from dataclasses import replace

        base = high_demand_preset()
        scenario = replace(base, vsl=replace(base.vsl, switch_margin=1.2))
        path = tmp_path / "clamped.json"
        save_scenario(scenario, path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            assert cli_dispatch(["run", str(path), "--out", str(tmp_path)]) == 0
        clamps = [w for w in caught if "clamping" in str(w.message)]
        assert len(clamps) == 1

    @pytest.mark.filterwarnings("ignore:switch time")
    def test_unavailable_metric_is_written_as_null(self, tmp_path, capsys):
        from dataclasses import replace

        # A switch clamped to the incident end leaves an empty tracking window.
        base = high_demand_preset()
        scenario = replace(base, vsl=replace(base.vsl, switch_margin=72.0 / 60.0))
        path = tmp_path / "clamped.json"
        save_scenario(scenario, path)
        assert cli_dispatch(["run", str(path), "--out", str(tmp_path)]) == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        text = (tmp_path / "high_demand_metrics.json").read_text()
        record = json.loads(text, parse_constant=reject)
        assert record["metrics"]["rrmse"] is None
        assert record["metrics"]["vehicles_counted"] > 0


class TestSweep:
    def test_sweep_writes_summary(self, tmp_path, capsys):
        scenario_path = write_mini_scenario(tmp_path)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "scenario": json.loads(scenario_path.read_text()),
                    "variable": "upstream_zone_length",
                    "values": [0.8, 1.6],
                }
            )
        )
        assert cli_dispatch(["sweep", str(spec_path), "--out", str(tmp_path)]) == 0
        summary = tmp_path / "mini_cli_upstream_zone_length_sweep.csv"
        assert summary.exists()
        lines = summary.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("variable,value,name,status")


class TestCalibrate:
    def test_calibrate_round_trip_via_csv(self, tmp_path, capsys, fd):
        rng = np.random.default_rng(3)
        obs = sample_fd_observations(fd, rng, noise=0.0)
        csv_path = tmp_path / "obs.csv"
        with open(csv_path, "w") as fh:
            fh.write("density,flow,incident\n")
            for o in obs:
                fh.write(f"{o.density},{o.flow},{int(o.incident)}\n")
        out_path = tmp_path / "params.json"
        code = cli_dispatch(
            ["calibrate", str(csv_path), "--out", str(out_path)]
        )
        assert code == 0
        params = json.loads(out_path.read_text())["fundamental_diagram"]
        assert params["capacity"] == pytest.approx(7200.0, rel=1e-6)
        assert params["capacity_drop_factor"] == pytest.approx(0.1, abs=1e-9)

    def test_bad_csv_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "obs.csv"
        path.write_text("a,b\n1,2\n")
        assert cli_dispatch(["calibrate", str(path)]) == 2

    @pytest.mark.parametrize(
        "row, message",
        [
            ("10.0,1000\n", "line 2, column incident: missing value"),
            # Quotes are CSV syntax: the value reads as 10.0 and only the
            # single observation is then too few to fit.
            ('"10.0",1000,0\n', "need at least 30 no-incident observations, got 1"),
            ('10.0,"ten",0\n', "line 2, column flow: 'ten' is not a finite"),
            ("-1,1000,0\n", "line 2, column density: '-1' is not a finite"),
        ],
        ids=["short_row", "quoted_number", "not_a_number", "negative"],
    )
    def test_bad_rows_are_validation_errors(self, tmp_path, capsys, row, message):
        path = tmp_path / "obs.csv"
        path.write_text("density,flow,incident\n" + row)
        assert cli_dispatch(["calibrate", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_quoted_fields_read_like_plain_ones(self, tmp_path, capsys, fd):
        obs = sample_fd_observations(fd, np.random.default_rng(3), noise=0.0)
        outputs = []
        for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
            path = tmp_path / f"obs_{quoting}.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh, quoting=quoting)
                writer.writerow(["density", "flow", "incident"])
                writer.writerows((o.density, o.flow, int(o.incident)) for o in obs)
            assert cli_dispatch(["calibrate", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_wave_speed_fallback_reported_once(self, tmp_path, capsys, fd):
        obs = sample_fd_observations(fd, np.random.default_rng(3), n_outflow=0)
        path = tmp_path / "obs.csv"
        path.write_text(
            "density,flow,incident\n"
            + "".join(f"{o.density},{o.flow},{int(o.incident)}\n" for o in obs)
        )
        assert cli_dispatch(["calibrate", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if "w / 2" in line] == [
            "note: too few deep-congestion incident observations; using w / 2"
        ]


def _nan(section, key):
    def mutate(doc):
        doc[section][key] = float("nan")

    return mutate


def _set(**values):
    def mutate(doc):
        doc.update(values)

    return mutate


def _geometry(key, value):
    def mutate(doc):
        doc["geometry"][key] = value

    return mutate


REJECTED = [
    # (id, command, mutation of the scenario document or sweep spec, message)
    ("unknown_top", "run", _set(variabel=1), "variabel: unknown key"),
    ("unknown_vsl", "run", lambda d: d["vsl"].update(deratng=0.8), "vsl.deratng: unknown key"),
    ("unknown_spec", "sweep", lambda s: s.update(variabel="demand"), "variabel: unknown key"),
    (
        "nan_demand",
        "run",
        lambda d: d["demand"].update(flows=[float("nan")]),
        "demand.flows[0]: must be a finite number",
    ),
    ("inf_horizon", "run", _set(horizon_min=float("inf")), "horizon_min: must be a finite"),
    (
        "nan_zone",
        "run",
        _nan("geometry", "upstream_zone_length_km"),
        "geometry.upstream_zone_length_km: must be a finite",
    ),
    (
        "nan_seed_interval",
        "run",
        _nan("metrics", "seed_interval_s"),
        "metrics.seed_interval_s: must be a finite",
    ),
    ("nan_density_floor", "run", _nan("metrics", "density_floor"), "metrics.density_floor"),
    ("nan_switch_margin", "run", _nan("vsl", "switch_margin_min"), "vsl.switch_margin_min"),
    (
        "inf_control_period",
        "run",
        _set(control_period_s=float("inf")),
        "control_period_s: must be a finite",
    ),
    (
        "fractional_sections",
        "run",
        _geometry("num_sections", 2.7),
        "geometry.num_sections: must be an integer",
    ),
    ("dt_horizon", "run", _set(dt_s=0.7, horizon_min=90.0), "does not divide the horizon"),
    (
        "control_period_multiple",
        "run",
        _set(dt_s=0.7, horizon_min=14.0, control_period_s=1.1),
        "control_period: 1.1 s must be a whole multiple",
    ),
    ("name_parent_dir", "run", _set(name="../x"), "name: '../x'"),
    ("name_newline", "run", _set(name="a\nb"), "name: 'a\\nb'"),
    (
        "nan_sweep_value",
        "sweep",
        lambda s: s.update(values=[1.2, float("nan")]),
        "values[1]: must be a finite number",
    ),
]


class TestStrictInputs:
    @pytest.mark.parametrize(
        "command,mutate,message", [case[1:] for case in REJECTED], ids=[c[0] for c in REJECTED]
    )
    def test_rejected_at_load_naming_the_field(
        self, tmp_path, capsys, command, mutate, message
    ):
        doc = json.loads(write_mini_scenario(tmp_path).read_text())
        if command == "sweep":
            doc = {"scenario": doc, "variable": "upstream_zone_length", "values": [1.2]}
        mutate(doc)
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli_dispatch([command, str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


class TestSweepOutputs:
    def test_traces_match_run_bytes_with_one_simulation_per_value(
        self, tmp_path, monkeypatch, capsys
    ):
        import vslsim.scenario
        from vslsim import apply_sweep_value, load_scenario

        scenario_path = write_mini_scenario(tmp_path)
        spec_path = tmp_path / "spec.json"
        values = [0.8, 1.6]
        spec_path.write_text(
            json.dumps(
                {
                    "scenario": json.loads(scenario_path.read_text()),
                    "variable": "upstream_zone_length",
                    "values": values,
                }
            )
        )
        real_run = vslsim.scenario.run
        calls = []

        def counting_run(*args, **kwargs):
            calls.append(args[0].name)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(vslsim.scenario, "run", counting_run)
        sweep_out = tmp_path / "sweep"
        argv = ["sweep", str(spec_path), "--traces", "--out", str(sweep_out)]
        assert cli_dispatch(argv) == 0
        assert calls == ["mini_cli_L0_0.8", "mini_cli_L0_1.6"]

        base = load_scenario(scenario_path)
        run_out = tmp_path / "run"
        for value in values:
            scenario = apply_sweep_value(base, "upstream_zone_length", value)
            path = tmp_path / f"{scenario.name}.json"
            save_scenario(scenario, path)
            assert cli_dispatch(["run", str(path), "--out", str(run_out)]) == 0
            name = f"{scenario.name}_trace.csv"
            assert (sweep_out / name).read_bytes() == (run_out / name).read_bytes()

    def test_workers_below_one_is_usage_error(self, tmp_path, capsys):
        assert cli_dispatch(["sweep", str(tmp_path / "spec.json"), "--workers", "0"]) == 1
        assert "--workers" in capsys.readouterr().err
