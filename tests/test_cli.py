"""Command line dispatch, exit codes, and emitted files."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from helpers import sample_fd_observations
from test_scenario import scenario_documents
import numpy as np

import vslsim
from vslsim import LcConfig, high_demand_preset, save_scenario
from vslsim.cli import cli_dispatch
from vslsim.sweep import SWEEP_VARIABLES


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
            ("--zone-length", "1e308"),  # the clearing time overflows
            ("--v0", "1e-320"),  # the arrival through the zone overflows
        ],
    )
    def test_out_of_domain_flag_is_validation_error(self, capsys, flag, value):
        assert cli_dispatch(["bound", "high_demand", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"validation error: {flag}: ")

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["--v0", "500", "--densities", "1,2"], "--v0"),
            (["--densities", "1,2", "--upstream-density", "1e9"], "--densities"),
        ],
    )
    def test_two_bad_flags_name_the_first_checked(self, capsys, args, flag):
        # The inputs are checked in order: zone command, densities, entrance.
        assert cli_dispatch(["bound", "high_demand", *args]) == 2
        assert capsys.readouterr().err.startswith(f"validation error: {flag}: ")


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

    def test_zero_horizon_writes_the_initial_sample(self, tmp_path, capsys):
        path = write_mini_scenario(
            tmp_path, name="instant", controller="no_control", incident=None, horizon=0.0
        )
        assert cli_dispatch(["run", str(path), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "instant_trace.csv").read_text().splitlines()
        assert len(rows) == 3  # the comment, the header and step 0
        record = json.loads((tmp_path / "instant_metrics.json").read_text())
        metrics = record["metrics"]
        assert metrics.pop("vehicles_counted") == 0
        assert set(metrics.values()) == {None}
        assert record["events"] == []
        assert record["vehicle_balance"]["residual"] == 0.0

    def test_unwritable_output_is_runtime_error(self, tmp_path, capsys, monkeypatch):
        def no_simulation(scenario):
            raise AssertionError("simulated before the output directory was made")

        monkeypatch.setattr("vslsim.cli.simulate_scenario", no_simulation)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert cli_dispatch(["run", "high_demand", "--out", str(taken)]) == 3
        assert capsys.readouterr().err.startswith("error: [Errno 17] File exists")

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_horizon_too_long_to_allocate_is_runtime_error(self, tmp_path, capsys, command):
        # 1e13 min of 1 s steps: 4.26 PiB of step times, past any address
        # space, so the allocation fails without touching memory.
        path = write_mini_scenario(tmp_path, name="long", controller="no_control", incident=None)
        doc = json.loads(path.read_text())
        doc["horizon_min"] = 1e13
        path.write_text(json.dumps(doc))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"scenario": doc, "variable": "demand", "values": [5e3, 6e3]}))
        out = tmp_path / "out"
        args = ["run", str(path)] if command == "run" else ["sweep", str(spec), "--traces"]
        assert cli_dispatch([*args, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert list(out.iterdir()) == []

    def test_seed_interval_past_the_horizon_seeds_one_probe(self, tmp_path, capsys):
        from vslsim import MetricConfig

        # A stride above int64 once gave float seeds, an IndexError after the run.
        blocks = []
        for i, seed_interval in enumerate([1e10, 1e19, 1e300]):
            path = write_mini_scenario(
                tmp_path, name=f"seed_{i}", metrics=MetricConfig(seed_interval=seed_interval)
            )
            assert cli_dispatch(["run", str(path), "--out", str(tmp_path)]) == 0
            record = json.loads((tmp_path / f"seed_{i}_metrics.json").read_text())
            blocks.append(record["metrics"])
        assert blocks[0]["vehicles_counted"] == 1
        assert blocks[1] == blocks[0] and blocks[2] == blocks[0]

    def test_invalid_scenario_is_validation_error(self, tmp_path, capsys):
        # An invalid Scenario cannot be built, so the file is edited instead.
        path = write_mini_scenario(tmp_path, name="bad")
        doc = json.loads(path.read_text())
        doc["dt_s"] = 120.0
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli_dispatch(["run", str(path), "--out", str(out)]) == 2
        assert "CFL" in capsys.readouterr().err
        assert not out.exists()

    def test_name_too_long_for_its_files_fails_before_any_output(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_simulation(*args):
            raise AssertionError("simulated a run whose outputs cannot be written")

        monkeypatch.setattr("vslsim.cli.simulate_scenario", no_simulation)
        monkeypatch.setattr("vslsim.sweep.run_batch", no_simulation)
        doc = high_demand_preset().to_dict()
        doc["name"] = "a" * 250  # <name>_metrics.json would take 263 bytes
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli_dispatch(["run", str(path), "--out", str(out)]) == 2
        assert "name: 250 bytes in UTF-8" in capsys.readouterr().err
        assert not out.exists()
        doc["name"] = "b" * 230  # <name>_upstream_zone_length_sweep.csv: 261 bytes
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({"scenario": doc, "variable": "upstream_zone_length", "values": [0, 0.8]})
        )
        assert cli_dispatch(["sweep", str(spec), "--traces", "--out", str(out)]) == 2
        assert "scenario.name: the summary file name" in capsys.readouterr().err
        assert not out.exists()

    def test_name_with_a_lone_surrogate_fails_before_any_output(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_simulation(*args):
            raise AssertionError("simulated a run whose outputs cannot be written")

        monkeypatch.setattr("vslsim.cli.simulate_scenario", no_simulation)
        doc = high_demand_preset().to_dict()
        doc["name"] = "a\ud800b"  # a JSON escape; no UTF-8 form for the file name
        path = tmp_path / "surrogate.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli_dispatch(["run", str(path), "--out", str(out)]) == 2
        assert "name: 'a\\ud800b' must be a non-empty file stem" in capsys.readouterr().err
        assert not out.exists()

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
            ("10.0,1000,yes\n", "line 2, column incident: 'yes' is not 0, 1, true"),
            ("10.0,1000,\n", "line 2, column incident: '' is not 0, 1, true"),
            ("10.0,1000,2\n", "line 2, column incident: '2' is not 0, 1, true"),
        ],
        ids=[
            "short_row",
            "quoted_number",
            "not_a_number",
            "negative",
            "incident_yes",
            "incident_blank",
            "incident_2",
        ],
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

    def test_incident_words_read_like_digits(self, tmp_path, capsys, fd):
        obs = sample_fd_observations(fd, np.random.default_rng(3))
        # No / yes marks, alternating row by row; both sets mark the same rows.
        marks = {
            "digits": ("0", "1", "0", "1"),
            "words": ("false", "TRUE", "False", "true"),
        }
        outputs = []
        for kind, mark in marks.items():
            path = tmp_path / f"obs_{kind}.csv"
            path.write_text(
                "density,flow,incident\n"
                + "".join(
                    f"{o.density},{o.flow},{mark[int(o.incident) + 2 * (i % 2)]}\n"
                    for i, o in enumerate(obs)
                )
            )
            assert cli_dispatch(["calibrate", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_blank_rows_are_skipped(self, tmp_path, capsys, fd):
        obs = sample_fd_observations(fd, np.random.default_rng(3))
        lines = [f"{o.density},{o.flow},{int(o.incident)}\n" for o in obs]
        bodies = {"plain": lines, "blank": [*lines[:2], "\n", " , , \n", *lines[2:]]}
        written, printed = [], []
        for kind, body in bodies.items():
            path, out = tmp_path / f"obs_{kind}.csv", tmp_path / f"params_{kind}.json"
            path.write_text("density,flow,incident\n" + "".join(body))
            assert cli_dispatch(["calibrate", str(path), "--out", str(out)]) == 0
            written.append(out.read_bytes())
            first, *fit = capsys.readouterr().out.splitlines()
            assert first == f"parameters: {out}"
            printed.append(fit)
        assert written[0] == written[1]
        assert printed[0] == printed[1]

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

    @pytest.mark.parametrize("speed", ["0", "-5", "nan", "inf"])
    def test_pinned_speed_must_be_finite_and_positive(self, tmp_path, capsys, fd, speed):
        obs = sample_fd_observations(fd, np.random.default_rng(3))
        path = tmp_path / "obs.csv"
        path.write_text(
            "density,flow,incident\n"
            + "".join(f"{o.density},{o.flow},{int(o.incident)}\n" for o in obs)
        )
        assert cli_dispatch(["calibrate", str(path), f"--pin-free-flow-speed={speed}"]) == 2
        assert "pinned free-flow speed" in capsys.readouterr().err


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
    ("name_too_long", "run", _set(name="é" * 122), "name: 244 bytes in UTF-8, over the 242"),
    (
        "sweep_summary_name_too_long",
        "sweep",
        lambda s: s["scenario"].update(name="b" * 225),
        "scenario.name: the summary file name <name>_upstream_zone_length_sweep.csv "
        "has 256 bytes",
    ),
    (
        "sweep_run_name_too_long",
        "sweep",
        # The run name <233 bytes>_alpha_0.8 takes 243; the summary fits in 252.
        lambda s: s["scenario"].update(name="c" * 233)
        or s.update(variable="derating", values=[0.8]),
        "values[0]: 0.8 gives a run name of 243 bytes in UTF-8, over the 242",
    ),
    (
        "nan_sweep_value",
        "sweep",
        lambda s: s.update(values=[1.2, float("nan")]),
        "values[1]: must be a finite number",
    ),
    (
        "sweep_run_name_collision",
        "sweep",
        lambda s: s.update(values=[1.6000001, 1.6000002]),
        "values[1]: 1.6000002 gives the run name mini_cli_L0_1.6 of values[0]",
    ),
    (
        "sweep_repeated_value",
        "sweep",
        lambda s: s.update(values=[1.6, 0.8, 1.6]),
        "values[2]: 1.6 gives the run name mini_cli_L0_1.6 of values[0]",
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

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_key_named_twice_is_validation_error_naming_it(self, tmp_path, capsys, command):
        # Neither value may win silently: not a second horizon, nor a second
        # list of swept values.
        doc = write_mini_scenario(tmp_path).read_text()
        if command == "run":
            text, key = '{"horizon_min": 10.0, ' + doc.lstrip()[1:], "'horizon_min'"
        else:
            text = f'{{"scenario": {doc}, "variable": "upstream_zone_length", '
            text, key = text + '"values": [0.8], "values": [1.2]}', "'values'"
        path = tmp_path / "input.json"
        path.write_text(text)
        out = tmp_path / "out"
        assert cli_dispatch([command, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"file: {path} names the key {key} twice" in err
        assert not out.exists()

    @pytest.mark.parametrize("column", ["density", "flow", "incident"])
    def test_observation_column_named_twice_is_validation_error(
        self, tmp_path, capsys, fd, column
    ):
        obs = sample_fd_observations(fd, np.random.default_rng(3))
        rows = [{"density": o.density, "flow": o.flow, "incident": int(o.incident)} for o in obs]
        path = tmp_path / "obs.csv"
        path.write_text(
            f"density,flow,incident,{column}\n"
            + "".join(f"{r['density']},{r['flow']},{r['incident']},{r[column]}\n" for r in rows)
        )
        out = tmp_path / "params.json"
        assert cli_dispatch(["calibrate", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"{path}: the header names the {column} column twice" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "bound", "calibrate"])
    def test_file_not_utf8_is_validation_error_naming_it(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.input"
        path.write_bytes('{"name": "caf\u00e9"}\n'.encode("latin-1"))
        out = tmp_path / "out"
        args = [command, str(path)] + ([] if command == "bound" else ["--out", str(out)])
        assert cli_dispatch(args) == 2
        err = capsys.readouterr().err
        assert f"{path}" in err and "not valid UTF-8" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_observations_are_validation_error_naming_them(
        self, tmp_path, capsys, kind
    ):
        path = tmp_path / "obs.csv"
        if kind == "directory":
            path.mkdir()
        assert cli_dispatch(["calibrate", str(path)]) == 2
        assert f"cannot read {path}" in capsys.readouterr().err

    def test_observations_with_a_byte_order_mark_read_like_plain_ones(
        self, tmp_path, capsys, fd
    ):
        obs = sample_fd_observations(fd, np.random.default_rng(3))
        text = "density,flow,incident\n" + "".join(
            f"{o.density},{o.flow},{int(o.incident)}\n" for o in obs
        )
        outputs = []
        for prefix in ("", "\ufeff"):  # a spreadsheet's UTF-8 export starts with U+FEFF
            path = tmp_path / "obs.csv"
            path.write_text(prefix + text, encoding="utf-8")
            assert cli_dispatch(["calibrate", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_scenario_with_a_byte_order_mark_runs_like_a_plain_one(self, tmp_path, capsys):
        text = write_mini_scenario(tmp_path).read_text(encoding="utf-8")
        traces = []
        for prefix in ("", "\ufeff"):
            path = tmp_path / "scenario.json"
            path.write_text(prefix + text, encoding="utf-8")
            out = tmp_path / f"out{len(prefix)}"
            assert cli_dispatch(["run", str(path), "--out", str(out)]) == 0
            traces.append((out / "mini_cli_trace.csv").read_bytes())
        assert traces[0] == traces[1]


# Swept variable -> its values and the mini scenario's overrides.
SWEEP_CASES = {
    "upstream_zone_length": ([0.0, 0.8, 1.6], {}),
    "demand": ([5500.0, 6500.0, 7400.0], {}),
    "derating": ([0.6, 0.785, 1.0], {}),
    "lc_residual_drop": ([0.0, 0.03, 0.05], {"lc": LcConfig()}),
}


class TestSweepOutputs:
    @pytest.mark.parametrize("variable", SWEEP_VARIABLES)
    def test_traces_match_run_bytes_with_one_simulation_per_value(
        self, tmp_path, monkeypatch, capsys, variable
    ):
        import vslsim.sweep
        from vslsim import apply_sweep_value, load_scenario

        values, overrides = SWEEP_CASES[variable]
        scenario_path = write_mini_scenario(tmp_path, **overrides)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "scenario": json.loads(scenario_path.read_text()),
                    "variable": variable,
                    "values": values,
                }
            )
        )
        real_run_batch = vslsim.sweep.run_batch
        calls = []

        def counting_run_batch(scenarios, controllers):
            calls.append([s.name for s in scenarios])
            return real_run_batch(scenarios, controllers)

        monkeypatch.setattr(vslsim.sweep, "run_batch", counting_run_batch)
        sweep_out = tmp_path / "sweep"
        argv = ["sweep", str(spec_path), "--traces", "--out", str(sweep_out)]
        assert cli_dispatch(argv) == 0
        base = load_scenario(scenario_path)
        scenarios = [apply_sweep_value(base, variable, value) for value in values]
        # One batch: no sweep variable changes what steps together (zone 0
        # steps behind a pass-through cell).
        assert calls == [[scenario.name for scenario in scenarios]]

        run_out = tmp_path / "run"
        for scenario in scenarios:
            path = tmp_path / f"{scenario.name}.json"
            save_scenario(scenario, path)
            assert cli_dispatch(["run", str(path), "--out", str(run_out)]) == 0
            name = f"{scenario.name}_trace.csv"
            assert (sweep_out / name).read_bytes() == (run_out / name).read_bytes()

    def test_workers_below_one_is_usage_error(self, tmp_path, capsys):
        assert cli_dispatch(["sweep", str(tmp_path / "spec.json"), "--workers", "0"]) == 1
        assert "--workers" in capsys.readouterr().err

    def test_workers_reach_the_sweep(self, tmp_path, capsys, monkeypatch):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"preset": "high_demand", "values": [1.6]}))
        seen = []

        def recording(spec, max_workers, trace_dir=None):
            seen.append(max_workers)
            return vslsim.sweep.run_sweep(spec, 1, trace_dir)

        monkeypatch.setattr(vslsim.cli, "run_sweep", recording)
        argv = ["sweep", str(spec_path), "--workers", "3", "--out", str(tmp_path)]
        assert cli_dispatch(argv) == 0
        assert seen == [3]


@pytest.mark.filterwarnings("ignore:switch time")
@settings(max_examples=15, deadline=None)
@given(doc=scenario_documents())
def test_random_valid_scenarios_run_end_to_end(doc, tmp_path_factory):
    folder = tmp_path_factory.mktemp("random_run")
    path = folder / "scenario.json"
    path.write_text(json.dumps(doc))
    out = folder / "out"
    assert cli_dispatch(["run", str(path), "--out", str(out)]) == 0

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    name = doc["name"]
    metrics = (out / f"{name}_metrics.json").read_text(encoding="utf-8")
    record = json.loads(metrics, parse_constant=reject)
    rows = (out / f"{name}_trace.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) - 2 == round(doc["horizon_min"] * 60.0 / doc["dt_s"]) + 1
    # Over 300 draws the residual stayed below 1.2e-14 of the vehicles entered.
    balance = record["vehicle_balance"]
    assert abs(balance["residual"]) <= 1e-9 * max(balance["entered"], 1.0)


# Run in a fresh interpreter: once ``vslsim.cli`` is imported, a ``run`` and a
# traced serial ``sweep`` import no module, and none of numpy's masked or
# string-array modules is loaded by any of it.
OP_IMPORTS = """
import json, sys
from dataclasses import replace
from pathlib import Path
import vslsim.cli
from vslsim import DemandProfile, high_demand_preset, save_scenario
out = Path(sys.argv[1])
scenario = replace(
    high_demand_preset(),
    name="emptying",
    controller="no_control",
    demand=DemandProfile((0.0, 20.0 / 60.0), (7000.0, 0.0)),
)
save_scenario(scenario, out / "emptying.json")
spec = {"preset": "high_demand", "variable": "upstream_zone_length", "values": [0, 1.6]}
(out / "spec.json").write_text(json.dumps(spec))
before = set(sys.modules)
assert vslsim.cli.cli_dispatch(["run", str(out / "emptying.json"), "--out", str(out)]) == 0
sweep = ["sweep", str(out / "spec.json"), "--traces", "--workers", "1", "--out", str(out)]
assert vslsim.cli.cli_dispatch(sweep) == 0
loaded = [name for name in ("numpy.ma", "numpy.char", "numpy.strings") if name in sys.modules]
print(json.dumps({"imported": sorted(set(sys.modules) - before), "loaded": loaded}))
"""


def test_run_and_sweep_import_no_module(tmp_path):
    src = str(Path(vslsim.__file__).resolve().parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", OP_IMPORTS, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"imported": [], "loaded": []}
    assert (tmp_path / "emptying_trace.csv").exists()


# Run in a fresh interpreter: importing the package and the CLI, a serial
# sweep, and two workers over one value that builds load none of the process
# pool's machinery; only a pooled sweep does.
SERIAL_IMPORTS = """
import sys
import vslsim, vslsim.cli, vslsim.sweep
from vslsim import SweepSpec, high_demand_preset, run_sweep
rows = run_sweep(SweepSpec(base=high_demand_preset(), values=(0.8, 1.6)), 1)
assert [row.status for row in rows] == ["ok", "ok"], rows
vslsim.sweep.os.cpu_count = lambda: 2
rows = run_sweep(SweepSpec(base=high_demand_preset(), values=(1.6, -1.0)), max_workers=2)
assert [row.status for row in rows] == ["ok", "failed"], rows
pool = "multiprocessing concurrent.futures.process logging socket subprocess signal".split()
print(sorted(name for name in pool if name in sys.modules))
"""


def test_package_cli_and_serial_sweep_load_no_process_pool():
    src = str(Path(vslsim.__file__).resolve().parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", SERIAL_IMPORTS],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "[]"
