"""sha256 of the files refactors claim to leave byte-identical.

Pinned: the trace CSVs of ``vslsim run`` on ``high_demand``, on its
``rule_based_reactive`` and ``no_control`` variants, on a ``no_control``
variant whose demand stops at 20 min (the road empties: exact zeros and
values in exponent notation, the formatter's ``%`` fallback) and on the
25-cell fine grid (``helpers.fine_grid_scenario``), the summary CSV of a
three-value ``sweep --traces``, a canonical dump of each metrics JSON's
``metrics`` and ``events`` blocks, and the full stdout of ``vslsim bound`` on
four cases: the ``high_demand`` default, a shockwave risk, a vacuous bound
and a changed zone command. ``vehicle_balance`` is left out: it goes
through a BLAS dot whose last bits may differ between CPUs. The trace CSV uses
only elementwise IEEE arithmetic printed at ``%.10g``, so its bytes do not;
its writer's numpy arithmetic is proved to print what ``%`` prints.

A change that is meant to move these outputs updates the hashes here and says
why in its change notes.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from helpers import fine_grid_scenario, oracle_to_csv

from vslsim import (
    DemandProfile,
    high_demand_preset,
    load_scenario,
    save_scenario,
    simulate_scenario,
)
from vslsim.cli import cli_dispatch

PINNED = {
    "high_demand_trace.csv": (
        "f1f81d7dfa50e2c8824c060b1e4082a3bdc8b70561a4a333580e10e75d15faa1"
    ),
    "high_demand_metrics": (
        "f0b64af8770b6f34a13ab759cf23b18f73d5038dc725633c6c70b324a509f1fb"
    ),
    "high_demand_reactive_trace.csv": (
        "95778e0ea250c6115c07144722a0381bb1a26bc6f4cfff4b86245b0b2c082844"
    ),
    "high_demand_reactive_metrics": (
        "b2d8cb21b2e21a04e84957974f9a058a73d022b5a0e17cbcd2dd8f33e69e515d"
    ),
    "high_demand_no_control_trace.csv": (
        "9df8c316ab7f26a45105ec5f945564ae0364225e48fe3a11d588124b75bbeedc"
    ),
    "high_demand_no_control_metrics": (
        "875850337cf4ee75bf47c0dba6ac05a57534b4c7ce4bc15193460887da3a33c0"
    ),
    "high_demand_emptying_trace.csv": (
        "d97e438f25098989c8bd5ae6aa507a0772460116a6ee55dc00f243d5832e53e8"
    ),
    "high_demand_emptying_metrics": (
        "4e69c675dbfa1f08f367bcab1ed0ce49ad7b1d7a576d2b9d41cecb478e149bb7"
    ),
    "fine_grid_trace.csv": (
        "5275ad09844daf878b7c0d6b1931a88e8a5e8bb7e5a49d77d3ac6c2a590a2744"
    ),
    "fine_grid_metrics": (
        "6da15fd700a26ebafd08f717d5394d4fd604d75c8ff38f31f084d1d01a235313"
    ),
    "high_demand_upstream_zone_length_sweep.csv": (
        "4c29d0369ed7cb4aac3de280a18610b27d1020b8187f3348b4b45bb9211ecc19"
    ),
}


# Arguments of ``vslsim bound`` -> sha256 of its full stdout.
PINNED_BOUND = {
    ("high_demand",): (
        "e789aac2348d4d7ee474d6067fd3e85a3fb4297ec44004a5b0a16599de2eae44"
    ),
    ("high_demand", "--zone-length", "1.0"): (
        "061c241e6d99a2950d8a35746047d57e093659fad2111608c1376a393b518791"
    ),
    ("high_demand", "--densities", "10,10,10,10,10,10"): (
        "7f92add40e2c3357e5206a78344224fd109702fac92f8aba886db1e248a079fd"
    ),
    ("moderate_demand", "--v0", "20"): (
        "e2c7cd7f83b45ae565fd47b88f24009c17b51261f6b0710d1080f25baa63bb5f"
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def emptying_scenario():
    """``high_demand`` without control whose demand stops at 20 min."""
    return replace(
        high_demand_preset(),
        name="high_demand_emptying",
        controller="no_control",
        demand=DemandProfile((0.0, 20.0 / 60.0), (7000.0, 0.0)),
    )


def test_run_and_sweep_outputs_match_pinned_hashes(tmp_path, capsys):
    base = high_demand_preset()
    variants = (
        base,
        replace(base, name="high_demand_reactive", controller="rule_based_reactive"),
        replace(base, name="high_demand_no_control", controller="no_control"),
        emptying_scenario(),
        fine_grid_scenario(),
    )
    out = tmp_path / "out"
    hashes = {}
    for scenario in variants:
        path = tmp_path / f"{scenario.name}.json"
        save_scenario(scenario, path)
        assert cli_dispatch(["run", str(path), "--out", str(out)]) == 0
        trace = f"{scenario.name}_trace.csv"
        hashes[trace] = _sha256((out / trace).read_bytes())
        record = json.loads((out / f"{scenario.name}_metrics.json").read_text())
        blocks = {key: record[key] for key in ("metrics", "events")}
        canonical = json.dumps(blocks, sort_keys=True, separators=(",", ":"))
        hashes[f"{scenario.name}_metrics"] = _sha256(canonical.encode())

    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "preset": "high_demand",
                "variable": "upstream_zone_length",
                "values": [0, 1.6, 4.8],
            }
        )
    )
    assert cli_dispatch(["sweep", str(spec), "--traces", "--out", str(out)]) == 0
    summary = "high_demand_upstream_zone_length_sweep.csv"
    hashes[summary] = _sha256((out / summary).read_bytes())

    assert hashes == PINNED


def test_emptying_trace_takes_the_fallback_and_matches_oracle(tmp_path, capsys):
    path = tmp_path / "high_demand_emptying.json"
    save_scenario(emptying_scenario(), path)
    assert cli_dispatch(["run", str(path), "--out", str(tmp_path)]) == 0
    written = (tmp_path / "high_demand_emptying_trace.csv").read_bytes()
    comment, header, *rows = written.decode().splitlines()
    oracle_to_csv(simulate_scenario(load_scenario(path)), tmp_path / "oracle.csv", comment[2:])
    assert written == (tmp_path / "oracle.csv").read_bytes()
    # The case must keep covering the fallback: exponent notation, and flows
    # that are exactly 0 (the held flags are 0 too, so read the q columns).
    flows = [i for i, name in enumerate(header.split(",")) if name.startswith("q_")]
    fields = [row.split(",") for row in rows]
    assert any("e-" in field for row in fields for field in row)
    assert any(row[i] == "0" for row in fields for i in flows)


@pytest.mark.parametrize("args", PINNED_BOUND, ids="_".join)
def test_bound_output_matches_pinned_hash(args, capsys):
    assert cli_dispatch(["bound", *args]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == PINNED_BOUND[args]
