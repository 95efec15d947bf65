"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import sys

import harness
import run
import tracing

cli = harness.load_cli()


def test_one_digit_golden_change_counts_as_failure(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(harness.GOLDEN, golden)
    csv = golden / "threshold_scan.csv"
    lines = csv.read_text().splitlines(keepends=True)
    last = lines[1].rstrip("\n")[-1]
    lines[1] = lines[1].rstrip("\n")[:-1] + str((int(last) + 1) % 10) + "\n"
    csv.write_text("".join(lines))

    result = run.measure_end_to_end("threshold-eta", seed=0, seconds=0, golden=golden)

    assert result["checks"]["error_rate"] > 0
    assert result["failed"] > 0
    assert 0 < result["checks"]["max_rel_dev"] < 1e-7


def test_untouched_golden_passes(tmp_path):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, stdout, _ = harness.run_in_process(
        cli, harness.WORKLOADS["threshold-eta"].command(out_dir))
    assert code == 0
    assert harness.check_outputs("threshold-eta", out_dir, stdout) == (True, 0.0)


def _bindings() -> dict[tuple, object]:
    """Every object the tracer may rebind, keyed by where it is bound."""
    found: dict[tuple, object] = {}
    for name, module in list(sys.modules.items()):
        if name != "cvswap" and not name.startswith("cvswap."):
            continue
        for attr, value in vars(module).items():
            found[(name, attr)] = value
            if type(value) is dict:
                for key, item in value.items():
                    found[(name, attr, key)] = item
    for index, entry in enumerate(sys.modules["cvswap.selftest"].CHECKS):
        found[("CHECKS", index)] = entry
    found["LinearField.__init__"] = vars(sys.modules["cvswap.modes"].LinearField)["__init__"]
    return found


def test_traced_run_restores_every_binding(tmp_path):
    before = _bindings()
    tracing.traced_call(cli, ["fig4", "--lambda-steps", "2", "--out", str(tmp_path)])
    _, _, _, tracer = tracing.traced_call(cli, ["selftest"])
    after = _bindings()

    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert any(name.startswith("selftest.check.") for name, *_ in tracer.spans)


def test_fig4_counts_match_closed_forms(tmp_path):
    gains, levels = 3, 2
    code, _, _, tracer = tracing.traced_call(
        cli, ["fig4", "--lambda-steps", str(gains), "--squeezing", "0.5",
              "--squeezing", "0.8", "--out", str(tmp_path)])
    values = tracing.layer_values(tracer, gains * levels)

    assert code == 0
    assert values["circuit.build_calls"] == gains * levels
    assert values["metrics.ch_s_calls"] == gains * levels
    assert values["metrics.rate_calls"] == 8 * gains * levels
    assert values["modes.wick_calls.n4"] == 8 * gains * levels
    assert values["circuit.builds_per_point"] == 1.0
    assert values["cli.write_bytes"] == (tmp_path / "fig4.csv").stat().st_size


def test_benchmark_json_matches_harness():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert [check for check, _ in sys.modules["cvswap.selftest"].CHECKS] == list(
        tracing.SELFTEST_CHECKS)
