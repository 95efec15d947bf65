"""CLI commands: CSV output, config handling, exit codes, selftest."""

import argparse
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cvswap.circuit
import cvswap.cli
import cvswap.selftest
from cvswap.cli import ExperimentConfig, build_parser, main, read_config_file
from cvswap.metrics import _factored, ch_s, squeezing_to_chi
from cvswap.selftest import run_selftest
from helpers import baseline_s


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


class TestConfigFile:
    def test_parses_values_and_comments(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# sweep setup\n"
            "chi1 = 0.05\n"
            "squeezing = 0.5, 0.9   # two levels\n"
            "svg = true\n"
            "lambda_steps = 40\n")
        values = read_config_file(config)
        assert values["chi1"] == "0.05"
        assert values["squeezing"] == "0.5, 0.9"

    def test_rejects_unknown_keys_and_garbage(self, tmp_path):
        bad_key = tmp_path / "bad.cfg"
        bad_key.write_text("wavelength = 1064\n")
        with pytest.raises(ValueError):
            read_config_file(bad_key)
        garbage = tmp_path / "garbage.cfg"
        garbage.write_text("chi1 0.05\n")
        with pytest.raises(ValueError):
            read_config_file(garbage)

    def test_flags_override_file(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("chi1 = 0.05\neta = 1.0\n")
        code = main(["operating-point", "--config", str(config),
                     "--eta", "0.9", "--out", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        header, rows = read_rows(tmp_path / "operating_point.csv")
        # lambda_op reflects eta 0.9 from the flag, not 1.0 from the file
        chi2 = 0.34657359027997264
        assert rows[0][1] == pytest.approx(math.tanh(chi2) / math.sqrt(0.9), rel=1e-8)

    def test_config_error_exit_code(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("squeezing = 1.5\n")
        assert main(["fig3", "--config", str(config), "--out", str(tmp_path)]) == 1
        assert main(["fig3", "--config", str(tmp_path / "missing.cfg")]) == 1
        capsys.readouterr()

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(squeezing=()).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(squeezing=(0.5,), lambda_steps=1).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(squeezing=(0.5,), eta=1.3).validate()


# config key, ExperimentConfig field, file value, equivalent flags, parsed value,
# and a different file value that the flags must override
SETTINGS = [
    ("chi1", "chi1", "0.05", ["--chi1", "0.05"], 0.05, "0.2"),
    ("squeezing", "squeezing", "0.3, 0.6",
     ["--squeezing", "0.3", "--squeezing", "0.6"], (0.3, 0.6), "0.4"),
    ("eta", "eta", "0.8", ["--eta", "0.8"], 0.8, "0.9"),
    ("lambda_min", "lambda_min", "0.02", ["--lambda-min", "0.02"], 0.02, "0.05"),
    ("lambda_max", "lambda_max", "1.5", ["--lambda-max", "1.5"], 1.5, "1.0"),
    ("lambda_steps", "lambda_steps", "30", ["--lambda-steps", "30"], 30, "50"),
    ("angles_steps", "angles_steps", "11", ["--angles-steps", "11"], 11, "13"),
    ("eta_min", "eta_min", "0.75", ["--eta-min", "0.75"], 0.75, "0.8"),
    ("eta_max", "eta_max", "0.95", ["--eta-max", "0.95"], 0.95, "0.9"),
    ("eta_steps", "eta_steps", "7", ["--eta-steps", "7"], 7, "9"),
    ("out", "out", "results", ["--out", "results"], Path("results"), "elsewhere"),
    ("svg", "svg", "true", ["--svg"], True, "false"),
]

COMMON_OPTIONS = {"-h", "--help", "--chi1", "--squeezing", "--eta", "--lambda-min",
                  "--lambda-max", "--lambda-steps", "--angles-steps", "--out",
                  "--svg", "--config"}


class TestSettings:
    @staticmethod
    def resolve(monkeypatch, tmp_path, file_text, flags):
        """The ExperimentConfig that main hands to the threshold-scan driver."""
        seen = []
        monkeypatch.setitem(cvswap.cli._COMMANDS, "threshold-scan",
                            lambda config, stream: seen.append(config) or 0)
        config = tmp_path / "run.cfg"
        config.write_text(file_text)
        assert main(["threshold-scan", "--config", str(config)] + flags) == 0
        return seen[0]

    @pytest.mark.parametrize("key, field, file_value, flags, parsed, other", SETTINGS,
                             ids=[row[0] for row in SETTINGS])
    def test_file_and_flag_agree_and_flag_wins(self, monkeypatch, tmp_path, key, field,
                                               file_value, flags, parsed, other):
        from_file = self.resolve(monkeypatch, tmp_path, f"{key} = {file_value}\n", [])
        from_flag = self.resolve(monkeypatch, tmp_path, "", flags)
        both = self.resolve(monkeypatch, tmp_path, f"{key} = {other}\n", flags)
        assert getattr(from_file, field) == parsed
        assert getattr(from_flag, field) == parsed
        assert getattr(both, field) == parsed
        assert getattr(self.resolve(monkeypatch, tmp_path, f"{key} = {other}\n", []),
                       field) != parsed

    def test_option_strings_per_subcommand(self):
        parser = build_parser()
        sub = next(action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
        options = {name: {s for action in command._actions for s in action.option_strings}
                   for name, command in sub.choices.items()}
        eta_grid = {"--eta-min", "--eta-max", "--eta-steps"}
        assert options == {
            "fig3": COMMON_OPTIONS,
            "fig4": COMMON_OPTIONS,
            "operating-point": COMMON_OPTIONS,
            "threshold-scan": COMMON_OPTIONS | eta_grid,
            "selftest": {"-h", "--help"},
        }
        assert parser.parse_args(["threshold-scan", "--eta-min", "0.8"]).eta_min == 0.8
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["fig3", "--eta-min", "0.8"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("command, squeezing, eta", [
        ("fig3", (0.99, 0.80), 1.0),
        ("fig4", (0.10, 0.50, 0.80, 0.99), 1.0),
        ("operating-point", (0.5,), 0.9),
        ("threshold-scan", (0.3, 0.5, 0.9), 1.0),
    ])
    def test_command_defaults_yield_to_file_and_flags(self, monkeypatch, tmp_path,
                                                      command, squeezing, eta):
        seen = []
        monkeypatch.setitem(cvswap.cli._COMMANDS, command,
                            lambda config, stream: seen.append(config) or 0)
        config = tmp_path / "run.cfg"
        config.write_text("squeezing = 0.4\neta = 0.8\n")
        flags = ["--squeezing", "0.6", "--eta", "0.7"]
        for argv in ([], ["--config", str(config)], ["--config", str(config)] + flags):
            assert main([command] + argv) == 0
        assert [(c.squeezing, c.eta) for c in seen] == [
            (squeezing, eta), ((0.4,), 0.8), ((0.6,), 0.7)]

    def test_command_help_renders(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "(default eta 0.9, 50% squeezing)" in text
        assert "option_strings" not in text


class TestExitCodes:
    def test_usage_error_is_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["fig3", "--no-such-flag"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["fig4", "--lambda-max", "inf"],
        ["fig4", "--lambda-max", "nan"],
        ["fig4", "--lambda-min", "nan"],
        ["fig4", "--lambda-max", "1e308"],  # the grid arithmetic overflows
        ["operating-point", "--eta", "0"],
        ["fig3", "--squeezing", "0.5", "--squeezing", "0.5"],
        ["fig4", "--squeezing", "0.499", "--squeezing", "0.501"],  # both s_50
        ["operating-point", "--chi1", "200"],  # the rates overflow
        ["operating-point", "--chi1", "1000"],  # cosh(chi1)^2 overflows
        ["fig4", "--lambda-max", "1e200"],  # the teleported rates overflow
        ["fig4", "--chi1", "177.445"],  # finite rates, overflowing CH sums
        ["fig3", "--out", __file__],  # the output directory is an existing file
        # the optimal gain tanh(chi2)/sqrt(eta) is 0 where chi2 is 0
        ["operating-point", "--squeezing", "0", "--squeezing", "0.5"],
        ["threshold-scan", "--squeezing", "0"],
        ["operating-point", "--squeezing", "1e-300"],  # 1 - s rounds to 1
    ])
    # outside pytest a warning would print more lines to stderr
    @pytest.mark.filterwarnings("error")
    def test_bad_values_exit_1_with_one_line(self, tmp_path, capsys, argv):
        # an --out in argv comes later and overrides tmp_path
        assert main(argv[:1] + ["--out", str(tmp_path)] + argv[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cvswap: config error: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, level", [
        ("operating-point", "0"), ("threshold-scan", "0"), ("operating-point", "1e-300"),
    ])
    def test_zero_chi2_level_is_named(self, tmp_path, capsys, command, level):
        argv = [command, "--squeezing", "0.5", "--squeezing", level, "--out", str(tmp_path)]
        assert main(argv) == 1
        assert f"at level {float(level)}\n" in capsys.readouterr().err

    def test_memory_error_exits_1_with_one_line(self, tmp_path, monkeypatch, capsys):
        def fail(*args):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(cvswap.cli, "build_swap_circuit", fail)
        assert main(["fig4", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cvswap: config error: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_other_value_errors_surface(self, tmp_path, monkeypatch):
        # only ch_s's float-range overflow is reported as a config error
        def fail(*args):
            raise ValueError("r_ab is negative beyond tolerance: -1")

        monkeypatch.setattr(cvswap.cli, "ch_s", fail)
        with pytest.raises(ValueError, match="negative beyond tolerance"):
            main(["fig3", "--angles-steps", "3", "--out", str(tmp_path)])

    @pytest.mark.parametrize("argv", [
        ["threshold-scan", "--squeezing", "0.9999999999999999"],
        ["operating-point", "--chi1", "30"],
    ])
    def test_large_squeezing_runs(self, tmp_path, capsys, argv):
        # [F, F+] = cosh^2 - sinh^2 cancels at magnitude sinh^2, which the
        # canonical-mode check must allow for
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_degenerate_physics_is_exit_2(self, tmp_path, capsys):
        code = main(["fig3", "--chi1", "0", "--out", str(tmp_path),
                     "--angles-steps", "5"])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv, s_ad", [
        (["--squeezing", "1e-15"], "1.07030161"),  # denominator ~6e-33
        (["--chi1", "1e-16"], "1.07854191"),  # denominator ~3e-33
    ])
    def test_tiny_normal_denominator_runs(self, tmp_path, capsys, argv, s_ad):
        assert main(["operating-point", "--out", str(tmp_path)] + argv) == 0
        assert capsys.readouterr().err == ""
        _, row = (tmp_path / "operating_point.csv").read_text().splitlines()
        assert row.split(",")[0] == s_ad

    @pytest.mark.parametrize("chi1", ["0", "1e-160"])  # denominator 0, subnormal
    def test_zero_or_subnormal_denominator_is_exit_2(self, tmp_path, capsys, chi1):
        assert main(["operating-point", "--chi1", chi1, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cvswap: degenerate physics: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["fig3", "fig4", "threshold-scan", "operating-point"])
def test_one_build_and_one_ch_s_per_command(tmp_path, monkeypatch, capsys, command):
    calls = []
    for name in ("build_swap_circuit", "ch_s"):
        def counted(*args, original=getattr(cvswap.cli, name), name=name):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(cvswap.cli, name, counted)
    assert main([command, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert calls == ["build_swap_circuit", "ch_s"]


# calls per build of each component that runs once for both polarizations,
# and the LinearField constructions of one build; a build that ran each
# polarization chain on its own made 4, 2 and 6 calls and 108 fields
COMPONENT_CALLS = {"two_mode_squeezer": 2, "beamsplitter_5050": 1, "_require_canonical": 3}
FIELDS_PER_BUILD = 48


@pytest.mark.parametrize("command", ["fig3", "fig4", "threshold-scan", "operating-point"])
def test_each_component_runs_once_per_build(tmp_path, monkeypatch, capsys, command):
    calls, per_build = [], []
    for name in COMPONENT_CALLS:
        def counted(*args, original=getattr(cvswap.circuit, name), name=name):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(cvswap.circuit, name, counted)

    def counting_init(field, *args, original=cvswap.circuit.LinearField.__init__):
        calls.append("LinearField")
        original(field, *args)

    def build(params, original=cvswap.cli.build_swap_circuit):
        calls.clear()
        out = original(params)
        per_build.append({name: calls.count(name) for name in [*COMPONENT_CALLS, "LinearField"]})
        return out

    monkeypatch.setattr(cvswap.circuit.LinearField, "__init__", counting_init)
    monkeypatch.setattr(cvswap.cli, "build_swap_circuit", build)
    assert main([command, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert per_build == [{**COMPONENT_CALLS, "LinearField": FIELDS_PER_BUILD}]


# S of each folded sweep at its defaults, captured as float.hex before
# ch_s could contract D' in its two parts
FOLDED_S = json.loads((Path(__file__).parent / "folded_s.json").read_text())


def record_ch_s(monkeypatch):
    """The list that each CLI call of ch_s appends (the circuit output, S) to."""
    seen = []

    def recording(out, angles):
        result = ch_s(out, angles)
        seen.append((out, result.s))
        return result

    monkeypatch.setattr(cvswap.cli, "ch_s", recording)
    return seen


@pytest.mark.parametrize("command", sorted(FOLDED_S))
def test_folded_sweeps_keep_every_bit(tmp_path, monkeypatch, capsys, command):
    seen = record_ch_s(monkeypatch)
    assert main([command, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    [(out, s)] = seen
    assert not _factored(out)
    expected = np.array([float.fromhex(x) for x in FOLDED_S[command]["s"]])
    assert np.array_equal(s, expected.reshape(FOLDED_S[command]["shape"]))


def test_fig4_keeps_the_teleported_beam_factored(tmp_path, monkeypatch, capsys):
    seen = record_ch_s(monkeypatch)
    assert main(["fig4", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    [(out, s)] = seen
    assert _factored(out)
    assert out.beam_d0.h.ann.shape[:-1] == (4,)
    assert s.shape == (200, 4)


def test_fig4_memory_per_grid_point(tmp_path):
    """The gain grid meets only the 2x2 matrices and the rates, not the mode
    axis: under 0.8 KB per point at 8,000 points (a D' that carries the gain
    axis over its 12 modes takes about 1.3 KB)."""
    config = ExperimentConfig(squeezing=(0.10, 0.50, 0.80, 0.99), lambda_steps=2000,
                              out=tmp_path)
    tracemalloc.start()
    try:
        assert cvswap.cli.cmd_fig4(config, io.StringIO()) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 8000 < 800


def test_parser_is_built_once_and_keeps_no_parse_state(tmp_path, monkeypatch, capsys):
    seen = []
    monkeypatch.setitem(cvswap.cli._COMMANDS, "threshold-scan",
                        lambda config, stream: seen.append(config) or 0)
    build_parser.cache_clear()
    assert main(["threshold-scan", "--eta-min", "0.8"]) == 0
    assert main(["threshold-scan"]) == 0
    assert [config.eta_min for config in seen] == [0.8, 0.70]
    for argv, columns in ((["--squeezing", "0.5"], 1), ([], 4)):
        assert main(["fig4", "--out", str(tmp_path)] + argv) == 0
        header, _ = read_rows(tmp_path / "fig4.csv")
        assert len(header) == 1 + columns
    with pytest.raises(SystemExit) as exc:
        main(["fig4", "--no-such-flag"])
    assert exc.value.code == 1
    assert main(["operating-point", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert build_parser.cache_info().misses == 1


class TestEntryPoint:
    """``python -m cvswap`` in a child process: exit codes and real stderr."""

    @staticmethod
    def run(tmp_path, *argv):
        src = Path(cvswap.cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        return subprocess.run([sys.executable, "-m", "cvswap", *argv, "--out",
                               str(tmp_path / "out")], env=env, capture_output=True,
                              text=True, timeout=120)

    def test_operating_point_writes_pinned_bytes(self, tmp_path):
        done = self.run(tmp_path, "operating-point")
        assert (done.returncode, done.stderr) == (0, "")
        assert (tmp_path / "out" / "operating_point.csv").read_bytes() == (
            b"s_ad,lambda_op,coincidence_ratio\n1.07030161,0.351364184,0.111111111\n")

    @pytest.mark.parametrize("argv, code, prefix", [
        (["operating-point", "--chi1", "200"], 1, "cvswap: config error: "),
        (["fig3", "--chi1", "0", "--angles-steps", "5"], 2, "cvswap: degenerate physics: "),
    ])
    def test_failures_exit_with_one_stderr_line(self, tmp_path, argv, code, prefix):
        done = self.run(tmp_path, *argv)
        assert done.returncode == code
        assert done.stderr.startswith(prefix)
        assert done.stderr.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestOperatingPoint:
    def test_default_values(self, tmp_path, capsys):
        assert main(["operating-point", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        header, rows = read_rows(tmp_path / "operating_point.csv")
        assert header == ["s_ad", "lambda_op", "coincidence_ratio"]
        s_ad, lambda_op, ratio = rows[0]
        assert s_ad == pytest.approx(1.08, abs=0.01)
        assert lambda_op == pytest.approx(0.35136418446315326, rel=1e-8)
        assert ratio == pytest.approx(1 / 9, rel=1e-8)

    def test_lossless_override_returns_baseline(self, tmp_path, capsys):
        assert main(["operating-point", "--eta", "1", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        _, rows = read_rows(tmp_path / "operating_point.csv")
        # CSV carries 9 significant digits
        assert rows[0][0] == pytest.approx(baseline_s(0.1), abs=5e-8)


    def test_one_row_per_level(self, tmp_path, capsys):
        # at the optimal gain the teleporter is an attenuator, so S does not
        # depend on the squeezing level
        assert main(["operating-point", "--out", str(tmp_path / "one")]) == 0
        assert main(["operating-point", "--squeezing", "0.5", "--squeezing", "0.9",
                     "--out", str(tmp_path / "two")]) == 0
        capsys.readouterr()
        one = (tmp_path / "one" / "operating_point.csv").read_text().splitlines()
        two = (tmp_path / "two" / "operating_point.csv").read_text().splitlines()
        assert len(two) == 3 and two[:2] == one
        _, rows = read_rows(tmp_path / "two" / "operating_point.csv")
        assert rows[1][0] == pytest.approx(rows[0][0], abs=1e-9)
        chi2 = squeezing_to_chi(0.9)
        assert rows[1][1] == pytest.approx(math.tanh(chi2) / math.sqrt(0.9), rel=1e-8)


class TestThresholdScan:
    def test_crossing_and_columns(self, tmp_path, capsys):
        code = main(["threshold-scan", "--chi1", "0.01", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        crossings = [float(line.split("=")[1]) for line in out.splitlines()
                     if line.startswith("threshold_crossing")]
        assert len(crossings) == 3
        for value in crossings:
            assert value == pytest.approx(0.828, abs=0.002)
        assert max(crossings) - min(crossings) < 0.002
        header, rows = read_rows(tmp_path / "threshold_scan.csv")
        assert header == ["eta", "s_ad_30", "s_ad_50", "s_ad_90"]
        assert rows[-1][0] == pytest.approx(1.0)
        for column in (1, 2, 3):
            assert rows[-1][column] == pytest.approx(baseline_s(0.01), abs=5e-8)


    def test_crossing_is_the_first_in_either_direction(self):
        crossing = cvswap.cli._interpolate_crossing
        assert crossing([0.7, 0.8, 0.9], [1.2, 1.1, 0.9]) == pytest.approx(0.85)
        assert crossing([0.7, 0.8, 0.9], [0.9, 1.1, 0.8]) == pytest.approx(0.75)
        assert crossing([0.7, 0.8, 0.9], [1.2, 1.1, 1.0]) is None


class TestFig3:
    def test_grid_max_at_pi_over_eight(self, tmp_path, capsys):
        code = main(["fig3", "--squeezing", "0.99", "--out", str(tmp_path),
                     "--angles-steps", "181"])
        assert code == 0
        capsys.readouterr()
        header, rows = read_rows(tmp_path / "fig3.csv")
        assert header == ["theta_a_rad", "s_99"]
        assert len(rows) == 181
        best = max(rows, key=lambda row: row[1])
        assert best[0] == pytest.approx(math.pi / 8, abs=1e-9)  # on-grid point
        assert best[1] == pytest.approx(1.18, abs=0.02)

    def test_default_levels(self, tmp_path, capsys):
        code = main(["fig3", "--out", str(tmp_path), "--angles-steps", "19"])
        assert code == 0
        capsys.readouterr()
        header, _ = read_rows(tmp_path / "fig3.csv")
        assert header == ["theta_a_rad", "s_99", "s_80"]


class TestFig4:
    def test_argmax_and_equal_maxima(self, tmp_path, capsys):
        # step 0.002: the peak is sharp in relative gain offset, and the
        # weakest squeezing level peaks at gain ~0.053
        code = main(["fig4", "--out", str(tmp_path), "--lambda-steps", "596",
                     "--lambda-min", "0.01", "--lambda-max", "1.2"])
        assert code == 0
        capsys.readouterr()
        header, rows = read_rows(tmp_path / "fig4.csv")
        assert header == ["lambda", "s_10", "s_50", "s_80", "s_99"]
        step = (1.2 - 0.01) / 595
        maxima = []
        for column, squeezing in ((1, 0.10), (2, 0.50), (3, 0.80), (4, 0.99)):
            best = max(rows, key=lambda row: row[column])
            target = math.tanh(-0.5 * math.log(1 - squeezing))
            assert abs(best[0] - target) <= step
            maxima.append(best[column])
        baseline = baseline_s(0.1)
        for value in maxima:
            assert value == pytest.approx(baseline, abs=3e-3)
        assert max(maxima) - min(maxima) < 3e-3


class TestOutputFormat:
    def test_csv_formatting(self, tmp_path, capsys):
        main(["operating-point", "--out", str(tmp_path)])
        capsys.readouterr()
        raw = (tmp_path / "operating_point.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        text = raw.decode()
        assert text.splitlines()[0] == "s_ad,lambda_op,coincidence_ratio"
        value = text.splitlines()[1].split(",")[1]
        assert value == f"{0.35136418446315326:.9g}"

    def test_determinism(self, tmp_path, capsys):
        for directory in ("one", "two"):
            main(["fig4", "--out", str(tmp_path / directory),
                  "--lambda-steps", "12", "--squeezing", "0.5"])
        capsys.readouterr()
        assert ((tmp_path / "one" / "fig4.csv").read_bytes()
                == (tmp_path / "two" / "fig4.csv").read_bytes())

    def test_csv_rows_match_per_cell_formatting(self, tmp_path):
        values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e300,
                  2.0, -3.0, 1e16, 0.1, 1 / 3, 123456789012.0, 5e-324]
        rows = [values[k:k + 2] for k in range(0, len(values), 2)]
        cvswap.cli.write_csv(tmp_path / "t.csv", ["x", "y"], rows)
        expected = ["x,y"] + [",".join(f"{x:.9g}" for x in row) for row in rows]
        assert (tmp_path / "t.csv").read_text() == "\n".join(expected) + "\n"

    def test_svg_polyline_per_column(self, tmp_path, capsys):
        main(["fig3", "--out", str(tmp_path), "--angles-steps", "13", "--svg"])
        capsys.readouterr()
        svg = (tmp_path / "fig3.svg").read_text()
        assert svg.count("<polyline") == 2  # s_99 and s_80


class TestSelftest:
    def test_passes_and_is_deterministic(self, capsys):
        assert main(["selftest"]) == 0
        first = capsys.readouterr().out
        assert main(["selftest"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "all 7 checks passed" in first

    def test_zero_engine_rate_fails_fock_check(self, monkeypatch):
        # a vanishing engine rate against nonzero Fock rates is a failure
        monkeypatch.setattr(cvswap.selftest, "coincidence_rate", lambda e1, e2: 0.0)
        detail = cvswap.selftest.check_wick_vs_fock_rates()
        assert detail is not None and "(Wick)" in detail

    def test_corrupted_feedforward_phase_is_caught(self, monkeypatch):
        """Flipping the minus-quadrature gain phase feeds the measured beam
        forward as creation operators.  Commutators survive the flip; the
        attenuation-structure check is what catches it."""
        monkeypatch.setattr(cvswap.circuit, "MINUS_GAIN_PHASE", -1j)
        stream = io.StringIO()
        assert run_selftest(stream) == 3
        report = stream.getvalue()
        assert "ok   canonical-commutators" in report
        assert "FAIL optimal-gain-attenuation" in report
