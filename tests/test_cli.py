"""CLI commands: CSV output, config handling, exit codes, selftest."""

import argparse
import contextlib
import gc
import io
import json
import math
import os
import pkgutil
import re
import runpy
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cvswap.circuit
import cvswap.cli
import cvswap.selftest
from cvswap.cli import ExperimentConfig, build_parser, main, read_config_file
from cvswap.circuit import SwapParams, build_swap_circuit
from cvswap.metrics import (
    OPTIMAL_ANGLES,
    _grid,
    _operands,
    angle_family,
    ch_s,
    optimal_gain,
    squeezing_to_chi,
)
from cvswap.modes import N_MODES, LinearField
from cvswap.selftest import run_selftest
from helpers import (
    GOLDEN,
    GOLDEN_SWEEPS,
    baseline_s,
    checked_stdout,
    per_component_d_prime,
    cli_ch_s_call,
    wick_term_magnitudes,
)


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


# config key, ExperimentConfig field, a command that reads it, file value,
# equivalent flags, parsed value, and a different file value that the flags
# must override
SETTINGS = [
    ("chi1", "chi1", "fig4", "0.05", ["--chi1", "0.05"], 0.05, "0.2"),
    ("squeezing", "squeezing", "fig4", "0.3, 0.6",
     ["--squeezing", "0.3", "--squeezing", "0.6"], (0.3, 0.6), "0.4"),
    ("eta", "eta", "fig4", "0.8", ["--eta", "0.8"], 0.8, "0.9"),
    ("lambda_min", "lambda_min", "fig4", "0.02", ["--lambda-min", "0.02"], 0.02, "0.05"),
    ("lambda_max", "lambda_max", "fig4", "1.5", ["--lambda-max", "1.5"], 1.5, "1.0"),
    ("lambda_steps", "lambda_steps", "fig4", "30", ["--lambda-steps", "30"], 30, "50"),
    ("angles_steps", "angles_steps", "fig3", "11", ["--angles-steps", "11"], 11, "13"),
    ("eta_min", "eta_min", "threshold-scan", "0.75", ["--eta-min", "0.75"], 0.75, "0.8"),
    ("eta_max", "eta_max", "threshold-scan", "0.95", ["--eta-max", "0.95"], 0.95, "0.9"),
    ("eta_steps", "eta_steps", "threshold-scan", "7", ["--eta-steps", "7"], 7, "9"),
    ("out", "out", "operating-point", "results", ["--out", "results"], Path("results"),
     "elsewhere"),
    ("svg", "svg", "threshold-scan", "true", ["--svg"], True, "false"),
]

# each command's flags: the settings its driver reads, and --config
SOURCE_OPTIONS = {"-h", "--help", "--chi1", "--squeezing", "--out", "--svg", "--config"}
COMMAND_OPTIONS = {
    "fig3": SOURCE_OPTIONS | {"--eta", "--angles-steps"},
    "fig4": SOURCE_OPTIONS | {"--eta", "--lambda-min", "--lambda-max", "--lambda-steps"},
    "operating-point": SOURCE_OPTIONS | {"--eta"},
    "threshold-scan": SOURCE_OPTIONS | {"--eta-min", "--eta-max", "--eta-steps"},
    "selftest": {"-h", "--help"},
}


class TestSettings:
    @staticmethod
    def resolve(monkeypatch, tmp_path, command, file_text, flags):
        """The ExperimentConfig that main hands to the command's driver."""
        seen = []
        monkeypatch.setitem(cvswap.cli._COMMANDS, command,
                            lambda config, stream: seen.append(config) or 0)
        config = tmp_path / "run.cfg"
        config.write_text(file_text)
        assert main([command, "--config", str(config)] + flags) == 0
        return seen[0]

    @pytest.mark.parametrize("key, field, command, file_value, flags, parsed, other",
                             SETTINGS, ids=[row[0] for row in SETTINGS])
    def test_file_and_flag_agree_and_flag_wins(self, monkeypatch, tmp_path, key, field,
                                               command, file_value, flags, parsed, other):
        def resolve(file_text, flags):
            return self.resolve(monkeypatch, tmp_path, command, file_text, flags)

        from_file = resolve(f"{key} = {file_value}\n", [])
        from_flag = resolve("", flags)
        both = resolve(f"{key} = {other}\n", flags)
        assert getattr(from_file, field) == parsed
        assert getattr(from_flag, field) == parsed
        assert getattr(both, field) == parsed
        assert getattr(resolve(f"{key} = {other}\n", []), field) != parsed

    def test_option_strings_per_subcommand(self):
        parser = build_parser()
        sub = next(action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
        options = {name: {s for action in command._actions for s in action.option_strings}
                   for name, command in sub.choices.items()}
        assert options == COMMAND_OPTIONS
        # 30 flag instances over the four sweeps, less -h and --help
        assert sum(len(names - {"-h", "--help"}) for names in options.values()) == 30
        assert parser.parse_args(["threshold-scan", "--eta-min", "0.8"]).eta_min == 0.8

    @pytest.mark.parametrize("argv", [
        ["fig3", "--eta-min", "0.8"],
        # --eta is a prefix of the eta-grid flags, so argparse finds it ambiguous
        ["threshold-scan", "--eta", "0.5"],
        ["fig3", "--lambda-steps", "7"],
        ["operating-point", "--angles-steps", "3"],
        ["fig4", "--eta-min", "0.8"],
        ["selftest", "--config", "run.cfg"],
    ])
    def test_flag_of_another_command_is_exit_1(self, monkeypatch, tmp_path, capsys, argv):
        monkeypatch.chdir(tmp_path)  # where a command that took the flag would write
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert argv[1] in capsys.readouterr().err

    def test_each_driver_reads_exactly_its_commands_settings(self, tmp_path):
        """Each driver, called directly on a config that records which
        fields it reads, reads exactly the settings its table row lists."""
        fields = set(ExperimentConfig._fields)
        read = set()

        class Recording(ExperimentConfig):
            def __getattribute__(self, name):
                if name in fields:
                    read.add(name)
                return super().__getattribute__(name)

        for command, driver in cvswap.cli._COMMANDS.items():
            _, defaults, keys = cvswap.cli._COMMAND_SETTINGS[command]
            config = Recording(**{**defaults, "angles_steps": 3, "lambda_steps": 3,
                                  "eta_steps": 3, "svg": True, "out": tmp_path})
            read.clear()
            assert driver(config, io.StringIO()) == 0
            assert read == set(keys), command

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
        # threshold-scan takes no --eta, and keeps the file's eta
        flags, flag_eta = ["--squeezing", "0.6"], 0.8
        if command != "threshold-scan":
            flags, flag_eta = flags + ["--eta", "0.7"], 0.7
        for argv in ([], ["--config", str(config)], ["--config", str(config)] + flags):
            assert main([command] + argv) == 0
        assert [(c.squeezing, c.eta) for c in seen] == [
            (squeezing, eta), ((0.4,), 0.8), ((0.6,), flag_eta)]

    @pytest.mark.parametrize("command, text", [
        ("fig3", "(default (0.99, 0.8))"), ("fig3", "in [0, 1] (default 1.0)"),
        ("operating-point", "(default (0.5,))"), ("operating-point", "(default 0.9)"),
        ("fig4", "bound (default 0.01)"), ("threshold-scan", "bound (default 0.7)"),
    ])
    def test_flag_help_shows_the_commands_default(self, capsys, command, text):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert text in " ".join(capsys.readouterr().out.split())

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
        ["fig4", "--lambda-min", "0"],
        ["fig4", "--lambda-min", "1.5", "--lambda-max", "1.0"],
        ["fig4", "--lambda-min", "0.5", "--lambda-max", "0.5"],  # an empty range
        ["threshold-scan", "--eta-min", "0.9", "--eta-max", "0.8"],
        ["threshold-scan", "--eta-max", "1.1"],
        ["fig3", "--config", str(Path(__file__).with_name("svg_maybe.cfg"))],
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


# the values of each drawn flag, mostly in range; one flag of a draw may take
# any float instead, out of range or not finite, and --squeezing 1 to 3 levels
FUZZ_VALUES = {
    "--chi1": st.floats(0, 200),
    "--squeezing": st.floats(0, 1, exclude_max=True),
    "--eta": st.floats(0, 1),
    "--angles-steps": st.integers(-1, 40),
    "--lambda-min": st.floats(0, 3),
    "--lambda-max": st.floats(0, 3),
    "--lambda-steps": st.integers(-1, 40),
    "--eta-min": st.floats(0, 1),
    "--eta-max": st.floats(0, 1),
    "--eta-steps": st.integers(-1, 40),
}
GRID_FLAGS = {"--angles-steps", "--lambda-steps", "--eta-steps"}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_fuzzed_argv_exits_0_1_or_2_with_one_line(data):
    """main on a drawn command and a drawn subset of its flags, each grid of
    at most 40 points, returns 0, 1 or 2, or argparse exits 1; each failure
    that main reports is one stderr line.  A flag of another command always
    exits 1."""
    command = data.draw(st.sampled_from(sorted(cvswap.cli._COMMANDS)))
    own = sorted(COMMAND_OPTIONS[command] & FUZZ_VALUES.keys())
    # a grid flag is always passed, so no draw takes a default grid
    flags = sorted(data.draw(st.sets(st.sampled_from(own))) | (GRID_FLAGS & set(own)))
    wild = data.draw(st.sampled_from(flags)) if flags and data.draw(st.booleans()) else None
    argv = []
    for flag in flags:
        values = st.floats() if flag == wild else FUZZ_VALUES[flag]
        count = data.draw(st.integers(1, 3)) if flag == "--squeezing" else 1
        argv += [f"{flag}={data.draw(values)}" for _ in range(count)]
    if data.draw(st.booleans()):
        argv.append("--svg")
    foreign = None
    if data.draw(st.integers(0, 4)) == 0:
        foreign = data.draw(st.sampled_from(sorted(FUZZ_VALUES.keys() - set(own))))
        argv.insert(data.draw(st.integers(0, len(argv))),
                    f"{foreign}={data.draw(FUZZ_VALUES[foreign])}")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main([command, *argv, f"--out={tmp}"])
        except SystemExit as exc:
            assert exc.code == 1
            return
    assert foreign is None, f"{foreign} accepted by {command}"
    assert code in (0, 1, 2)
    text = err.getvalue()
    if code == 0:
        assert text == ""
    else:
        assert text.startswith("cvswap: ") and text.count("\n") == 1, text


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
# and the LinearField constructions of one build, all through its one
# constructor: one field per vacuum stack, adjoint, product and sum, and per
# half-wave plate's view, so 22 in the two squeezers, 22 in the
# photocurrents, 3 in X and 1 in D'(0)
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
# ch_s could contract D' in its parts or evaluate its rates as real
# quadratic forms; threshold-scan, whose efficiency axis adds batch axes to
# the weights, is checked against folded D' at the term scale instead
FOLDED_S = json.loads((Path(__file__).parent / "folded_s.json").read_text())


@pytest.mark.parametrize("command", sorted(FOLDED_S))
def test_folded_sweeps_s_within_term_rounding_of_pin(tmp_path, monkeypatch, command):
    """Each folded sweep contracts D' in one block, and every cell of S lies
    within 4e-15 of its pinned value, relative to the numerator's Wick-term
    magnitudes over the denominator (the numerator can cancel, so S itself
    is no scale)."""
    out, angles, result = cli_ch_s_call(monkeypatch, [command, "--out", str(tmp_path)])
    assert _operands(out)[1].shape[-3] == 1
    expected = np.array([float.fromhex(x) for x in FOLDED_S[command]["s"]])
    assert result.s.shape == tuple(FOLDED_S[command]["shape"])
    terms = wick_term_magnitudes(out.beam_a, out.beam_d_prime, angles)
    numerator = sum(terms[name] for name in ("r_ab", "r_ab_prime", "r_a_prime_b",
                                             "r_a_prime_b_prime"))
    scale = numerator / (result.r_singles_a + result.r_singles_b)
    assert np.all(np.abs(result.s - expected.reshape(result.s.shape)) <= 4e-15 * scale)


def test_threshold_scan_s_within_term_rounding_of_folded(tmp_path, monkeypatch):
    """threshold-scan's one build holds X in its port and loss parts at the
    levels' shape alone, and ch_s contracts D'(0) and both parts as blocks:
    every cell of S lies within 4e-15 of S on D' = D'(0) + g X(eta) of
    per_component_build at that cell's eta, relative to the numerator's
    Wick-term magnitudes over the denominator (the numerator can cancel, so
    S itself is no scale)."""
    out, _, scan = cli_ch_s_call(monkeypatch, ["threshold-scan", "--out", str(tmp_path)])
    assert out.beam_a.field.ann.shape == (2, N_MODES)
    assert out.beam_d0.field.ann.shape == (3, 2, N_MODES)
    assert out.parts.field.ann.shape == (2, 3, 2, N_MODES)
    assert out.weights.shape == (2, 61, 3)
    assert _operands(out)[1].shape[-3] == 3
    chis = np.array([squeezing_to_chi(level) for level in (0.3, 0.5, 0.9)])
    for i, eta in enumerate(_grid(0.7, 1.0, 61)):
        beams = per_component_d_prime(SwapParams(0.1, chis, optimal_gain(chis, eta), eta))
        result = ch_s(beams, OPTIMAL_ANGLES)
        terms = wick_term_magnitudes(*beams, OPTIMAL_ANGLES)
        numerator = sum(terms[name] for name in ("r_ab", "r_ab_prime", "r_a_prime_b",
                                                 "r_a_prime_b_prime"))
        scale = numerator / (result.r_singles_a + result.r_singles_b)
        assert np.all(np.abs(scan.s[i] - result.s) <= 4e-15 * scale)


def traced_peak(call):
    """call()'s result and tracemalloc's peak of traced memory during it."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_threshold_scan_memory_per_grid_point(tmp_path):
    """The efficiency grid meets only the parts' weights, the 2x2 matrices
    and the rates, not the mode axis: under 0.8 KB per point at 8,100
    points (the build over (efficiency, level) pairs took about 2.7 KB)."""
    config = ExperimentConfig(squeezing=(0.3, 0.5, 0.9), eta_steps=2700, out=tmp_path)
    code, peak = traced_peak(lambda: cvswap.cli.cmd_threshold_scan(config, io.StringIO()))
    assert code == 0
    assert peak / 8100 < 800


def test_fig4_keeps_the_teleported_beam_factored(tmp_path, monkeypatch):
    """fig4's gain grid meets only the weights, so ch_s contracts D'(0) and
    the port part as blocks; at eta = 1 the loss part's weight is 0
    everywhere, and it is dropped."""
    out, _, result = cli_ch_s_call(monkeypatch, ["fig4", "--out", str(tmp_path)])
    assert _operands(out)[1].shape[-3] == 2
    assert out.beam_d0.h.ann.shape[:-1] == (4,)
    assert result.s.shape == (200, 4)


def test_fig4_below_unit_efficiency_adds_the_loss_block(tmp_path, monkeypatch):
    out, _, result = cli_ch_s_call(monkeypatch, ["fig4", "--eta", "0.9", "--out", str(tmp_path)])
    assert _operands(out)[1].shape[-3] == 3
    assert result.s.shape == (200, 4)


def test_fig4_memory_per_grid_point(tmp_path):
    """The gain grid meets only the 2x2 matrices and the rates, not the mode
    axis: under 0.8 KB per point at 8,000 points (a D' that carries the gain
    axis over its 12 modes takes about 1.3 KB)."""
    config = ExperimentConfig(squeezing=(0.10, 0.50, 0.80, 0.99), lambda_steps=2000,
                              out=tmp_path)
    code, peak = traced_peak(lambda: cvswap.cli.cmd_fig4(config, io.StringIO()))
    assert code == 0
    assert peak / 8000 < 800


def test_angle_grid_ch_s_memory_per_cell():
    """ch_s alone on fig3's default grid of 721 angles x 2 levels: each
    coincidence rate's angle-only vector c = u (x) w, and each singles
    rate's u or w, meets the one-block form H, or its 2x2 marginal, in H c
    and c^T (H c), and the rates and S are what stay, about 108 B of
    tracemalloc peak per S cell.  Each singles rate as two forms against
    the other beam's bare h and v peaked at about 132 B, and the product
    u (x) w kept alive past the coincidence rates peaks at about 118 B."""
    chis = np.array([squeezing_to_chi(level) for level in (0.99, 0.80)])
    out = build_swap_circuit(SwapParams(0.1, chis, 1.0, 1.0))
    angles = angle_family(_grid(0.0, math.pi / 2, 721)[:, None])
    s, peak = traced_peak(lambda: ch_s(out, angles).s)
    assert s.shape == (721, 2)
    assert peak / s.size < 120


def test_factored_ch_s_memory_per_grid_point():
    """ch_s alone on fig4's four levels x 2,000 gains, which it factors: the
    gain grid meets only the Horner evaluation of each rate part's
    quadratic and the checks, about 94 B of tracemalloc peak per point.
    One more (gain, level, 2, 2) complex array would add 64 B, and
    contracting gain-expanded P, Q and Gram matrices peaks at about 417 B."""
    chis = np.array([squeezing_to_chi(level) for level in (0.10, 0.50, 0.80, 0.99)])
    gains = _grid(0.01, 2.0, 2000)
    out = build_swap_circuit(SwapParams(0.1, chis, gains[:, None], 1.0))
    assert _operands(out)[1].shape[-3] == 2
    _, peak = traced_peak(lambda: ch_s(out, OPTIMAL_ANGLES))
    assert peak / 8000 < 160


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
    """``python -m cvswap`` in a child process: exit codes, real stderr, and
    stdout through a pipe."""

    @staticmethod
    def python(*args):
        src = Path(cvswap.cli.__file__).resolve().parents[1]
        # one BLAS thread, as in the benchmark's children: starting a pool
        # costs each child more than its whole sweep
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
        return subprocess.run([sys.executable, *args],
                              env=env, capture_output=True, text=True, timeout=120)

    def run(self, tmp_path, *argv, out=True, module="cvswap"):
        out_flag = ["--out", str(tmp_path / "out")] if out else []
        return self.python("-m", module, *argv, *out_flag)

    @pytest.mark.parametrize("command, workload, csv", GOLDEN_SWEEPS)
    def test_sweep_matches_golden(self, tmp_path, command, workload, csv):
        done = self.run(tmp_path, command)
        assert (done.returncode, done.stderr) == (0, "")
        assert (tmp_path / "out" / csv).read_bytes() == (GOLDEN / csv).read_bytes()
        assert checked_stdout(done.stdout) == (GOLDEN / f"{workload}.stdout").read_text()

    def test_selftest_matches_golden(self, tmp_path):
        done = self.run(tmp_path, "selftest", out=False)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == (GOLDEN / "selftest.stdout").read_text()

    @pytest.mark.parametrize("module", ["cvswap", "cvswap.cli"])
    def test_usage_error_is_exit_1(self, tmp_path, module):
        done = self.run(tmp_path, "fig3", "--lambda-steps", "3", module=module)
        assert done.returncode == 1
        assert done.stderr.endswith(
            "cvswap: error: unrecognized arguments: --lambda-steps 3\n")
        assert not (tmp_path / "out").exists()

    def test_script_and_module_exit_with_mains_code(self, monkeypatch):
        """The installed ``cvswap`` command is ``cvswap.cli.main``, and
        ``python -m cvswap`` exits with the code that ``main`` returns."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["cvswap"]
        assert pkgutil.resolve_name(target) is cvswap.cli.main
        monkeypatch.setattr(cvswap.cli, "main", lambda: 3)
        # runpy warns when the module it runs as __main__ is already imported
        monkeypatch.delitem(sys.modules, "cvswap.__main__", raising=False)
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("cvswap", run_name="__main__")
        assert exc.value.code == 3

    def test_only_the_command_line_import_freezes_the_heap(self):
        """A bare ``import cvswap``, for library use, freezes nothing; then
        ``import cvswap.cli`` freezes the heap and leaves the collector on."""
        done = self.python("-c", "import gc, cvswap; bare = gc.get_freeze_count(); "
                           "import cvswap.cli; "
                           "print(bare, gc.get_freeze_count(), gc.isenabled())")
        assert (done.returncode, done.stderr) == (0, "")
        bare, frozen, enabled = done.stdout.split()
        assert (int(bare), int(frozen) > 0, enabled) == (0, True, "True")

    def test_module_cli_imports_itself_once(self):
        """``python -m cvswap.cli`` runs cli.py as ``__main__`` only: it never
        imports it a second time as ``cvswap.cli``."""
        done = self.python("-X", "importtime", "-m", "cvswap.cli", "selftest")
        assert done.returncode == 0
        assert done.stdout == (GOLDEN / "selftest.stdout").read_text()
        imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "cvswap.modes" in imported
        assert "cvswap.cli" not in imported

    @pytest.mark.parametrize("argv", [["fig4", "--lambda-steps", "3"], ["selftest"]])
    def test_main_leaves_the_collector_as_it_found_it(self, tmp_path, capsys, argv):
        """Only the process entry point freezes the heap; ``main`` runs
        in-process for tests, the benchmark and library callers."""
        before = gc.isenabled(), gc.get_freeze_count()
        out = ["--out", str(tmp_path)] if argv[0] != "selftest" else []
        assert main([*argv, *out]) == 0
        capsys.readouterr()
        assert (gc.isenabled(), gc.get_freeze_count()) == before

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

    def test_two_angle_steps_give_both_ends(self, tmp_path, capsys):
        assert main(["fig3", "--out", str(tmp_path), "--angles-steps", "2"]) == 0
        assert capsys.readouterr().err == ""
        _, rows = read_rows(tmp_path / "fig3.csv")
        assert [row[0] for row in rows] == [0.0, pytest.approx(math.pi / 2, rel=1e-8)]


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

    def test_csv_table_width_must_match_header(self, tmp_path):
        for table in ([[1.0, 2.0, 3.0]], [[1.0], [2.0]], np.zeros((3, 1))):
            with pytest.raises(TypeError):
                cvswap.cli.write_csv(tmp_path / "t.csv", ["x", "y"], table)

    def test_svg_polyline_per_column(self, tmp_path, capsys):
        main(["fig3", "--out", str(tmp_path), "--angles-steps", "13", "--svg"])
        capsys.readouterr()
        svg = (tmp_path / "fig3.svg").read_text()
        assert svg.count("<polyline") == 2  # s_99 and s_80

    @staticmethod
    def _polylines(path):
        text = path.read_text()
        return (re.findall(r"<title>([^<]*)</title>", text),
                [[tuple(map(float, point.split(","))) for point in points.split()]
                 for points in re.findall(r'points="([^"]*)"', text)])

    def test_svg_maps_the_ranges_onto_the_plot_box(self, tmp_path):
        """Column 0 spans x from 40 to 600, and all data columns together y
        from 440 (their least value) up to 40 (their largest), linearly."""
        table = [[2.0, 1.0, -4.0], [-1.0, 3.0, 0.5], [5.0, 10.0, 2.0], [3.5, -2.5, 7.0]]
        cvswap.cli.write_svg(tmp_path / "t.svg", ["x", "y", "z"], table)
        titles, lines = self._polylines(tmp_path / "t.svg")
        assert titles == ["y", "z"]
        strokes = re.findall(r'stroke="([^"]*)"', (tmp_path / "t.svg").read_text())
        assert strokes == ["#1f77b4", "#d62728"]
        for column, line in enumerate(lines, start=1):
            assert [x for x, _ in line] == [
                round(40 + (row[0] + 1.0) / 6.0 * 560, 2) for row in table]
            assert [y for _, y in line] == [
                round(440 - (row[column] + 4.0) / 14.0 * 400, 2) for row in table]
        xs = [x for line in lines for x, _ in line]
        ys = [y for line in lines for _, y in line]
        assert (min(xs), max(xs)) == (40.0, 600.0)
        assert (min(ys), max(ys)) == (40.0, 440.0)

    def test_svg_of_a_constant_column_is_finite(self, tmp_path):
        cvswap.cli.write_svg(tmp_path / "t.svg", ["x", "y"], [[1.5, 2.0], [1.5, 2.0]])
        _, [line] = self._polylines(tmp_path / "t.svg")
        assert line == [(40.0, 440.0), (40.0, 440.0)]


def with_x_minus_not_commuting(x_plus, x_minus):
    """x+ and, for x-, the annihilation part of x+, whose commutator with x+
    is -sum |ann|^2: -1 at eta = 0, where x+ is a loss mode's quadrature."""
    return x_plus, LinearField(x_plus.coeffs * [[1], [0]])


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

    # one check made to fail by one monkeypatch of a name in cvswap.selftest:
    # (check, name, wrapper of the original, failure detail); every line
    # that formats a detail of the first four checks runs once
    BROKEN_CHECKS = [
        ("canonical-commutators", "two_mode_squeezer",
         lambda original: lambda f, g, chi: tuple(2 * x for x in original(f, g, chi)),
         "squeezer output not canonical at chi=0.0"),
        ("canonical-commutators", "_beam_commutators",
         lambda original: lambda beam: original(beam) + 1.0,
         "beam commutator off by 1.000e+00 at chi2=0.0, gain=0.0000, eta=0.5"),
        ("homodyne-currents-commute", "homodyne_currents",
         lambda original: lambda *args: with_x_minus_not_commuting(*original(*args)),
         "[x+, x-] = 1.000e+00 at eta=0.0, h pair"),
        ("pairing-count", "wick_matchings", lambda original: lambda n: iter([[]]),
         "1 matchings visited for 2k=4, expected 3"),
        ("dual-oracle-moments", "normal_order_expectation",
         lambda original: lambda product: original(product) + 1e-9,
         "max |Wick - rewriter| = 1.000e-09 exceeds 1e-12"),
    ]

    @pytest.mark.parametrize("check, name, wrap, detail", BROKEN_CHECKS,
                             ids=[row[1] for row in BROKEN_CHECKS])
    def test_failing_check_prints_its_detail_and_returns_3(self, monkeypatch, check, name,
                                                           wrap, detail):
        monkeypatch.setattr(cvswap.selftest, name, wrap(getattr(cvswap.selftest, name)))
        stream = io.StringIO()
        assert run_selftest(stream) == 3
        lines = stream.getvalue().splitlines()
        assert len(lines) == len(cvswap.selftest.CHECKS) + 1
        assert [line for line in lines if not line.startswith("ok   ")] == [
            f"FAIL {check}: {detail}",
            f"selftest: 1 of 7 checks failed; first failure: {check}"]

    def test_check_that_raises_fails_in_one_line_and_the_rest_still_run(self, monkeypatch,
                                                                         capsys):
        def raises(exc):
            def check():
                raise exc
            return check

        checks = list(cvswap.selftest.CHECKS)
        first, last = checks[0][0], checks[-1][0]
        checks[0] = first, raises(ValueError("input 0 is not a canonical mode"))
        checks[-1] = last, raises(RuntimeError("two\nlines"))
        monkeypatch.setattr(cvswap.selftest, "CHECKS", checks)
        assert main(["selftest"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            f"FAIL {first}: ValueError: input 0 is not a canonical mode",
            *[f"ok   {name}" for name, _ in checks[1:-1]],
            f"FAIL {last}: RuntimeError: two lines",
            f"selftest: 2 of 7 checks failed; first failure: {first}"]

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
