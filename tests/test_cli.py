"""CLI commands: CSV output, config handling, exit codes, selftest."""

import io
import math

import pytest

import cvswap.circuit
from cvswap.cli import ExperimentConfig, main, read_config_file
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
            ExperimentConfig(squeezing_levels=()).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(squeezing_levels=(0.5,), lambda_steps=1).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(squeezing_levels=(0.5,), eta=1.3).validate()


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
    ])
    def test_bad_values_exit_1_with_one_line(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cvswap: config error: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_degenerate_physics_is_exit_2(self, tmp_path, capsys):
        code = main(["fig3", "--chi1", "0", "--out", str(tmp_path),
                     "--angles-steps", "5"])
        assert code == 2
        capsys.readouterr()


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
