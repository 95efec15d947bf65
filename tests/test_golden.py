"""The default sweeps reproduce the benchmark's golden outputs byte for byte.

The golden files in ``bench/golden/`` were captured from the engine before
any change to it; a change that moves a ninth significant digit of a CSV
cell or of the printed S = 1 crossing fails here.  The benchmark runs no
``operating-point``, so its default CSV is pinned here inline.
"""

import pytest

from cvswap.cli import main
from helpers import GOLDEN, GOLDEN_SWEEPS, checked_stdout


@pytest.mark.parametrize("command, workload, csv", GOLDEN_SWEEPS)
def test_default_outputs_match_golden(tmp_path, capsys, command, workload, csv):
    assert main([command, "--out", str(tmp_path)]) == 0
    checked = checked_stdout(capsys.readouterr().out)
    assert (tmp_path / csv).read_bytes() == (GOLDEN / csv).read_bytes()
    assert checked == (GOLDEN / f"{workload}.stdout").read_text()


def test_default_operating_point_bytes(tmp_path, capsys):
    assert main(["operating-point", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "operating_point.csv").read_bytes() == (
        b"s_ad,lambda_op,coincidence_ratio\n1.07030161,0.351364184,0.111111111\n")


def test_selftest_stdout_matches_golden(capsys):
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "selftest.stdout").read_text()
