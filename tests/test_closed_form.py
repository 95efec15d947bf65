"""Every default CSV cell against the exact closed form of S at any pump.

Per polarization the teleporter is a phase-insensitive Gaussian channel of
transmissivity tau = lambda^2 eta and added noise

    N = (sinh chi2 - lambda sqrt(eta) cosh chi2)^2 + lambda^2 (1 - eta),

so every coincidence rate is sinh^2 chi1 [tau (c^2 sin^2(ta - tb) + s^2) + N]
and the CH ratio is

    S = [tau (c^2 K + 2 s^2) + 2 N] / [2 tau (c^2 + 2 s^2) + 4 N]

with c = cosh chi1, s = sinh chi1 and K = sin^2(a - b) - sin^2(a - b')
+ sin^2(a' - b) + sin^2(a' - b').  The formula here is numpy only and
shares no code with the package, whose CLI runs the default sweeps and two
whose weights carry both the port and the loss part of the teleported beam.
The grids are evaluated at their exact values, lo + (hi - lo) k/(steps - 1),
not at the CSV's 9-digit first column.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import cvswap.cli

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden"
CHI1 = 0.1  # the default pump of every command
OPTIMAL_ANGLES = (math.pi / 8, -math.pi / 4, 3 * math.pi / 8, 0.0)  # (a, b, a', b')


def grid(lo, hi, steps):
    return lo + (hi - lo) * np.arange(steps) / (steps - 1)


def chi(squeezing):
    return -0.5 * np.log1p(-np.asarray(squeezing))


def closed_form(chi2, gain, eta, angles, chi1=CHI1):
    """S, and the numerator's term magnitudes over the denominator: the
    scale of S's rounding, as the numerator can cancel to near 0."""
    a, b, a_prime, b_prime = angles
    c2, s2 = math.cosh(chi1) ** 2, math.sinh(chi1) ** 2
    tau = gain ** 2 * eta
    noise = (np.sinh(chi2) - gain * np.sqrt(eta) * np.cosh(chi2)) ** 2 + gain ** 2 * (1 - eta)
    terms = (np.sin(a - b) ** 2, -np.sin(a - b_prime) ** 2,
             np.sin(a_prime - b) ** 2, np.sin(a_prime - b_prime) ** 2)
    denominator = 2 * tau * (c2 + 2 * s2) + 4 * noise
    numerator = tau * (c2 * sum(terms) + 2 * s2) + 2 * noise
    magnitudes = tau * (c2 * sum(map(abs, terms)) + 4 * s2) + 4 * noise
    return numerator / denominator, magnitudes / denominator



# each default sweep's exact CSV table, its S block and the rounding scale of S
def fig3():
    thetas = grid(0.0, math.pi / 2, 721)[:, None]
    s, scale = closed_form(chi([0.99, 0.80]), 1.0, 1.0, (thetas, -2 * thetas, 3 * thetas, 0.0))
    return np.hstack([thetas, s]), s, scale


def fig4(eta=1.0):
    gains = grid(0.01, 2.0, 200)[:, None]
    s, scale = closed_form(chi([0.10, 0.50, 0.80, 0.99]), gains, eta, OPTIMAL_ANGLES)
    return np.hstack([gains, s]), s, scale


def threshold_scan(chi1=CHI1):
    etas = grid(0.7, 1.0, 61)[:, None]
    chi2 = chi([0.3, 0.5, 0.9])
    s, scale = closed_form(chi2, np.tanh(chi2) / np.sqrt(etas), etas, OPTIMAL_ANGLES, chi1)
    return np.hstack([etas, s]), s, scale


def operating_point():
    # one row: S, the optimal gain and its transmissivity, at 50% squeezing, eta 0.9
    chi2, eta = chi(0.5), 0.9
    gain = np.tanh(chi2) / np.sqrt(eta)
    s, scale = closed_form(chi2, gain, eta, OPTIMAL_ANGLES)
    return np.array([[s, gain, gain ** 2 * eta]]), s, scale


SWEEPS = {"fig3": fig3, "fig4": fig4, "threshold-scan": threshold_scan,
          "operating-point": operating_point}
# the default sweeps, and two more whose teleported beam ch_s contracts in
# three blocks, D'(0) and the port and loss parts
RUNS = {**SWEEPS, "fig4 --eta 0.9": lambda: fig4(eta=0.9),
        "threshold-scan --chi1 0.01": lambda: threshold_scan(chi1=0.01)}
GOLDEN_CSV = {"fig3": "fig3.csv", "fig4": "fig4.csv", "threshold-scan": "threshold_scan.csv"}
# the default operating-point CSV, as tests/test_golden.py pins it
OPERATING_POINT_CSV = "s_ad,lambda_op,coincidence_ratio\n1.07030161,0.351364184,0.111111111\n"


@pytest.mark.parametrize("command", sorted(SWEEPS))
def test_golden_cells_within_rounding_of_closed_form(command):
    """Each 9-digit cell lies within 5e-9 relative of the exact value."""
    text = ((GOLDEN / GOLDEN_CSV[command]).read_text() if command in GOLDEN_CSV
            else OPERATING_POINT_CSV)
    cells = np.loadtxt(text.splitlines(), delimiter=",", skiprows=1, ndmin=2)
    exact, _, _ = SWEEPS[command]()
    assert cells.shape == exact.shape
    assert np.all(np.abs(cells - exact) <= 5e-9 * np.abs(exact))


@pytest.mark.parametrize("command", sorted(RUNS))
def test_engine_s_within_term_rounding_of_closed_form(monkeypatch, tmp_path, command):
    """ch_s's S on the command's build lies within 1e-12 of the numerator's
    term magnitudes over the denominator."""
    results, ch_s = [], cvswap.cli.ch_s

    def recording(beams, angles):
        results.append(ch_s(beams, angles))
        return results[-1]

    monkeypatch.setattr(cvswap.cli, "ch_s", recording)
    assert cvswap.cli.main(command.split() + ["--out", str(tmp_path)]) == 0
    (result,) = results
    _, s, scale = RUNS[command]()
    assert np.broadcast_shapes(np.shape(s), result.s.shape) == result.s.shape
    assert np.all(np.abs(result.s - s) <= 1e-12 * scale)
