"""Every CSV cell against the exact closed form of S at any pump.

Per polarization the teleporter is a phase-insensitive Gaussian channel of
transmissivity tau = lambda^2 eta and added noise

    N = (sinh chi2 - lambda sqrt(eta) cosh chi2)^2 + lambda^2 (1 - eta),

so every coincidence rate is sinh^2 chi1 [tau (c^2 sin^2(ta - tb) + s^2) + N]
and the CH ratio is

    S = [tau (c^2 K + 2 s^2) + 2 N] / [2 tau (c^2 + 2 s^2) + 4 N]

with c = cosh chi1, s = sinh chi1 and K = sin^2(a - b) - sin^2(a - b')
+ sin^2(a' - b) + sin^2(a' - b').  The formula here is numpy only and
shares no code with the package, whose CLI runs the default sweeps, two
whose weights carry both the port and the loss part of the teleported beam,
and six that set the pump, levels, efficiency or grid by flag.  The
grids are evaluated at their exact values, lo + (hi - lo) k/(steps - 1), not
at the CSV's 9-digit first column.
"""

import math

import numpy as np
import pytest

from helpers import GOLDEN, cli_ch_s_call

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



# each sweep's exact CSV table, its S block and the rounding scale of S, at
# the command's defaults unless given
def fig3(chi1=CHI1, levels=(0.99, 0.80), eta=1.0, steps=721):
    thetas = grid(0.0, math.pi / 2, steps)[:, None]
    s, scale = closed_form(chi(levels), 1.0, eta, (thetas, -2 * thetas, 3 * thetas, 0.0), chi1)
    return np.hstack([thetas, s]), s, scale


def fig4(chi1=CHI1, levels=(0.10, 0.50, 0.80, 0.99), eta=1.0, steps=200):
    gains = grid(0.01, 2.0, steps)[:, None]
    s, scale = closed_form(chi(levels), gains, eta, OPTIMAL_ANGLES, chi1)
    return np.hstack([gains, s]), s, scale


def threshold_scan(chi1=CHI1, steps=61, eta_min=0.7):
    etas = grid(eta_min, 1.0, steps)[:, None]
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
# the default sweeps; two more whose D' ch_s contracts in three blocks; runs
# that set the pump, levels, efficiency or grid size by flag; and an
# efficiency grid whose last point lo + (1 - lo) 6/6 rounds to 1 + 2e-16
RUNS = {**SWEEPS, "fig4 --eta 0.9": lambda: fig4(eta=0.9),
        "threshold-scan --chi1 0.01": lambda: threshold_scan(chi1=0.01),
        "fig3 --angles-steps 9": lambda: fig3(steps=9),
        "fig3 --chi1 0.3 --eta 0.85 --angles-steps 9 --squeezing 0.5":
            lambda: fig3(0.3, (0.5,), 0.85, 9),
        "fig4 --lambda-steps 7": lambda: fig4(steps=7),
        "fig4 --chi1 0.3 --eta 0.85 --lambda-steps 7 --squeezing 0.5 --squeezing 0.9":
            lambda: fig4(0.3, (0.5, 0.9), 0.85, 7),
        "threshold-scan --eta-steps 5": lambda: threshold_scan(steps=5),
        "threshold-scan --eta-min 0.16747097240675385 --eta-steps 7":
            lambda: threshold_scan(steps=7, eta_min=0.16747097240675385)}
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
    term magnitudes over the denominator, and each cell of its CSV within
    5e-9 relative of the exact table."""
    _, _, result = cli_ch_s_call(monkeypatch, command.split() + ["--out", str(tmp_path)])
    table, s, scale = RUNS[command]()
    assert np.broadcast_shapes(np.shape(s), result.s.shape) == result.s.shape
    assert np.all(np.abs(result.s - s) <= 1e-12 * scale)
    [csv] = tmp_path.glob("*.csv")
    cells = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
    assert cells.shape == table.shape
    assert np.all(np.abs(cells - table) <= 5e-9 * np.abs(table))
