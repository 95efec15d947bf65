"""Batched CH evaluation against the per-point engine and the Wick reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvswap import cli
from cvswap.circuit import SwapParams, build_swap_circuit
from cvswap.metrics import (
    OPTIMAL_ANGLES,
    AnalyzerAngles,
    NoCoincidencesError,
    analyzer,
    angle_family,
    ch_kernel,
    ch_s,
    coincidence_rate,
    dense_beams,
    maximize_s,
    optimal_gain,
    singles_rate,
    squeezing_to_chi,
)
from helpers import source_beams


def cli_rows(monkeypatch, tmp_path, argv):
    """The rows a command hands to write_csv, before 9-digit formatting."""
    captured = {}

    def capture(path, header, rows):
        captured["rows"] = rows

    monkeypatch.setattr(cli, "write_csv", capture)
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    return captured["rows"]


def per_point_s(chi1, chi2, gain, eta, angles):
    return ch_s(build_swap_circuit(SwapParams(chi1, chi2, gain, eta)), angles).s


@pytest.mark.parametrize("chi1, levels, eta", [
    (0.1, (0.99, 0.80), 1.0),
    (0.3, (0.5,), 0.85),
])
def test_fig3_cells_match_per_point(monkeypatch, tmp_path, capsys, chi1, levels, eta):
    argv = ["fig3", "--chi1", str(chi1), "--eta", str(eta), "--angles-steps", "9"]
    rows = cli_rows(monkeypatch, tmp_path,
                    argv + [a for level in levels for a in ("--squeezing", str(level))])
    capsys.readouterr()
    assert len(rows) == 9
    for k, (theta, *cells) in enumerate(rows):
        assert theta == math.pi / 2 * k / 8
        for level, cell in zip(levels, cells):
            expected = per_point_s(chi1, squeezing_to_chi(level), 1.0, eta,
                                   angle_family(theta))
            assert abs(cell - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("chi1, levels, eta", [
    (0.1, (0.10, 0.50, 0.80, 0.99), 1.0),
    (0.3, (0.5, 0.9), 0.85),
])
def test_fig4_cells_match_per_point(monkeypatch, tmp_path, capsys, chi1, levels, eta):
    argv = ["fig4", "--chi1", str(chi1), "--eta", str(eta), "--lambda-steps", "7"]
    rows = cli_rows(monkeypatch, tmp_path,
                    argv + [a for level in levels for a in ("--squeezing", str(level))])
    capsys.readouterr()
    assert len(rows) == 7
    for k, (gain, *cells) in enumerate(rows):
        assert gain == 0.01 + (2.0 - 0.01) * k / 6
        for level, cell in zip(levels, cells):
            expected = per_point_s(chi1, squeezing_to_chi(level), gain, eta,
                                   OPTIMAL_ANGLES)
            assert abs(cell - expected) <= 1e-12 * abs(expected)


def test_threshold_cells_match_per_point(monkeypatch, tmp_path, capsys):
    levels = (0.3, 0.5, 0.9)
    rows = cli_rows(monkeypatch, tmp_path, ["threshold-scan", "--eta-steps", "5"])
    capsys.readouterr()
    assert len(rows) == 5
    for k, (eta, *cells) in enumerate(rows):
        assert eta == 0.70 + (1.0 - 0.70) * k / 4
        for level, cell in zip(levels, cells):
            chi2 = squeezing_to_chi(level)
            expected = per_point_s(0.1, chi2, optimal_gain(chi2, eta), eta,
                                   OPTIMAL_ANGLES)
            assert abs(cell - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("chi1, chi2, eta", [(0.1, 0.35, 1.0), (0.5, 2.3, 0.8),
                                             (0.3, 0.0, 0.0)])
def test_gain_linear_d_prime_matches_direct_build(chi1, chi2, eta):
    gains = np.array([0.0, 0.01, 0.3, math.tanh(chi2), 1.0, 1.7, 2.0])
    _, (ann, cre) = cli.gain_sweep_beams(chi1, [chi2], eta, gains)
    for k, gain in enumerate(gains.tolist()):
        out = build_swap_circuit(SwapParams(chi1, chi2, gain, eta))
        direct_ann, direct_cre = dense_beams([out.beam_d_prime], len(out.registry))
        scale = max(np.max(np.abs(direct_ann)), np.max(np.abs(direct_cre)))
        np.testing.assert_allclose(ann[k, 0], direct_ann[0], rtol=0, atol=1e-14 * scale)
        np.testing.assert_allclose(cre[k, 0], direct_cre[0], rtol=0, atol=1e-14 * scale)


_angle = st.floats(min_value=-math.pi, max_value=math.pi)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(chi1=st.floats(min_value=0.01, max_value=1.0),
       chi2=st.floats(min_value=0.0, max_value=3.0),
       gain=st.floats(min_value=0.0, max_value=2.0),
       eta=st.floats(min_value=0.0, max_value=1.0),
       thetas=st.tuples(_angle, _angle, _angle, _angle))
def test_kernel_rates_match_wick_sum(chi1, chi2, gain, eta, thetas):
    """Every kernel rate equals the general Wick sum within 1e-12 relative.

    The absolute floor, 1e-15 of the largest rate, admits rates that vanish
    up to rounding of their contractions.  Where the Wick singles vanish
    (no squeezing and no gain leave D' in vacuum), the kernel must raise.
    """
    out = build_swap_circuit(SwapParams(chi1, chi2, gain, eta))
    beam_a, beam_d = out.beam_a, out.beam_d_prime
    angles = AnalyzerAngles(*thetas)
    e_a = analyzer(beam_a, angles.theta_a, "a")
    e_a_prime = analyzer(beam_a, angles.theta_a_prime, "a")
    e_b = analyzer(beam_d, angles.theta_b, "d")
    e_b_prime = analyzer(beam_d, angles.theta_b_prime, "d")
    wick = {
        "r_ab": coincidence_rate(e_a, e_b),
        "r_ab_prime": coincidence_rate(e_a, e_b_prime),
        "r_a_prime_b": coincidence_rate(e_a_prime, e_b),
        "r_a_prime_b_prime": coincidence_rate(e_a_prime, e_b_prime),
        "r_singles_a": singles_rate(e_a_prime, beam_d),
        "r_singles_b": singles_rate(e_b, beam_a),
    }
    n_modes = len(out.registry)
    dense_a, dense_d = dense_beams([beam_a], n_modes), dense_beams([beam_d], n_modes)
    if wick["r_singles_a"] + wick["r_singles_b"] <= 1e-30:
        with pytest.raises(NoCoincidencesError):
            ch_kernel(dense_a, dense_d, angles)
        return
    kernel = ch_kernel(dense_a, dense_d, angles)
    scale = max(wick.values())
    for name, value in wick.items():
        assert kernel[name][0] == pytest.approx(value, rel=1e-12, abs=1e-15 * scale)


def test_maximize_s_breaks_ties_by_smallest_theta():
    def constant_family(thetas):
        return angle_family(0.0 * thetas + math.pi / 8)

    theta_star, s_star = maximize_s(source_beams(0.1), family=constant_family)
    assert theta_star == 0.0
    assert s_star == ch_s(source_beams(0.1), OPTIMAL_ANGLES).s
