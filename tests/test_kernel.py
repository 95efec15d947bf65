"""Batched CH evaluation against the per-point engine and the Wick reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvswap import cli
from cvswap.circuit import PolarizedBeam, SwapParams, attenuate, build_swap_circuit, opo_type2
from cvswap.metrics import (
    OPTIMAL_ANGLES,
    AnalyzerAngles,
    NoCoincidencesError,
    analyzer,
    angle_family,
    ch_kernel,
    ch_s,
    coincidence_rate,
    maximize_s,
    optimal_gain,
    singles_rate,
    squeezing_to_chi,
)
from cvswap.modes import LinearField, ModeRegistry
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


def record_kernel(monkeypatch):
    """The list that each CLI call of ch_kernel appends (beams, angles, result) to."""
    calls = []

    def recording(beam_1, beam_2, angles):
        result = ch_kernel(beam_1, beam_2, angles)
        calls.append(((beam_1, beam_2), angles, result))
        return result

    monkeypatch.setattr(cli, "ch_kernel", recording)
    return calls


def assert_cells_match_wick(call, cells):
    """The six kernel rates at each cell equal the general Wick sum on the
    analyzer fields within 1e-12 relative.

    ch_s, which the per-point checks compare with, is the kernel itself;
    coincidence_rate and singles_rate evaluate the general Wick sum instead.
    """
    beams, angles, result = call
    shape = result["s"].shape

    def pick(beam, index):
        fields = [LinearField(*(np.broadcast_to(x, shape + x.shape[-1:])[index]
                                for x in (f.ann, f.cre))) for f in (beam.h, beam.v)]
        return PolarizedBeam(*fields)

    for index in cells:
        beam_a, beam_d = (pick(beam, index) for beam in beams)
        ta, tb, ta_prime, tb_prime = (float(np.broadcast_to(theta, shape)[index])
                                      for theta in vars(angles).values())
        e_a, e_a_prime = analyzer(beam_a, ta, "a"), analyzer(beam_a, ta_prime, "a")
        e_b, e_b_prime = analyzer(beam_d, tb, "d"), analyzer(beam_d, tb_prime, "d")
        wick = {
            "r_ab": coincidence_rate(e_a, e_b),
            "r_ab_prime": coincidence_rate(e_a, e_b_prime),
            "r_a_prime_b": coincidence_rate(e_a_prime, e_b),
            "r_a_prime_b_prime": coincidence_rate(e_a_prime, e_b_prime),
            "r_singles_a": singles_rate(e_a_prime, beam_d),
            "r_singles_b": singles_rate(e_b, beam_a),
        }
        for name, reference in wick.items():
            value = np.broadcast_to(result[name], shape)[index]
            assert abs(value - reference) <= 1e-12 * abs(reference), (name, index)


@pytest.mark.parametrize("chi1, levels, eta", [
    (0.1, (0.99, 0.80), 1.0),
    (0.3, (0.5,), 0.85),
])
def test_fig3_cells_match_per_point(monkeypatch, tmp_path, capsys, chi1, levels, eta):
    argv = ["fig3", "--chi1", str(chi1), "--eta", str(eta), "--angles-steps", "9"]
    calls = record_kernel(monkeypatch)
    rows = cli_rows(monkeypatch, tmp_path,
                    argv + [a for level in levels for a in ("--squeezing", str(level))])
    capsys.readouterr()
    assert len(rows) == 9
    # theta = 0 and pi/2 give u_a' = +-u_a, under which a mixed-up rate goes unseen
    assert_cells_match_wick(calls[0], [(1, 0), (4, len(levels) - 1), (6, 0)])
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
    calls = record_kernel(monkeypatch)
    rows = cli_rows(monkeypatch, tmp_path,
                    argv + [a for level in levels for a in ("--squeezing", str(level))])
    capsys.readouterr()
    assert len(rows) == 7
    assert_cells_match_wick(calls[0], [(0, 0), (3, len(levels) - 1), (6, 1)])
    for k, (gain, *cells) in enumerate(rows):
        assert gain == 0.01 + (2.0 - 0.01) * k / 6
        for level, cell in zip(levels, cells):
            expected = per_point_s(chi1, squeezing_to_chi(level), gain, eta,
                                   OPTIMAL_ANGLES)
            assert abs(cell - expected) <= 1e-12 * abs(expected)


def test_threshold_cells_match_per_point(monkeypatch, tmp_path, capsys):
    levels = (0.3, 0.5, 0.9)
    calls = record_kernel(monkeypatch)
    rows = cli_rows(monkeypatch, tmp_path, ["threshold-scan", "--eta-steps", "5"])
    capsys.readouterr()
    assert len(rows) == 5
    assert_cells_match_wick(calls[0], [(0, 0), (2, 1), (4, 2)])
    for k, (eta, *cells) in enumerate(rows):
        assert eta == 0.70 + (1.0 - 0.70) * k / 4
        for level, cell in zip(levels, cells):
            chi2 = squeezing_to_chi(level)
            expected = per_point_s(0.1, chi2, optimal_gain(chi2, eta), eta,
                                   OPTIMAL_ANGLES)
            assert abs(cell - expected) <= 1e-12 * abs(expected)


def test_angles_of_four_shapes_match_per_point():
    """Each angle broadcasts on its own axes against a batch of beams."""
    chi2 = np.array([0.3, 0.8])  # beam batch, axis 2
    theta_a = np.array([0.1, 0.5, 1.2])[:, None, None]  # axis 0
    theta_b = -0.4  # scalar
    theta_a_prime = np.array([0.2, 0.9, 1.5, 2.8])[:, None]  # axis 1
    theta_b_prime = np.array([0.05, -0.7])  # axis 2, with the beams
    out = build_swap_circuit(SwapParams(0.1, chi2, 0.8, 0.9))
    angles = AnalyzerAngles(theta_a, theta_b, theta_a_prime, theta_b_prime)
    kernel = ch_kernel(out.beam_a, out.beam_d_prime, angles)
    assert kernel["s"].shape == (3, 4, 2)
    assert_cells_match_wick(((out.beam_a, out.beam_d_prime), angles, kernel),
                            [(0, 0, 0), (1, 2, 1), (2, 3, 0)])
    # a rate keeps the broadcast shape of the angles it depends on
    kernel = {name: np.broadcast_to(value, (3, 4, 2)) for name, value in kernel.items()}
    for i, j, k in np.ndindex(3, 4, 2):
        angles = AnalyzerAngles(float(theta_a[i, 0, 0]), theta_b,
                                float(theta_a_prime[j, 0]), float(theta_b_prime[k]))
        expected = ch_s(build_swap_circuit(SwapParams(0.1, float(chi2[k]), 0.8, 0.9)),
                        angles)
        for name, value in kernel.items():
            reference = getattr(expected, name)
            assert abs(value[i, j, k] - reference) <= 1e-12 * abs(reference), name


def test_polarization_dependent_loss_matches_wick_sum():
    """Every cell of a batch whose second beam loses only h light.

    The swap circuit treats h and v alike, so its singles rates do not
    depend on the analyzer angle; here they do, and a singles rate taken at
    the wrong angle shows.
    """
    registry = ModeRegistry()
    beam_a, beam_b = opo_type2(registry, np.array([0.1, 0.6])[:, None], label="src")
    lossy = PolarizedBeam(attenuate(beam_b.h, np.array([0.2, 0.7, 1.0]), registry), beam_b.v)
    angles = AnalyzerAngles(0.3, np.array([-0.4, 0.9])[:, None, None], 1.1,
                            np.array([0.2, -1.3, 0.5]))
    result = ch_kernel(beam_a, lossy, angles)
    assert result["s"].shape == (2, 2, 3)
    assert_cells_match_wick(((beam_a, lossy), angles, result), list(np.ndindex(2, 2, 3)))


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
    if wick["r_singles_a"] + wick["r_singles_b"] <= 1e-30:
        with pytest.raises(NoCoincidencesError):
            ch_kernel(beam_a, beam_d, angles)
        return
    kernel = ch_kernel(beam_a, beam_d, angles)
    scale = max(wick.values())
    for name, value in wick.items():
        assert kernel[name] == pytest.approx(value, rel=1e-12, abs=1e-15 * scale)


def test_maximize_s_breaks_ties_by_smallest_theta():
    def constant_family(thetas):
        return angle_family(0.0 * thetas + math.pi / 8)

    theta_star, s_star = maximize_s(source_beams(0.1), family=constant_family)
    assert theta_star == 0.0
    assert s_star == ch_s(source_beams(0.1), OPTIMAL_ANGLES).s
