"""Batched CH evaluation against the per-point engine and the Wick reference."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvswap import cli
from cvswap.circuit import (
    PolarizedBeam,
    SwapParams,
    attenuate,
    beamsplitter_5050,
    build_swap_circuit,
    opo_type2,
)
from cvswap.metrics import (
    OPTIMAL_ANGLES,
    AnalyzerAngles,
    NoCoincidencesError,
    _contractions,
    _grid,
    _horner,
    _operands,
    analyzer,
    angle_family,
    ch_s,
    coincidence_rate,
    maximize_s,
    optimal_gain,
    singles_rate,
    squeezing_to_chi,
)
from cvswap.modes import LinearField, ModeRegistry, vacuum_field
from helpers import (
    nonzero_parts,
    per_component_d_prime,
    source_beams,
    wick_term_magnitudes,
)


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
    """The list that each CLI call of ch_s appends ((A, D'), angles, result) to."""
    calls = []

    def recording(out, angles):
        result = ch_s(out, angles)
        calls.append(((out.beam_a, out.beam_d_prime), angles, result))
        return result

    monkeypatch.setattr(cli, "ch_s", recording)
    return calls


def assert_cells_match_wick(call, cells):
    """The six batched rates at each cell equal the general Wick sum on the
    analyzer fields within 1e-12 relative.

    The per-point checks compare with ch_s on one point, the same code;
    coincidence_rate and singles_rate evaluate the general Wick sum instead.
    """
    beams, angles, result = call
    shape = result.s.shape

    def pick(beam, index):
        fields = [LinearField(np.broadcast_to(f.coeffs, shape + f.coeffs.shape[-2:])[index])
                  for f in (beam.h, beam.v)]
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
            value = np.broadcast_to(getattr(result, name), shape)[index]
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
    kernel = ch_s(out, angles)
    assert kernel.s.shape == (3, 4, 2)
    assert_cells_match_wick(((out.beam_a, out.beam_d_prime), angles, kernel),
                            [(0, 0, 0), (1, 2, 1), (2, 3, 0)])
    # a rate keeps the broadcast shape of the angles it depends on
    kernel = {name: np.broadcast_to(value, (3, 4, 2)) for name, value in vars(kernel).items()}
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
    result = ch_s((beam_a, lossy), angles)
    assert result.s.shape == (2, 2, 3)
    assert_cells_match_wick(((beam_a, lossy), angles, result), list(np.ndindex(2, 2, 3)))


def test_split_beam_pair_with_normal_order_contraction_matches_wick_sum():
    """The two outputs of a 50:50 splitter fed with a squeezed beam and
    vacuum share its photons, so the normal-order cross contraction
    Q = <X1+ X2> between them is nonzero (on every circuit output it is
    exactly 0), and the rates depend on the sign and size of its term."""
    registry = ModeRegistry()
    beam, _ = opo_type2(registry, 0.4)
    vacuum = PolarizedBeam(*(vacuum_field(registry.new_mode(f"vacuum_{pol}")) for pol in "hv"))
    (h_1, h_2), (v_1, v_2) = (beamsplitter_5050(beam.h, vacuum.h),
                              beamsplitter_5050(beam.v, vacuum.v))
    beams = (PolarizedBeam(h_1, v_1), PolarizedBeam(h_2, v_2))
    pq = _contractions(*_operands(beams)[:2])[0]
    assert np.abs(pq[..., 1, :, :]).max() > 0.08
    angles = AnalyzerAngles(np.array([0.3, -1.1, 2.0])[:, None], 0.7,
                            np.array([1.2, -0.4]), -2.5)
    result = ch_s(beams, angles)
    assert result.s.shape == (3, 2)
    assert_cells_match_wick((beams, angles, result), list(np.ndindex(3, 2)))


@pytest.mark.parametrize("chi1", [5.0, 10.0, 30.0])  # rates ~1e7, 1e16, 1e51
@pytest.mark.parametrize("rotate_a", [False, True], ids=["b-rotated", "both-rotated"])
def test_rotated_beams_match_wick_sum_at_large_rates(chi1, rotate_a):
    """A wave plate with a phase mixes h and v with complex weights, so the
    Gram matrices are complex: ch_s's real form H drops Im G_1 (x) Im G_2,
    which no product vector sees, and stays positive semidefinite, and each
    Wick rate carries an imaginary rounding that grows with the rate, which
    coincidence_rate's imaginary-part check scales with."""
    r, p = 2 ** -0.5, cmath.exp(0.7j)

    def rotated(beam):
        return PolarizedBeam(r * beam.h + r * p * beam.v, -r * p.conjugate() * beam.h + r * beam.v)

    beam_a, beam_b = opo_type2(ModeRegistry(), chi1)
    beams = (rotated(beam_a) if rotate_a else beam_a, rotated(beam_b))
    assert_cells_match_wick((beams, OPTIMAL_ANGLES, ch_s(beams, OPTIMAL_ANGLES)), [()])


@pytest.mark.parametrize("chi1", [1e-2, 1e-3, 1e-4])
def test_bare_pair_s_at_weak_pump_matches_wick_sum(chi1):
    """On the bare source pair at weak pump, S over maximize_s's grid of the
    angle family, theta = 0 (theta_a = theta_b) included, lies within 1e-15
    of S from the general Wick sum, relative to the numerator's Wick-term
    magnitudes over the denominator.  The single rates lose precision there
    (see ch_s), S does not: the worst cell measured about 6e-16."""
    beams = source_beams(chi1)
    thetas = _grid(0.0, math.pi / 2, 721)
    result = ch_s(beams, angle_family(thetas))
    reference = []
    for theta in thetas:
        angles = angle_family(float(theta))
        e_a, e_a_prime = (analyzer(beams[0], t, "a")
                          for t in (angles.theta_a, angles.theta_a_prime))
        e_b, e_b_prime = (analyzer(beams[1], t, "d")
                          for t in (angles.theta_b, angles.theta_b_prime))
        numerator = (coincidence_rate(e_a, e_b) - coincidence_rate(e_a, e_b_prime)
                     + coincidence_rate(e_a_prime, e_b) + coincidence_rate(e_a_prime, e_b_prime))
        reference.append(numerator / (singles_rate(e_a_prime, beams[1])
                                      + singles_rate(e_b, beams[0])))
    terms = wick_term_magnitudes(*beams, angle_family(thetas))
    scale = (sum(terms[name] for name in ("r_ab", "r_ab_prime", "r_a_prime_b",
                                          "r_a_prime_b_prime"))
             / (result.r_singles_a + result.r_singles_b))
    assert np.all(np.abs(result.s - reference) <= 1e-15 * scale)


@pytest.mark.parametrize("chi1, coincidence_loss", [(1e-2, 8.1e-13), (1e-3, 1.0e-10),
                                                     (1e-4, 1.1e-8)])
def test_bare_pair_rates_at_weak_pump_within_twice_the_stated_loss(chi1, coincidence_loss):
    """On the bare source pair with all four angles theta over maximize_s's
    grid, each rate lies within a bound, of its Wick-term magnitudes, of the
    general Wick sum: twice the worst loss that ch_s states, coincidence_loss,
    for the coincidence rates, and 1.28e-15 for the singles, which ch_s
    states lose up to 6.6e-16."""
    beams = source_beams(chi1)
    thetas = _grid(0.0, math.pi / 2, 721)
    angles = AnalyzerAngles(thetas, thetas, thetas, thetas)
    result = ch_s(beams, angles)
    coincidences, singles_a, singles_b = [], [], []
    for theta in thetas:
        e_a, e_b = analyzer(beams[0], float(theta), "a"), analyzer(beams[1], float(theta), "d")
        coincidences.append(coincidence_rate(e_a, e_b))
        singles_a.append(singles_rate(e_a, beams[1]))
        singles_b.append(singles_rate(e_b, beams[0]))
    terms = wick_term_magnitudes(*beams, angles)
    for name, reference, bound in [
            *((name, coincidences, 2 * coincidence_loss) for name in
              ("r_ab", "r_ab_prime", "r_a_prime_b", "r_a_prime_b_prime")),
            ("r_singles_a", singles_a, 1.28e-15), ("r_singles_b", singles_b, 1.28e-15)]:
        error = np.abs(getattr(result, name) - reference)
        assert np.all(error <= bound * terms[name]), name


_angle =st.floats(min_value=-math.pi, max_value=math.pi)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(chi1=st.floats(min_value=0.01, max_value=1.0),
       chi2=st.floats(min_value=0.0, max_value=3.0),
       gain=st.floats(min_value=0.0, max_value=2.0),
       eta=st.floats(min_value=0.0, max_value=1.0),
       thetas=st.tuples(_angle, _angle, _angle, _angle))
def test_kernel_rates_match_wick_sum(chi1, chi2, gain, eta, thetas):
    """Every kernel rate equals the general Wick sum within 1e-12 relative.

    The absolute floor, 1e-15 of the largest rate, admits rates that vanish
    up to rounding of their contractions.  Where the Wick singles sum is 0 or
    subnormal (no squeezing and no gain leave D' in vacuum), the kernel must
    raise.
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
    if wick["r_singles_a"] + wick["r_singles_b"] < np.finfo(float).tiny:
        with pytest.raises(NoCoincidencesError):
            ch_s(out, angles)
        return
    kernel = ch_s(out, angles)
    scale = max(wick.values())
    for name, value in wick.items():
        assert getattr(kernel, name) == pytest.approx(value, rel=1e-12, abs=1e-15 * scale)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(chi1=st.floats(min_value=1e-3, max_value=3.0),
       chi2s=st.lists(st.floats(min_value=0.0, max_value=4.0), min_size=1, max_size=4),
       gain_max=st.floats(min_value=0.1, max_value=10.0),
       eta=st.floats(min_value=0.01, max_value=1.0),
       thetas=st.tuples(_angle, _angle, _angle, _angle),
       points=st.integers(min_value=1, max_value=300))
def test_factored_rates_match_folded(chi1, chi2s, gain_max, eta, thetas, points):
    """ch_s on a circuit output it contracts in blocks, D'(0) and each part
    of a nonzero weight, gives the rates of ch_s on D'.

    The gain grid, of 1 to 300 points on an axis of its own, starts with 0
    and each level's optimal gain, where the gain orders of D''s Gram
    matrix cancel most, and goes on up to gain_max.  Each rate must agree
    within 1e-12 of the summed magnitudes of its three Wick terms, the
    scale of its rounding error: S is not the scale, as it crosses 0 on
    the fig3 family.  From chi2 ~ 5 on, D''s own coefficients near the
    optimal gain, g cosh(chi2) - sinh(chi2), lose more than that to
    rounding, so the draw stops at chi2 = 4 (99.97% squeezing);
    test_factored_s_at_extreme_squeezing goes further.
    """
    chi2 = np.array(chi2s)
    gains = np.concatenate([[0.0], optimal_gain(chi2, eta),
                            np.linspace(0.0, gain_max, points)])[:points]
    out = build_swap_circuit(SwapParams(chi1, chi2, gains[:, None], eta))
    assert _operands(out)[1].shape[-3] == 1 + nonzero_parts(out)
    angles = AnalyzerAngles(*thetas)
    folded_beams = (out.beam_a, out.beam_d_prime)
    try:
        folded = ch_s(folded_beams, angles)
    except NoCoincidencesError:
        with pytest.raises(NoCoincidencesError):
            ch_s(out, angles)
        return
    factored = ch_s(out, angles)
    for name, scale in wick_term_magnitudes(*folded_beams, angles).items():
        deviation = np.abs(getattr(factored, name) - getattr(folded, name))
        assert np.all(deviation <= 1e-12 * scale), name


def test_factored_rates_match_folded_at_array_angles():
    """Each angle on a batch axis of its own, against a 256-point gain grid:
    every cell of every rate that ch_s contracts from D''s three blocks agrees
    with ch_s on folded D' within 1e-12 of its Wick-term scale, and each
    rate has the broadcast shape of the beams and the angles it uses."""
    chi2 = np.array([0.4, 1.7])
    out = build_swap_circuit(SwapParams(0.2, chi2, _grid(0.01, 2.0, 256)[:, None], 0.9))
    assert _operands(out)[1].shape[-3] == 3
    theta_a = np.array([0.1, 0.5, 1.2])[:, None, None, None, None, None]  # axis 0
    theta_b = np.array([-0.4, 0.9])[:, None, None, None, None]  # axis 1
    theta_a_prime = np.array([0.3, 1.5])[:, None, None, None]  # axis 2
    theta_b_prime = np.array([0.05, -0.7])[:, None, None]  # axis 3; the beams take 4 and 5
    angles = AnalyzerAngles(theta_a, theta_b, theta_a_prime, theta_b_prime)
    folded_beams = (out.beam_a, out.beam_d_prime)
    folded = ch_s(folded_beams, angles)
    factored = ch_s(out, angles)
    uses = {"r_ab": (theta_a, theta_b), "r_ab_prime": (theta_a, theta_b_prime),
            "r_a_prime_b": (theta_a_prime, theta_b),
            "r_a_prime_b_prime": (theta_a_prime, theta_b_prime),
            "r_singles_a": (theta_a_prime,), "r_singles_b": (theta_b,)}
    for name, scale in wick_term_magnitudes(*folded_beams, angles).items():
        value = getattr(factored, name)
        assert value.shape == np.broadcast_shapes((256, 2), *map(np.shape, uses[name])), name
        assert value.shape == getattr(folded, name).shape, name
        assert np.all(np.abs(value - getattr(folded, name)) <= 1e-12 * scale), name
    assert factored.s.shape == (3, 2, 2, 2, 256, 2)


@pytest.mark.parametrize("chi1", [1e-3, 0.1, 1.0])
@pytest.mark.parametrize("eta", [1.0, 0.9])
def test_factored_s_at_extreme_squeezing(chi1, eta):
    """On fig4's gain grid up to 1 - 1e-14 squeezing (chi2 ~ 16), S that ch_s
    contracts from D''s blocks, the loss part's only below eta = 1, stays
    within 1e-13 of S on folded D'.  The factored form expands D' about the
    gain that minimizes its Gram trace; expanded about gain 0, its gain
    orders cancel by cosh^2(chi2) near the optimal gain and S moved by up
    to 6e-3."""
    chi2 = np.array([squeezing_to_chi(1 - 10.0 ** -k) for k in range(2, 15, 2)])
    gains = _grid(0.01, 2.0, 200)
    out = build_swap_circuit(SwapParams(chi1, chi2, gains[:, None], eta))
    assert _operands(out)[1].shape[-3] == (2 if eta == 1.0 else 3)
    folded = ch_s((out.beam_a, out.beam_d_prime), OPTIMAL_ANGLES).s
    factored = ch_s(out, OPTIMAL_ANGLES).s
    assert np.all(np.abs(factored - folded) <= 1e-13 * np.abs(folded))


@pytest.mark.parametrize("chi2, gain, factored", [
    (0.5, _grid(0.01, 2.0, 8), True),  # at any grid size
    (0.5, _grid(0.01, 2.0, 256), True),
    (np.linspace(0.1, 2.0, 300), 0.9, False),  # gain adds no axes
    (np.linspace(0.1, 2.0, 300), _grid(0.01, 2.0, 300), False),
    (np.linspace(0.1, 2.0, 300), np.array([0.9]), False),
    (np.linspace(0.1, 2.0, 5), _grid(0.01, 2.0, 5)[None, :], True),  # a leading unit axis
])
def test_fold_or_factor_boundary(chi2, gain, factored):
    """ch_s expands D' in three blocks, D'(0) and the port and loss parts,
    exactly when the gain adds batch axes, whatever the grid size;
    otherwise it contracts (A, D') as one block, which gives every bit of
    ch_s on that pair."""
    out = build_swap_circuit(SwapParams(0.1, chi2, gain, 0.9))
    _, right, t = _operands(out)
    assert right.shape[-3] == (3 if factored else 1)
    assert len(t) == right.shape[-3] - 1
    if not factored:
        result = ch_s(out, OPTIMAL_ANGLES)
        folded = ch_s((out.beam_a, out.beam_d_prime), OPTIMAL_ANGLES)
        for name, value in vars(folded).items():
            assert np.array_equal(getattr(result, name), value), name


@pytest.mark.parametrize("chi1, chi2, gain, eta, parts", [
    (0.1, np.linspace(0.1, 2.0, 5), 0.9, 0.9, 1),  # scalar eta
    (0.1, np.linspace(0.1, 2.0, 5), 0.9, np.linspace(0.5, 1.0, 5), 1),  # chi2's axis
    (np.array([[0.05], [0.1]]), np.linspace(0.1, 2.0, 5), 0.9, np.array([[0.6], [0.9]]), 1),
    (0.1, np.linspace(0.1, 2.0, 5), _grid(0.01, 2.0, 5), np.array([[0.6], [0.9]]), 2),
    (0.1, np.linspace(0.1, 2.0, 5), 0.9, np.array([[0.6], [0.9]]), 2),  # an axis of its own
    (0.1, np.linspace(0.1, 2.0, 5), 0.9, np.linspace(0.5, 1.0, 5)[None, :], 2),  # a unit axis
])
def test_efficiency_parts_boundary(chi1, chi2, gain, eta, parts):
    """Every build holds X in its port and loss parts at the squeezers'
    shape alone.  ch_s contracts D' as one part, folded, where the weights
    add no batch axes, and otherwise in its two parts beside D'(0), as three
    blocks.  D' folded from the parts equals D'(0) + g X(eta) of
    per_component_build at each eta within 1e-15 of its terms' magnitudes,
    coefficient for coefficient."""
    out = build_swap_circuit(SwapParams(chi1, chi2, gain, eta))
    squeezers = np.broadcast_shapes(np.shape(chi1), np.shape(chi2))
    n_modes = len(out.registry)
    assert out.parts.field.ann.shape == (2,) + squeezers + (2, n_modes)
    _, right, t = _operands(out)
    assert right.shape[-3] == (1 if parts == 1 else 1 + parts)
    assert len(t) == right.shape[-3] - 1
    shape = np.broadcast_shapes(squeezers, np.shape(gain), np.shape(eta))
    d_prime = [np.broadcast_to(x, shape + (2, n_modes))
               for x in out.beam_d_prime.field.padded(n_modes)]
    terms = [np.broadcast_to(np.abs(d) + sum(np.abs(w[..., None, None] * x)
                                            for w, x in zip(out.weights, xs)), shape + (2, n_modes))
             for d, xs in zip(out.beam_d0.field.padded(n_modes), out.parts.field.padded(n_modes))]
    grid = np.broadcast_arrays(chi1, chi2, gain, eta)
    for index in np.ndindex(shape):
        _, reference = per_component_d_prime(SwapParams(*(float(p[index]) for p in grid)))
        for x, y, scale in zip(d_prime, reference.field.padded(n_modes), terms):
            assert np.all(np.abs(x[index] - y) <= 1e-15 * scale[index])


@pytest.mark.parametrize("gain, eta, blocks", [
    (_grid(0.01, 2.0, 7)[:, None], 0.9, 3),
    (_grid(0.01, 2.0, 7)[:, None], 1.0, 2),  # the loss part's weight is 0 everywhere
    (_grid(0.01, 2.0, 7)[:, None], np.array([0.9, 1.0])[:, None, None], 3),  # 0 at eta = 1
    (np.zeros((4, 1)), 0.9, 1),  # every weight is 0: D' = D'(0), folded
])
def test_zero_weight_parts_are_dropped(gain, eta, blocks):
    """Where the weights add batch axes, ch_s's blocks are D'(0) and each
    part whose weight is nonzero somewhere, so their count is 1 plus the
    number of such parts; a grid where every weight is 0 is folded.  The
    rates keep the grid's shape and agree with ch_s on folded D' within
    1e-12 of their Wick-term magnitudes."""
    out = build_swap_circuit(SwapParams(0.1, np.linspace(0.1, 2.0, 5), gain, eta))
    shape = np.broadcast_shapes(np.shape(gain), np.shape(eta), (5,))
    _, right, t = _operands(out)
    assert right.shape[-3] == blocks == 1 + nonzero_parts(out)
    assert len(t) == blocks - 1
    folded_beams = (out.beam_a, out.beam_d_prime)
    folded = ch_s(folded_beams, OPTIMAL_ANGLES)
    result = ch_s(out, OPTIMAL_ANGLES)
    for name, scale in wick_term_magnitudes(*folded_beams, OPTIMAL_ANGLES).items():
        value = getattr(result, name)
        assert value.shape == getattr(folded, name).shape == shape, name
        assert np.all(np.abs(value - getattr(folded, name)) <= 1e-12 * scale), name


@settings(max_examples=40, deadline=None, derandomize=True)
@given(chi1=st.floats(min_value=1e-3, max_value=3.0),
       chi2s=st.lists(st.floats(min_value=0.0, max_value=4.0), min_size=1, max_size=4),
       etas=st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=6),
       gain_max=st.floats(min_value=0.1, max_value=10.0),
       thetas=st.tuples(_angle, _angle, _angle, _angle),
       points=st.integers(min_value=1, max_value=40))
def test_two_part_rates_match_folded(chi1, chi2s, etas, gain_max, thetas, points):
    """ch_s on a circuit output whose efficiency axis adds batch axes to the
    weights, so that it contracts D'(0) and the port and loss parts as
    blocks, gives the rates of ch_s on D' folded at each eta.

    The grid is (gains, efficiencies, levels); its gains are each level's
    optimal gain at each eta, where D''s orders cancel most, and a grid from
    0 to gain_max.  Each rate must agree within 1e-12 of the summed
    magnitudes of its three Wick terms; where there is no coincidence
    signal, both must raise NoCoincidencesError.
    """
    chi2, eta = np.array(chi2s), np.array(etas)[:, None]
    grid = np.linspace(0.0, gain_max, points)[:, None, None]
    gains = np.concatenate([optimal_gain(chi2, eta)[None],
                            np.broadcast_to(grid, (points, len(etas), len(chi2s)))])
    out = build_swap_circuit(SwapParams(chi1, chi2, gains, eta))
    assert out.parts.field.ann.shape[:2] == (2, len(chi2s))
    angles = AnalyzerAngles(*thetas)
    folded = []
    try:
        for e in range(len(etas)):
            one = build_swap_circuit(SwapParams(chi1, chi2, gains[:, e], etas[e]))
            beams = (one.beam_a, one.beam_d_prime)
            folded.append((ch_s(beams, angles), wick_term_magnitudes(*beams, angles)))
    except NoCoincidencesError:
        with pytest.raises(NoCoincidencesError):
            ch_s(out, angles)
        return
    split = ch_s(out, angles)
    for e, (result, scales) in enumerate(folded):
        for name, scale in scales.items():
            value = np.broadcast_to(getattr(split, name), gains.shape)[:, e]
            deviation = np.abs(value - getattr(result, name))
            assert np.all(deviation <= 1e-12 * scale), name


def test_horner_matches_double_sum_on_three_blocks():
    """sum_bc t_b t_c m_bc with t_0 = 1, on blocks whose cross terms are
    nonzero and not symmetric: on a circuit output every term between the
    port and loss parts is 0, so there the loop over cross parts adds zeros."""
    rng = np.random.default_rng(21)
    m = rng.normal(size=(5, 4, 3, 3))
    t = [rng.normal(size=(5, 1)), rng.normal(size=4)]
    weights = [1.0, *t]
    terms = [weights[b] * weights[c] * m[..., b, c] for b in range(3) for c in range(3)]
    direct, scale = sum(terms), sum(np.abs(term) for term in terms)
    rate = _horner(m, t)
    assert rate.shape == (5, 4)
    assert np.all(np.abs(rate - direct) <= 1e-15 * scale)


def test_maximize_s_breaks_ties_by_smallest_theta():
    def constant_family(thetas):
        return angle_family(0.0 * thetas + math.pi / 8)

    theta_star, s_star = maximize_s(source_beams(0.1), family=constant_family)
    assert theta_star == 0.0
    assert s_star == ch_s(source_beams(0.1), OPTIMAL_ANGLES).s
