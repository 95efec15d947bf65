"""Batched CH evaluation against the per-point engine and the Wick reference."""

import cmath
import math

import numpy as np
import pytest

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
    _contractions,
    _grid,
    _horner,
    _operands,
    analyzer,
    angle_family,
    ch_s,
    coincidence_rate,
    maximize_s,
    singles_rate,
    squeezing_to_chi,
)
from cvswap.modes import N_MODES, ModeRegistry, vacuum_field
from helpers import (
    assert_cells_match_wick,
    nonzero_parts,
    per_component_d_prime,
    source_beams,
    wick_rates,
    wick_term_magnitudes,
)


def test_angles_of_four_shapes_match_per_point():
    """Each angle broadcasts on its own axes against a batch of beams, with
    D' folded (one gain) or in three blocks (a gain grid at eta = 0.9): each
    rate has the shape of the beams and angles it uses, and each cell equals
    ch_s on that cell's own build."""
    chi2 = np.array([0.3, 0.8])  # the beams' last axis
    theta_a = np.array([0.1, 0.5, 1.2])[:, None, None, None]  # axis 0
    theta_b = -0.4  # scalar
    theta_a_prime = np.array([0.2, 0.9, 1.5, 2.8])[:, None, None]  # axis 1
    theta_b_prime = np.array([0.05, -0.7])  # the last axis, with the levels
    angles = AnalyzerAngles(theta_a, theta_b, theta_a_prime, theta_b_prime)
    uses = {"r_ab": (theta_a, theta_b), "r_ab_prime": (theta_a, theta_b_prime),
            "r_a_prime_b": (theta_a_prime, theta_b),
            "r_a_prime_b_prime": (theta_a_prime, theta_b_prime),
            "r_singles_a": (theta_a_prime,), "r_singles_b": (theta_b,)}
    for gain, blocks in ((0.8, 1), (np.array([0.3, 1.1])[:, None], 3)):
        out = build_swap_circuit(SwapParams(0.1, chi2, gain, 0.9))
        assert _operands(out)[1].shape[-3] == blocks
        kernel = ch_s(out, angles)
        shape = kernel.s.shape
        assert shape == (3, 4, np.size(gain), 2)
        for name, thetas in uses.items():
            assert getattr(kernel, name).shape == np.broadcast_shapes(
                np.shape(gain), chi2.shape, *map(np.shape, thetas)), name
        assert_cells_match_wick(((out.beam_a, out.beam_d_prime), angles, kernel),
                                [(0, 0, 0, 0), (1, 2, 0, 1), (2, 3, shape[2] - 1, 0)])
        for index in np.ndindex(shape):
            *point, gain_k, chi2_k = (float(np.broadcast_to(x, shape)[index])
                                      for x in (*angles, gain, chi2))
            expected = ch_s(build_swap_circuit(SwapParams(0.1, chi2_k, gain_k, 0.9)),
                            AnalyzerAngles(*point))
            for name, reference in expected._asdict().items():
                value = np.broadcast_to(getattr(kernel, name), shape)[index]
                assert abs(value - reference) <= 1e-12 * abs(reference), name


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
        r = wick_rates(*beams, angle_family(float(theta)))
        reference.append((r["r_ab"] - r["r_ab_prime"] + r["r_a_prime_b"] + r["r_a_prime_b_prime"])
                         / (r["r_singles_a"] + r["r_singles_b"]))
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
        for name, value in folded._asdict().items():
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
    assert out.parts.field.ann.shape == (2,) + squeezers + (2, N_MODES)
    _, right, t = _operands(out)
    assert right.shape[-3] == (1 if parts == 1 else 1 + parts)
    assert len(t) == right.shape[-3] - 1
    shape = np.broadcast_shapes(squeezers, np.shape(gain), np.shape(eta))
    d_prime = np.broadcast_to(out.beam_d_prime.field.coeffs, shape + (2, 2, N_MODES))
    terms = np.broadcast_to(np.abs(out.beam_d0.field.coeffs)
                            + sum(np.abs(w[..., None, None, None] * x)
                                  for w, x in zip(out.weights, out.parts.field.coeffs)),
                            shape + (2, 2, N_MODES))
    grid = np.broadcast_arrays(chi1, chi2, gain, eta)
    for index in np.ndindex(shape):
        _, reference = per_component_d_prime(SwapParams(*(float(p[index]) for p in grid)))
        assert np.all(np.abs(d_prime[index] - reference.field.coeffs) <= 1e-15 * terms[index])


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
