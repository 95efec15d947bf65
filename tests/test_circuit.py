"""Optical components and the assembled swap circuit."""

import math

import numpy as np
import pytest

from cvswap import (
    N_MODES,
    OPTIMAL_ANGLES,
    LinearField,
    ModeRegistry,
    PolarizedBeam,
    SwapParams,
    attenuate,
    beamsplitter_5050,
    build_swap_circuit,
    ch_s,
    commutator,
    feedforward_displace,
    halfwave_swap,
    homodyne_currents,
    opo_type2,
    pair_contraction,
    quadrature_plus,
    single_mode_teleporter,
    two_mode_squeezer,
    vacuum_expectation,
    vacuum_field,
)
from cvswap.circuit import MINUS_GAIN_PHASE, _beam
from hypothesis import given, settings, strategies as st

import cvswap.cli
import cvswap.selftest
from helpers import assert_matches_per_component_build, is_hermitian, support


def fresh_pair():
    registry = ModeRegistry()
    return (vacuum_field(registry.new_mode("m1")),
            vacuum_field(registry.new_mode("m2")), registry)


def mean_photons(f):
    return vacuum_expectation([f.adjoint(), f]).real


def nonzero_magnitudes(f):
    coeffs = np.concatenate([f.ann, f.cre])
    return sorted(round(abs(c), 9) for c in coeffs[coeffs != 0])


class TestTwoModeSqueezer:
    def test_zero_chi_is_identity(self):
        a, b, _ = fresh_pair()
        out1, out2 = two_mode_squeezer(a, b, 0.0)
        assert out1 == a and out2 == b

    def test_output_photon_number(self):
        a, b, _ = fresh_pair()
        out1, _ = two_mode_squeezer(a, b, 0.34)
        assert mean_photons(out1) == pytest.approx(math.sinh(0.34) ** 2, rel=1e-12)

    @pytest.mark.parametrize("chi", [0.0, 0.1, 0.8, 2.3])
    def test_outputs_canonical(self, chi):
        a, b, _ = fresh_pair()
        out1, out2 = two_mode_squeezer(a, b, chi)
        assert commutator(out1, out1.adjoint()) == pytest.approx(1, abs=1e-12)
        assert commutator(out2, out2.adjoint()) == pytest.approx(1, abs=1e-12)
        assert commutator(out1, out2.adjoint()) == pytest.approx(0, abs=1e-12)

    def test_rejects_non_canonical_input(self):
        a, b, _ = fresh_pair()
        with pytest.raises(ValueError):
            two_mode_squeezer(2 * a, b, 0.3)
        with pytest.raises(ValueError):
            two_mode_squeezer(a, a, 0.3)


def canonical_mix(size, registry, excess=0.0):
    """alpha a + beta b+ on two fresh modes, with |alpha|^2 + |beta|^2 = size
    and [F, F+] = |alpha|^2 - |beta|^2 = 1 + excess."""
    a, b = (vacuum_field(registry.new_mode(name)) for name in ("a", "b"))
    alpha, beta = math.sqrt((size + 1 + excess) / 2), math.sqrt((size - 1 - excess) / 2)
    return alpha * a + beta * b.adjoint(), a


class TestCanonicalCheck:
    """The components' input check: each message from its own fault, tolerances
    scaled by sum |coeff|^2 per field and by the geometric mean for a pair."""

    @pytest.mark.parametrize("inputs, message", [
        (lambda a, b: (2 * a, b), "input 0 is not a canonical mode"),
        (lambda a, b: (a, 2 * b), "input 1 is not a canonical mode"),
        (lambda a, b: (a, a), r"\[F, G\+\] != 0"),
        # a+ is no canonical mode either, but the pair is checked first
        (lambda a, b: (a, a.adjoint()), r"\[F, G\] != 0"),
        (lambda a, b: (2 * a, a), "input 0 is not a canonical mode"),
    ])
    def test_each_fault_names_itself_in_loop_order(self, inputs, message):
        a, b, _ = fresh_pair()
        for component in (beamsplitter_5050, lambda f, g: two_mode_squeezer(f, g, 0.3)):
            with pytest.raises(ValueError, match=message):
                component(*inputs(a, b))

    def test_fault_in_one_stacked_row_fails(self):
        registry = ModeRegistry()
        a_h, a_v, b_h, b_v = (registry.new_mode(name) for name in ("a_h", "a_v", "b_h", "b_v"))
        a, b = vacuum_field([a_h, a_v]), vacuum_field([b_h, b_v])
        two_mode_squeezer(a, b, 0.3)
        with pytest.raises(ValueError, match="input 1 is not a canonical mode"):
            two_mode_squeezer(a, np.array([1.0, 1.5]) * b, 0.3)
        with pytest.raises(ValueError, match=r"\[F, G\+\] != 0"):
            two_mode_squeezer(a, vacuum_field([a_h, b_v]), 0.3)

    def test_tolerance_scales_with_the_field_size(self):
        registry = ModeRegistry()
        c = vacuum_field(registry.new_mode("c"))
        # the tolerance is 1e-9 * (|alpha|^2 + |beta|^2) = 1e-3
        beamsplitter_5050(canonical_mix(1e6, registry, excess=0.5e-3)[0], c)
        with pytest.raises(ValueError, match="input 0 is not a canonical mode"):
            beamsplitter_5050(canonical_mix(1e6, registry, excess=2e-3)[0], c)

    def test_pair_tolerance_is_the_geometric_mean(self):
        registry = ModeRegistry()
        f, a = canonical_mix(1e6, registry)
        c = vacuum_field(registry.new_mode("c"))
        alpha = f.ann[np.flatnonzero(a.ann)[0]].real
        # [F, G+] = alpha eps against 1e-9 sqrt(1e6 * 1): 1e-6, where the
        # larger size would allow 1e-3 and the smaller 1e-9
        beamsplitter_5050(f, c + (5e-7 / alpha) * a)
        with pytest.raises(ValueError, match=r"\[F, G\+\] != 0"):
            beamsplitter_5050(f, c + (2e-6 / alpha) * a)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_pair_scale_fails_closed(self):
        # each size is 2e160 and passes on its own; their product overflows,
        # so the pair's scale is inf and [F, G+] = 1 fails
        registry = ModeRegistry()
        a, b, c, d = (vacuum_field(registry.new_mode(name)) for name in "abcd")
        f = 1e80 * a + 1e80 * b.adjoint()
        g = 1e80 * c + 1e80 * d.adjoint() + 1e-80 * a
        with pytest.raises(ValueError, match=r"\[F, G\+\] != 0"):
            beamsplitter_5050(f, g)


class TestOpoType2:
    def test_zero_chi_gives_bare_vacuum_modes(self):
        registry = ModeRegistry()
        beam_a, beam_b = opo_type2(registry, 0.0)
        for f in (beam_a.h, beam_a.v, beam_b.h, beam_b.v):
            assert not np.any(f.cre) and np.count_nonzero(f.ann) == 1

    def test_cross_polarized_pair_correlations(self):
        registry = ModeRegistry()
        beam_a, beam_b = opo_type2(registry, 0.3)
        expected = math.cosh(0.3) * math.sinh(0.3)
        assert pair_contraction(beam_a.h, beam_b.v) == pytest.approx(expected)
        assert pair_contraction(beam_a.v, beam_b.h) == pytest.approx(expected)
        assert pair_contraction(beam_a.h, beam_b.h) == 0
        assert pair_contraction(beam_a.v, beam_b.v) == 0

    def test_beam_invariants(self):
        registry = ModeRegistry()
        beam_a, beam_b = opo_type2(registry, 0.8)
        for beam in (beam_a, beam_b):
            assert commutator(beam.h, beam.h.adjoint()) == pytest.approx(1, abs=1e-12)
            assert commutator(beam.v, beam.v.adjoint()) == pytest.approx(1, abs=1e-12)
            assert commutator(beam.h, beam.v.adjoint()) == 0


class TestBeamsplitter:
    def test_conserves_photon_number(self):
        a, b, registry = fresh_pair()
        sq1, _ = two_mode_squeezer(a, b, 0.5)
        c = vacuum_field(registry.new_mode("m3"))
        out1, out2 = beamsplitter_5050(sq1, c)
        total_in = mean_photons(sq1) + mean_photons(c)
        total_out = mean_photons(out1) + mean_photons(out2)
        assert total_out == pytest.approx(total_in, rel=1e-12)

    def test_splits_against_vacuum(self):
        a, b, _ = fresh_pair()
        out1, out2 = beamsplitter_5050(a, b)
        assert commutator(out1, out1.adjoint()) == pytest.approx(1, abs=1e-12)
        assert commutator(out2, out2.adjoint()) == pytest.approx(1, abs=1e-12)
        assert commutator(out1, out2.adjoint()) == pytest.approx(0, abs=1e-12)

    def test_twice_with_sign_flip_recovers_inputs(self):
        a, b, _ = fresh_pair()
        out1, out2 = beamsplitter_5050(a, b)
        back1, back2 = beamsplitter_5050(out1, out2)
        for recovered, original in ((back1, a), (back2, b)):
            diff = recovered - original
            assert np.all(np.abs(diff.ann) < 1e-12)
            assert not np.any(diff.cre)


class TestAttenuate:
    def test_output_is_canonical_over_transmissivity(self):
        """sqrt(T) F + sqrt(1-T) v keeps [F, F+] = 1 at every T: normally
        ordered rates never see the fresh vacuum's coefficient, so only the
        commutator shows a wrong one."""
        a, b, registry = fresh_pair()
        squeezed, _ = two_mode_squeezer(a, b, 0.8)
        transmissivity = np.linspace(0.0, 1.0, 11)
        out = attenuate(squeezed, transmissivity, registry)
        assert out.ann.shape == (11, N_MODES)
        assert np.all(np.abs(commutator(out, out.adjoint()) - 1.0) <= 1e-12)
        assert np.all(np.abs(commutator(out, out)) <= 1e-12)


class TestHomodyneCurrents:
    def setup_method(self):
        self.registry = ModeRegistry()
        _, self.beam_b = opo_type2(self.registry, 0.3, label="src")
        self.beam_c, _ = opo_type2(self.registry, 0.5, label="tele")
        self.b, self.c = self.beam_b.field, self.beam_c.field

    def test_lossless_form(self):
        """At eta = 1 the currents are the bare port quadratures, no loss mode."""
        before = len(self.registry)
        x_plus, x_minus = homodyne_currents(self.beam_b, self.beam_c, 1.0, self.registry)
        assert len(self.registry) == before + 4  # loss modes allocated but unused
        port_plus, port_minus = beamsplitter_5050(self.b, self.c)
        assert x_plus == quadrature_plus(port_plus)
        loss_modes = (support(x_plus) | support(x_minus)) - (support(self.b) | support(self.c))
        assert not loss_modes

    def test_allocates_loss_modes_h_then_v(self):
        before = len(self.registry)
        homodyne_currents(self.beam_b, self.beam_c, 0.8, self.registry, label="hd")
        assert [self.registry.names[m] for m in range(before, before + 4)] == [
            "hd_h.loss_plus", "hd_h.loss_minus", "hd_v.loss_plus", "hd_v.loss_minus"]

    def test_measures_each_polarization_pair(self):
        """Row p of the currents measures the p components of b and c alone."""
        x_plus, x_minus = homodyne_currents(self.beam_b, self.beam_c, 0.8, self.registry)
        loss = {m for m, name in self.registry.names.items() if "loss" in name}
        for x in (x_plus, x_minus):
            x_h, x_v = _beam(x).h, _beam(x).v
            assert support(x_h) - loss == support(self.beam_b.h) | support(self.beam_c.h)
            assert support(x_v) - loss == support(self.beam_b.v) | support(self.beam_c.v)
            assert not (support(x_h) & support(x_v))

    def test_rejects_single_components(self):
        """A beam is made of its h and v components: one component alone is
        not a beam, not even one whose last batch axis has length 2, which
        would pass as a field of stacked components."""
        beam_a, beam_b = opo_type2(ModeRegistry(), np.array([0.1, 0.7]))
        for component in (self.beam_b.h, beam_b.h):
            with pytest.raises(TypeError):
                PolarizedBeam(component)
        with pytest.raises(TypeError):
            ch_s((beam_a, PolarizedBeam(beam_b.h)), OPTIMAL_ANGLES)

    @pytest.mark.parametrize("eta", [0.0, 0.5, 0.83, 0.9, 1.0])
    def test_currents_commute(self, eta):
        x_plus, x_minus = homodyne_currents(self.beam_b, self.beam_c, eta, self.registry)
        assert is_hermitian(x_plus) and is_hermitian(x_minus)
        assert commutator(x_plus, x_minus) == pytest.approx([0, 0], abs=1e-12)

    def test_total_loss_leaves_unit_variance(self):
        x_plus, x_minus = homodyne_currents(self.beam_b, self.beam_c, 0.0, self.registry)
        for x in (_beam(x_plus).h, _beam(x_plus).v, _beam(x_minus).h, _beam(x_minus).v):
            assert vacuum_expectation([x, x]) == pytest.approx(1.0)

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            homodyne_currents(self.beam_b, self.beam_c, 1.2, self.registry)
        with pytest.raises(ValueError):
            homodyne_currents(self.beam_b, self.beam_c, -0.1, self.registry)


def teleporter_parts(eta):
    """Photocurrents of a source beam B and a second squeezer's beam C, and
    the displaced beam D with its components in the order the currents
    modulate them: the h currents modulate D_v and vice versa."""
    registry = ModeRegistry()
    _, beam_b = opo_type2(registry, 0.3, label="src")
    beam_c, beam_d = opo_type2(registry, 0.5, label="tele")
    x_plus, x_minus = homodyne_currents(beam_b, beam_c, eta, registry)
    return x_plus, x_minus, halfwave_swap(beam_d).field


class TestFeedforward:
    def test_gain_constraint(self):
        # lambda_plus = -gain and lambda_minus = MINUS_GAIN_PHASE * gain
        x_plus, x_minus, d = teleporter_parts(0.8)
        out = feedforward_displace(d, x_plus, x_minus, 0.7)
        displacement = -0.7 * x_plus + MINUS_GAIN_PHASE * 0.7 * x_minus
        expected = d + displacement * (1 / math.sqrt(2))
        np.testing.assert_allclose(out.ann, expected.ann, rtol=0, atol=1e-15)
        np.testing.assert_allclose(out.cre, expected.cre, rtol=0, atol=1e-15)

    def test_output_is_affine_in_gain(self):
        # D'(g) = d + g (D'(1) - d) with d = D'(0), over a (gain, level) grid
        gains = np.array([0.0, 0.3, 0.9, 1.0, 1.7])[:, None, None]
        chis = np.array([0.1, 0.5, 1.5])
        grid, unit, zero = (build_swap_circuit(SwapParams(0.1, chis, gain, 0.8))
                            for gain in (gains[..., 0], 1.0, 0.0))
        for pol in ("h", "v"):
            fields = [getattr(out.beam_d_prime, pol) for out in (grid, unit, zero)]
            for got, one, zero_gain in ([f.ann for f in fields], [f.cre for f in fields]):
                step = gains * (one - zero_gain)
                scale = max(np.abs(zero_gain).max(), np.abs(step).max())
                np.testing.assert_allclose(got, zero_gain + step, rtol=0,
                                           atol=1e-15 * scale)

    def test_zero_gain_is_identity(self):
        x_plus, x_minus, d = teleporter_parts(1.0)
        assert feedforward_displace(d, x_plus, x_minus, 0.0) == d

    def test_rejects_non_hermitian_currents(self):
        registry = ModeRegistry()
        a = vacuum_field(registry.new_mode("a"))
        d = vacuum_field(registry.new_mode("d"))
        with pytest.raises(ValueError):
            feedforward_displace(d, a, quadrature_plus(a), 0.5)

    @pytest.mark.parametrize("name", ["x_plus", "x_minus"])
    def test_rejects_one_non_hermitian_element_of_a_batch(self, name):
        """The Hermiticity check reduces over each batch element's modes: in a
        (3, 4) batch of (h, v) photocurrents, one coefficient off in one
        element is reported by the current's name."""
        x_plus, x_minus, d = teleporter_parts(0.8)
        currents = {key: LinearField(np.broadcast_to(x.coeffs, (3, 4) + x.coeffs.shape).copy())
                    for key, x in (("x_plus", x_plus), ("x_minus", x_minus))}
        feedforward_displace(d, currents["x_plus"], currents["x_minus"], 0.7)
        currents[name].ann[1, 2, 0, 0] += 0.1
        with pytest.raises(ValueError, match=f"{name} is not Hermitian"):
            feedforward_displace(d, currents["x_plus"], currents["x_minus"], 0.7)

    def test_displaced_output_stays_canonical(self):
        x_plus, x_minus, d = teleporter_parts(0.8)
        out = feedforward_displace(d, x_plus, x_minus, 0.7)
        assert commutator(out, out.adjoint()) == pytest.approx([1, 1], abs=1e-12)


def test_stacked_beam_holds_its_components():
    """h and v are views of the beam's field and round-trip through the constructor."""
    registry = ModeRegistry()
    beam_a, beam_b = opo_type2(registry, np.array([0.1, 0.7]), label="src")
    for beam in (beam_a, beam_b):
        assert beam.field.ann.shape == (2, 2, N_MODES)
        for component in (beam.h, beam.v):
            assert component.ann.shape == (2, N_MODES)
            assert np.shares_memory(component.ann, beam.field.ann)
            assert np.shares_memory(component.cre, beam.field.cre)
        assert PolarizedBeam(beam.h, beam.v).field == beam.field


def test_beam_of_broadcasts_batches_and_rejects_other_widths():
    registry = ModeRegistry()
    _, beam_b = opo_type2(registry, np.array([0.1, 0.6])[:, None], label="src")
    lossy_h = attenuate(beam_b.h, np.array([0.2, 0.7, 1.0]), registry)
    assert lossy_h.ann.shape == (2, 3, N_MODES) and beam_b.v.ann.shape == (2, 1, N_MODES)
    beam = PolarizedBeam(lossy_h, beam_b.v)
    assert beam.field.ann.shape == (2, 3, 2, N_MODES)
    for got, want in ((beam.h, lossy_h), (beam.v, beam_b.v)):
        assert np.array_equal(got.coeffs, np.broadcast_to(want.coeffs, got.coeffs.shape))
    # a component over any other mode count cannot be made, so none broadcasts
    for n_modes in (1, 5, N_MODES + 1):
        with pytest.raises(ValueError, match=r"^coeffs must have shape \(\.\.\., 2, 12\)"):
            PolarizedBeam(lossy_h, LinearField(np.zeros((2, n_modes), dtype=complex)))


def test_halfwave_swap_twice_is_identity():
    _, beam = opo_type2(ModeRegistry(), np.array([0.4, 1.2]))
    swapped = halfwave_swap(beam)
    assert swapped.h == beam.v and swapped.v == beam.h
    back = halfwave_swap(swapped)
    for x, y in ((back.field.ann, beam.field.ann), (back.field.cre, beam.field.cre)):
        assert x.shape == y.shape and np.array_equal(x, y)


class TestBuildSwapCircuit:
    def test_allocates_twelve_vacuum_inputs(self):
        out = build_swap_circuit(SwapParams(0.1, 0.5, 0.7, 0.8))
        assert len(out.registry) == 12
        assert len(set(out.registry.names.values())) == 12

    def test_beam_a_never_touches_teleporter_modes(self):
        out = build_swap_circuit(SwapParams(0.1, 0.5, 0.7, 0.8))
        a_modes = support(out.beam_a.h) | support(out.beam_a.v)
        # A lives on the source squeezer's four inputs only
        assert len(a_modes) == 4
        assert all(out.registry.names[m].startswith("opo1") for m in a_modes)
        d_modes = support(out.beam_d_prime.h) | support(out.beam_d_prime.v)
        kinds = {out.registry.names[m].split(".")[0] for m in d_modes}
        assert kinds == {"opo1", "opo2", "homodyne_h", "homodyne_v"}

    def test_zero_gain_returns_swapped_second_squeezer_beam(self):
        out = build_swap_circuit(SwapParams(0.1, 0.5, 0.0, 1.0))
        registry = ModeRegistry()
        opo_type2(registry, 0.1, label="opo1")
        _, beam_d = opo_type2(registry, 0.5, label="opo2")
        assert out.beam_d_prime.h == beam_d.v
        assert out.beam_d_prime.v == beam_d.h

    def test_optimal_gain_cancels_photon_creation(self):
        for chi2 in (0.1, 0.34657, 0.8):
            out = build_swap_circuit(SwapParams(0.1, chi2, math.tanh(chi2), 1.0))
            opo2 = [m for m, name in out.registry.names.items() if "opo2" in name]
            for component in (out.beam_d_prime.h, out.beam_d_prime.v):
                assert np.max(np.abs(component.cre[opo2])) < 1e-12

    def test_eta1_component_coefficients(self):
        """Each teleported component: gain*B + N*C0+ + M*D0 up to a global sign."""
        chi2, gain = 0.5, 0.7
        out = build_swap_circuit(SwapParams(0.1, chi2, gain, 1.0))
        opo2 = [m for m, name in out.registry.names.items() if "opo2" in name]
        n = math.sinh(chi2) - gain * math.cosh(chi2)
        m_coef = math.cosh(chi2) - gain * math.sinh(chi2)
        component = out.beam_d_prime.h  # fed by the h-polarized source content
        cre, ann = component.cre[opo2], component.ann[opo2]
        cre_mags = sorted(round(abs(c), 9) for c in cre[cre != 0])
        ann_mags = sorted(round(abs(c), 9) for c in ann[ann != 0])
        assert cre_mags == [round(abs(n), 9)]
        assert ann_mags == [round(abs(m_coef), 9)]

    def test_strong_squeezing_unity_gain_reproduces_source_beam(self):
        """At 99%+ squeezing and unity gain, D' carries B with tiny residue."""
        chi2 = 2.65
        out = build_swap_circuit(SwapParams(0.1, chi2, 1.0, 1.0))
        registry = ModeRegistry()
        _, beam_b = opo_type2(registry, 0.1, label="opo1")
        residual = np.max(np.abs(np.abs(out.beam_d_prime.h.coeffs) - np.abs(beam_b.h.coeffs)))
        assert residual < 0.08  # bounded by exp(-chi2)

    @pytest.mark.parametrize("eta", [0.5, 0.83, 0.9, 1.0])
    @pytest.mark.parametrize("chi2", [0.0, 0.1, 0.34, 0.8, 2.3])
    def test_commutators_on_parameter_grid(self, chi2, eta):
        for gain in (0.0, 0.3, math.tanh(chi2), 1.0, 2.0):
            out = build_swap_circuit(SwapParams(0.1, chi2, gain, eta))
            for beam in (out.beam_a, out.beam_d_prime):
                assert commutator(beam.h, beam.h.adjoint()) == pytest.approx(1, abs=1e-12)
                assert commutator(beam.v, beam.v.adjoint()) == pytest.approx(1, abs=1e-12)
                assert commutator(beam.h, beam.v.adjoint()) == pytest.approx(0, abs=1e-12)

    def test_batched_build_matches_scalar_builds(self):
        """One build over a (chi1, chi2, gain, eta) grid equals a build per
        point bit for bit in A, D'(0) and D': every build holds X in the same
        port and loss parts, so D' is summed in the same steps at each point."""
        def coefficients(out):
            return [x for f in (out.beam_a.field, out.beam_d0.field, out.beam_d_prime.field)
                    for x in (f.ann, f.cre)]

        axes = (np.array([0.1, 0.5])[:, None, None, None],  # chi1
                np.array([0.0, 0.34, 2.3])[:, None, None],  # chi2
                np.array([0.0, 0.7, 1.5])[:, None],  # gain
                np.array([0.0, 0.83, 1.0]))  # eta
        grid = np.broadcast_arrays(*axes)
        shape = grid[0].shape
        out = build_swap_circuit(SwapParams(*axes))
        batched = [np.broadcast_to(x, shape + x.shape[-2:]) for x in coefficients(out)]
        for index in np.ndindex(shape):
            single = build_swap_circuit(SwapParams(*(float(p[index]) for p in grid)))
            for x, y in zip(batched, coefficients(single)):
                np.testing.assert_array_equal(x[index], y)

    def test_source_and_teleported_beams_commute(self):
        """[A_i, D'_j] and [A_i, D'_j+] vanish at every point of a batched build.

        ch_s forms its contraction blocks from A to D' only and reads the
        reverse direction from them, which holds because of this.  Each
        commutator is bounded by 1e-9 of ||A_i|| ||D'_j||, the scale of its
        rounding error.
        """
        out = build_swap_circuit(SwapParams(
            np.array([0.01, 0.1, 1.0, 5.0])[:, None, None, None],  # chi1
            np.array([0.0, 0.34, 2.3, 6.0])[:, None, None],  # chi2
            np.array([0.0, 0.7, 2.0, 10.0])[:, None],  # gain
            np.array([0.0, 0.5, 0.83, 1.0])))  # eta

        def norm(f):
            return np.sqrt((np.abs(f.ann) ** 2 + np.abs(f.cre) ** 2).sum(axis=-1))

        for a in (out.beam_a.h, out.beam_a.v):
            for d in (out.beam_d_prime.h, out.beam_d_prime.v):
                scale = norm(a) * norm(d)
                assert scale.shape == (4, 4, 4, 4)
                for value in (commutator(a, d), commutator(a, d.adjoint())):
                    assert np.all(np.abs(value) <= 1e-9 * scale)

    @pytest.mark.parametrize("name, bad", [("chi1", -0.1), ("chi2", math.nan),
                                           ("gain", -1.0), ("eta", 1.2)])
    def test_batch_with_one_invalid_point_raises(self, name, bad):
        values = {"chi1": 0.1, "chi2": 0.5, "gain": 0.7, "eta": 0.9}
        values[name] = np.array([values[name], values[name], bad])
        with pytest.raises(ValueError):
            build_swap_circuit(SwapParams(**values))

    @pytest.mark.filterwarnings("ignore:overflow encountered",
                                "ignore:invalid value encountered")
    def test_overflowing_build_fails_closed(self):
        # cosh(400)^2 overflows, so [F, F+] = inf - inf = nan; nan must not
        # pass the canonical check
        with pytest.raises(ValueError):
            build_swap_circuit(SwapParams(400, 0.3, 1.0, 1.0))

    def test_matches_two_parallel_single_mode_teleporters(self):
        """The 2-polarization circuit at eta=1 is two copies of the 1-mode map."""
        chi2, gain = 0.5, 0.7
        out = build_swap_circuit(SwapParams(0.1, chi2, gain, 1.0))
        registry = ModeRegistry()
        _, beam_b = opo_type2(registry, 0.1, label="opo1")
        for pol in ("h", "v"):
            circuit_field = getattr(out.beam_d_prime, pol)
            reference = single_mode_teleporter(getattr(beam_b, pol), chi2, gain,
                                               registry)
            assert nonzero_magnitudes(circuit_field) == nonzero_magnitudes(reference)


class TestSingleModeTeleporter:
    def test_optimal_gain_is_pure_attenuation(self):
        registry = ModeRegistry()
        a_in = vacuum_field(registry.new_mode("in"))
        chi = 0.6
        out = single_mode_teleporter(a_in, chi, math.tanh(chi), registry)
        assert not np.any(out.cre)
        mags = sorted(np.abs(out.ann[out.ann != 0]))
        lam = math.tanh(chi)
        assert mags == pytest.approx(sorted([lam, math.sqrt(1 - lam * lam)]), abs=1e-12)

    @pytest.mark.parametrize("chi", [0.0, 0.3, 1.0, 2.0])
    @pytest.mark.parametrize("gain", [0.0, 0.4, 1.0, 1.7])
    def test_output_canonical(self, chi, gain):
        registry = ModeRegistry()
        a_in = vacuum_field(registry.new_mode("in"))
        out = single_mode_teleporter(a_in, chi, gain, registry)
        assert commutator(out, out.adjoint()) == pytest.approx(1, abs=1e-12)

    @pytest.mark.parametrize("chi, gain", [(-0.1, 0.5), (0.5, -0.1),
                                           (np.array([0.2, -0.1]), 0.5),
                                           (0.5, np.array([[0.3], [-0.1]]))])
    def test_rejects_negative_chi_or_gain(self, chi, gain):
        registry = ModeRegistry()
        a_in = vacuum_field(registry.new_mode("in"))
        with pytest.raises(ValueError, match=r"^(chi|gain) must be nonnegative, got -0\.1$"):
            single_mode_teleporter(a_in, chi, gain, registry)

    def test_strong_squeezing_unity_gain_passes_input_through(self):
        registry = ModeRegistry()
        a_in = vacuum_field(registry.new_mode("in"))
        chi = 6.0
        out = single_mode_teleporter(a_in, chi, 1.0, registry)
        (m_in,) = np.flatnonzero(a_in.ann)
        assert abs(out.ann[m_in] - 1.0) < 1e-12
        residue = math.exp(-chi)
        extras = np.abs(np.concatenate([np.delete(out.ann, m_in), out.cre]))
        assert max(extras) == pytest.approx(residue, rel=1e-9)

    def test_array_parameters_broadcast_like_per_element_calls(self):
        """chi and gain grids broadcast into the field's batch axes, and each
        element equals the teleporter called with that element's floats."""
        chis, gains = np.array([0.0, 0.4, 1.3]), np.array([[0.2], [0.9]])
        out = teleport_vacuum(chis, gains)
        assert out.coeffs.shape == (2, 3, 2, N_MODES)
        for i, gain in enumerate(gains[:, 0]):
            for j, chi in enumerate(chis):
                single = teleport_vacuum(float(chi), float(gain))
                assert np.array_equal(out.coeffs[i, j], single.coeffs)


def teleport_vacuum(chi, gain):
    registry = ModeRegistry()
    return single_mode_teleporter(vacuum_field(registry.new_mode("in")), chi, gain, registry)


# each squeezing parameter as it enters: its name, and a call with value x
NON_FINITE_ENTRIES = {
    "two_mode_squeezer": ("chi", lambda x: two_mode_squeezer(*fresh_pair()[:2], x)),
    "opo_type2": ("chi", lambda x: opo_type2(ModeRegistry(), x)),
    "single_mode_teleporter-chi": ("chi", lambda x: teleport_vacuum(x, 0.5)),
    "single_mode_teleporter-gain": ("gain", lambda x: teleport_vacuum(0.5, x)),
}


@pytest.mark.parametrize("entry", NON_FINITE_ENTRIES)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameter_is_rejected_where_it_enters(entry, value):
    """A nan or infinite chi or gain raises a one-line ValueError naming it
    and the value, not non-finite fields that fail later under another name."""
    name, call = NON_FINITE_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        call(value)


@pytest.mark.parametrize("entry", ["two_mode_squeezer", "opo_type2"])
def test_non_finite_element_of_a_chi_grid_is_named(entry):
    _, call = NON_FINITE_ENTRIES[entry]
    with pytest.raises(ValueError, match="^chi must be finite, got -inf$"):
        call(np.array([[0.3, 0.5], [-math.inf, math.nan]]))


# each range check: its parameter's name, its rule, and a call with value x
RANGE_ENTRIES = {
    "SwapParams-chi1": ("chi1", "be nonnegative", lambda x: SwapParams(x, 0.3, 0.5, 0.9)),
    "SwapParams-chi2": ("chi2", "be nonnegative", lambda x: SwapParams(0.1, x, 0.5, 0.9)),
    "SwapParams-gain": ("gain", "be nonnegative", lambda x: SwapParams(0.1, 0.3, x, 0.9)),
    "SwapParams-eta": ("eta", "lie in [0, 1]", lambda x: SwapParams(0.1, 0.3, 0.5, x)),
    "attenuate": ("transmissivity", "lie in [0, 1]",
                  lambda x: attenuate(vacuum_field(0), x, ModeRegistry())),
    "homodyne_currents": ("eta", "lie in [0, 1]", teleporter_parts),
    "single_mode_teleporter-chi": ("chi", "be nonnegative", lambda x: teleport_vacuum(x, 0.5)),
    "single_mode_teleporter-gain": ("gain", "be nonnegative", lambda x: teleport_vacuum(0.5, x)),
}


@pytest.mark.parametrize("entry", RANGE_ENTRIES)
def test_out_of_range_array_is_named_on_one_line(entry):
    """A range check on a 100-element array names the parameter and its
    first bad element on one line, not the whole array."""
    name, rule, call = RANGE_ENTRIES[entry]
    values = np.linspace(0.5, -1.5, 100) if rule == "be nonnegative" else np.linspace(0, 2, 100)
    bad = values[(values < 0) | (values > 1)][0]
    with pytest.raises(ValueError) as error:
        call(values)
    assert str(error.value) == f"{name} must {rule}, got {bad}"


def test_source_construction_is_reproducible():
    """Independently built source beams are the coefficient-for-coefficient
    baseline that bypassing the teleporter would give."""
    registry_1, registry_2 = ModeRegistry(), ModeRegistry()
    first = opo_type2(registry_1, 0.1, label="opo1")
    second = opo_type2(registry_2, 0.1, label="opo1")
    for beam_1, beam_2 in zip(first, second):
        assert beam_1.h == beam_2.h and beam_1.v == beam_2.v


def test_swap_params_validation():
    with pytest.raises(ValueError):
        SwapParams(-0.1, 0.5, 0.7, 0.8)
    with pytest.raises(ValueError):
        SwapParams(0.1, 0.5, 0.7, 1.2)
    with pytest.raises(ValueError):
        SwapParams(0.1, 0.5, -0.7, 0.8)
    with pytest.raises(ValueError):
        SwapParams(0.1, math.inf, 0.7, 0.8)


def recorded_params(monkeypatch, module, run):
    """The SwapParams of every build_swap_circuit call that run makes from module."""
    seen = []

    def recording(params):
        seen.append(params)
        return build_swap_circuit(params)

    monkeypatch.setattr(module, "build_swap_circuit", recording)
    run()
    return seen


@pytest.mark.parametrize("command", ["fig3", "fig4", "operating-point", "threshold-scan"])
def test_stacked_build_matches_per_component_build_on_default_grid(
        tmp_path, monkeypatch, capsys, command):
    [params] = recorded_params(monkeypatch, cvswap.cli,
                               lambda: cvswap.cli.main([command, "--out", str(tmp_path)]))
    capsys.readouterr()
    assert_matches_per_component_build(params)


def test_stacked_build_matches_per_component_build_on_selftest_grid(monkeypatch):
    [params] = recorded_params(monkeypatch, cvswap.selftest,
                               cvswap.selftest.check_canonical_commutators)
    values = params.chi1, params.chi2, params.gain, params.eta
    assert np.broadcast_shapes(*map(np.shape, values)) == (5, 5, 4)
    assert_matches_per_component_build(params)


_axis = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(chi1=_axis, chi2=_axis, gain=_axis, eta=_axis)
def test_stacked_build_matches_per_component_build_on_drawn_grid(chi1, chi2, gain, eta):
    assert_matches_per_component_build(SwapParams(
        3 * np.array(chi1)[:, None, None, None], 4 * np.array(chi2)[:, None, None],
        3 * np.array(gain)[:, None], np.array(eta)))
