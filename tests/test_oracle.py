"""Normal-ordering rewriter and truncated number-basis simulator."""

import math
import random

import numpy as np
import pytest

from cvswap import oracle
from cvswap import (
    ModeRegistry,
    TruncationError,
    analyzer,
    build_source_state,
    coincidence_rate,
    fock_coincidence_rate,
    fock_singles_rate,
    normal_order_expectation,
    opo_type2,
    quadrature_plus,
    singles_rate,
    vacuum_field,
)
from helpers import random_product, unpruned_normal_order_expectation


def single_mode():
    registry = ModeRegistry()
    return vacuum_field(registry.new_mode("m"))


class TestRewriter:
    def test_two_point_functions(self):
        a = single_mode()
        assert normal_order_expectation([a, a.adjoint()]) == 1
        assert normal_order_expectation([a.adjoint(), a]) == 0

    def test_quartic_quadrature_moment(self):
        a = single_mode()
        x = quadrature_plus(a)
        assert normal_order_expectation([x, x, x, x]) == pytest.approx(3.0, abs=1e-12)

    def test_rejects_overlong_products(self):
        a = single_mode()
        with pytest.raises(ValueError):
            normal_order_expectation([a, a.adjoint()] * 6)
        with pytest.raises(ValueError):  # odd, yet still too long to rewrite
            normal_order_expectation([a, a.adjoint()] * 5 + [a])

    @pytest.mark.parametrize("seed, n_products", [(20260809, 40), (1234, 200)])
    def test_pruning_changes_no_bit(self, seed, n_products):
        """The draws of max_oracle_deviation, odd lengths included, give the
        same complex number as the full expansion."""
        rng = random.Random(seed)
        lengths = set()
        for _ in range(n_products):
            product = random_product(rng, list(range(6)))
            lengths.add(len(product) % 2)
            assert normal_order_expectation(product) == (
                unpruned_normal_order_expectation(product))
        assert lengths == {0, 1}

    def test_odd_products_rewrite_no_word(self, monkeypatch):
        calls = []
        moment = oracle._vacuum_moment_of_word

        def counted(word):
            calls.append(word)
            return moment(word)

        monkeypatch.setattr(oracle, "_vacuum_moment_of_word", counted)
        rng = random.Random(20260809)
        products = [random_product(rng, list(range(6))) for _ in range(40)]
        odd = [p for p in products if len(p) % 2]
        assert odd
        for product in odd:
            assert normal_order_expectation(product) == 0j
        assert calls == []
        a = single_mode()
        assert normal_order_expectation([a, a.adjoint()]) == 1
        assert calls  # the wrapper does see the words of even products


class TestSourceState:
    def test_zero_pump_is_vacuum(self):
        for form in ("exact_product", "number_polarization"):
            state = build_source_state(0.0, 4, form)
            assert state.amplitudes[0, 0, 0, 0] == pytest.approx(1.0)
            assert state.norm == pytest.approx(1.0)

    def test_exact_product_norm_nearly_one(self):
        state = build_source_state(0.2, 12, "exact_product")
        assert abs(state.norm - 1.0) < 1e-10
        assert state.norm <= 1 + 1e-12

    @pytest.mark.parametrize("chi1", [0.0, 0.05, 0.3])
    def test_amplitudes_are_real_closed_forms(self, chi1):
        th, ch = math.tanh(chi1), math.cosh(chi1)
        dim = 7
        exact = np.zeros((dim,) * 4)
        pairs = np.zeros((dim,) * 4)
        pairs[0, 0, 0, 0] = 1.0 / (math.sqrt(2.0) * ch)
        for n in range(dim):
            for m in range(dim):
                exact[n, m, m, n] = th ** (n + m) / ch ** 2
            if n:
                pairs[n, 0, 0, n] = pairs[0, n, n, 0] = th ** n / (math.sqrt(2.0) * ch)
        pairs /= math.sqrt(sum(x * x for x in pairs.ravel().tolist()))
        for form, closed in (("exact_product", exact), ("number_polarization", pairs)):
            amplitudes = build_source_state(chi1, dim - 1, form).amplitudes
            assert amplitudes.dtype == np.float64
            assert np.allclose(amplitudes, closed, rtol=1e-15, atol=0)
            assert np.array_equal(amplitudes != 0, closed != 0)
        assert np.array_equal(build_source_state(chi1, dim - 1, "exact_product").amplitudes,
                              exact)

    def test_exact_product_amplitudes(self):
        chi1 = 0.3
        state = build_source_state(chi1, 6, "exact_product")
        th, ch = math.tanh(chi1), math.cosh(chi1)
        assert state.amplitudes[2, 1, 1, 2] == pytest.approx(th ** 3 / ch ** 2)
        assert state.amplitudes[1, 0, 1, 0] == 0  # no same-polarization pairing

    def test_pair_sum_amplitude_ratio_is_tanh(self):
        state = build_source_state(0.2, 12, "number_polarization")
        ratio = state.amplitudes[2, 0, 0, 2] / state.amplitudes[1, 0, 0, 1]
        assert ratio.real == pytest.approx(math.tanh(0.2), rel=1e-12)

    def test_pair_sum_has_no_cross_terms_and_unit_norm(self):
        state = build_source_state(0.3, 8, "number_polarization")
        assert state.amplitudes[1, 1, 1, 1] == 0
        assert state.norm == pytest.approx(1.0, abs=1e-12)

    def test_norm_monotone_in_cutoff(self):
        norms = [build_source_state(0.6, n_max, "exact_product").norm
                 for n_max in (1, 2, 4, 8)]
        assert all(n1 <= n2 + 1e-15 for n1, n2 in zip(norms, norms[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_source_state(0.2, 0, "exact_product")
        with pytest.raises(ValueError):
            build_source_state(-0.2, 4, "exact_product")
        with pytest.raises(ValueError):
            build_source_state(0.2, 4, "squeezed")


# Fock rates at the wick-vs-fock-rates angle pairs and the singles rate at
# theta_a = 0.3, frozen from the complex-amplitude simulator (cutoff 12)
FOCK_ANGLES = ((math.pi / 8, -math.pi / 4), (0.0, 0.7), (0.3, 0.0), (1.1, -1.3))
FROZEN_FOCK = {
    ("exact_product", 0.05): ((0.002147266336591283, 0.0010472645806841917,
                               0.00022531964516790887, 0.0011506938558251128),
                              0.0025208653013498437),
    ("exact_product", 0.2): ((0.03764552518427304, 0.019148313154297755,
                              0.005326799081648251, 0.020887540589267298),
                             0.04546573302586184),
    ("number_polarization", 0.05): ((0.002132190894806244, 0.0010410041562015108,
                                     0.00021905922068522757, 0.0011392377072020293),
                                    0.002508344452384482),
    ("number_polarization", 0.2): ((0.03383016833227282, 0.01750513078541959,
                                    0.0036836167127700815, 0.017964040892355936),
                                   0.0421793682881055),
}


class TestFockRates:
    @pytest.mark.parametrize("form, chi1", sorted(FROZEN_FOCK))
    def test_rates_match_frozen_values(self, form, chi1):
        coincidences, singles = FROZEN_FOCK[form, chi1]
        state = build_source_state(chi1, 12, form)
        for (ta, tb), frozen in zip(FOCK_ANGLES, coincidences):
            assert fock_coincidence_rate(state, ta, tb) == pytest.approx(frozen, rel=1e-14)
        assert fock_singles_rate(state, 0.3) == pytest.approx(singles, rel=1e-14)

    @pytest.mark.parametrize("form", ["exact_product", "number_polarization"])
    def test_rates_leave_the_state_unchanged(self, form):
        """Each rate writes into its own work buffers, never into the state,
        and a repeated call gives the same bits."""
        state = build_source_state(0.2, 12, form)
        before = state.amplitudes.copy()
        for ta, tb in FOCK_ANGLES:
            rate = fock_coincidence_rate(state, ta, tb)
            assert np.array_equal(state.amplitudes, before)
            assert fock_coincidence_rate(state, ta, tb, check_cutoff=False) == rate
            assert np.array_equal(state.amplitudes, before)
            singles = fock_singles_rate(state, ta)
            assert np.array_equal(state.amplitudes, before)
            assert fock_singles_rate(state, ta) == singles

    def test_vacuum_rate_is_zero(self):
        state = build_source_state(0.0, 3, "exact_product")
        assert fock_coincidence_rate(state, 0.3, -0.2) == 0

    def test_two_photon_truncation_closed_form(self):
        """The bare two-photon state gives rate c^2 sin^2(ta - tb) with
        c^2 = tanh^2/(1 + 2 tanh^2) after normalization."""
        chi1 = 0.3
        state = build_source_state(chi1, 1, "number_polarization")
        th = math.tanh(chi1)
        amplitude_sq = th * th / (1 + 2 * th * th)
        for ta, tb in ((0.0, -0.5), (0.4, 0.4), (math.pi / 8, -math.pi / 4)):
            rate = fock_coincidence_rate(state, ta, tb, check_cutoff=False)
            assert rate == pytest.approx(amplitude_sq * math.sin(ta - tb) ** 2,
                                         abs=1e-12)

    def test_boundary_check_fires_for_small_cutoff(self):
        state = build_source_state(0.9, 3, "exact_product")
        with pytest.raises(TruncationError):
            fock_coincidence_rate(state, 0.1, 0.2)

    @pytest.mark.parametrize("chi1", [0.05, 0.1, 0.2])
    def test_wick_engine_agrees_with_fock_simulator(self, chi1):
        registry = ModeRegistry()
        beam_a, beam_b = opo_type2(registry, chi1, label="opo1")
        state = build_source_state(chi1, 12, "exact_product")
        angles = [(k * 0.19, -1.1 + k * 0.17) for k in range(16)]
        for ta, tb in angles:
            wick = coincidence_rate(analyzer(beam_a, ta, "a"),
                                    analyzer(beam_b, tb, "d"))
            fock = fock_coincidence_rate(state, ta, tb)
            assert fock == pytest.approx(wick, rel=1e-6)
        wick_singles = singles_rate(analyzer(beam_a, 0.3, "a"), beam_b)
        assert fock_singles_rate(state, 0.3) == pytest.approx(wick_singles, rel=1e-6)

    def test_pair_sum_rates_match_exact_to_fourth_order(self):
        """Dropping the cross terms costs O(chi1^4): deviations scale ~1/16
        when chi1 halves."""
        def deviation(chi1):
            exact = build_source_state(chi1, 12, "exact_product")
            approx = build_source_state(chi1, 12, "number_polarization")
            return max(abs(fock_coincidence_rate(exact, ta, tb)
                           - fock_coincidence_rate(approx, ta, tb))
                       for ta, tb in ((0.0, -0.5), (math.pi / 8, -math.pi / 4),
                                      (0.3, 0.7), (1.1, -1.3)))

        ratio = deviation(0.1) / deviation(0.05)
        assert 11 < ratio < 22
