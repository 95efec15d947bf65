"""Analyzer fields, coincidence rates, the CH ratio, and its closed forms."""

import math

import numpy as np
import pytest

from cvswap import (
    AnalyticInputs,
    ModeRegistry,
    NoCoincidencesError,
    PolarizedBeam,
    SwapParams,
    analytic_rate_teleported,
    analytic_s_ad,
    analytic_singles_teleported,
    analyzer,
    attenuate,
    build_swap_circuit,
    ch_s,
    coincidence_rate,
    eta_threshold,
    gain_window,
    maximize_s,
    opo_type2,
    optimal_gain,
    singles_rate,
    squeezing_to_chi,
)
from cvswap.metrics import (
    OPTIMAL_ANGLES,
    AnalyzerAngles,
    RateOverflowError,
    angle_family,
)
from helpers import baseline_s, source_beams, support

S_LIMIT = (1 + math.sqrt(2)) / 2  # weak-pump CH maximum of the pair source


class TestAnalyzer:
    def test_zero_angle_selects_h(self):
        beam_a, _ = source_beams(0.2)
        assert analyzer(beam_a, 0.0, "a") == beam_a.h

    def test_right_angle_selects_v(self):
        beam_a, _ = source_beams(0.2)
        diff = analyzer(beam_a, math.pi / 2, "a") - beam_a.v
        assert np.all(np.abs(diff.ann) < 1e-12) and np.all(np.abs(diff.cre) < 1e-12)

    def test_side_handedness(self):
        _, beam_b = source_beams(0.2)
        plus = analyzer(beam_b, 0.4, "a")
        minus = analyzer(beam_b, 0.4, "d")
        total = plus + minus
        assert support(total) <= support(beam_b.h)
        with pytest.raises(ValueError):
            analyzer(beam_b, 0.4, "x")

    def test_amplitude_depends_on_angle_difference(self):
        """Coincidences follow sin^2(ta - tb), so the optimal set maximizes S."""
        beam_a, beam_b = source_beams(0.05)
        r1 = coincidence_rate(analyzer(beam_a, 0.3, "a"), analyzer(beam_b, -0.2, "d"))
        r2 = coincidence_rate(analyzer(beam_a, 0.0, "a"), analyzer(beam_b, -0.5, "d"))
        assert r1 == pytest.approx(r2, rel=1e-12)
        theta_grid = [0.0, 0.37, 1.1]
        for theta in theta_grid:
            r = coincidence_rate(analyzer(beam_a, theta, "a"),
                                 analyzer(beam_b, theta - 0.5, "d"))
            assert r == pytest.approx(r2, rel=1e-12)


class TestCoincidenceRate:
    def test_vacuum_gives_zero(self):
        beam_a, beam_b = source_beams(0.0)
        assert coincidence_rate(analyzer(beam_a, 0.3, "a"),
                                analyzer(beam_b, 0.1, "d")) == 0

    def test_perpendicular_rate_value(self):
        """Frozen engine value, cross-checked against the Fock oracle."""
        beam_a, beam_b = source_beams(0.1)
        rate = coincidence_rate(analyzer(beam_a, 0.0, "a"),
                                analyzer(beam_b, -math.pi / 2, "d"))
        ch, sh = math.cosh(0.1), math.sinh(0.1)
        assert rate == pytest.approx(ch * ch * sh * sh + sh ** 4, rel=1e-12)
        assert rate == pytest.approx(0.010234715150075777, rel=1e-12)

    def test_aligned_analyzers_vanish_at_leading_order(self):
        chi1 = 0.05
        beam_a, beam_b = source_beams(chi1)
        rate = coincidence_rate(analyzer(beam_a, 0.7, "a"),
                                analyzer(beam_b, 0.7, "d"))
        assert rate == pytest.approx(math.sinh(chi1) ** 4, rel=1e-12)
        assert rate < 2 * chi1 ** 4


class TestSinglesRate:
    def test_vacuum_gives_zero(self):
        beam_a, beam_b = source_beams(0.0)
        assert singles_rate(analyzer(beam_a, 0.3, "a"), beam_b) == 0

    def test_angle_independent(self):
        beam_a, beam_b = source_beams(0.05)
        values = [singles_rate(analyzer(beam_a, theta, "a"), beam_b)
                  for theta in (0.0, 0.4, 1.2)]
        ch, sh = math.cosh(0.05), math.sinh(0.05)
        for v in values:
            assert v == pytest.approx(ch * ch * sh * sh + 2 * sh ** 4, rel=1e-12)

    def test_teleported_singles_scale_by_gain_squared(self):
        chi1, chi2 = 0.1, 0.5
        gain = math.tanh(chi2)
        beam_a, beam_b = source_beams(chi1)
        baseline = singles_rate(analyzer(beam_a, 0.3, "a"), beam_b)
        out = build_swap_circuit(SwapParams(chi1, chi2, gain, 1.0))
        teleported = singles_rate(analyzer(out.beam_a, 0.3, "a"), out.beam_d_prime)
        assert teleported == pytest.approx(gain * gain * baseline, rel=1e-9)


class TestChS:
    def test_baseline_maximal_violation(self):
        result = ch_s(source_beams(0.01), OPTIMAL_ANGLES)
        assert result.s == pytest.approx(S_LIMIT, abs=1e-3)
        assert result.s == pytest.approx(1.2069653975327124, rel=1e-12)

    def test_identity_relating_fields(self):
        result = ch_s(source_beams(0.1), OPTIMAL_ANGLES)
        numerator = (result.r_ab - result.r_ab_prime
                     + result.r_a_prime_b + result.r_a_prime_b_prime)
        denominator = result.r_singles_a + result.r_singles_b
        assert result.s == pytest.approx(numerator / denominator, rel=1e-15)
        for name in ("r_ab", "r_ab_prime", "r_a_prime_b", "r_a_prime_b_prime",
                     "r_singles_a", "r_singles_b"):
            assert getattr(result, name) >= -1e-12

    def test_no_pump_raises(self):
        with pytest.raises(NoCoincidencesError):
            ch_s(source_beams(0.0), OPTIMAL_ANGLES)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_rates_raise(self):
        # rates grow like sinh^4 chi1, past the float range at chi1 ~ 178;
        # inf - inf would otherwise reach S as nan
        with pytest.raises(ValueError, match="not finite"):
            ch_s(source_beams(200.0), OPTIMAL_ANGLES)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_sums_raise(self):
        # each rate is finite, but the singles sum overflows at gain 2
        out = build_swap_circuit(SwapParams(177.445, squeezing_to_chi(0.1), 2.0, 1.0))
        with pytest.raises(ValueError, match="not finite"):
            ch_s(out, OPTIMAL_ANGLES)

    def test_overflow_has_its_own_value_error(self):
        assert issubclass(RateOverflowError, ValueError)
        with pytest.raises(RateOverflowError, match="r_ab is not finite"):
            ch_s(source_beams(200.0), OPTIMAL_ANGLES)

    @pytest.mark.parametrize("squeezing_chi", [0.05, 0.34, 0.8])
    def test_optimal_gain_preserves_s(self, squeezing_chi):
        baseline = baseline_s(0.1)
        out = build_swap_circuit(SwapParams(0.1, squeezing_chi,
                                            math.tanh(squeezing_chi), 1.0))
        assert ch_s(out, OPTIMAL_ANGLES).s == pytest.approx(baseline, abs=1e-9)

    def test_scale_invariance(self):
        result = ch_s(source_beams(0.1), OPTIMAL_ANGLES)
        scale = 7.3
        scaled_num = scale * (result.r_ab - result.r_ab_prime
                              + result.r_a_prime_b + result.r_a_prime_b_prime)
        scaled_den = scale * (result.r_singles_a + result.r_singles_b)
        assert scaled_num / scaled_den == pytest.approx(result.s, rel=1e-15)


class TestAnalyticForms:
    def test_rate_transform_without_noise(self):
        inputs = AnalyticInputs(s_ab=S_LIMIT, chi2=0.5, gain=math.tanh(0.5), eta=1.0)
        assert inputs.n == pytest.approx(0.0, abs=1e-15)
        assert analytic_rate_teleported(0.42, inputs) == pytest.approx(
            math.tanh(0.5) ** 2 * 0.42, rel=1e-12)

    def test_offset_value_at_operating_point(self):
        chi2 = squeezing_to_chi(0.5)
        gain = optimal_gain(chi2, 0.9)
        inputs = AnalyticInputs(s_ab=S_LIMIT, chi2=chi2, gain=gain, eta=0.9)
        offset = analytic_rate_teleported(0.0, inputs)
        assert offset == pytest.approx(gain ** 2 * 0.1 / 2, rel=1e-12)
        assert analytic_singles_teleported(0.0, inputs) == pytest.approx(2 * offset)

    def test_s_ad_reduces_to_baseline_without_noise(self):
        for chi2 in (0.05, 0.34657, 2.3):
            inputs = AnalyticInputs(s_ab=S_LIMIT, chi2=chi2,
                                    gain=math.tanh(chi2), eta=1.0)
            assert analytic_s_ad(inputs) == pytest.approx(S_LIMIT, rel=1e-12)

    def test_s_ad_operating_point(self):
        chi2 = squeezing_to_chi(0.5)
        inputs = AnalyticInputs(s_ab=S_LIMIT, chi2=chi2,
                                gain=optimal_gain(chi2, 0.9), eta=0.9)
        assert analytic_s_ad(inputs) == pytest.approx(1.0785419118799024, rel=1e-12)
        assert analytic_s_ad(inputs) == pytest.approx(1.08, abs=0.01)

    def test_s_ad_unity_gain_values(self):
        for squeezing, expected in ((0.99, 1.1932419423397527),
                                    (0.80, 1.0050762722761053)):
            inputs = AnalyticInputs(s_ab=S_LIMIT, chi2=squeezing_to_chi(squeezing),
                                    gain=1.0, eta=1.0)
            assert analytic_s_ad(inputs) == pytest.approx(expected, rel=1e-12)

    def test_s_ad_rejects_zero_gain(self):
        inputs = AnalyticInputs(s_ab=S_LIMIT, chi2=0.5, gain=0.0, eta=1.0)
        with pytest.raises(ValueError):
            analytic_s_ad(inputs)

    def test_gain_optimum_property(self):
        """analytic_s_ad is maximized at gain = tanh(chi2), value s_ab exactly."""
        for chi2 in (0.1, 0.34657, 0.8, 2.3):
            gains = [0.01 + k * (2.0 - 0.01) / 1999 for k in range(2000)]
            values = [analytic_s_ad(AnalyticInputs(S_LIMIT, chi2, g, 1.0))
                      for g in gains]
            best = max(range(len(gains)), key=values.__getitem__)
            assert abs(gains[best] - math.tanh(chi2)) <= (2.0 - 0.01) / 1999
            assert max(values) <= S_LIMIT + 1e-12

    def test_monotone_loss(self):
        chi2 = squeezing_to_chi(0.5)
        etas = [0.85, 0.9, 0.95, 1.0]
        values = [analytic_s_ad(AnalyticInputs(S_LIMIT, chi2,
                                               optimal_gain(chi2, eta), eta))
                  for eta in etas]
        assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))


class TestThresholdsAndConversions:
    def test_optimal_gain_values(self):
        assert optimal_gain(0.0, 1.0) == 0.0
        chi2 = squeezing_to_chi(0.5)
        assert optimal_gain(chi2, 1.0) == pytest.approx(1 / 3, rel=1e-12)
        assert optimal_gain(chi2, 0.9) == pytest.approx(0.35136418446315326, rel=1e-12)
        with pytest.raises(ValueError):
            optimal_gain(0.5, 0.0)

    def test_optimal_gain_on_arrays(self):
        """Arrays broadcast; each element is the scalar formula up to 2 ulp
        (np.tanh and math.tanh may differ in the last bit)."""
        chis = np.array([0.0, 1e-8, squeezing_to_chi(0.3), squeezing_to_chi(0.5),
                         squeezing_to_chi(0.9), 3.0, 20.0])
        etas = np.array([1e-6, 0.5, 0.70, 0.828, 0.9, 1.0])
        gains = optimal_gain(chis, etas[:, None])
        assert gains.shape == (6, 7)
        for (i, j), gain in np.ndenumerate(gains):
            expected = math.tanh(chis[j]) / math.sqrt(etas[i])
            assert abs(gain - expected) <= 2 * math.ulp(expected)

    @pytest.mark.parametrize("etas", [[0.9, 0.0], [1.0 + 1e-12, 0.5], [-0.5], [0.8, math.nan]])
    def test_optimal_gain_rejects_any_bad_eta(self, etas):
        with pytest.raises(ValueError, match="eta must lie in"):
            optimal_gain(np.full(len(etas), 0.5), np.array(etas))
        with pytest.raises(ValueError, match="eta must lie in"):
            optimal_gain(0.5, np.array(etas)[:, None])

    def test_eta_threshold(self):
        assert eta_threshold(S_LIMIT) == pytest.approx(0.8284271247461902, rel=1e-12)
        assert eta_threshold(1.0) == 1.0
        with pytest.raises(ValueError):
            eta_threshold(0.0)

    def test_threshold_is_exact_crossing_of_s_ad(self):
        chi2 = squeezing_to_chi(0.5)
        eta_star = eta_threshold(S_LIMIT)
        inputs = AnalyticInputs(S_LIMIT, chi2, optimal_gain(chi2, eta_star), eta_star)
        assert analytic_s_ad(inputs) == pytest.approx(1.0, abs=1e-12)

    def test_squeezing_conversion(self):
        assert squeezing_to_chi(0.0) == 0.0
        assert squeezing_to_chi(0.5) == pytest.approx(0.34657359027997264, rel=1e-12)
        assert squeezing_to_chi(0.99) == pytest.approx(2.3025850929940455, rel=1e-12)
        with pytest.raises(ValueError):
            squeezing_to_chi(1.0)
        with pytest.raises(ValueError):
            squeezing_to_chi(-0.2)


class TestGainWindow:
    def test_frozen_widths(self):
        expected = {0.10: 0.5070906840289708, 0.50: 0.7623961686037218,
                    0.80: 0.6784079093920273, 0.99: 0.18023360814345624}
        for squeezing, width in expected.items():
            window = gain_window(squeezing_to_chi(squeezing), 1.0, S_LIMIT)
            assert window is not None
            assert window[1] - window[0] == pytest.approx(width, abs=1e-12)

    def test_weak_squeezing_clips_at_zero(self):
        window = gain_window(squeezing_to_chi(0.10), 1.0, S_LIMIT)
        assert window[0] == 0.0

    def test_no_violation_no_window(self):
        assert gain_window(0.5, 1.0, 1.0) is None
        assert gain_window(0.5, 0.5, S_LIMIT) is None

    def test_degenerates_at_threshold(self):
        chi2 = squeezing_to_chi(0.5)
        eta_star = eta_threshold(S_LIMIT)
        assert gain_window(chi2, eta_star, S_LIMIT) is None
        just_above = gain_window(chi2, eta_star + 1e-6, S_LIMIT)
        assert just_above is not None
        assert just_above[1] - just_above[0] < 0.01
        center = 0.5 * (just_above[0] + just_above[1])
        assert center == pytest.approx(optimal_gain(chi2, eta_star + 1e-6), abs=0.01)


class TestMaximizeS:
    def test_baseline_maximum_at_pi_over_eight(self):
        theta_star, s_star = maximize_s(source_beams(0.01))
        assert theta_star == pytest.approx(math.pi / 8, abs=math.pi / 2 / 720)
        assert s_star == pytest.approx(1.2069653975327124, rel=1e-12)

    def test_full_circuit_unity_gain_99(self):
        out = build_swap_circuit(SwapParams(0.1, squeezing_to_chi(0.99), 1.0, 1.0))
        theta_star, s_star = maximize_s(out)
        assert theta_star == pytest.approx(math.pi / 8, abs=math.pi / 2 / 720)
        assert s_star == pytest.approx(1.1801269973578479, rel=1e-12)
        assert s_star == pytest.approx(1.19, abs=0.02)

    def test_full_circuit_unity_gain_80_is_marginal(self):
        out = build_swap_circuit(SwapParams(0.1, squeezing_to_chi(0.80), 1.0, 1.0))
        _, s_star = maximize_s(out)
        assert s_star == pytest.approx(0.9994066037610987, rel=1e-12)
        assert s_star == pytest.approx(1.0, abs=0.02)

    def test_family_contains_optimal_set(self):
        angles = angle_family(math.pi / 8)
        assert angles == AnalyzerAngles(math.pi / 8, -math.pi / 4, 3 * math.pi / 8, 0.0)


class TestEngineAnalyticConsistency:
    def test_deviation_bounded_by_chi1_squared(self):
        """|engine S - closed form| <= 5 chi1^2 over the parameter grid."""
        for chi1 in (0.02, 0.05, 0.1):
            base = baseline_s(chi1)
            worst = 0.0
            for squeezing in (0.1, 0.5, 0.99):
                chi2 = squeezing_to_chi(squeezing)
                for gain in (0.3, math.tanh(chi2), 1.0):
                    for eta in (0.83, 0.9, 1.0):
                        out = build_swap_circuit(SwapParams(chi1, chi2, gain, eta))
                        engine = ch_s(out, OPTIMAL_ANGLES).s
                        closed = analytic_s_ad(AnalyticInputs(base, chi2, gain, eta))
                        worst = max(worst, abs(engine - closed))
            assert worst <= 5 * chi1 ** 2


class TestAttenuationInvariance:
    @pytest.mark.parametrize("chi2", [0.1, 0.34, 0.8])
    def test_teleporter_equals_beamsplitter_at_optimal_gain(self, chi2):
        gain = math.tanh(chi2)
        out = build_swap_circuit(SwapParams(0.1, chi2, gain, 1.0))
        registry = ModeRegistry()
        beam_a, beam_b = opo_type2(registry, 0.1, label="opo1")
        attenuated = PolarizedBeam(
            h=attenuate(beam_b.h, gain * gain, registry, "attenuator_h"),
            v=attenuate(beam_b.v, gain * gain, registry, "attenuator_v"))
        teleported = ch_s(out, OPTIMAL_ANGLES)
        direct = ch_s((beam_a, attenuated), OPTIMAL_ANGLES)
        for name in ("r_ab", "r_ab_prime", "r_a_prime_b", "r_a_prime_b_prime",
                     "r_singles_a", "r_singles_b", "s"):
            assert getattr(teleported, name) == pytest.approx(
                getattr(direct, name), abs=1e-9)
