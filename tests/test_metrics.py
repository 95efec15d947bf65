"""Analyzer fields, coincidence rates, the CH ratio, and its closed forms."""

import math

import numpy as np
import pytest

import cvswap.cli
from cvswap import (
    AnalyticInputs,
    ModeRegistry,
    NoCoincidencesError,
    PolarizedBeam,
    SwapCircuitOutput,
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
    _PSD_TOL,
    _RATE_FLOOR,
    OPTIMAL_ANGLES,
    AnalyzerAngles,
    RateOverflowError,
    _ch_result,
    _contractions,
    _hermitian_form,
    _operands,
    _require_semidefinite,
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

    @pytest.mark.parametrize("moment, rate", [(0.5 + 1e-12j, 0.5), (2e3 + 1.9e-9j, 2e3)])
    def test_imaginary_rounding_passes(self, monkeypatch, moment, rate):
        """An imaginary part up to 1e-12, or above rate 1 up to 1e-12 |Re|,
        is rounding, and the rate is the real part."""
        monkeypatch.setattr("cvswap.metrics.vacuum_expectation", lambda product: moment)
        beam_a, beam_b = source_beams(0.1)
        assert coincidence_rate(beam_a.h, beam_b.v) == rate

    @pytest.mark.parametrize("moment", [0.5 + 2e-12j, 2e3 - 2.1e-9j])
    def test_imaginary_part_beyond_rounding_raises(self, monkeypatch, moment):
        monkeypatch.setattr("cvswap.metrics.vacuum_expectation", lambda product: moment)
        beam_a, beam_b = source_beams(0.1)
        with pytest.raises(ValueError, match=f"imaginary part {moment.imag:g}$"):
            coincidence_rate(beam_a.h, beam_b.v)


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

    def test_batched_fields_equal_one_pair_cells(self):
        # one build over a ((chi2, gain), eta) grid, whose gain adds no batch
        # axes, against one build per cell.  With eta on chi2's axis the
        # weights add no batch axes either, D' is folded as in each cell, and
        # every bit is kept; eta on an axis of its own makes D'(0) and the
        # port and loss parts blocks, whose rounding differs: each rate, a
        # sum of nonnegative Wick terms, and S within 1e-15 relative
        chi2s, gains = np.array([0.2, 0.5])[:, None], np.array([0.3, 0.9])[:, None]
        for etas, rel in ((np.array([0.6, 0.85])[:, None], 0.0),
                          (np.array([0.6, 0.85, 1.0]), 1e-15)):
            shape = np.broadcast_shapes(chi2s.shape, etas.shape)
            batched = ch_s(build_swap_circuit(SwapParams(0.1, chi2s, gains, etas)),
                           OPTIMAL_ANGLES)
            assert batched.s.shape == shape
            for i, j in np.ndindex(shape):
                single = ch_s(build_swap_circuit(SwapParams(
                    0.1, float(chi2s[i, 0]), float(gains[i, 0]),
                    float(np.broadcast_to(etas, shape)[i, j]))), OPTIMAL_ANGLES)
                for name, value in vars(single).items():
                    assert isinstance(value, float), name
                    cell = np.broadcast_to(getattr(batched, name), shape)[i, j]
                    assert abs(cell - value) <= rel * abs(value), name

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

    def test_semidefinite_check_scales_with_the_trace(self):
        # a rate form's negative eigenvalues are rounding up to 1e-12 of its
        # trace: bare 1e-12 would reject the first, and miss the second
        def blocks(full):
            # the block matrix [H_bc] of 4x4 blocks as _require_semidefinite takes it
            n = full.shape[-1] // 4
            return full.reshape(full.shape[:-2] + (n, 4, n, 4)).swapaxes(-3, -2)

        _require_semidefinite(blocks(np.diag([1e20, 1e20, 1e20, -1e6])))
        with pytest.raises(ValueError, match="indefinite: eigenvalue -1e-30"):
            _require_semidefinite(blocks(np.diag([1e-20, 1e-20, 1e-20, -1e-30])))

        # two blocks in a random basis, smallest eigenvalue 0.9 and 1.1 times
        # _PSD_TOL of the trace below 0: accepted, then rejected
        rng = np.random.default_rng(7)
        basis = np.linalg.qr(rng.normal(size=(8, 8)))[0]
        positive = np.arange(1.0, 8.0)
        for factor, accepted in ((0.9, True), (1.1, False)):
            low = -factor * _PSD_TOL * positive.sum() / (1 + factor * _PSD_TOL)
            h = blocks(basis @ np.diag(np.append(positive, low)) @ basis.T)
            if accepted:
                _require_semidefinite(h)
            else:
                with pytest.raises(ValueError, match="indefinite: eigenvalue"):
                    _require_semidefinite(h)

        # a rank-3 form W W^T over two blocks, and the zero form (trace 0)
        w = rng.normal(size=(8, 3))
        _require_semidefinite(blocks(w @ w.T))
        _require_semidefinite(np.zeros((2, 2, 4, 4)))

        # a batch of three forms, one of them indefinite
        batch = np.stack([w @ w.T, basis @ np.diag(np.append(positive, -1.0)) @ basis.T,
                          np.eye(8)])
        with pytest.raises(ValueError, match="indefinite: eigenvalue -1 "):
            _require_semidefinite(blocks(batch))

    def test_accepted_forms_need_no_eigenvalues(self, tmp_path, monkeypatch, capsys):
        """The shifted Cholesky factorization alone accepts every default
        sweep's forms, and the form that only its shift certifies."""
        commands = ["fig3", "fig4", "threshold-scan", "operating-point"]
        for command in commands:
            assert cvswap.cli.main([command, "--out", str(tmp_path / "eig")]) == 0

        def no_eigenvalues(*args, **kwargs):
            raise AssertionError("eigvalsh was called")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigenvalues)
        for command in commands:
            assert cvswap.cli.main([command, "--out", str(tmp_path / "cholesky")]) == 0
        capsys.readouterr()
        written = sorted(path.name for path in (tmp_path / "eig").glob("*.csv"))
        assert len(written) == len(commands)
        for name in written:
            assert ((tmp_path / "cholesky" / name).read_bytes()
                    == (tmp_path / "eig" / name).read_bytes())
        _require_semidefinite(np.diag([1e20, 1e20, 1e20, -1e6])[None, None])

    @pytest.mark.parametrize("command", ["fig3", "fig4", "threshold-scan", "operating-point"])
    def test_semidefinite_check_rejects_a_negated_gram_term(self, tmp_path, monkeypatch,
                                                            capsys, command):
        """Each default build's block matrix [H_bc] is accepted, with its
        smallest eigenvalue above 1e-6 of its trace; with the Gram term
        Re G_1 (x) Re G_2 negated, every one is rejected."""
        seen = []
        monkeypatch.setattr(cvswap.cli, "ch_s",
                            lambda out, angles: seen.append(out) or ch_s(out, angles))
        assert cvswap.cli.main([command, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        beam_1, right, _ = _operands(seen[0])
        h = _hermitian_form(beam_1, right)
        _require_semidefinite(h)
        blocks = h.shape[-3]
        full = h.swapaxes(-3, -2).reshape(h.shape[:-4] + (4 * blocks, 4 * blocks))
        low = np.linalg.eigvalsh(full)[..., 0]
        assert np.all(low > 1e-6 * np.trace(full, axis1=-2, axis2=-1))
        _, gram_1, gram_2 = _contractions(beam_1, right)
        gram = np.einsum("...ik,...bcjl->...bcijkl", gram_1.real, gram_2.real)
        broken = h - 2 * gram.reshape(h.shape)
        for index in np.ndindex(h.shape[:-4]):
            with pytest.raises(ValueError, match="indefinite"):
                _require_semidefinite(broken[index])

    def test_negative_rate_is_named(self):
        rates = {name: np.array([1.0, 2.0]) for name in (
            "r_ab", "r_ab_prime", "r_a_prime_b", "r_a_prime_b_prime",
            "r_singles_a", "r_singles_b")}
        rates["r_ab"] = np.array([1.0, 10 * _RATE_FLOOR])
        with pytest.raises(ValueError, match="r_ab is negative beyond tolerance"):
            _ch_result(rates)

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
        assert gain_window(-0.5, 1.0, S_LIMIT) is None  # every gain lies below 0

    def test_degenerates_at_threshold(self):
        chi2 = squeezing_to_chi(0.5)
        eta_star = eta_threshold(S_LIMIT)
        assert gain_window(chi2, eta_star, S_LIMIT) is None
        just_above = gain_window(chi2, eta_star + 1e-6, S_LIMIT)
        assert just_above is not None
        assert just_above[1] - just_above[0] < 0.01
        center = 0.5 * (just_above[0] + just_above[1])
        assert center == pytest.approx(optimal_gain(chi2, eta_star + 1e-6), abs=0.01)

    @pytest.mark.parametrize("chi2, eta", [
        (40.0, 1.0),  # tanh 40 = 1.0 makes the noise term exactly 0.0
        (30.0, (1 + 1e-15) / S_LIMIT),  # eta s_ab - 1 ~ 1e-15
    ])
    def test_window_below_float_spacing_is_one_point(self, chi2, eta):
        window = gain_window(chi2, eta, S_LIMIT)
        assert window is not None
        low, high = window
        assert low == high == pytest.approx(optimal_gain(chi2, eta), rel=1e-15)


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

    def test_two_steps_scan_both_ends(self):
        theta_star, s_star = maximize_s(source_beams(0.1), steps=2)
        assert theta_star in (0.0, math.pi / 2)
        assert isinstance(s_star, float)

    @pytest.mark.parametrize("steps", [1, 0])
    def test_rejects_fewer_than_two_steps(self, steps):
        with pytest.raises(ValueError, match="steps must be at least 2"):
            maximize_s(source_beams(0.1), steps=steps)

    def test_expands_a_circuit_output_once(self, monkeypatch):
        """maximize_s forms D' once per call, for its batch check and ch_s."""
        calls = []
        d_prime = SwapCircuitOutput.beam_d_prime
        monkeypatch.setattr(SwapCircuitOutput, "beam_d_prime",
                            property(lambda out: calls.append(out) or d_prime.fget(out)))
        out = build_swap_circuit(SwapParams(0.1, squeezing_to_chi(0.5), 0.3, 0.9))
        maximize_s(out, steps=5)
        assert len(calls) == 1 and calls[0] is out

    def test_circuit_output_scans_as_its_beam_pair(self):
        out = build_swap_circuit(SwapParams(0.1, squeezing_to_chi(0.5), 0.3, 0.9))
        assert maximize_s(out) == maximize_s((out.beam_a, out.beam_d_prime))

    def test_family_contains_optimal_set(self):
        angles = angle_family(math.pi / 8)
        assert angles == AnalyzerAngles(math.pi / 8, -math.pi / 4, 3 * math.pi / 8, 0.0)

    @pytest.mark.parametrize("params", [
        SwapParams(0.1, 0.5, np.linspace(0.1, 1.0, 721), 1.0),  # would pair gain i with theta i
        SwapParams(0.1, np.array([0.3, 0.5]), 1.0, 1.0),  # would not broadcast against theta
        SwapParams(0.1, 0.5, 0.9, np.linspace(0.7, 1.0, 4)),  # in the weights alone
    ], ids=["gain-batch", "squeezing-batch", "efficiency-batch"])
    @pytest.mark.parametrize("as_pair", [False, True], ids=["circuit-output", "beam-pair"])
    def test_rejects_a_batch(self, params, as_pair):
        """A batch of squeezing levels lies in the parts, one of gains or
        efficiencies in the weights alone: maximize_s rejects each."""
        out = build_swap_circuit(params)
        assert out.parts.field.ann.shape[:-2] == (2,) + np.shape(params.chi2)
        assert out.weights.shape == (2,) + np.broadcast_shapes(np.shape(params.gain),
                                                               np.shape(params.eta))
        beams = (out.beam_a, out.beam_d_prime) if as_pair else out
        with pytest.raises(ValueError, match="one beam pair, not a batch"):
            maximize_s(beams)


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
