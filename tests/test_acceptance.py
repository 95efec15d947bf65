"""Acceptance criteria.

One test per criterion; each prints a PASS/FAIL line with the measured value
and its tolerance (run with -s to see them on success).  Tolerances are fixed
here, not computed.
"""

import math

from cvswap import (
    AnalyticInputs,
    ModeRegistry,
    PolarizedBeam,
    SwapParams,
    analytic_rate_teleported,
    analytic_singles_teleported,
    analyzer,
    attenuate,
    build_source_state,
    build_swap_circuit,
    ch_s,
    coincidence_rate,
    commutator,
    fock_coincidence_rate,
    gain_window,
    opo_type2,
    optimal_gain,
    singles_rate,
    squeezing_to_chi,
)
from cvswap.metrics import OPTIMAL_ANGLES
from helpers import baseline_s, max_oracle_deviation, source_beams, teleported_s

S_LIMIT = (1 + math.sqrt(2)) / 2
SQUEEZING_LEVELS = (0.10, 0.50, 0.80, 0.99)


def report(criterion: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion} ({label}): {detail}")
    assert ok, f"criterion {criterion} ({label}): {detail}"


def test_criterion_1_baseline_ch_violation():
    s = ch_s(source_beams(0.01), OPTIMAL_ANGLES).s
    detail = f"S = {s:.6f}, target {S_LIMIT:.6f}, tol 1e-3"
    report(1, "baseline CH violation", abs(s - S_LIMIT) <= 1e-3, detail)


def test_criterion_2_gain_optimum_identity():
    chi1 = 0.1
    baseline = baseline_s(chi1)
    worst_equality = 0.0
    worst_argmax_steps = 0.0
    steps = 200
    lo, hi = 0.01, 2.0
    step = (hi - lo) / (steps - 1)
    for squeezing in SQUEEZING_LEVELS:
        chi2 = squeezing_to_chi(squeezing)
        optimal = math.tanh(chi2)
        worst_equality = max(worst_equality,
                             abs(teleported_s(chi1, chi2, optimal, 1.0) - baseline))
        values = [teleported_s(chi1, chi2, lo + k * step, 1.0) for k in range(steps)]
        best = max(range(steps), key=values.__getitem__)
        worst_argmax_steps = max(worst_argmax_steps,
                                 abs((lo + best * step) - optimal) / step)
    ok = worst_equality <= 1e-9 and worst_argmax_steps <= 1.0
    detail = (f"max |S_AD - S_AB| = {worst_equality:.2e} (tol 1e-9), "
              f"argmax offset = {worst_argmax_steps:.2f} grid steps (tol 1)")
    report(2, "gain-optimum identity", ok, detail)


def test_criterion_3_operating_point():
    chi2 = squeezing_to_chi(0.5)
    eta = 0.9
    gain = optimal_gain(chi2, eta)
    s_ad = teleported_s(0.1, chi2, gain, eta)
    ratio = gain * gain * eta
    ok = abs(s_ad - 1.08) <= 0.01 and abs(ratio - 0.107) <= 0.01
    detail = (f"S_AD = {s_ad:.4f} (target 1.08 +- 0.01), "
              f"coincidence ratio = {ratio:.4f} (target 0.107 +- 0.01)")
    report(3, "operating point", ok, detail)


def _interpolated_eta_crossing(chi1: float, squeezing: float) -> float:
    chi2 = squeezing_to_chi(squeezing)
    etas = [0.70 + 0.005 * k for k in range(61)]
    values = [teleported_s(chi1, chi2, optimal_gain(chi2, eta), eta)
              for eta in etas]
    for i in range(len(etas) - 1):
        if values[i] < 1.0 <= values[i + 1]:
            slope = (values[i + 1] - values[i]) / (etas[i + 1] - etas[i])
            return etas[i] + (1.0 - values[i]) / slope
    raise AssertionError("no S = 1 crossing found on the eta grid")


def test_criterion_4_efficiency_threshold():
    crossings = [_interpolated_eta_crossing(0.01, squeezing)
                 for squeezing in (0.30, 0.50, 0.90)]
    spread = max(crossings) - min(crossings)
    ok = all(abs(c - 0.828) <= 0.002 for c in crossings) and spread < 0.002
    detail = (f"crossings = {[f'{c:.4f}' for c in crossings]} "
              f"(target 0.828 +- 0.002), spread = {spread:.2e} (tol 0.002)")
    report(4, "efficiency threshold", ok, detail)


def test_criterion_5_unity_gain_squeezing_threshold():
    analytic = 2.0 - S_LIMIT  # squeezing where the closed form crosses S = 1
    lo, hi = 0.70, 0.90
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if teleported_s(0.1, squeezing_to_chi(mid), 1.0, 1.0) < 1.0:
            lo = mid
        else:
            hi = mid
    engine = 0.5 * (lo + hi)
    ok = abs(analytic - 0.793) < 5e-4 and abs(engine - analytic) <= 0.01
    detail = (f"analytic crossing = {analytic:.4f} (~79.3%), engine at chi1=0.1 "
              f"= {engine:.4f}, |diff| = {abs(engine - analytic):.4f} (tol 0.01)")
    report(5, "unity-gain squeezing threshold", ok, detail)


def test_criterion_6_attenuation_equivalence():
    worst = 0.0
    for chi2 in (0.1, 0.34, 0.8):
        gain = math.tanh(chi2)
        teleported = ch_s(build_swap_circuit(SwapParams(0.1, chi2, gain, 1.0)),
                          OPTIMAL_ANGLES)
        registry = ModeRegistry()
        beam_a, beam_b = opo_type2(registry, 0.1, label="opo1")
        attenuated = PolarizedBeam(
            h=attenuate(beam_b.h, gain * gain, registry, "attenuator_h"),
            v=attenuate(beam_b.v, gain * gain, registry, "attenuator_v"))
        direct = ch_s((beam_a, attenuated), OPTIMAL_ANGLES)
        for name in ("r_ab", "r_ab_prime", "r_a_prime_b", "r_a_prime_b_prime",
                     "r_singles_a", "r_singles_b", "s"):
            worst = max(worst, abs(getattr(teleported, name) - getattr(direct, name)))
    detail = f"max |teleported - attenuated| over S and all rates = {worst:.2e} (tol 1e-9)"
    report(6, "attenuation equivalence", worst <= 1e-9, detail)


def test_criterion_7_oracle_equivalence():
    rewriter_dev = max_oracle_deviation(n_products=200, seed=1234)
    fock_dev = 0.0
    for chi1 in (0.05, 0.1, 0.2):
        beam_a, beam_b = source_beams(chi1)
        state = build_source_state(chi1, 12, "exact_product")
        for k in range(16):
            theta_a, theta_b = 0.19 * k, -1.1 + 0.17 * k
            wick = coincidence_rate(analyzer(beam_a, theta_a, "a"),
                                    analyzer(beam_b, theta_b, "d"))
            fock = fock_coincidence_rate(state, theta_a, theta_b)
            if wick > 0:
                fock_dev = max(fock_dev, abs(wick - fock) / wick)
    ok = rewriter_dev <= 1e-12 and fock_dev <= 1e-6
    detail = (f"Wick vs rewriter max |dev| = {rewriter_dev:.2e} (tol 1e-12); "
              f"Wick vs Fock max rel dev = {fock_dev:.2e} (tol 1e-6)")
    report(7, "oracle equivalence", ok, detail)


def test_criterion_8_physicality_invariants():
    worst = 0.0
    for chi2 in (0.0, 0.1, 0.34, 0.8, 2.3):
        for gain in (0.0, 0.3, math.tanh(chi2), 1.0, 2.0):
            for eta in (0.5, 0.83, 0.9, 1.0):
                out = build_swap_circuit(SwapParams(0.1, chi2, gain, eta))
                for beam in (out.beam_a, out.beam_d_prime):
                    worst = max(
                        worst,
                        abs(commutator(beam.h, beam.h.adjoint()) - 1),
                        abs(commutator(beam.v, beam.v.adjoint()) - 1),
                        abs(commutator(beam.h, beam.v.adjoint())))
    detail = f"max commutator violation over full grid = {worst:.2e} (tol 1e-12)"
    report(8, "physicality invariants", worst <= 1e-12, detail)


def _transform_deviation(chi1: float) -> float:
    beam_a, beam_b = source_beams(chi1)
    rate_unit = 2 * chi1 * chi1
    worst = 0.0
    for squeezing in (0.1, 0.5, 0.8):
        chi2 = squeezing_to_chi(squeezing)
        for gain in (0.3, math.tanh(chi2), 1.0):
            for eta in (0.8, 0.9, 1.0):
                out = build_swap_circuit(SwapParams(chi1, chi2, gain, eta))
                inputs = AnalyticInputs(s_ab=0.0, chi2=chi2, gain=gain, eta=eta)
                for theta_a, theta_b in ((math.pi / 8, -math.pi / 4), (0.3, 0.7)):
                    e_a = analyzer(beam_a, theta_a, "a")
                    e_a_tele = analyzer(out.beam_a, theta_a, "a")
                    r_ab = coincidence_rate(e_a, analyzer(beam_b, theta_b, "d"))
                    r_ad = coincidence_rate(
                        e_a_tele, analyzer(out.beam_d_prime, theta_b, "d"))
                    worst = max(worst, abs(
                        r_ad - analytic_rate_teleported(r_ab, inputs, rate_unit)))
                    s_b = singles_rate(e_a, beam_b)
                    s_d = singles_rate(e_a_tele, out.beam_d_prime)
                    worst = max(worst, abs(
                        s_d - analytic_singles_teleported(s_b, inputs, rate_unit)))
    return worst


def test_criterion_9_analytic_formula_consistency():
    dev_01 = _transform_deviation(0.1)
    dev_005 = _transform_deviation(0.05)
    ratio = dev_01 / dev_005
    ok = 14.0 <= ratio <= 18.0 and dev_01 <= 2.0 * 0.1 ** 4
    detail = (f"max transform deviation: {dev_01:.2e} at chi1=0.1, "
              f"{dev_005:.2e} at chi1=0.05; ratio = {ratio:.2f} "
              f"(chi1^4 scaling predicts 16)")
    report(9, "analytic-formula consistency", ok, detail)


def test_criterion_10_gain_window_shape():
    targets = {0.10: 0.507, 0.50: 0.762, 0.80: 0.678, 0.99: 0.180}
    widths = {}
    for squeezing, target in targets.items():
        window = gain_window(squeezing_to_chi(squeezing), 1.0, S_LIMIT)
        widths[squeezing] = window[1] - window[0]
    ok = all(abs(widths[s] - t) <= 0.005 for s, t in targets.items())
    # broaden-then-narrow as squeezing is reduced from 99%
    ok = ok and widths[0.99] < widths[0.80] < widths[0.50] > widths[0.10]
    detail = ("widths = " + ", ".join(f"{int(s * 100)}%: {w:.4f}"
                                      for s, w in sorted(widths.items()))
              + " (targets 0.507/0.762/0.678/0.180, tol 0.005)")
    report(10, "gain-window shape", ok, detail)
