"""Oracle-free physics properties of the engine over the whole accepted range.

Each test is an identity that the network's physics implies, checked by the
engine alone on derandomized Hypothesis points.  Tolerances are on the
summed magnitudes of the six rates, over the denominator for S.  The
singles rates belong in that scale: where all four pair amplitudes cancel,
the coincidence rates fall to the accidental floor, but the rounding of the
rate form stays of the size of the pair rate, which the singles carry.
"""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from cvswap import AnalyzerAngles, NoCoincidencesError, SwapParams, build_swap_circuit, ch_s
from helpers import source_beams

_angle = st.floats(min_value=-math.pi, max_value=math.pi)
_angles = st.builds(AnalyzerAngles, _angle, _angle, _angle, _angle)
# the pump, log-uniform from the weak-pump limit to where the rates near 1e54
_chi1 = st.floats(min_value=-4.0, max_value=1.5).map(lambda exponent: 10.0 ** exponent)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(chi1=_chi1, chi2=st.floats(min_value=0.05, max_value=5.0), angles=_angles)
def test_optimal_gain_teleporter_keeps_the_bare_pairs_s(chi1, chi2, angles):
    """At eta = 1 and gain tanh(chi2) the teleporter is pure attenuation, so
    the swapped pair's S equals the bare source pair's at the same angles,
    at every pump and squeezing."""
    bare = ch_s(source_beams(chi1), angles)
    swapped = ch_s(build_swap_circuit(SwapParams(chi1, chi2, math.tanh(chi2), 1.0)), angles)
    term_scale = sum(map(abs, bare[:6])) / (bare.r_singles_a + bare.r_singles_b)
    assert abs(swapped.s - bare.s) <= 1e-14 * term_scale


@settings(max_examples=100, deadline=None, derandomize=True)
@given(chi1=_chi1, chi2=st.floats(min_value=0.0, max_value=4.0),
       gain=st.floats(min_value=0.0, max_value=2.0), eta=st.floats(min_value=0.3, max_value=1.0),
       angles=_angles, delta=_angle)
def test_common_analyzer_rotation_keeps_every_rate(chi1, chi2, gain, eta, angles, delta):
    """Turning all four analyzers by one angle leaves all six rates as they
    were: the source and the teleporter treat both polarizations alike, and
    the two arms' analyzers have opposite handedness, so a coincidence
    depends on its two angles only through their difference."""
    out = build_swap_circuit(SwapParams(chi1, chi2, gain, eta))
    turned = AnalyzerAngles(*(theta + delta for theta in angles))
    try:
        before = ch_s(out, angles)
    except NoCoincidencesError:
        # no squeezing and no gain leave D' in vacuum, at every angle
        with pytest.raises(NoCoincidencesError):
            ch_s(out, turned)
        return
    after = ch_s(out, turned)
    scale = sum(map(abs, before[:6]))
    for name in before._fields[:6]:  # the rates, not s
        assert abs(getattr(after, name) - getattr(before, name)) <= 1e-14 * scale, name


@settings(max_examples=100, deadline=None, derandomize=True)
@given(chi1=_chi1, chi2=st.floats(min_value=0.0, max_value=4.0),
       gain=st.floats(min_value=0.0, max_value=2.0), eta=st.floats(min_value=0.0, max_value=1.0),
       angles=_angles, other=_angles)
def test_singles_rates_do_not_depend_on_the_analyzer_angles(chi1, chi2, gain, eta, angles,
                                                            other):
    """Each beam alone is unpolarized: the source emits its pairs in both
    cross-polarized orders alike, and the teleporter treats h and v alike.
    So a singles rate, which analyzes one beam and counts the other in both
    polarizations, reads the same at every analyzer angle."""
    out = build_swap_circuit(SwapParams(chi1, chi2, gain, eta))
    try:
        before = ch_s(out, angles)
    except NoCoincidencesError:
        # no squeezing and no gain leave D' in vacuum, at every angle
        with pytest.raises(NoCoincidencesError):
            ch_s(out, other)
        return
    after = ch_s(out, other)
    scale = sum(map(abs, before[:6]))
    for name in ("r_singles_a", "r_singles_b"):
        assert abs(getattr(after, name) - getattr(before, name)) <= 1e-14 * scale, name


@settings(max_examples=80, deadline=None, derandomize=True)
@given(chi1=_chi1, chi2=st.floats(min_value=0.0, max_value=4.0),
       gain=st.floats(min_value=0.0, max_value=2.0), eta=st.floats(min_value=0.0, max_value=1.0),
       fraction=st.floats(min_value=0.0, max_value=1.0), angles=_angles)
def test_rates_depend_on_the_teleporter_only_through_tau_and_n(chi1, chi2, gain, eta, fraction,
                                                               angles):
    """The teleporter is a Gaussian channel of transmissivity tau = g^2 eta
    and noise N = (sinh chi2 - sqrt(tau) cosh chi2)^2 + g^2 (1 - eta), so
    eta' in [tau/(tau + N), 1], g' = sqrt(tau/eta') and the chi2' solving
    sinh chi - sqrt(tau) cosh chi = sqrt(N - tau (1/eta' - 1)) keep the rates."""
    tau = gain ** 2 * eta
    assume(1e-6 <= tau <= 0.99)  # chi2' grows with artanh sqrt(tau)
    noise = (math.sinh(chi2) - math.sqrt(tau) * math.cosh(chi2)) ** 2 + gain ** 2 * (1 - eta)
    low = tau / (tau + noise)
    eta_2 = low + fraction * (1.0 - low)
    rest = max(noise - tau * (1.0 / eta_2 - 1.0), 0.0)
    chi2_2 = math.atanh(math.sqrt(tau)) + math.asinh(math.sqrt(rest / (1.0 - tau)))
    before = ch_s(build_swap_circuit(SwapParams(chi1, chi2, gain, eta)), angles)
    after = ch_s(build_swap_circuit(SwapParams(chi1, chi2_2, math.sqrt(tau / eta_2), eta_2)),
                 angles)
    scale = sum(map(abs, before[:6]))
    for name in before._fields[:6]:  # the rates, not s
        assert abs(getattr(after, name) - getattr(before, name)) <= 1e-13 * scale, name
