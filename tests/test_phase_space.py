"""Every rate of ch_s on circuit builds against the phase-space model."""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from cvswap import AnalyzerAngles, NoCoincidencesError, SwapParams, build_swap_circuit, ch_s
from cvswap.metrics import RateOverflowError, _operands
from phase_space import rates

_angle = st.floats(min_value=-math.pi, max_value=math.pi)
# eta = 1 has no loss part; at eta >= 1e-6 the optimal gain keeps the model in float range
_eta = st.one_of(st.just(1.0), st.just(0.0), st.floats(min_value=1e-6, max_value=1.0))


def test_every_rate_matches_the_phase_space_model():
    """Each cell of all six rates lies within 1e-12 of the model's Wick-term
    magnitudes plus 64 eps ||f||^2 ||g||^2, its rounding scale, of its value,
    with D' in 1, 2 and 3 blocks.  chi2 stops at 4: both cancel g cosh chi2 - sinh chi2."""
    blocks_seen = set()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(chi1=st.floats(min_value=-5.0, max_value=math.log10(150.0)).map(lambda e: 10.0 ** e),
           chi2s=st.lists(st.floats(min_value=0.01, max_value=4.0), min_size=1, max_size=3),
           etas=st.one_of(_eta, st.lists(_eta, min_size=1, max_size=3)),
           drawn_gains=st.lists(st.floats(min_value=0.0, max_value=2.0), max_size=4),
           angles=st.builds(AnalyzerAngles, _angle, _angle, _angle, _angle))
    def check(chi1, chi2s, etas, drawn_gains, angles):
        chi2 = np.array(chi2s)
        eta = np.array(etas)[:, None] if isinstance(etas, list) else etas
        optimal = [math.tanh(c) / math.sqrt(e) for e in np.ravel(etas) if e > 0 for c in chi2s]
        gains = np.array(optimal + drawn_gains)
        assume(gains.size)
        # a gain axis, or one gain as a scalar, with which a scalar eta folds D'
        gain = gains.reshape((-1,) + (1,) * max(np.ndim(eta), 1)) if gains.size > 1 else gains[0]
        out = build_swap_circuit(SwapParams(chi1, chi2, gain, eta))
        try:
            result = ch_s(out, angles)
        except (NoCoincidencesError, RateOverflowError):
            return
        blocks_seen.add(_operands(out)[1].shape[-3])
        for name, (value, terms, norms) in rates(chi1, chi2, gain, eta, angles).items():
            tolerance = 1e-12 * terms + 64 * np.finfo(float).eps * norms
            assert np.all(np.abs(getattr(result, name) - value) <= tolerance), name

    check()
    assert blocks_seen == {1, 2, 3}
