"""Every rate of ch_s on circuit builds against the phase-space model in
extended precision."""

import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cvswap import AnalyzerAngles, NoCoincidencesError, SwapParams, build_swap_circuit, ch_s
from cvswap.metrics import OPTIMAL_ANGLES, RateOverflowError, _operands
from helpers import nonzero_parts
from phase_space import rates

_angle = st.floats(min_value=-math.pi, max_value=math.pi)
# eta = 1 has no loss part; at eta >= 1e-6 the optimal gain keeps the model in float range
_eta = st.one_of(st.just(1.0), st.just(0.0), st.floats(min_value=1e-6, max_value=1.0))
# 0, where a float below 0.01 is drawn, or [0.01, 4]: from 4 on, ch_s and the
# model both cancel g cosh chi2 - sinh chi2
_chi2 = st.floats(min_value=0.0, max_value=4.0).map(lambda c: c if c >= 0.01 else 0.0)
# the float model's rounding scale, eps ||f||^2 ||g||^2, with a margin
_ROUNDING = 64 * np.finfo(float).eps


def test_every_rate_matches_the_phase_space_model():
    """Each cell of all six rates lies within max(1e-12 of its Wick-term
    magnitudes, 1e-15 of the cell's largest rate for H's rounding where a
    pair amplitude cancels) of the longdouble model, with D' in 1, 2 and 3 blocks.
    ch_s raises NoCoincidencesError, on folded D' too, exactly where the
    model's singles sum is below float's smallest normal, as it is not at the
    examples' 2e-14 and 7e-153.  Where longdouble is double, the test fails."""
    assert np.finfo(np.longdouble).eps <= 1e-18
    blocks_seen = set()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(chi1=st.floats(min_value=-5.0, max_value=math.log10(150.0)).map(lambda e: 10.0 ** e),
           chi2s=st.lists(_chi2, min_size=1, max_size=3),
           etas=st.one_of(_eta, st.lists(_eta, min_size=1, max_size=3)),
           drawn_gains=st.lists(st.floats(min_value=0.0, max_value=2.0), max_size=4),
           angles=st.builds(AnalyzerAngles, _angle, _angle, _angle, _angle))
    @example(chi1=1e-5, chi2s=[0.01], etas=1.0, drawn_gains=[0.0], angles=OPTIMAL_ANGLES)
    @example(chi1=1e-5, chi2s=[0.0], etas=1.0, drawn_gains=[3.5e-72], angles=OPTIMAL_ANGLES)
    def check(chi1, chi2s, etas, drawn_gains, angles):
        chi2 = np.array(chi2s)
        eta = np.array(etas)[:, None] if isinstance(etas, list) else etas
        # each level's optimal gain but chi2 = 0's, which leaves D' in vacuum
        optimal = [math.tanh(c) / math.sqrt(e) for e in np.ravel(etas) if e > 0
                   for c in chi2s if c > 0]
        gains = np.array(optimal + drawn_gains)
        assume(gains.size)
        # a gain axis, or one gain as a scalar, with which a scalar eta folds D'
        gain = gains.reshape((-1,) + (1,) * max(np.ndim(eta), 1)) if gains.size > 1 else gains[0]
        out = build_swap_circuit(SwapParams(chi1, chi2, gain, eta))
        try:
            result = ch_s(out, angles)
        except RateOverflowError:
            return
        except NoCoincidencesError:
            result = None
        model = rates(chi1, chi2, gain, eta, angles, np.longdouble)
        singles = (model["r_singles_a"] + model["r_singles_b"])[0]
        assert (result is None) == (singles < np.finfo(float).tiny).any()
        if result is None:
            with pytest.raises(NoCoincidencesError):
                ch_s((out.beam_a, out.beam_d_prime), angles)
            return
        blocks = _operands(out)[1].shape[-3]
        assert blocks in (1, 1 + nonzero_parts(out))
        blocks_seen.add(blocks)
        largest = np.maximum.reduce(np.broadcast_arrays(*(rate[0] for rate in model.values())))
        for name, (value, terms, norms) in model.items():
            bound = np.maximum(1e-12 * terms, 1e-15 * largest)
            assert np.all(bound <= 1e-12 * terms + _ROUNDING * norms), name
            assert np.all(np.abs(getattr(result, name) - value) <= bound), name

    check()
    assert blocks_seen == {1, 2, 3}


def test_model_imports_only_numpy_and_the_standard_library():
    """The model is the range-wide reference for ch_s: it shares no code with
    the package, and a relative import fails too."""
    tree = ast.parse((Path(__file__).parent / "phase_space.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += ["" if node.level else node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    allowed = sys.stdlib_module_names | {"numpy"}
    assert [m for m in modules if m.split(".")[0] not in allowed] == []
