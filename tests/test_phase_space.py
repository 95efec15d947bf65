"""Every rate of ch_s on circuit builds against the phase-space model, folded
D' and the general Wick sum."""

import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cvswap import AnalyzerAngles, NoCoincidencesError, SwapParams, build_swap_circuit, ch_s
from cvswap.metrics import RateOverflowError, _operands
from helpers import assert_cells_match_wick, nonzero_parts, wick_term_magnitudes
from phase_space import rates

_angle = st.floats(min_value=-math.pi, max_value=math.pi)
# eta = 1 has no loss part; at eta >= 1e-6 the optimal gain keeps the model in float range
_eta = st.one_of(st.just(1.0), st.just(0.0), st.floats(min_value=1e-6, max_value=1.0))
# 0, where a float below 0.01 is drawn, or [0.01, 4]: from 4 on, ch_s and the
# model both cancel g cosh chi2 - sinh chi2
_chi2 = st.floats(min_value=0.0, max_value=4.0).map(lambda c: c if c >= 0.01 else 0.0)
_ROUNDING = 64 * np.finfo(float).eps


def test_every_rate_matches_the_phase_space_model():
    """Each cell of all six rates lies within 1e-12 of the model's Wick-term
    magnitudes plus 64 eps ||f||^2 ||g||^2, its rounding scale, of its value,
    with D' in 1, 2 and 3 blocks.  ch_s raises NoCoincidencesError, on folded
    D' too, where D' is vacuum, and only where the model sees no singles.

    The model's scale is loose at weak pump, so the draws with chi1 in
    [1e-3, 3] also hold each cell to ch_s on folded D', within 1e-12 of its
    Wick-term magnitudes, and those in [1e-2, 1] one cell to the general Wick
    sum, within 1e-12 relative; both allow 1e-15 of the cell's largest rate,
    the rounding of H's entries where a pair amplitude cancels."""
    blocks_seen = set()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(chi1=st.floats(min_value=-5.0, max_value=math.log10(150.0)).map(lambda e: 10.0 ** e),
           chi2s=st.lists(_chi2, min_size=1, max_size=3),
           etas=st.one_of(_eta, st.lists(_eta, min_size=1, max_size=3)),
           drawn_gains=st.lists(st.floats(min_value=0.0, max_value=2.0), max_size=4),
           angles=st.builds(AnalyzerAngles, _angle, _angle, _angle, _angle),
           cell=st.integers(min_value=0, max_value=2 ** 16))
    def check(chi1, chi2s, etas, drawn_gains, angles, cell):
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
        folded = (out.beam_a, out.beam_d_prime)
        try:
            result = ch_s(out, angles)
        except RateOverflowError:
            return
        except NoCoincidencesError:
            result = None
        model = rates(chi1, chi2, gain, eta, angles)
        value, terms, norms = model["r_singles_a"] + model["r_singles_b"]
        silent = np.abs(value) <= 1e-12 * terms + _ROUNDING * norms
        # a real singles sum below the model's scale, as at chi2 = 0 and gain
        # 1e-72, need not raise: the rate checks below hold it to that scale
        if np.any((chi2 == 0) & (np.asarray(gain) == 0)):  # D' is vacuum somewhere
            assert result is None
        if result is None:
            assert silent.any()
            with pytest.raises(NoCoincidencesError):
                ch_s(folded, angles)
            return
        blocks = _operands(out)[1].shape[-3]
        assert blocks in (1, 1 + nonzero_parts(out))
        blocks_seen.add(blocks)
        for name, (value, terms, norms) in model.items():
            tolerance = 1e-12 * terms + _ROUNDING * norms
            assert np.all(np.abs(getattr(result, name) - value) <= tolerance), name
        if 1e-3 <= chi1 <= 3.0:
            reference = ch_s(folded, angles)
            largest = np.maximum.reduce(np.broadcast_arrays(*reference[:6]))
            for name, scale in wick_term_magnitudes(*folded, angles).items():
                deviation = np.abs(getattr(result, name) - getattr(reference, name))
                assert np.all(deviation <= np.maximum(1e-12 * scale, 1e-15 * largest)), name
        if 1e-2 <= chi1 <= 1.0:
            index = np.unravel_index(cell % result.s.size, result.s.shape)
            assert_cells_match_wick((folded, angles, result), [index], floor=1e-15)

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
