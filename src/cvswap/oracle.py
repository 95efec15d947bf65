"""Independent verification engines for the Wick-theorem rate machinery.

Two oracles, deliberately sharing no code with the pairing-based engine:

* a symbolic normal-ordering rewriter that evaluates vacuum moments by
  exhaustively commuting annihilators past creators (a a+ -> a+ a + 1) and
  reading off the fully contracted scalar, and
* a truncated number-basis state-vector simulator that builds the
  pair source's output state explicitly and computes coincidence rates by
  applying annihilation operators.

Neither oracle simulates the feedforward teleporter; they validate the mode
algebra and the source-beam rates on which everything downstream rests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as cartesian
from math import fsum
from typing import Sequence

import numpy as np

from .modes import LinearField

__all__ = [
    "TruncationError",
    "FockState",
    "normal_order_expectation",
    "build_source_state",
    "fock_coincidence_rate",
    "fock_singles_rate",
]

_MAX_REWRITE_LENGTH = 10
_BOUNDARY_TOL = 1e-8

_ANNIHILATE = 0
_CREATE = 1


class TruncationError(Exception):
    """The number-basis cutoff is too small for the requested computation."""


@lru_cache(maxsize=None)
def _vacuum_moment_of_word(word: tuple[tuple[int, int], ...]) -> int:
    """<0| word |0> for a word of (mode, kind) ladder operators, by rewriting.

    Repeatedly applies a_m a_m'^dag = a_m'^dag a_m + delta_mm' until the word
    is normal-ordered, at which point only the empty word survives.
    """
    if not word:
        return 1
    first_create = next((k for k, (_, kind) in enumerate(word) if kind == _CREATE), None)
    if first_create is None:  # all annihilators: kills |0>
        return 0
    if first_create == 0:  # leading creator: kills <0|
        return 0
    j = first_create
    mode_left, _ = word[j - 1]
    mode_right, _ = word[j]
    swapped = word[:j - 1] + (word[j], word[j - 1]) + word[j + 1:]
    value = _vacuum_moment_of_word(swapped)
    if mode_left == mode_right:
        value += _vacuum_moment_of_word(word[:j - 1] + word[j + 1:])
    return value


def normal_order_expectation(product: Sequence[LinearField]) -> complex:
    """Vacuum expectation of an ordered product, by normal-order rewriting.

    Expands each field multilinearly into single-ladder monomials over its
    nonzero coefficients before rewriting, so the cost is exponential in the
    product length; lengths above 10 are rejected, and a product with a zero
    field is 0.  The fields must be single fields, without batch axes.

    Three kinds of word have vacuum value 0 and are never formed:

    * every word of an odd-length product: each rewrite step keeps the
      length or removes one annihilator-creator pair, so an odd word never
      reaches the empty word, the only one with a nonzero vacuum value;
    * words that open with a creator: <0| a^dag = 0, and no rewrite step
      moves an operator left of the leading creator;
    * words that close with an annihilator: a |0> = 0, and the trailing
      annihilator has no creator to its right to swap or contract with.

    So the first factor is expanded over its annihilation terms only and the
    last over its creation terms only.  The words left are a subsequence of
    the full expansion, in its order, with the same nonzero contributions.
    """
    if len(product) > _MAX_REWRITE_LENGTH:
        raise ValueError(f"product length {len(product)} exceeds "
                         f"{_MAX_REWRITE_LENGTH}; rewriting would blow up")
    factor_terms = []
    for field in product:
        terms = [((m, kind), c)
                 for kind, coeffs in ((_ANNIHILATE, field.ann), (_CREATE, field.cre))
                 for m, c in enumerate(coeffs.tolist()) if c]
        if not terms:
            return 0j
        factor_terms.append(terms)
    if len(factor_terms) % 2:
        return 0j
    if factor_terms:
        first, last = factor_terms[0], factor_terms[-1]
        factor_terms[0] = [(op, c) for op, c in first if op[1] == _ANNIHILATE]
        factor_terms[-1] = [(op, c) for op, c in last if op[1] == _CREATE]
    contributions = []
    for combo in cartesian(*factor_terms):
        scalar = _vacuum_moment_of_word(tuple(op for op, _ in combo))
        if scalar:
            contributions.append(scalar * math.prod(c for _, c in combo))
    return complex(fsum(t.real for t in contributions),
                   fsum(t.imag for t in contributions))


@dataclass(frozen=True)
class FockState:
    """Truncated number-basis state over the four source modes.

    amplitudes[n_ah, n_av, n_bh, n_bv] is the amplitude of the occupation
    vector; every axis runs 0..cutoff.  Both source forms have real
    amplitudes, and the analyzers mix the modes with real weights, so the
    array and every state derived from it are float64.
    """

    cutoff: int
    amplitudes: np.ndarray

    @property
    def norm(self) -> float:
        return math.sqrt(_norm_squared(self.amplitudes))


def _norm_squared(amplitudes: np.ndarray) -> float:
    # one pass of einsum's own sum-of-products loop over the real array; not
    # np.dot, np.vdot or np.linalg.norm, which call BLAS, and OpenBLAS splits
    # a dot product this long across threads that can take milliseconds to
    # wake on a busy host
    flat = amplitudes.ravel()
    return float(np.einsum("i,i->", flat, flat))


def build_source_state(chi1: float, n_max: int, form: str) -> FockState:
    """Number-basis source state of the cross-polarized pair squeezer.

    form "exact_product": the tensor product of the two two-mode squeezed
    vacua, amplitudes tanh(chi1)^(n+m)/cosh(chi1)^2 on occupations
    (n, m, m, n); norm < 1 only by the truncated geometric tail.

    form "number_polarization": the cross-term-free number-polarization
    approximation sum_n c_n (|n_h, n_v> + |n_v, n_h>) with geometric
    coefficients c_n proportional to tanh(chi1)^n, the n = 0 ket counted
    once, rescaled to unit norm.  It matches exact_product rates to fourth
    order in chi1.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if chi1 < 0:
        raise ValueError(f"chi1 must be nonnegative, got {chi1}")
    dim = n_max + 1
    amp = np.zeros((dim, dim, dim, dim))
    th, ch = math.tanh(chi1), math.cosh(chi1)
    k = np.arange(dim)
    if form == "exact_product":
        n, m = k[:, None], k[None, :]
        amp[n, m, m, n] = th ** (n + m) / ch ** 2
    elif form == "number_polarization":
        prefactor = 1.0 / (math.sqrt(2.0) * ch)
        amp[0, 0, 0, 0] = prefactor
        n = k[1:]
        c = prefactor * th ** n
        amp[n, 0, 0, n] = c
        amp[0, n, n, 0] = c
        amp /= math.sqrt(_norm_squared(amp))
    else:
        raise ValueError(f"unknown form {form!r}; "
                         "expected 'exact_product' or 'number_polarization'")
    return FockState(cutoff=n_max, amplitudes=amp)


def _annihilate(amplitudes: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    # out[..., n, ...] = sqrt(n + 1) amplitudes[..., n + 1, ...] along axis;
    # out must not share memory with amplitudes
    dim = amplitudes.shape[axis]
    lead = (slice(None),) * axis
    factors = np.sqrt(np.arange(1, dim, dtype=float))
    out[lead + (-1,)] = 0.0
    np.multiply(amplitudes[lead + (slice(1, None),)],
                factors.reshape((-1,) + (1,) * (amplitudes.ndim - axis - 1)),
                out=out[lead + (slice(None, -1),)])
    return out


def _check_boundary(state: FockState) -> None:
    amp = state.amplitudes
    worst = max(float(np.max(np.abs(np.take(amp, -1, axis=axis))))
                for axis in range(amp.ndim))
    if worst > _BOUNDARY_TOL:
        raise TruncationError(
            f"boundary amplitude {worst:g} exceeds {_BOUNDARY_TOL:g}; "
            "increase the cutoff")


def _analyzed(amplitudes: np.ndarray, theta: float, beam: str,
              out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    # beam "a" (axes 0, 1): cos h + sin v; beam "b" (axes 2, 3): cos h - sin v.
    # Written into out, with scratch as the v term's buffer; neither may share
    # memory with amplitudes or with each other
    h_axis, sign = {"a": (0, 1.0), "b": (2, -1.0)}[beam]
    _annihilate(amplitudes, h_axis, out)
    out *= math.cos(theta)
    v_term = _annihilate(amplitudes, h_axis + 1, scratch)
    v_term *= sign * math.sin(theta)
    out += v_term
    return out


def fock_coincidence_rate(state: FockState, theta_a: float, theta_b: float,
                          check_cutoff: bool = True) -> float:
    """Coincidence rate <E_A+ E_B+ E_B E_A> on the truncated source state.

    Exact for occupations below the cutoff; raises TruncationError when the
    boundary of the truncated basis carries non-negligible amplitude.  Pass
    check_cutoff=False to evaluate a deliberately truncated state (for
    example the bare two-photon approximation) as-is.
    """
    if check_cutoff:
        _check_boundary(state)
    # one allocation per rate for its three state-sized buffers: freed and
    # reallocated per operator, they cost a page fault per page on each call
    analyzed_b, reduced, scratch = np.empty((3,) + state.amplitudes.shape)
    _analyzed(state.amplitudes, theta_b, "b", analyzed_b, scratch)
    _analyzed(analyzed_b, theta_a, "a", reduced, scratch)
    return _norm_squared(reduced) / _norm_squared(state.amplitudes)


def fock_singles_rate(state: FockState, theta_a: float,
                      check_cutoff: bool = True) -> float:
    """Rate with the first beam analyzed and both second-beam polarizations counted."""
    if check_cutoff:
        _check_boundary(state)
    analyzed, scratch = np.empty((2,) + state.amplitudes.shape)  # see fock_coincidence_rate
    _analyzed(state.amplitudes, theta_a, "a", analyzed, scratch)
    total = sum(_norm_squared(_annihilate(analyzed, axis, scratch)) for axis in (2, 3))
    return total / _norm_squared(state.amplitudes)
