"""Shared construction helpers for the test suite."""

from __future__ import annotations

from itertools import product as cartesian
from math import fsum

import numpy as np

from cvswap import (
    LinearField,
    ModeRegistry,
    PolarizedBeam,
    SwapParams,
    build_swap_circuit,
    ch_s,
    opo_type2,
)
from cvswap.metrics import OPTIMAL_ANGLES
from cvswap.oracle import _ANNIHILATE, _CREATE, _vacuum_moment_of_word
from cvswap.selftest import max_oracle_deviation, random_field, random_product  # noqa: F401


def source_beams(chi1: float) -> tuple[PolarizedBeam, PolarizedBeam]:
    """Fresh pair-source beams A, B on their own registry."""
    registry = ModeRegistry()
    return opo_type2(registry, chi1, label="opo1")


def baseline_s(chi1: float) -> float:
    """Engine CH ratio of the bare pair source at the maximizing angles."""
    return ch_s(source_beams(chi1), OPTIMAL_ANGLES).s


def teleported_s(chi1: float, chi2: float, gain: float, eta: float) -> float:
    out = build_swap_circuit(SwapParams(chi1, chi2, gain, eta))
    return ch_s(out, OPTIMAL_ANGLES).s


def support(field: LinearField) -> set[int]:
    """Modes with a nonzero coefficient in the field (in any batch element)."""
    nonzero = (field.ann != 0) | (field.cre != 0)
    return set(np.flatnonzero(nonzero.reshape(-1, nonzero.shape[-1]).any(axis=0)).tolist())


def is_hermitian(field: LinearField, tol: float = 1e-12) -> bool:
    """Every coefficient of F - F^dag is within tol of zero."""
    return bool(np.all(np.abs(field.ann - field.cre.conj()) <= tol))


def is_zero(field: LinearField) -> bool:
    return not np.any(field.ann) and not np.any(field.cre)


def unpruned_normal_order_expectation(product: list[LinearField]) -> complex:
    """Reference rewriter: expands every word of the product, prunes none.

    The full multilinear expansion that ``oracle.normal_order_expectation``
    prunes, word by word in the same order, so that the pruned version can
    be held to the same result with ``==``.
    """
    factor_terms = []
    for field in product:
        terms = [((int(m), kind), complex(coeffs[m]))
                 for kind, coeffs in ((_ANNIHILATE, field.ann), (_CREATE, field.cre))
                 for m in np.flatnonzero(coeffs)]
        if not terms:
            return 0j
        factor_terms.append(terms)
    contributions = []
    for combo in cartesian(*factor_terms):
        coefficient = 1.0 + 0j
        for _, c in combo:
            coefficient *= c
        word = tuple(op for op, _ in combo)
        scalar = _vacuum_moment_of_word(word)
        if scalar:
            contributions.append(scalar * coefficient)
    return complex(fsum(t.real for t in contributions),
                   fsum(t.imag for t in contributions))
