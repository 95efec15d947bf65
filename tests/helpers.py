"""Shared construction helpers for the test suite."""

from __future__ import annotations

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
