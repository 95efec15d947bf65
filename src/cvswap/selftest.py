"""Deterministic invariant suite backing the CLI selftest command.

Each check returns None on success or a one-line failure detail; a check
that raises fails with its exception's type and message.  The suite
covers the algebra/oracle equivalences and the physicality invariants of the
circuit; it is the first thing to run after any change to the feedforward
phase conventions or the component algebra.
"""

from __future__ import annotations

import math
import random
from typing import Callable, TextIO

import numpy as np

from .circuit import (
    PolarizedBeam,
    SwapParams,
    build_swap_circuit,
    homodyne_currents,
    opo_type2,
    two_mode_squeezer,
)
from .metrics import OPTIMAL_ANGLES, analyzer, ch_s, coincidence_rate, optimal_gain
from .modes import (
    N_MODES,
    LinearField,
    ModeRegistry,
    commutator,
    vacuum_expectation,
    vacuum_field,
    wick_matchings,
)
from .oracle import build_source_state, fock_coincidence_rate, normal_order_expectation

__all__ = ["run_selftest", "CHECKS"]

_TOL = 1e-12
_FIELD_TERMS = 3  # the most terms of a random_field


def _beam_commutators(beam: PolarizedBeam) -> np.ndarray:
    h, v = beam.h, beam.v  # each access makes a view
    return np.maximum.reduce([np.abs(commutator(h, h.adjoint()) - 1),
                              np.abs(commutator(v, v.adjoint()) - 1),
                              np.abs(commutator(h, v.adjoint()))])


def _first_above(values: np.ndarray, tol: float) -> tuple[int, ...] | None:
    # index of the first element above tol; nan counts as above
    bad = ~(values <= tol)
    if not np.any(bad):
        return None
    return np.unravel_index(np.argmax(bad), bad.shape)


def check_canonical_commutators() -> str | None:
    """[F, F+] = 1 and cross-commutators 0 for every beam the circuit emits.

    One batched build covers the whole (chi2, gain, eta) grid.
    """
    chis = np.array([0.0, 0.1, 0.34, 0.8, 2.3])
    reg = ModeRegistry()
    m1 = vacuum_field(reg.new_mode("m1"))
    m2 = vacuum_field(reg.new_mode("m2"))
    for f in two_mode_squeezer(m1, m2, chis):
        bad = _first_above(np.abs(commutator(f, f.adjoint()) - 1), _TOL)
        if bad is not None:
            return f"squeezer output not canonical at chi={chis[bad]}"
    gains = np.array([[0.0, 0.3, math.tanh(chi2), 1.0, 2.0] for chi2 in chis.tolist()])
    etas = np.array([0.5, 0.83, 0.9, 1.0])
    out = build_swap_circuit(SwapParams(0.1, chis[:, None, None], gains[:, :, None], etas))
    worst = np.maximum(_beam_commutators(out.beam_a), _beam_commutators(out.beam_d_prime))
    bad = _first_above(worst, _TOL)
    if bad is not None:
        i, j, k = bad
        return (f"beam commutator off by {worst[bad]:.3e} at "
                f"chi2={chis[i]}, gain={gains[i, j]:.4f}, eta={etas[k]}")
    return None


def check_homodyne_currents_commute() -> str | None:
    """The two photocurrent quadratures commute exactly for any efficiency,
    in each polarization."""
    etas = np.array([0.0, 0.5, 0.83, 1.0])
    reg = ModeRegistry()
    _, b = opo_type2(reg, 0.3, label="src")
    c, _ = opo_type2(reg, 0.5, label="tele")
    x_plus, x_minus = homodyne_currents(b, c, etas, reg)
    value = np.abs(commutator(x_plus, x_minus))  # (eta, polarization)
    bad = _first_above(value, _TOL)
    if bad is not None:
        return f"[x+, x-] = {value[bad]:.3e} at eta={etas[bad[0]]}, {'hv'[bad[1]]} pair"
    return None


def check_pairing_count() -> str | None:
    """The Wick enumerator visits exactly (2k-1)!! matchings."""
    double_factorial = 1
    for k in range(1, 5):
        double_factorial *= 2 * k - 1
        visited = sum(1 for _ in wick_matchings(2 * k))
        if visited != double_factorial:
            return f"{visited} matchings visited for 2k={2 * k}, expected {double_factorial}"
    return None


def random_field(rng: random.Random, modes: list[int]) -> LinearField:
    """A sparse random field with coefficient magnitudes below sqrt(2)."""
    coeffs = np.zeros((2, N_MODES), dtype=complex)
    for _ in range(rng.randint(1, _FIELD_TERMS)):
        m = rng.choice(modes)
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        # row 0 holds the annihilation coefficients, row 1 the creation ones
        coeffs[int(rng.random() >= 0.5), m] += c
    return LinearField(coeffs)


def random_product(rng: random.Random, modes: list[int],
                   max_degree: int = 8) -> list[LinearField]:
    return [random_field(rng, modes) for _ in range(rng.randint(2, max_degree))]


def max_oracle_deviation(n_products: int, seed: int) -> float:
    """Largest |Wick - rewriter| over seeded random products of degree <= 8."""
    rng = random.Random(seed)
    modes = list(range(6))
    worst = 0.0
    for _ in range(n_products):
        product = random_product(rng, modes)
        worst = max(worst, abs(vacuum_expectation(product)
                               - normal_order_expectation(product)))
    return worst


def check_dual_oracle_moments() -> str | None:
    """Wick pairing sum equals the normal-ordering rewriter on random products."""
    worst = max_oracle_deviation(40, 20260809)
    if worst > _TOL:
        return f"max |Wick - rewriter| = {worst:.3e} exceeds {_TOL:g}"
    return None


def check_wick_vs_fock_rates() -> str | None:
    """Engine coincidence rates match the truncated number-basis simulator."""
    chi1 = 0.1
    reg = ModeRegistry()
    beam_a, beam_b = opo_type2(reg, chi1, label="src")
    pairs = ((math.pi / 8, -math.pi / 4), (0.0, 0.7), (0.3, 0.0), (1.1, -1.3))
    focks = fock_coincidence_rate(build_source_state(chi1, 12, "exact_product"),
                                  *np.array(pairs).T).tolist()
    for (theta_a, theta_b), fock in zip(pairs, focks):
        wick = coincidence_rate(analyzer(beam_a, theta_a, "a"),
                                analyzer(beam_b, theta_b, "d"))
        # relative to the larger magnitude, so a zero or negative engine
        # rate against a nonzero Fock rate fails
        if not abs(wick - fock) <= 1e-6 * max(abs(wick), abs(fock)):
            return (f"rates {wick:.6e} (Wick) and {fock:.6e} (Fock) differ by more "
                    f"than 1e-6 relative at angles ({theta_a:.4f}, {theta_b:.4f})")
    return None


def check_optimal_gain_attenuation() -> str | None:
    """At gain = tanh(chi2), eta = 1 the teleported beam is pure attenuation.

    Each output component must carry only the source-beam content (net
    amplitude tanh chi2) plus one fresh vacuum mode of weight sech chi2; the
    photon-creating coefficient must vanish.  A wrong feedforward quadrature
    phase feeds the measured beam in as creation operators and fails here
    even though all commutators stay canonical.
    """
    chis = np.array([0.1, 0.34657359, 0.8])
    gains = optimal_gain(chis, 1.0)
    out = build_swap_circuit(SwapParams(0.1, chis, gains, 1.0))
    beam_d_prime = out.beam_d_prime  # folded on each access
    _, beam_b = opo_type2(ModeRegistry(), 0.1, label="src")
    for pol in ("h", "v"):
        field, base = getattr(beam_d_prime, pol), getattr(beam_b, pol)
        ann, cre, base_ann, base_cre = field.ann, field.cre, base.ann, base.cre
        source = (base_ann != 0) | (base_cre != 0)
        fresh_weight = np.sqrt((np.abs(ann[:, ~source]) ** 2).sum(axis=-1))
        for label, deviation, tol in (
            ("source amplitude",
             np.abs(np.abs(ann[:, source]) - gains[:, None] * np.abs(base_ann[source])),
             _TOL),
            ("fresh-vacuum weight vs sech(chi2)",
             np.abs(fresh_weight - 1.0 / np.cosh(chis)), 1e-9),
            ("photon-creating coefficient",
             np.abs(np.abs(cre) - gains[:, None] * np.abs(base_cre)), _TOL),
        ):
            bad = _first_above(deviation, tol)
            if bad is not None:
                return f"{pol}: {label} off by {deviation[bad]:.3e} at chi2={chis[bad[0]]}"
    return None


def check_teleporter_transparency() -> str | None:
    """S is unchanged by teleportation at the optimal gain (eta = 1)."""
    chi1 = 0.1
    reg = ModeRegistry()
    baseline = ch_s(opo_type2(reg, chi1, label="src"), OPTIMAL_ANGLES).s
    chis = np.array([0.05, 0.34657359, 0.8])
    out = build_swap_circuit(SwapParams(chi1, chis, optimal_gain(chis, 1.0), 1.0))
    change = ch_s(out, OPTIMAL_ANGLES).s - baseline
    bad = _first_above(np.abs(change), 1e-9)
    if bad is not None:
        return f"S changed by {change[bad]:.3e} at chi2={chis[bad]}"
    return None


CHECKS: list[tuple[str, Callable[[], str | None]]] = [
    ("canonical-commutators", check_canonical_commutators),
    ("homodyne-currents-commute", check_homodyne_currents_commute),
    ("pairing-count", check_pairing_count),
    ("dual-oracle-moments", check_dual_oracle_moments),
    ("wick-vs-fock-rates", check_wick_vs_fock_rates),
    ("optimal-gain-attenuation", check_optimal_gain_attenuation),
    ("teleporter-transparency", check_teleporter_transparency),
]


def run_selftest(stream: TextIO) -> int:
    """Run every check, print one line per check, return 0 (pass) or 3."""
    failures = []
    for name, check in CHECKS:
        try:
            detail = check()
        except Exception as exc:  # a check that raises fails; the rest still run
            detail = f"{type(exc).__name__}: {exc}".replace("\n", " ")
        if detail is None:
            stream.write(f"ok   {name}\n")
        else:
            failures.append((name, detail))
            stream.write(f"FAIL {name}: {detail}\n")
    if failures:
        stream.write(f"selftest: {len(failures)} of {len(CHECKS)} checks failed; "
                     f"first failure: {failures[0][0]}\n")
        return 3
    stream.write(f"selftest: all {len(CHECKS)} checks passed\n")
    return 0
