"""Shared construction helpers for the test suite."""

from __future__ import annotations

from itertools import product as cartesian
from math import fsum
from pathlib import Path

import numpy as np

import cvswap.cli
from cvswap import (
    N_MODES,
    LinearField,
    ModeRegistry,
    PolarizedBeam,
    SwapParams,
    beamsplitter_5050,
    build_swap_circuit,
    ch_s,
    feedforward_displace,
    opo_type2,
    quadrature_minus,
    quadrature_plus,
    two_mode_squeezer,
    vacuum_field,
)
from cvswap.metrics import OPTIMAL_ANGLES, analyzer, coincidence_rate, singles_rate
from cvswap.modes import pair_contraction
from cvswap.oracle import _ANNIHILATE, _CREATE, _vacuum_moment_of_word
from cvswap.selftest import max_oracle_deviation, random_field, random_product  # noqa: F401

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden"

# each golden sweep: its command, its benchmark workload (which names its
# stdout file) and its CSV
GOLDEN_SWEEPS = [
    ("fig3", "fig3-angle", "fig3.csv"),
    ("fig4", "fig4-gain", "fig4.csv"),
    ("threshold-scan", "threshold-eta", "threshold_scan.csv"),
]


def checked_stdout(stdout: str) -> str:
    """A sweep's stdout without its ``wrote <path>`` lines, which name the
    output directory."""
    return "".join(line for line in stdout.splitlines(keepends=True)
                   if not line.startswith("wrote "))


def cli_ch_s_call(monkeypatch, argv: list[str]) -> tuple:
    """The (beams, angles, result) of the one ch_s call that cvswap.cli.main
    makes on argv, which must exit 0."""
    calls = []

    def recording(beams, angles):
        calls.append((beams, angles, ch_s(beams, angles)))
        return calls[-1][2]

    monkeypatch.setattr(cvswap.cli, "ch_s", recording)
    assert cvswap.cli.main(argv) == 0
    [call] = calls
    return call


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


def per_component_build(params: SwapParams) -> tuple[ModeRegistry, PolarizedBeam,
                                                      PolarizedBeam, PolarizedBeam]:
    """The registry and beams A, D'(0) and X of build_swap_circuit, composed
    one polarization component at a time, h then v.

    The reference for the build that carries both components in one field:
    each component gets the same arithmetic, the modes the same ids, and X
    comes from feedforward_displace at unit gain on a zero field.
    """
    registry = ModeRegistry()

    def source(chi, label):
        a0_h, a0_v, b0_h, b0_v = (vacuum_field(registry.new_mode(f"{label}.{name}"))
                                  for name in ("a0_h", "a0_v", "b0_h", "b0_v"))
        a_h, b_v = two_mode_squeezer(a0_h, b0_v, chi)
        a_v, b_h = two_mode_squeezer(a0_v, b0_h, chi)
        return PolarizedBeam(a_h, a_v), PolarizedBeam(b_h, b_v)

    def unit_displacement(b, c, pol):
        port_plus, port_minus = beamsplitter_5050(b, c)
        loss_plus = vacuum_field(registry.new_mode(f"homodyne_{pol}.loss_plus"))
        loss_minus = vacuum_field(registry.new_mode(f"homodyne_{pol}.loss_minus"))
        root_eta, root_loss = np.sqrt(params.eta), np.sqrt(1.0 - params.eta)
        x_plus = root_loss * quadrature_plus(loss_plus) + root_eta * quadrature_plus(port_plus)
        x_minus = (root_loss * quadrature_minus(loss_minus)
                   + root_eta * quadrature_minus(port_minus))
        zero = LinearField(np.zeros((2, N_MODES), dtype=complex))
        return feedforward_displace(zero, x_plus, x_minus, 1.0)

    beam_a, beam_b = source(params.chi1, "opo1")
    beam_c, beam_d = source(params.chi2, "opo2")
    x_h = unit_displacement(beam_b.h, beam_c.h, "h")
    x_v = unit_displacement(beam_b.v, beam_c.v, "v")
    # the h currents displace D_v, and the half-wave plate swaps D's labels
    return registry, beam_a, PolarizedBeam(beam_d.v, beam_d.h), PolarizedBeam(x_h, x_v)


def per_component_d_prime(params: SwapParams) -> tuple[PolarizedBeam, PolarizedBeam]:
    """Beams A and D' = D'(0) + gain X(eta) of per_component_build: the
    teleported beam at each eta, formed without build_swap_circuit's parts."""
    _, beam_a, beam_d0, x = per_component_build(params)
    return beam_a, PolarizedBeam(*(getattr(beam_d0, pol) + params.gain * getattr(x, pol)
                                   for pol in ("h", "v")))


def nonzero_parts(out) -> int:
    """The parts of a circuit output whose weight is nonzero somewhere."""
    return sum(bool(np.any(weight)) for weight in out.weights)


def assert_matches_per_component_build(params: SwapParams) -> None:
    """build_swap_circuit gives the bits, shapes and mode ids of
    per_component_build for A, D'(0) and the port and loss parts X(1) and
    X(0), whose coefficient arrays carry the squeezers' batch shape alone,
    and the weights (g sqrt(eta), g sqrt(1-eta)) exactly."""
    out = build_swap_circuit(params)
    squeezers = np.broadcast_shapes(np.shape(params.chi1), np.shape(params.chi2))
    assert out.parts.field.ann.shape == (2,) + squeezers + (2, len(out.registry))
    gain, eta = np.asarray(params.gain), np.asarray(params.eta)
    weights = [gain * np.sqrt(eta), gain * np.sqrt(1.0 - eta)]
    assert out.weights.shape == (2,) + np.broadcast_shapes(gain.shape, eta.shape)
    assert np.array_equal(out.weights, weights)
    for k, eta in enumerate([1.0, 0.0]):
        registry, *reference = per_component_build(
            SwapParams(params.chi1, params.chi2, params.gain, eta))
        assert out.registry.names == registry.names
        x = PolarizedBeam(*(LinearField(f.coeffs[k]) for f in (out.parts.h, out.parts.v)))
        for beam, expected in zip((out.beam_a, out.beam_d0, x), reference):
            for pol in ("h", "v"):
                got, want = getattr(beam, pol).coeffs, getattr(expected, pol).coeffs
                assert got.shape == want.shape and np.array_equal(got, want)


def _six_rates(beam_1, beam_2, angles, rate, singles):
    # rate(e1, e2) of each analyzed pair and singles(e, beam) of each singles
    # rate, keyed as CHResult's rates
    e_a, e_a_prime = (analyzer(beam_1, theta, "a")
                      for theta in (angles.theta_a, angles.theta_a_prime))
    e_b, e_b_prime = (analyzer(beam_2, theta, "d")
                      for theta in (angles.theta_b, angles.theta_b_prime))
    return {"r_ab": rate(e_a, e_b), "r_ab_prime": rate(e_a, e_b_prime),
            "r_a_prime_b": rate(e_a_prime, e_b), "r_a_prime_b_prime": rate(e_a_prime, e_b_prime),
            "r_singles_a": singles(e_a_prime, beam_2), "r_singles_b": singles(e_b, beam_1)}


def wick_rates(beam_1, beam_2, angles):
    """The six rates of ch_s((beam_1, beam_2), angles) for one beam pair at
    scalar angles, from the general Wick sum: coincidence_rate and
    singles_rate on the analyzer fields."""
    return _six_rates(beam_1, beam_2, angles, coincidence_rate, singles_rate)


def wick_term_magnitudes(beam_1, beam_2, angles):
    """Per rate of ch_s((beam_1, beam_2), angles), the summed magnitudes of
    its three Wick terms |<e1 e2>|^2, |sum_m conj(cre e1) cre e2|^2 and
    <e2+ e2><e1+ e1>, elementwise over the batch."""
    def terms(e1, e2):
        return (np.abs(pair_contraction(e1, e2)) ** 2
                + np.abs(pair_contraction(e1.adjoint(), e2)) ** 2
                + np.abs(pair_contraction(e2.adjoint(), e2) * pair_contraction(e1.adjoint(), e1)))

    return _six_rates(beam_1, beam_2, angles, terms,
                      lambda e, beam: terms(e, beam.h) + terms(e, beam.v))


def assert_cells_match_wick(call, cells):
    """The six batched rates at each cell equal the general Wick sum on the
    analyzer fields within 1e-12 relative.

    The per-point checks compare with ch_s on one point, the same code;
    coincidence_rate and singles_rate evaluate the general Wick sum instead.
    """
    beams, angles, result = call
    shape = result.s.shape
    for index in cells:
        cell = [PolarizedBeam(*map(LinearField, np.broadcast_to(
            beam.field.coeffs, shape + (2, 2, N_MODES))[index])) for beam in beams]
        wick = wick_rates(*cell, angles._make(float(np.broadcast_to(theta, shape)[index])
                                              for theta in angles))
        for name, reference in wick.items():
            value = np.broadcast_to(getattr(result, name), shape)[index]
            assert abs(value - reference) <= 1e-12 * abs(reference), (name, index)
