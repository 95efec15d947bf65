"""Heisenberg-picture construction of the entanglement-swapping optical network.

The network: a type-II parametric source emits a polarization-entangled beam
pair (A, B).  Beam B is teleported polarization component by polarization
component: each component is mixed with the matching component of a second
type-II squeezer's output C on a 50:50 beamsplitter, both quadratures of the
mixed light are measured by (possibly lossy) dual homodyne detectors, and the
photocurrents are fed forward with gain onto the second squeezer's other
output D.  A half-wave plate finally swaps the polarization labels, yielding
the teleported beam D'.

Every component maps canonical annihilation operators to canonical
annihilation operators, which the constructors verify via commutators.
Parameters may be numpy arrays that broadcast together: the fields then
carry the broadcast shape as batch axes, one build covers the whole grid,
and every check applies to each of its points.  Circuit construction
mutates its ModeRegistry and is single-threaded; the returned fields are
immutable and can be evaluated concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .modes import (
    LinearField,
    ModeRegistry,
    commutator,
    quadrature_minus,
    quadrature_plus,
    vacuum_field,
)

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

__all__ = [
    "PolarizedBeam",
    "SwapParams",
    "SwapCircuitOutput",
    "two_mode_squeezer",
    "opo_type2",
    "beamsplitter_5050",
    "attenuate",
    "homodyne_currents",
    "feedforward_displace",
    "halfwave_swap",
    "build_swap_circuit",
    "single_mode_teleporter",
]

_CANONICAL_TOL = 1e-9

# Phase of the minus-quadrature feedforward gain.  With lambda_plus = -gain,
# the choice +1j makes the measured beam's content enter the displaced output
# as an annihilation operator of net amplitude gain*sqrt(eta); the opposite
# sign feeds it in as a creation operator, which keeps every commutator
# canonical but spoils the teleporter's signal scaling.
MINUS_GAIN_PHASE = 1j


@dataclass(frozen=True)
class PolarizedBeam:
    """One spatial beam as a pair of polarization-component field operators."""

    h: LinearField
    v: LinearField


@dataclass(frozen=True)
class SwapParams:
    """Full experiment configuration.

    chi1, chi2 -- conversion efficiencies of the source and teleporter squeezers
    gain       -- feedforward gain applied to both photocurrent quadratures
    eta        -- homodyne detection efficiency in [0, 1]

    Each may be a float or an array; arrays broadcast together into a grid
    of parameter points, and every point must be valid.
    """

    chi1: ArrayLike
    chi2: ArrayLike
    gain: ArrayLike
    eta: ArrayLike

    def __post_init__(self) -> None:
        for name in ("chi1", "chi2", "gain", "eta"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if np.any(np.less(self.chi1, 0) | np.less(self.chi2, 0) | np.less(self.gain, 0)):
            raise ValueError("chi1, chi2 and gain must be nonnegative")
        _require_unit_interval("eta", self.eta)


@dataclass(frozen=True)
class SwapCircuitOutput:
    """The source beam A, the teleported beam D' in its gain-affine parts,
    and the mode registry.

    D' = beam_d0 + gain * beam_x exactly (see feedforward_displace):
    beam_d0 and beam_x carry the gain-free batch shape, and the gain may add
    batch axes of its own.  beam_d_prime forms D' from these parts, on each
    access.
    """

    beam_a: PolarizedBeam
    beam_d0: PolarizedBeam
    beam_x: PolarizedBeam
    gain: np.ndarray
    registry: ModeRegistry

    @property
    def beam_d_prime(self) -> PolarizedBeam:
        return PolarizedBeam(h=self.beam_d0.h + self.gain * self.beam_x.h,
                             v=self.beam_d0.v + self.gain * self.beam_x.v)


def _require_unit_interval(name: str, value: ArrayLike) -> None:
    if not np.all(np.greater_equal(value, 0.0) & np.less_equal(value, 1.0)):
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def _off_by(value: np.ndarray, *fields: LinearField) -> bool:
    # True if any batch element of value exceeds its tolerance.  A commutator
    # sums products of coefficients, cosh^2 - sinh^2 for a squeezed mode, so
    # its rounding error grows with sum |coeff|^2: each element's tolerance is
    # scaled by its own sum, by the geometric mean for a pair.  The scale is
    # at least 1, so it is only needed when the bare tolerance fails.  nan
    # fails every comparison and an overflowed scale is rejected, so a build
    # that leaves float range fails closed.
    if np.all(value <= _CANONICAL_TOL):
        return False
    sizes = [(np.abs(f.ann) ** 2 + np.abs(f.cre) ** 2).sum(axis=-1) for f in fields]
    scale = np.maximum(1.0, math.prod(sizes) ** (1 / len(sizes)))
    return not np.all((value <= _CANONICAL_TOL * scale) & np.isfinite(scale))


def _require_canonical(*fields: LinearField) -> None:
    for i, f in enumerate(fields):
        if _off_by(np.abs(commutator(f, f.adjoint()) - 1), f):
            raise ValueError(f"input {i} is not a canonical mode ([F, F+] != 1)")
        for g in fields[i + 1:]:
            if _off_by(np.abs(commutator(f, g.adjoint())), f, g):
                raise ValueError("inputs are not independent modes ([F, G+] != 0)")
            if _off_by(np.abs(commutator(f, g)), f, g):
                raise ValueError("inputs are not independent modes ([F, G] != 0)")


def two_mode_squeezer(in1: LinearField, in2: LinearField,
                      chi: ArrayLike) -> tuple[LinearField, LinearField]:
    """Nondegenerate parametric amplifier on a pair of independent modes.

    out1 = in1 cosh(chi) + in2^dag sinh(chi)
    out2 = in2 cosh(chi) + in1^dag sinh(chi)

    Both outputs are canonical for any chi (cosh^2 - sinh^2 = 1).
    """
    _require_canonical(in1, in2)
    ch, sh = np.cosh(chi), np.sinh(chi)
    out1 = ch * in1 + sh * in2.adjoint()
    out2 = ch * in2 + sh * in1.adjoint()
    return out1, out2


def opo_type2(registry: ModeRegistry, chi: ArrayLike,
              label: str = "opo") -> tuple[PolarizedBeam, PolarizedBeam]:
    """Type-II parametric oscillator: two beams with cross-polarized squeezing.

    Allocates four vacuum inputs and squeezes the (a_h, b_v) and (a_v, b_h)
    pairs, so photons arrive in orthogonally polarized pairs, one per beam.
    """
    a0h = vacuum_field(registry.new_mode(f"{label}.a0_h"))
    a0v = vacuum_field(registry.new_mode(f"{label}.a0_v"))
    b0h = vacuum_field(registry.new_mode(f"{label}.b0_h"))
    b0v = vacuum_field(registry.new_mode(f"{label}.b0_v"))
    a_h, b_v = two_mode_squeezer(a0h, b0v, chi)
    a_v, b_h = two_mode_squeezer(a0v, b0h, chi)
    return PolarizedBeam(h=a_h, v=a_v), PolarizedBeam(h=b_h, v=b_v)


def beamsplitter_5050(f: LinearField, g: LinearField) -> tuple[LinearField, LinearField]:
    """Symmetric beamsplitter: returns ((F+G)/sqrt2, (F-G)/sqrt2)."""
    _require_canonical(f, g)
    r = 1.0 / math.sqrt(2.0)
    return r * (f + g), r * (f - g)


def attenuate(f: LinearField, transmissivity: ArrayLike, registry: ModeRegistry,
              name: str = "attenuator_vacuum") -> LinearField:
    """Mix a canonical field with a fresh vacuum mode on an unbalanced splitter.

    Returns sqrt(T) F + sqrt(1-T) v with a freshly allocated vacuum mode v.
    """
    _require_unit_interval("transmissivity", transmissivity)
    fresh = vacuum_field(registry.new_mode(name))
    return np.sqrt(transmissivity) * f + np.sqrt(1.0 - transmissivity) * fresh


def homodyne_currents(b_pol: LinearField, c_pol: LinearField, eta: ArrayLike,
                      registry: ModeRegistry,
                      label: str = "homodyne") -> tuple[LinearField, LinearField]:
    """Dual homodyne measurement of a 50:50 mix of two beam components.

    The two splitter ports go to an amplitude (X+) and a phase (X-) detector.
    Detection loss admixes an independent fresh vacuum mode per detector,
    entering only through that detector's own quadrature:

        x_pm = sqrt(1-eta) X_pm(loss) + sqrt(eta) X_pm(port)

    Both photocurrents are Hermitian and commute with each other for any eta.
    """
    _require_unit_interval("eta", eta)
    port_plus, port_minus = beamsplitter_5050(b_pol, c_pol)
    loss_plus = vacuum_field(registry.new_mode(f"{label}.loss_plus"))
    loss_minus = vacuum_field(registry.new_mode(f"{label}.loss_minus"))
    root_eta = np.sqrt(eta)
    root_loss = np.sqrt(1.0 - eta)
    x_plus = root_loss * quadrature_plus(loss_plus) + root_eta * quadrature_plus(port_plus)
    x_minus = root_loss * quadrature_minus(loss_minus) + root_eta * quadrature_minus(port_minus)
    return x_plus, x_minus


def feedforward_displace(d: LinearField, x_plus: LinearField, x_minus: LinearField,
                         gain: ArrayLike) -> LinearField:
    """Displace a beam component by the amplified photocurrents.

    Returns d + (lambda_plus x_plus + lambda_minus x_minus) / sqrt(2) with
    lambda_plus = -gain and lambda_minus = MINUS_GAIN_PHASE * gain, formed as

        D' = d + gain * X,   X = (-x_plus + MINUS_GAIN_PHASE x_minus) / sqrt(2).

    Both gains are one real factor times a fixed phase, so this is the same
    linear map, exactly affine in the gain; X does not depend on the gain
    and carries the gain-free batch shape, so a gain grid meets each
    coefficient array in one multiply and one add.
    """
    return d + gain * _unit_displacement(x_plus, x_minus)


def _unit_displacement(x_plus: LinearField, x_minus: LinearField) -> LinearField:
    # X of feedforward_displace, from two Hermitian photocurrents
    for name, x in (("x_plus", x_plus), ("x_minus", x_minus)):
        if _off_by(np.abs(x.ann - x.cre.conj()).max(axis=-1), x):
            raise ValueError(f"{name} is not Hermitian")
    r = 1.0 / math.sqrt(2.0)
    return (-r) * x_plus + (r * MINUS_GAIN_PHASE) * x_minus


def halfwave_swap(d_prime_h: LinearField, d_prime_v: LinearField) -> PolarizedBeam:
    """Half-wave plate: exchanges the polarization labels of a beam."""
    return PolarizedBeam(h=d_prime_v, v=d_prime_h)


def build_swap_circuit(params: SwapParams) -> SwapCircuitOutput:
    """Assemble the full network and return beams A and D' over 12 vacuum inputs.

    Array parameters give one build for their whole broadcast grid: each
    field's batch shape is that of the parameters it depends on, so A
    carries the shape of chi1 alone and D' the shape of all four.  D' is
    affine in the gain, D' = D'(0) + gain X (see feedforward_displace), and
    the output holds D'(0), X and the gain, not D' itself: D'(0) and X
    carry the gain-free shape, and whether the gain is folded into D'
    (beam_d_prime) or contracted against the two parts is left to ch_s.

    At eta = 1 each D' component reduces (up to a global phase) to

        gain * B_pol + (gain cosh(chi2) - sinh(chi2)) C0^dag
                     + (gain sinh(chi2) - cosh(chi2)) D0,

    so the teleported-beam content of B carries net amplitude gain*sqrt(eta)
    and the choice gain = tanh(chi2) cancels the photon-creating term.
    """
    registry = ModeRegistry()
    beam_a, beam_b = opo_type2(registry, params.chi1, label="opo1")
    beam_c, beam_d = opo_type2(registry, params.chi2, label="opo2")
    xh_plus, xh_minus = homodyne_currents(beam_b.h, beam_c.h, params.eta,
                                          registry, label="homodyne_h")
    xv_plus, xv_minus = homodyne_currents(beam_b.v, beam_c.v, params.eta,
                                          registry, label="homodyne_v")
    # h-polarized photocurrents modulate D_v and vice versa; the half-wave
    # plate swaps the labels of D'(0) and X alike
    return SwapCircuitOutput(
        beam_a=beam_a, beam_d0=halfwave_swap(beam_d.h, beam_d.v),
        beam_x=halfwave_swap(_unit_displacement(xv_plus, xv_minus),
                             _unit_displacement(xh_plus, xh_minus)),
        gain=np.asarray(params.gain), registry=registry)


def single_mode_teleporter(a_in: LinearField, chi: float, gain: float,
                           registry: ModeRegistry) -> LinearField:
    """Closed-form action of the teleporter on one canonical input mode.

    Returns gain a_in + (cosh chi - gain sinh chi) B0
                      - (gain cosh chi - sinh chi) A0^dag
    with fresh vacuum modes A0, B0.  At gain = tanh(chi) the creation term
    vanishes and the output is a pure attenuation,
    tanh(chi) a_in + sqrt(1 - tanh^2 chi) B0.
    """
    _require_canonical(a_in)
    if chi < 0 or gain < 0:
        raise ValueError("chi and gain must be nonnegative")
    ch, sh = math.cosh(chi), math.sinh(chi)
    b0 = vacuum_field(registry.new_mode("teleporter.b0"))
    a0 = vacuum_field(registry.new_mode("teleporter.a0"))
    return gain * a_in + (ch - gain * sh) * b0 - (gain * ch - sh) * a0.adjoint()
