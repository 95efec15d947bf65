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
Parameters may be numpy arrays that broadcast together: one build covers
the whole grid, and every check applies to each of its points.  Gain and
efficiency meet only the output's weights, so every array of the build
carries the squeezers' batch shape; fields are combined by their
operators.  Circuit construction mutates its ModeRegistry and is
single-threaded; the returned fields are immutable and can be evaluated
concurrently.

The h and v chains of the network are identical, so a beam is one field
whose coefficient array holds the two polarization components on a batch
axis of length 2, shape (..., 2, 2, N_MODES), h first: a PolarizedBeam wraps
that field, from the vacuum inputs to the output.  Each component then
runs once per build for both chains, and a parameter gets a trailing unit
axis to broadcast over the polarization axis.  The arithmetic per
coefficient is that of one chain at a time.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .modes import (
    LinearField,
    ModeRegistry,
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


class PolarizedBeam:
    """One spatial beam of polarization components h and v: a field whose
    coefficient array holds them on axis -3, shape (..., 2, 2, N_MODES), h
    first, over their broadcast batch shape.  The components h and v are
    views of that array.  Immutable."""

    __slots__ = ("field",)
    field: LinearField

    def __init__(self, h: LinearField, v: LinearField) -> None:
        coeffs = np.stack(np.broadcast_arrays(h.coeffs, v.coeffs), axis=-3)
        object.__setattr__(self, "field", LinearField(coeffs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def h(self) -> LinearField:
        return LinearField(self.field.coeffs[..., 0, :, :])

    @property
    def v(self) -> LinearField:
        return LinearField(self.field.coeffs[..., 1, :, :])


def _beam(field: LinearField) -> PolarizedBeam:
    # the beam whose components a field already holds on axis -3, not a copy
    beam = object.__new__(PolarizedBeam)
    object.__setattr__(beam, "field", field)
    return beam


class SwapParams:
    """Full experiment configuration.

    chi1, chi2 -- conversion efficiencies of the source and teleporter squeezers
    gain       -- feedforward gain applied to both photocurrent quadratures
    eta        -- homodyne detection efficiency in [0, 1]

    Each may be a float or an array; arrays broadcast together into a grid
    of parameter points, and every point must be valid.  Immutable.
    """

    __slots__ = ("chi1", "chi2", "gain", "eta")
    chi1: ArrayLike
    chi2: ArrayLike
    gain: ArrayLike
    eta: ArrayLike

    def __init__(self, chi1: ArrayLike, chi2: ArrayLike, gain: ArrayLike,
                 eta: ArrayLike) -> None:
        _require_finite(chi1=chi1, chi2=chi2, gain=gain, eta=eta)
        _require_nonnegative(chi1=chi1, chi2=chi2, gain=gain)
        _require_unit_interval("eta", eta)
        for name, value in zip(self.__slots__, (chi1, chi2, gain, eta)):
            object.__setattr__(self, name, value)

    __setattr__ = PolarizedBeam.__setattr__


class SwapCircuitOutput(NamedTuple):
    """The source beam A, the teleported beam D' in weighted parts, and the
    mode registry.

    D' = beam_d0 + g sqrt(eta) X(1) + g sqrt(1-eta) X(0) exactly: the port
    part X(1) and the detector-loss part X(0) on the leading axis of the
    parts beam's coefficient array, and their weights g sqrt(eta) and
    g sqrt(1-eta) on that of weights.  The parts carry the squeezers' batch
    shape alone, and the weights that of gain and eta.  beam_d_prime is the
    one sum of the parts into D', formed on each access.
    """

    beam_a: PolarizedBeam
    beam_d0: PolarizedBeam
    parts: PolarizedBeam
    weights: np.ndarray
    registry: ModeRegistry

    @property
    def beam_d_prime(self) -> PolarizedBeam:
        port, loss = map(LinearField, self.parts.field.coeffs)
        weight_port, weight_loss = self.weights[..., None]
        return _beam(self.beam_d0.field + weight_port * port + weight_loss * loss)


def _require_finite(**values: ArrayLike) -> None:
    for name, value in values.items():
        finite = np.isfinite(value)
        if not finite.all():
            raise ValueError(f"{name} must be finite, got {np.asarray(value)[~finite][0]}")


def _require_nonnegative(**values: ArrayLike) -> None:
    for name, value in values.items():
        negative = np.less(value, 0)
        if negative.any():
            raise ValueError(f"{name} must be nonnegative, got {np.asarray(value)[negative][0]}")


def _require_unit_interval(name: str, value: ArrayLike) -> None:
    inside = np.greater_equal(value, 0.0) & np.less_equal(value, 1.0)  # nan fails
    if not inside.all():
        raise ValueError(f"{name} must lie in [0, 1], got {np.asarray(value)[~inside][0]}")


def _off_by(value: np.ndarray, *fields: LinearField) -> bool:
    # True if any batch element of value exceeds its tolerance.  A commutator
    # sums products of coefficients, cosh^2 - sinh^2 for a squeezed mode, so
    # its rounding error grows with sum |coeff|^2: each element's tolerance is
    # scaled by its own sum, by the geometric mean for a pair.  The scale is
    # at least 1, so it is only needed when the bare tolerance fails.  nan
    # fails every comparison and an overflowed scale is rejected, so a build
    # that leaves float range fails closed.
    if (value <= _CANONICAL_TOL).all():
        return False
    sizes = [(np.abs(f.ann) ** 2 + np.abs(f.cre) ** 2).sum(axis=-1) for f in fields]
    scale = np.maximum(1.0, math.prod(sizes) ** (1 / len(sizes)))
    return not ((value <= _CANONICAL_TOL * scale) & np.isfinite(scale)).all()


def _require_canonical(*fields: LinearField) -> None:
    # every [F_i, F_j+] and [F_i, F_j] from one einsum over the inputs'
    # coefficient arrays stacked on axis -2, with rows[..., s, i, :] the ann
    # (s = 0) or cre (s = 1) row of input i:
    # [F_i, F_j+] = sum a_i conj(a_j) - c_i conj(c_j) and
    # [F_i, F_j] = sum a_i c_j - c_i a_j.  Checked in the order of a loop
    # over the inputs, each input before the pairs it opens
    k = len(fields)
    rows = np.stack(np.broadcast_arrays(*(f.coeffs for f in fields)), axis=-2)
    duals = np.concatenate([rows.conj(), rows[..., ::-1, :, :]], axis=-2)
    duals[..., 1, :, :] *= -1  # the cre rows enter with a minus sign
    off = np.abs(np.einsum("...sim,...sjm->...ij", rows, duals) - np.eye(k, 2 * k))
    if (off <= _CANONICAL_TOL).all():
        return
    for i, f in enumerate(fields):
        if _off_by(off[..., i, i], f):
            raise ValueError(f"input {i} is not a canonical mode ([F, F+] != 1)")
        for j in range(i + 1, k):
            if _off_by(off[..., i, j], f, fields[j]):
                raise ValueError("inputs are not independent modes ([F, G+] != 0)")
            if _off_by(off[..., i, k + j], f, fields[j]):
                raise ValueError("inputs are not independent modes ([F, G] != 0)")


def two_mode_squeezer(in1: LinearField, in2: LinearField,
                      chi: ArrayLike) -> tuple[LinearField, LinearField]:
    """Nondegenerate parametric amplifier on a pair of independent modes.

    out1 = in1 cosh(chi) + in2^dag sinh(chi)
    out2 = in2 cosh(chi) + in1^dag sinh(chi)

    Both outputs are canonical for any chi (cosh^2 - sinh^2 = 1).  Fields
    with batch axes squeeze each element with its counterpart, so stacked
    inputs squeeze several pairs at once.  chi must be finite.
    """
    _require_finite(chi=chi)
    _require_canonical(in1, in2)
    ch, sh = np.cosh(chi), np.sinh(chi)
    out1 = ch * in1 + sh * in2.adjoint()
    out2 = ch * in2 + sh * in1.adjoint()
    return out1, out2


def opo_type2(registry: ModeRegistry, chi: ArrayLike,
              label: str = "opo") -> tuple[PolarizedBeam, PolarizedBeam]:
    """Type-II parametric oscillator: two beams with cross-polarized squeezing.

    Allocates four vacuum inputs, a0_h, a0_v, b0_h and b0_v in that order,
    and squeezes the (a_h, b_v) and (a_v, b_h) pairs, so photons arrive in
    orthogonally polarized pairs, one per beam.  Both pairs go through one
    two_mode_squeezer call: the inputs a0 = (a0_h, a0_v) and (b0_v, b0_h)
    are stacked on the polarization axis, and chi gets a trailing unit axis
    to broadcast over it.  The beams carry the batch shape of chi.
    """
    a0_h, a0_v, b0_h, b0_v = (registry.new_mode(f"{label}.{name}")
                              for name in ("a0_h", "a0_v", "b0_h", "b0_v"))
    # row p of a0 is squeezed with row p of (b0_v, b0_h)
    a, b_vh = two_mode_squeezer(vacuum_field([a0_h, a0_v]), vacuum_field([b0_v, b0_h]),
                                np.asarray(chi)[..., None])
    return _beam(a), halfwave_swap(_beam(b_vh))


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


def homodyne_currents(b: PolarizedBeam, c: PolarizedBeam, eta: ArrayLike,
                      registry: ModeRegistry,
                      label: str = "homodyne") -> tuple[LinearField, LinearField]:
    """Dual homodyne measurements of a 50:50 mix of two beams, per polarization.

    Each polarization component of b is mixed with the same component of c.
    The two splitter ports go to an amplitude (X+) and a phase (X-)
    detector.  Detection loss admixes an independent fresh vacuum mode per
    detector, entering only through that detector's own quadrature:

        x_pm = sqrt(1-eta) X_pm(loss) + sqrt(eta) X_pm(port)

    The four loss modes are allocated as {label}_h.loss_plus,
    {label}_h.loss_minus, {label}_v.loss_plus and {label}_v.loss_minus, in
    that order.  eta gets a trailing unit axis and broadcasts against the
    batch axes before the polarization axis: at the build's eta = (1, 0)
    the currents carry the squeezers' shape.  Returns (x_plus, x_minus),
    each a field with the h and v photocurrents on axis -3, as a beam's.
    Both photocurrents are Hermitian and commute with each other for any
    eta.
    """
    _require_unit_interval("eta", eta)
    port_plus, port_minus = beamsplitter_5050(b.field, c.field)
    modes = [registry.new_mode(f"{label}_{pol}.loss_{quadrature}")
             for pol in ("h", "v") for quadrature in ("plus", "minus")]
    loss_plus, loss_minus = vacuum_field(modes[0::2]), vacuum_field(modes[1::2])
    eta = np.asarray(eta)[..., None]
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
    coefficient array in one multiply and one add.  The gain broadcasts
    against the fields' batch axes, the polarization axis of stacked
    fields included.
    """
    return d + gain * _unit_displacement(x_plus, x_minus)


def _unit_displacement(x_plus: LinearField, x_minus: LinearField) -> LinearField:
    # X of feedforward_displace, from two Hermitian photocurrents
    for name, x in (("x_plus", x_plus), ("x_minus", x_minus)):
        if _off_by(np.abs(x.ann - x.cre.conj()).max(axis=-1), x):
            raise ValueError(f"{name} is not Hermitian")
    r = 1.0 / math.sqrt(2.0)
    return -r * x_plus + (r * MINUS_GAIN_PHASE) * x_minus


def halfwave_swap(beam: PolarizedBeam) -> PolarizedBeam:
    """Half-wave plate: exchanges the polarization labels of a beam (a view)."""
    return _beam(LinearField(beam.field.coeffs[..., ::-1, :, :]))


def build_swap_circuit(params: SwapParams) -> SwapCircuitOutput:
    """Assemble the full network and return beams A and D' over 12 vacuum inputs.

    Array parameters give one build for their whole broadcast grid, and A
    carries the shape of chi1 alone.  D' = D'(0) + gain X is affine in the
    gain (see feedforward_displace), and the output holds D' in its parts
    (see SwapCircuitOutput): the photocurrents, affine in (sqrt(eta),
    sqrt(1-eta)), are formed once at eta = 1 and 0 on a leading axis, so
    gain and eta meet only the weights, and every array of the build, its
    fields combined by their operators, carries the squeezers' shape.

    At eta = 1 each D' component reduces (up to a global phase) to

        gain * B_pol + (gain cosh(chi2) - sinh(chi2)) C0^dag
                     + (gain sinh(chi2) - cosh(chi2)) D0,

    so the teleported-beam content of B carries net amplitude gain*sqrt(eta)
    and the choice gain = tanh(chi2) cancels the photon-creating term.
    """
    registry = ModeRegistry()
    beam_a, beam_b = opo_type2(registry, params.chi1, label="opo1")
    beam_c, beam_d = opo_type2(registry, params.chi2, label="opo2")
    # the port and loss parts at eta = 1 and 0, on a leading axis before the squeezers'
    etas = np.reshape([1.0, 0.0], (2,) + (1,) * np.broadcast(params.chi1, params.chi2).ndim)
    gain, eta = np.asarray(params.gain), np.asarray(params.eta)
    weights = np.array([gain * np.sqrt(eta), gain * np.sqrt(1.0 - eta)])
    x = _unit_displacement(*homodyne_currents(beam_b, beam_c, etas, registry))
    # h-polarized photocurrents modulate D_v and vice versa, so after the
    # half-wave plate D'(0) is D swapped and X keeps its (h, v) rows
    return SwapCircuitOutput(
        beam_a=beam_a, beam_d0=halfwave_swap(beam_d), parts=_beam(x),
        weights=weights, registry=registry)


def single_mode_teleporter(a_in: LinearField, chi: ArrayLike, gain: ArrayLike,
                           registry: ModeRegistry) -> LinearField:
    """Closed-form action of the teleporter on one canonical input mode.

    Returns gain a_in + (cosh chi - gain sinh chi) B0
                      - (gain cosh chi - sinh chi) A0^dag
    with fresh vacuum modes A0, B0.  At gain = tanh(chi) the creation term
    vanishes and the output is a pure attenuation,
    tanh(chi) a_in + sqrt(1 - tanh^2 chi) B0.  chi and gain must be finite;
    arrays of them broadcast against each other and a_in's batch shape.
    """
    _require_finite(chi=chi, gain=gain)
    _require_canonical(a_in)
    _require_nonnegative(chi=chi, gain=gain)
    ch, sh = np.cosh(chi), np.sinh(chi)
    b0 = vacuum_field(registry.new_mode("teleporter.b0"))
    a0 = vacuum_field(registry.new_mode("teleporter.a0"))
    return gain * a_in + (ch - gain * sh) * b0 - (gain * ch - sh) * a0.adjoint()
