"""Coincidence rates, the Clauser-Horne ratio, and its closed-form limits.

The CH ratio of a beam pair is

    S = [R(ta, tb) - R(ta, tb') + R(ta', tb) + R(ta', tb')]
        / [R(ta', -) + R(-, tb)]

where R(ta, tb) is the photon coincidence rate between analyzer angle ta on
the first beam and tb on the second, and the denominator rates count both
polarizations on one side.  Local hidden-variable models require S <= 1; the
cross-polarized pair source reaches (1 + sqrt 2)/2 ~= 1.207 at analyzer
angles (pi/8, -pi/4, 3pi/8, 0).

Analyzer handedness: the two arms are measured with opposite angle sign,
E1(t) = cos(t) h + sin(t) v and E2(t) = cos(t) h - sin(t) v, which makes the
pair-source coincidence amplitude proportional to sin(ta - tb) and the angle
set above maximizing.  Measuring both arms with the same handedness flips the
amplitude to sin(ta + tb) and the same angle set would not maximize S.

Every CH ratio is assembled by one function, :func:`ch_s`.  It takes the
beams' fields with any batch axes, as one batched circuit build returns
them, and the analyzer angles as arrays that broadcast against them, so a
whole sweep is one numpy computation; :func:`maximize_s` calls it too.
A build returns the teleported beam as the two gain-free fields it is
affine in and the gain; :func:`ch_s` alone decides whether to fold the
gain into it or to contract the two fields, so a gain sweep's grid never
meets the mode axis.
Because each analyzer field is linear in (cos t, sin t), all two-point
contractions between the analyzed fields follow from 2x2 contraction
matrices between the beams' polarization components, and each rate
<e2+ e1+ e1 e2> is the closed three-pairing Isserlis (Wick) sum of them.
:func:`ch_s` shares every product that several rates use: the matrices are
formed once per beam pair, their products with an analyzer vector once per
distinct vector, and each beam's Gram form once per vector, so a rate costs
two 2-term dot products and one product of two cached forms.
:func:`coincidence_rate` keeps the general Wick sum over single fields,
without batch axes, as the reference that the oracles and tests check
:func:`ch_s` against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .circuit import PolarizedBeam, SwapCircuitOutput
from .modes import LinearField, _rows, vacuum_expectation

__all__ = [
    "NoCoincidencesError",
    "RateOverflowError",
    "AnalyzerAngles",
    "CHResult",
    "AnalyticInputs",
    "OPTIMAL_ANGLES",
    "angle_family",
    "analyzer",
    "coincidence_rate",
    "singles_rate",
    "ch_s",
    "analytic_rate_teleported",
    "analytic_singles_teleported",
    "analytic_s_ad",
    "optimal_gain",
    "eta_threshold",
    "squeezing_to_chi",
    "gain_window",
    "maximize_s",
]

_IMAG_TOL = 1e-12
_RATE_FLOOR = -1e-12
# a denominator below float's smallest normal has lost precision: 0 or subnormal
_DENOMINATOR_FLOOR = np.finfo(float).tiny


class NoCoincidencesError(Exception):
    """The CH denominator underflowed: there is no coincidence signal."""


class RateOverflowError(ValueError):
    """A coincidence rate or CH sum exceeds float range."""


@dataclass(frozen=True)
class AnalyzerAngles:
    """The four analyzer settings (radians, interpreted modulo pi)."""

    theta_a: float
    theta_b: float
    theta_a_prime: float
    theta_b_prime: float


#: Angle set maximizing S for the cross-polarized pair source.
OPTIMAL_ANGLES = AnalyzerAngles(math.pi / 8, -math.pi / 4, 3 * math.pi / 8, 0.0)


def angle_family(theta: float) -> AnalyzerAngles:
    """One-parameter analyzer family theta_a = -theta_b/2 = theta_a'/3, theta_b' = 0.

    Scanning theta over [0, pi/2] traces the S-maximizing constraint surface;
    the pair source attains its maximum on this family at theta = pi/8.
    """
    return AnalyzerAngles(theta, -2.0 * theta, 3.0 * theta, 0.0)


@dataclass(frozen=True)
class CHResult:
    """Four coincidence rates, two singles rates, and the CH ratio: each a
    float for one beam pair and an array over a batch."""

    r_ab: float | np.ndarray
    r_ab_prime: float | np.ndarray
    r_a_prime_b: float | np.ndarray
    r_a_prime_b_prime: float | np.ndarray
    r_singles_a: float | np.ndarray
    r_singles_b: float | np.ndarray
    s: float | np.ndarray


def analyzer(beam: PolarizedBeam, theta: float, side: str) -> LinearField:
    """Field transmitted by a polarization analyzer at angle theta.

    side "a" (first arm):  cos(theta) h + sin(theta) v
    side "d" (second arm): cos(theta) h - sin(theta) v
    """
    u = _analyzer_vector(theta, side)
    return u[..., 0] * beam.h + u[..., 1] * beam.v


def coincidence_rate(e1: LinearField, e2: LinearField) -> float:
    """Photon coincidence rate <e2+ e1+ e1 e2> between two analyzer fields."""
    value = vacuum_expectation([e2.adjoint(), e1.adjoint(), e1, e2])
    if abs(value.imag) > _IMAG_TOL:
        raise ValueError(f"coincidence rate has imaginary part {value.imag:g}")
    return value.real


def singles_rate(e_other: LinearField, beam: PolarizedBeam) -> float:
    """Coincidence rate with polarization-insensitive detection of one beam."""
    return coincidence_rate(e_other, beam.h) + coincidence_rate(e_other, beam.v)


# Grid size from which ch_s contracts a gain sweep's D' in its two parts.
# Below it factoring saves nothing that shows (build + ch_s within 5% of
# folding from 8 to 256 points, 1.27x faster at 768), while a folded grid
# gives each cell the bits of a build for that point alone.
_MIN_FACTORED_POINTS = 256


def _factored(out: SwapCircuitOutput) -> bool:
    # True if ch_s contracts D'(0) and X rather than D': the gain adds batch
    # axes to theirs and the grid holds at least _MIN_FACTORED_POINTS points
    gain_free = np.broadcast_shapes(*(f.ann.shape[:-1] for beam in (out.beam_d0, out.beam_x)
                                      for f in (beam.h, beam.v)))
    shape = np.broadcast_shapes(gain_free, out.gain.shape)
    return shape != gain_free and math.prod(shape) >= _MIN_FACTORED_POINTS


def _contractions(beam_1: PolarizedBeam, beam_2: PolarizedBeam,
                  slope: PolarizedBeam | None = None,
                  gain: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # (P, Q) stacked on axis -3 and the Gram matrices G_1, G_2 of beam_1 and
    # beam_2, or of D' = beam_2 + g slope without forming it.  Each is one
    # einsum of coefficient rows: ann_h, ann_v, conj cre_h, conj cre_v of
    # beam_1 against cre_h, cre_v of beam_2.  With a slope X, D' is expanded
    # as R + t X about the gain g_r where the trace of G_2 is least,
    # -Re tr G_0X / tr G_XX, with R = D'(g_r) formed mode by mode and
    # t = g - g_r: about g = 0 the photon-creating coefficients of D'(0) and
    # g X cancel near the optimal gain, by up to cosh^2(chi2) in G_2.  Beam
    # 2's rows are then R_h, R_v, X_h, X_v; P and Q are affine in t and G_2
    # is quadratic, G_2 = G_RR + t (G_RX + G_XR) + t^2 G_XX.
    left = _rows([beam_1.h.ann, beam_1.v.ann, beam_1.h.cre.conj(), beam_1.v.cre.conj()])
    fields_2 = [beam_2.h, beam_2.v] + ([slope.h, slope.v] if slope is not None else [])
    right = _rows([f.cre for f in fields_2])
    if slope is not None:
        offset, x = right[..., :2, :], right[..., 2:, :]
        g_r = -(np.einsum("...im,...im->...", offset.conj(), x).real
                / np.einsum("...im,...im->...", x.conj(), x).real)
        offset += g_r[..., None, None] * x
    n = min(left.shape[-1], right.shape[-1])
    pq = np.einsum("...im,...jm->...ij", left[..., :n], right[..., :n])
    gram_1 = np.einsum("...im,...jm->...ij", left[..., 2:, :], left[..., 2:, :].conj())
    gram_2 = np.einsum("...im,...jm->...ij", right.conj(), right)
    if slope is not None:
        t = (gain - g_r)[..., None, None]
        pq = pq[..., :2] + t * pq[..., 2:]
        gram_2 = (gram_2[..., :2, :2] + t * (gram_2[..., :2, 2:] + gram_2[..., 2:, :2])
                  + t * t * gram_2[..., 2:, 2:])
    return pq.reshape(pq.shape[:-2] + (2, 2, 2)), gram_1, gram_2


def _weighted(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    # sum_i u[..., i] x[..., i, :]: analyzer weights applied along axis -2 of
    # x.  The products are einsums: the * ufunc would allocate buffers for its
    # broadcast operands, doubling the peak memory over an angle grid
    out = np.einsum("...,...->...", u[..., 0, None], x[..., 0, :])
    out += np.einsum("...,...->...", u[..., 1, None], x[..., 1, :])
    return out


def _analyzer_vector(theta: np.ndarray | float, side: str) -> np.ndarray:
    # polarization weights of analyzer(beam, theta, side), stacked on axis -1;
    # complex, since they only multiply complex arrays: a real operand
    # would cost numpy a cast in every product
    if side not in ("a", "d"):
        raise ValueError(f"side must be 'a' or 'd', got {side!r}")
    sign = 1.0 if side == "a" else -1.0
    weights = np.broadcast_arrays(np.cos(theta), sign * np.sin(theta))
    return np.stack(weights, axis=-1).astype(complex)


def _form(u: np.ndarray, gram: np.ndarray) -> np.ndarray:
    # u^T gram u over the polarization axis, broadcast over the rest
    u_gram = _weighted(u, gram)
    return u_gram[..., 0] * u[..., 0] + u_gram[..., 1] * u[..., 1]


def _checked_real(rate: np.ndarray) -> np.ndarray:
    imaginary = np.abs(rate.imag) > _IMAG_TOL
    if np.any(imaginary):
        raise ValueError(f"coincidence rate has imaginary part "
                         f"{rate.imag[imaginary].flat[0]:g}")
    return rate.real.copy()  # not a view that keeps rate alive


def _right(left: np.ndarray, w: np.ndarray) -> np.ndarray:
    # sum_j left[..., k, j] w[..., j]: cached left products against a right vector
    return _weighted(w, left.swapaxes(-1, -2))


def _rate(pq: np.ndarray, forms: np.ndarray) -> np.ndarray:
    # <e2+ e1+ e1 e2> from pq = (<e1 e2>, sum_m conj(cre e1) cre e2) on axis -1
    # and the product <e2+ e2><e1+ e1> of the two Gram forms
    square = pq.conj()
    square *= pq
    rate = square[..., 0] + square[..., 1]
    rate += forms
    return _checked_real(rate)


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked below, by name
def ch_s(beams: SwapCircuitOutput | tuple[PolarizedBeam, PolarizedBeam],
         angles: AnalyzerAngles) -> CHResult:
    """All six rates and the CH ratio of a beam pair, elementwise over a batch.

    beams is a circuit output, whose beam A is analyzed on the first arm
    ("a" handedness) and D' on the second ("d"), or a (beam_1, beam_2) pair
    analyzed in that order.  The beams' fields may carry any batch axes and
    any mode counts (modes beyond a field's count are 0), and the four
    angles of ``angles`` may be arrays; all of them broadcast together.
    Over a batch each CHResult field is an array: "s" has the broadcast
    shape of all inputs, each rate that of the beams and the angles it
    uses.  For one beam pair at scalar angles the fields are floats.

    Each rate <e2+ e1+ e1 e2>, with e1 = u . beam_p and e2 = w . beam_q for
    real analyzer vectors u and w, is the three-pairing Wick sum

        |<e1 e2>|^2 + |sum_m conj(cre e1) cre e2|^2 + <e2+ e2><e1+ e1>
        = |u^T P w|^2 + |u^T Q w|^2 + (w^T G_q w)(u^T G_p u)

    over the 2x2 contraction matrices P, Q from beam_1's (h, v) components
    to beam_2's and each beam's Gram matrix G.  P and Q are formed in this
    direction only: the beams commute, so a rate is symmetric in e1 and e2
    and the singles of w_b against beam_1's bare h and v come from the
    right products P w_b and Q w_b.  The left products u^T P and u^T Q are
    formed once per distinct left vector (u_a and u_a'), the Gram forms once
    per vector (the Gram diagonal for bare h and v), so each of the ten
    rates is two 2-term dot products and one product of cached forms.

    A circuit output holds D' as d + g X (see build_swap_circuit), and
    ch_s decides how to contract it.  When the gain adds batch axes to d
    and X and the grid holds at least 256 points, the matrices are formed
    from the fields of d and X at their gain-free shape, and only their
    combination with the gain, affine in P and Q and quadratic in G, takes
    the gain's axes.  The combination is expanded as D' = D'(g_r) +
    (g - g_r) X about the gain g_r that minimizes the trace of G, so that
    its gain orders do not cancel near the optimal gain.  Otherwise the
    gain is folded into D' (beam_d_prime), and each cell gets the bits of
    a build for that point alone.

    The checks are those of coincidence_rate, applied to every element:
    ValueError on an imaginary part or a negative rate beyond tolerance,
    RateOverflowError on a rate or CH sum beyond float range, and
    NoCoincidencesError when a singles denominator is 0 or subnormal (for
    example with the pump off).
    """
    if isinstance(beams, SwapCircuitOutput):
        beams = ((beams.beam_a, beams.beam_d0, beams.beam_x, beams.gain) if _factored(beams)
                 else (beams.beam_a, beams.beam_d_prime))
    pq, gram_1, gram_2 = _contractions(*beams)

    u_a = _analyzer_vector(angles.theta_a, "a")
    u_a_prime = _analyzer_vector(angles.theta_a_prime, "a")
    w_b = _analyzer_vector(angles.theta_b, "d")
    w_b_prime = _analyzer_vector(angles.theta_b_prime, "d")
    form_a, form_a_prime = _form(u_a, gram_1), _form(u_a_prime, gram_1)
    form_b, form_b_prime = _form(w_b, gram_2), _form(w_b_prime, gram_2)
    h_1, v_1 = gram_1[..., 0, 0], gram_1[..., 1, 1]
    h_2, v_2 = gram_2[..., 0, 0], gram_2[..., 1, 1]
    # (u^T P, u^T Q) on axes (-2, -1), once per distinct left vector u; only
    # one is alive at a time, since over an angle grid each is the largest array
    left = _weighted(u_a[..., None, :], pq)
    rates = {"r_ab": _rate(_right(left, w_b), form_b * form_a),
             "r_ab_prime": _rate(_right(left, w_b_prime), form_b_prime * form_a)}
    del left
    left = _weighted(u_a_prime[..., None, :], pq)
    rates["r_a_prime_b"] = _rate(_right(left, w_b), form_b * form_a_prime)
    rates["r_a_prime_b_prime"] = _rate(_right(left, w_b_prime), form_b_prime * form_a_prime)
    rates["r_singles_a"] = (_rate(left[..., 0], h_2 * form_a_prime)
                            + _rate(left[..., 1], v_2 * form_a_prime))
    del left
    # (P w_b, Q w_b) on axes (-2, -1); (P w_b)_i = <X_i e_b> = <e_b X_i>, as the beams commute
    right = _right(pq, w_b[..., None, :])
    rates["r_singles_b"] = _rate(right[..., 0], h_1 * form_b) + _rate(right[..., 1], v_1 * form_b)
    for name, value in rates.items():
        if not np.all(np.isfinite(value)):
            raise RateOverflowError(f"{name} is not finite: the rates overflow float range")
        negative = value < _RATE_FLOOR
        if np.any(negative):
            raise ValueError(f"{name} is negative beyond tolerance: "
                             f"{value[negative].flat[0]:g}")

    denominator = rates["r_singles_a"] + rates["r_singles_b"]
    underflow = denominator < _DENOMINATOR_FLOOR
    if np.any(underflow):
        raise NoCoincidencesError(
            f"singles denominator {denominator[underflow].flat[0]:g} underflows; "
            "no signal")
    numerator = (rates["r_ab"] - rates["r_ab_prime"]
                 + rates["r_a_prime_b"] + rates["r_a_prime_b_prime"])
    if not (np.all(np.isfinite(numerator)) and np.all(np.isfinite(denominator))):
        raise RateOverflowError("the CH sums are not finite: the rates overflow float range")
    rates["s"] = numerator / denominator
    # [()] turns a 0-d result into a numpy.float64, a float, and keeps arrays
    return CHResult(**{name: value[()] for name, value in rates.items()})


@dataclass(frozen=True)
class AnalyticInputs:
    """Inputs to the closed-form teleported-rate and teleported-S expressions."""

    s_ab: float
    chi2: float
    gain: float
    eta: float

    @property
    def n(self) -> float:
        """Amplitude of the teleporter's photon-creating term (recomputed)."""
        return math.sinh(self.chi2) - self.gain * math.sqrt(self.eta) * math.cosh(self.chi2)


def _noise_photons(inputs: AnalyticInputs) -> float:
    return inputs.n ** 2 + inputs.gain ** 2 * (1.0 - inputs.eta)


def analytic_rate_teleported(r_ab: float, inputs: AnalyticInputs,
                             rate_unit: float = 1.0) -> float:
    """Closed-form teleported coincidence rate.

    gain^2 eta r_ab + (n^2 + gain^2 (1-eta))/2 * rate_unit

    The offset is the accidental-coincidence floor per analyzer, expressed in
    normalized units where the pair source's singles denominator is 1.
    rate_unit rescales it to the caller's units: engine rates at pump chi1
    correspond to rate_unit = 2*chi1**2.
    """
    return inputs.gain ** 2 * inputs.eta * r_ab + 0.5 * _noise_photons(inputs) * rate_unit


def analytic_singles_teleported(r_singles: float, inputs: AnalyticInputs,
                                rate_unit: float = 1.0) -> float:
    """Closed-form teleported singles rate (offset doubled: both polarizations)."""
    return inputs.gain ** 2 * inputs.eta * r_singles + _noise_photons(inputs) * rate_unit


def analytic_s_ad(inputs: AnalyticInputs) -> float:
    """Closed-form CH ratio of the teleported pair in the weak-pump limit.

    (n^2/gain^2 + eta s_ab + 1 - eta) / (2 n^2/gain^2 + 2 - eta)
    """
    if inputs.gain == 0:
        raise ValueError("gain must be positive: zero gain transmits no signal")
    x = (inputs.n / inputs.gain) ** 2
    return (x + inputs.eta * inputs.s_ab + 1.0 - inputs.eta) / (2.0 * x + 2.0 - inputs.eta)


def optimal_gain(chi2: np.ndarray | float, eta: np.ndarray | float) -> np.ndarray | float:
    """Feedforward gain cancelling the photon-creating term: tanh(chi2)/sqrt(eta),
    elementwise over arrays that broadcast; every eta must lie in (0, 1]."""
    etas = np.asarray(eta)
    outside = ~((etas > 0.0) & (etas <= 1.0))  # nan too
    if np.any(outside):
        raise ValueError(f"eta must lie in (0, 1], got {etas[outside].flat[0]}")
    return np.tanh(chi2) / np.sqrt(etas)


def eta_threshold(s_ab: float) -> float:
    """Detection efficiency below which no violation survives: 1/s_ab."""
    if s_ab <= 0:
        raise ValueError(f"s_ab must be positive, got {s_ab}")
    return 1.0 / s_ab


def squeezing_to_chi(squeezing: float) -> float:
    """Conversion efficiency for a squeezed-variance reduction s = 1 - exp(-2 chi)."""
    if not 0.0 <= squeezing < 1.0:
        raise ValueError(f"squeezing must lie in [0, 1), got {squeezing}")
    return -0.5 * math.log(1.0 - squeezing)


def gain_window(chi2: float, eta: float, s_ab: float) -> tuple[float, float] | None:
    """Gain interval where the teleporter's added-noise photon number stays
    below the violation headroom:

        (sinh chi2 - gain sqrt(eta) cosh chi2)^2 < eta s_ab - 1.

    Returns (low, high) clipped at gain 0, or None when no gain qualifies
    (eta at or below the 1/s_ab threshold).  The window degenerates to the
    single point tanh(chi2)/sqrt(eta) as eta approaches the threshold.  Note
    the noise photons are compared against the headroom per unit signal; the
    sweep-level S > 1 region additionally weights them by 1/gain^2.
    """
    if s_ab <= 1.0:
        return None
    headroom = eta * s_ab - 1.0
    if headroom <= 0.0:
        return None
    half = math.sqrt(headroom)
    scale = math.sqrt(eta) * math.cosh(chi2)
    low = max(0.0, (math.sinh(chi2) - half) / scale)
    high = (math.sinh(chi2) + half) / scale
    if high <= low:
        return None
    return low, high


def _grid(lo: float, hi: float, steps: int) -> np.ndarray:
    # the uniform inclusive grid of every sweep: lo + (hi - lo) * k / (steps - 1)
    return lo + (hi - lo) * np.arange(steps) / (steps - 1)


def maximize_s(beams: SwapCircuitOutput | tuple[PolarizedBeam, PolarizedBeam],
               family: Callable[[np.ndarray], AnalyzerAngles] = angle_family,
               steps: int = 721) -> tuple[float, float]:
    """Grid-scan the one-parameter analyzer family and return (theta*, S*).

    Scans theta over [0, pi/2] on a uniform inclusive grid in one ch_s
    call, so family must accept an array of angles; ties are broken by the
    smallest theta.  beams must be one beam pair: ValueError if a beam's
    fields, or a circuit output's gain, carry batch axes.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    if isinstance(beams, SwapCircuitOutput):
        beams = (beams.beam_a, beams.beam_d_prime)
    if any(f.ann.ndim > 1 for beam in beams for f in (beam.h, beam.v)):
        raise ValueError("maximize_s takes one beam pair, not a batch")
    thetas = _grid(0.0, math.pi / 2, steps)
    s = ch_s(beams, family(thetas)).s
    best = int(np.argmax(s))
    return float(thetas[best]), float(s[best])
