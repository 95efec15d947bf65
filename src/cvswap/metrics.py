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

Every CH ratio is assembled by one kernel, :func:`ch_kernel`.  It takes the
beams as dense coefficient arrays with any leading batch axes and the
analyzer angles as arrays that broadcast against them, so a whole sweep is
one numpy computation; :func:`ch_s` and :func:`maximize_s` call it too.
Because each analyzer field is linear in (cos t, sin t), all two-point
contractions between the analyzed fields follow from 2x2 contraction
matrices between the beams' polarization components, and each rate
<e2+ e1+ e1 e2> is the closed three-pairing Isserlis (Wick) sum of them.
:func:`coincidence_rate` keeps the general Wick sum over dict fields as the
reference that the oracles and tests check the kernel against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .circuit import PolarizedBeam, SwapCircuitOutput
from .modes import LinearField, dense_fields, vacuum_expectation

__all__ = [
    "NoCoincidencesError",
    "AnalyzerAngles",
    "CHResult",
    "AnalyticInputs",
    "OPTIMAL_ANGLES",
    "angle_family",
    "analyzer",
    "coincidence_rate",
    "singles_rate",
    "dense_beams",
    "ch_kernel",
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
_DENOMINATOR_FLOOR = 1e-30

#: A beam as dense (ann, cre) coefficient arrays of shape (..., 2, n_modes);
#: axis -2 holds the (h, v) polarization components.
DenseBeam = tuple[np.ndarray, np.ndarray]


class NoCoincidencesError(Exception):
    """The CH denominator underflowed: there is no coincidence signal."""


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
    """Four coincidence rates, two singles rates, and the CH ratio."""

    r_ab: float
    r_ab_prime: float
    r_a_prime_b: float
    r_a_prime_b_prime: float
    r_singles_a: float
    r_singles_b: float
    s: float


def analyzer(beam: PolarizedBeam, theta: float, side: str) -> LinearField:
    """Field transmitted by a polarization analyzer at angle theta.

    side "a" (first arm):  cos(theta) h + sin(theta) v
    side "d" (second arm): cos(theta) h - sin(theta) v
    """
    if side == "a":
        return math.cos(theta) * beam.h + math.sin(theta) * beam.v
    if side == "d":
        return math.cos(theta) * beam.h - math.sin(theta) * beam.v
    raise ValueError(f"side must be 'a' or 'd', got {side!r}")


def coincidence_rate(e1: LinearField, e2: LinearField) -> float:
    """Photon coincidence rate <e2+ e1+ e1 e2> between two analyzer fields."""
    value = vacuum_expectation([e2.adjoint(), e1.adjoint(), e1, e2])
    if abs(value.imag) > _IMAG_TOL:
        raise ValueError(f"coincidence rate has imaginary part {value.imag:g}")
    return value.real


def singles_rate(e_other: LinearField, beam: PolarizedBeam) -> float:
    """Coincidence rate with polarization-insensitive detection of one beam."""
    return coincidence_rate(e_other, beam.h) + coincidence_rate(e_other, beam.v)


def dense_beams(beams: Sequence[PolarizedBeam], n_modes: int) -> DenseBeam:
    """Stack beams as one DenseBeam of shape (len(beams), 2, n_modes)."""
    ann, cre = dense_fields([f for beam in beams for f in (beam.h, beam.v)], n_modes)
    shape = (len(beams), 2, n_modes)
    return ann.reshape(shape), cre.reshape(shape)


def _dense_pair(
    beams: SwapCircuitOutput | tuple[PolarizedBeam, PolarizedBeam],
) -> tuple[DenseBeam, DenseBeam]:
    # a batch of one beam pair over the modes the four fields use
    if isinstance(beams, SwapCircuitOutput):
        beam_1, beam_2 = beams.beam_a, beams.beam_d_prime
    else:
        beam_1, beam_2 = beams
    fields = (beam_1.h, beam_1.v, beam_2.h, beam_2.v)
    n_modes = 1 + max((m for f in fields for m in f.modes()), default=0)
    return dense_beams([beam_1], n_modes), dense_beams([beam_2], n_modes)


def _contract(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # (..., 2, 2) matrices sum_m x[..., i, m] y[..., j, m]; einsum, unlike
    # matmul, neither copies the operands nor starts BLAS (less peak memory)
    return np.einsum("...im,...jm->...ij", x, y)


def _form(u: np.ndarray, matrix: np.ndarray, w: np.ndarray) -> np.ndarray:
    # u^T matrix w over the polarization axis, broadcast over the rest
    return np.einsum("...i,...ij,...j->...", u, matrix, w)


def _analyzer_vector(theta: np.ndarray | float, side: str) -> np.ndarray:
    # polarization weights of analyzer(beam, theta, side), stacked on axis -1
    sign = {"a": 1.0, "d": -1.0}[side]
    return np.stack(np.broadcast_arrays(np.cos(theta), sign * np.sin(theta)), axis=-1)


def _checked_real(rate: np.ndarray) -> np.ndarray:
    imaginary = np.abs(rate.imag) > _IMAG_TOL
    if np.any(imaginary):
        raise ValueError(f"coincidence rate has imaginary part "
                         f"{rate.imag[imaginary].flat[0]:g}")
    return rate.real


def ch_kernel(beam_1: DenseBeam, beam_2: DenseBeam,
              angles: AnalyzerAngles) -> dict[str, np.ndarray]:
    """All six rates and the CH ratio, elementwise over a batch.

    beam_1 is analyzed on the first arm ("a" handedness), beam_2 on the
    second ("d").  The beams may carry any leading batch axes, and the four
    angles of ``angles`` may be arrays; all of them broadcast together.
    Returns arrays of the broadcast shape keyed by the CHResult field names.

    Each rate <e2+ e1+ e1 e2> is the three-pairing Wick sum
    <e2+ e1+><e1 e2> + <e2+ e1><e1+ e2> + <e2+ e2><e1+ e1>.  The checks are
    those of coincidence_rate and ch_s, applied to every element: ValueError
    on an imaginary part or a negative rate beyond tolerance,
    NoCoincidencesError when a singles denominator underflows.
    """
    ann_1, cre_1 = beam_1
    ann_2, cre_2 = beam_2
    cre_1_conj, cre_2_conj = cre_1.conj(), cre_2.conj()
    # per ordered beam pair (p, q): <X_i Y_j> and sum_m conj(cre X_i) cre Y_j
    pair_12 = (_contract(ann_1, cre_2), _contract(cre_1_conj, cre_2))
    pair_21 = (_contract(ann_2, cre_1), _contract(cre_2_conj, cre_1))
    gram_1 = _contract(cre_1_conj, cre_1)
    gram_2 = _contract(cre_2_conj, cre_2)

    def rate(u: np.ndarray, w: np.ndarray, pair: tuple[np.ndarray, np.ndarray],
             gram_u: np.ndarray, gram_w: np.ndarray) -> np.ndarray:
        # e1 = u . beam_p and e2 = w . beam_q, with u and w real
        e1_e2 = _form(u, pair[0], w)
        e1_dag_e2 = _form(u, pair[1], w)
        return _checked_real(e1_e2.conj() * e1_e2 + e1_dag_e2.conj() * e1_dag_e2
                             + _form(w, gram_w, w) * _form(u, gram_u, u))

    u_a = _analyzer_vector(angles.theta_a, "a")
    u_a_prime = _analyzer_vector(angles.theta_a_prime, "a")
    w_b = _analyzer_vector(angles.theta_b, "d")
    w_b_prime = _analyzer_vector(angles.theta_b_prime, "d")
    h, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    rates = {
        "r_ab": rate(u_a, w_b, pair_12, gram_1, gram_2),
        "r_ab_prime": rate(u_a, w_b_prime, pair_12, gram_1, gram_2),
        "r_a_prime_b": rate(u_a_prime, w_b, pair_12, gram_1, gram_2),
        "r_a_prime_b_prime": rate(u_a_prime, w_b_prime, pair_12, gram_1, gram_2),
        "r_singles_a": (rate(u_a_prime, h, pair_12, gram_1, gram_2)
                        + rate(u_a_prime, v, pair_12, gram_1, gram_2)),
        "r_singles_b": (rate(w_b, h, pair_21, gram_2, gram_1)
                        + rate(w_b, v, pair_21, gram_2, gram_1)),
    }
    for name, value in rates.items():
        negative = value < _RATE_FLOOR
        if np.any(negative):
            raise ValueError(f"{name} is negative beyond tolerance: "
                             f"{value[negative].flat[0]:g}")

    denominator = rates["r_singles_a"] + rates["r_singles_b"]
    underflow = denominator <= _DENOMINATOR_FLOOR
    if np.any(underflow):
        raise NoCoincidencesError(
            f"singles denominator {denominator[underflow].flat[0]:g} underflows; "
            "no signal")
    numerator = (rates["r_ab"] - rates["r_ab_prime"]
                 + rates["r_a_prime_b"] + rates["r_a_prime_b_prime"])
    rates["s"] = numerator / denominator
    return rates


def ch_s(beams: SwapCircuitOutput | tuple[PolarizedBeam, PolarizedBeam],
         angles: AnalyzerAngles) -> CHResult:
    """Evaluate all six rates and the CH ratio for a beam pair.

    A batch of one through :func:`ch_kernel`.  Raises NoCoincidencesError
    when the singles denominator underflows (for example with the pump off).
    """
    values = ch_kernel(*_dense_pair(beams), angles)
    return CHResult(**{name: float(value[0]) for name, value in values.items()})


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


def optimal_gain(chi2: float, eta: float) -> float:
    """Feedforward gain cancelling the photon-creating term: tanh(chi2)/sqrt(eta)."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    return math.tanh(chi2) / math.sqrt(eta)


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


def maximize_s(beams: SwapCircuitOutput | tuple[PolarizedBeam, PolarizedBeam],
               family: Callable[[np.ndarray], AnalyzerAngles] = angle_family,
               steps: int = 721) -> tuple[float, float]:
    """Grid-scan the one-parameter analyzer family and return (theta*, S*).

    Scans theta over [0, pi/2] on a uniform inclusive grid in one kernel
    call, so family must accept an array of angles; ties are broken by the
    smallest theta.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    thetas = (math.pi / 2) * np.arange(steps) / (steps - 1)
    beam_1, beam_2 = _dense_pair(beams)
    s = ch_kernel(beam_1, beam_2, family(thetas[:, None]))["s"][:, 0]
    best = int(np.argmax(s))
    return float(thetas[best]), float(s[best])
