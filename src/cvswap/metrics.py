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
Because each analyzer field is linear in (cos t, sin t), all two-point
contractions between the analyzed fields follow from 2x2 contraction
matrices between the beams' polarization components, and each rate
<e2+ e1+ e1 e2>, the closed three-pairing Isserlis (Wick) sum of them, is
a real quadratic form c^T H c in c = u (x) w, the product of the two real
analyzer vectors, and a singles rate the form in u (or w) of H's 2x2
marginal over the other beam's polarization.  :func:`ch_s` forms the real
4x4 matrices H once per beam pair and block pair of the teleported beam's
parts, at the squeezers' shape, checks that they are positive
semidefinite, and evaluates every rate as its angle vector against H, so
every grid axis (angle, gain or efficiency) meets only their entries.
:func:`coincidence_rate` keeps the general Wick sum over single fields,
without batch axes, as the reference that the oracles and tests check
:func:`ch_s` against.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .circuit import (PolarizedBeam, SwapCircuitOutput, _require_finite, _require_nonnegative,
                      _require_unit_interval)
from .modes import LinearField, vacuum_expectation

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

# a rate's imaginary part is rounding up to _IMAG_TOL, above rate 1 up to _IMAG_TOL |Re|
_IMAG_TOL = 1e-12
# a rate form's negative eigenvalues are rounding up to _PSD_TOL of its trace.
# A Cholesky factorization of the form plus _PSD_TOL trace I decides this;
# eigenvalues are computed only to decide and report a rejection, which saves
# about 0.5 MB of each command's peak RSS against an eigendecomposition
_PSD_TOL = 1e-12
_RATE_FLOOR = -1e-12
# a denominator below float's smallest normal has lost precision: 0 or subnormal
_DENOMINATOR_FLOOR = np.finfo(float).tiny


class NoCoincidencesError(Exception):
    """The CH denominator underflowed: there is no coincidence signal."""


class RateOverflowError(ValueError):
    """A coincidence rate or CH sum exceeds float range."""


class AnalyzerAngles(NamedTuple):
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


class CHResult(NamedTuple):
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
    if abs(value.imag) > _IMAG_TOL and abs(value.imag) > _IMAG_TOL * abs(value.real):
        raise ValueError(f"coincidence rate has imaginary part {value.imag:g}")
    return value.real


def singles_rate(e_other: LinearField, beam: PolarizedBeam) -> float:
    """Coincidence rate with polarization-insensitive detection of one beam."""
    return coincidence_rate(e_other, beam.h) + coincidence_rate(e_other, beam.v)


def _operands(beams: SwapCircuitOutput | tuple[PolarizedBeam, PolarizedBeam]
              ) -> tuple[PolarizedBeam, np.ndarray, list[np.ndarray]]:
    # ch_s's operands: the first beam, the second beam's creation rows in
    # blocks on axis -3, shape (..., blocks, 2, N_MODES), and the weights t
    # of the blocks after the first.  A beam pair is one block, and so is a
    # circuit output whose weights add no batch axes or are all 0, as
    # (A, D').  Otherwise d and each part of a weight nonzero somewhere are
    # blocks, each part about c_k = -Re tr G(d, X_k) / tr G(X_k, X_k), where
    # D''s Gram trace is least: about 0, d and g X would cancel near the
    # optimal gain by up to cosh^2(chi2); c_k = 0 for the loss part, disjoint from d.
    # A circuit output is a tuple too, so its type is tested before a pair is read
    if not isinstance(beams, SwapCircuitOutput):
        return beams[0], beams[1].field.cre[..., None, :, :], []
    parts, weights = beams.parts.field.cre, beams.weights
    kept = [k for k, w in enumerate(weights) if w.any()]
    if not kept or np.broadcast(parts[0, ..., 0, 0], weights[0]).shape == parts.shape[1:-2]:
        return _operands((beams.beam_a, beams.beam_d_prime))
    right = np.stack(np.broadcast_arrays(beams.beam_d0.field.cre, *parts[kept]), axis=-3)
    traces = [np.einsum("...bim,...im->...b", right.conj(), right[..., k, :, :]).real
              for k in range(1, 1 + len(kept))]
    centres = [-x[..., 0] / x[..., k] for k, x in enumerate(traces, start=1)]
    for k, c in enumerate(centres, start=1):
        right[..., 0, :, :] += c[..., None, None] * right[..., k, :, :]
    return beams.beam_a, right, [weights[k] - c for k, c in zip(kept, centres)]


def _contractions(beam_1: PolarizedBeam,
                  right: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # (P_b, Q_b) stacked on axis -3 for each block b, on axis -4, of the
    # second beam's creation rows `right`, shape (..., blocks, 2, N_MODES),
    # the Gram matrix G_1 of beam_1 and the Gram blocks G_2,bc, with (b, c)
    # on axes (-4, -3), each one einsum of coefficient rows: ann_h, ann_v,
    # conj cre_h, conj cre_v of beam_1 against each block's (h, v) rows
    left = np.concatenate([beam_1.field.ann, beam_1.field.cre.conj()], axis=-2)
    pq = np.einsum("...im,...bjm->...bij", left, right)
    gram_1 = np.einsum("...im,...jm->...ij", left[..., 2:, :], left[..., 2:, :].conj())
    gram_2 = np.einsum("...bim,...cjm->...bcij", right.conj(), right)
    return pq.reshape(pq.shape[:-2] + (2, 2, 2)), gram_1, gram_2


def _hermitian_form(beam_1: PolarizedBeam, right: np.ndarray) -> np.ndarray:
    # the real matrices H_bc = Re(p_b p_c^H + q_b q_c^H) + Re G_1 (x) Re G_2,bc
    # on axes (..., b, c, 4, 4), p = vec P and q = vec Q, whose rows and
    # columns run over (i, j), i the first beam's polarization and j the
    # second's.  Re(p p^H + q q^H) sums the outer products of Re p, Re q,
    # Im p and Im q.  Re G_1 (x) Re G_2 drops Re(G_1 (x) G_2)'s
    # -Im G_1 (x) Im G_2, which no product vector u (x) w sees and which
    # could leave [H_bc] indefinite for complex Gram matrices
    pq, gram_1, gram_2 = _contractions(beam_1, right)
    vectors = pq.reshape(pq.shape[:-3] + (2, 4))
    vectors = np.concatenate([vectors.real, vectors.imag], axis=-2)
    h = np.einsum("...bkp,...ckq->...bcpq", vectors, vectors)
    h += np.einsum("...ik,...bcjl->...bcijkl",
                   gram_1.real, gram_2.real).reshape(h.shape)
    return h


def _require_semidefinite(h: np.ndarray) -> None:
    # every rate is C^T [H_bc] C, a sum of squared magnitudes and a product
    # of Gram forms, so the block matrix [H_bc] over the blocks is positive
    # semidefinite: its smallest eigenvalue is rounding, up to _PSD_TOL of its
    # trace, below 0.  A Cholesky factorization of [H_bc] + _PSD_TOL trace I
    # succeeds exactly then, up to rounding of order n eps trace, and decides.
    # Only where it fails are eigenvalues computed, to decide by the same rule
    # and name one in the error, so no default sweep pages in LAPACK's
    # eigensolver: about 0.5 MB less peak RSS per command.  A matrix beyond
    # float range is left to the rates' checks
    blocks = h.shape[-3]
    full = h.swapaxes(-3, -2).reshape(h.shape[:-4] + (4 * blocks, 4 * blocks))
    full = full[np.isfinite(full).all(axis=(-2, -1))]
    trace = np.trace(full, axis1=-2, axis2=-1)
    shifted = full.copy()
    np.einsum("...ii->...i", shifted)[...] += _PSD_TOL * trace[:, None]
    try:
        np.linalg.cholesky(shifted)
        return
    except np.linalg.LinAlgError:
        pass
    low = np.linalg.eigvalsh(full)[:, 0]
    indefinite = low < -_PSD_TOL * trace
    if indefinite.any():
        raise ValueError(f"the rates' Hermitian form is indefinite: eigenvalue "
                         f"{low[indefinite][0]:g} at trace {trace[indefinite][0]:g}")


def _analyzer_vector(theta: np.ndarray | float, side: str) -> np.ndarray:
    # polarization weights of analyzer(beam, theta, side), stacked on axis -1
    if side not in ("a", "d"):
        raise ValueError(f"side must be 'a' or 'd', got {side!r}")
    _require_finite(**{"analyzer angle": theta})
    u = np.empty(np.shape(theta) + (2,))
    u[..., 0] = np.cos(theta)
    u[..., 1] = (1.0 if side == "a" else -1.0) * np.sin(theta)
    return u


def _horner(m: np.ndarray, t: list[np.ndarray]) -> np.ndarray:
    # sum_bc t_b t_c m_bc over the blocks (b, c) on axes (-2, -1), t_0 = 1
    # and t_b = t[b - 1]: one nested Horner pass per weight, each in place
    rate = m[..., 0, 0]
    for k in range(1, m.shape[-1]):
        h = t[k - 1] * m[..., k, k]
        h += m[..., 0, k] + m[..., k, 0]
        for j in range(1, k):
            h += t[j - 1] * (m[..., j, k] + m[..., k, j])
        h *= t[k - 1]
        h += rate
        rate = h
    return rate


def _rate(c: np.ndarray, h: np.ndarray, t: list[np.ndarray]) -> np.ndarray:
    # the rate sum_bc t_b t_c c^T H_bc c of a real analyzer vector c: the
    # angle-only c meets H's entries in two einsums, c^T (H c), and only the
    # Horner pass takes the blocks' weights t
    return _horner(np.einsum("...p,...bcp->...bc", c, np.einsum("...q,...bcpq->...bcp", c, h)), t)


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked below, by name
def ch_s(beams: SwapCircuitOutput | tuple[PolarizedBeam, PolarizedBeam],
         angles: AnalyzerAngles) -> CHResult:
    """All six rates and the CH ratio of a beam pair, elementwise over a batch.

    beams is a circuit output, whose beam A is analyzed on the first arm
    ("a" handedness) and D' on the second ("d"), or a (beam_1, beam_2) pair
    analyzed in that order.  The beams' fields, each of shape
    (..., 2, 2, N_MODES), may carry any batch axes, and the four angles of
    ``angles`` may be arrays; all of them broadcast together.
    Over a batch each CHResult field is an array: "s" has the broadcast
    shape of all inputs, each rate that of the beams and the angles it
    uses.  For one beam pair at scalar angles the fields are floats.

    Each rate <e2+ e1+ e1 e2>, with e1 = u . beam_1 and e2 = w . beam_2 for
    real analyzer vectors u and w, is the three-pairing Wick sum

        |<e1 e2>|^2 + |sum_m conj(cre e1) cre e2|^2 + <e2+ e2><e1+ e1>
        = |u^T P w|^2 + |u^T Q w|^2 + (w^T G_2 w)(u^T G_1 u)

    over the 2x2 contraction matrices P, Q from beam_1's (h, v) components
    to beam_2's and each beam's Gram matrix G.  With c = u (x) w, a real
    4-vector, that is the real quadratic form c^T H c of

        H = Re(p p^H + q q^H) + Re G_1 (x) Re G_2,    p = vec P, q = vec Q,

    one real symmetric 4x4 matrix per beam pair, formed at the beams'
    shape.  All four coincidence rates use it.  Each singles rate sums a
    rate over the unanalyzed beam's polarization, j or i, so it is one form
    in a 2x2 marginal of H: r_singles_a = u_a'^T M_a u_a', M_a,ik = sum_j
    H_ij,kj, and r_singles_b = w_b^T M_b w_b, M_b,jl = sum_i H_ij,il.
    H's entries carry rounding of order
    eps |p|^2, so a single rate whose pair amplitude u^T P w cancels while
    its Gram term is small loses relative precision: on the bare source
    pair, all four angles theta over maximize_s's 721-point grid, each
    coincidence rate is off the Wick sum by up to 8.1e-13 of its Wick terms
    at chi1 = 1e-2, 1.0e-10 at 1e-3 and 1.1e-8 at 1e-4, each singles rate by
    6.6e-16.  S keeps eps-relative accuracy on the numerator's term scale
    there; coincidence_rate keeps it per rate.  The second limit is in D'
    itself: near the optimal gain at chi2 >= 5 its coefficient
    g cosh(chi2) - sinh(chi2) cancels, and the rounding of cosh and sinh
    themselves remains.  At unity gain and eta = 1, 41 angles of
    angle_family, S is off a 50-digit closed form by up to 2.6e-12 of the
    numerator's term scale at chi1 = 1e-3, chi2 = 5.76 and 8.5e-11 at
    chi1 = 3.36e-4, chi2 = 6.91.

    A circuit output holds D' = D'(0) + g sqrt(eta) X(1) + g sqrt(1-eta) X(0)
    (see SwapCircuitOutput).  Where the weights add no batch axes, or are 0
    everywhere, ch_s contracts (A, D') as above.  Otherwise D' = R +
    sum_k t_k X_k over the parts of a weight nonzero somewhere, each about
    c_k, the weight minimizing the trace of D''s Gram matrix, so that its
    orders do not cancel near the optimal gain; R, X_1, ... enter as blocks
    b of the second beam's rows, H_bc carries the block pair, formed from
    P_b, Q_b and G_2,bc at the squeezers' shape, and with t_0 = 1 each rate is

        sum_bc t_b t_c c^T H_bc c.

    So an angle, gain or efficiency grid meets only the entries of the
    H_bc: each form is the angle vector c against H_bc c, and the gain and
    efficiency axes enter only its Horner evaluation.  One path serves one
    block and many.

    H is real by construction, so the rates have no imaginary part to
    check.  Instead ValueError is raised where the block matrix [H_bc] is
    not positive semidefinite relative to its trace, as a sum of squared
    magnitudes and a product of Gram forms must be: where its smallest
    eigenvalue is below -1e-12 times its trace.  A Cholesky factorization
    of [H_bc] + 1e-12 trace I decides; eigenvalues are computed only where
    it fails, to decide and report a rejection, which saves about 0.5 MB of
    each command's peak RSS against an eigendecomposition.  The other
    checks are applied to every element: ValueError on a negative rate,
    RateOverflowError on a rate or CH sum beyond float range, and
    NoCoincidencesError when a singles denominator is 0 or subnormal (for
    example with the pump off).
    """
    beam_1, right, t = _operands(beams)
    h = _hermitian_form(beam_1, right)
    _require_semidefinite(h)
    u_a, u_a_prime = (_analyzer_vector(theta, "a")
                      for theta in (angles.theta_a, angles.theta_a_prime))
    w_b, w_b_prime = (_analyzer_vector(theta, "d")
                      for theta in (angles.theta_b, angles.theta_b_prime))
    # u (x) w per rate, by einsum (* would buffer broadcast operands), freed after use
    products = ((name, np.einsum("...i,...j->...ij", u, w)) for name, (u, w) in {
        "r_ab": (u_a, w_b), "r_ab_prime": (u_a, w_b_prime),
        "r_a_prime_b": (u_a_prime, w_b), "r_a_prime_b_prime": (u_a_prime, w_b_prime)}.items())
    rates = {name: _rate(c.reshape(c.shape[:-2] + (4,)), h, t) for name, c in products}
    split = h.reshape(h.shape[:-2] + (2, 2, 2, 2))
    rates["r_singles_a"] = _rate(u_a_prime, np.einsum("...ijkj->...ik", split), t)
    rates["r_singles_b"] = _rate(w_b, np.einsum("...ijil->...jl", split), t)
    return _ch_result(rates)


def _ch_result(rates: dict[str, np.ndarray]) -> CHResult:
    # the checks of each rate in CHResult order, then the CH sums and S
    for name, value in rates.items():
        if not np.isfinite(value).all():
            raise RateOverflowError(f"{name} is not finite: the rates overflow float range")
        negative = value < _RATE_FLOOR
        if negative.any():
            raise ValueError(f"{name} is negative beyond tolerance: "
                             f"{value[negative].flat[0]:g}")

    denominator = rates["r_singles_a"] + rates["r_singles_b"]
    underflow = denominator < _DENOMINATOR_FLOOR
    if underflow.any():
        raise NoCoincidencesError(
            f"singles denominator {denominator[underflow].flat[0]:g} underflows; "
            "no signal")
    numerator = (rates["r_ab"] - rates["r_ab_prime"]
                 + rates["r_a_prime_b"] + rates["r_a_prime_b_prime"])
    if not (np.isfinite(numerator).all() and np.isfinite(denominator).all()):
        raise RateOverflowError("the CH sums are not finite: the rates overflow float range")
    rates["s"] = numerator / denominator
    # [()] turns a 0-d result into a numpy.float64, a float, and keeps arrays
    return CHResult(**{name: value[()] for name, value in rates.items()})


class AnalyticInputs(NamedTuple):
    """Inputs to the closed-form teleported-rate and teleported-S expressions."""

    s_ab: float
    chi2: float
    gain: float
    eta: float

    @property
    def n(self) -> float:
        """Amplitude of the teleporter's photon-creating term (recomputed);
        ValueError unless eta lies in [0, 1], every other field is finite and
        chi2 and gain are nonnegative."""
        _require_unit_interval("eta", self.eta)
        _require_finite(s_ab=self.s_ab, chi2=self.chi2, gain=self.gain)
        _require_nonnegative(chi2=self.chi2, gain=self.gain)
        return math.sinh(self.chi2) - self.gain * math.sqrt(self.eta) * math.cosh(self.chi2)


def analytic_rate_teleported(r_ab: float, inputs: AnalyticInputs,
                             rate_unit: float = 1.0) -> float:
    """Closed-form teleported coincidence rate.

    gain^2 eta r_ab + (n^2 + gain^2 (1-eta))/2 * rate_unit

    The offset is the accidental-coincidence floor per analyzer, expressed in
    normalized units where the pair source's singles denominator is 1.
    rate_unit rescales it to the caller's units: engine rates at pump chi1
    correspond to rate_unit = 2*chi1**2.
    """
    noise_photons = inputs.n ** 2 + inputs.gain ** 2 * (1.0 - inputs.eta)
    return inputs.gain ** 2 * inputs.eta * r_ab + 0.5 * noise_photons * rate_unit


def analytic_singles_teleported(r_singles: float, inputs: AnalyticInputs,
                                rate_unit: float = 1.0) -> float:
    """Closed-form teleported singles rate (offset doubled: both polarizations)."""
    return analytic_rate_teleported(r_singles, inputs, 2.0 * rate_unit)


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
    elementwise over arrays that broadcast; every chi2 must be finite and
    nonnegative and every eta lie in (0, 1]."""
    _require_finite(chi2=chi2)
    _require_nonnegative(chi2=chi2)
    etas = np.asarray(eta)
    outside = ~((etas > 0.0) & (etas <= 1.0))  # nan too
    if outside.any():
        raise ValueError(f"eta must lie in (0, 1], got {etas[outside].flat[0]}")
    return np.tanh(chi2) / np.sqrt(etas)


def eta_threshold(s_ab: float) -> float:
    """Detection efficiency below which no violation survives: 1/s_ab."""
    if not s_ab > 0:  # nan too
        raise ValueError(f"s_ab must be positive, got {s_ab}")
    _require_finite(s_ab=s_ab)
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
    (eta at or below the 1/s_ab threshold); ValueError unless chi2 and s_ab
    are finite and eta lies in [0, 1].  The window degenerates to the
    single point tanh(chi2)/sqrt(eta), low == high, as eta approaches the
    threshold or once it is narrower than float spacing.  Note
    the noise photons are compared against the headroom per unit signal; the
    sweep-level S > 1 region additionally weights them by 1/gain^2.
    """
    _require_unit_interval("eta", eta)
    _require_finite(chi2=chi2, s_ab=s_ab)
    if s_ab <= 1.0:
        return None
    headroom = eta * s_ab - 1.0
    if headroom <= 0.0:
        return None
    half = math.sqrt(headroom)
    scale = math.sqrt(eta) * math.cosh(chi2)
    low = max(0.0, (math.sinh(chi2) - half) / scale)
    high = (math.sinh(chi2) + half) / scale
    if high < low:
        return None
    return low, high


def _grid(lo: float, hi: float, steps: int) -> np.ndarray:
    # the uniform inclusive grid of every sweep: lo + (hi - lo) * k / (steps - 1),
    # which starts at lo exactly and rises, but can round an ulp past hi or
    # end an ulp short of it: clipped to hi, and ending at hi exactly
    grid = np.minimum(lo + (hi - lo) * np.arange(steps) / (steps - 1), hi)
    grid[-1] = hi
    return grid


def maximize_s(beams: SwapCircuitOutput | tuple[PolarizedBeam, PolarizedBeam],
               family: Callable[[np.ndarray], AnalyzerAngles] = angle_family,
               steps: int = 721) -> tuple[float, float]:
    """Grid-scan the one-parameter analyzer family and return (theta*, S*).

    Scans theta over [0, pi/2] on a uniform inclusive grid in one ch_s
    call, so family must accept an array of angles; ties are broken by the
    smallest theta.  beams must be one beam pair: ValueError if a beam's
    fields, a circuit output's A or D' included, carry batch axes.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    if isinstance(beams, SwapCircuitOutput):
        beams = beams.beam_a, beams.beam_d_prime
    # without batch axes a beam's coefficient array is (2, 2, N_MODES)
    if any(beam.field.coeffs.ndim > 3 for beam in beams):
        raise ValueError("maximize_s takes one beam pair, not a batch")
    thetas = _grid(0.0, math.pi / 2, steps)
    s = ch_s(beams, family(thetas)).s
    best = int(np.argmax(s))
    return float(thetas[best]), float(s[best])
