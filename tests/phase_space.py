"""A phase-space model of the entanglement-swapping network, numpy only.

Each mode is a real linear map of the quadratures r = (x_0..x_11, p_0..p_11)
of the 12 vacuum inputs in build_swap_circuit's order, an array (..., 2, 24)
of its x row over its p row.  With a = (x + ip)/sqrt 2 the vacuum's ordered
moments <r_k r_l> are M = (I + i Omega)/2.  A two-mode squeezer maps
x_i -> c x_i + s x_j and p_i -> c p_i - s p_j; the photocurrents are
x+ = sqrt 2 x and x- = -sqrt 2 p of the 50:50 ports, each mixed with its own
loss vacuum by sqrt(eta); the feedforward maps x_d -> x_d - g x+ and
p_d -> p_d + g x-, and D'_h is D_v displaced by the h currents.  A rate is
the Isserlis sum of the two-point functions f M g^T of its analyzer rows,
whose normal-ordered terms cancel the vacuum's O(1) moments at weak pump.
The model converts every input to the float type it is given first, so a
type wider than float keeps the digits that float arithmetic loses there.
"""

import numpy as np

N_MODES = 12
_INPUTS = np.eye(2 * N_MODES).reshape(2, N_MODES, 2 * N_MODES).swapaxes(0, 1)
_SQUEEZE_SIGNS = np.array([[1.0], [-1.0]])


def _source(chi, first):
    # beams (h, v) of a type-II source on the inputs a0_h, a0_v, b0_h, b0_v
    # from first on, which squeezes the pairs (a_h, b_v) and (a_v, b_h)
    c, s = (f(chi)[..., None, None] for f in (np.cosh, np.sinh))
    a0_h, a0_v, b0_h, b0_v = _INPUTS[first:first + 4]
    a_h, a_v, b_h, b_v = (c * i + s * _SQUEEZE_SIGNS * j for i, j in
                          ((a0_h, b0_v), (a0_v, b0_h), (b0_h, a0_v), (b0_v, a0_h)))
    return (a_h, a_v), (b_h, b_v)


def network(chi1, chi2, gain, eta, dtype):
    """Beams A and D' as (h, v) pairs of modes in dtype, over the parameters' broadcast."""
    chi1, chi2, gain, eta = (np.asarray(x, dtype=dtype) for x in (chi1, chi2, gain, eta))
    beam_a, beam_b = _source(chi1, 0)
    beam_c, beam_d = _source(chi2, 4)
    gain = gain[..., None]
    root_eta, root_2_loss = (np.sqrt(x)[..., None] for x in (eta, 2 * (1 - eta)))
    beam_d_prime = []
    for pol, (b, c, d) in enumerate(zip(beam_b, beam_c, beam_d[::-1])):
        loss_plus, loss_minus = _INPUTS[8 + 2 * pol:10 + 2 * pol]
        x_plus = root_eta * (b + c)[..., 0, :] + root_2_loss * loss_plus[0]
        x_minus = -root_eta * (b - c)[..., 1, :] - root_2_loss * loss_minus[1]
        beam_d_prime.append(np.stack(np.broadcast_arrays(d[..., 0, :] - gain * x_plus,
                                                         d[..., 1, :] + gain * x_minus), axis=-2))
    return beam_a, tuple(beam_d_prime)


def _row(beam, u_h, u_v):
    # the complex row f of the field u_h beam_h + u_v beam_v = f . r
    mode = np.asarray(u_h)[..., None, None] * beam[0] + np.asarray(u_v)[..., None, None] * beam[1]
    return (mode[..., 0, :] + 1j * mode[..., 1, :]) / np.sqrt(mode.dtype.type(2))


def _rate(f, g):
    # <e2+ e1+ e1 e2>: value, Wick-term magnitudes and ||f||^2 ||g||^2, stacked
    def pair(k, l):
        # k M l^T = sum over the inputs of <a a+> (k_x - i k_p)(l_x + i l_p) / 2
        return ((k[..., :N_MODES] - 1j * k[..., N_MODES:])
                * (l[..., :N_MODES] + 1j * l[..., N_MODES:])).sum(axis=-1) / 2

    terms = (pair(g.conj(), f.conj()) * pair(f, g), pair(g.conj(), f) * pair(f.conj(), g),
             pair(g.conj(), g) * pair(f.conj(), f))
    norms = (np.abs(f) ** 2).sum(axis=-1) * (np.abs(g) ** 2).sum(axis=-1)
    return np.stack(np.broadcast_arrays(sum(terms).real, sum(map(np.abs, terms)), norms))


def rates(chi1, chi2, gain, eta, angles, dtype):
    """Per rate of cvswap's CHResult, its stacked (value, Wick-term
    magnitudes, ||f||^2 ||g||^2) in dtype, over the broadcast of the
    parameters and the angles (ta, tb, ta', tb'): A is analyzed at cos t h +
    sin t v, D' at cos t h - sin t v, and a singles rate sums the other h and v."""
    beam_a, beam_d = network(chi1, chi2, gain, eta, dtype)
    theta_a, theta_b, theta_a_prime, theta_b_prime = (np.asarray(t, dtype=dtype) for t in angles)
    e_a, e_a_prime = (_row(beam_a, np.cos(t), np.sin(t)) for t in (theta_a, theta_a_prime))
    e_b, e_b_prime = (_row(beam_d, np.cos(t), -np.sin(t)) for t in (theta_b, theta_b_prime))
    a_h, a_v, d_h, d_v = (_row(beam, *u) for beam in (beam_a, beam_d) for u in ((1, 0), (0, 1)))
    return {"r_ab": _rate(e_a, e_b), "r_ab_prime": _rate(e_a, e_b_prime),
            "r_a_prime_b": _rate(e_a_prime, e_b),
            "r_a_prime_b_prime": _rate(e_a_prime, e_b_prime),
            "r_singles_a": _rate(e_a_prime, d_h) + _rate(e_a_prime, d_v),
            "r_singles_b": _rate(a_h, e_b) + _rate(a_v, e_b)}
