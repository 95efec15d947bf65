"""Mutants of the CH rate kernel and the teleporter, for test_mutants.py.

Each row names a file under src/cvswap, the exact text the mutant replaces
(it must occur exactly once, so a refactor that removes it fails loudly),
the replacement, and what the mutant breaks.  A row with survives=True is
a known survivor: Tier-1 passes with it, and the runner checks that it
still does, so a test that starts to kill it must also flip the row.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    breaks: str
    survives: bool = False


MUTANTS = [
    Mutant(
        "wrong-phase-feedforward", "circuit.py",
        "MINUS_GAIN_PHASE = 1j",
        "MINUS_GAIN_PHASE = -1j",
        "the minus-quadrature photocurrent enters D' as a creation operator, so "
        "the teleporter no longer transmits the signal at amplitude g sqrt(eta)"),
    Mutant(
        "u-a-prime-for-r-ab-prime", "metrics.py",
        '"r_ab_prime": _rate(_right(left, w_b_prime), form_b_prime * form_a, t)}',
        '"r_ab_prime": _rate(_right(_weighted(u_a_prime, pq), w_b_prime),\n'
        '                                   form_b_prime * form_a_prime, t)}',
        "r_ab' is evaluated at analyzer angle theta_a' instead of theta_a"),
    Mutant(
        "singles-b-from-w-b-prime", "metrics.py",
        "    right = _right(pq, w_b[..., None, :])\n"
        '    rates["r_singles_b"] = (_rate(right[..., 0], h_1 * form_b, t)\n'
        "                            + _rate(right[..., 1], v_1 * form_b, t))",
        "    right = _right(pq, w_b_prime[..., None, :])\n"
        '    rates["r_singles_b"] = (_rate(right[..., 0], h_1 * form_b_prime, t)\n'
        "                            + _rate(right[..., 1], v_1 * form_b_prime, t))",
        "the singles denominator counts beam D' at theta_b' instead of theta_b"),
    Mutant(
        "x-polarizations-swapped", "circuit.py",
        "beam_x=PolarizedBeam(x)",
        "beam_x=halfwave_swap(PolarizedBeam(x))",
        "h-polarized photocurrents displace D'_h instead of D'_v, so the "
        "teleported polarization no longer matches the measured one"),
    Mutant(
        "uncentred-expansion", "metrics.py",
        "g_r = -traces[..., 0] / traces[..., 1]",
        "g_r = 0.0 * traces[..., 0]",
        "D' is expanded about gain 0, where its gain orders cancel near the "
        "optimal gain by up to cosh^2(chi2) and factored S loses its digits"),
    Mutant(
        "t-linear-term-dropped", "metrics.py",
        "    rate += m[..., 0, 1] + m[..., 1, 0]\n",
        "",
        "each factored rate loses its cross term between R and X, linear in t"),
    Mutant(
        "r-ab-scaled", "metrics.py",
        'rates = {"r_ab": _rate(_right(left, w_b), form_b * form_a, t),',
        'rates = {"r_ab": 1.001 * _rate(_right(left, w_b), form_b * form_a, t),',
        "r_ab, and with it S, is 0.1% high"),
    Mutant(
        "imaginary-check-disabled", "metrics.py",
        "    if imaginary.any():\n",
        "    if False:\n",
        "ch_s accepts rates with an imaginary part: no circuit beam has one, "
        "since each Gram matrix is exactly Hermitian",
        survives=True),
    Mutant(
        "negative-rate-check-disabled", "metrics.py",
        "negative = value < _RATE_FLOOR",
        "negative = value < -np.inf",
        "ch_s accepts negative rates: no circuit beam gives one, since each "
        "rate is a sum of squared magnitudes and a product of Gram forms",
        survives=True),
]
