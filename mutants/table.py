"""Mutants of the CH rate kernel, the circuit and its checks, for test_mutants.py.

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
        "_blocks(_right(left, w_b_prime), form_b_prime * form_a)]",
        "_blocks(_right(_weighted(u_a_prime, pq), w_b_prime), form_b_prime * form_a_prime)]",
        "r_ab' is evaluated at analyzer angle theta_a' instead of theta_a"),
    Mutant(
        "singles-b-from-w-b-prime", "metrics.py",
        "    right = _right(pq, w_b[..., None, :])\n"
        "    blocks += [_blocks(right[..., 0], h_1 * form_b), "
        "_blocks(right[..., 1], v_1 * form_b)]",
        "    right = _right(pq, w_b_prime[..., None, :])\n"
        "    blocks += [_blocks(right[..., 0], h_1 * form_b_prime),\n"
        "               _blocks(right[..., 1], v_1 * form_b_prime)]",
        "the singles denominator counts beam D' at theta_b' instead of theta_b"),
    Mutant(
        "x-polarizations-swapped", "circuit.py",
        "beam_x=_beam(x)",
        "beam_x=halfwave_swap(_beam(x))",
        "h-polarized photocurrents displace D'_h instead of D'_v, so the "
        "teleported polarization no longer matches the measured one"),
    Mutant(
        "uncentred-expansion", "metrics.py",
        "centres = [-x[..., 0] / x[..., k] for k, x in enumerate(traces, start=1)]",
        "centres = [0.0 * x[..., 0] for k, x in enumerate(traces, start=1)]",
        "D' is expanded about gain 0, where its gain orders cancel near the "
        "optimal gain by up to cosh^2(chi2) and factored S loses its digits"),
    Mutant(
        "t-linear-term-dropped", "metrics.py",
        "        h += m[..., 0, k] + m[..., k, 0]\n",
        "",
        "each factored rate loses its cross term between R and X, linear in t"),
    Mutant(
        "r-ab-scaled", "metrics.py",
        'return _ch_result({"r_ab": r[0],',
        'return _ch_result({"r_ab": 1.001 * r[0],',
        "r_ab, and with it S, is 0.1% high"),
    Mutant(
        "loss-modes-not-transposed", "circuit.py",
        "loss = vacuum_field(np.reshape(modes, (2, 2)).T)",
        "loss = vacuum_field(np.reshape(modes, (2, 2)))",
        "the h minus-detector's loss mode enters the v plus-current and vice "
        "versa, so the stacked build no longer matches the per-component one"),
    Mutant(
        "loss-modes-quadrature-first", "circuit.py",
        'for pol in ("h", "v") for quadrature in ("plus", "minus")]',
        'for quadrature in ("plus", "minus") for pol in ("h", "v")]',
        "the four loss modes are allocated plus-h, plus-v, minus-h, minus-v, "
        "not per polarization"),
    Mutant(
        "canonical-check-skipped", "circuit.py",
        "    k = len(fields)\n",
        "    return\n    k = len(fields)\n",
        "_require_canonical accepts any inputs, so a squeezer or splitter "
        "builds non-canonical modes without a word"),
    Mutant(
        "commutator-signs-flipped", "circuit.py",
        "duals[..., 1, :, :] *= -1",
        "duals[..., 1, :, :] *= 1",
        "the cre rows enter the commutators with a plus sign, so every "
        "squeezed mode fails its canonical check"),
    Mutant(
        "b-left-in-v-h-order", "circuit.py",
        "return _beam(a), halfwave_swap(_beam(b_vh))",
        "return _beam(a), _beam(b_vh)",
        "beam B keeps its (v, h) rows, so each pair photon is labelled with "
        "its partner's polarization and S falls below 1"),
    Mutant(
        "off-by-bare-comparison-flipped", "circuit.py",
        "if (value <= _CANONICAL_TOL).all():",
        "if (value > _CANONICAL_TOL).all():",
        "_off_by passes a commutator that is off at every element"),
    Mutant(
        "off-by-scaled-comparison-flipped", "circuit.py",
        "return not ((value <= _CANONICAL_TOL * scale) & np.isfinite(scale)).all()",
        "return not ((value > _CANONICAL_TOL * scale) & np.isfinite(scale)).all()",
        "_off_by passes a commutator that is off beyond its scaled tolerance"),
    Mutant(
        "hermiticity-check-skipped", "circuit.py",
        "        if _off_by(np.abs(x.ann - x.cre.conj()).max(axis=-1), x):\n",
        "        if False:\n",
        "_unit_displacement accepts non-Hermitian photocurrents"),
    Mutant(
        "one-block-gain-add-dropped", "metrics.py",
        "        centres = weights\n",
        "        centres = 0.0 * weights\n",
        "with one block, ch_s evaluates D'(0), the teleporter at gain 0, "
        "instead of D' at the gain"),
    Mutant(
        "detector-weights-swapped", "circuit.py",
        "weights = np.array([gain * np.sqrt(eta), gain * np.sqrt(1.0 - eta)])",
        "weights = np.array([gain * np.sqrt(1.0 - eta), gain * np.sqrt(eta)])",
        "on an efficiency grid the port part X(1) gets the weight "
        "g sqrt(1 - eta) and the loss part X(0) g sqrt(eta)"),
    Mutant(
        "loss-part-dropped", "metrics.py",
        "parts = [beams.beam_d0.field.cre, *beams.beam_x.field.cre]",
        "parts = [beams.beam_d0.field.cre, *beams.beam_x.field.cre[:1]]",
        "on an efficiency grid ch_s contracts D' without its detector-loss "
        "part, as if the lost light brought no vacuum noise"),
    Mutant(
        "one-block-branch-never-taken", "metrics.py",
        "    if np.broadcast_shapes(right.shape[:-3], weights.shape[1:]) == right.shape[:-3]:\n",
        "    if False:\n",
        "every circuit output takes two blocks about g_r, which moves the bits "
        "of S on the gain-free sweeps"),
    Mutant(
        "imaginary-check-disabled", "metrics.py",
        "        if imaginary.any():\n",
        "        if False:\n",
        "ch_s accepts rates with an imaginary part beyond its scaled tolerance; "
        "no circuit beam has one, since each Gram matrix is exactly Hermitian, "
        "so only the direct test of _checked_real kills it"),
    Mutant(
        "imaginary-check-unscaled", "metrics.py",
        "        imaginary &= size > _IMAG_TOL * np.abs(_horner(m.real, t))\n",
        "",
        "ch_s compares each rate's imaginary part with the bare tolerance "
        "alone, so it rejects valid beams once the rates grow large"),
    Mutant(
        "reference-imaginary-check-unscaled", "metrics.py",
        "if abs(value.imag) > _IMAG_TOL and abs(value.imag) > _IMAG_TOL * abs(value.real):",
        "if abs(value.imag) > _IMAG_TOL:",
        "coincidence_rate rejects valid beams once the rates grow large"),
    Mutant(
        "negative-rate-check-disabled", "metrics.py",
        "negative = value < _RATE_FLOOR",
        "negative = value < -np.inf",
        "ch_s accepts negative rates; no circuit beam gives one, since each "
        "rate is a sum of squared magnitudes and a product of Gram forms, so "
        "only the direct test of _ch_result kills it"),
]
