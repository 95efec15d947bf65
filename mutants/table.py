"""Mutants of the CH rate kernel, the circuit, its checks and the mode algebra,
for test_mutants.py.

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
        '"r_ab_prime": (u_a, w_b_prime)',
        '"r_ab_prime": (u_a_prime, w_b_prime)',
        "r_ab' is evaluated at analyzer angle theta_a' instead of theta_a"),
    Mutant(
        "singles-b-from-w-b-prime", "metrics.py",
        'rates["r_singles_b"] = _rate(w_b, ',
        'rates["r_singles_b"] = _rate(w_b_prime, ',
        "the singles denominator counts beam D' at theta_b' instead of theta_b"),
    Mutant(
        "singles-marginals-swapped", "metrics.py",
        'np.einsum("...ijkj->...ik", split), t)\n'
        '    rates["r_singles_b"] = _rate(w_b, np.einsum("...ijil->...jl", split)',
        'np.einsum("...ijil->...jl", split), t)\n'
        '    rates["r_singles_b"] = _rate(w_b, np.einsum("...ijkj->...ik", split)',
        "each singles rate is read from the wrong marginal of H: r_singles_a "
        "analyzes beam 2 at theta_a' and r_singles_b beam 1 at theta_b"),
    Mutant(
        "x-polarizations-swapped", "circuit.py",
        "parts=_beam(x)",
        "parts=halfwave_swap(_beam(x))",
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
        "    return _ch_result(rates)\n",
        '    rates["r_ab"] = 1.001 * rates["r_ab"]\n    return _ch_result(rates)\n',
        "r_ab, and with it S, is 0.1% high"),
    Mutant(
        "loss-modes-not-transposed", "circuit.py",
        "vacuum_field(modes[0::2]), vacuum_field(modes[1::2])",
        "vacuum_field(modes[:2]), vacuum_field(modes[2:])",
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
        "hermiticity-reduced-over-a-batch-axis", "circuit.py",
        ".max(axis=-1), x):",
        ".max(axis=1), x):",
        "_unit_displacement reduces the photocurrents' Hermiticity residual "
        "over their first batch axis instead of their modes, so over a "
        "batch it compares each residual with another element's scale"),
    Mutant(
        "imaginary-part-check-skipped", "metrics.py",
        "    if abs(value.imag) > _IMAG_TOL and abs(value.imag) > _IMAG_TOL * abs(value.real):\n",
        "    if False:\n",
        "coincidence_rate returns the real part of a moment whatever its "
        "imaginary part"),
    Mutant(
        "one-block-gain-add-dropped", "circuit.py",
        "weight_port, weight_loss = self.weights[..., None]",
        "weight_port, weight_loss = 0.0 * self.weights[..., None]",
        "beam_d_prime sums no part into D', so every one-block ch_s call "
        "evaluates D'(0), the teleporter at gain 0, instead of D' at the gain"),
    Mutant(
        "detector-weights-swapped", "circuit.py",
        "weights = np.array([gain * np.sqrt(eta), gain * np.sqrt(1.0 - eta)])",
        "weights = np.array([gain * np.sqrt(1.0 - eta), gain * np.sqrt(eta)])",
        "on an efficiency grid the port part X(1) gets the weight "
        "g sqrt(1 - eta) and the loss part X(0) g sqrt(eta)"),
    Mutant(
        "loss-part-dropped", "metrics.py",
        "kept = [k for k, w in enumerate(weights) if w.any()]",
        "kept = [k for k, w in enumerate(weights[:1]) if w.any()]",
        "where the weights add batch axes ch_s contracts D' without its "
        "detector-loss part, as if the lost light brought no vacuum noise"),
    Mutant(
        "zero-weight-parts-kept", "metrics.py",
        "kept = [k for k, w in enumerate(weights) if w.any()]",
        "kept = list(range(len(weights)))",
        "a part whose weight is 0 at every point stays a block: fig4 at "
        "eta = 1 carries the loss part as an all-zero third block"),
    Mutant(
        "one-block-branch-never-taken", "metrics.py",
        "if not kept or np.broadcast(parts[0, ..., 0, 0], weights[0]).shape == parts.shape[1:-2]:",
        "if not kept:",
        "every circuit output with a nonzero weight takes the centred block "
        "expansion, which moves the bits of S on the gain-free sweeps"),
    Mutant(
        "semidefinite-check-disabled", "metrics.py",
        "    if indefinite.any():\n",
        "    if False:\n",
        "ch_s accepts an indefinite rate form; no circuit beam gives one, since "
        "each block matrix [H_bc] is a sum of Gram-like terms, so only the "
        "direct tests of _require_semidefinite kill it"),
    Mutant(
        "semidefinite-check-unscaled", "metrics.py",
        "    indefinite = low < -_PSD_TOL * trace\n",
        "    indefinite = low < -_PSD_TOL\n",
        "where the Cholesky factorization fails, ch_s compares the form's "
        "smallest eigenvalue with the bare tolerance, not relative to its "
        "trace, so it misses indefinite forms when the rates are small"),
    Mutant(
        "semidefinite-shift-dropped", "metrics.py",
        '    np.einsum("...ii->...i", shifted)[...] += _PSD_TOL * trace[:, None]\n',
        "",
        "the Cholesky factorization certifies only positive definite forms, "
        "so an accepted form whose smallest eigenvalue is within _PSD_TOL of "
        "its trace below 0 needs the eigensolver"),
    Mutant(
        "semidefinite-shift-sign-flipped", "metrics.py",
        '    np.einsum("...ii->...i", shifted)[...] += _PSD_TOL * trace[:, None]\n',
        '    np.einsum("...ii->...i", shifted)[...] -= _PSD_TOL * trace[:, None]\n',
        "the Cholesky factorization certifies only forms whose smallest "
        "eigenvalue exceeds _PSD_TOL of the trace, so an accepted form "
        "closer to semidefinite needs the eigensolver"),
    Mutant(
        "q-term-dropped", "metrics.py",
        "    vectors = pq.reshape(pq.shape[:-3] + (2, 4))\n",
        "    vectors = pq[..., :1, :, :].reshape(pq.shape[:-3] + (1, 4))\n",
        "the rate form drops |u^T Q w|^2, the normal-order cross contraction's "
        "term; Q is exactly 0 on every circuit output, so only a beam pair "
        "split from one squeezed beam shows it"),
    Mutant(
        "attenuator-vacuum-weight", "circuit.py",
        "np.sqrt(1.0 - transmissivity) * fresh",
        "np.sqrt(1.0 + transmissivity) * fresh",
        "the attenuator's fresh vacuum enters with weight sqrt(1+T), so its "
        "output is not canonical; normally ordered rates do not see it"),
    Mutant(
        "reference-imaginary-check-unscaled", "metrics.py",
        "if abs(value.imag) > _IMAG_TOL and abs(value.imag) > _IMAG_TOL * abs(value.real):",
        "if abs(value.imag) > _IMAG_TOL:",
        "coincidence_rate rejects valid beams once the rates grow large"),
    Mutant(
        "svg-y-axis-upright", "cli.py",
        "return height - margin - (y - y_lo) / y_span * (height - 2 * margin)",
        "return margin + (y - y_lo) / y_span * (height - 2 * margin)",
        "write_svg plots the largest value at the bottom of the plot box and "
        "the least at the top"),
    Mutant(
        "adjoint-rows-not-swapped", "modes.py",
        "self.coeffs[..., ::-1, :].conj()",
        "self.coeffs.conj()",
        "adjoint conjugates each coefficient but leaves it in its ann or cre "
        "row, so F^dag annihilates where F does and no squeezer creates pairs"),
    Mutant(
        "field-shape-check-removed", "modes.py",
        "if coeffs.shape[-2:-1] != (2,):",
        "if False:",
        "LinearField stores an array of any shape, so an array without its two "
        "ladder rows on axis -2 becomes a field that fails later, in an "
        "operator, or never"),
    Mutant(
        "fig3-takes-the-gain-grid-flags", "cli.py",
        '"angles_steps", "out", "svg")),',
        '"angles_steps", "out", "svg",\n'
        '              "lambda_min", "lambda_max", "lambda_steps")),',
        "fig3 accepts --lambda-min, --lambda-max and --lambda-steps and ignores "
        "them, since it builds no gain grid"),
    Mutant(
        "negative-rate-check-disabled", "metrics.py",
        "negative = value < _RATE_FLOOR",
        "negative = value < -np.inf",
        "ch_s accepts negative rates; no circuit beam gives one, since each "
        "rate is a sum of squared magnitudes and a product of Gram forms, so "
        "only the direct test of _ch_result kills it"),
]
