"""Symbolic algebra of bosonic mode operators linear in vacuum modes.

A field operator is represented as a finite linear combination of
annihilation and creation operators of independent vacuum modes,

    F = sum_m ann[m] * a_m  +  sum_m cre[m] * a_m^dag,

which is closed under every linear-optics transformation used in this
package (squeezers, beamsplitters, quadrature measurements, feedforward
displacements).  Vacuum moments of ordered products of such fields are
evaluated exactly with Wick's theorem: the vacuum is Gaussian, so an
even-order moment is the sum over all perfect pairings of two-point
contractions <F_i F_j>, and odd-order moments vanish.

Circuits are wired up in this dict-based form; :func:`dense_fields` exports
the finished fields as dense coefficient arrays for batched evaluation.

All values are immutable after construction; the only mutable object is
the :class:`ModeRegistry` used while wiring up a circuit.
"""

from __future__ import annotations

from math import fsum
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "ModeRegistry",
    "LinearField",
    "vacuum_field",
    "commutator",
    "pair_contraction",
    "quadrature_plus",
    "quadrature_minus",
    "vacuum_expectation",
    "wick_matchings",
    "dense_fields",
]


class ModeRegistry:
    """Issues unique, stable identifiers for independent vacuum modes."""

    def __init__(self) -> None:
        self._next_id = 0
        self.names: dict[int, str] = {}

    def new_mode(self, name: str) -> int:
        """Allocate a fresh mode id carrying a human-readable name."""
        if not name:
            raise ValueError("mode name must be nonempty")
        mode = self._next_id
        self._next_id += 1
        self.names[mode] = name
        return mode

    def __len__(self) -> int:
        return len(self.names)


def _pruned(coeffs: dict[int, complex]) -> dict[int, complex]:
    # drop exact zeros so equality and mode-support queries are well defined
    return {m: complex(c) for m, c in coeffs.items() if c != 0}


class LinearField:
    """A field operator linear in vacuum-mode annihilation/creation operators.

    Supports +, -, scalar *, and adjoint().  Coefficient maps are pruned of
    exact zeros on construction and must not be mutated afterwards.
    """

    __slots__ = ("ann", "cre")

    def __init__(self, ann: dict[int, complex] | None = None,
                 cre: dict[int, complex] | None = None) -> None:
        self.ann = _pruned(ann or {})
        self.cre = _pruned(cre or {})

    @staticmethod
    def zero() -> "LinearField":
        return LinearField({}, {})

    def adjoint(self) -> "LinearField":
        """Hermitian adjoint: swaps ann and cre with conjugated coefficients."""
        return LinearField(
            {m: c.conjugate() for m, c in self.cre.items()},
            {m: c.conjugate() for m, c in self.ann.items()},
        )

    def modes(self) -> set[int]:
        """All modes the field is supported on."""
        return set(self.ann) | set(self.cre)

    def is_zero(self) -> bool:
        return not self.ann and not self.cre

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        adj = self.adjoint()
        for a, b in ((self.ann, adj.ann), (self.cre, adj.cre)):
            for m in set(a) | set(b):
                if abs(a.get(m, 0) - b.get(m, 0)) > tol:
                    return False
        return True

    def __add__(self, other: "LinearField") -> "LinearField":
        ann = dict(self.ann)
        for m, c in other.ann.items():
            ann[m] = ann.get(m, 0) + c
        cre = dict(self.cre)
        for m, c in other.cre.items():
            cre[m] = cre.get(m, 0) + c
        return LinearField(ann, cre)

    def __sub__(self, other: "LinearField") -> "LinearField":
        return self + (-1) * other

    def __neg__(self) -> "LinearField":
        return (-1) * self

    def __mul__(self, c: complex) -> "LinearField":
        return LinearField({m: c * v for m, v in self.ann.items()},
                           {m: c * v for m, v in self.cre.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearField):
            return NotImplemented
        return self.ann == other.ann and self.cre == other.cre

    def __repr__(self) -> str:
        return f"LinearField(ann={self.ann!r}, cre={self.cre!r})"


def vacuum_field(mode: int) -> LinearField:
    """The annihilation operator of a single vacuum mode."""
    return LinearField({mode: 1.0 + 0.0j}, {})


def commutator(f: LinearField, g: LinearField) -> complex:
    """The scalar [F, G] = sum_m (annF[m] creG[m] - creF[m] annG[m])."""
    total = 0j
    for m, c in f.ann.items():
        total += c * g.cre.get(m, 0)
    for m, c in f.cre.items():
        total -= c * g.ann.get(m, 0)
    return total


def pair_contraction(f: LinearField, g: LinearField) -> complex:
    """Vacuum two-point function <0| F G |0> = sum_m annF[m] creG[m]."""
    return sum((c * g.cre[m] for m, c in f.ann.items() if m in g.cre), 0j)


def quadrature_plus(f: LinearField) -> LinearField:
    """Amplitude quadrature X+ = F + F^dag (Hermitian)."""
    return f + f.adjoint()


def quadrature_minus(f: LinearField) -> LinearField:
    """Phase quadrature X- = i(F - F^dag) (Hermitian)."""
    return 1j * (f - f.adjoint())


def wick_matchings(n: int) -> Iterator[list[tuple[int, int]]]:
    """Enumerate all perfect matchings of positions 0..n-1 as (i, j) pairs, i < j.

    The enumeration pairs the first unmatched position with every later one,
    so it visits exactly (n-1)!! matchings for even n.
    """
    if n % 2:
        return
    positions = list(range(n))

    def rec(remaining: list[int]) -> Iterator[list[tuple[int, int]]]:
        if not remaining:
            yield []
            return
        first = remaining[0]
        for k in range(1, len(remaining)):
            partner = remaining[k]
            rest = remaining[1:k] + remaining[k + 1:]
            for tail in rec(rest):
                yield [(first, partner)] + tail

    yield from rec(positions)


def vacuum_expectation(product: Sequence[LinearField]) -> complex:
    """Exact vacuum moment <0| F_1 F_2 ... F_n |0> of an ordered product.

    Zero for odd n; for even n the Wick sum over all perfect matchings of the
    pairwise contractions <F_i F_j> taken in original order (i < j).  The
    empty product is 1.  Operator order matters: <a a^dag> = 1, <a^dag a> = 0.
    """
    n = len(product)
    if n == 0:
        return 1.0 + 0j
    if n % 2:
        return 0j
    pairs: dict[tuple[int, int], complex] = {}
    for i in range(n):
        for j in range(i + 1, n):
            pairs[(i, j)] = pair_contraction(product[i], product[j])
    terms = []
    for matching in wick_matchings(n):
        value = 1.0 + 0j
        for ij in matching:
            value *= pairs[ij]
        terms.append(value)
    return complex(fsum(t.real for t in terms), fsum(t.imag for t in terms))


def dense_fields(fields: Sequence[LinearField],
                 n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of fields as dense complex arrays (ann, cre).

    Both arrays have shape (len(fields), n_modes); row k, column m holds the
    coefficient of a_m (ann) or a_m^dag (cre) in fields[k].  Every mode id
    must be below n_modes, e.g. n_modes = len(registry).
    """
    ann = np.zeros((len(fields), n_modes), dtype=complex)
    cre = np.zeros_like(ann)
    for row, field in enumerate(fields):
        for dense, coeffs in ((ann, field.ann), (cre, field.cre)):
            for m, c in coeffs.items():
                dense[row, m] = c
    return ann, cre
