"""Algebra of bosonic mode operators linear in vacuum modes.

A field operator is represented as a finite linear combination of
annihilation and creation operators of independent vacuum modes,

    F = sum_m ann[m] * a_m  +  sum_m cre[m] * a_m^dag,

which is closed under every linear-optics transformation used in this
package (squeezers, beamsplitters, quadrature measurements, feedforward
displacements).  Vacuum moments of ordered products of such fields are
evaluated exactly with Wick's theorem: the vacuum is Gaussian, so an
even-order moment is the sum over all perfect pairings of two-point
contractions <F_i F_j>, and odd-order moments vanish.

Each field stores its coefficients as dense complex arrays over the modes,
with optional leading batch axes, so one circuit build covers a whole grid
of parameter points and the CH kernel reads the fields as they are.

All values are immutable after construction; the only mutable object is
the :class:`ModeRegistry` used while wiring up a circuit.
"""

from __future__ import annotations

from functools import lru_cache
from math import fsum
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

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
]


class ModeRegistry:
    """Issues unique, stable identifiers for independent vacuum modes."""

    def __init__(self) -> None:
        self.names: dict[int, str] = {}

    def new_mode(self, name: str) -> int:
        """Allocate a fresh mode id carrying a human-readable name."""
        if not name:
            raise ValueError("mode name must be nonempty")
        mode = len(self.names)
        self.names[mode] = name
        return mode

    def __len__(self) -> int:
        return len(self.names)


class LinearField:
    """A field operator linear in vacuum-mode annihilation/creation operators.

    ann[..., m] and cre[..., m] are the coefficients of a_m and a_m^dag: two
    complex arrays of one shape whose last axis runs over the modes 0..n-1
    and whose leading axes, if any, index a batch of fields (one per
    parameter point).  Modes from n on carry coefficient 0, so fields over
    different mode counts combine by zero padding.  Supports +, -, adjoint()
    and * by a scalar or by an array that broadcasts against the batch axes.
    The arrays must not be mutated after construction.
    """

    __slots__ = ("ann", "cre")
    # numpy scalars and arrays defer to LinearField's reflected operators
    __array_ufunc__ = None

    def __init__(self, ann: ArrayLike, cre: ArrayLike) -> None:
        self.ann = np.asarray(ann, dtype=complex)
        self.cre = np.asarray(cre, dtype=complex)
        if self.ann.shape != self.cre.shape:
            raise ValueError(f"ann and cre shapes differ: {self.ann.shape} "
                             f"and {self.cre.shape}")

    def padded(self, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
        """(ann, cre) extended with zero coefficients to n_modes modes."""
        ann, cre = self.ann, self.cre
        if ann.shape[-1] == n_modes:
            return ann, cre
        shape = ann.shape[:-1] + (n_modes,)
        wide_ann, wide_cre = np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex)
        wide_ann[..., :ann.shape[-1]] = ann
        wide_cre[..., :cre.shape[-1]] = cre
        return wide_ann, wide_cre

    def adjoint(self) -> "LinearField":
        """Hermitian adjoint: swaps ann and cre with conjugated coefficients."""
        return LinearField(self.cre.conj(), self.ann.conj())

    def __add__(self, other: "LinearField") -> "LinearField":
        n_modes = max(self.ann.shape[-1], other.ann.shape[-1])
        (ann, cre), (other_ann, other_cre) = self.padded(n_modes), other.padded(n_modes)
        return LinearField(ann + other_ann, cre + other_cre)

    def __sub__(self, other: "LinearField") -> "LinearField":
        n_modes = max(self.ann.shape[-1], other.ann.shape[-1])
        (ann, cre), (other_ann, other_cre) = self.padded(n_modes), other.padded(n_modes)
        return LinearField(ann - other_ann, cre - other_cre)

    def __neg__(self) -> "LinearField":
        return LinearField(-self.ann, -self.cre)

    def __mul__(self, c: ArrayLike) -> "LinearField":
        c = np.asarray(c)[..., None]
        return LinearField(c * self.ann, c * self.cre)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearField):
            return NotImplemented
        n_modes = max(self.ann.shape[-1], other.ann.shape[-1])
        return all(np.array_equal(x, y)
                   for x, y in zip(self.padded(n_modes), other.padded(n_modes)))

    def __repr__(self) -> str:
        return f"LinearField(ann={self.ann!r}, cre={self.cre!r})"


def vacuum_field(mode: int | Sequence[int]) -> LinearField:
    """The annihilation operator of a single vacuum mode.

    Given a sequence of modes, possibly nested, the annihilation operators
    of each, with the sequence's shape as batch axes: a flat sequence
    stacks them on axis -2 of the coefficient arrays, in its order.
    """
    modes = np.asarray(mode)
    # row m of the identity over the modes up to the largest holds a_m
    ann = np.identity(modes.max() + 1, dtype=complex)[modes]
    return LinearField(ann, np.zeros_like(ann))


def _rows(arrays: Sequence[np.ndarray]) -> np.ndarray:
    # coefficient arrays stacked on axis -2 over their broadcast batch shape,
    # zero-padded to one mode count; the batch shape is that of views cut to
    # at most one mode, which broadcast whatever the mode counts
    n_modes = max(x.shape[-1] for x in arrays)
    batch = np.broadcast(*(x[..., :1] for x in arrays)).shape[:-1]
    rows = np.zeros(batch + (len(arrays), n_modes), dtype=complex)
    for i, x in enumerate(arrays):
        rows[..., i, :x.shape[-1]] = x
    return rows


def _mode_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # sum_m x[..., m] y[..., m] over the modes both arrays hold; the rest are 0
    n_modes = min(x.shape[-1], y.shape[-1])
    return np.einsum("...m,...m->...", x[..., :n_modes], y[..., :n_modes])


def commutator(f: LinearField, g: LinearField) -> complex | np.ndarray:
    """The scalar [F, G] = sum_m (annF[m] creG[m] - creF[m] annG[m]).

    One value per element of the broadcast batch shape of f and g.
    """
    return _mode_sum(f.ann, g.cre) - _mode_sum(f.cre, g.ann)


def pair_contraction(f: LinearField, g: LinearField) -> complex | np.ndarray:
    """Vacuum two-point function <0| F G |0> = sum_m annF[m] creG[m]."""
    return _mode_sum(f.ann, g.cre)


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


@lru_cache(maxsize=None)
def _matching_pairs(n: int) -> np.ndarray:
    # ((n-1)!!, n/2, 2) positions: row k holds the (i, j) pairs of the k-th
    # matching of wick_matchings(n); shared between calls, hence read-only
    pairs = np.array(list(wick_matchings(n)), dtype=np.intp)
    pairs.flags.writeable = False
    return pairs


def vacuum_expectation(product: Sequence[LinearField]) -> complex:
    """Exact vacuum moment <0| F_1 F_2 ... F_n |0> of an ordered product.

    Zero for odd n; for even n the Wick sum over all perfect matchings of the
    pairwise contractions <F_i F_j> taken in original order (i < j).  The
    empty product is 1.  Operator order matters: <a a^dag> = 1, <a^dag a> = 0.
    The fields must be single fields, without batch axes.

    All n x n contractions come from one multiply-sum of the stacked
    coefficient arrays, and each matching's term is the product of the
    contractions its pairs index, from a pair array cached per n.
    """
    n = len(product)
    if n == 0:
        return 1.0 + 0j
    if n % 2:
        return 0j
    ann, cre = _rows([f.ann for f in product]), _rows([f.cre for f in product])
    # contractions[i, j] = <F_i F_j> = sum_m ann_i[m] cre_j[m]
    contractions = (ann[:, None, :] * cre[None, :, :]).sum(axis=-1)
    pairs = _matching_pairs(n)
    terms = contractions[pairs[..., 0], pairs[..., 1]].prod(axis=-1)
    return complex(fsum(terms.real), fsum(terms.imag))
