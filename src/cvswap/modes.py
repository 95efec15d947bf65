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

Each field stores its coefficients as one dense complex array of shape
(..., 2, n_modes), the annihilation row over the modes above the creation
row, with optional leading batch axes, so each operator on a field is one
numpy call, one circuit build covers a whole grid of parameter points and
the CH kernel reads the fields as they are.

Every field is made by the one constructor LinearField(coeffs) and is
immutable; the only mutable object is a circuit's :class:`ModeRegistry`.
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

    LinearField(coeffs), the only constructor, stores one complex array of
    shape (..., 2, n_modes) as is and raises ValueError for any other shape.
    coeffs[..., 0, m] and coeffs[..., 1, m] are the coefficients of a_m and
    a_m^dag, and ann and cre are views of those two rows.  The last axis
    runs over the modes 0..n-1 and the leading axes, if any, index a batch
    of fields (one per parameter point).  Modes from n on carry coefficient
    0, so fields over different mode counts combine by zero padding.
    Supports +, -, adjoint() and * by a scalar or by an array that
    broadcasts against the batch axes, each one numpy call on coeffs.  The
    array must not be mutated after construction.
    """

    __slots__ = ("coeffs",)
    # numpy scalars and arrays defer to LinearField's reflected operators
    __array_ufunc__ = None

    def __init__(self, coeffs: np.ndarray) -> None:
        if coeffs.shape[-2:-1] != (2,):
            raise ValueError(f"coeffs must have shape (..., 2, n_modes), got {coeffs.shape}")
        self.coeffs = coeffs

    @property
    def ann(self) -> np.ndarray:
        return self.coeffs[..., 0, :]

    @property
    def cre(self) -> np.ndarray:
        return self.coeffs[..., 1, :]

    def _wide(self, n_modes: int) -> np.ndarray:
        # coeffs extended with zero coefficients to n_modes modes
        coeffs = self.coeffs
        if coeffs.shape[-1] == n_modes:
            return coeffs
        wide = np.zeros(coeffs.shape[:-1] + (n_modes,), dtype=complex)
        wide[..., :coeffs.shape[-1]] = coeffs
        return wide

    def padded(self, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
        """(ann, cre) extended with zero coefficients to n_modes modes."""
        wide = self._wide(n_modes)
        return wide[..., 0, :], wide[..., 1, :]

    def adjoint(self) -> "LinearField":
        """Hermitian adjoint: swaps ann and cre with conjugated coefficients."""
        return LinearField(self.coeffs[..., ::-1, :].conj())

    def __add__(self, other: "LinearField") -> "LinearField":
        n_modes = max(self.coeffs.shape[-1], other.coeffs.shape[-1])
        return LinearField(self._wide(n_modes) + other._wide(n_modes))

    def __sub__(self, other: "LinearField") -> "LinearField":
        n_modes = max(self.coeffs.shape[-1], other.coeffs.shape[-1])
        return LinearField(self._wide(n_modes) - other._wide(n_modes))

    def __neg__(self) -> "LinearField":
        return LinearField(-self.coeffs)

    def __mul__(self, c: ArrayLike) -> "LinearField":
        return LinearField(np.asarray(c)[..., None, None] * self.coeffs)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearField):
            return NotImplemented
        n_modes = max(self.coeffs.shape[-1], other.coeffs.shape[-1])
        return np.array_equal(self._wide(n_modes), other._wide(n_modes))

    def __repr__(self) -> str:
        return f"LinearField({self.coeffs!r})"


def vacuum_field(mode: int | Sequence[int]) -> LinearField:
    """The annihilation operator of a single vacuum mode.

    Given a sequence of modes, possibly nested, the annihilation operators
    of each, with the sequence's shape as batch axes: a flat sequence
    stacks them on axis -3 of the coefficient array, in its order.
    """
    modes = np.asarray(mode)
    coeffs = np.zeros(modes.shape + (2, modes.max() + 1), dtype=complex)
    # row k of the view holds field k's ann and cre rows end to end: a_m is column m
    coeffs.reshape(-1, 2 * coeffs.shape[-1])[np.arange(modes.size), modes.ravel()] = 1
    return LinearField(coeffs)


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

    The factors' coefficient arrays are stacked once, into ann and cre
    rows of shape (n, n_modes); all n x n contractions come from one
    multiply-sum of those rows, and each matching's term is the product of
    the contractions its pairs index, from a pair array cached per n.
    """
    n = len(product)
    if n == 0:
        return 1.0 + 0j
    if n % 2:
        return 0j
    ann, cre = _rows([f.coeffs for f in product])  # (2, n, n_modes)
    # contractions[i, j] = <F_i F_j> = sum_m ann_i[m] cre_j[m]
    contractions = (ann[:, None, :] * cre[None, :, :]).sum(axis=-1)
    pairs = _matching_pairs(n)
    terms = contractions[pairs[..., 0], pairs[..., 1]].prod(axis=-1)
    return complex(fsum(terms.real), fsum(terms.imag))
