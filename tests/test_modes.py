"""Mode algebra: fields, commutators, quadratures, Wick moments."""

import math
import random

import numpy as np
import pytest

from cvswap import (
    LinearField,
    ModeRegistry,
    commutator,
    normal_order_expectation,
    pair_contraction,
    quadrature_minus,
    quadrature_plus,
    vacuum_expectation,
    vacuum_field,
    wick_matchings,
)
from cvswap.modes import _matching_pairs
from helpers import (
    is_hermitian,
    is_zero,
    max_oracle_deviation,
    random_field,
    random_product,
)


@pytest.fixture
def mode_pair():
    registry = ModeRegistry()
    a = vacuum_field(registry.new_mode("a"))
    b = vacuum_field(registry.new_mode("b"))
    return a, b


def test_vacuum_field_is_canonical(mode_pair):
    a, _ = mode_pair
    assert np.any(a.ann) and not np.any(a.cre)
    assert commutator(a, a.adjoint()) == 1


def test_vacuum_fields_of_a_mode_sequence_stack_in_its_order():
    stacked = vacuum_field([3, 1])
    assert stacked.ann.shape == stacked.cre.shape == (2, 4)
    for row, mode in enumerate((3, 1)):
        single = vacuum_field(mode)
        assert LinearField(stacked.ann[row], stacked.cre[row]) == single
    nested = vacuum_field([[0, 2], [1, 3]])
    assert nested.ann.shape == (2, 2, 4)
    assert np.array_equal(nested.ann.reshape(4, 4), np.identity(4)[[0, 2, 1, 3]])


def test_fresh_modes_are_independent(mode_pair):
    a, b = mode_pair
    assert pair_contraction(a, b.adjoint()) == 0
    assert commutator(a, b.adjoint()) == 0


def test_registry_counts_and_rejects_empty_names():
    registry = ModeRegistry()
    ids = [registry.new_mode(f"mode{k}") for k in range(12)]
    assert len(set(ids)) == 12
    assert len(registry) == 12
    with pytest.raises(ValueError):
        registry.new_mode("")


def test_coefficient_arrays_must_share_one_shape():
    with pytest.raises(ValueError, match="ann and cre shapes differ"):
        LinearField(np.zeros(3), np.zeros(4))


def test_adjoint_swaps_ladder_kind(mode_pair):
    a, _ = mode_pair
    adj = a.adjoint()
    assert np.array_equal(adj.cre, a.ann) and not np.any(adj.ann)


def test_adjoint_is_involutive():
    rng = random.Random(7)
    for _ in range(20):
        f = random_field(rng, list(range(4)))
        assert f.adjoint().adjoint() == f


def test_subtraction_and_negation_equal_scaling_by_minus_one():
    # batch shapes (2, 3) and (3,) over 3 and 5 modes: the difference pads
    rng = np.random.default_rng(11)

    def batched(shape):
        ann, cre = rng.normal(size=(2, 2) + shape)
        return LinearField(ann[0] + 1j * ann[1], cre[0] + 1j * cre[1])

    a, b = batched((2, 3, 3)), batched((3, 5))
    for x, y in ((a, b), (b, a)):
        for got, expected in ((x - y, x + (-1) * y), (-x, (-1) * x)):
            assert np.array_equal(got.ann, expected.ann)
            assert np.array_equal(got.cre, expected.cre)


def test_scaling_by_zero_prunes_everything(mode_pair):
    a, _ = mode_pair
    assert is_zero(0 * a)


def test_squeezed_combination_stays_canonical(mode_pair):
    a, b = mode_pair
    for chi in (0.0, 0.1, 0.8, 2.3):
        f = math.cosh(chi) * a + math.sinh(chi) * b.adjoint()
        assert commutator(f, f.adjoint()) == pytest.approx(1.0, abs=1e-12)


def test_elementary_commutators(mode_pair):
    a, _ = mode_pair
    assert commutator(a, a.adjoint()) == 1
    assert commutator(a, a) == 0


def test_quadrature_commutator_and_variance(mode_pair):
    a, _ = mode_pair
    x_plus, x_minus = quadrature_plus(a), quadrature_minus(a)
    assert is_hermitian(x_plus) and is_hermitian(x_minus)
    assert commutator(x_plus, x_minus) == pytest.approx(-2j, abs=1e-12)
    assert vacuum_expectation([x_plus, x_plus]) == pytest.approx(1.0, abs=1e-12)
    assert is_zero(quadrature_plus(LinearField(np.zeros(2), np.zeros(2))))


def test_pair_contractions(mode_pair):
    a, b = mode_pair
    assert pair_contraction(a, a.adjoint()) == 1
    assert pair_contraction(a.adjoint(), a) == 0
    chi = 0.34
    f = math.cosh(chi) * a + math.sinh(chi) * b.adjoint()
    assert pair_contraction(f.adjoint(), f) == pytest.approx(math.sinh(chi) ** 2)


def test_fourth_moments_match_rewriter(mode_pair):
    """Frozen values computed with the normal-ordering oracle."""
    a, _ = mode_pair
    ad = a.adjoint()
    for product, expected in (
        ([a, ad, a, ad], 1.0),
        ([a, a, ad, ad], 2.0),
        ([quadrature_plus(a)] * 4, 3.0),
    ):
        assert normal_order_expectation(product) == pytest.approx(expected, abs=1e-12)
        assert vacuum_expectation(product) == pytest.approx(expected, abs=1e-12)


def test_odd_and_empty_products(mode_pair):
    a, _ = mode_pair
    assert vacuum_expectation([a, a.adjoint(), a]) == 0
    assert vacuum_expectation([]) == 1


def test_number_expectation_nonnegative():
    rng = random.Random(11)
    for _ in range(50):
        f = random_field(rng, list(range(5)))
        value = vacuum_expectation([f.adjoint(), f])
        assert value.real >= -1e-12
        assert abs(value.imag) < 1e-12


def test_reversed_adjoint_product_conjugates():
    rng = random.Random(23)
    for _ in range(30):
        product = random_product(rng, list(range(5)), max_degree=6)
        forward = vacuum_expectation(product)
        reversed_adjoint = vacuum_expectation([f.adjoint() for f in reversed(product)])
        assert forward == pytest.approx(reversed_adjoint.conjugate(), abs=1e-10)


def test_matching_count_is_double_factorial():
    double_factorial = 1
    for k in range(1, 6):
        double_factorial *= 2 * k - 1
        assert sum(1 for _ in wick_matchings(2 * k)) == double_factorial
    assert sum(1 for _ in wick_matchings(3)) == 0


def test_wick_agrees_with_rewriter_on_random_products():
    assert max_oracle_deviation(n_products=200, seed=1234) <= 1e-12


def test_cached_matching_pairs_follow_the_enumerator():
    for n in (2, 4, 6, 8):
        pairs = _matching_pairs(n)
        assert _matching_pairs(n) is pairs
        assert not pairs.flags.writeable
        assert [[tuple(pair) for pair in matching] for matching in pairs.tolist()] \
            == list(wick_matchings(n))
