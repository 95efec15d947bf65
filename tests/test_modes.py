"""Mode algebra: fields, commutators, quadratures, Wick moments."""

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import cvswap.selftest

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
    TwoArrayField,
    is_hermitian,
    is_zero,
    max_oracle_deviation,
    random_field,
    random_product,
    two_array_commutator,
    two_array_vacuum_expectation,
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
        assert LinearField(stacked.coeffs[row]) == single
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


def test_coefficient_array_must_hold_two_ladder_rows():
    for shape in ((3,), (3, 4), (2, 3, 4)):
        with pytest.raises(ValueError) as error:
            LinearField(np.zeros(shape, dtype=complex))
        assert str(error.value) == f"coeffs must have shape (..., 2, n_modes), got {shape}"
    coeffs = np.zeros((3, 2, 4), dtype=complex)
    assert LinearField(coeffs).coeffs is coeffs


def test_repr_shows_the_coefficient_array():
    assert repr(vacuum_field(1)) == (
        "LinearField(array([[0.+0.j, 1.+0.j],\n       [0.+0.j, 0.+0.j]]))")


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
        return LinearField(np.stack([ann[0] + 1j * ann[1], cre[0] + 1j * cre[1]], axis=-2))

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
    assert is_zero(quadrature_plus(LinearField(np.zeros((2, 2), dtype=complex))))


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


_COEFFICIENTS = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


def _coefficient_pair(draw, batch):
    # the (ann, cre) arrays of one field over 1 to 12 modes
    shape = tuple(batch) + (draw(st.integers(1, 12)),)
    return [draw(hnp.arrays(complex, shape, elements=_COEFFICIENTS)) for _ in "ac"]


@st.composite
def _operands(draw):
    # two fields and a multiplier, a scalar or an array, whose shapes broadcast
    batch_f, batch_g, batch_c = draw(hnp.mutually_broadcastable_shapes(
        num_shapes=3, max_dims=2, max_side=3)).input_shapes
    multiplier = draw(st.one_of(
        st.floats(-2.0, 2.0), _COEFFICIENTS,
        hnp.arrays(draw(st.sampled_from([float, complex])), batch_c,
                   elements=st.floats(-2.0, 2.0))))
    return _coefficient_pair(draw, batch_f), _coefficient_pair(draw, batch_g), multiplier


def _assert_same_field(got: LinearField, want: TwoArrayField) -> None:
    assert np.shares_memory(got.ann, got.coeffs) and np.shares_memory(got.cre, got.coeffs)
    for x, y in ((got.ann, want.ann), (got.cre, want.cre)):
        assert x.shape == y.shape and np.array_equal(x, y)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_operands())
def test_one_array_algebra_matches_two_array_reference(operands):
    (f_ann, f_cre), (g_ann, g_cre), c = operands
    f, g = (LinearField(np.stack(rows, axis=-2)) for rows in ((f_ann, f_cre), (g_ann, g_cre)))
    ref_f, ref_g = TwoArrayField(f_ann, f_cre), TwoArrayField(g_ann, g_cre)
    _assert_same_field(f, ref_f)
    for got, want in ((f + g, ref_f + ref_g), (f - g, ref_f - ref_g), (g - f, ref_g - ref_f),
                      (-f, -ref_f), (c * f, c * ref_f), (f * c, ref_f * c),
                      (f.adjoint(), ref_f.adjoint()), (g.adjoint(), ref_g.adjoint())):
        _assert_same_field(got, want)
    for n_modes in (f_ann.shape[-1], 12):
        for x, y in zip(f.padded(n_modes), ref_f.padded(n_modes)):
            assert x.shape == y.shape and np.array_equal(x, y)
    for x, y in ((f, g), (f, f.adjoint()), (g, f.adjoint())):
        ref_x, ref_y = (TwoArrayField(field.ann, field.cre) for field in (x, y))
        assert np.array_equal(commutator(x, y), two_array_commutator(ref_x, ref_y))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.data())
def test_vacuum_expectation_matches_two_array_reference(data):
    # products of 0 to 6 single fields, each taken as is or as its adjoint
    product, reference = [], []
    for _ in range(data.draw(st.integers(0, 6))):
        ann, cre = _coefficient_pair(data.draw, ())
        field, ref = LinearField(np.stack([ann, cre], axis=-2)), TwoArrayField(ann, cre)
        if data.draw(st.booleans()):
            field, ref = field.adjoint(), ref.adjoint()
        product.append(field)
        reference.append(ref)
    assert vacuum_expectation(product) == two_array_vacuum_expectation(reference)


# sha256 of the 40 products that the selftest's dual-oracle-moments check
# draws, max_oracle_deviation(40, 20260809): per product its length, and per
# factor its mode count and the bytes of its ann and cre coefficients, as
# drawn when each field stored ann and cre as two arrays
ORACLE_PRODUCTS_SHA256 = "9f9dea6da3f1002ce873fd6fed59cbb64ff21e64e03da3e4abc0d6b1e330abb9"


def test_selftest_oracle_products_are_pinned(monkeypatch):
    products = []

    def recording(product, original=cvswap.selftest.vacuum_expectation):
        products.append(product)
        return original(product)

    monkeypatch.setattr(cvswap.selftest, "vacuum_expectation", recording)
    assert cvswap.selftest.check_dual_oracle_moments() is None
    digest = hashlib.sha256()
    for product in products:
        digest.update(len(product).to_bytes(2, "little"))
        for field in product:
            digest.update(field.ann.shape[-1].to_bytes(2, "little"))
            digest.update(np.ascontiguousarray(field.ann).tobytes())
            digest.update(np.ascontiguousarray(field.cre).tobytes())
    assert len(products) == 40
    assert digest.hexdigest() == ORACLE_PRODUCTS_SHA256
