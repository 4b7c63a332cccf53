from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqft2d.tensor import (Tensor, ModeMismatchError, ContractionError,
                           tensordot, equal, invert_matrix, parse_scalar,
                           format_scalar, permute, integer_form,
                           from_integer_form)


def outer(a, b):
    return tensordot(a, b, [], [])


def trace(t, i, j):
    """Trace over legs i and j of t: a contraction with the identity."""
    return tensordot(t, Tensor.identity(t.shape[i], exact=t.exact), [i, j], [0, 1])


def frac_tensor(values):
    arr = np.array(values, dtype=object)
    flat = arr.reshape(-1)
    for i, v in enumerate(flat):
        flat[i] = Fraction(v)
    return Tensor(arr)


def test_scalar_parse_and_format():
    assert parse_scalar("1/2") == Fraction(1, 2)
    assert parse_scalar("-3") == Fraction(-3)
    assert parse_scalar("2/6") == Fraction(1, 3)
    assert format_scalar(Fraction(7, 2)) == "7/2"
    assert format_scalar(Fraction(4)) == "4"


def test_product_with_scalar_is_identity():
    t = frac_tensor([1, 2, 3])
    s = Tensor.scalar(1)
    assert equal(outer(s, t), t)
    assert equal(outer(t, s), t)


def test_product_of_basis_vectors():
    a = frac_tensor([1, 0])
    b = frac_tensor([0, 1])
    p = outer(a, b)
    assert p.shape == (2, 2)
    assert list(p.array.reshape(-1)) == [0, 1, 0, 0]


def test_product_rational_table():
    a = frac_tensor([Fraction(1, 2), Fraction(1, 3)])
    b = frac_tensor([2, 3])
    p = outer(a, b)
    assert list(p.array.reshape(-1)) == [1, Fraction(3, 2), Fraction(2, 3), 1]


def test_contract_trace_of_identity():
    tr = trace(Tensor.identity(5), 0, 1)
    assert tr.shape == ()
    assert tr.item() == 5


def test_contract_matrix_vector():
    m = frac_tensor([[0, 1], [1, 0]])
    v = frac_tensor([1, 0])
    mv = trace(outer(m, v), 1, 2)
    assert list(mv.array) == [0, 1]


def test_contract_dimension_mismatch():
    with pytest.raises(ContractionError):
        tensordot(frac_tensor([1, 2]), frac_tensor([1, 2, 3]), [0], [0])


def test_mode_mismatch():
    a = frac_tensor([1])
    b = Tensor(np.array([complex(1)], dtype=object), exact=False)
    with pytest.raises(ModeMismatchError):
        outer(a, b)


def test_equal_canonical_fractions():
    a = Tensor(np.array([Fraction(1, 3)], dtype=object))
    b = Tensor(np.array([Fraction(2, 6)], dtype=object))
    assert equal(a, b)


def test_equal_tolerance():
    a = Tensor(np.array([complex(1.0)], dtype=object), exact=False)
    b = Tensor(np.array([complex(1.0 + 1e-12)], dtype=object), exact=False)
    c = Tensor(np.array([complex(1.0 + 1e-6)], dtype=object), exact=False)
    assert equal(a, b)
    assert not equal(a, c)


def test_equal_shape_mismatch_is_false():
    assert not equal(frac_tensor([1, 2]), frac_tensor([1, 2, 3]))


def test_invert_matrix_exact():
    m = frac_tensor([[0, 1], [1, 0]])
    inv = invert_matrix(m)
    prod = tensordot(m, inv, [1], [0])
    assert equal(prod, Tensor.identity(2))


def test_invert_singular_returns_none():
    m = frac_tensor([[1, 0], [0, 0]])
    assert invert_matrix(m) is None


def test_tensordot_empty_axes_is_outer_product():
    a = frac_tensor([1, 2])
    b = frac_tensor([3, 4])
    p = tensordot(a, b, [], [])
    assert p.shape == (2, 2)
    assert p.entries() == [3, 4, 6, 8]


def test_integer_form_uses_the_least_common_denominator():
    t = Tensor(frac_tensor([[Fraction(1, 2), Fraction(-1, 3)], [2, 0]]).array, tol=1e-6)
    ints, den = integer_form(t)
    assert den == 6
    assert [type(x) for x in ints.entries()] == [int] * 4
    assert ints.entries() == [3, -2, 12, 0]
    assert (ints.shape, ints.exact, ints.tol) == ((2, 2), True, 1e-6)
    back = from_integer_form(ints, den)
    assert back.entries() == t.entries()
    assert all(type(x) is Fraction for x in back.entries())
    assert (back.shape, back.exact, back.tol) == ((2, 2), True, 1e-6)
    scalar = from_integer_form(*integer_form(Tensor.scalar(Fraction(-5, 4))))
    assert scalar.shape == () and type(scalar.item()) is Fraction
    assert scalar.item() == Fraction(-5, 4)
    assert integer_form(Tensor.scalar(Fraction(5, 4)))[1] == 4
    with pytest.raises(ModeMismatchError):
        integer_form(Tensor.identity(2, exact=False))


def test_permute():
    t = frac_tensor([[1, 2], [3, 4]])
    p = permute(t, [1, 0])
    assert p.array[0, 1] == 3


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=50, deadline=None)
@given(st.lists(small_fracs, min_size=1, max_size=4),
       st.lists(small_fracs, min_size=1, max_size=4),
       st.lists(small_fracs, min_size=1, max_size=4))
def test_product_associative_up_to_flattening(xs, ys, zs):
    a, b, c = frac_tensor(xs), frac_tensor(ys), frac_tensor(zs)
    left = outer(outer(a, b), c)
    right = outer(a, outer(b, c))
    assert equal(left, right)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_fracs, min_size=2, max_size=2),
                min_size=2, max_size=2))
def test_inverse_roundtrip_when_invertible(rows):
    m = frac_tensor(rows)
    inv = invert_matrix(m)
    if inv is not None:
        assert equal(tensordot(m, inv, [1], [0]), Tensor.identity(2))
        assert equal(tensordot(inv, m, [1], [0]), Tensor.identity(2))


@settings(max_examples=30, deadline=None)
@given(st.lists(small_fracs, min_size=2, max_size=3),
       st.lists(small_fracs, min_size=2, max_size=3))
def test_contraction_commutes_with_disjoint_product(xs, ys):
    # tracing legs of a matrix built from xs is unaffected by an extra factor
    m = outer(frac_tensor(xs), frac_tensor(xs))
    v = frac_tensor(ys)
    lhs = outer(trace(m, 0, 1), v)
    rhs = trace(outer(m, v), 0, 1)
    assert equal(lhs, rhs)
