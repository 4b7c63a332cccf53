import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqft2d import tensor
from tqft2d.tensor import (Tensor, ModeMismatchError, ContractionError,
                           InputError, content_lines, parse_int,
                           tensordot, equal, differences, first_difference,
                           invert_matrix, parse_scalar, parse_scalars,
                           format_scalar, permute, with_identities)


def outer(a, b):
    return tensordot(a, b, [], [])


def trace(t, i, j):
    """Trace over legs i and j of t: a contraction with the identity."""
    return tensordot(t, Tensor.identity(t.shape[i], exact=t.exact), [i, j], [0, 1])


def _assert_numerators(t):
    """The numerators are int64 within the carried bound, which is below
    2**62, or an object array of Python ints with no bound."""
    if t.nums.dtype == object:
        assert t.top == math.inf
        assert all(type(n) is int for n in t.nums.flat)
    else:
        assert t.nums.dtype == np.int64
        assert type(t.top) is int and 0 <= t.top < 2 ** 62
        assert all(abs(n) <= t.top for n in t.nums.ravel().tolist())


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


def test_format_scalar_prints_exact_values_of_any_length():
    big = Fraction(-7 ** 6000, 3 ** 9001)      # 5,071 and 4,295 digits
    text = format_scalar(big)
    num, den = text.split("/")
    assert len(num) == 5072 and num.startswith("-") and len(den) == 4295
    # the parsers keep Python's limit on the digits of input text
    with pytest.raises(ValueError, match="limit"):
        parse_scalar(text)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert parse_scalar(text) == big and text == str(big)
        assert format_scalar(Fraction(10 ** 5000)) == str(10 ** 5000)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("token, exact", [
    ("1/0", True), (":", True), ("x", True), ("1/0", False), ("e", False),
    ("nan", False), ("inf", False), ("1e999", False)])
def test_a_number_that_does_not_read_is_an_input_error(token, exact):
    with pytest.raises(InputError, match="^bad number$"):
        parse_scalar(token, exact)


def test_the_readers_keep_the_digit_limit_and_name_the_integer():
    with pytest.raises(InputError, match="^bad number: Exceeds the limit"):
        parse_scalar("1" * 5000)
    with pytest.raises(InputError, match="^bad row: Exceeds the limit"):
        parse_int("1" * 5000, "row")
    with pytest.raises(InputError, match="^bad row$"):
        parse_int("1/2", "row")
    assert parse_int(" -7", "row") == -7


_DIGITS = {"ascii": "0123456789", "arabic-indic": "٠١٢٣٤٥٦٧٨٩",
           "fullwidth": "０１２３４５６７８９"}


@st.composite
def _integer_text(draw):
    """Integer text as int() and Fraction() both read it: a sign, leading
    zeros, ``_`` between digits and non-ASCII decimal digits, of values past
    2**62 too."""
    digits = str(draw(st.one_of(st.integers(0, 99), st.integers(0, 2 ** 80))))
    digits = "0" * draw(st.integers(0, 2)) + digits
    if len(digits) > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, len(digits) - 1))
        digits = digits[:cut] + "_" + digits[cut:]
    script = _DIGITS[draw(st.sampled_from(sorted(_DIGITS)))]
    return draw(st.sampled_from(["", "+", "-"])) + digits.translate(
        str.maketrans("0123456789", script))


_scalar_tokens = st.one_of(
    _integer_text(), _integer_text(),
    st.sampled_from(["1" * 4301, "-" + "9" * 5000,               # past the digit limit
                     "1/2", "-3/6", "4/1", "1/0", "0.5", "-.25", "1e3", "2E-2",
                     "", "x", ":", "--1", "_1", "1_", "1__0", "0x10", "²", "1 0",
                     "nan", "inf"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_scalar_tokens, max_size=6), st.booleans())
def test_the_line_reader_reads_what_parse_scalar_reads(tokens, exact):
    try:
        expected = [parse_scalar(t, exact) for t in tokens]
    except InputError as exc:
        with pytest.raises(InputError) as caught:
            parse_scalars(tokens, exact)
        assert str(caught.value) == str(exc)
    else:
        assert parse_scalars(tokens, exact) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.integers(-9, 9), st.integers(-2 ** 64, 2 ** 64)),
                          st.sampled_from([1, 1, 1, 2, 6])), min_size=1, max_size=6))
def test_int_entries_build_the_tensor_their_fractions_build(entries):
    # whole entries as Python ints: the int path when every entry is whole,
    # a mix of ints and Fractions otherwise
    fractions = [Fraction(n, d) for n, d in entries]
    mixed = [int(x) if x.denominator == 1 else x for x in fractions]
    reference = Tensor(fractions)
    for t in (Tensor(mixed), Tensor(np.array(mixed, dtype=object).reshape(1, -1))):
        _assert_numerators(t)
        assert t.nums.dtype == reference.nums.dtype
        assert (t.den, t.top) == (reference.den, reference.top)
        assert t.nums.ravel().tolist() == reference.nums.tolist()
        if t.nums.dtype == np.int64:
            assert t.nums.tobytes() == reference.nums.tobytes()


def test_content_lines_number_the_lines_that_have_text():
    text = "# head\nfiber e dim 2  # a comment\n\n   \nunit : 1 0\n#\n"
    assert content_lines(text) == [(2, "fiber e dim 2"), (5, "unit : 1 0")]
    error = InputError("bad number").at_line(5, "unit : 1/0")
    assert str(error) == "line 5: bad number in 'unit : 1/0'"


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
    assert p.entries() == [0, 1, 0, 0]


def test_product_rational_table():
    a = frac_tensor([Fraction(1, 2), Fraction(1, 3)])
    b = frac_tensor([2, 3])
    p = outer(a, b)
    assert p.entries() == [1, Fraction(3, 2), Fraction(2, 3), 1]


def test_contract_trace_of_identity():
    tr = trace(Tensor.identity(5), 0, 1)
    assert tr.shape == ()
    assert tr.item() == 5


def test_contract_matrix_vector():
    m = frac_tensor([[0, 1], [1, 0]])
    v = frac_tensor([1, 0])
    mv = trace(outer(m, v), 1, 2)
    assert mv.entries() == [0, 1]


def test_contract_dimension_mismatch():
    with pytest.raises(ContractionError):
        tensordot(frac_tensor([1, 2]), frac_tensor([1, 2, 3]), [0], [0])


@pytest.mark.parametrize("axes_a, axes_b, axis", [
    ([-1], [0], -1), ([0, 0], [0, 1], 0), ([2], [0], 2), ([1], [-2], -2),
    ([0, 1], [1, 1], 1)], ids=["negative", "repeated", "past-rank", "negative-b",
                               "repeated-b"])
def test_a_bad_axis_is_a_contraction_error_that_is_never_cached(axes_a, axes_b, axis):
    a = frac_tensor([[1, 2], [3, 4]])
    size = tensor._layout.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ContractionError, match="^bad axis %d in " % axis):
            tensordot(a, a, axes_a, axes_b)
    assert tensor._layout.cache_info().currsize == size


def test_a_cached_layout_still_checks_every_call():
    # the transpose orders are kept per pattern of ranks and axes; the leg
    # dimensions and axis counts are checked on every call all the same
    a = frac_tensor([[1, 2, 3], [4, 5, 6]])       # 2 x 3
    b = frac_tensor([[1, 0], [0, 1], [1, 1]])     # 3 x 2
    assert tensordot(a, b, [1], [0]).entries() == [4, 5, 10, 11]
    hits = tensor._layout.cache_info().hits
    for _ in range(3):
        with pytest.raises(ContractionError, match="dim 3"):
            tensordot(a, a, [1], [0])             # a's pattern, legs 3 and 2
        with pytest.raises(ContractionError, match="dim 2"):
            tensordot(b, b, [1], [0])
        with pytest.raises(ContractionError, match="length"):
            tensordot(a, b, [1], [0, 1])
        assert tensordot(a, b, (1,), (0,)).entries() == [4, 5, 10, 11]
        assert tensordot(b, a, [0, 1], [1, 0]).item() == 4 + 11   # trace of a b
    assert tensor._layout.cache_info().hits >= hits + 3
    assert tensor._layout.cache_info().maxsize is not None
    # the same ranks and axes over other dimensions are other patterns, laid
    # out from their own shapes
    c = frac_tensor([[1, 2], [3, 4], [5, 6]])     # 3 x 2
    d = frac_tensor([[1, 1, 0], [0, 1, 1]])       # 2 x 3
    for _ in range(2):
        assert tensordot(a, b, [1], [0]).entries() == [4, 5, 10, 11]
        assert tensordot(c, d, [1], [0]).entries() == [1, 3, 2, 3, 7, 4, 5, 11, 6]
        assert tensordot(a, c, [1], [0]).entries() == [22, 28, 49, 64]
        assert tensordot(d, a, [0], [0]).entries() == [1, 2, 3, 5, 7, 9, 4, 5, 6]
        assert tensordot(b, d, [0, 1], [1, 0]).item() == 1 + 1 + 1
        with pytest.raises(ContractionError, match="dim 2"):
            tensordot(c, c, [1], [0])


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


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_the_inverse_of_a_0x0_matrix_is_0x0(exact):
    empty = Tensor(np.zeros((0, 0), dtype=object), exact=exact)
    inv = invert_matrix(empty)
    assert inv.shape == (0, 0) and inv.exact == exact
    assert equal(tensordot(empty, inv, [1], [0]), Tensor.identity(0, exact=exact))


def _reference_invert(a, tol=tensor.DEFAULT_TOL):
    """invert_matrix by Gauss-Jordan elimination on Fractions in exact mode
    (the first nonzero pivot) and on complex floats in float mode (the
    largest pivot, none at most ``tol``)."""
    n = a.shape[0]
    flat = a.entries()
    m = [flat[i * n:(i + 1) * n] for i in range(n)]
    one = Fraction(1) if a.exact else complex(1)
    zero = Fraction(0) if a.exact else complex(0)
    inv = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = None
        if a.exact:
            pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        else:
            r_best = max(range(col, n), key=lambda r: abs(m[r][col]))
            if abs(m[r_best][col]) > tol:
                pivot = r_best
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return Tensor(inv, exact=a.exact)


def _random_square_matrices(exact, count):
    """(kind, matrix) pairs of sizes 1 to 6, seeded: small integers (about
    half with a negative determinant), entries over dens up to 8, entries
    past 2**62, and singular ones (a repeated row, a zero column)."""
    rng = np.random.default_rng(29)
    kinds = ("small", "dens", "past 2**62", "singular")
    for trial in range(count):
        n, kind = 1 + trial % 6, kinds[trial // 6 % 4]
        if kind == "past 2**62":
            rows = [[int(x) * 2 ** 61 + int(y) for x, y in zip(
                rng.integers(-9, 10, n), rng.integers(-5, 6, n))] for _ in range(n)]
        elif kind == "dens":
            rows = [[Fraction(int(p), int(q)) for p, q in zip(
                rng.integers(-9, 10, n), rng.integers(1, 9, n))] for _ in range(n)]
        else:
            rows = rng.integers(-3, 4, (n, n)).tolist()
        if kind == "singular":
            if n == 1 or trial % 2:
                rows = [[0] + row[1:] for row in rows]
            else:
                rows[-1] = [2 * x for x in rows[0]]
        if not exact:
            rows = [[complex(x) + complex(*rng.normal(size=2)) / 8 for x in row]
                    for row in rows]
            if kind == "singular":
                rows = [[0j] + row[1:] for row in rows]
        yield kind, Tensor(rows, exact=exact)


def test_exact_inverse_is_the_fraction_reference():
    # fraction-free elimination on the numerators gives the numbers, den,
    # tier and bound of Gauss-Jordan on Fractions, singular matrices included
    seen = {"negative determinant": 0, "singular": 0, "objects": 0, "den > 1": 0}
    for kind, m in _random_square_matrices(True, 480):
        got, want = invert_matrix(m), _reference_invert(m)
        assert (got is None) == (want is None), (kind, m.entries())
        if want is None:
            seen["singular"] += 1
            continue
        assert got.shape == want.shape and equal(got, want), (kind, m.entries())
        assert (got.den, got.nums.dtype, got.top) == (want.den, want.nums.dtype, want.top)
        _assert_numerators(got)
        seen["negative determinant"] += np.linalg.det(
            np.array(m.entries(), dtype=float).reshape(m.shape)) < 0
        seen["objects"] += m.nums.dtype == object
        seen["den > 1"] += m.den > 1
    assert min(seen.values()) >= 20, seen
    # the smallest cases: a swap, a negative 1x1 and a matrix over a den
    assert invert_matrix(Tensor([[0, 1], [1, 0]])).entries() == [0, 1, 1, 0]
    assert invert_matrix(Tensor([[-2]])).entries() == [Fraction(-1, 2)]
    assert invert_matrix(Tensor([[Fraction(1, 2), 0], [0, 3]])).entries() == [
        2, 0, 0, Fraction(1, 3)]


def test_float_inverse_is_bit_identical_to_the_reference():
    for kind, m in _random_square_matrices(False, 240):
        for tol in (tensor.DEFAULT_TOL, 0.5):
            got, want = invert_matrix(m, tol), _reference_invert(m, tol)
            assert (got is None) == (want is None), (kind, tol)
            if want is not None:
                assert [repr(x) for x in got.entries()] == \
                    [repr(x) for x in want.entries()], (kind, tol)


def test_tensordot_empty_axes_is_outer_product():
    a = frac_tensor([1, 2])
    b = frac_tensor([3, 4])
    p = tensordot(a, b, [], [])
    assert p.shape == (2, 2)
    assert p.entries() == [3, 4, 6, 8]


def test_exact_tensor_holds_numerators_over_the_least_common_denominator():
    t = Tensor([[Fraction(1, 2), Fraction(-1, 3)], [2, 0]])
    assert t.den == 6
    _assert_numerators(t)
    # the constructor takes its bound from the numerators it builds
    assert (t.nums.dtype, t.top) == (np.int64, 12)
    assert t.nums.ravel().tolist() == [3, -2, 12, 0]
    assert (t.shape, t.exact) == ((2, 2), True)
    assert t.entries() == [Fraction(1, 2), Fraction(-1, 3), 2, 0]
    assert all(type(x) is Fraction for x in t.entries())
    # numerators over any den come to lowest terms
    same = _of_objects(np.array([[6, -4], [24, 0]], dtype=object), 12)
    assert (same.den, same.nums.ravel().tolist()) == (6, [3, -2, 12, 0])
    _assert_numerators(same)
    assert equal(same, t) and hash(same) == hash(t)
    zero = _of_objects(np.zeros((2,), dtype=object), 5)
    assert (zero.den, zero.entries()) == (1, [0, 0])


def test_zero_leg_results_are_fractions():
    half_one = frac_tensor([Fraction(1, 2), 1])
    cases = [(Tensor.scalar(Fraction(-5, 4)), Fraction(-5, 4)),
             (tensordot(half_one, frac_tensor([Fraction(1, 2), -2]), [0], [0]),
              Fraction(-7, 4)),
             (tensordot(Tensor.scalar(Fraction(3, 2)), Tensor.scalar(Fraction(-1, 6)),
                        [], []), Fraction(-1, 4)),
             (permute(Tensor.scalar(Fraction(7, 3)), []), Fraction(7, 3))]
    for t, want in cases:
        assert t.shape == () and isinstance(t.nums, np.ndarray)
        assert type(t.item()) is Fraction and t.item() == want
        assert t.entries() == [want]


def test_equal_tensors_hash_equal():
    a = Tensor([Fraction(2, 4), Fraction(1)])
    b = tensordot(Tensor.scalar(Fraction(1, 3)), frac_tensor([Fraction(3, 2), 3]), [], [])
    assert a == b and hash(a) == hash(b)
    assert len({a, b, frac_tensor([1, 2])}) == 2
    f = Tensor([complex(1.0)], exact=False)
    g = Tensor([complex(1.0 + 1e-12)], exact=False)
    assert f == g and hash(f) == hash(g)


def test_float_tensors_keep_their_entries():
    entries = [complex(0.5, 1.0), complex(1.0 / 3.0), complex(-2.0)]
    t = Tensor(entries, exact=False)
    assert t.den == 1 and t.entries() == entries
    assert all(type(x) is complex for x in t.entries())
    p = tensordot(t, Tensor.identity(3, exact=False), [0], [0])
    assert p.den == 1 and p.entries() == entries and p.exact is False
    assert permute(tensordot(t, t, [], []), [1, 0]).entries() \
        == [x * y for y in entries for x in entries]
    assert type(tensordot(t, t, [0], [0]).item()) is complex


def test_float_tensors_hold_complex_entries():
    # an int given to a float tensor is stored as a complex, so it prints as
    # a float
    one = Tensor.scalar(1, exact=False)
    assert type(one.item()) is complex and format_scalar(one.item()) == "1.0"
    t = Tensor([1, Fraction(1, 2), 2.5, complex(0, 1)], exact=False)
    assert all(type(x) is complex for x in t.entries())
    assert t.entries() == [1, 0.5, 2.5, 1j] and t.den == 1
    assert Tensor(np.zeros((2, 0), dtype=object), exact=False).shape == (2, 0)


def test_first_difference_reports_the_first_row_major_index():
    a = frac_tensor([[1, 2], [3, 4]])
    assert first_difference(a, a, 0) is None
    b = frac_tensor([[1, 2], [Fraction(7, 2), 5]])
    assert first_difference(a, b, 0) == (1, 0)
    assert first_difference(a, frac_tensor([[1, 2], [3, 5]]), 0) == (1, 1)
    assert first_difference(Tensor.scalar(1), Tensor.scalar(Fraction(1, 2)), 0) == ()
    x = Tensor([complex(1.0), complex(2.0)], exact=False)
    y = Tensor([complex(1.0 + 1e-12), complex(2.0 + 1e-6)], exact=False)
    assert first_difference(x, y, 1e-9) == (1,)
    assert first_difference(x, y, 1e-3) is None
    assert first_difference(x, y, 1e-15) == (0,)


def test_permute():
    t = frac_tensor([[1, 2], [3, 4]])
    p = permute(t, [1, 0])
    assert p.entries()[1] == 3


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


@st.composite
def exact_pairs(draw):
    """Two exact tensors of one shape: b is a copy of a, a copy with one
    entry changed, or a rescaled copy (which moves the den), and both are
    sometimes read through one transposed view."""
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    n = math.prod(shape)
    xs = draw(st.lists(small_fracs, min_size=n, max_size=n))
    ys = list(xs)
    how = draw(st.sampled_from(["copy", "entry", "rescale"]))
    if how == "entry":
        ys[draw(st.integers(0, n - 1))] = draw(small_fracs)
    elif how == "rescale":
        k = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2, 3), -1]))
        ys = [y * k for y in ys]
    a = Tensor(np.array(xs, dtype=object).reshape(shape))
    b = Tensor(np.array(ys, dtype=object).reshape(shape))
    if shape and draw(st.booleans()):
        perm = draw(st.permutations(range(len(shape))))
        a, b = permute(a, perm), permute(b, perm)
    return a, b


@settings(max_examples=200, deadline=None)
@given(exact_pairs())
def test_exact_equal_is_no_first_difference(pair):
    a, b = pair
    assert equal(a, b) == (first_difference(a, b, 0.0) is None)
    assert equal(b, a) == equal(a, b)
    assert equal(a, a) and equal(b, b)


small_complex = st.complex_numbers(max_magnitude=4, allow_nan=False,
                                   allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(small_complex, min_size=1, max_size=6), st.data())
def test_float_equal_is_no_first_difference_at_the_tolerance(xs, data):
    tol = data.draw(st.sampled_from([1e-12, 1e-9, 1e-3]))
    step = data.draw(st.sampled_from([0.0, 0.5, 0.999, 2.0])) * tol
    ys = list(xs)
    ys[data.draw(st.integers(0, len(xs) - 1))] += step
    a, b = Tensor(xs, exact=False), Tensor(ys, exact=False)
    assert equal(a, b, tol) == (first_difference(a, b, tol) is None)
    assert equal(a, a, tol)


def _assert_lowest_terms(t):
    assert t.exact and type(t.den) is int and t.den > 0
    _assert_numerators(t)
    assert math.gcd(t.den, *t.nums.ravel().tolist()) == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(small_fracs, min_size=4, max_size=4),
       st.lists(small_fracs, min_size=2, max_size=2))
def test_every_exact_tensor_is_in_lowest_terms(xs, ys):
    m = Tensor(np.array(xs, dtype=object).reshape(2, 2))
    v = frac_tensor(ys)
    for t in (m, v, tensordot(m, v, [1], [0]), tensordot(m, m, [0, 1], [1, 0]),
              tensordot(m, v, [], []), permute(m, [1, 0]),
              permute(tensordot(v, m, [], []), [2, 0, 1])):
        _assert_lowest_terms(t)
    # and the numbers are the fractions the entries stand for
    assert tensordot(m, v, [1], [0]).entries() == [xs[0] * ys[0] + xs[1] * ys[1],
                                                   xs[2] * ys[0] + xs[3] * ys[1]]


def test_transposed_legs_of_equal_size_do_not_contract():
    # (2, 3) against (3, 2) flattens to the same 6 entries; only the per-leg
    # dimension check stops it
    a = Tensor.zeros((2, 3))
    b = Tensor.zeros((3, 2))
    with pytest.raises(ContractionError):
        tensordot(a, b, [0, 1], [0, 1])
    with pytest.raises(ContractionError):
        tensordot(a, b, (1,), ())
    assert tensordot(a, b, [0, 1], [1, 0]).shape == ()


def test_contracting_mixed_modes_is_rejected():
    a = frac_tensor([[1, 2], [3, 4]])
    b = Tensor([[complex(1), 0], [0, complex(1)]], exact=False)
    for axes in (([1], [0]), ([0, 1], [0, 1])):
        with pytest.raises(ModeMismatchError):
            tensordot(a, b, *axes)
        with pytest.raises(ModeMismatchError):
            tensordot(b, a, *axes)


def test_vector_covector_contraction_is_a_scalar():
    exact = tensordot(frac_tensor([Fraction(1, 2), 3]), frac_tensor([4, Fraction(1, 3)]),
                      [0], [0])
    assert exact.shape == () and isinstance(exact.nums, np.ndarray)
    assert exact.item() == 3
    approx = tensordot(Tensor([1j, 2], exact=False), Tensor([1j, 0.5], exact=False),
                       (0,), (0,))
    assert approx.shape == () and approx.item() == 0


def test_float_contractions_match_numpy_bit_for_bit():
    rng = np.random.default_rng(5)
    cases = [((3,), (3,), [0], [0]), ((2, 3), (3, 4), [1], [0]),
             ((2, 3, 4), (4, 3, 5), [1, 2], [1, 0]), ((4, 2, 3), (3, 4), [2, 0], [0, 1]),
             ((2, 2, 2, 2), (2, 2, 2), [3, 1], [0, 2]), ((3, 2), (2, 3), [0, 1], [1, 0])]
    for sa, sb, axes_a, axes_b in cases:
        for _ in range(5):
            x = rng.normal(size=sa) + 1j * rng.normal(size=sa)
            y = rng.normal(size=sb) + 1j * rng.normal(size=sb)
            a = Tensor(x.astype(object), exact=False)
            b = Tensor(y.astype(object), exact=False)
            got = np.asarray(tensordot(a, b, axes_a, axes_b).nums, dtype=complex)
            want = np.asarray(np.tensordot(a.nums, b.nums, (axes_a, axes_b)), dtype=complex)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def _lowest_terms_blocks(draw):
    """One to four rank-2 tensors of shapes up to 3x3 with random dens."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                           min_size=1, max_size=4))
    return [Tensor(np.array(draw(st.lists(_fractions, min_size=r * c, max_size=r * c)),
                            dtype=object).reshape(r, c)) for r, c in shapes]


@settings(max_examples=60, deadline=None)
@given(_lowest_terms_blocks())
def test_stack_pads_each_block_with_zeros_and_stays_in_lowest_terms(blocks):
    s = tensor.stack({(i,): t for i, t in enumerate(blocks)}, (len(blocks),), 3)
    assert s.shape == (len(blocks), 3, 3)
    for i, t in enumerate(blocks):
        r, c = t.shape
        padded = np.array(s[i].entries(), dtype=object).reshape(3, 3)
        assert padded[:r, :c].ravel().tolist() == t.entries()
        padded[:r, :c] = 0
        assert all(x == 0 for x in padded.flat)
    assert math.gcd(s.den, *s.nums.flat) == 1


def _seeded_operands(exact):
    rng = np.random.default_rng(5)

    def draw(shape):
        n = math.prod(shape)
        if exact:
            vals = [Fraction(int(p), int(q)) for p, q in
                    zip(rng.integers(-9, 10, n), rng.integers(1, 7, n))]
        else:
            vals = [complex(x, y) for x, y in rng.normal(size=(n, 2))]
        return Tensor(np.array(vals, dtype=object).reshape(shape), exact=exact)
    return draw((2, 3, 4)), draw((4, 3, 2))


@pytest.mark.parametrize("exact", [True, False])
def test_einsum_is_tensordot_then_permute(exact):
    a, b = _seeded_operands(exact)
    got = tensor.einsum("abc,cbd->da", a, b)
    assert equal(got, permute(tensordot(a, b, [1, 2], [1, 0]), (1, 0)))
    # with nothing summed, the product of the entries at each index: the
    # outer product of two vectors, and the entrywise product, the diagonal
    # of the outer product of two matrices
    x, y = a[:, 0, 0], b[0, 0, :]
    assert equal(tensor.einsum("i,j->ij", x, y), tensordot(x, y, [], []))
    x, y = a[:, :, 0], b[:2, :, 0]           # both (2, 3)
    p, q = np.indices(x.shape)
    assert equal(tensor.einsum("pq,pq->pq", x, y), tensordot(x, y, [], [])[p, q, p, q])


# the specs of the tests above
_TEST_SPECS = ("abc,cbd->da", "i,j->ij", "pq,pq->pq", "pq,qr->rp", "pq,pq->", "jk,ij->ik",
               "i,i->i", "i,i->")


def _reference_einsum(spec, operands):
    """np.einsum on the numerators as Python ints (or complex), the product
    of the dens, and the bound: the operands' bounds times the products an
    entry sums, those of the labels that leave the output."""
    r = np.asarray(np.einsum(spec, *[np.asarray(t.nums, dtype=object)
                                     for t in operands]), dtype=object)
    ins, out = spec.split("->")
    dims = {}
    for term, t in zip(ins.split(","), operands):
        dims.update(zip(term, t.shape))
    n = math.prod(d for c, d in dims.items() if c not in out)
    return r, math.prod(t.den for t in operands), math.prod(t.top for t in operands) * n


def _einsum_operands(rng, spec, tier):
    """Operands for ``spec`` with random leg dimensions 1-3, of ``tier``:
    int64, objects, int64 near 2**31 whose sums leave the tier, or float."""
    ins = spec.split("->")[0].split(",")
    labels = sorted(set("".join(ins)))
    dims = dict(zip(labels, rng.integers(1, 4, len(labels)).tolist()))
    ops = []
    for term in ins:
        shape = tuple(dims[c] for c in term)
        if tier == "float":
            vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            ops.append(Tensor(vals.astype(object), exact=False))
            continue
        nums = rng.integers(-9, 10, shape)
        if tier == "near 2**31":
            nums = nums + (2 ** 31 - 10)
        den = int(rng.choice([1, 6]))
        t = Tensor(np.array([Fraction(int(k), den) for k in nums.ravel()],
                            dtype=object).reshape(shape))
        ops.append(_of_objects(t.nums, t.den) if tier == "objects" else t)
    return ops


@pytest.mark.parametrize("tier", ["int64", "objects", "near 2**31", "float"])
def test_einsum_matches_numpy_on_the_object_tier(tier, monkeypatch):
    # each spec of the validator and of the tests above gives the shape,
    # numerators, den, tier and bound of np.einsum on Python ints; legs of
    # size 1 make some draws sum one product, which np.multiply makes
    from tqft2d import crossed
    from tqft2d.frobenius import dual_numbers
    from tqft2d.groups import symmetric_group
    specs = set()
    monkeypatch.setattr(crossed, "einsum",
                        lambda spec, *operands: specs.add(spec) or tensor.einsum(spec, *operands))
    crossed.validate_bundle(crossed.from_frobenius_algebra(symmetric_group(3), dual_numbers()))
    monkeypatch.undo()
    assert len(specs) == 18  # the two frobenius checks share one
    rng = np.random.default_rng(7)
    for spec in sorted(specs) + list(_TEST_SPECS):
        for _ in range(6):
            ops = _einsum_operands(rng, spec, tier)
            got = tensor.einsum(spec, *ops)
            want, den, top = _reference_einsum(spec, ops)
            assert got.shape == want.shape, spec
            if tier == "float":
                assert (got.den, got.top) == (1, math.inf), spec
                assert got.nums.ravel().tolist() == want.ravel().tolist(), spec
                continue
            _assert_lowest_terms(got)
            g = math.gcd(den, *want.ravel().tolist())
            assert got.nums.ravel().tolist() == [x // g for x in want.ravel().tolist()], spec
            assert got.den == den // g, spec
            assert got.nums.dtype == (np.int64 if top < 2 ** 62 else object), spec
            assert got.top == (top // g if top < 2 ** 62 else math.inf), spec


def test_a_leg_dimension_mismatch_is_a_contraction_error_and_not_cached():
    tensor._contraction.cache_clear()
    a, b, c = (Tensor(np.ones(shape, dtype=int).tolist()) for shape in ((2, 3), (4, 2), (4, 3)))
    for _ in range(2):
        with pytest.raises(ContractionError, match="label 'j'"):
            tensor.einsum("ij,jk->ik", a, b)
    assert tensor._contraction.cache_info().currsize == 0
    assert tensor.einsum("ij,kj->ik", a, c).shape == (2, 4)
    assert tensor._contraction.cache_info().currsize == 1


@pytest.mark.parametrize("spec, shapes", [
    ("...,...->...", [(2,), (2,)]), ("ij,jk", [(2, 3), (3, 2)]), ("ij->ji", [(2, 3)]),
    ("ij,jk,kl->il", [(2, 3), (3, 2), (2, 2)]), ("ii,ij->j", [(2, 2), (2, 3)]),
    ("ij,jk->k", [(2, 3), (3, 2)]), ("jk,ij->ik", [(3, 2), (2, 1)])],
    ids=["ellipsis", "no-output", "one-operand", "three-operands", "repeated-label",
         "summed-in-one-operand", "size-1-against-longer"])
def test_an_unsupported_spec_is_a_contraction_error_that_is_never_cached(spec, shapes):
    ops = [Tensor(np.ones(shape, dtype=int).tolist()) for shape in shapes]
    size = tensor._contraction.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ContractionError, match=re.escape(repr(spec))):
            tensor.einsum(spec, *ops)
    assert tensor._contraction.cache_info().currsize == size


def test_indexing_reduces_to_the_smaller_den():
    t = Tensor([Fraction(1, 2), 1])
    assert t[1].den == 1 and t[1].item() == 1
    assert t[[0, 0]].entries() == [Fraction(1, 2)] * 2


def test_stack_and_einsum_reject_mixed_modes():
    exact, approx = Tensor([1]), Tensor([complex(1)], exact=False)
    with pytest.raises(ModeMismatchError):
        tensor.stack({(0,): exact, (1,): approx}, (2,), 1)
    with pytest.raises(ModeMismatchError):
        tensor.einsum("i,i->i", exact, approx)


def _reference_stack(blocks, lead, width):
    """stack block by block: each block's numerators brought to the lcm of
    the dens and written at its key, padded with zeros."""
    tensors = list(blocks.values())
    exact = tensors[0].exact
    den = math.lcm(*(t.den for t in tensors))
    top = max(max(t.top, 1) * (den // t.den) for t in tensors)
    full = (width,) * tensors[0].rank
    if top < 2 ** 62:
        out = np.zeros(lead + full, dtype=np.int64)
    else:
        top = math.inf
        out = np.full(lead + full, 0 if exact else complex(0), dtype=object)
    for key, t in blocks.items():
        nums = np.asarray(t.nums, dtype=out.dtype) * (den // t.den)
        out[key + tuple(map(slice, nums.shape))] = nums
    return Tensor._of(out, den, top, exact)


def _families():
    """(name, blocks, lead, width) of block families over a 3 x 2 lead,
    seeded, each key set inserted in a shuffled order."""
    rng = np.random.default_rng(17)
    keys = [(i, j) for i in range(3) for j in range(2)]

    def block(shape, exact=True, den=1, big=False):
        vals = rng.integers(-4, 5, shape)
        if not exact:
            return Tensor((vals + 0.25j).tolist(), exact=False)
        if big:
            vals = vals.astype(object) * 2 ** 70 + 1
        return Tensor((np.array(vals, dtype=object) * Fraction(1, den)).tolist())
    shared = block((2, 2))
    families = [
        ("uniform", {k: block((2, 2)) for k in keys}, 2),
        ("shared", {k: shared for k in keys}, 2),
        ("shared and distinct", {k: shared if k[1] else block((2, 2)) for k in keys}, 2),
        ("padded", {k: block((1 + k[0] % 2, 2)) for k in keys}, 2),
        ("mixed den", {k: block((2, 2), den=1 + k[0]) for k in keys}, 2),
        ("one den past 1", {k: block((2, 2), den=6) for k in keys}, 2),
        ("object tier", {k: block((2, 2), big=k == (1, 1)) for k in keys}, 2),
        ("objects alone", {k: block((2, 2), big=True) for k in keys}, 2),
        ("float", {k: block((2, 2), exact=False) for k in keys}, 2),
        ("float padded", {k: block((1, 1 + k[1]), exact=False) for k in keys}, 2),
        ("partial keys", {k: block((2, 2)) for k in keys[::2]}, 2),
        ("rank one", {k: block((1,)) for k in keys}, 1),
    ]
    for name, blocks, width in families:
        order = rng.permutation(len(blocks))
        items = list(blocks.items())
        yield name, dict(items[i] for i in order), (3, 2), width


def test_stack_equals_the_block_by_block_reference():
    for name, blocks, lead, width in _families():
        got, want = tensor.stack(blocks, lead, width), _reference_stack(blocks, lead, width)
        assert got.shape == want.shape == lead + (width,) * next(iter(blocks.values())).rank
        assert (got.den, got.top, got.nums.dtype) == (want.den, want.top, want.nums.dtype), name
        assert got.nums.ravel().tolist() == want.nums.ravel().tolist(), name
        assert equal(got, want), name
        if got.exact:
            _assert_numerators(got)
        # the stack shares no memory with any block
        assert not any(np.shares_memory(got.nums, t.nums) for t in blocks.values()), name


@st.composite
def _padded(draw):
    """A tensor (exact with dens, or float), identity dims and a leg order
    of the tensor's legs followed by one leg pair per identity."""
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    dims = draw(st.lists(st.integers(1, 3), max_size=3))
    n = math.prod(shape)
    exact = draw(st.booleans())
    xs = draw(st.lists(small_fracs if exact else small_complex, min_size=n, max_size=n))
    a = Tensor(np.array(xs, dtype=object).reshape(shape), exact=exact)
    perm = draw(st.permutations(range(len(shape) + 2 * len(dims))))
    return a, dims, perm


@settings(max_examples=150, deadline=None)
@given(_padded())
def test_with_identities_is_the_permuted_outer_product(case):
    a, dims, perm = case
    want = a
    for d in dims:
        want = tensordot(want, Tensor.identity(d, exact=a.exact), [], [])
    want = permute(want, perm)
    got = with_identities(a, dims, perm)
    assert got.shape == want.shape and got.exact == a.exact
    if a.exact:  # bit for bit: the same den and the same ints, in a's tier
        assert got.den == want.den == a.den
        _assert_numerators(got)
        assert (got.nums.dtype, got.top) == (a.nums.dtype, a.top)
        assert got.nums.ravel().tolist() == want.nums.ravel().tolist()
    else:        # zeros may differ in sign from products with 0j
        assert all(type(x) is complex for x in got.nums.flat)
        assert got.nums.ravel().tolist() == want.nums.ravel().tolist()
    assert not np.shares_memory(got.nums, a.nums)


def test_with_identities_checks_its_leg_order_and_dims_on_every_call():
    a = Tensor([[1, 2], [3, 4]])
    for _ in range(2):  # an error is never cached
        with pytest.raises(ContractionError, match="leg order"):
            with_identities(a, [2], [0, 1, 2])
        with pytest.raises(ContractionError, match="leg order"):
            with_identities(a, [2], [0, 1, 2, 2])
        with pytest.raises(ContractionError, match="positive"):
            with_identities(a, [0], [0, 1, 2, 3])
    one = with_identities(Tensor.scalar(Fraction(1, 3)), [2, 1], [0, 2, 1, 3])
    assert one.shape == (2, 1, 2, 1) and one.entries() == [
        Fraction(1, 3), 0, 0, Fraction(1, 3)]


def _of_objects(nums, den=1, exact=True):
    """The tensor ``nums / den`` in lowest terms, its numerators held as an
    object array of Python ints whatever their size (in float mode, ``nums``
    holds the complex entries)."""
    return Tensor._reduced(np.asarray(nums, dtype=object), den, math.inf, exact)


# numerators on both sides of the int64 tier's bound of 2**62: products of
# two of them, or short sums, wrap in int64 unless the bounds send them to
# objects first
_EDGE = [2 ** 30, 2 ** 31 - 1, 2 ** 31 + 1, 2 ** 61, 2 ** 62 - 1, 2 ** 62,
         2 ** 62 + 1, 2 ** 64]
_NUMERATORS = {"small": st.integers(-9, 9),
               "mid": st.integers(2 ** 30 - 9, 2 ** 31 + 9),
               "edge": st.sampled_from(_EDGE + [-m for m in _EDGE] + [0, 1])}


@st.composite
def _tier_operands(draw):
    """Exact tensors a (p x q), b (q x r) and c (p x q), each with small
    numerators, ones near 2**31 or ones planted at 2**62 and beyond, over a
    den that may share factors with them."""
    p, q, r = (draw(st.integers(1, 3)) for _ in range(3))

    def tensor_of(shape):
        n = math.prod(shape)
        ints = draw(st.lists(_NUMERATORS[draw(st.sampled_from(sorted(_NUMERATORS)))],
                             min_size=n, max_size=n))
        den = draw(st.sampled_from([1, 2, 6, 2 ** 40]))
        return Tensor(np.array([Fraction(k, den) for k in ints], dtype=object)
                      .reshape(shape))
    return tensor_of((p, q)), tensor_of((q, r)), tensor_of((p, q))


_TIER_OPS = {
    "tensordot": lambda a, b, c: tensordot(a, b, [1], [0]),
    "outer": lambda a, b, c: tensordot(a, b, [], []),
    "full contraction": lambda a, b, c: tensordot(a, c, [1, 0], [1, 0]),
    "einsum": lambda a, b, c: tensor.einsum("pq,qr->rp", a, b),
    "einsum to a scalar": lambda a, b, c: tensor.einsum("pq,pq->", a, c),
    "entrywise": lambda a, b, c: tensor.einsum("pq,pq->pq", a, c),
    # j has size 1: each entry is one product, which np.multiply makes
    "summed leg of size 1": lambda a, b, c: tensor.einsum("jk,ij->ik", b[:1], a[:, :1]),
    "stack": lambda a, b, c: tensor.stack({(0,): a, (1,): b, (2,): c}, (3,), 3),
    "gather": lambda a, b, c: a[[0, -1, 0]],
    "entry": lambda a, b, c: b[0, -1],
    "with_identities": lambda a, b, c: with_identities(a, [2], [2, 0, 3, 1]),
    "permute": lambda a, b, c: permute(b, [1, 0]),
}


@settings(max_examples=150, deadline=None)
@given(_tier_operands())
def test_both_tiers_give_the_same_numbers(operands):
    # each operation on int64 numerators, or on a mix, gives the numerators
    # and den it gives on the same tensors held as Python ints; a bound too
    # low would show here as a product that wrapped around
    as_objects = [_of_objects(t.nums, t.den, t.exact) for t in operands]
    for name, op in _TIER_OPS.items():
        got, want = op(*operands), op(*as_objects)
        assert want.nums.dtype == object, name
        assert isinstance(got.nums, np.ndarray), name
        _assert_lowest_terms(got)
        assert (got.shape, got.den) == (want.shape, want.den), name
        assert got.nums.ravel().tolist() == want.nums.ravel().tolist(), name
        assert equal(got, want) and equal(want, got), name
        assert hash(got) == hash(want), name
        for f in got.entries() + ([got.item()] if got.shape == () else []):
            assert type(f.numerator) is int and type(f.denominator) is int, name
        mixed = op(operands[0], *as_objects[1:])
        assert mixed.nums.ravel().tolist() == want.nums.ravel().tolist(), name
    a, b, c = operands
    assert np.array_equal(differences(a, c, 0), differences(*as_objects[::2], 0))
    assert equal(a, c) == equal(as_objects[0], as_objects[2])
    # a contraction the bounds keep below 2**62 stays in int64
    if max(a.top, b.top) < 2 ** 62 and a.top * b.top * a.shape[1] < 2 ** 62:
        assert tensordot(a, b, [1], [0]).nums.dtype == np.int64


def test_a_sum_that_would_wrap_is_made_in_objects():
    # 3 * 2**60 stays in int64; 2 * 2**62 = 2**63 would wrap to -2**63
    under = Tensor([2 ** 30] * 3)
    assert (under.nums.dtype, under.top) == (np.int64, 2 ** 30)
    s = tensordot(under, under, [0], [0])
    assert s.nums.dtype == np.int64 and s.item() == 3 * 2 ** 60
    over = Tensor([2 ** 31] * 2)
    s = tensordot(over, over, [0], [0])
    assert s.nums.dtype == object and s.item() == 2 ** 63
    assert tensordot(over, over, [], []).entries() == [2 ** 62] * 4
    assert tensor.einsum("i,i->", over, over).item() == 2 ** 63
    # four products of about 2**62 are summed
    near = Tensor([[2 ** 31 - 1]] * 4)
    s = tensor.einsum("jk,ij->ik", near, Tensor([[2 ** 31 - 1] * 4]))
    assert s.nums.dtype == object and s.entries() == [4 * (2 ** 31 - 1) ** 2]
    # the edge of the tier: 2**62 - 1 is held in int64, 2**62 in objects
    assert Tensor([np.int64(2 ** 62), Fraction(1, 3)]).entries() == [
        2 ** 62, Fraction(1, 3)]
    assert Tensor([2 ** 62 - 1, 0]).nums.dtype == np.int64
    assert Tensor([-(2 ** 62), 0]).nums.dtype == object
    # brought over a common den, 2**30 becomes 2**70
    tiny, big = Tensor([Fraction(1, 2 ** 40)]), Tensor([2 ** 30])
    s = tensor.stack({(0,): tiny, (1,): big}, (2,), 1)
    assert s.nums.dtype == object and s.entries() == [Fraction(1, 2 ** 40), 2 ** 30]
    assert differences(tiny, big, 0).tolist() == [True]
    assert not differences(big, Tensor([Fraction(2 ** 70, 2 ** 40)]), 0).any()
    zero = Tensor.zeros((1,))
    assert differences(zero, tiny, 0).tolist() == [True]
    # zeros over a den past int64 reduce to den 1; a zero bound times an
    # unbounded one is no bound
    s = tensordot(Tensor([Fraction(1, 2 ** 70)]), zero, [0], [0])
    assert (s.nums.dtype, s.den, s.item()) == (np.int64, 1, 0)
    s = tensordot(zero, Tensor([2 ** 64]), [], [])
    assert (s.nums.dtype, s.entries()) == (object, [0])


def _held(t, how):
    """The int64 tensor t as it is, as a transposed view of a Fortran-order
    copy, as a basic-slice gather ``wide[..., 0]`` that keeps a strided
    view, or as objects."""
    nums = t.nums
    if how == "transposed":
        return Tensor._of(nums.T.copy().T, t.den, t.top, True)
    if how == "sliced":
        return Tensor._of(np.stack([nums, -nums], axis=-1), t.den, t.top, True)[..., 0]
    return _of_objects(nums, t.den) if how == "objects" else t


# from a scalar to 4,352 entries
_EQUAL_SHAPES = [(), (1,), (5,), (2, 3), (3, 1, 4), (8, 8, 8), (4096,), (64, 64),
                 (16, 16, 17)]


@st.composite
def _equal_operands(draw):
    """Two exact tensors of one shape, each held in any way of ``_held``: b's
    numerators are a's, or a's with one planted difference at the first
    entry, at the last, in the high bits only (2**40 against 2**40 + 2**32)
    or in the sign."""
    shape = draw(st.sampled_from(_EQUAL_SHAPES))
    n = math.prod(shape)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    lim = draw(st.sampled_from([9, 2 ** 41]))
    x = np.array(rng.integers(-lim, lim + 1, size=shape), dtype=np.int64)
    y = x.copy()
    plant = draw(st.sampled_from(["none", "first", "last", "high bits", "sign"]))
    k = {"first": 0, "last": n - 1}.get(plant, draw(st.integers(0, n - 1)))
    if plant in ("first", "last"):
        y.flat[k] += 1
    elif plant == "high bits":
        x.flat[k], y.flat[k] = 2 ** 40, 2 ** 40 + 2 ** 32
    elif plant == "sign":
        x.flat[k] = -y.flat[k] or 1
    den = draw(st.sampled_from([1, 1, 6]))

    def exact(nums):
        return Tensor._reduced(nums, den, int(np.abs(nums).max()), True)
    how = st.sampled_from(["contiguous", "transposed", "sliced", "objects"])
    return tuple(_held(exact(nums), draw(how)) for nums in (x, y))


@settings(max_examples=150, deadline=None)
@given(_equal_operands())
def test_exact_equal_is_equal_entries_in_every_tier_and_layout(pair):
    a, b = pair
    same = a.entries() == b.entries()
    assert equal(a, b) == equal(b, a) == same
    assert equal(a, a) and equal(b, b)
    if same:  # the hash reads lists, so it does not depend on the tier
        assert hash(a) == hash(b)


class _Unboxable(np.ndarray):
    """An int64 array whose entries cannot be listed as Python ints."""

    def tolist(self):
        raise AssertionError("tolist() boxes every numerator")


def test_equal_on_two_int64_tensors_never_boxes_the_numerators():
    def unboxable(nums):
        nums = np.asarray(nums, dtype=np.int64)
        return Tensor._of(nums.view(_Unboxable), 3, int(np.abs(nums).max()), True)
    a = unboxable(np.arange(-6, 6).reshape(3, 4))
    assert equal(a, unboxable(np.arange(-6, 6).reshape(3, 4)))
    assert not equal(a, unboxable(np.arange(-6, 6).reshape(3, 4) * [1, 1, 1, -1]))
