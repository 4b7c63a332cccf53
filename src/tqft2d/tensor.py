"""Dense tensors over exact rationals or complex floats.

Entries live in numpy object arrays so that ``Fraction`` arithmetic stays
exact; the same code path handles complex entries with a tolerance.  All
shapes in this project are tiny (dimensions <= ~12), so dense storage and
naive contraction are the right trade-off.

A long exact contraction, such as ``bordism.contract_word``, runs on integer
numerators instead: ``integer_form`` splits an exact tensor into a tensor of
Python ints and one common denominator, the ints go through ``tensordot``
at integer speed, and ``from_integer_form`` at the end gives back the
``Fraction`` tensor.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

DEFAULT_TOL = 1e-9


class ModeMismatchError(TypeError):
    """Raised when exact and approximate tensors are mixed in one operation."""


class ContractionError(ValueError):
    """Raised on malformed contraction requests (bad legs, dim mismatch)."""


def parse_scalar(token, exact=True):
    """Parse ``p/q`` or integer/decimal text into a Fraction (or complex)."""
    if exact:
        return Fraction(token)
    return complex(Fraction(token)) if "/" in str(token) else complex(token)


def format_scalar(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, complex) and value.imag == 0:
        return repr(value.real)
    return repr(value)


class Tensor:
    """Immutable-by-convention dense tensor, row-major, object entries."""

    __slots__ = ("array", "exact", "tol")

    def __init__(self, array, exact=True, tol=DEFAULT_TOL):
        arr = np.asarray(array, dtype=object)
        self.array = arr
        self.exact = exact
        self.tol = tol

    @classmethod
    def scalar(cls, value, exact=True, tol=DEFAULT_TOL):
        if exact and not isinstance(value, Fraction):
            value = Fraction(value)
        return cls(np.array(value, dtype=object), exact=exact, tol=tol)

    @classmethod
    def zeros(cls, shape, exact=True, tol=DEFAULT_TOL):
        zero = Fraction(0) if exact else complex(0)
        return cls(np.full(shape, zero, dtype=object), exact=exact, tol=tol)

    @classmethod
    def identity(cls, n, exact=True, tol=DEFAULT_TOL):
        t = cls.zeros((n, n), exact=exact, tol=tol)
        one = Fraction(1) if exact else complex(1)
        for i in range(n):
            t.array[i, i] = one
        return t

    @property
    def shape(self):
        return tuple(self.array.shape)

    @property
    def rank(self):
        return self.array.ndim

    def item(self):
        if self.array.ndim != 0:
            raise ContractionError("item() on a tensor with %d legs" % self.array.ndim)
        return self.array[()]

    def entries(self):
        """Row-major flat list of entries."""
        return list(self.array.reshape(-1))

    def __repr__(self):
        return "Tensor(shape=%r, exact=%r)" % (self.shape, self.exact)

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return equal(self, other)

    def __hash__(self):
        return hash((self.shape, tuple(self.entries())))


def _check_modes(a, b):
    if a.exact != b.exact:
        raise ModeMismatchError("cannot mix exact and approximate tensors")


def tensordot(a: Tensor, b: Tensor, axes_a, axes_b) -> Tensor:
    """Contract legs ``axes_a`` of a against ``axes_b`` of b (pairwise)."""
    _check_modes(a, b)
    axes_a = list(axes_a)
    axes_b = list(axes_b)
    if len(axes_a) != len(axes_b):
        raise ContractionError("axis lists differ in length")
    for i, j in zip(axes_a, axes_b):
        if a.shape[i] != b.shape[j]:
            raise ContractionError(
                "dimension mismatch contracting leg %d (dim %d) with leg %d (dim %d)"
                % (i, a.shape[i], j, b.shape[j]))
    if axes_a:
        arr = np.tensordot(a.array, b.array, axes=(axes_a, axes_b))
    else:
        arr = np.multiply.outer(a.array, b.array)
    return Tensor(arr, exact=a.exact, tol=min(a.tol, b.tol))


def permute(a: Tensor, perm) -> Tensor:
    """Reorder legs: new leg i is old leg perm[i]."""
    return Tensor(np.transpose(a.array, perm), exact=a.exact, tol=a.tol)


def integer_form(a: Tensor):
    """(Tensor of int numerators, den) with ``a == from_integer_form(ints, den)``.

    ``den`` is the least common denominator of the entries of the exact
    tensor ``a``; the int tensor keeps ``a``'s shape, ``exact`` and ``tol``.
    """
    if not a.exact:
        raise ModeMismatchError("integer_form needs an exact tensor")
    flat = a.array.reshape(-1)
    den = math.lcm(1, *(x.denominator for x in flat))
    ints = np.array([x.numerator * (den // x.denominator) for x in flat],
                    dtype=object).reshape(a.shape)
    return Tensor(ints, exact=True, tol=a.tol), den


_FRACTION = np.frompyfunc(Fraction, 1, 1)
_FRACTION_OVER = np.frompyfunc(Fraction, 2, 1)


def from_integer_form(ints: Tensor, den) -> Tensor:
    """The exact tensor with entries ``Fraction(n, den)`` for the int
    numerators n of ``ints``; it keeps their shape and ``tol``."""
    # Fraction(n) skips the gcd that Fraction(n, 1) pays for
    arr = _FRACTION(ints.array) if den == 1 else _FRACTION_OVER(ints.array, den)
    return Tensor(arr, exact=True, tol=ints.tol)


def equal(a: Tensor, b: Tensor) -> bool:
    if a.shape != b.shape or a.exact != b.exact:
        return False
    if a.exact:
        return all(x == y for x, y in zip(a.array.reshape(-1), b.array.reshape(-1)))
    tol = max(a.tol, b.tol)
    return all(abs(x - y) <= tol for x, y in zip(a.array.reshape(-1), b.array.reshape(-1)))


def invert_matrix(a: Tensor):
    """Exact (or tolerance-pivoted) inverse of a square rank-2 tensor.

    Returns None when the matrix is singular.
    """
    if a.rank != 2 or a.shape[0] != a.shape[1]:
        raise ContractionError("invert_matrix needs a square rank-2 tensor")
    n = a.shape[0]
    m = [list(row) for row in a.array]
    one = Fraction(1) if a.exact else complex(1)
    zero = Fraction(0) if a.exact else complex(0)
    inv = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = None
        if a.exact:
            for r in range(col, n):
                if m[r][col] != 0:
                    pivot = r
                    break
        else:
            r_best = max(range(col, n), key=lambda r: abs(m[r][col]))
            if abs(m[r_best][col]) > a.tol:
                pivot = r_best
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r == col:
                continue
            f = m[r][col]
            if f == 0:
                continue
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
            inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return Tensor(np.array(inv, dtype=object), exact=a.exact, tol=a.tol)
