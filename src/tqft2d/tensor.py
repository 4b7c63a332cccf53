"""Dense tensors over exact rationals or complex floats.

An exact tensor holds ``nums``, an integer array of numerators, over
``den``, one positive int, in lowest terms: the gcd of ``den`` and all the
numerators is 1, so equal tensors hold equal numbers.  A contraction
multiplies the dens and contracts the numerators, and ``equal`` compares the
dens and then the numerators.  ``tensordot`` and ``einsum`` contract through
one kernel: a planner lays out each pattern once (``_plan``), as one
``np.matmul`` or ``np.multiply`` between transposes and reshapes, and one
executor runs every layout (``_contract``).  A float tensor holds its
complex entries in ``nums`` with ``den`` fixed at 1, so both modes share
one code path.  Only this module reads numerators and dens: other modules
stack blocks (``stack``), gather entries (``t[idx]``, ``gather``), contract
(``tensordot``, ``einsum``), lay identity legs beside a tensor
(``with_identities``) and compare, each result in lowest terms.  A tensor
carries no tolerance: the algebra, bundle or oracle that owns it does, and
passes it to the comparisons (``differences``, ``first_difference``,
``equal``) and to ``invert_matrix``'s pivoting.  ``Fraction``s appear only at the edges: the
``Tensor`` constructor and ``parse_scalar`` take them in, ``item()`` and
``entries()`` give them out, over Python ints, and ``format_scalar`` prints
them (``tests/test_source.py`` holds this).  Integer input makes none:
``parse_scalars`` reads a line of integer text to Python ints in one
``int`` map, and the constructor takes entries that are all Python ints as
numerators over den 1 directly.  The exact inverse is fraction-free
elimination on the numerators, with one den put on the result.

The numerators come in two tiers, chosen by a bound the tensor carries in
``top``.  When every numerator is known to lie within ``top`` < 2**62 they
are an ``int64`` array, and numpy multiplies and sums them in machine
integers; otherwise they are an object array of Python ints and ``top`` is
infinite.  Each operation works out the bound of its result from those of
its operands, with no scan of the entries: a contraction summing n products
is bounded by ``top_a * top_b * n``.  When that bound reaches 2**62 one
operand becomes objects first, numpy multiplies int64 by objects as objects,
and the result stays in objects from there.  Float tensors keep object
complex entries and an infinite ``top``.  ``equal`` compares two int64
tiers as raw bytes, one C comparison, since ``.tolist()`` would box every
entry into a new Python int; when either side holds objects it compares
flat lists of ints, which agree across tiers.
"""

from __future__ import annotations

import cmath
import itertools
import math
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import numpy as np

DEFAULT_TOL = 1e-9

# an int64 tensor's numerators lie within a bound below _LIMIT, so a sum of
# products that the bounds keep below _LIMIT cannot wrap
_LIMIT = 1 << 62
# the bound of an object array: none below _LIMIT is known.  A product with
# it is infinite, or nan for a zero factor, and either fails ``< _LIMIT``
_UNBOUNDED = math.inf
_new = object.__new__


class ModeMismatchError(TypeError):
    """Raised when exact and approximate tensors are mixed in one operation."""


class ContractionError(ValueError):
    """Raised on malformed contraction requests (bad legs, dim mismatch)."""


class InputError(ValueError):
    """Bad input (a file, word or option); the command line exits 2 on it."""

    def at_line(self, number, line):
        """This error, its message now naming line ``number`` and its text."""
        self.args = ("line %d: %s in %r" % (number, self, line),)
        return self


def content_lines(text):
    """(number, text without its ``#`` comment) of each line that has any."""
    return [(n, line) for n, raw in enumerate(text.splitlines(), 1)
            if (line := raw.split("#", 1)[0].strip())]


def read_text(path):
    """The text of the UTF-8 file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError("%s is no UTF-8 text: %s" % (path, exc)) from None


def _read(convert, token, what):
    """``convert(token)``, or an InputError naming ``what`` (and Python's
    limit on the digits of an int when that is what failed)."""
    try:
        return convert(token)
    except (ValueError, ZeroDivisionError) as exc:
        limit = str(exc).startswith("Exceeds the limit")
        raise InputError("bad %s%s" % (what, ": %s" % exc if limit else "")) from None


def parse_int(token, what):
    """Parse integer text; ``what`` names the number in an InputError."""
    return _read(int, token, what)


def parse_scalar(token, exact=True):
    """Parse ``p/q`` or integer/decimal text into a Fraction (or a finite
    complex)."""
    if exact:
        return _read(Fraction, token, "number")
    value = _read(complex if "/" not in str(token) else
                  lambda t: complex(Fraction(t)), token, "number")
    if not cmath.isfinite(value):
        raise InputError("bad number")
    return value


def parse_scalars(tokens, exact=True):
    """``parse_scalar`` of each token, as a list.  In exact mode a line of
    integer text is read by one ``int`` map, to Python ints and no Fraction
    per entry: wherever ``int`` reads a token, ``Fraction`` reads the same
    number.  Any other line (``p/q``, decimals, bad tokens, the digit limit)
    is read token by token, with ``parse_scalar``'s values and errors."""
    if exact:
        try:
            return list(map(int, tokens))
        except ValueError:
            pass
    return [parse_scalar(t, exact) for t in tokens]


def format_scalar(value):
    """Text of a scalar: ``p/q`` or ``p`` for a Fraction, of any length."""
    if isinstance(value, Fraction):
        # Decimal converts ints without Python's digit limit, which stays on
        # the parsers' int(text)
        num = str(Decimal(value.numerator))
        return num if value.denominator == 1 else \
            "%s/%s" % (num, Decimal(value.denominator))
    if isinstance(value, complex) and value.imag == 0:
        return repr(value.real)
    return repr(value)


class Tensor:
    """Immutable-by-convention dense tensor, row-major: entry i is
    ``nums[i] / den``, every numerator within ``top`` (see the module
    docstring)."""

    __slots__ = ("nums", "den", "exact", "top")

    def __init__(self, entries, exact=True):
        """The tensor of ``entries``: ints or Fractions in exact mode (all
        Python ints are the numerators as they are, over den 1), numbers
        stored as Python complex in float mode."""
        nums = np.asarray(entries, dtype=object)
        den, top = 1, _UNBOUNDED
        if not exact:
            nums = np.array([complex(x) for x in nums.flat],
                            dtype=object).reshape(nums.shape)
        else:
            vals = nums.ravel().tolist()
            # Python ints are their own numerators over den 1; anything else
            # (Fractions, bools, numpy scalars) is brought to a common den
            if set(map(type, vals)) != {int}:
                # a numpy scalar becomes a Python number first: a Fraction of
                # it would keep a numerator that wraps around
                vals = [x if isinstance(x, (int, Fraction)) else
                        Fraction(x.item() if isinstance(x, np.generic) else x)
                        for x in vals]
                # over the lcm of reduced denominators the numerators share
                # no factor with it, so this is already lowest terms
                den = math.lcm(1, *(x.denominator for x in vals))
                vals = [x.numerator * (den // x.denominator) for x in vals]
            top = max(map(abs, vals), default=0)
            if top < _LIMIT:
                nums = np.array(vals, dtype=np.int64).reshape(nums.shape)
            else:
                nums = np.array(vals, dtype=object).reshape(nums.shape)
                top = _UNBOUNDED
        self.nums, self.den, self.exact, self.top = nums, den, exact, top

    @classmethod
    def _reduced(cls, nums, den, top, exact):
        """The tensor ``nums / den`` in lowest terms, for numerators of the
        tier ``top`` names: int64 within ``top``, or objects."""
        if den != 1:
            g = math.gcd(den, *nums.ravel().tolist())  # Python ints from either tier
            if g != 1:
                if top < _LIMIT:
                    # a g past _LIMIT divides only zeros, which it leaves as they are
                    if g < _LIMIT:
                        nums = np.asarray(nums // g)  # a 0-d quotient is a scalar
                    top //= g
                else:
                    nums = np.asarray(nums // g, dtype=object)
                den //= g
        return _of(nums, den, top, exact)

    @staticmethod
    def _of(nums, den, top, exact):
        """A tensor of numerators ``nums`` within ``top`` over ``den``,
        already in lowest terms."""
        t = _new(Tensor)
        t.nums = nums
        t.den = den
        t.top = top
        t.exact = exact
        return t

    @classmethod
    def scalar(cls, value, exact=True):
        return cls(np.array(value, dtype=object), exact=exact)

    @classmethod
    def zeros(cls, shape, exact=True):
        if exact:
            return _of(np.zeros(shape, dtype=np.int64), 1, 0, True)
        return _of(np.full(shape, complex(0), dtype=object), 1, _UNBOUNDED, False)

    @classmethod
    def identity(cls, n, exact=True):
        if exact:
            return _of(np.eye(n, dtype=np.int64), 1, 1, True)
        t = cls.zeros((n, n), exact=False)
        t.nums[range(n), range(n)] = complex(1)
        return t

    @property
    def shape(self):
        return tuple(self.nums.shape)

    @property
    def rank(self):
        return self.nums.ndim

    def item(self):
        if self.nums.ndim != 0:
            raise ContractionError("item() on a tensor with %d legs" % self.nums.ndim)
        n = self.nums.item()  # a Python int or complex, from either tier
        return Fraction(n, self.den) if self.exact else n

    def entries(self):
        """Row-major flat list of entries: Fractions of Python ints in exact
        mode."""
        nums = self.nums.ravel().tolist()
        if not self.exact:
            return nums
        den = self.den
        return [Fraction(n, den) for n in nums]

    def __getitem__(self, idx):
        """Numpy indexing, gathers included; a part may need a smaller den."""
        nums = self.nums[idx]
        if type(nums) is not np.ndarray:  # a single entry, made a 0-d array again
            nums = np.asarray(nums, dtype=self.nums.dtype)
        if self.den == 1:
            return _of(nums, 1, self.top, self.exact)
        return Tensor._reduced(nums, self.den, self.top, self.exact)

    def __repr__(self):
        return "Tensor(shape=%r, exact=%r)" % (self.shape, self.exact)

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return equal(self, other)

    def __hash__(self):
        if not self.exact:  # equal within a tolerance: only the shape is sure
            return hash(self.shape)
        return hash((self.shape, self.den, tuple(self.nums.ravel().tolist())))


# bound once, so a contraction does not look up the class
_of = Tensor._of


def tensordot(a: Tensor, b: Tensor, axes_a, axes_b) -> Tensor:
    """Contract legs ``axes_a`` of a against ``axes_b`` of b (pairwise);
    with no legs paired, the outer product.

    The steps of ``np.tensordot``, without its argument handling: the paired
    legs go to the end of a and the front of b, both are flattened to
    matrices, and ``np.matmul`` multiplies them, summing each entry's
    products in the order ``np.dot`` does, so float results are bit for bit
    ``np.tensordot``'s.  Where the paired legs have size 1 (the outer product
    among them) ``np.multiply`` broadcasts a's kept legs against b's instead.
    Axes are distinct leg indices 0..rank-1.  The axis counts and leg
    dimensions are checked, and the layout worked out, once per pattern of
    both shapes and both axis lists (``_layout``); a pattern is cached only
    once it has passed, so every call is checked.  ``_contract`` runs the
    layout, as it runs ``einsum``'s, and bounds the result.
    """
    return _contract(a, b, _layout(a.nums.shape, b.nums.shape, tuple(axes_a), tuple(axes_b)))


def einsum(spec, *operands) -> Tensor:
    """``np.einsum(spec, a, b)`` of two tensors of one mode, over the
    product of their dens, for a pairwise spec such as ``"gab,gbc->gca"``:
    ``->`` and the output, one distinct label per leg of each operand, every
    label of one operand alone on an output leg, and one dimension on the
    legs of each label.

    It runs as one batched matrix product: the labels both operands and the
    output name are the batch, those the output leaves out are summed, and
    the rest are kept.  The layout is worked out once per pattern of the
    spec and the shapes (``_contraction``), and ``_contract`` runs it.  Any
    other spec (``...``, no ``->``, one or three operands, a label repeated
    in one operand or summed within one, a leg of size 1 against a longer
    one) raises ContractionError: contract two at a time, and sum a leg out
    against a vector of ones."""
    plan = _contraction(spec, tuple([t.nums.shape for t in operands]))
    a, b = operands
    return _contract(a, b, plan)


def _contract(a: Tensor, b: Tensor, plan) -> Tensor:
    """a contracted with b as ``plan`` lays out (see ``_plan``): the
    transposes and reshapes that move entries, the product, and the
    product's legs put in output order.

    Each entry sums k products, k the size of the summed legs, so it lies
    within ``a.top * b.top * k``: int64 operands under that bound contract
    in int64, and otherwise in objects.  A den of 1 is lowest terms as it
    is; only a larger den is reduced.
    """
    exact = a.exact
    if exact != b.exact:
        raise ModeMismatchError("cannot mix exact and approximate tensors")
    order_a, mat_a, order_b, mat_b, product, legs, out, k = plan
    x, y = a.nums, b.nums
    top = a.top * b.top * k
    if not top < _LIMIT:  # nan too, a zero bound times objects
        if top < _UNBOUNDED:  # two int64 operands whose sums may not fit
            x = x.astype(object)
        top = _UNBOUNDED
    # each step that would leave its array as it is is None
    if order_a is not None:
        x = x.transpose(order_a)
    if mat_a is not None:
        x = x.reshape(mat_a)
    if order_b is not None:
        y = y.transpose(order_b)
    if mat_b is not None:
        y = y.reshape(mat_b)
    r = product(x, y)
    if legs is not None:
        r = r.reshape(legs)
    if out is not None:
        r = r.transpose(out)
    den = a.den * b.den
    if den == 1:
        return _of(r, 1, top, exact)
    return Tensor._reduced(r, den, top, exact)


@lru_cache(maxsize=1024)
def _layout(shape_a, shape_b, axes_a, axes_b):
    """How ``tensordot`` contracts a of ``shape_a`` with b of ``shape_b``:
    the ``_plan`` of a's kept legs then its paired ones, b's paired legs
    then its kept ones, with no batch and the output in product order.

    Raises ContractionError when the axis lists differ in length, an axis
    is negative, repeated or past its tensor's last leg, or a paired leg's
    dimensions differ; an error is never cached.
    """
    if len(axes_a) != len(axes_b):
        raise ContractionError("axis lists differ in length")
    for axes, rank in ((axes_a, len(shape_a)), (axes_b, len(shape_b))):
        for k, i in enumerate(axes):
            if not 0 <= i < rank or i in axes[:k]:
                raise ContractionError("bad axis %d in %s for a tensor with %d legs"
                                       % (i, list(axes), rank))
    for i, j in zip(axes_a, axes_b):
        if shape_a[i] != shape_b[j]:
            raise ContractionError(
                "dimension mismatch contracting leg %d (dim %d) with leg %d (dim %d)"
                % (i, shape_a[i], j, shape_b[j]))
    keep_a = tuple(k for k in range(len(shape_a)) if k not in axes_a)
    keep_b = tuple(k for k in range(len(shape_b)) if k not in axes_b)
    return _plan(shape_a, keep_a + axes_a, shape_b, axes_b + keep_b, 0, len(axes_a),
                 tuple(range(len(keep_a) + len(keep_b))))


@lru_cache(maxsize=1024)
def _contraction(spec, shapes):
    """How ``einsum`` runs ``spec`` on operands of ``shapes``: the ``_plan``
    of the batch, kept and summed legs, the batch and kept legs in output
    order and the summed legs in a's.

    Raises ContractionError, naming the spec, when it is no pairwise
    contraction of operands of ``shapes`` (see ``einsum``) or two legs of
    one label have different dimensions; an error is never cached.
    """
    ins, arrow, out = spec.partition("->")
    terms = ins.split(",")
    if not (arrow and len(terms) == len(shapes) == 2 and len(set(out)) == len(out)
            and all(len(t) == len(s) == len(set(t)) for t, s in zip(terms, shapes))
            and set(terms[0]) ^ set(terms[1]) <= set(out) <= set(terms[0] + terms[1])):
        raise ContractionError("einsum %r on shapes %s is no pairwise contraction"
                               % (spec, list(shapes)))
    a, b = terms
    dims = dict(zip(a, shapes[0]))
    for c, d in zip(b, shapes[1]):
        if dims.setdefault(c, d) != d:
            raise ContractionError("dimension mismatch on label %r in %r: %d and %d"
                                   % (c, spec, dims[c], d))
    batch = [c for c in out if c in a and c in b]
    keep_a = [c for c in out if c in a and c not in b]
    keep_b = [c for c in out if c in b and c not in a]
    summed = [c for c in a if c not in out]
    legs = batch + keep_a + keep_b
    return _plan(shapes[0], tuple(map(a.index, batch + keep_a + summed)),
                 shapes[1], tuple(map(b.index, batch + summed + keep_b)),
                 len(batch), len(summed), tuple(map(legs.index, out)))


def _plan(shape_a, order_a, shape_b, order_b, batch, summed, out):
    """The layout of a pairwise contraction, which ``_contract`` runs.

    a's legs are taken in ``order_a``: the ``batch`` legs it shares with b
    and the output, the legs it keeps, then the ``summed`` legs it sums
    against b's; b's in ``order_b``: the batch legs, the summed legs in the
    same order, then the legs it keeps.  ``out`` is the order that takes the
    product's legs (batch, a's kept, b's kept) to the output's.

    Returns ``(order_a, mat_a, order_b, mat_b, product, legs, out, k)``: a's
    transpose order and the shape it is then reshaped to, the same for b,
    the product, the shape the product is reshaped to and the order that
    takes that to the output, and k, the size of the summed legs.  Each step
    is None where it would leave its array as it is: an order that moves no
    leg of size above 1 leaves every entry in place, and the product's legs
    then take the output's shape.  For k = 1 the product is ``np.multiply``,
    which broadcasts a, laid out as (batch, kept, 1 per leg b keeps), against
    b, laid out as (batch, 1 per leg a keeps, kept) or, with no batch, as its
    kept legs alone, and so makes the product's legs with no reshape.  For
    any other k it is ``np.matmul`` of a as (batch, M, K) and b as
    (batch, K, N), with no batch dimension where there is no batch.
    """
    dims_a = tuple(shape_a[i] for i in order_a)
    dims_b = tuple(shape_b[i] for i in order_b)
    cut = len(dims_a) - summed
    lead, keep_a, keep_b = dims_a[:batch], dims_a[batch:cut], dims_b[batch + summed:]
    k = math.prod(dims_a[cut:])
    legs = lead + keep_a + keep_b
    if k == 1:
        product = np.multiply
        # a product of no legs is made as one entry: numpy gives a scalar
        # for the product of two 0-d arrays
        mat_a = lead + keep_a + (1,) * len(keep_b) or (1,)
        mat_b = lead + (1,) * len(keep_a) + keep_b if batch else keep_b
        made = legs or (1,)
    else:
        product = np.matmul
        rows = (math.prod(lead),) if batch else ()
        mat_a, mat_b = rows + (math.prod(keep_a), k), rows + (k, math.prod(keep_b))
        # with no batch, an operand that keeps no leg is laid out as the
        # vector (K,), which matmul takes as a row or column, so a vector
        # operand needs no reshape; two vectors would make a scalar
        if not batch and not keep_b:
            mat_b = (k,)
        elif not batch and not keep_a:
            mat_a = (k,)
        made = mat_a[:-1] + mat_b[len(rows) + 1:]

    def moves(order, shape):
        # moving legs of size 1 alone leaves every entry where it is
        big = [i for i in order if shape[i] != 1]
        return None if big == sorted(big) else order
    final = moves(out, legs)
    shape = legs if final is not None else tuple(legs[i] for i in out)
    order_a, order_b = moves(order_a, shape_a), moves(order_b, shape_b)
    return (order_a, None if mat_a == (shape_a if order_a is None else dims_a) else mat_a,
            order_b, None if mat_b == (shape_b if order_b is None else dims_b) else mat_b,
            product, None if shape == made else shape, final, k)


def permute(a: Tensor, perm) -> Tensor:
    """Reorder legs, new leg i being old leg perm[i], into a fresh array."""
    return _of(a.nums.transpose(perm).copy(), a.den, a.top, a.exact)


def with_identities(a: Tensor, dims, perm) -> Tensor:
    """``permute(a ⊗ I_dims[0] ⊗ ... ⊗ I_dims[-1], perm)`` into a fresh
    array, with no multiplication: the output is allocated once in its
    final leg order, zero-filled, and a's numerators are copied onto the
    diagonal of each identity's leg pair.  The den stays a's, still in
    lowest terms.  The flat output positions are worked out once per
    pattern of a's shape, ``dims`` and ``perm`` (``_diagonal``)."""
    idx, shape = _diagonal(a.nums.shape, tuple(dims), tuple(perm))
    # np.zeros fills a's tier with 0 (the int 0 for objects), and twice as
    # fast as np.full
    out = np.zeros(shape, dtype=a.nums.dtype) if a.exact else \
        np.full(shape, complex(0), dtype=object)
    # written through a flat view, so the tensor keeps no view of its own
    out.reshape(-1)[idx] = a.nums.reshape(-1, 1)
    return _of(out, a.den, a.top, a.exact)


@lru_cache(maxsize=1024)
def _diagonal(shape, dims, perm):
    """Where ``with_identities`` writes a's entries: a read-only int array
    whose row i holds the flat output positions of a's i-th entry
    (row-major), one per diagonal entry of the identities' product, and the
    output shape.

    Raises ContractionError when ``perm`` is no order of the legs of a
    followed by one (input, output) leg pair per identity, or a dim is
    below 1; an error is never cached.
    """
    full = shape + tuple(d for d in dims for _ in (0, 1))
    if sorted(perm) != list(range(len(full))):
        raise ContractionError("bad leg order %s for %d legs" % (list(perm), len(full)))
    if any(d < 1 for d in dims):
        raise ContractionError("identity dimensions must be positive: %s" % list(dims))
    out_shape = tuple(full[k] for k in perm)
    # each output position, its legs put back in the order of ``full``
    pos = np.arange(math.prod(out_shape)).reshape(out_shape)
    pos = pos.transpose(np.argsort(perm))
    rank = len(shape)
    for _ in dims:  # the diagonal of each identity's leg pair, moved last
        pos = np.diagonal(pos, axis1=rank, axis2=rank + 1)
    idx = np.ascontiguousarray(pos).reshape(math.prod(shape), -1)
    idx.setflags(write=False)  # shared by every call of the pattern
    return idx, out_shape


def _common_mode(tensors):
    """The mode shared by ``tensors``; ModeMismatchError when they mix."""
    exact = tensors[0].exact
    for t in tensors:
        if t.exact != exact:
            raise ModeMismatchError("cannot mix exact and approximate tensors")
    return exact


def stack(blocks, lead, width) -> Tensor:
    """``blocks`` (index tuple over ``lead`` -> Tensor, all of one rank and
    mode) as one tensor of shape ``lead + (width,) * rank``, each block
    zero-padded to ``width`` on every leg.

    The mode, den and bound are taken once per distinct block object (a
    constant bundle shares one tensor across all its keys).  A family of
    full-size blocks over one den is written with one scatter, the keys
    and the blocks read from the same dict, so the key order does not
    matter; a family with padded blocks, or over several dens, is written
    block by block."""
    distinct = list({id(t): t for t in blocks.values()}.values())
    kinds = {(t.exact, t.den, t.nums.shape) for t in distinct}
    exact = _common_mode(distinct) if len(kinds) > 1 else distinct[0].exact
    # a prime of the lcm divides some block's den fully, and that block has a
    # numerator the prime does not divide: in lowest terms with no gcd
    den = math.lcm(*(d for _, d, _ in kinds))
    # a block brought to den by a factor k is within max(top, 1) * k, a
    # bound that int64 holds only if it holds k as well
    top = max(max(t.top, 1) * (den // t.den) for t in distinct)
    full = (width,) * distinct[0].rank
    if top < _LIMIT:
        out = np.zeros(lead + full, dtype=np.int64)
    else:
        top = _UNBOUNDED
        out = np.full(lead + full, 0 if exact else complex(0), dtype=object)
    if kinds == {(exact, den, full)}:
        keys = np.fromiter(itertools.chain.from_iterable(blocks), np.intp,
                           len(blocks) * len(lead)).reshape(len(blocks), len(lead))
        out[tuple(keys.T)] = distinct[0].nums if len(distinct) == 1 else \
            np.array([t.nums for t in blocks.values()])
        return _of(out, den, top, exact)
    for key, t in blocks.items():
        nums = np.asarray(t.nums, dtype=out.dtype)
        if t.den != den:
            nums = nums * (den // t.den)
        if nums.shape == full:
            out[key] = nums
        else:
            out[key + tuple(map(slice, nums.shape))] = nums
    return _of(out, den, top, exact)


def gather(a: Tensor, rows) -> Tensor:
    """The blocks of ``a``, a stack over two leading legs, at flat
    row-major positions ``rows`` of those legs, with one ``np.take``: a
    (G x G)-indexed stack gathered at rows ``g * |G| + h`` gives the blocks
    at (g, h), as ``a[g, h]`` does.  A part may need a smaller den, as in
    indexing."""
    nums = a.nums
    nums = nums.reshape((-1,) + nums.shape[2:]).take(rows, axis=0)
    if a.den == 1:
        return _of(nums, 1, a.top, a.exact)
    return Tensor._reduced(nums, a.den, a.top, a.exact)


def differences(a: Tensor, b: Tensor, tol):
    """Boolean array over the common shape of a and b, true where they
    differ: as fractions in exact mode, by more than ``tol`` in float mode."""
    _common_mode((a, b))
    if a.shape != b.shape:
        raise ContractionError("cannot compare shapes %s and %s" % (a.shape, b.shape))
    if not a.exact:
        return np.asarray(abs(a.nums - b.nums) > tol)
    x, y = a.nums, b.nums
    if a.den == b.den:
        return np.asarray(x != y)
    # each side times the other's den, which int64 must hold as well
    if not max(a.top, b.top, 1) * max(a.den, b.den) < _LIMIT:
        x, y = np.asarray(x, dtype=object), np.asarray(y, dtype=object)
    return np.asarray(x * b.den != y * a.den)


def first_difference(a: Tensor, b: Tensor, tol):
    """The first row-major index at which a and b differ (see
    ``differences``), or None when they agree."""
    diff = differences(a, b, tol)
    if not diff.any():
        return None
    return tuple(int(i) for i in np.unravel_index(int(diff.argmax()), diff.shape))


def equal(a: Tensor, b: Tensor, tol=DEFAULT_TOL) -> bool:
    """Same shape and mode, and no entry differs (see ``differences``).

    Exact tensors are in lowest terms, so equal ones share their den and
    their numerators.  Two int64 tiers compare their raw numerator bytes in
    row-major order, one C comparison: ``.tolist()`` would box every entry
    into a new Python int first.  When either side holds objects the
    numerators are compared as flat lists of ints, which holds across tiers.
    """
    x, y = a.nums, b.nums
    if x.shape != y.shape or a.exact != b.exact:
        return False
    if not a.exact:
        return first_difference(a, b, tol) is None
    if a.den != b.den:
        return False
    if max(a.top, b.top) < _LIMIT:  # both int64
        return x.tobytes() == y.tobytes()
    return x.ravel().tolist() == y.ravel().tolist()


def invert_matrix(a: Tensor, tol=DEFAULT_TOL):
    """Inverse of a square rank-2 tensor, or None when it is singular.

    In exact mode, fraction-free Gauss–Jordan elimination on the integer
    numerators N of a = N / den (Bareiss): each step brings the pivot row
    into every other row of [N | I] and divides by the step's previous
    pivot, which every entry is an exact multiple of, so the entries stay
    integers and the left half ends as D·I, D = ±det N, and the right half
    as D·N⁻¹.  The inverse den·N⁻¹ is den times that right half over D,
    its sign carried by the numerators so that the den is positive, in
    lowest terms: no Fraction is made.  In float mode, Gauss–Jordan with
    partial pivoting, where a pivot no larger than ``tol`` counts as zero.
    """
    if a.rank != 2 or a.shape[0] != a.shape[1]:
        raise ContractionError("invert_matrix needs a square rank-2 tensor")
    n = a.shape[0]
    if a.exact:
        return _invert_numerators(a.nums.tolist(), a.den)
    flat = a.entries()
    m = [flat[i * n:(i + 1) * n] for i in range(n)]
    one, zero = complex(1), complex(0)
    inv = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if not abs(m[pivot][col]) > tol:
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
    # shaped (n, n) even when n is 0, where the rows alone say nothing
    return Tensor(np.array(inv, dtype=object).reshape(n, n), exact=False)


def _invert_numerators(rows, den):
    """``invert_matrix`` of the exact matrix ``rows / den``, ``rows`` a list
    of lists of Python ints.  Each row holds the columns of N not yet
    eliminated, then its row of the right half; the pivot column of a step
    is dropped once it is cleared, as it holds the pivot in its own row and
    zero in the others."""
    n = len(rows)
    m = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][0]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        top = m[col]
        p = top[0]
        for r in range(n):
            if r != col:
                f = m[r][0]
                m[r] = [(p * x - f * y) // prev for x, y in zip(m[r][1:], top[1:])]
        m[col] = top[1:]
        prev = p
    if prev < 0:  # the den is positive; the sign goes to the numerators
        prev, den = -prev, -den
    nums = [x * den for row in m for x in row]
    g = math.gcd(prev, *nums)
    nums = [x // g for x in nums]
    top = max(map(abs, nums), default=0)
    if top < _LIMIT:
        return _of(np.array(nums, dtype=np.int64).reshape(n, n), prev // g, top, True)
    return _of(np.array(nums, dtype=object).reshape(n, n), prev // g, _UNBOUNDED, True)
