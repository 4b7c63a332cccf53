"""Commutative Frobenius algebras with axiom validation and derived structure.

The comultiplication is always derived from the counit via the inverse
pairing, so the Frobenius relation holds by construction whenever the
pairing is invertible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .groups import FiniteGroup, trivial_group
from .report import ValidationReport
from .tensor import (DEFAULT_TOL, InputError, Tensor, content_lines, differences,
                     equal, format_scalar, invert_matrix, parse_int,
                     parse_scalars, permute, read_text, tensordot)


class StructureError(InputError):
    """Shapes or required data malformed (raised before axiom checks)."""


class DegeneratePairingError(InputError):
    """The counit pairing is singular; fission cannot be derived."""


@dataclass(frozen=True)
class FrobeniusAlgebra:
    """Structure constants mul[i,j,k], unit vector and counit covector, and
    the float-mode tolerance of every comparison made on them."""

    dim: int
    basis: tuple
    mul: Tensor      # shape (n, n, n): e_i e_j = sum_k mul[i,j,k] e_k
    unit: Tensor     # shape (n,)
    counit: Tensor   # shape (n,)
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        n = self.dim
        if n <= 0:
            raise StructureError("dimension must be positive")
        if len(self.basis) != n or len(set(self.basis)) != n:
            raise StructureError("need %d distinct basis labels" % n)
        if self.mul.shape != (n, n, n):
            raise StructureError("structure constants must have shape (n,n,n)")
        if self.unit.shape != (n,):
            raise StructureError("unit must have shape (n,)")
        if self.counit.shape != (n,):
            raise StructureError("counit must have shape (n,)")
        if not (self.mul.exact == self.unit.exact == self.counit.exact):
            raise StructureError("mixed scalar modes in algebra data")

    def __eq__(self, other):
        if not isinstance(other, FrobeniusAlgebra):
            return NotImplemented
        tol = max(self.tol, other.tol)
        return (self.dim == other.dim and self.basis == other.basis
                and equal(self.mul, other.mul, tol)
                and equal(self.unit, other.unit, tol)
                and equal(self.counit, other.counit, tol))

    def __hash__(self):
        # without tol, as in __eq__; a float tensor hashes only its shape
        return hash((self.dim, self.basis, self.mul, self.unit, self.counit))

    @property
    def exact(self):
        return self.mul.exact

    @cached_property
    def delta(self):
        """The comultiplication, derived once per algebra for ``evaluate``,
        ``handle`` and the constant bundles; never cached for a degenerate
        pairing, so every access raises again."""
        return comultiplication(self)

    @cached_property
    def bundle(self):
        """The algebra as a bundle over the one-element group for ``evaluate``;
        like ``delta``, built once and never cached for a degenerate pairing."""
        from .crossed import from_frobenius_algebra  # crossed imports this module
        return from_frobenius_algebra(trivial_group(), self)

    @cached_property
    def handle(self):
        """H = mul o delta as an n x n map (legs: domain, codomain), built
        once per algebra and the first of ``handle_powers``; like ``delta``,
        never cached for a degenerate pairing."""
        return tensordot(self.delta, self.mul, [1, 2], [0, 1])

    @cached_property
    def handle_powers(self):
        """[H, H^2, H^4, ...]: the powers H^(2^k) that ``closed_invariant``
        has built, each squared from the last, grown on demand and kept for
        the algebra's lifetime; never cached for a degenerate pairing."""
        return [self.handle]


def pairing(algebra: FrobeniusAlgebra) -> Tensor:
    """g[i,j] = counit(e_i e_j)."""
    return tensordot(algebra.mul, algebra.counit, [2], [0])


def validate(algebra: FrobeniusAlgebra) -> ValidationReport:
    """Check associativity, commutativity, unit and nondegeneracy.

    The first witnessing index tuple per failed axiom is recorded.
    """
    mul, tol = algebra.mul, algebra.tol
    report = ValidationReport()
    # (e_i e_j) e_k = e_i (e_j e_k), legs (i, j, k, l) on both sides
    report.compare("associativity", tensordot(mul, mul, [2], [0]),
                   permute(tensordot(mul, mul, [2], [1]), (2, 0, 1, 3)), tol)
    report.compare("commutativity", mul, permute(mul, (1, 0, 2)), tol)
    report.compare("unit", tensordot(algebra.unit, mul, [0], [0]),
                   Tensor.identity(algebra.dim, exact=algebra.exact), tol)

    report.check("nondegeneracy")
    if invert_matrix(pairing(algebra), tol) is None:
        report.fail("nondegeneracy", ())
    return report


def comultiplication(algebra: FrobeniusAlgebra) -> Tensor:
    """delta[k,i,j]: delta(e_k) = sum delta[k,i,j] e_i (x) e_j."""
    ginv = invert_matrix(pairing(algebra), algebra.tol)
    if ginv is None:
        raise DegeneratePairingError("pairing matrix is singular")
    # delta[k,i,j] = sum_a mul[k,a,i] ginv[a,j]
    return tensordot(algebra.mul, ginv, [1], [0])


def closed_invariant(algebra: FrobeniusAlgebra, genus: int):
    """counit(H^genus(unit)) -- the closed genus-g surface invariant.

    H^genus is applied by binary powering: the vector is contracted with
    H^(2^k) for each set bit k of genus, lowest first, so a call makes
    popcount(genus) products and the counit's.  The powers come from
    ``algebra.handle_powers``; a call squares only past the largest power
    built so far, so an algebra squares H once per further bit of the
    largest genus asked of it.  Each power is the square of the one before
    it whichever call built it, so a result does not depend on the calls
    made before.  Exact results are those of applying H genus times; float
    results may differ from that in the last bits, since the products are
    grouped differently.
    """
    if genus < 0:
        raise InputError("genus must be nonnegative")
    v, powers, k = algebra.unit, algebra.handle_powers, 0
    while genus:
        if k == len(powers):
            # set at index k, not appended: calls that square at once (in
            # threads) each leave H^(2^k) at k
            powers[k:k + 1] = [tensordot(powers[k - 1], powers[k - 1], [1], [0])]
        if genus & 1:
            v = tensordot(v, powers[k], [0], [0])
        genus >>= 1
        k += 1
    return tensordot(v, algebra.counit, [0], [0]).item()


# ---------------------------------------------------------------------------
# standard library of algebras

def ground_field(exact=True):
    return FrobeniusAlgebra(
        dim=1, basis=("1",),
        mul=Tensor([[[1]]], exact=exact),
        unit=Tensor([1], exact=exact),
        counit=Tensor([1], exact=exact))


def dual_numbers(exact=True):
    """k[x]/(x^2) with counit picking the x coefficient."""
    c = Tensor([[[1, 0], [0, 1]], [[0, 1], [0, 0]]], exact=exact)
    return FrobeniusAlgebra(
        dim=2, basis=("1", "x"), mul=c,
        unit=Tensor([1, 0], exact=exact),
        counit=Tensor([0, 1], exact=exact))


def diagonal(weights, exact=True):
    """k^n with e_i e_j = delta_ij e_i and counit(e_i) = weights[i]."""
    n = len(weights)
    if n == 0:
        raise StructureError("diagonal algebra needs at least one weight")
    counit = Tensor(weights, exact=exact)
    if not differences(counit, Tensor.zeros((n,), exact=exact), DEFAULT_TOL).all():
        raise StructureError("zero weight makes the pairing degenerate")
    c = Tensor([[[int(i == j == k) for k in range(n)] for j in range(n)]
                for i in range(n)], exact=exact)
    return FrobeniusAlgebra(
        dim=n, basis=tuple("e%d" % i for i in range(n)), mul=c,
        unit=Tensor([1] * n, exact=exact), counit=counit)


def group_center(group: FiniteGroup):
    """Center of the group algebra on conjugacy-class sums.

    The counit is (coefficient of the identity) / |G|, which makes the
    genus-g invariant match sum over irreps of (|G|/dim)^(2g-2); rescale it
    with ``rescale_counit``.
    """
    classes = group.conjugacy_classes()
    n = len(classes)
    class_of = np.empty(group.order, dtype=np.intp)
    for ci, cls in enumerate(classes):
        class_of[list(cls)] = ci
    rep = [cls[0] for cls in classes]
    # c[i, j, k] counts the pairs (g, h) in C_i x C_j with gh = rep_k
    p = group.mul_table
    g, h = np.nonzero(p == np.array(rep)[class_of[p]])
    c = np.zeros((n, n, n), dtype=np.int64)
    np.add.at(c, (class_of[g], class_of[h], class_of[p[g, h]]), 1)
    e_class = int(class_of[group.identity])
    eps = [0] * n
    eps[e_class] = Fraction(1, group.order)
    unit = [0] * n
    unit[e_class] = 1
    labels = tuple("C%s" % group.labels[r] for r in rep)
    return FrobeniusAlgebra(dim=n, basis=labels,
                            mul=Tensor(c.tolist()), unit=Tensor(unit), counit=Tensor(eps))


def change_of_basis(algebra: FrobeniusAlgebra, s: Tensor) -> FrobeniusAlgebra:
    """Conjugate the structure by an invertible matrix (columns = new basis)."""
    sinv = invert_matrix(s, algebra.tol)
    if sinv is None:
        raise StructureError("change of basis matrix is singular")
    # c'[i,j,k] = sum S[a,i] S[b,j] c[a,b,m] Sinv[k,m]
    tmp = tensordot(s, algebra.mul, [0], [0])           # (i, b, m)
    tmp = tensordot(s, tmp, [0], [1])                   # (j, i, m)
    new_c = tensordot(tmp, sinv, [2], [1])              # (j, i, k)
    return FrobeniusAlgebra(
        dim=algebra.dim, basis=algebra.basis, mul=permute(new_c, (1, 0, 2)),
        unit=tensordot(sinv, algebra.unit, [1], [0]),
        counit=tensordot(s, algebra.counit, [0], [0]), tol=algebra.tol)


def rescale_counit(algebra: FrobeniusAlgebra, factor) -> FrobeniusAlgebra:
    factor = Tensor.scalar(factor, exact=algebra.exact)
    return replace(algebra, counit=tensordot(factor, algebra.counit, [], []))


# ---------------------------------------------------------------------------
# file format

def parse_algebra(text: str, exact=True, tol=DEFAULT_TOL) -> FrobeniusAlgebra:
    """Parse the line-oriented algebra file format (see README); ``tol`` is
    the algebra's float-mode tolerance."""
    lines = content_lines(text)
    if len(lines) < 4:
        raise StructureError("algebra file needs dim/basis/unit/counit lines")
    number, line = lines[0]
    try:
        if not line.startswith("dim "):
            raise StructureError("first line must be 'dim <n>'")
        n = parse_int(line[4:], "dimension")
        number, line = lines[1]
        basis = tuple(line.split()[1:])
        if not line.startswith("basis ") or len(basis) != n or len(set(basis)) != n:
            raise StructureError("second line must be 'basis' and %d distinct labels" % n)
        vectors = []
        for (number, line), tag in zip(lines[2:4], ("unit", "counit")):
            toks = line.split()
            if toks[0] != tag or len(toks) != n + 1:
                raise StructureError("expected '%s' and %d entries" % (tag, n))
            vectors.append(parse_scalars(toks[1:], exact))
        c = np.full((n, n, n), 0, dtype=object)
        products = set()
        for number, line in lines[4:]:
            head, _, rhs = line.partition("->")
            toks = head.split()
            if toks[:1] != ["mul"] or len(toks) != 3:
                raise StructureError("expected 'mul <i> <j> -> <k>:<c>, ...'")
            i, j = parse_int(toks[1], "index") - 1, parse_int(toks[2], "index") - 1
            if not (0 <= i < n and 0 <= j < n):
                raise StructureError("index out of range")
            if (i, j) in products:
                raise StructureError("repeated mul %d %d" % (i + 1, j + 1))
            products.add((i, j))
            targets = set()
            for term in filter(None, (term.strip() for term in rhs.split(","))):
                ktok, _, ctok = term.partition(":")
                k = parse_int(ktok, "target index") - 1
                if not 0 <= k < n:
                    raise StructureError("index out of range")
                if k in targets:
                    raise StructureError("repeated target %d" % (k + 1))
                targets.add(k)
                c[i, j, k], = parse_scalars([ctok.strip()], exact)
    except InputError as exc:
        raise exc.at_line(number, line)
    return FrobeniusAlgebra(dim=n, basis=basis, mul=Tensor(c, exact=exact),
                            unit=Tensor(vectors[0], exact=exact),
                            counit=Tensor(vectors[1], exact=exact), tol=tol)


def format_algebra(algebra: FrobeniusAlgebra) -> str:
    n = algebra.dim
    mul = algebra.mul.entries()
    lines = ["dim %d" % n,
             "basis " + " ".join(algebra.basis),
             "unit " + " ".join(format_scalar(x) for x in algebra.unit.entries()),
             "counit " + " ".join(format_scalar(x) for x in algebra.counit.entries())]
    for i in range(n):
        for j in range(n):
            row = mul[(i * n + j) * n:(i * n + j + 1) * n]
            terms = ["%d:%s" % (k + 1, format_scalar(x))
                     for k, x in enumerate(row) if x != 0]
            if terms:
                lines.append("mul %d %d -> %s" % (i + 1, j + 1, ",".join(terms)))
    return "\n".join(lines) + "\n"


_LIBRARY = {"ground_field": ground_field, "dual_numbers": dual_numbers}


def load_algebra(path_or_name, exact=True, tol=DEFAULT_TOL) -> FrobeniusAlgebra:
    """Load an algebra file; bare library names are accepted for convenience.
    ``tol`` is the algebra's float-mode tolerance."""
    import os
    if os.path.exists(path_or_name):
        return parse_algebra(read_text(path_or_name), exact=exact, tol=tol)
    if path_or_name in _LIBRARY:
        return replace(_LIBRARY[path_or_name](exact), tol=tol)
    raise StructureError("no such algebra file: %s" % path_or_name)
