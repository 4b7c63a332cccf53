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

from .groups import FiniteGroup
from .report import ValidationReport
from .tensor import (DEFAULT_TOL, Tensor, format_scalar, integer_form,
                     invert_matrix, parse_scalar, tensordot)


class StructureError(ValueError):
    """Shapes or required data malformed (raised before axiom checks)."""


class DegeneratePairingError(ValueError):
    """The counit pairing is singular; fission cannot be derived."""


def _is_zero(x, exact, tol):
    return x == 0 if exact else abs(x) <= tol


@dataclass(frozen=True)
class FrobeniusAlgebra:
    """Structure constants mul[i,j,k], unit vector and counit covector."""

    dim: int
    basis: tuple
    mul: Tensor      # shape (n, n, n): e_i e_j = sum_k mul[i,j,k] e_k
    unit: Tensor     # shape (n,)
    counit: Tensor   # shape (n,)

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

    @property
    def exact(self):
        return self.mul.exact

    @property
    def tol(self):
        return self.mul.tol

    @cached_property
    def contraction_tensors(self):
        """The tensors ``bordism.evaluate`` contracts, built once per algebra.

        Maps "identity", "unit", "counit", "mul" and "comultiplication" to a
        pair (tensor, den).  In exact mode the tensor holds int numerators
        over the common denominator den (see ``integer_form``); in float mode
        it is the float tensor itself and den is 1.  Nothing is cached when
        the pairing is degenerate, so every access raises again.
        """
        tensors = {
            "identity": Tensor.identity(self.dim, exact=self.exact, tol=self.tol),
            "unit": self.unit,
            "counit": self.counit,
            "mul": self.mul,
            "comultiplication": comultiplication(self),
        }
        if not self.exact:
            return {name: (t, 1) for name, t in tensors.items()}
        return {name: integer_form(t) for name, t in tensors.items()}

    def multiply(self, v: Tensor, w: Tensor) -> Tensor:
        prod = tensordot(v, self.mul, [0], [0])
        return tensordot(w, prod, [0], [0])

    def apply_counit(self, v: Tensor):
        return tensordot(v, self.counit, [0], [0]).item()


def pairing(algebra: FrobeniusAlgebra) -> Tensor:
    """g[i,j] = counit(e_i e_j)."""
    return tensordot(algebra.mul, algebra.counit, [2], [0])


def validate(algebra: FrobeniusAlgebra) -> ValidationReport:
    """Check associativity, commutativity, unit and nondegeneracy.

    The first witnessing index tuple per failed axiom is recorded.
    """
    n = algebra.dim
    c = algebra.mul.array
    report = ValidationReport()

    report.check("associativity")
    found = False
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    lhs = sum(c[i, j, m] * c[m, k, l] for m in range(n))
                    rhs = sum(c[j, k, m] * c[i, m, l] for m in range(n))
                    if not _is_zero(lhs - rhs, algebra.exact, algebra.tol):
                        report.fail("associativity", (i, j, k, l))
                        found = True
                        break
                if found:
                    break
            if found:
                break
        if found:
            break

    report.check("commutativity")
    for i in range(n):
        broke = False
        for j in range(n):
            for k in range(n):
                if not _is_zero(c[i, j, k] - c[j, i, k], algebra.exact, algebra.tol):
                    report.fail("commutativity", (i, j, k))
                    broke = True
                    break
            if broke:
                break
        if broke:
            break

    report.check("unit")
    u = algebra.unit.array
    for j in range(n):
        broke = False
        for k in range(n):
            val = sum(u[i] * c[i, j, k] for i in range(n))
            want = 1 if j == k else 0
            if not _is_zero(val - want, algebra.exact, algebra.tol):
                report.fail("unit", (j, k))
                broke = True
                break
        if broke:
            break

    report.check("nondegeneracy")
    if invert_matrix(pairing(algebra)) is None:
        report.fail("nondegeneracy", ())
    return report


def comultiplication(algebra: FrobeniusAlgebra) -> Tensor:
    """delta[k,i,j]: delta(e_k) = sum delta[k,i,j] e_i (x) e_j."""
    ginv = invert_matrix(pairing(algebra))
    if ginv is None:
        raise DegeneratePairingError("pairing matrix is singular")
    # delta[k,i,j] = sum_a mul[k,a,i] ginv[a,j]
    arr = np.tensordot(algebra.mul.array, ginv.array, axes=([1], [0]))
    # legs now (k, i, j) with j from ginv
    return Tensor(arr, exact=algebra.exact, tol=algebra.tol)


def handle_operator(algebra: FrobeniusAlgebra) -> Tensor:
    """H = mul o delta as an n x n map (legs: domain, codomain)."""
    delta = comultiplication(algebra)
    return tensordot(delta, algebra.mul, [1, 2], [0, 1])


def closed_invariant(algebra: FrobeniusAlgebra, genus: int):
    """counit(H^genus(unit)) -- the closed genus-g surface invariant."""
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    h = handle_operator(algebra)
    v = algebra.unit
    for _ in range(genus):
        v = tensordot(v, h, [0], [0])
    return algebra.apply_counit(v)


# ---------------------------------------------------------------------------
# standard library of algebras

def ground_field(exact=True):
    one = Fraction(1) if exact else complex(1)
    return FrobeniusAlgebra(
        dim=1, basis=("1",),
        mul=Tensor(np.full((1, 1, 1), one, dtype=object), exact=exact),
        unit=Tensor(np.array([one], dtype=object), exact=exact),
        counit=Tensor(np.array([one], dtype=object), exact=exact))


def dual_numbers(exact=True):
    """k[x]/(x^2) with counit picking the x coefficient."""
    one = Fraction(1) if exact else complex(1)
    zero = Fraction(0) if exact else complex(0)
    c = np.full((2, 2, 2), zero, dtype=object)
    c[0, 0, 0] = one
    c[0, 1, 1] = one
    c[1, 0, 1] = one
    return FrobeniusAlgebra(
        dim=2, basis=("1", "x"),
        mul=Tensor(c, exact=exact),
        unit=Tensor(np.array([one, zero], dtype=object), exact=exact),
        counit=Tensor(np.array([zero, one], dtype=object), exact=exact))


def diagonal(weights, exact=True):
    """k^n with e_i e_j = delta_ij e_i and counit(e_i) = weights[i]."""
    weights = [Fraction(w) if exact else complex(w) for w in weights]
    n = len(weights)
    if n == 0:
        raise StructureError("diagonal algebra needs at least one weight")
    if any(_is_zero(w, exact, DEFAULT_TOL) for w in weights):
        raise StructureError("zero weight makes the pairing degenerate")
    one = Fraction(1) if exact else complex(1)
    zero = Fraction(0) if exact else complex(0)
    c = np.full((n, n, n), zero, dtype=object)
    for i in range(n):
        c[i, i, i] = one
    return FrobeniusAlgebra(
        dim=n, basis=tuple("e%d" % i for i in range(n)),
        mul=Tensor(c, exact=exact),
        unit=Tensor(np.array([one] * n, dtype=object), exact=exact),
        counit=Tensor(np.array(weights, dtype=object), exact=exact))


def group_center(group: FiniteGroup, normalization=None):
    """Center of the group algebra on conjugacy-class sums.

    The default counit is (coefficient of the identity) / |G|, which makes
    the genus-g invariant match sum over irreps of (|G|/dim)^(2g-2).  Pass a
    nonzero `normalization` to rescale the counit.
    """
    classes = group.conjugacy_classes()
    n = len(classes)
    class_of = {}
    for ci, cls in enumerate(classes):
        for g in cls:
            class_of[g] = ci
    rep = [cls[0] for cls in classes]
    zero = Fraction(0)
    c = np.full((n, n, n), zero, dtype=object)
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            counts = [0] * n
            for g in ci:
                for h in cj:
                    p = group.mul(g, h)
                    if p == rep[class_of[p]]:
                        counts[class_of[p]] += 1
            for k in range(n):
                c[i, j, k] = Fraction(counts[k])
    if normalization is None:
        normalization = Fraction(1, group.order)
    else:
        normalization = Fraction(normalization)
        if normalization == 0:
            raise StructureError("normalization must be nonzero")
    e_class = class_of[group.identity]
    eps = np.full((n,), zero, dtype=object)
    eps[e_class] = normalization
    unit = np.full((n,), zero, dtype=object)
    unit[e_class] = Fraction(1)
    labels = tuple("C%s" % group.labels[r] for r in rep)
    return FrobeniusAlgebra(dim=n, basis=labels,
                            mul=Tensor(c), unit=Tensor(unit), counit=Tensor(eps))


def standard_algebra(name, **params) -> FrobeniusAlgebra:
    if name == "ground_field":
        return ground_field(**params)
    if name == "dual_numbers":
        return dual_numbers(**params)
    if name == "diagonal":
        return diagonal(**params)
    if name == "group_center":
        return group_center(**params)
    raise StructureError("unknown standard algebra %r" % name)


def direct_sum(a: FrobeniusAlgebra, b: FrobeniusAlgebra) -> FrobeniusAlgebra:
    if a.exact != b.exact:
        raise StructureError("mixed scalar modes")
    n, m = a.dim, b.dim
    zero = Fraction(0) if a.exact else complex(0)
    c = np.full((n + m, n + m, n + m), zero, dtype=object)
    c[:n, :n, :n] = a.mul.array
    c[n:, n:, n:] = b.mul.array
    unit = np.concatenate([a.unit.array, b.unit.array])
    counit = np.concatenate([a.counit.array, b.counit.array])
    basis = tuple("a.%s" % s for s in a.basis) + tuple("b.%s" % s for s in b.basis)
    return FrobeniusAlgebra(dim=n + m, basis=basis, mul=Tensor(c, exact=a.exact),
                            unit=Tensor(unit, exact=a.exact),
                            counit=Tensor(counit, exact=a.exact))


def change_of_basis(algebra: FrobeniusAlgebra, s: Tensor) -> FrobeniusAlgebra:
    """Conjugate the structure by an invertible matrix (columns = new basis)."""
    sinv = invert_matrix(s)
    if sinv is None:
        raise StructureError("change of basis matrix is singular")
    c = algebra.mul.array
    sa = s.array
    # c'[i,j,k] = sum S[a,i] S[b,j] c[a,b,m] Sinv[k,m]
    tmp = np.tensordot(sa, c, axes=([0], [0]))          # (i, b, m)
    tmp = np.tensordot(sa, tmp, axes=([0], [1]))        # (j, i, m)
    new_c = np.tensordot(tmp, sinv.array, axes=([2], [1]))  # (j, i, k)
    new_c = np.transpose(new_c, (1, 0, 2))
    new_unit = np.tensordot(sinv.array, algebra.unit.array, axes=([1], [0]))
    new_counit = np.tensordot(sa, algebra.counit.array, axes=([0], [0]))
    return FrobeniusAlgebra(
        dim=algebra.dim, basis=algebra.basis,
        mul=Tensor(np.asarray(new_c, dtype=object), exact=algebra.exact),
        unit=Tensor(np.asarray(new_unit, dtype=object), exact=algebra.exact),
        counit=Tensor(np.asarray(new_counit, dtype=object), exact=algebra.exact))


def rescale_counit(algebra: FrobeniusAlgebra, factor) -> FrobeniusAlgebra:
    factor = Fraction(factor) if algebra.exact else complex(factor)
    return FrobeniusAlgebra(
        dim=algebra.dim, basis=algebra.basis, mul=algebra.mul, unit=algebra.unit,
        counit=Tensor(algebra.counit.array * factor, exact=algebra.exact))


# ---------------------------------------------------------------------------
# file format

def parse_algebra(text: str, exact=True, tol=DEFAULT_TOL) -> FrobeniusAlgebra:
    """Parse the line-oriented algebra file format (see README).

    Every tensor of the algebra carries ``tol``, the float-mode tolerance.
    """
    lines = []
    for raw in text.splitlines():
        ln = raw.split("#", 1)[0].strip()
        if ln:
            lines.append(ln)
    if len(lines) < 4:
        raise StructureError("algebra file needs dim/basis/unit/counit lines")
    if not lines[0].startswith("dim "):
        raise StructureError("first line must be 'dim <n>'")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise StructureError("bad dim line %r" % lines[0]) from None
    if not lines[1].startswith("basis "):
        raise StructureError("second line must be 'basis ...'")
    basis = tuple(lines[1].split()[1:])
    if len(basis) != n:
        raise StructureError("expected %d basis labels" % n)

    def vector(line, tag):
        if not line.startswith(tag + " "):
            raise StructureError("expected '%s ...' line" % tag)
        toks = line.split()[1:]
        if len(toks) != n:
            raise StructureError("%s needs %d entries" % (tag, n))
        return np.array([parse_scalar(t, exact) for t in toks], dtype=object)

    unit = vector(lines[2], "unit")
    counit = vector(lines[3], "counit")
    zero = Fraction(0) if exact else complex(0)
    c = np.full((n, n, n), zero, dtype=object)
    for ln in lines[4:]:
        if not ln.startswith("mul "):
            raise StructureError("unexpected line %r" % ln)
        head, _, rhs = ln.partition("->")
        toks = head.split()[1:]
        if len(toks) != 2:
            raise StructureError("bad mul line %r" % ln)
        try:
            i, j = int(toks[0]) - 1, int(toks[1]) - 1
        except ValueError:
            raise StructureError("bad indices in %r" % ln) from None
        if not (0 <= i < n and 0 <= j < n):
            raise StructureError("index out of range in %r" % ln)
        for term in rhs.split(","):
            term = term.strip()
            if not term:
                continue
            ktok, _, ctok = term.partition(":")
            try:
                k = int(ktok) - 1
            except ValueError:
                raise StructureError("bad target index in %r" % ln) from None
            if not 0 <= k < n:
                raise StructureError("index out of range in %r" % ln)
            c[i, j, k] = parse_scalar(ctok.strip(), exact)
    return FrobeniusAlgebra(dim=n, basis=basis,
                            mul=Tensor(c, exact=exact, tol=tol),
                            unit=Tensor(unit, exact=exact, tol=tol),
                            counit=Tensor(counit, exact=exact, tol=tol))


def format_algebra(algebra: FrobeniusAlgebra) -> str:
    n = algebra.dim
    lines = ["dim %d" % n,
             "basis " + " ".join(algebra.basis),
             "unit " + " ".join(format_scalar(x) for x in algebra.unit.array),
             "counit " + " ".join(format_scalar(x) for x in algebra.counit.array)]
    for i in range(n):
        for j in range(n):
            terms = ["%d:%s" % (k + 1, format_scalar(algebra.mul.array[i, j, k]))
                     for k in range(n) if algebra.mul.array[i, j, k] != 0]
            if terms:
                lines.append("mul %d %d -> %s" % (i + 1, j + 1, ",".join(terms)))
    return "\n".join(lines) + "\n"


_LIBRARY_NAMES = {"ground_field", "dual_numbers"}


def load_algebra(path_or_name, exact=True, tol=DEFAULT_TOL) -> FrobeniusAlgebra:
    """Load an algebra file; bare library names are accepted for convenience.

    Every tensor of the algebra carries ``tol``, the float-mode tolerance.
    """
    import os
    if os.path.exists(path_or_name):
        with open(path_or_name, "r", encoding="utf-8") as fh:
            return parse_algebra(fh.read(), exact=exact, tol=tol)
    if path_or_name in _LIBRARY_NAMES:
        a = standard_algebra(path_or_name, exact=exact)
        return replace(a, **{k: Tensor(getattr(a, k).array, exact=exact, tol=tol)
                             for k in ("mul", "unit", "counit")})
    raise StructureError("no such algebra file: %s" % path_or_name)
