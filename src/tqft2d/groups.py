"""Finite groups given by multiplication tables, and loops as element words.

The group plays the role of the base space: loops are words of group
elements, paths between conjugate loops are conjugators.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from typing import NamedTuple

import numpy as np

from .tensor import InputError, content_lines, parse_int, read_text


class GroupError(InputError):
    """Raised when a multiplication table is not a group."""


class FiniteGroup:
    """A finite group on elements 0..order-1 with an explicit table.

    Besides the table it keeps two read-only integer arrays, built once:
    ``mul_table[a, b] = ab`` and ``conj_table[k, g] = k g k^-1``.  Every
    gather over gradings (the validators, ``direct_product``,
    ``group_center``) indexes these; ``mul`` and ``conj`` stay scalar
    lookups for one product at a time.  ``grading_rows``, built from them
    on first use and kept, holds the flat rows that ``validate_bundle``
    gathers its blocks at.  Equal groups (same table and labels) hash
    equal.
    """

    def __init__(self, table, labels=None):
        table = tuple(tuple(row) for row in table)
        m = len(table)
        if any(len(row) != m for row in table):
            raise GroupError("multiplication table is not square")
        if any(not 0 <= x < m for row in table for x in row):
            raise GroupError("table entry out of range")
        if labels is None:
            labels = tuple("g%d" % i for i in range(m))
        labels = tuple(labels)
        if len(labels) != m or len(set(labels)) != m:
            raise GroupError("need %d distinct labels" % m)
        self.table = table
        self.labels = labels
        self.order = m
        self.identity = self._find_identity()
        self.inv = self._find_inverses()
        self._verify_associativity()
        self.mul_table = np.array(table, dtype=np.intp)
        self.conj_table = self.mul_table[self.mul_table, np.array(self.inv)[:, None]]
        self.mul_table.flags.writeable = self.conj_table.flags.writeable = False
        self._hash = hash((table, labels))

    def _find_identity(self):
        for e in range(self.order):
            if all(self.table[e][g] == g and self.table[g][e] == g
                   for g in range(self.order)):
                return e
        raise GroupError("no identity element")

    def _find_inverses(self):
        e = self.identity
        inv = []
        for g in range(self.order):
            gi = [h for h in range(self.order) if self.table[g][h] == e]
            if len(gi) != 1 or self.table[gi[0]][g] != e:
                raise GroupError("element %d has no unique inverse" % g)
            inv.append(gi[0])
        return tuple(inv)

    def _verify_associativity(self):
        t = self.table
        for a in range(self.order):
            for b in range(self.order):
                for c in range(self.order):
                    if t[t[a][b]][c] != t[a][t[b][c]]:
                        raise GroupError("table not associative at (%d,%d,%d)" % (a, b, c))

    def mul(self, a, b):
        return self.table[a][b]

    def inverse(self, a):
        return self.inv[a]

    def conj(self, k, g):
        """k g k^-1."""
        return self.mul(self.mul(k, g), self.inv[k])

    def product(self, elems):
        acc = self.identity
        for g in elems:
            acc = self.mul(acc, g)
        return acc

    def elements(self):
        return range(self.order)

    def commutator(self, a, b):
        """a b a^-1 b^-1."""
        return self.mul(self.mul(a, b), self.mul(self.inv[a], self.inv[b]))

    def conjugacy_classes(self):
        seen = set()
        classes = []
        for g in range(self.order):
            if g in seen:
                continue
            cls = sorted(set(self.conj_table[:, g].tolist()))
            seen.update(cls)
            classes.append(tuple(cls))
        return classes

    def index(self, label):
        if label not in self.labels:
            raise GroupError("unknown element label %r" % label)
        return self.labels.index(label)

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, FiniteGroup) and self.table == other.table \
            and self.labels == other.labels

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "FiniteGroup(order=%d)" % self.order

    @cached_property
    def grading_rows(self):
        """The group's ``GradingRows``, built on first use."""
        return _grading_rows(self)


class GradingRows(NamedTuple):
    """Flat rows of a (G x G)-indexed stack of blocks: the pair (x, y) is
    row ``x * |G| + y``, so one ``take`` gathers the block at each pair.

    Over the gradings ``triples`` (a, b, c), row-major like
    ``np.indices((n, n, n))``, the rows of the pairs (a, b), (b, c),
    (a, c), (a, bc), (ab, c), (a b a^-1, a c a^-1) and (a, b c b^-1); over
    the gradings ``singles`` (a) those of (a, e) and (e, a).  Every array
    is read-only.
    """

    triples: np.ndarray  # shape (3, n^3)
    ab: np.ndarray
    bc: np.ndarray
    ac: np.ndarray
    a_bc: np.ndarray
    ab_c: np.ndarray
    conj: np.ndarray
    a_conj: np.ndarray
    singles: np.ndarray  # shape (1, n)
    ae: np.ndarray
    ea: np.ndarray


def _grading_rows(group: FiniteGroup) -> GradingRows:
    """``group.grading_rows``, gathered through its two tables."""
    n, e = group.order, group.identity
    mul, conj = group.mul_table.ravel(), group.conj_table.ravel()  # at x * n + y
    triples = np.indices((n, n, n)).reshape(3, -1)
    a, b, c = triples
    an = a * n
    ab, bc, ac = an + b, b * n + c, an + c
    singles = np.arange(n)
    rows = GradingRows(triples, ab, bc, ac, an + mul[bc], mul[ab] * n + c,
                       conj[ab] * n + conj[ac], an + conj[bc], singles[None],
                       singles * n + e, e * n + singles)
    for array in rows:
        array.flags.writeable = False
    return rows


def trivial_group():
    return FiniteGroup(((0,),), labels=("e",))


def cyclic_group(n):
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    labels = ["e"] + ["r%d" % i for i in range(1, n)]
    return FiniteGroup(table, labels=labels)


def symmetric_group(n):
    perms = sorted(permutations(range(n)))
    idx = {p: i for i, p in enumerate(perms)}
    # composition: (p*q)(x) = p(q(x))
    table = [[idx[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]
    labels = ["".join(str(x) for x in p) for p in perms]
    return FiniteGroup(table, labels=labels)


def direct_product(g1: FiniteGroup, g2: FiniteGroup):
    # (a1, a2)(b1, b2) = (a1 b1, a2 b2), element (x, y) numbered x * |g2| + y
    m = g1.order * g2.order
    table = g1.mul_table[:, None, :, None] * g2.order + g2.mul_table[None, :, None, :]
    labels = ["%s.%s" % (la, lb) for la in g1.labels for lb in g2.labels]
    return FiniteGroup(table.reshape(m, m).tolist(), labels=labels)


def klein_four_group():
    """Z/2 x Z/2 with labels recording the bit pairs."""
    z2 = cyclic_group(2)
    g = direct_product(z2, z2)
    return FiniteGroup(g.table, labels=("00", "10", "01", "11"))


@dataclass(frozen=True)
class LoopWord:
    """A loop in the base, recorded as a word of group elements."""

    elements: tuple

    def __len__(self):
        return len(self.elements)

    def evaluate(self, group: FiniteGroup):
        return group.product(self.elements)

    def rotate(self, j):
        n = len(self.elements)
        if n == 0:
            return self
        j %= n
        return LoopWord(self.elements[j:] + self.elements[:j])

    def prefix_product(self, group: FiniteGroup, j):
        return group.product(self.elements[:j])


def parse_group(text: str) -> FiniteGroup:
    """Parse the line-oriented group file format."""
    lines = content_lines(text)
    if not lines or not lines[0][1].startswith("group "):
        raise GroupError("group file must start with 'group <m>'")
    number, line = lines[0]
    table, labels = [], None
    try:
        m = parse_int(line.split()[1], "group order")
        if m < 1:
            raise GroupError("group order must be positive")
        if len(lines) < 1 + m:
            raise GroupError("expected %d table rows" % m)
        for number, line in lines[1:1 + m]:
            row = [parse_int(tok, "table entry") for tok in line.split()]
            if len(row) != m or not all(0 <= x < m for x in row):
                raise GroupError("table row needs %d entries from 0 to %d" % (m, m - 1))
            table.append(row)
        for number, line in lines[1 + m:]:
            if not line.startswith("labels "):
                raise GroupError("unexpected line")
            if labels is not None:
                raise GroupError("repeated labels")
            labels = tuple(line.split()[1:])
            if len(labels) != m or len(set(labels)) != m:
                raise GroupError("need %d distinct labels" % m)
    except InputError as exc:
        raise exc.at_line(number, line)
    return FiniteGroup(table, labels=labels)


def format_group(group: FiniteGroup) -> str:
    lines = ["group %d" % group.order]
    for row in group.table:
        lines.append(" ".join(str(x) for x in row))
    lines.append("labels " + " ".join(group.labels))
    return "\n".join(lines) + "\n"


def load_over(path: str, kind: str, error):
    """Read a file whose header line is ``<kind> over <groupfile>``.

    Returns the file's text and the group the header names, with a relative
    group path taken from the file's directory; raises ``error`` when no
    line starts with ``<kind> over`` and a file name.  An error in the group
    file names that file before its line.
    """
    text = read_text(path)
    header = kind + " over"
    for _, line in content_lines(text):
        name = line[len(header):].strip()
        if line.startswith(header) and name:
            gpath = os.path.join(os.path.dirname(os.path.abspath(path)), name)
            try:
                return text, parse_group(read_text(gpath))
            except InputError as exc:
                exc.args = ("group file %s: %s" % (name, exc),)
                raise
    raise error("%s file must start with '%s over <groupfile>'" % (kind, kind))
