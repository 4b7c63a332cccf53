"""Finite groups given by multiplication tables, and loops as element words.

The group plays the role of the base space: loops are words of group
elements, paths between conjugate loops are conjugators.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import permutations


class GroupError(ValueError):
    """Raised when a multiplication table is not a group."""


class FiniteGroup:
    """A finite group on elements 0..order-1 with an explicit table."""

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

    def commutes(self, a, b):
        return self.mul(a, b) == self.mul(b, a)

    def commutator(self, a, b):
        """a b a^-1 b^-1."""
        return self.mul(self.mul(a, b), self.mul(self.inv[a], self.inv[b]))

    def conjugacy_classes(self):
        seen = set()
        classes = []
        for g in range(self.order):
            if g in seen:
                continue
            cls = sorted({self.conj(k, g) for k in range(self.order)})
            seen.update(cls)
            classes.append(tuple(cls))
        return classes

    def index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise GroupError("unknown element label %r" % label) from None

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, FiniteGroup) and self.table == other.table \
            and self.labels == other.labels

    def __repr__(self):
        return "FiniteGroup(order=%d)" % self.order


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
    m1, m2 = g1.order, g2.order
    table = []
    for a1 in range(m1):
        for a2 in range(m2):
            row = []
            for b1 in range(m1):
                for b2 in range(m2):
                    row.append(g1.table[a1][b1] * m2 + g2.table[a2][b2])
            table.append(row)
    labels = ["%s.%s" % (la, lb) for la in g1.labels for lb in g2.labels]
    return FiniteGroup(table, labels=labels)


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
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("group "):
        raise GroupError("group file must start with 'group <m>'")
    try:
        m = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise GroupError("bad group header %r" % lines[0]) from None
    if len(lines) < 1 + m:
        raise GroupError("expected %d table rows" % m)
    table = []
    for ln in lines[1:1 + m]:
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError:
            raise GroupError("table row %r has an entry that is no integer"
                             % ln) from None
        if len(row) != m:
            raise GroupError("table row %r has wrong length" % ln)
        table.append(row)
    labels = None
    for ln in lines[1 + m:]:
        if not ln.startswith("labels "):
            raise GroupError("unexpected line %r" % ln)
        if labels is not None:
            raise GroupError("repeated labels in %r" % ln)
        labels = tuple(ln.split()[1:])
    return FiniteGroup(table, labels=labels)


def format_group(group: FiniteGroup) -> str:
    lines = ["group %d" % group.order]
    for row in group.table:
        lines.append(" ".join(str(x) for x in row))
    lines.append("labels " + " ".join(group.labels))
    return "\n".join(lines) + "\n"


def load_over(path: str, kind: str):
    """Read a file whose header line is ``<kind> over <groupfile>``.

    Returns the file's text and the group the header names, with a relative
    group path taken from the file's directory; the group is None when no
    line starts with ``<kind> over``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    header = kind + " over"
    for ln in text.splitlines():
        ln = ln.split("#", 1)[0].strip()
        if ln.startswith(header):
            gpath = os.path.join(os.path.dirname(os.path.abspath(path)),
                                 ln[len(header):].strip())
            with open(gpath, "r", encoding="utf-8") as fh:
                return text, parse_group(fh.read())
    return text, None
