import os
from fractions import Fraction

import numpy as np
import pytest

from tqft2d.frobenius import FrobeniusAlgebra, group_center
from tqft2d.groups import (FiniteGroup, GroupError, LoopWord, trivial_group,
                           cyclic_group, symmetric_group, direct_product,
                           klein_four_group, parse_group, format_group)
from tqft2d.tensor import Tensor

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def test_cyclic_basics():
    g = cyclic_group(4)
    assert g.order == 4
    assert g.identity == 0
    assert g.mul(1, 3) == 0
    assert g.inverse(1) == 3


def test_symmetric_group_composition():
    s3 = symmetric_group(3)
    assert s3.order == 6
    # (01) composed with (12): apply right first
    a = s3.index("102")
    b = s3.index("021")
    assert s3.labels[s3.mul(a, b)] == "120"


def test_s3_conjugacy_classes():
    s3 = symmetric_group(3)
    sizes = sorted(len(c) for c in s3.conjugacy_classes())
    assert sizes == [1, 2, 3]


def test_klein_four_labels():
    k = klein_four_group()
    assert k.mul(k.index("10"), k.index("01")) == k.index("11")
    assert all(k.inverse(g) == g for g in k.elements())


def test_direct_product_order():
    g = direct_product(cyclic_group(2), cyclic_group(3))
    assert g.order == 6
    assert g.identity == 0


def test_bad_table_rejected():
    with pytest.raises(GroupError):
        FiniteGroup(((0, 1), (0, 1)))  # no inverses for row 1
    with pytest.raises(GroupError):
        FiniteGroup(((0, 1), (1, 2)))  # entry out of range


def test_conjugation():
    s3 = symmetric_group(3)
    for k in s3.elements():
        for g in s3.elements():
            assert s3.conj(k, g) == s3.mul(s3.mul(k, g), s3.inverse(k))


def test_loop_word():
    s3 = symmetric_group(3)
    w = LoopWord((1, 2, 3))
    assert w.evaluate(s3) == s3.product([1, 2, 3])
    assert w.rotate(1).elements == (2, 3, 1)
    assert w.rotate(3) == w
    assert LoopWord(()).evaluate(s3) == s3.identity
    assert w.prefix_product(s3, 2) == s3.mul(1, 2)


def test_group_file_roundtrip():
    for g in (trivial_group(), cyclic_group(5), symmetric_group(3)):
        assert parse_group(format_group(g)) == g


def test_group_file_errors():
    with pytest.raises(GroupError):
        parse_group("not a group file")
    with pytest.raises(GroupError):
        parse_group("group 2\n0 1\n")  # missing row
    with pytest.raises(GroupError):
        parse_group("group 2\n0 1\n1 0\nlabels onlyone")


def test_a_group_equals_itself_without_reading_its_tables():
    from tqft2d.crossed import evaluate_labeled, from_group_algebra, label_word
    from tqft2d.bordism import parse_word

    class Unreadable(list):
        def __eq__(self, other):
            raise AssertionError("the tables were compared")

    g = symmetric_group(3)
    bundle = from_group_algebra(g)
    b = label_word(g, parse_word("pants"), (1, 2))
    g.table = Unreadable(g.table)
    assert g == g and not g != g
    # evaluate_labeled checks the group of the word against the bundle's
    assert evaluate_labeled(b, bundle).shape == (1, 1, 1)
    # a different object still has its tables compared
    with pytest.raises(AssertionError):
        g == symmetric_group(3)


def _groups():
    """Every group the tests build, by name."""
    with open(os.path.join(FIXDIR, "d8.group"), encoding="utf-8") as fh:
        d8 = parse_group(fh.read())
    groups = {"Z%d" % n: cyclic_group(n) for n in range(1, 7)}
    groups.update(trivial=trivial_group(), S3=symmetric_group(3),
                  S4=symmetric_group(4), K4=klein_four_group(),
                  Z3xS3=direct_product(cyclic_group(3), symmetric_group(3)), D8=d8)
    return groups


@pytest.mark.parametrize("name", sorted(_groups()))
def test_the_group_arrays_are_its_products_and_conjugates(name):
    g = _groups()[name]
    for table in (g.mul_table, g.conj_table):
        assert table.shape == (g.order, g.order)
        assert np.issubdtype(table.dtype, np.integer)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0
    for a in g.elements():
        for b in g.elements():
            assert g.mul_table[a, b] == g.mul(a, b)
            assert g.conj_table[a, b] == g.conj(a, b)


@pytest.mark.parametrize("name", sorted(_groups()))
def test_the_grading_rows_are_the_table_gathers(name):
    # each flat row x * n + y picks the block (x, y) of a (G x G) stack, so
    # each array is the pair validate_bundle gathers at, through mul and conj
    g = _groups()[name]
    n, mul, conj, e = g.order, g.mul_table, g.conj_table, g.identity
    rows = g.grading_rows
    triples = np.indices((n, n, n)).reshape(3, -1)
    a, b, c = triples
    singles = np.arange(n)
    want = dict(triples=triples, ab=a * n + b, bc=b * n + c, ac=a * n + c,
                a_bc=a * n + mul[b, c], ab_c=mul[a, b] * n + c,
                conj=conj[a, b] * n + conj[a, c], a_conj=a * n + conj[b, c],
                singles=singles[None], ae=singles * n + e, ea=e * n + singles)
    assert list(rows._fields) == list(want)
    for field, array in want.items():
        got = getattr(rows, field)
        assert got.dtype == np.intp and np.array_equal(got, array), field
        assert not got.flags.writeable, field
        with pytest.raises(ValueError):
            got[..., 0] = 0
    assert g.grading_rows is rows  # built once and kept


def test_equal_groups_hash_equal_and_labeled_words_hash():
    from tqft2d.crossed import closed_surface_word
    z2 = cyclic_group(2)
    twin = FiniteGroup(z2.table, labels=z2.labels)
    assert twin == z2 and twin is not z2 and hash(twin) == hash(z2)
    assert direct_product(cyclic_group(2), cyclic_group(2)) != klein_four_group()  # labels
    k4 = klein_four_group()
    assert hash(FiniteGroup(k4.table, labels=k4.labels)) == hash(k4)
    assert len({z2, twin, k4, cyclic_group(3)}) == 3
    word = closed_surface_word(z2, 1, [(0, 0)])
    assert hash(word) == hash(closed_surface_word(twin, 1, [(0, 0)]))
    assert len({word, closed_surface_word(z2, 1, [(0, 1)]),
                closed_surface_word(twin, 1, [(0, 0)])}) == 2


def _reference_direct_product(g1, g2):
    """direct_product walking both tables entry by entry."""
    m1, m2 = g1.order, g2.order
    table = []
    for a1 in range(m1):
        for a2 in range(m2):
            row = []
            for b1 in range(m1):
                for b2 in range(m2):
                    row.append(g1.mul(a1, b1) * m2 + g2.mul(a2, b2))
            table.append(row)
    labels = ["%s.%s" % (la, lb) for la in g1.labels for lb in g2.labels]
    return FiniteGroup(table, labels=labels)


def test_direct_product_matches_the_entrywise_table():
    groups = _groups()
    for n1 in ("trivial", "Z2", "Z5", "S3", "K4", "D8"):
        for n2 in ("Z1", "Z3", "S3", "K4"):
            got = direct_product(groups[n1], groups[n2])
            want = _reference_direct_product(groups[n1], groups[n2])
            assert got == want, (n1, n2)
            # plain Python ints, as a table read from a file holds
            assert all(type(x) is int for row in got.table for x in row)


def _reference_group_center(group):
    """group_center counting class products pair by pair."""
    classes = group.conjugacy_classes()
    n = len(classes)
    class_of = {}
    for ci, cls in enumerate(classes):
        for g in cls:
            class_of[g] = ci
    rep = [cls[0] for cls in classes]
    c = [[[0] * n for _ in classes] for _ in classes]
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            for g in ci:
                for h in cj:
                    p = group.mul(g, h)
                    if p == rep[class_of[p]]:
                        c[i][j][class_of[p]] += 1
    e_class = class_of[group.identity]
    eps = [0] * n
    eps[e_class] = Fraction(1, group.order)
    unit = [0] * n
    unit[e_class] = 1
    labels = tuple("C%s" % group.labels[r] for r in rep)
    return FrobeniusAlgebra(dim=n, basis=labels,
                            mul=Tensor(c), unit=Tensor(unit), counit=Tensor(eps))


def test_group_center_matches_the_pairwise_count():
    groups = dict(_groups(), S5=symmetric_group(5))
    for name, group in groups.items():
        got, want = group_center(group), _reference_group_center(group)
        assert got == want, name
        assert hash(got) == hash(want), name


def test_conjugacy_classes_match_the_scalar_orbits():
    for name, g in _groups().items():
        seen, classes = set(), []
        for x in g.elements():
            if x not in seen:
                cls = tuple(sorted({g.conj(k, x) for k in g.elements()}))
                seen.update(cls)
                classes.append(cls)
        assert g.conjugacy_classes() == classes, name
