import pytest

from tqft2d.groups import (FiniteGroup, GroupError, LoopWord, trivial_group,
                           cyclic_group, symmetric_group, direct_product,
                           klein_four_group, parse_group, format_group)


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
