import cmath
import itertools
import os
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from tqft2d import frobenius
from tqft2d.bordism import parse_word, evaluate
from tqft2d.frobenius import (FrobeniusAlgebra, DegeneratePairingError,
                              StructureError, validate, pairing, comultiplication,
                              closed_invariant, ground_field, dual_numbers,
                              diagonal, group_center, change_of_basis,
                              rescale_counit, parse_algebra, format_algebra,
                              load_algebra)
from tqft2d.groups import (cyclic_group, direct_product, klein_four_group,
                           symmetric_group)
from tqft2d.tensor import (InputError, Tensor, equal, tensordot, invert_matrix,
                           permute)

from test_tensor import _of_objects


def values(t):
    """The entries of t as an array of its shape."""
    return np.array(t.entries(), dtype=object).reshape(t.shape)


LIBRARY = [
    ground_field(),
    dual_numbers(),
    diagonal([Fraction(1), Fraction(1)]),
    diagonal([Fraction(2), Fraction(1, 3), Fraction(-1)]),
    group_center(cyclic_group(2)),
    group_center(symmetric_group(3)),
]


def _copy_with(algebra, **kw):
    fields = dict(dim=algebra.dim, basis=algebra.basis, mul=algebra.mul,
                  unit=algebra.unit, counit=algebra.counit)
    fields.update(kw)
    return FrobeniusAlgebra(**fields)


def test_library_validates():
    for a in LIBRARY:
        report = validate(a)
        assert report.passed, report.violations
        assert set(report.checked) == {"associativity", "commutativity",
                                       "unit", "nondegeneracy"}


def test_dual_numbers_pairing():
    p = pairing(dual_numbers())
    assert [list(row) for row in values(p)] == [[0, 1], [1, 0]]


def test_degenerate_counit_fails_nondegeneracy():
    bad = _copy_with(dual_numbers(),
                     counit=Tensor(np.array([Fraction(1), Fraction(0)],
                                            dtype=object)))
    report = validate(bad)
    assert report.failed_axioms() == ["nondegeneracy"]
    assert [list(row) for row in values(pairing(bad))] == [[1, 0], [0, 0]]


def test_planted_associativity_failure():
    a = diagonal([Fraction(1)] * 3)
    mul = _of_objects(a.mul.nums.copy())
    # add a symmetric product e1*e2 = e0 so commutativity survives but
    # (e1 e1) e2 = e0 while e1 (e1 e2) = e1 e0 = 0
    mul.nums[1, 2, 0] = 1
    mul.nums[2, 1, 0] = 1
    bad = _copy_with(a, mul=mul)
    report = validate(bad)
    assert "associativity" in report.failed_axioms()
    assert "commutativity" not in report.failed_axioms()


def test_planted_commutativity_failure():
    a = diagonal([Fraction(1), Fraction(1)])
    mul = _of_objects(a.mul.nums.copy())
    mul.nums[0, 1, 0] = 1
    bad = _copy_with(a, mul=mul)
    assert "commutativity" in validate(bad).failed_axioms()


def test_planted_unit_failure():
    a = dual_numbers()
    bad = _copy_with(a, unit=Tensor(np.array([Fraction(2), Fraction(0)],
                                             dtype=object)))
    assert "unit" in validate(bad).failed_axioms()


def test_comultiplication_dual_numbers():
    d = comultiplication(dual_numbers())
    # delta(1) = 1 x x + x x 1, delta(x) = x x x
    assert values(d)[0, 0, 1] == 1 and values(d)[0, 1, 0] == 1
    assert values(d)[0, 0, 0] == 0 and values(d)[0, 1, 1] == 0
    assert values(d)[1, 1, 1] == 1 and values(d)[1, 0, 0] == 0


def test_comultiplication_diagonal():
    a = diagonal([Fraction(1), Fraction(1)])
    d = comultiplication(a)
    for k in range(2):
        for i in range(2):
            for j in range(2):
                assert values(d)[k, i, j] == (1 if i == j == k else 0)


def test_comultiplication_degenerate_raises():
    bad = _copy_with(dual_numbers(),
                     counit=Tensor(np.array([Fraction(1), Fraction(0)],
                                            dtype=object)))
    with pytest.raises(DegeneratePairingError):
        comultiplication(bad)


def test_handle_operator_values():
    h = dual_numbers().handle
    assert values(h)[0, 1] == 2 and values(h)[0, 0] == 0
    assert values(h)[1, 0] == 0 and values(h)[1, 1] == 0
    h = diagonal([Fraction(1), Fraction(1)]).handle
    assert equal(h, Tensor.identity(2))
    assert equal(ground_field().handle, Tensor.identity(1))


def test_handle_operator_inverts_the_pairing_once_per_algebra(monkeypatch):
    inverted = []

    def counted(m, tol):
        inverted.append(m)
        return invert_matrix(m, tol)

    monkeypatch.setattr(frobenius, "invert_matrix", counted)
    a = group_center(symmetric_group(3))
    h = a.handle
    assert equal(h, tensordot(comultiplication(a), a.mul, [1, 2], [0, 1]))
    assert len(inverted) == 2  # the cached comultiplication and the one above
    for g in range(4):
        w = parse_word("cap ; " + "copants ; pants ; " * g + "cup")
        assert closed_invariant(a, g) == evaluate(w, a).item()
    assert len(inverted) == 2
    # a degenerate pairing is never cached: every call raises again
    bad = _copy_with(dual_numbers(),
                     counit=Tensor(np.array([Fraction(1), Fraction(0)], dtype=object)))
    for _ in range(2):
        with pytest.raises(DegeneratePairingError):
            bad.handle
        with pytest.raises(DegeneratePairingError):
            closed_invariant(bad, 0)


def test_float_library_algebras_hold_python_complex_entries():
    for a in (ground_field(False), dual_numbers(False),
              diagonal([2, Fraction(1, 3)], False),
              rescale_counit(dual_numbers(False), 2)):
        entries = a.mul.entries() + a.unit.entries() + a.counit.entries()
        assert {type(x) for x in entries} == {complex}, a


def test_diagonal_rejects_a_zero_weight_in_either_mode():
    for weights, exact in (([1, 0], True), ([1, 1e-12], False)):
        with pytest.raises(StructureError, match="^zero weight makes the pairing "
                                                 "degenerate$"):
            diagonal(weights, exact)
    a = diagonal([1, 1e-6], False)
    assert a.counit.entries() == [complex(1), complex(1e-6)]


def test_evaluate_refuses_a_degenerate_pairing_for_every_word():
    # the comultiplication is read before any contraction, copants or not
    d = dual_numbers()
    bad = FrobeniusAlgebra(dim=2, basis=d.basis, mul=d.mul, unit=d.unit, counit=d.unit)
    for text in ("cap ; cup", "id", "pants", "copants"):
        with pytest.raises(DegeneratePairingError):
            evaluate(parse_word(text), bad)


def test_closed_invariants_dual_numbers():
    a = dual_numbers()
    assert [closed_invariant(a, g) for g in range(4)] == [0, 2, 0, 0]


def test_torus_is_dimension():
    for a in LIBRARY:
        assert closed_invariant(a, 1) == a.dim


def test_counit_and_frobenius_relations():
    for a in LIBRARY:
        d = comultiplication(a)
        n = a.dim
        left = tensordot(d, a.counit, [1], [0])
        right = tensordot(d, a.counit, [2], [0])
        assert equal(left, Tensor.identity(n))
        assert equal(right, Tensor.identity(n))
        # delta . mu = (mu x id) . (id x delta)
        lhs = tensordot(a.mul, d, [2], [0])
        tmp = tensordot(d, a.mul, [1], [1])   # (j, out2, i, out1)
        rhs = permute(tmp, (2, 0, 3, 1))
        assert equal(lhs, rhs)


def test_cocommutativity():
    for a in LIBRARY:
        d = comultiplication(a)
        assert equal(d, permute(d, (0, 2, 1)))


def test_rescaling_law():
    a = group_center(symmetric_group(3))
    lam = Fraction(3, 2)
    b = rescale_counit(a, lam)
    for g in range(4):
        assert closed_invariant(b, g) == lam ** (1 - g) * closed_invariant(a, g)


def test_s3_center_pairing_and_invariant():
    a = group_center(symmetric_group(3))
    p = pairing(a)
    diag = [values(p)[i, i] for i in range(3)]
    assert diag == [Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)]
    assert closed_invariant(a, 2) == 81


def _random_invertible(rng, n):
    while True:
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                for _ in range(n)]
        m = Tensor(np.array(rows, dtype=object))
        if invert_matrix(m) is not None:
            return m


def _reference_witnesses(a):
    """The first witness per failed axiom of validate, by loops over indices."""
    c, u, n = values(a.mul), values(a.unit), a.dim

    def first(fails, legs):
        return next((idx for idx in itertools.product(range(n), repeat=legs)
                     if fails(*idx)), None)

    found = {
        "associativity": first(lambda i, j, k, l: sum(c[i, j, m] * c[m, k, l] for m in range(n))
                               != sum(c[j, k, m] * c[i, m, l] for m in range(n)), 4),
        "commutativity": first(lambda i, j, k: c[i, j, k] != c[j, i, k], 3),
        "unit": first(lambda j, k: sum(u[i] * c[i, j, k] for i in range(n)) != (j == k), 2),
    }
    return {axiom: idx for axiom, idx in found.items() if idx is not None}


def test_validate_reports_the_first_witness_the_loops_find():
    rng = random.Random(3)
    for _ in range(40):
        a = rng.choice(LIBRARY[2:])
        mul = _of_objects(a.mul.nums.copy(), a.mul.den)
        for _ in range(rng.randint(1, 3)):
            mul.nums[tuple(rng.randrange(a.dim) for _ in range(3))] = rng.choice([-1, 2, 3])
        bad = _copy_with(a, mul=mul)
        got = {v.axiom: v.witness for v in validate(bad).violations
               if v.axiom != "nondegeneracy"}
        assert got == _reference_witnesses(bad)


def test_random_basis_changes_stay_valid():
    rng = random.Random(7)
    for trial in range(20):
        n = rng.randint(1, 3)
        weights = [Fraction(rng.randint(1, 4)) for _ in range(n)]
        a = diagonal(weights)
        b = change_of_basis(a, _random_invertible(rng, n))
        report = validate(b)
        assert report.passed, report.violations
        assert closed_invariant(b, 1) == n


def test_standard_algebra_dispatch():
    assert load_algebra("ground_field").dim == 1
    assert load_algebra("dual_numbers").dim == 2
    with pytest.raises(ValueError):
        load_algebra("no_such_algebra")


def test_algebra_file_roundtrip():
    for a in LIBRARY:
        b = parse_algebra(format_algebra(a))
        assert b.dim == a.dim and b.basis == a.basis
        assert equal(b.mul, a.mul)
        assert equal(b.unit, a.unit) and equal(b.counit, a.counit)


def test_algebra_file_parsing_details():
    text = """\
# the algebra of dual numbers
dim 2
basis 1 x

unit 1 0
counit 0 2/2
mul 1 1 -> 1:1
mul 1 2 -> 2:1
mul 2 1 -> 2:3/3
"""
    a = parse_algebra(text)
    assert validate(a).passed
    assert values(a.counit)[1] == 1


@pytest.mark.parametrize("terms, message", [
    ("1:x, 3:1", "bad number"), ("3:x, 1:1", "index out of range"),
    ("1:1, 3:x", "index out of range"), ("1:1, 1:x", "repeated target 1"),
    ("2:1/0, 2:1", "bad number"), ("1:1, 2:", "bad number")])
def test_a_mul_line_names_its_first_bad_term(terms, message):
    # each term's index is checked before its coefficient is read, as when
    # the terms are read one by one
    text = "dim 2\nbasis 1 x\nunit 1 0\ncounit 0 1\nmul 1 1 -> %s\n" % terms
    with pytest.raises(InputError, match="^line 5: %s in " % message):
        parse_algebra(text)


def test_equality_uses_the_algebra_tolerance(tmp_path):
    fixture = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                           "dual_numbers.fa")
    near = tmp_path / "near.fa"
    with open(fixture, encoding="utf-8") as fh:
        near.write_text(fh.read().replace("unit 1 0", "unit 1.0000001 0"))
    loose = load_algebra(str(near), exact=False, tol=1e-6)
    assert validate(loose).passed
    original = load_algebra(fixture, exact=False, tol=1e-6)
    assert loose == original and hash(loose) == hash(original)
    assert {loose: 1}[original] == 1
    # the larger tolerance of the two decides, as for bundles
    assert loose == load_algebra(fixture, exact=False)
    assert load_algebra(str(near), exact=False) != load_algebra(fixture, exact=False)
    assert load_algebra(fixture) != original
    assert load_algebra(fixture) == load_algebra(fixture, tol=1e-6)


def test_load_algebra_builtin_names(tmp_path):
    assert load_algebra("dual_numbers").dim == 2
    p = tmp_path / "gf.fa"
    p.write_text(format_algebra(ground_field()))
    assert load_algebra(str(p)).dim == 1


def test_invariant_matches_word_evaluation():
    for a in LIBRARY:
        t = evaluate(parse_word("cap ; copants ; pants ; cup"), a)
        assert t.item() == closed_invariant(a, 1)


# --- closed invariants by binary powering ---------------------------------

def _reference_closed_invariant(algebra, genus):
    """The g-step loop: H = mul o delta applied to the unit genus times."""
    h = tensordot(comultiplication(algebra), algebra.mul, [1, 2], [0, 1])
    v = algebra.unit
    for _ in range(genus):
        v = tensordot(v, h, [0], [0])
    return tensordot(v, algebra.counit, [0], [0]).item()


def test_closed_invariant_matches_the_g_step_loop():
    for a in LIBRARY:
        floating = parse_algebra(format_algebra(a), exact=False)
        for g in range(71):
            z, want = closed_invariant(a, g), _reference_closed_invariant(a, g)
            assert z == want and type(z) is type(want), (a.basis, g)
            # the products are grouped differently, so floats may move in
            # the last bits: compare relative to the size of the value
            z = closed_invariant(floating, g)
            want = _reference_closed_invariant(floating, g)
            assert type(z) is type(want) is complex
            if cmath.isfinite(want):
                assert abs(z - want) <= floating.tol * max(1, abs(want)), (a.basis, g)


def test_closed_invariant_contracts_in_log_genus(monkeypatch):
    calls = []

    def counted(a, b, axes_a, axes_b):
        calls.append(list(axes_a))
        return tensordot(a, b, axes_a, axes_b)

    monkeypatch.setattr(frobenius, "tensordot", counted)
    a = group_center(symmetric_group(3))
    h = a.handle
    assert calls.count([1, 2]) == 1      # H itself: delta legs 1, 2 into mul
    products, squarings = [], []
    for g in range(200):
        del calls[:]
        closed_invariant(a, g)
        assert [1, 2] not in calls       # H is built once per algebra
        # a product or the counit contracts the vector's leg 0, a squaring
        # leg 1 of a power
        assert calls.count([0]) + calls.count([1]) == len(calls)
        products.append(calls.count([0]))
        squarings.append(calls.count([1]))
    assert a.handle is h and a.handle_powers[0] is h
    # one product per set bit, and the counit
    assert products == [bin(g).count("1") + 1 for g in range(200)]
    # each power of H is squared once per algebra, by the first genus that
    # needs it: H^(2^k) by genus 2^k
    assert squarings == [int(g > 1 and g & (g - 1) == 0) for g in range(200)]
    assert len(a.handle_powers) == 8     # H to H^128
    # 286 when each call squared H anew; the g-step loop made 902
    assert sum(products[:41]) + sum(squarings[:41]) == 148


def test_closed_invariant_does_not_depend_on_the_calls_before():
    genera = list(range(201))
    random.Random(28).shuffle(genera)
    for a in (dual_numbers(), diagonal([Fraction(2), Fraction(1, 3), Fraction(-1)]),
              group_center(symmetric_group(3))):
        text = format_algebra(a)
        floating = parse_algebra(text, exact=False)
        for g in genera:
            z, want = closed_invariant(a, g), _reference_closed_invariant(a, g)
            assert z == want and type(z) is type(want), (a.basis, g)
            # the kept powers are the squares a fresh algebra makes: bit for
            # bit, the infinities and nans of the high genera included
            with np.errstate(over="ignore", invalid="ignore"):
                z = closed_invariant(floating, g)
                fresh = closed_invariant(parse_algebra(text, exact=False), g)
            assert repr(z) == repr(fresh), (a.basis, g)
        assert len(a.handle_powers) == len(floating.handle_powers) == 8
        # another tolerance is another algebra, with no powers kept yet
        loose = replace(floating, tol=1e-6)
        assert loose == floating and "handle_powers" not in vars(loose)
        assert repr(closed_invariant(loose, 5)) == repr(closed_invariant(floating, 5))
        assert len(loose.handle_powers) == 3
    # a degenerate pairing keeps no powers: every call raises, genus 0 too
    d = dual_numbers()
    bad = FrobeniusAlgebra(dim=2, basis=d.basis, mul=d.mul, unit=d.unit, counit=d.unit)
    for g in genera[:20] + [0, 0]:
        with pytest.raises(DegeneratePairingError):
            closed_invariant(bad, g)
        assert "handle_powers" not in vars(bad)


# --- an independent oracle: Mednykh's homomorphism count ------------------

def hom_count(group, genus):
    """|Hom(pi_1 of the closed genus-g surface, G)|: the 2g-tuples with
    [a_1, b_1] ... [a_g, b_g] = e, counted by convolving the distribution of
    one commutator over G x G genus times."""
    elements = group.elements()
    commutators = Counter(group.commutator(a, b) for a in elements for b in elements)
    dist = {group.identity: 1}
    for _ in range(genus):
        step = Counter()
        for x, m in dist.items():
            for c, k in commutators.items():
                step[group.mul(x, c)] += m * k
        dist = step
    return dist.get(group.identity, 0)


def test_group_center_invariants_count_homomorphisms():
    # Z(C[G]) on a closed genus-g surface is |Hom(pi_1, G)| / |G|
    groups = {"Z2": cyclic_group(2), "S3": symmetric_group(3),
              "K4": klein_four_group(), "S4": symmetric_group(4),
              "Z3xS3": direct_product(cyclic_group(3), symmetric_group(3))}
    for name, group in groups.items():
        center = group_center(group)
        for g in range(6):
            assert closed_invariant(center, g) == \
                Fraction(hom_count(group, g), group.order), (name, g)
    assert hom_count(symmetric_group(3), 1) == 18  # commuting pairs: 3 classes


def test_large_genus_matches_the_irrep_formula():
    # S3 has irreps of dimension 1, 1 and 2: sum of (6/d)^(2g-2)
    center = group_center(symmetric_group(3))
    for g in (64, 100):
        assert closed_invariant(center, g) == 2 * 6 ** (2 * g - 2) + 3 ** (2 * g - 2)
