import io
import itertools
import os
import random
import re
import shutil
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from tqft2d.bordism import (ARITY, EULER, BordismWord, Gen, evaluate, parse_word,
                            random_equivalent_pair)
from tqft2d.crossed import (CrossedBundle, BundleError, LabelError,
                            ExtractionError, TftOracle, validate_bundle,
                            from_group_algebra, from_frobenius_algebra,
                            label_word, parse_labeled,
                            format_labeled, evaluate_labeled, holonomy,
                            tft_to_bundle, roundtrip_check, frobenius_action,
                            rotation_transport, nfold_fission_check,
                            closed_surface_word, conjugate_labeled,
                            insert_identity_layer, insert_conjugation_pair,
                            enumerate_labeled_words, parse_bundle,
                            format_bundle, load_bundle)
from tqft2d import crossed, frobenius, groups
from tqft2d.cli import run
from tqft2d.frobenius import (dual_numbers, diagonal, closed_invariant,
                              comultiplication, group_center, change_of_basis,
                              format_algebra, load_algebra, rescale_counit,
                              validate)
from tqft2d.gerbe import (ScalarBundle, from_cocycle, klein_anticommuting_cocycle,
                          load_cocycle, to_crossed_bundle)
from tqft2d.groups import (LoopWord, trivial_group, cyclic_group,
                           symmetric_group, klein_four_group, format_group,
                           parse_group)
from tqft2d.report import ValidationReport, Violation
from tqft2d.tensor import (Tensor, equal, first_difference, invert_matrix,
                           permute, tensordot)

from test_tensor import _of_objects

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
S3 = symmetric_group(3)
CONSTANT = from_frobenius_algebra(Z2, dual_numbers())
Z2_DUAL_FILE = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                            "z2_dual.bundle")


def derive_fission(bundle: CrossedBundle) -> dict:
    """Fission derived from fusion and the graded pairing, when invertible:
    the graded form of ``frobenius.comultiplication``, kept here as a
    reference that bundles' fission data can be checked against.

    Returns a fission dict; raises BundleError if some needed pairing block
    between A_h and A_{h^-1} is singular.
    """
    G = bundle.group
    out = {}
    copair = {}
    for h in G.elements():
        hi = G.inverse(h)
        # pairing A_{h^-1} x A_h -> k through mu and counit
        pair = tensordot(bundle.fusion[hi, h], bundle.counit, [2], [0])
        inv = invert_matrix(pair, bundle.tol)
        if inv is None:
            raise BundleError("pairing between fibers %d and %d is singular" % (hi, h))
        copair[h] = inv
    for g in G.elements():
        for h in G.elements():
            gh = G.mul(g, h)
            # nu[g,h][x,i,j] = sum_a mu_{gh,h^-1}[x,a,i] copair_h[a,j]
            out[g, h] = tensordot(bundle.fusion[gh, G.inverse(h)], copair[h], [1], [0])
    return out


def scaled(bundle, block, key, factor):
    """Copy of the bundle with one structure tensor scaled."""
    data = dict(group=bundle.group, dims=bundle.dims,
                fusion=dict(bundle.fusion), fission=dict(bundle.fission),
                transport=dict(bundle.transport),
                unit=bundle.unit, counit=bundle.counit)
    if block in ("fusion", "fission", "transport"):
        data[block][key] = tensordot(Tensor.scalar(factor), data[block][key], [], [])
    else:
        data[block] = tensordot(Tensor.scalar(factor), data[block], [], [])
    return CrossedBundle(**data)


def test_group_algebra_bundles_validate():
    for g in (trivial_group(), Z2, S3):
        report = validate_bundle(from_group_algebra(g))
        assert report.passed, report.violations
        assert len(report.checked) == 10


def test_constant_bundle_validates():
    assert validate_bundle(CONSTANT).passed


def test_derived_fission_matches_constant_bundle():
    df = derive_fission(CONSTANT)
    for key in df:
        assert equal(df[key], CONSTANT.fission[key])


def test_trivial_group_bundle_is_ground_field():
    b = from_group_algebra(trivial_group())
    assert b.dims == (1,)
    assert b.fusion[0, 0].entries() == [1]


def test_shape_errors_before_axioms():
    # every block family, with one block missing and with one of wrong shape
    b = from_group_algebra(Z2)
    for family in ("fusion", "fission", "transport"):
        for fault in ("missing", "shape"):
            blocks = {f: dict(getattr(b, f))
                      for f in ("fusion", "fission", "transport")}
            if fault == "missing":
                del blocks[family][0, 1]
                message = "missing %s block (0,1)" % family
            else:
                rank = blocks[family][0, 1].rank
                blocks[family][0, 1] = Tensor(np.zeros((2,) * rank, dtype=object))
                message = "%s (0,1) has shape %s" % (family, (2,) * rank)
            with pytest.raises(BundleError, match=re.escape(message)):
                CrossedBundle(group=Z2, dims=b.dims, unit=b.unit,
                              counit=b.counit, **blocks)


# --- the eight planted violations, one per defining condition -------------

def test_plant_fusion_transport():
    # scale one transport scalar; tau(k,g)^2 != tau(k,g^2) afterwards
    bad = scaled(from_group_algebra(S3), "transport", (1, 3), 2)
    assert "fusion-transport" in validate_bundle(bad).failed_axioms()


def test_plant_fission_transport():
    b = from_group_algebra(S3)
    data = dict(group=S3, dims=b.dims, fusion=b.fusion,
                fission=dict(b.fission), transport=dict(b.transport),
                unit=b.unit, counit=b.counit)
    # make transport trivial except on fission comparisons by scaling one
    # fission block instead
    data["fission"][3, 3] = tensordot(Tensor.scalar(2), data["fission"][3, 3], [], [])
    bad = CrossedBundle(**data)
    failed = validate_bundle(bad).failed_axioms()
    assert "fission-transport" in failed or "coassociativity" in failed


def test_plant_associativity():
    bad = scaled(from_group_algebra(Z3), "fusion", (1, 1), -1)
    assert "associativity" in validate_bundle(bad).failed_axioms()


def test_plant_coassociativity():
    bad = scaled(from_group_algebra(Z3), "fission", (1, 1), -1)
    assert "coassociativity" in validate_bundle(bad).failed_axioms()


def test_plant_frobenius():
    bad = scaled(from_group_algebra(Z2), "fission", (1, 1), 2)
    failed = validate_bundle(bad).failed_axioms()
    assert failed == ["frobenius"]


def test_plant_unit_transport():
    bad = scaled(from_group_algebra(Z2), "transport", (1, 0), 2)
    assert "unit-transport" in validate_bundle(bad).failed_axioms()


def test_plant_unit():
    bad = scaled(from_group_algebra(Z2), "fusion", (1, 0), 2)
    assert "unit" in validate_bundle(bad).failed_axioms()


def test_plant_counit():
    bad = scaled(from_group_algebra(Z2), "fission", (1, 0), 2)
    assert "counit" in validate_bundle(bad).failed_axioms()


def test_plant_nondegeneracy():
    b = from_frobenius_algebra(Z2, diagonal([Fraction(1), Fraction(1)]))
    data = dict(group=Z2, dims=b.dims, fusion=b.fusion, fission=b.fission,
                transport=b.transport, unit=b.unit,
                counit=Tensor(np.array([Fraction(1), Fraction(0)],
                                       dtype=object)))
    assert "nondegeneracy" in validate_bundle(
        CrossedBundle(**data)).failed_axioms()


def test_plant_flatness():
    bad = scaled(from_group_algebra(Z2), "transport", (1, 1), 3)
    assert "flatness" in validate_bundle(bad).failed_axioms()


def nudged(bundle, block, key, eps):
    """Copy of a float bundle with eps added to the first entry of one block."""
    data = dict(group=bundle.group, dims=bundle.dims,
                fusion=dict(bundle.fusion), fission=dict(bundle.fission),
                transport=dict(bundle.transport),
                unit=bundle.unit, counit=bundle.counit, tol=bundle.tol)
    arr = data[block][key].nums.copy()
    arr.flat[0] += eps
    data[block][key] = Tensor(arr, exact=False)
    return CrossedBundle(**data)


def test_float_bundle_helpers_keep_the_tolerance():
    loose = load_bundle(Z2_DUAL_FILE, exact=False, tol=1e-6)
    t = evaluate_labeled(parse_labeled("swap[e,e]", loose.group), loose)
    assert (t.exact, loose.tol) == (False, 1e-6)

    a = replace(dual_numbers(exact=False), tol=1e-6)
    assert from_frobenius_algebra(Z2, a).tol == 1e-6

    derived = derive_fission(loose)
    assert all(equal(derived[k], loose.fission[k], loose.tol) for k in derived)
    # a pairing of size 1e-7 is singular at 1e-6, though not at 1e-9
    text = format_bundle(from_group_algebra(Z2), "z2.group").replace(
        "counit : 1", "counit : 1e-7")
    derive_fission(parse_bundle(text, Z2, exact=False))
    with pytest.raises(BundleError):
        derive_fission(parse_bundle(text, Z2, exact=False, tol=1e-6))

    # towers of a comultiplication that is coassociative only to 1e-7
    r = 1
    assert nfold_fission_check(nudged(loose, "fission", (r, r), 1e-7),
                               [r] * 4).passed
    strict = load_bundle(Z2_DUAL_FILE, exact=False)
    assert not nfold_fission_check(nudged(strict, "fission", (r, r), 1e-7),
                                   [r] * 4).passed


def test_float_checks_use_the_bundle_tolerance():
    text = format_bundle(from_group_algebra(Z2), "z2.group")
    loose = parse_bundle(text, Z2, exact=False, tol=1e-6)
    assert (loose.exact, loose.tol) == (False, 1e-6)
    e, r = Z2.identity, 1
    assert validate_bundle(nudged(loose, "transport", (e, r), 1e-7)).passed
    report = validate_bundle(nudged(loose, "transport", (e, r), 1e-3))
    assert Violation("flatness", (e, r, 0, 0)) in report.violations
    # the same 1e-7 is a violation at the default tolerance
    strict = parse_bundle(text, Z2, exact=False)
    assert not validate_bundle(nudged(strict, "transport", (e, r), 1e-7)).passed

    assert frobenius_action(nudged(loose, "fusion", (e, r), 1e-7), r)[2].passed
    report = frobenius_action(nudged(loose, "fusion", (e, r), 1e-3), r)[2]
    assert report.violations[0] == Violation("module", (r, 0, 0, 0, 0))


@pytest.mark.parametrize("tol, ok", [(1e-6, True), (1e-9, False)])
def test_float_tolerance_reaches_every_check_and_helper(tmp_path, tol, ok):
    # the unit of near.fa and the transport e on r1 of near.bundle are off by
    # 1e-7: every check below holds at 1e-6 and fails at 1e-9, so each shows
    # that the tolerance loaded with the data reached it
    near_algebra = tmp_path / "near.fa"
    near_algebra.write_text(format_algebra(dual_numbers()).replace(
        "unit 1 0", "unit 1.0000001 0"))
    (tmp_path / "z2.group").write_text(format_group(Z2))
    near_bundle = tmp_path / "near.bundle"
    with open(Z2_DUAL_FILE, encoding="utf-8") as fh:
        near_bundle.write_text(fh.read().replace(
            "transport e r1 : 1 0 0 1", "transport e r1 : 1.0000001 0 0 1"))

    algebra = load_algebra(str(near_algebra), exact=False, tol=tol)
    s = Tensor([[complex(1), complex(1)], [complex(0), complex(1)]], exact=False)
    for a in (algebra, rescale_counit(algebra, 2), change_of_basis(algebra, s)):
        assert (a.exact, a.tol, validate(a).passed) == (False, tol, ok)
    constant = from_frobenius_algebra(Z2, algebra)
    bundle = load_bundle(str(near_bundle), exact=False, tol=tol)
    for b in (constant, replace(constant, fission=derive_fission(constant)), bundle):
        assert (b.exact, b.tol, validate_bundle(b).passed) == (False, tol, ok)

    oracle = TftOracle.from_bundle(bundle)
    assert oracle.tol == tol
    words = enumerate_labeled_words(Z2, 2, budget_per_shape=5)
    if ok:
        assert tft_to_bundle(oracle).tol == tol
        assert roundtrip_check(bundle, words).passed
    else:  # the plain cylinder on r1 is the identity only to 1e-7
        with pytest.raises(ExtractionError, match="identity-preservation"):
            roundtrip_check(bundle, words)

    out = io.StringIO()
    code = run(["fuzz-equiv", "--algebra", str(near_algebra), "--count", "20",
                "--seed", "3", "--mode", "float", "--tolerance", str(tol)], out)
    assert (code == 0) is ok, out.getvalue()


def test_mixed_scalar_modes_rejected():
    # contractions that skip tensordot's mode check must never see such data
    b = from_group_algebra(Z2)
    transport = dict(b.transport)
    transport[1, 0] = Tensor([[complex(1)]], exact=False)
    with pytest.raises(BundleError, match=re.escape(
            "mixed scalar modes: transport (1,0) is float, the unit exact")):
        replace(b, transport=transport)
    with pytest.raises(BundleError, match="the counit is float, the unit exact"):
        replace(b, counit=Tensor([complex(1)], exact=False))


def test_a_block_key_outside_g_x_g_is_rejected_naming_family_and_key():
    # such a key used to make a bundle: with (5, 0) it compared equal to b
    # and validate_bundle died in numpy's indexing; a transport key (0, 0, 0)
    # was written over the row transport[0, 0, 0] and the bundle validated
    b = from_group_algebra(Z2)
    with pytest.raises(BundleError, match=re.escape(
            "fusion block key (5, 0) is not a pair of group elements")):
        replace(b, fusion={**b.fusion, (5, 0): b.fusion[0, 0]})
    with pytest.raises(BundleError, match=re.escape(
            "transport block key (0, 0, 0) is not a pair of group elements")):
        replace(b, transport={**b.transport, (0, 0, 0): Tensor([1])})
    with pytest.raises(BundleError, match=re.escape(
            "fission block key (-1, 0) is not a pair of group elements")):
        replace(b, fission={**b.fission, (-1, 0): b.fission[1, 0]})
    # a missing block is still named first, as the walk over G x G finds it
    fusion = {**b.fusion, (5, 0): b.fusion[0, 0]}
    del fusion[1, 0]
    with pytest.raises(BundleError, match=re.escape("missing fusion block (1,0)")):
        replace(b, fusion=fusion)
    # the family's first bad block by key, whatever order the dict holds
    transport = dict(reversed(list(b.transport.items())))
    transport[0, 1] = transport[1, 1] = Tensor([[1, 0]])
    with pytest.raises(BundleError, match=re.escape(
            "transport (0,1) has shape (1, 2), want (1, 1)")):
        replace(b, transport=transport)


# --- the validator against its definition ---------------------------------

def _reference_validate_bundle(bundle):
    """validate_bundle by definition: one grading at a time, block by block,
    recording every violation in loop order."""
    G = bundle.group
    e = G.identity
    mu, nu, P = bundle.fusion, bundle.fission, bundle.transport
    report = ValidationReport()

    def mismatch(axiom, grading, lhs, rhs):
        idx = first_difference(lhs, rhs, bundle.tol)
        if idx is not None:
            report.fail(axiom, grading + idx)

    report.check("fusion-transport")
    report.check("fission-transport")
    for k, g, h in itertools.product(G.elements(), repeat=3):
        gc, hc = G.conj(k, g), G.conj(k, h)
        gh = G.mul(g, h)
        # P_k . mu_{g,h} = mu_{g',h'} . (P_k x P_k)
        lhs = tensordot(mu[g, h], P[k, gh], [2], [0])
        tmp = tensordot(P[k, g], mu[gc, hc], [1], [0])
        rhs = permute(tensordot(P[k, h], tmp, [1], [1]), (1, 0, 2))
        mismatch("fusion-transport", (k, g, h), lhs, rhs)
        # nu_{g',h'} . P_k = (P_k x P_k) . nu_{g,h}
        lhs = tensordot(P[k, gh], nu[gc, hc], [1], [0])
        tmp = tensordot(nu[g, h], P[k, g], [1], [0])
        rhs = tensordot(tmp, P[k, h], [1], [0])
        mismatch("fission-transport", (k, g, h), lhs, rhs)

    report.check("associativity")
    report.check("coassociativity")
    report.check("frobenius")
    for g, h, k in itertools.product(G.elements(), repeat=3):
        gh, hk = G.mul(g, h), G.mul(h, k)
        lhs = tensordot(mu[g, h], mu[gh, k], [2], [0])
        rhs = tensordot(mu[h, k], mu[g, hk], [2], [1])
        mismatch("associativity", (g, h, k), lhs, permute(rhs, (2, 0, 1, 3)))
        lhs = permute(tensordot(nu[gh, k], nu[g, h], [1], [0]), (0, 2, 3, 1))
        rhs = tensordot(nu[g, hk], nu[h, k], [2], [0])
        mismatch("coassociativity", (g, h, k), lhs, rhs)
        lhs = tensordot(mu[gh, k], nu[g, hk], [2], [0])
        rhs = tensordot(nu[g, h], mu[h, k], [2], [0])
        mismatch("frobenius", (g, h, k), lhs, permute(rhs, (0, 2, 1, 3)))
        lhs = tensordot(mu[g, hk], nu[gh, k], [2], [0])
        rhs = tensordot(nu[h, k], mu[g, h], [1], [1])
        mismatch("frobenius", (g, h, k, "rev"), lhs, permute(rhs, (2, 0, 3, 1)))

    report.check("unit-transport")
    u, eps = bundle.unit, bundle.counit
    for k in G.elements():
        mismatch("unit-transport", (k,), tensordot(u, P[k, e], [0], [0]), u)
        mismatch("unit-transport", (k, "counit"), tensordot(P[k, e], eps, [1], [0]), eps)

    report.check("unit")
    report.check("counit")
    for g in G.elements():
        ident = Tensor.identity(bundle.dims[g], exact=bundle.exact)
        mismatch("unit", (g,), tensordot(mu[g, e], u, [1], [0]), ident)
        mismatch("counit", (g,), tensordot(nu[g, e], eps, [2], [0]), ident)

    report.check("nondegeneracy")
    if invert_matrix(tensordot(mu[e, e], eps, [2], [0]), bundle.tol) is None:
        report.fail("nondegeneracy", ())

    report.check("flatness")
    for g in G.elements():
        mismatch("flatness", (e, g), P[e, g],
                 Tensor.identity(bundle.dims[g], exact=bundle.exact))
    for k, l, g in itertools.product(G.elements(), repeat=3):
        lhs = tensordot(P[l, g], P[k, G.conj(l, g)], [1], [0])
        mismatch("flatness", (k, l, g), lhs, P[G.mul(k, l), g])
    return report


def _as_float(bundle):
    def f(t):
        return Tensor(np.array([complex(x) for x in t.entries()],
                               dtype=object).reshape(t.shape), exact=False)
    return replace(bundle, unit=f(bundle.unit), counit=f(bundle.counit),
                   **{fam: {key: f(t) for key, t in getattr(bundle, fam).items()}
                      for fam in ("fusion", "fission", "transport")})


def _random_entries(rng, shape):
    values = [0, 0, 1, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]
    return np.array([rng.choice(values) for _ in range(int(np.prod(shape)))],
                    dtype=object).reshape(shape)


def _perturbed(bundle, rng):
    """Copy of an exact bundle with one entry, or one whole block, changed."""
    fam = rng.choice(("fusion", "fission", "transport", "unit", "counit"))
    if fam in ("unit", "counit"):
        old = getattr(bundle, fam)
    else:
        key = rng.choice(sorted(getattr(bundle, fam)))
        old = getattr(bundle, fam)[key]
    if rng.random() < 0.5:
        nums = np.array(old.entries(), dtype=object).reshape(old.shape)
        nums.flat[rng.randrange(nums.size)] += rng.choice([1, -1, Fraction(1, 3)])
    else:
        nums = _random_entries(rng, old.shape)
    if fam in ("unit", "counit"):
        return replace(bundle, **{fam: Tensor(nums)})
    return replace(bundle, **{fam: {**getattr(bundle, fam), key: Tensor(nums)}})


def _random_bundle(rng, group, dims):
    """Random blocks of the right shapes: almost every axiom fails."""
    def block(*shape):
        return Tensor(_random_entries(rng, shape))
    els, m = group.elements(), group.mul
    return CrossedBundle(
        group=group, dims=dims,
        fusion={(g, h): block(dims[g], dims[h], dims[m(g, h)]) for g in els for h in els},
        fission={(g, h): block(dims[m(g, h)], dims[g], dims[h]) for g in els for h in els},
        transport={(k, g): block(dims[g], dims[group.conj(k, g)])
                   for k in els for g in els},
        unit=block(dims[group.identity]), counit=block(dims[group.identity]))


def _assert_validates_as_reference(bundle):
    report, ref = validate_bundle(bundle), _reference_validate_bundle(bundle)
    assert report.checked == ref.checked
    assert report.violations == ref.violations
    return len(ref.violations)


def test_validate_bundle_matches_the_loop_reference():
    K4 = klein_four_group()
    fixtures = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    bases = [load_bundle(os.path.join(fixtures, name))
             for name in ("z2_dual.bundle", "s3_lines.bundle")]
    bases += [from_group_algebra(G) for G in (Z2, S3, K4)]
    bases += [to_crossed_bundle(from_cocycle(*klein_anticommuting_cocycle())),
              from_frobenius_algebra(Z2, dual_numbers()),
              from_frobenius_algebra(Z3, diagonal([Fraction(2), Fraction(1, 3)]))]
    rng = random.Random(11)
    compared = 0
    for base in bases:
        for exact in (True, False):
            b = base if exact else _as_float(base)
            assert validate_bundle(b).passed
            compared += _assert_validates_as_reference(b)
            for _ in range(4):
                bad = _perturbed(base, rng)
                compared += _assert_validates_as_reference(bad if exact else _as_float(bad))
    for group, dims in ((Z2, (2, 1)), (K4, (1, 3, 2, 1)), (S3, (1, 2, 1, 1, 2, 1))):
        for _ in range(3):
            b = _random_bundle(rng, group, dims)
            compared += _assert_validates_as_reference(b)
            compared += _assert_validates_as_reference(_as_float(b))
    assert compared > 1000  # most of the cases above fail many axioms
    # over S4's 13,824 triples, one planted fault fails only the gradings
    # whose blocks reach it
    s4_fault = _perturbed(from_group_algebra(symmetric_group(4)), random.Random(4))
    assert 0 < _assert_validates_as_reference(s4_fault) < 24 ** 3


def test_validator_contractions_do_not_grow_with_the_group(monkeypatch):
    # the stacked validator contracts through tensor.einsum, not block by block
    calls = []
    real = crossed.tensordot
    monkeypatch.setattr(crossed, "tensordot",
                        lambda *args: calls.append(args) or real(*args))
    counts = []
    for group in (S3, symmetric_group(4)):
        calls.clear()
        report = validate_bundle(from_group_algebra(group))
        assert report.passed, report.violations
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_a_second_validation_builds_no_new_gather_rows(monkeypatch):
    # the flat rows of the gathers are made once per group and kept on it
    built = []
    real = groups._grading_rows
    monkeypatch.setattr(groups, "_grading_rows", lambda g: built.append(g) or real(g))
    group = symmetric_group(3)  # a fresh group: no rows built yet
    bundle = from_group_algebra(group)
    assert validate_bundle(bundle).passed
    rows = group.grading_rows
    assert validate_bundle(bundle).passed
    assert validate_bundle(from_frobenius_algebra(group, dual_numbers())).passed
    assert built == [group] and group.grading_rows is rows


def test_cli_validate_bundle_reports_the_reference_violations(tmp_path):
    shutil.copy(os.path.join(os.path.dirname(Z2_DUAL_FILE), "z2.group"), tmp_path)
    path = tmp_path / "bad.bundle"
    with open(Z2_DUAL_FILE, encoding="utf-8") as fh:
        path.write_text(fh.read().replace("transport r1 r1 : 1 0 0 1",
                                          "transport r1 r1 : 1 0 1 1").replace(
            "fission r1 e : 0 1 1 0 0 0 0 1", "fission r1 e : 0 1 1 0 0 0 2 1"))
    ref = _reference_validate_bundle(load_bundle(str(path)))
    out = io.StringIO()
    assert run(["validate", "--bundle", str(path)], out) == 1
    lines = out.getvalue().splitlines()
    assert [ln for ln in lines if ln.startswith("violation:")] == \
        ["violation: %s" % v for v in ref.violations]
    assert len(ref.violations) > 10
    assert lines[-1].startswith("RESULT: FAIL")


# --- labeling and evaluation ---------------------------------------------

def test_label_propagation():
    b = parse_labeled("pants[r1,r1] ; copants[e,e] ; cup * cup[]", Z2)
    assert b.boundaries == ((1, 1), (0,), (0, 0), ())


def test_cup_on_nonidentity_label_rejected():
    with pytest.raises(LabelError):
        parse_labeled("id[r1] ; cup", Z2)


def test_bad_copants_split_rejected():
    with pytest.raises(LabelError):
        parse_labeled("id[e,r1] ; copants[e,e]", Z2)


def test_unclosed_bracket_rejected():
    with pytest.raises(LabelError, match="missing"):
        parse_labeled("cap[] ; cup[", Z2)


@pytest.mark.parametrize("text, factor", [
    ("cap[r1] ; cup", "cap[r1]"),
    ("cap[] ; cup[r1]", "cup[r1]"),
    ("id[e] * cap[e] ; pants ; cup", "cap[e]"),
    ("cup[e]", "cup[e]"),
], ids=["cap", "later-cup", "first-layer-cap", "first-layer-cup"])
def test_labels_on_cap_and_cup_are_rejected(text, factor):
    with pytest.raises(LabelError, match=re.escape("takes no labels in %r" % factor)):
        parse_labeled(text, Z2)
    # format_labeled writes them bare, so its words read back
    b = parse_labeled(text.replace(factor, factor.partition("[")[0] + "[]"), Z2)
    assert parse_labeled(format_labeled(b), Z2) == b


def test_label_assertion_mismatch_rejected():
    with pytest.raises(LabelError):
        parse_labeled("pants[r1,r1] ; copants[r1,r1] ; pants[e,e]", Z2)


@pytest.mark.parametrize("bad", [-1, 6])
def test_elements_outside_the_group_are_named(bad):
    # -1 used to wrap to the last element, and 6 to raise a bare IndexError
    b = label_word(S3, parse_word("id"), (1,))
    calls = [
        lambda: label_word(S3, parse_word("id"), (bad,)),
        lambda: label_word(S3, parse_word("id"), (1,), ((bad,),)),
        lambda: label_word(S3, parse_word("copants"), (0,), (((bad, 0),),)),
        lambda: label_word(S3, parse_word("copants"), (0,), (((0, bad),),)),
        lambda: closed_surface_word(S3, 1, [(bad, 0)]),
        lambda: closed_surface_word(S3, 1, [(0, bad)]),
        lambda: conjugate_labeled(b, bad),
        lambda: insert_conjugation_pair(b, 0, bad),
    ]
    for call in calls:
        with pytest.raises(LabelError, match=re.escape("%d is not a group element (0..5)" % bad)):
            call()
    # both ends of the range are elements
    assert label_word(S3, parse_word("id"), (5,), ((0,),)).boundaries == ((5,), (5,))
    assert conjugate_labeled(b, 5) == label_word(S3, parse_word("id"), (S3.conj(5, 1),))


@pytest.mark.parametrize("bad", [-1, 6])
def test_the_bundle_checks_name_elements_outside_the_group(bad):
    # -1 used to raise a bare KeyError and 6 a bare IndexError
    B = from_group_algebra(S3)
    calls = [
        lambda: nfold_fission_check(B, [bad, 2, 3]),
        lambda: nfold_fission_check(B, [1, bad]),
        lambda: nfold_fission_check(B, [bad]),
        lambda: frobenius_action(B, bad),
    ]
    for call in calls:
        with pytest.raises(LabelError, match=re.escape("%d is not a group element (0..5)" % bad)):
            call()
    # both ends of the range are elements
    assert nfold_fission_check(B, [0, 5, 2]).passed
    assert frobenius_action(B, 5)[2].passed


def test_labeled_format_roundtrip():
    K = klein_four_group()
    tor = closed_surface_word(K, 1, [(K.index("10"), K.index("01"))])
    assert parse_labeled(format_labeled(tor), K) == tor


def test_identity_cylinder_evaluates_to_identity():
    for g in Z2.elements():
        b = label_word(Z2, BordismWord(((Gen.ID,),)), (g,))
        assert equal(evaluate_labeled(b, CONSTANT), Tensor.identity(2))


def test_pants_cup_pairing_on_group_algebra():
    b = parse_labeled("pants[120,201] ; cup", from_group_algebra(S3).group)
    t = evaluate_labeled(b, from_group_algebra(S3))
    assert t.entries()[0] == 1


def test_torus_on_group_algebra_is_one():
    K = klein_four_group()
    B = from_group_algebra(K)
    for a in K.elements():
        for b in K.elements():
            w = closed_surface_word(K, 1, [(a, b)])
            assert holonomy(w, B) == 1


def test_noncommuting_handle_rejected():
    with pytest.raises(LabelError):
        closed_surface_word(S3, 1, [(1, 2)])  # transpositions don't commute


def test_closed_surface_euler_characteristic():
    e = Z2.identity
    for g in range(4):
        w = closed_surface_word(Z2, g, [(e, e)] * g)
        assert sum(EULER[gen] for layer in w.word.layers for gen in layer) == 2 - 2 * g
        assert w.is_closed()


def test_constant_bundle_holonomy_matches_point_invariant():
    e = Z2.identity
    for g in range(4):
        w = closed_surface_word(Z2, g, [(e, e)] * g)
        assert holonomy(w, CONSTANT) == closed_invariant(dual_numbers(), g)


def test_holonomy_requires_closed_surface():
    b = parse_labeled("id[e,e]", Z2)
    with pytest.raises(LabelError):
        holonomy(b, CONSTANT)


def test_intermediate_relabeling_invariance():
    # route a 2 -> 1 fusion surface through conjugated intermediate labels
    B = from_frobenius_algebra(S3, dual_numbers())
    for k in S3.elements():
        for g, h in [(1, 2), (3, 4), (0, 5)]:
            direct = label_word(S3, parse_word("pants"), (g, h))
            ki = S3.inverse(k)
            routed = label_word(
                S3, parse_word("id * id ; pants ; id"), (g, h),
                annotations=((k, k), (None,), (ki,)))
            assert equal(evaluate_labeled(direct, B),
                         evaluate_labeled(routed, B))


# --- the two theorem directions ------------------------------------------

def test_tft_to_bundle_roundtrip_on_group_algebra():
    B = from_group_algebra(Z2)
    rebuilt = tft_to_bundle(TftOracle.from_bundle(B))
    assert rebuilt == B


def test_tft_to_bundle_detects_broken_identity():
    B = from_group_algebra(Z2)
    base = TftOracle.from_bundle(B)

    def broken(b):
        t = base.evaluate(b)
        return tensordot(Tensor.scalar(2), t, [], [])

    with pytest.raises(ExtractionError) as err:
        tft_to_bundle(TftOracle(group=Z2, dims=B.dims, evaluate=broken))
    assert "identity" in str(err.value)


def test_roundtrip_check_bundles():
    for B, budget in ((from_group_algebra(Z2), 1000),
                      (from_group_algebra(S3), 12),
                      (CONSTANT, 60)):
        words = enumerate_labeled_words(B.group, 3, budget_per_shape=budget)
        report = roundtrip_check(B, words)
        assert report.passed, report.violations


@pytest.mark.parametrize("block, key, witness", [
    ("fusion", (1, 1), ("fusion", 1, 1)),
    ("transport", (1, 0), ("transport", 1, 0)),
    ("unit", None, ("unit",)),
    ("counit", None, ("counit",)),
], ids=["fusion", "transport", "unit", "counit"])
def test_roundtrip_check_names_a_planted_block(monkeypatch, block, key, witness):
    monkeypatch.setattr(crossed, "tft_to_bundle",
                        lambda oracle: scaled(CONSTANT, block, key, 3))
    report = roundtrip_check(CONSTANT, [])
    assert report.checked == ["bundle-reconstruction", "evaluator-agreement"]
    assert report.violations == [Violation("bundle-reconstruction", witness)]


def test_roundtrip_check_names_planted_dims(monkeypatch):
    # a rebuilt bundle of other fiber dimensions differs in every block too
    monkeypatch.setattr(crossed, "tft_to_bundle",
                        lambda oracle: from_group_algebra(Z2))
    report = roundtrip_check(CONSTANT, [])
    blocks = [(family,) + key
              for family, key, _ in crossed._block_shapes(Z2, CONSTANT.dims)]
    assert report.violations == [
        Violation("bundle-reconstruction", w)
        for w in [("dims",)] + blocks + [("unit",), ("counit",)]]


def test_bundle_differences_are_the_places_roundtrip_check_reports(monkeypatch):
    # one fusion block, one transport block and the counit differ, planted
    # in the reverse of the order they are reported in
    other = scaled(scaled(scaled(CONSTANT, "counit", None, 3), "transport", (1, 0), 5),
                   "fusion", (1, 1), 7)
    places = [("fusion", 1, 1), ("transport", 1, 0), ("counit",)]
    assert list(CONSTANT.differences(other)) == places
    assert list(other.differences(CONSTANT)) == places
    assert not CONSTANT == other and CONSTANT != other
    assert list(CONSTANT.differences(scaled(CONSTANT, "unit", None, 1))) == []
    assert list(CONSTANT.differences(from_frobenius_algebra(Z3, dual_numbers()))) \
        == [("group",)]
    monkeypatch.setattr(crossed, "tft_to_bundle", lambda oracle: other)
    report = roundtrip_check(CONSTANT, [])
    assert report.violations == [Violation("bundle-reconstruction", w) for w in places]


def test_tft_to_bundle_evaluates_each_plain_cylinder_once():
    B = from_group_algebra(S3)
    base = TftOracle.from_bundle(B)
    seen = []

    def counting(b):
        seen.append((b.word.layers, b.boundaries, b.annotations))
        return base.evaluate(b)

    assert tft_to_bundle(TftOracle(group=S3, dims=B.dims, evaluate=counting)) == B
    e = S3.identity
    plain = [s for s in seen if s[0] == ((Gen.ID,),) and s[2] == ((e,),)]
    assert len(plain) == S3.order
    assert len(set(seen)) == len(seen) == 3 * S3.order ** 2 + 2

    # a broken cylinder is named by its first label before any other
    # generator is evaluated
    def broken(b):
        seen.append(b.word.layers)
        t = base.evaluate(b)
        if b.word.layers == ((Gen.ID,),) and b.in_labels[0] >= 2:
            t = tensordot(Tensor.scalar(2), t, [], [])
        return t

    seen.clear()
    with pytest.raises(ExtractionError, match="the plain cylinder on label %r "
                                              % S3.labels[2]):
        tft_to_bundle(TftOracle(group=S3, dims=B.dims, evaluate=broken))
    assert set(seen) == {((Gen.ID,),)}


def test_roundtrip_check_names_the_words_the_evaluators_disagree_on(monkeypatch):
    cylinders = [label_word(Z2, parse_word("id"), (g,), ((k,),))
                 for g in Z2.elements() for k in Z2.elements()]
    evaluate = crossed.evaluate_labeled

    def planted(b, bundle):
        # the rebuilt bundle, and only it, maps cylinders 1 and 3 wrong
        t = evaluate(b, bundle)
        if bundle is not CONSTANT and b in (cylinders[1], cylinders[3]):
            return tensordot(Tensor.scalar(3), t, [], [])
        return t

    monkeypatch.setattr(crossed, "evaluate_labeled", planted)
    report = roundtrip_check(CONSTANT, cylinders)
    assert report.violations == [Violation("evaluator-agreement", (1,)),
                                 Violation("evaluator-agreement", (3,))]


def test_constant_bundle_reuses_the_algebras_comultiplication(monkeypatch):
    derived = []
    comultiply = frobenius.comultiplication
    monkeypatch.setattr(frobenius, "comultiplication",
                        lambda a: derived.append(a) or comultiply(a))
    a = group_center(S3)
    evaluate(parse_word("copants"), a)
    assert derived == [a]
    b = from_frobenius_algebra(S3, a)
    assert derived == [a]   # the comultiplication evaluate derived
    delta, ident = comultiply(a), Tensor.identity(a.dim)
    assert all(equal(t, delta) for t in b.fission.values())
    assert all(equal(t, ident) for t in b.transport.values())
    assert all(t is a.mul for t in b.fusion.values())


def _reference_evaluate_labeled(b, bundle):
    """evaluate_labeled by definition: each layer is the tensor product of
    its generators' blocks, with a dense tensor for swap, legs permuted to
    [inputs..., outputs...], and the layers are composed in order.  Nothing
    here goes through the contraction engine."""
    exact = bundle.exact
    cur = None
    for t, (layer, ann_row) in enumerate(zip(b.word.layers, b.annotations)):
        lt = Tensor.scalar(1, exact=exact)
        ins, outs = [], []
        q = 0
        for g, ann in zip(layer, ann_row):
            n_in, n_out = ARITY[g]
            labels = b.boundaries[t][q:q + n_in]
            q += n_in
            if g is Gen.ID:
                gt = bundle.transport[ann, labels[0]]
            elif g is Gen.SWAP:
                dg, dh = bundle.dims[labels[0]], bundle.dims[labels[1]]
                gt = np.zeros((dg, dh, dh, dg), dtype=object)
                for i in range(dg):
                    for j in range(dh):
                        gt[i, j, j, i] = 1
                gt = Tensor(gt, exact=exact)
            elif g is Gen.CAP:
                gt = bundle.unit
            elif g is Gen.CUP:
                gt = bundle.counit
            elif g is Gen.PANTS:
                gt = bundle.fusion[labels[0], labels[1]]
            else:
                gt = bundle.fission[ann]
            ins += range(lt.rank, lt.rank + n_in)
            outs += range(lt.rank + n_in, lt.rank + n_in + n_out)
            lt = tensordot(lt, gt, [], [])
        lt = permute(lt, ins + outs)
        if cur is None:
            cur, word_in = lt, len(ins)
        else:
            cur = tensordot(cur, lt, range(word_in, cur.rank), range(len(ins)))
    return cur


def _assert_identical(t, ref):
    assert t.shape == ref.shape
    assert t.exact == ref.exact
    assert all(type(x) is type(y) and x == y
               for x, y in zip(t.entries(), ref.entries()))


def test_evaluate_labeled_matches_layer_definition():
    # the criterion 06 bundles, one with denominators and one in float mode;
    # every word shape is labeled at least once, the exact two-dimensional
    # fibers with fewer labelings since each word there costs about 1 ms
    cases = [(from_group_algebra(Z2), 1000), (from_group_algebra(S3), 12),
             (CONSTANT, 10),
             (from_frobenius_algebra(Z2, diagonal([Fraction(2), Fraction(1, 3)])), 10),
             (load_bundle(Z2_DUAL_FILE, exact=False, tol=1e-6), 60)]
    for B, budget in cases:
        for b in enumerate_labeled_words(B.group, 3, budget_per_shape=budget):
            _assert_identical(evaluate_labeled(b, B), _reference_evaluate_labeled(b, B))


def test_trivial_group_evaluation_is_plain_evaluation():
    T = trivial_group()
    e = T.identity
    for a in (dual_numbers(), group_center(S3)):
        B = from_frobenius_algebra(T, a)
        for seed in range(200):  # the criterion 04 pairs
            arity = (seed % 3, (seed // 3) % 3)
            for w in random_equivalent_pair(arity, 8, seed):
                splits = tuple(tuple((e, e) if g is Gen.COPANTS else None
                                     for g in layer) for layer in w.layers)
                b = label_word(T, w, (e,) * w.arity_in, splits)
                _assert_identical(evaluate_labeled(b, B), evaluate(w, a))


def test_enumeration_is_deterministic():
    w1 = enumerate_labeled_words(Z2, 2, budget_per_shape=10)
    w2 = enumerate_labeled_words(Z2, 2, budget_per_shape=10)
    assert w1 == w2 and len(w1) > 0


def _reference_enumerate_labeled_words(group, max_gens, budget_per_shape=50):
    """enumerate_labeled_words stepping through every labeling of a shape,
    in ``itertools.product`` order, to keep one in ``step``."""
    out = []
    for shape in crossed._enumerate_shapes(max_gens):
        n_in = shape.arity_in
        n_free = sum(g in (Gen.ID, Gen.COPANTS) for layer in shape.layers for g in layer)
        total = group.order ** (n_in + n_free)
        step = max(1, -(-total // budget_per_shape))
        labelings = itertools.product(group.elements(), repeat=n_in + n_free)
        for combo in itertools.islice(labelings, 0, None, step):
            frees = iter(combo[n_in:])
            boundaries = [combo[:n_in]]
            annots = []
            try:
                for t, layer in enumerate(shape.layers):
                    cur = boundaries[-1]
                    row = []
                    for g, q in zip(layer, shape.offsets[t]):
                        if g is Gen.ID:
                            row.append(next(frees))
                        elif g is Gen.COPANTS:
                            first = next(frees)
                            row.append((first, group.mul(group.inverse(first), cur[q])))
                        else:
                            row.append(None)
                    labels, norm = crossed._label_layer(group, shape, t, row, cur)
                    boundaries.append(labels)
                    annots.append(norm)
            except LabelError:
                continue
            out.append(crossed.LabeledBordism(group=group, word=shape,
                                              boundaries=tuple(boundaries),
                                              annotations=tuple(annots)))
    return out


def test_labelings_are_those_of_the_stepping_reference():
    with open(os.path.join(FIXDIR, "d8.group"), encoding="utf-8") as fh:
        D8 = parse_group(fh.read())
    cases = [(Z2, 3, 1000), (Z2, 3, 5), (S3, 3, 12), (S3, 3, 50),
             (klein_four_group(), 3, 12), (klein_four_group(), 3, 50), (D8, 3, 12),
             (D8, 3, 50), (symmetric_group(4), 2, 12)]
    for group, max_gens, budget in cases:
        words = enumerate_labeled_words(group, max_gens, budget_per_shape=budget)
        assert words == _reference_enumerate_labeled_words(group, max_gens, budget)
        # every label a Python int, not a numpy integer that compares equal
        for b in words:
            entries = [g for labels in b.boundaries for g in labels]
            for row in b.annotations:
                for a in row:
                    entries += a if type(a) is tuple else [] if a is None else [a]
            assert all(type(g) is int for g in entries)


def test_s4_at_three_generators_lists_its_3594_words():
    # shapes of up to 24^6 labelings, too many for the stepping reference
    assert len(enumerate_labeled_words(symmetric_group(4), 3, budget_per_shape=12)) == 3594


@pytest.mark.parametrize("order, width, budget", [
    (2 ** 11, 6, 50), (2, 63, 7), (2, 62, 7), (3, 40, 9), (3, 39, 9), (6, 3, 1000),
    (5, 0, 3)])
def test_labeling_digits_are_those_of_python_ints(order, width, budget):
    # 2^11 at width 6 and 2 at width 63 reach 2^63, past int64
    total = order ** width
    step = max(1, -(-total // budget))
    digits = crossed._labeling_digits(order, width, step)
    want = [[i // order ** p % order for p in reversed(range(width))]
            for i in range(0, total, step)]
    assert digits.shape == (len(want), width)
    assert digits.tolist() == want


def test_enumeration_makes_no_scalar_labeler_call(monkeypatch):
    calls = []
    scalar = crossed._label_layer
    monkeypatch.setattr(crossed, "_label_layer",
                        lambda *args: calls.append(args) or scalar(*args))
    assert len(enumerate_labeled_words(S3, 3, budget_per_shape=12)) > 0
    assert calls == []
    label_word(S3, parse_word("pants"), (1, 2))  # the counter sees label_word's
    assert len(calls) == 1


def test_enumerations_over_different_groups_share_their_words():
    z2 = enumerate_labeled_words(Z2, 3, budget_per_shape=5)
    s3 = enumerate_labeled_words(S3, 3, budget_per_shape=50)
    shapes = crossed._enumerate_shapes(3)
    assert type(shapes) is tuple and len(shapes) == 393
    ids = {id(w) for w in shapes}
    assert {id(b.word) for b in z2 + s3} <= ids
    words = {b.word.layers: b.word for b in z2}
    shared = [b for b in s3 if b.word.layers in words]
    assert len(shared) > 100 and all(b.word is words[b.word.layers] for b in shared)


def _reference_enumerate_shapes(max_gens):
    """_enumerate_shapes with a closure filling a list of layers."""
    all_gens = list(Gen)

    def layers_from(prev_out, budget):
        """All single layers with the given input arity and size <= budget."""
        out = []

        def build(layer, need):
            if need == 0 and layer:
                out.append(tuple(layer))
            if len(layer) >= budget:
                return
            for g in all_gens:
                a = ARITY[g][0]
                if a <= need:
                    build(layer + [g], need - a)

        build([], prev_out)
        return out

    results = []

    def extend(layers, used):
        if layers:
            results.append(BordismWord(tuple(layers)))
        if used >= max_gens:
            return
        if layers:
            candidates = layers_from(results[-1].arity_out, max_gens - used)
        else:
            candidates = [combo for size in range(1, max_gens + 1)
                          for combo in itertools.product(Gen, repeat=size)]
        for layer in candidates:
            extend(layers + [layer], used + len(layer))

    extend([], 0)
    return results


def test_shapes_come_in_the_order_of_the_list_reference():
    counts = []
    for max_gens in range(5):
        shapes = [w.layers for w in crossed._enumerate_shapes(max_gens)]
        assert shapes == [w.layers for w in _reference_enumerate_shapes(max_gens)]
        counts.append(len(shapes))
    assert counts == [0, 6, 56, 393, 2587]


# --- Frobenius actions, rotations, towers --------------------------------

def test_frobenius_action_on_group_algebra():
    B = from_group_algebra(S3)
    for g in S3.elements():
        act, coact, report = frobenius_action(B, g)
        assert report.passed, report.violations
        assert act.entries() == [1]


def test_frobenius_action_identity_fiber_is_algebra():
    act, coact, report = frobenius_action(CONSTANT, Z2.identity)
    assert report.passed
    assert equal(act, CONSTANT.fusion[0, 0])


def test_planted_compat_square_violation():
    # swap the basis in one fission block of a constant k+k bundle; the
    # module and comodule diagrams survive but the mixed square cannot
    A = diagonal([Fraction(1), Fraction(1)])
    B = from_frobenius_algebra(Z2, A)
    delta = comultiplication(A)
    data = dict(group=Z2, dims=B.dims, fusion=B.fusion,
                fission=dict(B.fission), transport=B.transport,
                unit=B.unit, counit=B.counit)
    # sigma x id applied to the output of delta: swap the first output leg
    swapped = delta.nums[:, ::-1, :].copy()
    data["fission"][0, 1] = _of_objects(swapped, delta.den)
    bad = CrossedBundle(**data)
    act, coact, report = frobenius_action(bad, 1)
    assert report.failed_axioms() == ["compatibility-square"]


def test_rotation_action_law():
    beta = {g: Fraction(1 + g) for g in S3.elements()}
    beta[S3.identity] = Fraction(1)
    from tqft2d.gerbe import coboundary, from_cocycle, to_crossed_bundle
    trivial = {(g, h): Fraction(1) for g in S3.elements()
               for h in S3.elements()}
    B = to_crossed_bundle(from_cocycle(S3, coboundary(S3, trivial, beta)))
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 6)
        w = LoopWord(tuple(rng.randrange(6) for _ in range(n)))
        j, jp = rng.randrange(n + 1), rng.randrange(n + 1)
        r1 = rotation_transport(w, j, B)
        r2 = rotation_transport(w.rotate(j), jp % max(n, 1), B)
        both = tensordot(r1, r2, [1], [0])
        direct = rotation_transport(w, (j + jp) % n if n else 0, B)
        assert equal(both, direct)


def test_rotation_zero_is_identity():
    B = from_group_algebra(S3)
    w = LoopWord((1, 2, 3))
    assert equal(rotation_transport(w, 0, B), Tensor.identity(1))


def test_nfold_towers():
    fixtures = [from_group_algebra(Z2), from_group_algebra(S3), CONSTANT]
    rng = random.Random(3)
    for B in fixtures:
        m = B.group.order
        for n in (2, 4, 5):
            gs = [rng.randrange(m) for _ in range(n)]
            report = nfold_fission_check(B, gs)
            assert report.passed, report.violations


def test_nfold_detects_planted_coassociativity():
    bad = scaled(from_group_algebra(Z3), "fission", (1, 1), -1)
    report = nfold_fission_check(bad, [1, 1, 1, 1])
    assert "higher-coassociativity" in report.failed_axioms()
    assert report == _reference_nfold_fission_check(bad, [1, 1, 1, 1])


def _reference_nfold_fission_check(bundle, gs, contract=tensordot):
    """nfold_fission_check without shared subtrees: each bracketing's towers
    are contracted from its leaves up."""
    gs = list(gs)
    G, n = bundle.group, len(gs)
    report = ValidationReport()
    report.check("higher-associativity")
    report.check("higher-coassociativity")
    if n < 2:
        return report

    def mu_tower(tree):
        if isinstance(tree, int):
            return bundle.identities[gs[tree]], gs[tree]
        (tl, pl), (tr, pr) = mu_tower(tree[0]), mu_tower(tree[1])
        t = contract(tl, bundle.fusion[pl, pr], [tl.rank - 1], [0])
        t = contract(t, tr, [tl.rank - 1], [tr.rank - 1])
        nl = tl.rank - 1
        perm = list(range(nl)) + list(range(nl + 1, t.rank)) + [nl]
        return permute(t, perm), G.mul(pl, pr)

    def nu_tower(tree):
        if isinstance(tree, int):
            return bundle.identities[gs[tree]], gs[tree]
        (tl, pl), (tr, pr) = nu_tower(tree[0]), nu_tower(tree[1])
        t = contract(bundle.fission[pl, pr], tl, [1], [0])
        return contract(t, tr, [1], [0]), G.mul(pl, pr)

    trees = crossed._binary_trees(0, n)
    ref_mu, ref_nu = mu_tower(trees[0])[0], nu_tower(trees[0])[0]
    for i, tree in enumerate(trees[1:], start=1):
        if not equal(mu_tower(tree)[0], ref_mu, bundle.tol):
            report.fail("higher-associativity", (tuple(gs), 0, i))
        if not equal(nu_tower(tree)[0], ref_nu, bundle.tol):
            report.fail("higher-coassociativity", (tuple(gs), 0, i))
    return report


def test_nfold_shares_subtrees_and_matches_the_reference(monkeypatch):
    calls, ref_calls = [], []

    def counting(into):
        def contract(a, b, axes_a, axes_b):
            into.append(None)
            return tensordot(a, b, axes_a, axes_b)
        return contract

    monkeypatch.setattr(crossed, "tensordot", counting(calls))
    z3_both = scaled(scaled(from_group_algebra(Z3), "fission", (1, 1), -1),
                     "fusion", (1, 2), 2)
    # float bundles nudged by less than tol: their towers agree within tol
    # only pairwise, so towers merged as equal would change the reports
    s3_float = parse_bundle(format_bundle(from_group_algebra(S3), "s3.group"), S3,
                            exact=False, tol=1e-6)
    loose = load_bundle(Z2_DUAL_FILE, exact=False, tol=1e-6)
    bundles = [from_group_algebra(Z2), from_group_algebra(S3), CONSTANT,
               scaled(from_group_algebra(Z3), "fission", (1, 1), -1),
               scaled(from_group_algebra(Z3), "fusion", (1, 2), 2), z3_both,
               scaled(from_group_algebra(S3), "fission", (1, 2), -1),
               s3_float, nudged(s3_float, "fission", (1, 2), 6e-7),
               nudged(s3_float, "fusion", (1, 2), 6e-7),
               nudged(loose, "fusion", (1, 1), 6e-7)]
    rng = random.Random(11)
    failed = set()
    for B in bundles:
        m = B.group.order
        for n in range(1, 6):
            for gs in ([1 % m] * n, [(1 + i % 2) % m for i in range(n)],
                       [rng.randrange(m) for _ in range(n)]):
                report = nfold_fission_check(B, gs)
                assert report == _reference_nfold_fission_check(B, gs)
                if not report.passed:
                    failed.add((B.exact, tuple(report.failed_axioms())))
    # the planted violations are found, with the same witnesses in the same
    # order, in both modes and for both axioms at once
    assert {(True, ("higher-associativity", "higher-coassociativity")),
            (False, ("higher-associativity",)),
            (False, ("higher-coassociativity",))} <= failed
    # a passing exact bundle contracts one tower per interval and split: 20
    # (interval, split) pairs over 5 leaves and 10 over 4, two contractions
    # each per tower, against one per distinct subtree (34 and 12 internal
    # nodes: 136 and 48) and 14 * 4 and 5 * 3 unshared
    s3 = from_group_algebra(S3)
    for n, shared, unshared in ((4, 40, 60), (5, 80, 224)):
        gs = [g % S3.order for g in range(1, n + 1)]
        del calls[:], ref_calls[:]
        report = nfold_fission_check(s3, gs)
        assert report == _reference_nfold_fission_check(s3, gs, counting(ref_calls))
        assert (len(calls), len(ref_calls)) == (shared, unshared)


# --- decomposition invariance of holonomy --------------------------------

def test_holonomy_decomposition_invariance():
    K = klein_four_group()
    from tqft2d.gerbe import klein_anticommuting_cocycle, from_cocycle, \
        to_crossed_bundle
    _, theta = klein_anticommuting_cocycle()
    bundles = [(K, to_crossed_bundle(from_cocycle(K, theta))),
               (S3, from_group_algebra(S3)),
               (Z2, CONSTANT)]
    for G, B in bundles:
        e = G.identity
        pairs = [(a, b) for a in G.elements() for b in G.elements()
                 if G.mul(a, b) == G.mul(b, a)][:3]
        for a, b in pairs:
            base = closed_surface_word(G, 1, [(a, b)])
            variants = [base,
                        insert_identity_layer(base, 2),
                        insert_conjugation_pair(base, 1, (a + 1) % G.order)]
            if G.order > 1:
                variants.append(conjugate_labeled(base, 1))
            values = [holonomy(v, B) for v in variants]
            assert all(v == values[0] for v in values[1:]), (G.order, a, b)


# --- bundle file format ---------------------------------------------------

def test_bundle_file_roundtrip(tmp_path):
    for B, name in ((CONSTANT, "z2"), (from_group_algebra(S3), "s3")):
        gfile = tmp_path / ("%s.group" % name)
        gfile.write_text(format_group(B.group))
        bfile = tmp_path / ("%s.bundle" % name)
        bfile.write_text(format_bundle(B, "%s.group" % name))
        assert load_bundle(str(bfile)) == B


def test_a_bundle_file_of_43k_tokens_reads_back_block_for_block():
    B = from_frobenius_algebra(symmetric_group(4), group_center(S3))
    text = format_bundle(B, "s4.group")
    # lines of integers, and a counit line with p/q
    assert len(text.split()) > 43000 and "counit : 1/6 0 0" in text
    read = parse_bundle(text, B.group)
    assert list(B.differences(read)) == []


def _one_constructor_call_per_block(sb):
    """The fusion, fission and transport blocks of ``to_crossed_bundle(sb)``,
    each made by its own constructor call."""
    c, exact = sb.counit_scalar, sb.exact
    return ({k: Tensor([[[v]]], exact=exact) for k, v in sb.theta.items()},
            {k: Tensor([[[1 / (c * v)]]], exact=exact) for k, v in sb.theta.items()},
            {k: Tensor([[v]], exact=exact) for k, v in sb.tau.items()})


def test_rank_one_blocks_are_those_of_one_constructor_call_each():
    pairs = list(itertools.product(Z2.elements(), repeat=2))
    signs = list(itertools.product((Fraction(1), Fraction(-1)), repeat=len(pairs)))
    bundles = [ScalarBundle(Z2, dict(zip(pairs, theta)), dict(zip(pairs, tau)), c)
               for theta in signs for tau in signs
               for c in (Fraction(1), Fraction(-1), Fraction(1, 2))]
    bundles.append(load_cocycle(os.path.join(os.path.dirname(Z2_DUAL_FILE),
                                             "d8_twisted.cocycle")))
    for sb in bundles:
        B = to_crossed_bundle(sb)
        for family, blocks in zip(crossed.FAMILIES, _one_constructor_call_per_block(sb)):
            built = getattr(B, family)
            assert list(built) == list(blocks)
            for key, block in blocks.items():
                assert equal(built[key], block), (family, key)


def test_bundle_file_missing_blocks():
    txt = "bundle over x.group\nfiber e dim 1\nfiber r1 dim 1\nunit : 1\ncounit : 1\n"
    with pytest.raises(BundleError):
        parse_bundle(txt, Z2)  # transports are required


def test_bundle_file_bad_entry_count():
    B = from_group_algebra(Z2)
    txt = format_bundle(B, "z2.group").replace(
        "fusion e e : 1", "fusion e e : 1 1")
    with pytest.raises(BundleError):
        parse_bundle(txt, Z2)


@pytest.mark.parametrize("keep_blocks", [True, False], ids=["blocks", "no-blocks"])
def test_bundle_file_non_positive_fiber_dimension(keep_blocks):
    with open(Z2_DUAL_FILE, encoding="utf-8") as fh:
        lines = fh.read().replace("fiber e dim 2", "fiber e dim -1").splitlines()
    if not keep_blocks:  # omitted fusion and fission blocks read as zero
        lines = [ln for ln in lines if not ln.startswith(("fusion", "fission"))]
    with pytest.raises(BundleError, match=re.escape("'fiber e dim -1'")):
        parse_bundle("\n".join(lines), Z2)


def test_closed_surfaces_of_one_genus_share_one_word(monkeypatch):
    from tqft2d import bordism
    K, theta = klein_anticommuting_cocycle()
    B = to_crossed_bundle(from_cocycle(K, theta))
    crossed._closed_surface_shape.cache_clear()
    built = []
    schedule = bordism._schedule
    monkeypatch.setattr(bordism, "_schedule",
                        lambda w, carry: built.append(carry) or schedule(w, carry))
    first = closed_surface_word(K, 2, [(1, 2), (3, 3)])
    second = closed_surface_word(K, 2, [(2, 1), (1, 3)])
    assert second.word is first.word
    assert closed_surface_word(K, 1, [(1, 2)]).word is not first.word
    # each keeps its own labels: those of its word built apart
    values = set()
    for b in (first, second):
        alone = label_word(K, BordismWord(b.word.layers), (), b.annotations)
        assert (b.boundaries, b.annotations) == (alone.boundaries, alone.annotations)
        value = holonomy(b, B)
        assert value == holonomy(alone, B)
        values.add(value)
    assert first.annotations != second.annotations and len(values) == 2
    # one contracted schedule for the shared genus-2 word, one for each
    # separately built word
    assert built == [False] * 3


# --- closed surfaces against the split-then-close construction ------------

def _reference_closed_surface_word(group, genus, handles=()):
    """Closed genus-g surface with handle labels (a_i, b_i).

    Requires the product of commutators [a_i, b_i] to be the identity.  The
    word depends only on the genus, so all calls of one genus label one
    shared ``BordismWord`` and its schedule is planned once.
    """
    e = group.identity
    handles = [tuple(h) for h in handles]
    if len(handles) != genus:
        raise LabelError("genus %d needs %d handle label pairs" % (genus, genus))
    commutators = [group.commutator(a, b) for a, b in handles]
    if group.product(commutators) != e:
        raise LabelError("commutator product is not the identity")
    w = _reference_closed_surface_shape(genus)
    if genus == 0:
        return label_word(group, w, ())
    annots = [(None,)]
    # copants i splits c_i off the product of the commutators after it
    for i in range(genus - 1):
        rest = group.product(commutators[i + 1:])
        annots.append(tuple([e] * i + [(commutators[i], rest)]))
    for i in reversed(range(genus)):
        a, b = handles[i]
        pad_ann = [e] * i
        annots.append(tuple(pad_ann + [(group.conj(a, b), group.inverse(b))]))
        annots.append(tuple(pad_ann + [group.inverse(a), e]))
        annots += [tuple(pad_ann + [None])] * 3  # swap, pants, cup
    return label_word(group, w, (), tuple(annots))


@lru_cache(maxsize=32)
def _reference_closed_surface_shape(genus):
    """The word of ``_reference_closed_surface_word``, one object per genus."""
    if genus == 0:
        return BordismWord(((Gen.CAP,), (Gen.CUP,)))
    layers = [(Gen.CAP,)]
    # split off circles c_1 .. c_{g-1}, keeping each at position i and
    # continuing on the last circle, which carries c_g
    for i in range(genus - 1):
        layers.append(tuple([Gen.ID] * i + [Gen.COPANTS]))
    # now the boundary is (c_1, ..., c_g); close each with a handle gadget
    for i in reversed(range(genus)):
        pads = [Gen.ID] * i
        layers += [tuple(pads + [Gen.COPANTS]), tuple(pads + [Gen.ID, Gen.ID]),
                   tuple(pads + [Gen.SWAP]), tuple(pads + [Gen.PANTS]),
                   tuple(pads + [Gen.CUP])]
    return BordismWord(tuple(layers))


FIXDIR = os.path.dirname(Z2_DUAL_FILE)
D8_TWISTED = load_cocycle(os.path.join(FIXDIR, "d8_twisted.cocycle"))


def _closed_surface_corpus():
    """Every fixture bundle, the group algebra of S3, and the twisted D8
    bundle at counit 1 and 2.  D8 is non-abelian and its scalars are not
    trivial, so the running circle between handles need not be the
    identity and the holonomy takes both signs."""
    bundles = [load_bundle(os.path.join(FIXDIR, name))
               for name in ("z2_dual.bundle", "s3_lines.bundle")]
    bundles += [to_crossed_bundle(load_cocycle(os.path.join(FIXDIR, name)))
                for name in ("k4_anti.cocycle", "d8_twisted.cocycle")]
    bundles += [from_group_algebra(S3),
                to_crossed_bundle(replace(D8_TWISTED, counit_scalar=Fraction(2)))]
    return bundles


def _closing_handles(group, genus):
    """Every tuple of handle labels of a genus whose commutators multiply to
    the identity."""
    pairs = list(itertools.product(group.elements(), repeat=2))
    for handles in itertools.product(pairs, repeat=genus):
        if group.product(group.commutator(a, b) for a, b in handles) == group.identity:
            yield handles


def test_closed_surfaces_of_genus_0_and_1_are_the_reference_words():
    for bundle in _closed_surface_corpus():
        G = bundle.group
        for genus in (0, 1):
            for handles in _closing_handles(G, genus):
                b = closed_surface_word(G, genus, handles)
                ref = _reference_closed_surface_word(G, genus, handles)
                assert b.word.layers == ref.word.layers
                assert (b.boundaries, b.annotations) == (ref.boundaries, ref.annotations)


def test_closed_surfaces_have_the_reference_holonomy():
    rng = random.Random(3)
    moved = spread = 0
    for bundle in _closed_surface_corpus():
        G = bundle.group
        sample = []
        while len(sample) < 100:  # at genus 3
            handles = tuple((rng.randrange(G.order), rng.randrange(G.order))
                            for _ in range(3))
            if G.product(G.commutator(a, b) for a, b in handles) == G.identity:
                sample.append(handles)
        values = {2: set(), 3: set()}
        for handles in list(_closing_handles(G, 2)) + sample:
            b = closed_surface_word(G, len(handles), handles)
            value = holonomy(b, bundle)
            assert value == holonomy(
                _reference_closed_surface_word(G, len(handles), handles), bundle)
            values[len(handles)].add(value)
            moved += b.boundaries[5] != (G.identity,)
        spread += sum(len(v) > 1 for v in values.values())
    # first handles that leave the running circle off the identity, and
    # genera at which one bundle's holonomy takes more than one value
    assert moved > 500 and spread == 6


def test_a_closed_surface_runs_on_one_circle(monkeypatch):
    # 4g + 2 contracted generators, the cap folded into the first copants
    # and the cup into the last pants.  From genus 2 on, the first
    # handle's pants and the last handle's copants each take one of their
    # handle's id cylinders, and each handle between takes both, one into
    # its copants and one into its pants: 2g - 2 cylinders in all, so 2g +
    # 2 steps and 2g + 1 contractions per holonomy once the folded blocks
    # are built (at genus 1 both cylinders meet a folded copants and pants
    # and stay: 4 steps), and never more than the running circle and one
    # split-off circle.  At genus 0 the cap is folded into the cup, one scalar step
    # and no contraction
    from test_bordism import _peak_legs  # not at the top: it imports this module
    from tqft2d import bordism
    calls = []
    real = bordism.tensordot
    monkeypatch.setattr(bordism, "tensordot",
                        lambda *args: calls.append(args) or real(*args))
    G = D8_TWISTED.group
    B = to_crossed_bundle(D8_TWISTED)
    r, s = G.index("r"), G.index("s")
    for genus in (0, 1, 2, 3, 6, 64):
        # [r, s] = r2 has order 2: pairs of them close, [s, s] = e pads
        handles = [(r, s)] * (genus - genus % 2) + [(s, s)] * (genus % 2)
        b = closed_surface_word(G, genus, handles)
        holonomy(b, B)
        calls.clear()
        holonomy(b, B)
        steps = b.word.contracted_schedule[0]
        assert len(steps) == (2 * genus + 2 if genus else 1)
        assert len(calls) == len(steps) - 1
        assert _peak_legs(steps) <= 2


def test_evaluate_labeled_returns_a_fresh_array():
    bundle = load_bundle(os.path.join(FIXDIR, "z2_dual.bundle"))
    block = bundle.transport[1, 0]
    t = evaluate_labeled(parse_labeled("id[r1,e]", bundle.group), bundle)
    assert equal(t, block) and not np.shares_memory(t.nums, block.nums)
