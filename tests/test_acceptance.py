"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
Everything runs in exact rational mode.
"""

import random
import sys
import time
from fractions import Fraction

import numpy as np

from tqft2d.bordism import parse_word, evaluate, equivalent, \
    random_equivalent_pair
from tqft2d.crossed import (CrossedBundle, validate_bundle,
                            from_group_algebra, from_frobenius_algebra,
                            evaluate_labeled, holonomy, roundtrip_check,
                            frobenius_action, rotation_transport,
                            nfold_fission_check, closed_surface_word,
                            conjugate_labeled, insert_identity_layer,
                            insert_conjugation_pair, enumerate_labeled_words,
                            label_word)
from tqft2d.frobenius import (FrobeniusAlgebra, validate, pairing,
                              comultiplication, closed_invariant, ground_field,
                              dual_numbers, diagonal, group_center,
                              change_of_basis)
from tqft2d.gerbe import (check_cocycle, from_cocycle,
                          coboundary, klein_anticommuting_cocycle,
                          to_crossed_bundle, scalar_surface_product,
                          gerbe_holonomy)
from tqft2d.groups import (LoopWord, trivial_group, cyclic_group,
                           symmetric_group, klein_four_group)
from tqft2d.tensor import Tensor, equal, tensordot, invert_matrix

from test_tensor import _of_objects

Z2 = cyclic_group(2)
S3 = symmetric_group(3)

LIBRARY = [ground_field(), dual_numbers(),
           diagonal([Fraction(1), Fraction(1)]),
           diagonal([Fraction(2), Fraction(1, 3), Fraction(5), Fraction(1)]),
           group_center(Z2), group_center(S3)]


def _done(num, detail, t0, limit=None):
    dt = time.perf_counter() - t0
    within = limit is None or dt < limit
    print("criterion %02d: %s %s (%.2fs)"
          % (num, "PASS" if within else "FAIL", detail, dt))
    sys.stdout.flush()
    assert within, "criterion %d exceeded %ss budget" % (num, limit)


def _copy_algebra(a, **kw):
    fields = dict(dim=a.dim, basis=a.basis, mul=a.mul, unit=a.unit,
                  counit=a.counit)
    fields.update(kw)
    return FrobeniusAlgebra(**fields)


def test_criterion_01_axiom_suite():
    t0 = time.perf_counter()
    for a in LIBRARY:
        assert validate(a).passed
    # planted single-entry corruptions, one per axiom
    base = diagonal([Fraction(1)] * 3)
    mul = _of_objects(base.mul.nums.copy())
    mul.nums[1, 2, 0] = 1
    mul.nums[2, 1, 0] = 1
    assert "associativity" in validate(_copy_algebra(base, mul=mul)).failed_axioms()
    mul = _of_objects(base.mul.nums.copy())
    mul.nums[0, 1, 1] = 2
    assert "commutativity" in validate(_copy_algebra(base, mul=mul)).failed_axioms()
    unit = Tensor(np.array([Fraction(2), Fraction(1), Fraction(1)], dtype=object))
    assert "unit" in validate(_copy_algebra(base, unit=unit)).failed_axioms()
    counit = Tensor(np.array([Fraction(1), Fraction(0), Fraction(1)], dtype=object))
    assert validate(_copy_algebra(base, counit=counit)).failed_axioms() \
        == ["nondegeneracy"]
    _done(1, "axiom suite with 4 planted corruptions", t0, limit=1.0)


def _random_invertible(rng, n):
    while True:
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        m = Tensor(np.array(rows, dtype=object))
        if invert_matrix(m) is not None:
            return m


def test_criterion_02_torus_is_dimension():
    t0 = time.perf_counter()
    torus = parse_word("cap ; copants ; pants ; cup")
    algebras = list(LIBRARY)
    rng = random.Random(2024)
    while len(algebras) < len(LIBRARY) + 20:
        n = rng.randint(1, 3)
        weights = [Fraction(rng.randint(1, 5)) for _ in range(n)]
        a = change_of_basis(diagonal(weights), _random_invertible(rng, n))
        if validate(a).passed:
            algebras.append(a)
    for a in algebras:
        assert closed_invariant(a, 1) == a.dim
        assert evaluate(torus, a).item() == a.dim
    _done(2, "Z(1)=dim on %d algebras" % len(algebras), t0)


def test_criterion_03_character_formula():
    t0 = time.perf_counter()
    # independent confirmation from irreducible representation dimensions
    def char_formula(order, irrep_dims, genus):
        return sum(Fraction(order, d) ** (2 * genus - 2) for d in irrep_dims)

    s3c = group_center(S3)
    assert closed_invariant(s3c, 2) == 81
    assert char_formula(6, [1, 1, 2], 2) == 81
    z2c = group_center(Z2)
    for g in range(4):
        byformula = char_formula(2, [1, 1], g)
        assert closed_invariant(z2c, g) == byformula
        # second computation path: direct pants-decomposition contraction
        text = "cap ; " + "copants ; pants ; " * g + "cup"
        assert evaluate(parse_word(text), z2c).item() == byformula
    word2 = parse_word("cap ; copants ; pants ; copants ; pants ; cup")
    assert evaluate(word2, s3c).item() == 81
    _done(3, "group_center invariants vs character formula", t0)


def test_criterion_04_folk_theorem_fuzz():
    t0 = time.perf_counter()
    for a in (dual_numbers(), group_center(S3)):
        for seed in range(200):
            arity = (seed % 3, (seed // 3) % 3)
            w1, w2 = random_equivalent_pair(arity, 8, seed)
            assert equivalent(w1, w2)
            assert equal(evaluate(w1, a), evaluate(w2, a)), (seed, arity)
    _done(4, "2x200 equivalent pairs evaluate equal", t0, limit=30.0)


def test_criterion_05_featured_examples():
    t0 = time.perf_counter()
    genus2_a = parse_word("copants ; pants ; copants ; pants")
    genus2_b = parse_word("copants ; id * copants ; id * pants ; pants")
    four_a = parse_word("pants ; copants")
    four_b = parse_word("copants * id ; id * pants")
    assert equivalent(genus2_a, genus2_b)
    assert equivalent(four_a, four_b)
    for a in LIBRARY:
        assert equal(evaluate(genus2_a, a), evaluate(genus2_b, a))
        assert equal(evaluate(four_a, a), evaluate(four_b, a))
    _done(5, "genus-two and four-holed-sphere words agree", t0)


def test_criterion_06_roundtrip():
    t0 = time.perf_counter()
    fixtures = [
        (from_group_algebra(Z2), 1000),       # exhaustive for order 2
        (from_group_algebra(S3), 12),
        (from_frobenius_algebra(Z2, dual_numbers()), 60),
    ]
    total = 0
    for bundle, budget in fixtures:
        words = enumerate_labeled_words(bundle.group, 3,
                                        budget_per_shape=budget)
        total += len(words)
        report = roundtrip_check(bundle, words)
        assert report.passed, report.violations
    _done(6, "3 bundles, %d labeled test words" % total, t0, limit=60.0)


def _scaled(bundle, block, key, factor):
    data = dict(group=bundle.group, dims=bundle.dims,
                fusion=dict(bundle.fusion), fission=dict(bundle.fission),
                transport=dict(bundle.transport),
                unit=bundle.unit, counit=bundle.counit)
    if block in ("fusion", "fission", "transport"):
        t = data[block][key]
        data[block][key] = tensordot(Tensor.scalar(factor), t, [], [])
    else:
        data[block] = tensordot(Tensor.scalar(factor), data[block], [], [])
    return CrossedBundle(**data)


def test_criterion_07_bundle_validator_completeness():
    t0 = time.perf_counter()
    report = validate_bundle(from_group_algebra(S3))
    assert report.passed
    assert set(report.checked) == {
        "fusion-transport", "fission-transport", "associativity",
        "coassociativity", "frobenius", "unit-transport", "unit", "counit",
        "nondegeneracy", "flatness"}
    z3 = cyclic_group(3)
    plants = [
        (_scaled(from_group_algebra(S3), "transport", (1, 3), 2),
         "fusion-transport"),
        (_scaled(from_group_algebra(S3), "fission", (3, 3), 2),
         "fission-transport"),
        (_scaled(from_group_algebra(z3), "fusion", (1, 1), -1),
         "associativity"),
        (_scaled(from_group_algebra(z3), "fission", (1, 1), -1),
         "coassociativity"),
        (_scaled(from_group_algebra(Z2), "fission", (1, 1), 2), "frobenius"),
        (_scaled(from_group_algebra(Z2), "transport", (1, 0), 2),
         "unit-transport"),
        (_scaled(from_group_algebra(Z2), "fusion", (1, 0), 2), "unit"),
        (_scaled(from_group_algebra(Z2), "fission", (1, 0), 2), "counit"),
    ]
    # an eighth independent condition: degenerate pairing on the identity fiber
    degen = from_frobenius_algebra(Z2, diagonal([Fraction(1), Fraction(1)]))
    degen = CrossedBundle(group=Z2, dims=degen.dims, fusion=degen.fusion,
                          fission=degen.fission, transport=degen.transport,
                          unit=degen.unit,
                          counit=Tensor(np.array([Fraction(1), Fraction(0)],
                                                 dtype=object)))
    plants.append((degen, "nondegeneracy"))
    for bad, axiom in plants:
        failed = validate_bundle(bad).failed_axioms()
        assert axiom in failed, (axiom, failed)
    _done(7, "10 conditions enumerated, %d planted violations attributed"
          % len(plants), t0)


def test_criterion_08_frobenius_action():
    t0 = time.perf_counter()
    fixtures = [from_group_algebra(S3),
                from_frobenius_algebra(Z2, dual_numbers())]
    for bundle in fixtures:
        for g in bundle.group.elements():
            _, _, report = frobenius_action(bundle, g)
            assert report.passed, report.violations
    # planted fission twist: module and comodule survive, the mixed
    # compatibility square does not
    A = diagonal([Fraction(1), Fraction(1)])
    B = from_frobenius_algebra(Z2, A)
    delta = comultiplication(A)
    data = dict(group=Z2, dims=B.dims, fusion=B.fusion,
                fission=dict(B.fission), transport=B.transport,
                unit=B.unit, counit=B.counit)
    data["fission"][0, 1] = _of_objects(delta.nums[:, ::-1, :].copy(), delta.den)
    _, _, report = frobenius_action(CrossedBundle(**data), 1)
    assert report.failed_axioms() == ["compatibility-square"]
    _done(8, "module/comodule/square on all fibers; targeted break", t0)


def test_criterion_09_rotation_action():
    t0 = time.perf_counter()
    # a bundle with nontrivial scalar transport (coboundary-twisted lines)
    beta = {g: Fraction(g + 1, 2 if g % 2 else 1) for g in S3.elements()}
    beta[S3.identity] = Fraction(1)
    trivial = {(g, h): Fraction(1) for g in S3.elements()
               for h in S3.elements()}
    sb = from_cocycle(S3, coboundary(S3, trivial, beta))
    assert check_cocycle(sb).passed
    bundle = to_crossed_bundle(sb)
    rng = random.Random(909)
    for _ in range(100):
        n = rng.randint(1, 6)
        w = LoopWord(tuple(rng.randrange(6) for _ in range(n)))
        j, jp = rng.randrange(n), rng.randrange(n)
        r1 = rotation_transport(w, j, bundle)
        r2 = rotation_transport(w.rotate(j), jp, bundle)
        composed = tensordot(r1, r2, [1], [0])
        assert equal(composed, rotation_transport(w, (j + jp) % n, bundle))
    _done(9, "100 random rotation triples satisfy the action law", t0)


def test_criterion_10_holonomy_well_defined():
    t0 = time.perf_counter()
    K = klein_four_group()
    _, theta = klein_anticommuting_cocycle()
    anti_bundle = to_crossed_bundle(from_cocycle(K, theta))
    surfaces = []
    u, v = K.index("10"), K.index("01")
    surfaces += [(anti_bundle, closed_surface_word(K, 1, [(a, b)]))
                 for a, b in [(u, v), (v, v), (3, u), (0, 0)]]
    surfaces += [(from_group_algebra(S3), closed_surface_word(S3, 1, [(g, g)]))
                 for g in (1, 3, 5)]
    constant = from_frobenius_algebra(Z2, dual_numbers())
    e = Z2.identity
    surfaces += [(constant, closed_surface_word(Z2, 0, [])),
                 (constant, closed_surface_word(Z2, 1, [(1, 1)])),
                 (constant, closed_surface_word(Z2, 2, [(e, 1), (1, e)]))]
    assert len(surfaces) == 10
    for bundle, base in surfaces:
        variants = [base,
                    insert_identity_layer(base, 1),
                    insert_conjugation_pair(base, len(base.word.layers) // 2, 1)]
        if bundle.group.order > 2:
            variants.append(conjugate_labeled(base, 2))
        vals = [holonomy(b, bundle) for b in variants]
        assert len(set(map(str, vals))) == 1, vals
        assert len({b.word for b in variants}) >= 3
    _done(10, "10 closed surfaces, >=3 decompositions each", t0)


def test_criterion_11_rank_one_gerbe():
    t0 = time.perf_counter()
    K, theta = klein_anticommuting_cocycle()
    sb = from_cocycle(K, theta)
    assert check_cocycle(sb).passed
    u, v = K.index("10"), K.index("01")
    tor = closed_surface_word(K, 1, [(u, v)])
    closed_form = scalar_surface_product(tor, sb)
    via_evaluator = holonomy(tor, to_crossed_bundle(sb))
    assert closed_form == via_evaluator == -1
    commuting = [(a, b) for a in K.elements() for b in K.elements()]
    base_vals = {p: gerbe_holonomy(sb, 1, [p]) for p in commuting}
    rng = random.Random(111)
    for _ in range(20):
        beta = {g: Fraction(rng.choice([1, -1, 2, -2, 3]),
                            rng.choice([1, 2, 3]))
                for g in K.elements()}
        beta[K.identity] = Fraction(1)
        twisted = from_cocycle(K, coboundary(K, theta, beta))
        for p, val in base_vals.items():
            assert gerbe_holonomy(twisted, 1, [p]) == val
    _done(11, "torus holonomy -1 both ways; 20 coboundary twists", t0)


def test_criterion_12_higher_coassociativity():
    t0 = time.perf_counter()
    K, theta = klein_anticommuting_cocycle()
    fixtures = [from_group_algebra(Z2), from_group_algebra(S3),
                from_frobenius_algebra(Z2, dual_numbers()),
                to_crossed_bundle(from_cocycle(K, theta))]
    rng = random.Random(12)
    for bundle in fixtures:
        m = bundle.group.order
        for n in (4, 5):
            gs = [rng.randrange(m) for _ in range(n)]
            report = nfold_fission_check(bundle, gs)
            assert report.passed, report.violations
    _done(12, "n=4,5 towers agree on 4 bundle fixtures", t0)
