import itertools
import os
import random
from fractions import Fraction

import numpy as np
import pytest

from tqft2d.crossed import closed_surface_word, holonomy, validate_bundle
from tqft2d.gerbe import (ScalarBundle, CocycleError, check_cocycle,
                          induced_transport, from_cocycle,
                          coboundary, klein_anticommuting_cocycle,
                          to_crossed_bundle, scalar_surface_product,
                          gerbe_holonomy, parse_cocycle,
                          format_cocycle, load_cocycle)
from tqft2d.groups import (FiniteGroup, LoopWord, cyclic_group, symmetric_group,
                           klein_four_group, format_group)
from tqft2d.report import ValidationReport, Violation
from tqft2d.tensor import InputError, Tensor, equal

K, THETA = klein_anticommuting_cocycle()
ANTI = from_cocycle(K, THETA)


def fusion_lambda_check(sb: ScalarBundle, words) -> ValidationReport:
    """Associativity of the fusion scalars between four loop words.

    Word i fuses with word j through the scalar on the grading
    (w_i w_j^-1, w_j w_k^-1); the square lambda_134 . lambda_123 =
    lambda_124 . lambda_234 is exactly one instance of the cocycle identity,
    which ``check_cocycle`` checks at every grading as the associativity of
    the rank-one bundle; kept here as a reference.
    """
    G = sb.group
    pts = [w.evaluate(G) if isinstance(w, LoopWord) else w for w in words]
    if len(pts) != 4:
        raise InputError("need exactly four loop words")
    report = ValidationReport()

    def lam(i, j, k):
        g = G.mul(pts[i], G.inverse(pts[j]))
        h = G.mul(pts[j], G.inverse(pts[k]))
        return sb.theta[g, h]

    lhs = Tensor.scalar(lam(0, 2, 3) * lam(0, 1, 2), sb.exact)
    rhs = Tensor.scalar(lam(0, 1, 3) * lam(1, 2, 3), sb.exact)
    report.compare("lambda-associativity", lhs, rhs, sb.tol, at=tuple(pts))
    return report


def trivial_theta(group):
    return {(g, h): Fraction(1) for g in group.elements()
            for h in group.elements()}


def test_trivial_cocycle_passes():
    g = symmetric_group(3)
    sb = from_cocycle(g, trivial_theta(g))
    assert check_cocycle(sb).passed


def test_anticommuting_cocycle_passes():
    assert check_cocycle(ANTI).passed


def test_flipped_value_fails_with_witness():
    theta = dict(THETA)
    key = (K.index("10"), K.index("11"))
    theta[key] = -theta[key]
    report = check_cocycle(ScalarBundle(K, theta, dict(ANTI.tau)))
    assert "associativity" in report.failed_axioms()
    # the grading (g, h, k), then the index in the 1x1x1x1 block
    assert all(len(v.witness) == 7 and v.witness[3:] == (0,) * 4
               for v in report.violations if v.axiom == "associativity")
    with pytest.raises(CocycleError, match="associativity fails at grading"):
        from_cocycle(K, theta)


def test_unnormalized_cocycle_rejected():
    theta = trivial_theta(K)
    theta[1, 0] = Fraction(2)
    with pytest.raises(CocycleError) as err:
        from_cocycle(K, theta)
    assert "coboundary" in str(err.value)


def test_a_constant_theta_fails_the_unit_axiom_at_a_grading_of_one_label():
    # theta = 2 everywhere is a cocycle, and theta(g,e) = 2 fails only the
    # unit and counit axioms, graded by g alone
    theta = {key: Fraction(2) for key in trivial_theta(K)}
    with pytest.raises(CocycleError) as err:
        from_cocycle(K, theta)
    assert str(err.value) == (
        "not a normalized cocycle: unit fails at grading (00); dividing by the "
        "coboundary of beta(g) = theta(g,e) normalizes the unit values")
    report = check_cocycle(ScalarBundle(K, theta, induced_transport(K, theta)))
    assert report.failed_axioms() == ["counit", "unit"]


def test_float_cocycle_uses_the_tolerance_passed_in():
    # the anticommuting cocycle as complex values, one -1 moved by 1e-12
    theta = {k: complex(v) for k, v in THETA.items()}
    key = next(k for k, v in sorted(theta.items()) if v == -1)
    theta[key] = complex(-1 + 1e-12)
    sb = from_cocycle(K, theta, counit_scalar=complex(1), tol=1e-9)
    assert (sb.exact, sb.tol) == (False, 1e-9)
    assert check_cocycle(sb).passed
    assert abs(gerbe_holonomy(sb, 1, [(1, 2)]) - gerbe_holonomy(ANTI, 1, [(1, 2)])) < 1e-9
    assert all(fusion_lambda_check(sb, list(ws)).passed
               for ws in itertools.product(K.elements(), repeat=4))
    with pytest.raises(CocycleError):
        from_cocycle(K, theta, counit_scalar=complex(1), tol=1e-15)


def _reference_check_cocycle(sb):
    """check_cocycle by definition: loops over the group elements, on the
    scalars themselves, recording every violation in loop order."""
    G, e, exact, tol = sb.group, sb.group.identity, sb.exact, sb.tol
    theta, tau = sb.theta, sb.tau

    def differ(x, y):
        return x != y if exact else abs(x - y) > tol

    out = []
    for g in G.elements():
        if differ(theta[g, e], 1):
            out.append(("normalization", (g, e)))
        if differ(theta[e, g], 1):
            out.append(("normalization", (e, g)))
    for g, h, k in itertools.product(G.elements(), repeat=3):
        if differ(theta[g, h] * theta[G.mul(g, h), k], theta[h, k] * theta[g, G.mul(h, k)]):
            out.append(("cocycle", (g, h, k)))
    for k, g in itertools.product(G.elements(), repeat=2):
        if k == e and differ(tau[e, g], 1):
            out.append(("transport-flatness", (e, g)))
        for h in G.elements():
            lhs = tau[k, g] * tau[k, h] * theta[G.conj(k, g), G.conj(k, h)]
            if differ(lhs, tau[k, G.mul(g, h)] * theta[g, h]):
                out.append(("transport-compatibility", (k, g, h)))
        for l in G.elements():
            if differ(tau[G.mul(k, l), g], tau[k, G.conj(l, g)] * tau[l, g]):
                out.append(("transport-flatness", (k, l, g)))
    return out


# each reference check of _reference_check_cocycle and the axiom of the
# rank-one bundle that states it, with the number of legs of its block
RANK_ONE = {"cocycle": ("associativity", 4), "normalization": ("unit", 2),
            "transport-compatibility": ("fusion-transport", 3),
            "transport-flatness": ("flatness", 2)}


def _rank_one_mismatch(sb):
    """Where ``check_cocycle`` and the reference loops disagree on ``sb``:
    the reference check whose failing gradings differ from those of its
    axiom, or ``"passed"``; None when they agree.  Left normalization
    theta(e,g) = 1 has no axiom of its own (it follows from the cocycle
    identity and theta(e,e) = 1), so only normalization at (g, e) is
    compared, as the unit axiom at g."""
    report, ref = check_cocycle(sb), _reference_check_cocycle(sb)
    if report.passed != (ref == []):
        return "passed"
    e = sb.group.identity
    for check, (axiom, legs) in RANK_ONE.items():
        got = set()
        for v in report.violations:
            if v.axiom == axiom:
                assert v.witness[-legs:] == (0,) * legs, v  # a 1x...x1 block
                got.add(v.witness[:-legs])
        want = {w[:1] if check == "normalization" else w
                for c, w in ref if c == check
                and (check != "normalization" or w[1] == e)}
        if got != want:
            return check
    return None


def _seeded(G, theta0, rng, count):
    """``count`` (theta, tau) pairs over ``G``: a random coboundary of
    ``theta0`` with its induced transport, and in about half of them up to
    two theta and two tau values scaled by -1, 2 or 1/2, so that some pass
    and some fail."""
    scales = [Fraction(-1), Fraction(2), Fraction(1, 2)]
    for _ in range(count):
        beta = {g: rng.choice(scales + [Fraction(1)]) for g in G.elements()}
        beta[G.identity] = Fraction(1)
        theta = coboundary(G, theta0, beta)
        tau = induced_transport(G, theta)
        for table in (theta, tau):
            for key in rng.sample(sorted(table), rng.choice([0, 0, 1, 2])):
                table[key] *= rng.choice(scales)
        yield theta, tau


def test_check_cocycle_fails_where_the_loops_fail():
    # the rank-one bundle fails validate_bundle exactly where the scalar
    # reference loops fail, grading for grading, in exact and float mode
    Z2 = cyclic_group(2)
    cases = [(Z2, dict(zip(itertools.product(range(2), repeat=2), th)),
              dict(zip(itertools.product(range(2), repeat=2), ta)))
             for th in itertools.product([1, -1, 2], repeat=4)
             for ta in itertools.product([1, -1], repeat=4)]
    assert len(cases) == 1296
    rng = random.Random(27)
    d8 = load_cocycle(os.path.join(FIXDIR, "d8_twisted.cocycle"))
    for G, theta0 in ((K, THETA), (symmetric_group(3), trivial_theta(symmetric_group(3))),
                      (d8.group, d8.theta)):
        cases += [(G, theta, tau) for theta, tau in _seeded(G, theta0, rng, 60)]
    # theta(1,1) = 2^70 puts the numerators in Python ints; the second also
    # breaks normalization
    big = {**trivial_theta(Z2), (1, 1): Fraction(2) ** 70}
    cases += [(Z2, big, induced_transport(Z2, big)),
              (Z2, {**big, (1, 0): Fraction(2) ** 70}, induced_transport(Z2, big))]
    mismatches, outcomes = [], set()
    for G, theta, tau in cases:
        for cast in (Fraction, complex):
            sb = ScalarBundle(G, {k: cast(v) for k, v in theta.items()},
                              {k: cast(v) for k, v in tau.items()},
                              counit_scalar=cast(1))
            where = _rank_one_mismatch(sb)
            if where is not None:
                mismatches.append((G.labels, theta, tau, cast, where))
            outcomes.add((G.order, sb.exact, check_cocycle(sb).passed))
    assert mismatches == []
    # every group meets passing and failing bundles in both modes
    assert len(outcomes) == 4 * 2 * 2


def test_check_cocycle_reports_a_transport_unit_witness_once():
    sb = from_cocycle(cyclic_group(3), {}, tau={(0, 1): Fraction(2)})
    got = [str(v) for v in check_cocycle(sb).violations]
    # the grading (e, g), then the index in the 1x1 block
    assert got.count("flatness at (0, 1, 0, 0)") == 1


@pytest.mark.parametrize("cast", [Fraction, complex])
def test_a_zero_theta_is_named_before_the_transport_divides_by_it(cast):
    # the induced transport divides by theta(kgk^-1, k): a zero there used to
    # end in a bare ZeroDivisionError, while tau={} gave this CocycleError
    theta = {(1, 1): cast(0)}
    for tau in (None, {}):
        with pytest.raises(CocycleError, match=r"theta\(1,1\) is zero"):
            from_cocycle(cyclic_group(2), theta, tau=tau, counit_scalar=cast(1))


def test_zero_scalar_rejected():
    theta = trivial_theta(K)
    tau = {(g, h): Fraction(1) for g in K.elements() for h in K.elements()}
    tau[1, 1] = Fraction(0)
    with pytest.raises(CocycleError):
        ScalarBundle(group=K, theta=theta, tau=tau)


def test_induced_transport_is_compatible():
    # twisted conjugation satisfies both transport conditions automatically
    rng = random.Random(5)
    for _ in range(10):
        beta = {g: Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
                for g in K.elements()}
        beta[K.identity] = Fraction(1)
        theta = coboundary(K, THETA, beta)
        sb = from_cocycle(K, theta)
        assert check_cocycle(sb).passed


def test_bridge_with_crossed_validator():
    assert validate_bundle(to_crossed_bundle(ANTI)).passed
    # and a broken tau breaks the inflated bundle too
    tau = dict(ANTI.tau)
    tau[1, 2] = tau[1, 2] * 7
    broken = ScalarBundle(group=K, theta=dict(THETA), tau=tau)
    assert not check_cocycle(broken).passed
    assert not validate_bundle(to_crossed_bundle(broken)).passed


def test_float_bridge_holds_python_complex_entries():
    theta = {k: complex(v) for k, v in THETA.items()}
    B = to_crossed_bundle(from_cocycle(K, theta, counit_scalar=complex(1)))
    assert not B.exact
    entries = B.unit.entries() + B.counit.entries()
    for family in ("fusion", "fission", "transport"):
        for block in getattr(B, family).values():
            entries += block.entries()
    assert {type(x) for x in entries} == {complex}


def test_torus_holonomy_minus_one():
    u, v = K.index("10"), K.index("01")
    assert gerbe_holonomy(ANTI, 1, [(u, v)]) == -1
    # (v,u) is the same surface up to the torus mapping class action,
    # since u and v are involutions
    assert gerbe_holonomy(ANTI, 1, [(v, u)]) == -1
    assert gerbe_holonomy(ANTI, 1, [(u, u)]) == 1


def test_scalar_walk_matches_evaluator():
    B = to_crossed_bundle(ANTI)
    for a in K.elements():
        for b in K.elements():
            w = closed_surface_word(K, 1, [(a, b)])
            assert scalar_surface_product(w, ANTI) == holonomy(w, B)


def test_trivial_cocycle_holonomy_is_one():
    sb = from_cocycle(K, trivial_theta(K))
    e = K.identity
    assert gerbe_holonomy(sb, 0, []) == 1
    for a in K.elements():
        for b in K.elements():
            assert gerbe_holonomy(sb, 1, [(a, b)]) == 1
    assert gerbe_holonomy(sb, 2, [(1, 2), (2, 1)]) == 1


def test_coboundary_invariance_of_torus_holonomy():
    rng = random.Random(17)
    base = {(a, b): gerbe_holonomy(ANTI, 1, [(a, b)])
            for a in K.elements() for b in K.elements()}
    for _ in range(20):
        beta = {g: Fraction(rng.choice([1, 2, 3, -1, -2]),
                            rng.choice([1, 2, 3]))
                for g in K.elements()}
        beta[K.identity] = Fraction(1)
        sb = from_cocycle(K, coboundary(K, THETA, beta))
        for (a, b), val in base.items():
            assert gerbe_holonomy(sb, 1, [(a, b)]) == val


def test_fusion_lambda_square():
    # four loop words; associativity of the transition scalars is the
    # cocycle identity at their pairwise ratios
    words = [LoopWord((K.index("10"),)), LoopWord(()),
             LoopWord((K.index("01"),)), LoopWord((K.index("11"),))]
    assert fusion_lambda_check(ANTI, words).passed
    assert fusion_lambda_check(ANTI, [LoopWord(())] * 4).passed
    g = symmetric_group(3)
    sb = from_cocycle(g, trivial_theta(g))
    assert fusion_lambda_check(sb, [LoopWord((1, 2)), LoopWord((3,)),
                                    LoopWord(()), LoopWord((4, 5))]).passed


def test_fusion_lambda_square_fails_on_a_theta_that_is_no_cocycle():
    # theta(10, 11) flipped breaks the identity at (a, b, c) = (10, 11, 01),
    # the pairwise ratios of the loop words e, 10, 01, e
    theta = dict(THETA)
    u, v, w = K.index("10"), K.index("01"), K.index("11")
    theta[u, w] = -theta[u, w]
    broken = ScalarBundle(group=K, theta=theta, tau=dict(ANTI.tau))
    words = [LoopWord(()), LoopWord((u,)), LoopWord((v,)), LoopWord(())]
    assert fusion_lambda_check(ANTI, words).passed
    report = fusion_lambda_check(broken, words)
    assert report.checked == ["lambda-associativity"]
    assert report.violations == [Violation("lambda-associativity",
                                           (K.identity, u, v, K.identity))]


def test_gerbe_holonomy_raises_when_the_walk_disagrees(monkeypatch):
    from tqft2d import gerbe
    monkeypatch.setattr(gerbe, "scalar_surface_product", lambda b, sb: Fraction(3))
    with pytest.raises(CocycleError) as err:
        gerbe_holonomy(ANTI, 1, [(1, 2)])
    assert str(err.value) == "scalar walk 3 disagrees with the evaluator -1"


def test_lambda_check_wants_four_words():
    with pytest.raises(ValueError):
        fusion_lambda_check(ANTI, [LoopWord(())] * 3)


def test_cocycle_file_roundtrip(tmp_path):
    gfile = tmp_path / "k4.group"
    gfile.write_text(format_group(K))
    cfile = tmp_path / "anti.cocycle"
    cfile.write_text(format_cocycle(ANTI, "k4.group"))
    sb = load_cocycle(str(cfile))
    assert sb.theta == ANTI.theta and sb.tau == ANTI.tau


def test_cocycle_file_defaults():
    z2 = cyclic_group(2)
    sb = parse_cocycle("cocycle over z2.group\n# nothing else\n", z2)
    assert all(v == 1 for v in sb.theta.values())
    assert all(v == 1 for v in sb.tau.values())


def test_cocycle_file_bad_line():
    with pytest.raises(CocycleError):
        parse_cocycle("cocycle over x\nthota e e = 1\n", cyclic_group(2))


def test_gerbe_holonomy_builds_the_rank_one_bundle_once(monkeypatch):
    from tqft2d import gerbe
    built = []
    build = gerbe.to_crossed_bundle
    monkeypatch.setattr(gerbe, "to_crossed_bundle",
                        lambda sb: built.append(sb) or build(sb))
    sb = from_cocycle(K, THETA)
    for genus in range(4):
        for a in K.elements():
            handles = [(a, (a + i) % K.order) for i in range(genus)]
            gerbe_holonomy(sb, genus, handles)
    assert len(built) == 1 and built[0] is sb
    other = from_cocycle(K, THETA)
    assert gerbe_holonomy(other, 1, [(1, 2)]) == gerbe_holonomy(sb, 1, [(1, 2)])
    assert len(built) == 2 and built[1] is other


def test_each_rank_one_block_takes_the_tier_of_its_own_value():
    # theta(1,1) = 2^70 puts the theta and 1/(c theta) tables in Python
    # ints; a block gathered from them holds its own value alone, so the
    # value 1 is int64 with bound 1, as its own constructor call makes it
    Z2 = cyclic_group(2)
    sb = from_cocycle(Z2, {(1, 1): Fraction(2) ** 70}, counit_scalar=Fraction(3))
    B = sb.crossed_bundle
    e = Z2.identity
    assert B.fusion[e, e].nums.dtype == np.int64
    assert B.fusion[1, 1].nums.dtype == object  # 2^70 itself
    for family in ("fusion", "fission", "transport"):
        for key, block in getattr(B, family).items():
            own = Tensor(np.array(block.entries(), dtype=object).reshape(block.shape))
            assert equal(block, own), (family, key)
            assert (block.nums.dtype, block.top) == (own.nums.dtype, own.top), (family, key)
    assert check_cocycle(sb).passed
    # the holonomies the bundle gave when every block held Python ints
    for genus, value in ((0, 3), (1, 1), (2, Fraction(1, 3))):
        for handles in itertools.product(itertools.product(Z2.elements(), repeat=2),
                                         repeat=genus):
            assert gerbe_holonomy(sb, genus, list(handles)) == value


FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _d8_twisted():
    """D8 as D16 = {(i mod 8, j mod 2)}, (i,j)(k,l) = (i + (-1)^j k, j + l),
    over its central <(4,0)>, with the section i in 0..3; theta is -1 where
    the D16 product of two sections leaves the section."""
    els = [(i, j) for j in range(2) for i in range(4)]

    def d16(x, y):
        return (x[0] + (-1) ** x[1] * y[0]) % 8, (x[1] + y[1]) % 2

    index = {x: n for n, x in enumerate(els)}
    table = [[index[d16(x, y)[0] % 4, d16(x, y)[1]] for y in els] for x in els]
    G = FiniteGroup(table, ["e", "r", "r2", "r3", "s", "rs", "r2s", "r3s"])
    theta = {(index[x], index[y]): Fraction(-1 if d16(x, y)[0] > 3 else 1)
             for x in els for y in els}
    return G, from_cocycle(G, theta)


def test_twisted_d8_fixture_is_its_definition():
    G, sb = _d8_twisted()
    with open(os.path.join(FIXDIR, "d8.group"), encoding="utf-8") as fh:
        assert fh.read() == format_group(G)
    with open(os.path.join(FIXDIR, "d8_twisted.cocycle"), encoding="utf-8") as fh:
        assert fh.read() == format_cocycle(sb, "d8.group")
    loaded = load_cocycle(os.path.join(FIXDIR, "d8_twisted.cocycle"))
    assert (loaded.theta, loaded.tau) == (sb.theta, induced_transport(G, sb.theta))
    assert check_cocycle(loaded).passed
    assert validate_bundle(to_crossed_bundle(loaded)).passed


def test_the_twisted_k4_fixture_is_a_coboundary_of_the_anticommuting_one():
    # theta times the coboundary of beta, with the induced transport; the
    # torus holonomies do not change, and each family's blocks, over several
    # dens, are one object per distinct value made by its own constructor call
    beta = dict(zip(K.elements(), map(Fraction, (1, 2, "-1/3", "1/2"))))
    sb = load_cocycle(os.path.join(FIXDIR, "k4_anti_twisted.cocycle"))
    anti = load_cocycle(os.path.join(FIXDIR, "k4_anti.cocycle"))
    assert (sb.theta, sb.tau) == (coboundary(K, THETA, beta),
                                  induced_transport(K, sb.theta))
    for a, b in itertools.product(K.elements(), repeat=2):
        assert gerbe_holonomy(sb, 1, [(a, b)]) == gerbe_holonomy(anti, 1, [(a, b)])
    B = sb.crossed_bundle
    assert len({B.fission[k].den for k in sb.theta}) > 1
    for family in ("fusion", "fission", "transport"):
        shared = {}
        for block in getattr(B, family).values():
            value = block.entries()[0]
            assert shared.setdefault(value, block) is block, (family, value)
            own = Tensor(np.full(block.shape, value, dtype=object))
            assert (block.den, block.nums.dtype, block.top) == \
                (own.den, own.nums.dtype, own.top) and equal(block, own), (family, value)


def test_an_exact_cocycle_of_python_ints_is_made_of_fractions():
    # 1 / (c * theta) of two ints is a float, which the exact constructor
    # read as a binary fraction: frobenius failed on this valid cocycle
    sb = from_cocycle(cyclic_group(2), {(1, 1): 3}, counit_scalar=1)
    assert check_cocycle(sb).passed
    values = [*sb.theta.values(), *sb.tau.values(), sb.counit_scalar]
    assert {type(v) for v in values} == {Fraction}


def test_a_coboundary_of_python_ints_is_exact():
    S3 = symmetric_group(3)
    trivial = {(g, h): 1 for g in S3.elements() for h in S3.elements()}
    twisted = coboundary(S3, trivial, {g: g + 1 for g in S3.elements()})
    assert {type(v) for v in twisted.values()} == {Fraction}
    assert check_cocycle(from_cocycle(S3, twisted)).passed


def test_the_induced_transport_of_python_ints_is_exact():
    theta = {k: int(v) for k, v in THETA.items()}
    assert induced_transport(K, theta) == ANTI.tau
    assert {type(v) for v in induced_transport(K, theta).values()} == {Fraction}
    assert gerbe_holonomy(from_cocycle(K, theta), 1, [(1, 2)]) == -1


def test_fractions_pass_untouched_and_a_complex_value_in_an_exact_bundle_is_named():
    third = Fraction(1, 3)
    sb = from_cocycle(cyclic_group(2), {(1, 1): third})
    assert sb.theta[1, 1] is third
    with pytest.raises(CocycleError, match=r"^theta\(1,1\) is complex in an exact bundle$"):
        from_cocycle(cyclic_group(2), {(1, 1): 2j})
    tau = dict(ANTI.tau)
    tau[2, 3] = complex(tau[2, 3])
    with pytest.raises(CocycleError, match=r"^tau\(2,3\) is complex in an exact bundle$"):
        ScalarBundle(K, dict(THETA), tau)
    floats = from_cocycle(K, THETA, counit_scalar=complex(1))
    assert floats.theta[1, 2] is THETA[1, 2]
