import itertools
import os
import random
from fractions import Fraction

import pytest

from tqft2d.crossed import closed_surface_word, holonomy, validate_bundle
from tqft2d.gerbe import (ScalarBundle, CocycleError, check_theta,
                          check_cocycle, induced_transport, from_cocycle,
                          coboundary, klein_anticommuting_cocycle,
                          to_crossed_bundle, scalar_surface_product,
                          gerbe_holonomy, fusion_lambda_check, parse_cocycle,
                          format_cocycle, load_cocycle)
from tqft2d.groups import (FiniteGroup, LoopWord, cyclic_group, symmetric_group,
                           klein_four_group, format_group)

K, THETA = klein_anticommuting_cocycle()
ANTI = from_cocycle(K, THETA)


def trivial_theta(group):
    return {(g, h): Fraction(1) for g in group.elements()
            for h in group.elements()}


def test_trivial_cocycle_passes():
    g = symmetric_group(3)
    sb = from_cocycle(g, trivial_theta(g))
    assert check_cocycle(sb).passed


def test_anticommuting_cocycle_passes():
    assert check_theta(K, THETA).passed
    assert check_cocycle(ANTI).passed


def test_flipped_value_fails_with_witness():
    theta = dict(THETA)
    key = (K.index("10"), K.index("11"))
    theta[key] = -theta[key]
    report = check_theta(K, theta)
    assert "cocycle" in report.failed_axioms()
    assert any(v.axiom == "cocycle" for v in report.violations)


def test_unnormalized_cocycle_rejected():
    theta = trivial_theta(K)
    theta[1, 0] = Fraction(2)
    with pytest.raises(CocycleError) as err:
        from_cocycle(K, theta)
    assert "coboundary" in str(err.value)


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
        if differ(tau[e, g], 1):
            out.append(("transport-flatness", (e, g)))
        for h in G.elements():
            lhs = tau[k, g] * tau[k, h] * theta[G.conj(k, g), G.conj(k, h)]
            if differ(lhs, tau[k, G.mul(g, h)] * theta[g, h]):
                out.append(("transport-compatibility", (k, g, h)))
        for l in G.elements():
            if differ(tau[G.mul(k, l), g], tau[k, G.conj(l, g)] * tau[l, g]):
                out.append(("transport-flatness", (k, l, g)))
    return out


def test_check_cocycle_reports_what_the_loops_report():
    rng = random.Random(11)
    values = [Fraction(-1), Fraction(1, 2), Fraction(3)]
    for G in (K, symmetric_group(3)):
        for _ in range(12):
            theta, tau = ({(g, h): rng.choice(values) if rng.random() < rate else Fraction(1)
                           for g in G.elements() for h in G.elements()}
                          for rate in (0.1, 0.05))
            for exact in (True, False):
                cast = Fraction if exact else complex
                sb = ScalarBundle(G, {k: cast(v) for k, v in theta.items()},
                                  {k: cast(v) for k, v in tau.items()},
                                  counit_scalar=cast(1))
                got = [(v.axiom, v.witness) for v in check_cocycle(sb).violations]
                assert got == _reference_check_cocycle(sb)


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
