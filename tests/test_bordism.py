import importlib
import os
import random
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import tqft2d
from tqft2d.bordism import (ARITY, Gen, BordismWord, WordSyntaxError, ArityError,
                            parse_word, word, seq, par,
                            topological_type, equivalent, evaluate, as_matrix,
                            random_equivalent_pair)
from tqft2d import bordism, crossed, frobenius
from tqft2d.crossed import (enumerate_labeled_words, evaluate_labeled,
                            from_frobenius_algebra, from_group_algebra, label_word,
                            load_bundle)
from tqft2d.frobenius import (FrobeniusAlgebra, DegeneratePairingError, ground_field,
                              dual_numbers, diagonal, group_center, closed_invariant,
                              comultiplication, rescale_counit)
from tqft2d.gerbe import (from_cocycle, klein_anticommuting_cocycle, load_cocycle,
                          to_crossed_bundle)
from tqft2d.groups import cyclic_group, symmetric_group, trivial_group
from tqft2d.tensor import Tensor, equal, permute, tensordot

from test_crossed import _reference_evaluate_labeled

ALGEBRAS = [ground_field(), dual_numbers(),
            diagonal([Fraction(1), Fraction(2)]),
            group_center(symmetric_group(3))]
FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def test_parse_single_generator():
    w = parse_word("pants")
    assert w.arity_in == 2 and w.arity_out == 1
    assert w.layers == ((Gen.PANTS,),)


def test_parse_unit_on_the_left():
    w = parse_word("cap * id ; pants")
    assert w.arity_in == 1 and w.arity_out == 1


def test_parse_parenthesized_subword_splices():
    w = parse_word("(cap ; copants) * id")
    assert w.arity_in == 1 and w.arity_out == 3
    assert len(w.layers) == 2


def test_parse_syntax_error_has_position():
    with pytest.raises(WordSyntaxError):
        parse_word("pants ; ; cup")
    with pytest.raises(WordSyntaxError):
        parse_word("pants & cup")


def test_arity_error_between_layers():
    with pytest.raises(ArityError):
        parse_word("pants ; cup ; pants")
    # this word composes fine even though a cup ends a column
    w = parse_word("pants ; copants ; pants ; cup ; cap")
    assert w.arity_in == 2 and w.arity_out == 1


def test_pretty_then_parse_is_identity():
    for text in ("pants", "cap * id ; pants", "copants ; swap ; pants",
                 "cap ; copants ; pants ; cup"):
        w = parse_word(text)
        assert parse_word(w.pretty()) == w


def _reference_parse_word(text):
    """parse_word by recursive descent over the grammar word := layer
    (';' layer)*, layer := factor ('*' factor)*, factor := '(' word ')' |
    generator; the reference the one-pass parser must agree with.  Each
    '(' costs three Python frames, so deep nesting overflows the stack."""
    tokens = bordism._tokenize(text)
    if not tokens:
        raise WordSyntaxError("empty word", position=0)
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def parse_word_():
        w = parse_layer()
        while peek() == ";":
            take()
            w = seq(w, parse_layer())
        return w

    def parse_layer():
        w = parse_factor()
        while peek() == "*":
            take()
            w = par(w, parse_factor())
        return w

    def parse_factor():
        if peek() is None:
            raise WordSyntaxError("unexpected end of input", position=tokens[-1][1])
        tok, at = take()
        if tok == "(":
            w = parse_word_()
            if peek() != ")":
                raise WordSyntaxError("missing ')'", position=at)
            take()
            return w
        if tok in bordism._NAMES:
            return word([bordism._NAMES[tok]])
        raise WordSyntaxError("unknown generator %r" % tok, position=at)

    w = parse_word_()
    if peek() is not None:
        raise WordSyntaxError("trailing input %r" % peek(), position=tokens[pos][1])
    return w


def _parse_outcome(parse, text):
    """The layers ``parse`` makes of ``text``, or the class and message of
    the input error it raises."""
    try:
        return parse(text).layers
    except (WordSyntaxError, ArityError) as exc:
        return type(exc), str(exc)


def test_parse_word_matches_the_recursive_reference():
    # both words of 300 random pairs, 600 of them with up to three random
    # token spans parenthesized, and 2,000 random token strings: shallow
    # enough for the reference, and every error of the grammar shows up
    rng = random.Random(2010)
    texts = []
    for seed in range(300):
        for w in random_equivalent_pair((seed % 3, seed // 3 % 3), 6, seed):
            texts.append(w.pretty())
    for _ in range(600):
        toks = [tok for tok, _ in bordism._tokenize(rng.choice(texts[:600]))]
        for _ in range(rng.randint(1, 3)):
            i, j = sorted(rng.randrange(len(toks) + 1) for _ in range(2))
            toks = toks[:i] + ["("] + toks[i:j] + [")"] + toks[j:]
        texts.append(" ".join(toks))
    pool = [g.value for g in Gen] + [";", "*", "(", ")", "x", "&"]
    for _ in range(2000):
        texts.append(" ".join(rng.choice(pool) for _ in range(rng.randint(0, 12))))
    errors = []
    for text in texts:
        got = _parse_outcome(parse_word, text)
        assert got == _parse_outcome(_reference_parse_word, text), text
        if isinstance(got[0], type):
            errors.append(got[1])
    assert len(errors) < len(texts)
    for kind in ("empty word", "unexpected end of input", "missing ')'",
                 "unknown generator", "trailing input", "unexpected character",
                 "cannot compose"):
        assert any(e.startswith(kind) for e in errors), kind


def test_parse_word_nests_deeper_than_the_call_stack():
    text = "(" * 3000 + "cap ; (copants)" + ")" * 3000
    with pytest.raises(RecursionError):
        _reference_parse_word(text)
    assert parse_word(text) == parse_word("cap ; copants")
    with pytest.raises(WordSyntaxError, match=r"missing '\)' \(at position 2999\)"):
        parse_word("(" * 3000 + "id")


def test_topological_type_cylinder():
    tt = topological_type(parse_word("id"))
    assert tt.components == ((0, (0,), (0,)),)


def test_topological_type_four_holed_sphere():
    tt = topological_type(parse_word("pants ; copants"))
    assert tt.components == ((0, (0, 1), (0, 1)),)


def test_topological_type_torus():
    tt = topological_type(parse_word("cap ; copants ; pants ; cup"))
    assert tt.components == ((1, (), ()),)


def test_topological_type_disjoint_components():
    tt = topological_type(parse_word("id * (cap ; cup)"))
    assert len(tt.components) == 2


def test_genus_two_decompositions_equivalent():
    w1 = parse_word("copants ; pants ; copants ; pants")
    w2 = parse_word("copants ; id * copants ; id * pants ; pants")
    assert equivalent(w1, w2)
    assert topological_type(w1).components == ((2, (0,), (0,)),)


def test_four_holed_sphere_routes_equivalent():
    w1 = parse_word("pants ; copants")
    w2 = parse_word("copants * id ; id * pants")
    assert w2.arity_in == 2 and w2.arity_out == 2
    assert equivalent(w1, w2)


def test_equivalent_arity_mismatch():
    with pytest.raises(ArityError):
        equivalent(parse_word("pants"), parse_word("copants"))


def test_evaluate_identity():
    for a in ALGEBRAS:
        assert equal(evaluate(parse_word("id"), a),
                     Tensor.identity(a.dim))


def test_evaluate_sphere():
    assert evaluate(parse_word("cap ; cup"), dual_numbers()).item() == 0
    assert evaluate(parse_word("cap ; cup"), ground_field()).item() == 1


def test_evaluate_unit_axiom():
    for a in ALGEBRAS:
        assert equal(evaluate(parse_word("cap * id ; pants"), a),
                     Tensor.identity(a.dim))


def test_evaluate_torus_is_dimension():
    w = parse_word("cap ; copants ; pants ; cup")
    for a in ALGEBRAS:
        assert evaluate(w, a).item() == a.dim


def test_swap_evaluates_to_transposition():
    a = dual_numbers()
    t = evaluate(parse_word("swap"), a)
    for i in range(2):
        for j in range(2):
            assert t.nums[i, j, j, i] == 1


def test_sequential_composition_is_map_composition():
    a = dual_numbers()
    w1 = parse_word("copants")
    w2 = parse_word("pants")
    both = evaluate(seq(w1, w2), a)
    t1 = evaluate(w1, a)
    t2 = evaluate(w2, a)
    composed = tensordot(t1, t2, [1, 2], [0, 1])
    assert equal(both, composed)


def test_parallel_composition_is_tensor_product():
    a = dual_numbers()
    w1 = parse_word("cap")
    w2 = parse_word("cup")
    lhs = evaluate(par(w1, w2), a)
    # legs of the parallel word: [in of cup, out of cap]
    rhs = tensordot(evaluate(w2, a), evaluate(w1, a), [], [])
    assert equal(lhs, rhs)


def test_closed_genus_words_match_invariant():
    genus_words = {
        0: "cap ; cup",
        1: "cap ; copants ; pants ; cup",
        2: "cap ; copants ; pants ; copants ; pants ; cup",
        3: "cap ; copants ; pants ; copants ; pants ; copants ; pants ; cup",
    }
    for a in ALGEBRAS:
        for g, text in genus_words.items():
            assert evaluate(parse_word(text), a).item() == closed_invariant(a, g)


def test_as_matrix_shape():
    a = dual_numbers()
    m = as_matrix(evaluate(parse_word("pants"), a), 2, a.dim)
    assert m.shape == (2, 4)


def test_random_pair_deterministic():
    p1 = random_equivalent_pair((1, 1), 6, 123)
    p2 = random_equivalent_pair((1, 1), 6, 123)
    assert p1 == p2


def test_random_pair_is_equivalent_and_bounded():
    for seed in range(25):
        w1, w2 = random_equivalent_pair((seed % 3, seed // 9), 8, seed)
        assert equivalent(w1, w2)
        assert len(w1.layers) <= 8 and len(w2.layers) <= 8


def test_random_pair_single_layer_budget():
    w1, w2 = random_equivalent_pair((2, 2), 1, 5)
    assert w1 == w2


def test_random_pairs_evaluate_equal():
    a = dual_numbers()
    for seed in range(30):
        w1, w2 = random_equivalent_pair((1, 1), 8, seed)
        assert equal(evaluate(w1, a), evaluate(w2, a))


def _normal_form(w, a):
    """The folk theorem's value of a plain word, read off its topological
    type alone: per component a multiplication chain over its inputs (the
    unit when it has none), the handle operator once per genus, and a
    comultiplication chain onto its outputs (the counit when it has none);
    the components tensored together, legs [inputs..., outputs...]."""
    state, legs = Tensor.scalar(1, exact=a.exact), []
    for genus, ins, outs in topological_type(w).components:
        # the last leg is the running circle
        t = Tensor.identity(a.dim, exact=a.exact) if ins else a.unit
        for _ in ins[1:]:
            t = tensordot(t, a.mul, [t.rank - 1], [0])
        for _ in range(genus):
            t = tensordot(t, a.handle, [t.rank - 1], [0])
        for _ in outs[1:]:
            t = tensordot(t, a.delta, [t.rank - 1], [0])
        if not outs:
            t = tensordot(t, a.counit, [t.rank - 1], [0])
        state = tensordot(state, t, [], [])
        legs += list(ins) + [w.arity_in + p for p in outs]
    return permute(state, [legs.index(i) for i in range(len(legs))])


def test_contraction_equals_the_normal_form_of_the_topological_type():
    # an oracle independent of the pairs: a bug that changes both words of a
    # pair alike still changes the contraction against the normal form
    algebras = [dual_numbers(), group_center(symmetric_group(3)),
                diagonal([Fraction(2), Fraction(1, 3)]), dual_numbers(False)]
    compared = 0
    for seed in range(600):
        for w in random_equivalent_pair((seed % 3, (seed // 3) % 3), 8, seed):
            for a in algebras:
                assert equal(_normal_form(w, a), evaluate(w, a), a.tol), (seed, w, a)
                compared += 1
    assert compared == 4800


def test_nfold_bracketings_agree():
    # all bracketings of a 4-fold multiplication tower
    towers = [
        "pants * id * id ; pants * id ; pants",
        "id * pants * id ; pants * id ; pants",
        "id * pants * id ; id * pants ; pants",
        "id * id * pants ; id * pants ; pants",
        "pants * pants ; pants",
    ]
    for a in ALGEBRAS:
        vals = [evaluate(parse_word(t), a) for t in towers]
        assert all(equal(v, vals[0]) for v in vals[1:])
        # and dually for comultiplication towers
    cotowers = [t.replace("pants", "copants") for t in towers]
    for a in ALGEBRAS:
        vals = [evaluate(parse_word("; ".join(reversed(t.split("; ")))), a)
                for t in cotowers]
        assert all(equal(v, vals[0]) for v in vals[1:])


def _reference_generators(a):
    """Generator tensors straight from the algebra's data, legs
    [inputs..., outputs...]; nothing here goes through evaluate."""
    ident = Tensor.identity(a.dim, exact=a.exact)
    # swap[i, j, k, l] = 1 when the first output k carries the second input j
    # and the second output l the first input i
    swap = np.zeros((a.dim,) * 4, dtype=object)
    for i in range(a.dim):
        for j in range(a.dim):
            swap[i, j, j, i] = 1
    swap = Tensor(swap, exact=a.exact)
    return {Gen.ID: ident, Gen.SWAP: swap, Gen.CAP: a.unit, Gen.CUP: a.counit,
            Gen.PANTS: a.mul, Gen.COPANTS: comultiplication(a)}


def _reference_evaluate(w, a):
    """evaluate by definition: each layer is the tensor product of its
    generators, legs permuted to [inputs..., outputs...], and the layers are
    composed in order."""
    gens = _reference_generators(a)
    cur = None
    for layer in w.layers:
        lt = Tensor.scalar(1, exact=a.exact)
        ins, outs = [], []
        for g in layer:
            n_in, n_out = ARITY[g]
            ins += range(lt.rank, lt.rank + n_in)
            outs += range(lt.rank + n_in, lt.rank + n_in + n_out)
            lt = tensordot(lt, gens[g], [], [])
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


# swap, cap and cup between runs of id, where a misplaced leg shows
WIDE_WORDS = [
    "id * swap * id",
    "id * cap * id",
    "id * cup * id",
    "id * id * swap * id ; cap * id * pants * id * id ;"
    " id * cup * copants * id * id",
    "id * copants * id ; id * swap * id ; id * id * id * cup",
    "cap * id * id ; id * swap ; id * cup * id ; swap",
    "pants * id * pants ; id * cap * swap ; cup * id * id * id",
    # caps beside a cylinder: re-planned when the cylinder is contracted
    "id * cap * cap * cap ; pants * pants ; copants * id ; id * swap",
    # folded generators that another order contracts at layer order's cost
    "cap ; copants ; cap * pants ; copants * id ; pants * id ; pants",
]


def test_evaluate_matches_layer_definition_on_random_pairs():
    # the last two algebras put denominators into mul and comultiplication
    for a in (dual_numbers(), diagonal([Fraction(2), Fraction(1, 3)]),
              rescale_counit(dual_numbers(), Fraction(2, 3))):
        for seed in list(range(40)) + [98, 143, 179]:
            arity = (seed % 3, (seed // 3) % 3)
            for w in random_equivalent_pair(arity, 8, seed):
                _assert_identical(evaluate(w, a), _reference_evaluate(w, a))


def test_evaluate_builds_generator_tensors_once_per_algebra(monkeypatch):
    calls = []

    def counted(algebra):
        calls.append(algebra)
        return comultiplication(algebra)

    monkeypatch.setattr(frobenius, "comultiplication", counted)
    # two distinct algebras of equal dimension, evaluated alternately
    algebras = [diagonal([Fraction(2), Fraction(1, 3)]),
                rescale_counit(dual_numbers(), Fraction(2, 3))]
    words = [parse_word(t) for t in ("copants ; pants", "id * cap ; swap ; pants")
             + tuple(WIDE_WORDS)]
    for w in words:
        for a in algebras:
            _assert_identical(evaluate(w, a), _reference_evaluate(w, a))
    assert len(words) * len(algebras) >= 10
    assert len(calls) == 2 and all(c is a for c, a in zip(calls, algebras))
    # a degenerate pairing is never cached: every call raises again
    d = dual_numbers()
    degenerate = FrobeniusAlgebra(dim=2, basis=d.basis, mul=d.mul, unit=d.unit,
                                  counit=d.unit)
    for _ in range(2):
        with pytest.raises(DegeneratePairingError):
            evaluate(parse_word("copants"), degenerate)


def test_evaluate_builds_one_bundle_per_algebra(monkeypatch):
    # the algebra's bundle over the one-element group is built by the first
    # call and kept; a degenerate pairing keeps none, so every call raises
    built = []
    post_init = crossed.CrossedBundle.__post_init__

    def counted(bundle):
        built.append(bundle)
        post_init(bundle)

    monkeypatch.setattr(crossed.CrossedBundle, "__post_init__", counted)
    a = dual_numbers()
    words = [parse_word(text) for text in WIDE_WORDS]
    for i in range(100):
        evaluate(words[i % len(words)], a)
    assert len(built) == 1 and built[0] is a.bundle
    d = dual_numbers()
    degenerate = FrobeniusAlgebra(dim=2, basis=d.basis, mul=d.mul, unit=d.unit,
                                  counit=d.unit)
    for i in range(3):
        with pytest.raises(DegeneratePairingError):
            evaluate(words[i], degenerate)
    assert len(built) == 1 and "bundle" not in vars(degenerate)


def test_evaluate_is_the_trivial_group_case_of_the_contracted_path():
    # each word's one labeling over the one-element group, every id
    # contracted as a transport block, against the carried plain path:
    # bit-identical in exact mode, equal at the algebra's tolerance in float
    T = trivial_group()
    for a in (dual_numbers(), group_center(symmetric_group(3)),
              dual_numbers(exact=False)):
        B = from_frobenius_algebra(T, a)
        for seed in range(200):
            for w in random_equivalent_pair((seed % 3, (seed // 3) % 3), 8, seed):
                boundaries, annotations = w.trivial_labeling
                b = label_word(T, w, boundaries[0], annotations)
                assert (b.boundaries, b.annotations) == w.trivial_labeling
                t, labeled = evaluate(w, a), evaluate_labeled(b, B)
                if a.exact:
                    _assert_identical(t, labeled)
                else:
                    assert equal(t, labeled, a.tol)


def test_evaluate_matches_layer_definition_on_wide_words():
    for a in (dual_numbers(), diagonal([Fraction(2), Fraction(1, 3)])):
        for text in WIDE_WORDS:
            w = parse_word(text)
            _assert_identical(evaluate(w, a), _reference_evaluate(w, a))


def test_evaluate_edge_cases():
    a = dual_numbers()
    empty = evaluate(word([]), a)
    assert empty.shape == () and empty.item() == 1
    # a closed word ending in an empty layer
    closed = evaluate(BordismWord(((Gen.CAP,), (Gen.CUP,), ())), a)
    assert closed.shape == () and closed.item() == 0
    assert evaluate(parse_word("cap * cap"), a).shape == (2, 2)
    # an input that passes untouched beside a sphere of value 1/2 + 1/2
    half = diagonal([Fraction(1, 2), Fraction(1, 2)])
    _assert_identical(evaluate(parse_word("id * cap ; id * cup"), half),
                      Tensor.identity(2))


def test_evaluate_float_mode_carries_tolerance():
    a = replace(dual_numbers(exact=False), tol=1e-6)
    for text in ("id", "cap ; cup", "id * cap ; swap ; pants") + tuple(WIDE_WORDS):
        w = parse_word(text)
        t = evaluate(w, a)
        assert t.exact is False
        assert equal(t, _reference_evaluate(w, a), a.tol)
    assert a.tol == 1e-6  # evaluating leaves the algebra's tolerance alone
    empty = evaluate(word([]), a)
    assert (empty.exact, empty.item()) == (False, 1)
    # an empty layer must not bring an exact scalar into a float word
    sphere = evaluate(BordismWord(((), (Gen.CAP,), (Gen.CUP,))), a)
    assert (sphere.exact, sphere.item()) == (False, 0)


def _leg_costs(gens, order, base=4):
    """(cost, peak) of contracting ``gens``, (labels read, labels made) per
    contracted generator, in ``order``, counted from the labels alone: a
    step spans the state's legs and the generator's, a shared leg once, and
    costs ``base`` ** that, its multiply-adds when every fiber has
    dimension ``base`` (the plan's cost at 4); a shared leg then leaves the
    state and every other leg of the generator joins it.  ``peak`` is the
    most legs the state holds."""
    legs, cost, peak = set(), 0, 0
    for k in order:
        ends = set(gens[k][0]) | set(gens[k][1])
        cost += base ** len(legs | ends)
        legs ^= ends
        peak = max(peak, len(legs))
    return cost, peak


def _reference_plan(gens):
    """The contraction order of ``gens``, (labels read, labels made) per
    contracted generator in layer order: layer order, unless the plain
    greedy over each connected component costs strictly less
    (``_leg_costs``).  In each component the greedy runs from each of its
    generators in layer order, and the first of the cheapest orders is
    kept; it recomputes every generator's shared legs from scratch at each
    step and takes, of those that share a leg with the state, the least of
    (state legs left, legs in the step, place in layer order).  The
    components go in increasing order of (4 ** f - 1) / c, f the legs one
    leaves open and c its own cost, the one first in layer order first on
    a tie."""
    ends = [set(read) | set(made) for read, made in gens]

    def greedy(start):
        order, legs = [start], set(ends[start])
        while True:
            rest = [k for k in range(len(gens)) if k not in order and legs & ends[k]]
            if not rest:
                return order, len(legs)
            k = min(rest, key=lambda k: (len(legs ^ ends[k]), len(legs | ends[k]), k))
            order.append(k)
            legs ^= ends[k]

    parts, seen = [], set()
    for first in range(len(gens)):
        if first not in seen:
            best = None
            for start in sorted(greedy(first)[0]):
                order, n_legs = greedy(start)
                cost = _leg_costs(gens, order)[0]
                if best is None or cost < best[0]:
                    best = cost, n_legs, order
            seen.update(best[2])
            parts.append(best)
    parts.sort(key=lambda part: (4 ** part[1] - 1) / part[0])
    planned = [k for _, _, order in parts for k in order]
    layer_order = list(range(len(gens)))
    if _leg_costs(gens, planned)[0] < _leg_costs(gens, layer_order)[0]:
        return planned
    return layer_order


def _ready_first_plan(gens):
    """The order the engine planned before any generator could come ahead
    of the makers of its inputs: of the generators whose inputs are all
    made, the one that leaves the fewest state legs, the earliest on a tie,
    kept only if its peak number of state legs is strictly below layer
    order's."""
    def after(legs, k):
        read, outs = gens[k]
        return [leg for leg in legs if leg not in read] + [c for c in read if c < 0] + outs

    greedy, legs, made = [], [], set()
    while len(greedy) < len(gens):
        ready = [k for k in range(len(gens)) if k not in greedy
                 and all(c < 0 or c in made for c in gens[k][0])]
        k = min(ready, key=lambda k: (len(after(legs, k)), k))
        greedy.append(k)
        legs = after(legs, k)
        made.update(gens[k][1])
    layer_order = list(range(len(gens)))
    if _leg_costs(gens, greedy)[1] < _leg_costs(gens, layer_order)[1]:
        return greedy
    return layer_order


def _reference_contract_word(w, boundaries, annotations, bundle, carry,
                             dot=tensordot, plan=_reference_plan):
    """contract_word as one loop that redoes the leg bookkeeping, the block
    choice from the labels and the planning (``plan``, ``_reference_plan``
    unless given) on every call; with ``carry`` an ``id`` cylinder only
    carries its circle.  Every contraction goes through ``dot``.  An input
    that reaches the outputs untouched gets the identity of its fiber by an
    outer product, the independent check of ``with_identities``; those
    products go through plain ``tensordot``, so ``dot`` sees only
    contractions."""
    n_in, exact = w.arity_in, bundle.exact
    gens = []  # (tensor, labels read, labels made) per contracted generator
    # an input label in the boundary never has a leg yet, an output always has
    boundary = [~i for i in range(n_in)]
    made = 0
    for t, layer in enumerate(w.layers):
        pos = 0  # position of the next generator's first input in ``boundary``
        labels = list(boundaries[t])  # the circle labels above the layer, in order
        for ann, g in zip(annotations[t], layer):
            n_gen_in, n_out = ARITY[g]
            read, labels = labels[:n_gen_in], labels[n_gen_in:]
            if g is Gen.SWAP or (carry and g is Gen.ID):
                boundary[pos:pos + n_gen_in] = reversed(boundary[pos:pos + n_gen_in])
                pos += n_gen_in
                continue
            if g is Gen.ID:
                gen = bundle.transport[ann, read[0]]
            elif g is Gen.PANTS:
                gen = bundle.fusion[read[0], read[1]]
            elif g is Gen.COPANTS:
                gen = bundle.fission[ann]
            else:
                gen = bundle.unit if g is Gen.CAP else bundle.counit
            circles = boundary[pos:pos + n_gen_in]
            outs = list(range(made, made + n_out))
            made += n_out
            gens.append((gen, circles, outs))
            boundary[pos:pos + n_gen_in] = outs
            pos += n_out
    state = None  # None stands for the scalar 1
    legs = []
    for k in plan([(circles, outs) for _, circles, outs in gens]):
        gen, circles, outs = gens[k]
        # a label the state holds was made, or left open, by a generator
        # taken before: its legs are paired; the others join the state
        ends = circles + outs
        if state is None:
            state, legs = gen, ends
        else:
            paired = [c for c in ends if c in legs]
            state = dot(state, gen, [legs.index(c) for c in paired],
                        [ends.index(c) for c in paired])
            legs = ([leg for leg in legs if leg not in paired]
                    + [c for c in ends if c not in paired])
    for p, c in enumerate(boundary):
        if c < 0:  # an input that reaches the outputs untouched
            ident = Tensor.identity(bundle.dims[boundaries[0][~c]], exact=exact)
            state = ident if state is None else tensordot(state, ident, [], [])
            legs += [c, made]
            boundary[p] = made
            made += 1
    if state is None:
        return Tensor.scalar(1, exact=exact)
    perm = [legs.index(leg) for leg in [~i for i in range(n_in)] + boundary]
    return permute(state, perm)


def _recording(calls):
    """tensordot, noting (a.shape, axes_a, b.shape, axes_b) of each call."""
    def dot(a, b, axes_a, axes_b, order=None):
        calls.append((a.shape, tuple(axes_a), b.shape, tuple(axes_b)))
        return tensordot(a, b, axes_a, axes_b, order)
    return dot


def _engine_cases():
    """(evaluate, word or labeled word, algebra or bundle) over the wide
    words, random pair seeds and enumerated labeled words, exact and float;
    the twisted D8 bundle has a block at (g, h) unlike the one at (h, g) in
    both fusion and transport."""
    words = [parse_word(text) for text in WIDE_WORDS]
    for seed in list(range(30)) + [98, 143, 179]:
        words += random_equivalent_pair((seed % 3, (seed // 3) % 3), 8, seed)
    for a in (dual_numbers(), diagonal([Fraction(2), Fraction(1, 3)]),
              dual_numbers(exact=False)):
        for w in words:
            yield evaluate, w, a
    z2_dual = os.path.join(FIXTURES, "z2_dual.bundle")
    d8_twisted = os.path.join(FIXTURES, "d8_twisted.cocycle")
    for B, budget in ((from_group_algebra(cyclic_group(2)), 60),
                      (from_group_algebra(symmetric_group(3)), 3),
                      (load_bundle(z2_dual), 6),
                      (from_group_algebra(cyclic_group(2), exact=False), 6),
                      (load_bundle(z2_dual, exact=False, tol=1e-6), 6),
                      (to_crossed_bundle(load_cocycle(d8_twisted)), 7)):
        for b in enumerate_labeled_words(B.group, 3, budget_per_shape=budget):
            yield evaluate_labeled, b, B


def _same_numerators(t, ref):
    """Whether t and ref hold the same numerators, of one dtype, over the
    same den and within the same bound."""
    return (t.shape == ref.shape and t.exact == ref.exact and t.den == ref.den
            and t.top == ref.top and t.nums.dtype == ref.nums.dtype
            and t.nums.tolist() == ref.nums.tolist())


def _absorbed(g):
    """The generators folded into g: each join's part, and the caps and
    cups of a part that is a fold itself."""
    if not isinstance(g, bordism._Fold):
        return 0
    return sum(1 + _absorbed(part) for _, part, _ in g.joins)


def _folded(steps):
    """The generators a schedule folds into other generators' steps: each
    cap and cup, and each absorbed neighbour, its own caps and cups
    included."""
    return sum(_absorbed(g) for g, *_ in steps)


def _recording_builds(monkeypatch, calls, builds):
    """Moves each tensordot call that ``_Fold.block`` makes, the builds of
    folded blocks, from ``calls`` to ``builds``."""
    block = bordism._Fold.block

    def recorded(fold, *args):
        n = len(calls)
        out = block(fold, *args)
        builds.extend(calls[n:])
        del calls[n:]
        return out
    monkeypatch.setattr(bordism._Fold, "block", recorded)


def test_contract_word_matches_the_loop_reference(monkeypatch):
    # each engine call of evaluate and evaluate_labeled is rerun by the
    # unfolded reference loop on the same labels and bundle, which picks its
    # own blocks and plans its own order: one step call fewer per folded
    # generator, the reference planner's order of the folded generators,
    # and the same result bit for bit.  Each build of a folded block
    # contracts one leg: a cap's or cup's against a one-leg vector, or a
    # neighbour's against its base's, into a block of at most three legs
    engine, calls, builds, compared = bordism.contract_word, [], [], []
    monkeypatch.setattr(bordism, "tensordot", _recording(calls))
    _recording_builds(monkeypatch, calls, builds)

    def checked(w, boundaries, annotations, bundle, carry):
        calls.clear()
        t = engine(w, boundaries, annotations, bundle, carry)
        ref_calls = []
        ref = _reference_contract_word(w, boundaries, annotations, bundle, carry,
                                       _recording(ref_calls))
        steps = (w.carried_schedule if carry else w.contracted_schedule)[0]
        folded = _folded(steps)
        assert len(calls) == len(ref_calls) - folded
        _assert_identical(t, ref)
        assert not bundle.exact or _same_numerators(t, ref)
        gens, place = _walked(w, carry)
        order = [place[step[1:3]] for step in steps]
        assert order == list(_reference_plan(gens))
        merged = any(isinstance(step[0], bordism._Fold) and step[0].neighbour is not None
                     for step in steps)
        compared.append((carry, bundle.exact, len(calls), order != sorted(order),
                         folded, merged))
        return t

    monkeypatch.setattr(bordism, "contract_word", checked)
    monkeypatch.setattr(crossed, "contract_word", checked)
    cases = 0
    for evaluator, w, target in _engine_cases():
        evaluator(w, target)
        cases += 1
    assert len(compared) == cases
    # both modes, both scalar kinds, and real contractions in each, on
    # words in layer order and on re-planned ones, and folds and absorbed
    # neighbours in each
    both = {(True, True), (True, False), (False, True), (False, False)}
    for replanned in (False, True):
        assert {(carry, exact) for carry, exact, n, r, _, _ in compared
                if n and r == replanned} == both
    assert {(carry, exact) for carry, exact, _, _, f, _ in compared if f} == both
    assert {(carry, exact) for carry, exact, _, _, _, m in compared if m} == both
    assert builds and all(len(axes_a) == len(axes_b) == 1 and len(sa) + len(sb) <= 5
                          for sa, axes_a, sb, axes_b in builds)
    assert any(len(sa) > 1 and len(sb) > 1 for sa, _, sb, _ in builds)


def test_one_word_keeps_a_schedule_per_mode():
    # the same word object, plain, labeled and plain again: a cylinder is
    # carried in one mode and a signed transport block in the other
    w = parse_word("id * id ; pants ; copants ; id * id")
    K, theta = klein_anticommuting_cocycle()
    B = to_crossed_bundle(from_cocycle(K, theta))
    b = label_word(K, w, (1, 2), [(1, 2), (None,), ((1, 2),), (3, 2)])
    a = diagonal([Fraction(2), Fraction(1, 3)])
    _assert_identical(evaluate(w, a), _reference_evaluate(w, a))
    labeled = evaluate_labeled(b, B)
    _assert_identical(labeled, _reference_evaluate_labeled(b, B))
    assert labeled.entries() == [-1]  # the transports by 3 and 1 carry a -1
    _assert_identical(evaluate(w, a), _reference_evaluate(w, a))
    assert b.word is w
    assert w.carried_schedule is w.carried_schedule
    # contracted, the first pants and the copants each take one cylinder
    assert len(w.carried_schedule[0]) == 2 and len(w.contracted_schedule[0]) == 4


def test_all_labelings_of_a_shape_share_one_schedule(monkeypatch):
    built = []

    def counted(w, carry):
        built.append((w, carry))
        return schedule(w, carry)

    schedule = bordism._schedule
    monkeypatch.setattr(bordism, "_schedule", counted)
    # enumerations share their shapes, which keep the schedules planned before
    crossed._enumerate_shapes.cache_clear()
    B = from_group_algebra(cyclic_group(2))
    words = enumerate_labeled_words(B.group, 3, budget_per_shape=1000)
    shapes = {}
    for b in words:
        shapes.setdefault(id(b.word), []).append(b)
    # the shape with the most labelings, all of them one word object
    labelings = max(shapes.values(), key=len)
    assert len(labelings) >= 16
    for b in labelings:
        _assert_identical(evaluate_labeled(b, B), _reference_evaluate_labeled(b, B))
    assert built == [(labelings[0].word, False)]
    for b in words:
        evaluate_labeled(b, B)
    assert len(built) == len(shapes)


def test_schedule_edge_cases():
    a = dual_numbers()
    T = trivial_group()
    B = from_frobenius_algebra(T, a)
    empty = word([])
    # the empty word and a closed word ending in an empty layer: scalars
    for w, value in ((empty, 1), (BordismWord(((Gen.CAP,), (Gen.CUP,), ())), 0),
                     (parse_word("cap ; cup"), 0)):
        for t in (evaluate(w, a), evaluate_labeled(label_word(T, w, ()), B)):
            assert t.shape == () and t.item() == value
    assert empty.carried_schedule == empty.contracted_schedule == ((), (), ())
    # a cap read by a cup is folded into it: one step, a scalar
    steps, pads, perm = parse_word("cap ; cup").carried_schedule
    assert [s[0] for s in steps] == [bordism._fold_of(Gen.CUP, ((0, Gen.CAP, 0),))]
    assert steps[0][4:6] == ((), ()) and pads == () and perm == ()
    # an input that passes untouched gets an identity leg pair when carried
    w = parse_word("id * cap ; id * cup")
    assert w.carried_schedule[1] == (0,) and w.contracted_schedule[1] == ()
    half = diagonal([Fraction(1, 2), Fraction(1, 2)])
    _assert_identical(evaluate(w, half), Tensor.identity(2))
    b = label_word(T, w, (T.identity,))
    _assert_identical(evaluate_labeled(b, from_frobenius_algebra(T, half)),
                      Tensor.identity(2))
    # a neighbour in a later layer than its base: the pants of layer 4, its
    # cup folded in, folds into the copants of layer 0 whose first circle
    # it reads, and the merged block reads the circle that the pants of
    # layer 2 makes, after it in layer order
    w = parse_word("copants * id ; id * id * cap * id ; id * id * pants ; id * swap ;"
                   " pants * id ; cup * id")
    gens, _, made = bordism._walk(w, True)
    folded = bordism._fold(gens, made)
    fold, t, _, _, circles, _, places = folded[0]
    assert fold is bordism._fold_of(Gen.COPANTS, ((1, bordism._fold_of(
        Gen.PANTS, ((2, Gen.CUP, 0),)), 0),))
    assert t == 0 and places == ((0, 0, 0), (4, 0, 0))
    assert [k for k, gen in enumerate(folded) if set(gen[5]) & set(circles)] == [1]
    for alg in (dual_numbers(), diagonal([Fraction(2), Fraction(1, 3)])):
        _assert_identical(evaluate(w, alg), _reference_evaluate(w, alg))
        boundaries, annotations = w.trivial_labeling
        b = label_word(T, w, boundaries[0], annotations)
        B = from_frobenius_algebra(T, alg)
        _assert_identical(evaluate_labeled(b, B), _reference_evaluate_labeled(b, B))


def test_a_word_of_pads_alone_gives_complex_entries_in_float_mode():
    # swap and a carried id contract nothing: the output is the scalar 1
    # with identity leg pairs written in, and a float one holds complex
    # entries as every other float output does
    a = dual_numbers(exact=False)
    z2_dual = load_bundle(os.path.join(FIXTURES, "z2_dual.bundle"), exact=False,
                          tol=1e-6)
    e, r = z2_dual.group.identity, z2_dual.group.index("r1")
    cases = [evaluate(parse_word(text), a) for text in ("id", "swap", "id * swap")]
    cases.append(evaluate(word([]), a))
    for labels in ((e, e), (e, r), (r, r)):
        b = label_word(z2_dual.group, parse_word("swap"), labels)
        assert b.word.contracted_schedule[0] == ()
        t = evaluate_labeled(b, z2_dual)
        _assert_identical(t, _reference_evaluate_labeled(b, z2_dual))
        cases.append(t)
    for t in cases:
        assert not t.exact and all(type(x) is complex for x in t.entries())
    assert cases[3].item() == 1
    # swap on legs [in0, in1, out0, out1]: 1 where out0 = in1 and out1 = in0
    assert cases[1].entries() == [
        complex(i == n and j == m)
        for i in range(2) for j in range(2) for m in range(2) for n in range(2)]


def test_the_tracer_sees_every_engine_contraction(monkeypatch):
    # perfbench's tracer patches the tensor.tensordot binding; an engine that
    # contracted past it would leave its per-layer counts short.  Each run
    # starts with no folded block kept, so both see the same builds
    sys.path.insert(0, PERFBENCH)
    tracer = importlib.import_module("tracer")
    z2_dual = load_bundle(os.path.join(FIXTURES, "z2_dual.bundle"))
    labeled = enumerate_labeled_words(z2_dual.group, 2, budget_per_shape=4)
    # one algebra, whose comultiplication and bundle the first run derives
    # and keeps
    a = dual_numbers()

    def run():
        for bundle in (a.bundle, z2_dual):
            bundle.folded_blocks.clear()
        for text in WIDE_WORDS[3:]:
            evaluate(parse_word(text), a)
        for b in labeled:
            evaluate_labeled(b, z2_dual)

    calls = []
    monkeypatch.setattr(bordism, "tensordot", _recording(calls))
    run()
    monkeypatch.undo()
    built = len(a.bundle.folded_blocks) + len(z2_dual.folded_blocks)
    t = tracer.Tracer()
    t.install()
    try:
        run()
    finally:
        t.uninstall()
    assert len(calls) > 50 and built > 0
    assert len(a.bundle.folded_blocks) + len(z2_dual.folded_blocks) == built
    assert sum(span[0] == "tensor.tensordot" for span in t.spans) == len(calls)
    # and the sizes it records are those of the executor's calls
    sizes = []
    for sa, axes_a, sb, axes_b in calls:
        out = [d for k, d in enumerate(sa) if k not in axes_a]
        out += [d for k, d in enumerate(sb) if k not in axes_b]
        sizes.append((int(np.prod(out)), int(np.prod([sa[i] for i in axes_a])),
                      not axes_a))
    assert t.tensordot == sizes


def _peak_legs(steps):
    """The most legs the state holds after any step of a schedule, counted
    from the steps alone: a step brings its block's legs, a generator's
    all of them and a fold's those it keeps (``_Fold.n_legs``), and each
    paired leg leaves on both sides."""
    legs = peak = 0
    for g, _, _, _, axes_s, axes_g, _, _ in steps:
        n = g.n_legs if isinstance(g, bordism._Fold) else sum(ARITY[g])
        legs += n - len(axes_s) - len(axes_g)
        peak = max(peak, legs)
    return peak


def _walked(w, carry):
    """``_walk``'s contracted generators of ``w`` folded (``_fold``), in
    layer order, as (labels read, labels made), and the place of each in
    that order by its base's (layer, place in the layer)."""
    gens, _, made = bordism._walk(w, carry)
    gens = bordism._fold(gens, made)
    return ([(circles, outs) for _, _, _, _, circles, outs, _ in gens],
            {(t, j): k for k, (_, t, j, *_) in enumerate(gens)})


def test_a_wide_word_stays_narrow(monkeypatch):
    # a balanced tree of 16 caps merged by pants and closed by a cup: a
    # sphere, whose value over Z(C[S3]) is 1/|S3|
    widths = (8, 4, 2, 1)
    w = parse_word(" ; ".join([" * ".join(["cap"] * 16)]
                              + [" * ".join(["pants"] * k) for k in widths] + ["cup"]))
    steps = w.carried_schedule[0]
    assert _peak_legs(steps) <= 3
    # layer order would hold all 16 caps at once, a 3**16 (43 M) entry
    # state; 8 circles with the caps folded into the pants that read them,
    # and 4 once each pants of the next row takes one of those: counted
    # from the walk, never run
    gens = [(circles, outs) for *_, circles, outs in bordism._walk(w, True)[0]]
    assert _leg_costs(gens, range(len(gens)))[1] == 16
    gens, _ = _walked(w, True)
    assert _leg_costs(gens, range(len(gens)))[1] == 4
    center = group_center(symmetric_group(3))
    sizes = []

    def dot(a, b, axes_a, axes_b, order=None):
        out = tensordot(a, b, axes_a, axes_b, order)
        sizes.append(out.nums.size)
        return out

    monkeypatch.setattr(bordism, "tensordot", dot)
    # the second call finds its folded blocks built: one call per step
    for _ in range(2):
        sizes.clear()
        assert evaluate(w, center).item() == closed_invariant(center, 0) == Fraction(1, 6)
    assert len(sizes) == len(steps) - 1 and max(sizes) <= 3 ** 3


def _pool_schedules():
    """(gens, order, steps) for each word of the benchmark's pair pool in
    both modes: ``_walked``'s generators, the schedule's order of them, and
    the schedule's steps."""
    for p in range(1000):
        for w in random_equivalent_pair((p % 3, (p // 3) % 3), 8, p):
            for carry in (True, False):
                gens, place = _walked(w, carry)
                steps = (w.carried_schedule if carry else w.contracted_schedule)[0]
                yield gens, [place[step[1:3]] for step in steps], steps


def _walked_caps(w, carry):
    """``_walk``'s contracted generators of ``w`` with only their caps and
    cups folded in (``_absorb`` by ``_cap_taker``), in layer order, as
    (labels read, labels made): each label's maker comes before its
    reader."""
    gens, _, made = bordism._walk(w, carry)
    gens = bordism._absorb([gen + (None,) for gen in gens], made, bordism._cap_taker)
    return [(circles, outs) for *_, circles, outs, _ in gens]


def test_the_plan_never_peaks_above_layer_order():
    # on every word of the benchmark's pair pool, in both modes: the plan
    # peaks no higher than the ready-first plan it replaced, which peaked no
    # higher than layer order, so it raises no ArityError that one did not;
    # and it leaves layer order exactly when that is strictly cheaper.  The
    # ready-first plan needs each maker before its reader, so it runs on the
    # generators with their caps and cups folded and no neighbour.  Each
    # fold's block has the legs of its step's generator, inputs first
    lowered = left = folds = 0
    words = (w for p in range(1000)
             for w in random_equivalent_pair((p % 3, (p // 3) % 3), 8, p))
    for w in words:
        for carry in (True, False):
            gens, place = _walked(w, carry)
            steps = (w.carried_schedule if carry else w.contracted_schedule)[0]
            order = [place[step[1:3]] for step in steps]
            capped = _walked_caps(w, carry)
            layer_cost = _leg_costs(gens, range(len(gens)))[0]
            cost, peak = _leg_costs(gens, order)
            ready_peak = _leg_costs(capped, _ready_first_plan(capped))[1]
            assert peak == _peak_legs(steps)
            assert peak <= ready_peak <= _leg_costs(capped, range(len(capped)))[1]
            assert (order != sorted(order)) == (cost < layer_cost)
            for step, k in zip(steps, order):
                if isinstance(step[0], bordism._Fold):
                    circles, outs = gens[k]
                    assert step[0].n_in == len(circles)
                    assert step[0].n_legs == len(circles) + len(outs)
                    folds += 1
            lowered += peak < ready_peak
            left += cost < layer_cost
    assert lowered > 1000 and left > 2000 and folds > 1000


def _optimal_cost(gens, base):
    """The least ``_leg_costs`` cost at ``base`` of any order of ``gens``,
    by dynamic programming over the subsets taken first: the state after a
    subset holds the labels it meets once, as each label has at most two
    ends."""
    bit = {}
    ends = []
    for read, made in gens:
        ends.append(sum(1 << bit.setdefault(c, len(bit)) for c in list(read) + made))
    n = len(ends)
    legs, best = [0] * (1 << n), [0] * (1 << n)
    for taken in range(1, 1 << n):
        low = taken & -taken
        legs[taken] = legs[taken ^ low] ^ ends[low.bit_length() - 1]
        best[taken] = min(best[taken ^ 1 << k] + base ** (legs[taken ^ 1 << k] | ends[k]).bit_count()
                          for k in range(n) if taken >> k & 1)
    return best[-1]


def test_the_plan_costs_within_a_tenth_of_the_best_order():
    # on the pool's words of at most 10 generators, both modes, against
    # every order at once: the multiply-adds when every fiber has dimension
    # 2 stay within a tenth of the least.  The plan's own cost, at 4, weighs
    # the widest steps most and is where the greedy falls furthest short
    schedules = [(gens, order) for gens, order, _ in _pool_schedules() if len(gens) <= 10]
    assert len(schedules) > 3000
    for base, bound in ((2, 1.02), (4, 1.05)):
        planned = sum(_leg_costs(gens, order, base)[0] for gens, order in schedules)
        best = sum(_optimal_cost(gens, base) for gens, _ in schedules)
        assert best <= planned <= bound * best, (base, planned / best)


def test_the_plan_gives_layer_order_values_on_the_pair_pool():
    # the folk theorem: a word's map does not depend on the order of
    # gluing.  Each word of the benchmark's pool, carried and contracted,
    # against the reference loop in layer order: equal bit for bit in exact
    # mode, within the tolerance in float mode
    def layer_order(gens):
        return range(len(gens))

    for a in (diagonal([Fraction(2), Fraction(1, 3)]), dual_numbers(exact=False)):
        for p in range(1000):
            for w in random_equivalent_pair((p % 3, (p // 3) % 3), 8, p):
                labels = w.trivial_labeling
                for carry in (True, False):
                    t = bordism.contract_word(w, *labels, a.bundle, carry)
                    ref = _reference_contract_word(w, *labels, a.bundle, carry,
                                                   plan=layer_order)
                    if a.exact:
                        _assert_identical(t, ref)
                    else:
                        assert equal(t, ref, a.tol)


def test_folding_is_bit_identical_to_the_reference_on_the_pair_pool():
    # both words of every pair of the benchmark's pool, carried and
    # contracted, against the unfolded reference loop in layer order: the
    # same numerators, of one dtype, over the same den and within the same
    # bound in exact mode, and equal within the tolerance in float mode.
    # Only Z(C[S3]) on pair 685 with its cylinders contracted keeps a
    # tighter bound folded: its cup's den is reduced inside the folded
    # block, and the bound stays in int64 where the reference's outgrows it
    def layer_order(gens):
        return range(len(gens))

    algebras = [dual_numbers(), group_center(symmetric_group(3)),
                diagonal([Fraction(2), Fraction(1, 3)]),
                diagonal([Fraction(2), Fraction(1, 3)], exact=False)]
    tighter = set()
    for i, a in enumerate(algebras):
        for p in range(1000):
            for k, w in enumerate(random_equivalent_pair((p % 3, (p // 3) % 3), 8, p)):
                labels = w.trivial_labeling
                for carry in (True, False):
                    t = bordism.contract_word(w, *labels, a.bundle, carry)
                    ref = _reference_contract_word(w, *labels, a.bundle, carry,
                                                   plan=layer_order)
                    if not a.exact:
                        assert equal(t, ref, a.tol)
                    elif not _same_numerators(t, ref):
                        _assert_identical(t, ref)
                        assert t.top < ref.top
                        tighter.add((i, p, k, carry))
    assert tighter == {(1, 685, 0, False), (1, 685, 1, False)}


def _scaled(t):
    """A new tensor of three times the entries of ``t``."""
    return tensordot(t, Tensor.scalar(3, exact=t.exact), [], [])


def test_a_replaced_block_is_never_served_folded():
    # each family's block, the unit and the counit, replaced by a new
    # tensor after an evaluation that kept its folded block: the next
    # evaluation reads the new one.  In the fifth and sixth words the replaced
    # block is an absorbed neighbour's: a pants with its cap folded in, and
    # a cylinder, each taken by the copants beside it
    a = diagonal([Fraction(2), Fraction(1, 3)])
    B = from_frobenius_algebra(trivial_group(), a)
    cases = [("fusion", (0, 0), "cap * id ; pants"),
             ("fission", (0, 0), "copants ; id * cup"),
             ("fission", (0, 0), "cap ; copants"),
             ("transport", (0, 0), "cap ; id ; cup"),
             ("fusion", (0, 0), "cap * id ; pants ; copants"),
             ("transport", (0, 0), "copants ; id * id"),
             ("unit", None, "cap * id ; pants"),
             ("counit", None, "cap ; cup")]
    for family, key, text in cases:
        w = parse_word(text)
        labels = w.trivial_labeling
        assert any(isinstance(step[0], bordism._Fold) for step in w.contracted_schedule[0])
        before = bordism.contract_word(w, *labels, B, False)
        _assert_identical(before, _reference_contract_word(w, *labels, B, False))
        if key is None:
            setattr(B, family, _scaled(getattr(B, family)))
        else:
            table = getattr(B, family)
            table[key] = _scaled(table[key])
        after = bordism.contract_word(w, *labels, B, False)
        _assert_identical(after, _reference_contract_word(w, *labels, B, False))
        assert not equal(after, before)
    merged = [step[0] for _, _, text in cases[4:6]
              for step in parse_word(text).contracted_schedule[0]
              if isinstance(step[0], bordism._Fold) and step[0].neighbour is not None]
    assert [fold.neighbour for fold in merged] == [
        bordism._fold_of(Gen.PANTS, ((0, Gen.CAP, 0),)), Gen.ID]


def test_a_second_pass_over_the_pool_builds_no_folded_block(monkeypatch):
    # the folded blocks are kept per bundle, not per word: the folds of the
    # pool's first 1,000 pairs, both modes, serve nearly all of the next
    # 3,000, which add at most 3 blocks where keeping them per word would
    # add thousands, and a second pass over all 4,000 builds none
    calls, builds = [], []
    monkeypatch.setattr(bordism, "tensordot", _recording(calls))
    _recording_builds(monkeypatch, calls, builds)
    a = group_center(symmetric_group(3))
    words = [w for p in range(4000)
             for w in random_equivalent_pair((p % 3, (p // 3) % 3), 8, p)]
    for n_pass in range(2):
        for i, w in enumerate(words):
            if i == 2000 and not n_pass:
                first = len(a.bundle.folded_blocks)
            for carry in (True, False):
                bordism.contract_word(w, *w.trivial_labeling, a.bundle, carry)
        if not n_pass:
            kept = dict(a.bundle.folded_blocks)
            assert 0 < first <= len(kept) <= first + 3 and builds
            builds.clear()
    assert builds == [] and len(calls) > 40000
    assert all(a.bundle.folded_blocks[key] is kept[key] for key in kept)
    assert len(a.bundle.folded_blocks) == len(kept)


def _reference_classify(w):
    """The topological type by a boundary walk of its own: one node per word
    input and per generator but id and swap, and the node each current
    circle belongs to, walked as in contract_word."""
    n_in = w.arity_in
    parent = list(range(n_in))
    chi = [0] * n_in
    boundary = list(range(n_in))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for layer in w.layers:
        pos = 0
        for g in layer:
            if g is Gen.ID:
                pos += 1
                continue
            if g is Gen.SWAP:
                boundary[pos], boundary[pos + 1] = boundary[pos + 1], boundary[pos]
                pos += 2
                continue
            n_gen_in, n_out = ARITY[g]
            node = len(parent)
            parent.append(node)
            chi.append(bordism.EULER[g])
            for c in boundary[pos:pos + n_gen_in]:
                parent[find(c)] = node
            boundary[pos:pos + n_gen_in] = [node] * n_out
            pos += n_out
    comps = {}  # root -> [Euler characteristic, inputs, outputs]
    for x, c in enumerate(chi):
        comps.setdefault(find(x), [0, [], []])[0] += c
    for p in range(n_in):
        comps[find(p)][1].append(p)
    for p, x in enumerate(boundary):
        comps[find(x)][2].append(p)
    out = []
    for c, ins, outs in comps.values():
        genus2 = 2 - c - len(ins) - len(outs)
        assert genus2 % 2 == 0 and genus2 >= 0
        out.append((genus2 // 2, tuple(ins), tuple(outs)))
    return bordism.TopologicalType(tuple(sorted(out)))


def test_the_type_and_widths_are_those_of_their_own_walks():
    # on both words of every pair of the benchmark's pool and the wide words
    words = [parse_word(text) for text in WIDE_WORDS]
    for p in range(1000):
        words += random_equivalent_pair((p % 3, (p // 3) % 3), 8, p)
    for w in words:
        assert topological_type(w) == _reference_classify(w)
        assert len(w.widths) == len(w.layers) + 1
        for t, layer in enumerate(w.layers):
            assert bordism.layer_arity(layer) == w.widths[t:t + 2]
        assert (w.arity_in, w.arity_out) == (w.widths[0], w.widths[-1])


def test_each_word_keeps_its_topological_type(monkeypatch):
    walks, typed = [], []
    classify, module_type = bordism._classify, bordism.topological_type
    monkeypatch.setattr(bordism, "_classify", lambda w: walks.append(w) or classify(w))
    w1, w2 = random_equivalent_pair((1, 1), 8, 7)
    assert walks == [w1, w2]  # the pair's own check classified both
    # equivalent reads the types through the module binding a tracer patches
    monkeypatch.setattr(bordism, "topological_type",
                        lambda w: typed.append(w) or module_type(w))
    for _ in range(3):
        assert equivalent(w1, w2)
    assert len(walks) == 2 and len(typed) == 6
    assert module_type(w1) is module_type(w1)
    # an equal word built apart is classified once, to an equal type
    w3 = BordismWord(w1.layers)
    assert module_type(w3) == module_type(w1) and module_type(w3) is module_type(w3)
    assert len(walks) == 3


def test_evaluate_returns_a_fresh_array():
    # a one-generator word's state is the generator tensor itself, which the
    # result must not share
    a = dual_numbers()
    t = evaluate(parse_word("pants"), a)
    assert equal(t, a.mul) and not np.shares_memory(t.nums, a.mul.nums)


def _bundle_arrays(bundle):
    """The numerators of every block a bundle holds: its tables, unit and
    counit, and the folded blocks it keeps."""
    blocks = [bundle.unit, bundle.counit]
    for table in (bundle.fusion, bundle.fission, bundle.transport):
        blocks += table.values()
    blocks += [kept[4] for kept in bundle.folded_blocks.values()]
    return [t.nums for t in blocks]


def test_each_evaluation_writes_its_output_once(monkeypatch):
    # a word of two or more steps and no pads has its last contraction
    # write the output order and makes no permute or with_identities call;
    # a one-step word, whose state is still a block, makes one permute, and
    # a word with pads one with_identities.  Counted on each word's second
    # evaluation, when the bundle keeps every folded block it needs (their
    # builds permute too), over the pool, carried and contracted, and the
    # criterion 06 corpus; no result shares memory with a block of its
    # bundle
    writes = []
    for name in ("permute", "with_identities"):
        monkeypatch.setattr(bordism, name, lambda *args, name=name, real=getattr(bordism, name):
                            writes.append(name) or real(*args))
    cases = []  # (word, boundaries, annotations, bundle, carry)
    for a in (dual_numbers(), group_center(symmetric_group(3))):
        for p in range(1000):
            for w in random_equivalent_pair((p % 3, (p // 3) % 3), 8, p):
                cases += [(w, *w.trivial_labeling, a.bundle, carry) for carry in (True, False)]
    sys.path.insert(0, PERFBENCH)
    for _, B, budget in importlib.import_module("workloads").labeled_bundles(tqft2d):
        cases += [(b.word, b.boundaries, b.annotations, B, False)
                  for b in enumerate_labeled_words(B.group, 3, budget_per_shape=budget)]
    assert len(cases) > 20000
    kinds = set()
    for case in cases:
        bordism.contract_word(*case)
        writes.clear()
        t = bordism.contract_word(*case)
        w, _, _, bundle, carry = case
        steps, pads, _ = w.carried_schedule if carry else w.contracted_schedule
        kind = "with_identities" if pads else "permute" if len(steps) < 2 else None
        assert writes == ([kind] if kind else [])
        assert not any(np.shares_memory(t.nums, x) for x in _bundle_arrays(bundle))
        kinds.add((kind, len(steps) > 1, carry, bundle.exact))
    assert {(kind, n) for kind, n, _, _ in kinds} == {
        (None, True), ("permute", False), ("with_identities", True),
        ("with_identities", False)}
