"""The bordism word DSL: parsing, typing, classification and evaluation.

A word is a sequence of layers; a layer is a parallel row of generators.
Equivalence of words is decided by the complete diffeomorphism invariant of
compact oriented surfaces: genus plus boundary-circle positions, per
connected component.

How circles flow through a word is worked out here once: a word keeps the
circles of each boundary (``widths``) and each generator's first input
circle (``offsets``), and ``_walk`` follows the circles through the
generators for both the contraction schedule and the topological type.
"""

from __future__ import annotations

import enum
import functools
import heapq
import math
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .frobenius import FrobeniusAlgebra
from .tensor import InputError, Tensor, permute, tensordot, with_identities


class WordSyntaxError(InputError):
    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position


class ArityError(InputError):
    def __init__(self, message, layer=None):
        if layer is not None:
            message = "%s (between layers %d and %d)" % (message, layer, layer + 1)
        super().__init__(message)
        self.layer = layer


class Gen(enum.Enum):
    ID = "id"
    SWAP = "swap"
    CAP = "cap"
    CUP = "cup"
    PANTS = "pants"
    COPANTS = "copants"

    # members are singletons compared by identity, so the C-level identity
    # hash serves every ARITY, EULER and structure-tensor lookup in place of
    # Enum's Python-level hash of the name
    __hash__ = object.__hash__


# the members bound to plain names once: on Python 3.11 each read of
# ``Gen.X`` is a Python-level descriptor call, and the engine's lookups make
# one per contracted generator
ID, SWAP, CAP, CUP, PANTS, COPANTS = (Gen.ID, Gen.SWAP, Gen.CAP, Gen.CUP,
                                      Gen.PANTS, Gen.COPANTS)


ARITY = {
    Gen.ID: (1, 1),
    Gen.SWAP: (2, 2),
    Gen.CAP: (0, 1),
    Gen.CUP: (1, 0),
    Gen.PANTS: (2, 1),
    Gen.COPANTS: (1, 2),
}

EULER = {
    Gen.ID: 0,
    Gen.SWAP: 0,
    Gen.CAP: 1,
    Gen.CUP: 1,
    Gen.PANTS: -1,
    Gen.COPANTS: -1,
}


def layer_arity(layer):
    return (sum(ARITY[g][0] for g in layer), sum(ARITY[g][1] for g in layer))


@dataclass(frozen=True)
class BordismWord:
    layers: tuple  # tuple of tuples of Gen

    def __post_init__(self):
        if not self.layers:
            raise ArityError("a word needs at least one layer")
        widths, offsets = [], []
        for t, layer in enumerate(self.layers):
            n_in = n_out = 0
            row = []
            for g in layer:
                a, b = ARITY[g]
                row.append(n_in)
                n_in += a
                n_out += b
            if not t:
                widths.append(n_in)
            elif n_in != widths[t]:
                raise ArityError(
                    "layer outputs %d circles but next layer expects %d"
                    % (widths[t], n_in), layer=t - 1)
            widths.append(n_out)
            offsets.append(tuple(row))
        # widths[t] circles above layer t, widths[-1] below the last layer;
        # offsets[t] each generator's first input circle in the boundary
        # above layer t, where every labeler reads its input labels
        object.__setattr__(self, "widths", tuple(widths))
        object.__setattr__(self, "offsets", tuple(offsets))

    @property
    def arity_in(self):
        return self.widths[0]

    @property
    def arity_out(self):
        return self.widths[-1]

    # contract_word's steps (see _schedule), built on first use per mode and
    # kept as long as the word: every labeling of a shape shares them
    @cached_property
    def carried_schedule(self):
        """The steps when each ``id`` cylinder only carries its circle."""
        return _schedule(self, carry=True)

    @cached_property
    def contracted_schedule(self):
        """The steps when each ``id`` cylinder is contracted as a block."""
        return _schedule(self, carry=False)

    @cached_property
    def trivial_labeling(self):
        """``(boundaries, annotations)`` of the word's one labeling over the
        one-element group: every label 0, every ``copants`` split (0, 0)."""
        return (tuple((0,) * n for n in self.widths),
                tuple(tuple(0 if g is ID else (0, 0) if g is COPANTS else None
                            for g in layer) for layer in self.layers))

    @cached_property
    def topological_type(self):
        """The word's ``TopologicalType``, classified once per word; read it
        through the module function ``topological_type``."""
        return _classify(self)

    def pretty(self):
        return " ; ".join(" * ".join(g.value for g in layer) for layer in self.layers)

    def __str__(self):
        return self.pretty()


def word(*layer_specs) -> BordismWord:
    """Build a word from layers given as iterables of Gen."""
    return BordismWord(tuple(tuple(layer) for layer in layer_specs))


def seq(a: BordismWord, b: BordismWord) -> BordismWord:
    if a.arity_out != b.arity_in:
        raise ArityError("cannot compose %d outputs with %d inputs"
                         % (a.arity_out, b.arity_in))
    return BordismWord(a.layers + b.layers)


def par(a: BordismWord, b: BordismWord) -> BordismWord:
    """Parallel composition; the shorter word is padded with identity layers."""
    la, lb = len(a.layers), len(b.layers)
    a_layers = list(a.layers) + [tuple([Gen.ID] * a.arity_out)] * (lb - la)
    b_layers = list(b.layers) + [tuple([Gen.ID] * b.arity_out)] * (la - lb)
    return BordismWord(tuple(tuple(x) + tuple(y) for x, y in zip(a_layers, b_layers)))


# ---------------------------------------------------------------------------
# parsing

_NAMES = {g.value: g for g in Gen}


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in ";*()":
            tokens.append((ch, i))
            i += 1
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            tokens.append((text[i:j], i))
            i = j
            continue
        raise WordSyntaxError("unexpected character %r" % ch, position=i)
    return tokens


def parse_word(text: str) -> BordismWord:
    """Parse a word in one pass over its tokens.

    ``;`` composes layers through ``seq`` and binds looser than ``*``, which
    sets factors side by side through ``par``.  Each open ``(`` keeps the
    word and layer around it on a stack instead of the call stack, so no
    depth of nesting can overflow it.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise WordSyntaxError("empty word", position=0)
    groups = []  # per open '(': its position and the word and layer around it
    w = layer = None  # the word and the open layer of the innermost group
    want_factor = True
    for tok, at in tokens:
        if want_factor:
            if tok == "(":
                groups.append((at, w, layer))
                w = layer = None
                continue
            if tok not in _NAMES:
                raise WordSyntaxError("unknown generator %r" % tok, position=at)
            factor = word([_NAMES[tok]])
        elif tok == "*":
            want_factor = True
            continue
        else:
            w = layer if w is None else seq(w, layer)
            layer = None
            if tok == ";":
                want_factor = True
                continue
            if not groups:
                raise WordSyntaxError("trailing input %r" % tok, position=at)
            if tok != ")":
                raise WordSyntaxError("missing ')'", position=groups[-1][0])
            factor = w
            _, w, layer = groups.pop()
        layer = factor if layer is None else par(layer, factor)
        want_factor = False
    if want_factor:
        raise WordSyntaxError("unexpected end of input", position=tokens[-1][1])
    w = layer if w is None else seq(w, layer)
    if groups:
        raise WordSyntaxError("missing ')'", position=groups[-1][0])
    return w


# ---------------------------------------------------------------------------
# topological classification

@dataclass(frozen=True)
class TopologicalType:
    """Sorted tuple of (genus, in-positions, out-positions) per component."""

    components: tuple


def topological_type(w: BordismWord) -> TopologicalType:
    """The complete invariant of the surface a word describes: per connected
    component its genus and the positions of its input and output circles.

    It depends only on the word, so it is classified on first use and kept
    on the word (``BordismWord.topological_type``); ``equivalent`` and every
    later call on the same word object read the kept value.
    """
    return w.topological_type


def _classify(w: BordismWord) -> TopologicalType:
    # a union-find over the carried walk: one node per word input and per
    # contracted generator, a generator joining the nodes of the labels it
    # reads; an id or swap only carries circles and is no node
    n_in = w.arity_in
    gens, boundary, _ = _walk(w, carry=True)
    parent = list(range(n_in))
    chi = [0] * n_in
    maker = []  # the node of each made label

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g, _, _, _, circles, outs in gens:
        node = len(parent)
        parent.append(node)
        chi.append(EULER[g])
        for c in circles:
            parent[find(~c if c < 0 else maker[c])] = node
        maker += [node] * len(outs)
    comps = {}  # root -> [Euler characteristic, inputs, outputs]
    for x, c in enumerate(chi):
        comps.setdefault(find(x), [0, [], []])[0] += c
    for p in range(n_in):
        comps[find(p)][1].append(p)
    for p, c in enumerate(boundary):
        comps[find(~c if c < 0 else maker[c])][2].append(p)
    out = []
    for c, ins, outs in comps.values():
        b = len(ins) + len(outs)
        genus2 = 2 - c - b
        if genus2 % 2 or genus2 < 0:
            raise RuntimeError("a component with Euler characteristic %d and %d "
                               "boundary circles is no surface" % (c, b))
        out.append((genus2 // 2, tuple(ins), tuple(outs)))
    return TopologicalType(tuple(sorted(out)))


def equivalent(w1: BordismWord, w2: BordismWord) -> bool:
    # the arities read from the widths and the types compared by their
    # components: the properties and the dataclass __eq__ took about two
    # thirds of the call's time
    a, b = w1.widths, w2.widths
    if a[0] != b[0] or a[-1] != b[-1]:
        raise ArityError("cannot compare words of different arities")
    return topological_type(w1).components == topological_type(w2).components


# ---------------------------------------------------------------------------
# evaluation against a Frobenius algebra

def _walk(w, carry):
    """The circles' walk through the layers of the word ``w``.

    A circle is labelled ~i (a negative int) for word input i, or k for the
    k-th generator output in layer order; a swap exchanges two labels, and
    with ``carry`` an ``id`` cylinder only carries its label.  Returns
    ``(gens, boundary, n_made)``: per contracted generator in layer order
    ``(g, t, j, q, circles, outs)``, the j-th of layer t with first input
    circle q of the boundary above layer t (``w.offsets``), reading the
    labels ``circles`` and making ``outs``; the labels of the last
    boundary; and the number of labels made.  A made label joins its maker
    and its reader, if any, whichever order ``_plan`` contracts them in.
    """
    gens = []
    boundary = [~i for i in range(w.widths[0])]
    made = 0
    for t, layer in enumerate(w.layers):
        below = []
        starts = w.offsets[t]
        for j, g in enumerate(layer):
            q = starts[j]
            n_gen_in, n_out = ARITY[g]
            circles = boundary[q:q + n_gen_in]
            if g is SWAP or (carry and g is ID):
                # a swap exchanges its two labels, a carried cylinder keeps its one
                below += reversed(circles)
                continue
            outs = list(range(made, made + n_out))
            made += n_out
            gens.append((g, t, j, q, circles, outs))
            below += outs
        boundary = below
    return gens, boundary, made


_MAX_LEGS = 32  # numpy's limit on the legs of an array it iterates over


def _schedule(w, carry):
    """The steps ``contract_word`` takes through the word ``w``, a pure
    function of its layers and of ``carry``, whether an ``id`` cylinder
    only carries its circle or is contracted like any other generator.

    The steps are ``_walk``'s contracted generators, folded (``_fold``):
    each cap and cup into the generator it meets, then each generator of
    at most two legs into a pants or copants beside it; in ``_plan``'s
    order, which reads leg counts alone, never fiber dimensions, so one
    schedule serves every algebra and every labeling of the word.  A
    generator's legs are its input circles, then its output circles (a
    fold's those of its block); each one the state already holds is paired
    with it, and each other one joins the state.  So a generator contracted
    before the maker of an input circle leaves that circle open, and the
    maker's output leg pairs with it later.  Returns ``(steps, pads,
    perm)``: ``steps`` holds ``(g, t, j, q, axes_s, axes_g, order, places)``
    per step, g a ``Gen`` or a ``_Fold``, t, j and q as in ``_walk`` (a
    fold's are its base's) and ``places`` the (t, j, q) of a ``_Fold``'s
    base, then of its neighbour (None for a ``Gen``), whose legs ``axes_g``
    are contracted against the state's legs ``axes_s`` (the first step's
    generator is the state) into the leg order ``order`` (None: the
    product's own); ``pads`` the inputs that reach the outputs untouched,
    each of which gets an identity leg pair; ``perm`` the final order of
    the state's legs.  In a word of two or more steps and no pads the last
    step's ``order`` is ``perm``, so its contraction writes the output
    order; every other ``order`` is None.  Raises ArityError when the state
    would hold more legs than a numpy array can.
    """
    n_in = w.widths[0]
    gens, boundary, made = _walk(w, carry)
    gens = _fold(gens, made)
    steps = []
    legs = []
    peak = 0
    for k in _plan(gens):
        g, t, j, q, circles, outs, places = gens[k]
        ends = circles + outs  # the generator's legs
        axes_g = tuple([i for i, c in enumerate(ends) if c in legs])
        steps.append((g, t, j, q, tuple([legs.index(ends[i]) for i in axes_g]),
                      axes_g, None, places))
        legs = [leg for leg in legs if leg not in ends] + [c for c in ends if c not in legs]
        peak = max(peak, len(legs))
    pads = []
    for p, c in enumerate(boundary):
        if c < 0:  # an input that reaches the outputs untouched
            pads.append(~c)
            legs += [c, made]
            boundary[p] = made
            made += 1
    peak = max(peak, len(legs))
    if peak > _MAX_LEGS:
        raise ArityError("evaluating the word needs a state of %d legs, more than "
                         "numpy's %d" % (peak, _MAX_LEGS))
    perm = tuple(legs.index(leg) for leg in [~i for i in range(n_in)] + boundary)
    if len(steps) > 1 and not pads:
        steps[-1] = steps[-1][:6] + (perm, steps[-1][7])
    return tuple(steps), tuple(pads), perm


class _Fold:
    """A base generator with the blocks it meets folded in: one step where
    there were two or more.

    Each ``(leg, part, k)`` of ``joins``, in turn, contracts leg ``leg`` of
    the block of the base generator ``gen`` (its inputs, then its outputs)
    against leg ``k`` of the block of ``part``: ``CAP``, the unit, where a
    cap was; ``CUP``, the counit, where a cup was; or ``neighbour``, an
    absorbed ``Gen`` or ``_Fold`` of caps and cups alone, at most one per
    fold.  The joins go by decreasing ``leg``, so each contraction leaves
    the base legs of the ones after it where they were, and each part's
    other legs go after the base's.  ``perm`` (None when they are in order)
    then puts the block's ``n_legs`` legs inputs first, as any generator's:
    each part's inputs before the base's legs and its outputs after them,
    ``n_in`` inputs in all.  One object per (gen, joins) (``_fold_of``), so
    a bundle keeps one folded block per fold and table keys."""

    __slots__ = ("gen", "joins", "neighbour", "perm", "n_in", "n_legs")

    def __init__(self, gen, joins):
        self.gen, self.joins = gen, joins
        parts = [part for _, part, _ in joins]
        self.neighbour = next((p for p in parts if p is not CAP and p is not CUP), None)
        # whether each leg of the block is an input, in the order it is built
        inputs = _built(_inputs(gen), joins, [_inputs(p) for p in parts])
        n_base = sum(ARITY[gen]) - len(joins)
        others = range(n_base, len(inputs))
        perm = ([i for i in others if inputs[i]] + list(range(n_base))
                + [i for i in others if not inputs[i]])
        self.perm = None if perm == sorted(perm) else tuple(perm)
        self.n_in, self.n_legs = sum(inputs), len(inputs)

    def __repr__(self):
        return "_Fold(%s, %r)" % (self.gen.value, self.joins)

    def block(self, bundle, boundaries, annotations, places):
        """The folded block of a step: ``places`` holds the (t, j, q) of the
        base, then of the neighbour, where ``_table_block`` reads each one's
        table key and block from the labels as ``contract_word`` does.  The
        bundle keeps the folded block (``CrossedBundle.folded_blocks``) by
        fold, base key and neighbour key, and serves it only while both
        table blocks, the unit and the counit are still the tensors it was
        built from."""
        t, j, q = places[0]
        key, block = _table_block(self.gen, bundle, boundaries[t], annotations[t][j], q)
        nbr = self.neighbour
        nkey = nblock = None
        if nbr is not None:
            t, j, q = places[1]
            nkey, nblock = _table_block(nbr.gen if nbr.__class__ is _Fold else nbr, bundle,
                                        boundaries[t], annotations[t][j], q)
        unit, counit = bundle.unit, bundle.counit
        kept = bundle.folded_blocks.get((self, key, nkey))
        if kept is not None and kept[0] is block and kept[1] is nblock \
                and kept[2] is unit and kept[3] is counit:
            return kept[4]
        # a neighbour's own caps and cups come from its own kept block
        other = nbr.block(bundle, boundaries, annotations, places[1:]) \
            if nbr.__class__ is _Fold else nblock
        out = block
        for leg, part, k in self.joins:
            out = tensordot(out, unit if part is CAP else counit if part is CUP else other,
                            [leg], [k])
        if self.perm is not None:
            out = permute(out, self.perm)
        bundle.folded_blocks[self, key, nkey] = block, nblock, unit, counit, out
        return out


def _inputs(g):
    """Whether each leg of the block of g, a ``Gen`` or a ``_Fold``, is an
    input."""
    if g.__class__ is _Fold:
        return [i < g.n_in for i in range(g.n_legs)]
    n_in, n_out = ARITY[g]
    return [i < n_in for i in range(n_in + n_out)]


def _built(base, joins, parts):
    """A value per leg of a folded block in the order ``_Fold.block``
    builds it, from a value per leg of the base's block (``base``) and of
    each join's part's (``parts``): the base's legs left unjoined, then
    each part's other legs, in the order of the joins."""
    joined = [leg for leg, _, _ in joins]
    out = [x for i, x in enumerate(base) if i not in joined]
    for (_, _, k), part in zip(joins, parts):
        out += [x for i, x in enumerate(part) if i != k]
    return out


def _table_block(g, bundle, labels, ann, q):
    """``(key, block)`` of the generator g of a fold at the labels
    ``labels`` above its layer, its annotation ``ann`` and its first input
    circle q, read from the tables of ``bundle`` as ``contract_word`` reads
    an unfolded one's; a cup's key is None."""
    if g is PANTS:
        key = labels[q], labels[q + 1]
        return key, bundle.fusion[key]
    if g is COPANTS:
        return ann, bundle.fission[ann]
    if g is ID:
        key = ann, labels[q]
        return key, bundle.transport[key]
    return None, bundle.counit  # a cup with its cap folded in


_fold_of = functools.cache(_Fold)  # the one _Fold of each (generator, joins)


def _fold(gens, n_made):
    """``_walk``'s generators folded, in layer order, each with a last
    entry: None, or for a ``_Fold`` the (t, j, q) of its base, then of its
    neighbour.  First each cap and cup goes into the generator it meets
    (``_cap_taker``), then each generator of at most two legs into a pants
    or copants beside it (``_neighbour_taker``), so the planner sees one
    generator, and the executor one step, where there were two or more;
    ``n_made`` is the number of labels made."""
    gens = [gen + (None,) for gen in gens]
    return _absorb(_absorb(gens, n_made, _cap_taker), n_made, _neighbour_taker)


def _absorb(gens, n_made, taker):
    """``gens`` with each generator that ``taker`` names a taker for folded
    into that taker, in layer order.

    ``taker(gens, k, maker, reader, taken)`` gives the label generator k
    shares with the generator that takes it, and that generator's index,
    or None; ``maker`` and ``reader`` are each label's ends as indices into
    ``gens`` (None for a word input's maker and a word output's reader),
    and ``taken`` holds the takers so far.  A taker, a ``Gen``, becomes a
    ``_Fold`` whose legs are those of its block, the shared labels gone; it
    keeps its place, so it may read a circle whose maker comes after it.
    """
    maker, reader = [None] * n_made, [None] * n_made
    for k, gen in enumerate(gens):
        for c in gen[4]:
            if c >= 0:
                reader[c] = k
        for c in gen[5]:
            maker[c] = k
    taken = {}  # taker -> (label shared, generator taken) per generator it takes
    for k in range(len(gens)):
        shared = taker(gens, k, maker, reader, taken)
        if shared is not None:
            taken.setdefault(shared[1], []).append((shared[0], k))
    gone = {n for pairs in taken.values() for _, n in pairs}
    folded = []
    for k, gen in enumerate(gens):
        if k in gone:
            continue
        if k in taken:
            g, t, j, q, circles, outs, _ = gen
            ends = circles + outs
            pairs = sorted(taken[k], key=lambda pair: ends.index(pair[0]), reverse=True)
            parts = [gens[n][4] + gens[n][5] for _, n in pairs]
            joins = tuple([(ends.index(c), gens[n][0], part.index(c))
                           for (c, n), part in zip(pairs, parts)])
            fold = _fold_of(g, joins)
            legs = _built(ends, joins, parts)
            if fold.perm is not None:
                legs = [legs[i] for i in fold.perm]
            gen = (fold, t, j, q, legs[:fold.n_in], legs[fold.n_in:],
                   ((t, j, q),) + tuple([gens[n][1:4] for _, n in pairs
                                         if gens[n][0] is fold.neighbour]))
        folded.append(gen)
    return folded


def _cap_taker(gens, k, maker, reader, taken):
    """A cap whose circle another generator reads goes into that reader,
    and a cup whose circle a generator other than a cap makes into that
    maker; a cup that reads a cap's circle takes the cap and becomes a
    scalar."""
    g, _, _, _, circles, outs, _ = gens[k]
    if g is CAP and reader[outs[0]] is not None:
        return outs[0], reader[outs[0]]
    if g is CUP and circles[0] >= 0 and gens[maker[circles[0]]][0] is not CAP:
        return circles[0], maker[circles[0]]
    return None


def _neighbour_taker(gens, k, maker, reader, taken):
    """A generator of at most two legs goes into a pants or copants of
    three legs that shares exactly one of its circles and has taken no
    other: the maker of one of its input circles first, then the reader of
    one of its output circles, each in the order of its legs.  A base
    takes one neighbour and is none, so folds never chain, the merged
    block keeps at most three legs and a bundle builds a fixed set of
    folds."""
    _, _, _, _, circles, outs, _ = gens[k]
    ends = circles + outs
    if 0 < len(ends) <= 2:
        for c, b in [(c, maker[c]) for c in circles if c >= 0] + [(c, reader[c]) for c in outs]:
            if b is not None and b not in taken and gens[b][0] in (PANTS, COPANTS) \
                    and [x for x in ends if x in gens[b][4] + gens[b][5]] == [c]:
                return c, b
    return None


def _plan(gens):
    """The order in which to contract ``gens``, as indices into it: layer
    order, unless a planned order costs strictly less.

    ``gens`` is ``_fold``'s list in layer order, where a folded generator
    may read a circle whose maker comes after it, so each label joins the
    two generators that hold it, whichever comes first.  Any generator may
    come next, ready or not.  A step's cost is 4 ** (the legs it spans: the
    state's and the generator's, a paired leg once), the multiply-adds it
    makes when every fiber has dimension 4, and an order's cost is the sum
    over its steps.
    A base above the fiber dimensions 2 and 3 of the common algebras weighs
    the widest steps heavily enough that on the 4,000 schedules of the
    first 1,000 seeds of ``random_equivalent_pair`` no order taken peaks
    higher than the greedy over ready generators alone does.
    Each step spans at least its generator's legs, so layer order is kept
    at once when it costs no more than that.  Otherwise each connected
    component of the network is planned on its own, by ``_greedy`` from
    each of its generators in turn, each run cut off once it costs as much
    as the cheapest so far: O(n² log n) in the number n of generators.  A
    component's steps cost 4 ** (the legs the components before it leave
    open) times their cost on their own, so the components go in
    increasing order of (4 ** f - 1) / c, f the legs a component leaves
    open and c its own cost (Smith's rule for a weighted sum), which puts
    every closed component, a scalar, first.
    """
    size = []                     # the legs of each generator
    joined = [[] for _ in gens]   # per generator, the other end of each label it shares
    first = {}                    # the generator met first holding each label
    cost = floor = n_legs = 0     # in layer order
    for k, gen in enumerate(gens):
        ends = gen[4] + gen[5]
        n_paired = 0
        for c in ends:
            m = first.pop(c, None)
            if m is None:
                first[c] = k
            else:  # held by an earlier generator
                joined[k].append(m)
                joined[m].append(k)
                n_paired += 1
        n = len(ends)
        size.append(n)
        cost += 4 ** (n_legs + n - n_paired)
        floor += 4 ** n
        n_legs += n - 2 * n_paired
    order = range(len(gens))
    if cost == floor:
        return order
    parts = []  # (cost, legs left open, order) per component
    seen = [False] * len(gens)
    for first in order:
        if seen[first]:
            continue
        part = _greedy(size, joined, first, math.inf)
        for start in sorted(part[2]):
            seen[start] = True
            greedy = _greedy(size, joined, start, part[0])
            if greedy is not None:
                part = greedy
        parts.append(part)
    parts.sort(key=lambda part: (4 ** part[1] - 1) / part[0])
    planned, total, n_legs = [], 0, 0
    for c, f, part in parts:
        total += 4 ** n_legs * c
        n_legs += f
        planned += part
    return planned if total < cost else order


def _greedy(size, joined, start, bound):
    """``(cost, legs, order)`` of the greedy contraction order of the
    connected component of the generator ``start``, from ``start`` on an
    empty state: its cost, the legs it leaves open and its generators in
    order; or None once its cost reaches ``bound``.

    ``size`` and ``joined`` are ``_plan``'s.  After each step the greedy
    takes, of the generators sharing a leg with the state, the one that
    leaves the fewest state legs, then the one whose step spans the fewest
    legs, then the earliest in layer order, until none is left.  A
    generator's shared legs only grow until it is taken, so each gain
    pushes its new key onto a heap and outdated keys are skipped when
    popped.
    """
    shared = [0] * len(size)
    taken = [False] * len(size)
    heap = []
    order = []
    cost = n_legs = 0
    k = start
    while True:
        p, n = shared[k], size[k]
        cost += 4 ** (n_legs + n - p)
        if cost >= bound:
            return None
        n_legs += n - 2 * p
        taken[k] = True
        order.append(k)
        for m in joined[k]:
            if not taken[m]:
                shared[m] += 1
                n, p = size[m], shared[m]
                heapq.heappush(heap, (n - 2 * p, n - p, m))
        while heap:
            left, _, k = heapq.heappop(heap)
            if not taken[k] and left == size[k] - 2 * shared[k]:
                break
        else:
            return cost, n_legs, order


def contract_word(w: BordismWord, boundaries, annotations, bundle, carry) -> Tensor:
    """The linear map of a labeled word; legs ordered [inputs..., outputs...].

    One state tensor is carried through the word, one generator at a time,
    along the word's schedule (``_schedule``, planned from leg counts alone
    once per word and mode and kept as ``BordismWord.carried_schedule`` and
    ``contracted_schedule``) for every bundle and every labeling; this
    executor only reads blocks and contracts them.  Exact results do not
    depend on the order; float results may differ from layer order's in the
    last bits.  A step whose generator took caps, cups or a neighbour is a
    ``_Fold``: a base generator and its joins, each of which contracts one
    base leg against a leg of the unit, the counit or the neighbour's
    block.  It carries the places of its base and neighbour, where it reads
    their table keys, and the bundle serves its folded block, built once
    per fold and keys (``_Fold.block``); every other step reads its block
    from the tables.  The output is written once: in a word of two or more
    steps and no pads the last contraction puts the legs in output order
    (the schedule's last ``order``), and its fresh product is returned as
    it is; a one-step word's state is still a block of the bundle, so it
    is copied out in order (``tensor.permute``).

    ``boundaries`` and ``annotations`` are the labels of a
    ``crossed.LabeledBordism``; each step reads its block, legs [inputs...,
    outputs...], from the tables of ``bundle``, a ``crossed.CrossedBundle``:
    ``id[k]`` on label g is ``transport[k, g]``, ``pants`` on g, h is
    ``fusion[g, h]``, ``copants`` is ``fission`` at its split and
    ``cap``/``cup`` the unit/counit.  With ``carry`` an ``id`` only carries
    its circle, as ``swap`` relabels two.  An input that reaches the outputs
    untouched gets the identity of ``dims`` at its label, written straight
    into the output (``tensor.with_identities``).  In exact mode every
    contraction runs on integer numerators (see ``tensor``).
    """
    steps, pads, perm = w.carried_schedule if carry else w.contracted_schedule
    state = None  # None stands for the scalar 1
    for g, t, j, q, axes_s, axes_g, order, places in steps:
        # an unfolded step reads its block inline, not through _table_block:
        # the extra call cost labeled-roundtrip 2% of its op_p50_ms and 4% of
        # its ops_per_s (six alternating 5 s runs each on a 2-CPU Xeon)
        if g is PANTS:
            labels = boundaries[t]
            gen = bundle.fusion[labels[q], labels[q + 1]]
        elif g is COPANTS:
            gen = bundle.fission[annotations[t][j]]
        elif g is ID:
            gen = bundle.transport[annotations[t][j], boundaries[t][q]]
        elif g is CAP:
            gen = bundle.unit
        elif g is CUP:
            gen = bundle.counit
        else:  # a _Fold: its base's and neighbour's blocks, read at their places
            gen = g.block(bundle, boundaries, annotations, places)
        state = gen if state is None else tensordot(state, gen, axes_s, axes_g, order)
    if state is None:
        state = Tensor.scalar(1, exact=bundle.exact)
    # both give a fresh array where the state may still be a block of the
    # bundle; after two or more steps it is the last product, in order
    if pads:
        dims, labels = bundle.dims, boundaries[0]
        return with_identities(state, tuple([dims[labels[i]] for i in pads]), perm)
    return state if len(steps) > 1 else permute(state, perm)


def evaluate(w: BordismWord, algebra: FrobeniusAlgebra) -> Tensor:
    """Linear map A^(x)in -> A^(x)out; legs ordered [inputs..., outputs...].

    ``contract_word`` over ``algebra.bundle`` at ``w.trivial_labeling``, the
    trivial-group case of ``evaluate_labeled``; a cylinder carries its circle.
    """
    return contract_word(w, *w.trivial_labeling, algebra.bundle, carry=True)


def as_matrix(t: Tensor, arity_in: int, dim: int):
    """Reshape an evaluated map to (dim^out, dim^in), row-major bases."""
    arity_out = t.rank - arity_in
    rows = dim ** arity_out
    cols = dim ** arity_in
    flat = np.array(t.entries(), dtype=object).reshape(cols, rows)
    return np.transpose(flat)


# ---------------------------------------------------------------------------
# random equivalent pairs (fuzz driver for diffeomorphism invariance)

def _random_layer(rng, arity_in, widen_bias=0.0):
    # max_width caps the boundary this layer makes, so random words stay
    # small; it is not a bound on the word's width, since the unit and counit
    # rewrites of _rewrite_once add a circle beside it (pair seed 143 reaches
    # 6 circles).  evaluate's cost grows with its state tensor, at most
    # dim ** (inputs + boundary circles), not with the width of a layer.
    max_width = 4
    layer = []
    remaining = arity_in
    outs = 0
    while remaining > 0:
        choices = [Gen.ID, Gen.PANTS, Gen.CUP]
        weights = [4, 2, 1]
        if outs + remaining < max_width:
            choices.append(Gen.COPANTS)
            weights.append(2)
        if remaining >= 2:
            choices.append(Gen.SWAP)
            weights.append(2)
        g = rng.choices(choices, weights=weights)[0]
        if ARITY[g][0] > remaining:
            g = Gen.ID
        layer.append(g)
        remaining -= ARITY[g][0]
        outs += ARITY[g][1]
    if (not layer or rng.random() < widen_bias) and outs < max_width:
        layer.insert(rng.randrange(len(layer) + 1), Gen.CAP)
    return tuple(layer)


def _random_word(rng, arity, max_layers):
    a_in, a_out = arity
    d = abs(a_in - a_out)
    if d > max_layers:
        raise InputError("arity change %d cannot fit in %d layers" % (d, max_layers))
    layers = []
    cur = a_in
    free = max_layers - d
    if free > 0:
        n_free = rng.randint(0 if d else 1, free)
        for _ in range(n_free):
            if len(layers) + abs(cur - a_out) >= max_layers:
                break
            layer = _random_layer(rng, cur, widen_bias=0.3 if cur < 4 else 0.0)
            new_cur = layer_arity(layer)[1]
            if len(layers) + 1 + abs(new_cur - a_out) > max_layers:
                continue
            layers.append(layer)
            cur = new_cur
    # steer to the requested output arity
    while cur > a_out:
        layers.append((Gen.PANTS,) + (Gen.ID,) * (cur - 2) if cur >= 2 else (Gen.CUP,))
        cur = layer_arity(layers[-1])[1]
    while cur < a_out:
        layers.append(((Gen.COPANTS,) + (Gen.ID,) * (cur - 1)) if cur >= 1 else (Gen.CAP,))
        cur = layer_arity(layers[-1])[1]
    if not layers:
        layers.append(tuple([Gen.ID] * a_in))
    return BordismWord(tuple(layers))


def _insert_layers(w, at, new_layers):
    return BordismWord(w.layers[:at] + tuple(new_layers) + w.layers[at:])


def _rewrite_once(rng, w, max_layers):
    """Apply one equivalence-preserving local rewrite, if room permits."""
    candidates = []
    n_layers = len(w.layers)
    for at, a in enumerate(w.widths):
        if n_layers + 1 <= max_layers and a > 0:
            candidates.append(("id", at, None))
        if n_layers + 2 <= max_layers and a >= 2:
            for p in range(a - 1):
                candidates.append(("swap2", at, p))
        if n_layers + 2 <= max_layers and a >= 1:
            for p in range(a):
                candidates.append(("unit", at, p))
                candidates.append(("counit", at, p))
    if n_layers + 1 <= max_layers:
        for t, layer in enumerate(w.layers):
            for g, q in zip(layer, w.offsets[t]):
                if g is Gen.PANTS:
                    candidates.append(("comm", t, q))
    if not candidates:
        return w
    kind, at, p = rng.choice(candidates)
    a = w.widths[at]
    if kind == "id":
        return _insert_layers(w, at, [tuple([Gen.ID] * a)])
    if kind in ("swap2", "comm"):
        # a swap and its inverse, or a swap before the pants at p
        layer = tuple([Gen.ID] * p + [Gen.SWAP] + [Gen.ID] * (a - p - 2))
        return _insert_layers(w, at, [layer, layer] if kind == "swap2" else [layer])
    if kind == "unit":
        grow = tuple([Gen.ID] * p + [Gen.CAP] + [Gen.ID] * (a - p))
        shrink = tuple([Gen.ID] * p + [Gen.PANTS] + [Gen.ID] * (a - p - 1))
        return _insert_layers(w, at, [grow, shrink])
    # kind == "counit"
    grow = tuple([Gen.ID] * p + [Gen.COPANTS] + [Gen.ID] * (a - p - 1))
    shrink = tuple([Gen.ID] * (p + 1) + [Gen.CUP] + [Gen.ID] * (a - p - 1))
    return _insert_layers(w, at, [grow, shrink])


def random_equivalent_pair(arity, max_layers, seed):
    """Two topologically equal words, deterministic in the seed."""
    if max_layers < 1:
        raise InputError("max_layers must be >= 1")
    rng = random.Random(seed)
    w1 = _random_word(rng, arity, max_layers)
    w2 = w1
    for _ in range(rng.randint(1, 4)):
        w2 = _rewrite_once(rng, w2, max_layers)
    if not equivalent(w1, w2):
        raise RuntimeError("the rewrites of pair seed %r changed the "
                           "topological type" % (seed,))
    return w1, w2
