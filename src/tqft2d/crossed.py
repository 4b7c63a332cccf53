"""G-graded Frobenius bundles with flat transport over the loops of BG.

Fibers are indexed by group elements (the holonomy of the loop), fusion and
fission move between concatenated loops, and parallel transport conjugates
the grading.  Both directions of the correspondence with labeled-bordism
evaluators live here: `evaluate_labeled` turns a bundle into an evaluator,
`tft_to_bundle` extracts a bundle from an evaluator oracle.

`validate_bundle` does not walk the gradings one by one.  It stacks each
family of blocks once into a zero-padded tensor (``tensor.stack``), of
shape (|G|, |G|, D, D, D) for fusion and fission and (|G|, |G|, D, D) for
transport, D being the largest fiber dimension, and checks each axiom over
all its gradings in one gathered contraction through ``tensor.einsum``.
Each operand is one ``tensor.gather`` of a stack at flat rows
``x * |G| + y``, which the group builds once and keeps
(``FiniteGroup.grading_rows``), and each pairwise contraction is one
batched matrix product.  Padding is zero on both sides of every
comparison, so each failing grading reports the same first witness as a
block-by-block check; the tests hold it to that loop.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .bordism import (_NAMES, ARITY, CAP, COPANTS, CUP, ID, PANTS, SWAP, BordismWord,
                      Gen, contract_word)
from .frobenius import FrobeniusAlgebra, ground_field
from .groups import FiniteGroup, LoopWord, load_over
from .report import ValidationReport
from .tensor import (DEFAULT_TOL, InputError, Tensor, content_lines, differences,
                     einsum, equal, gather, invert_matrix, parse_int, parse_scalars,
                     format_scalar, permute, stack, tensordot)


class BundleError(InputError):
    """Structural problem with bundle data (shapes, missing blocks)."""


class LabelError(InputError):
    """Inconsistent G-labels on a bordism word."""


class ExtractionError(InputError):
    """The oracle violates a field-theory axiom during bundle extraction."""


@dataclass
class CrossedBundle:
    group: FiniteGroup
    dims: tuple                 # fiber dimension per group element
    fusion: dict                # (g, h) -> Tensor (d_g, d_h, d_gh)
    fission: dict               # (g, h) -> Tensor (d_gh, d_g, d_h)
    transport: dict             # (k, g) -> Tensor (d_g, d_{kgk^-1})
    unit: Tensor                # shape (d_e,)
    counit: Tensor              # shape (d_e,)
    tol: float = DEFAULT_TOL    # float-mode tolerance of every comparison
    # the blocks of contract_word's folds, each a base generator's block
    # with every join's unit, counit or neighbour block contracted in, by
    # fold, base table key and neighbour table key, built on first use and
    # served while both table blocks, the unit and the counit are the
    # tensors they were built from (bordism._Fold.block).  A field, not
    # a cached_property: an attribute added after construction gives the
    # instance a dict of its own, and every read of the bundle's tables in
    # the executor slows down
    folded_blocks: dict = field(default_factory=dict, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        G = self.group
        if len(self.dims) != G.order or any(d <= 0 for d in self.dims):
            raise BundleError("need a positive fiber dimension per group element")
        e = G.identity
        if self.unit.shape != (self.dims[e],):
            raise BundleError("unit must live in the identity fiber")
        if self.counit.shape != (self.dims[e],):
            raise BundleError("counit must live on the identity fiber")
        # every block must share the unit's mode; tensor.stack would reject
        # a mixed family too, but without naming the block
        exact = self.exact
        if self.counit.exact != exact:
            raise BundleError("mixed scalar modes: the counit is %s, the unit %s"
                              % (_mode(self.counit.exact), _mode(exact)))
        # a family passes on one comparison of its keys and shapes and one of
        # its modes; only a failing one is walked, to name its first bad block
        for family, want in _family_shapes(G, self.dims).items():
            blocks = getattr(self, family)
            if {k: t.shape for k, t in blocks.items()} != want \
                    or any(t.exact != exact for t in blocks.values()):
                _name_bad_block(family, blocks, want, exact)

    @property
    def exact(self):
        return self.unit.exact

    @cached_property
    def identities(self):
        """The identity map of each fiber, by group element, built once."""
        return tuple(Tensor.identity(d, exact=self.exact) for d in self.dims)

    def differences(self, other):
        """Yield where this bundle and ``other`` differ at the larger
        tolerance: ``("group",)`` alone for other groups; else ``("dims",)``
        for other fiber dimensions, then each differing block's ``(family,
        g, h)`` in ``_block_shapes`` order, ``("unit",)`` and ``("counit",)``."""
        if self.group != other.group:
            yield ("group",)
            return
        if self.dims != other.dims:
            yield ("dims",)
        tol = max(self.tol, other.tol)
        for family, key, _ in _block_shapes(self.group, self.dims):
            if not equal(getattr(self, family)[key], getattr(other, family)[key], tol):
                yield (family,) + key
        for end in ("unit", "counit"):
            if not equal(getattr(self, end), getattr(other, end), tol):
                yield (end,)

    def __eq__(self, other):
        if not isinstance(other, CrossedBundle):
            return NotImplemented
        return next(self.differences(other), None) is None


FAMILIES = ("fusion", "fission", "transport")


def _family_shapes(group: FiniteGroup, dims):
    """{family: {key: shape}} for every block of a bundle over ``group`` with
    fiber dimensions ``dims`` (one per group element): families in
    ``FAMILIES`` order, keys in lexicographic order."""
    mul, conj = group.mul_table.tolist(), group.conj_table.tolist()
    pairs = [(g, h) for g in group.elements() for h in group.elements()]
    return {"fusion": {(g, h): (dims[g], dims[h], dims[mul[g][h]]) for g, h in pairs},
            "fission": {(g, h): (dims[mul[g][h]], dims[g], dims[h]) for g, h in pairs},
            "transport": {(k, g): (dims[g], dims[conj[k][g]]) for k, g in pairs}}


def _block_shapes(group: FiniteGroup, dims):
    """Yield (family, key, shape) for every block of a bundle over ``group``
    with fiber dimensions ``dims``, in ``_family_shapes`` order."""
    for family, want in _family_shapes(group, dims).items():
        for key, shape in want.items():
            yield family, key, shape


def _mode(exact):
    return "exact" if exact else "float"


def _name_bad_block(family, blocks, want, exact):
    """Raise the BundleError of the first bad block of ``family``: walking
    the keys of ``want`` in order, a missing block, a block of another shape
    than ``want`` gives, or a block of another mode than ``exact``; then a
    key outside G x G."""
    for key, shape in want.items():
        if key not in blocks:
            raise BundleError("missing %s block (%d,%d)" % ((family,) + key))
        t = blocks[key]
        if t.shape != shape:
            raise BundleError("%s (%d,%d) has shape %s, want %s"
                              % ((family,) + key + (t.shape, shape)))
        if t.exact != exact:
            raise BundleError("mixed scalar modes: %s (%d,%d) is %s, the unit %s"
                              % ((family,) + key + (_mode(t.exact), _mode(exact))))
    extra = next(key for key in blocks if key not in want)
    raise BundleError("%s block key %r is not a pair of group elements"
                      % (family, extra))


# ---------------------------------------------------------------------------
# validation

def validate_bundle(bundle: CrossedBundle) -> ValidationReport:
    """Enumerate every defining condition over all gradings.

    Each family of blocks is stacked once (``tensor.stack``), padded to the
    largest fiber dimension D, and each axiom is one contraction over all
    its gradings at once: each operand of both sides is one
    ``tensor.gather`` of a stack at the flat rows of its pairs of group
    elements (``FiniteGroup.grading_rows``, built from the multiplication
    and conjugation tables once per group), and they are contracted with
    ``tensor.einsum``, pairwise in the order of the definition, each pair
    one batched matrix product.  Each check gathers its own operands and
    drops them before the next check's are built.  A grading
    fails when its two padded blocks differ (``tensor.differences``), and
    its two blocks go to ``ValidationReport.compare``.  Padding is zero on
    both sides, so the first row-major differing index of a padded block is
    that of the block itself: the witnesses are those of comparing block by
    block, also for unequal fiber dimensions.
    Violations come grading by grading in row-major order, with the axioms
    of one loop over gradings interleaved in the order they are checked
    below.  The largest intermediate holds |G|^3 D^4 entries.

    The unit, the counit and the identity at every grading are index
    gathers from two small stacks, (unit, counit) and one identity per
    fiber dimension.  Each check takes one difference mask: a passing check
    costs one ``.any()``, and the failing gradings are read off that mask.
    """
    G, dims, tol = bundle.group, bundle.dims, bundle.tol
    n, w, e = G.order, max(dims), G.identity
    mu = stack(bundle.fusion, (n, n), w)
    nu = stack(bundle.fission, (n, n), w)
    P = stack(bundle.transport, (n, n), w)
    ends = stack({(0,): bundle.unit, (1,): bundle.counit}, (2,), w)
    u, eps, unit_at, counit_at = ends[0], ends[1], ends[[0] * n], ends[[1] * n]
    sizes = sorted(set(dims))
    eyes = stack({(i,): Tensor.identity(d, exact=bundle.exact)
                  for i, d in enumerate(sizes)}, (len(sizes),), w)
    ident = eyes[[sizes.index(d) for d in dims]]
    r = G.grading_rows
    ein, at = einsum, gather
    report = ValidationReport()

    def fail(gradings, checks):
        """Check each (axiom, tag, sides) of ``checks`` at every grading
        ``gradings[:, i]``, ``sides()`` giving the stacked lhs and rhs: one
        check's sides at a time, gathering their failing blocks into fresh
        arrays so that the stacks are dropped.  Each failing grading then
        reports, in row-major order and the checks in the order given,
        through ``report.compare`` at ``grading + tag``."""
        failing = {}
        for j, (axiom, tag, sides) in enumerate(checks):
            report.check(axiom)
            lhs, rhs = sides()
            diff = differences(lhs, rhs, tol)
            if diff.any():  # the failing rows, from the same mask
                bad = np.flatnonzero(diff.reshape(len(diff), -1).any(axis=1))
                # copies: a block alone would be a view of the stack
                lhs, rhs = lhs[bad], rhs[bad]
                for m, i in enumerate(bad.tolist()):
                    failing[i, j] = axiom, tag, lhs[m], rhs[m]
            del lhs, rhs  # before the next check's sides are built
        for (i, _), (axiom, tag, lhs, rhs) in sorted(failing.items()):
            report.compare(axiom, lhs, rhs, tol,
                           tuple(int(x) for x in gradings[:, i]) + tag)

    # gradings (k, g, h): the pairs (g, h), (k, gh), (k g k^-1, k h k^-1),
    # (k, g) and (k, h) are the rows bc, a_bc, conj, ab and ac
    fail(r.triples, [
        # P_k . mu_{g,h} = mu_{g',h'} . (P_k x P_k), legs (a, b, y)
        ("fusion-transport", (), lambda: (
            ein("nabx,nxy->naby", at(mu, r.bc), at(P, r.a_bc)),
            ein("nbj,najy->naby", at(P, r.ac),
                ein("nai,nijy->najy", at(P, r.ab), at(mu, r.conj))))),
        # nu_{g',h'} . P_k = (P_k x P_k) . nu_{g,h}, legs (x, i, j)
        ("fission-transport", (), lambda: (
            ein("nxy,nyij->nxij", at(P, r.a_bc), at(nu, r.conj)),
            ein("nxbi,nbj->nxij", ein("nxab,nai->nxbi", at(nu, r.bc), at(P, r.ab)),
                at(P, r.ac))))])

    # gradings (g, h, k): the pairs (g, h), (gh, k), (h, k) and (g, hk) are
    # the rows ab, ab_c, bc and a_bc
    fail(r.triples, [
        # legs (a, b, c, d)
        ("associativity", (), lambda: (ein("nabx,nxcd->nabcd", at(mu, r.ab), at(mu, r.ab_c)),
                                       ein("nbcx,naxd->nabcd", at(mu, r.bc), at(mu, r.a_bc)))),
        # legs (x, a, b, c)
        ("coassociativity", (), lambda: (ein("nxyc,nyab->nxabc", at(nu, r.ab_c), at(nu, r.ab)),
                                         ein("nxay,nybc->nxabc", at(nu, r.a_bc), at(nu, r.bc)))),
        # nu_{g,hk} . mu_{gh,k} = (id x mu_{h,k}) . (nu_{g,h} x id), legs (p, q, r, s)
        ("frobenius", (), lambda: (ein("npqz,nzrs->npqrs", at(mu, r.ab_c), at(nu, r.a_bc)),
                                   ein("nprz,nzqs->npqrs", at(nu, r.ab), at(mu, r.bc)))),
        # nu_{gh,k} . mu_{g,hk} = (mu_{g,h} x id) . (id x nu_{h,k}), legs (p, q, r, s)
        ("frobenius", ("rev",), lambda: (ein("npqz,nzrs->npqrs", at(mu, r.a_bc), at(nu, r.ab_c)),
                                         ein("nqzs,npzr->npqrs", at(nu, r.bc), at(mu, r.ab))))])

    # gradings (g): the pair (g, e) is the row ae
    fail(r.singles, [("unit-transport", (), lambda: (ein("x,nxy->ny", u, at(P, r.ae)),
                                                     unit_at)),
                     ("unit-transport", ("counit",),
                      lambda: (ein("nxy,y->nx", at(P, r.ae), eps), counit_at))])
    fail(r.singles, [("unit", (), lambda: (ein("nayb,y->nab", at(mu, r.ae), u), ident)),
                     ("counit", (), lambda: (ein("naby,y->nab", at(nu, r.ae), eps), ident))])

    report.check("nondegeneracy")
    pair = tensordot(bundle.fusion[e, e], bundle.counit, [2], [0])
    if invert_matrix(pair, tol) is None:
        report.fail("nondegeneracy", ())

    # gradings (e, g): the pair (e, g) is the row ea
    fail(np.stack([np.full(n, e), np.arange(n)]), [("flatness", (), lambda: (
        at(P, r.ea), ident))])
    # gradings (k, l, g): the pairs (l, g), (k, l g l^-1) and (kl, g) are the
    # rows bc, a_conj and ab_c
    fail(r.triples, [("flatness", (), lambda: (
        ein("nay,nyb->nab", at(P, r.bc), at(P, r.a_conj)), at(P, r.ab_c)))])
    return report


# ---------------------------------------------------------------------------
# constructors

def from_group_algebra(group: FiniteGroup, exact=True) -> CrossedBundle:
    """All fibers one-dimensional with trivial structure scalars: the
    constant bundle of the ground field."""
    return from_frobenius_algebra(group, ground_field(exact))


def from_frobenius_algebra(group: FiniteGroup, algebra: FrobeniusAlgebra) -> CrossedBundle:
    """Constant bundle: every fiber is the given algebra, transport identity."""
    n = algebra.dim
    ident = Tensor.identity(n, exact=algebra.exact)
    els = list(group.elements())
    fusion = {(g, h): algebra.mul for g in els for h in els}
    fission = {(g, h): algebra.delta for g in els for h in els}
    transport = {(k, g): ident for k in els for g in els}
    return CrossedBundle(group=group, dims=(n,) * group.order,
                         fusion=fusion, fission=fission, transport=transport,
                         unit=algebra.unit, counit=algebra.counit, tol=algebra.tol)


# ---------------------------------------------------------------------------
# labeled bordisms

@dataclass(frozen=True)
class LabeledBordism:
    group: FiniteGroup
    word: BordismWord
    boundaries: tuple   # per boundary, tuple of circle labels (group indices)
    annotations: tuple  # per layer, per generator: conjugator for ID,
                        # (g, h) split for COPANTS, None otherwise

    @property
    def in_labels(self):
        return self.boundaries[0]

    def is_closed(self):
        return self.word.arity_in == 0 and self.word.arity_out == 0


def label_word(group: FiniteGroup, word: BordismWord, in_labels,
               annotations=None) -> LabeledBordism:
    """Propagate labels through the word, checking consistency.

    ``annotations``: per layer, per generator; conjugator element for ID
    (default identity), (g, h) output split for COPANTS (required), None
    for the rest.
    """
    in_labels = tuple(in_labels)
    if len(in_labels) != word.arity_in:
        raise LabelError("expected %d input labels, got %d"
                         % (word.arity_in, len(in_labels)))
    for g in in_labels:
        _element(group, g)
    if annotations is None:
        annotations = tuple(tuple(None for _ in layer) for layer in word.layers)
    annotations = tuple(tuple(layer) for layer in annotations)
    if len(annotations) != len(word.layers) or any(
            len(a) != len(layer) for a, layer in zip(annotations, word.layers)):
        raise LabelError("annotation shape does not match the word")

    boundaries = [in_labels]
    norm_annots = []
    for t, annot in enumerate(annotations):
        labels, norm = _label_layer(group, word, t, annot, boundaries[-1])
        boundaries.append(labels)
        norm_annots.append(norm)
    return LabeledBordism(group=group, word=word,
                          boundaries=tuple(boundaries),
                          annotations=tuple(norm_annots))


def _element(group: FiniteGroup, g):
    """``g``, or a ``LabelError`` naming it when it is no element
    0..|G|-1 of the group (a negative index would wrap in the tables)."""
    if not 0 <= g < group.order:
        raise LabelError("%s is not a group element (0..%d)" % (g, group.order - 1))
    return g


def _label_layer(group: FiniteGroup, word, t, annot, cur):
    """The labels below layer t of the word, given the labels ``cur`` above
    it, and the layer's normalized annotations (see ``label_word``), as two
    tuples."""
    e = group.identity
    nxt = []
    norm = []
    for gen, ann, q in zip(word.layers[t], annot, word.offsets[t]):
        if gen is Gen.ID:
            k = e if ann is None else _element(group, int(ann))
            nxt.append(group.conj(k, cur[q]))
            norm.append(k)
        elif gen is Gen.SWAP:
            nxt += (cur[q + 1], cur[q])
            norm.append(None)
        elif gen is Gen.CAP:
            nxt.append(e)
            norm.append(None)
        elif gen is Gen.CUP:
            if cur[q] != e:
                raise LabelError(
                    "cup on a non-identity label %r (layer %d)"
                    % (group.labels[cur[q]], t))
            norm.append(None)
        elif gen is Gen.PANTS:
            nxt.append(group.mul(cur[q], cur[q + 1]))
            norm.append(None)
        elif gen is Gen.COPANTS:
            if ann is None:
                raise LabelError("copants at layer %d needs a (g,h) split" % t)
            sg, sh = _element(group, int(ann[0])), _element(group, int(ann[1]))
            if group.mul(sg, sh) != cur[q]:
                raise LabelError(
                    "copants split (%s,%s) does not multiply to %s (layer %d)"
                    % (group.labels[sg], group.labels[sh],
                       group.labels[cur[q]], t))
            nxt += (sg, sh)
            norm.append((sg, sh))
    return tuple(nxt), tuple(norm)


def conjugate_labeled(b: LabeledBordism, k) -> LabeledBordism:
    """Relabel the whole surface by simultaneous conjugation with k."""
    G = b.group
    _element(G, k)
    new_in = tuple(G.conj(k, g) for g in b.in_labels)
    annots = []
    for layer, ann in zip(b.word.layers, b.annotations):
        row = []
        for gen, a in zip(layer, ann):
            if gen is Gen.ID:
                row.append(G.conj(k, a))
            elif gen is Gen.COPANTS:
                row.append((G.conj(k, a[0]), G.conj(k, a[1])))
            else:
                row.append(None)
        annots.append(tuple(row))
    return label_word(G, b.word, new_in, tuple(annots))


def _insert_transports(b: LabeledBordism, at: int, ks) -> LabeledBordism:
    """Insert a layer of cylinders at boundary `at` per k in ks, each
    transporting every circle by k."""
    width = b.word.widths[at]
    layers = (tuple([Gen.ID] * width),) * len(ks)
    annots = tuple(tuple([k] * width) for k in ks)
    return label_word(b.group, BordismWord(b.word.layers[:at] + layers + b.word.layers[at:]),
                      b.in_labels, b.annotations[:at] + annots + b.annotations[at:])


def insert_identity_layer(b: LabeledBordism, at: int) -> LabeledBordism:
    """Insert an all-identity-cylinder layer at boundary `at`."""
    return _insert_transports(b, at, [b.group.identity])


def insert_conjugation_pair(b: LabeledBordism, at: int, k) -> LabeledBordism:
    """Insert transport by k then by k^-1 at boundary `at` (a homotopy)."""
    _element(b.group, k)
    return _insert_transports(b, at, [k, b.group.inverse(k)])


# ---------------------------------------------------------------------------
# labeled surface text format

def parse_labeled(text: str, group: FiniteGroup) -> LabeledBordism:
    """Parse `pants[g,h] ; id[k] ; cup[]`-style labeled words.

    First-layer factors must determine their input labels: `pants[g,h]` and
    `swap[g,h]` list inputs, `copants[g,h]` lists its output split (input is
    the product), `id[k,g]` gives conjugator and input, `id[g]` means plain
    cylinder on label g.  In later layers labels propagate; `id[k]` is the
    conjugating cylinder and `pants[g,h]` / `swap[g,h]` act as assertions.
    `cap` and `cup` take no labels.
    """
    e = group.identity
    layers, in_labels, annotations = [], [], []
    asserted = []  # (layer, position, generator, labels) of later pants and swaps
    src = " ".join(line for _, line in content_lines(text))
    for t, layer_text in enumerate(src.split(";")):
        if not layer_text.strip():
            raise LabelError("empty layer in labeled word")
        gens, row = [], []
        for f in layer_text.split("*"):
            f = f.strip()
            name, bracket, rest = f.partition("[")
            name, args = name.strip(), ()
            if bracket:
                if not rest.endswith("]"):
                    raise LabelError("missing ']' in %r" % f)
                body = rest[:-1].strip()
                args = tuple(group.index(s.strip()) for s in body.split(",")) if body else ()
            gen = _NAMES.get(name)
            if gen is None:
                raise LabelError("unknown generator %r" % name)
            ann = None
            if gen is Gen.ID and t == 0:
                if len(args) not in (1, 2):
                    raise LabelError("first-layer id needs [k,g] or [g]")
                in_labels.append(args[-1])
                ann = args[0] if len(args) == 2 else e
            elif gen is Gen.ID:
                if len(args) > 1:
                    raise LabelError("id takes at most one conjugator")
                ann = args[0] if args else e
            elif gen is Gen.COPANTS:
                if len(args) != 2:
                    raise LabelError("copants needs a [g,h] split")
                if t == 0:
                    in_labels.append(group.mul(*args))
                ann = args
            elif gen in (Gen.CAP, Gen.CUP):
                if args:
                    raise LabelError("%s takes no labels in %r" % (gen.value, f))
                if gen is Gen.CUP and t == 0:
                    in_labels.append(e)
            elif t == 0:  # pants or swap
                if len(args) != 2:
                    raise LabelError("first-layer %s needs [g,h]" % gen.value)
                in_labels.extend(args)
            elif args:
                asserted.append((t, len(gens), gen, args))
            gens.append(gen)
            row.append(ann)
        layers.append(tuple(gens))
        annotations.append(tuple(row))
    word = BordismWord(tuple(layers))
    b = label_word(group, word, tuple(in_labels), tuple(annotations))
    for t, j, gen, args in asserted:
        q = word.offsets[t][j]
        ins = b.boundaries[t][q:q + 2]
        if args != ins:
            raise LabelError("%s[%s] disagrees with propagated labels %s (layer %d)"
                             % (gen.value, ",".join(group.labels[a] for a in args),
                                tuple(group.labels[i] for i in ins), t))
    return b


def format_labeled(b: LabeledBordism) -> str:
    G = b.group
    parts = []
    for t, (layer, ann) in enumerate(zip(b.word.layers, b.annotations)):
        cur = b.boundaries[t]
        factors = []
        for gen, a, q in zip(layer, ann, b.word.offsets[t]):
            if gen is Gen.ID:
                if t == 0:
                    factors.append("id[%s,%s]" % (G.labels[a], G.labels[cur[q]]))
                else:
                    factors.append("id[%s]" % G.labels[a])
            elif gen is Gen.COPANTS:
                factors.append("copants[%s,%s]" % (G.labels[a[0]], G.labels[a[1]]))
            elif gen in (Gen.PANTS, Gen.SWAP) and t == 0:
                factors.append("%s[%s,%s]" % (gen.value,
                                              G.labels[cur[q]], G.labels[cur[q + 1]]))
            elif gen in (Gen.CAP, Gen.CUP):
                factors.append(gen.value + "[]")
            else:
                factors.append(gen.value)
        parts.append(" * ".join(factors))
    return " ; ".join(parts)


# ---------------------------------------------------------------------------
# evaluation

def evaluate_labeled(b: LabeledBordism, bundle: CrossedBundle) -> Tensor:
    """Linear map between the labeled boundary fibers; legs [ins..., outs...].

    ``bordism.contract_word`` on the labels and the bundle's blocks, each
    ``id`` contracted as a block: ``id[k]`` is transport by k, ``pants`` is
    fusion, ``copants`` fission, and ``cap``/``cup`` are the unit/counit.
    """
    if b.group is not bundle.group and b.group != bundle.group:
        raise BundleError("bordism and bundle are over different groups")
    return contract_word(b.word, b.boundaries, b.annotations, bundle, carry=False)


def holonomy(b: LabeledBordism, bundle: CrossedBundle):
    """Scalar a closed labeled surface evaluates to."""
    if not b.is_closed():
        raise LabelError("holonomy needs a closed labeled surface")
    return evaluate_labeled(b, bundle).item()


# ---------------------------------------------------------------------------
# the two directions of the correspondence

@dataclass
class TftOracle:
    """A black-box evaluator of labeled bordisms with known fiber dimensions,
    and the float-mode tolerance its answers are checked with."""

    group: FiniteGroup
    dims: tuple
    evaluate: object  # callable LabeledBordism -> Tensor
    tol: float = DEFAULT_TOL

    @classmethod
    def from_bundle(cls, bundle: CrossedBundle):
        return cls(group=bundle.group, dims=bundle.dims,
                   evaluate=lambda b: evaluate_labeled(b, bundle), tol=bundle.tol)


def _single(group, gens, in_labels, annots):
    return label_word(group, BordismWord((tuple(gens),)), in_labels, (tuple(annots),))


def tft_to_bundle(oracle: TftOracle) -> CrossedBundle:
    """Extract fusion, fission, transport and (co)units from an oracle."""
    G = oracle.group
    e = G.identity
    pairs = list(itertools.product(G.elements(), repeat=2))
    transport = {(k, g): oracle.evaluate(_single(G, [Gen.ID], (g,), [k]))
                 for k, g in pairs}
    for g in G.elements():
        t = transport[e, g]
        if not equal(t, Tensor.identity(oracle.dims[g], exact=t.exact), oracle.tol):
            raise ExtractionError(
                "identity-preservation fails: the plain cylinder on label %r "
                "is not the identity map" % G.labels[g])
    fusion = {(g, h): oracle.evaluate(_single(G, [Gen.PANTS], (g, h), [None]))
              for g, h in pairs}
    fission = {(g, h): oracle.evaluate(_single(G, [Gen.COPANTS], (G.mul(g, h),), [(g, h)]))
               for g, h in pairs}
    unit = oracle.evaluate(_single(G, [Gen.CAP], (), [None]))
    counit = oracle.evaluate(_single(G, [Gen.CUP], (e,), [None]))
    try:
        return CrossedBundle(group=G, dims=tuple(oracle.dims), fusion=fusion,
                             fission=fission, transport=transport,
                             unit=unit, counit=counit, tol=oracle.tol)
    except BundleError as exc:
        raise ExtractionError("oracle produced inconsistent shapes: %s" % exc) from exc


def roundtrip_check(bundle: CrossedBundle, test_words) -> ValidationReport:
    """Bundle -> evaluator -> bundle must be the identity, and the rebuilt
    evaluator must agree with the original on every test word."""
    tol = bundle.tol
    report = ValidationReport()
    report.check("bundle-reconstruction")
    report.check("evaluator-agreement")
    rebuilt = tft_to_bundle(TftOracle.from_bundle(bundle))
    for where in rebuilt.differences(bundle):
        report.fail("bundle-reconstruction", where)
    for i, b in enumerate(test_words):
        if not equal(evaluate_labeled(b, rebuilt), evaluate_labeled(b, bundle), tol):
            report.fail("evaluator-agreement", (i,))
    return report


# ---------------------------------------------------------------------------
# Frobenius actions, rotations, higher (co)associativity

def frobenius_action(bundle: CrossedBundle, g):
    """Module/comodule structure of the identity fiber on fiber g."""
    e, g = bundle.group.identity, _element(bundle.group, g)
    act, coact = bundle.fusion[e, g], bundle.fission[e, g]
    mu_e, nu_e = bundle.fusion[e, e], bundle.fission[e, e]
    report = ValidationReport()
    tol, at = bundle.tol, (g,)
    rhs = tensordot(act, act, [2], [1])                # (y, v, x, o)
    report.compare("module", tensordot(mu_e, act, [2], [0]),
                   permute(rhs, (2, 0, 1, 3)), tol, at)
    lhs = tensordot(coact, coact, [2], [0])            # (v, x, y, o)
    rhs = tensordot(coact, nu_e, [1], [0])             # (v, o, x, y)
    report.compare("comodule", lhs, permute(rhs, (0, 2, 3, 1)), tol, at)
    lhs = tensordot(act, coact, [2], [0])              # (x, v, y, o)
    rhs = tensordot(coact, mu_e, [1], [1])             # (v, o, x, y)
    report.compare("compatibility-square", lhs, permute(rhs, (2, 0, 3, 1)),
                   tol, at)
    return act, coact, report


def rotation_transport(w: LoopWord, j: int, bundle: CrossedBundle) -> Tensor:
    """Transport realizing rotation of the loop word by j positions."""
    n = len(w)
    if not 0 <= j <= n:
        raise InputError("rotation offset %d out of range for length %d" % (j, n))
    G = bundle.group
    k = G.inverse(w.prefix_product(G, j))
    return bundle.transport[k, w.evaluate(G)]


def _binary_trees(lo, hi):
    """All binary trees over leaves lo..hi-1, as nested tuples."""
    if hi - lo == 1:
        return [lo]
    return [(left, right) for mid in range(lo + 1, hi)
            for left in _binary_trees(lo, mid) for right in _binary_trees(mid, hi)]


def nfold_fission_check(bundle: CrossedBundle, gs) -> ValidationReport:
    """All bracketings of n-fold fusion and fission towers must agree.

    The towers of the subtrees over one interval of leaves fall into
    classes, and each (interval, split, left class, right class) is
    contracted once per call.  In exact mode the equal towers of an interval
    share one class, which is safe since exact equality is transitive, so
    the bracketings of a passing bundle contract one tower per interval and
    split; in float mode, where agreeing within ``tol`` is not transitive,
    each distinct subtree is a class of its own.
    """
    G, exact = bundle.group, bundle.exact
    gs = [_element(G, g) for g in gs]
    n = len(gs)
    if n > 5:
        raise InputError("towers are checked for n <= 5")
    report = ValidationReport()
    report.check("higher-associativity")
    report.check("higher-coassociativity")
    if n < 2:
        return report

    def towers(join):
        """tree -> its tower, each (interval, split, left class, right
        class) contracted by ``join`` once."""
        classes, made = {}, {}  # (lo, hi) -> its class towers; key -> class

        @lru_cache(maxsize=None)
        def tower(tree):
            """(lo, hi, product, class, tower) of a tree over leaves
            lo..hi-1."""
            if isinstance(tree, int):
                return tree, tree + 1, gs[tree], 0, bundle.identities[gs[tree]]
            lo, mid, pl, i, left = tower(tree[0])
            _, hi, pr, j, right = tower(tree[1])
            key = (lo, mid, hi, i, j)
            if key not in made:
                t = join(left, right, pl, pr)
                kept = classes.setdefault((lo, hi), [])
                c = next((c for c, u in enumerate(kept) if exact and equal(u, t)), None)
                if c is None:
                    c = len(kept)
                    kept.append(t)
                made[key] = c
            return lo, hi, G.mul(pl, pr), made[key], classes[lo, hi][made[key]]
        return lambda tree: tower(tree)[4]

    def mu(tl, tr, pl, pr):
        """Legs [leavesL, leavesR, out]."""
        t = tensordot(tr, bundle.fusion[pl, pr], [tr.rank - 1], [1])  # [leavesR, a, c]
        return tensordot(tl, t, [tl.rank - 1], [tr.rank - 1])

    def nu(tl, tr, pl, pr):
        """Legs [in, leavesL, leavesR]."""
        t = tensordot(bundle.fission[pl, pr], tl, [1], [0])  # [in, right_in, leavesL]
        return tensordot(t, tr, [1], [0])

    trees = _binary_trees(0, n)
    mu_tower, nu_tower = towers(mu), towers(nu)
    ref_mu, ref_nu = mu_tower(trees[0]), nu_tower(trees[0])
    for i, tree in enumerate(trees[1:], start=1):
        if not equal(mu_tower(tree), ref_mu, bundle.tol):
            report.fail("higher-associativity", (tuple(gs), 0, i))
        if not equal(nu_tower(tree), ref_nu, bundle.tol):
            report.fail("higher-coassociativity", (tuple(gs), 0, i))
    return report


# ---------------------------------------------------------------------------
# closed surfaces

def closed_surface_word(group: FiniteGroup, genus: int, handles=()) -> LabeledBordism:
    """Closed surface of any genus g with handle labels (a_i, b_i).

    The word is ``cap ; (copants ; id * id ; swap ; pants)^g ; cup``, each
    handle added in line on one running circle.  Handle i takes that circle
    from c_i y to y, c_i = [a_i, b_i] and y the product of the later
    commutators, so c_1 ... c_g must be the identity.  All calls of one
    genus label one shared ``BordismWord``, whose schedule is planned once.
    """
    if genus < 0:
        raise LabelError("genus must be nonnegative")
    handles = [tuple(h) for h in handles]
    if len(handles) != genus:
        raise LabelError("genus %d needs %d handle label pairs" % (genus, genus))
    for h in handles:
        for g in h:
            _element(group, g)
    ys = [group.identity]  # suffix products of the commutators
    for a, b in reversed(handles):
        ys.append(group.mul(group.commutator(a, b), ys[-1]))
    if ys.pop() != group.identity:
        raise LabelError("commutator product is not the identity")
    annots = [(None,)]
    for (a, b), y in zip(handles, reversed(ys)):
        # split (a b a^-1, b^-1 y); transport the first circle to y^-1 b y
        annots += [((group.conj(a, b), group.mul(group.inverse(b), y)),),
                   (group.mul(group.inverse(y), group.inverse(a)), group.identity),
                   (None,), (None,)]
    return label_word(group, _closed_surface_shape(genus), (),
                      tuple(annots + [(None,)]))


@lru_cache(maxsize=32)
def _closed_surface_shape(genus: int) -> BordismWord:
    """The word of ``closed_surface_word``, one object per genus."""
    handle = [(Gen.COPANTS,), (Gen.ID, Gen.ID), (Gen.SWAP,), (Gen.PANTS,)]
    return BordismWord(tuple([(Gen.CAP,)] + handle * genus + [(Gen.CUP,)]))


# ---------------------------------------------------------------------------
# enumeration of small labeled words

def _layers(need, budget, layer=()):
    """Every layer of at most ``budget`` generators that reads ``need``
    circles, extending ``layer``; depth first in ``Gen`` order."""
    if need == 0 and layer:
        yield layer
    if len(layer) < budget:
        for g in Gen:
            if ARITY[g][0] <= need:
                yield from _layers(need - ARITY[g][0], budget, layer + (g,))


@lru_cache(maxsize=8)
def _enumerate_shapes(max_gens):
    """Every word of at most ``max_gens`` generators, depth first: first
    layers by size, then in ``itertools.product`` order; later layers in
    ``_layers`` order.  One tuple per ``max_gens``, so every group and
    budget labels the same word objects and plans each schedule once."""
    results = []

    def extend(layers, used):
        if layers:
            results.append(BordismWord(layers))
            candidates = _layers(results[-1].arity_out, max_gens - used)
        else:
            candidates = (combo for size in range(1, max_gens + 1)
                          for combo in itertools.product(Gen, repeat=size))
        for layer in candidates:
            extend(layers + (layer,), used + len(layer))

    extend((), 0)
    return tuple(results)


@lru_cache(maxsize=64)
def _labeling_digits(order, width, step):
    """The base-``order`` digits, most significant first, of every index in
    ``range(0, order ** width, step)``, as an (N, width) integer array: row
    i is the (i·step)-th labeling in ``itertools.product`` order.  The
    division runs in int64 while ``order ** width`` fits, and on Python
    ints past that."""
    total = order ** width
    dtype = np.int64 if total < 2 ** 63 else object
    powers = np.array([order ** p for p in reversed(range(width))], dtype=dtype)
    index = np.arange(0, total, step, dtype=dtype)
    digits = (index[:, None] // powers % order).astype(np.intp)
    digits.flags.writeable = False
    return digits


def _label_rows(group: FiniteGroup, shape: BordismWord, digits):
    """Label every row of ``digits`` on ``shape`` at once, by
    ``_label_layer``'s rules, with one table gather per generator.

    A row's first ``arity_in`` digits are its input labels; each later one,
    in layer order, is the conjugator of an ``id`` or the first label a of a
    ``copants`` split (a, a^-1 g).  Returns the boundaries (per boundary,
    one label array per circle), the annotations (per layer, per generator:
    an array, a pair of arrays or None) and the mask of the rows that every
    cup and copants accepts.
    """
    mul, conj, e = group.mul_table, group.conj_table, group.identity
    inv = np.array(group.inv, dtype=np.intp)
    n = len(digits)
    cur = list(digits[:, :shape.arity_in].T)
    frees = iter(digits[:, shape.arity_in:].T)
    boundaries, annots = [cur], []
    keep = np.ones(n, dtype=bool)
    for layer, offsets in zip(shape.layers, shape.offsets):
        nxt, row = [], []
        for g, q in zip(layer, offsets):
            ann = None
            if g is ID:
                ann = next(frees)
                nxt.append(conj[ann, cur[q]])
            elif g is SWAP:
                nxt += (cur[q + 1], cur[q])
            elif g is CAP:
                nxt.append(np.full(n, e, dtype=np.intp))
            elif g is CUP:
                keep &= cur[q] == e
            elif g is PANTS:
                nxt.append(mul[cur[q], cur[q + 1]])
            else:
                a = next(frees)
                b = mul[inv[a], cur[q]]
                keep &= mul[a, b] == cur[q]
                ann = a, b
                nxt += ann
            row.append(ann)
        boundaries.append(nxt)
        annots.append(row)
        cur = nxt
    return boundaries, annots, keep


def _rows(columns, n):
    """The n rows of a list of columns (each an iterable), as tuples."""
    return zip(*columns) if columns else itertools.repeat((), n)


def enumerate_labeled_words(group: FiniteGroup, max_gens: int,
                            budget_per_shape: int = 50):
    """All (budgeted) consistent labelings of all words with <= max_gens
    generators; deterministic order.  ``budget_per_shape`` must be at least
    1.

    A shape with width input labels and free values (an ``id``'s conjugator,
    a ``copants``'s first split label) has |G|^width labelings, in
    ``itertools.product`` order; every step-th one is kept, step being the
    least that keeps at most ``budget_per_shape``, and a kept labeling that
    puts a non-identity label on a cup is dropped.  The kept labelings of a
    shape are decoded and labeled together as integer arrays
    (``_labeling_digits``, ``_label_rows``), and read back as Python ints.
    """
    if budget_per_shape < 1:
        raise InputError("need a labeling budget of at least 1 per shape, got %d"
                         % budget_per_shape)
    out = []
    for shape in _enumerate_shapes(max_gens):
        n_free = sum(g is ID or g is COPANTS for layer in shape.layers for g in layer)
        width = shape.arity_in + n_free
        step = max(1, -(-group.order ** width // budget_per_shape))
        digits = _labeling_digits(group.order, width, step)
        boundaries, annots, keep = _label_rows(group, shape, digits)
        # every column masked and read back as Python ints by one call, then
        # taken in the same order to zip the rows together
        columns = [a for labels in boundaries for a in labels]
        columns += [a for row in annots for ann in row if ann is not None
                    for a in (ann if type(ann) is tuple else (ann,))]
        values = iter(np.array(columns)[:, keep].tolist())
        n = int(np.count_nonzero(keep))
        bounds = [_rows([next(values) for _ in labels], n) for labels in boundaries]
        layers = [_rows([itertools.repeat(None, n) if ann is None
                         else zip(next(values), next(values)) if type(ann) is tuple
                         else next(values) for ann in row], n) for row in annots]
        out += map(LabeledBordism, itertools.repeat(group, n), itertools.repeat(shape, n),
                   zip(*bounds), zip(*layers))
    return out


# ---------------------------------------------------------------------------
# bundle file format

def parse_bundle(text: str, group: FiniteGroup, exact=True,
                 tol=DEFAULT_TOL) -> CrossedBundle:
    """Parse the bundle block format against a known group; ``tol`` is the
    bundle's float-mode tolerance."""
    dims = {}
    raw = {family: {} for family in FAMILIES}
    ends = {}  # the unit and counit
    try:
        for number, line in content_lines(text):
            if line.startswith("bundle over"):
                continue
            if line.startswith("fiber "):
                toks = line.split()
                if len(toks) != 4 or toks[2] != "dim":
                    raise BundleError("bad fiber line")
                g = group.index(toks[1])
                if g in dims:
                    raise BundleError("repeated fiber %s" % toks[1])
                dims[g] = d = parse_int(toks[3], "fiber dimension")
                if d < 1:
                    raise BundleError("fiber dimension must be positive")
                continue
            head, _, body = line.partition(":")
            toks = head.split()
            vals = parse_scalars(body.split(), exact)
            if len(toks) == 3 and toks[0] in raw:
                seen, key = raw[toks[0]], (group.index(toks[1]), group.index(toks[2]))
            elif toks in (["unit"], ["counit"]):
                seen, key = ends, toks[0]
            else:
                raise BundleError("unexpected line")
            if key in seen:
                raise BundleError("repeated %s" % " ".join(toks))
            seen[key] = number, line, vals
    except InputError as exc:
        raise exc.at_line(number, line)
    if len(dims) != group.order:
        raise BundleError("need a fiber line for every group element")
    if len(ends) != 2:
        raise BundleError("unit and counit blocks are required")
    dims = tuple(dims[g] for g in group.elements())

    def block(entry, shape):
        number, line, vals = entry
        if len(vals) != math.prod(shape):
            raise BundleError("want %d entries, got %d" % (math.prod(shape), len(vals))) \
                .at_line(number, line)
        return Tensor(np.array(vals, dtype=object).reshape(shape), exact=exact)

    blocks = {family: {} for family in FAMILIES}
    for family, key, shape in _block_shapes(group, dims):
        if key in raw[family]:
            blocks[family][key] = block(raw[family][key], shape)
        elif family == "transport":
            raise BundleError("missing required block %s" % (key,))
        elif math.prod(shape) > np.iinfo(np.intp).max // 8:  # numpy's "array is too big"
            raise BundleError("omitted %s %s %s block of shape %s is too big"
                              % (family, group.labels[key[0]], group.labels[key[1]],
                                 shape))
        else:  # omitted fusion and fission blocks are zero
            blocks[family][key] = Tensor.zeros(shape, exact=exact)
    e = (dims[group.identity],)
    return CrossedBundle(group=group, dims=dims, unit=block(ends["unit"], e),
                         counit=block(ends["counit"], e), tol=tol, **blocks)


def format_bundle(bundle: CrossedBundle, group_filename: str) -> str:
    G = bundle.group
    lines = ["bundle over %s" % group_filename]
    for g in G.elements():
        lines.append("fiber %s dim %d" % (G.labels[g], bundle.dims[g]))

    for family, key, _ in _block_shapes(G, bundle.dims):
        entries = getattr(bundle, family)[key].entries()
        # zero fusion and fission blocks are left out; they read back as zero
        if family == "transport" or any(entries):
            vals = " ".join(format_scalar(x) for x in entries)
            lines.append("%s %s %s : %s" % (family, G.labels[key[0]],
                                            G.labels[key[1]], vals))
    lines.append("unit : " + " ".join(format_scalar(x) for x in bundle.unit.entries()))
    lines.append("counit : " + " ".join(format_scalar(x) for x in bundle.counit.entries()))
    return "\n".join(lines) + "\n"


def load_bundle(path: str, exact=True, tol=DEFAULT_TOL):
    """Load a bundle file; the header references the group file by path.
    ``tol`` is the bundle's float-mode tolerance."""
    text, group = load_over(path, "bundle", BundleError)
    return parse_bundle(text, group, exact=exact, tol=tol)
