"""G-graded Frobenius bundles with flat transport over the loops of BG.

Fibers are indexed by group elements (the holonomy of the loop), fusion and
fission move between concatenated loops, and parallel transport conjugates
the grading.  Both directions of the correspondence with labeled-bordism
evaluators live here: `evaluate_labeled` turns a bundle into an evaluator,
`tft_to_bundle` extracts a bundle from an evaluator oracle.

`validate_bundle` does not walk the gradings one by one.  It stacks each
family of blocks once into a zero-padded object array of numerators, of
shape (|G|, |G|, D, D, D) for fusion and fission and (|G|, |G|, D, D) for
transport, D being the largest fiber dimension, and checks each axiom over
all its gradings in one gathered ``np.einsum`` contraction.  Padding is zero
on both sides of every comparison, so each failing grading reports the same
first witness as a block-by-block check; the tests hold it to that loop.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .bordism import ARITY, BordismWord, Gen, contract_word, layer_arity
from .frobenius import FrobeniusAlgebra, comultiplication, ground_field
from .groups import FiniteGroup, LoopWord, load_over
from .report import ValidationReport
from .tensor import (DEFAULT_TOL, Tensor, differences, equal, first_difference,
                     invert_matrix, parse_scalar, format_scalar, permute, tensordot)


class BundleError(ValueError):
    """Structural problem with bundle data (shapes, missing blocks)."""


class LabelError(ValueError):
    """Inconsistent G-labels on a bordism word."""


class ExtractionError(ValueError):
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

    def __post_init__(self):
        G = self.group
        if len(self.dims) != G.order or any(d <= 0 for d in self.dims):
            raise BundleError("need a positive fiber dimension per group element")
        e = G.identity
        if self.unit.shape != (self.dims[e],):
            raise BundleError("unit must live in the identity fiber")
        if self.counit.shape != (self.dims[e],):
            raise BundleError("counit must live on the identity fiber")
        # validate_bundle contracts stacked numerators, past tensordot's
        # mode check, so every block must share the unit's mode
        mode = {True: "exact", False: "float"}
        if self.counit.exact != self.exact:
            raise BundleError("mixed scalar modes: the counit is %s, the unit %s"
                              % (mode[self.counit.exact], mode[self.exact]))
        for family, key, want in _block_shapes(G, self.dims):
            blocks = getattr(self, family)
            if key not in blocks:
                raise BundleError("missing %s block (%d,%d)" % ((family,) + key))
            if blocks[key].shape != want:
                raise BundleError("%s (%d,%d) has shape %s, want %s"
                                  % ((family,) + key + (blocks[key].shape, want)))
            if blocks[key].exact != self.exact:
                raise BundleError("mixed scalar modes: %s (%d,%d) is %s, the unit %s"
                                  % ((family,) + key + (mode[blocks[key].exact],
                                                        mode[self.exact])))

    @property
    def exact(self):
        return self.unit.exact

    @cached_property
    def identities(self):
        """The identity map of each fiber, by group element, built once."""
        return tuple(Tensor.identity(d, exact=self.exact) for d in self.dims)

    def __eq__(self, other):
        if not isinstance(other, CrossedBundle):
            return NotImplemented
        if self.group != other.group or self.dims != other.dims:
            return False
        tol = max(self.tol, other.tol)
        return (all(equal(getattr(self, family)[key], getattr(other, family)[key], tol)
                    for family, key, _ in _block_shapes(self.group, self.dims))
                and equal(self.unit, other.unit, tol)
                and equal(self.counit, other.counit, tol))


FAMILIES = ("fusion", "fission", "transport")


def _block_shapes(group: FiniteGroup, dims):
    """Yield (family, key, shape) for every block of a bundle over ``group``
    with fiber dimensions ``dims``: family by family in ``FAMILIES`` order,
    keys in lexicographic order."""
    pairs = list(itertools.product(group.elements(), repeat=2))
    for g, h in pairs:
        yield "fusion", (g, h), (dims[g], dims[h], dims[group.mul(g, h)])
    for g, h in pairs:
        yield "fission", (g, h), (dims[group.mul(g, h)], dims[g], dims[h])
    for k, g in pairs:
        yield "transport", (k, g), (dims[g], dims[group.conj(k, g)])


# ---------------------------------------------------------------------------
# validation

def _stacked(blocks, lead, width, exact):
    """The tensors of ``blocks`` (index tuple over ``lead`` -> Tensor, all
    of one rank) as one object array of shape ``lead + (width,) * rank``:
    each block's numerators over the blocks' common den, zero-padded to
    ``width`` on every leg.  Returns (numerators, den)."""
    den = math.lcm(*(t.den for t in blocks.values()))
    full = (width,) * next(iter(blocks.values())).rank
    out = np.full(lead + full, 0 if exact else complex(0), dtype=object)
    for key, t in blocks.items():
        nums = t.nums if t.den == den else t.nums * (den // t.den)
        if nums.shape == full:
            out[key] = nums
        else:
            out[key + tuple(map(slice, nums.shape))] = nums
    return out, den


def validate_bundle(bundle: CrossedBundle) -> ValidationReport:
    """Enumerate every defining condition over all gradings.

    Each family of blocks is stacked once (see ``_stacked``), padded to the
    largest fiber dimension D, and each axiom is one contraction over all
    its gradings at once: both sides are gathered from the stacks through
    the group's multiplication and conjugation tables and contracted with
    ``np.einsum`` on the object arrays, pairwise in the order of the
    definition.  A grading fails when its two padded blocks differ
    (``tensor.differences``).  Padding is zero on both sides, so the first
    row-major differing index of a padded block is that of the block
    itself: the witnesses are those of comparing block by block, also for
    unequal fiber dimensions.  Violations come grading by grading in
    row-major order, with the axioms of one loop over gradings interleaved
    in the order they are checked below.  The largest intermediate holds
    |G|^3 D^4 entries.
    """
    G, dims, exact, tol = bundle.group, bundle.dims, bundle.exact, bundle.tol
    n, w, e = G.order, max(dims), G.identity
    mu, dmu = _stacked(bundle.fusion, (n, n), w, exact)
    nu, dnu = _stacked(bundle.fission, (n, n), w, exact)
    P, dP = _stacked(bundle.transport, (n, n), w, exact)
    u, du = _stacked({(): bundle.unit}, (), w, exact)
    eps, deps = _stacked({(): bundle.counit}, (), w, exact)
    ident, _ = _stacked({(g,): t for g, t in enumerate(bundle.identities)},
                        (n,), w, exact)
    mul = np.array(G.table)
    conj = np.array([[G.conj(k, g) for g in range(n)] for k in range(n)])
    ein = np.einsum
    report = ValidationReport()

    def witnesses(lhs, lhs_den, rhs, rhs_den):
        """{i: first index where the blocks lhs[i] and rhs[i] differ}."""
        bad = differences(Tensor.from_nums(lhs, lhs_den, exact),
                          Tensor.from_nums(rhs, rhs_den, exact), tol)
        bad = bad.reshape(len(bad), -1)
        return {int(i): tuple(int(x) for x in
                              np.unravel_index(int(bad[i].argmax()), lhs.shape[1:]))
                for i in np.flatnonzero(bad.any(axis=1))}

    def fail(gradings, checks):
        """Report each (axiom, tag, witnesses) of ``checks`` at grading
        ``gradings[:, i] + tag``, grading by grading, in the order given."""
        for i in sorted(set().union(*(wit for _, _, wit in checks))):
            grading = tuple(int(x) for x in gradings[:, i])
            for axiom, tag, wit in checks:
                if i in wit:
                    report.fail(axiom, grading + tag + wit[i])

    triples = np.indices((n, n, n)).reshape(3, -1)

    report.check("fusion-transport")
    report.check("fission-transport")
    k, g, h = triples
    gh, gc, hc = mul[g, h], conj[k, g], conj[k, h]
    # P_k . mu_{g,h} = mu_{g',h'} . (P_k x P_k), legs (a, b, y)
    lhs = ein("nabx,nxy->naby", mu[g, h], P[k, gh])
    rhs = ein("nbj,najy->naby", P[k, h], ein("nai,nijy->najy", P[k, g], mu[gc, hc]))
    fusion = witnesses(lhs, dmu * dP, rhs, dP * dP * dmu)
    # nu_{g',h'} . P_k = (P_k x P_k) . nu_{g,h}, legs (x, i, j)
    lhs = ein("nxy,nyij->nxij", P[k, gh], nu[gc, hc])
    rhs = ein("nxbi,nbj->nxij", ein("nxab,nai->nxbi", nu[g, h], P[k, g]), P[k, h])
    fission = witnesses(lhs, dP * dnu, rhs, dnu * dP * dP)
    fail(triples, [("fusion-transport", (), fusion),
                   ("fission-transport", (), fission)])

    report.check("associativity")
    report.check("coassociativity")
    report.check("frobenius")
    g, h, k = triples
    gh, hk = mul[g, h], mul[h, k]
    # legs (a, b, c, d)
    assoc = witnesses(ein("nabx,nxcd->nabcd", mu[g, h], mu[gh, k]), dmu * dmu,
                      ein("nbcx,naxd->nabcd", mu[h, k], mu[g, hk]), dmu * dmu)
    # legs (x, a, b, c)
    coassoc = witnesses(ein("nxyc,nyab->nxabc", nu[gh, k], nu[g, h]), dnu * dnu,
                        ein("nxay,nybc->nxabc", nu[g, hk], nu[h, k]), dnu * dnu)
    # nu_{g,hk} . mu_{gh,k} = (id x mu_{h,k}) . (nu_{g,h} x id), legs (p, q, r, s)
    frob = witnesses(ein("npqz,nzrs->npqrs", mu[gh, k], nu[g, hk]), dmu * dnu,
                     ein("nprz,nzqs->npqrs", nu[g, h], mu[h, k]), dnu * dmu)
    # nu_{gh,k} . mu_{g,hk} = (mu_{g,h} x id) . (id x nu_{h,k}), legs (p, q, r, s)
    frob_rev = witnesses(ein("npqz,nzrs->npqrs", mu[g, hk], nu[gh, k]), dmu * dnu,
                         ein("nqzs,npzr->npqrs", nu[h, k], mu[g, h]), dnu * dmu)
    fail(triples, [("associativity", (), assoc), ("coassociativity", (), coassoc),
                   ("frobenius", (), frob), ("frobenius", ("rev",), frob_rev)])

    singles = np.arange(n)[None]
    report.check("unit-transport")
    units = witnesses(ein("x,nxy->ny", u, P[:, e]), du * dP,
                      np.broadcast_to(u, (n, w)), du)
    counits = witnesses(ein("nxy,y->nx", P[:, e], eps), dP * deps,
                        np.broadcast_to(eps, (n, w)), deps)
    fail(singles, [("unit-transport", (), units),
                   ("unit-transport", ("counit",), counits)])

    report.check("unit")
    report.check("counit")
    units = witnesses(ein("nayb,y->nab", mu[:, e], u), dmu * du, ident, 1)
    counits = witnesses(ein("naby,y->nab", nu[:, e], eps), dnu * deps, ident, 1)
    fail(singles, [("unit", (), units), ("counit", (), counits)])

    report.check("nondegeneracy")
    pair = tensordot(bundle.fusion[e, e], bundle.counit, [2], [0])
    if invert_matrix(pair, tol) is None:
        report.fail("nondegeneracy", ())

    report.check("flatness")
    fail(np.stack([np.full(n, e), np.arange(n)]),
         [("flatness", (), witnesses(P[e], dP, ident, 1))])
    k, l, g = triples
    fail(triples, [("flatness", (), witnesses(
        ein("nay,nyb->nab", P[l, g], P[k, conj[l, g]]), dP * dP, P[mul[k, l], g], dP))])
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
    delta = comultiplication(algebra)
    ident = Tensor.identity(n, exact=algebra.exact)
    els = list(group.elements())
    fusion = {(g, h): algebra.mul for g in els for h in els}
    fission = {(g, h): delta for g in els for h in els}
    transport = {(k, g): ident for k in els for g in els}
    return CrossedBundle(group=group, dims=(n,) * group.order,
                         fusion=fusion, fission=fission, transport=transport,
                         unit=algebra.unit, counit=algebra.counit, tol=algebra.tol)


def derive_fission(bundle: CrossedBundle) -> dict:
    """Derive fission from fusion and the graded pairing, when invertible.

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

    @property
    def out_labels(self):
        return self.boundaries[-1]

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
    if annotations is None:
        annotations = tuple(tuple(None for _ in layer) for layer in word.layers)
    annotations = tuple(tuple(layer) for layer in annotations)
    if len(annotations) != len(word.layers) or any(
            len(a) != len(layer) for a, layer in zip(annotations, word.layers)):
        raise LabelError("annotation shape does not match the word")

    boundaries = [in_labels]
    norm_annots = []
    for t, (layer, annot) in enumerate(zip(word.layers, annotations)):
        labels, norm = _label_layer(group, layer, annot, boundaries[-1], t)
        boundaries.append(labels)
        norm_annots.append(norm)
    return LabeledBordism(group=group, word=word,
                          boundaries=tuple(boundaries),
                          annotations=tuple(norm_annots))


def _label_layer(group: FiniteGroup, layer, annot, cur, t):
    """The labels below layer t, given the labels ``cur`` above it, and the
    layer's normalized annotations (see ``label_word``), as two tuples."""
    e = group.identity
    nxt = []
    norm = []
    qi = 0
    for gen, ann in zip(layer, annot):
        a_in = ARITY[gen][0]
        ins = cur[qi:qi + a_in]
        qi += a_in
        if gen is Gen.ID:
            k = e if ann is None else int(ann)
            nxt.append(group.conj(k, ins[0]))
            norm.append(k)
        elif gen is Gen.SWAP:
            nxt.extend([ins[1], ins[0]])
            norm.append(None)
        elif gen is Gen.CAP:
            nxt.append(e)
            norm.append(None)
        elif gen is Gen.CUP:
            if ins[0] != e:
                raise LabelError(
                    "cup on a non-identity label %r (layer %d)"
                    % (group.labels[ins[0]], t))
            norm.append(None)
        elif gen is Gen.PANTS:
            nxt.append(group.mul(ins[0], ins[1]))
            norm.append(None)
        elif gen is Gen.COPANTS:
            if ann is None:
                raise LabelError("copants at layer %d needs a (g,h) split" % t)
            sg, sh = int(ann[0]), int(ann[1])
            if group.mul(sg, sh) != ins[0]:
                raise LabelError(
                    "copants split (%s,%s) does not multiply to %s (layer %d)"
                    % (group.labels[sg], group.labels[sh],
                       group.labels[ins[0]], t))
            nxt.extend([sg, sh])
            norm.append((sg, sh))
    return tuple(nxt), tuple(norm)


def conjugate_labeled(b: LabeledBordism, k) -> LabeledBordism:
    """Relabel the whole surface by simultaneous conjugation with k."""
    G = b.group
    new_in = tuple(G.conj(k, g) for g in b.in_labels)
    annots = []
    for layer, ann in zip(b.word.layers, b.annotations):
        row = []
        for gen, a in zip(layer, ann):
            if gen is Gen.ID:
                row.append(G.mul(G.mul(k, a), G.inverse(k)))
            elif gen is Gen.COPANTS:
                row.append((G.conj(k, a[0]), G.conj(k, a[1])))
            else:
                row.append(None)
        annots.append(tuple(row))
    return label_word(G, b.word, new_in, tuple(annots))


def insert_identity_layer(b: LabeledBordism, at: int) -> LabeledBordism:
    """Insert an all-identity-cylinder layer at boundary `at`."""
    G = b.group
    width = len(b.boundaries[at])
    new_layers = b.word.layers[:at] + (tuple([Gen.ID] * width),) + b.word.layers[at:]
    new_annots = (b.annotations[:at] + (tuple([G.identity] * width),)
                  + b.annotations[at:])
    return label_word(G, BordismWord(new_layers), b.in_labels, new_annots)


def insert_conjugation_pair(b: LabeledBordism, at: int, k) -> LabeledBordism:
    """Insert transport by k then by k^-1 at boundary `at` (a homotopy)."""
    G = b.group
    width = len(b.boundaries[at])
    lay = tuple([Gen.ID] * width)
    new_layers = b.word.layers[:at] + (lay, lay) + b.word.layers[at:]
    new_annots = (b.annotations[:at]
                  + (tuple([k] * width), tuple([G.inverse(k)] * width))
                  + b.annotations[at:])
    return label_word(G, BordismWord(new_layers), b.in_labels, new_annots)


# ---------------------------------------------------------------------------
# labeled surface text format

def parse_labeled(text: str, group: FiniteGroup) -> LabeledBordism:
    """Parse `pants[g,h] ; id[k] ; cup[]`-style labeled words.

    First-layer factors must determine their input labels: `pants[g,h]` and
    `swap[g,h]` list inputs, `copants[g,h]` lists its output split (input is
    the product), `id[k,g]` gives conjugator and input, `id[g]` means plain
    cylinder on label g.  In later layers labels propagate; `id[k]` is the
    conjugating cylinder and `pants[g,h]` / `swap[g,h]` act as assertions.
    """
    src = " ".join(ln.split("#", 1)[0] for ln in text.splitlines())
    layer_texts = [lt.strip() for lt in src.split(";")]
    layers = []
    raw = []
    for lt in layer_texts:
        if not lt:
            raise LabelError("empty layer in labeled word")
        factors = [f.strip() for f in lt.split("*")]
        gens = []
        anns = []
        for f in factors:
            name, bracket, rest = f.partition("[")
            name = name.strip()
            args = []
            if bracket:
                if not rest.endswith("]"):
                    raise LabelError("missing ']' in %r" % f)
                body = rest[:-1].strip()
                if body:
                    args = [group.index(tok.strip()) for tok in body.split(",")]
            try:
                gen = {g.value: g for g in Gen}[name]
            except KeyError:
                raise LabelError("unknown generator %r" % name) from None
            gens.append(gen)
            anns.append(tuple(args))
        layers.append(tuple(gens))
        raw.append(tuple(anns))
    word = BordismWord(tuple(layers))

    # first-layer annotations fix the word inputs
    in_labels = []
    e = group.identity
    for gen, args in zip(layers[0], raw[0]):
        if gen is Gen.ID:
            if len(args) == 2:
                in_labels.append(args[1])
            elif len(args) == 1:
                in_labels.append(args[0])
            else:
                raise LabelError("first-layer id needs [k,g] or [g]")
        elif gen in (Gen.PANTS, Gen.SWAP):
            if len(args) != 2:
                raise LabelError("first-layer %s needs [g,h]" % gen.value)
            in_labels.extend(args)
        elif gen is Gen.COPANTS:
            if len(args) != 2:
                raise LabelError("copants needs a [g,h] split")
            in_labels.append(group.mul(args[0], args[1]))
        elif gen is Gen.CUP:
            in_labels.append(e)
        # CAP adds no inputs

    annotations = []
    for t, (layer, anns) in enumerate(zip(layers, raw)):
        row = []
        for gen, args in zip(layer, anns):
            if gen is Gen.ID:
                if t == 0:
                    row.append(args[0] if len(args) == 2 else e)
                else:
                    if len(args) > 1:
                        raise LabelError("id takes at most one conjugator")
                    row.append(args[0] if args else e)
            elif gen is Gen.COPANTS:
                if len(args) != 2:
                    raise LabelError("copants needs a [g,h] split")
                row.append((args[0], args[1]))
            else:
                row.append(None)
        annotations.append(tuple(row))
    b = label_word(group, word, tuple(in_labels), tuple(annotations))

    # check assertion-style annotations on later layers
    for t in range(1, len(layers)):
        qi = 0
        for gen, args in zip(layers[t], raw[t]):
            ins = b.boundaries[t][qi:qi + ARITY[gen][0]]
            qi += ARITY[gen][0]
            if gen in (Gen.PANTS, Gen.SWAP) and args:
                if tuple(args) != tuple(ins):
                    raise LabelError(
                        "%s[%s] disagrees with propagated labels %s (layer %d)"
                        % (gen.value,
                           ",".join(group.labels[a] for a in args),
                           tuple(group.labels[i] for i in ins), t))
    return b


def format_labeled(b: LabeledBordism) -> str:
    G = b.group
    parts = []
    for t, (layer, ann) in enumerate(zip(b.word.layers, b.annotations)):
        qi = 0
        factors = []
        for gen, a in zip(layer, ann):
            ins = b.boundaries[t][qi:qi + ARITY[gen][0]]
            qi += ARITY[gen][0]
            if gen is Gen.ID:
                if t == 0:
                    factors.append("id[%s,%s]" % (G.labels[a], G.labels[ins[0]]))
                else:
                    factors.append("id[%s]" % G.labels[a])
            elif gen is Gen.COPANTS:
                factors.append("copants[%s,%s]" % (G.labels[a[0]], G.labels[a[1]]))
            elif gen in (Gen.PANTS, Gen.SWAP) and t == 0:
                factors.append("%s[%s,%s]" % (gen.value,
                                              G.labels[ins[0]], G.labels[ins[1]]))
            elif gen is Gen.CAP:
                factors.append("cap[]")
            elif gen is Gen.CUP:
                factors.append("cup[]")
            else:
                factors.append(gen.value)
        parts.append(" * ".join(factors))
    return " ; ".join(parts)


# ---------------------------------------------------------------------------
# evaluation

def evaluate_labeled(b: LabeledBordism, bundle: CrossedBundle) -> Tensor:
    """Linear map between the labeled boundary fibers; legs [ins..., outs...].

    ``bordism.contract_word`` over the bundle's blocks, with the block of
    each generator picked by the labels: ``id[k]`` is transport
    by k, ``pants`` is fusion, ``copants`` fission, and ``cap``/``cup`` are
    the unit/counit.
    """
    if b.group != bundle.group:
        raise BundleError("bordism and bundle are over different groups")

    def lookup(g, t, j, q):
        labels = b.boundaries[t]
        if g is Gen.ID:
            return bundle.transport[b.annotations[t][j], labels[q]]
        if g is Gen.PANTS:
            return bundle.fusion[labels[q], labels[q + 1]]
        if g is Gen.COPANTS:
            return bundle.fission[b.annotations[t][j]]
        return bundle.unit if g is Gen.CAP else bundle.counit

    identities = bundle.identities
    return contract_word(b.word, lookup, lambda i: identities[b.in_labels[i]],
                         bundle.exact, carry=False)


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


def tft_to_bundle(oracle: TftOracle, group: FiniteGroup = None) -> CrossedBundle:
    """Extract fusion, fission, transport and (co)units from an oracle."""
    G = oracle.group if group is None else group
    e = G.identity
    for g in G.elements():
        t = oracle.evaluate(_single(G, [Gen.ID], (g,), [e]))
        if not equal(t, Tensor.identity(oracle.dims[g], exact=t.exact), oracle.tol):
            raise ExtractionError(
                "identity-preservation fails: the plain cylinder on label %r "
                "is not the identity map" % G.labels[g])
    transport = {}
    for k in G.elements():
        for g in G.elements():
            transport[k, g] = oracle.evaluate(_single(G, [Gen.ID], (g,), [k]))
    fusion = {}
    fission = {}
    for g in G.elements():
        for h in G.elements():
            fusion[g, h] = oracle.evaluate(
                _single(G, [Gen.PANTS], (g, h), [None]))
            fission[g, h] = oracle.evaluate(
                _single(G, [Gen.COPANTS], (G.mul(g, h),), [(g, h)]))
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
    oracle = TftOracle.from_bundle(bundle)
    rebuilt = tft_to_bundle(oracle)
    if rebuilt.dims != bundle.dims:
        report.fail("bundle-reconstruction", ("dims",))
    for family, key, _ in _block_shapes(bundle.group, bundle.dims):
        if not equal(getattr(rebuilt, family)[key], getattr(bundle, family)[key], tol):
            report.fail("bundle-reconstruction", (family,) + key)
    if not equal(rebuilt.unit, bundle.unit, tol):
        report.fail("bundle-reconstruction", ("unit",))
    if not equal(rebuilt.counit, bundle.counit, tol):
        report.fail("bundle-reconstruction", ("counit",))
    for i, b in enumerate(test_words):
        if not equal(evaluate_labeled(b, rebuilt), evaluate_labeled(b, bundle), tol):
            report.fail("evaluator-agreement", (i,))
    return report


# ---------------------------------------------------------------------------
# Frobenius actions, rotations, higher (co)associativity

def frobenius_action(bundle: CrossedBundle, g):
    """Module/comodule structure of the identity fiber on fiber g."""
    e = bundle.group.identity
    act, coact = bundle.fusion[e, g], bundle.fission[e, g]
    mu_e, nu_e = bundle.fusion[e, e], bundle.fission[e, e]
    report = ValidationReport()

    def check(axiom, lhs, rhs):
        report.check(axiom)
        idx = first_difference(lhs, rhs, bundle.tol)
        if idx is not None:
            report.fail(axiom, (g,) + idx)

    rhs = tensordot(act, act, [2], [1])                # (y, v, x, o)
    check("module", tensordot(mu_e, act, [2], [0]), permute(rhs, (2, 0, 1, 3)))
    lhs = tensordot(coact, coact, [2], [0])            # (v, x, y, o)
    rhs = tensordot(coact, nu_e, [1], [0])             # (v, o, x, y)
    check("comodule", lhs, permute(rhs, (0, 2, 3, 1)))
    lhs = tensordot(act, coact, [2], [0])              # (x, v, y, o)
    rhs = tensordot(coact, mu_e, [1], [1])             # (v, o, x, y)
    check("compatibility-square", lhs, permute(rhs, (2, 0, 3, 1)))
    return act, coact, report


def rotation_transport(w: LoopWord, j: int, bundle: CrossedBundle) -> Tensor:
    """Transport realizing rotation of the loop word by j positions."""
    n = len(w)
    if not 0 <= j <= n:
        raise ValueError("rotation offset %d out of range for length %d" % (j, n))
    G = bundle.group
    k = G.inverse(w.prefix_product(G, j))
    return bundle.transport[k, w.evaluate(G)]


def _binary_trees(lo, hi):
    """All binary trees over leaves lo..hi-1, as nested tuples."""
    if hi - lo == 1:
        return [lo]
    out = []
    for mid in range(lo + 1, hi):
        for left in _binary_trees(lo, mid):
            for right in _binary_trees(mid, hi):
                out.append((left, right))
    return out


def nfold_fission_check(bundle: CrossedBundle, gs) -> ValidationReport:
    """All bracketings of n-fold fusion and fission towers must agree."""
    gs = list(gs)
    n = len(gs)
    if n > 5:
        raise ValueError("towers are checked for n <= 5")
    G = bundle.group
    report = ValidationReport()
    report.check("higher-associativity")
    report.check("higher-coassociativity")
    if n < 2:
        return report

    # the bracketings share subtrees: each is contracted once per call
    @lru_cache(maxsize=None)
    def mu_tower(tree):
        """Tensor with legs [leaves..., out]; returns (tensor, product)."""
        if isinstance(tree, int):
            return bundle.identities[gs[tree]], gs[tree]
        tl, pl = mu_tower(tree[0])
        tr, pr = mu_tower(tree[1])
        mu = bundle.fusion[pl, pr]
        t = tensordot(tl, mu, [tl.rank - 1], [0])        # [leavesL, b, c]
        t = tensordot(t, tr, [tl.rank - 1], [tr.rank - 1])
        # legs now [leavesL, c, leavesR]; move c to the end
        r = t.rank
        nl = tl.rank - 1
        perm = list(range(nl)) + list(range(nl + 1, r)) + [nl]
        return permute(t, perm), G.mul(pl, pr)

    @lru_cache(maxsize=None)
    def nu_tower(tree):
        """Tensor with legs [in, leaves...]; returns (tensor, product)."""
        if isinstance(tree, int):
            return bundle.identities[gs[tree]], gs[tree]
        tl, pl = nu_tower(tree[0])
        tr, pr = nu_tower(tree[1])
        nu = bundle.fission[pl, pr]
        t = tensordot(nu, tl, [1], [0])                  # [in, right_in, leavesL]
        t = tensordot(t, tr, [1], [0])                   # [in, leavesL, leavesR]
        return t, G.mul(pl, pr)

    trees = _binary_trees(0, n)
    ref_mu, _ = mu_tower(trees[0])
    ref_nu, _ = nu_tower(trees[0])
    for i, tree in enumerate(trees[1:], start=1):
        t, _ = mu_tower(tree)
        if not equal(t, ref_mu, bundle.tol):
            report.fail("higher-associativity", (tuple(gs), 0, i))
        t, _ = nu_tower(tree)
        if not equal(t, ref_nu, bundle.tol):
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
    handles = [tuple(h) for h in handles]
    if len(handles) != genus:
        raise LabelError("genus %d needs %d handle label pairs" % (genus, genus))
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

def _enumerate_shapes(max_gens):
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
        prev_out = layer_arity(layers[-1])[1] if layers else None
        if layers:
            candidates = layers_from(prev_out, max_gens - used)
        else:
            candidates = []
            for size in range(1, max_gens + 1):
                for combo in itertools.product(Gen, repeat=size):
                    candidates.append(tuple(combo))
        for layer in candidates:
            if len(layer) + used > max_gens:
                continue
            extend(layers + [layer], used + len(layer))

    extend([], 0)
    return results


def enumerate_labeled_words(group: FiniteGroup, max_gens: int,
                            budget_per_shape: int = 50):
    """All (budgeted) consistent labelings of all words with <= max_gens
    generators; deterministic order.  ``budget_per_shape`` must be at least
    1."""
    if budget_per_shape < 1:
        raise ValueError("need a labeling budget of at least 1 per shape, got %d"
                         % budget_per_shape)
    out = []
    for shape in _enumerate_shapes(max_gens):
        n_in = shape.arity_in
        n_free = sum(g in (Gen.ID, Gen.COPANTS) for layer in shape.layers for g in layer)
        total = group.order ** (n_in + n_free)
        step = max(1, -(-total // budget_per_shape))
        labelings = itertools.product(group.elements(), repeat=n_in + n_free)
        for combo in itertools.islice(labelings, 0, None, step):
            # a free value is the conjugator of an id, or the first label of
            # a copants split, whose second label it then fixes
            frees = iter(combo[n_in:])
            boundaries = [combo[:n_in]]
            annots = []
            try:
                for t, layer in enumerate(shape.layers):
                    cur = boundaries[-1]
                    row = []
                    qi = 0
                    for g in layer:
                        if g is Gen.ID:
                            row.append(next(frees))
                        elif g is Gen.COPANTS:
                            first = next(frees)
                            row.append((first, group.mul(group.inverse(first), cur[qi])))
                        else:
                            row.append(None)
                        qi += ARITY[g][0]
                    labels, norm = _label_layer(group, layer, row, cur, t)
                    boundaries.append(labels)
                    annots.append(norm)
            except LabelError:
                continue
            out.append(LabeledBordism(group=group, word=shape,
                                      boundaries=tuple(boundaries),
                                      annotations=tuple(annots)))
    return out


# ---------------------------------------------------------------------------
# bundle file format

def parse_bundle(text: str, group: FiniteGroup, exact=True,
                 tol=DEFAULT_TOL) -> CrossedBundle:
    """Parse the bundle block format against a known group; ``tol`` is the
    bundle's float-mode tolerance."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    dims = {}
    raw = {family: {} for family in FAMILIES}
    unit = counit = None
    for ln in lines:
        if ln.startswith("bundle over"):
            continue
        if ln.startswith("fiber "):
            toks = ln.split()
            if len(toks) != 4 or toks[2] != "dim":
                raise BundleError("bad fiber line %r" % ln)
            dims[group.index(toks[1])] = d = int(toks[3])
            if d < 1:
                raise BundleError("fiber dimension must be positive in %r" % ln)
            continue
        head, _, body = ln.partition(":")
        toks = head.split()
        vals = [parse_scalar(t, exact) for t in body.split()]
        if len(toks) == 3 and toks[0] in raw:
            raw[toks[0]][group.index(toks[1]), group.index(toks[2])] = vals
        elif toks == ["unit"]:
            unit = vals
        elif toks == ["counit"]:
            counit = vals
        else:
            raise BundleError("unexpected line %r" % ln)
    if len(dims) != group.order:
        raise BundleError("need a fiber line for every group element")
    if unit is None or counit is None:
        raise BundleError("unit and counit blocks are required")

    blocks = {family: {} for family in FAMILIES}
    for family, key, shape in _block_shapes(group, dims):
        vals = raw[family].get(key)
        if vals is None:
            # omitted fusion and fission blocks are zero
            if family == "transport":
                raise BundleError("missing required block %s" % (key,))
            blocks[family][key] = Tensor.zeros(shape, exact=exact)
            continue
        if len(vals) != int(np.prod(shape)):
            raise BundleError("block %s has %d entries, want %d"
                              % (key, len(vals), int(np.prod(shape))))
        blocks[family][key] = Tensor(np.array(vals, dtype=object).reshape(shape),
                                     exact=exact)
    return CrossedBundle(group=group, dims=tuple(dims[g] for g in group.elements()),
                         unit=Tensor(unit, exact=exact),
                         counit=Tensor(counit, exact=exact), tol=tol, **blocks)


def format_bundle(bundle: CrossedBundle, group_filename: str) -> str:
    G = bundle.group
    lines = ["bundle over %s" % group_filename]
    for g in G.elements():
        lines.append("fiber %s dim %d" % (G.labels[g], bundle.dims[g]))

    for family, key, _ in _block_shapes(G, bundle.dims):
        t = getattr(bundle, family)[key]
        # zero fusion and fission blocks are left out; they read back as zero
        if family == "transport" or any(t.nums.flat):
            vals = " ".join(format_scalar(x) for x in t.entries())
            lines.append("%s %s %s : %s" % (family, G.labels[key[0]],
                                            G.labels[key[1]], vals))
    lines.append("unit : " + " ".join(format_scalar(x) for x in bundle.unit.entries()))
    lines.append("counit : " + " ".join(format_scalar(x) for x in bundle.counit.entries()))
    return "\n".join(lines) + "\n"


def load_bundle(path: str, exact=True, tol=DEFAULT_TOL):
    """Load a bundle file; the header references the group file by path.
    ``tol`` is the bundle's float-mode tolerance."""
    text, group = load_over(path, "bundle")
    if group is None:
        raise BundleError("bundle file must start with 'bundle over <groupfile>'")
    return parse_bundle(text, group, exact=exact, tol=tol)
