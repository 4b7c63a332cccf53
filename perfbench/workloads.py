"""The three workloads of the tqft2d benchmark.

Each builder takes the imported ``tqft2d`` package, the workload seed and the
golden digests, and returns a Workload: the items of one pass, the order in
which a pass visits them, the op run on one item, and the correctness check
run on the first output of every item once timing is over.  Functions are
always looked up on the package at call time, so the tracer's patches apply.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# fuzz-pairs: a pass holds PAIRS_PER_ALGEBRA pairs per algebra, chosen from
# the pair seeds range(POOL) so that their sizes spread like the pool's
POOL = 1000
PAIRS_PER_ALGEBRA = 100
MAX_LAYERS = 8

# structure-checks: one pass of the mix and the cases it covers
INVARIANT_GENERA = range(41)
HOLONOMY_GENERA = (1, 2, 3)
GERBE_GENERA = range(1, 7)
NFOLD_SIZES = (4, 5)

# (inputs, outputs) of each generator, kept here so that the size key below
# rests on the word grammar and not on the package's internals
ARITY = {"id": (1, 1), "swap": (2, 2), "cap": (0, 1), "cup": (1, 0),
         "pants": (2, 1), "copants": (1, 2)}


@dataclass
class Workload:
    items: list                     # inputs of one pass
    order: list                     # item indices in the order a pass runs them
    op: Callable                    # op(item) -> (passed, output)
    check: Callable                 # check({index: output}) -> failing indices


def digest(*parts):
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:12]


def canon_tensor(t):
    """Shape and every entry as a reduced fraction, row-major."""
    return "%s:%s" % (",".join(map(str, t.shape)),
                      " ".join(str(Fraction(x)) for x in t.entries()))


def canon_report(report):
    return "%s|%s|%d" % (report.passed, ",".join(report.checked),
                         len(report.violations))


def shuffled(n, seed):
    """The order of a pass: the only input the seed changes."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order


# ---------------------------------------------------------------------------
# fuzz-pairs

def dense_size(pair, dim):
    """Entries a layer-by-layer outer-product evaluator touches, summed over
    both words: dim ** (word inputs + layer inputs + layer outputs) per layer."""
    total = 0
    for w in pair:
        for layer in w.layers:
            legs = sum(sum(ARITY[g.value]) for g in layer)
            total += dim ** (w.arity_in + legs)
    return total


def stratified_sample(pairs, dim):
    """PAIRS_PER_ALGEBRA pool indices whose sizes spread like the pool's.

    The pool is sorted by dense_size and cut into equal strata, and each
    stratum gives its middle pair.  The largest pair forms a stratum of its
    own, so the heaviest case of the pool is in every pass.
    """
    ranked = sorted(range(len(pairs)), key=lambda p: (dense_size(pairs[p], dim), p))
    rest, k = ranked[:-1], PAIRS_PER_ALGEBRA - 1
    cuts = [len(rest) * i // k for i in range(k + 1)]
    return [ranked[-1]] + [rest[(cuts[i] + cuts[i + 1]) // 2] for i in range(k)]


def fuzz_algebras(tq):
    return {"dual_numbers": tq.dual_numbers(),
            "group_center_S3": tq.group_center(tq.symmetric_group(3))}


def fuzz_corpus(tq):
    """(algebra name, algebra, pair seed, pair) for every item of a pass."""
    pool = [tq.random_equivalent_pair((p % 3, (p // 3) % 3), MAX_LAYERS, p)
            for p in range(POOL)]
    return [(name, algebra, p, pool[p])
            for name, algebra in fuzz_algebras(tq).items()
            for p in stratified_sample(pool, algebra.dim)]


def fuzz_output(tq, algebra, pair):
    """The op: both words are equivalent and evaluate to the same map."""
    w1, w2 = pair
    same = tq.equivalent(w1, w2)
    t1 = tq.evaluate(w1, algebra)
    t2 = tq.evaluate(w2, algebra)
    return same and tq.equal(t1, t2), t1


def fuzz_digest(pair, t):
    return digest(str(pair[0]), str(pair[1]), canon_tensor(t))


def build_fuzz_pairs(tq, seed, golden):
    items = fuzz_corpus(tq)

    def op(item):
        return fuzz_output(tq, item[1], item[3])

    def check(outputs):
        bad = set()
        for i, t in outputs.items():
            name, algebra, p, pair = items[i]
            if fuzz_digest(pair, t) != golden.get(name, {}).get(str(p)):
                bad.add(i)
            w1 = pair[0]
            if w1.arity_in == w1.arity_out == 0:
                # independent oracle: a closed word is the product of the
                # closed invariants of its components
                want = Fraction(1)
                for genus, _, _ in tq.topological_type(w1).components:
                    want *= Fraction(tq.closed_invariant(algebra, genus))
                if Fraction(t.item()) != want:
                    bad.add(i)
        return bad

    return Workload(items, shuffled(len(items), seed), op, check)


# ---------------------------------------------------------------------------
# labeled-roundtrip

def labeled_bundles(tq):
    """(name, bundle, enumeration budget per shape): the criterion 06 corpus."""
    z2, s3 = tq.cyclic_group(2), tq.symmetric_group(3)
    return [("Z2", tq.from_group_algebra(z2), 1000),
            ("S3", tq.from_group_algebra(s3), 12),
            ("Z2_dual", tq.from_frobenius_algebra(z2, tq.dual_numbers()), 60)]


def labeled_blocks(bundle):
    """Every tensor of a bundle, in a fixed order."""
    for kind in ("fusion", "fission", "transport"):
        blocks = getattr(bundle, kind)
        for key in sorted(blocks):
            yield blocks[key]
    yield bundle.unit
    yield bundle.counit


def labeled_corpus(tq):
    """(name, bundle, rebuilt bundle, words) per bundle."""
    corpus = []
    for name, bundle, budget in labeled_bundles(tq):
        words = tq.enumerate_labeled_words(bundle.group, 3, budget_per_shape=budget)
        rebuilt = tq.tft_to_bundle(tq.TftOracle.from_bundle(bundle))
        corpus.append((name, bundle, rebuilt, words))
    return corpus


def build_labeled_roundtrip(tq, seed, golden):
    corpus = labeled_corpus(tq)
    items = [(name, bundle, rebuilt, w)
             for name, bundle, rebuilt, words in corpus for w in words]

    def op(item):
        _, bundle, rebuilt, w = item
        t = tq.evaluate_labeled(w, bundle)
        return tq.equal(t, tq.evaluate_labeled(w, rebuilt)), t

    def check(outputs):
        bad = set()
        start = 0
        for name, bundle, rebuilt, words in corpus:
            span = range(start, start + len(words))
            start += len(words)
            same = bundle.dims == rebuilt.dims and all(map(
                tq.equal, labeled_blocks(bundle), labeled_blocks(rebuilt)))
            lines = [canon_tensor(outputs[i]) for i in span if i in outputs]
            if (not same or len(lines) != len(words)
                    or digest(*lines) != golden.get(name)):
                bad.update(span)
        return bad

    return Workload(items, shuffled(len(items), seed), op, check)


# ---------------------------------------------------------------------------
# structure-checks

README_COMMANDS = [
    ["validate", "--algebra", "fixtures/dual_numbers.fa"],
    ["validate", "--bundle", "fixtures/z2_dual.bundle"],
    ["eval", "--algebra", "dual_numbers", "--word", "cap ; copants"],
    ["invariant", "--algebra", "fixtures/s3_center.fa", "--genus", "2"],
    ["type", "--word", "pants ; copants"],
    ["holonomy", "--bundle", "fixtures/z2_dual.bundle", "--genus", "1",
     "--labels", "e,e"],
    ["holonomy", "--group", "fixtures/k4.group", "--surface",
     "fixtures/k4_torus.surface"],
    ["cocycle", "--cocycle", "fixtures/k4_anti.cocycle", "--genus", "1",
     "--labels", "10,01"],
]


class _Capture:
    """Keeps only the last line written, which the CLI makes the RESULT line."""

    def __init__(self):
        self.last = ""

    def write(self, text):
        lines = text.splitlines()
        if lines:
            self.last = lines[-1]


def structure_cases(tq):
    """(name, call) pairs of one pass; call() -> (passed, canonical output)."""
    import tqft2d.cli  # noqa: F401  (makes tq.cli available)

    s3 = tq.symmetric_group(3)
    s3_bundle = tq.from_group_algebra(s3)
    center = tq.group_center(s3)
    z2_dual = tq.load_bundle(str(FIXTURES / "z2_dual.bundle"))
    k4_anti = tq.load_cocycle(str(FIXTURES / "k4_anti.cocycle"))
    cases = []

    def cli(argv):
        argv = [str(ROOT / a) if a.startswith("fixtures/") else a for a in argv]

        def call():
            out = _Capture()
            rc = tq.cli.run(argv, out)
            return rc == 0 and out.last.startswith("RESULT: PASS"), \
                "%d|%s" % (rc, out.last)
        return call

    for argv in README_COMMANDS:
        cases.append(("cli " + " ".join(argv), cli(argv)))

    def validate():
        report = tq.validate_bundle(s3_bundle)
        return report.passed, canon_report(report)
    cases.append(("validate_bundle S3", validate))

    def action(g):
        def call():
            act, coact, report = tq.frobenius_action(s3_bundle, g)
            return report.passed, "%s|%s|%s" % (
                canon_tensor(act), canon_tensor(coact), canon_report(report))
        return call
    for g in s3.elements():
        cases.append(("frobenius_action S3 %d" % g, action(g)))

    def nfold(n):
        gs = [g % s3.order for g in range(1, n + 1)]

        def call():
            report = tq.nfold_fission_check(s3_bundle, gs)
            return report.passed, canon_report(report)
        return call
    for n in NFOLD_SIZES:
        cases.append(("nfold_fission_check S3 n=%d" % n, nfold(n)))

    def invariant(genus):
        return lambda: (True, str(Fraction(tq.closed_invariant(center, genus))))
    for genus in INVARIANT_GENERA:
        cases.append(("closed_invariant Z(S3) g=%d" % genus, invariant(genus)))

    def holonomy(genus):
        g = z2_dual.group
        handles = [(i % g.order, (i + 1) % g.order) for i in range(genus)]

        def call():
            b = tq.closed_surface_word(g, genus, handles)
            return True, str(Fraction(tq.holonomy(b, z2_dual)))
        return call
    for genus in HOLONOMY_GENERA:
        cases.append(("holonomy z2_dual g=%d" % genus, holonomy(genus)))

    def gerbe(genus):
        g = k4_anti.group
        handles = [(i % g.order, (i + 1) % g.order) for i in range(genus)]
        return lambda: (True, str(Fraction(tq.gerbe_holonomy(k4_anti, genus, handles))))
    for genus in GERBE_GENERA:
        cases.append(("gerbe_holonomy K4 g=%d" % genus, gerbe(genus)))
    return cases


def build_structure_checks(tq, seed, golden):
    items = structure_cases(tq)

    def op(item):
        return item[1]()

    def check(outputs):
        return {i for i, out in outputs.items()
                if digest(out) != golden.get(items[i][0])}

    return Workload(items, shuffled(len(items), seed), op, check)


BUILDERS = {
    "fuzz-pairs": build_fuzz_pairs,
    "labeled-roundtrip": build_labeled_roundtrip,
    "structure-checks": build_structure_checks,
}
