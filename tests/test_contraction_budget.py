"""How many contractions one pass of a benchmark workload makes.

A pass is the list of calls in perfbench/workloads.py, run under perfbench's
tracer, which counts every call that reaches tensor.tensordot through any
module binding and the multiply-adds each one does; only perfbench/ is read.
"""

import importlib
import os
import sys

import numpy as np

import tqft2d
from tqft2d import tensor

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")

# a pass made 1,625 contractions when closed invariants ran the g-step loop
# and the n-fold towers were contracted once per bracketing, 910 when a
# closed labeled surface split into g circles, and 659 when each closed
# invariant squared the handle operator anew and the towers were
# contracted once per distinct subtree, 457 when each cap and cup was a
# step of its own, and 447 when each block of at most two legs beside a
# pants or copants was a step of its own, the id cylinders of closed
# labeled surfaces among them; a fresh pass now makes 424
BUDGET = 424

# a fuzz-pairs pass contracts its 400 words in the planned order, one call
# per step after the first whatever the order, so the order moves only the
# multiply-adds and the sizes; a fresh pass adds one call per folded leg
# and per absorbed neighbour of each folded block it builds.  It made 1,603
# calls and 143,653 multiply-adds when 10 of its words multiplied their
# pass-through circles in as identities, 143,387 multiply-adds with a
# largest result of 729 entries when a generator waited for the makers of
# its input circles, 1,594 calls, 52,897 multiply-adds and a largest
# result of 243 entries when each cap and cup was a step of its own and
# the greedy planned the whole network from six starts, and 873 calls and
# 30,502 multiply-adds when each block of at most two legs beside a pants
# or copants was a step of its own
FUZZ_CALLS = 730
FUZZ_MADDS = 26982
FUZZ_PEAK_ENTRIES = 81

# a labeled-roundtrip pass writes the identity leg pairs of its words'
# pass-through circles straight into their outputs; when it took them as
# outer products it made 72,422 calls with 4,642,772 outer-product entries,
# and 945,872 outer-product entries when a generator waited for the makers
# of its input circles, 41,066 calls with 906,328 outer-product entries
# when each cap and cup was a step of its own, and 40,398 calls when each
# block of at most two legs beside a pants or copants was a step of its own
LABELED_CALLS = 39214
LABELED_OUTER_ENTRIES = 906316


def _perfbench(name):
    sys.path.insert(0, PERFBENCH)
    return importlib.import_module(name)


def _traced(calls):
    """The results of ``calls`` and the tracer's per-layer metrics."""
    t = _perfbench("tracer").Tracer()
    t.install()
    try:
        results = [call() for call in calls]
    finally:
        t.uninstall()
    return results, t.metrics(0.0)


def test_a_structure_checks_pass_stays_within_its_contraction_budget():
    cases = _perfbench("workloads").structure_cases(tqft2d)
    results, metrics = _traced([call for _, call in cases])
    assert all(passed for passed, _ in results)
    calls = metrics["tensor.tensordot.calls"]
    assert 0 < calls <= BUDGET, calls


def test_a_fuzz_pairs_pass_stays_within_its_contraction_budget():
    workloads = _perfbench("workloads")
    items = workloads.fuzz_corpus(tqft2d)
    results, metrics = _traced(
        [lambda item=item: workloads.fuzz_output(tqft2d, item[1], item[3])
         for item in items])
    assert all(passed for passed, _ in results)
    calls = metrics["tensor.tensordot.calls"]
    madds = metrics["tensor.tensordot.madds"]
    peak = metrics["tensor.tensordot.peak_entries"]
    assert 0 < calls <= FUZZ_CALLS, calls
    assert 0 < madds <= FUZZ_MADDS, madds
    assert 0 < peak <= FUZZ_PEAK_ENTRIES, peak


def test_a_labeled_roundtrip_pass_takes_no_identity_outer_products():
    wl = _perfbench("workloads").build_labeled_roundtrip(tqft2d, 1, {})
    results, metrics = _traced([lambda item=item: wl.op(item) for item in wl.items])
    assert all(passed for passed, _ in results)
    calls = metrics["tensor.tensordot.calls"]
    outer = metrics["tensor.tensordot.outer_entries"]
    assert 0 < calls <= LABELED_CALLS, calls
    assert 0 < outer <= LABELED_OUTER_ENTRIES, outer


def test_a_labeled_roundtrip_pass_reduces_no_den_1_contraction(monkeypatch):
    # every contraction of a pass has den 1, already lowest terms; it made
    # 41,066 reductions, one per tensordot call, when each result went
    # through Tensor._reduced
    wl = _perfbench("workloads").build_labeled_roundtrip(tqft2d, 1, {})
    original, dens = tensor.Tensor._reduced, []

    def reduced(nums, den, top, exact):
        dens.append(den)
        return original(nums, den, top, exact)
    monkeypatch.setattr(tensor.Tensor, "_reduced", staticmethod(reduced))
    assert all(passed for passed, _ in (wl.op(item) for item in wl.items))
    assert dens == []


def _tiers(monkeypatch, calls):
    """The results of ``calls`` and, for each tensordot call they make,
    whether its two operands and its result hold int64 numerators, and
    whether it contracts a tensor with itself (a squaring)."""
    original, tiers, squarings = tensor.tensordot, [], []

    def dot(a, b, axes_a, axes_b, order=None):
        out = original(a, b, axes_a, axes_b, order)
        tiers.append(tuple(t.nums.dtype == np.int64 for t in (a, b, out)))
        squarings.append(a is b)
        return out
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "tqft2d" or name.startswith("tqft2d.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, dot)
    return [call() for call in calls], tiers, squarings


def test_a_fuzz_pairs_pass_contracts_in_int64_throughout(monkeypatch):
    # the bounds of its words' numerators stay below 2**62, so no contraction
    # of a pass falls back to Python ints
    workloads = _perfbench("workloads")
    items = workloads.fuzz_corpus(tqft2d)
    results, tiers, _ = _tiers(monkeypatch, [
        lambda item=item: workloads.fuzz_output(tqft2d, item[1], item[3])
        for item in items])
    assert all(passed for passed, _ in results)
    assert 0 < len(tiers) <= FUZZ_CALLS
    assert tiers == [(True, True, True)] * len(tiers)


def test_a_structure_checks_pass_promotes_its_high_genus_invariants(monkeypatch):
    # powers of the handle operator outgrow the int64 bound: a contraction
    # of two int64 operands then gives Python ints.  The powers are kept on
    # the algebra, so a pass squares each once, in the first call that needs
    # it, and H^8 is the square that leaves int64
    cases = _perfbench("workloads").structure_cases(tqft2d)
    for first_pass in (True, False):
        squared, promoted_squares, objects = [], [], set()
        for name, call in cases:
            (result,), tiers, squarings = _tiers(monkeypatch, [call])
            assert result[0], name
            if name.startswith("closed_invariant") and any(squarings):
                squared.append(name)
            if any(s and t == (True, True, False) for s, t in zip(squarings, tiers)):
                promoted_squares.append(name)
            if any(False in t for t in tiers):
                objects.add(name)
            monkeypatch.undo()
        assert "closed_invariant Z(S3) g=40" in objects
        assert "closed_invariant Z(S3) g=0" not in objects
        if first_pass:
            assert squared == ["closed_invariant Z(S3) g=%d" % g for g in (2, 4, 8, 16, 32)]
            assert promoted_squares == ["closed_invariant Z(S3) g=8"]
        else:  # every power is kept: no call of a later pass squares
            assert squared == promoted_squares == []
