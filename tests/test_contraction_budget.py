"""How many contractions one pass of a benchmark workload makes.

A pass is the list of calls in perfbench/workloads.py, run under perfbench's
tracer, which counts every call that reaches tensor.tensordot through any
module binding and the multiply-adds each one does; only perfbench/ is read.
"""

import importlib
import os
import sys

import tqft2d

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")

# a pass made 1,625 contractions when closed invariants ran the g-step loop
# and the n-fold towers were contracted once per bracketing, and 910 when a
# closed labeled surface split into g circles; it now makes 658
BUDGET = 700

# a fuzz-pairs pass contracts its 400 words in the planned order; a faster
# kernel must come from cheaper calls, not from another schedule
FUZZ_CALLS = 1603
FUZZ_MADDS = 143653


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
    assert 0 < calls <= FUZZ_CALLS, calls
    assert 0 < madds <= FUZZ_MADDS, madds
