"""How many contractions one pass of the structure-checks workload makes.

The pass is the list of calls in perfbench/workloads.py, run under
perfbench's tracer, which counts every call that reaches tensor.tensordot
through any module binding; only perfbench/ is read.
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


def test_a_structure_checks_pass_stays_within_its_contraction_budget():
    sys.path.insert(0, PERFBENCH)
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("tracer")
    cases = workloads.structure_cases(tqft2d)
    t = tracer.Tracer()
    t.install()
    try:
        passed = [call()[0] for _, call in cases]
    finally:
        t.uninstall()
    assert all(passed)
    calls = sum(span[0] == "tensor.tensordot" for span in t.spans)
    assert 0 < calls <= BUDGET, calls
