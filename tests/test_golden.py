"""The exact outputs of the benchmark workloads, checked bit for bit.

perfbench/golden.json holds digests of every output of the fuzz-pairs,
labeled-roundtrip and structure-checks workloads.  These tests recompute them
with the functions of perfbench/golden.py, which only read from perfbench/,
so a change that moves any output by one bit fails here and not only in a
benchmark run.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

import tqft2d

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
golden = importlib.import_module("golden")

GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


@pytest.mark.parametrize("workload", ["fuzz-pairs", "labeled-roundtrip",
                                      "structure-checks"])
def test_workload_outputs_match_the_golden_digests(workload):
    assert golden.MAKERS[workload](tqft2d) == GOLDEN[workload]
