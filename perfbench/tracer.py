"""Outside-in tracer: wraps public tqft2d functions without touching the package.

Every traced function is replaced at every module binding that refers to it,
so a from-import such as ``tqft2d.bordism.tensordot`` is patched together with
``tqft2d.tensor.tensordot`` and the package-level re-export.  Each call records
one span (name, start, end, parent span, op id) in memory; self time is the
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from time import perf_counter

# layer (module) -> public functions timed in that layer
TARGETS = {
    "tensor": ("tensordot", "equal", "invert_matrix"),
    "frobenius": ("comultiplication", "validate", "closed_invariant",
                  "parse_algebra"),
    "bordism": ("evaluate", "topological_type", "random_equivalent_pair",
                "parse_word"),
    "crossed": ("evaluate_labeled", "tft_to_bundle", "enumerate_labeled_words",
                "validate_bundle", "frobenius_action", "nfold_fission_check",
                "parse_bundle", "holonomy"),
    "gerbe": ("gerbe_holonomy", "check_cocycle"),
    "groups": ("parse_group",),
    "cli": ("run",),
}

# functions that also report their call count; the rest report self time only
COUNTED = ("tensor.tensordot", "tensor.equal", "tensor.invert_matrix",
           "frobenius.comultiplication", "bordism.evaluate",
           "crossed.evaluate_labeled", "cli.run")
TENSORDOT_COUNTS = ("out_entries", "outer_entries", "madds", "peak_entries")


def metric_names():
    """(name, unit) of every per-layer metric, in BENCHMARK.json's order."""
    names = []
    for module, funcs in TARGETS.items():
        for func in funcs:
            label = "%s.%s" % (module, func)
            if label in COUNTED:
                names.append((label + ".calls", "count"))
            names.append((label + ".self_s", "s"))
            if label == "tensor.tensordot":
                names += [(label + "." + c, "count") for c in TENSORDOT_COUNTS]
            if label == "frobenius.comultiplication":
                names.append((label + ".per_evaluate", "ratio"))
    names.append(("trace.overhead_s", "s"))
    return names


class Tracer:
    """Records spans for the functions in TARGETS while installed."""

    def __init__(self):
        self.spans = []          # [label, start, end, parent index, op id]
        self.tensordot = []      # (output entries, contracted size, outer?) per call
        self.op = -1             # op id stamped on new spans; -1 is set-up
        self._stack = []
        self._patched = []       # (module, attribute, original)

    def install(self):
        """Patch every binding of every target in the loaded tqft2d modules."""
        homes = {m: importlib.import_module("tqft2d." + m) for m in TARGETS}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "tqft2d" or n.startswith("tqft2d."))]
        for module_name, funcs in TARGETS.items():
            home = homes[module_name]
            for func in funcs:
                original = getattr(home, func, None)
                if not callable(original):
                    raise RuntimeError("tqft2d.%s.%s is missing" % (module_name, func))
                label = "%s.%s" % (module_name, func)
                after = self._tensordot_sizes if label == "tensor.tensordot" else None
                wrapper = self._wrap(label, original, after)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, label, fn, after):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _tensordot_sizes(self, args, kwargs, result):
        a = args[0] if args else kwargs["a"]
        axes = args[2] if len(args) > 2 else kwargs["axes_a"]
        shape = a.shape
        self.tensordot.append((math.prod(result.shape),
                               math.prod(shape[i] for i in axes), not axes))

    def metrics(self, overhead_s):
        """Per-layer metrics from the recorded spans, keyed as metric_names()."""
        calls = dict.fromkeys(("%s.%s" % (m, f) for m, fs in TARGETS.items()
                               for f in fs), 0)
        self_s = dict.fromkeys(calls, 0.0)
        child = [0.0] * len(self.spans)
        for label, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (label, start, end, _, _), covered in zip(self.spans, child):
            calls[label] += 1
            self_s[label] += end - start - covered
        out = {}
        for name, _ in metric_names():
            label, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = calls[label]
            elif kind == "self_s":
                out[name] = self_s[label]
            elif kind == "per_evaluate":
                evals = calls["bordism.evaluate"]
                out[name] = calls[label] / evals if evals else 0.0
            elif name == "trace.overhead_s":
                out[name] = overhead_s
        sizes = self.tensordot
        out["tensor.tensordot.out_entries"] = sum(n for n, _, _ in sizes)
        out["tensor.tensordot.outer_entries"] = sum(n for n, _, outer in sizes if outer)
        out["tensor.tensordot.madds"] = sum(n * k for n, k, _ in sizes)
        out["tensor.tensordot.peak_entries"] = max((n for n, _, _ in sizes), default=0)
        return {name: out[name] for name, _ in metric_names()}

    def write_spans(self, path):
        """One tab-separated line per span: id, name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\top\n")
            for i, (label, start, end, parent, op) in enumerate(self.spans):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n"
                         % (i, label, start, end, parent, op))
