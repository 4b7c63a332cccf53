"""Write perfbench/golden.json: digests of the exact outputs of every input.

    python3 perfbench/golden.py [--workload NAME ...]

The digests are the reference every benchmark run checks its outputs against,
so they are written once from a commit whose outputs are trusted and are
rewritten only when a workload's inputs change.  fuzz-pairs gets one digest per
algebra and pair, labeled-roundtrip one per bundle over all its words in
enumeration order, structure-checks one per case.  An input whose own check
fails (non-equivalent pair, rebuilt bundle disagreeing, failed validator)
aborts the script instead of being recorded.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads as wls


def fuzz_pairs(tq):
    out = {}
    for name, algebra, p, pair in wls.fuzz_corpus(tq):
        passed, t = wls.fuzz_output(tq, algebra, pair)
        if not passed:
            raise SystemExit("pair seed %d disagrees on %s" % (p, name))
        out.setdefault(name, {})[str(p)] = wls.fuzz_digest(pair, t)
    return out


def labeled_roundtrip(tq):
    out = {}
    for name, bundle, rebuilt, words in wls.labeled_corpus(tq):
        lines = []
        for w in words:
            t = tq.evaluate_labeled(w, bundle)
            if not tq.equal(t, tq.evaluate_labeled(w, rebuilt)):
                raise SystemExit("rebuilt %s disagrees on %s"
                                 % (name, tq.format_labeled(w)))
            lines.append(wls.canon_tensor(t))
        out[name] = wls.digest(*lines)
    return out


def structure_checks(tq):
    out = {}
    for name, call in wls.structure_cases(tq):
        passed, text = call()
        if not passed:
            raise SystemExit("%s failed: %s" % (name, text))
        out[name] = wls.digest(text)
    return out


MAKERS = {"fuzz-pairs": fuzz_pairs, "labeled-roundtrip": labeled_roundtrip,
          "structure-checks": structure_checks}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(MAKERS),
                        help="rewrite only this workload (repeatable)")
    args = parser.parse_args()
    tq = run.import_tqft2d()
    path = run.HERE / "golden.json"
    golden = json.loads(path.read_text()) if path.exists() else {}
    for name in args.workload or MAKERS:
        golden[name] = MAKERS[name](tq)
        print("%s: done" % name, file=sys.stderr)
    path.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
