"""Command-line front end.

Exit codes: 0 on pass, 1 when an axiom or property check fails, 2 for
file/parse/usage errors.  The last output line is always
``RESULT: PASS|FAIL <details>`` so scripts can grep one line.
"""

from __future__ import annotations

import argparse
import cmath
import random
import sys
from dataclasses import replace

import numpy as np

from . import bordism, crossed, frobenius, gerbe, groups
from .bordism import ArityError, WordSyntaxError
from .crossed import BundleError, LabelError
from .frobenius import StructureError
from .gerbe import CocycleError
from .groups import GroupError
from .tensor import DEFAULT_TOL, equal, format_scalar

PARSE_ERRORS = (WordSyntaxError, ArityError, StructureError, GroupError,
                BundleError, LabelError, CocycleError, OSError, ValueError)


class _Exit(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _result(out, ok, details=""):
    tail = (" " + details) if details else ""
    out.write("RESULT: %s%s\n" % ("PASS" if ok else "FAIL", tail))
    return 0 if ok else 1


def _mode(args):
    """Keywords for the algebra, bundle and cocycle loaders: the scalar
    mode, and --tolerance as the float-mode tolerance."""
    exact = args.mode == "exact"
    return {"exact": exact, "tol": DEFAULT_TOL if exact else args.tolerance}


def _load_word(source):
    """--word accepts either a literal word or a path to a file holding one."""
    import os
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            source = fh.read()
    return bordism.parse_word(source)


def _load_group(path):
    with open(path, "r", encoding="utf-8") as fh:
        return groups.parse_group(fh.read())


def _load_bundle(args):
    """The --bundle file, or for --group the group algebra's bundle, in the
    scalar mode and tolerance of the flags."""
    mode = _mode(args)
    if args.bundle:
        return crossed.load_bundle(args.bundle, **mode)
    if args.group:
        field = replace(frobenius.ground_field(mode["exact"]), tol=mode["tol"])
        return crossed.from_frobenius_algebra(_load_group(args.group), field)
    raise _Exit(2, "%s needs --bundle or --group" % args.command)


def _handles(G, labels):
    """--labels a1,b1,a2,b2,... as the handle pairs [(a1, b1), ...] of G."""
    names = [s for s in labels.split(",") if s]
    if len(names) % 2:
        raise _Exit(2, "--labels wants pairs a1,b1,a2,b2,...")
    return [(G.index(a), G.index(b)) for a, b in zip(names[::2], names[1::2])]


def _print_matrix(out, t, arity_in, dim):
    rows, cols = dim ** (t.rank - arity_in), dim ** arity_in
    mat = bordism.as_matrix(t, arity_in, dim)
    out.write("%d x %d\n" % (rows, cols))
    for i in range(rows):
        out.write(" ".join(format_scalar(mat[i, j]) for j in range(cols)) + "\n")


def _report_lines(out, report):
    out.write("checked: %s\n" % ", ".join(report.checked))
    for v in report.violations:
        out.write("violation: %s\n" % v)


def cmd_validate(args, out):
    if args.bundle:
        bundle = crossed.load_bundle(args.bundle, **_mode(args))
        report = crossed.validate_bundle(bundle)
    elif args.algebra:
        algebra = frobenius.load_algebra(args.algebra, **_mode(args))
        report = frobenius.validate(algebra)
    else:
        raise _Exit(2, "validate needs --algebra or --bundle")
    _report_lines(out, report)
    return _result(out, report.passed,
                   "%d axioms checked, %d violations"
                   % (len(report.checked), len(report.violations)))


def cmd_eval(args, out):
    if not args.algebra or not args.word:
        raise _Exit(2, "eval needs --algebra and --word")
    algebra = frobenius.load_algebra(args.algebra, **_mode(args))
    w = _load_word(args.word)
    t = bordism.evaluate(w, algebra)
    _print_matrix(out, t, w.arity_in, algebra.dim)
    return _result(out, True, "%d->%d" % (w.arity_in, w.arity_out))


def cmd_invariant(args, out):
    if not args.algebra:
        raise _Exit(2, "invariant needs --algebra")
    algebra = frobenius.load_algebra(args.algebra, **_mode(args))
    with np.errstate(over="ignore", invalid="ignore"):
        z = frobenius.closed_invariant(algebra, args.genus)
    if not algebra.exact and not cmath.isfinite(z):
        raise _Exit(2, "genus %d invariant is not a finite float (%s); "
                       "rerun with --mode exact" % (args.genus, format_scalar(z)))
    out.write("%s\n" % format_scalar(z))
    return _result(out, True, "genus %d invariant %s" % (args.genus, format_scalar(z)))


def cmd_type(args, out):
    if not args.word:
        raise _Exit(2, "type needs --word")
    w = _load_word(args.word)
    tt = bordism.topological_type(w)
    for genus, ins, outs in tt.components:
        out.write("component genus %d in %s out %s\n"
                  % (genus, sorted(ins), sorted(outs)))
    return _result(out, True, "%d components" % len(tt.components))


def cmd_fuzz_equiv(args, out):
    if not args.algebra:
        raise _Exit(2, "fuzz-equiv needs --algebra")
    algebra = frobenius.load_algebra(args.algebra, **_mode(args))
    rng = random.Random(args.seed)
    agree = 0
    first_bad = None
    for i in range(args.count):
        arity = (rng.randrange(3), rng.randrange(3))
        w1, w2 = bordism.random_equivalent_pair(arity, args.max_layers,
                                                args.seed + i)
        if equal(bordism.evaluate(w1, algebra), bordism.evaluate(w2, algebra),
                 algebra.tol):
            agree += 1
        elif first_bad is None:
            first_bad = i
    ok = agree == args.count
    if first_bad is not None:
        out.write("disagreement at case %d\n" % first_bad)
    return _result(out, ok, "%d/%d agreements" % (agree, args.count))


def cmd_roundtrip(args, out):
    bundle = _load_bundle(args)
    words = crossed.enumerate_labeled_words(bundle.group, args.max_gens,
                                            budget_per_shape=args.count)
    report = crossed.roundtrip_check(bundle, words)
    _report_lines(out, report)
    return _result(out, report.passed, "%d test words" % len(words))


def cmd_holonomy(args, out):
    bundle = _load_bundle(args)
    G = bundle.group
    if args.surface:
        with open(args.surface, "r", encoding="utf-8") as fh:
            b = crossed.parse_labeled(fh.read(), G)
    elif args.labels is not None:
        b = crossed.closed_surface_word(G, args.genus, _handles(G, args.labels))
    else:
        raise _Exit(2, "holonomy needs --surface or --genus/--labels")
    z = crossed.holonomy(b, bundle)
    out.write("%s\n" % format_scalar(z))
    return _result(out, True, "holonomy %s" % format_scalar(z))


def cmd_cocycle(args, out):
    if not args.cocycle:
        raise _Exit(2, "cocycle needs --cocycle <file>")
    sb = gerbe.load_cocycle(args.cocycle, **_mode(args))
    report = gerbe.check_cocycle(sb)
    _report_lines(out, report)
    if report.passed and args.labels is not None:
        z = gerbe.gerbe_holonomy(sb, args.genus, _handles(sb.group, args.labels))
        out.write("%s\n" % format_scalar(z))
        return _result(out, True, "holonomy %s" % format_scalar(z))
    return _result(out, report.passed,
                   "%d axioms checked, %d violations"
                   % (len(report.checked), len(report.violations)))


COMMANDS = {
    "validate": cmd_validate,
    "eval": cmd_eval,
    "invariant": cmd_invariant,
    "type": cmd_type,
    "fuzz-equiv": cmd_fuzz_equiv,
    "roundtrip": cmd_roundtrip,
    "holonomy": cmd_holonomy,
    "cocycle": cmd_cocycle,
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="tqft2d",
        description="Evaluate bordism words against Frobenius algebras and "
                    "graded Frobenius bundles over a finite group.")
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("--algebra", help="algebra file or builtin name")
    p.add_argument("--bundle", help="bundle file")
    p.add_argument("--group", help="group file")
    p.add_argument("--word", help="bordism word, literal or a file path")
    p.add_argument("--surface", help="labeled surface file")
    p.add_argument("--cocycle", help="cocycle file")
    p.add_argument("--genus", type=int, default=1)
    p.add_argument("--labels", help="comma-separated handle labels a1,b1,...")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-layers", type=int, default=8)
    p.add_argument("--max-gens", type=int, default=3)
    p.add_argument("--mode", choices=["exact", "float"], default="exact")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOL,
                   help="float-mode tolerance of the loaded algebra, bundle "
                        "or cocycle")
    return p


# built once: parsing leaves the parser unchanged
PARSER = build_parser()


def run(argv, out=None) -> int:
    out = out or sys.stdout
    try:
        args = PARSER.parse_args(argv)
    except SystemExit:
        return 2
    try:
        return COMMANDS[args.command](args, out)
    except _Exit as exc:
        out.write("error: %s\n" % exc)
        out.write("RESULT: FAIL %s\n" % exc)
        return exc.code
    except PARSE_ERRORS as exc:
        out.write("error: %s\n" % exc)
        out.write("RESULT: FAIL %s\n" % exc)
        return 2


def entry():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    entry()
