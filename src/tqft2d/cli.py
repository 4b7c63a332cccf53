"""Command-line front end.

Exit codes: 0 on pass, 1 when an axiom or property check fails, 2 for
file/parse/usage errors.  The last output line is always
``RESULT: PASS|FAIL <details>`` so scripts can grep one line.
"""

from __future__ import annotations

import argparse
import cmath
import os
import random
import sys
from dataclasses import replace

import numpy as np

from . import bordism, crossed, frobenius, gerbe, groups
from .tensor import (DEFAULT_TOL, InputError, content_lines, equal, format_scalar,
                     read_text)


def _result(out, ok, details=""):
    tail = (" " + details) if details else ""
    out.write("RESULT: %s%s\n" % ("PASS" if ok else "FAIL", tail))
    return 0 if ok else 1


def _mode(args):
    """Keywords for the algebra, bundle and cocycle loaders: the scalar
    mode, and --tolerance as the float-mode tolerance."""
    if not (cmath.isfinite(args.tolerance) and args.tolerance >= 0):
        raise InputError("--tolerance must be finite and >= 0, got %s" % args.tolerance)
    exact = args.mode == "exact"
    return {"exact": exact, "tol": DEFAULT_TOL if exact else args.tolerance}


def _load_word(source):
    """--word accepts either a literal word or a path to a file holding one,
    whose ``#`` comments are dropped and whose lines are joined."""
    if os.path.exists(source):
        source = " ".join(line for _, line in content_lines(read_text(source)))
    return bordism.parse_word(source)


def _load_bundle(args):
    """The --bundle file, or for --group the group algebra's bundle, in the
    scalar mode and tolerance of the flags."""
    mode = _mode(args)
    if args.bundle:
        return crossed.load_bundle(args.bundle, **mode)
    if args.group:
        field = replace(frobenius.ground_field(mode["exact"]), tol=mode["tol"])
        return crossed.from_frobenius_algebra(groups.parse_group(read_text(args.group)),
                                              field)
    raise InputError("%s needs --bundle or --group" % args.command)


def _handles(G, labels):
    """--labels a1,b1,a2,b2,... as the handle pairs [(a1, b1), ...] of G."""
    names = [s for s in labels.split(",") if s]
    if len(names) % 2:
        raise InputError("--labels wants pairs a1,b1,a2,b2,...")
    return [(G.index(a), G.index(b)) for a, b in zip(names[::2], names[1::2])]


def _print_matrix(out, t, arity_in, dim):
    mat = bordism.as_matrix(t, arity_in, dim)
    out.write("%d x %d\n" % mat.shape)
    for row in mat:
        out.write(" ".join(format_scalar(x) for x in row) + "\n")


def _report_lines(out, report):
    out.write("checked: %s\n" % ", ".join(report.checked))
    for v in report.violations:
        out.write("violation: %s\n" % v)


def _axioms_result(out, report):
    """The RESULT line of a validator's report, with its counts."""
    return _result(out, report.passed, "%d axioms checked, %d violations"
                   % (len(report.checked), len(report.violations)))


def cmd_validate(args, out):
    if args.bundle:
        bundle = crossed.load_bundle(args.bundle, **_mode(args))
        report = crossed.validate_bundle(bundle)
    elif args.algebra:
        algebra = frobenius.load_algebra(args.algebra, **_mode(args))
        report = frobenius.validate(algebra)
    else:
        raise InputError("validate needs --algebra or --bundle")
    _report_lines(out, report)
    return _axioms_result(out, report)


def cmd_eval(args, out):
    if not args.algebra or not args.word:
        raise InputError("eval needs --algebra and --word")
    algebra = frobenius.load_algebra(args.algebra, **_mode(args))
    w = _load_word(args.word)
    t = bordism.evaluate(w, algebra)
    _print_matrix(out, t, w.arity_in, algebra.dim)
    return _result(out, True, "%d->%d" % (w.arity_in, w.arity_out))


def cmd_invariant(args, out):
    if not args.algebra:
        raise InputError("invariant needs --algebra")
    algebra = frobenius.load_algebra(args.algebra, **_mode(args))
    with np.errstate(over="ignore", invalid="ignore"):
        z = frobenius.closed_invariant(algebra, args.genus)
    if not algebra.exact and not cmath.isfinite(z):
        raise InputError("genus %d invariant is not a finite float (%s); "
                         "rerun with --mode exact" % (args.genus, format_scalar(z)))
    out.write("%s\n" % format_scalar(z))
    return _result(out, True, "genus %d invariant %s" % (args.genus, format_scalar(z)))


def cmd_type(args, out):
    if not args.word:
        raise InputError("type needs --word")
    w = _load_word(args.word)
    tt = bordism.topological_type(w)
    for genus, ins, outs in tt.components:
        out.write("component genus %d in %s out %s\n"
                  % (genus, sorted(ins), sorted(outs)))
    return _result(out, True, "%d components" % len(tt.components))


def cmd_fuzz_equiv(args, out):
    if not args.algebra:
        raise InputError("fuzz-equiv needs --algebra")
    if args.count < 0:
        raise InputError("--count must be at least 0, got %d" % args.count)
    if args.max_layers < 1:
        raise InputError("--max-layers must be at least 1, got %d" % args.max_layers)
    algebra = frobenius.load_algebra(args.algebra, **_mode(args))
    rng = random.Random(args.seed)
    agree = 0
    first_bad = None
    for i in range(args.count):
        a_in, a_out = rng.randrange(3), rng.randrange(3)
        # a pair can change the arity by at most one per layer
        a_out = min(max(a_out, a_in - args.max_layers), a_in + args.max_layers)
        w1, w2 = bordism.random_equivalent_pair((a_in, a_out), args.max_layers,
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
    if args.max_gens < 0:
        raise InputError("--max-gens must be at least 0, got %d" % args.max_gens)
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
        b = crossed.parse_labeled(read_text(args.surface), G)
    elif args.labels is not None:
        b = crossed.closed_surface_word(G, args.genus, _handles(G, args.labels))
    else:
        raise InputError("holonomy needs --surface or --genus/--labels")
    z = crossed.holonomy(b, bundle)
    out.write("%s\n" % format_scalar(z))
    return _result(out, True, "holonomy %s" % format_scalar(z))


def cmd_cocycle(args, out):
    if not args.cocycle:
        raise InputError("cocycle needs --cocycle <file>")
    sb = gerbe.load_cocycle(args.cocycle, **_mode(args))
    report = gerbe.check_cocycle(sb)
    _report_lines(out, report)
    if report.passed and args.labels is not None:
        z = gerbe.gerbe_holonomy(sb, args.genus, _handles(sb.group, args.labels))
        out.write("%s\n" % format_scalar(z))
        return _result(out, True, "holonomy %s" % format_scalar(z))
    return _axioms_result(out, report)


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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors."""

    def error(self, message):
        raise InputError(message)


def build_parser():
    p = _Parser(
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
        return COMMANDS[args.command](args, out)
    except (InputError, OSError) as exc:
        out.write("error: %s\n" % exc)
        out.write("RESULT: FAIL %s\n" % exc)
        return 2
    except SystemExit as exc:  # --help printed the usage
        return exc.code


def entry():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    entry()
