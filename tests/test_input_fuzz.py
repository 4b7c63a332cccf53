"""Seeded fuzz of the command line over mutated copies of every fixture file.

Each mutation deletes or duplicates one line, or replaces, inserts or
deletes one token drawn from ``TOKENS``; each mutated copy runs through
every command that reads its kind of file.  Every run must end in exit 0, 1
or 2 with a ``RESULT:`` line last, and no exception may escape ``cli.run``.
An exit 2 on a mutated algebra, group, bundle or cocycle file must name the
line, unless the error is about the file as a whole (``WHOLE_FILE``).
"""

import io
import os
import random
import re
import shutil

from tqft2d.cli import run

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")
TOKENS = ["-1", "0", "1", "1/0", "x", ":", "e"]
MUTATIONS_PER_FILE = 30

# the commands that read each kind of file, with MUT for the mutated copy
SPHERE = ["--genus", "0", "--labels", ""]
COMMANDS = {
    ".fa": [["validate", "--algebra", "MUT"],
            ["eval", "--algebra", "MUT", "--word", "cap ; copants ; pants"],
            ["invariant", "--algebra", "MUT", "--genus", "2"],
            ["fuzz-equiv", "--algebra", "MUT", "--count", "2", "--max-layers", "3"]],
    ".group": [["roundtrip", "--group", "MUT", "--max-gens", "1", "--count", "2"],
               ["holonomy", "--group", "MUT"] + SPHERE],
    ".bundle": [["validate", "--bundle", "MUT"],
                ["holonomy", "--bundle", "MUT"] + SPHERE,
                ["roundtrip", "--bundle", "MUT", "--max-gens", "1", "--count", "2"]],
    ".cocycle": [["cocycle", "--cocycle", "MUT"],
                 ["cocycle", "--cocycle", "MUT"] + SPHERE],
    ".surface": [["holonomy", "--group", "k4.group", "--surface", "MUT"]],
}

# errors about a file as a whole, which name no line
WHOLE_FILE = [
    "algebra file needs dim/basis/unit/counit lines",
    "pairing matrix is singular",
    "group file must start with 'group <m>'",
    "no identity element",
    "has no unique inverse",
    "table not associative",
    "bundle file must start with 'bundle over <groupfile>'",
    "need a fiber line for every group element",
    "unit and counit blocks are required",
    "missing required block",
    "pairing between fibers",
    "identity-preservation fails",
    "cocycle file must start with 'cocycle over <groupfile>'",
    "not a normalized cocycle",
    "[Errno 2] No such file or directory",
]


def mutate(rng, text):
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    op = rng.choice(["delete line", "duplicate line", "replace", "insert", "delete"])
    if op == "delete line":
        del lines[i]
    elif op == "duplicate line":
        lines.insert(i, lines[i])
    else:
        toks = lines[i].split()
        j = rng.randrange(len(toks) + (op == "insert"))
        if op == "replace":
            toks[j] = rng.choice(TOKENS)
        elif op == "insert":
            toks.insert(j, rng.choice(TOKENS))
        else:
            del toks[j]
        lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


def test_every_mutated_fixture_exits_cleanly_and_names_its_line(tmp_path):
    for name in os.listdir(FIXDIR):
        shutil.copy(os.path.join(FIXDIR, name), tmp_path / name)
    rng = random.Random(2010)
    runs = 0
    for name in sorted(os.listdir(FIXDIR)):
        kind = os.path.splitext(name)[1]
        with open(os.path.join(FIXDIR, name), encoding="utf-8") as fh:
            text = fh.read()
        for _ in range(MUTATIONS_PER_FILE):
            mutated = mutate(rng, text)
            path = tmp_path / ("mutated" + kind)
            path.write_text(mutated)
            mode = rng.choice(["exact", "float"])
            for command in COMMANDS[kind]:
                argv = [str(path) if a == "MUT" else
                        str(tmp_path / a) if a.endswith(".group") else a
                        for a in command] + ["--mode", mode]
                out = io.StringIO()
                code = run(argv, out)  # no exception may escape
                runs += 1
                where = "%s on %s:\n%s" % (argv[:1] + argv[3:], name, mutated)
                assert code in (0, 1, 2), where
                last = out.getvalue().splitlines()[-1]
                assert last.startswith("RESULT: "), where
                if code == 2 and kind != ".surface":
                    assert re.match(r"RESULT: FAIL line \d+: ", last) or any(
                        w in last for w in WHOLE_FILE), \
                        "%s\n%s" % (last, where)
    assert runs > 700
