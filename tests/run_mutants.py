"""Plant each fault of ``tests/mutants.py`` in a copy of the repository and
run the tests named to catch it.

    python tests/run_mutants.py

Each mutant gets a fresh copy under a temporary directory, with its ``old``
text replaced by its ``new`` text, and pytest runs only its killers there,
one process per test file, so that a file the fault stops at import stops
no other file's killers.  A mutant is killed when every one of its killers
fails, so a later change that weakens any of them shows here; a killer that
passes or does not run leaves it a survivor, and one whose file fails at
collection counts as failing.  Prints one line per mutant, with the killers
that did not fail, and ``killed/total``; exits 1 when any mutant survives.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

from mutants import MUTANTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                              "out")


def not_failing(killers, output):
    """The killers that the output of ``pytest -rfE`` does not report as
    failing: each FAILED or ERROR line of its summary names a test id, or a
    test file that failed at collection, which fails every test in it."""
    failed = {line.split(" ", 1)[1].partition(" - ")[0] for line in output.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    return [k for k in killers if k not in failed and k.partition("::")[0] not in failed]


def run_mutant(path, old, new, killers):
    """The killers that do not fail with the fault planted."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=SKIP)
        target = os.path.join(copy, path)
        with open(target, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(old) != 1:
            raise SystemExit("%s: the old text of a mutant occurs %d times"
                             % (path, text.count(old)))
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
        alive = []
        for test_file in dict.fromkeys(k.partition("::")[0] for k in killers):
            own = [k for k in killers if k.partition("::")[0] == test_file]
            out = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider"]
                + own, cwd=copy, env=env, capture_output=True, text=True).stdout
            alive += not_failing(own, out)
    return alive


def main():
    killed = 0
    for path, old, new, killers in MUTANTS:
        start = time.perf_counter()
        alive = run_mutant(path, old, new, killers)
        killed += not alive
        print("%-8s %5.1f s  %s: %r -> %r" % ("SURVIVED" if alive else "killed",
                                              time.perf_counter() - start, path,
                                              old.strip(), new.strip()))
        for killer in alive:
            print("    did not fail: %s" % killer)
    print("%d/%d killed" % (killed, len(MUTANTS)))
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
