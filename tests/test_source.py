import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "tqft2d")


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so no check may rely on one
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += ["%s:%d" % (os.path.basename(path), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
