import ast
import glob
import importlib
import inspect
import os
import sys

from tqft2d import tensor
from tqft2d.bordism import contract_word

from mutants import MUTANTS
from run_mutants import not_failing

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src", "tqft2d")
PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so no check may rely on one
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += ["%s:%d" % (os.path.basename(path), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_every_traced_function_exists():
    # the benchmark tracer patches these functions by name, so a deleted or
    # renamed one breaks every traced run; only perfbench/ is read
    sys.path.insert(0, PERFBENCH)
    tracer = importlib.import_module("tracer")
    missing = []
    for module, funcs in tracer.TARGETS.items():
        home = importlib.import_module("tqft2d." + module)
        missing += ["%s.%s" % (module, f) for f in funcs
                    if not callable(getattr(home, f, None))]
    assert missing == []


def test_tolerance_is_not_carried_by_tensors():
    # the algebra, bundle or oracle owns the float tolerance; a tensor has
    # none, and only the comparisons take one
    assert "tol" not in tensor.Tensor.__slots__
    routines = [f for _, f in inspect.getmembers(tensor, inspect.isfunction)]
    for _, cls in inspect.getmembers(tensor, inspect.isclass):
        routines += [f for _, f in inspect.getmembers(cls, inspect.isroutine)]
    own = [f for f in routines if getattr(f, "__module__", None) == tensor.__name__]
    with_tol = {f.__qualname__ for f in own
                if "tol" in inspect.signature(f).parameters}
    assert with_tol <= {"differences", "first_difference", "equal", "invert_matrix"}
    assert "invert_matrix" in with_tol  # the scan sees the module's functions
    assert "tol" not in inspect.signature(contract_word).parameters


def test_only_tensor_reads_the_exact_number_format():
    # numerators over one den, int64 within a bound or Python ints, are
    # tensor's own format: every other module stacks, indexes, contracts and
    # compares through the tensor operations
    format_names = {"nums", "den", "top", "_of", "_reduced"}
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) == "tensor.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += ["%s:%d .%s" % (os.path.basename(path), node.lineno, node.attr)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in format_names]
        # the constructor is bound at module level too, so no module imports it
        found += ["%s:%d import %s" % (os.path.basename(path), node.lineno, alias.name)
                  for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names if alias.name in format_names]
    assert found == []


def test_every_public_tensor_function_has_a_caller_in_the_package():
    # a helper of tensor goes with its last caller: each public function it
    # defines is imported by name by some other module of the package,
    # __init__.py aside
    with open(os.path.join(SRC, "tensor.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename="tensor.py")
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    imported = set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) in ("tensor.py", "__init__.py"):
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        imported |= {alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module == "tensor"
                     for alias in node.names}
    assert "tensordot" in public and sorted(public - imported) == []


def test_tensor_makes_fractions_only_at_its_edges():
    # exact arithmetic runs on integer numerators over one den: Fractions
    # come in through the constructor and parse_scalar, go out through
    # item() and entries(), and are printed by format_scalar, nowhere else
    edges = {"Tensor.__init__", "parse_scalar", "Tensor.item", "Tensor.entries",
             "format_scalar"}
    with open(os.path.join(SRC, "tensor.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename="tensor.py")
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = node.name if where is None else "%s.%s" % (where, node.name)
        if isinstance(node, ast.Name) and node.id == "Fraction" and where not in edges:
            found.append("%s:%d" % (where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    visit(tree, None)
    assert found == []


def test_only_tensor_and_gerbe_call_complex():
    # the Tensor constructor turns ints and Fractions into the entries of its
    # mode, so no module picks a typed one or zero by mode; gerbe's scalar
    # bundles keep raw Python values and so keep their typed ones
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) in ("tensor.py", "gerbe.py"):
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += ["%s:%d" % (os.path.basename(path), node.lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "complex"]
    assert found == []


def test_only_groups_reads_the_multiplication_table():
    # FiniteGroup owns its tables: a gather over gradings indexes its
    # mul_table and conj_table, and a single product calls mul or conj
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) == "groups.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += ["%s:%d" % (os.path.basename(path), node.lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "table"]
    assert found == []


def test_only_tensor_locates_a_difference():
    # the first row-major index where two tensors differ is
    # tensor.first_difference's to find; a validator reports a failing
    # grading through ValidationReport.compare, which calls it
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) == "tensor.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += ["%s:%d" % (os.path.basename(path), node.lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "unravel_index"
                  or isinstance(node, ast.Name) and node.id == "unravel_index"]
    assert found == []


def test_only_tensor_contracts():
    # every contraction runs through tensor.tensordot or tensor.einsum, which
    # share one kernel that bounds the sums and picks the numerators' tier:
    # no other module calls numpy's products, imports them or multiplies by
    # ``@``, and no module, tensor included, calls a second numpy kernel
    # beside np.matmul and np.multiply
    second_kernel = {"einsum", "dot", "tensordot", "multiply.outer"}
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        name = os.path.basename(path)
        banned = second_kernel | ({"matmul"} if name != "tensor.py" else set())
        found += ["%s:%d %s" % (name, node.lineno, ast.unparse(node))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and ast.unparse(node) in {"%s.%s" % (m, f) for m in ("np", "numpy")
                                            for f in banned}]
        found += ["%s:%d import %s" % (name, node.lineno, alias.name)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "numpy"
                  for alias in node.names if alias.name in banned]
        if name != "tensor.py":
            found += ["%s:%d @" % (name, node.lineno) for node in ast.walk(tree)
                      if isinstance(node, (ast.BinOp, ast.AugAssign))
                      and isinstance(node.op, ast.MatMult)]
    assert found == []


def test_gerbe_states_no_axiom():
    # a rank-one bundle is checked as the crossed bundle it inflates to, so
    # only crossed and frobenius compare tensors axiom by axiom: gerbe
    # imports neither differences nor einsum and builds no ValidationReport
    with open(os.path.join(SRC, "gerbe.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename="gerbe.py")
    found = ["import %s" % alias.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names if alias.name in ("differences", "einsum")]
    found += [".%s" % node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr in ("differences", "einsum")]
    found += ["%d: ValidationReport()" % node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Call) and "ValidationReport" in ast.unparse(node.func)]
    assert found == []


def test_bordism_reads_the_tables_in_two_places():
    # contract_word reads an unfolded step's block inline and _Fold.block a
    # fold's through _table_block: no other function of bordism indexes
    # the bundle's fusion, fission or transport table
    with open(os.path.join(SRC, "bordism.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename="bordism.py")
    readers = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = node.name
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute) \
                and node.value.attr in ("fusion", "fission", "transport"):
            readers.append((where, node.value.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    visit(tree, None)
    assert set(readers) == {(where, table) for where in ("contract_word", "_table_block")
                            for table in ("fusion", "fission", "transport")}


def test_every_planted_fault_still_applies():
    # tests/run_mutants.py plants each fault of tests/mutants.py by text, so
    # its old text must occur exactly once and each named killer must exist
    for path, old, new, killers in MUTANTS:
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            assert fh.read().count(old) == 1, (path, old)
        assert old != new and killers, (path, old)
        for killer in killers:
            test_file, _, name = killer.partition("::")
            with open(os.path.join(ROOT, test_file), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=test_file)
            defined = {node.name for node in tree.body
                       if isinstance(node, ast.FunctionDef)}
            assert name.partition("[")[0] in defined, killer


def test_the_mutant_runner_counts_a_file_that_fails_at_collection():
    # a killer fails when the summary of ``pytest -rfE`` names it, or names
    # its file as one that failed at collection; one that passed does not
    output = "\n".join([
        "F.                                                                       [100%]",
        "=========================== short test summary info ============================",
        "FAILED tests/test_tensor.py::test_tier[near 2**31] - assert 1 == 2",
        "ERROR tests/test_crossed.py - tqft2d.gerbe.CocycleError: bad cocycle",
        "1 failed, 1 passed, 1 error in 0.50s"])
    killers = ["tests/test_tensor.py::test_tier[near 2**31]",
               "tests/test_crossed.py::test_reference", "tests/test_groups.py::test_rows"]
    assert not_failing(killers, output) == ["tests/test_groups.py::test_rows"]
    assert not_failing(killers, "") == killers
