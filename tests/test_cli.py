import io
import json
import os
import shlex
import shutil
import sys

import pytest

from tqft2d import cli, crossed, gerbe
from tqft2d.cli import run
from tqft2d.crossed import from_group_algebra, from_frobenius_algebra, \
    format_bundle, holonomy, load_bundle
from tqft2d.frobenius import dual_numbers, format_algebra
from tqft2d.gerbe import klein_anticommuting_cocycle, from_cocycle, \
    format_cocycle, load_cocycle, to_crossed_bundle
from tqft2d.groups import cyclic_group, klein_four_group, format_group, parse_group
from tqft2d.tensor import InputError

from test_crossed import _reference_closed_surface_word

ROOT = os.path.join(os.path.dirname(__file__), "..")
FIXDIR = os.path.join(ROOT, "fixtures")


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def algebra_file(tmp_path):
    p = tmp_path / "dn.fa"
    p.write_text(format_algebra(dual_numbers()))
    return str(p)


@pytest.fixture
def bundle_file(tmp_path):
    (tmp_path / "z2.group").write_text(format_group(cyclic_group(2)))
    p = tmp_path / "z2.bundle"
    p.write_text(format_bundle(
        from_frobenius_algebra(cyclic_group(2), dual_numbers()), "z2.group"))
    return str(p)


def test_result_line_is_last(algebra_file):
    code, text = invoke("validate", "--algebra", algebra_file)
    assert code == 0
    assert text.rstrip("\n").splitlines()[-1].startswith("RESULT: PASS")


def test_validate_passes_and_counts_axioms(algebra_file):
    code, text = invoke("validate", "--algebra", algebra_file)
    assert code == 0
    assert "4 axioms checked" in text


def test_validate_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.fa"
    bad.write_text("dim 2\nbasis 1 x\nunit 1 0\ncounit 1 0\n"
                   "mul 1 1 -> 1:1\nmul 1 2 -> 2:1\nmul 2 1 -> 2:1\n")
    code, text = invoke("validate", "--algebra", str(bad))
    assert code == 1
    assert "RESULT: FAIL" in text


def test_tolerance_flag_reaches_float_mode(tmp_path):
    # the unit is off by 1e-7, so the unit axiom holds only to 1e-7
    algebra = tmp_path / "near.fa"
    algebra.write_text("dim 2\nbasis 1 x\nunit 1.0000001 0\ncounit 0 1\n"
                       "mul 1 1 -> 1:1\nmul 1 2 -> 2:1\nmul 2 1 -> 2:1\n")
    # the counit is off by 1e-7, so fission followed by it is the identity to 1e-7
    (tmp_path / "z2.group").write_text(format_group(cyclic_group(2)))
    bundle = tmp_path / "near.bundle"
    bundle.write_text(format_bundle(
        from_frobenius_algebra(cyclic_group(2), dual_numbers()), "z2.group")
        .replace("counit : 0 1", "counit : 0 1.0000001"))
    for source in (("--algebra", str(algebra)), ("--bundle", str(bundle))):
        code, text = invoke("validate", *source, "--mode", "float")
        assert code == 1, text
        code, text = invoke("validate", *source, "--mode", "float",
                            "--tolerance", "1e-6")
        assert code == 0, text
        # exact mode ignores the flag
        code, text = invoke("validate", *source, "--tolerance", "1e-6")
        assert code == 1, text


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "broken.fa"
    bad.write_text("dim two\n")
    code, text = invoke("validate", "--algebra", str(bad))
    assert code == 2
    assert text.rstrip().endswith(text.rstrip().splitlines()[-1])
    assert "RESULT: FAIL" in text


def test_missing_file_exit_code():
    code, _ = invoke("validate", "--algebra", "/no/such/file.fa")
    assert code == 2


def test_usage_error_exit_code():
    code, _ = invoke("validate")
    assert code == 2
    code, _ = invoke("no-such-command")
    assert code == 2


def test_run_reuses_one_parser(monkeypatch, algebra_file):
    def rebuilt():
        raise AssertionError("run built a parser of its own")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    assert invoke("invariant", "--algebra", algebra_file, "--genus", "3")[0] == 0
    assert invoke("no-such-command")[0] == 2
    # the options of one call do not carry over to the next
    code, text = invoke("invariant", "--algebra", algebra_file)
    assert code == 0 and text.splitlines()[-1] == "RESULT: PASS genus 1 invariant 2"


def test_invariant_prints_value(algebra_file):
    code, text = invoke("invariant", "--algebra", algebra_file, "--genus", "1")
    assert code == 0
    assert text.splitlines()[0] == "2"


@pytest.mark.filterwarnings("error")
def test_float_invariant_that_overflows_exits_2():
    s3 = os.path.join(FIXDIR, "s3_center.fa")
    code, text = invoke("invariant", "--algebra", s3, "--genus", "198",
                        "--mode", "float")
    assert code == 0 and float(text.splitlines()[0]) > 7e306
    code, text = invoke("invariant", "--algebra", s3, "--genus", "199",
                        "--mode", "float")
    assert code == 2 and "PASS" not in text
    last = text.splitlines()[-1]
    assert last.startswith("RESULT: FAIL") and "genus 199" in last
    assert "--mode exact" in last


def test_exact_invariant_of_any_length_is_printed():
    s3 = os.path.join(FIXDIR, "s3_center.fa")
    code, text = invoke("invariant", "--algebra", s3, "--genus", "3000")
    assert code == 0
    value, last = text.splitlines()
    assert len(value) == 4668 and last == "RESULT: PASS genus 3000 invariant " + value
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        # S3's irreps have dimensions 1, 1 and 2
        assert int(value) == 2 * 6 ** 5998 + 3 ** 5998
    finally:
        sys.set_int_max_str_digits(limit)


def test_input_numbers_keep_the_digit_limit(tmp_path):
    p = tmp_path / "long.fa"
    p.write_text(format_algebra(dual_numbers()).replace("counit 0 1",
                                                        "counit 0 1" + "0" * 5000))
    code, text = invoke("validate", "--algebra", str(p))
    assert code == 2 and "limit" in text.splitlines()[-1]


def test_eval_matrix_output(algebra_file):
    code, text = invoke("eval", "--algebra", algebra_file, "--word", "id")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "2 x 2"
    assert lines[1:3] == ["1 0", "0 1"]


def test_eval_arity_error(algebra_file):
    code, _ = invoke("eval", "--algebra", algebra_file,
                     "--word", "pants ; cup ; pants")
    assert code == 2


def test_type_command():
    code, text = invoke("type", "--word", "cap ; copants ; pants ; cup")
    assert code == 0
    assert "component genus 1 in [] out []" in text


def test_type_of_a_word_nested_3000_deep():
    code, text = invoke("type", "--word", "(" * 3000 + "id" + ")" * 3000)
    assert code == 0
    assert text.splitlines()[-1] == "RESULT: PASS 1 components", text


def test_fuzz_equiv(algebra_file):
    code, text = invoke("fuzz-equiv", "--algebra", algebra_file,
                        "--count", "15", "--seed", "9", "--max-layers", "6")
    assert code == 0
    assert "15/15 agreements" in text


def test_fuzz_equiv_rejects_a_negative_count(algebra_file):
    code, text = invoke("fuzz-equiv", "--algebra", algebra_file, "--count", "-1")
    assert code == 2
    assert text.splitlines()[-1] == "RESULT: FAIL --count must be at least 0, got -1", text
    code, text = invoke("fuzz-equiv", "--algebra", algebra_file, "--count", "0")
    assert (code, text) == (0, "RESULT: PASS 0/0 agreements\n")


def test_fuzz_equiv_fits_its_arities_in_the_layers(algebra_file):
    # the drawn arities differ by up to 2; one layer changes them by at most 1
    for seed in range(5):
        code, text = invoke("fuzz-equiv", "--algebra", algebra_file, "--count", "30",
                            "--seed", str(seed), "--max-layers", "1")
        assert (code, text) == (0, "RESULT: PASS 30/30 agreements\n"), text
    code, text = invoke("fuzz-equiv", "--algebra", algebra_file, "--max-layers", "0")
    assert code == 2
    assert text.splitlines()[-1] == "RESULT: FAIL --max-layers must be at least 1, got 0"


def test_roundtrip_rejects_a_negative_generator_count():
    code, text = invoke("roundtrip", "--group", os.path.join(FIXDIR, "z2.group"),
                        "--max-gens", "-2")
    assert code == 2
    assert text.splitlines()[-1] == "RESULT: FAIL --max-gens must be at least 0, got -2", text


def test_roundtrip_group(tmp_path):
    g = tmp_path / "z2.group"
    g.write_text(format_group(cyclic_group(2)))
    code, text = invoke("roundtrip", "--group", str(g),
                        "--max-gens", "2", "--count", "5")
    assert code == 0


@pytest.mark.parametrize("count", ["0", "-3"])
def test_roundtrip_rejects_a_labeling_budget_below_one(count):
    code, text = invoke("roundtrip", "--group", os.path.join(FIXDIR, "z2.group"),
                        "--max-gens", "2", "--count", count)
    assert code == 2
    assert text.splitlines()[-1].startswith(
        "RESULT: FAIL need a labeling budget of at least 1"), text


def test_holonomy_from_a_group_honours_the_mode():
    argv = ("holonomy", "--group", os.path.join(FIXDIR, "k4.group"),
            "--surface", os.path.join(FIXDIR, "k4_torus.surface"))
    assert invoke(*argv) == (0, "1\nRESULT: PASS holonomy 1\n")
    # a float, as the --bundle path prints in float mode
    assert invoke(*argv, "--mode", "float") == (0, "1.0\nRESULT: PASS holonomy 1.0\n")


def test_holonomy_from_labels(bundle_file):
    code, text = invoke("holonomy", "--bundle", bundle_file,
                        "--genus", "1", "--labels", "e,e")
    assert code == 0
    assert text.splitlines()[0] == "2"


def test_holonomy_from_surface_file(bundle_file, tmp_path):
    s = tmp_path / "sphere.surface"
    s.write_text("cap[] ; cup[]\n")
    code, text = invoke("holonomy", "--bundle", bundle_file,
                        "--surface", str(s))
    assert code == 0
    assert text.splitlines()[0] == "0"


def test_cocycle_command(tmp_path):
    K, theta = klein_anticommuting_cocycle()
    (tmp_path / "k4.group").write_text(format_group(K))
    c = tmp_path / "anti.cocycle"
    c.write_text(format_cocycle(from_cocycle(K, theta), "k4.group"))
    code, text = invoke("cocycle", "--cocycle", str(c),
                        "--genus", "1", "--labels", "10,01")
    assert code == 0
    assert "-1" in text.splitlines()


def test_the_cocycle_command_validates_once_with_one_block_per_value(monkeypatch):
    # loading the file validates the rank-one bundle, and the command's
    # report is that validation; each family of the bundle holds one block
    # object per distinct value, shared by every key that holds it
    bundles = []
    for module in (gerbe, crossed):
        def counted(bundle, *args, _original=module.validate_bundle, **kwargs):
            bundles.append(bundle)
            return _original(bundle, *args, **kwargs)
        monkeypatch.setattr(module, "validate_bundle", counted)
    code, _ = invoke("cocycle", "--cocycle", os.path.join(FIXDIR, "k4_anti.cocycle"),
                     "--genus", "1", "--labels", "10,01")
    assert code == 0 and len(bundles) == 1
    for family in crossed.FAMILIES:
        blocks = getattr(bundles[0], family).values()
        # as many objects as values, each object holding one value
        assert len({id(b) for b in blocks}) == len({b.entries()[0] for b in blocks}) == 2


def test_cocycle_command_uses_the_tolerance(tmp_path):
    # one theta is off by 1e-7, so the cocycle identity holds only to 1e-7
    shutil.copy(os.path.join(FIXDIR, "k4.group"), tmp_path / "k4.group")
    with open(os.path.join(FIXDIR, "k4_anti.cocycle"), encoding="utf-8") as fh:
        text = fh.read()
    near = tmp_path / "near.cocycle"
    near.write_text(text.replace("theta 01 10 = -1", "theta 01 10 = -1.0000001"))
    code, out = invoke("cocycle", "--cocycle", str(near), "--mode", "float")
    assert code != 0 and out.splitlines()[-1].startswith("RESULT: FAIL"), out
    code, out = invoke("cocycle", "--cocycle", str(near), "--mode", "float",
                       "--tolerance", "1e-6", "--genus", "1", "--labels", "10,01")
    assert code == 0, out


def test_cocycle_holonomy_on_a_non_abelian_twisted_bundle():
    # [r, s] = r2 at both handles, so the circle between them carries r2
    path = os.path.join(FIXDIR, "d8_twisted.cocycle")
    sb = load_cocycle(path)
    r, s = sb.group.index("r"), sb.group.index("s")
    ref = _reference_closed_surface_word(sb.group, 2, [(r, s), (r, s)])
    assert holonomy(ref, to_crossed_bundle(sb)) == -1
    code, text = invoke("cocycle", "--cocycle", path, "--genus", "2",
                        "--labels", "r,s,r,s")
    assert (code, text.splitlines()[-2:]) == (0, ["-1", "RESULT: PASS holonomy -1"])


def test_an_unnormalized_cocycle_file_exits_2(tmp_path):
    shutil.copy(os.path.join(FIXDIR, "k4.group"), tmp_path / "k4.group")
    with open(os.path.join(FIXDIR, "k4_anti.cocycle"), encoding="utf-8") as fh:
        text = fh.read()
    bad = tmp_path / "bad.cocycle"
    bad.write_text(text + "theta 00 01 = 2\n")
    code, out = invoke("cocycle", "--cocycle", str(bad))
    assert code == 2
    assert out.splitlines()[-1].startswith(
        "RESULT: FAIL not a normalized cocycle"), out


def _k4_cocycle(tmp_path, thetas):
    shutil.copy(os.path.join(FIXDIR, "k4.group"), tmp_path / "k4.group")
    path = tmp_path / "theta.cocycle"
    path.write_text("cocycle over k4.group\n" + "".join(
        "theta %s = %s\n" % pair for pair in thetas))
    return invoke("cocycle", "--cocycle", str(path))


def test_a_theta_off_the_cocycle_identity_names_its_grading_without_a_hint(tmp_path):
    # normalized, but theta(10,10) theta(00,01) = 1 while
    # theta(10,01) theta(10,11) = 1/2
    code, out = _k4_cocycle(tmp_path, [("01 10", "1/2"), ("10 01", "1/2"),
                                       ("01 01", "1/3")])
    assert (code, out.splitlines()[-1]) == (
        2, "RESULT: FAIL not a normalized cocycle: associativity fails at grading "
           "(10, 10, 01)"), out


def test_a_theta_off_only_at_the_left_unit_fails_associativity_without_a_hint(tmp_path):
    # theta(e,g) = 1 follows from theta(e,e) = 1 and the cocycle identity at
    # (e, e, g); the unit axiom, theta(g,e) = 1, holds, and dividing by the
    # coboundary of beta(g) = theta(g,e) = 1 would change nothing
    code, out = _k4_cocycle(tmp_path, [("00 01", "2")])
    assert (code, out.splitlines()[-1]) == (
        2, "RESULT: FAIL not a normalized cocycle: associativity fails at grading "
           "(00, 00, 01)"), out


def test_an_unnormalized_theta_names_its_grading_and_gets_the_hint(tmp_path):
    # theta(01,e) = 2 fails the unit axiom at 01, and first the cocycle
    # identity at (10, 01, e)
    code, out = _k4_cocycle(tmp_path, [("01 00", "2")])
    assert (code, out.splitlines()[-1]) == (
        2, "RESULT: FAIL not a normalized cocycle: associativity fails at grading "
           "(10, 01, 00); dividing by the coboundary of beta(g) = theta(g,e) "
           "normalizes the unit values"), out


@pytest.mark.parametrize("command, source, labels", [
    ("holonomy --group", "s3.group", "120,201"),
    ("cocycle --cocycle", "d8_twisted.cocycle", "r,s"),
], ids=["holonomy", "cocycle"])
def test_closed_surfaces_of_genus_64_and_more(command, source, labels):
    # a closed word keeps at most two circles, so no genus reaches numpy's
    # limit of 64 legs
    for genus in (64, 1000):
        code, text = invoke(*command.split(), os.path.join(FIXDIR, source),
                            "--genus", str(genus), "--labels",
                            ",".join([labels] * genus))
        assert code == 0, text
        assert text.splitlines()[-1].startswith("RESULT: PASS holonomy"), text


def test_cocycle_labels_must_come_in_pairs():
    code, text = invoke("cocycle", "--cocycle",
                        os.path.join(FIXDIR, "k4_anti.cocycle"),
                        "--genus", "1", "--labels", "10,01,11")
    assert code == 2
    assert text.splitlines()[-1].startswith(
        "RESULT: FAIL --labels wants pairs"), text


@pytest.mark.parametrize("command, fixture, group, line, number", [
    ("validate --bundle", "z2_dual.bundle", "z2.group", ": 1", 18),
    ("cocycle --cocycle", "k4_anti.cocycle", "k4.group", "= 1", 12),
], ids=["bundle", "cocycle"])
def test_line_without_a_keyword_is_a_parse_error(tmp_path, command, fixture,
                                                  group, line, number):
    shutil.copy(os.path.join(FIXDIR, group), tmp_path / group)
    with open(os.path.join(FIXDIR, fixture), encoding="utf-8") as fh:
        text = fh.read()
    bad = tmp_path / fixture
    bad.write_text(text + line + "\n")
    code, out = invoke(*command.split(), str(bad))
    assert code == 2
    assert out.splitlines()[-1] == \
        "RESULT: FAIL line %d: unexpected line in %r" % (number, line), out


def test_output_determinism(algebra_file):
    a = invoke("fuzz-equiv", "--algebra", algebra_file, "--count", "10",
               "--seed", "4")
    b = invoke("fuzz-equiv", "--algebra", algebra_file, "--count", "10",
               "--seed", "4")
    assert a == b
    c = invoke("validate", "--algebra", algebra_file)
    d = invoke("validate", "--algebra", algebra_file)
    assert c == d


@pytest.mark.parametrize("line, what", [
    ("fiber e dim 2", "fiber e"),
    ("fusion e e : 7 0 0 1 0 1 0 0", "fusion e e"),
    ("transport r1 e : 1 0 0 1", "transport r1 e"),
    ("unit : 1 0", "unit"),
    ("counit : 0 1", "counit"),
], ids=["fiber", "fusion", "transport", "unit", "counit"])
def test_a_repeated_bundle_line_is_a_parse_error(tmp_path, line, what):
    shutil.copy(os.path.join(FIXDIR, "z2.group"), tmp_path / "z2.group")
    with open(os.path.join(FIXDIR, "z2_dual.bundle"), encoding="utf-8") as fh:
        text = fh.read()
    bad = tmp_path / "z2_dual.bundle"
    bad.write_text(text + line + "\n")
    code, out = invoke("validate", "--bundle", str(bad))
    assert code == 2
    assert out.splitlines()[-1] == \
        "RESULT: FAIL line 18: repeated %s in %r" % (what, line), out


def test_a_fiber_dimension_that_is_no_integer_names_its_line(tmp_path):
    shutil.copy(os.path.join(FIXDIR, "z2.group"), tmp_path / "z2.group")
    with open(os.path.join(FIXDIR, "z2_dual.bundle"), encoding="utf-8") as fh:
        text = fh.read()
    bad = tmp_path / "z2_dual.bundle"
    bad.write_text(text.replace("fiber e dim 2", "fiber e dim x"))
    code, out = invoke("validate", "--bundle", str(bad))
    assert code == 2
    assert out.splitlines()[-1] == \
        "RESULT: FAIL line 2: bad fiber dimension in 'fiber e dim x'", out


@pytest.mark.parametrize("lines, what, number", [
    (["tau 10 01 = 1"], "tau 10 01", 12),
    (["theta 01 10 = 1"], "theta 01 10", 12),
    (["counit = 1", "counit = 2"], "counit", 13),
], ids=["tau", "theta", "counit"])
def test_a_repeated_cocycle_line_is_a_parse_error(tmp_path, lines, what, number):
    shutil.copy(os.path.join(FIXDIR, "k4.group"), tmp_path / "k4.group")
    with open(os.path.join(FIXDIR, "k4_anti.cocycle"), encoding="utf-8") as fh:
        text = fh.read()
    bad = tmp_path / "k4_anti.cocycle"
    bad.write_text(text + "\n".join(lines) + "\n")
    code, out = invoke("cocycle", "--cocycle", str(bad))
    assert code == 2
    assert out.splitlines()[-1] == \
        "RESULT: FAIL line %d: repeated %s in %r" % (number, what, lines[-1]), out


@pytest.mark.parametrize("old, new, message", [
    ("mul 1 1 -> 1:1", "mul 1 1 -> 1:1\nmul 1 1 -> 1:2",
     "line 6: repeated mul 1 1 in 'mul 1 1 -> 1:2'"),
    ("mul 1 2 -> 2:1", "mul 1 2 -> 2:1, 2:0",
     "line 6: repeated target 2 in 'mul 1 2 -> 2:1, 2:0'"),
], ids=["mul", "target"])
def test_a_repeated_product_is_a_parse_error(tmp_path, old, new, message):
    with open(os.path.join(FIXDIR, "dual_numbers.fa"), encoding="utf-8") as fh:
        text = fh.read()
    bad = tmp_path / "dual_numbers.fa"
    bad.write_text(text.replace(old, new))
    code, out = invoke("validate", "--algebra", str(bad))
    assert code == 2
    assert out.splitlines()[-1] == "RESULT: FAIL " + message, out


@pytest.mark.parametrize("old, new, message", [
    ("labels 00 10 01 11", "labels 00 10 01 11\nlabels 00 01 10 11",
     "line 7: repeated labels in 'labels 00 01 10 11'"),
    ("1 0 3 2", "1 0 3 x", "line 3: bad table entry in '1 0 3 x'"),
], ids=["labels", "entry"])
def test_a_bad_group_line_is_a_parse_error_naming_it(tmp_path, old, new, message):
    with open(os.path.join(FIXDIR, "k4.group"), encoding="utf-8") as fh:
        text = fh.read()
    bad = tmp_path / "k4.group"
    bad.write_text(text.replace(old, new))
    code, out = invoke("holonomy", "--group", str(bad), "--surface",
                       os.path.join(FIXDIR, "k4_torus.surface"))
    assert code == 2
    assert out.splitlines()[-1] == "RESULT: FAIL " + message, out


@pytest.mark.parametrize("argv, fixture, group, old, new", [
    (["validate", "--bundle"], "z2_dual.bundle", "z2.group", "\n1 0\n", "\n1 x\n"),
    (["cocycle", "--cocycle"], "k4_anti.cocycle", "k4.group", "1 0 3 2", "1 0 3 x"),
], ids=["bundle", "cocycle"])
def test_a_bad_group_file_under_a_header_is_named(tmp_path, argv, fixture, group,
                                                  old, new):
    shutil.copy(os.path.join(FIXDIR, fixture), tmp_path / fixture)
    with open(os.path.join(FIXDIR, group), encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(old) == 1
    (tmp_path / group).write_text(text.replace(old, new))
    message = "group file %s: line 3: bad table entry in %r" % (group, new.strip())
    code, out = invoke(*argv, str(tmp_path / fixture))
    assert code == 2
    assert out.splitlines()[-1] == "RESULT: FAIL " + message, out
    # the error keeps the class the group parser raises
    with pytest.raises(InputError) as direct:
        parse_group(text.replace(old, new))
    with pytest.raises(InputError) as err:
        (load_bundle if fixture.endswith(".bundle") else load_cocycle)(
            str(tmp_path / fixture))
    assert type(err.value) is type(direct.value)
    assert str(err.value) == "group file %s: %s" % (group, direct.value) == message


@pytest.mark.parametrize("fixture, old, new, number, argv", [
    ("dual_numbers.fa", "unit 1 0", "unit 1/0 0", 3, ["validate", "--algebra"]),
    ("z2_dual.bundle", "counit : 0 1", "counit : 0 1/0", 17, ["validate", "--bundle"]),
    ("k4_anti.cocycle", "tau 10 11 = -1", "tau 10 11 = 1/0", 7, ["cocycle", "--cocycle"]),
    ("dual_numbers.fa", "counit 0 1", "counit 0 nan", 4,
     ["validate", "--mode", "float", "--algebra"]),
], ids=["algebra", "bundle", "cocycle", "float-nan"])
def test_a_number_that_does_not_read_names_its_line(tmp_path, fixture, old, new,
                                                     number, argv):
    for name in ("z2.group", "k4.group"):
        shutil.copy(os.path.join(FIXDIR, name), tmp_path / name)
    with open(os.path.join(FIXDIR, fixture), encoding="utf-8") as fh:
        text = fh.read()
    bad = tmp_path / fixture
    bad.write_text(text.replace(old, new))
    code, out = invoke(*argv, str(bad))
    assert code == 2
    assert out.splitlines()[-1] == "RESULT: FAIL line %d: bad number in %r" % (number, new), out


@pytest.mark.parametrize("argv, message", [
    (["eval", "--genus", "x"], "argument --genus: invalid int value: 'x'"),
    (["no-such-command"], "argument command: invalid choice: 'no-such-command'"),
    ([], "the following arguments are required: command"),
], ids=["bad-int", "bad-command", "no-command"])
def test_usage_errors_end_in_a_result_line(argv, message):
    code, out = invoke(*argv)
    assert code == 2
    assert out.splitlines()[-1].startswith("RESULT: FAIL " + message), out


def test_help_does_not_raise_out_of_run(capsys):
    assert invoke("--help") == (0, "")
    assert capsys.readouterr().out.startswith("usage: tqft2d")


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1"])
def test_a_tolerance_that_is_not_finite_and_at_least_0_exits_2(tmp_path, tolerance):
    # in float mode this algebra fails all four axioms, but at a nan or an
    # infinite tolerance only nondegeneracy would
    with open(os.path.join(FIXDIR, "dual_numbers.fa"), encoding="utf-8") as fh:
        text = fh.read()
    bad = tmp_path / "bad.fa"
    bad.write_text(text.replace("mul 1 2 -> 2:1", "mul 1 2 -> 2:5")
                   .replace("counit 0 1", "counit 1 0"))
    assert invoke("validate", "--algebra", str(bad), "--mode", "float")[1] \
        .splitlines()[-1] == "RESULT: FAIL 4 axioms checked, 4 violations"
    for algebra in (str(bad), os.path.join(FIXDIR, "dual_numbers.fa")):
        code, out = invoke("validate", "--algebra", algebra, "--mode", "float",
                           "--tolerance=" + tolerance)
        assert code == 2
        assert out.splitlines()[-1] == "RESULT: FAIL --tolerance must be finite " \
            "and >= 0, got %s" % float(tolerance), out
    code, out = invoke("validate", "--algebra", str(bad), "--mode", "float",
                       "--tolerance", "0")
    assert code == 1


@pytest.mark.parametrize("word, code, legs", [
    (" * ".join(["cap"] * 32), 0, 32),
    (" * ".join(["cap"] * 33), 2, 33),
    (" * ".join(["cap"] * 70), 2, 70),
    (" * ".join(["id"] * 17), 2, 34),
], ids=["32-caps", "33-caps", "70-caps", "17-cylinders"])
def test_a_word_beyond_numpys_legs_is_an_arity_error(word, code, legs):
    # numpy holds arrays of up to 64 legs but iterates over at most 32
    code_, out = invoke("eval", "--algebra", "ground_field", "--word", word)
    assert code_ == code, out
    if code:
        assert out.splitlines()[-1] == "RESULT: FAIL evaluating the word needs a " \
            "state of %d legs, more than numpy's 32" % legs


def test_an_omitted_block_too_big_to_allocate_names_the_block(tmp_path):
    shutil.copy(os.path.join(FIXDIR, "z2.group"), tmp_path / "z2.group")
    with open(os.path.join(FIXDIR, "z2_dual.bundle"), encoding="utf-8") as fh:
        text = fh.read()
    bad = tmp_path / "big.bundle"
    bad.write_text(text.replace("fiber e dim 2", "fiber e dim 100000000")
                   .replace("fusion e e : 1 0 0 1 0 1 0 0\n", ""))
    code, out = invoke("validate", "--bundle", str(bad))
    assert code == 2
    assert out.splitlines()[-1] == "RESULT: FAIL omitted fusion e e block of shape " \
        "(100000000, 100000000, 100000000) is too big", out


def test_labels_on_cap_and_cup_exit_2_naming_the_factor(tmp_path):
    s = tmp_path / "sphere.surface"
    s.write_text("cap[r1] ; cup[r1]\n")
    code, out = invoke("holonomy", "--group", os.path.join(FIXDIR, "z2.group"),
                       "--surface", str(s))
    assert code == 2
    assert out.splitlines()[-1] == "RESULT: FAIL cap takes no labels in 'cap[r1]'", out


def test_a_file_that_is_no_utf8_text_exits_2(tmp_path):
    bad = tmp_path / "latin1.fa"
    bad.write_bytes("dim 1\nbasis \xe9\n".encode("latin-1"))
    code, out = invoke("validate", "--algebra", str(bad))
    assert code == 2 and "is no UTF-8 text" in out.splitlines()[-1], out


def _readme_commands():
    """Each line of the fenced block under the README's Command line
    heading, split as a shell would."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Command line\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


def test_readme_commands_pass(monkeypatch):
    monkeypatch.chdir(ROOT)
    commands = _readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        assert argv[0] == "tqft2d", argv
        code, out = invoke(*argv[1:])
        assert code == 0, (argv, out)
        assert out.splitlines()[-1].startswith("RESULT: PASS"), (argv, out)


def test_readme_commands_print_the_pinned_output(monkeypatch):
    # the whole output of each README command in both scalar modes, kept in
    # readme_outputs.json: a change meant to keep every output bit-identical
    # must reproduce it byte for byte
    with open(os.path.join(os.path.dirname(__file__), "readme_outputs.json"),
              encoding="utf-8") as fh:
        pinned = json.load(fh)
    monkeypatch.chdir(ROOT)
    commands = [shlex.join(argv[1:]) for argv in _readme_commands()]
    for mode in ("exact", "float"):
        assert sorted(pinned[mode]) == sorted(commands), mode
        for command in commands:
            code, out = invoke(*shlex.split(command), "--mode", mode)
            want = pinned[mode][command]
            assert (code, out) == (want["code"], want["stdout"]), (mode, command)


def test_fixture_commands_print_the_pinned_output(monkeypatch):
    # fixtures the README leaves out: a non-abelian conjugation table,
    # non-trivial transport and failing checks, pinned in both scalar modes
    # in fixture_outputs.json
    with open(os.path.join(os.path.dirname(__file__), "fixture_outputs.json"),
              encoding="utf-8") as fh:
        pinned = json.load(fh)
    monkeypatch.chdir(ROOT)
    assert sorted(pinned) == ["exact", "float"]
    assert len(pinned["exact"]) == 13 and sorted(pinned["float"]) == sorted(pinned["exact"])
    for mode, outputs in pinned.items():
        for command, want in outputs.items():
            code, out = invoke(*shlex.split(command), "--mode", mode)
            assert (code, out) == (want["code"], want["stdout"]), (mode, command)


def test_a_word_file_takes_comments(tmp_path, algebra_file):
    path = tmp_path / "w.word"
    path.write_text("# a pair of pants\npants ; copants  # then split\n")
    for argv in (("type",), ("eval", "--algebra", algebra_file)):
        code, out = invoke(*argv, "--word", str(path))
        assert code == 0, out
        assert (code, out) == invoke(*argv, "--word", "pants ; copants")


@pytest.mark.parametrize("argv", [
    ("holonomy", "--bundle", os.path.join(FIXDIR, "z2_dual.bundle"),
     "--genus", "-1", "--labels", ","),
    ("cocycle", "--cocycle", os.path.join(FIXDIR, "k4_anti.cocycle"),
     "--genus", "-2", "--labels", ","),
])
def test_a_negative_genus_is_rejected_by_name(argv):
    code, text = invoke(*argv)
    assert code == 2
    assert text.splitlines()[-1] == "RESULT: FAIL genus must be nonnegative"
