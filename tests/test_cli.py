import io
import os
import shutil
import sys

import pytest

from tqft2d import cli
from tqft2d.cli import run
from tqft2d.crossed import from_group_algebra, from_frobenius_algebra, \
    format_bundle, holonomy
from tqft2d.frobenius import dual_numbers, format_algebra
from tqft2d.gerbe import klein_anticommuting_cocycle, from_cocycle, \
    format_cocycle, load_cocycle, to_crossed_bundle
from tqft2d.groups import cyclic_group, klein_four_group, format_group

from test_crossed import _reference_closed_surface_word

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


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


def test_fuzz_equiv(algebra_file):
    code, text = invoke("fuzz-equiv", "--algebra", algebra_file,
                        "--count", "15", "--seed", "9", "--max-layers", "6")
    assert code == 0
    assert "15/15 agreements" in text


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


@pytest.mark.parametrize("command, fixture, group, line", [
    ("validate --bundle", "z2_dual.bundle", "z2.group", ": 1"),
    ("cocycle --cocycle", "k4_anti.cocycle", "k4.group", "= 1"),
], ids=["bundle", "cocycle"])
def test_line_without_a_keyword_is_a_parse_error(tmp_path, command, fixture,
                                                  group, line):
    shutil.copy(os.path.join(FIXDIR, group), tmp_path / group)
    with open(os.path.join(FIXDIR, fixture), encoding="utf-8") as fh:
        text = fh.read()
    bad = tmp_path / fixture
    bad.write_text(text + line + "\n")
    code, out = invoke(*command.split(), str(bad))
    assert code == 2
    assert out.splitlines()[-1] == "RESULT: FAIL unexpected line %r" % line, out


def test_output_determinism(algebra_file):
    a = invoke("fuzz-equiv", "--algebra", algebra_file, "--count", "10",
               "--seed", "4")
    b = invoke("fuzz-equiv", "--algebra", algebra_file, "--count", "10",
               "--seed", "4")
    assert a == b
    c = invoke("validate", "--algebra", algebra_file)
    d = invoke("validate", "--algebra", algebra_file)
    assert c == d
