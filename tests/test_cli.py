import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import weaktensor
from weaktensor.cli import build_parser, main
from weaktensor.hilbert import MAX_FACTOR_DIM
from weaktensor.suites import MAX_SAMPLES
from weaktensor.spaces import parse_lattice_text


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def exit_code(capsys, *argv):
    """The exit code of a command line, a refusal by the parser's included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    return code


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def builtin_reports():
    """Exit code and report of one default-seed ``check`` run per built-in
    suite, shared by the tests that read them."""
    reports = {}
    for suite in ("core-verified", "paper-core"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["check", "--suite", suite])
        reports[suite] = code, out.getvalue()
    return reports


def test_build_mo3(capsys, tmp_path):
    # the text ``build --mo 3`` printed
    out_file = tmp_path / "mo3.lat"
    code, out, _ = run(capsys, "build", "mo:3", "--out", str(out_file))
    assert code == 0
    assert out == "points: a b c\n-\na\nb\nc\na b c\n"
    assert out_file.read_text() == out


def test_build_product_round_trip(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(capsys, "build", "mo:3", "--out", "mo3.lat")
    code, out, _ = run(capsys, "build", "box(mo3.lat,mo3.lat)", "--out", "box.lat")
    assert code == 0
    # the text ``build --product box mo3.lat mo3.lat`` printed
    assert sha256(out) == "61fe44eceee978c0d5ea8627deaefea91716e30cb5f84d457a2882eec0df0c9b"
    space = parse_lattice_text((tmp_path / "box.lat").read_text())
    assert len(space) == 44
    code, out2, _ = run(capsys, "build", "box.lat", "--out", "box2.lat")
    assert code == 0
    assert (tmp_path / "box2.lat").read_text() == out2 == out


def test_build_circle_and_powerset(capsys, tmp_path, monkeypatch):
    # the texts ``build --powerset 2`` and ``build --product circle ...`` printed
    code, out, _ = run(capsys, "build", "powerset:2")
    assert (code, out) == (0, "points: a b\n-\na\nb\na b\n")
    monkeypatch.chdir(tmp_path)
    run(capsys, "build", "mo:3", "--out", "mo3.lat")
    code, out, _ = run(capsys, "build", "circle(mo3.lat,mo3.lat)")
    assert code == 0 and len(out.splitlines()) == 51
    assert sha256(out) == "ad7e2239f1f53b5a076416aa915d46f7ad0eebfdb4480c6f03323a00d5a61520"


def test_build_and_join_take_one_target():
    sub = next(a for a in build_parser()._actions if a.dest == "command").choices
    options = {name: [a.option_strings[-1] if a.option_strings else a.metavar
                      for a in sub[name]._actions if a.dest != "help"]
               for name in ("build", "join")}
    assert options == {"build": ["TARGET", "--out"],
                       "join": ["TARGET", "--tuples", "--method", "--betas", "--out"]}


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_command_lines():
    """Each ``weaktensor`` line of README's "Command line" block, its
    continuations joined, with the exit code its comment states (1 where
    it says "exits 1", else 0)."""
    text = README.read_text().split("## Command line", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [(shlex.split(line.split("#", 1)[0]), 1 if "(exits 1)" in line else 0)
            for line in lines if line.startswith("weaktensor ")]


def test_readme_command_lines_run(capsys, tmp_path, monkeypatch):
    # the files the block reads; the block writes the rest
    monkeypatch.chdir(tmp_path)
    (tmp_path / "any.lat").write_text("points: x y z\nx y\n")
    (tmp_path / "my_suite.json").write_text(json.dumps({"checks": [
        {"check": "covering", "targets": ["circle(mo:3,mo:3)"], "expect": "pass"}]}))
    lines = readme_command_lines()
    assert len(lines) == 9
    for argv, code in lines:
        assert argv[0] == "weaktensor"
        assert exit_code(capsys, *argv[1:]) == code, argv
    assert (tmp_path / "report.txt").exists() and (tmp_path / "pow3.lat").exists()


# targets the grammar refuses: a size that is not ASCII digits, which int()
# would take, one-point factors nested past the depth cap, which no point
# cap stops, and names outside the grammar
BAD_TARGETS = (
    ("mo: 3", "bad size"), ("mo:+3", "bad size"), ("powerset:\u0663", "bad size"),
    ("pow:3", "unresolvable target 'pow:3'"), ("pair.prod", "unresolvable target 'pair.prod'"),
    ("mo:1_0", "bad size"), ("box(" * 500 + "two" + ",two)" * 500, "nested too deeply"),
    ("box(mo:3,,mo:3)", "empty factor"), ("box(mo:3,mo:3,)", "empty factor"),
    ("box(,mo:3,mo:3)", "empty factor"), ("fraser(mo:2,mo:2,,)", "empty factor"),
    ("box()", "box takes 2 to 3 factors, got 0"))


def test_build_input_errors(capsys, tmp_path, monkeypatch):
    code, _, err = run(capsys, "build", "spiral(x.lat,y.lat)")
    assert code == 2 and "spiral" in err
    code, _, err = run(capsys, "build", "box(mo:2,mo:2,mo:2,mo:2)")
    assert code == 2 and "box takes 2 to 3 factors, got 4" in err
    for target, says in BAD_TARGETS:
        for text in (target, f"box({target},two)"):
            code, out, err = run(capsys, "build", text)
            assert code == 2 and out == "" and says in err, text
    # one lattice-file loader: a lone file and a product factor read alike
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.lat"
    bad.write_text("points: a b\na z\n")
    for name, says in (("missing.lat", "no such lattice file: {}"),
                       ("bad.lat", "{}: line 2: unknown point label 'z'")):
        lone = run(capsys, "build", name)
        assert lone == (2, "", f"error: {says.format(Path.cwd() / name)}\n")
        assert run(capsys, "build", f"box({name},mo:3)") == lone
    # one target, no more and no fewer
    assert exit_code(capsys, "build") == 2
    assert exit_code(capsys, "build", "mo:3", "powerset:2") == 2
    # a size follows the target grammar: ASCII digits only, and at least 1
    for target, says in (("mo:1_0", "bad size in target 'mo:1_0'"),
                         ("powerset:1_0", "bad size in target 'powerset:1_0'"),
                         ("mo:+3", "bad size in target 'mo:+3'"),
                         ("mo:\u0663", "bad size in target 'mo:\u0663'"),
                         ("mo:0", "point count must be between 1 and 24"),
                         ("powerset:0", "point count must be between 1 and 24")):
        assert run(capsys, "build", target) == (2, "", f"error: {says}\n"), target


@pytest.mark.parametrize("target", ["box(powerset:4,powerset:6)", "powerset:21"])
def test_build_refuses_a_family_past_the_cap(capsys, target):
    # the box sweep stops at the step that passes 2^20 sets; the powerset is never built
    says = "error: family exceeds the cap of 1048576 sets\n"
    assert run(capsys, "build", target) == (2, "", says)


def test_join_box_and_fraser(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(capsys, "build", "mo:3", "--out", "mo3.lat")
    code, out, _ = run(capsys, "join", "box(mo3.lat,mo3.lat)",
                       "--tuples", "a,a;b,b;c,c", "--method", "box")
    assert code == 0
    assert out.endswith("RESULT: a,a a,b a,c b,a b,b b,c c,a c,b c,c\n")
    code, out, _ = run(capsys, "join", "box(mo3.lat,mo3.lat)",
                       "--tuples", "a,a;b,b;c,c", "--method", "fraser")
    assert code == 0
    assert out.endswith("RESULT: a,a b,b c,c\n")


def test_join_beta_sequence_trace(capsys, tmp_path, monkeypatch):
    # the trace ``join --product box mo4.lat mo4.lat`` printed
    monkeypatch.chdir(tmp_path)
    run(capsys, "build", "mo:4", "--out", "mo4.lat")
    code, out, _ = run(capsys, "join", "box(mo4.lat,mo4.lat)",
                       "--tuples", "a,a;b,b;c,c;a,b", "--method", "beta-sequence",
                       "--betas", "2,1,2")
    assert code == 0
    assert out == (
        "R0: a,a a,b b,b c,c\n"
        "R1: a,a a,b a,c a,d b,b c,c\n"
        "R2: a,a a,b a,c a,d b,b b,c c,b c,c d,b d,c\n"
        "R3: a,a a,b a,c a,d b,a b,b b,c b,d c,a c,b c,c c,d d,a d,b d,c d,d\n"
        "RESULT: a,a a,b a,c a,d b,a b,b b,c b,d c,a c,b c,c c,d d,a d,b d,c d,d\n"
    )


def test_join_via_product_file(capsys, tmp_path):
    # lattice files by absolute path, so the target names them from any working directory
    mo3 = tmp_path / "mo3.lat"
    run(capsys, "build", "mo:3", "--out", str(mo3))
    code, out, _ = run(capsys, "join", f"box({mo3},{mo3})", "--tuples", "a,a;a,b",
                       "--method", "fraser")
    assert code == 0
    assert out.endswith("RESULT: a,a a,b a,c\n")


@pytest.mark.parametrize("argv", [
    ["check", "--suite", "DIR"],
    ["build", "DIR.lat"],
    ["build", "box(DIR.lat,mo:3)"],
    ["join", "DIR.prod", "--tuples", "a,a"],
    ["build", "DIR.prod"],
])
def test_an_unreadable_path_is_an_input_error(capsys, tmp_path, monkeypatch, argv):
    # a directory where a file is read: one error line and exit 2, not the mismatch code
    monkeypatch.chdir(tmp_path)
    for name in ("DIR", "DIR.lat", "DIR.prod"):
        (tmp_path / name).mkdir()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "DIR" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["build", "mo:3"],
    ["check", "--suite", "s.json"],
    ["join", "box(mo:3,mo:3)", "--tuples", "a,a"],
])
def test_an_unwritable_out_prints_nothing(capsys, tmp_path, monkeypatch, argv):
    # --out names a directory: the write fails before any output is printed
    monkeypatch.chdir(tmp_path)
    (tmp_path / "DIR").mkdir()
    (tmp_path / "s.json").write_text(json.dumps({"checks": [
        {"check": "covering", "targets": ["mo:3"], "expect": "pass"}]}))
    code, out, err = run(capsys, *argv, "--out", "DIR")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "DIR" in err


def test_join_input_errors(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(capsys, "build", "mo:3", "--out", "mo3.lat")
    box = "box(mo3.lat,mo3.lat)"
    code, _, err = run(capsys, "join", box, "--tuples", "zz,a", "--method", "box")
    assert code == 2 and "zz" in err
    code, _, err = run(capsys, "join", box, "--tuples", "a,b,c", "--method", "box")
    assert code == 2 and "bad tuple 'a,b,c': expected 2 coordinates, got 3" in err
    code, _, err = run(capsys, "join", box, "--tuples", "a,a", "--method", "beta-sequence")
    assert code == 2 and "--betas" in err
    code, _, err = run(capsys, "join", box, "--tuples", "a,a", "--method", "beta-sequence",
                       "--betas", "9")
    assert code == 2
    # factor numbers follow the target grammar's size rule: ASCII digits only
    for betas in ("\u0662,1", "+1", " 1", "1, 2", "1,", ""):
        code, out, err = run(capsys, "join", box, "--tuples", "a,a",
                             "--method", "beta-sequence", "--betas", betas)
        assert code == 2 and out == "" and "--betas" in err, betas
    # factor numbers without the method that reads them, the default included
    for method in ([], ["--method", "fraser"], ["--method", "box"]):
        code, out, err = run(capsys, "join", box, "--tuples", "a,a", *method, "--betas", "1")
        assert (code, out, err) == (2, "", "error: --betas needs --method beta-sequence\n")
    assert exit_code(capsys, "join", "--tuples", "a,a", "--method", "box") == 2
    # the product's shape is checked as in every other front door
    for target, says in (
            ("spiral(mo:3,mo:3)", "unknown product kind 'spiral'"),
            ("box(mo:2,mo:2,mo:2,mo:2)", "box takes 2 to 3 factors, got 4"),
            ("circle(mo:3,mo:3,mo:3)", "circle takes 2 factors, got 3"),
            # and a circle's factors as ``build`` checks them
            ("circle(powerset:2,mo:3)", "circle product factors need at least three atoms"),
            # and the target names a product
            ("mo3.lat", "not a product target: 'mo3.lat'"),
            ("x.prod", "not a product target: 'x.prod'"),
            ("pow:3", "not a product target: 'pow:3'"),
            ("box(x.prod,mo:3)", "unresolvable target 'x.prod'")):
        code, out, err = run(capsys, "join", target, "--tuples", "a,a")
        assert code == 2 and out == "" and says in err


def test_join_reads_a_universe_whose_fraser_product_is_refused(capsys):
    # 2^24 regions on either axis: the Fraser product is refused, the join is not
    code, out, _ = run(capsys, "join", "fraser(powerset:4,powerset:6)", "--tuples", "a,a;b,b")
    assert (code, out) == (0, "R0: a,a b,b\nRESULT: a,a b,b\n")


def test_check_core_verified_suite_passes(builtin_reports):
    code, out = builtin_reports["core-verified"]
    assert code == 0
    assert "mismatches=0" in out


def test_check_paper_core_reports_the_known_red_entries(builtin_reports):
    code, out = builtin_reports["paper-core"]
    assert code == 1
    lines = [l for l in out.splitlines() if "[expected" in l]
    assert len(lines) == 4
    assert any("sharp-valid box(mo:3,mo:3)" in l for l in lines)
    assert any("covering fraser(mo:3,mo:3)" in l for l in lines)
    assert any("orthocomplementation box(mo:3,mo:3)" in l for l in lines)
    assert any("families-strict-subset circle(mo:3,mo:3) fraser(mo:3,mo:3)" in l
               for l in lines)
    assert "mismatches=4" in out


@pytest.mark.parametrize("suite, code, sha256", [
    ("core-verified", 0, "cc7782eedbf1f36dbeb76dd3153d10c1b5de030adc3e5dbc5211fd723ddf85a4"),
    ("paper-core", 1, "ce7a0e9fc5317a13f32f31b2cf045e21b3fbcffbafc04d069a66cc64caa0fa5a"),
])
def test_builtin_suite_reports_are_byte_identical(builtin_reports, suite, code, sha256):
    # the text report, verdicts and witnesses included, at the default seed
    got, out = builtin_reports[suite]
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_check_is_deterministic(capsys, tmp_path):
    suite = tmp_path / "s.json"
    suite.write_text(json.dumps({"name": "demo", "checks": [
        {"check": "covering", "targets": ["mo:3"], "expect": "pass"},
        {"check": "hilbert-point-biorthogonality", "args": {"count": 5}},
        {"check": "orthocomplementation", "targets": ["mo:4"], "expect": "pass"},
    ]}))
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    code1, out1, _ = run(capsys, "check", "--suite", str(suite), "--out", str(a))
    code2, out2, _ = run(capsys, "check", "--suite", str(suite), "--out", str(b))
    assert code1 == code2 == 0
    assert out1 == out2
    assert a.read_bytes() == b.read_bytes()


def test_check_expectation_mismatch_exits_one(capsys, tmp_path):
    suite = tmp_path / "s.json"
    suite.write_text(json.dumps({"checks": [
        {"check": "covering", "targets": ["box(mo:3,mo:3)"], "expect": "pass"}]}))
    code, out, _ = run(capsys, "check", "--suite", str(suite))
    assert code == 1
    assert "[expected pass]" in out


def test_check_empty_suite(capsys, tmp_path):
    suite = tmp_path / "s.json"
    suite.write_text(json.dumps({"checks": []}))
    code, out, _ = run(capsys, "check", "--suite", str(suite))
    assert code == 0
    assert out == "SUMMARY checks=0 mismatches=0\n"


def test_check_input_errors(capsys, tmp_path):
    code, _, err = run(capsys, "check", "--suite", "no-such-suite")
    assert code == 2
    suite = tmp_path / "s.json"
    suite.write_text(json.dumps({"checks": [{"check": "no-such-check"}]}))
    code, _, err = run(capsys, "check", "--suite", str(suite))
    assert code == 2 and "no-such-check" in err
    suite.write_text(json.dumps({"checks": [
        {"check": "covering", "targets": ["mo:zz"]}]}))
    code, _, err = run(capsys, "check", "--suite", str(suite))
    assert code == 2
    suite.write_text("not json")
    code, _, err = run(capsys, "check", "--suite", str(suite))
    assert code == 2
    # a target that parses but cannot be built is still an input error
    suite.write_text(json.dumps({"checks": [
        {"check": "covering", "targets": ["circle(powerset:2,mo:3)"]}]}))
    code, _, err = run(capsys, "check", "--suite", str(suite))
    assert code == 2 and "three atoms" in err
    # malformed suite structure is named, never a traceback or the mismatch code
    for data, says in (
            ({"checks": 5}, "'checks' list"),
            ({"checks": ["checking"]}, "check #1 is not an object"),
            ({"checks": [{"check": "covering", "args": 5}]}, "check #1 has 'args'"),
            ({"checks": [{"check": "covering", "targets": "mo:3"}]}, "check #1 has 'targets'")):
        suite.write_text(json.dumps(data))
        code, _, err = run(capsys, "check", "--suite", str(suite))
        assert code == 2 and str(suite) in err and says in err
    # a bad, over-cap or unknown argument is named with its check, not run
    for check, args, key in (
            ("hilbert-perp-involution", {"m": "x"}, "m"),
            ("automorphism-count", {"count": 7.5}, "count"),
            ("hilbert-perp-involution", {"m": 9, "n": 9, "count": 1}, "m"),
            ("hilbert-point-biorthogonality", {"count": MAX_SAMPLES + 1}, "count"),
            ("hilbert-antilinear-agreement", {"maps": 1, "pairs": MAX_SAMPLES + 1}, "pairs"),
            ("hilbert-dual-covering-break", {"m": MAX_FACTOR_DIM + 1}, "m"),
            ("hilbert-antilinear-agreement", {"matrix": 5}, "matrix"),
            ("hilbert-antilinear-agreement", {"matrix": "gr 1 0"}, "matrix"),
            ("hilbert-antilinear-agreement", {"matrix": "gr 1e3 0 gr 0 1 gr 1 0 gr 0 0"}, "matrix"),
            ("hilbert-antilinear-agreement", {"matrix": "gr 0.5 0 gr 0 1 gr 1 0 gr 0 0"}, "matrix"),
            ("orthocomplementation", {"node_cap": 0}, "node_cap"),
            ("orthocomplementation", {"node_cap": -5}, "node_cap"),
            ("contains-mo", {"n": 2}, "n"),
            ("hilbert-perp-involution", {"cont": 3}, "cont"),
            ("covering", {"node_cap": 5}, "node_cap")):
        targets = [] if check.startswith("hilbert-") else ["box(mo:3,mo:3)"]
        suite.write_text(json.dumps({"checks": [
            {"check": check, "targets": targets, "args": args}]}))
        code, out, err = run(capsys, "check", "--suite", str(suite))
        assert code == 2 and out == "" and check in err and repr(key) in err
    # a wrong number of targets or factors is named before any target is built
    for check, targets, says in (
            ("covering", ["mo:3", "nope.lat"], "covering takes 1 target, got 2"),
            ("covering", [], "covering takes 1 target, got 0"),
            ("families-equal", ["mo:3"], "families-equal takes 2 targets, got 1"),
            ("hilbert-box-verdicts", ["mo:3"], "hilbert-box-verdicts takes 0 targets, got 1"),
            ("coatom-crosses", ["mo:3"], "coatom-crosses takes 2 to 3 targets, got 1"),
            ("coatom-crosses", ["mo:2"] * 4, "coatom-crosses takes 2 to 3 targets, got 4"),
            ("covering", ["box(mo:2,mo:2,mo:2,nope.lat)"], "box takes 2 to 3 factors, got 4")):
        suite.write_text(json.dumps({"checks": [{"check": check, "targets": targets}]}))
        code, out, err = run(capsys, "check", "--suite", str(suite))
        assert code == 2 and out == "" and says in err
    # so is a target the grammar does not take, never a traceback
    for target, says in BAD_TARGETS:
        suite.write_text(json.dumps({"checks": [{"check": "covering", "targets": [target]}]}))
        code, out, err = run(capsys, "check", "--suite", str(suite))
        assert code == 2 and out == "" and says in err, target


def test_check_with_product_file_target(capsys, tmp_path):
    # lattice files by absolute path, so the target names them from any working directory
    mo3 = tmp_path / "mo3.lat"
    run(capsys, "build", "mo:3", "--out", str(mo3))
    suite = tmp_path / "s.json"
    suite.write_text(json.dumps({"checks": [
        {"check": "covering", "targets": [f"circle({mo3},{mo3})"], "expect": "pass"}]}))
    code, out, _ = run(capsys, "check", "--suite", str(suite))
    assert code == 0


def test_check_antilinear_matrix_literal(capsys, tmp_path):
    suite = tmp_path / "s.json"
    suite.write_text(json.dumps({"checks": [
        {"check": "hilbert-antilinear-agreement",
         "args": {"m": 2, "n": 2, "maps": 1, "pairs": 30,
                  "matrix": "gr 1 0 gr 0 0 gr 0 0 gr 1 0"},
         "expect": "pass"}]}))
    code, out, _ = run(capsys, "check", "--suite", str(suite))
    assert code == 0


def test_check_seed_flag_changes_samples_not_verdicts(capsys):
    # the seed moves the sampled Hilbert checks, never a verdict or witness
    code1, out1, _ = run(capsys, "check", "--suite", "core-verified", "--seed", "1")
    code2, out2, _ = run(capsys, "check", "--suite", "core-verified", "--seed", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_module_runs_as_the_command():
    src = str(Path(weaktensor.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "weaktensor", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout
