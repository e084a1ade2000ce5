import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import bskit
from bskit import cli
from bskit.cli import main
from bskit.embedding import CheckReport, GroupBall, enumerate_ball
from bskit.haagerup import cocycle_identity_check, tree_gram
from bskit.presentation import make_bs
from bskit.words import VertexTrie
from conftest import ASC2, GENERAL_DATA


@pytest.fixture
def runner():
    return CliRunner()


def test_reduce(runner):
    result = runner.invoke(main, ["--bs", "2", "3", "reduce", "t x^3 t^-1"])
    assert result.exit_code == 0
    assert result.output.strip() == "x^2"


def test_wp_trivial(runner):
    result = runner.invoke(main, ["--bs", "2", "3", "wp", "x^2 t x^-3 t^-1"])
    assert result.exit_code == 0
    assert result.output.strip() == "trivial"


def test_wp_nontrivial(runner):
    result = runner.invoke(main, ["--bs", "2", "3", "wp", "t"])
    assert result.exit_code == 0
    assert result.output.strip() == "nontrivial"


def test_dist(runner):
    result = runner.invoke(main, ["--bs", "2", "3", "dist", "t x t"])
    assert result.exit_code == 0
    assert result.output.strip() == "2"


def test_vertex(runner):
    result = runner.invoke(main, ["--bs", "2", "3", "vertex", "x^3 t"])
    assert result.output.strip() == "x^1·t"


def test_neighbors(runner):
    result = runner.invoke(main, ["--bs", "2", "3", "neighbors"])
    assert result.exit_code == 0
    assert len(result.output.strip().splitlines()) == 5


def test_affine(runner):
    result = runner.invoke(main, ["--bs", "2", "3", "affine", "t x t"])
    assert result.output.strip() == "(2; 2/3)"


def test_inject_check(runner):
    result = runner.invoke(main, ["--bs", "2", "3", "inject-check", "-L", "4"])
    assert result.exit_code == 0
    assert result.output.startswith("OK: 0 violations")


def test_stab_check(runner):
    result = runner.invoke(main, ["--bs", "2", "3", "stab-check", "-L", "4"])
    assert result.exit_code == 0
    assert result.output.startswith("OK: 0 violations")


def test_ball_dot(runner):
    result = runner.invoke(main, ["--bs", "2", "3", "ball", "-R", "1",
                                  "--format", "dot"])
    assert result.exit_code == 0
    assert result.output.startswith("graph")
    assert result.output.count("--") == 5


def test_ball_csv(runner):
    result = runner.invoke(main, ["--bs", "2", "3", "ball", "-R", "1",
                                  "--format", "csv"])
    assert result.output.splitlines()[0] == "parent,child,direction,residue"


def test_orbit(runner):
    result = runner.invoke(main, ["--bs", "2", "3", "orbit", "t", "-k", "3"])
    lines = result.output.strip().splitlines()
    assert lines[0] == "G"
    assert len(lines) == 4


def test_proper_csv(runner):
    result = runner.invoke(main, ["--bs", "1", "2", "proper", "--lmax", "6",
                                  "-R", "1,2"])
    lines = result.output.strip().splitlines()
    assert lines[0] == "L,R,count,stabilized"
    assert len(lines) == 1 + 2 * 7


Z2_NONASC = {"n": 2, "A": [[2, 1], [0, 2]], "B": [[1, 1], [1, -1]]}


# bsk cocycle output, every line: the edge order lives only in
# `coefficients`
COCYCLE_OUTPUTS = [
    (None, "t x t",
     ["norm_sq 2",
      "+1 [G] -> [t]",
      "+1 [t] -> [t | x^1·t]"]),
    (None, "x t x^2 t^-1 x t t x^-1 t",
     ["norm_sq 5",
      "+1 [G] -> [x^1·t]",
      "+1 [x^1·t] -> [x^1·t | x^2·t^-1]",
      "+1 [x^1·t | x^2·t^-1] -> [x^1·t | x^2·t^-1 | x^1·t]",
      "+1 [x^1·t | x^2·t^-1 | x^1·t] -> [x^1·t | x^2·t^-1 | x^1·t | t]",
      "+1 [x^1·t | x^2·t^-1 | x^1·t | t] -> "
      "[x^1·t | x^2·t^-1 | x^1·t | t | x^1·t]"]),
    (Z2_NONASC, "t v[1,0] t^-1 v[0,1] t v[1,1] t",
     ["norm_sq 4",
      "+1 [G] -> [t]",
      "+1 [t] -> [t | v[0,1]·t^-1]",
      "+1 [t | v[0,1]·t^-1] -> [t | v[0,1]·t^-1 | v[0,1]·t]",
      "+1 [t | v[0,1]·t^-1 | v[0,1]·t] -> "
      "[t | v[0,1]·t^-1 | v[0,1]·t | t]"]),
]


def test_cocycle(runner, tmp_path):
    for group, word, lines in COCYCLE_OUTPUTS:
        if group is None:
            args = ["--bs", "2", "3"]
        else:
            path = tmp_path / "group.json"
            path.write_text(json.dumps(group))
            args = ["--spec", str(path)]
        result = runner.invoke(main, [*args, "cocycle", word])
        assert result.exit_code == 0, word
        assert result.output.splitlines() == lines, word


def test_cocycle_check(runner):
    result = runner.invoke(main, ["--bs", "2", "3", "cocycle-check",
                                  "-L", "3", "--pairs", "50"])
    assert result.exit_code == 0
    assert result.output.startswith("OK")


def test_gram_json(runner):
    result = runner.invoke(main, ["--bs", "2", "3", "gram", "-L", "4",
                                  "-s", "0.5", "--size", "10"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["psd"] is True and data["dimension"] == 10


def test_ball_commands_build_forms_only_for_what_they_draw(runner,
                                                          monkeypatch):
    # the checks, gram and cocycle-check read the ball's keys: neither view
    # of forms is read (elements joins spheres), the checks build no vertex
    # tuple, and gram and cocycle-check build one per element they draw
    # (the cocycle law works on the nodes of its own trie and builds none)
    monkeypatch.setattr(GroupBall, "spheres", property(
        lambda ball: pytest.fail("a ball command read GroupBall.spheres")))
    calls = [0]
    vertex = VertexTrie.vertex

    def counting(trie, node):
        calls[0] += 1
        return vertex(trie, node)
    monkeypatch.setattr(VertexTrie, "vertex", counting)
    for args, most in ((["inject-check"], 0), (["stab-check"], 0),
                       (["cocycle-check", "--pairs", "30"], 60),
                       (["gram", "--size", "40"], 40),
                       (["gram", "--size", "40", "--kernel", "witness"], 40)):
        calls[0] = 0
        result = runner.invoke(main, ["--bs", "2", "3", *args, "-L", "6"])
        assert result.exit_code == 0, args
        assert calls[0] <= most, args
    assert calls[0] > 0  # the counter sees the calls the forms make


@pytest.mark.parametrize("name, L", [("bs23", 6), ("z2_nonasc", 4)])
def test_gram_and_cocycle_check_draw_what_random_draws_from_the_elements(
        runner, monkeypatch, tmp_path, name, L):
    # element order is output: for each seed the forms of the drawn keys
    # are the forms random.Random(seed).sample and .choice draw from the
    # ball's elements, since both read a sequence only by len and index
    spec = GENERAL_DATA[name]
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"n": spec.n, "A": [*map(list, spec.A.rows)],
                                "B": [*map(list, spec.B.rows)]}))
    elements = enumerate_ball(L, spec).elements
    drawn = []
    monkeypatch.setattr(cli, "tree_gram", lambda sample, s, spec: (
        drawn.append(sample) or tree_gram(sample, s, spec)))
    monkeypatch.setattr(cli, "cocycle_identity_check",
                        lambda gamma, delta, spec, trie=None: not drawn.append(
                            (gamma, delta)))
    for seed in range(5):
        drawn.clear()
        for args in (["gram", "--size", "40"], ["cocycle-check", "--pairs",
                                                "30"]):
            result = runner.invoke(main, ["--spec", str(path), *args, "-L",
                                          str(L), "--seed", str(seed)])
            assert result.exit_code == 0, (args, result.output)
        sample = random.Random(seed).sample(elements, 40)
        rng = random.Random(seed)
        assert drawn == [sample, *((rng.choice(elements),
                                    rng.choice(elements)) for _ in range(30))]


@pytest.mark.parametrize("spec", [make_bs(2, 3), make_bs(1, 2), ASC2,
                                  GENERAL_DATA["z2_nonasc"]],
                         ids=["bs23", "bs12", "asc2", "z2_nonasc"])
def test_cocycle_check_prints_what_a_fresh_trie_per_pair_prints(
        runner, tmp_path, spec):
    # the command lends one trie to every pair; its bytes are those of the
    # law run pair by pair, each pair on a trie of its own
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"n": spec.n, "A": [*map(list, spec.A.rows)],
                                "B": [*map(list, spec.B.rows)]}))
    elements = enumerate_ball(4, spec).elements
    for seed in range(5):
        rng = random.Random(seed)
        bad = sum(not cocycle_identity_check(rng.choice(elements),
                                             rng.choice(elements), spec)
                  for _ in range(300))
        result = runner.invoke(main, ["--spec", str(path), "cocycle-check",
                                      "--pairs", "300", "--seed", str(seed)])
        assert result.exit_code == (bad > 0)
        assert result.output == (f"{'FAIL' if bad else 'OK'}: {bad} "
                                 "violations / 300 pairs\n")


def test_witness(runner):
    # t moves (0, 1) to (0, |lambda|) = (0, 1/2) for both signs of lambda
    for q in ("2", "-2"):
        result = runner.invoke(main, ["--bs", "1", q, "witness", "t",
                                      "-s", "1.0"])
        assert result.exit_code == 0
        assert result.output.strip() == "0.183939720586"


def test_c0_csv(runner):
    for p, q, lmax in (("1", "2", "5"), ("2", "-3", "4")):
        result = runner.invoke(main, ["--bs", p, q, "c0", "--lmax", lmax,
                                      "-s", "1.0"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "L,max_witness,argmax"
        assert len(lines) == int(lmax) + 2


def test_spec_file(runner, tmp_path):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"n": 2, "A": [[2, 1], [0, 2]],
                                "B": [[1, 0], [0, 1]]}))
    result = runner.invoke(main, ["--spec", str(path), "neighbors"])
    assert result.exit_code == 0
    assert len(result.output.strip().splitlines()) == 5


@pytest.mark.parametrize("command", ["reduce", "cocycle"])
def test_command_help_needs_no_group(runner, command):
    result = runner.invoke(main, [command, "--help"], prog_name="bsk")
    assert result.exit_code == 0
    assert result.output.startswith(f"Usage: bsk {command} [OPTIONS] WORD\n")


def test_usage_errors_exit_2(runner, tmp_path):
    no_group = runner.invoke(main, ["reduce", "t"], prog_name="bsk")
    assert no_group.exit_code == 2
    assert no_group.output == (
        "Usage: bsk [OPTIONS] COMMAND [ARGS]...\n"
        "Try 'bsk --help' for help.\n\n"
        "Error: a group is required: --bs P Q or --spec FILE\n")
    assert runner.invoke(main, ["--bs", "0", "3", "reduce", "t"]).exit_code == 2
    assert runner.invoke(main, ["--bs", "2", "3", "reduce", "y"]).exit_code == 2
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"n": 1, "A": [[1]], "B": [[1]]}))
    both = runner.invoke(main, ["--bs", "2", "3", "--spec", str(path),
                                "reduce", "t"])
    assert both.exit_code == 2
    # non-integer entries and dimensions are refused, not truncated
    for bad in ({"n": "x", "A": [[1]], "B": [[1]]},
                {"n": 1, "A": [["a"]], "B": [[1]]},
                {"n": 1, "A": [[2.7]], "B": [[3]]},
                {"n": 1, "A": [[True]], "B": [[3]]},
                {"n": 1, "A": [[2]], "B": [["2"]]},
                {"n": 1.5, "A": [[2]], "B": [[3]]},
                {"n": "1", "A": [[2]], "B": [[3]]}):
        path.write_text(json.dumps(bad))
        result = runner.invoke(main, ["--spec", str(path), "reduce", "t"])
        assert result.exit_code == 2 and "bad group file" in result.output
    empty = runner.invoke(main, ["--bs", "2", "3", "gram", "-L", "2",
                                 "--size", "0"])
    assert empty.exit_code == 2 and "empty sample" in empty.output
    negative = runner.invoke(main, ["--bs", "2", "3", "gram", "-L", "3",
                                    "--size", "-1"])
    assert negative.exit_code == 2 and "x>=0" in negative.output
    # a repeated threshold would be counted twice, a negative one is empty;
    # a non-integer entry gets the same wording
    for grid in ("2,2", "-1", "a", "", "1,,2", "1.5"):
        result = runner.invoke(main, ["--bs", "1", "2", "proper", "--lmax",
                                      "3", "-R", grid])
        assert result.exit_code == 2
        assert "distinct nonnegative" in result.output
    # the kernel scale is checked the same way on every path
    for args in (["witness", "t", "-s", "-1"], ["c0", "-s", "-1"],
                 ["witness", "t", "-s", "nan"], ["gram", "-s", "nan"]):
        result = runner.invoke(main, ["--bs", "1", "2", *args])
        assert result.exit_code == 2
        assert "positive finite number" in result.output
    # negative counts are refused, not run as empty loops
    for args in (["cocycle-check", "--pairs", "-5"],
                 ["orbit", "t", "-k", "-1"]):
        result = runner.invoke(main, ["--bs", "1", "2", *args])
        assert result.exit_code == 2 and "x>=0" in result.output
    # unreadable and unwritable files: one line naming the path
    path.write_bytes(b"\xff\xfe{")
    for args, name in ((["--spec", str(tmp_path), "reduce", "t"], tmp_path),
                       (["--spec", str(path), "reduce", "t"], path),
                       (["--bs", "2", "3", "ball", "-R", "1", "--out",
                         "/nonexistent/x.txt"], "/nonexistent/x.txt")):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, args
        assert result.output.splitlines() == [result.output.strip()]
        assert str(name) in result.output and "Traceback" not in result.output


@pytest.mark.parametrize("args", [
    ["ball", "-R", "2", "--format", "dot"], ["proper", "--lmax", "5"],
    ["gram", "-L", "3", "--size", "10"], ["c0", "--lmax", "5"]])
def test_out_writes_the_printed_bytes(runner, tmp_path, args):
    # --out FILE writes what the command prints without it, and prints
    # nothing
    printed = runner.invoke(main, ["--bs", "2", "3", *args])
    path = tmp_path / "out.txt"
    result = runner.invoke(main, ["--bs", "2", "3", *args, "--out",
                                  str(path)])
    assert printed.exit_code == 0 == result.exit_code
    assert result.output == ""
    assert path.read_bytes() == printed.stdout_bytes


def test_out_writes_utf8_under_an_ascii_locale(tmp_path):
    # vertex names hold "·": --out writes the UTF-8 bytes that stdout
    # prints, whatever the locale's encoding
    src = str(Path(bskit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUTF8": "0", "LC_ALL": "C"}
    args = [sys.executable, "-m", "bskit.cli", "--bs", "2", "3", "ball",
            "-R", "1", "--format", "dot"]
    path = tmp_path / "out.dot"
    printed = subprocess.run(args, capture_output=True, env=env)
    written = subprocess.run([*args, "--out", str(path)],
                             capture_output=True, env=env)
    assert printed.returncode == 0 == written.returncode, written.stderr
    assert "·".encode() in printed.stdout
    assert written.stdout == b""
    assert path.read_bytes() == printed.stdout


@pytest.mark.parametrize("command", ["reduce", "wp", "vertex", "dist",
                                     "neighbors", "orbit", "affine",
                                     "cocycle", "witness"])
def test_bad_word_is_a_usage_error_of_its_command(runner, command):
    # the usage line names the subcommand, not the group
    result = runner.invoke(main, ["--bs", "2", "3", command, "y"],
                           prog_name="bsk")
    assert result.exit_code == 2
    assert result.output.splitlines()[0].startswith(f"Usage: bsk {command} ")
    assert "Error: bad atom 'y' (at offset 0)" in result.output


def test_failed_checks_exit_1(runner, monkeypatch):
    def planted(name):
        def checker(ball, spec):
            return CheckReport(name, len(ball), ["planted violation"])
        return checker
    monkeypatch.setattr(cli, "check_injectivity", planted("injectivity"))
    monkeypatch.setattr(cli, "check_stabilizer", planted("stabilizer"))
    monkeypatch.setattr(cli, "cocycle_identity_check",
                        lambda gamma, delta, spec, trie=None: False)
    for args, first in (
            (["inject-check", "-L", "2"],
             "FAIL: 1 violations / 17 elements [injectivity]"),
            (["stab-check", "-L", "2"],
             "FAIL: 1 violations / 17 elements [stabilizer]"),
            (["cocycle-check", "-L", "2", "--pairs", "5"],
             "FAIL: 5 violations / 5 pairs")):
        result = runner.invoke(main, ["--bs", "2", "3", *args])
        assert result.exit_code == 1, args
        assert result.output.splitlines()[0] == first
        assert "Traceback" not in result.output


def test_cli_import_leaves_numpy_unloaded():
    # numpy is imported by the first Gram report, not by start-up
    src = str(Path(bskit.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import bskit.cli; "
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_import_bskit_leaves_dataclasses_and_inspect_unloaded():
    # the record types are NamedTuples and plain classes, so a fresh
    # ``import bskit`` loads neither module (pytest has loaded both here),
    # while it still loads every library module but the CLI
    src = str(Path(bskit.__file__).resolve().parents[1])
    code = "import sys, bskit; print(' '.join(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    loaded = set(out.stdout.split())
    assert not {"dataclasses", "inspect"} & loaded
    assert {f"bskit.{name}" for name in (
        "arith", "presentation", "words", "tree", "affine", "embedding",
        "haagerup")} <= loaded


def test_resource_bound_exit_2(runner, monkeypatch):
    monkeypatch.setenv("BSK_MAX_BALL", "3")
    result = runner.invoke(main, ["--bs", "2", "3", "ball", "-R", "5"])
    assert result.exit_code == 2


def test_numeric_range_exit_2(runner):
    # c0 on BS(1, 10^200) evaluates t^-1 x at sphere 2, whose witness
    # leaves the float range; so do the distance of t^-1 x t and the
    # coordinate of t^-2 x t^2 there, each named in the module's words
    huge = ["--bs", "1", str(10 ** 200)]
    for args, named in (
            (["--bs", "1", "2", "witness", "t^1100"], "height k = 1100 "),
            (["--bs", "1", "2", "witness", "t^-1100"], "height k = -1100 "),
            ([*huge, "c0", "--lmax", "2"], "the distance of (0.0, 1.0) and "),
            ([*huge, "witness", "t^-1 x t"],
             "the distance of (0.0, 1.0) and (1e+200, 1.0) "),
            ([*huge, "witness", "t^-2 x t^2"], "height k = 0 ")):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "numeric range exceeded: " in result.output
        assert named in result.output and "(34, " not in result.output
        assert "Usage" not in result.output


# README comments that are a command's literal first line of output; the
# other comments describe the output
README_OUTPUTS = {"x^2", "trivial", "x^1·t", "2", "(2; 2/3)",
                  "0.183939720586"}


def test_readme_commands_match_cli(runner):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    documented, checked = set(), set()
    for line in readme.read_text().splitlines():
        if line.startswith("bsk "):
            args = shlex.split(line, comments=True)[1:]
            result = runner.invoke(main, args, prog_name="bsk")
            assert result.exit_code == 0, line
            comment = line.partition("#")[2].strip()
            if comment in README_OUTPUTS:
                assert result.stdout.splitlines()[0] == comment, line
                checked.add(comment)
            while args[0] in ("--bs", "--spec"):
                args = args[3 if args[0] == "--bs" else 2:]
            documented.add(args[0])
    assert documented == set(main.commands)
    assert checked == README_OUTPUTS


def test_unsupported_witness_exit_2(runner, tmp_path):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"n": 2, "A": [[2, 1], [0, 2]],
                                "B": [[1, 0], [0, 1]]}))
    message = (
        "unsupported witness regime: no explicit affine witness for this "
        "datum (GroupSpec(n=2, A=[[2, 1], [0, 2]], B=[[1, 0], [0, 1]])); "
        "tree_gram and properness profiles remain available\n")
    for args in (["witness", "t"], ["c0", "--lmax", "3"],
                 ["gram", "--kernel", "witness", "-L", "3", "--size", "10"]):
        result = runner.invoke(main, ["--spec", str(path), *args])
        assert result.exit_code == 2
        assert result.stdout == "" and result.stderr == message


def test_byte_stable_output(runner):
    args = ["--bs", "2", "3", "gram", "-L", "4", "-s", "0.5", "--size", "8"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2
