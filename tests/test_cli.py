import contextlib
import io
import re
import shlex
import subprocess
import sys

import pytest

from lfta import cli
from lfta.cli import main, run
from lfta.errors import ArityMismatchError, UnknownCommandError, ValidationError
from lfta.terms import parse_tree
from lfta.workspace import load, load_text

from helpers import stdout_under_hash_seed

GOLDENS = "goldens/fixtures.lfta"
HOMS = "goldens/homs.lfta"
EXPECTED = "goldens/cli_expected.txt"


def ws():
    return load([GOLDENS])


def test_eval():
    report, code = run("eval", ["MatchedLeaves", "f(x,x)"], ws())
    assert (report, code) == ("c", 0)
    report, _ = run("eval", ["MatchedLeaves", "f(x,y)"], ws())
    assert report == "0"


def test_eval_path():
    report, code = run("eval-path", ["DeadBranch", "f.1 x"], ws())
    assert (report, code) == ("1", 0)
    report, _ = run("eval-path", ["UnionPair", "f.1 x"], ws())
    assert report == "1"


def test_delta_and_paths():
    report, _ = run("delta", ["Mixed", "f(g(f(x,x)),y)"], ws())
    assert report.splitlines() == ["f.1 g.1 f.1 x", "f.1 g.1 f.2 x", "f.2 y"]
    report, _ = run("paths", ["DeadBranch", "f(x,x)"], ws())
    assert report.splitlines() == ["f.1 x : 1", "f.2 x : 0"]


def test_decide_commands():
    assert run("decide", ["equal", "MatchedLeaves", "MatchedLeaves"], ws()) == ("yes", 0)
    assert run("decide", ["empty", "DeadBranch"], ws()) == ("yes", 0)
    assert run("decide", ["empty", "MatchedLeaves"], ws()) == ("no", 1)
    assert run("decide", ["finite", "MatchedLeaves"], ws()) == ("yes", 0)
    assert run("decide", ["crisp", "GradedSquare"], ws()) == ("no", 1)
    assert run("decide", ["constant", "DeadBranch"], ws()) == ("yes", 0)
    assert run("decide", ["dt-recognizable", "UnionPair"], ws()) == ("no", 1)
    assert run("decide", ["dt-recognizable", "GradedSquare"], ws()) == ("yes", 0)
    assert run("decide", ["ndt-equal", "DeadBranch", "DeadBranchMirror"], ws()) == ("yes", 0)


def test_decide_included_disjoint():
    workspace = ws()
    out, _ = run(
        "transform", ["scalar", "MatchedLeaves", "c", "--as", "Scaled"], workspace
    )
    merged = load_text(out, workspace)
    assert run("decide", ["included", "Scaled", "MatchedLeaves"], merged) == ("yes", 0)
    assert run("decide", ["equal", "Scaled", "MatchedLeaves"], merged) == ("no", 1)


def test_transform_output_reloads():
    workspace = ws()
    out, code = run("transform", ["intersect", "MatchedLeaves", "MatchedLeaves", "--as", "Same"], workspace)
    assert code == 0
    merged = load_text(out, workspace)
    assert run("decide", ["equal", "Same", "MatchedLeaves"], merged) == ("yes", 0)


def test_transform_product_emits_lattice():
    out, code = run("transform", ["product", "DeadBranch", "DeadBranchMirror"], ws())
    assert code == 0
    assert out.startswith("lattice ")
    assert "ldt out over" in out


def test_every_transform_subcommand():
    extra = (
        "hom swap from Pair to Pair { leaf x -> y ; leaf y -> x ; sym f -> f($1,$2) }\n"
        "hom widen from Solo to Solo { leaf x -> x ; sym f -> f($1,$2) }\n"
        "morphism drop from C3 to C3 { 0 -> 0 ; d -> 0 ; 1 -> 1 }\n"
    )
    workspace = ws()
    load_text(extra, workspace)
    checks = [
        (["topcat", "f", "MatchedLeaves", "MatchedLeaves", "--as", "T"], "T", "f(f(x,x),f(y,y))", "0"),
        (["quotient", "GradedSquare", "f(@,y)", "--as", "Q"], "Q", "x", "d"),
        (["embed", "GradedSquare", "f(@,y)", "--as", "E"], "E", "f(f(x,x),y)", "d"),
        (["invhom", "DeadBranch", "widen", "--as", "IH"], "IH", "f(x,x)", "0"),
        (["image", "MatchedLeaves", "swap", "--as", "IM"], "IM", "f(y,y)", "c"),
        (["scalar", "GradedSquare", "d", "--as", "SC"], "SC", "f(y,y)", "d"),
        (["lattice-map", "GradedSquare", "drop", "--as", "LM"], "LM", "f(x,x)", "0"),
    ]
    for args, name, tree, expected in checks:
        out, code = run("transform", args, workspace)
        assert code == 0
        merged = load_text(out, workspace)
        got, _ = run("eval", [name, tree], merged)
        assert got == expected, (args, got, expected)
    # cut produces a crisp recognizer block that reloads
    out, code = run("transform", ["cut", "GradedSquare", "1", "--as", "CUT"], workspace)
    assert code == 0
    merged = load_text(out, workspace)
    crisp = merged.recognizer("CUT")
    assert crisp.accepts(parse_tree("f(y,y)"))
    assert not crisp.accepts(parse_tree("f(x,x)"))


@pytest.mark.parametrize(
    "kind, operand, scores",
    [
        ("embed", "f(@,y)", {"f(f(f(f(x,x),y),y),y)": "c", "f(f(f(f(y,y),y),y),y)": "d", "f(x,x)": "0"}),
        ("image", "swap", {"f(y,y)": "c", "f(x,x)": "d", "f(x,y)": "0"}),  # swap thrice is swap
    ],
)
def test_embed_and_image_apply_to_their_own_reloaded_output(tmp_path, capsys, kind, operand, scores):
    # each round prints its recognizer to a file that the next round loads: the states a
    # round adds must render unlike the reloaded ones, which are plain names by then
    files, source = ["-f", GOLDENS, "-f", HOMS], "MatchedLeaves"
    for name in ("R1", "R2", "R3"):
        assert main([*files, "transform", kind, source, operand, "--as", name]) == 0
        path = tmp_path / f"{name}.lfta"
        path.write_text(capsys.readouterr().out)
        files, source = files + ["-f", str(path)], name
    for tree, expected in scores.items():
        assert main([*files, "eval", "R3", tree]) == 0
        assert capsys.readouterr().out == f"{expected}\n"


def test_range_and_levels():
    report, _ = run("range", ["MatchedLeaves"], ws())
    assert report.splitlines() == ["0", "c", "d"]
    out, _ = run("level-set", ["GradedSquare", "d", "--as", "AtD"], ws())
    assert "ndt AtD alphabet Pair" in out
    out, _ = run("level-set", ["GradedSquare", "0", "--as", "AtZero"], ws())
    assert out.startswith("# warning") is False  # 0 is attainable (deep trees)
    # 1 is outside the weight meet-closure of MatchedLeaves ({0, c, d})
    out, _ = run("level-set", ["MatchedLeaves", "1", "--as", "AtOne"], ws())
    assert out.startswith("# warning")


def test_normalize_subset_closure_pipeline():
    workspace = ws()
    out, _ = run("path-closure", ["UnionPair", "--as", "Closed"], workspace)
    merged = load_text(out, workspace)
    for tree, expected in [("f(x,x)", "1"), ("f(x,y)", "1"), ("f(y,y)", "1"), ("x", "0")]:
        report, _ = run("eval", ["Closed", tree], merged)
        assert report == expected


def test_normalize_command():
    workspace = ws()
    out, _ = run("normalize", ["DeadBranch", "--as", "Norm"], workspace)
    merged = load_text(out, workspace)
    report, _ = run("eval-path", ["Norm", "f.1 x"], merged)
    assert report == "0"  # normalization kills the phantom path value


def test_witness_command():
    report, code = run("witness", ["UnionPair", "f.1 x"], ws())
    assert code == 0
    tree_text = report.strip()
    report2, _ = run("eval", ["UnionPair", tree_text], ws())
    assert report2 == "1"


def test_pump_command():
    spine = "f(x,x)"
    for _ in range(9):
        spine = f"f({spine},x)"
    report, code = run("pump", ["DeadBranch", spine], ws())
    assert code == 0
    assert report.splitlines()[0].startswith("prefix ")


def test_oracle_eval():
    report, code = run("oracle-eval", ["GradedSquare", "f(x,y)"], ws())
    assert (report, code) == ("d", 0)


def test_unknown_command():
    with pytest.raises(UnknownCommandError):
        run("frobnicate", [], ws())


def test_level_set_output_reloads():
    workspace = ws()
    out, _ = run("level-set", ["GradedSquare", "d", "--as", "AtD"], workspace)
    merged = load_text(out, workspace)
    level = merged.recognizer("AtD")
    from lfta.oracle import enum_trees
    from lfta import fixtures

    graded = fixtures.graded_square()
    for t in enum_trees(graded.alphabet, 2):
        assert level.accepts(t) == (graded.degree(t) == "d")


NON_DISTRIBUTIVE = """
lattice N5 { elements 0 a b c 1 ; order 0<a a<b b<1 0<c c<1 }
# the path f.1 x reaches p and q, which score c and d there
lndt Fork over M2 alphabet Pair {
  states r p q ; initial r ;
  trans f r -> p p ; trans f r -> q q ;
  final x : p=c q=d }
# both score x at c and y at 0; f(x,x) scores a here and 0 in PentLeaf
lndt Pent over N5 alphabet Pair {
  states r p ; initial r ;
  trans f r -> p p ;
  final x : r=c p=a ; final y : p=b }
lndt PentLeaf over N5 alphabet Pair { states r ; initial r ; final x : r=c }
"""


def test_ndt_commands_take_non_distributive_lattices(tmp_path, capsys):
    extra = tmp_path / "nd.lfta"
    extra.write_text(NON_DISTRIBUTIVE)
    files = ["-f", GOLDENS, "-f", str(extra)]
    for argv, code, out in [
        (["eval-path", "Fork", "f.1 x"], 0, "1\n"),
        (["eval-path", "Pent", "f.2 y"], 0, "b\n"),
        (["decide", "ndt-equal", "Fork", "Fork"], 0, "yes\n"),
        (["decide", "ndt-equal", "Pent", "PentLeaf"], 1, "no\n"),
    ]:
        assert main([*files, *argv]) == code
        assert capsys.readouterr().out == out
    for name in ("Fork", "Pent"):
        assert main([*files, "subset", name]) == 0
        merged = load_text(capsys.readouterr().out, load([GOLDENS, str(extra)]))
        for path in ("x", "f.1 x", "f.2 y", "f.1 f.2 x"):
            assert run("eval-path", [f"{name}_subset", path], merged) == run("eval-path", [name, path], merged)


def test_budget_flag_guards_fixpoints():
    # an absurdly small budget trips the guard and exits 2; the two dead
    # branches are equal, but only the vector fixpoint can tell
    pair = ["decide", "ndt-equal", "DeadBranch", "DeadBranchMirror"]
    assert main(["-f", GOLDENS, "--budget", "1", *pair]) == 2
    assert main(["-f", GOLDENS, "--budget", "1000000", *pair]) == 0


def test_budget_flag_reaches_dt_recognizable():
    assert main(["-f", GOLDENS, "--budget", "1", "decide", "dt-recognizable", "UnionPair"]) == 2


def test_budget_flag_reaches_dt_deciders(capsys):
    for decision in (["finite", "MatchedLeaves"], ["equal", "MatchedLeaves", "MatchedLeaves"]):
        assert main(["-f", GOLDENS, "--budget", "1", "decide", *decision]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert main(["-f", GOLDENS, "decide", *decision]) == 0
        assert capsys.readouterr().out == "yes\n"


def test_main_exit_codes(tmp_path):
    assert main(["-f", GOLDENS, "decide", "equal", "MatchedLeaves", "MatchedLeaves"]) == 0
    assert main(["-f", GOLDENS, "decide", "dt-recognizable", "UnionPair"]) == 1
    assert main(["-f", GOLDENS, "eval", "Nope", "x"]) == 2
    bad = tmp_path / "bad.lfta"
    bad.write_text("lattice L { elements 0 1 ; order 1<0 0<1 }")
    assert main(["-f", str(bad), "range", "X"]) == 2


@pytest.mark.parametrize(
    "argv, error",
    [
        (["eval-path", "MatchedLeaves", "f.0 x"], ValidationError),  # once read the last child
        (["witness", "UnionPair", "f.0 x"], ValidationError),
        (["eval-path", "MatchedLeaves", "f.3 x"], ValidationError),  # once an IndexError
        (["eval-path", "MatchedLeaves", "h.1 x"], ValidationError),  # once a KeyError
        (["eval-path", "UnionPair", "f.1 z"], ValidationError),
        (["transform", "quotient", "GradedSquare", "f(@)"], ArityMismatchError),  # as for trees
        (["transform", "embed", "GradedSquare", "f(@,z)"], ValidationError),
    ],
)
def test_ill_formed_paths_and_contexts_exit_2(capsys, argv, error):
    with pytest.raises(error):
        run(argv[0], argv[1:], ws())
    assert main(["-f", GOLDENS, *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "DeadBranch", "--as"],
        ["subset", "UnionPair", "--as"],
        ["path-closure", "UnionPair", "--as"],
        ["level-set", "GradedSquare", "d", "--as"],
        ["transform", "intersect", "MatchedLeaves", "MatchedLeaves", "--as"],
        ["transform", "topcat", "f", "MatchedLeaves", "MatchedLeaves", "--as"],
    ],
)
def test_as_without_a_name_exits_2(capsys, argv):
    assert main(["-f", GOLDENS, *argv]) == 2
    assert capsys.readouterr() == ("", "error: bad or missing argument (list index out of range)\n")


def test_as_names_the_output_and_is_no_operand():
    out, code = run("transform", ["topcat", "f", "--as", "T", "MatchedLeaves", "MatchedLeaves"], ws())
    assert code == 0 and "ldt T over M2 alphabet Pair {" in out
    assert out == run("transform", ["topcat", "f", "MatchedLeaves", "MatchedLeaves", "--as", "T"], ws())[0]


def test_load_errors_name_their_file(capsys):
    assert main(["-f", HOMS, "range", "MatchedLeaves"]) == 2
    assert capsys.readouterr().err == f"error: {HOMS}: unknown alphabet 'Pair'\n"
    assert main(["-f", GOLDENS, "-f", HOMS, "-f", GOLDENS, "range", "MatchedLeaves"]) == 2
    assert capsys.readouterr().err == f"error: {GOLDENS}: duplicate lattice name 'B2'\n"


def test_main_calls_share_no_file_list(monkeypatch, capsys):
    # one parser serves every call: each call loads exactly its own -f files
    loaded = []
    real_load = cli.load
    monkeypatch.setattr(cli, "load", lambda files: loaded.append(list(files)) or real_load(files))
    assert main(["-f", GOLDENS, "-f", HOMS, "range", "MatchedLeaves"]) == 0
    assert main(["-f", HOMS, "range", "MatchedLeaves"]) == 2
    assert main(["-f", GOLDENS, "range", "MatchedLeaves"]) == 0
    assert main(["range", "MatchedLeaves"]) == 2
    assert loaded == [[GOLDENS, HOMS], [HOMS], [GOLDENS]]
    out, err = capsys.readouterr()
    assert out == "0\nc\nd\n" * 2
    assert err == f"error: {HOMS}: unknown alphabet 'Pair'\nerror: unknown recognizer 'MatchedLeaves'\n"


@pytest.mark.parametrize("make", ["missing", "directory", "not_utf8"])
def test_unreadable_files_exit_2(tmp_path, capsys, make):
    path = tmp_path / "ws.lfta"
    if make == "directory":
        path.mkdir()
    elif make == "not_utf8":
        path.write_bytes(b"chain C { 0 < \xff }")
    assert main(["-f", str(path), "eval", "X", "x"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot read ") and str(path) in err and err.count("\n") == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lfta.cli", "-f", GOLDENS, "eval", "GradedSquare", "f(y,y)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"


def golden_transcript():
    with open(EXPECTED, encoding="utf-8") as handle:
        return handle.read()


def replay_golden_transcript():
    """The transcript's header, then every `$ <command>` line with the stdout it gives now."""
    expected = golden_transcript()
    got = [expected[: expected.index("\n$ ") + 1]]  # the comment header
    for command in re.findall(r"^\$ (.*)$", expected, re.M):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["-f", GOLDENS, "-f", HOMS, *shlex.split(command)])
        got.append(f"$ {command}\n{out.getvalue()}")
    return "".join(got)


def test_cli_output_matches_golden_transcript():
    """Every `$ <command>` line of the transcript is followed by its exact stdout."""
    assert replay_golden_transcript() == golden_transcript()


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_golden_transcript_is_independent_of_string_hashing(hash_seed):
    """Construction state orders must not follow string hashing, so the
    transcript replays byte for byte in a fresh interpreter under each fixed
    PYTHONHASHSEED."""
    script = "import sys, test_cli; sys.stdout.buffer.write(test_cli.replay_golden_transcript().encode())"
    assert stdout_under_hash_seed(hash_seed, script) == golden_transcript().encode()
