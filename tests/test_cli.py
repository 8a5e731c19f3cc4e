import argparse
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

from helpers import run_into_closed_pipe
from hwpoly import cli
from hwpoly.polyrat import UniPoly
from hwpoly.verify import CertificationError

SCHEMA_PATH = pathlib.Path(__file__).resolve().parent.parent / "docs" / "cli_schema.json"
README_PATH = SCHEMA_PATH.parent.parent / "README.md"
SRC_PATH = SCHEMA_PATH.parent.parent / "src"
# recorded exit code and stdout document of each invocation (None for an
# empty stdout); --help text is left out, as it varies between Pythons
DOCUMENTS = json.loads(
    (pathlib.Path(__file__).resolve().parent / "cli_documents.json").read_text())


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_doc(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


@pytest.mark.parametrize("case", DOCUMENTS,
                         ids=[" ".join(c["argv"]) for c in DOCUMENTS])
def test_recorded_documents(capsys, case):
    rc, out, err = run(capsys, *case["argv"])
    doc = case["document"]
    assert rc == case["exit"], err
    assert out == ("" if doc is None else json.dumps(doc, indent=2) + "\n")


def test_readme_commands_run(capsys):
    # the README once advertised a command and an option that were gone
    blocks = re.findall(r"^```.*?\n(.*?)^```", README_PATH.read_text(),
                        re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("hwpoly ")]
    assert len(lines) >= 10
    for line in lines:
        rc, _, err = run(capsys, *shlex.split(line)[1:])
        assert rc == 0, f"{line}: {err}"


class TestMinpoly:
    def test_gl_fast_document(self, capsys):
        doc = run_doc(capsys, "minpoly", "gl", "3", "2,1,0")
        # minpoly is the shuffle answer only: certify is the certified one
        assert set(doc) == {"algebra", "weight", "l", "roots", "polynomial"}
        assert doc["algebra"] == "gl_3"
        assert doc["l"] == ["4", "2", "0"]
        assert doc["roots"] == [["0", 1], ["2", 1], ["4", 1]]

    @pytest.mark.parametrize("argv", [
        ["minpoly", "gl", "2", "1,0"], ["minpoly", "sp", "3", "2,1/2,-1"],
        ["minpoly", "o", "6", "--", "2,-1,1/2"],
        ["minpoly", "o", "7", "--", "1/2,0,-3/2"]],
        ids=["gl", "sp", "o_even", "o_odd"])
    def test_one_shuffle_gives_the_pinned_document(self, capsys, monkeypatch,
                                                   argv):
        # q is the fast answer, whose one shuffle shifts the weight once,
        # and l is lambda + rho: no decomposition record is built
        import hwpoly.shuffle as shuffle

        def unreachable(spec, lam):
            raise AssertionError("a decomposition record was built")

        shifted, calls = shuffle._scaled_shifted, []

        def counted(spec, lam):
            calls.append(lam)
            return shifted(spec, lam)

        monkeypatch.setattr(shuffle, "decompose", unreachable)
        monkeypatch.setattr(shuffle, "_scaled_shifted", counted)
        pinned, = [c["document"] for c in DOCUMENTS if c["argv"] == argv]
        assert run_doc(capsys, *argv) == pinned
        assert len(calls) == 1

    def test_schema_validates(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA_PATH.read_text())
        for argv in (("minpoly", "gl", "2", "3,-1/2"),
                     ("minpoly", "sp", "1", "1")):
            jsonschema.validate(run_doc(capsys, *argv), schema)

    def test_certified_odd_orthogonal(self, capsys):
        doc = run_doc(capsys, "certify", "o", "3", "1")
        assert doc["roots"] == [["-1", 1], ["1", 1], ["2", 1]]
        assert doc["certified"] is True

    def test_output_is_deterministic(self, capsys):
        rc1, out1, _ = run(capsys, "minpoly", "gl", "2", "4,1")
        rc2, out2, _ = run(capsys, "minpoly", "gl", "2", "4,1")
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_json_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "doc.json"
        rc, out, _ = run(capsys, "minpoly", "gl", "2", "5,0",
                         "--json", str(target))
        assert rc == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["l"] == ["6", "0"]

    @pytest.mark.parametrize("where", ["missing/doc.json", "."])
    def test_unwritable_json_path_is_exit_one(self, capsys, tmp_path, where):
        # a missing directory and a directory once ended in a traceback
        target = tmp_path / where
        rc, out, err = run(capsys, "minpoly", "gl", "2", "1,0",
                           "--json", str(target))
        assert (rc, out) == (1, "")
        assert err.startswith(f"hwpoly: cannot write {target}: ")
        assert "Traceback" not in err

    def test_empty_json_path_is_exit_one(self, capsys):
        # an empty PATH once printed the document and exited 0
        rc, out, err = run(capsys, "minpoly", "gl", "2", "1,0", "--json", "")
        assert (rc, out) == (1, "")
        assert err.startswith("hwpoly: cannot write : ")

    @pytest.mark.parametrize("unbuffered", [True, False])
    @pytest.mark.parametrize("argv", [("certify", "o", "7", "--", "5,3,0"),
                                      ("shuffle", "gl", "--", "0")])
    def test_closed_stdout_is_exit_one(self, argv, unbuffered):
        # a reader that closed the pipe once left a BrokenPipeError
        # traceback, from the write or from the flush at exit
        rc, err = run_into_closed_pipe(
            [sys.executable, "-m", "hwpoly.cli", *argv], unbuffered)
        assert rc == 1
        assert err == "hwpoly: cannot write stdout: Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device that is always full")
    def test_full_stdout_is_exit_one(self):
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "hwpoly.cli", "shuffle", "gl", "--",
                 "0"], stdout=full, stderr=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH=str(SRC_PATH)), timeout=60)
        assert done.returncode == 1
        assert done.stderr == (
            "hwpoly: cannot write stdout: No space left on device\n")


class TestShuffleCommand:
    def test_worked_example(self, capsys):
        doc = run_doc(capsys, "shuffle", "gl", "3,3,2,4,1,3,2,2,1")
        assert [p["terms"] for p in doc["parts"]] == [
            ["3", "2", "1"], ["3", "2"], ["4", "3", "2", "1"]]
        assert doc["parity"] is None

    def test_mirror_carries_parity(self, capsys):
        doc = run_doc(capsys, "shuffle", "o_odd", "1/2")
        assert doc["epsilon"] == "1/2"
        assert doc["parity"] == "odd"

    def test_mirror_reads_epsilon_without_a_spec(self, capsys, monkeypatch):
        # epsilon is a property of the family; building the spec of the
        # sequence's length once cost quadratic time and memory in it
        def boom(*args):
            raise AssertionError("shuffle built a spec")
        monkeypatch.setattr(cli, "make_spec", boom)
        cases = [c for c in DOCUMENTS
                 if c["argv"][0] == "shuffle" and c["argv"][1] != "gl"]
        assert {c["argv"][1] for c in cases} == {"sp", "o_even", "o_odd"}
        for case in cases:
            rc, out, err = run(capsys, *case["argv"])
            assert rc == 0, err
            assert out == json.dumps(case["document"], indent=2) + "\n"
        doc = run_doc(capsys, "shuffle", "sp", ",".join(["1"] * 300))
        assert doc["epsilon"] == "1"


class TestNegativeWeights:
    def test_minpoly_negative_weight(self, capsys):
        doc = run_doc(capsys, "minpoly", "gl", "2", "-1,0")
        assert doc["weight"] == ["-1", "0"]
        assert doc["roots"] == [["0", 2]]

    def test_certify_negative_weight(self, capsys):
        doc = run_doc(capsys, "certify", "o", "7", "-2,-2,0")
        assert doc["weight"] == ["-2", "-2", "0"]
        assert doc["roots"] == [["2", 3]]
        assert all(w["residual"] != "0" for w in doc["witnesses"])

    def test_options_after_a_negative_weight(self, capsys, tmp_path):
        target = tmp_path / "doc.json"
        rc, out, err = run(capsys, "certify", "gl", "2", "-1/2,0",
                           "--json", str(target))
        assert (rc, out) == (0, ""), err
        doc = json.loads(target.read_text())
        assert doc["weight"] == ["-1/2", "0"]
        assert doc["certified"] is True
        doc = run_doc(capsys, "relcheck", "sp", "1", "-3", "--K", "5")
        assert doc["K"] == 5

    def test_negative_sequence_and_poset(self, capsys):
        doc = run_doc(capsys, "shuffle", "gl", "-3,2")
        assert doc["sequence"] == ["-3", "2"]
        doc = run_doc(capsys, "poset", "gl", "2", "-1,0;3,0")
        assert [e["weight"] for e in doc["entries"]] == [["-1", "0"],
                                                        ["3", "0"]]

    def test_bad_negative_weight_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "minpoly", "gl", "2", "-1,banana")
        assert rc == 1
        assert "cannot parse weight" in err


def outcome(capsys, argv):
    """(exit status, stdout, stderr) of main(argv), --help included."""
    try:
        rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestParser:
    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["minpoly", "--help"], ["frobnicate"],
        ["minpoly", "gl", "2"], ["oracle", "gl", "2"], ["howe", "1"]],
        ids=" ".join)
    def test_one_command_reads_as_every_command(self, capsys, monkeypatch,
                                                argv):
        # main builds the subparser of the command argv[0] names only;
        # every help text, usage and error must read as with all eight
        got = outcome(capsys, argv)
        every = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda argv: every([]))
        assert outcome(capsys, argv) == got

    @pytest.mark.parametrize("argv,commands", [
        (["oracle", "gl", "2", "1,0"], ["oracle"]),
        (["minpoly", "--help"], ["minpoly"]),
        (["frobnicate"], [c[0] for c in cli._COMMANDS]),
        (["--help"], [c[0] for c in cli._COMMANDS]),
        ([], [c[0] for c in cli._COMMANDS])])
    def test_subparsers_built(self, argv, commands):
        parser = cli._build_parser(argv)
        subs, = (a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction))
        assert list(subs.choices) == commands


class TestExitCodes:
    def test_bad_weight_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "minpoly", "gl", "2", "1,banana")
        assert rc == 1
        assert "cannot parse weight" in err

    @pytest.mark.parametrize("argv", [
        ("certify", "gl", "2", "1e5000000,0"),
        ("shuffle", "gl", "0,1E5000000"),
        ("poset", "gl", "2", "2e9,0;1,0"),
        ("minpoly", "gl", "1", "1_000"),
        ("minpoly", "gl", "1", "1/0")], ids=" ".join)
    def test_exponent_notation_is_refused_before_any_expansion(
            self, capsys, monkeypatch, argv):
        # Fraction("1e5000000") once built a 5-million-digit int, and
        # the command failed seconds later on printing it
        def boom(*args):
            raise AssertionError("a coordinate reached Fraction")
        monkeypatch.setattr(cli, "Fraction", boom)
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, "")
        assert "cannot parse weight" in err

    def test_documented_number_forms_parse(self):
        assert cli._parse_weight(" -1/2,.5,3.,+2,-0.25,4/06") == (
            Fraction(-1, 2), Fraction(1, 2), 3, 2, Fraction(-1, 4),
            Fraction(2, 3))

    def test_unknown_command(self, capsys):
        # parity once classified a residual that is zero by definition
        for command in ("frobnicate", "parity"):
            rc, out, err = run(capsys, command, "o", "4", "1,1")
            assert (rc, out) == (1, "")
            assert err != ""

    def test_wrong_weight_length(self, capsys):
        rc, _, err = run(capsys, "minpoly", "gl", "3", "1,0")
        assert rc == 1

    @pytest.mark.parametrize("weights,message", [
        ("0,1;0;0,1,2", "weight must have 2 coordinates, got 1"),
        ("0,1;1,x", "cannot parse weight '1,x'")])
    def test_poset_checks_every_weight_first(self, capsys, monkeypatch,
                                              weights, message):
        # a bad weight once surfaced only after the spec was built and
        # the weights before it were certified
        def boom(*args):
            raise AssertionError("built or certified before the check")
        monkeypatch.setattr(cli, "make_spec", boom)
        monkeypatch.setattr("hwpoly.verify.certified_minimal_polynomial", boom)
        rc, out, err = run(capsys, "poset", "gl", "2", weights)
        assert (rc, out, err) == (1, "", f"hwpoly: {message}\n")

    @pytest.mark.parametrize("family,num,rank", [
        ("gl", "1000000", 1000000), ("o", "2000001", 1000000)])
    def test_short_weight_at_a_huge_rank_exits_at_once(self, family, num,
                                                       rank):
        # the spec's tables grow as the square of the rank, so the
        # weight's length is checked before the spec is built
        done = subprocess.run(
            [sys.executable, "-m", "hwpoly.cli", "minpoly", family, num, "0"],
            env=dict(os.environ, PYTHONPATH=str(SRC_PATH)),
            capture_output=True, text=True, timeout=10)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == (
            f"hwpoly: weight must have {rank} coordinates, got 1\n")

    @pytest.mark.parametrize("argv,message", [
        (("oracle", "gl", "3000", "trivial"),
         "N^2 dim(V) = 3000^2 * 1 exceeds the oracle bound 1000000"),
        (("poset", "gl", "3000", ""), "poset needs at least one weight")])
    def test_no_spec_for_a_request_that_cannot_use_it(self, argv, message):
        # make_spec("gl", 3000) runs for over a minute; these requests
        # once built it before the oracle's bound refused the module, or
        # only to print an empty poset
        done = subprocess.run(
            [sys.executable, "-m", "hwpoly.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(SRC_PATH)),
            capture_output=True, text=True, timeout=10)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == f"hwpoly: {message}\n"

    @pytest.mark.parametrize("argv,size", [
        (("relcheck", "o", "25"), 25), (("resolvent", "gl", "25"), 25),
        (("resolvent", "sp", "13"), 26), (("relcheck", "sp", "12"), 24),
        (("resolvent", "o", "24"), 24), (("relcheck", "gl", "24"), 24),
        (("minpoly", "gl", "1001"), 1001), (("minpoly", "o", "1000"), 1000),
        (("minpoly", "sp", "500"), 1000), (("certify", "sp", "101"), 202),
        (("certify", "o", "201"), 201), (("certify", "gl", "200"), 200),
        (("poset", "gl", "201"), 201), (("poset", "sp", "100"), 200)])
    def test_matrix_size_bound_of_relcheck_and_resolvent(
            self, capsys, monkeypatch, argv, size):
        # each command's cost grows steeply with N: past its bound (24
        # for the two that read whole diagonal series, 200 for certify
        # and poset, 1000 for minpoly) it exits before the spec is built,
        # and at its bound it builds it; relcheck at a small enough --K,
        # since its default K = 6 is past its work bound at N = 24
        def reached(*args):
            raise ValueError("built the spec")
        monkeypatch.setattr(cli, "make_spec", reached)
        command, family, num = argv
        bound = cli._SIZE_BOUNDS[command]
        rank = int(num) // 2 if family == "o" else int(num)
        order = ("--K", "4") if command == "relcheck" else ()
        rc, out, err = run(capsys, *argv, *order, "--",
                           ",".join(["0"] * rank))
        assert (rc, out) == (1, "")
        if size > bound:
            assert err == (f"hwpoly: {command} takes matrix sizes up to "
                           f"{bound}, got {size}\n")
        else:
            assert err == "hwpoly: built the spec\n"

    @pytest.mark.parametrize("argv,message", [
        # CI's rank-10 requests at the default K = 6
        (("gl", "10"), None), (("sp", "10"), None), (("o", "20"), None),
        (("o", "21"), None), (("gl", "21"), None),
        (("gl", "22"), "relcheck on matrix size 22 takes --K up to 5, got 6"),
        (("sp", "12", "--K", "40"),
         "relcheck on matrix size 24 takes --K up to 5, got 40"),
        (("gl", "16", "--K", "8"), None),
        (("gl", "16", "--K", "9"),
         "relcheck on matrix size 16 takes --K up to 8, got 9"),
        (("gl", "1", "--K", "8943"), None),
        (("gl", "1", "--K", "100000"),
         "relcheck on matrix size 1 takes --K up to 8943, got 100000")])
    def test_work_bound_of_relcheck(self, capsys, monkeypatch, argv,
                                    message):
        # the walk's work grows steeply with N and K: past the bound
        # relcheck exits before the spec is built
        def reached(*args):
            raise ValueError("built the spec")
        monkeypatch.setattr(cli, "make_spec", reached)
        family, num = argv[:2]
        rank = int(num) // 2 if family == "o" else int(num)
        rc, out, err = run(capsys, "relcheck", *argv, "--",
                           ",".join(["0"] * rank))
        assert (rc, out) == (1, "")
        assert err == f"hwpoly: {message or 'built the spec'}\n"

    @pytest.mark.parametrize("argv,message", [
        # the pinned requests: n, k <= 3, --rmax 4 and the default K = 3
        (("3", "3", "--rmax", "4"), None), (("2", "3", "--rmax", "4"), None),
        (("1", "3", "--dmax", "4"), None),
        (("3", "3", "--rmax", "6"),
         "howe 3 3 takes --rmax and --K up to 5, got 6"),
        (("3", "3", "--rmax", "8"),
         "howe 3 3 takes --rmax and --K up to 5, got 8"),
        (("2", "2", "--K", "14"), None),
        (("2", "2", "--K", "16"),
         "howe 2 2 takes --rmax and --K up to 14, got 16"),
        (("2", "2", "--K", "30"),
         "howe 2 2 takes --rmax and --K up to 14, got 30"),
        (("4", "4", "--rmax", "4"),
         "howe 4 4 takes --rmax and --K up to 3, got 4"),
        (("9", "9", "--rmax", "1", "--K", "1"), None),
        (("20", "20", "--rmax", "1", "--K", "1"),
         "howe 20 20 exceeds its work bound at every order"),
        (("0", "3"), "matrix dimensions must be positive")])
    def test_work_bound_of_howe(self, capsys, monkeypatch, argv, message):
        # the Weyl-algebra work grows steeply with n, k and the order:
        # past the bound howe exits before the dual pair is built
        from hwpoly import howe
        real = howe.dual_pair

        def reached(n, k):
            if n > 0 and k > 0:
                raise ValueError("built the dual pair")
            return real(n, k)
        monkeypatch.setattr(howe, "dual_pair", reached)
        rc, out, err = run(capsys, "howe", *argv)
        assert (rc, out) == (1, "")
        assert err == f"hwpoly: {message or 'built the dual pair'}\n"

    def test_seed_flag_is_gone(self, capsys):
        rc, _, err = run(capsys, "minpoly", "gl", "2", "1,0", "--seed", "3")
        assert rc == 1
        assert "--seed" in err

    def test_mode_flag_is_gone(self, capsys):
        # minpoly once had a certified mode that duplicated certify
        rc, out, err = run(capsys, "minpoly", "gl", "2", "1,0",
                           "--mode", "certified")
        assert (rc, out) == (1, "")
        assert "--mode" in err

    def test_ppdiag_command_is_gone(self, capsys):
        # ppdiag once reported a closed trace formula that no answer read
        rc, out, err = run(capsys, "ppdiag", "sp", "2", "1,0")
        assert (rc, out) == (1, "")
        assert "invalid choice" in err

    @pytest.mark.parametrize("argv,reads_K", [
        (("certify", "o", "3", "1"), False),
        (("certify", "gl", "1", "0"), False),
        (("relcheck", "gl", "1", "0"), True),
        (("relcheck", "sp", "1", "0"), True),
        (("relcheck", "o", "2", "0"), True),
        (("resolvent", "gl", "1", "0"), False),
        (("howe", "1", "1", "--rmax", "0", "--dmax", "0"), True),
        (("shuffle", "gl", "3,2"), False),
        (("oracle", "gl", "2", "trivial"), False),
        (("poset", "gl", "1", "2;2"), False),
        (("minpoly", "gl", "1", "0"), False),
        (("resolvent", "sp", "1", "0"), False),
    ])
    def test_K_only_where_an_order_is_read(self, capsys, argv, reads_K):
        # shuffle, oracle, poset and minpoly read no series order, and
        # once accepted a --K that did nothing; certify and resolvent once
        # took a --K that changed no answer
        rc, out, err = run(capsys, *argv, "--K", "4")
        if reads_K:
            assert rc == 0, err
        else:
            assert (rc, out) == (1, "")
            assert "--K" in err
            assert run(capsys, *argv)[0] == 0

    @pytest.mark.parametrize("command", ["minpoly"])
    def test_fast_mode_rejects_K_and_ignores_env(self, capsys, monkeypatch,
                                                 command):
        # minpoly once exited 0 with --K 1, an order it never read
        rc, out, err = run(capsys, command, "sp", "2", "1,0", "--K", "1")
        assert (rc, out) == (1, "")
        assert "--K" in err
        rc, out, err = run(capsys, "certify", "sp", "2", "1,0", "--K", "9")
        assert (rc, out) == (1, "")
        assert "--K" in err
        # an HWPOLY_K of 0 once made certification a usage error
        monkeypatch.setenv("HWPOLY_K", "0")
        fast = run_doc(capsys, command, "sp", "2", "1,0")
        certified = run_doc(capsys, "certify", "sp", "2", "1,0")
        assert fast["polynomial"] == certified["polynomial"]

    @pytest.mark.parametrize("order", ["0", "-3", "x"])
    def test_truncation_order_below_one_is_usage_error(self, capsys, order):
        rc, out, err = run(capsys, "relcheck", "gl", "2", "1,0", "--K", order)
        assert (rc, out) == (1, "")
        assert "--K" in err

    @pytest.mark.parametrize("flag,value", [("--rmax", "-2"), ("--dmax", "-1"),
                                            ("--rmax", "x")])
    def test_howe_negative_bound_is_usage_error(self, capsys, flag, value):
        # a negative bound once printed a vacuous pass with exit 0
        rc, out, err = run(capsys, "howe", "1", "1", flag, value)
        assert (rc, out) == (1, "")
        assert flag in err

    def test_howe_zero_bounds_are_accepted(self, capsys):
        doc = run_doc(capsys, "howe", "1", "1", "--rmax", "0", "--dmax", "0")
        assert doc["conv"]["checks"] == 1 and doc["conv"]["passed"]
        assert [row["d"] for row in doc["divisibility"]] == [0]

    def test_howe_dmax_only_for_n_one(self, capsys):
        # only the Euler case n = 1 has a divisibility family; for n >= 2
        # --dmax was once accepted and ignored
        rc, out, err = run(capsys, "howe", "2", "2", "--dmax", "1")
        assert (rc, out) == (1, "")
        assert "--dmax" in err
        doc = run_doc(capsys, "howe", "2", "1", "--rmax", "0", "--K", "1")
        assert doc["divisibility"] == []
        doc = run_doc(capsys, "howe", "1", "1", "--rmax", "0", "--K", "1")
        assert [row["d"] for row in doc["divisibility"]] == [0, 1, 2, 3]

    def test_resolvent_order_below_2N_is_rejected(self, capsys):
        # at K = 2 the tail (1, 1) of gl_2 at (1, 0) also fits 1/(u - 1),
        # which once gave the lcm u^2 - u instead of u^2 - 2u; no order
        # is taken now, and the one fitted is 2N + 2
        rc, out, err = run(capsys, "resolvent", "gl", "2", "1,0", "--K", "2")
        assert (rc, out) == (1, "")
        assert "--K" in err
        doc = run_doc(capsys, "resolvent", "gl", "2", "1,0")
        assert doc["K"] == 6
        assert doc["lcm"] == ["0", "-2", "1"]

    def test_certification_failure_is_exit_two(self, capsys, monkeypatch):
        def boom(spec, lam, K=None):
            raise CertificationError("forced")
        monkeypatch.setattr("hwpoly.verify.certified_minimal_polynomial", boom)
        rc, _, err = run(capsys, "certify", "gl", "2", "1,0")
        assert rc == 2
        assert "certification failure" in err


class TestOtherCommands:
    def test_certify_reports_witnesses(self, capsys):
        doc = run_doc(capsys, "certify", "sp", "1", "0")
        assert doc["certified"] is True
        assert len(doc["witnesses"]) == len(doc["roots"])
        assert all(w["residual"] != "0" for w in doc["witnesses"])

    def test_relcheck_exact(self, capsys):
        doc = run_doc(capsys, "relcheck", "gl", "2", "2/3,-1", "--K", "5")
        assert all(r["exact"] for r in doc["reports"])

    def test_oracle_matches_minpoly(self, capsys):
        oracle_doc = run_doc(capsys, "oracle", "gl", "2", "2,1")
        fast_doc = run_doc(capsys, "minpoly", "gl", "2", "2,1")
        assert oracle_doc["polynomial"] == fast_doc["polynomial"]
        assert oracle_doc["dim"] == 2

    def test_oracle_rank_zero_empty_weight(self, capsys):
        # the empty gl_0 weight once ended in an IndexError traceback
        doc = run_doc(capsys, "oracle", "gl", "0", "")
        assert doc["polynomial"] == ["1"]
        assert doc == run_doc(capsys, "oracle", "gl", "0", "trivial")

    def test_oversized_oracle_module_is_rejected_first(self, capsys,
                                                       monkeypatch):
        # the Weyl dimension is checked before any pattern is enumerated
        def boom(*args):
            raise AssertionError("enumerated patterns")
        monkeypatch.setattr("hwpoly.oracle._rows_below", boom)
        weight = ",".join(["2", "1"] + ["0"] * 18)
        rc, out, err = run(capsys, "oracle", "gl", "20", "--", weight)
        assert (rc, out) == (1, "")
        assert err == ("hwpoly: N^2 dim(V) = 20^2 * 2660 exceeds the oracle "
                       "bound 1000000\n")

    def test_howe_divisibility_family(self, capsys):
        doc = run_doc(capsys, "howe", "1", "2", "--rmax", "2", "--dmax", "2")
        assert doc["conv"]["passed"] and doc["transfer"]["passed"]
        assert [row["divisible"] for row in doc["divisibility"]] == [True] * 3

    def test_poset_orders_by_divisibility(self, capsys):
        doc = run_doc(capsys, "poset", "gl", "1", "2;2")
        assert len(doc["entries"]) == 1

    @pytest.mark.parametrize("family", ["gl", "sp"])
    def test_rank_zero_poset_certifies_one(self, capsys, family):
        # at rank 0 the empty text is the one weight, as it is for certify
        doc = run_doc(capsys, "poset", family, "0", "")
        assert doc["entries"] == [{"weight": [], "polynomial": ["1"]}]
        assert doc["edges"] == []
        cert = run_doc(capsys, "certify", family, "0", "")
        assert cert["polynomial"] == ["1"]


class TestCarriedRoots:
    """The shuffle answer reaches the output without a rational root search."""

    @pytest.fixture
    def no_search(self, monkeypatch):
        def boom(self):
            raise AssertionError(f"searched the roots of {self}")
        monkeypatch.setattr(UniPoly, "_search_roots", boom)

    def test_fast_minpoly(self, capsys, no_search):
        doc = run_doc(capsys, "minpoly", "o", "13", "11/2,9/2,7/2,5/2,3/2,1/2")
        assert len(doc["roots"]) == 12

    def test_certify_direct_and_trimmed(self, capsys, no_search):
        doc = run_doc(capsys, "certify", "gl", "3", "2,1,0")
        assert doc["roots"] == [["0", 1], ["2", 1], ["4", 1]]
        # o_7 at (-2,-2,0): the shuffle candidate (u-2)^3 (u-3)^2 is
        # trimmed to (u-2)^3
        doc = run_doc(capsys, "certify", "o", "7", "-2,-2,0")
        assert doc["roots"] == [["2", 3]]

    def test_rank_8_third_weight(self, capsys, no_search):
        # the divisor search on these coefficients took over ten seconds
        doc = run_doc(capsys, "minpoly", "sp", "8", "--",
                      "-2/3,5/3,8/3,-5/3,0,5/3,2,0")
        assert doc["roots"] == [
            ["-2/3", 2], ["2/3", 1], ["10/3", 1], ["4", 2], ["14/3", 1],
            ["7", 1], ["34/3", 1], ["12", 2], ["38/3", 1], ["46/3", 1],
            ["50/3", 2]]
