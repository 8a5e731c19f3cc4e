import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

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


class TestExitCodes:
    def test_bad_weight_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "minpoly", "gl", "2", "1,banana")
        assert rc == 1
        assert "cannot parse weight" in err

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

    @pytest.mark.parametrize("argv,reads_K", [
        (("certify", "o", "3", "1"), False),
        (("certify", "gl", "1", "0"), False),
        (("relcheck", "gl", "1", "0"), True),
        (("relcheck", "sp", "1", "0"), True),
        (("ppdiag", "sp", "1", "0"), True),
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

    def test_ppdiag_rejects_gl(self, capsys):
        rc, _, err = run(capsys, "ppdiag", "gl", "2", "1,0")
        assert rc == 1

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

    def test_howe_divisibility_family(self, capsys):
        doc = run_doc(capsys, "howe", "1", "2", "--rmax", "2", "--dmax", "2")
        assert doc["conv"]["passed"] and doc["transfer"]["passed"]
        assert [row["divisible"] for row in doc["divisibility"]] == [True] * 3

    def test_poset_orders_by_divisibility(self, capsys):
        doc = run_doc(capsys, "poset", "gl", "1", "2;2")
        assert len(doc["entries"]) == 1


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
