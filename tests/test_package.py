"""The package's lazy exports and what each CLI command imports."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import hwpoly

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# the modules only the certifier, the oracle and the Howe checks need
SLOW = ("hwpoly.verify", "hwpoly.verma", "hwpoly.enveloping",
        "hwpoly.genmatrix", "hwpoly.howe", "hwpoly.oracle")
# the PBW algebra and the Verma engine, which the certifier leaves idle
ENGINES = ("hwpoly.enveloping", "hwpoly.genmatrix", "hwpoly.verma")


def loaded_after(code):
    """Names in sys.modules after code runs in a fresh interpreter."""
    script = (f"import json, sys\n{code}\n"
              "print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def loaded_by_command(*argv):
    return loaded_after(f"from hwpoly import cli\ncli.main({list(argv)!r})")


@pytest.mark.parametrize("argv", [
    ("minpoly", "gl", "3", "--", "2,1,0"),
    ("minpoly", "o", "7", "5/2,3/2,1/2"),
    ("shuffle", "gl", "3,3,2,4,1,3,2,2,1"),
])
def test_fast_commands_load_no_slow_module(argv):
    loaded = loaded_by_command(*argv)
    assert {"hwpoly.cli", "hwpoly.shuffle"} <= loaded
    assert loaded.isdisjoint(SLOW + ("dataclasses",))


def test_certify_loads_neither_oracle_nor_howe():
    loaded = loaded_by_command("certify", "gl", "2", "1,0")
    assert "hwpoly.verify" in loaded
    assert loaded.isdisjoint(("hwpoly.howe", "hwpoly.oracle", "dataclasses"))


@pytest.mark.parametrize("argv", [
    ("certify", "gl", "2", "1,0"),
    ("resolvent", "gl", "3", "--", "5,2,1"),
    ("poset", "gl", "2", "1,0;3,0"),
    # past every rank the simplex check reaches for gl
    ("certify", "gl", "8", "3,1/2,2,-1,0,4,-3,1"),
])
def test_proven_ranks_load_only_the_recursion(argv):
    loaded = loaded_by_command(*argv)
    assert {"hwpoly.verify", "hwpoly.recursion"} <= loaded
    assert loaded.isdisjoint(ENGINES)


@pytest.mark.parametrize("argv", [
    ("minpoly", "gl", "3", "--", "2,1,0"),
    ("shuffle", "gl", "3,3,2,4,1,3,2,2,1"),
    ("oracle", "gl", "2", "1,0"),
    ("howe", "1", "3", "--dmax", "4"),
    ("certify", "gl", "2", "1,0"),
])
def test_commands_without_pade_load_no_linalg(argv):
    # only pade_reconstruct solves a linear system, and it imports
    # linalg when it runs
    assert "hwpoly.linalg" not in loaded_by_command(*argv)


def test_o_and_sp_past_the_old_table_load_only_the_recursion():
    # rank 4 of sp and of o_odd, past the ranks the simplex checks reach
    for argv in (("certify", "sp", "4", "1,0,0,0"),
                 ("resolvent", "o", "9", "--", "3,1/2,-1,0")):
        loaded = loaded_by_command(*argv)
        assert {"hwpoly.verify", "hwpoly.recursion"} <= loaded
        assert loaded.isdisjoint(ENGINES)


def test_relcheck_loads_only_the_two_series_engines():
    # relcheck compares the recursion with the Verma walk; no command
    # multiplies in U(g)
    for argv in (("relcheck", "gl", "2", "1,0"),
                 ("relcheck", "sp", "2", "1,0", "--K", "4")):
        loaded = loaded_by_command(*argv)
        assert {"hwpoly.verma", "hwpoly.recursion"} <= loaded
        assert loaded.isdisjoint(("hwpoly.enveloping", "hwpoly.genmatrix",
                                  "hwpoly.verify", "hwpoly.shuffle"))


def test_oracle_loads_no_other_slow_module():
    loaded = loaded_by_command("oracle", "gl", "2", "1,0")
    assert loaded & set(SLOW) == {"hwpoly.oracle"}


@pytest.mark.parametrize("argv", [
    ("oracle", "gl", "2", "1,0"),
    ("relcheck", "gl", "2", "1,0"),
])
def test_commands_without_the_shuffle_formulas_load_no_shuffle(argv):
    # the CLI imports shuffle in the two handlers that read it
    assert "hwpoly.shuffle" not in loaded_by_command(*argv)


def test_bare_import_loads_no_submodule():
    loaded = loaded_after("import hwpoly")
    assert "hwpoly" in loaded
    assert [m for m in loaded if m.startswith("hwpoly.")] == []


def test_every_export_is_its_home_modules_object():
    for name in hwpoly.__all__:
        export = getattr(hwpoly, name)
        home = importlib.import_module(export.__module__)
        assert home.__name__.startswith("hwpoly."), name
        assert getattr(home, name) is export, name


def test_dir_lists_every_export():
    assert set(hwpoly.__all__) <= set(dir(hwpoly))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from hwpoly import *", namespace)
    for name in hwpoly.__all__:
        assert namespace[name] is getattr(hwpoly, name), name


def test_unknown_attribute_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hwpoly.no_such_name
    assert not hasattr(hwpoly, "no_such_name")


def test_verify_reads_projected_diagonal_from_genmatrix(monkeypatch):
    # the benchmark's tracer reads and patches this one name on verify;
    # every read looks it up in genmatrix, so a patch there shows
    from hwpoly import genmatrix, verify

    assert verify.projected_diagonal is genmatrix.projected_diagonal
    assert "projected_diagonal" not in vars(verify)
    monkeypatch.setattr(genmatrix, "projected_diagonal", len)
    assert verify.projected_diagonal is len
    assert "projected_diagonal" not in vars(verify)
    with pytest.raises(AttributeError, match="no_such_name"):
        verify.no_such_name


def test_verify_still_exports_its_exceptions():
    from hwpoly import polyrat, verify

    assert verify.CertificationError is polyrat.CertificationError
    assert hwpoly.CertificationError is polyrat.CertificationError
