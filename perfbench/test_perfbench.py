"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import pool  # noqa: E402
import spans  # noqa: E402

EXPECTED = pool.load_expected()


@pytest.mark.parametrize("workload", pool.WORKLOADS)
def test_requests_are_deterministic_per_seed(workload):
    first = pool.requests_for(workload, 7, EXPECTED)
    assert first == pool.requests_for(workload, 7, EXPECTED)
    assert first != pool.requests_for(workload, 8, EXPECTED)
    assert all(key in EXPECTED["answers"] for key in first)


def test_cli_fast_has_enough_requests_for_a_p90():
    import run
    requests = len(pool.requests_for("cli-fast", 1, EXPECTED))
    assert run.MIN_PASSES * requests >= 100


def test_speed_scales_by_the_probes_around_an_interval():
    import probe

    speed = probe.Speed()
    speed.probes = [(0.0, 0.1), (1.0, 0.3), (2.0, 0.1), (30.0, 0.2),
                    (31.0, 0.2), (32.0, 0.9)]
    assert speed.scale(1.0, 1.5) == probe.REFERENCE_S / 0.1
    assert speed.scaled(30.0, 32.0) == 2.0 * probe.REFERENCE_S / 0.2
    # no probe within the window: the nearest ones
    assert speed.scale(20.0, 20.0) == probe.REFERENCE_S / 0.2
    assert speed.median_s() == 0.2


def test_wrapped_functions_return_what_the_originals_return():
    import hwpoly
    from hwpoly import verify

    spec = hwpoly.make_spec("o_odd", 2)
    weight = (Fraction(1, 2), Fraction(1, 2))
    plain_q, plain_cert = hwpoly.certified_minimal_polynomial(spec, weight)
    plain_roots = plain_q.rational_roots()
    original = verify.projected_diagonal

    t = spans.Tracer()
    t.install()
    try:
        assert verify.projected_diagonal is not original
        q, cert = hwpoly.certified_minimal_polynomial(spec, weight)
        roots = q.rational_roots()
    finally:
        t.uninstall()
    assert verify.projected_diagonal is original
    assert (q, cert, roots) == (plain_q, plain_cert, plain_roots)
    totals = spans.layer_totals(t.spans)
    assert totals["verify.certified_minimal_polynomial"][1] == 1
    assert totals["verify.annihilation_residuals"][1] > 0
    assert totals["polyrat.UniPoly.rational_roots"][1] > 1
    assert spans.certified_paths(t) == ["direct"]


def test_self_time_excludes_child_spans():
    spans_ = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0],
              ["b", 5.0, 6.0, 0, 0]]
    renamed = [[spans.SPAN_NAMES[0] if s[0] == "a" else spans.SPAN_NAMES[1]]
               + s[1:] for s in spans_]
    totals = spans.layer_totals(renamed)
    assert totals[spans.SPAN_NAMES[0]] == [6.0, 1]
    assert totals[spans.SPAN_NAMES[1]] == [4.0, 2]


def _entry(prefix, known=False):
    for key, want in EXPECTED["answers"].items():
        if key.startswith(prefix) and ("seed_output" in want) == known:
            return key, want
    raise LookupError(prefix)


def test_checker_flags_a_wrong_polynomial():
    key, want = _entry("minpoly gl 4 ")
    doc = {"polynomial": list(want["polynomial"]), "roots": want["roots"]}
    assert pool.check_cli(key, doc, want) == (True, False)
    doc["polynomial"][0] = str(Fraction(doc["polynomial"][0]) + 1)
    assert pool.check_cli(key, doc, want) == (False, False)


def test_checker_flags_a_wrong_sweep_answer():
    import hwpoly

    key, want = _entry("sweep gl 5 ")
    q = hwpoly.UniPoly([Fraction(c) for c in want["certified"]])
    assert pool.check_sweep(want, q, q) == (True, False)
    wrong = q * hwpoly.UniPoly([Fraction(-7), Fraction(1)])
    assert pool.check_sweep(want, q, wrong) == (False, False)


def test_known_defect_still_fails():
    key, want = _entry("minpoly o 7 -- -2,-2,0", known=True)
    assert pool.check_cli(key, dict(want["seed_output"]), want) == (False, True)


def test_benchmark_json_lists_the_traced_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in bench["per_layer"]}
    for span in spans.SPAN_NAMES:
        assert {f"{span}.self_s", f"{span}.calls"} <= names
    assert [w["name"] for w in bench["workloads"]] == list(pool.WORKLOADS)
