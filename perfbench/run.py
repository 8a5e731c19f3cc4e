"""The hwpoly benchmark: four workloads, timed end to end and per module.

    python3 perfbench/run.py --workload cli-fast --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports and launches the
package from ``src/``.  One client sends one request at a time (closed
loop) and checks every answer against ``expected.json``:

* cli-fast      fresh ``hwpoly minpoly`` (fast mode) and ``hwpoly shuffle``
                processes over all four families;
* certify-cold  fresh ``hwpoly certify`` and ``hwpoly resolvent`` processes;
* sweep-warm    this process certifies a few hundred weights with warm
                per-spec caches and runs the fast engine on each;
* crosscheck    fresh ``hwpoly howe`` and ``hwpoly oracle`` processes.

Every time reported is scaled to seconds at a reference speed: a probe
child (probe.py) runs between requests, and each request's time is
multiplied by the probe's reference time over the probe times measured
around it, so that the shared machine's changing speed does not read as
a change of hwpoly.  With ``--trace 0`` the last line of stdout is a
JSON object with the end-to-end metrics; with ``--trace 1`` the run repeats the workload with
spans around the public functions of every module (spans.py) and
reports per-module self time and call counts, the derived counts and
the tracing overhead instead.  The lines before it list every metric
with its unit, the failure ratio and the engine disagreements.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import pool  # noqa: E402
import spans  # noqa: E402
from probe import Speed  # noqa: E402

# Per-request time limits.  Every fast-mode request at the seed commit
# answers in under 0.8 s or runs for over 9 s; every slow one in under
# 8 s.  A request over its limit is killed and counted as failed.
FAST_LIMIT_S = 2.5
SLOW_LIMIT_S = 60.0
KILL_GRACE_S = 2.0
WARMUP = ("shuffle", "gl", "--", "0")
SETUPS = 3
# cli-fast makes two passes at least, so that its latencies rest on over
# 100 requests and each request's time is the median of two answers.
MIN_PASSES = 2


class Outcome:
    """One finished child process."""

    def __init__(self, start, end, rc, timed_out, rss_mb, stdout):
        self.start = start
        self.end = end
        self.rc = rc
        self.timed_out = timed_out
        self.rss_mb = rss_mb
        self.stdout = stdout


def run_child(argv, env, limit, stdout_path) -> Outcome:
    """Run argv to completion or kill it after limit seconds.

    The child's peak RSS comes from its own wait4 rusage; RUSAGE_CHILDREN
    would be a running maximum over every child so far.  A child over the
    limit gets SIGTERM (a traced child then writes out its spans) and,
    KILL_GRACE_S later, SIGKILL.
    """
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.DEVNULL, env=env)
    pidfd = os.pidfd_open(proc.pid)
    try:
        timed_out = not select.select([pidfd], [], [], limit)[0]
        if timed_out:
            signal.pidfd_send_signal(pidfd, signal.SIGTERM)
            if not select.select([pidfd], [], [], KILL_GRACE_S)[0]:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    finally:
        os.close(pidfd)
    t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(t0, t1, proc.returncode, timed_out, usage.ru_maxrss / 1024,
                   Path(stdout_path).read_bytes())


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


class Tally:
    """Request intervals, pass count and answer checks of one timed phase."""

    def __init__(self):
        self.samples = []       # (position in the list, pass, start, end)
        self.passes = 0
        self.failures = []
        self.wrong = []         # wrong answers no recorded defect explains
        self.disagreements = None
        self.peak_rss_mb = 0.0

    @property
    def attempted(self):
        return len(self.samples)

    @property
    def failed(self):
        return len(self.failures)

    def record(self, position, key, start, end, failed, wrong):
        self.samples.append((position, self.passes, start, end))
        if failed:
            self.failures.append(key)
        if wrong:
            self.wrong.append(key)

    def times(self, seconds):
        """(pass times, per-request times): a pass's time is the sum of its
        requests' (probes and answer checks excluded); a request's time is
        the median over the passes."""
        walls = [0.0] * self.passes
        per_request = {}
        for (position, n, start, end) in self.samples:
            walls[n] += seconds(start, end)
            per_request.setdefault(position, []).append(seconds(start, end))
        return walls, [statistics.median(v) for v in per_request.values()]

    def end_to_end(self, speed, setups):
        """Every time scaled to the reference speed; medians over the
        passes and over the set-ups."""
        walls, latencies = self.times(speed.scaled)
        return {
            "setup_s": (statistics.median(
                sum(speed.scaled(*span) for span in setup) for setup in setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "latency_p50_s": (statistics.median(latencies), "s"),
            "latency_p90_s": (quantile(latencies, 0.9), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def raw(self, setups):
        """The same times as measured, unscaled."""
        walls, latencies = self.times(lambda start, end: end - start)
        return {
            "setup_s": statistics.median(
                sum(end - start for start, end in setup) for setup in setups),
            "wall_s": statistics.median(walls),
            "latency_p50_s": statistics.median(latencies),
            "latency_p90_s": quantile(latencies, 0.9),
        }


class Bench:
    def __init__(self, expected):
        self.answers = expected["answers"]
        self.speed = Speed()
        self.setups = []
        self.env = {k: v for k, v in os.environ.items() if k != "HWPOLY_K"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self._hwpoly = None

    def hwpoly(self):
        """The package from this checkout, imported into this process."""
        if self._hwpoly is None:
            sys.path.insert(0, str(ROOT / "src"))
            import hwpoly
            self._hwpoly = hwpoly
        return self._hwpoly

    def fast_coeffs(self, family, n, weight):
        hw = self.hwpoly()
        q = hw.minpoly_from_weight(hw.make_spec(family, n), weight)
        return [str(c) for c in q.coeffs]

    # -- subprocess workloads ---------------------------------------------

    def cli(self, args, traced=False, request=0) -> Outcome:
        limit = FAST_LIMIT_S if args[0] in ("minpoly", "shuffle") else SLOW_LIMIT_S
        if traced:
            argv = [sys.executable, str(HERE / "spans.py"),
                    str(OUT / "trace" / f"{request}.json"), str(request), "--"]
        else:
            argv = [sys.executable, "-m", "hwpoly.cli"]
        return run_child(argv + list(args), self.env, limit, OUT / "stdout.json")

    def judge_cli(self, key, out):
        """(failed, wrong, disagreement) for one CLI request."""
        if out.timed_out:
            return True, False, False
        try:
            doc = json.loads(out.stdout) if out.rc == 0 else None
        except ValueError:
            doc = None
        if doc is None:
            return True, True, False
        want = self.answers[key]
        ok, known = pool.check_cli(key, doc, want)
        command, fam, num, _, weight = (key.split(" ") + [""] * 5)[:5]
        if command == "minpoly":
            disagree = "certified" in want["source"] and \
                doc["polynomial"] != want["polynomial"]
        elif command in ("certify", "oracle"):
            family, n = pool.spec_of_cli(fam, int(num))
            disagree = doc["polynomial"] != self.fast_coeffs(
                family, n, pool.parse_weight(weight))
        else:
            disagree = False
        return not ok, not ok and not known, disagree

    def cold_pass(self, keys, tally, traced=False):
        """One pass over keys, probing between requests; returns its
        seconds, probes included."""
        outcomes = []
        t0 = time.perf_counter()
        for i, key in enumerate(keys):
            self.speed.tick()
            outcomes.append(self.cli(key.split(" "), traced, i))
        wall = time.perf_counter() - t0
        disagreements = 0
        for position, (key, out) in enumerate(zip(keys, outcomes)):
            failed, wrong, disagree = self.judge_cli(key, out)
            tally.record(position, key, out.start, out.end, failed, wrong)
            tally.peak_rss_mb = max(tally.peak_rss_mb, out.rss_mb)
            disagreements += disagree
        tally.passes += 1
        if tally.disagreements is None:
            tally.disagreements = disagreements
        return wall

    def cold_setup(self):
        """SETUPS warm-up invocations, each a set-up of one interval."""
        setups = []
        for _ in range(SETUPS):
            self.speed.tick()
            out = self.cli(WARMUP)
            setups.append([(out.start, out.end)])
        return setups

    # -- sweep-warm ------------------------------------------------------

    def sweep_requests(self, keys):
        return [(key,) + pool.parse_sweep_key(key) for key in keys]

    def sweep_specs(self, reqs):
        hw = self.hwpoly()
        return {(f, n): hw.AlgebraSpec(f, n) for _, f, n, _ in reqs}

    def sweep_pass(self, reqs, specs, tally=None, tracer=None, state=None,
                   spans_out=None):
        """Certify and fast-solve every request, probing between requests;
        returns the pass seconds, probes included.  The request intervals
        go to tally, or to spans_out."""
        hw = self.hwpoly()
        results = []
        t0 = time.perf_counter()
        for key, family, n, weight in reqs:
            spec = specs[family, n]
            if tracer is not None:
                tracer.request += 1
            self.speed.tick()
            start = time.perf_counter()
            try:
                q, _ = hw.certified_minimal_polynomial(spec, weight)
                fast = hw.minpoly_from_weight(spec, weight)
            except Exception as exc:  # any raise is a failed request
                q = fast = exc
            results.append((key, start, time.perf_counter(), q, fast))
            if state is not None:
                state.append(spans.spec_state(specs.values()))
        wall = time.perf_counter() - t0
        if spans_out is not None:
            spans_out += [(start, end) for _, start, end, _, _ in results]
        if tally is not None:
            disagreements = 0
            for position, (key, start, end, q, fast) in enumerate(results):
                if isinstance(q, Exception):
                    tally.record(position, key, start, end, True, True)
                    continue
                ok, known = pool.check_sweep(self.answers[key], q, fast)
                tally.record(position, key, start, end, not ok, not ok and not known)
                disagreements += fast != q
            tally.passes += 1
            if tally.disagreements is None:
                tally.disagreements = disagreements
        return wall

    def sweep_setup(self, reqs, tracer=None):
        """Fresh specs plus the untimed first pass that fills their caches:
        (the set-up's intervals, the specs)."""
        self.speed.tick()
        t0 = time.perf_counter()
        specs = self.sweep_specs(reqs)
        setup = [(t0, time.perf_counter())]
        self.sweep_pass(reqs, specs, tracer=tracer, spans_out=setup)
        return setup, specs


def timed_passes(run_pass, seconds, least=1):
    """Whole passes until another would overrun the time; at least least."""
    start = time.perf_counter()
    for done in itertools.count(1):
        wall = run_pass()
        if done >= least and time.perf_counter() - start + wall > seconds:
            return


# -- workloads ---------------------------------------------------------------

def untraced(bench, workload, keys, seconds):
    tally = Tally()
    if workload == "sweep-warm":
        reqs = bench.sweep_requests(keys)
        setups = []
        for _ in range(SETUPS):
            specs = None
            gc.collect()
            setup, specs = bench.sweep_setup(reqs)
            setups.append(setup)
        timed_passes(lambda: bench.sweep_pass(reqs, specs, tally), seconds)
        tally.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        setups = bench.cold_setup()
        least = MIN_PASSES if workload == "cli-fast" else 1
        timed_passes(lambda: bench.cold_pass(keys, tally), seconds, least)
    bench.setups = setups
    bench.speed.probe()     # the last requests need a probe after them
    metrics = tally.end_to_end(bench.speed, setups)
    raw = tally.raw(setups)
    print(f"probe median {bench.speed.median_s()} s over {len(bench.speed.probes)} "
          f"probes; as measured, unscaled: "
          + ", ".join(f"{name} {value} s" for name, value in raw.items()))
    return tally, metrics


def traced(bench, workload, keys, seconds):
    """Untraced passes for half the time, then one traced pass."""
    startup = statistics.median(end - start for [(start, end)] in bench.cold_setup())
    plain = Tally()
    counts = {"top_power": 0, "power_terms": 0, "cache_entries": 0,
              "module_dim": 0}
    paths = {"direct": 0, "trimmed": 0, "fallback": 0}
    totals = {name: [0.0, 0] for name in spans.SPAN_NAMES}
    tally = Tally()

    def add(totals_part):
        for name, (self_s, calls) in totals_part.items():
            totals[name][0] += self_s
            totals[name][1] += calls

    def add_state(top, terms, entries):
        counts["top_power"] = max(counts["top_power"], top)
        counts["power_terms"] = max(counts["power_terms"], terms)
        counts["cache_entries"] = max(counts["cache_entries"], entries)

    trace_dir = OUT / "trace"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    if workload == "sweep-warm":
        reqs = bench.sweep_requests(keys)
        _, specs = bench.sweep_setup(reqs)
        timed_passes(lambda: bench.sweep_pass(reqs, specs, plain), seconds / 2)
        specs = None
        gc.collect()
        tracer = spans.Tracer()
        tracer.install()
        state = []
        try:
            _, specs = bench.sweep_setup(reqs, tracer)
            bench.sweep_pass(reqs, specs, tally, tracer, state)
        finally:
            tracer.uninstall()
        for top, terms, entries in state:
            add_state(top, terms, entries)
        add(spans.layer_totals(tracer.spans))
        for path in spans.certified_paths(tracer):
            paths[path] += 1
        with open(trace_dir / "sweep-warm.json", "w") as fh:
            json.dump(tracer.spans, fh)
    else:
        timed_passes(lambda: bench.cold_pass(keys, plain), seconds / 2)
        bench.cold_pass(keys, tally, traced=True)
        for i in range(len(keys)):
            path = trace_dir / f"{i}.json"
            if not path.exists():   # killed before it could write
                continue
            with open(path) as fh:
                child = json.load(fh)
            add(spans.layer_totals(child["spans"]))
            add_state(child["top_power"], child["power_terms"],
                      child["cache_entries"])
            counts["module_dim"] += sum(child["module_dims"])
            for p in child["paths"]:
                paths[p] += 1
    bench.speed.probe()
    metrics = {}
    for name, (self_s, calls) in totals.items():
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.calls"] = (calls, "count")
    metrics["cli.startup_s"] = (startup, "s")
    metrics["genmatrix.top_power"] = (counts["top_power"], "count")
    metrics["genmatrix.power_terms"] = (counts["power_terms"], "count")
    metrics["enveloping.cache_entries"] = (counts["cache_entries"], "count")
    for path, n in paths.items():
        metrics[f"verify.path.{path}"] = (n, "count")
    metrics["oracle.module_dim"] = (counts["module_dim"], "count")
    metrics["fail_ratio"] = (tally.failed / tally.attempted, "1")
    metrics["engine_disagreements"] = (tally.disagreements, "count")
    metrics["trace.overhead_s"] = (
        tally.times(bench.speed.scaled)[0][0]
        - statistics.median(plain.times(bench.speed.scaled)[0]), "s")
    metrics["speed.probe_s"] = (bench.speed.median_s(), "s")
    tally.samples += plain.samples
    tally.wrong += plain.wrong
    tally.failures += plain.failures
    return tally, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=pool.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the child running is killed
    # and waited for on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "hwpoly" / "cli.py").is_file():
        print(f"perfbench: no hwpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    expected = pool.load_expected()
    bench = Bench(expected)
    keys = pool.requests_for(args.workload, args.seed, expected)
    run = traced if args.trace else untraced
    tally, metrics = run(bench, args.workload, keys, args.seconds)
    for key in tally.failures:
        print(f"failed: {key}", file=sys.stderr)
    with open(OUT / f"{args.workload}-{args.seed}.json", "w") as fh:
        json.dump({"samples": tally.samples, "probes": bench.speed.probes,
                   "setups": bench.setups}, fh)
    print(f"requests per pass: {len(keys)}; attempted {tally.attempted}; "
          f"failed {tally.failed}; fail_ratio {tally.failed / tally.attempted} 1; "
          f"engine_disagreements per pass {tally.disagreements} count")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
