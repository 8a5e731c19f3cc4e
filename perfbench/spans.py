"""Spans around the public functions of each hwpoly module.

A Tracer replaces each function in TARGETS by a wrapper that records a
span (name, start, end, parent span, request id) in memory.  Functions
are patched on their defining module and in every hwpoly module that
bound them with ``from .x import y`` (``verify`` holds its own
``projected_diagonal``, ``cli`` its own ``certified_minimal_polynomial``),
so no call slips past a wrapper; methods are patched on their class.

Run as a script, this file is the traced CLI child: one fresh
interpreter per request, so ``make_spec``'s memo and the per-spec
caches never carry over between requests.

    python3 perfbench/spans.py OUT.json REQUEST_ID -- <hwpoly arguments>
"""

from __future__ import annotations

import functools
import importlib
import json
import signal
import sys
import time

MODULES = ("cli", "algebra", "shuffle", "polyrat", "linalg", "genmatrix",
           "enveloping", "verify", "oracle", "howe")

TARGETS = (
    ("cli", "main"),
    ("algebra", "make_spec"),
    ("shuffle", "decompose"),
    ("shuffle", "ShuffleDecomposition.roots"),
    ("polyrat", "UniPoly.rational_roots"),
    ("polyrat", "pade_reconstruct"),
    ("polyrat", "monic_lcm"),
    ("linalg", "solve_with_rank"),
    ("linalg", "Echelon.insert"),
    ("genmatrix", "generator_power"),
    ("genmatrix", "projected_diagonal"),
    ("enveloping", "UElement.mul"),
    ("enveloping", "evaluate_at_weight"),
    ("enveloping", "project_hc"),
    ("verify", "certified_minimal_polynomial"),
    ("verify", "annihilation_residuals"),
    ("verify", "certify_minimal"),
    ("verify", "projected_resolvent"),
    ("oracle", "build_irrep_gl"),
    ("oracle", "oracle_minpoly"),
    ("howe", "WeylElement.mul"),
    ("howe", "check_conv_powers"),
    ("howe", "check_resolvent_transfer"),
)
SPAN_NAMES = tuple(f"{m}.{a}" for m, a in TARGETS)
_DUNDER = {"mul": "__mul__"}

CERTIFY = "verify.certified_minimal_polynomial"
RESOLVENT = "verify.projected_resolvent"


class Tracer:
    """Wraps the TARGETS and keeps every span in memory."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, request id]
        self.request = 0
        self.specs = {}      # id -> every spec make_spec handed out
        self.certified = []  # (request, spec, weight, degree) per certification
        self.module_dims = []
        self._stack = []
        self._patches = []

    def _record(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = {"algebra.make_spec": self._saw_spec,
                CERTIFY: self._saw_certified,
                "oracle.build_irrep_gl": self._saw_module}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1,
                          self.request])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(args, result)
            return result
        return traced

    def _saw_spec(self, args, spec):
        self.specs[id(spec)] = spec

    def _saw_certified(self, args, result):
        self.certified.append((self.request, args[0], args[1], result[0].degree))

    def _saw_module(self, args, rep):
        self.module_dims.append(rep.dim)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        mods = [importlib.import_module(f"hwpoly.{m}") for m in MODULES]
        mods.append(importlib.import_module("hwpoly"))
        for (modname, attr), name in zip(TARGETS, SPAN_NAMES):
            home = sys.modules[f"hwpoly.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                meth = _DUNDER.get(meth, meth)
                self._patch(cls, meth, self._record(name, cls.__dict__[meth]))
                continue
            original = getattr(home, attr)
            wrapper = self._record(name, original)
            for mod in mods:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def spec_state(specs):
    """(top power, PBW terms of the top powers, enveloping cache entries).

    Read from the caches the engine keeps on each spec; all zero when
    a spec keeps no such caches.
    """
    top = terms = entries = 0
    for spec in specs:
        powers = getattr(spec, "_cache_misc", {}).get("powers")
        if powers:
            top = max(top, len(powers) - 1)
            terms += sum(len(e.terms) for row in powers[-1].rows for e in row)
        entries += (len(getattr(spec, "_cache_gtm", ()))
                    + len(getattr(spec, "_cache_mm", ())))
    return top, terms, entries


def certified_paths(tracer):
    """Per certification: 'fallback', 'trimmed' or 'direct'.

    Call after uninstall: the candidate degree is recomputed from the
    shuffle decomposition, outside any span.
    """
    from hwpoly import decompose

    spans = tracer.spans
    fell_back = set()
    for name, _, _, parent, req in spans:
        if name != RESOLVENT:
            continue
        while parent >= 0 and spans[parent][0] != CERTIFY:
            parent = spans[parent][3]
        if parent >= 0:
            fell_back.add(req)
    paths = []
    for req, spec, weight, degree in tracer.certified:
        candidate = len(decompose(spec, weight).roots())
        paths.append("fallback" if req in fell_back
                     else "trimmed" if degree < candidate else "direct")
    return paths


def layer_totals(spans):
    """{span name: [self seconds, calls]} for one list of spans."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = {name: [0.0, 0] for name in SPAN_NAMES}
    for (name, start, end, _, _), child in zip(spans, covered):
        totals[name][0] += end - start - child
        totals[name][1] += 1
    return totals


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def _child(argv):
    out_path, request = argv[0], int(argv[1])
    if argv[2] != "--":
        raise SystemExit("usage: spans.py OUT.json REQUEST_ID -- ARGS...")
    import hwpoly.cli
    # the benchmark stops an overrunning child with SIGTERM; unwinding
    # through the wrappers closes its open spans before they are written
    signal.signal(signal.SIGTERM, _stop)
    tracer = Tracer()
    tracer.request = request
    tracer.install()
    try:
        rc = hwpoly.cli.main(argv[3:])
    except SystemExit as exc:
        rc = exc.code
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    top, terms, entries = spec_state(tracer.specs.values())
    with open(out_path, "w") as fh:
        json.dump({"spans": tracer.spans, "top_power": top,
                   "power_terms": terms, "cache_entries": entries,
                   "module_dims": tracer.module_dims,
                   "paths": certified_paths(tracer)}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
