"""Command line interface emitting one JSON document per invocation.

Algebras are named by family and a single number: ``gl 3`` and ``sp 2``
take the rank, while ``o 5`` takes the matrix size so that its parity
can select the even or odd orthogonal family.  Weights are comma
separated rationals, each an integer, p/q or a decimal, such as
``1,-1/2,0.5``.  Every command prints one JSON object to stdout (or
writes it with --json) with all rationals rendered as exact fraction
strings.  A command on an algebra puts ``"algebra"`` first in its
document, followed by ``"weight"`` when it takes one.  An argument that
starts with a minus sign followed by a digit, such as the weight
``-1,0``, is a positional value, never an option.

``relcheck`` and ``resolvent`` take matrix sizes N up to 24 (``sp 12``,
``o 24``, ``gl 24``); a larger N is a usage error, refused before the
algebra is built, as their cost grows steeply with N (``resolvent sp
20``, N = 40, takes about a minute).

Exit status is 0 on success, 2 when certification fails, and 1 on a
usage error or when the document cannot be written: to the --json
file, or to stdout when its reader has closed the pipe.  Either prints
one ``hwpoly: cannot write`` line to stderr and no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .algebra import EPSILON, Family, make_spec, matrix_size
from .polyrat import CertificationError, UniPoly, monic_lcm

# The shuffle formulas, the certifier, the oracle and the Howe checks
# are imported by the handlers that run them, so a command loads only
# what it runs.


class _Usage(Exception):
    pass


# No option starts with a minus sign and a digit, so such a token is a
# weight (-1,0), a sequence or a number.  argparse reads a token as a
# positional when _parse_optional returns None.
_NEGATIVE = re.compile(r"-\.?\d")
# a coordinate: an integer, p/q or a decimal (Fraction expands 1e9999999)
_RATIONAL = re.compile(r"\s*[+-]?(\d+(/0*[1-9]\d*|\.\d*)?|\.\d+)\s*")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)

    def _parse_optional(self, arg_string):
        if _NEGATIVE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _parse_weight(text: str):
    coords = text.split(",") if text else []
    if not all(map(_RATIONAL.fullmatch, coords)):
        raise _Usage(f"cannot parse weight {text!r}")
    return tuple(map(Fraction, coords))


def _family_rank(family: str, num: int):
    if family != "o":
        return family, num
    if num < 2:
        raise _Usage("orthogonal size must be at least 2")
    return ("o_even" if num % 2 == 0 else "o_odd"), num // 2


def _int_at_least(text: str, least: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
    if value < least:
        raise argparse.ArgumentTypeError(
            f"must be at least {least}, got {value}")
    return value


def _order(text: str) -> int:
    """A truncation order: a positive integer."""
    return _int_at_least(text, 1)


def _bound(text: str) -> int:
    """An inclusive upper bound of a check range: a nonnegative integer."""
    return _int_at_least(text, 0)


def _s(x) -> str:
    return str(Fraction(x))


def _poly(q: UniPoly):
    return [_s(c) for c in q.coeffs]


def _roots(q: UniPoly):
    return [[_s(r), m] for r, m in q.rational_roots()]


def _cmd_minpoly(spec, lam, args):
    from .shuffle import minpoly_from_weight
    q = minpoly_from_weight(spec, lam)
    return {
        "l": [_s(x + r) for x, r in zip(lam, spec.rho)],
        "roots": _roots(q),
        "polynomial": _poly(q),
    }


def _cmd_shuffle(args):
    from .shuffle import shuffle_gl, shuffle_mirror
    seq = _parse_weight(args.sequence)
    if args.family == "gl":
        dec = shuffle_gl(seq)
    else:
        dec = shuffle_mirror(seq, EPSILON[Family(args.family)])
    return {
        "kind": dec.kind,
        "sequence": [_s(x) for x in dec.sequence],
        "parts": [{"terms": [_s(t) for t in p.terms],
                   "origins": list(p.origins),
                   "mirror": p.mirror_id} for p in dec.parts],
        "parity": dec.parity,
        "epsilon": None if dec.epsilon is None else _s(dec.epsilon),
        "roots": [_s(r) for r in dec.roots()],
    }


def _cmd_certify(spec, lam, args):
    from .verify import certified_minimal_polynomial
    q, cert = certified_minimal_polynomial(spec, lam)
    return {
        "polynomial": _poly(q),
        "roots": _roots(q),
        "certified": True,
        "witnesses": [{"root": _s(r), "entry": _s(lab), "residual": _s(res)}
                      for r, lab, res in cert.witnesses],
    }


def _cmd_resolvent(spec, lam, args):
    from .recursion import RecursionSeries
    from .verify import projected_resolvent, resolvent_order
    entries = projected_resolvent(RecursionSeries(spec, lam))
    return {
        "K": resolvent_order(spec),
        "entries": [{"entry": _s(lab), "num": _poly(num), "den": _poly(den)}
                    for lab, num, den in entries],
        "lcm": _poly(monic_lcm(den for _, _, den in entries)),
    }


def _cmd_relcheck(spec, lam, args):
    from .verma import check_relative_formulas
    reports = check_relative_formulas(spec, lam, K=args.K)
    return {
        "K": args.K,
        "reports": [{"name": r.name, "residuals": [_s(x) for x in r.residuals],
                     "exact": r.exact} for r in reports],
    }


def _cmd_oracle(args):
    from .oracle import build_catalog_rep, build_irrep_gl, oracle_minpoly
    family, n = _family_rank(args.family, args.num)
    if args.rep in ("trivial", "defining"):
        rep = build_catalog_rep(family, n, args.rep)
    elif family == "gl":
        rep = build_irrep_gl(_parse_weight(args.rep), n)
    else:
        raise _Usage("weight-built oracle modules exist for gl only")
    q = oracle_minpoly(rep)
    return {
        "algebra": rep.spec.label,
        "rep": rep.name,
        "dim": rep.dim,
        "polynomial": _poly(q),
        "roots": _roots(q),
    }


def _cmd_howe(args):
    # the divisibility family is the Euler case n = 1, the only reader
    # of --dmax
    if args.n != 1 and args.dmax is not None:
        raise _Usage("--dmax applies to n = 1 only")
    from .howe import (check_conv_powers, check_divisibility_instance,
                       check_resolvent_transfer)
    conv = check_conv_powers(args.n, args.k, args.rmax)
    transfer = check_resolvent_transfer(args.n, args.k, args.K)
    divis = []
    if args.n == 1:
        for d in range((3 if args.dmax is None else args.dmax) + 1):
            rep = check_divisibility_instance(1, args.k, d)
            divis.append({"d": d, "q": _poly(rep.q),
                          "q_prime": _poly(rep.q_prime),
                          "product": _poly(rep.product),
                          "divisible": rep.divisible})
    return {
        "n": args.n,
        "k": args.k,
        "conv": {"checks": conv.checks,
                 "failures": [list(f) for f in conv.failures],
                 "passed": conv.passed},
        "transfer": {"checks": transfer.checks,
                     "failures": [list(f) for f in transfer.failures],
                     "passed": transfer.passed},
        "divisibility": divis,
    }


def _cmd_poset(spec, weights, args):
    from .verify import divisibility_poset
    entries, edges = divisibility_poset(spec, weights)
    return {
        "entries": [{"weight": [_s(x) for x in w], "polynomial": _poly(q)}
                    for w, q in entries],
        "edges": [list(e) for e in edges],
    }


_ALGEBRA = (("family", {"choices": ["gl", "sp", "o"]}), ("num", {"type": int}))
_WEIGHT = _ALGEBRA + (("weight", {}),)
# the largest matrix size N that relcheck and resolvent take (see the
# module docstring)
_SIZE_BOUND = 24
_SIZE_BOUNDED = ("relcheck", "resolvent")


def _K(default):
    return (("--K", {"type": _order, "default": default,
                     "help": "series truncation order"}),)


# (name, help, arguments, handler), in the order of --help.  Each
# argument is (name or flag, add_argument keywords); every command also
# takes --json.  _document says how a handler is called.
_COMMANDS = (
    ("minpoly", "minimal polynomial from the weight", _WEIGHT, _cmd_minpoly),
    ("shuffle", "decompose a shifted weight sequence",
     (("family", {"choices": ["gl", "sp", "o_even", "o_odd"]}),
      ("sequence", {})), _cmd_shuffle),
    ("certify", "certified minimal polynomial", _WEIGHT, _cmd_certify),
    ("resolvent", "projected resolvent diagonal", _WEIGHT, _cmd_resolvent),
    ("relcheck", "corank one identities: the recursion against the Verma walk",
     _WEIGHT + _K(6), _cmd_relcheck),
    ("oracle", "matrix-model minimal polynomial",
     _ALGEBRA + (("rep", {"help": "'trivial', 'defining', or a gl weight"}),),
     _cmd_oracle),
    ("howe", "dual pair transfer checks",
     (("n", {"type": int}), ("k", {"type": int}),
      ("--rmax", {"type": _bound, "default": 3}),
      ("--dmax", {"type": _bound, "help": "n = 1 only (default 3)"}))
     + _K(3), _cmd_howe),
    ("poset", "divisibility among certified polynomials",
     _ALGEBRA + (("weights", {"help": "weights separated by ';'"}),),
     _cmd_poset),
)


def _document(args):
    """The document of the parsed command.

    A command on weights gets its spec and its weights, each parsed and
    checked against the rank before the spec's tables (quadratic in it)
    are built and before any is certified: handler(spec, lam, args) for
    one weight, handler(spec, weights, args) for poset's list, which
    must name at least one; at rank 0 the empty text is that one.
    relcheck and resolvent refuse a matrix size N past _SIZE_BOUND
    before the spec is built.  The others (shuffle, oracle, howe) get
    handler(args); the oracle builds its spec only for a module within
    its bound.
    """
    if "weight" not in args and "weights" not in args:
        return args.handler(args)
    family, n = _family_rank(args.family, args.num)
    if "weight" in args:
        texts = [args.weight]
    else:
        texts = [w for w in args.weights.split(";") if w != "" or n == 0]
        if not texts:
            raise _Usage("poset needs at least one weight")
    weights = [_parse_weight(w) for w in texts]
    for lam in weights:
        if n >= 0 and len(lam) != n:
            raise _Usage(f"weight must have {n} coordinates, got {len(lam)}")
    size = matrix_size(family, n)
    if args.command in _SIZE_BOUNDED and size > _SIZE_BOUND:
        raise _Usage(f"{args.command} takes matrix sizes up to {_SIZE_BOUND}, "
                     f"got {size}")
    spec = make_spec(family, n)
    if "weight" in args:
        lam, = weights
        return {"algebra": spec.label, "weight": [_s(x) for x in lam],
                **args.handler(spec, lam, args)}
    return {"algebra": spec.label, **args.handler(spec, weights, args)}


def _build_parser(argv) -> _Parser:
    """The parser of the command that argv[0] names, or of every command
    when it names none (no arguments, --help or an unknown command), so
    that the usage and its errors list them all."""
    p = _Parser(prog="hwpoly", description=__doc__.splitlines()[0])
    subs = p.add_subparsers(dest="command", required=True)
    named = [c for c in _COMMANDS if argv and c[0] == argv[0]]
    for name, help_text, arguments, handler in named or _COMMANDS:
        s = subs.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            s.add_argument(flag, **keywords)
        s.add_argument("--json", metavar="PATH", default=None,
                       help="write the document to PATH instead of stdout")
        s.set_defaults(handler=handler)
    return p


def write_stdout(text: str) -> int:
    """Write text to stdout and flush it: 0, or 1 when that fails.

    A reader that closed its pipe (or a full device) gets one
    ``hwpoly: cannot write stdout`` line on stderr.  stdout then points
    at os.devnull, so the flush at exit stays quiet too.
    """
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"hwpoly: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser(argv).parse_args(argv)
        doc = _document(args)
    except (_Usage, ValueError) as exc:
        print(f"hwpoly: {exc}", file=sys.stderr)
        return 1
    except CertificationError as exc:
        print(f"hwpoly: certification failure: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(doc, indent=2) + "\n"
    if args.json is None:
        return write_stdout(text)
    try:
        with open(args.json, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"hwpoly: cannot write {args.json}: {exc.strerror}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
