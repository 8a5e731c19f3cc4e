"""Tour of the shuffle decomposition and the minimal polynomial.

Run as a script.  Walks through the general linear case first, then
the mirror decomposition used by the orthogonal and symplectic
families, printing the parts and the resulting polynomial at each
step.
"""

from fractions import Fraction

from hwpoly import decompose, make_spec, minpoly_from_weight


def show(spec, lam):
    dec = decompose(spec, lam)
    l = dec.sequence  # the shifted weight lambda + rho
    q = minpoly_from_weight(spec, lam)
    print(f"{spec.label}  weight ({', '.join(str(x) for x in lam)})")
    print(f"  shifted weight l = {tuple(str(x) for x in l)}")
    for p in dec.parts:
        tags = "".join("*" if o == "starred" else "." for o in p.origins)
        print(f"  part {[str(t) for t in p.terms]}  origins {tags}")
    if dec.parity is not None:
        print(f"  parity {dec.parity}")
    print(f"  minimal polynomial  {q}")
    print()


def main():
    # A generic weight: no two entries of l differ by one, so every
    # part is a singleton and the polynomial has all n roots.
    gl3 = make_spec("gl", 3)
    show(gl3, (4, 2, 0))

    # Entries of l in arithmetic progression with step one merge into
    # a single falling part, and the polynomial collapses.
    show(gl3, (0, 0, 0))

    # A dominant weight of gl_4 whose parts interleave.
    gl4 = make_spec("gl", 4)
    show(gl4, (3, 3, 2, 1))

    # The mirror decomposition doubles the sequence.  Symplectic rank
    # two, defining direction: the doubled sequence splits into two
    # mirror pairs.
    sp2 = make_spec("sp", 2)
    show(sp2, (1, 0))

    # An odd orthogonal weight with odd parity: one part is entirely
    # plain and ends at epsilon = 1/2, which cancels a root.
    o5 = make_spec("o_odd", 2)
    show(o5, (0, 0))

    # Half integral weights are just as exact.
    show(o5, (Fraction(1, 2), Fraction(1, 2)))


if __name__ == "__main__":
    main()
