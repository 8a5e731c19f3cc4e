"""Dual pair identities in the Weyl algebra, checked symbolically.

Two copies of the general linear algebra act on polynomials in a k by
n matrix of variables, one through rows and one through columns, and
they commute.  Powers of the column-side generator matrix contracted
with the variables equal shifted powers of the row-side matrix, which
transfers resolvents, and with it minimal polynomials, from one side
to the other.  Everything below is an exact identity of normally
ordered differential operators; nothing is evaluated on functions.
"""

from hwpoly import (check_conv_powers, check_divisibility_instance,
                    check_resolvent_transfer, dual_pair, weyl_normalize)


def main():
    n, k = 2, 2
    pair = dual_pair(n, k)
    alg = pair.alg

    # The two embedded matrices commute entry by entry.
    checked = 0
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    comm = pair.left[a, b].commutator(pair.right[i, j])
                    assert comm.is_zero()
                    checked += 1
    print(f"commutant: {checked} entry pairs, all zero")

    # A sample normal ordering: x d x = x^2 d + x.
    lhs = weyl_normalize(alg, [("x", 1, 1), ("d", 1, 1), ("x", 1, 1)])
    rhs = weyl_normalize(alg, [(1, [("x", 1, 1), ("x", 1, 1), ("d", 1, 1)]),
                               (1, [("x", 1, 1)])])
    print(f"normal ordering: x d x == x^2 d + x  is {lhs == rhs}")

    # Contracted powers transfer across the pair with a shift by n - k.
    rep = check_conv_powers(n, k, r_max=4)
    print(f"contracted powers r <= 4: {rep.checks} identities, "
          f"{len(rep.failures)} failures")

    # The same shift transfers the whole resolvent series.
    rep = check_resolvent_transfer(n, k, K=4)
    print(f"resolvent transfer to order 4: {rep.checks} coefficient "
          f"matches, {len(rep.failures)} failures")

    # Euler family: degree d polynomials in k variables.  The rank one
    # side has minimal polynomial u - d, the gl_k side has its own, and
    # the first divides a shifted multiple of the second.
    print("\ndivisibility across the Euler family (n = 1):")
    for d in range(5):
        rep = check_divisibility_instance(1, 3, d)
        print(f"  d={d}:  ({rep.q})  divides  u * q'(u + 2) = "
              f"({rep.product})   {rep.divisible}")


if __name__ == "__main__":
    main()
