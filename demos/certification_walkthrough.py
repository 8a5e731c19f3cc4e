"""How a minimal polynomial gets certified.

The fast mode reads the answer off the shuffle decomposition.  The
certified mode checks it on the evaluated diagonal of the powers of M
at the weight, the Harish-Chandra images of the diagonal entries of
M^k, with no product in the enveloping algebra: the diagonal of q(M)
must evaluate to zeros; then each root is removed in turn and a
nonzero residual exhibited, which proves minimality.  Independently,
a projected resolvent reconstructed by Pade approximation recovers
the polynomial from its power series alone.  When the fast answer
fails, the certifier starts from the characteristic identity chi
instead, which always annihilates, and trims it.  This script prints
every ingredient for one singular weight.  Every step reads one
RecursionSeries, the evaluated diagonal from the rank recursion, and
chi multiplies out the poles that the recursion divides by.
"""

from hwpoly import (RecursionSeries, make_spec, minpoly_from_weight,
                    monic_lcm, projected_resolvent)
from hwpoly.polyrat import root_multiset
from hwpoly.verify import annihilation_residuals, certify_minimal


def main():
    spec = make_spec("o_even", 2)
    lam = (1, 1)

    q_fast = minpoly_from_weight(spec, lam)
    print(f"{spec.label}, weight {lam}")
    print(f"fast mode answer: {q_fast}\n")
    series = RecursionSeries(spec, lam)

    # Step 1: the annihilation residuals of the candidate.  One value
    # per matrix index; all must vanish.
    print("annihilation residuals of q(M):")
    for label, r in annihilation_residuals(series, q_fast):
        print(f"  entry {label:>3}: {r}")
    print()

    # Step 2: minimality witnesses.  Dropping any single root must
    # leave some entry with a nonzero residual.
    cert = certify_minimal(series, q_fast)
    q = cert.polynomial
    print("witnesses against each shortened candidate:")
    for root, label, residual in cert.witnesses:
        print(f"  without root {str(root):>4}: entry {label} evaluates "
              f"to {residual}")
    print()
    assert q == q_fast

    # Step 3: the resolvent route.  Each projected diagonal entry of
    # (u - M)^-1 is a rational function of u; the least common
    # denominator is the minimal polynomial again.
    print("projected resolvent diagonal (numerator / denominator):")
    entries = projected_resolvent(series)
    for label, num, den in entries:
        print(f"  entry {label:>3}: ({num}) / ({den})")
    lcm = monic_lcm(den for _, _, den in entries)
    print(f"\nleast common denominator: {lcm}")
    assert lcm == q

    # Step 4: the certifier's fallback.  The recursion divides by N
    # poles, and their product chi (the characteristic identity of
    # Bracken-Green and Gould) annihilates at every weight.  Certified,
    # it trims to the minimal polynomial.
    chi = series.characteristic()
    print(f"\ncharacteristic identity: {chi}")
    trimmed = certify_minimal(series, chi)
    kept = root_multiset(q)
    dropped = [str(r) for r, _ in chi.rational_roots() if r not in kept]
    print(f"trimmed to {trimmed.polynomial}, dropping the roots "
          f"{', '.join(dropped)}")
    assert trimmed.polynomial == q

    # The four routes agree, which is exactly what the certificate
    # records.
    print(f"\ncertified: {q}")


if __name__ == "__main__":
    main()
