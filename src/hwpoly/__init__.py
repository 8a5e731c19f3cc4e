"""Exact minimal polynomials of simple highest weight modules.

The package computes, over the classical matrix Lie algebras, the
minimal polynomial of the generator matrix acting through a simple
highest weight module.  A combinatorial shuffle decomposition of the
shifted weight predicts the polynomial instantly; an independent
projection criterion inside the enveloping algebra certifies it.  All
arithmetic is exact rational.
"""

from .algebra import AlgebraSpec, Family, make_spec, parabolic
from .enveloping import (UElement, evaluate_at_weight, pbw_normalize,
                         project_hc, project_relative)
from .genmatrix import generator_matrix, generator_power, projected_diagonal
from .howe import (WeylAlgebra, WeylElement, check_conv_powers,
                   check_divisibility_instance, check_resolvent_transfer,
                   dual_pair, weyl_normalize)
from .oracle import (build_catalog_rep, build_irrep_gl, hw_coefficient,
                     oracle_minpoly)
from .polyrat import UniPoly, monic_lcm
from .shuffle import (ShuffleDecomposition, decompose, minpoly_from_weight,
                      shifted_weight, shuffle_gl, shuffle_mirror)
from .verify import (Certificate, CertificationError,
                     certified_minimal_polynomial, check_relative_formulas,
                     divisibility_poset, parity_classify, pp_diagnostic,
                     projected_resolvent)

__version__ = "0.1.0"

__all__ = [
    "AlgebraSpec",
    "Certificate",
    "CertificationError",
    "Family",
    "ShuffleDecomposition",
    "UElement",
    "UniPoly",
    "WeylAlgebra",
    "WeylElement",
    "build_catalog_rep",
    "build_irrep_gl",
    "certified_minimal_polynomial",
    "check_conv_powers",
    "check_divisibility_instance",
    "check_relative_formulas",
    "check_resolvent_transfer",
    "decompose",
    "divisibility_poset",
    "dual_pair",
    "evaluate_at_weight",
    "generator_matrix",
    "generator_power",
    "hw_coefficient",
    "make_spec",
    "minpoly_from_weight",
    "monic_lcm",
    "oracle_minpoly",
    "parabolic",
    "parity_classify",
    "pbw_normalize",
    "pp_diagnostic",
    "project_hc",
    "project_relative",
    "projected_diagonal",
    "projected_resolvent",
    "shifted_weight",
    "shuffle_gl",
    "shuffle_mirror",
    "weyl_normalize",
]
