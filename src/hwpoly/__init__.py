"""Exact minimal polynomials of simple highest weight modules.

The package computes, over the classical matrix Lie algebras, the
minimal polynomial of the generator matrix acting through a simple
highest weight module.  A combinatorial shuffle decomposition of the
shifted weight predicts the polynomial instantly; the certifier proves
it from the projected diagonal of the powers of that matrix, read off
the rank recursion, which is proven at every rank and order, with no
product in the enveloping algebra; a walk through the Verma module
cross-checks the recursion.  All arithmetic is exact rational.

The exports load on first use: ``import hwpoly`` imports no submodule,
and ``hwpoly.make_spec`` imports ``hwpoly.algebra`` only when it is
first read, so a command pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# each export, by the submodule that defines it
_HOMES = {
    "algebra": ("AlgebraSpec", "Family", "make_spec"),
    "enveloping": ("UElement", "evaluate_at_weight", "pbw_normalize",
                   "project_hc"),
    "genmatrix": ("generator_matrix", "generator_power",
                  "projected_diagonal"),
    "howe": ("WeylAlgebra", "WeylElement", "check_conv_powers",
             "check_divisibility_instance", "check_resolvent_transfer",
             "dual_pair", "weyl_normalize"),
    "oracle": ("build_catalog_rep", "build_irrep_gl", "oracle_minpoly"),
    "polyrat": ("CertificationError", "UniPoly", "monic_lcm"),
    "recursion": ("RecursionSeries",),
    "shuffle": ("ShuffleDecomposition", "decompose", "minpoly_from_weight",
                "shuffle_gl", "shuffle_mirror"),
    "verify": ("Certificate", "certified_minimal_polynomial",
               "divisibility_poset", "projected_resolvent"),
    "verma": ("check_relative_formulas", "walk_numerators"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
