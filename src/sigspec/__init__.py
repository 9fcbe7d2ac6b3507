"""Exact spectra of signed graphs and their marked products.

The package builds a marked product of two signed graphs, computes exact
coronals and factored characteristic polynomials for the adjacency,
Laplacian and signless Laplacian matrices, detects integral spectra, and
assembles equienergetic non-cospectral families from cospectral inputs.
"""
from .applications import (EquienergeticCertificate, IntegralityReport,
                           StarProductReport, demo_equienergetic_pair,
                           equienergetic_demo, equienergetic_family,
                           factored_energy_estimate, integral_product_check,
                           star_bracket_cubic, star_bracket_cubic_expanded,
                           star_product_integral_check)
from .coronal import (CoronalTriple, regular_balanced_coronal, signed_coronal,
                      star_coronal_closed_form)
from .exact import (Matrix, Poly, RationalFn, adjugate_quadratic_form,
                    charpoly, charpoly_with_adjugate_form,
                    compose_with_rational, integer_roots, poly_gcd)
from .graphs import (Edge, GraphMatrices, MarkedSignedGraph, Marking,
                     SignedGraph, adjacency_matrix, balance_marking,
                     canonical_marking, complete, complete_bipartite, cycle,
                     is_balanced, line_graph, matrices, mu_signed_graph, path,
                     prism, regular_degree, star)
from .io import (GraphFormatError, load_graph, parse_graph, save_graph,
                 serialize_graph)
from .product import ProductGraph, corona, product
from .spectra import (EnergyValue, IntegralityResult, Spectrum, cospectral,
                      energy, is_integral, symmetric_eigenvalues)
from .theorems import (CospectralFamilyReport, FactoredCharPoly,
                       cospectral_family_check, factored_charpoly)
from .verify import run_corona_verification, run_theorem_verification

__version__ = "0.1.0"

__all__ = [
    "Edge", "SignedGraph", "Marking", "MarkedSignedGraph", "GraphMatrices",
    "canonical_marking", "mu_signed_graph", "balance_marking", "is_balanced",
    "regular_degree", "adjacency_matrix", "matrices",
    "star", "path", "cycle", "complete", "complete_bipartite", "prism",
    "line_graph",
    "Poly", "RationalFn", "Matrix", "poly_gcd",
    "compose_with_rational", "integer_roots", "charpoly",
    "charpoly_with_adjugate_form", "adjugate_quadratic_form",
    "CoronalTriple", "signed_coronal", "star_coronal_closed_form",
    "regular_balanced_coronal",
    "ProductGraph", "product", "corona",
    "FactoredCharPoly", "factored_charpoly", "CospectralFamilyReport",
    "cospectral_family_check",
    "Spectrum", "EnergyValue", "IntegralityResult", "symmetric_eigenvalues",
    "energy", "cospectral", "is_integral",
    "IntegralityReport", "StarProductReport", "EquienergeticCertificate",
    "integral_product_check", "star_product_integral_check",
    "star_bracket_cubic", "star_bracket_cubic_expanded",
    "equienergetic_family", "equienergetic_demo", "demo_equienergetic_pair",
    "factored_energy_estimate",
    "GraphFormatError", "parse_graph", "serialize_graph", "load_graph",
    "save_graph",
    "run_theorem_verification", "run_corona_verification",
    "__version__",
]
