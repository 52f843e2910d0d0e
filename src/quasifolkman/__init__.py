"""Toolkit for Folkman-type properties of Hermitian unital intersection graphs.

Builds the secant intersection graphs of Hermitian unitals over PG(2, q^2),
machine-checks their structural statistics (strong regularity, clique
decompositions, K4 structure), certifies the monochromatic-triangle lower
bound for two-colorings via exact Goodman-style counting, and simulates the
random block construction that deletes all K4's while preserving the Ramsey
property.
"""

__version__ = "0.1.0"

from .fields import FieldError, FiniteField, QuadraticExtension
from .plane import ProjectivePlane, UnitalIncidence, build_unital, build_unital_for_q
from .certificates import Certificate
from .graphs import (
    IntersectionGraph,
    SrgReport,
    build_graph,
    build_graph_for_q,
    unital_symmetry,
    verify_k4_by_symmetry,
    verify_k4_structure,
    verify_srg,
)
from .triangles import (
    TriangleFamily,
    build_family,
    family_size_formula,
    verify_nbhd_decomposition,
    verify_no_k4_in_family,
)
from .certify import (
    EdgeColoring,
    GoodmanTally,
    adversarial_color_check,
    clique_min_mono,
    goodman_count,
    maxcut_exact,
    quasi_folkman_certificate,
)
from .blocks import (
    ReplacementGraph,
    StarGraph,
    alon_parameters,
    concentration_experiment,
    load_replacement,
    quantitative_bound,
    random_block,
    deletion_margin,
)
from .search import AnnealSchedule, anneal, random_coloring_stats

__all__ = [
    "__version__",
    "FieldError", "FiniteField", "QuadraticExtension",
    "ProjectivePlane", "UnitalIncidence", "build_unital", "build_unital_for_q",
    "Certificate",
    "IntersectionGraph", "SrgReport", "build_graph", "build_graph_for_q",
    "unital_symmetry", "verify_k4_by_symmetry", "verify_k4_structure", "verify_srg",
    "TriangleFamily", "build_family",
    "family_size_formula", "verify_nbhd_decomposition", "verify_no_k4_in_family",
    "EdgeColoring", "GoodmanTally", "adversarial_color_check", "clique_min_mono",
    "goodman_count", "maxcut_exact", "quasi_folkman_certificate",
    "ReplacementGraph", "StarGraph", "alon_parameters", "concentration_experiment",
    "load_replacement", "quantitative_bound",
    "random_block", "deletion_margin",
    "AnnealSchedule", "anneal", "random_coloring_stats",
]
