"""Toolkit for Folkman-type properties of Hermitian unital intersection graphs.

Builds the secant intersection graphs of Hermitian unitals over PG(2, q^2),
machine-checks their structural statistics (strong regularity, clique
decompositions, K4 structure), certifies the monochromatic-triangle lower
bound for two-colorings via exact Goodman-style counting, and simulates the
random block construction that deletes all K4's while preserving the Ramsey
property.

Importing the package loads none of its modules: each name below is
imported from its module on first access (PEP 562), so a command loads only
the modules it runs.
"""

import importlib

__version__ = "0.1.0"

#: module -> the names the package re-exports from it
_EXPORTS = {
    "fields": ("FieldError", "FiniteField", "QuadraticExtension"),
    "plane": ("ProjectivePlane", "UnitalIncidence", "build_unital", "build_unital_for_q"),
    "certificates": ("Certificate",),
    "graphs": ("IntersectionGraph", "SrgReport", "build_graph", "build_graph_for_q",
               "unital_symmetry", "verify_k4_by_symmetry", "verify_k4_structure", "verify_srg"),
    "triangles": ("TriangleFamily", "build_family",
                  "family_size_formula", "verify_nbhd_decomposition", "verify_no_k4_in_family"),
    "certify": ("EdgeColoring", "GoodmanTally", "adversarial_color_check", "clique_min_mono",
                "goodman_count", "maxcut_exact", "quasi_folkman_certificate"),
    "blocks": ("ReplacementGraph", "StarGraph", "alon_parameters", "concentration_experiment",
               "load_replacement", "quantitative_bound",
               "random_block", "deletion_margin"),
    "search": ("AnnealSchedule", "anneal", "random_coloring_stats"),
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE]


def __getattr__(name):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE[name]}", __name__), name)
    globals()[name] = value
    return value
