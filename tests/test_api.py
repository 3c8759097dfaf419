"""The public API: every name that ``weaktensor/__init__.py`` exports.

An export added, removed or renamed fails here until this list is
updated, and CHANGES.md names the change.
"""

import types

import weaktensor

EXPORTS = [
    "Automorphism", "ClosureSpace", "ConnectedCovering", "CoverWitness",
    "ExhaustionCertificate", "LatticeFormatError", "OrthoMap", "ProductUniverse",
    "SearchBudgetExceeded", "SharpMap", "UNKNOWN", "automorphisms", "beta_join",
    "beta_join_sequence", "box_join", "box_product", "check_factorization", "check_p1_p2_p3",
    "check_p4", "contains_mo_n", "decompose_coatom", "find_orthocomplementation",
    "fraser_join", "fraser_product", "has_covering_property", "in_fraser", "is_orthomodular",
    "is_transitive", "is_weakly_connected", "mo_circle", "mo_space", "parse_lattice_text",
    "powerset_space", "render_lattice_text", "sharp_map", "two_space", "validate_orthomap",
]


def test_the_exports_are_the_pinned_list():
    # the layer modules become attributes of the package once imported; they are not exports
    exported = [name for name, obj in vars(weaktensor).items()
                if not name.startswith("_") and not isinstance(obj, types.ModuleType)]
    assert sorted(exported) == EXPORTS
