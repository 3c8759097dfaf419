"""The public API: every name that ``weaktensor/__init__.py`` exports,
every public name that ``weaktensor/hilbert.py`` defines and the
parameters of its functions, the parameters of the stock builders and of
``LatticeFormatError``, every public method, property and attribute of a
``ClosureSpace``, the surface of the orthocomplementation search, and the
fields of an ``OrthoMap``.

A name or parameter added, removed or renamed fails here until its list is updated,
and CHANGES.md names the change.
"""

import ast
import dataclasses
import inspect
import types

import weaktensor
from weaktensor import hilbert, props

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


HILBERT_NAMES = [
    "AntilinearMap", "BoxVerdict", "DualCoveringReport", "GQ", "I", "MAX_FACTOR_DIM", "Matrix",
    "ONE", "ProductAtomPair", "Subspace", "Vector", "ZERO", "basis_vector", "box_membership_test",
    "coatom_from_antilinear", "dual_covering_counterexample", "gq", "inner",
    "is_zero_vector", "join_atoms", "normalize_vector", "parse_gq_matrix", "parse_gq_tokens",
    "random_antilinear", "random_gq", "random_pair", "random_subspace", "random_vector", "rref",
    "sharp_point", "sigma_membership", "tensor", "vadd", "vconj",
    "verify_point_biorthogonality", "vscale",
]


def test_the_hilbert_names_are_the_pinned_list():
    # the names the module binds at top level, not the ones it imports
    defined = []
    for node in ast.parse(inspect.getsource(hilbert)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, ast.Assign):
            defined += [t.id for t in node.targets if isinstance(t, ast.Name)]
    assert sorted(name for name in defined if not name.startswith("_")) == HILBERT_NAMES


def test_the_box_verdicts_are_the_pinned_members():
    # the values are report text: a change to them edits this test and CHANGES.md
    assert {v.name: v.value for v in hilbert.BoxVerdict} == {
        "IN_BOX": "in-box", "NOT_IN_BOX": "not-in-box"}


def test_the_search_surface_is_pinned():
    # a certificate replays from the space alone, and the search has one branch order
    assert tuple(f.name for f in dataclasses.fields(weaktensor.ExhaustionCertificate)) == (
        "nodes",)
    params = inspect.signature(weaktensor.find_orthocomplementation).parameters.values()
    assert tuple(p.name for p in params if p.kind is p.KEYWORD_ONLY) == ("node_cap",)


def test_an_orthomap_is_its_atom_images():
    # an element's image is the meet of its atoms' images, so no element
    # index is stored, and the meets stay inside props
    assert tuple(f.name for f in dataclasses.fields(weaktensor.OrthoMap)) == ("space", "atoms")
    assert not hasattr(props, "atom_meets")


HILBERT_PARAMETERS = {
    "basis_vector": ("n", "k"),
    "box_membership_test": ("subspace",),
    "coatom_from_antilinear": ("a_map",),
    "dual_covering_counterexample": ("m", "n"),
    "gq": ("re", "im"),
    "inner": ("x", "y"),
    "is_zero_vector": ("x",),
    "join_atoms": ("pairs",),
    "normalize_vector": ("x",),
    "parse_gq_matrix": ("text", "rows", "cols"),
    "parse_gq_tokens": ("tokens",),
    "random_antilinear": ("rng", "m", "n"),
    "random_gq": ("rng",),
    "random_pair": ("rng", "m", "n"),
    "random_subspace": ("rng", "ambient"),
    "random_vector": ("rng", "dim"),
    "rref": ("rows",),
    "sharp_point": ("pair",),
    "sigma_membership": ("subspace", "pair"),
    "tensor": ("p1", "p2"),
    "vadd": ("x", "y"),
    "vconj": ("x",),
    "verify_point_biorthogonality": ("pair",),
    "vscale": ("c", "x"),
}


def parameter_names(fn):
    return tuple(inspect.signature(fn).parameters)


def test_the_parameters_are_the_pinned_lists():
    # no parameter that the others already fix: the factor shapes come
    # from the pairs, box membership from its ambient, the stock spaces
    # from their size alone, and every lattice format error has its line
    functions = {name: obj for name, obj in vars(hilbert).items()
                 if not name.startswith("_") and inspect.isfunction(obj)
                 and obj.__module__ == hilbert.__name__}
    assert {name: parameter_names(fn) for name, fn in functions.items()} == HILBERT_PARAMETERS
    assert parameter_names(weaktensor.mo_space) == ("n",)
    assert parameter_names(weaktensor.powerset_space) == ("n",)
    init = inspect.signature(weaktensor.LatticeFormatError.__init__).parameters.values()
    assert [(p.name, p.default is p.empty) for p in init] == [
        ("self", True), ("message", True), ("line", True)]


CLOSURE_SPACE_NAMES = [
    "atoms", "automorphism_generators", "automorphism_orbit", "automorphism_order",
    "automorphism_perms", "center", "closure", "coatoms", "covering_failure", "covers",
    "dual_order_check", "from_closed_sets", "full_mask", "is_central", "is_closed", "join",
    "labels_of", "mask_of", "masks", "meet", "meet_irreducibles", "n_points", "points",
    "product", "render_set",
]


def test_the_closure_space_names_are_the_pinned_list():
    # an instance, so that the attributes the constructors set count too
    space = weaktensor.two_space()
    assert sorted(name for name in dir(space) if not name.startswith("_")) == CLOSURE_SPACE_NAMES
