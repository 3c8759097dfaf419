"""Weak tensor products of finite complete atomistic lattices.

Builds box, Fraser and MO circle products of finite simple closure
spaces, decides structural properties (covering, orthocomplementation,
orthomodularity, automorphism factorization), and realizes the exact
Gaussian-rational tensor-subspace example at small dimension.
"""

from .spaces import (
    ClosureSpace,
    CoverWitness,
    LatticeFormatError,
    mo_space,
    parse_lattice_text,
    powerset_space,
    render_lattice_text,
    two_space,
)
from .props import (
    Automorphism,
    ConnectedCovering,
    ExhaustionCertificate,
    OrthoMap,
    SearchBudgetExceeded,
    UNKNOWN,
    automorphisms,
    check_factorization,
    contains_mo_n,
    find_orthocomplementation,
    has_covering_property,
    is_orthomodular,
    is_transitive,
    is_weakly_connected,
    validate_orthomap,
)
from .products import (
    ProductUniverse,
    SharpMap,
    beta_join,
    beta_join_sequence,
    box_join,
    box_product,
    check_p1_p2_p3,
    check_p4,
    decompose_coatom,
    fraser_join,
    fraser_product,
    in_fraser,
    mo_circle,
    sharp_map,
)

__version__ = "0.1.0"
