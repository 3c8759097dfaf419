import gc
import math
import tracemalloc

import pytest

from weaktensor import (
    ClosureSpace,
    ExhaustionCertificate,
    OrthoMap,
    SearchBudgetExceeded,
    UNKNOWN,
    automorphisms,
    box_product,
    check_factorization,
    contains_mo_n,
    find_orthocomplementation,
    has_covering_property,
    is_orthomodular,
    is_transitive,
    is_weakly_connected,
    mo_circle,
    mo_space,
    powerset_space,
    two_space,
    validate_orthomap,
)
from weaktensor.props import (
    Automorphism,
    ConnectedCovering,
    NotWeaklyConnected,
    orthomap_violation,
    validate_connected_covering,
)
from weaktensor import spaces
from weaktensor.spaces import AUTOMORPHISM_LIST_CAP, AUTOMORPHISM_POINT_CAP, _GeneratorClosure

from helpers import relabelled


def complement_map(space):
    full = space.full_mask
    return OrthoMap(space, tuple(full & ~(1 << i) for i in range(space.n_points)))


# -- orthomap validation -------------------------------------------------------

def test_powerset_complement_is_valid_and_orthomodular():
    p3 = powerset_space(3)
    om = complement_map(p3)
    assert validate_orthomap(p3, om)
    assert is_orthomodular(p3, om) is True


def test_mo4_pairing_found_and_orthomodular(mo4, mo4_pairing):
    assert isinstance(mo4_pairing, OrthoMap)
    assert validate_orthomap(mo4, mo4_pairing)
    # canonical branching pairs the atoms in order: a<->b, c<->d
    assert mo4_pairing.atom_table() == [(1, 2), (2, 1), (4, 8), (8, 4)]
    assert is_orthomodular(mo4, mo4_pairing) is True


def test_violations_are_named():
    p2 = powerset_space(2)
    assert orthomap_violation(p2, OrthoMap(p2, (2, 1))) is None
    assert orthomap_violation(p2, OrthoMap(p2, (2,))) == "map does not index this space"
    assert orthomap_violation(mo_space(2), OrthoMap(p2, (2, 1))) == "map does not index this space"
    assert orthomap_violation(p2, OrthoMap(p2, (2, 4))) == "atom image of 'b' is not an element"
    # a float is named, not an indexing TypeError, though 3.0 in p2 holds
    assert 3.0 in p2
    assert orthomap_violation(p2, OrthoMap(p2, (3.0, 1))) == "atom image of 'a' is not an element"
    # both atoms to b: 0 goes to 1, and 1 to b
    assert orthomap_violation(p2, OrthoMap(p2, (2, 2))) == "involution fails at '-'"
    # each atom to itself: involutive, but an atom meets its image
    assert orthomap_violation(p2, OrthoMap(p2, (1, 2))) == "complement law fails at 'a'"
    # the image of a non-element, a float among them, is refused by name too
    for mask in (4, 3.0):
        with pytest.raises(ValueError, match=f"{mask!r} is not an element"):
            OrthoMap(p2, (2, 1)).image_mask(mask)


def test_invalid_map_rejected_by_orthomodularity_check():
    p2 = powerset_space(2)
    identity = OrthoMap(p2, (1, 2))
    with pytest.raises(ValueError, match="complement law"):
        is_orthomodular(p2, identity)


def test_meet_with_image_is_zero_for_valid_maps(mo4, mo4_pairing):
    # a ^ a' = 0 is a derived law; pinned here for every valid map
    p3 = powerset_space(3)
    for space, om in ((p3, complement_map(p3)), (mo4, mo4_pairing)):
        for m in space.masks:
            assert m & om.image_mask(m) == 0


def test_center_notions_agree_under_an_orthocomplementation(mo4, mo4_pairing):
    p3 = powerset_space(3)
    for space, om, center in ((p3, complement_map(p3), list(p3.masks)),
                              (mo4, mo4_pairing, [0, mo4.full_mask])):
        assert validate_orthomap(space, om)
        full = space.full_mask
        assert space.center() == [m for m in space.masks if om.image_mask(m) == full & ~m] == center


# -- orthocomplementation search ------------------------------------------------

def test_powerset_search_finds_set_complement():
    p3 = powerset_space(3)
    found = find_orthocomplementation(p3)
    assert isinstance(found, OrthoMap)
    assert found.atoms == complement_map(p3).atoms


def test_two_element_lattice_is_orthocomplemented():
    found = find_orthocomplementation(two_space())
    assert isinstance(found, OrthoMap)


def test_mo3_has_no_orthocomplementation(mo3):
    found = find_orthocomplementation(mo3)
    assert isinstance(found, ExhaustionCertificate)
    assert found.nodes > 0


def test_box_of_unpairable_factors_has_no_orthocomplementation(box33):
    # both factors have an odd atom count, so neither admits an
    # orthocomplementation, and the box product inherits the failure
    found = find_orthocomplementation(box33)
    assert isinstance(found, ExhaustionCertificate)


def test_search_decision_is_branching_order_independent(fraser33, box44):
    # a copy relabelled by a transposition that is not an automorphism lists
    # its coatoms in another order, and the search decides it alike
    for space in (fraser33, box44):
        copy = relabelled(space, (1, 0, *range(2, space.n_points)))
        assert copy.masks != space.masks
        found = find_orthocomplementation(space)
        assert isinstance(found, OrthoMap) == isinstance(find_orthocomplementation(copy), OrthoMap)


def test_found_maps_always_validate(box44):
    found = find_orthocomplementation(box44)
    assert isinstance(found, OrthoMap)
    assert validate_orthomap(box44, found)


def test_node_budget_is_enforced(fraser33):
    with pytest.raises(SearchBudgetExceeded) as exc:
        find_orthocomplementation(fraser33, node_cap=3)
    assert exc.value.nodes == 4


def test_node_budget_boundary_is_exact(fraser33):
    # the exhausting search tries exactly 296 candidates
    found = find_orthocomplementation(fraser33, node_cap=296)
    assert isinstance(found, ExhaustionCertificate)
    assert found.nodes == 296
    with pytest.raises(SearchBudgetExceeded) as exc:
        find_orthocomplementation(fraser33, node_cap=295)
    assert exc.value.nodes == 296


@pytest.mark.parametrize("cap", [2.5, True, "10", None])
def test_node_cap_that_is_no_int_is_refused(fraser33, cap):
    with pytest.raises(ValueError, match=f"^node_cap must be an integer, got {cap!r}$"):
        find_orthocomplementation(fraser33, node_cap=cap)


def test_search_leaves_no_reference_cycle(fraser33, circle44):
    # a cycle through the recursive helper would hold the candidate tables
    # until the next full garbage collection
    find_orthocomplementation(fraser33)
    gc.collect()
    find_orthocomplementation(fraser33)
    assert gc.collect() == 0
    with pytest.raises(SearchBudgetExceeded):
        find_orthocomplementation(circle44, node_cap=10)
    assert gc.collect() == 0


def test_budget_error_does_not_hold_the_search_tables(circle44):
    # the error's traceback holds the search frames while a caller keeps it
    circle44.coatoms()
    tracemalloc.start()
    try:
        with pytest.raises(SearchBudgetExceeded) as info:
            find_orthocomplementation(circle44, node_cap=1000)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.nodes == 1001
    assert held < peak / 2


def test_search_cap_on_universe_size():
    # 24 points, the largest universe allowed, carry 4761 sets here
    with pytest.raises(ValueError, match="4761 sets"):
        find_orthocomplementation(box_product([mo_space(2), mo_space(3), mo_space(4)]))


def test_search_runs_past_twenty_points():
    # 24 points and 240 sets: the node budget, not the point count, bounds the search
    box = box_product([mo_space(4), mo_space(6)])
    found = find_orthocomplementation(box)
    assert isinstance(found, OrthoMap)
    assert validate_orthomap(box, found)
    with pytest.raises(SearchBudgetExceeded):
        find_orthocomplementation(mo_circle(mo_space(4), mo_space(6)), node_cap=1000)


def test_search_cap_is_on_the_family_size():
    # 13 points but 8192 sets: the family size, not the point count, is capped
    with pytest.raises(ValueError, match="8192 sets"):
        find_orthocomplementation(powerset_space(13))


# -- covering ----------------------------------------------------------------------

def test_mo_lattices_have_covering():
    assert has_covering_property(mo_space(3)) is True
    assert has_covering_property(mo_space(4)) is True
    assert mo_space(4).covering_failure() is None


def test_box_covering_fails_with_canonical_witness(box33):
    res = has_covering_property(box33)
    assert res is not True
    assert box33.render_set(res.atom) == "a,a"
    assert box33.render_set(res.element) == "b,c c,b"
    assert box33.render_set(res.witness.intermediate) == "a,b b,a b,b b,c c,b"
    assert box33.covering_failure() == (res.atom, res.witness)


def test_fraser_of_mo4_fails_covering(fraser44):
    res = has_covering_property(fraser44)
    assert res is not True
    # the break happens above a three-point all-distinct configuration
    assert res.element.bit_count() == 3


def test_covering_computes_each_join_at_most_once(monkeypatch):
    s = mo_circle(mo_space(4), mo_space(6))
    calls = 0
    meet = _GeneratorClosure.meet

    def counted(self, picked):
        nonlocal calls
        calls += 1
        return meet(self, picked)

    # every join a v q is one meet of the generators above a that hold q
    monkeypatch.setattr(_GeneratorClosure, "meet", counted)
    assert has_covering_property(s) is True
    # one join per (element, point) pair; asking covers() once per (atom, element)
    # pair took 249,696 closures here
    assert 0 < calls <= len(s) * s.n_points == 17_280


# -- MO_n containment -----------------------------------------------------------------

def test_contains_mo_examples(mo3, box33):
    assert contains_mo_n(mo3, 3) is not None
    assert contains_mo_n(powerset_space(3), 3) is None
    witness = contains_mo_n(box33, 3)
    assert witness is not None
    p1, *_, pn = witness
    j = box33.closure(p1 | pn)
    assert all(box33.covers(p, j) is True for p in witness)


def test_contains_mo_requires_three():
    with pytest.raises(ValueError):
        contains_mo_n(mo_space(3), 2)


@pytest.mark.parametrize("n", [3.0, True, "3"])
def test_contains_mo_refuses_an_n_that_is_no_int(n):
    with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
        contains_mo_n(mo_space(3), n)


# -- automorphisms ----------------------------------------------------------------------

def test_mo3_automorphisms_all_six(mo3):
    autos = automorphisms(mo3)
    assert len(autos) == 6
    assert is_transitive(mo3)


def test_powerset_automorphisms_all_permutations():
    p3 = powerset_space(3)
    assert len(automorphisms(p3)) == 6
    assert is_transitive(p3)


def test_automorphism_group_closure(box33):
    autos = automorphisms(box33)
    table = {u.point_perm for u in autos}
    for u in autos:
        inverse = [0] * len(u.point_perm)
        for i, j in enumerate(u.point_perm):
            inverse[j] = i
        assert tuple(inverse) in table
    for u in autos[:12]:
        for v in autos[:12]:
            # u after v
            assert tuple(u.point_perm[j] for j in v.point_perm) in table


def test_transitive_spaces_have_matching_upper_intervals(box33):
    assert is_transitive(box33)
    shapes = set()
    for p in box33.atoms():
        interval = [m for m in box33.masks if p & ~m == 0]
        sizes = tuple(sorted(m.bit_count() for m in interval))
        shapes.add((len(interval), sizes))
    assert len(shapes) == 1


def test_automorphism_cap():
    with pytest.raises(ValueError):
        automorphisms(powerset_space(13))
    # the cap itself is searched
    cap = AUTOMORPHISM_POINT_CAP
    assert mo_space(cap).automorphism_order() == math.factorial(cap)


@pytest.mark.parametrize("method,args", [
    ("automorphism_order", ()), ("automorphism_generators", ()), ("automorphism_orbit", (0,)),
    ("automorphism_perms", ()),
])
def test_automorphism_cap_raises_on_every_call(method, args):
    space = mo_space(AUTOMORPHISM_POINT_CAP + 1)
    for _ in range(2):
        with pytest.raises(ValueError, match=f"automorphism search capped at "
                                             f"{AUTOMORPHISM_POINT_CAP} points"):
            getattr(space, method)(*args)


def test_automorphism_listing_cap(monkeypatch):
    # MO_10's group has 10! elements: refused from its order, before any is formed
    space = mo_space(10)
    for listing in (space.automorphism_perms, lambda: automorphisms(space)):
        with pytest.raises(ValueError, match=f"automorphism listing capped at "
                                             f"{AUTOMORPHISM_LIST_CAP} elements, "
                                             f"the group has {math.factorial(10)}"):
            listing()
    # the cap itself is listed, one more element is not
    monkeypatch.setattr(spaces, "AUTOMORPHISM_LIST_CAP", 24)
    assert len(mo_space(4).automorphism_perms()) == 24
    with pytest.raises(ValueError, match="capped at 24 elements, the group has 120"):
        mo_space(5).automorphism_perms()


def test_order_and_orbits_of_a_lopsided_group():
    # two points of the closed set {a, b} swap; c is fixed
    space = ClosureSpace.from_closed_sets("abc", [0b011])
    assert space.automorphism_order() == 2
    assert [space.automorphism_orbit(p) for p in range(3)] == [(0, 1), (0, 1), (2,)]
    assert not is_transitive(space)
    with pytest.raises(ValueError, match="point 3"):
        space.automorphism_orbit(3)
    for point in (1.0, True):
        with pytest.raises(ValueError, match=f"^point must be an integer, got {point!r}$"):
            space.automorphism_orbit(point)
    with pytest.raises(ValueError, match="capped"):
        powerset_space(13).automorphism_order()


def test_chain_leaves_no_reference_cycle():
    # a cycle through the recursive search would hold its tables until the
    # next full garbage collection
    space = box_product([mo_space(3), mo_space(3)])
    gc.collect()
    assert space.automorphism_order() == 72
    assert gc.collect() == 0


def test_factorization_identity_and_swap(box33):
    universe = box33.product
    identity = Automorphism(tuple(range(9)))
    form = check_factorization(box33, universe, identity)
    assert form is not None
    assert form.factor_bijection == (0, 1)
    assert all(v == tuple(range(3)) for v in form.factor_isos)
    flip = Automorphism(tuple(universe.encode(tuple(reversed(universe.decode(i))))
                              for i in range(9)))
    form = check_factorization(box33, universe, flip)
    assert form is not None
    assert form.factor_bijection == (1, 0)


def test_factorization_needs_product_structure(mo3):
    with pytest.raises(ValueError):
        check_factorization(mo3, None, Automorphism((0, 1, 2)))


# -- weak connectivity ----------------------------------------------------------------------

def test_mo_is_weakly_connected(mo3, mo4):
    for s in (mo3, mo4):
        cov = is_weakly_connected(s)
        assert isinstance(cov, ConnectedCovering)
        assert cov.blocks == (s.full_mask,)
        assert validate_connected_covering(s, cov)


def test_powerset_is_not_weakly_connected():
    res = is_weakly_connected(powerset_space(3))
    assert isinstance(res, NotWeaklyConnected)
    assert res.isolated_atom is not None


def test_two_is_not_weakly_connected():
    res = is_weakly_connected(two_space())
    assert isinstance(res, NotWeaklyConnected)


def test_box_product_connectivity_stays_sound(box33):
    # blocks can only live inside single lines here and distinct lines
    # overlap in at most one point, so no connected covering exists; the
    # incomplete checker must not fabricate one, nor certify the failure
    assert is_weakly_connected(box33) is UNKNOWN


def test_weak_connectivity_takes_one_closure_per_unordered_pair():
    s = mo_circle(mo_space(4), mo_space(4))
    calls = 0
    closure = s.closure

    def counted(subset):
        nonlocal calls
        calls += 1
        return closure(subset)

    s.closure = counted
    assert is_weakly_connected(s) is UNKNOWN
    # 16 * 15 / 2 = 120 for the third-atom graph, and 8 * 6 = 48 to validate
    # its maximal cliques, the 8 four-point fibers; ordered pairs took 288
    assert calls == 120 + 48
