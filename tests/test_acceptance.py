"""Acceptance gate: one test per pinned criterion, strongest tolerances.

Everything here is exact combinatorics or exact rational arithmetic, so
every comparison is equality, never approximate.

``mo:n`` is the height-two lattice with n atoms, so ``mo:4`` is MO_2 in
the usual 2n-atom naming.  The paper's criteria need hypotheses on the
factors, true for instance when they are orthomodular with the covering
property, so in particular orthocomplemented.  ``mo:4`` meets them;
``mo:3`` does not, because an orthocomplementation pairs the atoms
involutively with disjoint partners and three atoms cannot be paired.  Four criteria therefore read differently at the two scales, and
their tests (a06c, a08b, a09a, a12b) check both: the true fact at
``mo:3``, backed by an independent oracle from ``tests/helpers.py``, and
the criterion itself at ``mo:4``, where the hypotheses hold.
"""

import itertools
from random import Random

import pytest

from weaktensor import (
    beta_join,
    beta_join_sequence,
    box_join,
    box_product,
    check_factorization,
    check_p1_p2_p3,
    check_p4,
    find_orthocomplementation,
    fraser_join,
    fraser_product,
    has_covering_property,
    in_fraser,
    is_orthomodular,
    mo_space,
    sharp_map,
    two_space,
    validate_orthomap,
)
from weaktensor.hilbert import (
    BoxVerdict,
    Subspace,
    basis_vector,
    box_membership_test,
    coatom_from_antilinear,
    dual_covering_counterexample,
    random_antilinear,
    random_pair,
    random_subspace,
    sigma_membership,
    tensor,
    vadd,
    verify_point_biorthogonality,
)
from weaktensor.props import (
    CoveringFailure,
    ExhaustionCertificate,
    OrthoMap,
    SearchBudgetExceeded,
    automorphisms,
)
from weaktensor.suites import DEFAULT_SEED

from helpers import (
    box_family_oracle,
    brute_cover_check,
    closure_in_family,
    distinct_coordinate_sets,
    fraser_family_oracle,
    index_images,
    is_orthocomplementation,
    orthocomplementations_oracle,
    relabelled,
    section,
)

NODE_BUDGET = 10_000_000


def test_a01_unit_factor_identity(mo3):
    """Adjoining a one-point factor reproduces the other factor exactly."""
    unit = two_space()
    box = box_product([unit, mo3])
    fraser = fraser_product([unit, mo3])
    # with a single-point companion the flat ids equal the factor ids,
    # so the evident bijection is the identity on masks
    assert len(box) == len(mo3) == len(fraser) == 5
    assert set(box.masks) == set(mo3.masks) == set(fraser.masks)


def test_a02_one_nontrivial_factor_collapses_the_interval(pow3, mo3):
    """Box, Fraser, and the explicit section family agree on 9 points."""
    box = box_product([pow3, mo3])
    fraser = fraser_product([pow3, mo3])
    uni = box.product
    # the section through the first point of each line along the mo3 factor
    explicit = {region for region in range(1 << 9)
                if all(mo3.is_closed(section(uni, region, 1, uni.encode((i, 0))))
                       for i in range(3))}
    assert set(box.masks) == set(fraser.masks) == explicit
    assert len(explicit) == 125


def test_a03_mo3_factors_separate_box_from_fraser(box33, fraser33):
    """The diagonal three-point set is Fraser-closed but box-joins to 1."""
    assert set(box33.masks) != set(fraser33.masks)
    uni = box33.product
    diagonal = sum(1 << uni.encode((i, i)) for i in range(3))
    assert diagonal in fraser33
    assert diagonal not in box33
    join1 = mo_space(3).closure(0b011)
    join2 = mo_space(3).closure(0b011)
    assert box_join(uni, diagonal) == uni.full_box_mask([join1, join2])
    assert box_join(uni, diagonal) == uni.full_mask


def test_a04_fraser_membership_is_the_beta_fixpoint(fraser33):
    """All 512 subsets: membership iff both beta joins fix the set."""
    uni = fraser33.product
    members = set(fraser33.masks)
    exceptions = [r for r in range(1 << 9)
                  if (all(beta_join(uni, r, b) == r for b in (0, 1))) != (r in members)]
    assert exceptions == []


def test_a05_full_crosses_are_coatoms_with_saturated_joins(box33, circle33, fraser33):
    """Each of the nine coatom crosses is a coatom of all three products,
    and adding any outside point joins to the top."""
    uni = box33.product
    for space in (box33, circle33, fraser33):
        for i in range(3):
            for j in range(3):
                cross = uni.cylinder_mask((1 << i, 1 << j))
                assert cross in space
                assert space.covers(cross, space.full_mask) is True
                for q in range(uni.n_points):
                    if not cross >> q & 1:
                        assert fraser_join(uni, cross | (1 << q)) == uni.full_mask


def test_a06a_box_covering_fails_with_canonical_witness(box33):
    """Covering breaks on the box product, at the frozen first witness."""
    res = has_covering_property(box33)
    assert res is not True
    assert box33.render_set(res.atom) == "a,a"
    assert box33.render_set(res.element) == "b,c c,b"
    assert box33.render_set(res.witness.intermediate) == "a,b b,a b,b b,c c,b"


def test_a06b_sharp_fails_orthomodularity_on_box44(box44, mo4_pairing):
    """The factor-wise sharp map is a valid orthocomplementation on the
    MO_4 box product but is not orthomodular, at the frozen witness."""
    sm = sharp_map(box44, [mo4_pairing, mo4_pairing])
    assert validate_orthomap(box44, sm.product_map)
    res = is_orthomodular(box44, sm.product_map)
    assert res is not True
    assert box44.render_set(res.a) == "a,a"
    assert box44.render_set(res.b) == "a,a c,c"


def test_a06c_sharp_on_box33_unattainable(box33, mo3, box44, mo4, mo4_pairing):
    """No sharp map exists on box(mo:3, mo:3), and every pair of factor
    orthocomplementations gives one on box(mo:4, mo:4).

    At mo:3 the search exhausts, the brute-force oracle finds no
    orthocomplementation, and ``sharp_map`` rejects as a factor map every
    one of the 125 maps that send each point of mo:3 to an element.  (Every permutation
    of mo:3's points is an automorphism, so no relabelled copy would try
    its coatoms in another order.)  At mo:4, which meets the paper's
    hypotheses, the oracle finds the three atom pairings, the search
    returns one of them, and each of the nine factor pairs induces a
    valid orthocomplementation."""
    assert isinstance(find_orthocomplementation(mo3), ExhaustionCertificate)
    assert orthocomplementations_oracle(mo3) == []
    maps = list(itertools.product(mo3.masks, repeat=mo3.n_points))
    assert len(maps) == 125
    for atoms in maps:
        factor_map = OrthoMap(mo3, atoms)
        with pytest.raises(ValueError, match="orthocomplementation invalid"):
            sharp_map(box33, [factor_map, factor_map])

    pairings = orthocomplementations_oracle(mo4)
    assert len(pairings) == 3
    assert mo4_pairing.atoms in pairings
    for first, second in itertools.product(pairings, repeat=2):
        sm = sharp_map(box44, [OrthoMap(mo4, first), OrthoMap(mo4, second)])
        assert validate_orthomap(box44, sm.product_map)


def test_a07_fraser_covering_break_reproduces_the_three_closure_steps(mo4):
    """On MO_4 factors the staged closure of three spread points plus a
    corner matches the three displayed steps and overshoots covering."""
    uni = box_product([mo4, mo4]).product
    p, q, r, s = (uni.encode((i, i)) for i in range(4))
    t = uni.encode((0, 1))
    a = (1 << p) | (1 << q) | (1 << r)
    b = a | (1 << s)
    seq = beta_join_sequence(uni, a | (1 << t), [1, 0, 1])
    join1 = mo4.closure(0b011)
    join2 = mo4.closure(0b011)
    row_p = uni.preimage_mask(0, 0b001) & uni.preimage_mask(1, join2)
    col_q = uni.preimage_mask(1, 0b010) & uni.preimage_mask(0, join1)
    col_r = uni.preimage_mask(1, 0b100) & uni.preimage_mask(0, join1)
    assert seq[1] == seq[0] | row_p
    assert seq[2] == seq[1] | col_q | col_r
    assert seq[3] == uni.full_box_mask([join1, join2]) == uni.full_mask
    assert in_fraser(uni, a) and in_fraser(uni, b)
    assert fraser_join(uni, a | (1 << t)) == seq[3]
    assert a & ~b == 0 and a != b and b != seq[3]


def test_a08a_circle_is_the_covering_element(circle33, box33, mo3):
    """The circle product passes the product axioms, lifts every factor
    automorphism pair, and has the covering property; box does not."""
    uni = circle33.product
    assert check_p1_p2_p3(circle33, uni) is None
    assert check_p4(circle33, uni, [automorphisms(mo3), automorphisms(mo3)]) is None
    assert has_covering_property(circle33) is True
    assert has_covering_property(box33) is not True


def test_a08b_fraser33_covering_expected_to_fail(fraser33, circle33, fraser44):
    """The Fraser product fails covering at mo:4 and keeps it at mo:3.

    At mo:4 the first failure is pinned: atom 1, element 292 and
    intermediate 33060, re-checked against the Fraser family computed by
    its definition.  At mo:3 a Fraser-closed set with pairwise distinct
    coordinates has at most three points, so fraser(mo:3, mo:3) equals
    the circle product and has the covering property, confirmed by a
    brute-force scan of every (element, outside point) pair."""
    res = has_covering_property(fraser44)
    assert isinstance(res, CoveringFailure)
    p, a, mid = res.atom, res.element, res.witness.intermediate
    assert (p, a, mid) == (1, 292, 33060)
    uni = fraser44.product
    family = fraser_family_oracle(uni)
    join = closure_in_family(family, uni.full_mask, a | p)
    assert p & a == 0
    assert a in family and mid in family
    assert (res.witness.lower, res.witness.upper) == (a, join)
    assert a & ~mid == 0 and mid & ~join == 0
    assert a != mid and mid != join

    assert has_covering_property(fraser33) is True
    uni = fraser33.product
    family = fraser_family_oracle(uni)
    assert set(fraser33.masks) == set(circle33.masks) == family
    for a in family:
        for q in range(uni.n_points):
            if not a >> q & 1:
                upper = closure_in_family(family, uni.full_mask, a | 1 << q)
                assert brute_cover_check(fraser33, a, upper)


def test_a09a_orthocomplementation_on_box33_expected_to_exist(box33, box44, mo3):
    """The box product is orthocomplemented when its factors are.

    box(mo:4, mo:4) has an orthocomplementation, and the one the search
    returns satisfies the laws checked both by the library and directly
    on the family.  box(mo:3, mo:3) has none, certified by exhaustion on
    the space and on a copy relabelled by a transposition that is not an
    automorphism, whose search runs on another coatom list; that agrees
    with the main result only because mo:3 itself has no
    orthocomplementation (the oracle finds none)."""
    found = find_orthocomplementation(box44, node_cap=NODE_BUDGET)
    assert isinstance(found, OrthoMap)
    assert validate_orthomap(box44, found)
    images = index_images(box44, found.atoms)
    assert is_orthocomplementation(box44.masks, box44.full_mask, images)

    copy = relabelled(box33, (1, 0, *range(2, box33.n_points)))
    assert copy.masks != box33.masks
    for space in (box33, copy):
        res = find_orthocomplementation(space, node_cap=NODE_BUDGET)
        assert isinstance(res, ExhaustionCertificate)
    assert orthocomplementations_oracle(mo3) == []


def test_a09b_fraser_and_circle_searches_exhaust(fraser33, circle33):
    """Both larger products are certified non-orthocomplemented within
    the node budget, and so is each one's copy relabelled by a
    transposition that is not an automorphism, whose search runs on
    another coatom list."""
    for space in (fraser33, circle33):
        copy = relabelled(space, (1, 0, *range(2, space.n_points)))
        assert copy.masks != space.masks
        for searched in (space, copy):
            try:
                res = find_orthocomplementation(searched, node_cap=NODE_BUDGET)
            except SearchBudgetExceeded as exc:
                pytest.fail(f"search exceeded the node budget: {exc.nodes}")
            assert isinstance(res, ExhaustionCertificate)
            assert res.nodes <= NODE_BUDGET


def test_a10_box33_automorphisms_count_and_factor(box33):
    """Exactly 72 automorphisms, each factoring through the factors."""
    autos = automorphisms(box33)
    assert len(autos) == 72
    uni = box33.product
    for u in autos:
        form = check_factorization(box33, uni, u)
        assert form is not None


def test_a11_exact_tensor_subspace_suite():
    """The 2x2 exact suite: perp laws, biorthogonality, coatom agreement,
    box verdicts, and the dual covering failure; zero tolerance."""
    rng = Random(DEFAULT_SEED)
    # (a) perp involution and dimension law, 100 random subspaces
    for _ in range(100):
        v = random_subspace(rng, 4)
        p = v.perp()
        assert p.perp() == v and v.dim + p.dim == 4
    # (b) point biorthogonality, 50 random pairs
    for _ in range(50):
        assert verify_point_biorthogonality(random_pair(rng, 2, 2))
    # (c) antilinear coatom agreement, 5 maps x 100 pairs
    for _ in range(5):
        a_map = random_antilinear(rng, 2, 2)
        v, member = coatom_from_antilinear(a_map)
        side = Subspace.span(4, [v]).perp()
        for _ in range(100):
            pair = random_pair(rng, 2, 2)
            assert member(pair) == sigma_membership(side, pair)
    # (d) box-membership verdicts on the three fixed subspaces
    e = basis_vector
    spread = Subspace.span(4, [tensor(e(2, 0), e(2, 0)), tensor(e(2, 1), e(2, 1))])
    diagonal = Subspace.span(4, [vadd(tensor(e(2, 0), e(2, 0)),
                                      tensor(e(2, 1), e(2, 1)))])
    slice_ = Subspace.span(4, [tensor(e(2, 0), e(2, 0)), tensor(e(2, 0), e(2, 1))])
    assert box_membership_test(spread) is BoxVerdict.IN_BOX
    assert box_membership_test(diagonal) is BoxVerdict.NOT_IN_BOX
    assert box_membership_test(slice_) is BoxVerdict.IN_BOX
    # (e) the dual covering failure report passes all four checks
    rep = dual_covering_counterexample(2, 2)
    assert rep.disjoint_from_coatom
    assert rep.two_atom_set_closed
    assert rep.join_with_coatom_is_top
    assert rep.strict_chain


def test_a12a_box_is_strictly_below_circle(box33, circle33):
    """The diagonal witnesses strictness of box inside circle."""
    sb, sc = set(box33.masks), set(circle33.masks)
    assert sb < sc
    witness = sorted(sc - sb)[0]
    assert witness.bit_count() == 3


def test_a12b_circle_strictly_below_fraser_expected(circle33, fraser33, circle44, fraser44):
    """Circle lies strictly below Fraser at mo:4 and equals it at mo:3.

    On the 3x3 grid a set with pairwise distinct coordinates has at most
    three points, so both families are the box family plus the six
    all-distinct triples: 50 sets, as the definition-level oracles give.
    On the 4x4 grid Fraser gains exactly the 24 all-distinct four-point
    sets over circle."""
    uni = fraser33.product
    triples = distinct_coordinate_sets(uni, 3)
    assert len(triples) == 6
    oracle = fraser_family_oracle(uni)
    assert oracle == box_family_oracle(uni) | triples
    assert len(oracle) == 50
    assert set(circle33.masks) == set(fraser33.masks) == oracle

    sc, sf = set(circle44.masks), set(fraser44.masks)
    assert sc < sf
    quadruples = distinct_coordinate_sets(fraser44.product, 4)
    assert len(quadruples) == 24
    assert sf - sc == quadruples
