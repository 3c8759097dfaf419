import collections
import itertools
import pickle
import re
from random import Random

import pytest

from helpers import (
    box_family_oracle, closure_in_family, decode, distinct_coordinate_sets, fraser_family_oracle,
    in_xi, section,
)

from weaktensor import (
    ClosureSpace,
    ProductUniverse,
    beta_join,
    beta_join_sequence,
    box_join,
    box_product,
    check_p1_p2_p3,
    check_p4,
    decompose_coatom,
    find_orthocomplementation,
    fraser_join,
    fraser_product,
    has_covering_property,
    in_fraser,
    mo_circle,
    mo_space,
    powerset_space,
    sharp_map,
    two_space,
    validate_orthomap,
)
from weaktensor import products, spaces
from weaktensor.props import Automorphism, OrthoMap, automorphisms
from weaktensor.products import CoatomNonConformance


def pid(universe, *coords):
    return universe.encode(coords)


def mask_of(universe, *tuples):
    m = 0
    for t in tuples:
        m |= 1 << universe.encode(t)
    return m


# -- sections ------------------------------------------------------------------

def test_section_examples(box33):
    uni = box33.product
    full = uni.full_mask
    p = pid(uni, 0, 0)
    assert section(uni, full, 1, p) == 0b111
    single = 1 << pid(uni, 1, 2)
    assert section(uni, single, 1, pid(uni, 1, 0)) == 0b100
    assert section(uni, single, 1, pid(uni, 0, 0)) == 0
    diag = mask_of(uni, (0, 0), (1, 1), (2, 2))
    assert section(uni, diag, 1, pid(uni, 0, 2)) == 0b001


def test_section_recovery_identity(box33):
    # p[R_beta[p]] = p[Sigma_beta] ^ R, for every point and region sample
    uni = box33.product
    rng = Random(5)
    for _ in range(40):
        region = rng.randrange(1 << uni.n_points)
        p = rng.randrange(uni.n_points)
        for beta in (0, 1):
            sec = section(uni, region, beta, p)
            rebuilt = 0
            for q in range(uni.sizes[beta]):
                if sec >> q & 1:
                    rebuilt |= 1 << uni.replace(p, beta, q)
            fiber = 0
            for q in range(uni.sizes[beta]):
                fiber |= 1 << uni.replace(p, beta, q)
            assert rebuilt == fiber & region


# -- box product ----------------------------------------------------------------

def test_box_with_unit_factor_is_the_other_factor(mo3):
    prod = box_product([two_space(), mo3])
    assert prod.n_points == 3
    assert set(prod.masks) == set(mo3.masks)


def test_box_of_mo3_pair_family(box33):
    assert len(box33) == 44
    assert set(box33.masks) == box_family_oracle(box33.product)


def test_box_coatoms_are_the_crosses(box33):
    uni = box33.product
    crosses = {uni.cylinder_mask((1 << i, 1 << j)) for i in range(3) for j in range(3)}
    assert set(box33.coatoms()) == crosses


def test_covers_matches_subset_scan_on_nine_points(box33):
    from helpers import brute_cover_check

    for a in box33.masks:
        for b in box33.masks:
            if a & ~b:
                continue
            assert (box33.covers(a, b) is True) == brute_cover_check(box33, a, b)


def test_spread_pair_is_not_covered_by_the_top(box33):
    # the box join of two points with distinct coordinates is the pair
    # itself, and two crosses sit strictly between it and the top
    uni = box33.product
    pair = mask_of(uni, (0, 0), (1, 1))
    assert box_join(uni, pair) == pair
    res = box33.covers(pair, box33.full_mask)
    assert res is not True
    assert box33.render_set(res.intermediate) == "a,a b,a b,b b,c c,a"


def test_box_subset_of_fraser_across_matrix(mo3, mo4, pow2, pow3):
    for factors in ([mo3, mo3], [mo3, mo4], [pow2, mo4], [pow3, mo3], [pow2, pow3]):
        box = box_product(factors)
        fraser = fraser_product(factors)
        assert set(box.masks) <= set(fraser.masks)


# -- fraser product ----------------------------------------------------------------

def test_fraser_with_unit_factor_is_the_other_factor(mo3):
    prod = fraser_product([two_space(), mo3])
    assert set(prod.masks) == set(mo3.masks)


def test_fraser_of_mo3_pair_family(fraser33, box33):
    assert len(fraser33) == 50
    assert len(fraser33) > len(box33)
    assert set(fraser33.masks) == fraser_family_oracle(fraser33.product)


def test_diagonal_is_fraser_closed(fraser33):
    uni = fraser33.product
    diag = mask_of(uni, (0, 0), (1, 1), (2, 2))
    assert diag in fraser33
    assert in_fraser(uni, diag)


def test_fraser_enumeration_cap(monkeypatch):
    # 16**6 = 64**4 = 2**24 regions on either axis: refused before any is laid
    monkeypatch.setattr(products, "_fraser_regions", lambda *args: pytest.fail("enumerated"))
    with pytest.raises(ValueError, match="^Fraser family of up to 16777216 sets exceeds the "
                                         "cap of 1048576 sets$"):
        fraser_product([powerset_space(4), powerset_space(6)])


def test_fraser_product_does_not_find_its_family_again(monkeypatch):
    factors = [mo_space(2), mo_space(3), mo_space(3)]
    calls = collections.Counter()

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(spaces, "intersection_closure",
                        counted("intersection_closure", spaces.intersection_closure))
    monkeypatch.setattr(ClosureSpace, "from_closed_sets",
                        classmethod(counted("from_closed_sets", ClosureSpace.from_closed_sets.__func__)))
    fraser = fraser_product(factors)
    assert len(fraser) == 2500 and not calls
    # the counters are live: the box product still closes its cylinders
    box_product(factors)
    assert calls == {"intersection_closure": 1, "from_closed_sets": 1}


def test_fraser_cap_admits_products_past_twenty_points():
    # 8**4 = 4096 regions along the mo:6 axis, on 24 points
    fraser = fraser_product([mo_space(4), mo_space(6)])
    assert len(fraser) == 1080 and len(fraser.coatoms()) == 384
    assert check_p1_p2_p3(fraser, fraser.product) is None
    # 9**3 = 729 regions on 21 points, which the former 20-point guard refused
    factors = [mo_space(3), mo_space(7)]
    assert len(fraser_product(factors)) > len(box_product(factors))


# -- the closure operator of a built space ----------------------------------------------

BUILDS = {
    "box(mo:3,mo:3)": lambda: box_product([mo_space(3), mo_space(3)]),
    "box(mo:2,mo:3,mo:4)": lambda: box_product([mo_space(2), mo_space(3), mo_space(4)]),
    "circle(mo:3,mo:4)": lambda: mo_circle(mo_space(3), mo_space(4)),
    "fraser(mo:3,mo:3)": lambda: fraser_product([mo_space(3), mo_space(3)]),
    "fraser(mo:2,mo:3,mo:3)": lambda: fraser_product([mo_space(2), mo_space(3), mo_space(3)]),
}


@pytest.mark.parametrize("name", BUILDS)
def test_builds_leave_the_closure_operator_to_the_first_closure(monkeypatch, name):
    made = []

    class Counted(spaces._GeneratorClosure):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(spaces, "_GeneratorClosure", Counted)
    space = BUILDS[name]()
    assert not made and "_close" not in vars(space)
    assert [space.closure(m) for m in space.masks] == list(space.masks)
    assert not made
    rng = Random(name)
    subsets = [rng.randrange(space.full_mask + 1) for _ in range(50)]
    assert any(s not in space for s in subsets)
    for s in subsets:
        space.closure(s)
    space.coatoms()
    space.meet_irreducibles()
    assert len(made) == 1 and isinstance(vars(space)["_close"], Counted)


@pytest.mark.parametrize("name", BUILDS)
def test_coatoms_first_run_the_scan_once_and_close_nothing(monkeypatch, name):
    made, calls = [], 0

    class Counted(spaces._GeneratorClosure):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

        def __call__(self, subset):
            nonlocal calls
            calls += 1
            return super().__call__(subset)

    monkeypatch.setattr(spaces, "_GeneratorClosure", Counted)
    space = BUILDS[name]()
    closure = space.closure

    def counted(subset):
        nonlocal calls
        calls += 1
        return closure(subset)

    space.closure = counted
    coatoms = space.coatoms()
    assert coatoms and len(made) == 1 and calls == 0
    assert space.coatoms() == coatoms and len(made) == 1 and calls == 0


@pytest.mark.parametrize("name", ["circle(mo:3,mo:4)", "fraser(mo:2,mo:3,mo:3)"])
def test_a_built_space_pickles_before_and_after_its_first_closure(name):
    space = BUILDS[name]()
    rng = Random(name)
    subsets = [rng.randrange(space.full_mask + 1) for _ in range(200)]
    cold = pickle.loads(pickle.dumps(space))
    assert "_close" not in vars(cold)
    assert (cold.points, cold.masks) == (space.points, space.masks)
    assert cold.product.points == space.product.points
    closures = [space.closure(s) for s in subsets]
    assert [cold.closure(s) for s in subsets] == closures
    warm = pickle.loads(pickle.dumps(space))
    assert "_close" in vars(warm)
    assert warm.meet_irreducibles() == space.meet_irreducibles()
    assert [warm.closure(s) for s in subsets] == closures


# -- beta joins -----------------------------------------------------------------------

def test_beta_join_laws(box33):
    uni = box33.product
    rng = Random(11)
    for _ in range(60):
        r = rng.randrange(1 << uni.n_points)
        s = r | rng.randrange(1 << uni.n_points)
        for beta in (0, 1):
            jr = beta_join(uni, r, beta)
            assert r & ~jr == 0
            assert beta_join(uni, jr, beta) == jr
            assert jr & ~beta_join(uni, s, beta) == 0


def test_beta_join_fixes_exactly_the_fraser_members(fraser33):
    uni = fraser33.product
    members = set(fraser33.masks)
    for region in range(1 << uni.n_points):
        fixed = all(beta_join(uni, region, b) == region for b in (0, 1))
        assert fixed == (region in members)


def test_beta_join_of_empty_is_empty(box33):
    uni = box33.product
    assert beta_join(uni, 0, 0) == 0
    assert beta_join(uni, 0, 1) == 0


def test_two_step_beta_join_reaches_the_box_join(box33):
    # p, q in one row, r completing the corner: closing rows then columns
    # stops at the cross, which is also the box join
    uni = box33.product
    p, q, r = (0, 0), (0, 2), (2, 2)
    region = mask_of(uni, p, q, r)
    step2 = beta_join(uni, region, 1)
    row = uni.preimage_mask(0, 0b001) & uni.preimage_mask(1, 0b111)
    assert step2 == row | mask_of(uni, r)
    step21 = beta_join(uni, step2, 0)
    cross = uni.cylinder_mask((0b001, 0b100))
    assert step21 == cross
    assert box_join(uni, region) == cross
    assert fraser_join(uni, region) == cross


# -- fraser joins -----------------------------------------------------------------------

def test_fraser_join_of_closed_set_is_itself(fraser33):
    uni = fraser33.product
    diag = mask_of(uni, (0, 0), (1, 1), (2, 2))
    assert fraser_join(uni, diag) == diag


def test_fraser_join_matches_family_closure_exhaustively(fraser33):
    uni = fraser33.product
    family = set(fraser33.masks)
    for region in range(1 << uni.n_points):
        assert fraser_join(uni, region) == closure_in_family(family, uni.full_mask, region)


def test_fraser_join_matches_family_closure_on_16_points(fraser44):
    uni = fraser44.product
    family = set(fraser44.masks)
    rng = Random(23)
    for _ in range(60):
        region = rng.randrange(1 << uni.n_points)
        assert fraser_join(uni, region) == closure_in_family(family, uni.full_mask, region)


def test_coatom_cylinder_plus_point_joins_to_top(fraser33):
    uni = fraser33.product
    for i in range(3):
        for j in range(3):
            cross = uni.cylinder_mask((1 << i, 1 << j))
            for q in range(uni.n_points):
                if cross >> q & 1:
                    continue
                assert fraser_join(uni, cross | (1 << q)) == uni.full_mask


# -- box joins ------------------------------------------------------------------------------

def test_box_join_examples(box33):
    uni = box33.product
    single = mask_of(uni, (1, 2))
    assert box_join(uni, single) == single
    diag = mask_of(uni, (0, 0), (1, 1), (2, 2))
    assert box_join(uni, diag) == uni.full_mask


def test_box_join_of_spread_triple_is_component_join_box(box44):
    # three points, pairwise distinct in both coordinates, whose first two
    # coordinates join onto everything: the box join is the full box of
    # the coordinate joins
    uni = box44.product
    mo4 = uni.factors[0]
    p, q, r = (0, 0), (1, 1), (2, 2)
    region = mask_of(uni, p, q, r)
    j1 = mo4.closure(0b011)
    j2 = uni.factors[1].closure(0b011)
    assert box_join(uni, region) == uni.full_box_mask([j1, j2])


def test_box_join_equals_box_family_closure(box33):
    uni = box33.product
    family = set(box33.masks)
    rng = Random(3)
    for _ in range(80):
        region = rng.randrange(1 << uni.n_points)
        assert box_join(uni, region) == closure_in_family(family, uni.full_mask, region)


# -- product laws (full boxes, replacements) --------------------------------------------------

def test_full_boxes_closed_in_every_candidate(box33, fraser33, circle33):
    uni = box33.product
    rng = Random(9)
    for space in (box33, fraser33, circle33):
        for _ in range(40):
            comps = [rng.choice(f.masks) for f in uni.factors]
            assert uni.full_box_mask(comps) in space


def test_single_coordinate_replacements_closed(box33, fraser33, circle33):
    uni = box33.product
    rng = Random(10)
    for space in (box33, fraser33, circle33):
        for _ in range(40):
            p = rng.randrange(uni.n_points)
            beta = rng.choice((0, 1))
            b = rng.choice(uni.factors[beta].masks)
            coords = list(uni.decode(p))
            region = 0
            for q in range(uni.sizes[beta]):
                if b >> q & 1:
                    coords[beta] = q
                    region |= 1 << uni.encode(coords)
            assert region in space


def test_box_component_join_identity(box33, fraser33, circle33):
    # joining full boxes along one coordinate equals the full box of the
    # coordinate join, in every candidate product
    uni = box33.product
    rng = Random(12)
    for space in (box33, fraser33, circle33):
        for _ in range(30):
            comps = [rng.choice([m for m in f.masks if m]) for f in uni.factors]
            beta = rng.choice((0, 1))
            bs = [rng.choice(uni.factors[beta].masks) for _ in range(rng.randint(1, 3))]
            union = 0
            for b in bs:
                union |= b
            lhs_comps = list(comps)
            lhs_comps[beta] = uni.factors[beta].closure(union)
            lhs = uni.full_box_mask(lhs_comps)
            acc = 0
            for b in bs:
                cs = list(comps)
                cs[beta] = b
                acc |= uni.full_box_mask(cs)
            assert space.closure(acc) == lhs


def test_two_coordinate_changes_join_trivially(box33, fraser33, circle33):
    # points differing in both coordinates join to their two-point set
    uni = box33.product
    for space in (box33, fraser33, circle33):
        for p, q in itertools.combinations(range(uni.n_points), 2):
            cp, cq = uni.decode(p), uni.decode(q)
            if cp[0] != cq[0] and cp[1] != cq[1]:
                assert space.closure((1 << p) | (1 << q)) == (1 << p) | (1 << q)


def test_replacement_pair_union_identity(box33, fraser33, circle33):
    # p[b, 0] v p[c, 1] = p[b, 0] u p[c, 1] whenever p lies in both
    uni = box33.product
    rng = Random(13)
    for space in (box33, fraser33, circle33):
        for _ in range(40):
            p = rng.randrange(uni.n_points)
            coords = uni.decode(p)
            b = rng.choice([m for m in uni.factors[0].masks if m >> coords[0] & 1])
            c = rng.choice([m for m in uni.factors[1].masks if m >> coords[1] & 1])
            first = 0
            for q in range(uni.sizes[0]):
                if b >> q & 1:
                    first |= 1 << uni.replace(p, 0, q)
            second = 0
            for q in range(uni.sizes[1]):
                if c >> q & 1:
                    second |= 1 << uni.replace(p, 1, q)
            assert space.closure(first | second) == first | second


# -- one non-powerset factor collapses the interval ---------------------------------------------

def test_single_nontrivial_factor_makes_products_agree(pow2, mo3, mo4):
    for factor in (mo3, mo4):
        box = box_product([pow2, factor])
        fraser = fraser_product([pow2, factor])
        uni = box.product
        explicit = set()
        for region in range(1 << uni.n_points):
            if all(factor.is_closed(section(uni, region, 1, p))
                   for p in range(uni.n_points)):
                explicit.add(region)
        assert set(box.masks) == set(fraser.masks) == explicit


# -- axioms --------------------------------------------------------------------------------------

def test_box_fraser_circle_satisfy_the_axioms(box33, fraser33, circle33):
    for space in (box33, fraser33, circle33):
        assert check_p1_p2_p3(space, space.product) is None


def test_full_powerset_on_product_violates_p3(mo3):
    uni = ProductUniverse([mo3, mo3])
    candidate = ClosureSpace.from_closed_sets(uni.points, range(1 << 9))
    violation = check_p1_p2_p3(candidate, uni)
    assert violation is not None
    assert violation.axiom == "P3"


@pytest.mark.parametrize("pair,witness", [
    (((0, 0), (0, 1)), "a,a a,b projects to the non-closed a b in factor 2"),
    (((1, 2), (2, 2)), "b,c c,c projects to the non-closed b c in factor 1"),
])
def test_p3_witness_names_the_planted_section(box33, pair, witness):
    # a two-point set on one fiber: its section is a non-closed pair of mo3
    uni = box33.product
    candidate = ClosureSpace.from_closed_sets(
        uni.points, set(box33.masks) | {mask_of(uni, *pair)}, product=uni)
    assert check_p1_p2_p3(candidate, uni) == products.AxiomViolation("P3", witness)


def test_p4_holds_for_the_stock_products(box33, fraser33, circle33, mo3):
    gens = [automorphisms(mo3), automorphisms(mo3)]
    for space in (box33, fraser33, circle33):
        assert check_p4(space, space.product, gens) is None


def test_p4_fails_when_one_diagonal_is_adjoined(box33, mo3):
    uni = box33.product
    diag = mask_of(uni, (0, 0), (1, 1), (2, 2))
    candidate = ClosureSpace.from_closed_sets(
        uni.points, set(box33.masks) | {diag}, product=uni)
    assert check_p1_p2_p3(candidate, uni) is None
    violation = check_p4(candidate, uni, [automorphisms(mo3), automorphisms(mo3)])
    assert violation is not None
    # one factor automorphism lifted alone, the identity on the other factor
    assert [p == (0, 1, 2) for p in violation.factor_perms].count(False) == 1
    assert "maps to the non-closed" in violation.witness


def test_p4_witness_is_the_least_failing_irreducible(box33, mo3):
    # a line plus one point; its pair a,a b,a also fails, but it is the
    # meet of the adjoined set with a fiber, so not irreducible
    uni = box33.product
    planted = mask_of(uni, (0, 0), (0, 1), (0, 2), (1, 0))
    candidate = ClosureSpace.from_closed_sets(
        uni.points, set(box33.masks) | {planted}, product=uni)
    violation = check_p4(candidate, uni, [automorphisms(mo3), automorphisms(mo3)])
    assert violation == products.P4Violation(
        ((0, 2, 1), (0, 1, 2)), "a,a a,b a,c b,a maps to the non-closed a,a a,b a,c c,a")


def test_p4_refuses_a_generator_list_per_factor_of_the_wrong_length(box33, mo3):
    # the cylinders over a pair of the second factor break P4 there only, so
    # a check that stopped at the first factor's list would let them pass
    uni = box33.product
    candidate = ClosureSpace.from_closed_sets(
        uni.points, set(box33.masks) | {uni.preimage_mask(1, 0b011)}, product=uni)
    gens = [automorphisms(mo3), automorphisms(mo3)]
    assert check_p4(candidate, uni, gens) is not None
    for given in (gens[:1], gens * 2):
        with pytest.raises(ValueError, match=f"2 factors but {len(given)} generator lists"):
            check_p4(candidate, uni, given)


@pytest.mark.parametrize("bad", [(1, 0), (0, 1, 2, 0), (0, 0, 1), (0, 1, 2.0), (0, 1, True)])
def test_p4_refuses_a_generator_that_is_no_permutation_of_its_factor(box33, mo3, bad):
    # short, long, not a bijection, and entries that are no int
    uni = box33.product
    for beta in (0, 1):
        for shape in (tuple, Automorphism):
            gens = [automorphisms(mo3), automorphisms(mo3)]
            gens[beta] = [gens[beta][1], shape(bad)]
            with pytest.raises(ValueError, match=f"^factor {beta + 1} generator "
                                                 f"{re.escape(repr(bad))} is not a "
                                                 "permutation of 3 points$"):
                check_p4(box33, uni, gens)


# -- sharp map ------------------------------------------------------------------------------------

def test_sharp_of_a_point_is_the_partner_cross(box44, mo4_pairing):
    uni = box44.product
    maps = [mo4_pairing, mo4_pairing]
    point = 1 << pid(uni, 0, 1)  # (a, b); partners are b and a
    image = sharp_map(box44, maps).product_map.image_mask(point)
    assert image == uni.cylinder_mask((0b010, 0b001))


def test_sharp_agrees_with_sharp_map_on_every_element(box44, mo4_pairing):
    uni = box44.product
    maps = [mo4_pairing, mo4_pairing]
    product_map = sharp_map(box44, maps).product_map
    partner = [mo4_pairing.image_mask(1 << q) for q in range(4)]
    for m in box44.masks:
        # the meet over the points of m of the points with a partner coordinate
        want = box44.full_mask
        for p in range(uni.n_points):
            if m >> p & 1:
                i, j = decode(uni, p)
                want &= sum(1 << q for q in range(uni.n_points)
                            if partner[i] >> decode(uni, q)[0] & 1
                            or partner[j] >> decode(uni, q)[1] & 1)
        assert product_map.image_mask(m) == want


def test_sharp_endpoints(box44, mo4_pairing):
    product_map = sharp_map(box44, [mo4_pairing, mo4_pairing]).product_map
    assert product_map.image_mask(box44.full_mask) == 0
    assert product_map.image_mask(0) == box44.full_mask


def test_sharp_is_involutive_on_random_elements(box44, mo4_pairing):
    product_map = sharp_map(box44, [mo4_pairing, mo4_pairing]).product_map
    rng = Random(17)
    for _ in range(50):
        a = rng.choice(box44.masks)
        assert product_map.image_mask(product_map.image_mask(a)) == a


def test_sharp_map_validates_across_factor_pairs(pow2, mo4, mo4_pairing):
    def pairing(space):
        found = find_orthocomplementation(space)
        assert isinstance(found, OrthoMap)
        return found

    combos = [
        ([mo4, mo4], None),
        ([pow2, mo4], None),
        ([pow2, pow2], None),
        ([two_space(), pow2, mo4], None),
    ]
    for factors, _ in combos:
        box = box_product(factors)
        maps = [pairing(f) for f in factors]
        sm = sharp_map(box, maps)
        assert validate_orthomap(box, sm.product_map)


def test_sharp_refuses_a_map_list_of_the_wrong_length(box44, mo4_pairing):
    # with one map for two factors, zip would map each point by its first coordinate alone
    for given in ([mo4_pairing], [mo4_pairing] * 3):
        with pytest.raises(ValueError, match=f"2 factors but {len(given)} factor maps"):
            sharp_map(box44, given)


def test_sharp_rejects_invalid_factor_map(box44):
    mo4 = box44.product.factors[0]
    identity = OrthoMap(mo4, tuple(1 << q for q in range(mo4.n_points)))
    with pytest.raises(ValueError, match="factor 1"):
        sharp_map(box44, [identity, identity])


# -- circle product ---------------------------------------------------------------------------------

def test_circle_family_shape(box33, circle33):
    uni = circle33.product
    xi3 = {m for m in circle33.masks if m.bit_count() == 3 and in_xi(uni, m)}
    assert len(circle33) == 50
    assert set(circle33.masks) == set(box33.masks) | xi3
    assert len(xi3) == 6


def test_circle_elements_classify_into_four_shapes(circle33):
    # every element is trivial, an all-distinct set of size <= 3, a single
    # slice, or a two-slice cross
    uni = circle33.product
    lines = {uni.preimage_mask(b, 1 << q) for b in (0, 1) for q in range(3)}
    crosses = {uni.cylinder_mask((1 << i, 1 << j)) for i in range(3) for j in range(3)}
    for m in circle33.masks:
        ok = (m == 0 or m == uni.full_mask
              or (m.bit_count() <= 3 and in_xi(uni, m))
              or m in lines or m in crosses)
        assert ok, circle33.render_set(m)


def test_circle_has_covering_property(circle33):
    assert has_covering_property(circle33) is True


def test_circle_of_mo4_is_strictly_between(mo4):
    box = box_product([mo4, mo4])
    circle = mo_circle(mo4, mo4)
    fraser = fraser_product([mo4, mo4])
    assert set(box.masks) < set(circle.masks) < set(fraser.masks)
    assert has_covering_property(circle) is True


def test_mo4_squares_have_a_covering_member_besides_circle(box44, circle44):
    """Box plus the 24 four-point sets with pairwise distinct coordinates
    is a weak tensor product of two mo:4 factors with the covering
    property, and it is not contained in the circle product."""
    universe = box44.product
    quadruples = distinct_coordinate_sets(universe, 4)
    assert len(quadruples) == 24
    family = set(box44.masks) | quadruples
    assert len(family) == 138
    member = ClosureSpace(box44.points, family, product=universe)
    assert has_covering_property(member) is True
    assert check_p1_p2_p3(member, universe) is None
    assert check_p4(member, universe, [automorphisms(f) for f in universe.factors]) is None
    assert len(member.coatoms()) == 40
    assert not set(member.masks) <= set(circle44.masks)


def test_circle_pair_check_rejects_a_box_family_short_of_a_pair(box33):
    universe = box33.product
    box, xi = set(box33.masks), products._xi_triples(universe)
    products._check_circle_pairs(box, xi)
    pair = mask_of(universe, (0, 0), (1, 1))
    assert pair in box and any(t & pair == pair for t in xi)
    with pytest.raises(AssertionError, match="not the box product plus the xi triples"):
        products._check_circle_pairs(box - {pair}, xi)


def test_circle_rejects_non_mo_factors(pow2, mo3):
    with pytest.raises(ValueError):
        mo_circle(pow2, mo3)
    with pytest.raises(ValueError):
        mo_circle(mo_space(2), mo3)


# -- xi ------------------------------------------------------------------------------------------------

def test_in_xi_cases(box33):
    uni = box33.product
    assert in_xi(uni, mask_of(uni, (0, 0), (1, 1), (2, 2)))
    assert not in_xi(uni, mask_of(uni, (0, 0), (0, 1)))
    assert in_xi(uni, 0)
    assert in_xi(uni, mask_of(uni, (2, 1)))


# -- coatom decomposition ---------------------------------------------------------------------------

def test_full_cross_decomposes_trivially(fraser33):
    uni = fraser33.product
    cross = uni.cylinder_mask((0b001, 0b010))
    z = decompose_coatom(fraser33, uni, cross, 1, [0b001])
    assert z == 0b010


def test_every_coatom_above_a_half_cross_decomposes(fraser33, circle33):
    for space in (fraser33, circle33):
        uni = space.product
        coatoms = [m for m in space.masks if space.covers(m, space.full_mask) is True]
        for j in (0, 1):
            other = 1 - j
            for x in uni.factors[other].coatoms():
                half = uni.preimage_mask(other, x)
                for a_j in uni.factors[j].masks:
                    y = half | uni.preimage_mask(j, a_j)
                    for z in coatoms:
                        if y & ~z == 0:
                            res = decompose_coatom(space, uni, z, j, [x])
                            assert not isinstance(res, CoatomNonConformance)
                            assert res in uni.factors[j].coatoms()


def test_decompose_rejects_non_coatoms(fraser33):
    uni = fraser33.product
    with pytest.raises(ValueError, match="not a coatom"):
        decompose_coatom(fraser33, uni, 0, 1, [0b001])


@pytest.mark.parametrize("free_factor", [-2, -1, 2])
def test_decompose_refuses_a_free_factor_outside_the_factors(box33, free_factor):
    # -1 would decompose at factor 2, -2 report a real coatom as non-conforming
    uni = box33.product
    cross = uni.cylinder_mask((0b001, 0b010))
    assert decompose_coatom(box33, uni, cross, 1, [0b001]) == 0b010
    with pytest.raises(ValueError, match=rf"factor index {free_factor} is outside 0\.\.1"):
        decompose_coatom(box33, uni, cross, free_factor, [0b001])


# -- covering transfer ---------------------------------------------------------------------------------

def test_fraser_covering_with_one_nontrivial_factor(pow2, mo4):
    fraser = fraser_product([pow2, mo4])
    assert has_covering_property(fraser) is True
    assert has_covering_property(pow2) is True
    assert has_covering_property(mo4) is True


def test_coatomistic_box_products_have_coatomistic_factors(box33, box44):
    for box in (box33, box44):
        assert box.dual_order_check().coatomistic
        for f in box.product.factors:
            assert f.dual_order_check().coatomistic


def test_orthocomplemented_box_products_have_orthocomplemented_factors(box33, box44):
    # the factor transfer, instantiated in both directions: pairable
    # factors give an orthocomplemented box, unpairable ones cannot
    for box in (box33, box44):
        box_has = isinstance(find_orthocomplementation(box), OrthoMap)
        factors_have = all(isinstance(find_orthocomplementation(f), OrthoMap)
                           for f in box.product.factors)
        assert not box_has or factors_have
    assert isinstance(find_orthocomplementation(box44), OrthoMap)


# -- universe plumbing -----------------------------------------------------------------------------------

def test_universe_requires_two_factors(mo3):
    with pytest.raises(ValueError):
        ProductUniverse([mo3])


def test_universe_point_cap(mo3):
    with pytest.raises(ValueError):
        ProductUniverse([mo_space(5), mo_space(5)])
    ProductUniverse([mo3, mo_space(8)])  # 24 points is allowed


def test_encode_decode_round_trip(box44):
    uni = box44.product
    for pid_ in range(uni.n_points):
        assert uni.encode(uni.decode(pid_)) == pid_
    assert uni.encode_labels(["a", "b"]) == pid(uni, 0, 1)
    for short_or_long in (["a"], ["a", "b", "c"]):
        with pytest.raises(ValueError, match="expected 2 coordinates"):
            uni.encode_labels(short_or_long)
    with pytest.raises(ValueError, match="unknown point label 'zz'"):
        uni.encode_labels(["a", "zz"])


def test_decode_and_replace_refuse_ids_outside_the_universe(mo3):
    uni = ProductUniverse([mo3, mo3])
    assert uni.decode(8) == (2, 2) and uni.replace(8, 0, 1) == 5
    for bad in (-1, 9):
        with pytest.raises(IndexError):
            uni.decode(bad)
        with pytest.raises(IndexError):
            uni.replace(bad, 0, 1)
    with pytest.raises(IndexError):
        uni.replace(0, 0, 3)


def test_encode_refuses_coordinates_outside_the_universe(mo3):
    uni = ProductUniverse([mo3, mo3])
    assert uni.encode((2, 2)) == 8
    for bad in ((0, 3), (3, 0), (-1, 0)):
        with pytest.raises(IndexError):
            uni.encode(bad)
    for bad in ((1,), (0, 0, 0)):
        with pytest.raises(ValueError, match="expected 2 coordinates"):
            uni.encode(bad)


REGION_CALLS = {
    "in_fraser": in_fraser,
    "beta_join": lambda uni, r: beta_join(uni, r, 0),
    "beta_join_sequence": lambda uni, r: beta_join_sequence(uni, r, [0, 1]),
    "fraser_join": fraser_join,
    "box_join": box_join,
}


@pytest.mark.parametrize("name", REGION_CALLS)
def test_region_functions_refuse_points_outside_the_universe(mo3, name):
    uni = ProductUniverse([mo3, mo3])
    call = REGION_CALLS[name]
    call(uni, 1 | 1 << 8)
    for bad in (1 << 9 | 1, -1):
        with pytest.raises(ValueError, match="region uses points outside the universe"):
            call(uni, bad)


def test_factor_index_outside_the_factors_is_refused(mo3):
    uni = ProductUniverse([mo3, mo3])
    assert beta_join(uni, 0b11, 1) == 0b111
    assert uni.preimage_mask(1, 1) == 0b1001001
    for beta in (-1, 2, 5):
        with pytest.raises(ValueError, match=rf"factor index {beta} is outside 0\.\.1"):
            beta_join(uni, 0b11, beta)
        with pytest.raises(ValueError, match=rf"factor index {beta} is outside 0\.\.1"):
            beta_join_sequence(uni, 0b11, [0, beta])
        # -1 would read the last factor's cylinder
        with pytest.raises(ValueError, match=rf"factor index {beta} is outside 0\.\.1"):
            uni.preimage_mask(beta, 1)


@pytest.mark.parametrize("beta", [1.0, True, "1"])
def test_factor_index_that_is_no_int_is_refused(mo3, beta):
    uni = ProductUniverse([mo3, mo3])
    with pytest.raises(ValueError, match=f"^factor index must be an integer, got {beta!r}$"):
        beta_join(uni, 0b11, beta)
    with pytest.raises(ValueError, match=f"^factor index must be an integer, got {beta!r}$"):
        beta_join_sequence(uni, 0b11, [0, beta])
    with pytest.raises(ValueError, match=f"^factor index must be an integer, got {beta!r}$"):
        uni.preimage_mask(beta, 1)


@pytest.mark.parametrize("name", REGION_CALLS)
def test_region_functions_refuse_a_region_that_is_no_int(mo3, name):
    uni = ProductUniverse([mo3, mo3])
    for bad in (3.0, True, "3"):
        with pytest.raises(ValueError, match=f"^region must be an integer, got {re.escape(repr(bad))}$"):
            REGION_CALLS[name](uni, bad)


@pytest.mark.parametrize("bad", [0.5, 1.0, True])
def test_universe_refuses_coordinates_and_ids_that_are_no_int(mo3, bad):
    uni = ProductUniverse([mo3, mo3])
    says = f"must be an integer, got {bad!r}$"
    with pytest.raises(ValueError, match="^coordinate " + says):
        uni.encode((bad, 0))
    with pytest.raises(ValueError, match="^coordinate " + says):
        uni.replace(0, 0, bad)
    with pytest.raises(ValueError, match="^point id " + says):
        uni.decode(bad)
    with pytest.raises(ValueError, match="^point id " + says):
        uni.replace(bad, 0, 1)
    with pytest.raises(ValueError, match="^factor index " + says):
        uni.replace(0, bad, 1)
    for call in (lambda: uni.preimage_mask(0, bad), lambda: uni.cylinder_mask((1, bad)),
                 lambda: uni.full_box_mask((bad, 1))):
        with pytest.raises(ValueError, match="^factor mask " + says):
            call()


def test_cylinders_refuse_masks_outside_their_factors_and_lists_of_the_wrong_length(mo3):
    uni = ProductUniverse([two_space(), mo3])
    assert uni.preimage_mask(1, 0b100) == 0b100 and uni.preimage_mask(0, 1) == 0b111
    for beta, mask in ((0, 0b10), (1, 0b1000), (1, -1)):
        with pytest.raises(ValueError, match=f"^factor mask {mask} uses points outside "
                                             f"factor {beta + 1}$"):
            uni.preimage_mask(beta, mask)
    assert uni.cylinder_mask((0, 0b001)) == 0b001 and uni.full_box_mask((1, 0b011)) == 0b011
    # a short list would read the missing factor as full, a long one fail on its index
    for given in ((1,), (1, 1, 1), ()):
        for call in (uni.cylinder_mask, uni.full_box_mask):
            with pytest.raises(ValueError, match=f"^2 factors but {len(given)} components$"):
                call(given)


def test_decompose_refuses_coatoms_that_are_no_int(fraser33):
    uni = fraser33.product
    cross = uni.cylinder_mask((0b001, 0b010))
    assert decompose_coatom(fraser33, uni, cross, 1, [0b001]) == 0b010
    with pytest.raises(ValueError, match=f"^coatom must be an integer, got {float(cross)}$"):
        decompose_coatom(fraser33, uni, float(cross), 1, [0b001])
    with pytest.raises(ValueError, match="^pinned coatom must be an integer, got 1.0$"):
        decompose_coatom(fraser33, uni, cross, 1, [1.0])


def test_three_factor_products(mo3):
    factors = [two_space(), mo3, mo3]
    box = box_product(factors)
    fraser = fraser_product(factors)
    box2 = box_product([mo3, mo3])
    assert len(box) == len(box2)
    assert len(fraser) == len(fraser_product([mo3, mo3]))
    seq = beta_join_sequence(box.product, 1 << 0, [0, 1, 2])
    assert seq[-1] == 1 << 0
