import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_cover_check, naive_intersection_closure

from weaktensor import (
    ClosureSpace,
    LatticeFormatError,
    mo_space,
    parse_lattice_text,
    powerset_space,
    render_lattice_text,
    two_space,
)
from weaktensor import spaces
from weaktensor.spaces import CoverWitness, bits, default_labels, image, unchecked_space


def space_pool():
    pool = [two_space(), mo_space(3), mo_space(4), powerset_space(2), powerset_space(3),
            ClosureSpace.from_closed_sets("abc", [0b011])]
    return pool


POOL = space_pool()


# -- construction -----------------------------------------------------------

def test_unchecked_space_matches_the_closed_family():
    for space in POOL + [ClosureSpace.from_closed_sets("abcde", [0b00111, 0b01100, 0b11010])]:
        taken = unchecked_space(space.points, space.masks)
        assert taken.masks == space.masks and taken.product is None
        assert all(taken.closure(m) == space.closure(m) for m in range(1 << space.n_points))


def test_two_point_empty_generators_is_powerset():
    s = ClosureSpace.from_closed_sets("ab", [])
    assert set(s.masks) == {0b00, 0b01, 0b10, 0b11}


def test_three_point_empty_generators_is_mo3():
    s = ClosureSpace.from_closed_sets("abc", [])
    assert set(s.masks) == set(mo_space(3).masks)


def test_single_generator_gives_six_sets():
    s = ClosureSpace.from_closed_sets("abc", [0b011])
    assert set(s.masks) == naive_intersection_closure(3, [0b011])
    assert len(s) == 6
    assert 0b011 in s


def test_from_closed_sets_idempotent():
    for s in POOL:
        again = ClosureSpace.from_closed_sets(s.points, s.masks)
        assert again.masks == s.masks


def test_constructor_validates_large_families():
    # 8114 sets, past any size bound: every subset of 13 points but the pairs
    family = [m for m in range(1 << 13) if m.bit_count() != 2]
    with pytest.raises(ValueError, match="not intersection-closed"):
        ClosureSpace("abcdefghijklm", family)


@given(data=st.data())
@settings(max_examples=150)
def test_generated_families_match_naive_closure(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    full = (1 << n) - 1
    subsets = data.draw(st.lists(st.integers(min_value=0, max_value=full), max_size=6))
    closed = naive_intersection_closure(n, subsets)
    assert ClosureSpace.from_closed_sets("abcdef"[:n], subsets).masks == tuple(sorted(closed))
    listed = {0, full} | {1 << i for i in range(n)} | set(subsets)
    if listed == closed:
        assert ClosureSpace("abcdef"[:n], listed).masks == tuple(sorted(closed))
    else:
        with pytest.raises(ValueError, match="not intersection-closed"):
            ClosureSpace("abcdef"[:n], listed)


@given(data=st.data())
@settings(max_examples=150)
def test_constructor_names_the_least_closed_non_member(data):
    n = data.draw(st.integers(min_value=2, max_value=6))
    full = (1 << n) - 1
    listed = {0, full} | {1 << i for i in range(n)} | set(
        data.draw(st.lists(st.integers(min_value=0, max_value=full), min_size=2, max_size=8)))
    missing = naive_intersection_closure(n, listed) - listed
    if not missing:
        assert ClosureSpace("abcdef"[:n], listed).masks == tuple(sorted(listed))
        return
    least = " ".join("abcdef"[i] for i in bits(min(missing)))
    with pytest.raises(ValueError, match=f"'{least}' is an intersection of members"):
        ClosureSpace("abcdef"[:n], listed)


def test_constructor_stops_on_a_family_with_a_huge_closure():
    # the 24 coatoms close to all 2**24 subsets; the check stops at twice the family
    n = 24
    full = (1 << n) - 1
    family = [0, full] + [1 << i for i in range(n)] + [full ^ 1 << i for i in range(n)]
    with pytest.raises(ValueError, match="'a b' is an intersection of members"):
        ClosureSpace(default_labels(n), family)


def test_family_outside_the_universe_rejected():
    with pytest.raises(ValueError, match="outside the universe"):
        ClosureSpace("ab", [0, 1, 2, 3, 4])


def test_empty_point_list_rejected():
    with pytest.raises(ValueError):
        ClosureSpace.from_closed_sets([], [])


def test_universe_cap():
    with pytest.raises(ValueError):
        powerset_space(25)


@pytest.mark.parametrize("n", [2.0, True, "3", None])
@pytest.mark.parametrize("builder", [mo_space, powerset_space])
def test_point_count_that_is_no_int_is_refused(builder, n):
    with pytest.raises(ValueError, match=f"^point count must be an integer, got {n!r}$"):
        builder(n)


FAMILY_CAP_SAYS = r"^family exceeds the cap of 1048576 sets$"


def test_family_cap_refuses_before_building_the_powerset(monkeypatch):
    assert len(powerset_space(20)) == 1 << 20
    monkeypatch.setattr(spaces, "unchecked_space", lambda *args: pytest.fail("built"))
    with pytest.raises(ValueError, match=FAMILY_CAP_SAYS):
        powerset_space(21)


def test_family_cap_counts_the_generators_as_they_come():
    taken = []

    def subsets():
        for m in range(1 << 24):
            taken.append(m)
            yield m

    with pytest.raises(ValueError, match=FAMILY_CAP_SAYS):
        ClosureSpace.from_closed_sets(default_labels(24), subsets())
    # 0 .. 2^20 - 4 and the singletons 2^20 .. 2^23 are 2^20 + 1 generators
    assert len(taken) == (1 << 20) - 3


def test_family_cap_stops_the_sweep_at_the_step_that_passes_it(monkeypatch):
    # 5 coatoms generate the 32 subsets of 5 points, one doubling per step
    monkeypatch.setattr(spaces, "_FAMILY_CAP", 10)
    full = 0b11111
    sizes = []
    with pytest.raises(ValueError, match="^family exceeds the cap of 10 sets$"):
        for family in spaces._closure_sweep(full, [full ^ 1 << i for i in range(5)]):
            sizes.append(len(family))
    assert sizes == [1, 2, 4, 8]


def test_one_point_universe_is_fine():
    s = two_space()
    assert s.masks == (0, 1)
    assert s.atoms() == [1]
    assert s.coatoms() == [0]


# -- closure -----------------------------------------------------------------

def test_closure_examples():
    mo3 = mo_space(3)
    assert mo3.closure(0b011) == 0b111
    assert mo3.closure(0) == 0
    six = ClosureSpace.from_closed_sets("abc", [0b011])
    assert six.closure(0b011) == 0b011


@given(data=st.data())
@settings(max_examples=120)
def test_closure_operator_laws(data):
    s = data.draw(st.sampled_from(POOL))
    a = data.draw(st.integers(min_value=0, max_value=s.full_mask))
    b = data.draw(st.integers(min_value=0, max_value=s.full_mask))
    ca = s.closure(a)
    assert a & ~ca == 0                       # extensive
    assert s.closure(ca) == ca                # idempotent
    assert s.closure(a & b) & ~s.closure(a) == 0  # monotone


@given(data=st.data())
@settings(max_examples=80)
def test_intersection_closed_pairs_and_triples(data):
    s = data.draw(st.sampled_from(POOL))
    picks = data.draw(st.lists(st.sampled_from(s.masks), min_size=2, max_size=3))
    inter = s.full_mask
    for m in picks:
        inter &= m
    assert inter in s


# -- meet / join ---------------------------------------------------------------

def test_meet_join_examples():
    mo3 = mo_space(3)
    assert mo3.join(0b001, 0b010) == 0b111
    assert mo3.meet(0b001, mo3.full_mask) == 0b001
    six = ClosureSpace.from_closed_sets("abc", [0b011])
    assert six.join(0b001, 0b010) == 0b011


def test_foreign_element_rejected():
    mo3 = mo_space(3)
    with pytest.raises(ValueError):
        mo3.join(0b011, 0b001)  # 0b011 is not closed in MO3


FLOAT_MASK_CALLS = {
    "closure": lambda s: s.closure(3.0),
    "covers": lambda s: s.covers(1, 3.0),
    "meet": lambda s: s.meet(3.0, 1),
    "join": lambda s: s.join(1.0, 2),
    "is_central": lambda s: s.is_central(1.0),
}


@pytest.mark.parametrize("name", FLOAT_MASK_CALLS)
def test_float_mask_is_named_not_a_type_error(name):
    # 1.0 == 1, so a float can pass the member test and fail later on a bit operation
    mo3 = mo_space(3)
    assert 1.0 in mo3
    with pytest.raises(ValueError, match=r"^(3\.0|1\.0) is not an? (element|point set) of this space$"):
        FLOAT_MASK_CALLS[name](mo3)


OUTSIDE_MASK_CALLS = {
    "covers": (lambda s: s.covers(1, 9), "9"),
    "meet": (lambda s: s.meet(-1, 1), "-1"),
    "join": (lambda s: s.join(8, 1), "8"),
    "is_central": (lambda s: s.is_central(16), "16"),
}


@pytest.mark.parametrize("name", OUTSIDE_MASK_CALLS)
def test_mask_outside_the_universe_is_named_as_given(name):
    # its points inside the universe would name another set: 'a', 'a b c', '-'
    call, shown = OUTSIDE_MASK_CALLS[name]
    with pytest.raises(ValueError, match=rf"^{shown} is not an element of this space$"):
        call(mo_space(3))


@given(data=st.data())
@settings(max_examples=100)
def test_lattice_algebra_laws(data):
    s = data.draw(st.sampled_from(POOL))
    a = data.draw(st.sampled_from(s.masks))
    b = data.draw(st.sampled_from(s.masks))
    c = data.draw(st.sampled_from(s.masks))
    assert s.meet(a, b) == s.meet(b, a)
    assert s.join(a, b) == s.join(b, a)
    assert s.meet(a, s.meet(b, c)) == s.meet(s.meet(a, b), c)
    assert s.join(a, s.join(b, c)) == s.join(s.join(a, b), c)
    assert s.join(a, s.meet(a, b)) == a
    assert s.meet(a, s.join(a, b)) == a


def test_atomisticity():
    for s in POOL:
        for m in s.masks:
            acc = 0
            for i in range(s.n_points):
                if m >> i & 1:
                    acc = s.join(acc, 1 << i) if acc else (1 << i)
            assert s.closure(acc) == m if m else acc == 0


# -- atoms / coatoms / covers ----------------------------------------------------

def test_atoms_and_coatoms():
    mo3 = mo_space(3)
    assert mo3.atoms() == [1, 2, 4]
    assert sorted(mo3.coatoms()) == [1, 2, 4]
    p3 = powerset_space(3)
    assert sorted(p3.coatoms()) == [0b011, 0b101, 0b110]


def test_covers_examples():
    mo3 = mo_space(3)
    assert mo3.covers(0b001, 0b111) is True
    p3 = powerset_space(3)
    w = p3.covers(0, p3.full_mask)
    assert isinstance(w, CoverWitness) and w.intermediate == 0b001


def test_covers_requires_comparable():
    mo3 = mo_space(3)
    with pytest.raises(ValueError):
        mo3.covers(0b010, 0b001)


def test_covers_against_subset_scan():
    for s in POOL:
        for a in s.masks:
            for b in s.masks:
                if a & ~b:
                    continue
                got = s.covers(a, b)
                assert (got is True) == brute_cover_check(s, a, b)


def test_degenerate_cover_is_refused_with_witness():
    mo3 = mo_space(3)
    w = mo3.covers(0b001, 0b001)
    assert isinstance(w, CoverWitness) and w.intermediate is None


# -- duality ----------------------------------------------------------------------

def test_dual_order_check_examples():
    assert powerset_space(3).dual_order_check()[:2] == (True, True)
    assert mo_space(3).dual_order_check()[:2] == (True, True)


def _cover_pairs_under(masks, leq):
    pairs = []
    for a in masks:
        for b in masks:
            if a == b or not leq(a, b):
                continue
            if not any(c != a and c != b and leq(a, c) and leq(c, b) for c in masks):
                pairs.append((a, b))
    return sorted(pairs)


def test_double_dual_has_same_cover_relation():
    for s in POOL:
        leq = lambda x, y: x & ~y == 0
        geq = lambda x, y: y & ~x == 0
        direct = _cover_pairs_under(s.masks, leq)
        dual = _cover_pairs_under(s.masks, geq)
        double_dual = _cover_pairs_under(s.masks, lambda x, y: geq(y, x))
        assert double_dual == direct
        assert sorted((b, a) for a, b in dual) == direct
        assert sorted((a, b) for b in s.masks for a in s.masks
                      if a != b and a & ~b == 0 and s.covers(a, b) is True) == direct


def test_coatomistic_witness_is_the_least_irreducible_that_is_not_a_coatom():
    # 0, a, b, c, a b, a c and the full set: the coatoms a b and a c meet in
    # a, so 0, b and c are no meets of coatoms; b and c are irreducible
    rep = ClosureSpace.from_closed_sets("abc", [0b011, 0b101]).dual_order_check()
    assert (rep.coatomistic, rep.coatomistic_witness) == (False, 0b010)


# -- center ------------------------------------------------------------------------

def test_center_of_mo3_is_trivial():
    mo3 = mo_space(3)
    assert mo3.center() == [0, mo3.full_mask]


def test_center_of_powerset_is_everything():
    p3 = powerset_space(3)
    assert p3.center() == list(p3.masks)


def _blockwise_union_space():
    # two three-atom MO blocks glued as a direct product: closed sets are
    # exactly the blockwise unions, 25 in total
    block = [0, 1, 2, 4, 7]
    family = [y | (z << 3) for y in block for z in block]
    return ClosureSpace.from_closed_sets("abcdef", family)


def test_center_of_two_mo3_blocks():
    s = _blockwise_union_space()
    assert len(s) == 25
    assert s.center() == [0, 0b000111, 0b111000, s.full_mask]
    # oracle: the blockwise-union family is the direct product by construction,
    # and the center must split it back into the two intervals
    for a in (0b000111, 0b111000):
        below_a = [m for m in s.masks if m & ~a == 0]
        below_c = [m for m in s.masks if m & a == 0]
        assert len(below_a) * len(below_c) == len(s)


def test_zero_one_glued_sum_is_irreducible():
    # gluing only at 0 and 1 does not split: the blocks are not central
    s = ClosureSpace.from_closed_sets("abcdef", [0b000111, 0b111000])
    assert len(s) == 10
    assert s.center() == [0, s.full_mask]


# -- text format ---------------------------------------------------------------------

def test_round_trip():
    for s in POOL:
        text = render_lattice_text(s)
        again = parse_lattice_text(text)
        assert again.points == s.points
        assert again.masks == s.masks


def test_generators_only_file_is_closed_up():
    s = parse_lattice_text("points: a b c\na b\n")
    assert len(s) == 6


def test_parse_errors_carry_line_numbers():
    with pytest.raises(LatticeFormatError) as exc:
        parse_lattice_text("points: a b\na z\n")
    assert exc.value.line == 2
    with pytest.raises(LatticeFormatError) as exc:
        parse_lattice_text("a b\n")
    assert exc.value.line == 1
    # the header's labels follow the constructor's rules, named with the line
    labels25 = " ".join(f"p{i}" for i in range(25))
    for header, says in (("points:", "at least one point"),
                         ("points: a a", "unique"),
                         (f"points: {labels25}", "25 points exceeds the cap")):
        with pytest.raises(LatticeFormatError, match=f"line 1: .*{says}"):
            parse_lattice_text(header + "\n-\n")


@pytest.mark.parametrize("label", ["#x", "#", "-"])
def test_comment_and_empty_set_labels_are_rejected(label):
    # a line of a .lat file that starts with '#' is a comment, and '-' is the empty set
    with pytest.raises(ValueError, match="bad point label"):
        ClosureSpace.from_closed_sets([label, "a", "b"], [0b011])
    with pytest.raises(ValueError, match="bad point label"):
        ClosureSpace([label, "a"], [0, 1, 2, 3])
    with pytest.raises(LatticeFormatError, match="line 1: bad point label"):
        parse_lattice_text(f"points: {label} a b\n-\n")


def test_round_trip_keeps_labels_with_inner_hash_and_dash():
    s = ClosureSpace.from_closed_sets(["x#", "a-b", "--"], [0b011, 0b110])
    again = parse_lattice_text(render_lattice_text(s))
    assert (again.points, again.masks) == (s.points, s.masks) and len(s) == 7


def test_empty_set_renders_as_dash():
    mo3 = mo_space(3)
    assert mo3.render_set(0) == "-"
    assert "points: a b c\n-\n" in render_lattice_text(mo3)


# -- bit-set vocabulary -------------------------------------------------------

masks24 = st.integers(0, (1 << 24) - 1)


@given(mask=masks24, table=st.lists(masks24, min_size=24, max_size=24))
@settings(max_examples=200)
def test_bits_and_image_match_the_naive_scan(mask, table):
    points = [i for i in range(24) if mask >> i & 1]
    assert list(bits(mask)) == points
    union = 0
    for i in points:
        union |= table[i]
    assert image(mask, table) == union
