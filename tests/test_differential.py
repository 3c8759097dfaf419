"""Every product builder against the independent oracles in ``helpers``.

Covers each two-factor box, Fraser and circle product over the stock
factors within the universe caps, plus one three-factor box: box and
circle families against the naive intersection closure of the cylinders
(and of the xi triples), Fraser families against the subset scan of
``fraser_family_oracle`` up to 16 points and a line-by-line filter above.
The pruned Fraser lay is checked against the builder that laid every
region and found the family again, on those products and on the
three-factor Fraser products of the benchmark, the closure against the
closure over every member of the laid family.  On the same products,
``fraser_join``, ``in_fraser`` and the beta-joins, which read sections
off fiber masks, are checked against the family's closure and membership.

The descending intersection sweep of ``intersection_closure`` is checked
against NextClosure over the generator closure on every generator set
over at most 3 points, on seeded sets over 4 to 12 points and on every
box and circle family of the benchmark's build catalogue; the circle
builder, which lists its triples from coordinates and takes box plus
triples as given, against the intersection closure of the cylinders and
the ``in_xi`` triples, closure again over every member; and the
incidence table of the generator closure against the comprehension it
replaced.  The closure over the meet-irreducible members, found on a
space's first closure of a non-member, is checked against the closure
over every member on every subset up to 12 points and on seeded subsets
above, and the members it keeps against the definition of
meet-irreducibility.

The join-based ``covers`` is checked against the family scan it
replaced, on every comparable pair of the spaces above of at most 120
sets and on seeded pairs of two larger ones; the covering scan, which
reads each join a v q off the generators above a, against the per-call
table that closed each join afresh and the ``covers`` loop before it,
witnesses included, on every covering case; the coatoms the closure
operator's scan records against the maximality scan and the join rule
they replaced, on every space above
and on the build catalogue's box, circle and three-factor Fraser
families, P4 on generators against the loop over every tuple
of the given factor automorphisms, and the automorphisms listed from the
stabilizer chain against the scan of all n! point permutations and the
depth-first search over the whole group that the chain replaced; the
``factorization`` and ``p4`` suite checks, which run on the chain's
generators, against every listed automorphism and every tuple of them.
The orthocomplementation search, which visits only the candidates that
pass its symmetry test, is checked against the search that tried every
candidate, at fixed caps and one node either side of each finished
search's count, and its leaf check against the pair validator.
``orthomap_violation``, which checks the atom images' meets once per
element and law, is checked against the pair validator on element
indices it replaced, on atom-image maps of every space of at most 8
elements (every tuple of members on at most 4 points, a seeded sample
above) and on valid and broken maps of ``box(mo:4,mo:4)``; its
complement law, read as disjointness, against the closure of a | a' on
every atom-image map of the stock factors of at most 6 elements.
Coatomisticity, read off the meet-irreducible members, is checked
against the closure over the coatoms on every space above, and P4 on the
irreducibles against P4 on every member.  The dual order report, which
tests x v a = 1 for a coatom x by the bit test a & ~x, is checked
against closing each join x | a on every space above.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    automorphisms_by_scan,
    automorphisms_by_search,
    brute_cover_check,
    budget_stop,
    closure_in_family,
    closure_over_every_member,
    coatomistic_witness_by_coatom_closure,
    coatoms_by_joins,
    coatoms_by_maximality,
    covering_by_closure_table,
    covering_by_pairwise_covers,
    covering_failure_by_rows,
    covers_by_family_scan,
    cylinder_oracle,
    decode,
    dual_order_by_closing_joins,
    find_orthocomplementation_by_buckets,
    find_orthocomplementation_by_scan,
    fraser_by_laying,
    fraser_family_oracle,
    in_xi,
    index_images,
    incidence_by_comprehension,
    law_failures_by_closure,
    meet_irreducibles_by_definition,
    naive_intersection_closure,
    orthocomplementations_oracle,
    orthomap_violation_by_pairs,
    p4_by_all_tuples,
    p4_over_every_member,
    relabelled,
)

from weaktensor import (
    ClosureSpace,
    automorphisms,
    beta_join,
    box_product,
    check_p4,
    fraser_join,
    fraser_product,
    has_covering_property,
    in_fraser,
    mo_circle,
    mo_space,
    powerset_space,
    two_space,
)
from weaktensor import props, suites
from weaktensor.products import ProductUniverse, _xi_triples, sharp_map
from weaktensor.props import (
    Automorphism, OrthoMap, SearchBudgetExceeded, check_factorization,
    find_orthocomplementation, orthomap_violation,
)
from weaktensor.spaces import CoverWitness
from weaktensor.spaces import (
    MAX_POINTS, _GeneratorClosure, bits, default_labels, intersection_closure, next_closure,
)

# the Fraser cases are the products of at most 20 points, the set the search
# differential below pins its family count on
FRASER_POINTS = 20

FACTORS = {
    "two": two_space(),
    **{f"mo:{n}": mo_space(n) for n in range(2, 7)},
    **{f"powerset:{n}": powerset_space(n) for n in (2, 3)},
}


def _cases() -> list[str]:
    cases = []
    for a, b in itertools.product(FACTORS, repeat=2):
        n = FACTORS[a].n_points * FACTORS[b].n_points
        if n <= MAX_POINTS:
            cases.append(f"box({a},{b})")
        if n <= FRASER_POINTS:
            cases.append(f"fraser({a},{b})")
        mo_sizes = [int(f[3:]) for f in (a, b) if f.startswith("mo:")]
        if len(mo_sizes) == 2 and min(mo_sizes) >= 3 and n <= MAX_POINTS:
            cases.append(f"circle({a},{b})")
    return cases + ["box(mo:2,mo:3,mo:4)"]


CASES = _cases()


@functools.cache
def built(case: str):
    kind, inner = case[:-1].split("(")
    factors = [FACTORS[f] for f in inner.split(",")]
    if kind == "circle":
        return mo_circle(*factors)
    return {"box": box_product, "fraser": fraser_product}[kind](factors)


def xi_triples(universe) -> set[int]:
    """Three-point sets whose points differ in every coordinate."""
    out = set()
    for ids in itertools.combinations(range(universe.n_points), 3):
        coords = [decode(universe, pid) for pid in ids]
        if all(len({c[beta] for c in coords}) == 3 for beta in range(len(universe.sizes))):
            out.add(sum(1 << pid for pid in ids))
    return out


def fraser_by_lines(universe) -> set[int]:
    """Two-factor Fraser family: lay a closed set of one factor along every
    line of that factor, keep the regions whose cross lines are closed in
    the other factor.  Lays along whichever factor gives fewer choices."""
    sizes, factors = universe.sizes, universe.factors
    lay = min((0, 1), key=lambda b: len(factors[b]) ** sizes[1 - b])
    other = 1 - lay

    def flat(q: int, i: int) -> int:  # coordinate q on `lay`, i on `other`
        coords = [0, 0]
        coords[lay], coords[other] = q, i
        return coords[0] * sizes[1] + coords[1]

    out = set()
    for choice in itertools.product(factors[lay].masks, repeat=sizes[other]):
        cross = [sum(1 << i for i, sec in enumerate(choice) if sec >> q & 1)
                 for q in range(sizes[lay])]
        if all(c in factors[other] for c in cross):
            out.add(sum(1 << flat(q, i) for i, sec in enumerate(choice)
                        for q in range(sizes[lay]) if sec >> q & 1))
    return out


def oracle_family(case: str, universe) -> set[int]:
    if case.startswith("fraser"):
        if universe.n_points <= 16:
            return fraser_family_oracle(universe)
        return fraser_by_lines(universe)
    generators = cylinder_oracle(universe)
    if case.startswith("circle"):
        generators |= xi_triples(universe)
    return naive_intersection_closure(universe.n_points, generators)


def test_coordinate_table_matches_mixed_radix_decode():
    for case in CASES:
        universe = ProductUniverse([FACTORS[f] for f in case[:-1].split("(")[1].split(",")])
        n = universe.n_points
        coords = tuple(decode(universe, pid) for pid in range(n))
        assert universe.coords == coords, case
        assert universe.points == tuple(
            ",".join(f.points[q] for f, q in zip(universe.factors, c)) for c in coords)
        for beta, size in enumerate(universe.sizes):
            assert universe.coordinate_masks[beta] == tuple(
                sum(1 << pid for pid in range(n) if coords[pid][beta] == q)
                for q in range(size)), case
            # one fiber per point with coordinate beta zero, as the mask of
            # the points that agree with it off coordinate beta
            assert universe.fibers[beta] == tuple(
                sum(1 << coords.index(c[:beta] + (q,) + c[beta + 1:]) for q in range(size))
                for c in coords if c[beta] == 0), case
            assert universe.coordinate_bits[beta] == tuple(1 << c[beta] for c in coords), case


@pytest.mark.parametrize("case", CASES)
def test_family_matches_oracle(case):
    space = built(case)
    universe = space.product
    assert universe.cylinders and set(universe.cylinders) == cylinder_oracle(universe)
    assert space.masks == tuple(sorted(oracle_family(case, universe)))


# the three-factor Fraser targets of the benchmark's build catalogue
FRASER_TRIPLES = (
    "fraser(mo:2,mo:2,powerset:3)", "fraser(mo:2,mo:3,mo:3)", "fraser(mo:2,mo:2,mo:4)",
    "fraser(two,mo:4,mo:4)", "fraser(mo:2,mo:2,mo:2)", "fraser(mo:2,mo:2,mo:3)",
    "fraser(mo:5,powerset:2,powerset:2)",
)
# every two-factor Fraser case, the 24-point ones past FRASER_POINTS, where
# the prefix traces prune the lay most, and the three-factor ones
FRASER_BUILDS = ([c for c in CASES if c.startswith("fraser")]
                 + ["fraser(mo:4,mo:6)", "fraser(mo:6,mo:4)"] + list(FRASER_TRIPLES))
CLOSURE_SAMPLES = 2000


def sample_subsets(case: str, n: int):
    """Every subset up to 12 points, else ``CLOSURE_SAMPLES`` seeded ones."""
    if n <= 12:
        return range(1 << n)
    rng = random.Random(case)
    return [rng.randrange(1 << n) for _ in range(CLOSURE_SAMPLES)]


@pytest.mark.parametrize("case", FRASER_BUILDS)
def test_fraser_product_matches_laying_every_region(case):
    space = built(case)
    oracle = fraser_by_laying([FACTORS[f] for f in case[:-1].split("(")[1].split(",")])
    assert space.masks == oracle.masks
    close = closure_over_every_member(oracle)
    assert all(space.closure(s) == close(s) for s in sample_subsets(case, space.n_points))


@pytest.mark.parametrize("case", FRASER_BUILDS)
def test_region_functions_match_the_fraser_family(case):
    """``fraser_join`` is the Fraser closure, ``in_fraser`` its membership,
    and a region is a member iff every beta-join fixes it."""
    space = built(case)
    universe = space.product
    for s in sample_subsets(case, space.n_points):
        member = s in space
        assert fraser_join(universe, s) == space.closure(s), (case, s)
        assert in_fraser(universe, s) == member, (case, s)
        assert all(beta_join(universe, s, b) == s
                   for b in range(len(universe.factors))) == member, (case, s)


def sweep_matches_next_closure(n: int, generators) -> list[int]:
    full = (1 << n) - 1
    family = sorted(intersection_closure(full, generators))
    assert family == list(next_closure(n, _GeneratorClosure(n, generators))), (n, generators)
    return family


def test_sweep_matches_next_closure_on_every_generator_set_up_to_three_points():
    compared = 0
    for n in (1, 2, 3):
        for size in range(1 << n + 1):
            for generators in itertools.combinations(range(1 << n), size):
                sweep_matches_next_closure(n, generators)
                compared += 1
    assert compared == 4 + 16 + 256


def test_sweep_matches_next_closure_on_seeded_generator_sets():
    rng = random.Random("intersection sweep")
    for n in range(4, 13):
        full = (1 << n) - 1
        for _ in range(30):
            generators = [rng.randrange(full + 1) for _ in range(rng.randrange(2 * n))]
            if rng.random() < 0.5:
                # the forced members of a space, as from_closed_sets adds them
                generators += [0] + [1 << i for i in range(n)]
            sweep_matches_next_closure(n, generators)


# the box and circle targets of the benchmark's build catalogue
BUILD_CLOSED = (
    "box(mo:2,mo:3,mo:4)", "box(mo:2,mo:2,mo:6)", "box(mo:2,mo:2,mo:5)",
    "box(mo:3,mo:3,powerset:2)", "box(mo:4,powerset:2,powerset:2)", "circle(mo:4,mo:6)",
    "circle(mo:4,mo:5)", "box(mo:2,mo:2,mo:3)", "box(powerset:3,powerset:3)",
    "box(mo:5,powerset:3)", "circle(mo:4,mo:4)", "circle(mo:3,mo:6)", "box(mo:4,mo:6)",
    "box(mo:4,mo:5)", "box(mo:4,mo:4)", "circle(mo:3,mo:4)", "box(mo:3,powerset:3)",
    "box(mo:3,mo:3)", "circle(mo:3,mo:3)", "box(two,mo:3)", "box(two,mo:2,mo:6)",
    "box(mo:2,mo:5)", "box(mo:2,powerset:3)", "box(mo:2,mo:5,powerset:2)",
    "box(mo:6,powerset:2)", "box(mo:2,mo:3,mo:3)", "circle(mo:3,mo:5)", "box(two,mo:4,mo:5)",
)


def xi_by_filter(universe) -> list[int]:
    """The xi triples as the circle builder found them before listing them
    from coordinates: every 3-point set that passes ``in_xi``."""
    triples = (1 << a | 1 << b | 1 << c
               for a, b, c in itertools.combinations(range(universe.n_points), 3))
    return [m for m in triples if in_xi(universe, m)]


@pytest.mark.parametrize("case", BUILD_CLOSED)
def test_sweep_matches_next_closure_on_the_build_catalogue(case):
    space = built(case)
    universe, n = space.product, space.n_points
    generators = {0, *(1 << i for i in range(n)), *universe.cylinders}
    if case.startswith("circle"):
        generators.update(xi_by_filter(universe))
    assert sweep_matches_next_closure(n, sorted(generators)) == list(space.masks)


@pytest.mark.parametrize("case", CASES + list(FRASER_TRIPLES))
def test_closure_over_irreducibles_matches_every_member(case):
    space = built(case)
    oracle = closure_over_every_member(space)
    assert all(space.closure(s) == oracle(s) for s in sample_subsets(case, space.n_points))


@pytest.mark.parametrize("case", sorted({*CASES, *BUILD_CLOSED, *FRASER_TRIPLES}))
def test_irreducibles_match_the_definition(case):
    space = built(case)
    assert list(space.meet_irreducibles()) == meet_irreducibles_by_definition(space.masks)


@pytest.mark.parametrize("case,count", [
    # the Fraser product's operator held all 4095 members but the full set
    ("fraser(mo:2,mo:2,powerset:3)", 12), ("circle(mo:4,mo:6)", 504), ("box(mo:2,mo:3,mo:4)", 24),
])
def test_a_space_closes_by_its_irreducibles_alone(case, count):
    assert len(built(case).meet_irreducibles()) == count


# every circle product mo:m x mo:n within the point cap
CIRCLE_SIZES = [(m, n) for m in range(3, 9) for n in range(3, 9) if m * n <= MAX_POINTS]


@pytest.mark.parametrize("m,n", CIRCLE_SIZES)
def test_circle_matches_closing_cylinders_and_filtered_triples(m, n):
    circle = mo_circle(mo_space(m), mo_space(n))
    universe = circle.product
    closed = ClosureSpace.from_closed_sets(
        universe.points, universe.cylinders + tuple(xi_by_filter(universe)), product=universe)
    assert circle.masks == closed.masks
    rng = random.Random(f"circle {m} {n}")
    subsets = [rng.randrange(circle.full_mask + 1) for _ in range(CLOSURE_SAMPLES)]
    close = closure_over_every_member(closed)
    assert all(circle.closure(s) == close(s) for s in subsets)


def test_xi_triples_match_the_in_xi_filter():
    sizes = {f.n_points for f in FACTORS.values()} | {7, 8}
    compared = 0
    for m, n in itertools.product(sorted(sizes), repeat=2):
        if 1 < m * n <= MAX_POINTS:
            universe = ProductUniverse([mo_space(m), mo_space(n)])
            assert sorted(_xi_triples(universe)) == sorted(xi_by_filter(universe)), (m, n)
            compared += 1
    assert compared == 43
    assert len(_xi_triples(ProductUniverse([mo_space(4), mo_space(6)]))) == 480


def test_incidence_matches_the_comprehension_on_seeded_generators():
    rng = random.Random("incidence")
    for n in range(1, MAX_POINTS + 1):
        full = (1 << n) - 1
        assert _GeneratorClosure(n, []).incidence == [0] * n
        for count in (1, 2, rng.randrange(3, 40), rng.randrange(40, 600)):
            generators = [rng.randrange(full + 1) for _ in range(count)]
            assert (_GeneratorClosure(n, generators).incidence
                    == incidence_by_comprehension(n, generators)), (n, generators)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_closure_matches_family_closure(data):
    space = built(data.draw(st.sampled_from(CASES)))
    subset = data.draw(st.integers(min_value=0, max_value=space.full_mask))
    assert space.closure(subset) == closure_in_family(set(space.masks), space.full_mask, subset)


def every_space():
    return [(name, FACTORS[name]) for name in FACTORS] + [(case, built(case)) for case in CASES]


def test_covers_matches_family_scan_on_every_comparable_pair():
    checked = 0
    for name, space in every_space():
        if len(space) > 120:
            continue
        for b in space.masks:
            for a in space.masks:
                if a & ~b:
                    continue
                expected = covers_by_family_scan(space, a, b)
                if expected is not True:
                    expected = CoverWitness(lower=a, upper=b, intermediate=expected)
                assert space.covers(a, b) == expected, (name, a, b)
                checked += 1
    assert checked > 20000


@pytest.mark.parametrize("case", ["circle(mo:4,mo:6)", "box(mo:2,mo:3,mo:4)"])
def test_covers_matches_family_scan_on_seeded_pairs_of_large_spaces(case):
    space = built(case)
    rng = random.Random(case)
    verdicts = collections.Counter()
    for _ in range(150):
        a = rng.choice(space.masks)
        # b the join of a with one to three points, or a itself
        points = rng.sample(range(space.n_points), rng.randrange(4))
        b = space.closure(a | sum(1 << p for p in points))
        expected = covers_by_family_scan(space, a, b)
        if expected is None:
            expected = CoverWitness(lower=a, upper=b)
        elif expected is not True:
            expected = CoverWitness(lower=a, upper=b, intermediate=expected)
        assert space.covers(a, b) == expected, (case, a, b)
        verdicts[expected is True] += 1
    assert verdicts[True] and verdicts[False], verdicts


def test_coatoms_match_maximality_scan_on_every_space():
    checked = dict(every_space())
    checked.update((case, built(case)) for case in (*FRASER_TRIPLES, *BUILD_CLOSED))
    # the one-point and two-point factors, and the 4096-set family with 12 irreducibles
    assert {"two", "mo:2", "fraser(mo:2,mo:2,powerset:3)"} <= checked.keys()
    for name, space in checked.items():
        assert space.coatoms() == coatoms_by_maximality(space) == coatoms_by_joins(space), name


def test_coatomistic_matches_the_coatom_closure_on_every_space():
    verdicts = collections.Counter()
    for name, space in every_space():
        witness = space.dual_order_check().coatomistic_witness
        old = coatomistic_witness_by_coatom_closure(space)
        assert (witness is None) == (old is None), name
        verdicts[witness is None] += 1
        if witness is not None:
            # the least irreducible that is not a coatom, and no meet of coatoms
            coatoms = space.coatoms()
            assert witness == next(m for m in meet_irreducibles_by_definition(space.masks)
                                   if m not in coatoms), name
            above = [c for c in coatoms if c & witness == witness]
            assert functools.reduce(operator.and_, above, space.full_mask) != witness, name
    assert verdicts[True] and verdicts[False], verdicts


def test_dual_order_matches_closing_each_join_on_every_space():
    failures = 0
    for name, space in every_space():
        report = space.dual_order_check()
        assert report == dual_order_by_closing_joins(space), name
        failures += not report.dual_covering
    assert failures, "no space breaks dual covering"


def _covering_cases() -> list[str]:
    """The stock factors, box and Fraser products of every ordered pair of
    them within the point cap, circle products of every ordered pair of
    mo:3 to mo:6 within it, and four three-factor products."""
    cases = list(FACTORS)
    for a, b in itertools.product(FACTORS, repeat=2):
        if FACTORS[a].n_points * FACTORS[b].n_points <= MAX_POINTS:
            cases += [f"box({a},{b})", f"fraser({a},{b})"]
    cases += [f"circle(mo:{m},mo:{n})" for m, n in itertools.product(range(3, 7), repeat=2)
              if m * n <= MAX_POINTS]
    return cases + ["box(mo:2,mo:3,mo:4)", "box(mo:2,mo:2,mo:6)", "fraser(mo:2,mo:2,mo:4)",
                    "fraser(two,mo:4,mo:4)"]


COVERING_CASES = _covering_cases()


def test_covering_cases_are_the_pinned_set():
    assert len(COVERING_CASES) == len(set(COVERING_CASES)) == 144


@pytest.mark.parametrize("case", COVERING_CASES)
def test_covering_matches_pairwise_covers(case):
    space = FACTORS[case] if case in FACTORS else built(case)
    got = has_covering_property(space)
    assert got == covering_by_pairwise_covers(space)
    if len(space) > 50:
        return
    if got is True:
        # every join of an atom outside an element covers it, by the subset scan
        assert all(brute_cover_check(space, a, space.closure(p | a))
                   for p in space.atoms() for a in space.masks if not p & a)
        return
    w = got.witness
    assert not got.atom & got.element
    assert (w.lower, w.upper) == (got.element, space.closure(got.atom | got.element))
    assert w.intermediate in space and w.intermediate not in (w.lower, w.upper)
    assert w.lower & ~w.intermediate == 0 and w.intermediate & ~w.upper == 0
    assert not brute_cover_check(space, w.lower, w.upper)


@pytest.mark.parametrize("case", COVERING_CASES)
def test_covering_matches_the_closure_table(case):
    space = FACTORS[case] if case in FACTORS else built(case)
    assert has_covering_property(space) == covering_by_closure_table(space)


@pytest.mark.parametrize("case", COVERING_CASES)
def test_covering_scan_matches_the_row_scan(case):
    # the passing circles, circle(mo:4,mo:5), (mo:4,mo:6) and (mo:3,mo:6) among
    # them, are where the skipped coatoms and member joins save most
    space = FACTORS[case] if case in FACTORS else built(case)
    assert space.covering_failure() == covering_failure_by_rows(space)


def test_covering_scan_matches_the_row_scan_on_random_families():
    rng = random.Random("covering scan")
    verdicts = collections.Counter()
    for _ in range(300):
        n = rng.randrange(3, 11)
        generators = [sum(1 << p for p in rng.sample(range(n), rng.randrange(2, n)))
                      for _ in range(rng.randrange(8))]
        space = ClosureSpace.from_closed_sets(default_labels(n), generators)
        got = space.covering_failure()
        assert got == covering_failure_by_rows(space), (n, generators)
        verdicts[got is None] += 1
    assert verdicts[True] >= 20 and verdicts[False] >= 20, verdicts


@pytest.mark.parametrize("case", ["circle(mo:4,mo:6)", "box(mo:3,mo:3)", "fraser(mo:3,mo:3)",
                                  "powerset:3"])
def test_covering_scan_builds_no_row_for_a_coatom(case, monkeypatch):
    base = FACTORS[case] if case in FACTORS else built(case)
    space = ClosureSpace(base.points, base.masks)
    coatoms = set(space.coatoms())
    seen = []
    above = _GeneratorClosure.above

    def recorded(self, subset):
        seen.append(subset)
        return above(self, subset)

    monkeypatch.setattr(_GeneratorClosure, "above", recorded)
    got = space.covering_failure()
    assert not coatoms & set(seen), case
    # on powerset:3 every a | q is a member, so no join needs the generators above a
    assert bool(seen) == (case != "powerset:3"), case
    if got is None:
        # the probe sees coatoms: the row scan visits every element and picks above each
        seen.clear()
        assert covering_failure_by_rows(space) is None
        assert coatoms <= set(seen), case


def test_p4_matches_all_tuples_on_the_stock_products():
    for case in ("box(mo:3,mo:3)", "fraser(mo:3,mo:3)", "circle(mo:3,mo:3)", "box(mo:2,mo:3)",
                 "fraser(mo:3,powerset:2)", "box(mo:4,mo:4)"):
        space = built(case)
        perms = [automorphisms(f) for f in space.product.factors]
        assert check_p4(space, space.product, perms) is None, case
        assert p4_by_all_tuples(space, space.product,
                                [[g.point_perm for g in group] for group in perms]) is None, case
        assert p4_over_every_member(space, space.product, perms) is None, case


def _points(universe, *coords):
    return sum(1 << universe.encode(c) for c in coords)


@pytest.mark.parametrize("adjoined", [
    [((0, 0), (1, 1), (2, 2))],                      # one diagonal
    [((0, 0), (0, 1), (0, 2), (1, 0))],              # a line plus one point
    [((0, 0), (0, 1))],                              # two points on one line
    [((0, 0), (0, 1), (1, 0), (1, 1))],              # a 2x2 block
    [((i, j), (i, k)) for i in range(3)              # every pair on a line: invariant
     for j, k in itertools.combinations(range(3), 2)],
    [tuple(zip(range(3), p)) for p in itertools.permutations(range(3))],  # every diagonal
])
def test_p4_matches_all_tuples_with_a_set_adjoined(adjoined):
    box33 = built("box(mo:3,mo:3)")
    universe = box33.product
    candidate = ClosureSpace.from_closed_sets(
        universe.points, box33.masks + tuple(_points(universe, *s) for s in adjoined),
        product=universe)
    assert not any(_points(universe, *s) in box33 for s in adjoined)
    group = automorphisms(FACTORS["mo:3"])
    # the whole group, and two transpositions that generate it
    transpositions = [g for g in group if g.point_perm in ((1, 0, 2), (0, 2, 1))]
    full = p4_by_all_tuples(candidate, universe, [[g.point_perm for g in group]] * 2)
    for perms in ([group, group], [transpositions, transpositions]):
        violation = check_p4(candidate, universe, perms)
        old = p4_over_every_member(candidate, universe, perms)
        assert (violation is None) == (full is None) == (old is None)
        if violation is not None:
            # the reported one-generator tuple fails the oracle on its own
            assert p4_by_all_tuples(candidate, universe,
                                    [[v] for v in violation.factor_perms]) is not None
            assert violation.factor_perms == old.factor_perms
            assert violation.witness == least_failing_irreducible(candidate, universe,
                                                                  violation.factor_perms)


def least_failing_irreducible(candidate, universe, tup):
    """The witness line for the least meet-irreducible member, by definition,
    whose image under the coordinate-wise lift of ``tup`` is not a member."""
    lifted = [sum(perm[c] * stride for perm, c, stride
                  in zip(tup, decode(universe, pid), universe.strides))
              for pid in range(universe.n_points)]
    for m in meet_irreducibles_by_definition(candidate.masks):
        img = sum(1 << lifted[pid] for pid in bits(m))
        if img not in candidate:
            return f"{universe.render_set(m)} maps to the non-closed {universe.render_set(img)}"
    return None


# box and Fraser of powerset:3 with itself are the whole powerset of 9
# points: their group is every one of the 9! permutations, which takes
# seconds to list on either side; powerset:8 stands in for them below
WHOLE_POWERSET_9 = ("box(powerset:3,powerset:3)", "fraser(powerset:3,powerset:3)")


def test_automorphisms_match_scan_up_to_nine_points():
    compared = 0
    for name, space in every_space():
        if space.n_points > 9 or name in WHOLE_POWERSET_9:
            continue
        assert [u.point_perm for u in automorphisms(space)] == automorphisms_by_scan(space), name
        compared += 1
    assert compared == 77
    assert all(len(built(case)) == 1 << 9 for case in WHOLE_POWERSET_9)


small_families = st.integers(min_value=2, max_value=6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=2).map(
        lambda points: sum(1 << p for p in points)), max_size=5)))


@given(family=small_families)
@example(family=(5, [0b10010, 0b11010, 0b10001, 0b11011, 0b10101]))
@settings(max_examples=100, deadline=None)
def test_automorphisms_match_scan_on_random_spaces(family):
    # a few generators on a few points: mostly small, lopsided groups, where
    # a closed set the search failed to check lets a wrong map through (the
    # example is one that needs the checks made at the last point)
    n, generators = family
    space = ClosureSpace.from_closed_sets(default_labels(n), generators)
    assert [u.point_perm for u in automorphisms(space)] == automorphisms_by_scan(space)


def test_automorphisms_beyond_the_scan():
    # the group is the 3! * 4! coordinatewise lifts of factor permutations
    # (no automorphism swaps the factors, which differ in size)
    for case in ("box(mo:3,mo:4)", "circle(mo:3,mo:4)", "fraser(mo:3,mo:4)"):
        space = built(case)
        universe = space.product
        lifts = sorted(
            tuple(sum(v[c] * stride for v, c, stride in zip(vs, decode(universe, pid), universe.strides))
                  for pid in range(universe.n_points))
            for vs in itertools.product(*(itertools.permutations(range(k)) for k in universe.sizes)))
        assert [u.point_perm for u in automorphisms(space)] == lifts, case
    assert ([u.point_perm for u in automorphisms(powerset_space(8))]
            == list(itertools.permutations(range(8))))


# -- the stabilizer chain against the whole-group search it replaced --------------------

def assert_chain_matches_search(space, label=None):
    """The listing from the chain is the old search's, order included, and
    the chain's order and orbits agree with it."""
    listing = list(space.automorphism_perms())
    assert listing == automorphisms_by_search(space), label
    assert space.automorphism_order() == len(listing), label
    for point in range(space.n_points):
        assert set(space.automorphism_orbit(point)) == {p[point] for p in listing}, label


def test_chain_matches_search_up_to_nine_points():
    compared = 0
    for name, space in every_space():
        if space.n_points > 9 or name in WHOLE_POWERSET_9:
            continue
        assert_chain_matches_search(space, name)
        compared += 1
    assert compared == 77


@given(family=small_families)
@example(family=(5, [0b10010, 0b11010, 0b10001, 0b11011, 0b10101]))
@settings(max_examples=100, deadline=None)
def test_chain_matches_search_on_random_spaces(family):
    n, generators = family
    assert_chain_matches_search(ClosureSpace.from_closed_sets(default_labels(n), generators))


LARGE_GROUPS = ("box(mo:2,mo:4)", "box(mo:2,mo:5)", "box(mo:3,mo:4)", "circle(mo:3,mo:4)",
                "fraser(mo:3,mo:4)")


@pytest.mark.parametrize("case", LARGE_GROUPS)
def test_chain_matches_search_on_large_groups(case):
    assert_chain_matches_search(built(case), case)


# -- factorization and P4 on the chain's generators against the whole listing --------

def chain_products():
    """The product spaces of the chain tests above, and box(mo:3,mo:3) with
    one diagonal adjoined, which fails P4."""
    box33 = built("box(mo:3,mo:3)")
    universe = box33.product
    diagonal = ClosureSpace.from_closed_sets(
        universe.points, box33.masks + (_points(universe, (0, 0), (1, 1), (2, 2)),),
        product=universe)
    return ([(name, space) for name, space in every_space()
             if space.product is not None and space.n_points <= 9
             and name not in WHOLE_POWERSET_9]
            + [(case, built(case)) for case in LARGE_GROUPS] + [("box33+diagonal", diagonal)])


def run_check(name, space):
    return suites.CHECKS[name](space, args={}, rng=None)


def test_factorization_on_generators_matches_the_whole_listing():
    verdicts = collections.Counter()
    for name, space in chain_products():
        listing = space.automorphism_perms()
        unfactored = [perm for perm in listing if check_factorization(
            space, space.product, perm) is None]
        verdict, witness = run_check("factorization", space)
        verdicts[verdict] += 1
        if not unfactored:
            assert (verdict, witness) == ("pass", f"all {len(listing)} automorphisms factor"), name
        else:
            # the failing line names a generator, one of the maps that do not factor
            assert verdict == "fail", name
            perm = next(g for g in space.automorphism_generators()
                        if witness == f"perm={g} does not factor")
            assert perm in unfactored, name
    assert verdicts["pass"] and verdicts["fail"]


def test_p4_on_generators_matches_the_whole_listing():
    verdicts = collections.Counter()
    for name, space in chain_products():
        universe = space.product
        groups = [f.automorphism_perms() for f in universe.factors]
        failing = p4_by_all_tuples(space, universe, groups)
        verdict, witness = run_check("p4", space)
        verdicts[verdict] += 1
        assert (verdict == "pass") == (failing is None), name
        if failing is None:
            sizes = "x".join(str(len(g)) for g in groups)
            assert witness == f"all {sizes} factor automorphism tuples lift", name
    assert verdicts["pass"] and verdicts["fail"]


def test_permutation_tuples_and_automorphisms_give_equal_results():
    # the benchmark's call shapes (each factor's listed group of Automorphism
    # values for check_p4, each listed Automorphism for check_factorization)
    # and the checks' (the chain's generator tuples) against the other form
    verdicts = collections.Counter()
    for name, space in chain_products():
        universe = space.product
        listed = [automorphisms(f) for f in universe.factors]
        generators = [f.automorphism_generators() for f in universe.factors]
        for given, other in ((listed, [[tuple(u) for u in group] for group in listed]),
                             (generators, [[Automorphism(g) for g in gens] for gens in generators])):
            got = check_p4(space, universe, given)
            assert got == check_p4(space, universe, other), name
            verdicts[got is None] += 1
        for u in automorphisms(space):
            form = check_factorization(space, universe, u)
            assert form == check_factorization(space, universe, tuple(u)), (name, u)
            verdicts[form is None] += 1
    assert verdicts[True] and verdicts[False]


# -- orthocomplementation search against the search that tried every candidate --

NODE_CAPS = (1, 3, 10, 44, 100, 296, 1000)
# the old search takes about half a second per million nodes; spaces whose
# search runs longer are compared at the caps above only
ORACLE_NODES = 2_000_000


def search_outcome(search, space, **kwargs):
    try:
        res = search(space, **kwargs)
    except SearchBudgetExceeded as exc:
        return ("budget", exc.nodes)
    return (type(res).__name__, getattr(res, "atoms", None), getattr(res, "nodes", None))


@functools.cache
def searchable_spaces():
    """Each distinct family once (the search reads only the masks), without
    the three-factor box, which the family cap refuses."""
    seen = set()
    out = []
    for name, space in every_space():
        key = (space.n_points, space.masks)
        if name != "box(mo:2,mo:3,mo:4)" and key not in seen:
            seen.add(key)
            out.append((name, space))
    return out


def test_search_matches_oracle_at_every_cap():
    for name, space in searchable_spaces():
        for cap in NODE_CAPS:
            assert (search_outcome(find_orthocomplementation, space, node_cap=cap)
                    == search_outcome(find_orthocomplementation_by_scan, space, node_cap=cap)), (
                name, cap)


def test_search_matches_oracle_where_it_finishes():
    compared = 0
    for name, space in searchable_spaces():
        try:
            find_orthocomplementation(space, node_cap=ORACLE_NODES)
        except SearchBudgetExceeded:
            continue
        assert (search_outcome(find_orthocomplementation, space)
                == search_outcome(find_orthocomplementation_by_scan, space)), name
        compared += 1
    # 41 of the 53 families: 11 searches overrun the default budget, and
    # fraser(mo:4,mo:4) exhausts after 5,005,638 nodes
    assert len(searchable_spaces()) == 53 and compared == 41


# the capped searches of the benchmark's decide workload stop here
DECIDE_NODE_CAP = 200_000


def finished_count(space, search=find_orthocomplementation):
    """The node count at which ``search`` finishes: the certificate's, or
    for a map the least cap under which it is found; None past
    ``ORACLE_NODES``."""
    def outcome(cap):
        return search_outcome(search, space, node_cap=cap)

    first = outcome(ORACLE_NODES)
    if first[0] == "budget":
        return None
    if first[0] == "ExhaustionCertificate":
        return first[2]
    low, high = 0, ORACLE_NODES
    while low < high:
        mid = (low + high) // 2
        if outcome(mid)[0] == "budget":
            low = mid + 1
        else:
            high = mid
    return low


def test_search_matches_oracle_at_the_budget_edges():
    # a cap one short of the count fires on the last node counted.  In none of
    # the 41 families' searches does that node lie in an atom that the search
    # counts without a call; it does in the copy of box(mo:3,mo:3) with points
    # 0 and 2 swapped (an atom without candidates), and in all 14 budget errors
    # at the decide cap (12 below the look ahead, 2 without candidates)
    box33 = built("box(mo:3,mo:3)")
    swapped = ("box(mo:3,mo:3) with points 0 and 2 swapped",
               relabelled(box33, (2, 1, 0, *range(3, box33.n_points))))
    finished = 0
    for name, space in searchable_spaces() + [swapped]:
        count = finished_count(space)
        edges = () if count is None else (count - 1, count, count + 1)
        for cap in edges + (DECIDE_NODE_CAP,):
            got = search_outcome(find_orthocomplementation, space, node_cap=cap)
            assert got == search_outcome(find_orthocomplementation_by_scan, space, node_cap=cap), (
                name, cap)
            if cap in edges:
                assert (got[0] == "budget") == (cap < count), (name, cap)
        finished += count is not None
    assert finished == 42


@given(family=small_families, cap=st.sampled_from((-1, 0) + NODE_CAPS + (10_000_000,)))
@settings(max_examples=150, deadline=None)
def test_search_matches_oracle_on_random_spaces(family, cap):
    n, generators = family
    space = ClosureSpace.from_closed_sets(default_labels(n), generators)
    got = search_outcome(find_orthocomplementation, space, node_cap=cap)
    assert got == search_outcome(find_orthocomplementation_by_scan, space, node_cap=cap)
    assert got == search_outcome(find_orthocomplementation_by_buckets, space, node_cap=cap)


# -- orthocomplementation search against the bucket search it replaced --------

# the families whose search finishes within this many nodes are compared at
# every cap up to one past the count
SWEEP_NODES = 2_000


def test_search_matches_the_bucket_search_at_every_cap():
    stops = collections.Counter()
    swept = 0
    for name, space in searchable_spaces():
        count = finished_count(space, find_orthocomplementation_by_buckets)
        if count is not None and count <= SWEEP_NODES:
            caps = range(count + 2)
            swept += 1
        else:
            caps = NODE_CAPS + (DECIDE_NODE_CAP,)
        for cap in caps:
            got = search_outcome(find_orthocomplementation, space, node_cap=cap)
            assert got == search_outcome(find_orthocomplementation_by_buckets, space,
                                         node_cap=cap), (name, cap)
            if got[0] == "budget" and cap in NODE_CAPS:
                stops[budget_stop(space, cap)] += 1
    assert swept == 35
    # where the budget errors at the fixed caps stop: the look ahead and the
    # empty buckets count the atoms of 99 of them without a call, and the
    # search raises at its next complete assignment or atom end
    assert stops == {"visited": 147, "ahead": 53, "empty": 46}, stops


@pytest.mark.parametrize("name, count", [("circle(mo:3,mo:4)", 1_965_696),
                                         ("fraser(mo:4,mo:4)", 5_005_638)])
def test_search_pins_the_largest_exhaustion_counts(name, count):
    space = built(name)
    for cap in (count - 1, count):
        got = search_outcome(find_orthocomplementation, space, node_cap=cap)
        assert got == search_outcome(find_orthocomplementation_by_buckets, space, node_cap=cap)
    assert got == ("ExhaustionCertificate", None, count)


def law(violation):
    """The law a violation names, without the element it names."""
    return None if violation is None else violation.split(" fails")[0]


def atom_maps(space, seed: int) -> list[tuple[int, ...]]:
    """Atom-image tuples on a space: every tuple of members per point on at
    most 4 points, and beyond that a seeded sample of 300, a third of them
    drawn from the coatoms, where the valid maps lie."""
    if space.n_points <= 4:
        return list(itertools.product(space.masks, repeat=space.n_points))
    rng = random.Random(seed)
    pools = (space.masks, space.masks, space.coatoms())
    return [tuple(rng.choice(pools[k % 3]) for _ in range(space.n_points)) for k in range(300)]


def valid_by_pairs(space, atoms) -> bool:
    return orthomap_violation_by_pairs(space, index_images(space, atoms)) is None


# the maps failing each law, and the valid ones, among every tuple of members
LEAF_LAWS = {
    "mo:4": {"involution": 1286, "complement law": 7, None: 3},
    "powerset:3": {"involution": 508, "complement law": 3, None: 1},
    "box(mo:2,mo:2)": {"involution": 65526, "complement law": 9, None: 1},
    "box(two,mo:4)": {"involution": 1286, "complement law": 7, None: 3},
}


def symmetric(atoms) -> bool:
    """Whether q <= p' iff p <= q' for all points p, q, and p not in p'."""
    return all((c >> q & 1) == (atoms[q] >> p & 1) and not c >> p & 1
               for p, c in enumerate(atoms) for q in range(len(atoms)))


@pytest.mark.parametrize("name", LEAF_LAWS)
def test_leaf_accepts_what_orthomap_violation_accepts(name):
    # the search leaf keeps a complete assignment iff no law fails on the meets;
    # the search's leaves are symmetric, and on those, a'' = a at the
    # meet-irreducible elements gives it at every element
    space = FACTORS.get(name) or built(name)
    irreducibles = space.meet_irreducibles()
    laws = collections.Counter()
    at_irreducibles = collections.Counter()
    for atoms in atom_maps(space, 0):
        leaf = props._laws_hold(space.masks, atoms, space.full_mask)
        violation = orthomap_violation(space, OrthoMap(space, atoms))
        assert leaf == (violation is None) == valid_by_pairs(space, atoms), (name, atoms)
        laws[law(violation)] += 1
        if symmetric(atoms):
            assert props._laws_hold(irreducibles, atoms, space.full_mask) == leaf, (name, atoms)
            at_irreducibles[leaf] += 1
    assert laws == LEAF_LAWS[name], laws
    assert at_irreducibles[True] == LEAF_LAWS[name][None] and at_irreducibles[False]


# -- the per-element validator against the pair validator it replaced ---------

def spaces_up_to_eight_elements():
    """Every closure space of at most 8 elements, each family once: on n
    points the forced 0, 1 and singletons leave room for at most 6 - n
    further sets, so each such family closes at most 6 - n of them."""
    seen = set()
    out = []
    for n in range(1, 7):
        extra = [m for m in range(1 << n) if 2 <= m.bit_count() < n]
        for k in range(7 - n):
            for generators in itertools.combinations(extra, k):
                space = ClosureSpace.from_closed_sets(default_labels(n), generators)
                if len(space) <= 8 and (n, space.masks) not in seen:
                    seen.add((n, space.masks))
                    out.append(space)
    return out


def test_validator_matches_pair_validator_on_atom_maps_up_to_eight_elements():
    spaces = [space for _, space in every_space() if len(space) <= 8]
    spaces += spaces_up_to_eight_elements()
    laws = collections.Counter()
    for k, space in enumerate(spaces):
        for atoms in atom_maps(space, k):
            got = orthomap_violation(space, OrthoMap(space, atoms))
            assert (got is None) == valid_by_pairs(space, atoms), (space.masks, atoms)
            laws[law(got)] += 1
    assert len(spaces) == 125, len(spaces)
    assert laws == {"involution": 208_167, "complement law": 107, None: 39}, laws


def test_validator_matches_pair_validator_on_box44_maps():
    box44 = built("box(mo:4,mo:4)")
    mo4 = FACTORS["mo:4"]
    pairings = [OrthoMap(mo4, atoms) for atoms in orthocomplementations_oracle(mo4)]
    assert len(pairings) == 3
    maps = [find_orthocomplementation(box44).atoms]
    maps += [sharp_map(box44, pair).product_map.atoms
             for pair in itertools.product(pairings, repeat=2)]
    rng = random.Random(10)
    coatoms = box44.coatoms()
    laws = collections.Counter()
    for atoms in maps:
        assert orthomap_violation(box44, OrthoMap(box44, atoms)) is None
        assert valid_by_pairs(box44, atoms)
        for p, q in rng.sample(list(itertools.combinations(range(box44.n_points), 2)), 12):
            # swap the images of two points, or send one to another coatom
            swapped = list(atoms)
            swapped[p], swapped[q] = atoms[q], atoms[p]
            moved = list(atoms)
            moved[p] = rng.choice([c for c in coatoms if c != atoms[p]])
            for broken in (swapped, moved):
                got = orthomap_violation(box44, OrthoMap(box44, tuple(broken)))
                assert (got is None) == valid_by_pairs(box44, broken), (atoms, p, q)
                laws[law(got)] += 1
    # every broken map in the sample fails the involution law
    assert laws == {"involution": 240}, laws


def test_disjoint_complement_law_matches_the_closure_on_every_atom_map(monkeypatch):
    spaces = [FACTORS[name] for name in ("two", "mo:2", "mo:3", "mo:4", "powerset:2")]
    maps = [OrthoMap(space, atoms) for space in spaces + [powerset_space(1)]
            for atoms in itertools.product(space.masks, repeat=space.n_points)]
    messages = [orthomap_violation(om.space, om) for om in maps]
    by_closure = []
    for om in maps:
        monkeypatch.setattr(props, "_law_failures",
                            functools.partial(law_failures_by_closure, om.space))
        by_closure.append(orthomap_violation(om.space, om))
    assert by_closure == messages
    laws = collections.Counter(map(law, messages))
    assert len(maps) == 1457, len(maps)
    assert laws == {"involution": 1437, "complement law": 13, None: 7}, laws
