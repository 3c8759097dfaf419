"""Every product builder against the independent oracles in ``helpers``.

Covers each two-factor box, Fraser and circle product over the stock
factors within the universe caps, plus one three-factor box: box and
circle families against the naive intersection closure of the cylinders
(and of the xi triples), Fraser families against the subset scan of
``fraser_family_oracle`` up to 16 points and a line-by-line filter above.
"""

from __future__ import annotations

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    closure_in_family,
    cylinder_oracle,
    decode,
    fraser_family_oracle,
    naive_intersection_closure,
)

from weaktensor import box_product, fraser_product, mo_circle, mo_space, powerset_space, two_space
from weaktensor.spaces import MAX_POINTS, SCAN_POINTS

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
        if n <= SCAN_POINTS:
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
        if all(factors[other].is_closed(c) for c in cross):
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


@pytest.mark.parametrize("case", CASES)
def test_family_matches_oracle(case):
    space = built(case)
    universe = space.product
    assert universe.cylinders and set(universe.cylinders) == cylinder_oracle(universe)
    assert space.masks == tuple(sorted(oracle_family(case, universe)))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_closure_matches_family_closure(data):
    space = built(data.draw(st.sampled_from(CASES)))
    subset = data.draw(st.integers(min_value=0, max_value=space.full_mask))
    assert space.closure(subset) == closure_in_family(set(space.masks), space.full_mask, subset)
