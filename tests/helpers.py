"""Independent oracles used to pin expected values.

These deliberately avoid the library's own code paths: closures are
recomputed by naive fixpoint scans, covers by scanning every subset of
the universe, and product families by filtering all subsets against the
defining conditions written out directly over decoded coordinates.
"""

from __future__ import annotations

import itertools


def naive_intersection_closure(n_points: int, masks) -> set[int]:
    """Pairwise-intersection fixpoint, recomputed from scratch each round."""
    full = (1 << n_points) - 1
    family = {0, full} | {1 << i for i in range(n_points)} | set(masks)
    while True:
        extra = {a & b for a, b in itertools.combinations(family, 2)} - family
        if not extra:
            return family
        family |= extra


def brute_cover_check(space, a: int, b: int) -> bool:
    """Scan every subset of the universe for a closed strict intermediate."""
    assert space.n_points <= 16
    if a == b:
        return False
    for c in range(1 << space.n_points):
        if c in (a, b):
            continue
        if a & ~c == 0 and c & ~b == 0 and space.is_closed(c):
            return False
    return True


def closure_in_family(family: set[int], full: int, subset: int) -> int:
    out = full
    for m in family:
        if subset & ~m == 0:
            out &= m
    return out


def decode(universe, pid: int):
    out = []
    rem = pid
    for size in reversed(universe.sizes):
        out.append(rem % size)
        rem //= size
    return tuple(reversed(out))


def cylinder_oracle(universe) -> set[int]:
    """Points with some coordinate in its factor's component, per tuple
    of factor elements."""
    cylinders = set()
    for combo in itertools.product(*(f.masks for f in universe.factors)):
        cyl = 0
        for pid in range(universe.n_points):
            coords = decode(universe, pid)
            if any(a >> c & 1 for a, c in zip(combo, coords)):
                cyl |= 1 << pid
        cylinders.add(cyl)
    return cylinders


def box_family_oracle(universe) -> set[int]:
    """Subsets that equal the intersection of the cylinders above them."""
    assert universe.n_points <= 9
    cylinders = cylinder_oracle(universe)
    full = (1 << universe.n_points) - 1
    out = set()
    for region in range(1 << universe.n_points):
        inter = full
        for cyl in cylinders:
            if region & ~cyl == 0:
                inter &= cyl
        if inter == region:
            out.add(region)
    return out


def fraser_family_oracle(universe) -> set[int]:
    """Subsets whose every coordinate section is closed, by the definition."""
    assert universe.n_points <= 16
    # the line through every point along every coordinate, as flat ids
    lines = set()
    for beta in range(len(universe.factors)):
        for pid in range(universe.n_points):
            base = decode(universe, pid)
            line = []
            for q in range(universe.sizes[beta]):
                coords = list(base)
                coords[beta] = q
                line.append(sum(c * s for c, s in zip(coords, universe.strides)))
            lines.add((beta, tuple(line)))
    checks = [(universe.factors[beta], line) for beta, line in sorted(lines)]
    out = set()
    for region in range(1 << universe.n_points):
        for factor, line in checks:
            sec = 0
            for q, flat in enumerate(line):
                if region >> flat & 1:
                    sec |= 1 << q
            if not factor.is_closed(sec):
                break
        else:
            out.add(region)
    return out
