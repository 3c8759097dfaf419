"""Independent oracles used to pin expected values.

These deliberately avoid the library's own code paths: closures are
recomputed by naive fixpoint scans, covers by scanning every subset of
the universe, and product families by filtering all subsets against the
defining conditions written out directly over decoded coordinates.  The
family scans that the library's join-based ``covers`` and ``coatoms`` and
its generator-only P4 check replaced are kept here as oracles, and so are
the join rule for coatoms that the closure operator's scan replaced,
the scan of all n! permutations that the automorphism search replaced,
the depth-first search over the whole group that the stabilizer chain
replaced, and the orthocomplementation search that tried every candidate coatom
and checked each complete assignment on every pair of elements, with the
validator that compared every pair for order reversal on the element-index
maps an ``OrthoMap`` once held (``index_images`` extends atom images to
that form), and the covering
check that asked ``covers`` once per (atom, element) pair, which the
per-call join table replaced, and that table as it was while it closed
each join a v q afresh, before the joins were read off the generators
above a, and the scan that read them so for every element, coatoms
included, before it skipped the coatoms and read a member a | q as the
join, and the incidence table of the generator
closure built one bit test at a time.  So is the Fraser builder that laid every
choice of closed sections, kept the regions whose every section is
closed and let ``from_closed_sets`` find the family again, which the
pruned lay replaced; it reads each section by coordinate replacement
through ``section``, not through the library's fiber masks.  So are the
``in_xi`` filter, which the circle builder's triples listed from
coordinates replaced, and the closure over every member but the full
set, which each space held before it kept only its meet-irreducible
members.
So are the point labels and the coordinate tables of a product universe
as its constructor built them, one test per id over the coordinate
tuples, before each coordinate mask became a shift of the ids whose
coordinate is 0.
So are the exact layer's operations that re-ran a row reduction on bases
that ``Subspace`` already holds reduced: membership, kernel and perp, here
over the ``Fraction``-pair row reduction, not the integer kernel, and the
construction that spanned a hyperplane of the 2x2 tensor square by its
product vectors, which the rank rule on its perp line replaced, and the
box membership that solved each plane's pencil with square roots in
Q(i) and answered "unknown" when they left it, which the discriminant
rule replaced, and that rule as it was while it formed the pencil in
Q(i) on the unit-pivot basis, before the forms were read off the integer
rows, with the minor loop that counted the members of a
two-atom pencil; a floating-point search for two rank-one members of a
plane checks the planes that decider left open.  The
Gaussian rational as a pair of ``Fraction`` parts, which the
integer-triple ``GQ`` replaced, is kept with the row reduction that the
Gaussian-integer kernel replaced and the seeded draws written over it by
``randint``, whose stream the library's ``choice`` draws must keep.  It
is the only scalar arithmetic here: a ``GQ`` is a value with no
arithmetic, so every Hilbert oracle computes over ``FractionGQ``.
So are the checks that the meet-irreducible members replaced: P4 on
every member's lifted image, coatomisticity by a closure over the
coatoms scanning every member, and the complement law by closing each
a | a'.  So is
the dual covering scan that closed x | a for each coatom x and member a,
which the bit test a & ~x replaced.  So is the orthocomplementation
search that built every atom's bucket table up front, looked up the bucket
of each candidate's next atom and checked each complete assignment at
every element, which the search that looks one atom ahead replaced.
"""

from __future__ import annotations

import cmath
import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from weaktensor.hilbert import GQ, Subspace, basis_vector, random_gq
from weaktensor.props import (
    DEFAULT_NODE_CAP, SEARCH_SET_CAP, CoveringFailure, ExhaustionCertificate, OrthoMap,
    SearchBudgetExceeded, _atom_meets, _law_failures,
)
from weaktensor.products import P4Violation, ProductUniverse
from weaktensor.spaces import (
    ClosureSpace, CoverWitness, DualOrderReport, _GeneratorClosure, bits, image,
)


def naive_intersection_closure(n_points: int, masks) -> set[int]:
    """Pairwise-intersection fixpoint, recomputed from scratch each round."""
    full = (1 << n_points) - 1
    family = {0, full} | {1 << i for i in range(n_points)} | set(masks)
    while True:
        extra = {a & b for a, b in itertools.combinations(family, 2)} - family
        if not extra:
            return family
        family |= extra


def incidence_by_comprehension(n: int, generators) -> list[int]:
    """Per-point incidence bitsets over the generator indices, one bit test
    per point and generator, as ``_GeneratorClosure`` built them before the
    transpose."""
    return [sum(1 << j for j, g in enumerate(generators) if g >> i & 1) for i in range(n)]


def closure_over_every_member(space) -> _GeneratorClosure:
    """The closure operator a space held before the meet-irreducible
    members replaced its generators: the meet of every member but the
    full set that contains the subset."""
    return _GeneratorClosure(space.n_points, space.masks[:-1])


def meet_irreducibles_by_definition(masks) -> list[int]:
    """The members of an ascending family that are not the meet of their
    strict supersets in it, the full set being the empty meet.  A strict
    superset has a larger mask, so only the members after m are scanned."""
    full = masks[-1]
    out = []
    for i, m in enumerate(masks):
        meet = full
        for c in masks[i + 1:]:
            if c & m == m:
                meet &= c
        if meet != m:
            out.append(m)
    return out


def brute_cover_check(space, a: int, b: int) -> bool:
    """Scan every subset of the universe for a closed strict intermediate."""
    assert space.n_points <= 16
    if a == b:
        return False
    for c in range(1 << space.n_points):
        if c in (a, b):
            continue
        if a & ~c == 0 and c & ~b == 0 and c in space:
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


def universe_tables_by_comprehension(factors) -> dict[str, tuple]:
    """The point labels and the per-factor tables of ``ProductUniverse``, as
    its constructor built them before it laid each coordinate mask as a
    shift of the ids whose coordinate is 0: one test per id and factor
    coordinate over the coordinate tuples."""
    sizes = tuple(f.n_points for f in factors)
    coords = tuple(itertools.product(*(range(s) for s in sizes)))
    strides = tuple(math.prod(sizes[beta + 1:]) for beta in range(len(factors)))
    return {
        "points": tuple(",".join(f.points[c] for f, c in zip(factors, cs)) for cs in coords),
        "coordinate_masks": tuple(
            tuple(sum(1 << pid for pid, c in enumerate(coords) if c[beta] == q)
                  for q in range(size))
            for beta, size in enumerate(sizes)),
        "fibers": tuple(
            tuple(sum(1 << pid + q * strides[beta] for q in range(size))
                  for pid, c in enumerate(coords) if c[beta] == 0)
            for beta, size in enumerate(sizes)),
        "coordinate_bits": tuple(tuple(1 << c[beta] for c in coords)
                                 for beta in range(len(sizes))),
    }


def replace(universe, pid: int, beta: int, q: int) -> int:
    """p[q, beta]: the flat id of the point with its beta-th coordinate
    replaced by q, re-encoded over the strides."""
    coords = list(decode(universe, pid))
    coords[beta] = q
    return sum(c * s for c, s in zip(coords, universe.strides))


def section(universe, region: int, beta: int, pid: int) -> int:
    """The beta-section of a region through a point, as a factor mask:
    {q in the beta-th factor | p[q, beta] in region}."""
    return sum(1 << q for q in range(universe.sizes[beta])
               if region >> replace(universe, pid, beta, q) & 1)


def in_xi(universe, region: int) -> bool:
    """Whether all coordinates are pairwise distinct across the region."""
    columns = zip(*(decode(universe, pid) for pid in bits(region)))
    return all(len(set(column)) == len(column) for column in columns)


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
            if sec not in factor:
                break
        else:
            out.add(region)
    return out


def fraser_by_laying(factors) -> ClosureSpace:
    """The Fraser product as ``fraser_product`` built it before the pruned
    lay: every choice of closed sections along the cheapest axis (ties to
    the later one) is laid, the regions whose every section is closed are
    kept, and ``from_closed_sets`` finds the family again."""
    universe = ProductUniverse(factors)
    # starts[beta]: one point per beta-fiber, the one with beta-th coordinate zero
    starts = [[pid for pid in range(universe.n_points) if decode(universe, pid)[beta] == 0]
              for beta in range(len(factors))]
    counts = [len(f) ** len(s) for f, s in zip(universe.factors, starts)]
    axis = min(range(len(factors)), key=lambda b: (counts[b], -b))
    regions = (sum(1 << replace(universe, pid, axis, q) for sec, pid in zip(choice, starts[axis])
                   for q in bits(sec))
               for choice in itertools.product(universe.factors[axis].masks,
                                               repeat=len(starts[axis])))
    family = [region for region in regions
              if all(section(universe, region, beta, pid) in f
                     for beta, f in enumerate(universe.factors) for pid in starts[beta])]
    return ClosureSpace.from_closed_sets(universe.points, family, product=universe)


def involutions(n: int) -> list[tuple[int, ...]]:
    """Every involutive map on range(n), as image tuples."""
    out = []

    def extend(images: list) -> None:
        if None not in images:
            out.append(tuple(images))
            return
        i = images.index(None)
        images[i] = i
        extend(images)
        for j in range(i + 1, n):
            if images[j] is None:
                images[i], images[j] = j, i
                extend(images)
                images[j] = None
        images[i] = None

    extend([None] * n)
    return out


def is_orthocomplementation(masks, full: int, images) -> bool:
    """Involution, order reversal, a ^ a' = 0 and a v a' = 1, checked
    directly on the listed family (meets are intersections in a closure
    space; joins come from ``closure_in_family``)."""
    family = set(masks)
    n = len(masks)
    if any(images[images[i]] != i for i in range(n)):
        return False
    for i in range(n):
        for j in range(n):
            if masks[i] & ~masks[j] == 0 and masks[images[j]] & ~masks[images[i]]:
                return False
    return all(masks[i] & masks[images[i]] == 0
               and closure_in_family(family, full, masks[i] | masks[images[i]]) == full
               for i in range(n))


def orthocomplementations_oracle(space) -> list[tuple[int, ...]]:
    """All orthocomplementations of a small space, as atom-image tuples,
    by filtering every involutive map of element indices."""
    masks = list(space.masks)
    assert len(masks) <= 8
    atoms = [masks.index(1 << i) for i in range(space.n_points)]
    return [tuple(masks[images[k]] for k in atoms) for images in involutions(len(masks))
            if is_orthocomplementation(masks, space.full_mask, images)]


def distinct_coordinate_sets(universe, size: int) -> set[int]:
    """Sets of ``size`` points whose coordinates differ pairwise in every
    factor."""
    coords = [decode(universe, pid) for pid in range(universe.n_points)]
    out = set()
    for combo in itertools.combinations(range(universe.n_points), size):
        if all(len({coords[pid][beta] for pid in combo}) == size
               for beta in range(len(universe.sizes))):
            out.add(sum(1 << pid for pid in combo))
    return out


def covers_by_family_scan(space, a: int, b: int):
    """Whether ``b`` covers ``a`` (a <= b), by scanning the family for a
    strict intermediate: True, or the least intermediate in mask order,
    or None when a == b."""
    if a == b:
        return None
    for c in space.masks:
        if c != a and c != b and a & ~c == 0 and c & ~b == 0:
            return c
    return True


def covering_by_pairwise_covers(space):
    """The covering check that ``has_covering_property`` replaced: for each
    atom p and each element a outside it, in that order, close p | a and
    ask ``covers`` whether the join covers a, so every join a v q is
    rebuilt once per atom.  True, or the first ``CoveringFailure``."""
    for p in space.atoms():
        for a in space.masks:
            if p & a:
                continue
            j = space.closure(p | a)
            c = space.covers(a, j)
            if c is not True:
                return CoveringFailure(atom=p, element=a, witness=c)
    return True


def covering_by_closure_table(space):
    """The covering check that ``ClosureSpace.covering_failure`` replaced:
    atom-major over the elements, with one row of joins a v q per element,
    filled on first use, each join a fresh closure of a | q.  It closes
    through ``closure_over_every_member``, so it shares no generators with
    the space.  True, or the first ``CoveringFailure``."""
    n, close = space.n_points, closure_over_every_member(space)
    # rows[k][q] is masks[k] v q, or 0 until first computed (a join is never empty)
    rows: list[Optional[list[int]]] = [None] * len(space)
    for i in range(n):
        for k, a in enumerate(space.masks):
            if a >> i & 1:
                continue
            row = rows[k]
            if row is None:
                row = rows[k] = [0] * n
            elif row[i]:
                # filled by an earlier check of a, which passed with upper row[i]
                continue
            j = row[i] = close(a | 1 << i)
            least = j
            for q in bits(j & ~a):
                jq = row[q] = row[q] or close(a | 1 << q)
                least = min(least, jq)
            if least != j:
                return CoveringFailure(atom=1 << i, element=a,
                                       witness=CoverWitness(lower=a, upper=j, intermediate=least))
    return True


def covering_failure_by_rows(space) -> Optional[tuple[int, CoverWitness]]:
    """The scan of ``ClosureSpace.covering_failure`` before it skipped the
    coatoms and read a member a | q as the join a v q: one row of joins
    per element, the full set's included, each join the meet of the
    generators above the element, picked once per row, that hold q.
    None, or the first failing atom with its witness."""
    n, masks = space.n_points, space.masks
    close = space._close
    meet, incidence = close.meet, close.incidence
    # rows[k][q] is masks[k] v q, or 0 until first computed (a join is never
    # empty), and rows[k][n] is the generators above masks[k]
    rows: list[Optional[list[int]]] = [None] * len(masks)
    for i in range(n):
        bit = 1 << i
        for k, a in enumerate(masks):
            if a & bit:
                continue
            row = rows[k]
            if row is None:
                row = rows[k] = [0] * n + [close.above(a)]
            elif row[i]:
                # filled by an earlier check of a, which passed with upper row[i]
                continue
            above = row[n]
            j = row[i] = meet(above & incidence[i])
            least = j
            for q in bits(j & ~a):
                jq = row[q] = row[q] or meet(above & incidence[q])
                least = min(least, jq)
            if least != j:
                return bit, CoverWitness(lower=a, upper=j, intermediate=least)
    return None


def coatoms_by_maximality(space) -> list[int]:
    """Proper elements below no other proper element, in mask order.

    Scans by decreasing size: a proper element is maximal iff no maximal
    element found so far contains it, since anything strictly above it
    is larger and lies below some maximal element."""
    maximal: list[int] = []
    for m in sorted(space.masks[:-1], key=int.bit_count, reverse=True):
        if not any(m & ~e == 0 for e in maximal):
            maximal.append(m)
    return sorted(maximal)


def coatoms_by_joins(space) -> list[int]:
    """Proper elements whose join with every point outside them is the full
    set, in mask order: the full set covers m iff every such join is it."""
    full = space.full_mask
    return [m for m in space.masks[:-1]
            if all(space.closure(m | 1 << q) == full
                   for q in range(space.n_points) if not m >> q & 1)]


def p4_by_all_tuples(candidate, universe, perm_lists):
    """The first tuple over the given factor permutation lists whose
    coordinate-wise lift maps some closed set outside the family, or
    None when every tuple lifts."""
    family = set(candidate.masks)
    for tup in itertools.product(*perm_lists):
        lifted = []
        for pid in range(universe.n_points):
            coords = decode(universe, pid)
            lifted.append(sum(perm[c] * stride
                              for perm, c, stride in zip(tup, coords, universe.strides)))
        for m in family:
            if sum(1 << lifted[pid] for pid in range(universe.n_points) if m >> pid & 1) not in family:
                return tup
    return None


def p4_over_every_member(candidate, universe, generators) -> Optional[P4Violation]:
    """``check_p4`` as it tested every member's image under each lifted
    one-generator tuple, the witness being the least failing member."""
    for beta, gens in enumerate(generators):
        for g in gens:
            v = g.point_perm
            lift = [1 << replace(universe, pid, beta, v[c[beta]])
                    for pid, c in enumerate(universe.coords)]
            for m in candidate.masks:
                img = image(m, lift)
                if img not in candidate:
                    return P4Violation(
                        factor_perms=tuple(v if b == beta else tuple(range(size))
                                           for b, size in enumerate(universe.sizes)),
                        witness=f"{universe.render_set(m)} maps to the non-closed "
                                f"{universe.render_set(img)}")
    return None


def dual_order_by_closing_joins(space) -> DualOrderReport:
    """``dual_order_check`` with x v a = 1 tested by closing x | a."""
    coatoms = space.coatoms()
    co_witness = next((m for m in space.meet_irreducibles() if m not in coatoms), None)
    for x in coatoms:
        for a in space.masks:
            if space.closure(x | a) == space.full_mask and space.covers(x & a, a) is not True:
                return DualOrderReport(co_witness is None, False, co_witness, (x, a))
    return DualOrderReport(co_witness is None, True, co_witness, None)


def coatomistic_witness_by_coatom_closure(space) -> Optional[int]:
    """The least member that is not a meet of coatoms, by a closure over the
    coatoms run on every member, or None when the space is coatomistic."""
    meet_of_coatoms = _GeneratorClosure(space.n_points, space.coatoms())
    return next((m for m in space.masks if meet_of_coatoms(m) != m), None)


def law_failures_by_closure(space, images):
    """Each (law, element) failure of an element map, given as a mask ->
    image dict, lazily, the complement law tested as the closure of a | a'
    being the full set."""
    full = space.full_mask
    yield from (("involution fails at", a) for a, b in images.items() if images[b] != a)
    yield from (("complement law fails at", a) for a, b in images.items()
                if space.closure(a | b) != full)


def automorphisms_by_scan(space) -> list[tuple[int, ...]]:
    """Every point permutation that maps each closed set to a closed set,
    in ``itertools.permutations`` order, by scanning all n! of them.

    Each permutation is tested against the closed sets of 2 to n - 1
    points and dropped at the first set whose image is not closed.  Sets
    of the sizes at which the fewest subsets are closed go first, as they
    reject the most.  Permutations are held as tuples of image bits, so
    the image of a set is the sum of its points' entries, and the tests run
    as a chain of lazy filters, one per set."""
    n = space.n_points
    members = set(space.masks)
    closed_of_size = collections.Counter(m.bit_count() for m in members)
    probes = sorted((m for m in space.masks if 1 < m.bit_count() < n),
                    key=lambda m: (closed_of_size[m.bit_count()] / math.comb(n, m.bit_count()), m))
    survivors = itertools.permutations([1 << i for i in range(n)])
    for m in probes:
        image_bits = operator.itemgetter(*(i for i in range(n) if m >> i & 1))
        perms, probe = itertools.tee(survivors)
        survivors = itertools.compress(
            perms, map(members.__contains__, map(sum, map(image_bits, probe))))
    return [tuple(bit.bit_length() - 1 for bit in perm) for perm in survivors]


def automorphisms_by_search(space) -> list[tuple[int, ...]]:
    """Every automorphism found by one depth-first search over the whole
    group, in ``itertools.permutations`` order: the search the stabilizer
    chain replaced.

    The points 0, 1, ... are mapped in turn, each to an unused point of
    the same colour (the sizes of the closed sets through a point), tried
    in increasing order.  A closed set is checked as soon as its highest
    point is mapped, unless it is the intersection of the larger closed
    sets with the same highest point."""
    n = space.n_points
    members, full = set(space.masks), space.full_mask
    colour = [sorted(m.bit_count() for m in space.masks if m >> i & 1) for i in range(n)]
    candidates = [[j for j in range(n) if colour[j] == colour[i]] for i in range(n)]
    by_top: list[list[int]] = [[] for _ in range(n)]
    for m in space.masks[1:]:
        by_top[m.bit_length() - 1].append(m)
    checks: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for i, same_top in enumerate(by_top):
        for m in same_top:
            if m.bit_count() < 2 or m == full:
                continue
            above = full
            for c in same_top:
                if c != m and c & m == m:
                    above &= c
            if above != m:
                checks[i].append(tuple(bits(m)))
    perm, image_bit, found = [0] * n, [0] * n, []

    def extend(i: int, used: int) -> None:
        for j in candidates[i]:
            bit = 1 << j
            if used & bit:
                continue
            image_bit[i] = bit
            if all(sum(image_bit[p] for p in points) in members for points in checks[i]):
                perm[i] = j
                if i + 1 < n:
                    extend(i + 1, used | bit)
                else:
                    found.append(tuple(perm))

    extend(0, 0)
    return found


def index_images(space: ClosureSpace, atoms: Sequence[int]) -> tuple[int, ...]:
    """The element-index form of the map with these atom images: the image
    of a nonzero element is the meet of its atoms' images, and the image of
    0 is 1.  Each meet of members is a member."""
    index = {m: i for i, m in enumerate(space.masks)}
    return tuple(index[functools.reduce(operator.and_, (atoms[i] for i in bits(m)),
                                        space.full_mask)]
                 for m in space.masks)


def element_image(om: OrthoMap, mask: int) -> int:
    """The image of an element under an ``OrthoMap``: the meet of its
    atoms' images, the full set for 0."""
    return functools.reduce(operator.and_, (om.atoms[i] for i in bits(mask)), om.space.full_mask)


def orthomap_violation_by_pairs(space: ClosureSpace, images: Sequence[int]) -> Optional[str]:
    """The validator that checked order reversal on every pair of elements,
    on a map of element indices.

    Name the first violated orthocomplementation law, if any."""
    n = len(space.masks)
    if len(images) != n:
        return "map does not index this space"
    if sorted(images) != list(range(n)):
        return "not a bijection on elements"
    for i, j in enumerate(images):
        if images[j] != i:
            return f"involution fails at {space.render_set(space.masks[i])!r}"
    masks = space.masks
    for i in range(n):
        for j in range(n):
            if masks[i] & ~masks[j] == 0:  # a <= b
                if masks[images[j]] & ~masks[images[i]]:
                    return ("order reversal fails on "
                            f"{space.render_set(masks[i])!r} <= {space.render_set(masks[j])!r}")
    full = space.full_mask
    for i in range(n):
        if space.closure(masks[i] | masks[images[i]]) != full:
            return f"complement law fails at {space.render_set(masks[i])!r}"
    return None


def extend_atom_images_by_violation(space: ClosureSpace, images_by_atom: Sequence[int]
                                    ) -> Optional[OrthoMap]:
    """Extend an atom -> coatom assignment to all elements and validate
    with ``orthomap_violation_by_pairs``.

    The image of a nonzero element is the meet of its atoms' images; the
    image of 0 is 1.  Returns the map only if all laws hold.
    """
    if orthomap_violation_by_pairs(space, index_images(space, images_by_atom)) is None:
        return OrthoMap(space, tuple(images_by_atom))
    return None


def find_orthocomplementation_by_scan(
    space: ClosureSpace,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Union[OrthoMap, ExhaustionCertificate]:
    """The orthocomplementation search that tries every candidate coatom
    in turn and runs the symmetry test on each, with the quadratic
    ``orthomap_violation_by_pairs`` at every complete assignment.

    Backtracking search for an orthocomplementation.

    Branches on the coatom image of each atom in canonical atom order,
    trying the coatoms in ascending mask order.  In an atomistic lattice
    the atom images determine the whole map, so exhausting the
    assignments decides existence; the certificate records the node
    count.  Candidates are pruned by p not in p', injectivity, and the
    symmetry q <= p' iff p <= q'.

    Raises SearchBudgetExceeded past ``node_cap`` nodes, and ValueError on
    a family of more than ``SEARCH_SET_CAP`` sets.  The search scans no
    subsets of the universe, so the point count alone does not bound it.
    """
    if len(space) > SEARCH_SET_CAP:
        raise ValueError(f"family of {len(space)} sets exceeds the search cap "
                         f"of {SEARCH_SET_CAP}")
    n = space.n_points
    coatoms = sorted(space.coatoms())
    candidates = [[c for c in coatoms if not c >> i & 1] for i in range(n)]
    chosen: list[int] = []
    used: set[int] = set()
    nodes = 0

    def dfs(i: int) -> Optional[OrthoMap]:
        nonlocal nodes
        if i == n:
            return extend_atom_images_by_violation(space, chosen)
        for c in candidates[i]:
            nodes += 1
            if nodes > node_cap:
                raise SearchBudgetExceeded(nodes)
            if c in used:
                continue
            # q in p' iff p in q', for every previously assigned q
            ok = True
            for j in range(i):
                if bool(c >> j & 1) != bool(chosen[j] >> i & 1):
                    ok = False
                    break
            if not ok:
                continue
            chosen.append(c)
            used.add(c)
            found = dfs(i + 1)
            if found is not None:
                return found
            used.discard(c)
            chosen.pop()
        return None

    found = dfs(0)
    if found is not None:
        return found
    return ExhaustionCertificate(nodes=nodes)


def symmetry_buckets(coatoms: Sequence[int], n: int
                     ) -> tuple[list[dict[int, list[tuple[int, int, int]]]], list[int]]:
    """The tables of ``find_orthocomplementation_by_buckets``: per atom i,
    its candidates (the coatoms without i, in order) bucketed by their
    points below i, and the candidate counts.

    The symmetry patterns of all atoms are packed in one int, atom t's in
    bits t*n .. t*n+n-1, where bit t*n+j says that atom j's image holds t.
    A bucket entry is (position, coatom, spread), the spread being the bits
    that choosing the coatom for atom i adds to the packed patterns.  The
    tables end with one entry for the complete assignments, whose pattern
    is always 0.
    """
    spread = {c: sum(1 << t * n for t in bits(c)) for c in coatoms}
    buckets: list[dict[int, list[tuple[int, int, int]]]] = []
    sizes = []
    for i in range(n):
        low = (1 << i) - 1
        table: dict[int, list[tuple[int, int, int]]] = {}
        k = 0  # the candidate's position
        for c in coatoms:
            if not c >> i & 1:
                table.setdefault(c & low, []).append((k, c, spread[c] << i))
                k += 1
        buckets.append(table)
        sizes.append(k)
    buckets.append({0: []})
    sizes.append(0)
    return buckets, sizes


def find_orthocomplementation_by_buckets(
    space: ClosureSpace,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Union[OrthoMap, ExhaustionCertificate]:
    """The orthocomplementation search that built every bucket table before
    it started, looked up the next atom's bucket once per candidate and
    checked each complete assignment at every element.

    ``nodes`` counts the candidates tried at every visited atom, rejected
    ones included.  The symmetry test fixes the points of p' below p, so
    each atom's candidates are bucketed by those points and only the
    bucket that passes is visited; the count is read off candidate
    positions, a finished atom adding its whole candidate list.  An atom
    whose bucket is empty is counted (its whole list, with the same budget
    test) without being visited.  The budget is tested at every position.
    """
    if len(space) > SEARCH_SET_CAP:
        raise ValueError(f"family of {len(space)} sets exceeds the search cap "
                         f"of {SEARCH_SET_CAP}")
    n = space.n_points
    cap = max(node_cap, 0)
    buckets, sizes = symmetry_buckets(space.coatoms(), n)
    field = (1 << n) - 1
    chosen: list[int] = []
    used: set[int] = set()
    nodes = 0

    def dfs(i: int, entries: list[tuple[int, int, int]], packed: int) -> Optional[OrthoMap]:
        # entries: the bucket of atom i that passes the symmetry test against the
        # atoms assigned so far, whose patterns packed holds
        nonlocal nodes
        if i == n:
            atoms = tuple(chosen)
            if any(_law_failures(_atom_meets(space, atoms))):
                return None
            return OrthoMap(space, atoms)
        j = i + 1
        shift, size = j * n, sizes[j]
        base = nodes  # the count less this atom's positions: position k counts base + k + 1
        for k, c, moved in entries:
            if base + k >= cap:
                raise SearchBudgetExceeded(cap + 1)
            if c in used:
                continue
            child = packed | moved
            below = buckets[j].get(child >> shift & field)
            if below is None:
                # no candidate of atom j passes the symmetry test: count its whole
                # list, with the budget test its visit would make
                base += size
                if base + k >= cap:
                    raise SearchBudgetExceeded(cap + 1)
                continue
            nodes = base + k + 1
            chosen.append(c)
            used.add(c)
            found = dfs(j, below, child)
            if found is not None:
                return found
            used.discard(c)
            chosen.pop()
            base = nodes - k - 1
        nodes = base + sizes[i]
        if nodes > cap:
            raise SearchBudgetExceeded(cap + 1)
        return None

    try:
        found = dfs(0, buckets[0].get(0, []), 0)
    finally:
        del dfs
    if found is not None:
        return found
    return ExhaustionCertificate(nodes=nodes)


def budget_stop(space: ClosureSpace, cap: int) -> Optional[str]:
    """Where the search stops on node ``cap`` + 1, read off the frame in which
    ``find_orthocomplementation_by_scan`` raises its budget error: the atom
    i of that node and the images chosen for the atoms before it.

    "ahead" if the node lies in an atom that passes no candidate on to the
    atom after it, or just below one (the look ahead counts such an atom
    whole, with the empty buckets below it), "empty" if it lies in another
    atom without candidates (counted whole from the atom before it),
    "visited" otherwise; None if
    the search ends within ``cap`` nodes.  Each test is written out over the
    coatoms from the symmetry q <= p' iff p <= q'.
    """
    try:
        find_orthocomplementation_by_scan(space, node_cap=cap)
    except SearchBudgetExceeded as exc:
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        i, chosen = tb.tb_frame.f_locals["i"], list(tb.tb_frame.f_locals["chosen"])
    else:
        return None
    n, coatoms = space.n_points, space.coatoms()

    def passing(atom: int, before: int) -> bool:
        # some candidate of atom passes the test against the atoms before `before`
        pattern = sum(1 << t for t in range(before) if chosen[t] >> atom & 1)
        low = (1 << before) - 1
        return any(not e >> atom & 1 and e & low == pattern for e in coatoms)

    def counted_ahead(atom: int) -> bool:
        return 0 < atom < n - 1 and not passing(atom + 1, atom)

    if counted_ahead(i - 1):  # the node lies below an atom counted whole
        return "ahead"
    if i and not passing(i, i):
        return "empty"
    return "ahead" if counted_ahead(i) else "visited"


def relabelled(space: ClosureSpace, perm: Sequence[int]) -> ClosureSpace:
    """The isomorphic copy of ``space`` that moves point i to ``perm[i]``,
    label included: the image of every mask under the point permutation.
    Its masks, and so the coatom order the search tries, differ from the
    original's unless ``perm`` is an automorphism."""
    points = [""] * space.n_points
    for i, j in enumerate(perm):
        points[j] = space.points[i]
    table = [1 << j for j in perm]
    return ClosureSpace.from_closed_sets(points, (image(m, table) for m in space.masks))


@dataclass(frozen=True)
class FractionGQ:
    """A Gaussian rational a + bi with exact rational parts."""

    re: Fraction
    im: Fraction

    def __add__(self, other: "FractionGQ") -> "FractionGQ":
        return FractionGQ(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "FractionGQ") -> "FractionGQ":
        return FractionGQ(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "FractionGQ":
        return FractionGQ(-self.re, -self.im)

    def __mul__(self, other: "FractionGQ") -> "FractionGQ":
        return FractionGQ(self.re * other.re - self.im * other.im,
                          self.re * other.im + self.im * other.re)

    def __truediv__(self, other: "FractionGQ") -> "FractionGQ":
        n = other.norm2()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return FractionGQ((self.re * other.re + self.im * other.im) / n,
                          (self.im * other.re - self.re * other.im) / n)

    def conj(self) -> "FractionGQ":
        return FractionGQ(self.re, -self.im)

    def norm2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def render(self) -> str:
        if not self.im:
            return str(self.re)
        im = f"{self.im}i"
        if not self.re:
            return im
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.render()


FRACTION_ZERO = FractionGQ(Fraction(0), Fraction(0))
FRACTION_ONE = FractionGQ(Fraction(1), Fraction(0))


def as_fraction_gq(z) -> FractionGQ:
    return FractionGQ(z.re, z.im)


def as_gq(z) -> GQ:
    return GQ(z.re, z.im)


def fraction_vector(v) -> tuple[FractionGQ, ...]:
    return tuple(map(as_fraction_gq, v))


def fraction_tensor(x, y) -> tuple[FractionGQ, ...]:
    """The product vector of two ``FractionGQ`` vectors, index (i, j) -> i * len(y) + j."""
    return tuple(a * b for a in x for b in y)


def fraction_inner(x, y) -> FractionGQ:
    """The Hermitian inner product of two vectors, conjugate-linear in the
    first slot, over ``FractionGQ``."""
    return sum((a.conj() * b for a, b in zip(fraction_vector(x), fraction_vector(y))),
               FRACTION_ZERO)


def conj_vector(v) -> tuple[GQ, ...]:
    """The entrywise conjugate of a ``GQ`` vector."""
    return tuple(GQ(a.re, -a.im) for a in v)


def fraction_normalize(x) -> tuple[FractionGQ, ...]:
    """A nonzero ``FractionGQ`` vector scaled so its first nonzero entry is 1."""
    lead = next(a for a in x if a)
    return tuple((FRACTION_ONE / lead) * a for a in x)


def contains_by_rref(subspace, v) -> bool:
    """Membership as a rank test on the basis plus v, by ``fraction_rref``."""
    red, _ = fraction_rref([list(map(as_fraction_gq, r)) for r in subspace.basis + (v,)])
    return len(red) == subspace.dim


def kernel_by_rref(rows, width: int) -> list:
    """Canonical basis of {x | rows . x = 0}, by ``fraction_rref``."""
    red, pivots = fraction_rref([list(map(as_fraction_gq, r)) for r in rows])
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for f in free:
        v = [FRACTION_ZERO] * width
        v[f] = FRACTION_ONE
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    canon, _ = fraction_rref(basis)
    return [tuple(GQ(a.re, a.im) for a in row) for row in canon]


def perp_by_kernel(subspace):
    """Orthocomplement as the kernel of the conjugated basis."""
    ambient = subspace.ambient
    if subspace.dim == 0:
        return Subspace(ambient, [basis_vector(ambient, k) for k in range(ambient)])
    rows = [[a.conj() for a in fraction_vector(b)] for b in subspace.basis]
    return Subspace(ambient, kernel_by_rref(rows, ambient))


_ROT = ((FRACTION_ZERO, -FRACTION_ONE), (FRACTION_ONE, FRACTION_ZERO))
_UNITS = ((FRACTION_ONE, FRACTION_ZERO), (FRACTION_ZERO, FRACTION_ONE))


def hyperplane_spanned_by_products(subspace) -> bool:
    """Whether a hyperplane of C^2 (x) C^2 is the span of product vectors
    it contains, by construction.  Its product vectors are the curve
    t -> t (x) Bt for B = rot . conj(A), A the transposed 2x2 matrix of the
    perp generator: the polarization triple t = e0, e1, e0 + e1, plus the
    slice ker(B) (x) C^2 when B has rank one."""
    if subspace.ambient != 4 or subspace.dim != 3:
        raise ValueError("need a hyperplane of the 2x2 tensor square")
    w = fraction_vector(subspace.perp().basis[0])
    a_mat = [[w[i * 2 + j] for i in range(2)] for j in range(2)]
    bmat = [[sum((_ROT[r][k] * a_mat[k][c].conj() for k in range(2)), FRACTION_ZERO)
             for c in range(2)] for r in range(2)]

    def apply_b(lam):
        return tuple(sum((bmat[r][k] * lam[k] for k in range(2)), FRACTION_ZERO)
                     for r in range(2))

    collected = []
    if not _det2(bmat):
        if bmat[0][0] or bmat[0][1]:
            ker = (bmat[0][1], -bmat[0][0])
        else:
            ker = (bmat[1][1], -bmat[1][0])
        if any(ker):
            collected.extend(fraction_tensor(ker, unit) for unit in _UNITS)
    for lam in (*_UNITS, (FRACTION_ONE, FRACTION_ONE)):
        blam = apply_b(lam)
        if any(blam):
            collected.append(fraction_tensor(lam, blam))
    return Subspace(4, [tuple(map(as_gq, v)) for v in collected]) == subspace


def sqrt_fraction(x: Fraction) -> Optional[Fraction]:
    """Exact nonnegative square root in Q, or None."""
    if x < 0:
        return None
    if x == 0:
        return Fraction(0)
    ns = math.isqrt(x.numerator)
    ds = math.isqrt(x.denominator)
    if ns * ns == x.numerator and ds * ds == x.denominator:
        return Fraction(ns, ds)
    return None


def gq_sqrt(z) -> Optional[FractionGQ]:
    """Exact square root in Q(i) of a ``GQ`` or ``FractionGQ``, as a
    ``FractionGQ``, or None when z is not a square there."""
    z = as_fraction_gq(z)
    if not z:
        return FRACTION_ZERO
    if not z.im:
        r = sqrt_fraction(z.re)
        if r is not None:
            return FractionGQ(r, Fraction(0))
        r = sqrt_fraction(-z.re)
        if r is not None:
            return FractionGQ(Fraction(0), r)
        return None
    n = sqrt_fraction(z.re * z.re + z.im * z.im)
    if n is None:
        return None
    half = Fraction(1, 2)
    u2 = (z.re + n) * half
    u = sqrt_fraction(u2)
    if u is None or u == 0:
        return None
    w = z.im / (2 * u)
    cand = FractionGQ(u, w)
    if cand * cand == z:
        return cand
    return None


def _as_matrix(v, m: int, n: int):
    return [[v[i * n + j] for j in range(n)] for i in range(m)]


def _det2(a):
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


_TWO = FractionGQ(Fraction(2), Fraction(0))
_FOUR = FractionGQ(Fraction(4), Fraction(0))


def _pencil_form(b0, b1):
    """The coefficients (a, b, c) of det(t0 M0 + t1 M1) = a t0^2 + b t0 t1 + c t1^2
    for the 2x2 matrices of two vectors of C^2 (x) C^2, as ``FractionGQ``:
    a = det M0, c = det M1 and b = det(M0 + M1) - a - c."""
    m0, m1 = (_as_matrix(fraction_vector(v), 2, 2) for v in (b0, b1))
    a, c = _det2(m0), _det2(m1)
    both = [[x + y for x, y in zip(r0, r1)] for r0, r1 in zip(m0, m1)]
    return a, _det2(both) - a - c, c


def pencil_rank1_status(b0, b1):
    """Rank-one vectors in a 2-dim pencil of 2x2 matrices.

    Returns ('all', []) when every pencil vector has rank <= 1,
    ('roots', vectors) with the exact rank-one lines otherwise, as
    ``FractionGQ`` vectors with a leading 1, or ('unknown', []) when the
    root field leaves Q(i).
    """
    a, b, c = _pencil_form(b0, b1)
    if not a and not b and not c:
        return "all", []
    roots = []
    if not a:
        roots.append((FRACTION_ONE, FRACTION_ZERO))
        if b:
            roots.append((-c / b, FRACTION_ONE))
    else:
        s = gq_sqrt(b * b - _FOUR * a * c)
        if s is None:
            return "unknown", []
        two_a = _TWO * a
        roots.append(((-b + s) / two_a, FRACTION_ONE))
        if s:
            roots.append(((-b - s) / two_a, FRACTION_ONE))
    vectors = []
    b0, b1 = fraction_vector(b0), fraction_vector(b1)
    for t0, t1 in roots:
        v = tuple(t0 * x + t1 * y for x, y in zip(b0, b1))
        if any(v) and fraction_normalize(v) not in vectors:
            vectors.append(fraction_normalize(v))
    return "roots", vectors


def _spanned_by_pencil(v) -> bool:
    if v.dim == 1:
        return not _det2(_as_matrix(fraction_vector(v.basis[0]), 2, 2))
    if v.dim != 2:
        return True
    a, b, c = _pencil_form(*v.basis)
    return not (a or b or c) or bool(b * b - _FOUR * a * c)


def box_verdict_by_roots(subspace) -> str:
    """'in-box', 'not-in-box' or 'unknown' for a subspace of C^2 (x) C^2:
    a line or hyperplane by the rank of the one line among it and its
    perp, a plane and its perp each by the Q(i) rank-one lines of its
    pencil, 'unknown' when those need roots outside Q(i)."""
    d = subspace.dim
    if d in (0, 4):
        return "in-box"
    if d != 2:
        line = subspace if d == 1 else subspace.perp()
        m = _as_matrix(fraction_vector(line.basis[0]), 2, 2)
        return "not-in-box" if _det2(m) else "in-box"
    sides = []
    for plane in (subspace, subspace.perp()):
        status, vectors = pencil_rank1_status(*plane.basis)
        if status == "roots" and len(vectors) < 2:
            return "not-in-box"
        sides.append(status)
    return "unknown" if "unknown" in sides else "in-box"


def box_verdict_by_pencil(subspace) -> str:
    """'in-box' or 'not-in-box' for a subspace of C^2 (x) C^2, by the
    discriminant rule on the ``FractionGQ`` entries of the unit-pivot
    basis of it and of its perp: a line's determinant, and a plane's
    pencil form (a, b, c) with b^2 - 4ac, each formed in Q(i)."""
    spanned = _spanned_by_pencil(subspace) and _spanned_by_pencil(subspace.perp())
    return "in-box" if spanned else "not-in-box"


def _complex_entries(v) -> list[complex]:
    return [complex(float(z.re), float(z.im)) for z in v]


def two_rank_one_members_by_cmath(plane) -> bool:
    """Whether a plane of C^2 (x) C^2 holds two linearly independent
    rank-one members, found in floating point: the roots (t0, t1) of
    det(t0 B0 + t1 B1) by the quadratic formula in ``cmath``, each member
    t0 B0 + t1 B1 checked to have a negligible determinant and the two
    checked independent by their largest 2x2 coordinate minor."""
    if plane.ambient != 4 or plane.dim != 2:
        raise ValueError("need a plane of the 2x2 tensor square")
    b0, b1 = (_complex_entries(v) for v in plane.basis)
    a = b0[0] * b0[3] - b0[1] * b0[2]
    c = b1[0] * b1[3] - b1[1] * b1[2]
    b = b0[0] * b1[3] + b1[0] * b0[3] - b0[1] * b1[2] - b1[1] * b0[2]
    eps = 1e-9
    if max(abs(a), abs(b), abs(c)) < eps:
        roots = [(1, 0), (0, 1)]
    elif abs(a) < eps:
        roots = [(1, 0)] + ([(-c / b, 1)] if abs(b) >= eps else [])
    else:
        s = cmath.sqrt(b * b - 4 * a * c)
        roots = [((-b + s) / (2 * a), 1), ((-b - s) / (2 * a), 1)]
    members = [[t0 * x + t1 * y for x, y in zip(b0, b1)] for t0, t1 in roots]
    for v in members:
        size = max(abs(x) for x in v)
        if size < eps or abs(v[0] * v[3] - v[1] * v[2]) > eps * size * size:
            return False
    if len(members) < 2:
        return False
    u, w = members
    minor = max(abs(u[i] * w[j] - u[j] * w[i]) for i, j in itertools.combinations(range(4), 2))
    return minor > 1e-6 * max(map(abs, u)) * max(map(abs, w))


def pencil_members_exactly_two_by_minors(a, b, m: int, n: int) -> bool:
    """Exactly two product lines in the span of two product vectors, by
    the determinant of each 2x2 minor of both generators and of their sum."""
    ma = _as_matrix(fraction_vector(a.product_vector()), m, n)
    mb = _as_matrix(fraction_vector(b.product_vector()), m, n)
    mixed_nonzero = False
    for r0, r1 in itertools.combinations(range(m), 2):
        for c0, c1 in itertools.combinations(range(n), 2):
            suba = [[ma[r0][c0], ma[r0][c1]], [ma[r1][c0], ma[r1][c1]]]
            subb = [[mb[r0][c0], mb[r0][c1]], [mb[r1][c0], mb[r1][c1]]]
            if _det2(suba) or _det2(subb):
                return False  # a generator is not a product vector
            both = [[suba[i][j] + subb[i][j] for j in range(2)] for i in range(2)]
            if _det2(both):
                mixed_nonzero = True
    return mixed_nonzero


def fraction_rref(rows):
    """The reduced row echelon form with unit pivots, zero rows dropped, over
    ``FractionGQ`` entries: the reduced rows and their pivot columns."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    cols = len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = FRACTION_ONE / m[r][c]
        m[r] = [inv * a for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def fraction_random_gq(rng) -> FractionGQ:
    """``hilbert.random_gq`` drawing ``FractionGQ`` values by ``randint``; the
    library draws by ``choice``, which must leave the same stream."""
    return FractionGQ(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                      Fraction(rng.randint(-3, 3), rng.randint(1, 3)))


def random_vector(rng, dim: int) -> tuple[GQ, ...]:
    """``dim`` draws of ``random_gq``, drawn again while all are zero: the
    draws of the removed ``hilbert.random_vector``, so seeded data stay the
    same.  ``dim`` must be at least 1, or the loop never ends."""
    while True:
        v = tuple(random_gq(rng) for _ in range(dim))
        if any(v):
            return v


def fraction_random_vector(rng, dim: int):
    while True:
        v = tuple(fraction_random_gq(rng) for _ in range(dim))
        if any(v):
            return v


def fraction_random_pair(rng, m: int, n: int):
    """The two scale-canonical vectors ``hilbert.random_pair`` draws."""
    return tuple(fraction_normalize(fraction_random_vector(rng, k)) for k in (m, n))


def fraction_random_subspace(rng, ambient: int):
    """The reduced rows ``hilbert.random_subspace`` draws."""
    k = rng.randint(0, ambient)
    return fraction_rref([fraction_random_vector(rng, ambient) for _ in range(k)])[0]


def fraction_random_antilinear(rng, m: int, n: int):
    """The matrix ``hilbert.random_antilinear`` draws."""
    while True:
        mat = tuple(tuple(fraction_random_gq(rng) for _ in range(m)) for _ in range(n))
        if any(map(any, mat)):
            return mat
