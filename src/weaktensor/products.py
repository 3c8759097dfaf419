"""Weak tensor products: box and Fraser constructions, the beta-join
calculus, the MO circle product, product axioms, and the sharp
orthocomplementation on the box product.

A product universe identifies tuples over the factor point sets with
flat point ids via a mixed-radix scheme; all set arguments are bitmasks
over those flat ids, and factor automorphisms are point permutation
tuples.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, reduce
from operator import and_, or_
from typing import NamedTuple, Optional, Sequence, Union

from .props import OrthoMap, orthomap_violation
from .spaces import (
    FAMILY_CAP, MAX_POINTS, ClosureSpace, bits, image, intersection_closure, require_int,
    require_permutation, require_points, unchecked_space,
)


class ProductUniverse:
    """Mixed-radix indexing of a product of factor point sets."""

    def __init__(self, factors: Sequence[ClosureSpace]):
        if len(factors) < 2:
            raise ValueError("a product needs at least two factors")
        self.factors = tuple(factors)
        self.sizes = tuple(f.n_points for f in factors)
        self.n_points = math.prod(self.sizes)
        if self.n_points > MAX_POINTS:
            raise ValueError(f"product universe of {self.n_points} points exceeds "
                             f"the cap of {MAX_POINTS}")
        # coords[pid]: the coordinates of a flat id, the last one varying fastest
        self.coords = tuple(itertools.product(*(range(s) for s in self.sizes)))
        self.strides = tuple(math.prod(self.sizes[beta + 1:]) for beta in range(len(factors)))
        self.points = tuple(map(",".join, itertools.product(*(f.points for f in factors))))
        # a factor label with a comma can make two tuples one label
        if len(set(self.points)) != len(self.points):
            raise ValueError("point labels must be unique")
        coordinate_masks, fibers, coordinate_bits = [], [], []
        for size, stride in zip(self.sizes, self.strides):
            # the ids whose coordinate is 0: one run of stride ids per period
            period = size * stride
            zero = sum(((1 << stride) - 1) << start for start in range(0, self.n_points, period))
            # mask q holds the ids whose coordinate is q
            coordinate_masks.append(tuple(zero << q * stride for q in range(size)))
            # the fibers: the ids that agree off this coordinate, one fiber per
            # id with the coordinate zero
            unit = sum(1 << q * stride for q in range(size))
            fibers.append(tuple(unit << pid for pid in bits(zero)))
            # the coordinate of a flat id as a factor bit, the point map that
            # reads a section off a fiber
            coordinate_bits.append(tuple(1 << pid // stride % size
                                         for pid in range(self.n_points)))
        self.coordinate_masks = tuple(coordinate_masks)
        self.fibers = tuple(fibers)
        self.coordinate_bits = tuple(coordinate_bits)

    @property
    def full_mask(self) -> int:
        return (1 << self.n_points) - 1

    def encode(self, coords: Sequence[int]) -> int:
        """The flat id of a coordinate tuple; a tuple of the wrong length or a
        coordinate that is no int raises ValueError, and a coordinate
        outside its factor IndexError."""
        if len(coords) != len(self.sizes):
            raise ValueError(f"expected {len(self.sizes)} coordinates, got {len(coords)}")
        return sum(self._coordinate(beta, c) * stride
                   for beta, (c, stride) in enumerate(zip(coords, self.strides)))

    def _coordinate(self, beta: int, q: int) -> int:
        if not 0 <= require_int(q, "coordinate") < self.sizes[beta]:
            raise IndexError(f"coordinate {q} is outside factor {beta + 1}")
        return q

    def preimage_mask(self, beta: int, factor_mask: int) -> int:
        """Flat mask of the cylinder over one factor element; a factor index
        or a mask outside the factors, or one that is no int, is a ValueError."""
        _check_factor_index(self, beta)
        if require_int(factor_mask, "factor mask") & ~((1 << self.sizes[beta]) - 1):
            raise ValueError(f"factor mask {factor_mask} uses points outside factor {beta + 1}")
        return image(factor_mask, self.coordinate_masks[beta])

    def cylinder_mask(self, components: Sequence[int]) -> int:
        """Union over factors of the coordinate preimages of the components,
        one per factor."""
        _check_per_factor(self, components, "components")
        return reduce(or_, map(self.preimage_mask, range(len(components)), components))

    @cached_property
    def cylinders(self) -> tuple[int, ...]:
        """The distinct cylinders, one per tuple of factor elements, in
        first-seen order over ``itertools.product`` of the factor families."""
        combos = itertools.product(*(f.masks for f in self.factors))
        return tuple(dict.fromkeys(reduce(or_, map(image, combo, self.coordinate_masks))
                                   for combo in combos))

    def full_box_mask(self, components: Sequence[int]) -> int:
        """The full box prod_a of one element per factor, as a flat mask."""
        _check_per_factor(self, components, "components")
        return reduce(and_, map(self.preimage_mask, range(len(components)), components))

    def render_set(self, mask: int) -> str:
        return " ".join(self.points[i] for i in bits(mask)) or "-"


# -- sections and the beta-join calculus -------------------------------------
#
# The section of a region on a beta-fiber is the factor mask
# image(region & fiber, coordinate_bits[beta]), and a factor mask sec is
# laid back on the fiber as fiber & image(sec, coordinate_masks[beta]).

def _check_region(universe: ProductUniverse, region: int) -> None:
    if require_int(region, "region") & ~universe.full_mask:
        raise ValueError("region uses points outside the universe")


def _check_factor_index(universe: ProductUniverse, beta: int) -> None:
    # a negative index would pick a factor from the end
    if not 0 <= require_int(beta, "factor index") < len(universe.factors):
        raise ValueError(f"factor index {beta} is outside 0..{len(universe.factors) - 1}")


def beta_join(universe: ProductUniverse, region: int, beta: int) -> int:
    """Close every beta-fiber of the region in its factor.

    Extensive, monotone and idempotent in the region argument.
    """
    _check_region(universe, region)
    _check_factor_index(universe, beta)
    return _beta_join(universe, region, beta)


def _beta_join(universe: ProductUniverse, region: int, beta: int) -> int:
    close, coordinate_bits = universe.factors[beta].closure, universe.coordinate_bits[beta]
    coordinate_masks = universe.coordinate_masks[beta]
    out = 0
    for fiber in universe.fibers[beta]:
        if region & fiber:
            sec = close(image(region & fiber, coordinate_bits))
            out |= fiber & image(sec, coordinate_masks)
    return out


def beta_join_sequence(universe: ProductUniverse, region: int,
                       betas: Sequence[int]) -> list[int]:
    """The iterates R^0, R^1, ... under the given beta-join order."""
    _check_region(universe, region)
    for b in betas:
        _check_factor_index(universe, b)
    out = [region]
    for b in betas:
        out.append(_beta_join(universe, out[-1], b))
    return out


def fraser_join(universe: ProductUniverse, region: int) -> int:
    """Round-robin beta-join fixpoint; equals the Fraser-product join."""
    _check_region(universe, region)
    cur = region
    while True:
        nxt = cur
        for beta in range(len(universe.factors)):
            nxt = _beta_join(universe, nxt, beta)
        if nxt == cur:
            return cur
        cur = nxt


def in_fraser(universe: ProductUniverse, region: int) -> bool:
    """Membership in the Fraser product: every section closed in its factor."""
    _check_region(universe, region)
    return all(image(region & fiber, coordinate_bits) in factor
               for factor, fibers, coordinate_bits
               in zip(universe.factors, universe.fibers, universe.coordinate_bits)
               for fiber in fibers)


def box_join(universe: ProductUniverse, region: int) -> int:
    """Intersection of all cylinders containing the region."""
    _check_region(universe, region)
    out = universe.full_mask
    for cyl in universe.cylinders:
        if region & ~cyl == 0:
            out &= cyl
    return out


# -- product constructions ----------------------------------------------------

def box_product(factors: Sequence[ClosureSpace]) -> ClosureSpace:
    """Intersection-closure of all cylinders: the least weak tensor product."""
    universe = ProductUniverse(factors)
    return ClosureSpace.from_closed_sets(universe.points, universe.cylinders, product=universe)


def fraser_product(factors: Sequence[ClosureSpace]) -> ClosureSpace:
    """All regions with every section closed: the greatest weak tensor product.

    Lays closed sections along the cheapest axis, one fiber at a time (see
    ``_fraser_regions``), and builds the space straight from the sorted
    family, which is intersection-closed by construction.  That axis has
    |closed sets of its factor| ** |fibers| choices, a bound on the family;
    ValueError is raised, before any region is laid, when that exceeds
    ``FAMILY_CAP``.
    """
    universe = ProductUniverse(factors)
    counts = [len(f) ** len(fibers) for f, fibers in zip(universe.factors, universe.fibers)]
    # ties go to the later axis; the family is sorted, so the axis does not change it
    axis = min(range(len(factors)), key=lambda b: (counts[b], -b))
    if counts[axis] > FAMILY_CAP:
        raise ValueError(f"Fraser family of up to {counts[axis]} sets exceeds the cap "
                         f"of {FAMILY_CAP} sets")
    family = sorted(_fraser_regions(universe, axis))
    return unchecked_space(universe.points, family, product=universe)


def _fraser_regions(universe: ProductUniverse, axis: int) -> list[int]:
    """Every region whose sections are all closed, laid depth first along
    ``axis``.

    Fiber k of the axis gets each closed set of its factor in turn, so the
    axis sections are never checked.  A partial region is one packed int:
    bits [0, n) hold the region, and the n bits from s * n hold the
    sections of cross axis s (1-based, skipping ``axis``), one run per
    fiber.  The axis fibers that meet a cross fiber differ only in its
    coordinate and are laid in ascending order, so after fiber k the
    section is final up to coordinate t, where they meet, and must there
    be the trace of a closed set; at the last coordinate the traces are
    the closed sets themselves.  A failing check drops every region
    below that choice.  The search is one level deep per fiber, at most
    20 under ``FAMILY_CAP``, as every factor has at least two
    closed sets.
    """
    n, fibers = universe.n_points, universe.fibers[axis]
    on_axis = {pid: k for k, fiber in enumerate(fibers) for pid in bits(fiber)}
    # where[pid]: the bit of the point in the region and in each cross field
    where = [1 << pid for pid in range(n)]
    # checks[k]: (shift, width, traces) for each cross fiber that meets
    # fiber k; a check whose traces hold every pattern is left out, as it
    # prunes nothing
    checks: list[list[tuple]] = [[] for _ in fibers]
    cross = (beta for beta in range(len(universe.factors)) if beta != axis)
    for s, beta in enumerate(cross, 1):
        size, masks = universe.sizes[beta], universe.factors[beta].masks
        width = (1 << size) - 1
        # traces[t]: the closed sets cut to coordinates 0..t
        traces = [frozenset(m & (2 << t) - 1 for m in masks) for t in range(size)]
        for j, fiber in enumerate(universe.fibers[beta]):
            shift = s * n + j * size
            for pid in bits(fiber):
                t = universe.coords[pid][beta]
                where[pid] |= 1 << shift + t
                if len(traces[t]) < 2 << t:
                    checks[on_axis[pid]].append((shift, width, traces[t]))
    # the fibers are disjoint, so a choice is the sum of its laid parts
    laid = [[image(fiber & image(sec, universe.coordinate_masks[axis]), where)
             for sec in universe.factors[axis].masks] for fiber in fibers]
    last, full = len(fibers) - 1, universe.full_mask
    regions: list[int] = []

    def lay(k: int, below: int) -> None:
        meets = checks[k]
        for part in laid[k]:
            region = below + part
            for shift, width, traces in meets:
                if region >> shift & width not in traces:
                    break
            else:
                if k == last:
                    regions.append(region & full)
                else:
                    lay(k + 1, region)

    lay(0, 0)
    # lay refers to itself, a reference cycle that would keep the laid
    # sections alive until the next full garbage collection
    del lay
    return regions


def check_circle_factors(factors: Sequence[ClosureSpace]) -> None:
    """The circle product's factor rule, a ValueError unless every factor is
    an MO lattice with at least three atoms."""
    for s in factors:
        expected = {0, s.full_mask} | {1 << i for i in range(s.n_points)}
        if set(s.masks) != expected:
            raise ValueError("circle product factors must be MO lattices")
        if s.n_points < 3:
            raise ValueError("circle product factors need at least three atoms")


def mo_circle(first: ClosureSpace, second: ClosureSpace) -> ClosureSpace:
    """The circle product of two MO lattices: the box product plus all
    3-element sets with pairwise distinct coordinates.

    That the intersection-closure of the cylinders and triples adds no
    other set is verified at build time instead of trusted (see
    ``_check_circle_pairs``).  The covering/uniqueness statements target
    sizes 3 or >= 5; the construction itself only needs >= 3 atoms per
    factor.
    """
    check_circle_factors((first, second))
    universe = ProductUniverse([first, second])
    box = intersection_closure(universe.full_mask, universe.cylinders)
    xi = _xi_triples(universe)
    _check_circle_pairs(box, xi)
    return unchecked_space(universe.points, sorted(box.union(xi)), product=universe)


def _xi_triples(universe: ProductUniverse) -> list[int]:
    """The 3-element regions of a two-factor universe with pairwise distinct
    coordinates: three first coordinates, ascending, each paired with its
    own second coordinate."""
    stride = universe.strides[0]
    return [1 << a * stride + x | 1 << b * stride + y | 1 << c * stride + z
            for a, b, c in itertools.combinations(range(universe.sizes[0]), 3)
            for x, y, z in itertools.permutations(range(universe.sizes[1]), 3)]


def _check_circle_pairs(box: set[int], xi: Sequence[int]) -> None:
    """Raise AssertionError unless the box family plus the triples is
    intersection-closed.

    A triple meets a box member or another triple in a part of itself,
    and the box family holds the empty set and the singletons, so the
    union is closed iff every 2-element part of every triple is a box
    member.
    """
    if any(t ^ 1 << p not in box for t in xi for p in bits(t)):
        raise AssertionError("circle product family is not the box product plus the xi triples")


# -- product axioms -----------------------------------------------------------

class AxiomViolation(NamedTuple):
    axiom: str
    witness: str


def check_p1_p2_p3(candidate: ClosureSpace, universe: ProductUniverse
                   ) -> Optional[AxiomViolation]:
    """Check the weak-tensor-product axioms on a candidate family.

    The point indexing must match the universe; every cylinder must be
    closed; and every closed set confined to a single fiber must project
    to a closed set of its factor.  Returns the first violation, or None.
    """
    if candidate.points != universe.points:
        return AxiomViolation("P1", "points are not the product of the factor points")
    for cyl in universe.cylinders:
        if cyl not in candidate:
            return AxiomViolation(
                "P2", "missing cylinder " + universe.render_set(cyl))
    for beta, (factor, fibers) in enumerate(zip(universe.factors, universe.fibers)):
        coordinate_bits = universe.coordinate_bits[beta]
        for region in candidate.masks:
            for fiber in fibers:
                # a nonempty region lies in at most one fiber; the empty
                # region lies in the first, where its empty section is closed
                if region & ~fiber == 0:
                    sec = image(region & fiber, coordinate_bits)
                    if sec not in factor:
                        return AxiomViolation(
                            "P3", f"{universe.render_set(region)} projects to the non-closed "
                                  f"{factor.render_set(sec)} in factor {beta + 1}")
                    break
    return None


def _check_per_factor(universe: ProductUniverse, given: Sequence, what: str) -> None:
    """Refuse a per-factor list of the wrong length: a short one would pass
    over the factors it misses."""
    if len(given) != len(universe.factors):
        raise ValueError(f"{len(universe.factors)} factors but {len(given)} {what}")


class P4Violation(NamedTuple):
    factor_perms: tuple[tuple[int, ...], ...]
    witness: str


def check_p4(candidate: ClosureSpace, universe: ProductUniverse,
             generators: Sequence[Sequence[Sequence[int]]]) -> Optional[P4Violation]:
    """Check that every product of factor automorphisms lifts.

    ``generators`` holds one list of point permutations per factor.  Each
    given factor automorphism v is lifted alone, with the identity on the
    other factors: p -> p[v(p_beta), beta].  Lifting is a homomorphism and
    maps that preserve the family compose, so every tuple in the groups
    generated per factor lifts iff these do; a lift, a bijection, keeps the
    family iff it keeps each meet-irreducible member.  Returns the first
    failing one-generator tuple and least such member.  A universe over
    other points than the candidate's, or a permutation that is no
    permutation of its factor's points, is a ValueError.
    """
    require_points(candidate, universe)
    _check_per_factor(universe, generators, "generator lists")
    for beta, gens in enumerate(generators):
        stride, size = universe.strides[beta], universe.sizes[beta]
        for g in gens:
            v = require_permutation(g, size, f"factor {beta + 1} generator")
            lift = [1 << pid + (v[c[beta]] - c[beta]) * stride
                    for pid, c in enumerate(universe.coords)]
            for m in candidate.meet_irreducibles():
                img = image(m, lift)
                if img not in candidate:
                    return P4Violation(
                        factor_perms=tuple(v if b == beta else tuple(range(size))
                                           for b, size in enumerate(universe.sizes)),
                        witness=f"{universe.render_set(m)} maps to the non-closed "
                                f"{universe.render_set(img)}")
    return None


# -- the sharp orthocomplementation on the box product ------------------------

class SharpMap(NamedTuple):
    """Factor orthocomplementations and the product map they induce.

    On a point, the image is the union over factors of the coordinate
    preimages of the factor orthocomplements; on larger elements it is
    the meet of the point images.
    """

    factor_maps: tuple[OrthoMap, ...]
    product_map: OrthoMap


def sharp_map(box_space: ClosureSpace, factor_maps: Sequence[OrthoMap]) -> SharpMap:
    universe = box_space.product
    if universe is None:
        raise ValueError("no product structure registered for this space")
    _check_per_factor(universe, factor_maps, "factor maps")
    for beta, om in enumerate(factor_maps):
        bad = orthomap_violation(universe.factors[beta], om)
        if bad is not None:
            raise ValueError(f"factor {beta + 1} orthocomplementation invalid: {bad}")
    points = tuple(universe.cylinder_mask([om.atoms[q] for om, q in zip(factor_maps, c)])
                   for c in universe.coords)
    return SharpMap(factor_maps=tuple(factor_maps), product_map=OrthoMap(box_space, points))


# -- coatom structure ----------------------------------------------------------

class CoatomNonConformance(NamedTuple):
    detail: str


def decompose_coatom(candidate: ClosureSpace, universe: ProductUniverse, coatom: int,
                     free_factor: int, pinned: Sequence[int]
                     ) -> Union[int, CoatomNonConformance]:
    """Write a coatom above a pinned half-cross in the one-free-factor form.

    ``pinned`` gives a factor coatom for every factor except
    ``free_factor``.  The decomposition extracts the free-factor element
    z with coatom = union of the pinned preimages and the preimage of z,
    and verifies z is a coatom of its factor.  A conformance failure is
    reported rather than raised; a non-coatom argument, or a universe over
    other points than the candidate's, is an error.
    """
    require_points(candidate, universe)
    _check_factor_index(universe, free_factor)
    if require_int(coatom, "coatom") not in candidate:
        raise ValueError("not an element of the candidate space")
    if coatom not in candidate.coatoms():
        raise ValueError("not a coatom of the candidate space")
    k = len(universe.factors)
    if len(pinned) != k - 1:
        raise ValueError("need one pinned coatom per non-free factor")
    others = [b for b in range(k) if b != free_factor]
    base = 0
    for beta, x in zip(others, pinned):
        if require_int(x, "pinned coatom") not in universe.factors[beta].coatoms():
            raise ValueError(f"pinned element for factor {beta + 1} is not a coatom")
        base |= universe.preimage_mask(beta, x)
    if base & ~coatom:
        return CoatomNonConformance("coatom does not lie above the pinned half-cross")
    z = image(coatom & ~base, universe.coordinate_bits[free_factor])
    rebuilt = base | universe.preimage_mask(free_factor, z)
    if rebuilt != coatom:
        return CoatomNonConformance(
            "coatom is not a pinned half-cross plus a single free-factor preimage")
    if z not in universe.factors[free_factor].coatoms():
        return CoatomNonConformance(
            f"free-factor part {universe.factors[free_factor].render_set(z)} "
            "is not a factor coatom")
    return z
