"""Finite simple closure spaces over small point universes.

A simple closure space on a finite point set is a family of subsets that
contains the empty set, the full set and every singleton, and is closed
under intersection.  Ordered by inclusion it is a complete atomistic
lattice whose atoms are the singletons, and every lattice handled by
this package is represented this way.  Closed sets are stored as
bitmasks over the point list: meet is bitwise AND, join is the closure
of the bitwise OR.
"""

from __future__ import annotations

from functools import cached_property
from math import prod
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .products import ProductUniverse

MAX_POINTS = 24
# Bounds the automorphism search.
AUTOMORPHISM_POINT_CAP = 12
# Bounds the groups listed element by element: 9!, the order of MO_9's group.
AUTOMORPHISM_LIST_CAP = 362_880
# Bounds every family a space is built from: 2^20 sets, as many as powerset:20 has.
FAMILY_CAP = 1 << 20

_LETTERS = "abcdefghijklmnopqrstuvwx"


class LatticeFormatError(ValueError):
    """Raised on malformed lattice text, with a 1-based line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


class CoverWitness(NamedTuple):
    """Certifies that ``upper`` does not cover ``lower``.

    ``intermediate``, when present, is a closed set strictly between the
    two; when absent the failure is degenerate (``lower == upper``).
    """

    lower: int
    upper: int
    intermediate: Optional[int] = None


class DualOrderReport(NamedTuple):
    coatomistic: bool
    dual_covering: bool
    coatomistic_witness: Optional[int] = None
    dual_covering_witness: Optional[tuple[int, int]] = None


class _StabilizerChain(NamedTuple):
    """An automorphism group on the base 0, 1, ..., n-1: ``generators``
    generate it, and ``transversals[i]`` maps each point j of the orbit of i
    under the automorphisms fixing 0..i-1 to one of them that sends i to j."""

    generators: tuple[tuple[int, ...], ...]
    transversals: tuple[dict[int, tuple[int, ...]], ...]


class CheckedRecord:
    """Base of the records whose constructor checks or canonicalizes its
    input.  A subclass names its slots, and in ``_fields`` the constructor
    arguments it is compared, hashed, shown and pickled by; its ``__init__``
    sets each slot once through ``object.__setattr__``, and the slots are
    read-only after."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value: object):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str):
        raise AttributeError(f"cannot delete field {name!r}")


class ClosureSpace:
    """A finite simple closure space.

    Instances are immutable after construction and all operations are
    pure, so sharing across threads or workers is safe.  Internal memos
    (the member set, the closure operator with the coatoms its scan
    finds, and the automorphism chain) are cached properties, each
    computed on first use from the family alone.
    """

    def __init__(self, points: Sequence[str], masks: Iterable[int],
                 product: "ProductUniverse | None" = None):
        points = _checked_points(points)
        masks = tuple(masks)
        for m in masks:  # 3.0 == 3, so a float would pass every membership test
            if not isinstance(m, int):
                raise ValueError(f"member {m!r} is not a point set of this space")
        family = tuple(sorted(set(masks)))
        if not family or family[0] != 0 or family[-1] != (1 << len(points)) - 1:
            raise ValueError("closed family must contain the empty and the full set "
                             "and no point outside the universe")
        self._setup(points, family, product)
        for i in range(len(self.points)):
            if (1 << i) not in self._members:
                raise ValueError(f"closed family must contain the singleton {self.points[i]!r}")
        # the family is intersection-closed iff its closure is no larger; the
        # sweep stops at the first step past it, at most twice its size, and
        # NextClosure names the least closed non-member
        members = self._members
        if any(len(closed) > len(members) for closed in _closure_sweep(self.full_mask, family)):
            least = next(m for m in next_closure(self.n_points, self.closure) if m not in members)
            raise ValueError(
                f"family is not intersection-closed: {self.render_set(least)!r} "
                "is an intersection of members but not a member")

    def _setup(self, points: tuple[str, ...], masks: tuple[int, ...],
               product: "ProductUniverse | None" = None) -> "ClosureSpace":
        """Fill a bare instance from a sorted family, unchecked: the common
        tail of every constructor."""
        self.points = points
        self.masks = masks
        self.product = product
        return self

    @cached_property
    def _members(self) -> frozenset[int]:
        """The family as a set, built on the first membership test: a space
        that is built and never queried holds only its sorted tuple."""
        return frozenset(self.masks)

    @cached_property
    def _close(self) -> "_GeneratorClosure":
        """The closure operator over the meet-irreducible members, the
        attributes of the reduced formal context (Ganter and Wille, 1999),
        built on first use: a closure or ``covers`` join of a non-member,
        ``covering_failure``, ``coatoms`` or ``meet_irreducibles``.

        One descending scan of the family: every strict superset of a
        member has a larger mask and comes first, and the operator over
        the members kept so far maps a member to the meet of its strict
        supersets, so a member is kept iff that meet is not itself.  Every
        member is then a meet of kept ones, so the operator closes exactly
        as the whole family would.  The full set is the empty meet.  A
        proper member that no kept member contains is a coatom, as any
        other lies below a coatom, which is kept and comes first; the
        operator holds them ascending as its ``coatoms``.
        """
        close = _GeneratorClosure(self.n_points)
        incidence, generators, full = close.incidence, close.generators, close.full
        coatoms = []
        # close(m) != m inlined, stopping once no generator is left or the
        # meet is down to m: 30-50% faster than calling it, on the 100- to
        # 720-set targets the deciders meet (2-core Xeon, Python 3.11)
        for m in self.masks[-2::-1]:
            picked, rest = close.everything, m
            while rest and picked:
                low = rest & -rest
                picked &= incidence[low.bit_length() - 1]
                rest ^= low
            if not picked:
                coatoms.append(m)
            meet = full
            while picked and meet != m:
                low = picked & -picked
                meet &= generators[low.bit_length() - 1]
                picked ^= low
            if meet != m:
                close.add(m)
        close.coatoms = tuple(reversed(coatoms))
        return close

    # -- basic structure ------------------------------------------------

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.points)) - 1

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[int]:
        return iter(self.masks)

    def __contains__(self, mask: object) -> bool:
        return mask in self._members

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.points[i] for i in bits(mask))

    def render_set(self, mask: int) -> str:
        """Canonical text of a point set: space-separated labels, '-' if empty."""
        return " ".join(self.labels_of(mask)) or "-"

    # -- construction ---------------------------------------------------

    @classmethod
    def from_closed_sets(cls, points: Sequence[str], subsets: Iterable[int] = (),
                         product: "ProductUniverse | None" = None) -> "ClosureSpace":
        """Intersection-closure of ``subsets`` plus the forced members.

        The forced members are the empty set, the full set and all
        singletons.  ``intersection_closure`` sweeps the intersections of
        these generators; a family that is already closed comes back
        unchanged.
        """
        points = _checked_points(points)
        full = (1 << len(points)) - 1
        generators = {0, *(1 << i for i in range(len(points)))}
        for m in subsets:
            if not isinstance(m, int):
                raise ValueError(f"subset {m!r} is not a point set of this space")
            if m & ~full:
                raise ValueError(f"subset {m:#x} uses points outside the universe")
            generators.add(m)
            # every generator is a member
            if len(generators) > FAMILY_CAP:
                raise _family_cap_error()
        family = tuple(sorted(intersection_closure(full, generators)))
        return cls.__new__(cls)._setup(points, family, product)

    # -- lattice operations ----------------------------------------------

    def closure(self, subset: int) -> int:
        """Smallest closed superset of ``subset``."""
        if not isinstance(subset, int):
            raise ValueError(f"{subset!r} is not a point set of this space")
        if subset & ~self.full_mask:
            raise ValueError("subset uses points outside the universe")
        if subset in self._members:
            return subset
        return self._close(subset)

    def _require_element(self, mask: int) -> None:
        # an int test first: 1.0 == 1, so a float can pass the member test
        if not isinstance(mask, int):
            raise ValueError(f"{mask!r} is not an element of this space")
        if mask not in self._members:
            # an int with points outside the universe names no set of it
            shown = mask if mask < 0 or mask & ~self.full_mask else self.render_set(mask)
            raise ValueError(f"{shown!r} is not an element of this space")

    def meet(self, a: int, b: int) -> int:
        self._require_element(a)
        self._require_element(b)
        return a & b

    def join(self, a: int, b: int) -> int:
        self._require_element(a)
        self._require_element(b)
        return self.closure(a | b)

    def atoms(self) -> list[int]:
        return [1 << i for i in range(self.n_points)]

    def coatoms(self) -> list[int]:
        """The elements the full set covers, in ascending mask order."""
        return list(self._close.coatoms)

    def meet_irreducibles(self) -> tuple[int, ...]:
        """The members that are not the meet of their strict supersets, in
        ascending mask order: the generators that every member is a meet of."""
        return tuple(reversed(self._close.generators))

    def covers(self, a: int, b: int):
        """True iff ``b`` covers ``a``; a CoverWitness otherwise.

        Requires a <= b.  Every element strictly between a and b contains
        a v q for some point q of b outside a, and a v q lies below it,
        so b covers a iff a v q = b for every such q.  The witness carries
        the least intermediate element in mask order, which is the least
        of those joins short of b, or none when a == b.
        """
        self._require_element(a)
        self._require_element(b)
        if a & ~b:
            raise ValueError("covers() requires the first element below the second")
        if a == b:
            return CoverWitness(lower=a, upper=b)
        # each join lies inside b, so it is below b in mask order unless it is b;
        # a v q is a | q when that is a member, and otherwise the meet of the
        # generators above a that hold q, picked at the first such join
        members, least, rest, above = self._members, b, b & ~a, None
        while rest:
            low = rest & -rest
            j = a | low
            if j not in members:
                if above is None:
                    close = self._close
                    above = close.above(a)
                j = close.meet(above & close.incidence[low.bit_length() - 1])
            if j < least:
                least = j
            rest ^= low
        return True if least == b else CoverWitness(lower=a, upper=b, intermediate=least)

    def covering_failure(self) -> Optional[tuple[int, CoverWitness]]:
        """The first failure of the covering property: p ^ a = 0 implies
        that j = a v p covers a, for every atom p and element a.

        Returns None, or the first failing atom with the witness that
        ``covers(a, j)`` gives, in (atom id, element mask) order.  The rule
        is the one ``covers`` applies: j covers a iff a v q = j for every
        point q of j outside a.  The full set and the coatoms are skipped:
        the full set is the only strict upper bound of a coatom, so every
        join of a coatom is the full set and covers it.  The joins come
        from a table with one row per element a and one entry per point q,
        filled on first use, so each join a v q is computed at most once
        per call: as a | q when that is a member, which needs no meet, and
        otherwise as the meet of the generators above a, picked once per
        element, that hold q.  A join a v p = a | p covers a at once.
        """
        n, masks, members, close = self.n_points, self.masks, self._members, self._close
        meet, incidence = close.meet, close.incidence
        coatoms = set(close.coatoms)
        # rows[k][q] is masks[k] v q, and rows[k][n] the generators above
        # masks[k]; each is 0 until first computed (a join is never empty, and
        # a proper member lies below a coatom, a generator); a coatom gets the
        # shared row of full joins, so every later atom skips it at once
        coatom_row = [self.full_mask] * n
        rows: list[Optional[list[int]]] = [None] * len(masks)
        for i in range(n):
            bit = 1 << i
            for k, a in enumerate(masks):
                if a & bit:
                    continue
                row = rows[k]
                if row is None:
                    if a in coatoms:
                        rows[k] = coatom_row
                        continue
                    row = rows[k] = [0] * (n + 1)
                elif row[i]:
                    # filled by an earlier check of a, which passed with upper row[i]:
                    # this atom's check is that one again
                    continue
                j = a | bit
                if j in members:
                    row[i] = j
                    continue
                above = row[n]
                if not above:
                    above = row[n] = close.above(a)
                j = row[i] = meet(above & incidence[i])
                # inline rather than bits(): this is the inner loop of the scan
                least, rest = j, (j & ~a) ^ bit
                while rest:
                    low = rest & -rest
                    q = low.bit_length() - 1
                    jq = row[q]
                    if not jq:
                        jq = a | low
                        if jq not in members:
                            jq = meet(above & incidence[q])
                        row[q] = jq
                    if jq < least:
                        least = jq
                    rest ^= low
                if least != j:
                    return bit, CoverWitness(lower=a, upper=j, intermediate=least)
        return None

    # -- duality ----------------------------------------------------------

    def dual_order_check(self) -> DualOrderReport:
        """Atomisticity and covering of the order dual.

        The dual is coatomistic-side checked directly on this family:
        every element must be an intersection of coatoms, which holds iff
        every meet-irreducible member is a coatom (the witness is the
        least one that is not), and for every coatom x and element a with
        x v a = 1, a must cover x ^ a.  For a coatom x, x v a is x when
        a is inside x and the full set otherwise.
        """
        coatoms = self.coatoms()
        is_coatom = set(coatoms)
        co_witness = next((m for m in self.meet_irreducibles() if m not in is_coatom), None)
        coatomistic = co_witness is None
        dual_cov, dc_witness = True, None
        for x in coatoms:
            for a in self.masks:
                if not a & ~x:
                    continue
                if self.covers(x & a, a) is not True:
                    dual_cov, dc_witness = False, (x, a)
                    break
            if not dual_cov:
                break
        return DualOrderReport(coatomistic, dual_cov, co_witness, dc_witness)

    # -- automorphisms -----------------------------------------------------

    def automorphism_perms(self) -> tuple[tuple[int, ...], ...]:
        """Every point permutation that maps the closed family onto itself,
        in the order of ``itertools.permutations``, listed from the
        stabilizer chain (see ``_chain``): each automorphism is one
        product t_0 t_1 ... t_(n-1) of an element of each level's
        transversal.  The products are formed level by level, skipping the
        levels whose transversal is the identity alone, and sorted once.
        A group of order above ``AUTOMORPHISM_LIST_CAP`` is refused before
        any element is formed.
        """
        order = self.automorphism_order()
        if order > AUTOMORPHISM_LIST_CAP:
            raise ValueError(f"automorphism listing capped at {AUTOMORPHISM_LIST_CAP} "
                             f"elements, the group has {order}")
        listing = [tuple(range(self.n_points))]
        for reps in self._chain.transversals:
            if len(reps) > 1:
                # itemgetter(*t) maps a permutation g to g after t
                afters = [itemgetter(*t) for t in reps.values()]
                listing = [after(g) for g in listing for after in afters]
        # one sort of the whole list is faster here than ordering each node's children
        listing.sort()
        return tuple(listing)

    def automorphism_order(self) -> int:
        """The order of the automorphism group: the product of the
        transversal sizes of its stabilizer chain, without listing it."""
        return prod(len(reps) for reps in self._chain.transversals)

    def automorphism_generators(self) -> tuple[tuple[int, ...], ...]:
        """Point permutations that generate the automorphism group: those of
        the stabilizer chain, without listing the group (none for the
        identity group)."""
        return self._chain.generators

    def automorphism_orbit(self, point: int) -> tuple[int, ...]:
        """The points that some automorphism maps ``point`` to, ascending,
        read off the stabilizer chain's generators without listing the group."""
        if not 0 <= require_int(point, "point") < self.n_points:
            raise ValueError(f"point {point} is not in this space")
        return tuple(sorted(_orbit_reps(point, self._chain.generators, self.n_points)))

    @cached_property
    def _chain(self) -> _StabilizerChain:
        """The automorphism group as a stabilizer chain on the base
        0, 1, ..., n-1, raising past the point cap (a raise stores nothing).

        Level i holds a transversal of the automorphisms fixing 0..i-1:
        for each point j of the orbit of i under them, one such
        automorphism mapping i to j.  The levels are built from n-1 down
        to 0.  At level i the orbit of i grows under the generators found
        so far; for each point j > i of the colour of i outside it, a
        depth-first search looks for one automorphism that is the
        identity on 0..i-1 and maps i to j, and the first one it finds
        becomes a generator.  A search that finds none proves j is outside
        the orbit.  So every automorphism g fixing 0..i-1 is a transversal
        element (mapping i to g(i)) times an automorphism fixing 0..i, and
        the group's order is the product of the transversal sizes.

        The search maps the points i+1, i+2, ... in turn, each to an
        unused point of the same colour (the sizes of the closed sets
        through a point, which no automorphism changes), tried in
        increasing order.  A closed set is checked as soon as its highest
        point is mapped: its image must be closed.  A set that is the
        intersection of the larger closed sets with the same highest point
        is not checked, as its image is the intersection of theirs, so a
        branch still ends at the first depth where some closed set fails.
        """
        n = self.n_points
        if n > AUTOMORPHISM_POINT_CAP:
            raise ValueError(f"automorphism search capped at {AUTOMORPHISM_POINT_CAP} points")
        members, full = self._members, self.full_mask
        colour = [sorted(m.bit_count() for m in self.masks if m >> i & 1) for i in range(n)]
        candidates = [[j for j in range(n) if colour[j] == colour[i]] for i in range(n)]
        by_top: list[list[int]] = [[] for _ in range(n)]
        for m in self.masks[1:]:
            by_top[m.bit_length() - 1].append(m)
        # checks[i]: the points of each set to check once point i is mapped;
        # the empty set, the singletons and the full set always map to closed sets
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
        # the identity on the points not yet searched: a level's searches
        # write only the entries from that level up
        perm, image_bit = list(range(n)), [1 << k for k in range(n)]

        def first_leaf(i: int, used: int, options: Sequence[int]) -> tuple[int, ...] | None:
            for j in options:
                bit = 1 << j
                if used & bit:
                    continue
                image_bit[i] = bit
                for points in checks[i]:
                    image = 0
                    for p in points:
                        image |= image_bit[p]
                    if image not in members:
                        break
                else:
                    perm[i] = j
                    if i + 1 == n:
                        return tuple(perm)
                    leaf = first_leaf(i + 1, used | bit, candidates[i + 1])
                    if leaf is not None:
                        return leaf
            return None

        generators: list[tuple[int, ...]] = []
        transversals: list[dict[int, tuple[int, ...]]] = []  # from level n-1 down
        for i in reversed(range(n)):
            reps = _orbit_reps(i, generators, n)
            for j in candidates[i]:
                if j > i and j not in reps:
                    leaf = first_leaf(i, (1 << i) - 1, (j,))
                    if leaf is not None:
                        generators.append(leaf)
                        reps = _orbit_reps(i, generators, n)
            transversals.append(reps)
        # first_leaf refers to itself, a reference cycle that would keep the
        # search state alive until the next full garbage collection
        del first_leaf
        return _StabilizerChain(tuple(generators), tuple(reversed(transversals)))


def _orbit_reps(point: int, generators: Sequence[tuple[int, ...]], n: int
                ) -> dict[int, tuple[int, ...]]:
    """Each point of the orbit of ``point`` under ``generators``, permutations
    of ``n`` points, with a product of generators that maps ``point`` there,
    found breadth first."""
    reps = {point: tuple(range(n))}
    queue = [point]
    for k in queue:
        t = reps[k]
        for g in generators:
            j = g[k]
            if j not in reps:
                reps[j] = tuple(g[x] for x in t)  # g after t
                queue.append(j)
    return reps


# -- the closure core ------------------------------------------------------

def bits(mask: int) -> Iterator[int]:
    """The points of a mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def image(mask: int, table: Sequence[int]) -> int:
    """The union of ``table[i]`` over the points i of a mask: the image of a
    point set under a point map, given as one mask per point."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def require_int(value: object, name: str) -> int:
    """``value`` if it is an int, else a ValueError naming it; a bool is an
    int to Python but no count or index here."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def require_permutation(perm: Sequence[int], n: int, name: str) -> tuple[int, ...]:
    """``perm`` as a tuple if it lists each of the points 0..n-1 once, as
    ints, else a ValueError naming it."""
    perm = tuple(perm)
    if len(perm) != n or set(perm) != set(range(n)) or set(map(type, perm)) != {int}:
        raise ValueError(f"{name} {perm!r} is not a permutation of {n} points")
    return perm


def require_points(space: ClosureSpace, universe: "ProductUniverse") -> None:
    """A ValueError unless ``universe`` indexes the points of ``space``,
    P1's rule: a lift over other points than the space's means nothing."""
    if space.points != universe.points:
        raise ValueError("the space's points are not the points of the product universe")


def _checked_points(points: Sequence[str]) -> tuple[str, ...]:
    points = tuple(points)
    if not points:
        raise ValueError("a closure space needs at least one point")
    if len(points) > MAX_POINTS:
        raise ValueError(f"universe of {len(points)} points exceeds the cap of {MAX_POINTS}")
    if len(set(points)) != len(points):
        raise ValueError("point labels must be unique")
    # '-' is the empty set's text and '#' starts a comment line in a .lat file
    for lbl in points:
        if not lbl or lbl == "-" or lbl[0] == "#" or any(ch.isspace() for ch in lbl):
            raise ValueError(f"bad point label {lbl!r}")
    return points


class _GeneratorClosure:
    """The closure operator on ``n`` points whose closed sets are the
    intersections of ``generators``: a subset maps to the AND of the
    generators containing it, which are picked by intersecting per-point
    incidence bitsets over the generator indices.  A class rather than a
    nested function, so that spaces holding one stay picklable.  The scan
    of ``ClosureSpace._close`` sets ``coatoms``, the members no generator
    contains."""

    coatoms: tuple[int, ...] = ()

    def __init__(self, n: int, generators: Iterable[int] = ()):
        self.full = (1 << n) - 1
        self.generators: list[int] = []
        # incidence[i] has bit j iff generator j holds point i
        self.incidence = [0] * n
        self.everything = 0
        for g in generators:
            self.add(g)

    def add(self, generator: int) -> None:
        """Make ``generator`` closed too, and every meet of it with the others."""
        bit = 1 << len(self.generators)
        self.generators.append(generator)
        self.everything |= bit
        incidence = self.incidence
        while generator:
            low = generator & -generator
            incidence[low.bit_length() - 1] |= bit
            generator ^= low

    def __call__(self, subset: int) -> int:
        return self.meet(self.above(subset))

    def above(self, subset: int) -> int:
        """The generators that hold ``subset``, as bits over their indices.
        Those that hold ``subset`` plus a point q are ``above(subset) &
        incidence[q]``, so a caller joining one set with many points picks
        them once."""
        # inline rather than bits() or image(): this and meet() are the inner
        # loops of every closure
        picked, incidence = self.everything, self.incidence
        while subset:
            low = subset & -subset
            picked &= incidence[low.bit_length() - 1]
            subset ^= low
        return picked

    def meet(self, picked: int) -> int:
        """The meet of the generators whose index bits ``picked`` holds; the
        full set when it holds none."""
        out, generators = self.full, self.generators
        while picked:
            low = picked & -picked
            out &= generators[low.bit_length() - 1]
            picked ^= low
        return out


def intersection_closure(full: int, generators: Iterable[int]) -> set[int]:
    """Every intersection of ``generators`` with ``full``, the empty
    intersection: the family of the last step of ``_closure_sweep``."""
    for family in _closure_sweep(full, generators):
        pass
    return family


def _closure_sweep(full: int, generators: Iterable[int]) -> Iterator[set[int]]:
    """The growing intersection closure of ``generators`` and ``full``, one
    set object yielded at the start and again after each step that grows it.

    The sweep starts from {full} and takes the generators in descending
    mask order: one already in the family is skipped, any other adds its
    meet with every member.  The family is intersection-closed after each
    step, so a skipped generator adds nothing.  Every strict superset of
    a generator has a larger mask and comes first, so on a closed family
    only the meet-irreducible members cost a step.
    """
    family = {full}
    yield family
    for g in sorted(set(generators), reverse=True):
        if g not in family:
            family |= {f & g for f in family}
            # a step at most doubles the family, so it never holds 2^21 + 1 sets
            if len(family) > FAMILY_CAP:
                raise _family_cap_error()
            yield family


def _family_cap_error() -> ValueError:
    return ValueError(f"family exceeds the cap of {FAMILY_CAP} sets")


def next_closure(n: int, close: Callable[[int], int]) -> Iterator[int]:
    """Every closed set of a closure operator on ``n`` points, in
    increasing mask order (Ganter's NextClosure, 1984), at most ``n``
    calls of ``close`` each.  The successor of a closed set A is
    close(A without the points below i, plus i) for the lowest point i
    not in A whose closure adds no point above i."""
    full = (1 << n) - 1
    current = close(0)
    yield current
    while current != full:
        for i in range(n):
            bit = 1 << i
            if current & bit:
                current ^= bit
                continue
            candidate = close(current | bit)
            if (candidate ^ current) >> i == 1:
                current = candidate
                break
        yield current


def unchecked_space(points: Sequence[str], family: Sequence[int],
                    product: "ProductUniverse | None" = None) -> ClosureSpace:
    """A space on a family that is closed by construction, taken as given.

    ``family`` must be sorted ascending, hold the empty set, the full set
    and every singleton, and be intersection-closed; nothing of that is
    checked, so a builder that lays its family correctly skips the
    constructor's validation and the intersection sweep.  For the
    package's builders, not exported.
    """
    return ClosureSpace.__new__(ClosureSpace)._setup(_checked_points(points), tuple(family),
                                                     product)


# -- stock builders -------------------------------------------------------

def default_labels(n: int) -> tuple[str, ...]:
    if not 1 <= require_int(n, "point count") <= MAX_POINTS:
        raise ValueError(f"point count must be between 1 and {MAX_POINTS}")
    return tuple(_LETTERS[:n])


def mo_space(n: int) -> ClosureSpace:
    """MO_n on the points a, b, ...: the space whose only closed sets are
    0, 1 and the atoms.  ``ClosureSpace.from_closed_sets(labels)`` is MO on
    other labels."""
    return ClosureSpace.from_closed_sets(default_labels(n))


def powerset_space(n: int) -> ClosureSpace:
    """The powerset of the points a, b, ...; on other labels it is
    ``ClosureSpace.from_closed_sets(labels, range(1 << len(labels)))``."""
    labels = default_labels(n)
    if 1 << n > FAMILY_CAP:
        raise _family_cap_error()
    return unchecked_space(labels, range(1 << n))


def two_space() -> ClosureSpace:
    """The two-element lattice: one point, closed sets 0 and 1."""
    return mo_space(1)


# -- lattice text format ---------------------------------------------------
#
#   points: a b c
#   -
#   a
#   a b
#
# One closed set per line after the header, '-' for the empty set; the
# loader closes the listed family, so files may list generators only.

def parse_lattice_text(text: str) -> ClosureSpace:
    points: tuple[str, ...] | None = None
    masks: list[int] = []
    index: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if points is None:
            if not line.startswith("points:"):
                raise LatticeFormatError("expected a 'points:' header", lineno)
            try:
                points = _checked_points(line[len("points:"):].split())
            except ValueError as exc:
                raise LatticeFormatError(str(exc), lineno) from None
            index = {lbl: i for i, lbl in enumerate(points)}
            continue
        if line == "-":
            masks.append(0)
            continue
        m = 0
        for lbl in line.split():
            if lbl not in index:
                raise LatticeFormatError(f"unknown point label {lbl!r}", lineno)
            m |= 1 << index[lbl]
        masks.append(m)
    if points is None:
        raise LatticeFormatError("missing 'points:' header", 1)
    return ClosureSpace.from_closed_sets(points, masks)


def render_lattice_text(space: ClosureSpace) -> str:
    lines = ["points: " + " ".join(space.points)]
    lines.extend(space.render_set(m) for m in space.masks)
    return "\n".join(lines) + "\n"
