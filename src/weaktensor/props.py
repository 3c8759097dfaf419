"""Structural property checks: covering, orthocomplementation,
orthomodularity, MO_n containment, automorphisms, weak connectivity.

All procedures are exhaustive over the finite family except
``is_weakly_connected``, which is sound but deliberately incomplete
(it may answer UNKNOWN).  Witnesses are canonical: the first failure
under the ordering (atom id, element bitmask).
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .spaces import (
    ClosureSpace, CoverWitness, bits, image, require_int, require_permutation, require_points,
)

DEFAULT_NODE_CAP = 10_000_000
# Each complete assignment is checked at the meet-irreducible elements, up to the
# first failure; a map that passes reads them all, at most every element (about
# 5 ms for all 4096 sets of box(mo:2,mo:2,mo:6), min of 7, on a 2-core host), and
# the node budget bounds how many are checked; the cap keeps each check that small.
SEARCH_SET_CAP = 4096


class SearchBudgetExceeded(RuntimeError):
    """The orthocomplementation search exceeded its node budget."""

    def __init__(self, nodes: int):
        self.nodes = nodes
        super().__init__(f"orthocomplementation search exceeded {nodes} nodes")


class OrthoMap(NamedTuple):
    """An orthocomplementation given by its atom images: ``atoms[i]`` is
    the image of point i.

    In an atomistic lattice the atom images determine the map: an
    element's image is the meet of its atoms' images, and 0 goes to the
    full set.  So the map reverses order by construction, and the laws
    left to check (by :func:`validate_orthomap`) are involution and
    a v a' = 1 for every element a.
    """

    space: ClosureSpace
    atoms: tuple[int, ...]

    def atom_table(self) -> list[tuple[int, int]]:
        return [(1 << i, c) for i, c in enumerate(self.atoms)]


class ExhaustionCertificate(NamedTuple):
    """Proof token that the orthocomplementation search tree was exhausted.

    ``nodes`` counts the candidates tried at every atom the tree reaches,
    rejected ones included: each such atom adds the length of its
    candidate list, whether the search visits it or counts it whole from
    the atom before (an atom without candidates, or one that passes none
    on).  The search tries the coatoms in ascending mask order at every
    atom, so the count replays from the space alone: a cap of ``nodes``
    finishes again, one less does not.
    """

    nodes: int


class CoveringFailure(NamedTuple):
    atom: int
    element: int
    witness: CoverWitness


class OrthomodularityWitness(NamedTuple):
    a: int
    b: int


class Automorphism(tuple):
    """A point permutation whose induced set map preserves the family: the
    tuple of the points' images itself, as ``automorphisms`` lists them."""

    __slots__ = ()

    @property
    def point_perm(self) -> tuple[int, ...]:
        return self


class ConnectedCovering(NamedTuple):
    """A family of blocks witnessing weak connectivity.

    Every block has at least two atoms, the join of any two atoms in a
    block contains a third, the blocks cover the points, and any two
    points are linked by a chain of blocks overlapping in >= 2 points.
    """

    blocks: tuple[int, ...]


class NotWeaklyConnected(NamedTuple):
    """Certificate: the two-element lattice, or an isolated atom whose
    join with any other atom never contains a third."""

    reason: str
    isolated_atom: Optional[int] = None


class Unknown:
    def __repr__(self) -> str:  # pragma: no cover
        return "UNKNOWN"


UNKNOWN = Unknown()


# -- covering property ------------------------------------------------------

def has_covering_property(space: ClosureSpace) -> Union[bool, CoveringFailure]:
    """Check p ^ a = 0 implies p v a covers a, over all (atom, element).

    Returns True, or the first failure in (atom id, element mask) order,
    as ``ClosureSpace.covering_failure`` finds it: the witness is the one
    ``covers(a, p v a)`` gives.
    """
    failure = space.covering_failure()
    if failure is None:
        return True
    atom, witness = failure
    return CoveringFailure(atom=atom, element=witness.lower, witness=witness)


# -- orthocomplementation ---------------------------------------------------

def _meet_of_images(atoms: Sequence[int], mask: int, full: int) -> int:
    """The meet of the atom images of the points of ``mask``; 0 gets ``full``."""
    for i in bits(mask):
        full &= atoms[i]
    return full


def _atom_meets(space: ClosureSpace, atoms: Sequence[int]) -> dict[int, int]:
    """Each element's image under the atom images ``atoms``.  When the atom
    images are elements, so is every image: a meet of elements."""
    full = space.full_mask
    return {m: _meet_of_images(atoms, m, full) for m in space.masks}


def _law_failures(images: dict[int, int]) -> Iterator[tuple[str, int]]:
    """Each (law, element) failure of an element map, lazily: every
    involution failure first, then the complement-law ones, a ^ a' != 0: by De
    Morgan, a v a' != 1 once the map is an involution, as the maps of meets
    reverse order."""
    yield from (("involution fails at", a) for a, b in images.items() if images[b] != a)
    yield from (("complement law fails at", a) for a, b in images.items() if a & b)


def orthomap_violation(space: ClosureSpace, om: OrthoMap) -> Optional[str]:
    """Name the first violated orthocomplementation law, if any.

    Each point needs an atom image that is an element; then one pass per
    law, named in the order involution, complement.  An involution is a
    bijection, and order reversal holds by construction, as
    :class:`OrthoMap` describes.
    """
    if om.space is not space or len(om.atoms) != space.n_points:
        return "map does not index this space"
    for p, c in zip(space.points, om.atoms):
        # an int test first: 3.0 == 3, so a float can pass the member test
        if not isinstance(c, int) or c not in space:
            return f"atom image of {p!r} is not an element"
    failure = next(_law_failures(_atom_meets(space, om.atoms)), None)
    if failure is None:
        return None
    return f"{failure[0]} {space.render_set(failure[1])!r}"


def validate_orthomap(space: ClosureSpace, om: OrthoMap) -> bool:
    return orthomap_violation(space, om) is None


def _laws_hold(elements: Sequence[int], atoms: Sequence[int], full: int) -> bool:
    """Whether the atom images pass both laws, a ^ a' = 0 and a'' = a, at
    each of ``elements``, read in order up to the first element where either
    fails.  On every element of the space, with atom images that are
    elements, it gives the verdict of :func:`_law_failures`, which lists
    every failure."""
    for a in elements:
        image, rest = full, a
        while rest:
            low = rest & -rest
            image &= atoms[low.bit_length() - 1]
            rest ^= low
        if a & image:
            return False
        back, rest = full, image
        while rest:
            low = rest & -rest
            back &= atoms[low.bit_length() - 1]
            rest ^= low
        if back != a:
            return False
    return True


def find_orthocomplementation(
    space: ClosureSpace,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Union[OrthoMap, ExhaustionCertificate]:
    """Backtracking search for an orthocomplementation.

    Branches on the coatom image of each atom in canonical atom order,
    trying the coatoms in ascending mask order.  In an atomistic lattice
    the atom images determine the whole map, so exhausting the
    assignments decides existence; the certificate records the node
    count.  Candidates are pruned by p not in p', injectivity, and the
    symmetry q <= p' iff p <= q'.

    ``nodes`` counts the candidates tried at every atom reached, rejected
    ones included, read off candidate positions: a finished atom adds its
    whole candidate list.  The symmetry test fixes the points of p' below
    p, so an atom's candidates are tabled by those points, each table built
    when the search first needs it.  One lookup per visited atom gives the
    two buckets that its candidates can select for the next atom, and each
    candidate picks one by its own bit.  When that bucket is empty, the
    next atom is counted (its whole list) without a call.  Two more
    lookups per visited atom look one atom further: when the atom after
    the next passes nothing for either choice at the next atom, the next
    atom is counted without a call too, its list plus the list of the atom
    after it once per candidate of its bucket still unused.  The budget is
    tested at each complete assignment and at each atom's end, which is
    exact: no map lies in a subtree counted whole, and a search past the
    budget raises at the end of the first atom it finishes.  A
    complete assignment is checked at the meet-irreducible elements only,
    up to the first failure: the symmetry gives a <= a'' at every element,
    so a'' = a holds at every element once it holds at the irreducibles,
    which every element is a meet of, and p not in p' gives a ^ a' = 0.

    Raises SearchBudgetExceeded past ``node_cap`` nodes, and ValueError on
    a ``node_cap`` that is not an int or a family of more than
    ``SEARCH_SET_CAP`` sets.  The search scans no
    subsets of the universe, so the point count alone does not bound it.
    """
    if len(space) > SEARCH_SET_CAP:
        raise ValueError(f"family of {len(space)} sets exceeds the search cap "
                         f"of {SEARCH_SET_CAP}")
    n = space.n_points
    # a negative cap stops at the first node, as a cap of 0 does
    cap = max(require_int(node_cap, "node_cap"), 0)
    coatoms = space.coatoms()
    irreducibles, full, field = space.meet_irreducibles(), space.full_mask, (1 << n) - 1
    # the symmetry patterns of all atoms are packed in one int, atom t's in bits
    # t*n .. t*n+n-1, where bit t*n+j says that atom j's image holds t; the
    # spread of a coatom has bit t*n for each of its points t
    sep = "0" * (n - 1)
    spreads = [int(sep.join(format(c, "b")), 2) for c in coatoms]
    tables: list[Optional[dict]] = [None] * n
    sizes = [0] * n
    empty: tuple = ((), (), 0, 0)
    chosen: list[int] = []
    nodes = 0

    def table(j: int) -> None:
        # atom j's candidates keyed by their points below j - 1, each key's split
        # by point j - 1 into [entries without it, entries with it, the coatom
        # bits of each]; an entry is (position, coatom, coatom bit, the spread
        # that choosing the coatom for atom j adds to the packed patterns)
        split = max(j - 1, 0)
        low = (1 << split) - 1
        out: dict = {}
        k = 0
        for x, c in enumerate(coatoms):
            if not c >> j & 1:
                pair = out.get(c & low)
                if pair is None:
                    pair = out[c & low] = [[], [], 0, 0]
                half, bit = c >> split & 1, 1 << x
                pair[half].append((k, c, bit, spreads[x] << j))
                pair[half + 2] |= bit
                k += 1
        sizes[j] = k
        tables[j] = out

    def visit(i: int, entries: Sequence[tuple[int, int, int, int]], ahead: Sequence,
              packed: int, used: int) -> Optional[OrthoMap]:
        # entries: the bucket of atom i that passes the symmetry test against the
        # atoms assigned so far, whose patterns packed holds and whose coatoms'
        # bits used holds; ahead: atom i + 1's split for those atoms
        nonlocal nodes
        base = nodes  # the count less this atom's positions: position k counts base + k + 1
        j = i + 1
        if j == n:
            for k, c, bit, _ in entries:
                if used & bit:
                    continue
                if base + k >= cap:
                    raise SearchBudgetExceeded(cap + 1)
                chosen.append(c)
                if _laws_hold(irreducibles, chosen, full):
                    return OrthoMap(space, tuple(chosen))
                chosen.pop()
        else:
            size = sizes[j]
            e0, e1, m0, m1 = ahead
            g = j + 1
            if g < n:
                if tables[g] is None:
                    table(g)
                # atom g's split for the atoms assigned so far and a choice for
                # atom i without point g, then with it; None if nothing passes
                key = packed >> g * n & field
                q0, q1 = tables[g].get(key), tables[g].get(key | 1 << i)
                size_g = sizes[g]
            else:  # every candidate of the last atom is a complete assignment
                q0 = q1 = empty
            for k, c, bit, moved in entries:
                if used & bit:
                    continue
                if c >> j & 1:
                    below, mask = e1, m1
                else:
                    below, mask = e0, m0
                if not below:
                    base += size
                    continue
                grand = q1 if c >> g & 1 else q0
                if grand is None:
                    # atom j passes no candidate on: its list, and atom g's list
                    # for each of its candidates still unused
                    base += size + size_g * (len(below) - ((used | bit) & mask).bit_count())
                    continue
                nodes = base + k + 1
                chosen.append(c)
                found = visit(j, below, grand, packed | moved, used | bit)
                if found is not None:
                    return found
                chosen.pop()
                base = nodes - k - 1
        nodes = base + sizes[i]
        if nodes > cap:
            raise SearchBudgetExceeded(cap + 1)
        return None

    over = False
    try:
        table(0)
        if n > 1:
            table(1)
        found = visit(0, tables[0].get(0, empty)[0], tables[1].get(0, empty) if n > 1 else empty,
                      0, 0)
    except SearchBudgetExceeded:
        # raised again below: a budget error's traceback would hold the search
        # frames, and so their buckets, for as long as the caller keeps the error
        over = True
    finally:
        # visit refers to itself, a reference cycle that would keep the tables
        # alive until the next full garbage collection
        del visit, table, tables, sizes, spreads
    if over:
        raise SearchBudgetExceeded(cap + 1)
    if found is not None:
        return found
    return ExhaustionCertificate(nodes=nodes)


def is_orthomodular(space: ClosureSpace, om: OrthoMap) -> Union[bool, OrthomodularityWitness]:
    """Check a <= b implies b = a v (b ^ a') for a given orthocomplementation.

    Returns True or the first failing pair in (a mask, b mask) order.
    An invalid map is rejected with the violated law named.
    """
    violation = orthomap_violation(space, om)
    if violation is not None:
        raise ValueError(f"invalid orthocomplementation: {violation}")
    for a, ia in _atom_meets(space, om.atoms).items():
        for b in space.masks:
            if a & ~b:
                continue
            if space.closure(a | (b & ia)) != b:
                return OrthomodularityWitness(a=a, b=b)
    return True


# -- MO_n containment --------------------------------------------------------

def contains_mo_n(space: ClosureSpace, n: int) -> Optional[tuple[int, ...]]:
    """Find n atoms whose first-last join covers each of them.

    Returns the canonical witness tuple (p1..pn) or None.  The join of
    the first and last witness atoms covers every atom in the tuple.
    """
    if require_int(n, "n") < 3:
        raise ValueError("MO_n containment is only asked for n >= 3")
    atoms = space.atoms()
    for p in atoms:
        for q in atoms:
            if q <= p:
                continue
            j = space.closure(p | q)
            covered = [r for r in atoms
                       if r & j and space.covers(r, j) is True]
            if len(covered) < n:
                continue
            middle = [r for r in covered if r != p and r != q]
            if p in covered and q in covered and len(middle) >= n - 2:
                return tuple([p] + middle[: n - 2] + [q])
    return None


# -- automorphisms ------------------------------------------------------------

def automorphisms(space: ClosureSpace) -> list[Automorphism]:
    """All point permutations preserving the closed family, in the order of
    ``itertools.permutations``: the whole group, listed from the space's
    stabilizer chain by ``ClosureSpace.automorphism_perms``.  Its order and
    orbits are read off the chain without listing, by
    ``ClosureSpace.automorphism_order`` and ``automorphism_orbit``."""
    listing = list(space.automorphism_perms())
    # in place, so that each listed tuple goes as its copy comes: the peak
    # holds one listing, not two
    for i, perm in enumerate(listing):
        listing[i] = Automorphism(perm)
    return listing


def is_transitive(space: ClosureSpace) -> bool:
    """Whether the automorphism group acts transitively on the points: the
    orbit of point 0, read off the stabilizer chain without listing the group."""
    return len(space.automorphism_orbit(0)) == space.n_points


class FactoredForm(NamedTuple):
    factor_bijection: tuple[int, ...]
    factor_isos: tuple[tuple[int, ...], ...]


def check_factorization(space: ClosureSpace, universe, perm: Sequence[int]
                        ) -> Optional[FactoredForm]:
    """Factor a product-space automorphism, given as its point permutation
    u, through the factors.

    Finds a bijection f of the factor indices and per-factor point
    bijections v_i with u(p)_{f(i)} = v_i(p_i) for every product point,
    each v_i an isomorphism onto its target factor.  Returns None when
    no such factorization exists.  A ``universe`` over other points than
    the space's, or a ``perm`` that is no permutation of them, is a
    ValueError.
    """
    if universe is None:
        raise ValueError("no product structure registered for this space")
    require_points(space, universe)
    perm = require_permutation(perm, universe.n_points, "product permutation")
    factors, sizes, coords = universe.factors, universe.sizes, universe.coords
    k = len(factors)
    images = [coords[q] for q in perm]
    for f in itertools.permutations(range(k)):
        if any(sizes[i] != sizes[f[i]] for i in range(k)):
            continue
        # Read candidate v_i off the images of points varying coordinate i.
        isos = []
        for i, size in enumerate(sizes):
            v = [-1] * size
            for t, img in zip(coords, images):
                if v[t[i]] == -1:
                    v[t[i]] = img[f[i]]
                elif v[t[i]] != img[f[i]]:
                    break
            else:
                if sorted(v) == list(range(size)):
                    isos.append(tuple(v))
                    continue
            break  # v_i is no map, or no bijection: f fails
        else:
            # Each v_i must carry the closed family of factor i onto factor f(i).
            tables = [[1 << j for j in v] for v in isos]
            if all({image(m, tables[i]) for m in factors[i].masks} == set(factors[f[i]].masks)
                   for i in range(k)):
                return FactoredForm(factor_bijection=f, factor_isos=tuple(isos))
    return None


# -- weak connectivity ---------------------------------------------------------

def validate_connected_covering(space: ClosureSpace, cov: ConnectedCovering) -> bool:
    """Check the three connected-covering conditions verbatim.  A block
    that is no int, or has points outside the universe, is a ValueError."""
    blocks = cov.blocks
    for b in blocks:  # -3 has infinitely many bits: bits(-3) never ends
        if not isinstance(b, int) or b & ~space.full_mask:
            raise ValueError(f"block {b!r} is not a point set of this space")
    union = 0
    for b in blocks:
        union |= b
        if b.bit_count() < 2:
            return False
        for p, q in itertools.combinations(bits(b), 2):
            j = space.closure((1 << p) | (1 << q))
            if (j & ~((1 << p) | (1 << q))) == 0:
                return False
    if union != space.full_mask:
        return False
    # chain condition via block-overlap components
    k = len(blocks)
    parent = list(range(k))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in itertools.combinations(range(k), 2):
        if (blocks[a] & blocks[b]).bit_count() >= 2:
            parent[find(a)] = find(b)
    # the components holding each point, which the union test says is in some block
    comps = [{find(i) for i in range(k) if blocks[i] >> p & 1} for p in range(space.n_points)]
    return all(cp & cq for cp, cq in itertools.combinations(comps, 2))


def is_weakly_connected(space: ClosureSpace
                        ) -> Union[ConnectedCovering, NotWeaklyConnected, Unknown]:
    """Sound, incomplete decision of weak connectivity.

    Builds candidate blocks as maximal cliques of the third-atom
    relation and verifies the covering found; answers NOT only with a
    certificate, and UNKNOWN otherwise.
    """
    n = space.n_points
    if n == 1:
        return NotWeaklyConnected(reason="the two-element lattice")
    adj = [0] * n
    # the relation is symmetric: one closure per unordered pair
    for p, q in itertools.combinations(range(n), 2):
        pair = (1 << p) | (1 << q)
        if space.closure(pair) & ~pair:
            adj[p] |= 1 << q
            adj[q] |= 1 << p
    for p in range(n):
        if adj[p] == 0:
            return NotWeaklyConnected(
                reason="atom whose join with any other atom contains no third atom",
                isolated_atom=1 << p)
    cliques: list[int] = []
    _bron_kerbosch(0, space.full_mask, 0, adj, cliques)
    blocks = tuple(sorted(c for c in cliques if c.bit_count() >= 2))
    cov = ConnectedCovering(blocks=blocks)
    if blocks and validate_connected_covering(space, cov):
        return cov
    return UNKNOWN


def _bron_kerbosch(r: int, p: int, x: int, adj: Sequence[int], out: list[int]) -> None:
    if p == 0 and x == 0:
        out.append(r)
        return
    pivot = next(bits(p | x))
    for v in bits(p & ~adj[pivot]):
        low = 1 << v
        _bron_kerbosch(r | low, p & adj[v], x & adj[v], adj, out)
        p &= ~low
        x |= low
