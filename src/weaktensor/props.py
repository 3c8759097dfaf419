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
# Each complete assignment is checked once per element (about 20 ms at 4096 sets,
# on a 2-core host), and the node budget bounds how many are checked; the cap keeps
# each check that small.
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

    ``nodes`` counts the candidates tried at every visited atom, rejected
    ones included, read off candidate positions: a visited atom adds the
    length of its candidate list.  The search tries the coatoms in
    ascending mask order at every atom, so the count replays from the
    space alone: a cap of ``nodes`` finishes again, one less does not.
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


def _symmetry_buckets(coatoms: Sequence[int], n: int
                      ) -> tuple[list[dict[int, list[tuple[int, int, int]]]], list[int]]:
    """The search tables: per atom i, its candidates (the coatoms without i,
    in order) bucketed by their points below i, and the candidate counts.

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

    ``nodes`` counts the candidates tried at every visited atom, rejected
    ones included.  The symmetry test fixes the points of p' below p, so
    each atom's candidates are bucketed by those points and only the
    bucket that passes is visited; the count is read off candidate
    positions, a finished atom adding its whole candidate list.  The
    patterns that select the buckets are packed in one int, which each
    choice extends by a precomputed spread and passes down, so nothing is
    undone on the way back.  An atom whose bucket is empty is counted
    (its whole list, with the same budget test) without being visited.

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
    buckets, sizes = _symmetry_buckets(space.coatoms(), n)
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
        # dfs refers to itself, a reference cycle that would keep the tables alive
        # until the next full garbage collection, and a budget error's traceback
        # holds the search frames for as long as the caller keeps the error
        del dfs, buckets, sizes
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
