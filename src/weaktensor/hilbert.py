"""Exact tensor-product subspace computations over the Gaussian rationals.

Realizes the product of two projective lattices of column spaces at
small dimension: membership of product atoms in a subspace, joins via
double orthocomplement, coatoms induced by antilinear maps, a decision
procedure for box-product membership of a subspace of C^2 (x) C^2 that
reads each plane's rank-one members off a discriminant, with no square
root taken, and the failure of the covering property in the order dual.

All arithmetic is exact over Q(i); there is no floating point anywhere.
A scalar ``GQ`` is the value (a + b*i) / d stored as three Python ints
with d > 0 and gcd(a, b, d) = 1, so each operation costs a few integer
products and at most one gcd, and equal values are equal triples.
Each value has one constructor, which makes its canonical form: a
``Subspace`` holds the reduced row echelon form of the rows it is given,
so equality of subspaces is equality of basis tuples, and a
``ProductAtomPair`` scales both lines.  Atom sets are never enumerated:
an element of the product is represented by its subspace, and point
membership is a residual against the canonical basis.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from random import Random
from typing import Callable, Sequence

MAX_FACTOR_DIM = 3


class GQ:
    """A Gaussian rational (a + b*i) / d held as three Python ints.

    Invariant: d > 0 and gcd(a, b, d) = 1, so each value has exactly one
    triple and equality is equality of triples.  Every operation works on
    the ints and costs at most one gcd; ``re`` and ``im`` read the value
    back as ``Fraction``.  Instances are immutable.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        re, im = Fraction(re), Fraction(im)
        # both parts are in lowest terms, so no prime of the lcm divides
        # both scaled numerators: the triple is reduced without a gcd
        d = math.lcm(re.denominator, im.denominator)
        _set_a(self, re.numerator * (d // re.denominator))
        _set_b(self, im.numerator * (d // im.denominator))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GQ is immutable")

    def __delattr__(self, name):
        raise AttributeError("GQ is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other: "GQ") -> "GQ":
        a, b, d = other._a, other._b, other._d
        if not (a or b):
            return self
        if d == self._d:
            return _reduced(self._a + a, self._b + b, d)
        return _reduced(self._a * d + a * self._d, self._b * d + b * self._d, self._d * d)

    def __sub__(self, other: "GQ") -> "GQ":
        a, b, d = other._a, other._b, other._d
        if not (a or b):
            return self
        if d == self._d:
            return _reduced(self._a - a, self._b - b, d)
        return _reduced(self._a * d - a * self._d, self._b * d - b * self._d, self._d * d)

    def __neg__(self) -> "GQ":
        return _triple(-self._a, -self._b, self._d)

    def __mul__(self, other: "GQ") -> "GQ":
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        if not (a1 or b1):
            return self
        if not (a2 or b2):
            return other
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    def __truediv__(self, other: "GQ") -> "GQ":
        a2, b2, d2 = other._a, other._b, other._d
        n = a2 * a2 + b2 * b2
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a1, b1 = self._a, self._b
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * n)

    def conj(self) -> "GQ":
        return _triple(self._a, -self._b, self._d)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GQ):
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __repr__(self) -> str:
        return f"GQ(re={self.re!r}, im={self.im!r})"

    def __reduce__(self):
        return GQ, (self.re, self.im)

    def render(self) -> str:
        if not self._b:
            return str(self.re)
        im = f"{self.im}i"
        if not self._a:
            return im
        sign = "+" if self._b > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.render()


# The slot descriptors write past GQ's raising __setattr__; only the
# constructors below use them.
_set_a, _set_b, _set_d = GQ._a.__set__, GQ._b.__set__, GQ._d.__set__
_new = object.__new__


def _triple(a: int, b: int, d: int) -> GQ:
    """A GQ from a triple that already meets the invariant."""
    z = _new(GQ)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _reduced(a: int, b: int, d: int) -> GQ:
    """(a + b*i) / d for d > 0, divided through by gcd(a, b, d)."""
    g = math.gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _triple(a, b, d)


ZERO = GQ()
ONE = GQ(1)

Vector = tuple[GQ, ...]
Matrix = tuple[Vector, ...]


# -- vectors ------------------------------------------------------------------

def _check_dimension(n: int, name: str) -> None:
    # a bool is an int to Python, and a zero or negative dimension would
    # give the empty space, its own orthocomplement
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"{name} must be a positive integer, got {n!r}")


def basis_vector(n: int, k: int) -> Vector:
    """The k-th unit vector of C^n; n must be a positive int and k an int
    in 0..n-1, else a ValueError."""
    _check_dimension(n, "dimension")
    if isinstance(k, bool) or not isinstance(k, int) or not 0 <= k < n:
        raise ValueError(f"index must be an integer in 0..{n - 1}, got {k!r}")
    return tuple(ONE if j == k else ZERO for j in range(n))


def vadd(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y))


def vscale(c: GQ, x: Vector) -> Vector:
    return tuple(c * a for a in x)


def vconj(x: Vector) -> Vector:
    return tuple(a.conj() for a in x)


def is_zero_vector(x: Vector) -> bool:
    return not any(x)


def inner(x: Vector, y: Vector) -> GQ:
    """Hermitian inner product, conjugate-linear in the first slot."""
    acc = ZERO
    for a, b in zip(x, y):
        acc = acc + a.conj() * b
    return acc


def normalize_vector(x: Vector) -> Vector:
    """Scale so the first nonzero coordinate is 1; canonical for lines."""
    for a in x:
        if a:
            return vscale(ONE / a, x)
    raise ValueError("cannot normalize the zero vector")


def tensor(p1: Vector, p2: Vector) -> Vector:
    """Product vector of two factor vectors, index (i, j) -> i * n + j."""
    if is_zero_vector(p1) or is_zero_vector(p2):
        raise ValueError("tensor factors must be nonzero")
    return tuple(a * b for a in p1 for b in p2)


# -- exact row reduction ------------------------------------------------------

def rref(rows: Sequence[Vector]) -> tuple[list[list[GQ]], list[int]]:
    """Reduced row echelon form with unit pivots; returns (rows, pivot cols).

    Zero rows are dropped, so the output is the canonical basis of the
    row space.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    cols = len(m[0])
    pivots: list[int] = []
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
        inv = ONE / m[r][c]
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


# -- subspaces ---------------------------------------------------------------

@dataclass(frozen=True, init=False)
class Subspace:
    """The span of ``rows`` in the coordinate space of dimension
    ``ambient``, held as the reduced row echelon form of the rows with unit
    pivots, so equal subspaces have equal bases.  An ``ambient`` that is no
    positive int, or a row that is not ``ambient`` ``GQ`` entries, is a
    ValueError.
    """

    ambient: int
    basis: Matrix
    pivots: tuple[int, ...] = field(repr=False, compare=False)

    def __init__(self, ambient: int, rows: Sequence[Vector] = ()):
        _check_dimension(ambient, "ambient")
        rows = list(rows)
        for row in rows:
            if len(row) != ambient or not all(isinstance(a, GQ) for a in row):
                raise ValueError(f"row {row!r} is no vector of {ambient} Gaussian rationals")
        basis, pivots = rref(rows)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", tuple(map(tuple, basis)))
        object.__setattr__(self, "pivots", tuple(pivots))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def residual(self, v: Vector) -> Vector:
        """v less v[p] times the row of each pivot p; zero iff v lies in the subspace."""
        res = list(v)
        for p, row in zip(self.pivots, self.basis):
            if f := res[p]:
                res = [a - f * b for a, b in zip(res, row)]
        return tuple(res)

    def contains(self, v: Vector) -> bool:
        return is_zero_vector(self.residual(v))

    def perp(self) -> "Subspace":
        """Orthocomplement under the Hermitian inner product; the conjugated
        basis stays reduced, so free column f gives e_f - sum_p conj(row_p[f]) e_p."""
        vectors = []
        for f in range(self.ambient):
            if f not in self.pivots:
                v = list(basis_vector(self.ambient, f))
                for p, row in zip(self.pivots, self.basis):
                    v[p] = -row[f].conj()
                vectors.append(tuple(v))
        return Subspace(self.ambient, vectors)

    def sum(self, other: "Subspace") -> "Subspace":
        if other.ambient != self.ambient:
            raise ValueError("ambient dimensions differ")
        return Subspace(self.ambient, self.basis + other.basis)


# -- product-atom machinery ---------------------------------------------------

@dataclass(frozen=True)
class ProductAtomPair:
    """A pair of projective points, each line scaled so that its first
    nonzero coordinate is 1 (see ``normalize_vector``)."""

    p1: Vector
    p2: Vector

    def __post_init__(self):
        object.__setattr__(self, "p1", normalize_vector(self.p1))
        object.__setattr__(self, "p2", normalize_vector(self.p2))

    def product_vector(self) -> Vector:
        return tensor(self.p1, self.p2)


def sigma_membership(subspace: Subspace, pair: ProductAtomPair) -> bool:
    """Whether the pair's product vector lies in the subspace (residual
    against the canonical basis)."""
    return subspace.contains(pair.product_vector())


def join_atoms(pairs: Sequence[ProductAtomPair]) -> Subspace:
    """Join of product atoms: span of the product vectors, in the product
    of the factor dimensions the pairs share.

    The double orthocomplement is verified to reproduce the span, which
    is the finite-dimensional identity backing the join formula.
    """
    if not pairs:
        raise ValueError("join of no atoms is not defined here")
    shapes = {(len(p.p1), len(p.p2)) for p in pairs}
    if len(shapes) != 1:
        raise ValueError(f"product atoms of different shapes: {sorted(shapes)}")
    (m, n), = shapes
    span = Subspace(m * n, [p.product_vector() for p in pairs])
    if span.perp().perp() != span:
        raise RuntimeError("double orthocomplement drifted from the span")
    return span


# -- antilinear maps and induced coatoms -------------------------------------

@dataclass(frozen=True)
class AntilinearMap:
    """w -> S . conj(w) in the canonical bases; additive, and scalars
    come out conjugated."""

    matrix: Matrix  # n rows, m cols

    def __post_init__(self):
        if not self.matrix or not self.matrix[0]:
            raise ValueError("empty matrix")

    @property
    def rows(self) -> int:
        return len(self.matrix)

    @property
    def cols(self) -> int:
        return len(self.matrix[0])

    def apply(self, w: Vector) -> Vector:
        if len(w) != self.cols:
            raise ValueError("dimension mismatch")
        cw = vconj(w)
        return tuple(sum((r[k] * cw[k] for k in range(self.cols)), ZERO)
                     for r in self.matrix)

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.matrix)


def coatom_from_antilinear(a_map: AntilinearMap
                           ) -> tuple[Vector, Callable[[ProductAtomPair], bool]]:
    """The tensor vector and membership predicate of the coatom X_A.

    For an antilinear map A from the m-space to the n-space, the coatom
    collects the pairs whose second point is orthogonal to the image of
    the first.  It equals the sigma-set of the orthocomplement of the
    returned vector v, whose (i, j) coefficient is the (j, i) matrix
    entry of A; the agreement of the two descriptions is sampled in
    tests rather than assumed.
    """
    if a_map.is_zero():
        raise ValueError("the zero map induces no coatom")
    n, m = a_map.rows, a_map.cols
    v = tuple(a_map.matrix[j][i] for i in range(m) for j in range(n))

    def member(pair: ProductAtomPair) -> bool:
        return not inner(a_map.apply(pair.p1), pair.p2)

    return v, member


def sharp_point(pair: ProductAtomPair) -> Subspace:
    """The cross subspace p1-perp (x) H2 + H1 (x) p2-perp."""
    m, n = len(pair.p1), len(pair.p2)
    perp1 = Subspace(m, [pair.p1]).perp().basis
    perp2 = Subspace(n, [pair.p2]).perp().basis
    vectors = [tensor(u, basis_vector(n, j)) for u in perp1 for j in range(n)]
    vectors += [tensor(basis_vector(m, i), w) for i in range(m) for w in perp2]
    return Subspace(m * n, vectors)


def verify_point_biorthogonality(pair: ProductAtomPair) -> bool:
    """perp of the sharp cross is exactly the pair's product line."""
    cross = sharp_point(pair)
    line = Subspace(cross.ambient, [pair.product_vector()])
    return cross.perp() == line


# -- box membership -----------------------------------------------------------

class BoxVerdict(Enum):
    IN_BOX = "in-box"
    NOT_IN_BOX = "not-in-box"


def _as_matrix(v: Vector) -> list[list[GQ]]:
    """A vector of C^2 (x) C^2 as its 2x2 coefficient matrix."""
    return [[v[0], v[1]], [v[2], v[3]]]


def _det2(a: Sequence[Sequence[GQ]]) -> GQ:
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


def _pencil_form(m0: Sequence[Sequence[GQ]], m1: Sequence[Sequence[GQ]]
                 ) -> tuple[GQ, GQ, GQ]:
    """The coefficients (a, b, c) of det(t0*m0 + t1*m1) = a t0^2 + b t0 t1 + c t1^2
    for 2x2 matrices: a = det m0, c = det m1 and b = det(m0 + m1) - a - c."""
    a, c = _det2(m0), _det2(m1)
    both = [[x + y for x, y in zip(r0, r1)] for r0, r1 in zip(m0, m1)]
    return a, _det2(both) - a - c, c


def _product_spanned(v: Subspace) -> bool:
    """Whether a subspace of C^2 (x) C^2 is spanned by the product vectors
    it holds, the rank-one 2x2 matrices, decided by its dimension d.

    d = 0: trivially.  d = 3: always, as a hyperplane w-perp holds t (x) Bt
    for every t with B built from w, and those span it.  d = 4: it holds
    e_i (x) e_j.  d = 1: iff the line's matrix has determinant 0.  d = 2:
    the rank-one members are the roots of the binary form det(t0 B0 + t1 B1)
    over the basis; the plane is spanned iff the form is zero (every member
    has rank one) or has two distinct roots over C, i.e. b^2 - 4ac != 0.
    """
    if v.dim == 1:
        return not _det2(_as_matrix(v.basis[0]))
    if v.dim != 2:
        return True
    a, b, c = _pencil_form(*(_as_matrix(row) for row in v.basis))
    return not (a or b or c) or bool(b * b - GQ(4) * a * c)


def box_membership_test(subspace: Subspace) -> BoxVerdict:
    """Decide whether a subspace of C^2 (x) C^2 and its perp are both
    spanned by product vectors (see ``_product_spanned``): ``IN_BOX`` iff
    both are, ``NOT_IN_BOX`` otherwise.  No root is taken, so every
    subspace is decided.  Any other ambient dimension than 4 is refused.
    """
    if subspace.ambient != 4:
        raise ValueError("box membership is decided on C^2 (x) C^2 only, "
                         f"got ambient dimension {subspace.ambient}")
    if _product_spanned(subspace) and _product_spanned(subspace.perp()):
        return BoxVerdict.IN_BOX
    return BoxVerdict.NOT_IN_BOX


# -- dual covering failure ----------------------------------------------------

@dataclass(frozen=True)
class DualCoveringReport:
    """Witness data for the failure of covering in the order dual.

    A coatom x (the sigma-set of a product line's perp) and a closed
    two-atom set R with x meeting R trivially satisfy x v R = 1, yet the
    singleton sits strictly between the empty set and R; in the dual
    this breaks the covering of R by x join-dual R.
    """

    m: int
    n: int
    coatom_vector: Vector
    pair_a: ProductAtomPair
    pair_b: ProductAtomPair
    disjoint_from_coatom: bool
    two_atom_set_closed: bool
    join_with_coatom_is_top: bool
    strict_chain: bool

    @property
    def passed(self) -> bool:
        return (self.disjoint_from_coatom and self.two_atom_set_closed
                and self.join_with_coatom_is_top and self.strict_chain)


def _pencil_members_exactly_two(a: ProductAtomPair, b: ProductAtomPair) -> bool:
    """Exactly two product lines in the span of two product vectors.

    Write the generators as x (x) y and u (x) w.  Each 2x2 minor of the
    pencil is a binary form (a, b, c) (see ``_pencil_form``): a and c are
    minors of rank-one matrices, so zero, and b = det[x u] det[y w] over
    the minor's rows and columns.  So the members are exactly the
    generators iff some b is nonzero, iff x is not parallel to u and y is
    not parallel to w; on scale-canonical lines, iff both factors differ.
    """
    return a.p1 != b.p1 and a.p2 != b.p2


def dual_covering_counterexample(m: int, n: int) -> DualCoveringReport:
    """Construct and verify the four-step dual-covering failure."""
    if m < 2 or n < 2:
        raise ValueError("both factors must have dimension at least 2")
    if m > MAX_FACTOR_DIM or n > MAX_FACTOR_DIM:
        raise ValueError(f"factor dimensions capped at {MAX_FACTOR_DIM}")
    p = ProductAtomPair(basis_vector(m, 0), basis_vector(n, 0))
    v = p.product_vector()
    x_subspace = Subspace(m * n, [v]).perp()
    ones_m = tuple(ONE for _ in range(m))
    ones_n = tuple(ONE for _ in range(n))
    ramp_m = tuple(GQ(k + 1) for k in range(m))
    ramp_n = tuple(GQ(k + 1) for k in range(n))
    r = ProductAtomPair(ones_m, ones_n)
    s = ProductAtomPair(ramp_m, ramp_n)
    disjoint = (not sigma_membership(x_subspace, r)
                and not sigma_membership(x_subspace, s)
                and r.p1 != s.p1 and r.p2 != s.p2)
    v_r = join_atoms([r, s])
    closed_two = v_r.dim == 2 and _pencil_members_exactly_two(r, s)
    top = x_subspace.sum(v_r).dim == m * n
    singleton = Subspace(m * n, [r.product_vector()])
    chain = (sigma_membership(singleton, r) and not sigma_membership(singleton, s)
             and sigma_membership(v_r, r) and sigma_membership(v_r, s))
    return DualCoveringReport(
        m=m, n=n, coatom_vector=v, pair_a=r, pair_b=s,
        disjoint_from_coatom=disjoint,
        two_atom_set_closed=closed_two,
        join_with_coatom_is_top=top,
        strict_chain=chain,
    )


# -- seeded sampling helpers ---------------------------------------------------

def random_gq(rng: Random) -> GQ:
    """p/q + (r/s) i with p, r in -3..3 and q, s in 1..3; zero is a possible draw."""
    p, q = rng.randint(-3, 3), rng.randint(1, 3)
    r, s = rng.randint(-3, 3), rng.randint(1, 3)
    return _reduced(p * s, r * q, q * s)


def random_vector(rng: Random, dim: int) -> Vector:
    """A nonzero vector of ``dim`` >= 1 random entries."""
    if dim < 1:
        raise ValueError(f"a nonzero vector needs dimension at least 1, got {dim}")
    while True:
        v = tuple(random_gq(rng) for _ in range(dim))
        if not is_zero_vector(v):
            return v


def random_pair(rng: Random, m: int, n: int) -> ProductAtomPair:
    return ProductAtomPair(random_vector(rng, m), random_vector(rng, n))


def random_subspace(rng: Random, ambient: int) -> Subspace:
    k = rng.randint(0, ambient)
    return Subspace(ambient, [random_vector(rng, ambient) for _ in range(k)])


def random_antilinear(rng: Random, m: int, n: int) -> AntilinearMap:
    while True:
        mat = tuple(tuple(random_gq(rng) for _ in range(m)) for _ in range(n))
        a = AntilinearMap(mat)
        if not a.is_zero():
            return a


# -- CLI literals ---------------------------------------------------------------

# an optionally signed integer or NUM/DEN in ASCII digits: no exponent, no
# decimal point, no underscore, as Fraction() would also accept
_FRACTION_LITERAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _parse_fraction(tok: str) -> Fraction:
    if not _FRACTION_LITERAL.fullmatch(tok):
        raise ValueError(f"bad fraction in Gaussian-rational literal: {tok!r}")
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad fraction in Gaussian-rational literal: {exc}") from None


def parse_gq_tokens(tokens: Sequence[str]) -> list[GQ]:
    """Parse 'gr RE IM' token triples, RE and IM as integers or NUM/DEN
    fractions in decimal digits, optionally with a leading minus."""
    out = []
    it = iter(tokens)
    for tok in it:
        if tok != "gr":
            raise ValueError(f"expected 'gr', got {tok!r}")
        try:
            parts = next(it), next(it)
        except StopIteration:
            raise ValueError("truncated Gaussian-rational literal") from None
        out.append(GQ(*map(_parse_fraction, parts)))
    return out


def parse_gq_matrix(text: str, rows: int, cols: int) -> Matrix:
    values = parse_gq_tokens(text.split())
    if len(values) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(values)}")
    return tuple(tuple(values[r * cols + c] for c in range(cols)) for r in range(rows))
