"""Exact tensor-product subspace computations over the Gaussian rationals.

Realizes the product of two projective lattices of column spaces at
small dimension: membership of product atoms in a subspace, joins via
double orthocomplement, coatoms induced by antilinear maps, a decision
procedure for box-product membership of a subspace of C^2 (x) C^2 that
reads each plane's rank-one members off a discriminant, with no square
root taken, and the failure of the covering property in the order dual.

All arithmetic is exact over Q(i); there is no floating point anywhere.
A scalar ``GQ`` is a value with no arithmetic: (a + b*i) / d stored as
three Python ints with d > 0 and gcd(a, b, d) = 1, so equal values are
equal triples.  Every computation is on rows of Gaussian integers: the
int lists of a vector's parts times a positive int.  Elimination is
fraction free (a pivot row times its conjugate pivot, d*x - x[c]*y for
another row) and divides each row by the gcd of its parts, so the rows it
leaves, over their least common pivot value, are a canonical form.  A
``Subspace`` holds those rows for the reduced row echelon form of the
rows it is given, and a ``ProductAtomPair`` the rows of its lines; ``GQ``
values, one gcd per entry, are made only at the boundary: a subspace's
unit-pivot basis, a pair's lines scaled to a leading 1, and returned
vectors.  Atom sets are never enumerated: an element of the product is
represented by its subspace, and point membership is a residual against
the basis.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from operator import add, mul
from random import Random
from typing import Callable, NamedTuple, Sequence

from .spaces import CheckedRecord, require_int

MAX_FACTOR_DIM = 3


class GQ(CheckedRecord):
    """A Gaussian rational (a + b*i) / d held as three Python ints.

    Invariant: d > 0 and gcd(a, b, d) = 1, so each value has exactly one
    triple.  A ``GQ`` is a value only: it has no arithmetic, which the
    module does on integer rows.  ``re`` and ``im`` read it back as
    ``Fraction``, and it is compared, hashed, shown and pickled by them.
    A part that is no int or ``Fraction`` (a float or a bool, say) is a
    ValueError.
    """

    __slots__ = ("_a", "_b", "_d")
    _fields = ("re", "im")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        for part in (re, im):
            if isinstance(part, bool) or not isinstance(part, (int, Fraction)):
                raise ValueError(f"a GQ part must be an int or a Fraction, got {part!r}")
        re, im = Fraction(re), Fraction(im)
        # both parts are in lowest terms, so no prime of the lcm divides
        # both scaled numerators: the triple is reduced without a gcd
        d = math.lcm(re.denominator, im.denominator)
        _set_a(self, re.numerator * (d // re.denominator))
        _set_b(self, im.numerator * (d // im.denominator))
        _set_d(self, d)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

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
# constructors use them.
_set_a, _set_b, _set_d = GQ._a.__set__, GQ._b.__set__, GQ._d.__set__
_new = object.__new__


def _reduced(a: int, b: int, d: int) -> GQ:
    """(a + b*i) / d for d > 0, divided through by gcd(a, b, d)."""
    g = math.gcd(a, b, d)
    z = _new(GQ)
    _set_a(z, a // g)
    _set_b(z, b // g)
    _set_d(z, d // g)
    return z


ZERO = GQ()
ONE = GQ(1)

Vector = tuple[GQ, ...]
Matrix = tuple[Vector, ...]


# -- vectors ------------------------------------------------------------------

def _check_dimension(n: int, name: str) -> None:
    # a zero or negative dimension would give the empty space, its own
    # orthocomplement
    if require_int(n, name) < 1:
        raise ValueError(f"{name} must be a positive integer, got {n!r}")


def basis_vector(n: int, k: int) -> Vector:
    """The k-th unit vector of C^n; n must be a positive int and k an int
    in 0..n-1, else a ValueError."""
    _check_dimension(n, "dimension")
    if not 0 <= require_int(k, "index") < n:
        raise ValueError(f"index must be an integer in 0..{n - 1}, got {k!r}")
    return tuple(ONE if j == k else ZERO for j in range(n))


def tensor(p1: Vector, p2: Vector) -> Vector:
    """Product vector of two factor vectors, index (i, j) -> i * n + j."""
    (x, d1), (y, d2) = _ints(p1, len(p1)), _ints(p2, len(p2))
    if not (any(map(any, x)) and any(map(any, y))):
        raise ValueError("tensor factors must be nonzero")
    return _gqs(_tensor_ints(x, y), d1 * d2)


# -- Gaussian-integer rows ----------------------------------------------------
# A row is the pair (re, im) of int lists, the parts of a vector times a
# positive int; the lists are never changed in place.

_Row = tuple[list[int], list[int]]


def _ints(x: Vector, n: int, kind: str = "vector") -> tuple[_Row, int]:
    """The parts of x times d, the lcm of its denominators, and d; x must
    be n GQs."""
    if len(x) != n or not all(isinstance(a, GQ) for a in x):
        raise ValueError(f"{kind} {x!r} is no vector of {n} Gaussian rationals")
    d = math.lcm(*[a._d for a in x])
    return ([a._a * (d // a._d) for a in x], [a._b * (d // a._d) for a in x]), d


def _gqs(row: _Row, d: int) -> Vector:
    """The vector row / d."""
    return tuple(_reduced(a, b, d) if a or b else ZERO for a, b in zip(*row))


def _tensor_ints(x: _Row, y: _Row) -> _Row:
    """The product row, index (i, j) -> i * len(y) + j, as in ``tensor``."""
    (xr, xi), (yr, yi) = x, y
    return ([a * c - b * d for a, b in zip(xr, xi) for c, d in zip(yr, yi)],
            [a * d + b * c for a, b in zip(xr, xi) for c, d in zip(yr, yi)])


def _primitive(re: list[int], im: list[int]) -> _Row:
    g = math.gcd(*re, *im)
    return ([a // g for a in re], [b // g for b in im]) if g > 1 else (re, im)


def _echelon(rows: Sequence[_Row]) -> tuple[list[_Row], list[int], int]:
    """Fraction-free Gauss-Jordan elimination (see the module docstring):
    the reduced rows, scaled to one pivot value d, the least positive int
    that makes them integral, their pivot columns and d.  Zero rows drop."""
    rows, pivots, n = list(rows), [], len(rows)
    for c in range(len(rows[0][0]) if rows else 0):
        r = len(pivots)
        for i in range(r, n):
            if rows[i][0][c] or rows[i][1][c]:
                break
        else:
            continue
        (yr, yi), pr, pi = rows[i], rows[i][0][c], rows[i][1][c]
        if pi or pr < 0:  # times the conjugate pivot, which makes it |pivot|^2
            yr, yi = ([a * pr + b * pi for a, b in zip(yr, yi)],
                      [b * pr - a * pi for a, b in zip(yr, yi)])
        rows[i], rows[r] = rows[r], _primitive(yr, yi)
        (yr, yi), d = rows[r], rows[r][0][c]
        for i, (xr, xi) in enumerate(rows):
            fr, fi = xr[c], xi[c]
            if (fr or fi) and i != r:  # d*x - x[c]*y
                rows[i] = _primitive([d * a - fr * b + fi * e for a, b, e in zip(xr, yr, yi)],
                                     [d * a - fr * e - fi * b for a, b, e in zip(xi, yr, yi)])
        pivots.append(c)
    d = math.lcm(*[re[p] for (re, _), p in zip(rows, pivots)])
    return [([a * (d // re[p]) for a in re], [b * (d // re[p]) for b in im])
            for (re, im), p in zip(rows, pivots)], pivots, d


# -- subspaces ---------------------------------------------------------------

class Subspace(CheckedRecord):
    """The span of ``rows`` in the coordinate space of dimension
    ``ambient``, held as the reduced row echelon form of the rows with unit
    pivots, so equal subspaces have equal bases.  An ``ambient`` that is no
    positive int, or a row that is not ``ambient`` ``GQ`` entries, is a
    ValueError.  The form is held as the integer rows of ``_echelon`` over
    their pivot value ``_d``; they are canonical too, so they are compared
    in place of the basis, which is made on each read.  ``pivots`` is
    derived from the basis, so it is neither compared nor shown.
    """

    __slots__ = ("ambient", "pivots", "_rows", "_d")
    _fields = ("ambient", "basis")
    ambient: int
    pivots: tuple[int, ...]

    def __init__(self, ambient: int, rows: Sequence[Vector] = ()):
        _check_dimension(ambient, "ambient")
        _subspace(ambient, [_ints(row, ambient, "row")[0] for row in rows], self)

    @property
    def basis(self) -> Matrix:
        return tuple(_gqs(row, self._d) for row in self._rows)

    def __eq__(self, other):  # as the bases compare, without making them
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ambient == other.ambient and self._rows == other._rows

    __hash__ = CheckedRecord.__hash__

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _residual(self, x: _Row) -> _Row:
        """d times the residual of x: zero at each pivot, and at each free
        column f, d*x[f] - sum_p x[p]*row_p[f]."""
        (xr, xi), n, d = x, self.ambient, self._d
        re, im = [0] * n, [0] * n
        for f in range(n):
            if f not in self.pivots:
                a, b = d * xr[f], d * xi[f]
                for p, (yr, yi) in zip(self.pivots, self._rows):
                    a -= xr[p] * yr[f] - xi[p] * yi[f]
                    b -= xr[p] * yi[f] + xi[p] * yr[f]
                re[f], im[f] = a, b
        return re, im

    def _perp_rows(self) -> list[_Row]:
        """Rows spanning the orthocomplement: free column f gives
        d*e_f - sum_p conj(row_p[f]) e_p (the unit rows, for the zero space)."""
        n, out = self.ambient, []
        for f in range(n):
            if f not in self.pivots:
                re, im = [0] * n, [0] * n
                re[f] = self._d
                for p, (yr, yi) in zip(self.pivots, self._rows):
                    re[p], im[p] = -yr[f], yi[f]
                out.append((re, im))
        return out

    def perp(self) -> "Subspace":
        """Orthocomplement under the Hermitian inner product."""
        return _subspace(self.ambient, self._perp_rows())

    def sum(self, other: "Subspace") -> "Subspace":
        if other.ambient != self.ambient:
            raise ValueError("ambient dimensions differ")
        return _subspace(self.ambient, self._rows + other._rows)


def _subspace(ambient: int, rows: Sequence[_Row], s: Subspace | None = None) -> Subspace:
    """The span of integer rows; fills ``s`` when given."""
    s = _new(Subspace) if s is None else s
    rows, pivots, d = _echelon(rows)
    object.__setattr__(s, "ambient", ambient)
    object.__setattr__(s, "pivots", tuple(pivots))
    object.__setattr__(s, "_rows", tuple(rows))
    object.__setattr__(s, "_d", d)
    return s


def _line(row: _Row) -> Subspace:
    """The span of a row that must be nonzero."""
    line = _subspace(len(row[0]), [row])
    if not line.dim:
        raise ValueError("cannot normalize the zero vector")
    return line


# -- product-atom machinery ---------------------------------------------------

class ProductAtomPair(CheckedRecord):
    """A pair of projective points, each line scaled so that its first
    nonzero coordinate is 1, the canonical vector of a line.  The lines are
    held as nonzero integer rows of any scale; ``p1`` and ``p2`` are each
    line's ``Subspace`` basis vector, made on each read."""

    __slots__ = ("_rows",)
    _fields = ("p1", "p2")

    def __init__(self, p1: Vector, p2: Vector):
        _pair(*(_line(_ints(x, len(x))[0])._rows[0] for x in (p1, p2)), self)

    p1 = property(lambda self: _line(self._rows[0]).basis[0])
    p2 = property(lambda self: _line(self._rows[1]).basis[0])

    @property
    def _shape(self) -> tuple[int, int]:
        return len(self._rows[0][0]), len(self._rows[1][0])

    def product_vector(self) -> Vector:
        return tensor(self.p1, self.p2)


def _pair(x: _Row, y: _Row, pair: ProductAtomPair | None = None) -> ProductAtomPair:
    pair = _new(ProductAtomPair) if pair is None else pair
    object.__setattr__(pair, "_rows", (x, y))
    return pair


def sigma_membership(subspace: Subspace, pair: ProductAtomPair) -> bool:
    """Whether the pair's product vector lies in the subspace (residual
    against the canonical basis)."""
    m, n = pair._shape
    if m * n != subspace.ambient:
        raise ValueError(f"the product vector of a {m}x{n} pair is no vector of "
                         f"{subspace.ambient} Gaussian rationals")
    return not any(map(any, subspace._residual(_tensor_ints(*pair._rows))))


def join_atoms(pairs: Sequence[ProductAtomPair]) -> Subspace:
    """Join of product atoms: span of the product vectors, in the product
    of the factor dimensions the pairs share.

    The double orthocomplement is verified to reproduce the span, which
    is the finite-dimensional identity backing the join formula.
    """
    if not pairs:
        raise ValueError("join of no atoms is not defined here")
    shapes = {p._shape for p in pairs}
    if len(shapes) != 1:
        raise ValueError(f"product atoms of different shapes: {sorted(shapes)}")
    (m, n), = shapes
    span = _subspace(m * n, [_tensor_ints(*p._rows) for p in pairs])
    if span.perp().perp() != span:
        raise RuntimeError("double orthocomplement drifted from the span")
    return span


# -- antilinear maps and induced coatoms -------------------------------------

class AntilinearMap(CheckedRecord):
    """The antilinear map w -> S . conj(w), held as the matrix S of its
    canonical bases.  An empty or ragged matrix, or an entry that is no
    ``GQ``, is a ValueError."""

    __slots__ = _fields = ("matrix",)
    matrix: Matrix  # n rows, m cols

    def __init__(self, matrix: Matrix):
        if not matrix or not matrix[0]:
            raise ValueError("empty matrix")
        cols = len(matrix[0])
        for row in matrix:
            if len(row) != cols or not all(isinstance(a, GQ) for a in row):
                raise ValueError(f"row {row!r} is no row of {cols} Gaussian rationals")
        object.__setattr__(self, "matrix", tuple(map(tuple, matrix)))

    @property
    def rows(self) -> int:
        return len(self.matrix)

    @property
    def cols(self) -> int:
        return len(self.matrix[0])

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
    s, _ = _ints(sum(a_map.matrix, ()), m * n)  # S_jk at j*m + k, over one denominator

    def member(pair: ProductAtomPair) -> bool:
        """Whether <A p1, p2> = sum_jk conj(S_jk) p1_k p2_j = <S, p2 (x) p1> is 0."""
        if pair._shape != (m, n):
            raise ValueError(f"a {pair._shape} pair is no point of a map from C^{m} to C^{n}")
        (sr, si), (xr, xi) = s, _tensor_ints(pair._rows[1], pair._rows[0])
        return not (sum(map(mul, sr, xr)) + sum(map(mul, si, xi))
                    or sum(map(mul, sr, xi)) - sum(map(mul, si, xr)))

    return v, member


def sharp_point(pair: ProductAtomPair) -> Subspace:
    """The cross subspace p1-perp (x) H2 + H1 (x) p2-perp."""
    (m, n), (line1, line2) = pair._shape, map(_line, pair._rows)
    units_m, units_n = _subspace(m, ())._perp_rows(), _subspace(n, ())._perp_rows()
    vectors = [_tensor_ints(u, e) for u in line1._perp_rows() for e in units_n]
    vectors += [_tensor_ints(e, w) for e in units_m for w in line2._perp_rows()]
    return _subspace(m * n, vectors)


def verify_point_biorthogonality(pair: ProductAtomPair) -> bool:
    """perp of the sharp cross is exactly the pair's product line."""
    cross = sharp_point(pair)
    return cross.perp() == _subspace(cross.ambient, [_tensor_ints(*pair._rows)])


# -- box membership -----------------------------------------------------------

class BoxVerdict(Enum):
    IN_BOX = "in-box"
    NOT_IN_BOX = "not-in-box"


def _mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """The product of two Gaussian integers given as (re, im)."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _cross(x: _Row, y: _Row) -> tuple[int, int]:
    """x[0]*y[3] - x[1]*y[2] for rows of C^2 (x) C^2: the determinant of
    the 2x2 coefficient matrix of x when y is x."""
    (xr, xi), (yr, yi) = x, y
    (a, b), (c, d) = _mul((xr[0], xi[0]), (yr[3], yi[3])), _mul((xr[1], xi[1]), (yr[2], yi[2]))
    return a - c, b - d


def _product_spanned(v: Subspace) -> bool:
    """Whether a subspace of C^2 (x) C^2 is spanned by the product vectors
    it holds, the rank-one 2x2 matrices, decided by its dimension d.

    d = 0: trivially.  d = 3: always, as a hyperplane w-perp holds t (x) Bt
    for every t with B built from w, and those span it.  d = 4: it holds
    e_i (x) e_j.  d = 1: iff the line's matrix has determinant 0.  d = 2:
    the rank-one members are the roots of the binary form det(t0 B0 + t1 B1)
    = a t0^2 + b t0 t1 + c t1^2 over the basis; the plane is spanned iff
    the form is zero (every member has rank one) or has two distinct roots
    over C, i.e. b^2 - 4ac != 0.  The forms are read off the integer rows,
    the basis times d: they are homogeneous, so each is zero or not at
    either scale.
    """
    if v.dim == 1:
        return not any(_cross(v._rows[0], v._rows[0]))
    if v.dim != 2:
        return True
    x, y = v._rows
    a, c = _cross(x, x), _cross(y, y)
    b = tuple(map(add, _cross(x, y), _cross(y, x)))
    (bb, bi), (ac, ai) = _mul(b, b), _mul(a, c)
    return not any(a + b + c) or bool(bb - 4 * ac or bi - 4 * ai)


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

class DualCoveringReport(NamedTuple):
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
    pencil is a binary form (a, b, c) (see ``_product_spanned``): a and c are
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

# An entry p/q + (r/s) i is drawn as the ints 36p/q and 36r/s over 36, by
# rng.choice over these tuples, which calls rng._randbelow as randint(-3, 3)
# and randint(1, 3) do: every seeded stream and drawn value stays the same.
_NUMERATORS, _SCALES, _DENOMINATOR = tuple(range(-3, 4)), (36, 18, 12), 36


def _draw(rng: Random, dim: int) -> _Row:
    """A nonzero row of ``dim`` random entries over ``_DENOMINATOR``."""
    _check_dimension(dim, "dimension")  # the zero row is the only row of C^0
    c = rng.choice
    while True:
        parts = [c(_NUMERATORS) * c(_SCALES) for _ in range(2 * dim)]
        if any(parts):
            return parts[::2], parts[1::2]


def random_gq(rng: Random) -> GQ:
    """p/q + (r/s) i with p, r in -3..3 and q, s in 1..3; zero is a possible draw."""
    c = rng.choice
    re = c(_NUMERATORS) * c(_SCALES)
    return _reduced(re, c(_NUMERATORS) * c(_SCALES), _DENOMINATOR)


def random_pair(rng: Random, m: int, n: int) -> ProductAtomPair:
    return _pair(_draw(rng, m), _draw(rng, n))


def random_subspace(rng: Random, ambient: int) -> Subspace:
    _check_dimension(ambient, "ambient")
    k = rng.randint(0, ambient)
    return _subspace(ambient, [_draw(rng, ambient) for _ in range(k)])


def random_antilinear(rng: Random, m: int, n: int) -> AntilinearMap:
    for dim in (m, n):
        _check_dimension(dim, "dimension")
    while True:
        mat = tuple(tuple(random_gq(rng) for _ in range(m)) for _ in range(n))
        a = AntilinearMap(mat)
        if not a.is_zero():
            return a
