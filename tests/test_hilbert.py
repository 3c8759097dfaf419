import collections
import itertools
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FRACTION_ONE,
    FRACTION_ZERO,
    as_fraction_gq,
    as_gq,
    box_verdict_by_pencil,
    box_verdict_by_roots,
    conj_vector,
    contains_by_rref,
    fraction_random_antilinear,
    fraction_random_gq,
    fraction_random_pair,
    fraction_random_subspace,
    fraction_random_vector,
    fraction_inner,
    fraction_normalize,
    fraction_rref,
    fraction_tensor,
    fraction_vector,
    gq_sqrt,
    hyperplane_spanned_by_products,
    kernel_by_rref,
    pencil_members_exactly_two_by_minors,
    perp_by_kernel,
    random_vector,
    sqrt_fraction,
    two_rank_one_members_by_cmath,
)
from weaktensor import hilbert
from weaktensor.hilbert import (
    AntilinearMap,
    BoxVerdict,
    GQ,
    ONE,
    ProductAtomPair,
    Subspace,
    ZERO,
    basis_vector,
    box_membership_test,
    coatom_from_antilinear,
    dual_covering_counterexample,
    join_atoms,
    random_antilinear,
    random_gq,
    random_pair,
    random_subspace,
    sharp_point,
    sigma_membership,
    tensor,
    verify_point_biorthogonality,
)

e = basis_vector
I = GQ(0, 1)
UNITS = (ZERO, ONE, GQ(-1), I, GQ(0, -1))  # 0, +-1, +-i
DIAGONAL = (ONE, ZERO, ZERO, ONE)  # e0 (x) e0 + e1 (x) e1, no product vector


def full(n: int) -> Subspace:
    return Subspace(n, [e(n, k) for k in range(n)])


def scaled(c: GQ, v) -> tuple[GQ, ...]:
    """c times the vector v, formed over ``FractionGQ``."""
    return tuple(as_gq(as_fraction_gq(c) * a) for a in fraction_vector(v))


def combination(rng: Random, rows, width: int) -> tuple[GQ, ...]:
    """The sum of ``random_gq(rng)`` times each row, the scalars drawn in
    row order, formed over ``FractionGQ``."""
    acc = (FRACTION_ZERO,) * width
    for row in rows:
        c = as_fraction_gq(random_gq(rng))
        acc = tuple(a + c * b for a, b in zip(acc, fraction_vector(row)))
    return tuple(map(as_gq, acc))


# -- scalars -----------------------------------------------------------------------

@pytest.mark.parametrize("part", [0.1, 1.0, True, False, 1j, "1/2", None])
def test_gq_refuses_a_part_that_is_no_int_or_fraction(part):
    # GQ(0.1) once built 3602879701896397/36028797018963968, and GQ(True) 1
    for args in ((part,), (0, part)):
        with pytest.raises(ValueError, match=f"^a GQ part must be an int or a Fraction, got {part!r}$"):
            GQ(*args)


def test_sqrt_cases():
    assert sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_fraction(Fraction(2)) is None
    assert gq_sqrt(GQ(-4)) == as_fraction_gq(GQ(0, 2))
    assert gq_sqrt(GQ(0, 2)) == as_fraction_gq(GQ(1, 1))
    assert gq_sqrt(GQ(8)) is None
    assert gq_sqrt(GQ(3, 4)) == as_fraction_gq(GQ(2, 1))
    z = as_fraction_gq(GQ(Fraction(2, 3), Fraction(-5, 7)))
    assert gq_sqrt(z * z) in (z, -z)


def test_render():
    assert GQ(1).render() == "1"
    assert GQ(0, 1).render() == "1i"
    assert GQ(Fraction(3, 4), Fraction(-1, 2)).render() == "3/4-1/2i"


# -- the integer-triple scalar against the Fraction-pair oracle --------------------

small_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=4)


def _assert_scalar_ops_match(x, y):
    """Every operation on two GQ values agrees with FractionGQ on the same values."""
    fx, fy = as_fraction_gq(x), as_fraction_gq(y)
    assert GQ(x.re, x.im) == x
    assert x.render() == fx.render()
    assert bool(x) == bool(fx)
    assert (x == y) == (fx == fy)
    if x == y:
        assert hash(x) == hash(y)


@given(small_fractions, small_fractions, small_fractions, small_fractions)
@settings(max_examples=150)
def test_gq_matches_the_fraction_pair_oracle(a, b, c, d):
    x, y = GQ(a, b), GQ(c, d)
    _assert_scalar_ops_match(x, y)
    assert (x.re, x.im) == (a, b)
    # the same value built another way is the same triple
    assert GQ(a * 3 / 3, b) == x and hash(GQ(a * 3 / 3, b)) == hash(x)


def test_gq_matches_the_fraction_pair_oracle_on_seeded_draws():
    rng = Random(4511)
    values = [random_gq(rng) for _ in range(60)] + [ZERO, ONE, I, GQ(-1)]
    for x in values:
        for y in values:
            _assert_scalar_ops_match(x, y)
    # products and quotients leave the drawn range; keep them in play
    for _ in range(200):
        x, y = map(as_fraction_gq, (rng.choice(values), rng.choice(values)))
        z = as_gq(x * y - (x / y if y else FRACTION_ONE))
        _assert_scalar_ops_match(z, as_gq(x))


def test_gq_is_immutable():
    z = GQ(Fraction(1, 2), 3)
    for name in ("re", "im", "_a", "_b", "_d"):
        with pytest.raises(AttributeError):
            setattr(z, name, 1)
        with pytest.raises(AttributeError):
            delattr(z, name)
    assert z == GQ(Fraction(1, 2), 3)
    assert repr(z) == "GQ(re=Fraction(1, 2), im=Fraction(3, 1))"


def _matrix_with_dependent_rows(rng, rows, cols):
    """Random rows, about a third of them combinations of earlier ones."""
    out = []
    for _ in range(rows):
        if out and rng.random() < 0.35:
            row = combination(rng, rng.sample(out, rng.randint(1, len(out))), cols)
        else:
            row = tuple(random_gq(rng) if rng.random() < 0.7 else ZERO for _ in range(cols))
        out.append(row)
    return out


def test_rref_matches_the_fraction_pair_oracle():
    rng = Random(4512)
    dependent = 0
    for rows in range(1, 10):
        for cols in range(1, 10):
            for _ in range(2):
                mat = _matrix_with_dependent_rows(rng, rows, cols)
                s = Subspace(cols, mat)
                red, pivots = s.basis, list(s.pivots)
                want, want_pivots = fraction_rref([[as_fraction_gq(a) for a in r] for r in mat])
                assert pivots == want_pivots
                assert [[as_fraction_gq(a) for a in r] for r in red] == want
                dependent += len(red) < min(rows, cols)
    assert dependent > 20


def test_seeded_draws_match_the_fraction_pair_oracle():
    # the library draws by rng.choice and the oracle by rng.randint: the
    # values and the generator state must agree after every draw
    def agree(got, want):
        assert got == want
        assert new.getstate() == old.getstate()

    for seed in range(20):
        new, old = Random(seed), Random(seed)
        for _ in range(10):
            agree(as_fraction_gq(random_gq(new)), fraction_random_gq(old))
        for dim in (1, 2, 3, 9):
            agree(tuple(map(as_fraction_gq, random_vector(new, dim))), fraction_random_vector(old, dim))
        for m, n in ((2, 2), (2, 3), (3, 3)):
            pair = random_pair(new, m, n)
            got = (tuple(map(as_fraction_gq, pair.p1)), tuple(map(as_fraction_gq, pair.p2)))
            agree(got, fraction_random_pair(old, m, n))
            a_map = random_antilinear(new, m, n)
            agree(tuple(tuple(map(as_fraction_gq, r)) for r in a_map.matrix),
                  fraction_random_antilinear(old, m, n))
        for ambient in (1, 2, 4, 6, 9):
            s = random_subspace(new, ambient)
            agree([list(map(as_fraction_gq, r)) for r in s.basis], fraction_random_subspace(old, ambient))
        assert new.random() == old.random()


def test_samplers_refuse_a_dimension_below_one():
    # the only vector of dimension 0 is zero, so redrawing until nonzero never ends
    # a float or a bool dimension once raised a bare TypeError or drew on C^1
    rng = Random(1)
    for bad in (0, -1, 2.0, True):
        says = "a positive integer" if type(bad) is int else "an integer"
        for draw in (lambda: random_pair(rng, bad, 2),
                     lambda: random_pair(rng, 2, bad), lambda: random_antilinear(rng, bad, 2),
                     lambda: random_antilinear(rng, 2, bad), lambda: random_subspace(rng, bad)):
            with pytest.raises(ValueError, match=f"must be {says}, got {bad!r}$"):
                draw()


# -- row reduction -----------------------------------------------------------------

def test_rref_is_canonical_under_row_shuffles():
    rows = [(GQ(1), GQ(2), GQ(0, 1)), (GQ(0), GQ(1), GQ(3)), (GQ(2), GQ(5), GQ(3, 2))]
    a = Subspace(3, rows).basis
    b = Subspace(3, rows[::-1]).basis
    assert a == b
    again = Subspace(3, a).basis
    assert again == a


def test_kernel_oracle():
    row = (GQ(1), GQ(0), GQ(-1))
    k = Subspace(3, [conj_vector(row)]).perp().basis
    assert len(k) == 2
    for v in k:
        assert not fraction_inner(conj_vector(row), v)


# -- subspaces ----------------------------------------------------------------------

def test_perp_of_full_is_zero():
    assert full(4).perp() == Subspace(4)


def test_perp_of_coordinate_line():
    v = Subspace(4, [tensor(e(2, 0), e(2, 0))])
    p = v.perp()
    expected = Subspace(4, [tensor(e(2, 0), e(2, 1)), tensor(e(2, 1), e(2, 0)),
                            tensor(e(2, 1), e(2, 1))])
    assert p == expected


def test_perp_of_diagonal_line():
    v = Subspace(4, [DIAGONAL])
    diff = (ONE, ZERO, ZERO, GQ(-1))
    expected = Subspace(4, [tensor(e(2, 0), e(2, 1)), tensor(e(2, 1), e(2, 0)), diff])
    assert v.perp() == expected


def test_perp_involution_and_dimension_law():
    rng = Random(101)
    for ambient in (4, 6, 9):
        for _ in range(40):
            v = random_subspace(rng, ambient)
            p = v.perp()
            assert v.dim + p.dim == ambient
            assert p.perp() == v
            for b1 in v.basis:
                for b2 in p.basis:
                    assert not fraction_inner(b1, b2)


def test_tensor_rejects_zero():
    with pytest.raises(ValueError):
        tensor((ZERO, ZERO), e(2, 0))


# -- sigma membership ------------------------------------------------------------------

def test_sigma_membership_on_slices():
    v = Subspace(4, [tensor(e(2, 0), e(2, 0)), tensor(e(2, 0), e(2, 1))])
    assert sigma_membership(v, ProductAtomPair(e(2, 0), (GQ(3), GQ(1, 2))))
    assert not sigma_membership(v, ProductAtomPair(e(2, 1), e(2, 0)))


def test_diagonal_line_has_no_product_members():
    v = Subspace(4, [DIAGONAL])
    rng = Random(7)
    for _ in range(25):
        assert not sigma_membership(v, random_pair(rng, 2, 2))


def test_two_point_span_members_are_exactly_the_generators():
    v = Subspace(4, [tensor(e(2, 0), e(2, 0)), tensor(e(2, 1), e(2, 1))])
    assert sigma_membership(v, ProductAtomPair(e(2, 0), e(2, 0)))
    assert sigma_membership(v, ProductAtomPair(e(2, 1), e(2, 1)))
    assert not sigma_membership(v, ProductAtomPair(e(2, 0), e(2, 1)))
    rng = Random(8)
    for _ in range(25):
        pair = random_pair(rng, 2, 2)
        member = sigma_membership(v, pair)
        generator = pair in (ProductAtomPair(e(2, 0), e(2, 0)),
                             ProductAtomPair(e(2, 1), e(2, 1)))
        assert member == generator


def test_sigma_membership_is_scale_invariant():
    v = Subspace(4, [tensor(e(2, 0), e(2, 0)), tensor(e(2, 1), e(2, 1))])
    rng = Random(9)
    for _ in range(20):
        p1, p2 = random_vector(rng, 2), random_vector(rng, 2)
        a = ProductAtomPair(p1, p2)
        b = ProductAtomPair(scaled(GQ(2, 3), p1), scaled(GQ(0, -5), p2))
        assert sigma_membership(v, a) == sigma_membership(v, b)


def test_product_atom_pair_scales_both_lines():
    rng = Random(4514)
    for m, n in ((2, 2), (2, 3), (3, 3)):
        for _ in range(20):
            p1, p2 = random_vector(rng, m), random_vector(rng, n)
            pair = ProductAtomPair(scaled(GQ(2, 3), p1), scaled(GQ(0, -5), p2))
            assert pair == ProductAtomPair(p1, p2)
            assert (fraction_vector(pair.p1), fraction_vector(pair.p2)) == (
                fraction_normalize(fraction_vector(p1)), fraction_normalize(fraction_vector(p2)))
            assert next(filter(None, pair.p1)) == ONE == next(filter(None, pair.p2))
    with pytest.raises(ValueError, match="zero vector"):
        ProductAtomPair((ZERO, ZERO), e(2, 0))


# -- joins ----------------------------------------------------------------------------------

def test_join_of_one_pair_is_its_line():
    pair = ProductAtomPair((GQ(1), GQ(2)), (GQ(0, 1), GQ(3)))
    v = join_atoms([pair])
    assert v.dim == 1
    assert sigma_membership(v, pair)


def test_join_of_two_spread_pairs_is_two_dimensional():
    a = ProductAtomPair(e(2, 0), e(2, 0))
    b = ProductAtomPair(e(2, 1), e(2, 1))
    v = join_atoms([a, b])
    assert v.dim == 2


def test_join_refuses_pairs_of_two_shapes():
    # a 2x3 and a 3x2 pair have product vectors of one length, 6, but no
    # common product space
    a = ProductAtomPair(e(2, 0), e(3, 1))
    b = ProductAtomPair(e(3, 2), e(2, 1))
    with pytest.raises(ValueError, match=r"different shapes: \[\(2, 3\), \(3, 2\)\]"):
        join_atoms([a, b])


def test_join_of_row_pairs_is_a_slice_with_full_section():
    a = ProductAtomPair(e(2, 0), e(2, 0))
    b = ProductAtomPair(e(2, 0), e(2, 1))
    v = join_atoms([a, b])
    assert v == Subspace(4, [tensor(e(2, 0), e(2, 0)), tensor(e(2, 0), e(2, 1))])
    # the section at e0 is all of C^2, the one at e1 is zero
    for w in (e(2, 0), e(2, 1), (ONE, I), (GQ(2), GQ(-1))):
        assert contains_by_rref(v, tensor(e(2, 0), w))
        assert not contains_by_rref(v, tensor(e(2, 1), w))


# -- canonical-basis reads against the rref oracles ------------------------------------------

def _differential_subspaces(rng: Random, ambient: int, count: int) -> list[Subspace]:
    """The zero and full subspaces plus spans of random rows, each row
    list with a dependent row (a combination of two drawn rows) mixed in."""
    out = [Subspace(ambient), full(ambient)]
    for _ in range(count):
        rows = [random_vector(rng, ambient) for _ in range(rng.randint(1, ambient))]
        rows.append(combination(rng, [rows[0], rows[-1]], ambient))
        rng.shuffle(rows)
        out.append(Subspace(ambient, rows))
    return out


def test_subspace_is_the_reduced_echelon_form_of_its_rows():
    # seeded rows, some combinations of earlier ones, with zero rows mixed
    # in, against the Fraction-pair rref
    rng = Random(4513)
    dependent = zero = 0
    for ambient in range(1, 8):
        for count in range(8):
            rows = _matrix_with_dependent_rows(rng, count, ambient) if count else []
            rows += [tuple(ZERO for _ in range(ambient))] * rng.randint(0, 2)
            rng.shuffle(rows)
            s = Subspace(ambient, rows)
            want, pivots = fraction_rref([[as_fraction_gq(a) for a in r] for r in rows])
            assert [[as_fraction_gq(a) for a in r] for r in s.basis] == want
            assert s.pivots == tuple(pivots) and s.dim == len(want)
            # the basis reduces to itself, and rows given as an iterator count too
            assert s == Subspace(ambient, s.basis) == Subspace(ambient, iter(rows))
            dependent += len(want) < min(count, ambient)
            zero += not any(map(any, rows)) and bool(rows)
    assert dependent > 10 and zero
    assert Subspace(3) == Subspace(3, ()) and Subspace(3).basis == ()
    # the unit vectors in any order reduce to themselves
    for n in range(1, 10):
        units = tuple(e(n, k) for k in range(n))
        assert Subspace(n, units[::-1]).basis == units


def test_subspace_refuses_a_row_of_another_length_or_an_entry_that_is_no_gq():
    with pytest.raises(ValueError, match="is no vector of 3 Gaussian rationals$"):
        Subspace(3, [(ONE, ZERO, ZERO), (ONE, ZERO)])
    for entry in (1, Fraction(1), 1.0, 1j):
        with pytest.raises(ValueError, match="is no vector of 2 Gaussian rationals$"):
            Subspace(2, [(ZERO, entry)])
    # a vector of another length was once cut short by zip: (ONE,) and e(5, 0)
    # read as members of the span of e(4, 0), and a 2x3 pair as a point of C^4
    s = Subspace(4, [e(4, 0)])
    for pair in (ProductAtomPair(e(2, 0), e(3, 0)), ProductAtomPair(e(3, 0), e(3, 0))):
        with pytest.raises(ValueError, match="pair is no vector of 4 Gaussian rationals$"):
            sigma_membership(s, pair)


def test_vector_functions_refuse_an_entry_that_is_no_gq():
    # each raised a bare AttributeError ('int' object has no attribute ...)
    for bad in ((1, 0), (ONE, 0), (ONE, Fraction(1, 2)), (ONE, 1.5)):
        for make in (lambda: ProductAtomPair(bad, e(2, 0)), lambda: ProductAtomPair(e(2, 0), bad),
                     lambda: tensor(bad, e(2, 0)), lambda: tensor(e(2, 0), bad)):
            with pytest.raises(ValueError, match="is no vector of 2 Gaussian rationals$"):
                make()
    a_map = AntilinearMap(((ONE, ZERO), (ZERO, ONE)))
    _, member = coatom_from_antilinear(a_map)
    with pytest.raises(ValueError, match=r"^a \(2, 3\) pair is no point of a map from C\^2 to C\^2$"):
        member(ProductAtomPair(e(2, 0), e(3, 0)))


@pytest.mark.parametrize("ambient", [0, -2, True, 2.0, "2"])
def test_subspace_refuses_an_ambient_that_is_no_positive_int(ambient):
    # -2 once built a zero subspace that was its own perp, and 2.0 one
    # whose perp raised TypeError
    says = "a positive integer" if type(ambient) is int else "an integer"
    with pytest.raises(ValueError, match=f"^ambient must be {says}, got {ambient!r}$"):
        Subspace(ambient)


def test_basis_vector_refuses_an_index_outside_its_dimension():
    assert basis_vector(2, 1) == (ZERO, ONE)
    for k in (2, 5, -1, True, 1.0):
        says = "an integer in 0..1" if type(k) is int else "an integer"
        with pytest.raises(ValueError, match=f"^index must be {says}, got {k!r}$"):
            basis_vector(2, k)
    for n in (0, -1, False, 2.0):
        says = "a positive integer" if type(n) is int else "an integer"
        with pytest.raises(ValueError, match=f"^dimension must be {says}, got {n!r}$"):
            basis_vector(n, 0)


# the factor shapes of the product ambients, whose points sigma_membership reads
SHAPES = {4: (2, 2), 6: (2, 3), 9: (3, 3)}


def test_perp_and_membership_match_the_rref_oracles():
    rng = Random(2011)
    outcomes = collections.Counter()
    for ambient in range(1, 10):
        for s in _differential_subspaces(rng, ambient, 6):
            assert s.perp().basis == perp_by_kernel(s).basis
            rows = [conj_vector(b) for b in s.basis] + [random_vector(rng, ambient)]
            assert (Subspace(ambient, [conj_vector(r) for r in rows]).perp().basis
                    == tuple(kernel_by_rref(rows, ambient)))
            if ambient in SHAPES:
                # the first pair lies in s joined with it; the others rarely do
                pairs = [random_pair(rng, *SHAPES[ambient]) for _ in range(3)]
                for t in (s, s.sum(join_atoms(pairs[:1]))):
                    for pair in pairs:
                        got = sigma_membership(t, pair)
                        assert got == contains_by_rref(t, pair.product_vector())
                        outcomes[got] += 1
    assert outcomes[True] and outcomes[False], outcomes


def _assert_kernel_matches_the_oracles(rows, width, pairs=()):
    """The integer kernel's reduced rows, perp and sigma membership of
    ``pairs`` against the ``Fraction``-pair row reduction."""
    s = Subspace(width, rows)
    want, want_pivots = fraction_rref([list(map(as_fraction_gq, r)) for r in rows])
    assert [list(map(as_fraction_gq, r)) for r in s.basis] == want
    assert list(s.pivots) == want_pivots
    assert s.perp().basis == tuple(kernel_by_rref([conj_vector(b) for b in s.basis], width))
    for pair in pairs:
        assert sigma_membership(s, pair) == contains_by_rref(s, pair.product_vector())
    return s


def test_integer_kernel_matches_the_fraction_pair_oracles():
    # every 1- and 2-row matrix over C^2 with entries in {0, 1, -1, i, 1/2 + i}
    entries = (ZERO, ONE, GQ(-1), I, GQ(Fraction(1, 2), 1))
    vectors = list(itertools.product(entries, repeat=2))
    spans = collections.Counter()
    for count in (1, 2):
        for rows in itertools.product(vectors, repeat=count):
            spans[_assert_kernel_matches_the_oracles(list(rows), 2).dim] += 1
    assert spans == {0: 2, 1: 138, 2: 510}
    # seeded rows, some dependent, on the ambients of the products, with
    # seeded pairs as membership probes
    rng = Random(2013)
    for width in (4, 6, 9):
        for count in range(1, width + 2):
            for _ in range(3):
                rows = _matrix_with_dependent_rows(rng, count, width)
                pairs = [random_pair(rng, *SHAPES[width]) for _ in range(3)]
                _assert_kernel_matches_the_oracles(rows, width, pairs)


def test_sharp_cross_factors_match_the_rref_kernel():
    rng = Random(2012)
    for m in (2, 3):
        for _ in range(10):
            p = random_vector(rng, m)
            assert Subspace(m, [p]).perp().basis == tuple(kernel_by_rref([conj_vector(p)], m))


# -- antilinear maps --------------------------------------------------------------------------

def test_conjugation_map_coatom_vector():
    a = AntilinearMap(((ONE, ZERO), (ZERO, ONE)))
    v, member = coatom_from_antilinear(a)
    assert v == DIAGONAL
    pair = ProductAtomPair((GQ(1), GQ(2)), (GQ(-2), GQ(1)))
    assert member(pair) == (not fraction_inner(v, pair.product_vector()))
    # the matrix is held as tuples, so lists given in neither leak nor block the hash
    rows = [[ONE, ZERO], [ZERO, ONE]]
    b = AntilinearMap(rows)
    rows[0][0] = ZERO
    assert b == a and hash(b) == hash(a)


def test_antilinear_coatom_agreement_sampled():
    rng = Random(55)
    for _ in range(5):
        a = random_antilinear(rng, 2, 2)
        v, member = coatom_from_antilinear(a)
        line_perp = Subspace(4, [v]).perp()
        for _ in range(60):
            pair = random_pair(rng, 2, 2)
            assert member(pair) == sigma_membership(line_perp, pair)


def test_rank_one_map_leaves_a_full_slice():
    # the kernel line of a rank-one map pairs with everything
    a = AntilinearMap(((ONE, ZERO), (ONE, ZERO)))  # kills e2
    v, member = coatom_from_antilinear(a)
    rng = Random(60)
    for _ in range(20):
        assert member(ProductAtomPair(e(2, 1), random_vector(rng, 2)))


def test_zero_map_rejected():
    with pytest.raises(ValueError):
        coatom_from_antilinear(AntilinearMap(((ZERO, ZERO), (ZERO, ZERO))))


# -- sharp points ------------------------------------------------------------------------------

def test_sharp_point_of_basis_pair():
    pair = ProductAtomPair(e(2, 0), e(2, 0))
    cross = sharp_point(pair)
    assert cross.dim == 3
    assert cross.perp() == Subspace(4, [tensor(e(2, 0), e(2, 0))])


def test_biorthogonality_for_shifted_pair():
    pair = ProductAtomPair((ONE, ONE), e(2, 0))
    assert verify_point_biorthogonality(pair)


def test_biorthogonality_random():
    rng = Random(77)
    for m, n in ((2, 2), (2, 3), (3, 3)):
        for _ in range(15):
            assert verify_point_biorthogonality(random_pair(rng, m, n))


# -- box membership ------------------------------------------------------------------------------

def test_box_membership_fixed_verdicts():
    spread = Subspace(4, [tensor(e(2, 0), e(2, 0)), tensor(e(2, 1), e(2, 1))])
    assert box_membership_test(spread) is BoxVerdict.IN_BOX
    diagonal = Subspace(4, [DIAGONAL])
    assert box_membership_test(diagonal) is BoxVerdict.NOT_IN_BOX
    slice_ = Subspace(4, [tensor(e(2, 0), e(2, 0)), tensor(e(2, 0), e(2, 1))])
    assert box_membership_test(slice_) is BoxVerdict.IN_BOX


def test_box_membership_endpoints():
    assert box_membership_test(Subspace(4)) is BoxVerdict.IN_BOX
    assert box_membership_test(full(4)) is BoxVerdict.IN_BOX


def test_box_membership_three_dimensional_sides():
    line = Subspace(4, [tensor(e(2, 0), e(2, 0))])
    assert box_membership_test(line.perp()) is BoxVerdict.IN_BOX
    diag = Subspace(4, [DIAGONAL])
    # the perp of a non-product line is product-spanned, but its own perp
    # side (the line) is not: still a definite refusal
    assert box_membership_test(diag.perp()) is BoxVerdict.NOT_IN_BOX


def test_box_membership_in_box_on_irrational_roots():
    # det of the pencil is t0^2 - 2 t1^2 on u and -t0^2 + t1^2 / 2 on its
    # perp, discriminants 8 and 2: both pairs of rank-one lines need
    # sqrt(2), outside Q(i), but exist over C
    u = Subspace(4, [DIAGONAL, (ZERO, ONE, GQ(2), ZERO)])
    assert box_membership_test(u) is BoxVerdict.IN_BOX
    assert box_verdict_by_roots(u) == "unknown"
    assert two_rank_one_members_by_cmath(u) and two_rank_one_members_by_cmath(u.perp())


def test_box_membership_matches_the_hyperplane_construction():
    # every hyperplane w-perp and line w with w in {0, +-1, +-i}^4 minus 0:
    # the construction spans the hyperplane, and the verdict is the one its
    # side and the rank rule on the line give together
    for w in itertools.product(UNITS, repeat=4):
        if not any(w):
            continue
        line = Subspace(4, [w])
        hyperplane = line.perp()
        spanned = hyperplane_spanned_by_products(hyperplane)
        assert spanned
        f = fraction_vector(w)
        want = BoxVerdict.NOT_IN_BOX if f[0] * f[3] - f[1] * f[2] else BoxVerdict.IN_BOX
        assert box_membership_test(hyperplane) is want
        assert box_membership_test(line) is want


def test_box_membership_matches_the_root_oracle():
    # every line and hyperplane spanned by a vector in {0, +-1, +-i}^4 and
    # 1200 seeded planes spanned by two: the old verdict wherever the Q(i)
    # roots decided, and in the box where they left it open, with two
    # independent rank-one members on both sides found in floating point
    vectors = [w for w in itertools.product(UNITS, repeat=4) if any(w)]
    lines = {Subspace(4, [w]) for w in vectors}
    cases = lines | {line.perp() for line in lines}
    rng = Random("box planes")
    planes = set()
    while len(planes) < 1200:
        plane = Subspace(4, rng.sample(vectors, 2))
        if plane.dim == 2:
            planes.add(plane)
    verdicts = collections.Counter()
    for v in cases | planes:
        got, old = box_membership_test(v), box_verdict_by_roots(v)
        verdicts[v.dim, old] += 1
        if old == "unknown":
            assert got is BoxVerdict.IN_BOX, v
            assert two_rank_one_members_by_cmath(v) and two_rank_one_members_by_cmath(v.perp()), v
        else:
            assert got.value == old, v
    assert len(cases) == 312
    assert verdicts[2, "unknown"] and verdicts[2, "in-box"] and verdicts[2, "not-in-box"], verdicts


def test_box_membership_matches_the_pencil_decider():
    # the forms read off the integer rows against the discriminant rule
    # formed in Q(i) on the unit-pivot basis: every line, hyperplane and
    # plane spanned by vectors in {0, +-1, +-i}^4, seeded planes spanned by
    # two draws, and seeded subspaces of every dimension
    vectors = [w for w in itertools.product(UNITS, repeat=4) if any(w)]
    lines = sorted({Subspace(4, [w]) for w in vectors}, key=repr)
    planes = {Subspace(4, a.basis + b.basis) for a, b in itertools.combinations(lines, 2)}
    rng = Random("row decider")
    draws = [Subspace(4, [random_vector(rng, 4), random_vector(rng, 4)]) for _ in range(300)]
    draws += [random_subspace(rng, 4) for _ in range(300)]
    verdicts = collections.Counter()
    for v in [*lines, *(line.perp() for line in lines), *planes, *draws]:
        got = box_membership_test(v)
        assert got.value == box_verdict_by_pencil(v), v
        verdicts[v.dim, got] += 1
    assert (len(lines), len(planes)) == (156, 6182)
    for dim in (1, 2, 3):
        assert verdicts[dim, BoxVerdict.IN_BOX] and verdicts[dim, BoxVerdict.NOT_IN_BOX], verdicts


def test_tensor_matches_the_fraction_pair_products():
    rng = Random("tensor pairs")
    for m, n in itertools.product((2, 3), repeat=2):
        for _ in range(100):
            x, y = random_vector(rng, m), random_vector(rng, n)
            x = scaled(random_gq(rng) or ONE, x)  # off the drawn denominator too
            got = tensor(x, y)
            assert len(got) == m * n and all(isinstance(a, GQ) for a in got)
            assert fraction_vector(got) == fraction_tensor(fraction_vector(x), fraction_vector(y))


def test_pencil_members_match_the_minor_loop():
    # seeded pairs over 2x2 to 3x3: independent, equal, and sharing either factor
    rng = Random("pencil members")
    outcomes = collections.Counter()
    for m, n in itertools.product((2, 3), repeat=2):
        for k in range(150):
            a, b = random_pair(rng, m, n), random_pair(rng, m, n)
            b = (b, a, ProductAtomPair(a.p1, b.p2), ProductAtomPair(b.p1, a.p2))[k % 4]
            got = hilbert._pencil_members_exactly_two(a, b)
            assert got == pencil_members_exactly_two_by_minors(a, b, m, n), (a, b)
            outcomes[got] += 1
    assert outcomes[True] and outcomes[False], outcomes


def test_box_membership_caps():
    # one refusal for every ambient but C^2 (x) C^2, naming the ambient
    for ambient in (1, 2, 3, 6, 9, 16):
        for v in (Subspace(ambient), full(ambient)):
            with pytest.raises(ValueError, match=f"only, got ambient dimension {ambient}$"):
                box_membership_test(v)


@pytest.mark.parametrize("m, n", [(2, 3), (3, 2), (3, 3)])
def test_box_membership_refuses_factors_other_than_2x2(m, n):
    # a product line of C^m (x) C^n is refused by its ambient dimension m * n
    line = Subspace(m * n, [tensor(e(m, 0), e(n, 0))])
    for v in (Subspace(m * n), line, line.perp()):
        with pytest.raises(ValueError, match=f"C\\^2 \\(x\\) C\\^2 only, got ambient dimension {m * n}$"):
            box_membership_test(v)


# -- dual covering failure --------------------------------------------------------------------------

def test_dual_covering_counterexample_2x2():
    rep = dual_covering_counterexample(2, 2)
    assert rep.passed
    assert rep.disjoint_from_coatom and rep.two_atom_set_closed
    assert rep.join_with_coatom_is_top and rep.strict_chain


def test_dual_covering_counterexample_2x3():
    assert dual_covering_counterexample(2, 3).passed


def test_dual_covering_rejects_degenerate_factor():
    with pytest.raises(ValueError):
        dual_covering_counterexample(1, 2)


# -- mixed unitary/antiunitary images are not closed -------------------------------------------------

def test_unitary_antiunitary_image_of_a_coatom_is_not_closed():
    # conjugating the second factor of the identity-conjugation coatom
    # yields the orthogonality set {(p1, p2) | p2 perp p1}; its product
    # vectors already span everything, so no subspace carves it out
    samples = []
    for x in (GQ(0), GQ(1), GQ(0, 1), GQ(2)):
        p1 = (ONE, x)
        p2 = (GQ(-x.re, x.im), ONE)  # -conj(x)
        samples.append(tensor(p1, p2))
    samples.append(tensor(e(2, 1), e(2, 0)))
    span = Subspace(4, samples)
    assert span == full(4)
    # yet the set misses pairs like (e1, e1), so it cannot be any sigma-set
    assert fraction_inner(e(2, 0), e(2, 0)) != FRACTION_ZERO
