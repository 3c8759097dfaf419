"""Named check suites over lattice and product targets.

A check suite is a list of (check id, targets, args, expected verdict)
entries.  Targets are written in a small grammar:

    two                  the two-element lattice (one point)
    mo:N                 the MO lattice with N atoms
    powerset:N           the powerset lattice on N points
    box(T,T[,T])         box product of targets
    fraser(T,T[,T])      Fraser product of targets
    circle(T,T)          MO circle product of targets
    path/to/file.lat     lattice text file

Suites themselves are JSON files: {"name": ..., "checks": [{"check":
..., "targets": [...], "args": {...}, "expect": "pass"}]}.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from pathlib import Path
from random import Random
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from . import hilbert, products, props
from .reports import CheckRecord, Report
from .spaces import ClosureSpace, LatticeFormatError, bits, image, mo_space, \
    parse_lattice_text, powerset_space, require_int, two_space

DEFAULT_SEED = 12345


class CheckSpec(NamedTuple):
    check: str
    targets: tuple[str, ...] = ()
    args: Mapping = MappingProxyType({})  # read-only, so the default is never shared mutable
    expect: Optional[str] = None


class Suite(NamedTuple):
    name: str
    checks: tuple[CheckSpec, ...]


class TargetError(ValueError):
    pass


# Cap on the product's points for the checks that scan every subset of them,
# tested on the factors' point counts before any product is built.
SUBSET_SCAN_CAP = 16

# Cap on the products nested inside one target; one-point factors nest
# without growing the product, so the point cap alone does not bound the
# recursion.
MAX_TARGET_DEPTH = 32


def _int_arg(args: dict, key: str, default: Optional[int] = None,
             lo: Optional[int] = None, hi: Optional[int] = None) -> int:
    """The integer argument ``key`` of a check; a missing required key, a
    value that is no integer (a given null too) or one outside [lo, hi] is a TargetError."""
    if key not in args and default is None:
        raise TargetError(f"argument {key!r} is required")
    value = args.get(key, default)
    try:
        require_int(value, f"argument {key!r}")
    except ValueError as exc:
        raise TargetError(str(exc)) from None
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        bounds = f"at least {lo}" if hi is None else f"in {lo}..{hi}"
        raise TargetError(f"argument {key!r} must be {bounds}, got {value}")
    return value


def _refuse_unknown(keys, known, what: str) -> None:
    """A TargetError "<what> 'key'" for the first of ``keys`` not in ``known``."""
    for key in keys:
        if key not in known:
            raise TargetError(f"{what} {key!r}")


# -- target resolution --------------------------------------------------------

def _split_args(body: str) -> list[str]:
    """The comma-separated parts of a product body at depth 0, stripped; a
    blank body has none, and a blank part stays in, as an empty string."""
    if not body.strip():
        return []
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur).strip())
    return parts


def resolve_target(text: str, base_dir: Path | None = None) -> ClosureSpace:
    return _resolve(text, base_dir, 0)


def resolve_product(text: str, base_dir: Path | None = None
                    ) -> tuple[str, list[ClosureSpace]]:
    """The kind and the resolved factors of a product target ``kind(...)``,
    without building the product; the shape is checked before any factor
    is read."""
    found = _product(text.strip(), base_dir, 0)
    if found is None:
        raise TargetError(f"not a product target: {text.strip()!r}")
    return found


def _resolve(text: str, base_dir: Path | None, depth: int) -> ClosureSpace:
    """``resolve_target``, given the number of products around ``text``, so
    that a deep nest is an input error rather than a runaway recursion."""
    if depth > MAX_TARGET_DEPTH:
        raise TargetError(f"target nested too deeply: more than {MAX_TARGET_DEPTH} "
                          "levels of products")
    text = text.strip()
    if text == "two":
        return two_space()
    for prefix, builder in (("mo:", mo_space), ("powerset:", powerset_space)):
        if text.startswith(prefix):
            size = text[len(prefix):]
            # int() would also take signs, spaces, underscores and non-ASCII digits
            if not (size.isascii() and size.isdigit()):
                raise TargetError(f"bad size in target {text!r}")
            return builder(int(size))
    found = _product(text, base_dir, depth)
    if found is not None:
        kind, factors = found
        return _BUILDERS[kind](factors)
    if text.endswith(".lat"):
        path = (base_dir or Path()) / text
        if not path.exists():
            raise TargetError(f"no such lattice file: {path}")
        try:
            return parse_lattice_text(path.read_text())
        except LatticeFormatError as exc:
            raise TargetError(f"{path}: {exc}") from None
    raise TargetError(f"unresolvable target {text!r}")


_BUILDERS: dict[str, Callable[[Sequence[ClosureSpace]], ClosureSpace]] = {
    "box": products.box_product, "fraser": products.fraser_product,
    "circle": lambda factors: products.mo_circle(*factors)}
# How many factors a box or Fraser product takes; a circle takes two.
_FACTOR_COUNTS = range(2, 4)


def _check_count(what: str, counts: range, got: int, noun: str) -> None:
    """A TargetError such as "covering takes 1 target, got 2" unless ``got`` is in ``counts``."""
    if got not in counts:
        lo, hi = counts[0], counts[-1]
        raise TargetError(f"{what} takes {lo if lo == hi else f'{lo} to {hi}'} "
                          f"{noun}{'' if hi == 1 else 's'}, got {got}")


def _product(text: str, base_dir: Path | None,
             depth: int) -> tuple[str, list[ClosureSpace]] | None:
    """The kind and the resolved factors of a stripped product target, or
    None for a target that names no product."""
    head, paren, body = text.partition("(")
    if not (paren and text.endswith(")")):
        return None
    parts = _split_args(body[:-1])
    if "" in parts:
        raise TargetError(f"empty factor in target {text!r}")
    if head not in _BUILDERS:
        raise TargetError(f"unknown product kind {head!r}")
    _check_count(head, range(2, 3) if head == "circle" else _FACTOR_COUNTS, len(parts), "factor")
    return head, [_resolve(ref, base_dir, depth + 1) for ref in parts]


def _universe_of(space: ClosureSpace) -> products.ProductUniverse:
    if space.product is None:
        raise TargetError("this check needs a product-built target")
    return space.product


# -- check handlers -----------------------------------------------------------

# A handler takes its targets as parameters, then ``args`` and ``rng``; a
# ``*factors`` list takes as many targets as a product has factors.
Handler = Callable[..., tuple[str, str]]
CHECKS: dict[str, Handler] = {}
# The ``args`` keys each check reads; any other key is an input error.
_ARG_NAMES: dict[str, frozenset[str]] = {}
# How many targets each check takes, read off its handler once.
_TARGET_COUNTS: dict[str, range] = {}
# The code-object flag (CO_VARARGS) of a ``*args`` parameter.
_CO_VARARGS = 0x04


def _target_counts(handler: Handler) -> range:
    """How many targets a check takes: its parameters before ``args`` and ``rng``,
    less those with defaults, or as many as a product's factors for ``*factors``."""
    code = handler.__code__
    if code.co_flags & _CO_VARARGS:
        return _FACTOR_COUNTS
    n = code.co_argcount + code.co_kwonlyargcount - 2
    return range(n - len(handler.__defaults__ or ()), n + 1)


def _check(name: str, *arg_names: str):
    def deco(fn: Handler) -> Handler:
        CHECKS[name] = fn
        _ARG_NAMES[name] = frozenset(arg_names)
        _TARGET_COUNTS[name] = _target_counts(fn)
        return fn
    return deco


@_check("covering")
def _covering(s, args, rng):
    res = props.has_covering_property(s)
    if res is True:
        return "pass", "covering holds"
    mid = res.witness.intermediate
    return "fail", (f"p={s.render_set(res.atom)} a=({s.render_set(res.element)}) "
                    f"intermediate=({s.render_set(mid) if mid is not None else '-'})")


@_check("dual-covering")
def _dual_covering(s, args, rng):
    rep = s.dual_order_check()
    if rep.dual_covering:
        return "pass", "dual covering holds"
    x, a = rep.dual_covering_witness
    return "fail", f"coatom=({s.render_set(x)}) a=({s.render_set(a)})"


@_check("coatomistic")
def _coatomistic(s, args, rng):
    rep = s.dual_order_check()
    if rep.coatomistic:
        return "pass", "every element is an intersection of coatoms"
    return "fail", f"element=({s.render_set(rep.coatomistic_witness)})"


@_check("orthocomplementation")
def _orthocomplementation(s, args, rng):
    res = props.find_orthocomplementation(s)
    if isinstance(res, props.OrthoMap):
        table = " ".join(f"{s.render_set(p)}->({s.render_set(c)})"
                         for p, c in res.atom_table())
        return "pass", table
    return "none", f"search exhausted after {res.nodes} nodes"


def _sharp_of(s: ClosureSpace) -> tuple[Optional[props.OrthoMap], Optional[str]]:
    """The sharp map of the factor maps the search finds, or why one has none."""
    maps = []
    for i, f in enumerate(_universe_of(s).factors):
        found = props.find_orthocomplementation(f)
        if not isinstance(found, props.OrthoMap):
            return None, (f"factor {i + 1} admits no orthocomplementation "
                          f"(search exhausted after {found.nodes} nodes)")
        maps.append(found)
    return products.sharp_map(s, maps).product_map, None


@_check("sharp-valid")
def _sharp_valid(s, args, rng):
    om, why = _sharp_of(s)
    if why:
        return "none", why
    bad = props.orthomap_violation(s, om)
    if bad is None:
        return "pass", "sharp map is a valid orthocomplementation"
    return "fail", bad


@_check("sharp-orthomodular")
def _sharp_orthomodular(s, args, rng):
    om, why = _sharp_of(s)
    if why:
        return "none", why
    res = props.is_orthomodular(s, om)
    if res is True:
        return "pass", "orthomodular"
    return "fail", f"a=({s.render_set(res.a)}) b=({s.render_set(res.b)})"


@_check("contains-mo", "n")
def _contains_mo(s, args, rng):
    n = _int_arg(args, "n", 3, 3)
    res = props.contains_mo_n(s, n)
    if res is None:
        return "fail", f"no MO_{n} configuration"
    return "pass", " ".join(s.render_set(p) for p in res)


@_check("transitive")
def _transitive(s, args, rng):
    return ("pass", "point action transitive") if props.is_transitive(s) \
        else ("fail", "multiple point orbits")


@_check("automorphism-count", "count")
def _automorphism_count(s, args, rng):
    want = _int_arg(args, "count")
    got = s.automorphism_order()
    return ("pass" if got == want else "fail"), f"count={got}"


@_check("factorization")
def _factorization(s, args, rng):
    # factored maps are closed under composition: the group factors iff its generators do
    universe = _universe_of(s)
    for perm in s.automorphism_generators():
        if props.check_factorization(s, universe, perm) is None:
            return "fail", f"perm={perm} does not factor"
    return "pass", f"all {s.automorphism_order()} automorphisms factor"


@_check("weakly-connected")
def _weakly_connected(s, args, rng):
    res = props.is_weakly_connected(s)
    if isinstance(res, props.ConnectedCovering):
        return "pass", " ".join(f"({s.render_set(b)})" for b in res.blocks)
    if isinstance(res, props.NotWeaklyConnected):
        extra = f" atom={s.render_set(res.isolated_atom)}" if res.isolated_atom else ""
        return "fail", res.reason + extra
    return "unknown", "no verified covering found"


@_check("families-equal")
def _families_equal(a, b, args, rng):
    if a.n_points != b.n_points:
        return "fail", "point counts differ"
    if set(a.masks) == set(b.masks):
        return "pass", f"both families have {len(a)} elements"
    only_a = sorted(set(a.masks) - set(b.masks))
    only_b = sorted(set(b.masks) - set(a.masks))
    w = []
    if only_a:
        w.append(f"first-only=({a.render_set(only_a[0])})")
    if only_b:
        w.append(f"second-only=({b.render_set(only_b[0])})")
    return "fail", " ".join(w)


@_check("families-strict-subset")
def _families_strict_subset(a, b, args, rng):
    if a.n_points != b.n_points:
        return "fail", "point counts differ"
    sa, sb = set(a.masks), set(b.masks)
    if not sa <= sb:
        extra = sorted(sa - sb)[0]
        return "fail", f"not a subset: ({a.render_set(extra)}) missing from the second"
    if sa == sb:
        return "fail", "families are equal, inclusion is not strict"
    wit = sorted(sb - sa)[0]
    return "pass", f"extra element ({b.render_set(wit)})"


@_check("degenerate-factor-iso")
def _degenerate_factor_iso(prod, factor, args, rng):
    universe = _universe_of(prod)
    sizes = universe.sizes
    if sorted(sizes, reverse=True)[1:] != [1] * (len(sizes) - 1):
        return "error", "all but one factor must be a single point"
    if universe.n_points != factor.n_points:
        return "fail", "point counts differ"
    # with singleton companions the flat ids equal the big factor's ids
    if set(prod.masks) == set(factor.masks) and len(prod) == len(factor):
        return "pass", f"families identical under the evident bijection ({len(prod)} sets)"
    return "fail", "families differ under the evident bijection"


@_check("single-nonboolean-equality")
def _single_nonboolean_equality(*factors, args, rng):
    if math.prod(f.n_points for f in factors) > SUBSET_SCAN_CAP:
        return "error", f"exhaustive subset scan capped at {SUBSET_SCAN_CAP} points"
    box = products.box_product(factors)
    fraser = products.fraser_product(factors)
    universe = box.product
    nonbool = [i for i, f in enumerate(factors) if len(f) != 1 << f.n_points]
    if len(nonbool) > 1:
        return "error", "at most one factor may be a non-powerset"
    beta = nonbool[0] if nonbool else 0
    factor, coordinate_bits = universe.factors[beta], universe.coordinate_bits[beta]
    explicit = {region for region in range(1 << universe.n_points)
                if all(image(region & fiber, coordinate_bits) in factor
                       for fiber in universe.fibers[beta])}
    if set(box.masks) == set(fraser.masks) == explicit:
        return "pass", f"three-way equality, {len(explicit)} closed sets"
    return "fail", (f"box={len(box)} fraser={len(fraser)} explicit={len(explicit)}")


@_check("box-ne-fraser-diagonal")
def _box_ne_fraser_diagonal(f, g, args, rng):
    if f.n_points != g.n_points:
        return "error", "needs two equal-size factors"
    box = products.box_product([f, g])
    universe = box.product
    k = min(3, f.n_points)
    diagonal = 0
    for i in range(k):
        diagonal |= 1 << universe.encode((i, i))
    if not products.in_fraser(universe, diagonal):
        return "fail", "diagonal is not Fraser-closed"
    if diagonal in box:
        return "fail", "diagonal is box-closed"
    join = products.box_join(universe, diagonal)
    if join != universe.full_mask:
        return "fail", f"box join is ({universe.render_set(join)}), not the full universe"
    return "pass", f"diagonal ({universe.render_set(diagonal)}) separates the products"


@_check("fraser-fixpoint-membership")
def _fraser_fixpoint_membership(*factors, args, rng):
    if math.prod(f.n_points for f in factors) > SUBSET_SCAN_CAP:
        return "error", f"exhaustive subset scan capped at {SUBSET_SCAN_CAP} points"
    fraser = products.fraser_product(factors)
    universe = fraser.product
    members = set(fraser.masks)
    k = len(universe.factors)
    for region in range(1 << universe.n_points):
        fixed = all(products.beta_join(universe, region, b) == region for b in range(k))
        if fixed != (region in members):
            return "fail", f"region ({universe.render_set(region)})"
    return "pass", f"all {1 << universe.n_points} subsets agree"


def _candidate_products(factors) -> list[tuple[str, ClosureSpace]]:
    """Box, circle and Fraser products; circle only for two MO factors."""
    out = [("box", products.box_product(factors)),
           ("fraser", products.fraser_product(factors))]
    if len(factors) == 2:
        try:
            out.insert(1, ("circle", products.mo_circle(*factors)))
        except ValueError:
            pass
    return out


@_check("coatom-crosses")
def _coatom_crosses(*factors, args, rng):
    checked = 0
    for kind, space in _candidate_products(factors):
        universe = space.product
        coatoms = space.coatoms()
        coatom_lists = [f.coatoms() for f in universe.factors]
        for combo in itertools.product(*coatom_lists):
            cross = universe.cylinder_mask(combo)
            if cross not in coatoms:
                return "fail", f"{kind}: ({universe.render_set(cross)}) is not a coatom"
            for pid in bits(universe.full_mask & ~cross):
                if products.fraser_join(universe, cross | (1 << pid)) != universe.full_mask:
                    return "fail", (f"{kind}: adding {universe.points[pid]} to "
                                    f"({universe.render_set(cross)}) does not join to 1")
            checked += 1
    return "pass", f"{checked} full crosses are coatoms with saturated joins"


@_check("coatom-decomposition")
def _coatom_decomposition(*factors, args, rng):
    total = 0
    for kind, space in _candidate_products(factors):
        universe = space.product
        coatoms = space.coatoms()
        k = len(universe.factors)
        for j in range(k):
            others = [b for b in range(k) if b != j]
            for pinned in itertools.product(*(universe.factors[b].coatoms() for b in others)):
                half = 0
                for b, x in zip(others, pinned):
                    half |= universe.preimage_mask(b, x)
                for a_j in universe.factors[j].masks:
                    y = half | universe.preimage_mask(j, a_j)
                    for z in coatoms:
                        if y & ~z:
                            continue
                        res = products.decompose_coatom(space, universe, z, j, pinned)
                        if isinstance(res, products.CoatomNonConformance):
                            return "fail", f"{kind}: ({universe.render_set(z)}): {res.detail}"
                        total += 1
    return "pass", f"{total} coatom decompositions verified"


@_check("fraser-covering-break-trace")
def _fraser_covering_break_trace(f, g, args, rng):
    if f.n_points < 4 or g.n_points < 4:
        return "error", "each factor needs at least four atoms"
    universe = products.ProductUniverse([f, g])
    # four distinct atoms per factor with the join of the first two
    # covering all four
    for h in (f, g):
        j = h.closure((1 << 0) | (1 << 1))
        for r in range(4):
            if not j >> r & 1 or h.covers(1 << r, j) is not True:
                return "error", "factor join of the first two atoms must cover four atoms"
    p = universe.encode((0, 0))
    q = universe.encode((1, 1))
    r = universe.encode((2, 2))
    s = universe.encode((3, 3))
    t = universe.encode((0, 1))
    a = (1 << p) | (1 << q) | (1 << r)
    b = a | (1 << s)
    r0 = a | (1 << t)
    seq = products.beta_join_sequence(universe, r0, [1, 0, 1])
    join2 = g.closure(0b11)
    join1 = f.closure(0b11)
    row_p = universe.preimage_mask(0, 1 << 0) & universe.preimage_mask(1, join2)
    col_q = universe.preimage_mask(1, 1 << 1) & universe.preimage_mask(0, join1)
    col_r = universe.preimage_mask(1, 1 << 2) & universe.preimage_mask(0, join1)
    expected = [r0,
                r0 | row_p,
                r0 | row_p | col_q | col_r,
                universe.full_box_mask([join1, join2])]
    if seq != expected:
        return "fail", "iterates do not match the displayed closure steps"
    if not products.in_fraser(universe, a) or not products.in_fraser(universe, b):
        return "fail", "the three- and four-point witnesses must be Fraser-closed"
    join = products.fraser_join(universe, a | (1 << t))
    if join != seq[-1]:
        return "fail", "round-robin join disagrees with the beta sequence"
    if not (a & ~b == 0 and a != b and b & ~join == 0 and b != join):
        return "fail", "strict chain a < b < join broken"
    return "pass", (f"join=({universe.render_set(join)}) strictly above "
                    f"({universe.render_set(b)}) strictly above ({universe.render_set(a)})")


def _render_pair(pair: hilbert.ProductAtomPair) -> str:
    left = " ".join(c.render() for c in pair.p1)
    right = " ".join(c.render() for c in pair.p2)
    return f"[{left}]x[{right}]"


# The sampled hilbert checks draw on C^2 (x) C^2 with fixed sample counts.
@_check("hilbert-perp-involution")
def _hilbert_perp_involution(args, rng):
    ambient, count = 4, 100
    for _ in range(count):
        v = hilbert.random_subspace(rng, ambient)
        p = v.perp()
        if p.perp() != v or v.dim + p.dim != ambient:
            return "fail", f"dim={v.dim} subspace breaks the perp laws"
    return "pass", f"{count} random subspaces satisfy perp-perp and the dimension law"


@_check("hilbert-point-biorthogonality")
def _hilbert_point_biorthogonality(args, rng):
    count = 50
    for _ in range(count):
        pair = hilbert.random_pair(rng, 2, 2)
        if not hilbert.verify_point_biorthogonality(pair):
            return "fail", _render_pair(pair)
    return "pass", f"{count} random pairs recover their product line"


@_check("hilbert-antilinear-agreement")
def _hilbert_antilinear_agreement(args, rng):
    n_pairs = 100
    maps = [hilbert.random_antilinear(rng, 2, 2) for _ in range(5)]
    for a_map in maps:
        v, member = hilbert.coatom_from_antilinear(a_map)
        line_perp = hilbert.Subspace(4, [v]).perp()
        for _ in range(n_pairs):
            pair = hilbert.random_pair(rng, 2, 2)
            if member(pair) != hilbert.sigma_membership(line_perp, pair):
                return "fail", _render_pair(pair)
    return "pass", f"{len(maps)} maps x {n_pairs} pairs agree on both descriptions"


@_check("hilbert-box-verdicts")
def _hilbert_box_verdicts(args, rng):
    e = hilbert.basis_vector
    t = hilbert.tensor
    cases = [
        (hilbert.Subspace(4, [t(e(2, 0), e(2, 0)), t(e(2, 1), e(2, 1))]),
         hilbert.BoxVerdict.IN_BOX),
        (hilbert.Subspace(4, [(hilbert.ONE, hilbert.ZERO, hilbert.ZERO, hilbert.ONE)]),
         hilbert.BoxVerdict.NOT_IN_BOX),
        (hilbert.Subspace(4, [t(e(2, 0), e(2, 0)), t(e(2, 0), e(2, 1))]),
         hilbert.BoxVerdict.IN_BOX),
    ]
    got = [hilbert.box_membership_test(v) for v, _ in cases]
    want = [w for _, w in cases]
    if got == want:
        return "pass", " ".join(v.value for v in got)
    return "fail", " ".join(v.value for v in got)


@_check("hilbert-dual-covering-break", "m", "n")
def _hilbert_dual_covering_break(args, rng):
    cap = hilbert.MAX_FACTOR_DIM
    rep = hilbert.dual_covering_counterexample(_int_arg(args, "m", 2, 2, cap),
                                               _int_arg(args, "n", 2, 2, cap))
    bits = (f"disjoint={rep.disjoint_from_coatom} two-atom-closed={rep.two_atom_set_closed} "
            f"join-top={rep.join_with_coatom_is_top} strict-chain={rep.strict_chain}")
    return ("pass" if rep.passed else "fail"), bits


@_check("p123")
def _p123(s, args, rng):
    universe = _universe_of(s)
    res = products.check_p1_p2_p3(s, universe)
    if res is None:
        return "pass", "axioms hold"
    return "fail", f"{res.axiom}: {res.witness}"


@_check("p4")
def _p4(s, args, rng):
    universe = _universe_of(s)
    gens = [f.automorphism_generators() for f in universe.factors]
    res = products.check_p4(s, universe, gens)
    if res is None:
        sizes = "x".join(str(f.automorphism_order()) for f in universe.factors)
        return "pass", f"all {sizes} factor automorphism tuples lift"
    return "fail", res.witness


# -- suite running --------------------------------------------------------------

def run_suite(suite: Suite, seed: int = DEFAULT_SEED,
              base_dir: Path | None = None) -> Report:
    report = Report()
    rng = Random(seed)
    built: dict[str, ClosureSpace] = {}  # each target text is built once per run
    for spec in suite.checks:
        start = time.perf_counter()
        name = spec.check
        label = name if not spec.targets else name + " " + " ".join(spec.targets)
        handler = CHECKS.get(name)
        if handler is None:
            raise TargetError(f"unknown check id {name!r}")
        _check_count(name, _TARGET_COUNTS[name], len(spec.targets), "target")
        _refuse_unknown(spec.args, _ARG_NAMES[name], f"{label}: unknown argument")
        try:
            for t in spec.targets:
                if t not in built:
                    built[t] = resolve_target(t, base_dir)
            targets = [built[t] for t in spec.targets]
        except TargetError:
            raise
        except (ValueError, OSError) as exc:
            raise TargetError(f"cannot build target for {label!r}: {exc}") from None
        try:
            verdict, witness = handler(*targets, args=spec.args, rng=rng)
        except TargetError as exc:
            raise TargetError(f"{label}: {exc}") from None
        except Exception as exc:  # deterministic inputs: report, don't crash
            verdict, witness = "error", f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        report.add(CheckRecord(name=label, verdict=verdict, witness=witness,
                               elapsed=elapsed, expected=spec.expect))
    return report


def load_suite(path: Path) -> Suite:
    try:
        data = json.loads(path.read_text())
    except (json.JSONDecodeError, RecursionError) as exc:  # the decoder recurses per nesting level
        raise TargetError(f"{path}: bad JSON: {exc}") from None
    if not isinstance(data, dict) or not isinstance(data.get("checks"), list):
        raise TargetError(f"{path}: a suite is an object with a 'checks' list")
    _refuse_unknown(data, Suite._fields, f"{path}: the suite has unknown key")
    name = data.get("name", path.stem)
    if not isinstance(name, str):
        raise TargetError(f"{path}: the suite 'name' must be a string, got {name!r}")
    checks = []
    for i, entry in enumerate(data["checks"]):
        where = f"{path}: check #{i + 1}"
        if not isinstance(entry, dict):
            raise TargetError(f"{where} is not an object")
        _refuse_unknown(entry, CheckSpec._fields, f"{where} has unknown key")
        if not isinstance(entry.get("check"), str):
            raise TargetError(f"{where} needs a 'check' id string")
        targets = entry.get("targets", [])
        if not (isinstance(targets, list) and all(isinstance(t, str) for t in targets)):
            raise TargetError(f"{where} has 'targets' that are not a list of strings")
        args = entry.get("args", {})
        if not isinstance(args, dict):
            raise TargetError(f"{where} has 'args' that are not an object")
        expect = entry.get("expect")
        if expect is not None and expect not in ("pass", "fail", "none", "unknown"):
            raise TargetError(f"{where} has bad expectation {expect!r}")
        checks.append(CheckSpec(check=entry["check"], targets=tuple(targets),
                                args=dict(args), expect=expect))
    return Suite(name=name, checks=tuple(checks))


# -- built-in suites -------------------------------------------------------------

def _c(check: str, targets: Sequence[str] = (), expect: str | None = "pass",
       **args) -> CheckSpec:
    return CheckSpec(check=check, targets=tuple(targets), args=args, expect=expect)


_PAPER, _CORE, _BOTH = "paper-core", "core-verified", ("paper-core", "core-verified")


def _builtin_checks() -> tuple[tuple[tuple[str, ...], CheckSpec], ...]:
    """Every check of the two built-in suites once, in suite order, with
    the names of the suites that run it."""
    return (
        # 1: a single-point companion factor changes nothing
        (_BOTH, _c("degenerate-factor-iso", ["box(two,mo:3)", "mo:3"])),
        (_BOTH, _c("degenerate-factor-iso", ["fraser(two,mo:3)", "mo:3"])),
        # 2: one non-powerset factor collapses the product interval
        (_BOTH, _c("single-nonboolean-equality", ["powerset:3", "mo:3"])),
        # 3: two MO_3 factors separate box from Fraser
        (_BOTH, _c("box-ne-fraser-diagonal", ["mo:3", "mo:3"])),
        # 4: Fraser membership = beta-join fixpoint, exhaustively
        (_BOTH, _c("fraser-fixpoint-membership", ["mo:3", "mo:3"])),
        # 5: full crosses of factor coatoms are coatoms; saturated joins
        (_BOTH, _c("coatom-crosses", ["mo:3", "mo:3"])),
        # 6: covering and orthomodularity both break on box products
        (_BOTH, _c("covering", ["box(mo:3,mo:3)"], expect="fail")),
        (_BOTH, _c("sharp-orthomodular", ["box(mo:4,mo:4)"], expect="fail")),
        (_BOTH, _c("sharp-valid", ["box(mo:4,mo:4)"])),
        (_PAPER, _c("sharp-valid", ["box(mo:3,mo:3)"])),          # unattainable: stays red
        # 7: the Fraser product of two MO_4 factors breaks covering
        (_BOTH, _c("fraser-covering-break-trace", ["mo:4", "mo:4"])),
        # 8: the circle product is the covering-property element
        (_BOTH, _c("p123", ["circle(mo:3,mo:3)"])),
        (_BOTH, _c("p4", ["circle(mo:3,mo:3)"])),
        (_BOTH, _c("covering", ["circle(mo:3,mo:3)"])),
        (_PAPER, _c("covering", ["box(mo:3,mo:3)"], expect="fail")),
        (_PAPER, _c("covering", ["fraser(mo:3,mo:3)"], expect="fail")),  # unattainable: stays red
        (_CORE, _c("covering", ["fraser(mo:4,mo:4)"], expect="fail")),
        # 9: orthocomplementation existence separates box from the rest
        (_PAPER, _c("orthocomplementation", ["box(mo:3,mo:3)"])),          # unattainable: stays red
        (_CORE, _c("orthocomplementation", ["box(mo:4,mo:4)"])),
        (_BOTH, _c("orthocomplementation", ["fraser(mo:3,mo:3)"], expect="none")),
        (_BOTH, _c("orthocomplementation", ["circle(mo:3,mo:3)"], expect="none")),
        # 10: the automorphism group factors through the factors
        (_BOTH, _c("automorphism-count", ["box(mo:3,mo:3)"], count=72)),
        (_BOTH, _c("factorization", ["box(mo:3,mo:3)"])),
        # 11: the exact tensor-subspace suite at 2x2
        (_BOTH, _c("hilbert-perp-involution")),
        (_BOTH, _c("hilbert-point-biorthogonality")),
        (_BOTH, _c("hilbert-antilinear-agreement")),
        (_BOTH, _c("hilbert-box-verdicts")),
        (_BOTH, _c("hilbert-dual-covering-break")),
        (_CORE, _c("hilbert-dual-covering-break", m=2, n=3)),
        # 12: strictness of box < circle < fraser
        (_BOTH, _c("families-strict-subset", ["box(mo:3,mo:3)", "circle(mo:3,mo:3)"])),
        (_PAPER, _c("families-strict-subset", ["circle(mo:3,mo:3)", "fraser(mo:3,mo:3)"])),  # red
        (_CORE, _c("families-strict-subset", ["box(mo:4,mo:4)", "circle(mo:4,mo:4)"])),
        (_CORE, _c("families-strict-subset", ["circle(mo:4,mo:4)", "fraser(mo:4,mo:4)"])),
        (_CORE, _c("families-equal", ["circle(mo:3,mo:3)", "fraser(mo:3,mo:3)"])),
        # structure of the factors and of the box product
        (_CORE, _c("contains-mo", ["box(mo:3,mo:3)"], n=3)),
        (_CORE, _c("transitive", ["box(mo:3,mo:3)"])),
        (_CORE, _c("coatomistic", ["box(mo:3,mo:3)"])),
        (_CORE, _c("dual-covering", ["mo:3"])),
        (_CORE, _c("weakly-connected", ["mo:3"])),
        (_CORE, _c("weakly-connected", ["powerset:3"], expect="fail")),
        (_CORE, _c("coatom-decomposition", ["mo:3", "mo:3"])),
    )


def _builtin_suite(name: str) -> Suite:
    return Suite(name=name, checks=tuple(spec for suites, spec in _builtin_checks()
                                         if name in suites))


def paper_core_suite() -> Suite:
    """The acceptance checks, with the four original mo:3 expectations
    kept as the CLI's standing example of mismatches.

    Those four entries state the paper's criteria on mo:3 factors, which
    lack the hypotheses the paper needs, so they report mismatches: the
    Fraser product of two mo:3 factors equals their circle product (so
    it has the covering property and cannot strictly contain it), and
    mo:3 admits no orthocomplementation (so neither does the box product
    over it).  The test suite checks the same criteria at mo:4, where
    they hold.
    """
    return _builtin_suite(_PAPER)


def core_verified_suite() -> Suite:
    """The same ground covered at sizes where every expectation is a
    theorem instance; this suite runs fully green."""
    return _builtin_suite(_CORE)


BUILTIN_SUITES: dict[str, Callable[[], Suite]] = {
    "paper-core": paper_core_suite,
    "core-verified": core_verified_suite,
}


def get_suite(name_or_path: str, base_dir: Path | None = None) -> Suite:
    if name_or_path in BUILTIN_SUITES:
        return BUILTIN_SUITES[name_or_path]()
    path = Path(name_or_path)
    if base_dir and not path.is_absolute():
        path = base_dir / name_or_path
    if path.exists():
        return load_suite(path)
    raise TargetError(f"unknown suite {name_or_path!r} (not a builtin, not a file)")
