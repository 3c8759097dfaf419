"""The public API: every name that ``weaktensor/__init__.py`` exports,
every public name that ``weaktensor/hilbert.py`` defines and the
parameters of its functions, the parameters of the stock builders and of
``LatticeFormatError``, every public method, property and attribute of a
``ClosureSpace``, the surface of the orthocomplementation search, the
fields of an ``OrthoMap``, the repr, equality and immutability of every
public record, the modules an import loads, README's "Library tour",
that every public name of ``src/`` has a caller outside the tests, and the
spellings that check cannot tell apart.

A name or parameter added, removed or renamed fails here until its list is updated,
and CHANGES.md names the change.
"""

import ast
import builtins
import inspect
import os
import pickle
import re
import subprocess
import sys
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import weaktensor
from weaktensor import hilbert, products, props, reports, suites

EXPORTS = [
    "Automorphism", "ClosureSpace", "ConnectedCovering", "CoverWitness",
    "ExhaustionCertificate", "LatticeFormatError", "OrthoMap", "ProductUniverse",
    "SearchBudgetExceeded", "SharpMap", "UNKNOWN", "automorphisms", "beta_join",
    "beta_join_sequence", "box_join", "box_product", "check_factorization", "check_p1_p2_p3",
    "check_p4", "contains_mo_n", "decompose_coatom", "find_orthocomplementation",
    "fraser_join", "fraser_product", "has_covering_property", "in_fraser", "is_orthomodular",
    "is_transitive", "is_weakly_connected", "mo_circle", "mo_space", "parse_lattice_text",
    "powerset_space", "render_lattice_text", "sharp_map", "two_space", "validate_orthomap",
]


def test_the_exports_are_the_pinned_list():
    # the layer modules become attributes of the package once imported; they are not exports
    exported = [name for name, obj in vars(weaktensor).items()
                if not name.startswith("_") and not isinstance(obj, types.ModuleType)]
    assert sorted(exported) == EXPORTS


HILBERT_NAMES = [
    "AntilinearMap", "BoxVerdict", "DualCoveringReport", "GQ", "MAX_FACTOR_DIM", "Matrix",
    "ONE", "ProductAtomPair", "Subspace", "Vector", "ZERO", "basis_vector", "box_membership_test",
    "coatom_from_antilinear", "dual_covering_counterexample", "join_atoms", "random_antilinear",
    "random_gq", "random_pair", "random_subspace", "sharp_point", "sigma_membership", "tensor",
    "verify_point_biorthogonality",
]

# a GQ is a value with no arithmetic, and a map is its matrix: the exact
# layer computes on integer rows only.  A GQ is a checked record, which
# compares, hashes, shows and pickles it by its parts
GQ_MEMBERS = ["__bool__", "__init__", "__str__", "im", "re", "render"]
ANTILINEAR_MAP_MEMBERS = ["__init__", "cols", "is_zero", "rows"]


def test_the_hilbert_names_are_the_pinned_list():
    # the names the module binds at top level, not the ones it imports
    defined, members = [], {}
    for node in ast.parse(inspect.getsource(hilbert)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, ast.Assign):
            defined += [t.id for t in node.targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            members[node.name] = sorted(n.name for n in node.body if isinstance(n, ast.FunctionDef))
    assert sorted(name for name in defined if not name.startswith("_")) == HILBERT_NAMES
    assert members["GQ"] == GQ_MEMBERS
    assert members["AntilinearMap"] == ANTILINEAR_MAP_MEMBERS


def test_the_box_verdicts_are_the_pinned_members():
    # the values are report text: a change to them edits this test and CHANGES.md
    assert {v.name: v.value for v in hilbert.BoxVerdict} == {
        "IN_BOX": "in-box", "NOT_IN_BOX": "not-in-box"}


def test_the_search_surface_is_pinned():
    # a certificate replays from the space alone, and the search has one branch order
    assert weaktensor.ExhaustionCertificate._fields == ("nodes",)
    params = inspect.signature(weaktensor.find_orthocomplementation).parameters.values()
    assert tuple(p.name for p in params if p.kind is p.KEYWORD_ONLY) == ("node_cap",)


def test_an_orthomap_is_its_atom_images():
    # an element's image is the meet of its atoms' images, so no element
    # index is stored, and the meets stay inside props
    assert weaktensor.OrthoMap._fields == ("space", "atoms")
    assert not hasattr(props, "atom_meets")


HILBERT_PARAMETERS = {
    "basis_vector": ("n", "k"),
    "box_membership_test": ("subspace",),
    "coatom_from_antilinear": ("a_map",),
    "dual_covering_counterexample": ("m", "n"),
    "join_atoms": ("pairs",),
    "random_antilinear": ("rng", "m", "n"),
    "random_gq": ("rng",),
    "random_pair": ("rng", "m", "n"),
    "random_subspace": ("rng", "ambient"),
    "sharp_point": ("pair",),
    "sigma_membership": ("subspace", "pair"),
    "tensor": ("p1", "p2"),
    "verify_point_biorthogonality": ("pair",),
}


def parameter_names(fn):
    return tuple(inspect.signature(fn).parameters)


def test_the_parameters_are_the_pinned_lists():
    # no parameter that the others already fix: the factor shapes come
    # from the pairs, box membership from its ambient, the stock spaces
    # from their size alone, and every lattice format error has its line
    functions = {name: obj for name, obj in vars(hilbert).items()
                 if not name.startswith("_") and inspect.isfunction(obj)
                 and obj.__module__ == hilbert.__name__}
    assert {name: parameter_names(fn) for name, fn in functions.items()} == HILBERT_PARAMETERS
    assert parameter_names(weaktensor.mo_space) == ("n",)
    assert parameter_names(weaktensor.powerset_space) == ("n",)
    # a space's product structure comes from the builders alone
    assert parameter_names(weaktensor.ClosureSpace) == ("points", "masks")
    init = inspect.signature(weaktensor.LatticeFormatError.__init__).parameters.values()
    assert [(p.name, p.default is p.empty) for p in init] == [
        ("self", True), ("message", True), ("line", True)]


CLOSURE_SPACE_NAMES = [
    "atoms", "automorphism_generators", "automorphism_orbit", "automorphism_order",
    "automorphism_perms", "closure", "coatoms", "covering_failure", "covers",
    "dual_order_check", "from_closed_sets", "full_mask", "join", "labels_of", "masks",
    "meet_irreducibles", "n_points", "points", "product", "render_set",
]


def test_the_closure_space_names_are_the_pinned_list():
    # an instance, so that the attributes the constructors set count too
    space = weaktensor.two_space()
    assert sorted(name for name in dir(space) if not name.startswith("_")) == CLOSURE_SPACE_NAMES


ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_every_public_name_has_a_caller_outside_the_tests():
    # A caller is a name or attribute read in src/ or benchmark/; the
    # re-exports in __init__.py are none.  Names match by spelling alone,
    # so a name that another attribute shares (bytes.decode in the
    # benchmark, say) passes unseen.
    sources = sorted((ROOT / "src" / "weaktensor").glob("*.py"))
    used = set()
    for path in sources + sorted((ROOT / "benchmark").glob("*.py")):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    public = _public_names(sources)
    assert [q for q, name in public.items() if not name.startswith("_") and name not in used] == []


# The public members whose spelling the guard above cannot tell apart from
# another's: bound twice in src/, or an attribute of a builtin type or a
# builtin itself.  Each one's callers outside the tests, checked by hand.
SHARED_SPELLINGS = {
    "add": "Report.add: suites.run_suite; _GeneratorClosure.add: ClosureSpace._close",
    "encode": "ProductUniverse.encode: the box-ne-fraser-diagonal and "
              "fraser-covering-break-trace checks in suites",
    "full_mask": "ClosureSpace.full_mask: props; ProductUniverse.full_mask: products, suites",
    "join": "ClosureSpace.join: the decide light batches in benchmark/run.py",
    "render": "Report.render: cli; CheckRecord.render: Report.render; GQ.render: suites",
    "render_set": "ClosureSpace.render_set: props, suites; ProductUniverse.render_set: "
                  "check_p1_p2_p3, check_p4",
    "sum": "Subspace.sum: hilbert.dual_covering_counterexample",
}


def test_the_spellings_the_caller_guard_cannot_tell_apart_are_pinned():
    # a member that joins this list, or leaves it, has its callers checked by hand
    public = _public_names(sorted((ROOT / "src" / "weaktensor").glob("*.py")))
    bound = Counter(public.values())
    shared = set(dir(builtins)).union(*map(dir, (str, bytes, set, dict, list, tuple, int)))
    assert {name for name in public.values()
            if not name.startswith("_") and (bound[name] > 1 or name in shared)
            } == set(SHARED_SPELLINGS)


def _public_names(sources: list[Path]) -> dict[str, str]:
    """Each name bound at module level, or in a class body, of ``sources``:
    its qualified name mapped to the name a caller spells."""
    public = {}
    for path in sources:
        for node in ast.parse(path.read_text()).body:
            for name in _bound_names(node):
                public[f"{path.stem}.{name}"] = name
            if isinstance(node, ast.ClassDef):  # methods, properties and class attributes
                for member in node.body:
                    for name in _bound_names(member):
                        public[f"{path.stem}.{node.name}.{name}"] = name
    return public


def _bound_names(node: ast.stmt) -> list[str]:
    """The names a statement at module or class level binds by def, class
    or plain assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    return []


def test_readme_library_tour_runs_as_commented():
    # every statement runs, and a statement with a trailing comment is an
    # expression whose repr reads as the comment, "..." standing for any text
    text = README.read_text().split("## Library tour", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(block).body:
        code, hash_, comment = lines[node.end_lineno - 1].partition("#")
        if not hash_:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
            continue
        assert isinstance(node, ast.Expr), code
        got = repr(eval(compile(ast.Expression(node.value), "README", "eval"), namespace))
        pattern = ".*".join(map(re.escape, comment.strip().split("...")))
        assert re.fullmatch(pattern, got), (code, got)
        checked += 1
    assert checked == 8


MO2, MO3 = weaktensor.mo_space(2), weaktensor.mo_space(3)
BOX22 = weaktensor.box_product([MO2, MO2])
BOX33 = weaktensor.box_product([MO3, MO3])
OM2 = weaktensor.find_orthocomplementation(MO2)
DUAL22 = hilbert.dual_covering_counterexample(2, 2)
GQ0, GQ1 = repr(hilbert.ZERO), repr(hilbert.ONE)
E0, E1 = hilbert.basis_vector(2, 0), hilbert.basis_vector(2, 1)

# each public record: a maker of fresh equal instances, and their repr
RECORDS = {
    "CoverWitness": (lambda: MO3.covers(0, 7), "CoverWitness(lower=0, upper=7, intermediate=1)"),
    "OrthoMap": (lambda: weaktensor.find_orthocomplementation(MO2),
                 f"OrthoMap(space={MO2!r}, atoms=(2, 1))"),
    "ExhaustionCertificate": (lambda: weaktensor.find_orthocomplementation(MO3),
                              "ExhaustionCertificate(nodes=8)"),
    "CoveringFailure": (lambda: weaktensor.has_covering_property(BOX33),
                        "CoveringFailure(atom=1, element=160, witness=CoverWitness("
                        "lower=160, upper=511, intermediate=186))"),
    "OrthomodularityWitness": (lambda: props.OrthomodularityWitness(1, 1025),
                               "OrthomodularityWitness(a=1, b=1025)"),
    "ConnectedCovering": (lambda: weaktensor.is_weakly_connected(MO3),
                          "ConnectedCovering(blocks=(7,))"),
    "NotWeaklyConnected": (lambda: weaktensor.is_weakly_connected(weaktensor.two_space()),
                           "NotWeaklyConnected(reason='the two-element lattice', "
                           "isolated_atom=None)"),
    "FactoredForm": (lambda: weaktensor.check_factorization(BOX22, BOX22.product, (0, 2, 1, 3)),
                     "FactoredForm(factor_bijection=(1, 0), factor_isos=((0, 1), (0, 1)))"),
    "AxiomViolation": (lambda: weaktensor.check_p1_p2_p3(MO3, BOX22.product),
                       "AxiomViolation(axiom='P1', "
                       "witness='points are not the product of the factor points')"),
    "P4Violation": (lambda: products.P4Violation(((1, 0), (0, 1)), "a maps to b"),
                    "P4Violation(factor_perms=((1, 0), (0, 1)), witness='a maps to b')"),
    "SharpMap": (lambda: weaktensor.sharp_map(BOX22, [OM2, OM2]),
                 f"SharpMap(factor_maps=({OM2!r}, {OM2!r}), "
                 f"product_map=OrthoMap(space={BOX22!r}, atoms=(14, 13, 11, 7)))"),
    "CoatomNonConformance": (lambda: products.CoatomNonConformance("not a cross"),
                             "CoatomNonConformance(detail='not a cross')"),
    "DualCoveringReport": (lambda: hilbert.dual_covering_counterexample(2, 2),
                           f"DualCoveringReport(m=2, n=2, coatom_vector={DUAL22.coatom_vector!r}, "
                           f"pair_a={DUAL22.pair_a!r}, pair_b={DUAL22.pair_b!r}, "
                           "disjoint_from_coatom=True, two_atom_set_closed=True, "
                           "join_with_coatom_is_top=True, strict_chain=True)"),
    "CheckSpec": (lambda: suites.CheckSpec("covering", ("mo:3",), {"n": 3}, "pass"),
                  "CheckSpec(check='covering', targets=('mo:3',), args={'n': 3}, expect='pass')"),
    "Suite": (lambda: suites.Suite("demo", (suites.CheckSpec("covering", ("mo:3",), {}),)),
              "Suite(name='demo', checks=(CheckSpec(check='covering', targets=('mo:3',), "
              "args={}, expect=None),))"),
    # the echelon form of the rows, whatever their scale and repeats
    "Subspace": (lambda: hilbert.Subspace(2, [E1, (hilbert.ZERO, hilbert.GQ(3))]),
                 f"Subspace(ambient=2, basis=(({GQ0}, {GQ1}),))"),
    "ProductAtomPair": (lambda: hilbert.ProductAtomPair((hilbert.GQ(0, 2), hilbert.ZERO), E1),
                        f"ProductAtomPair(p1=({GQ1}, {GQ0}), p2=({GQ0}, {GQ1}))"),
    # a value has one triple of ints, shown by its parts
    "GQ": (lambda: hilbert.GQ(Fraction(3, 6), -3), "GQ(re=Fraction(1, 2), im=Fraction(-3, 1))"),
    "AntilinearMap": (lambda: hilbert.AntilinearMap(((hilbert.ONE, hilbert.ZERO),)),
                      f"AntilinearMap(matrix=(({GQ1}, {GQ0}),))"),
    "CheckRecord": (lambda: reports.CheckRecord("covering mo:3", "pass"),
                    "CheckRecord(name='covering mo:3', verdict='pass', witness='', "
                    "elapsed=0.0, expected=None)"),
    "Report": (lambda: reports.Report([reports.CheckRecord("x", "fail", "w", 0.5, "pass")]),
               "Report(records=[CheckRecord(name='x', verdict='fail', witness='w', "
               "elapsed=0.5, expected='pass')])"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_is_pinned(name):
    make, shown = RECORDS[name]
    record, again = make(), make()
    assert type(record).__name__ == name and record is not again
    assert repr(record) == shown
    assert record == again
    if name == "Report":  # the one mutable record: no hash, its list grows
        assert type(record).__hash__ is None
        with pytest.raises(AttributeError):
            record.title = "x"
    else:
        if name in ("CheckSpec", "Suite"):  # a spec's args are a dict, as parsed
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
        else:
            assert hash(record) == hash(again)
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
    if isinstance(record, tuple):
        # a NamedTuple unpacks, indexes and compares as the tuple of its fields
        *values, = record
        assert record == tuple(values) and record[0] == getattr(record, record._fields[0])
        assert len(values) == len(record._fields)
    else:
        assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("make, says", [
    (lambda: reports.CheckRecord("covering mo:3", "passed"), "unknown verdict 'passed'"),
    (lambda: hilbert.AntilinearMap(()), "empty matrix"),
    (lambda: hilbert.AntilinearMap(((hilbert.ONE, hilbert.ZERO), (hilbert.ONE,))),
     "is no row of 2 Gaussian rationals"),
    (lambda: hilbert.AntilinearMap(((1, 0), (0, 1))), r"row \(1, 0\) is no row"),
    (lambda: hilbert.Subspace(2, [(hilbert.ONE,)]), "is no vector of 2 Gaussian rationals"),
    (lambda: hilbert.ProductAtomPair((hilbert.ZERO, hilbert.ZERO), E0), "zero"),
])
def test_a_checking_record_refuses_bad_input(make, says):
    with pytest.raises(ValueError, match=says):
        make()


def test_a_check_spec_default_args_are_read_only():
    # the default is shared by every spec, so it must not be writable
    spec = suites.CheckSpec("covering", ("mo:3",))
    assert dict(spec.args) == {} and spec.args is suites.CheckSpec("p4").args
    with pytest.raises(TypeError):
        spec.args["n"] = 3


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter: this process has loaded both for pytest.  build
    # and decide import the package alone, so neither pays for the
    # Gaussian-rational layer, the suites or fractions either
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, weaktensor; print(sorted({'dataclasses', 'inspect', 'fractions', "
            "'weaktensor.hilbert', 'weaktensor.suites'} & set(sys.modules))); "
            "import weaktensor.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n[]\n"
