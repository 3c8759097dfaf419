import inspect

import pytest

from weaktensor import ClosureSpace, products, suites
from weaktensor.suites import CheckSpec, Suite, run_suite


def test_each_target_text_is_built_once_per_run(monkeypatch):
    built, seen = [], []

    def counting_resolve(text, base_dir=None):
        built.append(text)
        return resolve(text, base_dir)

    def record(first, second=None, *, args, rng):
        seen.append((first,) if second is None else (first, second))
        return "pass", ""

    resolve = suites.resolve_target
    monkeypatch.setattr(suites, "resolve_target", counting_resolve)
    monkeypatch.setitem(suites.CHECKS, "record", record)
    monkeypatch.setitem(suites._TARGET_COUNTS, "record", suites._target_counts(record))
    monkeypatch.setitem(suites._ARG_NAMES, "record", frozenset())
    suite = Suite(name="demo", checks=(
        CheckSpec("record", ("mo:3",)),
        CheckSpec("record", ("powerset:2", "mo:3")),
        CheckSpec("record", ("mo:3", "mo:3")),
    ))
    run_suite(suite)
    assert sorted(built) == ["mo:3", "powerset:2"]
    mo3 = seen[0][0]
    assert seen[1][1] is mo3 and seen[2] == (mo3, mo3)
    # a second run builds its own targets
    run_suite(suite)
    assert sorted(built) == ["mo:3", "mo:3", "powerset:2", "powerset:2"]
    assert seen[3][0] is not mo3


def target_counts_by_signature(handler):
    # the rule as read off inspect.signature: the parameters before args and rng
    *params, _, _ = inspect.signature(handler).parameters.values()
    if any(p.kind is p.VAR_POSITIONAL for p in params):
        return range(2, 4)
    return range(sum(p.default is p.empty for p in params), len(params) + 1)


def test_target_counts_match_the_signatures():
    def one_or_two(first, second=None, *, args, rng): ...
    def none(*, args, rng): ...
    def factors(*factors, args, rng): ...
    def two(a, b, args, rng): ...

    handlers = {**suites.CHECKS, "one-or-two": one_or_two, "none": none, "factors": factors,
                "two": two}
    assert {name: suites._target_counts(fn) for name, fn in handlers.items()} == {
        name: target_counts_by_signature(fn) for name, fn in handlers.items()}
    assert suites._TARGET_COUNTS == {name: suites._target_counts(fn)
                                     for name, fn in suites.CHECKS.items()}


def test_a_nest_of_max_target_depth_products_resolves_and_one_more_is_refused():
    # one-point factors, so only the depth cap can refuse the nest
    def nest(depth):
        return "box(two," * depth + "two" + ")" * depth

    cap = suites.MAX_TARGET_DEPTH
    assert suites.resolve_target(nest(cap)).n_points == 1
    kind, factors = suites.resolve_product(nest(cap))
    assert kind == "box" and [f.n_points for f in factors] == [1, 1]
    says = f"^target nested too deeply: more than {cap} levels of products$"
    for resolve in (suites.resolve_target, suites.resolve_product):
        with pytest.raises(suites.TargetError, match=says):
            resolve(nest(cap + 1))


def test_order_and_transitivity_are_decided_without_listing(monkeypatch):
    # powerset:12 has 12! automorphisms; the chain gives the order and the
    # orbit of point 0 without listing any of them
    def no_listing(space):
        raise AssertionError("the automorphism group was listed")

    monkeypatch.setattr(ClosureSpace, "automorphism_perms", no_listing)
    suite = Suite(name="demo", checks=tuple(
        spec for target, order in (("powerset:9", 362_880), ("powerset:12", 479_001_600))
        for spec in (CheckSpec("automorphism-count", (target,), {"count": order}),
                     CheckSpec("transitive", (target,)))))
    report = run_suite(suite)
    assert [(r.verdict, r.witness) for r in report.records] == [
        ("pass", "count=362880"), ("pass", "point action transitive"),
        ("pass", "count=479001600"), ("pass", "point action transitive")]


def test_subset_scan_checks_refuse_before_building(monkeypatch):
    # powerset:4 x mo:5 has 20 points: the cap is read off the factors
    def no_build(factors):
        raise AssertionError("a product was built")

    monkeypatch.setattr(products, "box_product", no_build)
    monkeypatch.setattr(products, "fraser_product", no_build)
    suite = Suite(name="demo", checks=tuple(
        CheckSpec(check, ("powerset:4", "mo:5"))
        for check in ("single-nonboolean-equality", "fraser-fixpoint-membership")))
    report = run_suite(suite)
    assert [(r.verdict, r.witness) for r in report.records] == [
        ("error", f"exhaustive subset scan capped at {suites.SUBSET_SCAN_CAP} points")] * 2
    assert suites.SUBSET_SCAN_CAP == 16


@pytest.mark.parametrize("check", ["coatom-crosses", "coatom-decomposition"])
def test_a_circle_builder_fault_is_an_error_not_a_skip(monkeypatch, check):
    def broken(first, second):
        raise TypeError("broken circle builder")

    monkeypatch.setattr(products, "mo_circle", broken)
    report = run_suite(Suite(name="demo", checks=(CheckSpec(check, ("mo:3", "mo:3")),)))
    assert [(r.verdict, r.witness) for r in report.records] == [
        ("error", "TypeError: broken circle builder")]


def test_the_suite_arguments_are_the_pinned_keys():
    # the settable values of the suite format, each stating the question
    # itself: a new knob edits this test and CHANGES.md
    assert set(suites._ARG_NAMES) == set(suites.CHECKS)
    assert {name: keys for name, keys in suites._ARG_NAMES.items() if keys} == {
        "contains-mo": {"n"},
        "automorphism-count": {"count"},
        "hilbert-dual-covering-break": {"m", "n"},
    }
