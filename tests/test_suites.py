import collections
from pathlib import Path

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


def test_a_product_file_included_twice_is_not_a_cycle(tmp_path):
    (tmp_path / "leaf.prod").write_text("product: box\nfactor: mo:2\nfactor: mo:2\n")
    (tmp_path / "pair.prod").write_text("product: box\nfactor: leaf.prod\nfactor: leaf.prod\n")
    assert suites.resolve_target("pair.prod", tmp_path).n_points == 16


def test_a_chain_of_product_files_resolves_each_file_once(tmp_path, monkeypatch):
    # each file names the next twice, so resolving per mention would read
    # the last file 2^19 times
    count = 20
    for k in range(1, count + 1):
        nxt = f"p{k + 1}.prod" if k < count else "two"
        (tmp_path / f"p{k}.prod").write_text(f"product: box\nfactor: {nxt}\nfactor: {nxt}\n")
    reads = collections.Counter()
    read_text = Path.read_text

    def counted(path, *args, **kwargs):
        reads[path.name] += 1
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counted)
    assert suites.resolve_target("p1.prod", tmp_path).n_points == 1
    assert reads == {f"p{k}.prod": 1 for k in range(1, count + 1)}
    reads.clear()
    assert [len(f) for f in suites.resolve_product("p1.prod", tmp_path)[1]] == [2, 2]
    assert reads == {f"p{k}.prod": 1 for k in range(1, count + 1)}


def test_a_product_file_met_again_deeper_keeps_the_depth_cap(tmp_path):
    # a file resolved once near the top is resolved again where it sits
    # deeper, so a target nests too deeply whether or not it was met before
    (tmp_path / "d.prod").write_text("product: box\nfactor: two\nfactor: two\n")
    outcomes = set()
    for nest in range(suites.MAX_TARGET_DEPTH - 3, suites.MAX_TARGET_DEPTH + 1):
        deep = "box(two," * nest + "d.prod" + ")" * nest
        got = []
        for target in (f"box(two,{deep})", f"box(d.prod,{deep})"):
            try:
                got.append(suites.resolve_target(target, tmp_path).n_points)
            except suites.TargetError as exc:
                assert "nested too deeply" in str(exc)
                got.append("too deep")
        assert got[0] == got[1], nest
        outcomes.add(got[0])
    assert outcomes == {1, "too deep"}


def test_product_files_follow_the_shape_rule(tmp_path):
    # the kind and factor count are checked, with the file named, before
    # any factor line is resolved
    for text, says in (
            ("product: spiral\nfactor: mo:2\nfactor: mo:2\n", "unknown product kind 'spiral'"),
            ("product: box\n" + "factor: mo:2\n" * 3 + "factor: nope.lat\n",
             "box takes 2 to 3 factors, got 4"),
            ("product: circle\nfactor: mo:3\nfactor: mo:3\nfactor: mo:3\n",
             "circle takes 2 factors, got 3"),
            ("factor: mo:2\nfactor: mo:2\n", "missing 'product:' tag")):
        (tmp_path / "p.prod").write_text(text)
        with pytest.raises(suites.TargetError, match=f"p.prod: {says}"):
            suites.resolve_target("p.prod", tmp_path)


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
