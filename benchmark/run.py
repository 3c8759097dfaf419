#!/usr/bin/env python3
"""Layered benchmark for weaktensor: ``build``, ``decide`` and ``suite``.

Usage, from the repository root:

    python3 benchmark/run.py --workload build|decide|suite --seed N \
        --seconds S --trace 0|1

Every workload is a closed loop: one operation at a time from a single
process (``suite`` runs one child process at a time).  The seed makes
one pass, a fixed list of operations; the timed phase repeats that pass
and stops at the first pass boundary after ``--seconds``, so every run
measures whole passes and per-pass counts are exact.  Every operation's
output is checked against ``reference.json`` or recomputed from its
definition after the pass, outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
first half of the time untraced and the second half with every public
function of the package wrapped (see ``tracer.py``), writes the spans
under ``benchmark/out/`` and prints the per-layer metrics per pass plus
the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from clock import Clock, timed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = json.loads((HERE / "reference.json").read_text())

IMPORT_REPEATS = 15  # short child processes: many repeats for a steady median
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120

# ROADMAP "Baselines to reproduce" rows that fall inside the workloads.
BASELINES = {
    "build box(mo:2,mo:3,mo:4)": 1.29,
    "covering circle(mo:4,mo:5)": 0.40,
    "covering circle(mo:4,mo:6)": 1.29,
    "automorphisms box(mo:2,mo:5)": 2.5,
    "check core-verified": 1.2,
    "check paper-core": 0.95,
}


class Mismatch(Exception):
    """An operation's output differs from its reference."""


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    # returns (decided, decisions) and raises Mismatch on a wrong output
    check: Callable[[object], tuple[int, int]]


@dataclass
class Phase:
    passes: int = 0
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    decided: int = 0
    decisions: int = 0
    samples: list = field(default_factory=list)
    by_label: dict = field(default_factory=lambda: defaultdict(list))

    @property
    def ops_per_s(self) -> float:
        return self.attempted / self.wall_s


# -- shared helpers ------------------------------------------------------------

def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


@dataclass
class ChildRun:
    """A finished ``suite_child.py`` process."""
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float  # spawn to exit
    suite: str = ""
    trace: Path | None = None

    def clock(self) -> tuple[float, float, float]:
        """The child's own clock: (reference-speed factor, probe seconds,
        seconds of its work at reference speed)."""
        fields = (self.stderr.decode().splitlines() or [""])[-1].split()
        if len(fields) != 4 or fields[0] != "clock":
            raise Mismatch(f"child exited {self.returncode} without reporting its clock")
        return float(fields[1]), float(fields[2]), float(fields[3])

    def at_reference_speed(self) -> float:
        """Spawn to exit, less the child's probes, at the speed the child
        measured for itself."""
        factor, probe_s, _ = self.clock()
        return (self.wall_s - probe_s) * factor


def spawn(args: list[str], suite: str = "", trace: Path | None = None) -> ChildRun:
    """Run ``suite_child.py args`` to its end.  ``communicate`` without a
    timeout ends in a blocking wait, so the exit is seen as it happens; a
    watchdog kills a child that outlives CHILD_TIMEOUT_S."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "suite_child.py"), *args], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        stdout, stderr = proc.communicate()
    finally:
        watchdog.cancel()
        watchdog.join()
    return ChildRun(proc.returncode, stdout, stderr, perf_counter() - t0, suite, trace)


def import_child() -> ChildRun:
    """A fresh interpreter that imports weaktensor and exits."""
    run = spawn(["import"])
    if run.returncode:
        raise RuntimeError(f"importing weaktensor failed:\n{run.stderr.decode()}")
    return run


def median_import_s() -> float:
    """``import weaktensor`` in a fresh interpreter, by the child's clock."""
    import_child()  # warm-up: bytecode caches are written once, as on install
    return statistics.median(import_child().clock()[2] for _ in range(IMPORT_REPEATS))


def mask_digest(masks) -> str:
    return hashlib.sha256(",".join(map(str, sorted(masks))).encode()).hexdigest()[:16]


def factor(text: str):
    from weaktensor import spaces
    if text == "two":
        return spaces.two_space()
    kind, n = text.split(":")
    return {"mo": spaces.mo_space, "powerset": spaces.powerset_space}[kind](int(n))


def product(text: str, factors=None):
    """Build ``kind(f1,f2[,f3])`` from fresh factors unless given."""
    from weaktensor import products
    kind, inner = text[:-1].split("(", 1)
    factors = factors or [factor(f) for f in inner.split(",")]
    if kind == "circle":
        return products.mo_circle(*factors)
    return {"box": products.box_product, "fraser": products.fraser_product}[kind](factors)


def check_family(label: str, space) -> tuple[int, int]:
    want = REFERENCE["build"][label]
    got = {"sets": len(space), "digest": mask_digest(space.masks)}
    if got != want:
        raise Mismatch(f"{label}: got {got}, want {want}")
    return 1, 1


# -- build ---------------------------------------------------------------------
#
# The spaces write path (from_closed_sets intersection closure and the
# ClosureSpace validation) and the products builders; props and hilbert
# do no work.  Families from a handful of sets up to 4761; the 15k-set
# triples (14-19 s each) are left out.  45 entries put the p50 and p90
# ranks mid-way through one entry's repeats, and three builds of about
# 0.7 s sit at the p90 rank so that it does not hang on a single entry.

CATALOGUE = (
    "box(mo:2,mo:3,mo:4)", "box(mo:2,mo:2,mo:6)", "fraser(mo:2,mo:2,powerset:3)",
    "box(mo:2,mo:2,mo:5)", "fraser(mo:2,mo:3,mo:3)", "box(mo:3,mo:3,powerset:2)",
    "fraser(mo:2,mo:2,mo:4)", "box(mo:4,powerset:2,powerset:2)",
    "circle(mo:4,mo:6)", "fraser(mo:4,mo:5)", "circle(mo:4,mo:5)", "box(mo:2,mo:2,mo:3)",
    "fraser(mo:6,powerset:3)", "box(powerset:3,powerset:3)", "fraser(mo:4,mo:4)",
    "box(mo:5,powerset:3)", "circle(mo:4,mo:4)", "fraser(mo:3,mo:6)", "circle(mo:3,mo:6)",
    "box(mo:4,mo:6)", "fraser(mo:2,mo:2,mo:2)", "box(mo:4,mo:5)", "fraser(mo:4,powerset:3)",
    "box(mo:4,mo:4)", "fraser(mo:3,mo:5)", "circle(mo:3,mo:4)", "box(mo:3,powerset:3)",
    "fraser(two,mo:4,mo:4)", "box(mo:3,mo:3)", "fraser(mo:3,mo:3)", "circle(mo:3,mo:3)",
    "box(two,mo:3)", "box(two,mo:2,mo:6)", "box(mo:2,mo:5)",
    "fraser(mo:2,mo:6)", "box(mo:2,powerset:3)", "box(mo:2,mo:5,powerset:2)",
    "fraser(mo:3,powerset:2)", "box(mo:6,powerset:2)", "fraser(mo:2,mo:2,mo:3)",
    "box(mo:2,mo:3,mo:3)", "fraser(mo:5,powerset:3)", "circle(mo:3,mo:5)", "box(two,mo:4,mo:5)",
    "fraser(mo:5,powerset:2,powerset:2)",
)


class Build:
    child_timed = False

    def setup(self, rng: random.Random) -> dict:
        import_s = median_import_s()
        names = sorted({f for text in CATALOGUE for f in text[:-1].split("(")[1].split(",")})
        prep = [timed(lambda: {n: factor(n) for n in names}) for _ in range(SETUP_REPEATS)]
        order = list(CATALOGUE)
        rng.shuffle(order)
        return {"setup_s": import_s + statistics.median(t for t, _ in prep),
                "factors": prep[0][1], "order": order}

    def make_pass(self, state: dict) -> list[Op]:
        ops = []
        for text in state["order"]:
            factors = [state["factors"][f] for f in text[:-1].split("(")[1].split(",")]
            ops.append(Op(f"build {text}", lambda t=text, fs=factors: product(t, fs),
                          lambda space, t=text: check_family(t, space)))
        return ops


# -- decide ------------------------------------------------------------------------
#
# The spaces read path (closure, covers, coatoms) and every props decider on
# targets built in set-up; each decision gets a fresh instance so the
# coatom and automorphism memos start cold.  A seeded stream of light
# query batches (join, covers, fraser_join, box_join) runs alongside.

ORTHO_CAP = 200_000  # below the default budget: the capped searches stop early
HEAVY = (
    ("covering", "circle(mo:4,mo:5)"), ("covering", "circle(mo:4,mo:6)"),
    ("covering", "fraser(mo:4,mo:4)"), ("covering", "box(mo:3,mo:3)"),
    ("orthocomplementation", "box(mo:3,mo:3)"), ("orthocomplementation", "fraser(mo:3,mo:3)"),
    ("orthocomplementation", "circle(mo:3,mo:3)"), ("orthocomplementation", "box(mo:3,mo:4)"),
    ("orthocomplementation", "circle(mo:3,mo:4)"), ("orthocomplementation", "box(mo:4,mo:4)"),
    ("orthocomplementation-capped", "circle(mo:4,mo:4)"),
    ("orthocomplementation-capped", "fraser(mo:4,mo:5)"),
    ("automorphisms", "box(mo:3,mo:3)"), ("automorphisms", "box(mo:2,mo:4)"),
    ("automorphisms", "box(mo:2,mo:5)"),
    ("p123", "circle(mo:3,mo:3)"), ("p123", "box(mo:4,mo:4)"),
    ("p4", "circle(mo:3,mo:3)"), ("p4", "box(mo:4,mo:4)"),
    ("factorization", "box(mo:3,mo:3)"),
    ("weakly-connected", "box(mo:3,mo:3)"), ("weakly-connected", "circle(mo:4,mo:4)"),
    ("contains-mo3", "circle(mo:4,mo:4)"), ("contains-mo4", "box(mo:4,mo:4)"),
    ("dual-order", "circle(mo:4,mo:4)"), ("dual-order", "box(mo:4,mo:4)"),
    ("orthomodular", "box(mo:4,mo:4)"),
)
LIGHT_PER_KIND = 12  # light operations per kind and pass
LIGHT_BATCH = 20  # queries per light operation
QUERY_SPACE = "circle(mo:4,mo:5)"  # join and covers
REGION_FACTORS = ("mo:4", "mo:5")  # fraser_join and box_join


def decision_call(kind: str, space, extra) -> Callable[[], object]:
    from weaktensor import products, props
    if kind == "covering":
        return lambda: props.has_covering_property(space)
    if kind == "orthocomplementation":
        return lambda: props.find_orthocomplementation(space)
    if kind == "orthocomplementation-capped":
        def capped():
            try:
                return props.find_orthocomplementation(space, node_cap=ORTHO_CAP)
            except props.SearchBudgetExceeded as exc:
                return exc
        return capped
    if kind == "automorphisms":
        return lambda: props.automorphisms(space)
    if kind == "p123":
        return lambda: products.check_p1_p2_p3(space, space.product)
    if kind == "p4":
        return lambda: products.check_p4(
            space, space.product, [props.automorphisms(f) for f in space.product.factors])
    if kind == "factorization":
        return lambda: [props.check_factorization(space, space.product, u) for u in extra]
    if kind == "weakly-connected":
        return lambda: props.is_weakly_connected(space)
    if kind.startswith("contains-mo"):
        return lambda: props.contains_mo_n(space, int(kind[len("contains-mo"):]))
    if kind == "dual-order":
        return lambda: space.dual_order_check()
    if kind == "orthomodular":
        return lambda: props.is_orthomodular(space, extra.product_map)
    raise ValueError(kind)


def describe(result) -> str:
    """Canonical text of a decision's outcome, compared with reference.json."""
    from weaktensor import props
    if isinstance(result, props.OrthoMap):
        return "map"
    if isinstance(result, props.ExhaustionCertificate):
        return "certificate"
    if isinstance(result, props.SearchBudgetExceeded):
        return "budget"
    if isinstance(result, list) and result and isinstance(result[0], props.Automorphism):
        return f"order={len(result)}"
    if isinstance(result, list):  # factorization of every automorphism
        return "all-factor" if all(f is not None for f in result) else "some-fail"
    if isinstance(result, props.ConnectedCovering):
        return "connected"
    return repr(result)


def check_decision(kind: str, target: str, space, result) -> tuple[int, int]:
    from weaktensor import props
    got = describe(result)
    if kind == "orthocomplementation-capped":
        ok = got in ("map", "certificate", "budget")
    elif kind == "weakly-connected":
        ok = got in ("UNKNOWN", "connected")
    else:
        ok = got == REFERENCE["decide"][f"{kind} {target}"]
    if not ok:
        raise Mismatch(f"{kind} {target}: got {got}")
    if isinstance(result, props.OrthoMap) and not props.validate_orthomap(space, result):
        raise Mismatch(f"{kind} {target}: invalid orthocomplementation")
    if isinstance(result, props.CoveringFailure):
        j = space.closure(result.atom | result.element)
        if space.covers(result.element, j) != result.witness or result.witness.intermediate is None:
            raise Mismatch(f"{kind} {target}: covering witness does not re-check")
    if isinstance(result, list) and result and isinstance(result[0], props.Automorphism):
        if len({u.point_perm for u in result}) != len(result):
            raise Mismatch(f"{kind} {target}: repeated automorphisms")
    if isinstance(result, props.ConnectedCovering) and not props.validate_connected_covering(space, result):
        raise Mismatch(f"{kind} {target}: invalid connected covering")
    decided = not (result is props.UNKNOWN or isinstance(result, props.SearchBudgetExceeded))
    return int(decided), 1


def least_superset(family, region: int) -> int:
    out = -1
    for m in family:
        if region & ~m == 0:
            out &= m
    return out


def covers_reference(family, a: int, b: int):
    from weaktensor.spaces import CoverWitness
    if a == b:
        return CoverWitness(a, b)
    between = [c for c in family if c not in (a, b) and a & ~c == 0 and c & ~b == 0]
    return CoverWitness(a, b, min(between)) if between else True


def check_all(label: str, got: list, want: list) -> tuple[int, int]:
    if got != want:
        raise Mismatch(f"{label}: got {got}, want {want}")
    return 0, 0


class Decide:
    child_timed = False

    def setup(self, rng: random.Random) -> dict:
        from weaktensor import products, props
        import_s = median_import_s()
        # check_factorization's inputs: read-only point maps, shared by all passes
        aut_s, self.auts = timed(lambda: props.automorphisms(product("box(mo:3,mo:3)")))
        prep = [timed(self._instances) for _ in range(SETUP_REPEATS)]
        state = {"setup_s": import_s + aut_s + statistics.median(t for t, _ in prep),
                 "spare": [inst for _, inst in prep]}
        fams = {}
        for text in (QUERY_SPACE, "fraser(mo:4,mo:5)", "box(mo:4,mo:5)"):
            fams[text] = product(text)
            check_family(text, fams[text])
        space = fams[QUERY_SPACE]
        universe = products.ProductUniverse([factor(f) for f in REGION_FACTORS])
        masks = space.masks
        light = []
        for _ in range(LIGHT_PER_KIND):
            pairs = [(rng.choice(masks), rng.choice(masks)) for _ in range(LIGHT_BATCH)]
            light.append(Op(f"join {QUERY_SPACE}",
                            lambda pairs=pairs: [space.join(a, b) for a, b in pairs],
                            lambda got, pairs=pairs: check_all(
                                "join", got, [least_superset(masks, a | b) for a, b in pairs])))
            pairs = []
            for _ in range(LIGHT_BATCH):
                a = rng.choice(masks)
                pts = rng.sample(range(space.n_points), rng.choice((1, 2)))
                pairs.append((a, least_superset(masks, a | sum(1 << p for p in pts))))
            light.append(Op(f"covers {QUERY_SPACE}",
                            lambda pairs=pairs: [space.covers(a, b) for a, b in pairs],
                            lambda got, pairs=pairs: check_all(
                                "covers", got, [covers_reference(masks, a, b) for a, b in pairs])))
            for kind, ref in (("fraser_join", fams["fraser(mo:4,mo:5)"].masks),
                              ("box_join", fams["box(mo:4,mo:5)"].masks)):
                regions = [sum(1 << p for p in rng.sample(range(universe.n_points),
                                                          rng.choice((2, 3, 4))))
                           for _ in range(LIGHT_BATCH)]
                light.append(Op(f"{kind} ({','.join(REGION_FACTORS)})",
                                lambda k=kind, rs=regions: [getattr(products, k)(universe, r)
                                                            for r in rs],
                                lambda got, k=kind, rs=regions, ref=ref: check_all(
                                    k, got, [least_superset(ref, r) for r in rs])))
        slots = list(range(len(HEAVY))) + [None] * len(light)
        rng.shuffle(slots)
        state["slots"] = slots
        state["light"] = light
        return state

    def _instances(self) -> list:
        """One fresh target instance per decision, with its extra input."""
        from weaktensor import products, props
        out = []
        for kind, target in HEAVY:
            space = product(target)
            extra = None
            if kind == "factorization":
                extra = self.auts
            elif kind == "orthomodular":
                maps = [props.find_orthocomplementation(f) for f in space.product.factors]
                extra = products.sharp_map(space, maps)
            out.append((space, extra))
        return out

    def make_pass(self, state: dict) -> list[Op]:
        instances = state["spare"].pop() if state["spare"] else self._instances()
        light = iter(state["light"])
        ops = []
        for slot in state["slots"]:
            if slot is None:
                ops.append(next(light))
                continue
            kind, target = HEAVY[slot]
            space, extra = instances[slot]
            ops.append(Op(f"{kind} {target}", decision_call(kind, space, extra),
                          lambda r, k=kind, t=target, s=space: check_decision(k, t, s, r)))
        return ops


# -- suite -----------------------------------------------------------------------
#
# The user's front door: one fresh ``weaktensor check`` process per
# operation (suite_child.py, which times itself), alternating the two
# builtin suites over seeded ``--seed`` values.  The only workload that
# runs hilbert, suite target resolution, reports and the cli process start.

SUITE_OPS_PER_PASS = 8


def check_report(run: ChildRun, aggregate: dict) -> tuple[int, int]:
    """Compare a child's report with reference.json; merge its trace."""
    want = REFERENCE["suite"][run.suite]
    lines = run.stdout.decode().splitlines()
    records = [line for line in lines if line.startswith("CHECK ")]
    red = sorted(line.split(" RESULT ")[0][len("CHECK "):] for line in records
                 if "[expected " in line)
    got = {"exit": run.returncode, "summary": lines[-1] if lines else "", "red": red,
           "sha256": hashlib.sha256(run.stdout).hexdigest()}
    if got != want:
        raise Mismatch(f"check {run.suite}: got {got}, want {want}")
    if run.trace is not None:
        if not run.trace.is_file():
            raise Mismatch(f"check {run.suite}: the traced child wrote no {run.trace.name}")
        from tracer import merge
        stats = json.loads(run.trace.read_text())
        merge(aggregate, stats["aggregate"])
        aggregate["import_s"] = aggregate.get("import_s", 0.0) + stats["import_s"]
        aggregate["children"] = aggregate.get("children", 0) + 1
    definite = sum(1 for line in records
                   if line.split(" RESULT ")[1].split()[0] in ("pass", "fail", "none"))
    return definite, len(records)


class Suite:
    child_timed = True  # see measure_child

    def __init__(self) -> None:
        self.traced = False
        self.aggregate: dict = {}
        self.prefix: Path | None = None  # span files of traced children

    def setup(self, rng: random.Random) -> dict:
        import_child()  # warm-up, as in median_import_s
        times = [import_child().at_reference_speed() for _ in range(IMPORT_REPEATS)]
        first = rng.randrange(2)
        names = ("core-verified", "paper-core")
        deck = [(names[(first + i) % 2], rng.randrange(1, 2**31)) for i in range(SUITE_OPS_PER_PASS)]
        return {"setup_s": statistics.median(times), "deck": deck, "n": 0}

    def _call(self, state: dict, suite: str, seed: int) -> ChildRun:
        args, trace = [], None
        if self.traced:
            state["n"] += 1
            prefix = f"{self.prefix}-op{state['n']}"
            trace = Path(f"{prefix}.stats.json")
            args += ["--trace", prefix]
        args += ["check", "--suite", suite, "--seed", str(seed)]
        return spawn(args, suite, trace)

    def make_pass(self, state: dict) -> list[Op]:
        return [Op(f"check {suite}", lambda s=suite, k=seed: self._call(state, s, k),
                   lambda run: check_report(run, self.aggregate))
                for suite, seed in state["deck"]]


WORKLOADS = {"build": Build, "decide": Decide, "suite": Suite}


# -- running -----------------------------------------------------------------------

def measure_child(call) -> tuple[float, float, object, bool]:
    """Run an operation that returns a ChildRun, in the form of
    ``Clock.measure``: the child's wall time and its time at the speed the
    child measured for itself.  The parent runs no probes meanwhile; a child
    that did not report its clock is a failed operation."""
    t0 = perf_counter()
    try:
        run = call()
        return run.wall_s, run.at_reference_speed(), run, False
    except Exception as exc:  # the caller counts it as a failed operation
        raw = perf_counter() - t0
        return raw, raw, exc, True


def run_phase(workload, state: dict, seconds: float, tracer=None) -> Phase:
    """Run whole passes until the operations have taken ``seconds``; check
    outputs after each pass.  With a tracer, only operations are traced.
    ``wall_s`` and the samples are at reference speed (see ``Clock``, and
    ``measure_child`` for operations in a child process)."""
    phase = Phase()
    seconds_left = seconds
    while phase.passes == 0 or seconds_left > 0:
        ops = workload.make_pass(state)
        gc.collect()
        results = []
        with (nullcontext() if workload.child_timed else Clock()) as clock:
            measure = measure_child if clock is None else clock.measure
            for op in ops:
                if tracer is not None:
                    tracer.active = True
                call = op.call if tracer is None else (lambda: tracer.span("bench.op", op.call))
                raw, dt, out, raised = measure(call)
                if tracer is not None:
                    tracer.active = False
                results.append((op, out, raised, raw, dt))
                seconds_left -= raw
        phase.wall_s += sum(dt for *_, dt in results)
        phase.passes += 1
        for op, out, raised, raw, dt in results:
            phase.attempted += 1
            phase.samples.append(dt)
            phase.by_label[op.label].append((raw, dt))
            try:
                if raised:
                    raise Mismatch(f"{op.label} raised {type(out).__name__}: {out}")
                decided, decisions = op.check(out)
            except Mismatch as exc:
                phase.failed += 1
                print(f"# FAIL {exc}")
                continue
            phase.decided += decided
            phase.decisions += decisions
    return phase


def end_to_end(workload_name: str, state: dict, phase: Phase) -> dict:
    who = resource.RUSAGE_CHILDREN if workload_name == "suite" else resource.RUSAGE_SELF
    ms = [s * 1e3 for s in phase.samples]
    return {
        "setup_s": (state["setup_s"], "s"),
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[-1], "ms"),
        "decided_frac": (phase.decided / phase.decisions, "ratio"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def per_layer(aggregate: dict, passes: int, untraced: Phase, traced: Phase) -> dict:
    from tracer import LAYERS
    calls = aggregate.get("calls", {})
    self_s = aggregate.get("self_s", {})
    total_s = aggregate.get("total_s", {})
    counters = aggregate.get("counters", {})

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (sum(v for k, v in calls.items() if k.split(".")[0] == layer) / passes, "count")
        m[f"{layer}.self_s"] = (sum(v for k, v in self_s.items() if k.split(".")[0] == layer) / passes, "s")
    for name in ("spaces.from_closed_sets", "spaces.closure", "spaces.covers", "spaces.coatoms",
                 "products.beta_join", "props.orthomap_violation", "hilbert.rref",
                 "hilbert.Subspace.perp", "hilbert.Subspace.contains", "suites.resolve_target"):
        m[f"{name}.calls"] = (calls.get(name, 0) / passes, "count")
    for name in ("spaces.from_closed_sets", "spaces.ClosureSpace.init", "spaces.closure",
                 "spaces.covers", "spaces.coatoms", "products.ProductUniverse",
                 "products.box_product", "products.fraser_product", "products.mo_circle",
                 "products.fraser_join", "products.box_join", "products.check_p1_p2_p3",
                 "products.check_p4", "props.has_covering_property",
                 "props.find_orthocomplementation", "props.orthomap_violation",
                 "props.automorphisms", "props.check_factorization", "props.is_weakly_connected",
                 "props.contains_mo_n", "props.is_orthomodular", "hilbert.rref",
                 "hilbert.Subspace.perp", "hilbert.box_membership_test",
                 "hilbert.dual_covering_counterexample", "suites.resolve_target",
                 "reports.Report.render"):
        m[f"{name}.self_s"] = (self_s.get(name, 0.0) / passes, "s")
    nodes = counters.get("props.find_orthocomplementation.nodes", 0)
    perms = counters.get("props.automorphisms.perms_tried", 0)
    m.update({
        "spaces.family_sets": (counters.get("spaces.family_sets", 0) / passes, "count"),
        "products.check_p4.tuples": (counters.get("products.check_p4.tuples", 0) / passes, "count"),
        "props.find_orthocomplementation.nodes": (nodes / passes, "count"),
        "props.find_orthocomplementation.nodes_per_s": (
            ratio(nodes, self_s.get("props.find_orthocomplementation", 0.0)), "1/s"),
        "props.find_orthocomplementation.decided_ratio": (ratio(
            counters.get("props.find_orthocomplementation.decided", 0),
            calls.get("props.find_orthocomplementation", 0)), "ratio"),
        "props.automorphisms.perms_tried": (perms / passes, "count"),
        "props.automorphisms.yield": (ratio(counters.get("props.automorphisms.found", 0), perms), "ratio"),
        "suites.resolve_target.total_s": (total_s.get("suites.resolve_target", 0.0) / passes, "s"),
        "suites.target_cache_hit_ratio": (ratio(counters.get("suites.resolve_target.hits", 0),
                                                calls.get("suites.resolve_target", 0)), "ratio"),
        "suites.check_s": (sum(v for k, v in total_s.items() if k.startswith("suites.check.")) / passes, "s"),
        "cli.import_s": (ratio(aggregate.get("import_s", 0.0), aggregate.get("children", 0)), "s"),
        "trace.spans": (aggregate.get("spans", 0) / passes, "count"),
        "trace.untraced_ops_per_s": (untraced.ops_per_s, "1/s"),
        "trace.traced_ops_per_s": (traced.ops_per_s, "1/s"),
        "trace.overhead_ops_per_s": (traced.ops_per_s - untraced.ops_per_s, "1/s"),
    })
    return m


def report(metrics: dict, correct: bool, attempted: int, failed: int) -> None:
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def print_baselines(phase: Phase) -> None:
    for label, roadmap_s in BASELINES.items():
        times = phase.by_label.get(label)
        if times:
            raw = statistics.median(r for r, _ in times)
            scaled = statistics.median(s for _, s in times)
            print(f"# baseline {label}: median {raw:.3f} s wall, {scaled:.3f} s at reference "
                  f"speed, over {len(times)} ops (ROADMAP {roadmap_s} s wall)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weaktensor" / "__init__.py").is_file():
        print(f"error: no weaktensor package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import weaktensor
    if Path(weaktensor.__file__).resolve().parent != SRC / "weaktensor":
        print(f"error: imported weaktensor from {weaktensor.__file__}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    state = workload.setup(random.Random(args.seed))
    if not args.trace:
        phase = run_phase(workload, state, args.seconds)
        print_baselines(phase)
        print(f"# {phase.attempted} ops in {phase.passes} passes; fail_frac "
              f"{phase.failed / phase.attempted:.6g} ratio")
        report(end_to_end(args.workload, state, phase), phase.failed == 0,
               phase.attempted, phase.failed)
        return 0

    from tracer import Tracer
    half = args.seconds / 2
    untraced = run_phase(workload, state, half)
    print_baselines(untraced)
    prefix = OUT / f"{args.workload}-seed{args.seed}"
    for old in OUT.glob(f"{args.workload}-*"):
        old.unlink()
    if args.workload == "suite":
        workload.traced, workload.prefix = True, prefix
        traced = run_phase(workload, state, half)
        aggregate = workload.aggregate
    else:
        import weaktensor.cli  # noqa: F401  (loads every layer so all are wrapped)
        tracer = Tracer()
        tracer.install(weaktensor)
        traced = run_phase(workload, state, half, tracer=tracer)
        tracer.write(prefix)
        aggregate = tracer.aggregate()
    print(f"# spans written to {prefix.relative_to(ROOT)}*")
    failed = untraced.failed + traced.failed
    attempted = untraced.attempted + traced.attempted
    print(f"# untraced {untraced.attempted} ops, traced {traced.attempted} ops in "
          f"{traced.passes} passes; fail_frac {failed / attempted:.6g} ratio")
    report(per_layer(aggregate, traced.passes, untraced, traced), failed == 0, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
