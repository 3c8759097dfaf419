"""Batch front door: build lattice families, run check suites, compute joins.

Exit codes: 0 all expected verdicts met, 1 verdict mismatch, 2 input error
(a bad argument, a malformed file or a path that cannot be read).
Reports are deterministic: identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import products
from .spaces import render_lattice_text
from .suites import DEFAULT_SEED, get_suite, resolve_product, resolve_target, run_suite


class InputError(Exception):
    pass


def _emit(text: str, out: str | None) -> None:
    """Write ``--out FILE`` first, so a failed write prints nothing."""
    if out:
        Path(out).write_text(text)
    sys.stdout.write(text)


def cmd_build(args: argparse.Namespace) -> int:
    _emit(render_lattice_text(resolve_target(args.target, Path.cwd())), args.out)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    suite = get_suite(args.suite, Path.cwd())
    report = run_suite(suite, seed=args.seed, base_dir=Path.cwd())
    _emit(report.render(), args.out)
    if args.timings:
        for rec in report.records:
            print(f"# {rec.name}: {rec.elapsed:.3f}s", file=sys.stderr)
    return 0 if report.all_expected else 1


def _parse_tuples(universe: products.ProductUniverse, text: str) -> int:
    mask = 0
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        labels = [p.strip() for p in chunk.split(",")]
        try:
            mask |= 1 << universe.encode_labels(labels)
        except ValueError as exc:
            raise InputError(f"bad tuple {chunk!r}: {exc}") from None
    if mask == 0:
        raise InputError("no tuples given")
    return mask


def cmd_join(args: argparse.Namespace) -> int:
    if args.betas is not None and args.method != "beta-sequence":
        raise InputError("--betas needs --method beta-sequence")
    kind, factors = resolve_product(args.target, Path.cwd())
    if kind == "circle":
        products.check_circle_factors(factors)
    universe = products.ProductUniverse(factors)
    region = _parse_tuples(universe, args.tuples)
    lines = [f"R0: {universe.render_set(region)}"]
    if args.method == "box":
        result = products.box_join(universe, region)
    elif args.method == "fraser":
        result = products.fraser_join(universe, region)
    else:
        if not args.betas:
            raise InputError("--method beta-sequence needs --betas, e.g. --betas 2,1,2")
        # the target grammar's size rule: ASCII digits only
        parts = args.betas.split(",")
        if not all(b.isascii() and b.isdigit() for b in parts):
            raise InputError("--betas must be a comma-separated list of factor numbers")
        betas = [int(b) for b in parts]
        if any(not 1 <= b <= len(factors) for b in betas):
            raise InputError(f"factor numbers must be between 1 and {len(factors)}")
        seq = products.beta_join_sequence(universe, region, [b - 1 for b in betas])
        for i, step in enumerate(seq[1:], start=1):
            lines.append(f"R{i}: {universe.render_set(step)}")
        result = seq[-1]
    lines.append(f"RESULT: {universe.render_set(result)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weaktensor",
        description="Build weak tensor products of finite atomistic lattices "
                    "and verify their structure.")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="write a canonical lattice file")
    b.add_argument("target", metavar="TARGET",
                   help="a suite target, e.g. mo:3, 'box(mo3.lat,mo3.lat)' or any.lat")
    b.add_argument("--out", metavar="FILE", help="also write the output to FILE")
    b.set_defaults(fn=cmd_build)

    c = sub.add_parser("check", help="run a named or file-based check suite")
    c.add_argument("--suite", required=True, metavar="NAME|FILE")
    c.add_argument("--seed", type=int, default=DEFAULT_SEED, metavar="K")
    c.add_argument("--out", metavar="FILE")
    c.add_argument("--timings", action="store_true",
                   help="print per-check timings to stderr")
    c.set_defaults(fn=cmd_check)

    j = sub.add_parser("join", help="compute joins of point tuples in a product")
    j.add_argument("target", metavar="TARGET",
                   help="a product target, e.g. 'box(mo:3,mo:3)' or 'circle(mo3.lat,mo3.lat)'")
    j.add_argument("--tuples", required=True,
                   help="semicolon-separated tuples, e.g. 'a,x;b,y;c,z'")
    j.add_argument("--method", choices=("box", "fraser", "beta-sequence"),
                   default="fraser")
    j.add_argument("--betas", help="factor numbers for beta-sequence, e.g. 2,1,2")
    j.add_argument("--out", metavar="FILE")
    j.set_defaults(fn=cmd_join)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
