"""Child process of the benchmark: one ``weaktensor check`` run, or an import.

Usage, with ``PYTHONPATH`` pointing at the package sources:

    suite_child.py [--trace PREFIX] check --suite NAME --seed S
    suite_child.py import

``check`` imports the cli and calls ``weaktensor.cli.main``, the function
behind the ``weaktensor`` command; the report goes to standard output and
the exit code is the cli's.  ``import`` imports ``weaktensor`` and exits.
The child times itself with ``clock.Clock``, so its speed is sampled in
the process doing the work, and prints
``clock <reference-speed factor> <probe seconds> <work seconds at reference speed>``
as the last line of standard error; the probe seconds count every probe
the child ran.  With ``--trace`` it installs the benchmark's wrappers
after the (timed) import and writes ``PREFIX.spans.*`` and
``PREFIX.stats.json``.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

from clock import Clock


def check(prefix: Path | None, argv: list[str]) -> int:
    t0 = perf_counter()
    import weaktensor
    import weaktensor.cli
    import_s = perf_counter() - t0
    if prefix is None:
        return weaktensor.cli.main(argv)
    from tracer import Tracer
    tracer = Tracer()
    tracer.install(weaktensor)
    tracer.active = True
    code = weaktensor.cli.main(argv)
    tracer.active = False
    tracer.write(prefix)
    Path(f"{prefix}.stats.json").write_text(
        json.dumps({"import_s": import_s, "aggregate": tracer.aggregate()}))
    return code


def import_only() -> int:
    import weaktensor  # noqa: F401
    return 0


def main() -> int:
    argv, prefix = sys.argv[1:], None
    if argv[:1] == ["--trace"]:
        prefix, argv = Path(argv[1]), argv[2:]
    work = import_only if argv == ["import"] else (lambda: check(prefix, argv))
    with Clock() as clock:
        raw, scaled, code, raised = clock.measure(work)
    sys.stdout.flush()
    print(f"clock {scaled / raw!r} {clock.probe_s!r} {scaled!r}", file=sys.stderr)
    if raised:
        raise code
    return code


if __name__ == "__main__":
    sys.exit(main())
