"""Deterministic witness reports.

One record per check, rendered as

    CHECK <name> RESULT <pass|fail|none|unknown|error> WITNESS <text>

The rendered report depends only on the inputs, never on timing, so two
runs on identical input are byte-identical; elapsed times are kept on
the records for optional diagnostics but stay out of the rendering.
"""

from __future__ import annotations

from .spaces import CheckedRecord

VERDICTS = ("pass", "fail", "none", "unknown", "error")


class CheckRecord(CheckedRecord):
    __slots__ = _fields = ("name", "verdict", "witness", "elapsed", "expected")
    name: str
    verdict: str
    witness: str
    elapsed: float
    expected: str | None

    def __init__(self, name: str, verdict: str, witness: str = "", elapsed: float = 0.0,
                 expected: str | None = None):
        if verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
        for field, value in zip(self._fields, (name, verdict, witness, elapsed, expected)):
            object.__setattr__(self, field, value)

    @property
    def matched(self) -> bool:
        return self.expected is None or self.expected == self.verdict

    def render(self) -> str:
        line = f"CHECK {self.name} RESULT {self.verdict} WITNESS {self.witness or '-'}"
        if self.expected is not None and not self.matched:
            line += f" [expected {self.expected}]"
        return line


class Report:
    __slots__ = ("records",)

    def __init__(self, records: list[CheckRecord] | None = None):
        self.records = [] if records is None else records

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.records == other.records

    def __repr__(self) -> str:
        return f"Report(records={self.records!r})"

    def add(self, record: CheckRecord) -> None:
        self.records.append(record)

    @property
    def all_expected(self) -> bool:
        return not self.mismatches()

    def mismatches(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.matched or r.verdict == "error"]

    def render(self) -> str:
        lines = [r.render() for r in self.records]
        total = len(self.records)
        bad = len(self.mismatches())
        lines.append(f"SUMMARY checks={total} mismatches={bad}")
        return "\n".join(lines) + "\n"
