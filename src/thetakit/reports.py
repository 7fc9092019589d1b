"""Machine-readable verification reports.

A report is a named suite of check rows; serialization is deterministic
(fixed field order, repr-float formatting) so that runs under a fixed seed
and configuration are byte-for-byte reproducible.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

from .catalog import MAX_SKIPS, CheckRow

CSV_FIELDS = ("suite", "check_id", "ref", "inputs", "residual",
              "tolerance", "pass", "note")


@dataclass
class Report:
    suite: str
    checks: list[CheckRow] = field(default_factory=list)

    def add(self, rows):
        if isinstance(rows, CheckRow):
            self.checks.append(rows)
        else:
            self.checks.extend(rows)

    @property
    def skipped(self) -> list[CheckRow]:
        return [c for c in self.checks if c.kind == "skip"]

    @property
    def failed(self) -> list[CheckRow]:
        return [c for c in self.checks if c.kind != "skip" and not c.passed]

    @property
    def passed(self) -> bool:
        return not self.failed and len(self.skipped) <= MAX_SKIPS

    def _row_dict(self, c: CheckRow) -> dict:
        resid = c.residual
        return {
            "check_id": c.check_id,
            "ref": c.ref,
            "inputs": c.inputs,
            "residual": None if resid != resid else resid,
            "tolerance": c.tolerance,
            "pass": bool(c.passed),
            "note": c.note,
        }

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks_total": len(self.checks),
            "checks_failed": len(self.failed),
            "checks_skipped": len(self.skipped),
            "checks": [self._row_dict(c) for c in self.checks],
        }

    def csv_rows(self):
        for c in self.checks:
            resid = "" if c.residual != c.residual else repr(c.residual)
            yield (self.suite, c.check_id, c.ref, c.inputs, resid,
                   repr(c.tolerance), "true" if c.passed else "false", c.note)


def reports_to_json(reports: list[Report]) -> str:
    payload = {
        "passed": all(r.passed for r in reports),
        "suites": [r.to_dict() for r in reports],
    }
    return json.dumps(payload, indent=2, allow_nan=False)


def reports_to_csv(reports: list[Report]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for rep in reports:
        for row in rep.csv_rows():
            writer.writerow(row)
    return buf.getvalue()


def summary_lines(reports: list[Report]) -> list[str]:
    lines = []
    for rep in reports:
        mark = "PASS" if rep.passed else "FAIL"
        worst = max((c.residual for c in rep.checks if c.residual == c.residual
                     and c.kind != "control"), default=float("nan"))
        lines.append(f"[{mark}] {rep.suite}: {len(rep.checks)} checks, "
                     f"{len(rep.failed)} failed, {len(rep.skipped)} skipped, "
                     f"worst residual {worst:.3e}")
        for c in rep.failed:
            lines.append(f"    FAILED {c.check_id}: residual={c.residual:.3e} "
                         f"tol={c.tolerance:.1e} {c.note}")
    return lines
