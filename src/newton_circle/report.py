"""Structured verification reports with JSON and CSV emission.

A check row holds three finite floats and passes iff lhs <= rhs + tolerance:
the verdict is derived from the numbers it summarises, never set beside
them, so a row cannot contradict itself.  Suites and commands alike build
their rows as ``Check``.  Reports are deterministic given identical inputs
and single-partition summation; the wall-clock field is the one
run-dependent entry and can be pinned to zero for byte-stable comparisons.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass(frozen=True)
class Check:
    """One check row: lhs <= rhs + tolerance, each stored as a finite float."""

    name: str
    lhs: float
    rhs: float
    tolerance: float = 0.0

    def __post_init__(self):
        for key in ("lhs", "rhs", "tolerance"):
            value = float(getattr(self, key))
            if not math.isfinite(value):
                raise ValueError(f"non-finite check field in {self.name}")
            object.__setattr__(self, key, value)

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + self.tolerance

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "pass": self.passed,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "tolerance": self.tolerance,
        }


@dataclass
class VerificationReport:
    command: str
    version: str
    params: Dict[str, Any] = field(default_factory=dict)
    results: List[Dict[str, Any]] = field(default_factory=list)
    checks: List[Check] = field(default_factory=list)
    runtime_ms: int = 0

    def add_check(self, name: str, lhs: float, rhs: float, tolerance: float = 0.0) -> None:
        self.checks.append(Check(name, lhs, rhs, tolerance))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.all_passed else 1

    def as_dict(self) -> Dict[str, Any]:
        return {
            "command": self.command,
            "params": self.params,
            "results": self.results,
            "checks": [c.as_dict() for c in self.checks],
            "runtime_ms": int(self.runtime_ms),
            "version": self.version,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, default=str) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["command", "kind", "name", "pass", "lhs", "rhs", "tolerance"])
        for c in self.checks:
            d = c.as_dict()
            writer.writerow([self.command, "check", d["name"], d["pass"],
                             d["lhs"], d["rhs"], d["tolerance"]])
        if self.results:
            # plot-ready block: one column per result key, in first-seen order
            columns: List[str] = []
            for row in self.results:
                for key in row:
                    if key not in columns:
                        columns.append(key)
            writer.writerow(["command", "kind"] + columns)
            for row in self.results:
                writer.writerow([self.command, "result"] + [row.get(k, "") for k in columns])
        return buf.getvalue()


def emit_report(report: VerificationReport, fmt: str, path: Optional[str]) -> None:
    """Write the report as json or csv; path '-' or None means stdout."""
    if fmt == "json":
        text = report.to_json()
    elif fmt == "csv":
        text = report.to_csv()
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is None or path == "-":
        print(text, end="")
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
