"""Named residual reports shared by every verification routine."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field


@dataclass
class CheckReport:
    """Summary of one numerical check: a named residual against a tolerance."""

    name: str
    max_residual: float
    mean_residual: float
    tol: float
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return math.isfinite(self.max_residual) and self.max_residual <= self.tol

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "tol": self.tol,
            "pass": self.passed,
            "metadata": self.metadata,
        }

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.name}: max={self.max_residual:.3e} "
            f"mean={self.mean_residual:.3e} tol={self.tol:.1e} {status}"
        )


def from_residuals(name: str, residuals, tol: float, **metadata) -> CheckReport:
    """Build a report from an iterable of nonnegative residuals.

    A non-finite residual (NaN or inf) is reported as the maximum, so the
    report fails; the first one met is kept.
    """
    vals = [float(r) for r in residuals]
    if not vals:
        return CheckReport(name, 0.0, 0.0, tol, metadata)
    worst = next((v for v in vals if not math.isfinite(v)), max(vals))
    return CheckReport(name, worst, sum(vals) / len(vals), tol, metadata)


def emit(reports: list[CheckReport], fmt: str = "json", out=None) -> str:
    """Serialize reports to JSON or CSV; write to ``out`` (path or file) if given."""
    if fmt == "json":
        text = json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True)
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["name", "max_residual", "mean_residual", "tol", "pass"])
        for r in reports:
            writer.writerow(
                [r.name, repr(r.max_residual), repr(r.mean_residual), repr(r.tol), r.passed]
            )
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out is not None:
        if hasattr(out, "write"):
            out.write(text)
        else:
            with open(out, "w") as fh:
                fh.write(text)
    return text


def parse_json(text: str) -> list[CheckReport]:
    """Inverse of ``emit(..., fmt='json')``."""
    return [
        CheckReport(
            d["name"], d["max_residual"], d["mean_residual"], d["tol"], d.get("metadata", {})
        )
        for d in json.loads(text)
    ]
