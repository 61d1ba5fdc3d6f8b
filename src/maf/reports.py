"""Named residual reports shared by every verification routine."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np


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


_NONFINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def jsonable(obj):
    """obj as plain JSON data.

    Numpy scalars are unwrapped, complex numbers become [re, im], tuples
    become lists, and non-finite floats the strings "nan", "inf" or "-inf".
    """
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, complex):
        return [jsonable(obj.real), jsonable(obj.imag)]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def emit(reports: list[CheckReport], fmt: str = "json", out=None) -> str:
    """Serialize reports to JSON or CSV; write to ``out`` (path or file) if given.

    JSON stays valid when a value is non-finite (see ``jsonable``).
    """
    if fmt == "json":
        data = jsonable([r.to_dict() for r in reports])
        text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
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
    """Inverse of ``emit(..., fmt='json')``.

    The strings "nan", "inf" and "-inf" in residuals and tolerances become floats again.
    """

    def num(v):
        return _NONFINITE.get(v, v) if isinstance(v, str) else v

    return [
        CheckReport(
            d["name"], num(d["max_residual"]), num(d["mean_residual"]), num(d["tol"]), d.get("metadata", {})
        )
        for d in json.loads(text)
    ]
