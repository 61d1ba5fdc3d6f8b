"""Named residual reports shared by every verification routine."""

from __future__ import annotations

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

    def __post_init__(self):
        self.max_residual, self.mean_residual, self.tol = map(float, (self.max_residual, self.mean_residual, self.tol))

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


def _summaries(rows: np.ndarray) -> tuple[list, list]:
    """The max and the mean of each row of the 2-D array ``rows`` of nonnegative residuals.

    A row with a NaN reports its first non-finite residual (a NaN, or an inf before it) as
    the max, so its report fails.  The mean is numpy's pairwise sum over the count, off the
    exact mean by a few ulps.  A row of no residuals has max and mean 0.
    """
    if not (n := rows.shape[1]):
        return [0.0] * len(rows), [0.0] * len(rows)
    worst = rows.max(axis=1)
    if any(map(math.isnan, worst.tolist())):
        nan = np.isnan(worst)
        worst[nan] = rows[nan, np.argmin(np.isfinite(rows[nan]), axis=1)]
    with np.errstate(over="ignore"):  # residuals near the largest float may sum past it, to inf
        return worst.tolist(), [total / n for total in rows.sum(axis=1).tolist()]


def from_residuals(name: str, residuals, tol: float, **metadata) -> CheckReport:
    """Build a report from an array (of any shape) or sequence of nonnegative residuals,
    summarized as one row (``_summaries``)."""
    (worst,), (mean,) = _summaries(np.asarray(residuals, dtype=float).reshape(1, -1))
    return CheckReport(name, worst, mean, tol, metadata)


def element_dicts(gs) -> list[dict]:
    """The JSON form {"a": [re, im], "b": [re, im]} of each of the group elements gs = (a, b)."""
    a, b = (np.asarray(x, complex).ravel().tolist() for x in gs)
    return [{"a": [x.real, x.imag], "b": [y.real, y.imag]} for x, y in zip(a, b)]


def from_element_residuals(name: str, res, tol: float, gs, key: str = "g", **metadata) -> list[CheckReport]:
    """``from_residuals`` of each row of the (G, N) array res, all rows in one pass, with its
    element of gs = (a, b) under ``key``."""
    worst, means = _summaries(np.ascontiguousarray(res, dtype=float))  # pairwise sums need C order
    return [CheckReport(name, w, m, tol, {key: g, **metadata}) for w, m, g in zip(worst, means, element_dicts(gs))]


_quote = json.encoder.encode_basestring_ascii
# what ``_write`` turns the other types it writes into, the first that fits
_PLAIN = ((str, str.__str__), (float, float), (dict, dict), ((list, tuple), list),
          ((np.floating, np.integer), np.generic.item), (complex, lambda z: [z.real, z.imag]))


def _float(x: float) -> str:
    return float.__repr__(x) if math.isfinite(x) else _quote(float.__repr__(x))


# one report as ``_write`` writes its dict at indentation "  ", the metadata's text left to fill
_REPORT = ('{{\n    "max_residual": {},\n    "mean_residual": {},\n    "metadata": {},'
           '\n    "name": {},\n    "pass": {},\n    "tol": {}\n  }}')


def _write(obj, out: list[str], pad: str) -> None:
    """Append obj to ``out`` as JSON at indentation ``pad``, byte for byte as
    ``json.dumps(..., indent=2, sort_keys=True)`` writes it.  Numpy scalars are
    unwrapped, complex numbers become [re, im], tuples become lists, and
    non-finite floats the strings "nan", "inf" or "-inf"; keys must be str."""
    t = type(obj)
    if t is float:
        out.append(float.__repr__(obj) if math.isfinite(obj) else _quote(float.__repr__(obj)))
    elif t is str:
        out.append(_quote(obj))
    elif t is dict:
        inner, sep = pad + "  ", "{"
        for k in sorted(obj):
            out.append(f"{sep}\n{inner}{_quote(k)}: ")
            _write(obj[k], out, inner)
            sep = ","
        out.append(f"\n{pad}}}" if obj else "{}")
    elif t is list:
        inner, sep = pad + "  ", "["
        for v in obj:
            out.append(f"{sep}\n{inner}")
            _write(v, out, inner)
            sep = ","
        out.append(f"\n{pad}]" if obj else "[]")
    elif obj is None or t is bool:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    else:
        plain = next((f for kind, f in _PLAIN if isinstance(obj, kind)), None)
        if plain is None:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        _write(plain(obj), out, pad)


def emit(reports: list[CheckReport], fmt: str = "json", out=None) -> str:
    """Serialize reports to JSON or CSV; write to ``out`` (path or file) if given.

    JSON stays valid when a value is non-finite (see ``_write``).
    """
    if fmt == "json":
        items = []
        for r in reports:
            meta: list[str] = []
            _write(r.metadata, meta, "    ")
            items.append(_REPORT.format(_float(r.max_residual), _float(r.mean_residual), "".join(meta),
                                        _quote(r.name), "true" if r.passed else "false", _float(r.tol)))
        text = "[\n  " + ",\n  ".join(items) + "\n]" if items else "[]"
    elif fmt == "csv":
        import csv  # here, so that building and JSON reports do not load it

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["name", "max_residual", "mean_residual", "tol", "pass"])
        writer.writerows([r.name, *map(repr, (r.max_residual, r.mean_residual, r.tol)), r.passed] for r in reports)
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
