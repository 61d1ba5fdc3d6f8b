"""Named residual reports shared by every verification routine."""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

_SUM_BOUND = 1e300  # n residuals each at most _SUM_BOUND / n sum to no more than that, far from overflow


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
    """Build a report from an array (of any shape) or sequence of nonnegative residuals.

    A non-finite residual (NaN or inf) is reported as the maximum, so the
    report fails; the first one in row-major order is kept.  The mean sums
    left to right, as the builtin ``sum`` over floats does up to Python 3.11.
    """
    arr = np.asarray(residuals, dtype=float).ravel()
    if not arr.size:
        return CheckReport(name, 0.0, 0.0, tol, metadata)
    if (worst := arr.max()) <= _SUM_BOUND / arr.size:  # finite, and no partial sum can overflow
        return CheckReport(name, float(worst), float(np.cumsum(arr)[-1]) / arr.size, tol, metadata)
    finite = np.isfinite(arr)
    worst = arr.max() if finite.all() else arr[np.argmin(finite)]
    with np.errstate(over="ignore"):
        total = np.cumsum(arr)[-1]
    return CheckReport(name, float(worst), float(total) / arr.size, tol, metadata)


def element_dicts(gs) -> list[dict]:
    """The JSON form {"a": [re, im], "b": [re, im]} of each of the group elements gs = (a, b)."""
    a, b = (np.asarray(x, complex).ravel().tolist() for x in gs)
    return [{"a": [x.real, x.imag], "b": [y.real, y.imag]} for x, y in zip(a, b)]


def from_element_residuals(name: str, res, tol: float, gs, key: str = "g", **metadata) -> list[CheckReport]:
    """``from_residuals`` of each row of the (G, N) array res, with its element of gs = (a, b) under
    ``key``; the maxima and sums of all rows in one call each, unless a row takes its slow path."""
    rows, elements = np.asarray(res, dtype=float), element_dicts(gs)
    if rows.size and ((worst := rows.max(axis=1)) <= _SUM_BOUND / rows.shape[1]).all():
        means = (np.cumsum(rows, axis=1)[:, -1] / rows.shape[1]).tolist()
        return [CheckReport(name, w, m, tol, {key: g, **metadata}) for w, m, g in zip(worst.tolist(), means, elements)]
    return [from_residuals(name, r, tol, **{key: g}, **metadata) for r, g in zip(rows, elements)]


_quote = json.encoder.encode_basestring_ascii
# what ``_write`` turns the other types it writes into, the first that fits
_PLAIN = ((str, str.__str__), (float, float), (dict, dict), ((list, tuple), list),
          ((np.floating, np.integer), np.generic.item), (complex, lambda z: [z.real, z.imag]))


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
        chunks: list[str] = []
        _write([r.to_dict() for r in reports], chunks, "")
        text = "".join(chunks)
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
