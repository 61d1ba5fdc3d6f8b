"""Spans around the calls into each maf layer, recorded from outside the library.

``Tracer.install`` replaces the module attributes through which ``maf.cli``
and the workloads reach a layer with timing wrappers; ``uninstall`` puts the
originals back.  Nothing inside ``maf`` is edited, so self time of ``fields``
and ``groups`` is counted inside the span of whichever layer called them.
Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
import time
from dataclasses import asdict, dataclass

import oracle

# (module, attribute, span name).  A span name is <layer>.<function>.
TARGETS = [
    ("maf.cli", "build_system", "config.build_system"),
    ("maf.cli", "check_equivariance", "equivariant.check_equivariance"),
    ("maf.cli", "homomorphism_report", "equivariant.homomorphism_report"),
    ("maf.cli", "rdq_check", "automorphy.rdq_check"),
    ("maf.automorphy", "rdq_check", "automorphy.rdq_check"),
    ("maf.magnetics", "field_constancy", "magnetics.field_constancy"),
    ("maf.magnetics", "gauge_check", "magnetics.gauge_check"),
    ("maf.magnetics", "invariance_residual", "magnetics.invariance_residual"),
    ("maf.magnetics", "intertwining_residual", "magnetics.intertwining_residual"),
    ("maf.magnetics", "chi_tau_hat_spread", "magnetics.chi_tau_hat_spread"),
    ("maf.magnetics", "lifting_residual", "magnetics.lifting_residual"),
    ("maf.spectral", "rayleigh_quotient", "spectral.rayleigh_quotient"),
    ("maf.spectral", "select_laguerre_scale", "spectral.select_laguerre_scale"),
    ("maf.spectral", "kernel", "spectral.kernel"),
    ("maf.spectral", "kernel_invariance_residual", "spectral.kernel_invariance_residual"),
    ("maf.spectral", "project_on_nodes", "spectral.project_on_nodes"),
    ("maf.cli", "constant_field_test", "highdim.constant_field_test"),
    ("maf.cli", "emit", "reports.emit"),
]

LAYERS = ["config", "equivariant", "automorphy", "magnetics", "spectral", "highdim", "reports"]
PER_POINT = [
    "invariance_residual",
    "intertwining_residual",
    "lifting_residual",
    "chi_tau_hat_spread",
    "field_constancy",
]
MS = list(dict.fromkeys(name for _, _, name in TARGETS if name.split(".")[1] not in PER_POINT))


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = math.nan
    count: int = 0  # grid points, node pairs or closure elements, by span name
    error: bool = False


def _grid_points(bound) -> int:
    grid = bound.arguments["grid"]
    return grid.nx * grid.ny


def _node_pairs(bound) -> int:
    return bound.arguments["Z"].size ** 2


@functools.lru_cache(maxsize=None)
def _closure_size(generators: tuple, max_len: int) -> int:
    return oracle.closure_size(generators, max_len) or 0


def _rdq_closure(bound) -> int:
    # rdq_check extends chi over words of twice the checked length
    gens = tuple((g.a, g.b) for g in bound.arguments["gamma"].generators)
    return _closure_size(gens, 2 * bound.arguments.get("max_word_len", 4))


COUNTERS = {
    **{f"magnetics.{f}": _grid_points for f in PER_POINT},
    "spectral.project_on_nodes": _node_pairs,
    "automorphy.rdq_check": _rdq_closure,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1
        self._patches = []  # (module, attribute, original, wrapper)
        for mod_name, attr, name in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._patches.append((mod, attr, fn, self._wrap(fn, name)))

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.op, parent, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except Exception:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if counter is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.count = counter(bound)

        return traced

    def install(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn, _ in self._patches:
            setattr(mod, attr, fn)

    def run_op(self, op_id: int, fn):
        """Run ``fn`` as op ``op_id`` under a root span, with the layer wrappers installed."""
        self.op = op_id
        root = Span("op", op_id, None, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(root)
        self.install()
        try:
            return fn()
        finally:
            self.uninstall()
            root.end = time.perf_counter()
            self._stack.pop()

    def nesting_errors(self) -> list[str]:
        """Spans that do not lie inside their parent, or belong to another op."""
        bad = []
        for i, s in enumerate(self.spans):
            if s.parent is None:
                continue
            p = self.spans[s.parent]
            if not (p.start <= s.start <= s.end <= p.end and p.op == s.op):
                bad.append(f"span {i} ({s.name}) escapes parent {s.parent} ({p.name})")
        return bad

    def dump(self, path: str, env: dict):
        with open(path, "w") as fh:
            json.dump({"env": env, "spans": [asdict(s) for s in self.spans]}, fh)


def layer_metrics(spans: list[Span], factors: dict, traced_s: list[float], untraced_s: list[float]) -> dict:
    """Per-op means of the per-layer metrics over the traced ops, with units.

    ``factors`` maps a traced op's id to the factor that brings its timings
    to reference speed; latencies are already at reference speed.
    """
    n_ops = sum(1 for s in spans if s.name == "op")
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def duration(s):
        return (s.end - s.start) * factors.get(s.op, 1.0)

    def total_s(name):
        return sum(duration(s) for s in by_name.get(name, []))

    def total_count(name):
        return sum(s.count for s in by_name.get(name, []))

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for f in PER_POINT:
        name = f"magnetics.{f}"
        m[f"{name}.us_per_point"] = (ratio(total_s(name), total_count(name)) * 1e6, "us")
    for name in MS:
        m[f"{name}.ms"] = (ratio(total_s(name), n_ops) * 1e3, "ms")
    pon = "spectral.project_on_nodes"
    pairs = total_count(pon)
    m[f"{pon}.node_pairs"] = (ratio(pairs, n_ops), "count")
    m[f"{pon}.ns_per_node_pair"] = (ratio(total_s(pon), pairs) * 1e9, "ns")
    # complex128 kernel entries the dense projection evaluates, computed from N
    m[f"{pon}.kernel_bytes"] = (ratio(16 * pairs, n_ops), "bytes")
    m["spectral.kernel.calls"] = (ratio(len(by_name.get("spectral.kernel", [])), n_ops), "count")
    m["config.build_system.calls"] = (ratio(len(by_name.get("config.build_system", [])), n_ops), "count")
    m["groups.closure_size"] = (ratio(total_count("automorphy.rdq_check"), n_ops), "count")
    ops = {i: s for i, s in enumerate(spans) if s.name == "op"}
    covered = sum(duration(s) for s in spans if s.parent in ops)
    self_s = sum(duration(s) for s in ops.values()) - covered
    m["cli.self_ms"] = (ratio(self_s, n_ops) * 1e3, "ms")
    for layer in LAYERS:
        errors = sum(1 for s in spans if s.error and s.name.startswith(layer + "."))
        m[f"{layer}.errors"] = (errors, "count")
    overhead = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m
