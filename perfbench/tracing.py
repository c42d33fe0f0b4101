"""Spans around hwp4m's public functions, kept in memory, and the per-layer
numbers derived from them.

The package is not changed: `install` replaces every reference to a traced
function inside the loaded ``hwp4m`` modules with a wrapper that records a
span, so calls made between modules are seen as they cross the boundary.
A span holds its name, start, end, the enclosing span and the request
(benchmark operation) it belongs to.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Span | None
    request: str | None
    info: dict | None = None


class Tracer:
    """Spans are kept as objects, so a signal handler that opens and closes
    a span of its own between any two statements here cannot misplace one."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.request: str | None = None

    def begin(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.request)
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span):
        span.end = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn, describe=None):
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if describe is not None:
                span.info = describe(args, kwargs, result)
            return result

        return traced


def _edges_audited(args, kwargs):
    """Factor edges plus matching edges handed to a verifier entry point."""
    first = args[0]
    if hasattr(first, "factors"):  # verify_solution / verify_block(sol, ...)
        factors, matching = first.factors, first.one_factor
    else:  # verify_factors_cover(factors, space, matching=None)
        factors = first
        matching = args[2] if len(args) > 2 else kwargs.get("matching")
    edges = sum(sum(map(len, f.cycles)) for f in factors)
    return edges + (len(matching.edges) if matching is not None else 0)


def _verify_info(args, kwargs, report):
    return {"ok": report.ok, "edges": _edges_audited(args, kwargs)}


# (module, function, span name, describe); every reference to the function
# inside the package is replaced, whichever module imported it.
TARGETS = (
    ("composer", "plan", "plan", None),
    ("composer", "build", "build", None),
    ("outer", "outer_cm_factorization", "outer.resolve", None),
    ("outer", "walecki", "outer.walecki", None),
    ("outer", "walecki_even", "outer.walecki", None),
    ("search", "solve", "search.solve",
     lambda a, k, out: {"status": out.status, "nodes": out.nodes}),
    ("search", "solve_cached", "search.cache", None),
    ("verifier", "verify_solution", "verify", _verify_info),
    ("verifier", "verify_block", "verify", _verify_info),
    ("verifier", "verify_factors_cover", "verify", _verify_info),
    ("model", "two_factor", "canonicalize", None),
    ("model", "one_factor", "canonicalize", None),
    ("model", "encode_solution", "encode", lambda a, k, out: {"bytes": len(out)}),
    ("model", "decode_solution", "decode", lambda a, k, out: {"bytes": len(a[0])}),
    ("cli", "main", "cli", None),
)


def replace_everywhere(original, replacement) -> list[tuple]:
    """Point every name bound to ``original`` in the loaded hwp4m modules at
    ``replacement``; returns what `restore` needs to undo it."""
    undo = []
    for name, module in list(sys.modules.items()):
        if name != "hwp4m" and not name.startswith("hwp4m."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def restore(undo: list[tuple]):
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


def install(pkg, tracer: Tracer) -> tuple[list[tuple], list[str]]:
    """Wrap every target found in ``pkg``; returns the undo list and the
    targets that the package no longer has."""
    undo, missing = [], []
    for module_name, func_name, span_name, describe in TARGETS:
        fn = getattr(getattr(pkg, module_name), func_name, None)
        if fn is None:
            missing.append(f"{module_name}.{func_name}")
            continue
        undo += replace_everywhere(fn, tracer.wrap(span_name, fn, describe))
    return undo, missing


def layer_metrics(spans: list[Span], speed: float = 1.0) -> dict[str, float]:
    """Per-layer self times, counts and ratios of one traced pass; times
    are multiplied by ``speed`` (see run.Sampler)."""
    child_time: dict[int, float] = defaultdict(float)
    child_names: dict[int, set] = defaultdict(set)
    for span in spans:
        if span.parent is not None:
            child_time[id(span.parent)] += span.end - span.start
            child_names[id(span.parent)].add(span.name)

    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        duration = span.end - span.start
        own = duration - child_time[id(span)]
        self_s[span.name] += own
        total_s[span.name] += duration
        calls[span.name] += 1
        info = span.info or {}
        if span.name == "verify":
            out["verify.accept_s" if info["ok"] else "verify.reject_s"] += own
            out["verify.rejects"] += 0 if info["ok"] else 1
            out["verify.edges"] += info["edges"]
        elif span.name == "search.solve":
            out["search.nodes"] += info["nodes"]
            if info["status"] in ("found", "unsat"):
                out[f"search.{info['status']}"] += 1
        elif span.name == "search.cache" and "search.solve" not in child_names[id(span)]:
            out["cache.hits"] += 1
            if "decode" in child_names[id(span)]:
                out["cache.load_s"] += duration
        elif span.name in ("encode", "decode"):
            out[f"{span.name}.bytes"] += info["bytes"]

    op_s = total_s["op"]
    out.update({
        "plan.self_s": self_s["plan"],
        "plan.calls": calls["plan"],
        "assemble.self_s": self_s["build"],
        "outer.resolve_s": self_s["outer.resolve"],
        "outer.walecki_s": self_s["outer.walecki"],
        "search.self_s": self_s["search.solve"] + self_s["search.cache"],
        "search.nodes_per_s": out["search.nodes"] / (total_s["search.solve"] * speed)
        if total_s["search.solve"] else 0.0,
        "verify.self_s": self_s["verify"],
        "verify.calls": calls["verify"],
        "verify.share": self_s["verify"] / op_s if op_s else 0.0,
        "canonicalize.self_s": self_s["canonicalize"],
        "canonicalize.factors": calls["canonicalize"],
        "encode.self_s": self_s["encode"],
        "decode.self_s": self_s["decode"],
        "cli.self_s": self_s["cli"],
        "cli.calls": calls["cli"],
        "trace.spans": len(spans),
    })
    for name in ("verify.accept_s", "verify.reject_s", "verify.rejects", "verify.edges",
                 "search.nodes", "search.found", "search.unsat", "cache.hits",
                 "cache.load_s", "encode.bytes", "decode.bytes"):
        out.setdefault(name, 0.0)
    return {k: v * speed if k.endswith("_s") and not k.endswith("per_s") else v
            for k, v in out.items()}
