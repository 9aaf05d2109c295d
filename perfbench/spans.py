"""Span tracing of ramarrow's layers from outside the package.

A `Tracer` replaces each traced public function with a wrapper on every
ramarrow module attribute that holds it, which is the attribute the caller
looks up (`ramarrow.arrowing.contains_target` as well as
`ramarrow.containment.contains_target`).  A wrapper records one span
(name, start, end, parent span, question id, work count) and returns the
result unchanged.  Spans stay in memory; `write` saves them when the run
ends and `layer_metrics` derives the per-layer numbers from them.

Nothing in a run waits: there is one thread and no queue or lock, so the
time work waited for a layer is zero by construction and is not reported.
"""

from __future__ import annotations

import gzip
import sys
import time

# Traced functions: (layer name, defining module, attribute).
TRACED = (
    ("graphs.realize", "graphs", "realize"),
    ("arrowing.enumerate_copies", "arrowing", "enumerate_copies"),
    ("arrowing.arrows", "arrowing", "arrows"),
    ("arrowing.ramsey_number", "arrowing", "ramsey_number"),
    ("arrowing.critical_number", "arrowing", "critical_number"),
    ("containment.contains_target", "containment", "contains_target"),
    ("constructions.all_free_colorings", "constructions", "all_free_colorings"),
    ("constructions.enumerate_free_colorings", "constructions", "enumerate_free_colorings"),
    ("constructions.canonical_coloring_key", "constructions", "canonical_coloring_key"),
)

# Span fields, in storage order.  FLAG holds, for arrows, bit 0 = prune-only
# search and bit 1 = budget exhausted; for enumerate_copies, 1 = cap hit.
NAME, START, END, PARENT, QID, COUNT, FLAG = range(7)


def _work(name: str, result) -> tuple[int, int]:
    """(count, flag) of a finished call: copies, solutions, classes or nodes."""
    if name == "arrowing.arrows":
        stats = result.stats
        return stats.nodes, (stats.propagation_mode == "prune-only") | stats.budget_exhausted << 1
    if name in ("arrowing.enumerate_copies", "constructions.all_free_colorings",
                "constructions.enumerate_free_colorings"):
        return len(result), 0
    return 0, 0


class Tracer:
    """Records spans of the traced functions of one loaded ramarrow package."""

    def __init__(self, package, copy_cap_error, default_copy_cap: int):
        self.package = package.__name__
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.qid = -1
        self._cap_error = copy_cap_error
        self._default_cap = default_copy_cap
        self._installed: list[tuple[object, str, object]] = []

    def question(self, qid: int, kind: str):
        """Open the root span of question qid; returns a closer."""
        self.qid = qid
        index = self._open(f"question.{kind}")
        return lambda: self._close(index, 0, 0)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.qid, 0, 0])
        self.stack.append(index)
        return index

    def _close(self, index: int, count: int, flag: int) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[COUNT] = count
        span[FLAG] = flag
        self.stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except tracer._cap_error:
                # enumerate_copies raises once it holds cap + 1 distinct copies
                cap = kwargs.get("cap", args[2] if len(args) > 2 else tracer._default_cap)
                tracer._close(index, cap + 1, 1)
                raise
            except BaseException:
                tracer._close(index, 0, 0)
                raise
            tracer._close(index, *_work(name, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        for name, module_name, attr in TRACED:
            original = getattr(sys.modules[f"{self.package}.{module_name}"], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._installed.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, value in reversed(self._installed):
            setattr(module, key, value)
        self._installed.clear()

    def write(self, path) -> None:
        """Save the spans as gzip'd tab-separated text, times in microseconds."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tstart_us\tend_us\tparent\tquestion\tcount\tflag\n")
            for i, s in enumerate(self.spans):
                out.write(f"{i}\t{s[NAME]}\t{(s[START] - t0) * 1e6:.1f}\t"
                          f"{(s[END] - t0) * 1e6:.1f}\t{s[PARENT]}\t{s[QID]}\t"
                          f"{s[COUNT]}\t{s[FLAG]}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_split(spans) -> dict[str, float]:
    """Self time in seconds per span name; together they cover every question."""
    split: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        split[s[NAME]] = split.get(s[NAME], 0.0) + own
    return split


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts, times and ratios of one traced pass."""
    calls: dict[str, int] = {}
    ms: dict[str, float] = {}
    count: dict[str, int] = {}
    for s in spans:
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        ms[s[NAME]] = ms.get(s[NAME], 0.0) + (s[END] - s[START]) * 1e3
        count[s[NAME]] = count.get(s[NAME], 0) + s[COUNT]
    own = self_times(spans)

    def ratio(a, b):
        return a / b if b else 0.0

    copies = built = capped = discarded = 0
    search_ms = 0.0
    nodes = prune_only = exhausted = 0
    hosts = {"arrowing.ramsey_number": 0, "arrowing.critical_number": 0}
    for i, s in enumerate(spans):
        name = s[NAME]
        if name == "arrowing.enumerate_copies":
            built += s[COUNT]
            if s[FLAG]:
                capped += 1
                discarded += s[COUNT]
            else:
                copies += s[COUNT]
        elif name == "arrowing.arrows":
            search_ms += own[i] * 1e3
            nodes += s[COUNT]
            prune_only += s[FLAG] & 1
            exhausted += s[FLAG] >> 1 & 1
            owner = _nearest(spans, i, hosts)
            if owner is not None:
                hosts[owner] += 1

    def pair(n):
        return calls.get(n, 0), ms.get(n, 0.0)

    realize_calls, realize_ms = pair("graphs.realize")
    enum_calls, enum_ms = pair("arrowing.enumerate_copies")
    arrows_calls, arrows_ms = pair("arrowing.arrows")
    contains_calls, contains_ms = pair("containment.contains_target")
    key_calls, key_ms = pair("constructions.canonical_coloring_key")
    return {
        "graphs.realize.calls": realize_calls,
        "graphs.realize.ms": realize_ms,
        "arrowing.enumerate_copies.calls": enum_calls,
        "arrowing.enumerate_copies.ms": enum_ms,
        "arrowing.enumerate_copies.copies": copies,
        "arrowing.enumerate_copies.copies_per_s": ratio(built, enum_ms / 1e3),
        "arrowing.enumerate_copies.capped_calls": capped,
        "arrowing.enumerate_copies.discarded_copies": discarded,
        "arrowing.arrows.calls": arrows_calls,
        "arrowing.arrows.ms": arrows_ms,
        "arrowing.search.self_ms": search_ms,
        "arrowing.search.nodes": nodes,
        "arrowing.search.nodes_per_s": ratio(nodes, search_ms / 1e3),
        "arrowing.search.prune_only_calls": prune_only,
        "arrowing.search.budget_exhausted": exhausted,
        "arrowing.ramsey_number.hosts_per_value":
            ratio(hosts["arrowing.ramsey_number"], calls.get("arrowing.ramsey_number", 0)),
        "arrowing.critical_number.hosts_per_value":
            ratio(hosts["arrowing.critical_number"], calls.get("arrowing.critical_number", 0)),
        "containment.contains_target.calls": contains_calls,
        "containment.contains_target.ms": contains_ms,
        "containment.contains_target.us_per_call": ratio(contains_ms * 1e3, contains_calls),
        "constructions.all_free_colorings.ms": ms.get("constructions.all_free_colorings", 0.0),
        "constructions.all_free_colorings.solutions": count.get("constructions.all_free_colorings", 0),
        "constructions.canonical_coloring_key.calls": key_calls,
        "constructions.canonical_coloring_key.ms": key_ms,
        "constructions.canonical_coloring_key.ms_per_call": ratio(key_ms, key_calls),
        "constructions.classes_per_key":
            ratio(count.get("constructions.enumerate_free_colorings", 0), key_calls),
    }


def _nearest(spans, index: int, names) -> str | None:
    """The nearest ancestor of span index whose name is in names."""
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return spans[parent][NAME]
        parent = spans[parent][PARENT]
    return None
