"""Deterministic phase profiler: wall + CPU + peak allocation per span.

:class:`PhaseProfiler` is a drop-in :class:`~repro.obs.trace.Tracer`
(activated with ``instrument(tracer=profiler)``) that augments every
span the instrumented code already opens with two profiling channels:

- **CPU seconds** (``time.process_time``), so a phase that burns cores
  in BLAS is distinguishable from one that waits on I/O;
- **peak allocation bytes** (``tracemalloc``), the high-water mark of
  traced memory *attributable to that span*, with nested spans folded
  back into their parents so a parent's peak is never smaller than the
  largest peak observed inside it.

The span records are then aggregated **by call path** (the chain of
span names from the root) into a self/cumulative profile tree --
``self_s`` is a node's cumulative wall time minus its direct children's,
the same decomposition ``cProfile`` users expect. The tree structure is
deterministic for a deterministic run (it mirrors the span structure);
only the measured durations vary.

No instrumented module needs changing to gain profiling: the profiler
reuses the exact span sites the tracer already covers, which also
guarantees the profile tree and the span trace agree on phase names.

``tracemalloc`` makes allocation ~2x slower while tracing, so the
profiler only starts it when asked (``trace_malloc=True``, the default
when constructed explicitly) and stops it again in :meth:`close` if it
was the one to start it. The disabled-path cost is unchanged: when no
profiler is installed, ``active()`` still returns the shared no-op.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import InputFileError
from repro.obs.trace import SpanRecord, Tracer

#: Schema tag stamped on exported profile documents.
PROFILE_SCHEMA = "repro-profile/v1"


class _Frame:
    """Per-open-span tracemalloc bookkeeping (absolute byte counts)."""

    __slots__ = ("floor", "watermark")

    def __init__(self, floor: int) -> None:
        self.floor = floor
        #: Highest absolute traced size seen while this span was open,
        #: including peaks reached inside (already closed) child spans.
        self.watermark = floor


class PhaseProfiler(Tracer):
    """A tracer that also records CPU time and allocation peaks.

    Per-span profiling data lives in :attr:`profiles` keyed by span id
    (kept out of ``SpanRecord.attrs`` so trace output is unchanged);
    :meth:`to_profile` folds everything into the exportable tree.
    """

    def __init__(
        self,
        epoch: "Optional[float]" = None,
        trace_malloc: bool = True,
    ) -> None:
        super().__init__(epoch=epoch)
        self.profiles: "Dict[int, Dict[str, Any]]" = {}
        self._frames: "List[_Frame]" = []
        self._owns_tracemalloc = False
        self._trace_malloc = trace_malloc
        if trace_malloc and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True

    def close(self) -> None:
        """Stop tracemalloc if this profiler started it (idempotent)."""
        if self._owns_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._owns_tracemalloc = False

    def _malloc_on(self) -> bool:
        return self._trace_malloc and tracemalloc.is_tracing()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> "Iterator[SpanRecord]":
        cpu0 = time.process_time()
        frame: "Optional[_Frame]" = None
        if self._malloc_on():
            frame = _Frame(tracemalloc.get_traced_memory()[0])
            self._frames.append(frame)
            # Peak := current, so the peak read at exit is the high-water
            # mark reached *during* this span, not before it.
            tracemalloc.reset_peak()
        with super().span(name, **attrs) as record:
            try:
                yield record
            finally:
                profile: "Dict[str, Any]" = {
                    "cpu_s": time.process_time() - cpu0
                }
                if frame is not None:
                    self._frames.pop()
                    abs_peak = max(
                        tracemalloc.get_traced_memory()[1], frame.watermark
                    )
                    if self._frames:
                        # Fold this span's peak into the enclosing span,
                        # then reset so the parent's remaining lifetime
                        # is measured from the current size again.
                        outer = self._frames[-1]
                        outer.watermark = max(outer.watermark, abs_peak)
                        tracemalloc.reset_peak()
                    profile["alloc_peak_bytes"] = max(
                        int(abs_peak - frame.floor), 0
                    )
                self.profiles[record.span_id] = profile

    # -- aggregation ---------------------------------------------------------

    def to_profile(self) -> "Dict[str, Any]":
        """Aggregate spans into the exportable self/cumulative tree."""
        return build_profile(self.to_dicts(), self.profiles)


def build_profile(
    spans: "List[Dict[str, Any]]",
    profiles: "Optional[Dict[int, Dict[str, Any]]]" = None,
) -> "Dict[str, Any]":
    """Fold serialized spans (+ per-span profiling data) into a tree.

    Spans are grouped by *call path* -- the tuple of span names from the
    root down -- so two ``policy_evaluation`` spans under the same
    ``policy_iteration`` parent aggregate into one node with
    ``calls == 2``. Open spans (``duration is None``) are skipped.
    Adopted worker spans without profiling data contribute wall time
    only.
    """
    profiles = profiles or {}
    by_id = {s["span_id"]: s for s in spans}

    def path_of(span: "Dict[str, Any]") -> "Tuple[str, ...]":
        names: "List[str]" = []
        seen = set()
        cur: "Optional[Dict[str, Any]]" = span
        while cur is not None and cur["span_id"] not in seen:
            seen.add(cur["span_id"])
            names.append(cur["name"])
            parent = cur.get("parent_id")
            cur = by_id.get(parent) if parent is not None else None
        return tuple(reversed(names))

    nodes: "Dict[Tuple[str, ...], Dict[str, Any]]" = {}
    for span in spans:
        if span.get("duration") is None:
            continue
        path = path_of(span)
        node = nodes.setdefault(
            path,
            {
                "calls": 0,
                "cum_s": 0.0,
                "cum_cpu_s": 0.0,
                "alloc_peak_bytes": 0,
            },
        )
        prof = profiles.get(span["span_id"], {})
        node["calls"] += 1
        node["cum_s"] += span["duration"]
        node["cum_cpu_s"] += float(prof.get("cpu_s", 0.0))
        node["alloc_peak_bytes"] = max(
            node["alloc_peak_bytes"], int(prof.get("alloc_peak_bytes", 0))
        )

    for path, node in nodes.items():
        child_wall = child_cpu = 0.0
        for other, data in nodes.items():
            if len(other) == len(path) + 1 and other[: len(path)] == path:
                child_wall += data["cum_s"]
                child_cpu += data["cum_cpu_s"]
        node["self_s"] = max(node["cum_s"] - child_wall, 0.0)
        node["self_cpu_s"] = max(node["cum_cpu_s"] - child_cpu, 0.0)

    def subtree(path: "Tuple[str, ...]") -> "Dict[str, Any]":
        node = nodes[path]
        children = sorted(
            (p for p in nodes if len(p) == len(path) + 1 and p[: len(path)] == path),
            key=lambda p: (-nodes[p]["cum_s"], p[-1]),
        )
        return {
            "name": path[-1],
            "path": "/".join(path),
            "calls": node["calls"],
            "cum_s": node["cum_s"],
            "self_s": node["self_s"],
            "cum_cpu_s": node["cum_cpu_s"],
            "self_cpu_s": node["self_cpu_s"],
            "alloc_peak_bytes": node["alloc_peak_bytes"],
            "children": [subtree(p) for p in children],
        }

    roots = sorted(
        (p for p in nodes if len(p) == 1),
        key=lambda p: (-nodes[p]["cum_s"], p[-1]),
    )
    tree = [subtree(p) for p in roots]
    return {
        "schema": PROFILE_SCHEMA,
        "total_s": sum(nodes[p]["cum_s"] for p in roots),
        "total_cpu_s": sum(nodes[p]["cum_cpu_s"] for p in roots),
        "tree": tree,
    }


def flatten_profile(profile: "Dict[str, Any]") -> "List[Dict[str, Any]]":
    """All nodes of a profile tree as a flat list (children stripped)."""
    flat: "List[Dict[str, Any]]" = []

    def walk(node: "Dict[str, Any]") -> None:
        entry = {k: v for k, v in node.items() if k != "children"}
        flat.append(entry)
        for child in node.get("children", ()):
            walk(child)

    for root in profile.get("tree", ()):
        walk(root)
    return flat


def top_self_phase(profile: "Dict[str, Any]") -> "Optional[Dict[str, Any]]":
    """The node with the largest self wall time (ties: first by path)."""
    flat = flatten_profile(profile)
    if not flat:
        return None
    return max(flat, key=lambda n: (n["self_s"], n["path"]))


def format_profile(
    profile: "Dict[str, Any]",
    sort: str = "self",
    limit: int = 30,
) -> str:
    """Render a profile document as a text report.

    Two views: the call tree (indentation = nesting) and a flat table
    sorted by ``self_s`` (``sort="self"``) or ``cum_s`` (``sort="cum"``).
    """
    lines: "List[str]" = []
    header = (
        f"{'calls':>7}  {'cum_s':>9}  {'self_s':>9}  {'cpu_s':>9}  "
        f"{'peak_MB':>8}  phase"
    )

    def fmt(node: "Dict[str, Any]", label: str) -> str:
        return (
            f"{node['calls']:>7}  {node['cum_s']:>9.4f}  "
            f"{node['self_s']:>9.4f}  {node['cum_cpu_s']:>9.4f}  "
            f"{node['alloc_peak_bytes'] / 1e6:>8.2f}  {label}"
        )

    lines.append("phase tree (wall-clock):")
    lines.append(header)

    def walk(node: "Dict[str, Any]", depth: int) -> None:
        lines.append(fmt(node, "  " * depth + node["name"]))
        for child in node.get("children", ()):
            walk(child, depth + 1)

    for root in profile.get("tree", ()):
        walk(root, 0)

    key = "self_s" if sort != "cum" else "cum_s"
    flat = sorted(
        flatten_profile(profile), key=lambda n: (-n[key], n["path"])
    )
    lines.append("")
    lines.append(f"hot phases (by {key}, top {limit}):")
    lines.append(header)
    for node in flat[:limit]:
        lines.append(fmt(node, node["path"]))
    total = profile.get("total_s")
    if total is not None:
        lines.append("")
        lines.append(
            f"total: {total:.4f}s wall, "
            f"{profile.get('total_cpu_s', 0.0):.4f}s cpu"
        )
    return "\n".join(lines) + "\n"


def read_profile(path) -> "Dict[str, Any]":
    """Load a profile JSON document (``{"manifest":..., "profile":...}``).

    Accepts both the export envelope and a bare profile document, so
    hand-saved ``to_profile()`` output renders too. A missing,
    unreadable or non-JSON-object file raises
    :class:`~repro.errors.InputFileError`.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputFileError(
            f"cannot read profile {path}: {exc.strerror or exc}"
        ) from exc
    except ValueError as exc:
        raise InputFileError(f"profile {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputFileError(
            f"profile {path} must be a JSON object, got {type(doc).__name__}"
        )
    if "profile" in doc and "tree" not in doc:
        return doc["profile"]
    return doc
