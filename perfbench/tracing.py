"""Layer spans recorded from outside the package.

The tracer replaces, for the length of a traced run, the names one nearfield
module imports from another (for example ``nearfield.boundaries.e_l2_worst_batch``)
with wrappers that record a span around each call.  Nothing under ``src/`` is
changed; the originals are put back when the run ends.

A span is (id, name, site, start, end, parent, thread, count, error):
``name`` is the callee as ``<layer>.<function>``, ``site`` is the module whose
name was wrapped (the caller), ``count`` is the work the call carried (ranges
for batch metric calls, bytes for ``write_lines``, 1 otherwise) and ``error``
is the exception class name when the call raised.  Parents link spans of one
thread; a worker thread's first span has no parent.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    site: str
    start: float
    end: float
    parent: int | None
    thread: int
    count: int
    error: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _ranges(args, kwargs) -> int:
    return len(kwargs["r_values"] if "r_values" in kwargs else args[1])


def _line_bytes(args, kwargs) -> int:
    lines = kwargs["lines"] if "lines" in kwargs else args[0]
    return sum(len(line) for line in lines) + len(lines)


_BATCH = {
    "e_linf_worst_batch": "metrics",
    "e_l2_worst_batch": "metrics",
    "se_loss_worst_batch": "link",
}
_POINT = {"e_linf_worst": "metrics", "e_l2_worst": "metrics", "se_loss_worst": "link"}
CLOSED_FORMS = (
    "rayleigh_distance",
    "sspf_distance",
    "spf_distance",
    "epf_distance",
    "l2_certification_bound",
)

# (module whose global is replaced, attribute, callee layer, call site); the
# site "bench" marks the public entry points the benchmark itself calls
WRAPPED = (
    [("nearfield", "boundary_set", "boundaries", "bench")]
    + [("nearfield", name, layer, "bench") for name, layer in _POINT.items()]
    + [("nearfield", "se_loss", "link", "bench"), ("nearfield.cli", "main", "cli", "bench")]
    + [
        ("nearfield.boundaries", name, layer, "boundaries")
        for name, layer in {**_BATCH, **_POINT}.items()
    ]
    + [
        ("nearfield.boundaries", name, "boundaries", "boundaries")
        for name in ("optimal_radius", *CLOSED_FORMS)
    ]
    + [("nearfield.sweep", "boundary_set", "boundaries", "sweep")]
    + [("nearfield.sweep", name, layer, "sweep") for name, layer in {**_BATCH, **_POINT}.items()]
    + [
        ("nearfield.cli", name, "sweep", "cli")
        for name in ("run_sweep", "curve_csv_lines", "boundary_csv_lines", "write_lines")
    ]
    + [("nearfield.link", "element_distances", "arrays", "link")]
)

_COUNTERS = {**{name: _ranges for name in _BATCH}, "write_lines": _line_bytes}


class Tracer:
    """Thread-safe, in-memory span recorder; `install` wraps, `uninstall`
    restores, and a `with` block does both.  Spans accumulate across blocks."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, site: str, counter):
        def traced(*args, **kwargs):
            count = counter(args, kwargs) if counter else 1
            stack = self._stack()
            with self._lock:
                self._next_id += 1
                span_id = self._next_id
            parent = stack[-1] if stack else None
            stack.append(span_id)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(span_id, name, site, start, end, parent,
                            threading.get_ident(), count, error)
                with self._lock:
                    self.spans.append(span)

        return traced

    def install(self) -> None:
        """Wrap every name in WRAPPED; a missing name raises AttributeError."""
        for module_name, attr, layer, site in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            wrapper = self._wrap(original, f"{layer}.{attr}", site, _COUNTERS.get(attr))
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def write_spans(spans: list[Span], path: Path) -> None:
    """One JSON object per span, in id order."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in sorted(spans, key=lambda s: s.id):
            fh.write(json.dumps(asdict(span)) + "\n")


def _metric_of(name: str) -> str:
    function = name.split(".", 1)[1]
    return "linf" if "linf" in function else "l2" if "l2" in function else "se"


def descendants(spans: list[Span], root_id: int) -> list[Span]:
    """The span `root_id` and every span nested under it in its thread."""
    children = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    out = [span for span in spans if span.id == root_id]
    frontier = [root_id]
    while frontier:
        kids = children[frontier.pop()]
        out.extend(kids)
        frontier.extend(kid.id for kid in kids)
    return out


def scan_counts(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Split the envelope solver's metric calls into scan and bisection.

    A batch call from `boundaries` is the range scan.  When it raises
    DegenerateGeometryError the solver re-scans the same grid point by point,
    so the next `count` scalar calls under the same parent are scan work too;
    every other scalar call from `boundaries` is a bisection step.
    """
    out = {
        "scan_ranges": defaultdict(int), "scan_s": defaultdict(float),
        "bisect_evals": defaultdict(int), "bisect_s": defaultdict(float),
        "fallbacks": defaultdict(int),
    }
    by_parent = defaultdict(list)
    for span in spans:
        if span.site == "boundaries" and span.layer in ("metrics", "link"):
            by_parent[span.parent].append(span)
    for group in by_parent.values():
        pending = 0
        for span in sorted(group, key=lambda s: s.start):
            metric = _metric_of(span.name)
            if span.name.endswith("_batch"):
                out["scan_s"][metric] += span.duration
                if span.error == "DegenerateGeometryError":
                    out["fallbacks"][metric] += 1
                    pending = span.count
                else:
                    out["scan_ranges"][metric] += span.count
            elif pending:
                pending -= 1
                out["scan_ranges"][metric] += 1
                out["scan_s"][metric] += span.duration
            else:
                out["bisect_evals"][metric] += 1
                out["bisect_s"][metric] += span.duration
    return out


def _exclusive(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent in own:
            own[span.parent] -= span.duration
    return own


def layer_metrics(spans: list[Span], flagship: int | None = None) -> dict[str, float]:
    """Per-layer counts and times from one traced pass (see README.md).

    `flagship` is the id of the flagship's boundary_set span, whose own scan
    sizes are reported apart; without it they read zero.
    """
    scans = scan_counts(spans)
    flagship_scans = scan_counts(descendants(spans, flagship) if flagship else [])
    own = _exclusive(spans)
    closed = {span.id for span in spans if span.name.split(".")[1] in CLOSED_FORMS}

    def total(pred, attr="duration"):
        return sum(getattr(span, attr) for span in spans if pred(span))

    def per_range(name):
        ranges = total(lambda s: s.name == name, "count")
        seconds = total(lambda s: s.name == name)
        return ranges, (1e6 * seconds / ranges if ranges else 0.0)

    def points(names):
        calls = [s for s in spans if s.name in names]
        ms = 1e3 * sum(s.duration for s in calls) / len(calls) if calls else 0.0
        return len(calls), ms

    out: dict[str, float] = {}
    for metric in ("linf", "l2", "se"):
        out[f"boundaries.{metric}.scan_ranges"] = scans["scan_ranges"][metric]
        out[f"boundaries.{metric}.scan_s"] = scans["scan_s"][metric]
    out["boundaries.bisect_evals"] = sum(scans["bisect_evals"].values())
    out["boundaries.bisect_s"] = sum(scans["bisect_s"].values())
    out["boundaries.closed_form_s"] = total(
        lambda s: s.id in closed and s.parent not in closed
    )
    out["boundaries.fallbacks"] = sum(scans["fallbacks"].values())
    out["boundaries.self_s"] = sum(own[s.id] for s in spans if s.layer == "boundaries")
    for metric in ("linf", "l2", "se"):
        out[f"flagship.{metric}.scan_ranges"] = flagship_scans["scan_ranges"][metric]
    for metric in ("linf", "l2"):
        ranges, us = per_range(f"metrics.e_{metric}_worst_batch")
        out[f"metrics.{metric}.batch_ranges"] = ranges
        out[f"metrics.{metric}.us_per_range"] = us
    out["metrics.point_calls"], out["metrics.point_ms"] = points(
        ("metrics.e_linf_worst", "metrics.e_l2_worst")
    )
    out["link.se.batch_ranges"], out["link.se.us_per_range"] = per_range(
        "link.se_loss_worst_batch"
    )
    out["link.point_calls"], out["link.point_ms"] = points(
        ("link.se_loss_worst", "link.se_loss")
    )
    out["arrays.calls"] = sum(1 for s in spans if s.name == "arrays.element_distances")
    out["arrays.s"] = total(lambda s: s.name == "arrays.element_distances")
    from_sweep = [s for s in spans if s.site == "sweep"]
    # worker threads are counted per run_sweep call: thread ids are reused
    pools = [s for s in spans if s.name == "sweep.run_sweep"]
    jobs = [[s for s in from_sweep if pool.start <= s.start <= pool.end] for pool in pools]
    threads = [len({s.thread for s in pool_jobs}) for pool_jobs in jobs]
    capacity = sum(pool.duration * n for pool, n in zip(pools, threads))
    busy = sum(s.duration for pool_jobs in jobs for s in pool_jobs)
    out["sweep.workers"] = max(threads) if pools else len({s.thread for s in from_sweep})
    out["sweep.boundary_s"] = sum(s.duration for s in from_sweep if s.layer == "boundaries")
    out["sweep.curve_s"] = sum(s.duration for s in from_sweep if s.layer != "boundaries")
    out["sweep.busy_ratio"] = busy / capacity if capacity else 0.0
    serialize = ("sweep.curve_csv_lines", "sweep.boundary_csv_lines", "sweep.write_lines")
    out["sweep.serialize_s"] = total(lambda s: s.name in serialize)
    out["sweep.serialize_bytes"] = total(lambda s: s.name == "sweep.write_lines", "count")
    out["cli.requests"] = sum(1 for s in spans if s.name == "cli.main")
    out["cli.self_s"] = sum(own[s.id] for s in spans if s.name == "cli.main")
    return out


# every per-layer metric a traced run reports, with its unit, in report order
LAYER_UNITS = {
    **{f"boundaries.{m}.{k}": u for m in ("linf", "l2", "se")
       for k, u in (("scan_ranges", "count"), ("scan_s", "s"))},
    "boundaries.bisect_evals": "count",
    "boundaries.bisect_s": "s",
    "boundaries.closed_form_s": "s",
    "boundaries.fallbacks": "count",
    "boundaries.self_s": "s",
    **{f"flagship.{m}.scan_ranges": "count" for m in ("linf", "l2", "se")},
    **{f"metrics.{m}.{k}": u for m in ("linf", "l2")
       for k, u in (("batch_ranges", "count"), ("us_per_range", "us"))},
    "metrics.point_calls": "count",
    "metrics.point_ms": "ms",
    "link.se.batch_ranges": "count",
    "link.se.us_per_range": "us",
    "link.point_calls": "count",
    "link.point_ms": "ms",
    "arrays.calls": "count",
    "arrays.s": "s",
    "sweep.workers": "count",
    "sweep.boundary_s": "s",
    "sweep.curve_s": "s",
    "sweep.busy_ratio": "ratio",
    "sweep.serialize_s": "s",
    "sweep.serialize_bytes": "bytes",
    "cli.requests": "count",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}
