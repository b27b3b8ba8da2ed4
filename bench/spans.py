"""Spans around the benchmark's calls into nims, and the per-layer metrics.

A span is recorded in the benchmark's own files, around a call into one
public function of one ``nims`` module; its layer is the module name.
A composite call (``plan``, ``oracle_gaps``, ...) is followed, in the
traced run only, by sibling calls on the same inputs to the public
functions it is built from.  Those siblings carry ``component_of``, and
their time is taken out of the composite's self time, which splits the
cost between layers without touching ``src/``.  Spans stay in memory and
are written out once, at the end of the run.
"""

from __future__ import annotations

import itertools
import json
import statistics
from collections import defaultdict
from time import perf_counter
from typing import Callable, NamedTuple

LAYERS = ("sequence", "representation", "fault_tolerance", "designer", "bias", "device", "cli")

# Sequences up to this many junctions count as "small" (design-sweep's
# enumerated candidates); the device and the published columns are larger.
SMALL_TOTAL = 10_000

# name, unit, better, the end-to-end metric and workload it should move
LAYER_METRICS = (
    ("sequence.validate_us", "us", "lower", "ops_per_s, latency_p50_ms on plan-stream"),
    ("sequence.reachable_sums_ms", "ms", "lower", "ops_per_s, latency_p50_ms on certify"),
    ("sequence.oracle_intervals", "count", "lower", "peak_rss_mb on certify"),
    ("sequence.oracle_fill", "ratio", "lower", "peak_rss_mb on certify"),
    ("sequence.is_complete_small_us", "us", "lower", "ops_per_s on design-sweep"),
    ("sequence.enumerate_ms", "ms", "lower", "ops_per_s on design-sweep"),
    ("sequence.enumerate_results", "count", "higher", "ops_per_s on design-sweep (work done)"),
    ("representation.represent_us", "us", "lower", "ops_per_s, latency_p50_ms on plan-stream"),
    ("representation.range_check_ms", "ms", "lower", "latency_p90_ms on certify"),
    ("representation.targets_swept", "count", "higher", "latency_p90_ms on certify (work done)"),
    ("fault_tolerance.oracle_gaps_ms", "ms", "lower", "latency_p50_ms on certify"),
    ("fault_tolerance.apply_defects_us", "us", "lower", "latency_p50_ms on certify"),
    ("fault_tolerance.worst_case_scan_ms", "ms", "lower", "latency_p90_ms on certify"),
    ("fault_tolerance.scan_oracle_checked", "count", "higher", "latency_p90_ms on certify"),
    ("fault_tolerance.certified_ratio", "ratio", "higher", "ops_per_s on certify"),
    ("designer.design_us", "us", "lower", "latency_p50_ms on design-sweep"),
    ("designer.compare_logics_us", "us", "lower", "latency_p50_ms on design-sweep"),
    ("bias.plan_us", "us", "lower", "ops_per_s, latency_p50_ms on plan-stream"),
    ("bias.in_band_ratio", "ratio", "higher", "ops_per_s on plan-stream"),
    ("device.load_device_ms", "ms", "lower", "setup_s on every workload; latency_p50_ms on cli-session"),
    ("device.build_report_ms", "ms", "lower", "setup_s on every workload; latency_p50_ms on cli-session"),
    ("cli.startup_ms", "ms", "lower", "latency_p50_ms on cli-session; no nims change can move it"),
    ("cli.import_ms", "ms", "lower", "latency_p50_ms on cli-session"),
    ("cli.run_ms", "ms", "lower", "latency_p50_ms on cli-session"),
    ("cli.output_bytes", "bytes", "lower", "latency_p50_ms on cli-session"),
    ("cli.malformed_handled_ratio", "ratio", "higher", "failed operations on cli-session"),
    ("bench.trace_overhead", "ratio", "higher", "none: traced / untraced ops_per_s of the workload"),
) + tuple(
    (f"{layer}.self_ms", "ms", "lower", "ops_per_s on the workloads that call the layer") for layer in LAYERS
)

# Per-call medians: metric -> (span name, scale to the metric's unit).
_MEDIANS = {
    "sequence.enumerate_ms": ("sequence.enumerate_nims", 1e3),
    "representation.represent_us": ("representation.represent", 1e6),
    "representation.range_check_ms": ("representation.represent_range_check", 1e3),
    "fault_tolerance.oracle_gaps_ms": ("fault_tolerance.oracle_gaps", 1e3),
    "fault_tolerance.apply_defects_us": ("fault_tolerance.apply_defects", 1e6),
    "fault_tolerance.worst_case_scan_ms": ("fault_tolerance.worst_case_scan", 1e3),
    "designer.design_us": ("designer.design", 1e6),
    "designer.compare_logics_us": ("designer.compare_logics", 1e6),
    "bias.plan_us": ("bias.plan", 1e6),
    "device.load_device_ms": ("device.load_device", 1e3),
    "device.build_report_ms": ("device.build_report", 1e3),
    "cli.startup_ms": ("cli.startup", 1e3),
    "cli.run_ms": ("cli.run", 1e3),
}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    component_of: int | None
    attrs: dict


def _no_parts(args, result):
    return ()


def _no_attrs(args, result):
    return {}


class Tracer:
    """Records spans while ``on``; otherwise ``call`` is a plain call.

    ``components`` maps a span name to a function of (args, result) that
    yields (name, function, args) sibling calls; ``attrs`` maps a span name
    to a function of (args, result) giving the counts to keep on the span.
    """

    def __init__(self, components: dict | None = None, attrs: dict | None = None):
        self.on = False
        self.spans: list[Span] = []
        self.components = components or {}
        self.attrs = attrs or {}
        self._ids = itertools.count()
        self._parent: int | None = None
        self._op: int | None = None

    def begin(self, op_id: int) -> int:
        """Open an operation's span; calls until end() are its children."""
        self._parent, self._op = next(self._ids), op_id
        return self._parent

    def end(self, span_id: int, start: float, end: float) -> None:
        if self.on:
            self.spans.append(Span(span_id, "bench.op", start, end, None, self._op, None, {}))
        self._parent = self._op = None

    def call(self, name: str, fn: Callable, *args, component_of: int | None = None):
        if not self.on:
            return fn(*args)
        result = error = None
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # re-raised below, after the span is kept
            error = exc
        end = perf_counter()
        attrs = {"error": type(error).__name__} if error else self.attrs.get(name, _no_attrs)(args, result)
        span_id = next(self._ids)
        self.spans.append(Span(span_id, name, start, end, self._parent, self._op, component_of, attrs))
        for part, part_fn, part_args in self.components.get(name, _no_parts)(args, result):
            self.call(part, part_fn, *part_args, component_of=span_id)
        if error is not None:
            raise error
        return result

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        """Keep a span timed elsewhere, such as a child process."""
        if self.on:
            self.spans.append(Span(next(self._ids), name, start, end, None, None, None, attrs))

    def write(self, path, header: dict) -> None:
        with open(path, "w") as out:
            out.write(json.dumps(header) + "\n")
            for s in self.spans:
                out.write(json.dumps(s._asdict()) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus its children's and its components'.

    Components run inside the operation's span but after their composite
    returns, so their time comes out of the operation (where it was spent)
    and out of the composite (whose inner work they stand for).
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        d = s.end - s.start
        if s.parent is not None:
            covered[s.parent] += d
        if s.component_of is not None:
            covered[s.component_of] += d
    return {s.id: max(0.0, s.end - s.start - covered[s.id]) for s in spans}


def layer_metrics(spans: list[Span], cap: int) -> dict[str, float]:
    """Per-layer metrics from one traced run (bench.* are added by the caller)."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def median(name: str, keep=lambda s: True) -> float:
        durations = [s.end - s.start for s in by_name[name] if keep(s)]
        if not durations:
            raise LookupError(f"the traced run made no {name} call")
        return statistics.median(durations)

    def share(name: str, key: str) -> float:
        spans_ = by_name[name]
        return sum(1 for s in spans_ if s.attrs.get(key)) / len(spans_)

    def total(name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    def small(s: Span) -> bool:
        return s.attrs.get("total", SMALL_TOTAL + 1) <= SMALL_TOTAL

    oracle = [s for s in by_name["sequence.reachable_sums"] if "intervals" in s.attrs]
    out = {metric: median(name) * scale for metric, (name, scale) in _MEDIANS.items()}
    out["cli.import_ms"] = (median("cli.import") - median("cli.startup")) * 1e3
    out["sequence.validate_us"] = 1e6 * median("sequence.validate", lambda s: not small(s))
    out["sequence.reachable_sums_ms"] = 1e3 * median("sequence.reachable_sums", lambda s: not small(s))
    out["sequence.is_complete_small_us"] = 1e6 * median("sequence.is_complete", small)
    out["sequence.oracle_intervals"] = max(s.attrs["intervals"] for s in oracle)
    out["sequence.oracle_fill"] = max(s.attrs["total"] for s in oracle) / cap
    out["sequence.enumerate_results"] = total("sequence.enumerate_nims", "results")
    out["representation.targets_swept"] = total("representation.represent_range_check", "checked")
    out["fault_tolerance.scan_oracle_checked"] = total("fault_tolerance.worst_case_scan", "oracle_checked")
    out["fault_tolerance.certified_ratio"] = share("fault_tolerance.oracle_gaps", "complete")
    out["bias.in_band_ratio"] = share("bias.plan", "in_band")
    out["cli.output_bytes"] = total("cli.process", "bytes")

    own = self_times(spans)
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = 1e3 * sum(
            own[s.id] for s in spans if s.name.split(".", 1)[0] == layer
        )
    return out
