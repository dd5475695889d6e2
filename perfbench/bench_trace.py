"""Traced runs: spans around calls into qlitho's public functions.

The tracer replaces each wrapped function on every qlitho module that holds
it, including modules that imported it by name (``qlitho.cli.load_config``,
``qlitho.deposition.absorption_transfer``, ``qlitho.exposure.plan_rate_values``),
and puts the originals back afterwards.  Spans are kept in memory as
``Span`` records (name, start, end, parent, command id, counters) and
written out when the run ends.  A layer's self time is its span time minus
the part of it that its child spans cover; the root span of each command
is ``cli.main``, whose self time is argument parsing, headers and dispatch.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (span name, module, function).  Two functions may share a span name.
TARGETS = (
    ("config.load", "qlitho.config", "load_config"),
    ("fock.transfer", "qlitho.fock", "absorption_transfer"),
    ("planner.mixture", "qlitho.planner", "plan_mixture"),
    ("deposition.brute", "qlitho.deposition", "brute_force_values"),
    ("imperfections.loss", "qlitho.imperfections", "lossy_mixture"),
    ("deposition.closed", "qlitho.deposition", "closed_form_values"),
    ("planner.profile", "qlitho.planner", "plan_profile"),
    ("planner.rate2d", "qlitho.planner", "plan_rate_values_2d"),
    ("planner.rate_values", "qlitho.planner", "plan_rate_values"),
    ("deposition.text", "qlitho.deposition", "profile_text"),
    ("deposition.text", "qlitho.deposition", "profile_2d_text"),
    ("cli.write", "qlitho.cli", "atomic_write"),
    ("imperfections.report", "qlitho.imperfections", "degradation_report"),
    ("exposure.sample", "qlitho.exposure", "simulate_exposure"),
    ("verify.suite", "qlitho.verify", "run_suites"),
)
ROOT = "cli.main"

# Per-layer metrics, in report order: (name, unit, better).  Times and
# counters are means per traced command; ratios are over all traced commands.
LAYER_METRICS = (
    ("config.load_ms", "ms", "lower"),
    ("fock.transfer_ms", "ms", "lower"),
    ("fock.transfer_calls", "count", "lower"),
    ("fock.transfer_hit_ratio", "ratio", "higher"),
    ("fock.transfer_entries", "count", "lower"),
    ("planner.mixture_ms", "ms", "lower"),
    ("deposition.brute_ms", "ms", "lower"),
    ("deposition.brute_flops", "flop", "lower"),
    ("imperfections.loss_ms", "ms", "lower"),
    ("imperfections.loss_patterns", "count", "lower"),
    ("imperfections.loss_components", "count", "lower"),
    ("imperfections.loss_yield", "ratio", "higher"),
    ("deposition.closed_ms", "ms", "lower"),
    ("deposition.closed_points", "count", "lower"),
    ("planner.profile_ms", "ms", "lower"),
    ("planner.profile_calls", "count", "lower"),
    ("planner.rate2d_ms", "ms", "lower"),
    ("planner.rate2d_entries", "count", "lower"),
    ("planner.rate_values_ms", "ms", "lower"),
    ("deposition.text_ms", "ms", "lower"),
    ("deposition.text_bytes", "B", "lower"),
    ("cli.write_ms", "ms", "lower"),
    ("cli.write_bytes", "B", "lower"),
    ("imperfections.report_ms", "ms", "lower"),
    ("exposure.sample_ms", "ms", "lower"),
    ("exposure.grain_draws", "count", "lower"),
    ("verify.suite_ms", "ms", "lower"),
    ("verify.oracle_max_dev", "1", "lower"),
    ("cli.other_ms", "ms", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
)


@dataclass
class Span:
    name: str
    start: int
    end: int = 0
    parent: int = -1
    command: int = -1
    counters: dict = field(default_factory=dict)
    children: list = field(default_factory=list)


def self_times(spans) -> list[int]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, so overlapping or
    overhanging children are not subtracted twice or beyond the parent.
    """
    intervals: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent >= 0:
            intervals.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0
        reach = span.start
        for start, end in sorted(intervals.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def _counters(name: str, args, kwargs, result, span: Span, spans: list) -> dict:
    """Work counters of one finished call, computed from its arguments and result."""
    if name == "fock.transfer":
        rows, cols = result[1].shape
        return {"shape": (rows, cols), "entries": 0 if span.counters.get("hit") else rows * cols}
    if name == "deposition.brute":
        xs = args[2] if len(args) > 2 else kwargs["xs"]
        points = len(xs)
        shapes = [spans[c].counters["shape"] for c in span.children if spans[c].name == "fock.transfer"]
        return {"flops": sum(8 * f * s * points for f, s in shapes)}
    if name == "imperfections.loss":
        support = args[0].amplitudes
        patterns = 1
        for mode in range(args[0].geometry.mode_count):
            patterns *= 1 + max(occ[mode] for occ in support)
        return {"patterns": patterns, "components": len(result.components)}
    if name == "deposition.closed":
        geometry = args[0] if args else kwargs["geometry"]
        xs = args[2] if len(args) > 2 else kwargs["xs"]
        return {"points": len(geometry.pairs) * len(xs)}
    if name == "planner.rate2d":
        plan = args[0] if args else kwargs["plan"]
        return {"entries": len(plan.entries)}
    if name == "deposition.text":
        return {"bytes": len(result)}
    if name == "cli.write":
        text = args[1] if len(args) > 1 else kwargs["text"]
        return {"bytes": len(text)}
    if name == "exposure.sample":
        film = args[1] if len(args) > 1 else kwargs["film"]
        return {"draws": result.counts.size * film.grains_per_pixel}
    if name == "verify.suite":
        return {"oracle_dev": max((r.deviation for r in result if r.suite == "oracle"), default=0.0)}
    return {}


class Tracer:
    """Records nested spans around wrapped qlitho functions, in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._command = -1
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter_ns(), parent=self._stack[-1] if self._stack else -1,
                    command=self._command)
        index = len(self.spans)
        if span.parent >= 0:
            self.spans[span.parent].children.append(index)
        self.spans.append(span)
        self._stack.append(index)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def command(self, command_id: int):
        """Root span of one CLI command; wrapped calls inside become its children."""
        self._command = command_id
        span = self._open(ROOT)
        try:
            yield
        finally:
            self._close(span)
            self._command = -1

    def _wrap(self, name: str, fn):
        cache_info = getattr(fn, "cache_info", None)

        def traced(*args, **kwargs):
            span = self._open(name)
            hits = cache_info().hits if cache_info else 0
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if cache_info:
                span.counters["hit"] = cache_info().hits - hits
            span.counters.update(_counters(name, args, kwargs, result, span, self.spans))
            return result

        traced.__wrapped__ = fn
        if cache_info:
            traced.cache_info, traced.cache_clear = fn.cache_info, fn.cache_clear
        return traced

    def install(self) -> None:
        """Replace every wrapped function on every loaded qlitho module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "qlitho" or n.startswith("qlitho."))]
        self.missing = []
        for name, module_name, attr in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, value in reversed(self._restore):
            setattr(module, key, value)
        self._restore.clear()

    @property
    def commands(self) -> int:
        return sum(1 for s in self.spans if s.name == ROOT)

    @property
    def command_ms(self) -> float:
        """Mean wall time of a traced command."""
        return sum(s.end - s.start for s in self.spans if s.name == ROOT) / 1e6 / (self.commands or 1)

    def layer_metrics(self, overhead: float) -> dict[str, float]:
        """Per-layer metrics over all traced commands (see LAYER_METRICS)."""
        commands = self.commands or 1
        self_ms: dict[str, float] = {}
        totals: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            self_ms[span.name] = self_ms.get(span.name, 0.0) + own / 1e6
            calls[span.name] = calls.get(span.name, 0) + 1
            for key, value in span.counters.items():
                if key != "shape":
                    totals[f"{span.name}.{key}"] = totals.get(f"{span.name}.{key}", 0) + value
        oracle = max((s.counters.get("oracle_dev", 0.0) for s in self.spans
                      if s.name == "verify.suite"), default=0.0)
        transfer_calls = calls.get("fock.transfer", 0)
        patterns = totals.get("imperfections.loss.patterns", 0)

        def per(value):
            return value / commands

        metrics = {f"{name}_ms": per(self_ms.get(name, 0.0))
                   for name in {t[0] for t in TARGETS}}
        metrics.update({
            "fock.transfer_calls": per(transfer_calls),
            "fock.transfer_hit_ratio": (totals.get("fock.transfer.hit", 0) / transfer_calls
                                        if transfer_calls else 0.0),
            "fock.transfer_entries": per(totals.get("fock.transfer.entries", 0)),
            "deposition.brute_flops": per(totals.get("deposition.brute.flops", 0)),
            "imperfections.loss_patterns": per(patterns),
            "imperfections.loss_components": per(totals.get("imperfections.loss.components", 0)),
            "imperfections.loss_yield": (totals.get("imperfections.loss.components", 0) / patterns
                                         if patterns else 0.0),
            "deposition.closed_points": per(totals.get("deposition.closed.points", 0)),
            "planner.profile_calls": per(calls.get("planner.profile", 0)),
            "planner.rate2d_entries": per(totals.get("planner.rate2d.entries", 0)),
            "deposition.text_bytes": per(totals.get("deposition.text.bytes", 0)),
            "cli.write_bytes": per(totals.get("cli.write.bytes", 0)),
            "exposure.grain_draws": per(totals.get("exposure.sample.draws", 0)),
            "verify.oracle_max_dev": oracle,
            "cli.other_ms": per(self_ms.get(ROOT, 0.0)),
            "trace_overhead_frac": overhead,
        })
        return {name: metrics[name] for name, _, _ in LAYER_METRICS}

    def write(self, path) -> None:
        """One JSON array per span: name, start_ns, end_ns, parent, command, counters."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                counters = {k: v for k, v in span.counters.items() if k != "shape"}
                handle.write(json.dumps([span.name, span.start, span.end, span.parent,
                                         span.command, counters]) + "\n")
