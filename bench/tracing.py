"""Span recording for the traced benchmark run.

Spans are recorded from the benchmark's side of each call.  The traced run
replaces the module-level names that ``ecnprobe.engine``, ``ecnprobe.cli``
and ``ecnprobe.simnet`` look up at call time with wrappers that time the
call, and puts the originals back afterwards.  Nothing in the package
changes, and the untraced run never installs a wrapper.

A span is ``(span_id, parent_id, op_id, name, start_ns, end_ns)``.  Spans
are kept in memory and written out once, when the run ends.  A span's self
time is its duration minus the durations of its direct children: calls are
synchronous, so children never overlap each other or leave their parent.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[int, int, int, str, int, int]

# Observers see (tracer, call args, result or None, exception or None) and
# bump counters at the same boundary the span is recorded at.
Observer = Callable[["Tracer", tuple, object, Optional[BaseException]], None]


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.op_id = 0
        self._stack = [0]
        self._next_id = 1

    def wrap(self, fn: Callable, name: str, observe: Optional[Observer] = None) -> Callable:
        """``fn`` with a span named ``name`` recorded around every call."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, tracer.op_id, name, start, end))
                if observe is not None:
                    observe(tracer, args, None, exc)
                raise
            end = clock()
            stack.pop()
            spans.append((span_id, parent, tracer.op_id, name, start, end))
            if observe is not None:
                observe(tracer, args, result, None)
            return result

        return traced

    def write(self, path: Path) -> None:
        with path.open("w") as out:
            out.write("span_id\tparent_id\top_id\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                out.write("\t".join(map(str, span)) + "\n")


# ---------------------------------------------------------------------------
# Observers: counts taken where the work happens.


def _observe_exchange(tracer: Tracer, args, result, exc) -> None:
    if result is not None and result.feedback is None:
        tracer.counts["simnet.absent_feedback"] += 1


def _observe_control(tracer: Tracer, args, result, exc) -> None:
    # A ControlFailure carries the control report gathered before it gave up.
    report = result if exc is None else getattr(exc, "report", None)
    tracer.counts["engine.control_tests"] += 1
    tracer.counts["engine.control_failures"] += exc is not None
    if report is not None and report.overwrite_fallback_enabled:
        tracer.counts["engine.fallbacks"] += 1


def _observe_main(tracer: Tracer, args, result, exc) -> None:
    if result is not None:
        tracer.counts["engine.rows"] += len(result)
        tracer.counts["engine.ambiguous_rows"] += sum(obs.ambiguous for obs in result)


def _observe_trace(tracer: Tracer, args, result, exc) -> None:
    if result is not None:
        tracer.counts["simnet.trace_bytes"] += len(result.encode())


def _observe_json(tracer: Tracer, args, result, exc) -> None:
    if result is not None:
        tracer.counts["report.json_bytes"] += len(result)


@contextlib.contextmanager
def installed(tracer: Tracer, pkg) -> Iterator[None]:
    """Install the span wrappers on the package's module-level names."""
    engine, cli, simnet = pkg.engine, pkg.cli, pkg.simnet
    wrap = tracer.wrap

    class TracedTunnelPath(simnet.TunnelPath):
        exchange = wrap(simnet.TunnelPath.exchange, "simnet.exchange", _observe_exchange)

    render_json = wrap(cli.render_report, "report.render_json", _observe_json)
    render_text = wrap(cli.render_report, "report.render_text")

    def render_report(report, format="text"):
        return (render_json if format == "json" else render_text)(report, format)

    replacements = [
        (engine, "TunnelPath", TracedTunnelPath),
        (engine, "run_control_test", wrap(engine.run_control_test, "engine.run_control_test", _observe_control)),
        (engine, "run_main_test", wrap(engine.run_main_test, "engine.run_main_test", _observe_main)),
        (engine, "classify", wrap(engine.classify, "engine.classify")),
        (cli, "load_config", wrap(cli.load_config, "cli.load_config")),
        (cli, "build_scenario", wrap(cli.build_scenario, "simnet.build_scenario")),
        (cli, "run_probe_session", wrap(cli.run_probe_session, "engine.run_probe_session")),
        (cli, "build_report", wrap(cli.build_report, "report.build_report")),
        (cli, "render_report", render_report),
        (cli, "serialize_trace", wrap(cli.serialize_trace, "simnet.serialize_trace", _observe_trace)),
        (simnet, "parse_custom_table", wrap(simnet.parse_custom_table, "tunnels.parse_custom_table")),
    ]
    originals = [(module, name, getattr(module, name)) for module, name, _ in replacements]
    try:
        for module, name, replacement in replacements:
            setattr(module, name, replacement)
        yield
    finally:
        for module, name, original in originals:
            setattr(module, name, original)


# ---------------------------------------------------------------------------
# Analysis


def _child_ns(spans: List[Span]) -> Dict[int, int]:
    child_ns: Dict[int, int] = defaultdict(int)
    for _, parent, _, _, start, end in spans:
        child_ns[parent] += end - start
    return child_ns


class SpanStats:
    """Per-name call count, total duration and total self time (ns)."""

    def __init__(self, spans: List[Span]):
        child_ns = _child_ns(spans)
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        for span_id, _, _, name, start, end in spans:
            self.calls[name] += 1
            self.total_ns[name] += end - start
            self.self_ns[name] += end - start - child_ns[span_id]

    def mean_ns(self, name: str, self_time: bool = False) -> float:
        totals = self.self_ns if self_time else self.total_ns
        return totals[name] / self.calls[name]


def layer_shares(spans: List[Span], root: str) -> Dict[str, float]:
    """Share of the time under top-level ``root`` spans that is each module's
    self time (module = span name up to the first dot)."""
    child_ns = _child_ns(spans)
    parent_of = {span[0]: span[1] for span in spans}
    name_of = {span[0]: span[3] for span in spans}
    top: Dict[int, int] = {}

    def top_of(span_id: int) -> int:
        path = []
        while span_id not in top and parent_of[span_id] != 0:
            path.append(span_id)
            span_id = parent_of[span_id]
        found = top.get(span_id, span_id)
        for visited in path:
            top[visited] = found
        return found

    by_module: Dict[str, int] = defaultdict(int)
    for span_id, _, _, name, start, end in spans:
        if name_of[top_of(span_id)] == root:
            by_module[name.split(".", 1)[0]] += end - start - child_ns[span_id]
    total = sum(by_module.values())
    return {module: ns / total for module, ns in sorted(by_module.items())}
