#!/usr/bin/env python3
"""ecnprobe benchmark: end-to-end and per-layer timing of the probe procedure.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

``--workload`` is ``sweep``, ``corpus``, ``cli_cold`` or ``all``.  With
``--trace 0`` the run measures for ``--seconds`` seconds and prints the
end-to-end metrics; with ``--trace 1`` it runs the workload's fixed prefix
once untraced and once traced, and prints the per-layer metrics.  The last
line of standard output is one JSON object; the lines before it are a
readable summary with the output digest.  Metric names and units come from
``BENCHMARK.json``.  See ``bench/README.md`` for what each number means.

Only the standard library is used.  The program under test is imported from
``src/`` of the same checkout, and every file the run writes stays under
``bench/_work/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"

import reference  # noqa: E402
from checks import Oracle, Tally, check  # noqa: E402
from layers import codec_loops, process_split  # noqa: E402
from tracing import SpanStats, Tracer, installed, layer_shares  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, BenchError, FileIO, child_env, emit_session, make_round, rounds, run_cli_child,
    run_cli_inprocess, run_session,
)

SETUP_REPEATS = 7
# How often the reference loop is timed between ops, and the window whose
# timings are pooled (median) to rescale one block of ops: the host's speed
# changes over seconds, and one timing can be disturbed on its own.
REFERENCE_INTERVAL_S = 0.25
REFERENCE_WINDOW_S = 2.0
# In-process probes that time the layers a workload's own ops never call.
LAYER_SAMPLE_OPS = 8
# Units of the metrics printed in the summary but not listed in BENCHMARK.json.
SUMMARY_UNITS = {"op_ms_p90": "ms", "op_ms_p99": "ms", "failed_ratio": "ratio",
                 "confident_wrong_ratio": "ratio"}


def load_package():
    if not (SRC / "ecnprobe" / "__init__.py").is_file():
        raise BenchError(f"no ecnprobe package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ecnprobe.cli
    import ecnprobe.ecn
    import ecnprobe.engine
    import ecnprobe.feedback
    import ecnprobe.report
    import ecnprobe.simnet
    import ecnprobe.tunnels

    return types.SimpleNamespace(
        cli=ecnprobe.cli, ecn=ecnprobe.ecn, engine=ecnprobe.engine,
        feedback=ecnprobe.feedback, report=ecnprobe.report, simnet=ecnprobe.simnet,
        tunnels=ecnprobe.tunnels,
    )


def set_up(workload: str, seed: int):
    """Import the program and build the workload's fixed prefix."""
    pkg = load_package()
    return pkg, make_round(pkg, workload, seed, 0)


def measure_setup_s(workload: str, seed: int):
    """Median set-up time over fresh processes, interpreter start excluded:
    (wall seconds, seconds rescaled by the reference loop each child timed)."""
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--measure-setup",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()[-300:]}")
        setup, ref = map(float, proc.stdout.split()[-2:])
        wall.append(setup)
        scaled.append(reference.scale(setup, ref))
    return statistics.median(wall), statistics.median(scaled) / 1e3


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


class Pass:
    """One closed-loop pass: op latencies, reference timings and the check tally."""

    def __init__(self, exponent: float) -> None:
        self.exponent = exponent  # see reference.factor
        self.latencies = []
        self.references = []  # (index of the next op, time, reference loop seconds)
        self.tally = Tally()
        self.max_child_rss_kb = 0

    def reference_factor(self) -> float:
        """One rescaling factor for the whole pass, from its median reference."""
        return reference.factor(statistics.median(r for _, _, r in self.references), self.exponent)

    def scaled_ms(self):
        """Each op's latency in ms at reference speed.  A block of ops between
        two reference timings is rescaled by the median of the timings taken
        within REFERENCE_WINDOW_S of the block, so one disturbed timing (say,
        right after a child process exits) does not skew the block."""
        out = []
        half = REFERENCE_WINDOW_S / 2
        for (begin, start, _), (end, stop, _) in zip(self.references, self.references[1:]):
            near = [r for _, t, r in self.references if start - half <= t <= stop + half]
            ref = statistics.median(near)
            out.extend(reference.scale(t, ref, self.exponent) for t in self.latencies[begin:end])
        return out


def drive(pkg, ops, runner, deadline=None, tracer=None, child=False) -> Pass:
    """Run (round index, op) pairs one after another, checking each; stop at
    the first round boundary after the deadline.  ``child`` marks a runner
    whose ops are whole child processes."""
    oracle = Oracle(pkg)
    result = Pass(reference.CHILD_PROCESS_EXPONENT if child else 1.0)
    next_reference = 0.0
    current_round = 0
    for index, (round_index, op) in enumerate(ops):
        now = time.perf_counter()
        if round_index != current_round:
            if now >= deadline:
                break
            current_round = round_index
        if now >= next_reference:
            result.references.append((index, now, reference.measure()))
            next_reference = now + REFERENCE_INTERVAL_S
        if tracer is not None:
            tracer.op_id = index
        elapsed, out = runner(op)
        result.latencies.append(elapsed)
        result.max_child_rss_kb = max(result.max_child_rss_kb, out.max_rss_kb)
        result.tally.add(op, out, check(pkg, oracle, op, out), round_index == 0)
    result.references.append((len(result.latencies), time.perf_counter(), reference.measure()))
    return result


def make_runner(pkg, workload: str, files: FileIO, in_process: bool, tracer=None):
    """The op runner: the workload's own, or its in-process form for tracing."""
    if workload == "sweep":
        session = pkg.engine.run_probe_session
        emit = emit_session
        if tracer is not None:
            session = tracer.wrap(session, "engine.run_probe_session")
            emit = tracer.wrap(emit_session, "bench.emit")

        def sweep_op(op):
            elapsed, out, result = run_session(pkg, op, session)
            return elapsed, out or emit(pkg, op, result)

        return sweep_op
    if workload == "cli_cold" and not in_process:
        env = child_env(SRC)
        return lambda op: run_cli_child(op, files, env)
    main = pkg.cli.main if tracer is None else tracer.wrap(pkg.cli.main, "cli.main")
    return lambda op: run_cli_inprocess(op, files, main)


def prefix_ops(prefix):
    return ((0, op) for op in prefix)


def end_to_end(pkg, workload: str, seed: int, seconds: float, prefix, workdir: Path):
    setup_wall_s, setup_s = measure_setup_s(workload, seed)
    files = FileIO(workdir)
    runner = make_runner(pkg, workload, files, in_process=False)
    deadline = time.perf_counter() + seconds
    run = drive(pkg, rounds(pkg, workload, seed, prefix), runner, deadline,
                child=workload == "cli_cold")
    latencies = sorted(run.scaled_ms())
    wall = sorted(run.latencies)
    if workload == "cli_cold":
        peak_kb = run.max_child_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tally = run.tally
    metrics = {
        "ops_per_s": len(latencies) / sum(latencies) * 1e3,
        "op_ms_p50": percentile(latencies, 50),
        "op_ms_p90": percentile(latencies, 90),
        "op_ms_p99": percentile(latencies, 99),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024,
        "failed_ratio": tally.failed / tally.attempted,
        "identified_ratio": tally.ratio(tally.identified),
        "confident_wrong_ratio": tally.ratio(tally.confident_wrong),
    }
    info = {
        "ops": len(latencies), "prefix_ops": len(prefix), "digest": tally.digest,
        "classified_prefix_ops": tally.classified,
        "wall": (f"ops_per_s={len(wall) / sum(wall):.6g} op_ms_p50={percentile(wall, 50) * 1e3:.6g} "
                 f"op_ms_p90={percentile(wall, 90) * 1e3:.6g} setup_s={setup_wall_s:.6g}"),
        "reference_loop_ms": statistics.median(r for _, _, r in run.references) * 1e3,
    }
    return metrics, [tally], True, info


def per_layer(pkg, workload: str, seed: int, prefix, workdir: Path):
    files = FileIO(workdir)
    baseline = drive(pkg, prefix_ops(prefix), make_runner(pkg, workload, files, False),
                      child=workload == "cli_cold")
    passes = [baseline]
    untraced = baseline
    if workload == "cli_cold":
        untraced = drive(pkg, prefix_ops(prefix), make_runner(pkg, workload, files, True))
        passes.append(untraced)

    tracer = Tracer()
    with installed(tracer, pkg):
        traced = drive(pkg, prefix_ops(prefix),
                       make_runner(pkg, workload, files, True, tracer), tracer=tracer)
    passes.append(traced)

    # Layers this workload never calls are timed on a few corpus probes.
    sample_tracer = Tracer()
    sample = [op for op in make_round(pkg, "corpus", seed, 0) if not op.dead][:LAYER_SAMPLE_OPS]
    with installed(sample_tracer, pkg):
        passes.append(drive(pkg, prefix_ops(sample),
                            make_runner(pkg, "corpus", files, True, sample_tracer),
                            tracer=sample_tracer))
    own, fallback = SpanStats(tracer.spans), SpanStats(sample_tracer.spans)
    own_scale, fallback_scale = traced.reference_factor(), passes[-1].reference_factor()

    def mean(name: str, unit_ns: float, self_time: bool = False) -> float:
        stats, scale = (own, own_scale) if own.calls[name] else (fallback, fallback_scale)
        return stats.mean_ns(name, self_time) * scale / unit_ns

    counts = tracer.counts
    ops = len(prefix)
    exchanges = own.calls["simnet.exchange"]
    control_tests = counts["engine.control_tests"]
    metrics = {
        "simnet.exchange_us": mean("simnet.exchange", 1e3, self_time=True),
        "simnet.exchanges_per_op": exchanges / ops,
        "simnet.absent_feedback_ratio": counts["simnet.absent_feedback"] / exchanges,
        "simnet.serialize_trace_ms": mean("simnet.serialize_trace", 1e6),
        "simnet.trace_bytes_per_op": counts["simnet.trace_bytes"] / ops,
        "simnet.build_scenario_us": mean("simnet.build_scenario", 1e3, self_time=True),
        "tunnels.parse_custom_table_us": mean("tunnels.parse_custom_table", 1e3),
        "engine.control_ms": mean("engine.run_control_test", 1e6, self_time=True),
        "engine.main_ms": mean("engine.run_main_test", 1e6, self_time=True),
        "engine.classify_us": mean("engine.classify", 1e3),
        "engine.fallback_ratio": counts["engine.fallbacks"] / control_tests,
        "engine.control_failure_ratio": counts["engine.control_failures"] / control_tests,
        "engine.ambiguous_row_ratio": counts["engine.ambiguous_rows"] / counts["engine.rows"],
        "report.build_report_us": mean("report.build_report", 1e3),
        "report.render_json_us": mean("report.render_json", 1e3),
        "report.render_text_us": mean("report.render_text", 1e3),
        "report.json_bytes_per_op": counts["report.json_bytes"] / ops,
        "cli.load_config_us": mean("cli.load_config", 1e3),
        "cli.main_ms": mean("cli.main", 1e6, self_time=True),
        "bench.tracing_overhead_ratio": sum(traced.scaled_ms()) / sum(untraced.scaled_ms()) - 1,
        "failed_ratio": sum(p.tally.failed for p in passes) / sum(p.tally.attempted for p in passes),
        "confident_wrong_ratio": baseline.tally.ratio(baseline.tally.confident_wrong),
    }
    metrics.update(codec_loops(pkg))
    metrics.update(process_split([op for op in prefix if not op.dead], SRC, workdir))

    root = "engine.run_probe_session" if workload == "sweep" else "cli.main"
    shares = layer_shares(tracer.spans, root)
    spans_path = WORK / f"spans-{workload}.tsv"
    tracer.write(spans_path)
    digests = {"untraced": baseline.tally.digest, "traced": traced.tally.digest}
    if untraced is not baseline:
        digests["untraced_in_process"] = untraced.tally.digest
    info = {
        "ops": ops, "digest": baseline.tally.digest, "digests_match": len(set(digests.values())) == 1,
        "layer_share": " ".join(f"{module}={share:.3f}" for module, share in shares.items()),
        "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, [p.tally for p in passes], info["digests_match"], info


def run_workload(workload: str, seed: int, seconds: float, trace: bool, declared: dict) -> dict:
    pkg, prefix = set_up(workload, seed)
    workdir = WORK / f"run-{os.getpid()}-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            metrics, tallies, consistent, info = per_layer(pkg, workload, seed, prefix, workdir)
        else:
            metrics, tallies, consistent, info = end_to_end(pkg, workload, seed, seconds, prefix, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    print(f"workload={workload} seed={seed} trace={int(trace)} attempted={attempted} failed={failed}")
    for key, value in info.items():
        print(f"  {key} = {value}")
    for tally in tallies:
        for failure in tally.first_failures:
            print(f"  FAILED {failure}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {declared.get(name) or SUMMARY_UNITS[name]}")

    missing = [name for name in declared if name not in metrics]
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    return {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }


def declared_metrics(trace: bool) -> dict:
    """Name -> unit of the metrics BENCHMARK.json asks this run to print."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--measure-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        if args.measure_setup:
            start = time.perf_counter()
            set_up(args.workload, args.seed)
            print(repr(time.perf_counter() - start), repr(reference.measure()))
            return 0
        declared = declared_metrics(bool(args.trace))
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace), declared)
                   for w in workloads]
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}.{name}": m for w, r in zip(workloads, results)
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
