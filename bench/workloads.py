"""Workload inputs and the runners that execute one op.

Every workload is a closed loop with one client: the next op starts only
after the previous one finished and was checked.  Inputs come only from the
``--seed`` argument through ``derive_seed``.  A workload is an endless
sequence of rounds; round 0 is the fixed prefix that every run completes,
and later rounds repeat the same grid with fresh derived seeds in a fresh
order, so no op ever repeats an earlier input.  A run ends at the first
round boundary after its time is up, so every run measures the same mix.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, NamedTuple, Optional, Tuple

WORKLOADS = ("sweep", "corpus", "cli_cold")


class BenchError(Exception):
    """The benchmark cannot run here: no program to measure, or a helper
    process that should always succeed did not."""


BUILTIN_EGRESSES = ("rfc6040", "rfc4301", "rfc3168", "rfc2003")
SWEEP_SEEDS_PER_EGRESS = 100
INGRESSES = ("copy", "zero", "rfc3168full")
CAPABILITIES = ("full", "ce_only")
# (name, aqm_ce_probability, loss_probability)
NOISES = (("clean", 0.0, 0.0), ("crit4", 0.1, 0.05), ("heavy", 0.3, 0.3))
# (servers, repetitions): 8 to 960 exchanges per session.
SIZES = ((1, 1), (3, 5), (8, 10))
DEAD = ("dead", 0.0, 1.0)
# No probe or helper process should come near this; the run must end in 180 s.
CHILD_TIMEOUT_S = 30
DEAD_INGRESSES = ("copy", "zero")
DEAD_SIZE = (3, 5)

# Exit codes documented in the README, kept here as an independent oracle.
VERDICT_EXIT = {"propagates_correctly": 0, "does_not_propagate": 1, "unknown": 2}
EXIT_CONTROL_FAILURE = 3


@dataclass
class Op:
    """One probe: its config, how to label it, and what the checks expect."""

    key: str
    config: object  # ecnprobe.simnet.ScenarioConfig
    noise: str
    dead: bool
    scenario: object = None  # prebuilt for in-process sessions

    @property
    def clean(self) -> bool:
        return self.noise == "clean"

    def config_text(self) -> str:
        c = self.config
        return (
            f"ingress = {c.ingress}\negress = {c.egress}\n"
            f"aqm_ce_probability = {c.aqm_ce_probability!r}\n"
            f"loss_probability = {c.loss_probability!r}\n"
            f"seed = {c.seed}\nservers = {c.servers}\n"
            f"repetitions = {c.repetitions}\ncapability = {c.capability}\n"
        )


@dataclass
class OpOutput:
    """What one op produced, as a user of the program would see it."""

    exit_code: Optional[int]
    json: Optional[bytes] = None
    trace: Optional[bytes] = None
    stdout: bytes = b""
    stderr: bytes = b""
    error: Optional[str] = None
    max_rss_kb: int = 0


def _custom_egresses(pkg, seed: int) -> Tuple[Tuple[str, str], ...]:
    """The two ``custom:`` egresses: copy-outer and a seeded random table."""
    tunnels = pkg.tunnels
    return (
        ("copy_outer", "custom:" + tunnels.custom_table_text(tunnels.mangled_copy_outer())),
        ("random", "custom:" + tunnels.custom_table_text(
            tunnels.mangled_random(tunnels.derive_seed(seed, "bench-table")))),
    )


class Cell(NamedTuple):
    """One config of a grid, before a seed is derived for it."""

    label: str
    egress: str
    ingress: str
    capability: str
    noise: Tuple[str, float, float]
    size: Tuple[int, int]


def _corpus_grid(pkg, seed: int) -> List[Cell]:
    egresses = tuple((e, e) for e in BUILTIN_EGRESSES) + _custom_egresses(pkg, seed)
    grid = [
        Cell(label, egress, ingress, capability, noise, size)
        for label, egress in egresses
        for ingress in INGRESSES
        for capability in CAPABILITIES
        for noise in NOISES
        for size in SIZES
    ]
    grid += [
        Cell(label, egress, ingress, "full", DEAD, DEAD_SIZE)
        for label, egress in egresses
        for ingress in DEAD_INGRESSES
    ]
    return grid


def _cli_cold_grid(pkg, seed: int) -> List[Cell]:
    # Process start and import dominate here, so one mid-size session shape
    # is enough; heavy noise stays in `corpus`, where its accuracy is reported.
    return [
        cell for cell in _corpus_grid(pkg, seed)
        if cell.size == DEAD_SIZE and cell.capability == "full"
        and (cell.noise[0] in ("clean", "crit4") or (cell.noise == DEAD and cell.ingress == "copy"))
    ]


def _grid_round(pkg, workload: str, seed: int, index: int, grid: List[Cell]) -> List[Op]:
    derive = pkg.tunnels.derive_seed
    order = list(range(len(grid)))
    random.Random(derive(seed, workload, "order", index)).shuffle(order)
    ops = []
    for position in order:
        cell = grid[position]
        noise, aqm, loss = cell.noise
        servers, reps = cell.size
        config = pkg.simnet.ScenarioConfig(
            ingress=cell.ingress, egress=cell.egress, aqm_ce_probability=aqm,
            loss_probability=loss, seed=derive(seed, workload, index, position),
            servers=servers, repetitions=reps, capability=cell.capability,
        )
        key = (f"{workload}/{index}/{position}/{cell.label}/{cell.ingress}/"
               f"{cell.capability}/{noise}/{servers}x{reps}")
        ops.append(Op(key, config, noise, cell.noise == DEAD))
    return ops


def _sweep_round(pkg, seed: int, index: int) -> List[Op]:
    derive = pkg.tunnels.derive_seed
    ops = []
    for n in range(SWEEP_SEEDS_PER_EGRESS):
        for egress in BUILTIN_EGRESSES:
            config = pkg.simnet.ScenarioConfig(
                ingress="copy", egress=egress, aqm_ce_probability=0.1, loss_probability=0.05,
                seed=derive(seed, "sweep", index, n, egress), servers=3, repetitions=5,
                capability="full",
            )
            ops.append(Op(f"sweep/{index}/{n}/{egress}", config, "crit4", False,
                          pkg.simnet.build_scenario(config)))
    return ops


def make_round(pkg, workload: str, seed: int, index: int) -> List[Op]:
    """Round ``index`` of a workload; round 0 is the fixed prefix."""
    if workload == "sweep":
        return _sweep_round(pkg, seed, index)
    if workload == "corpus":
        return _grid_round(pkg, workload, seed, index, _corpus_grid(pkg, seed))
    return _grid_round(pkg, workload, seed, index, _cli_cold_grid(pkg, seed))


def rounds(pkg, workload: str, seed: int, prefix: List[Op]) -> Iterator[Tuple[int, Op]]:
    """(round index, op) forever: the prefix as round 0, then fresh rounds."""
    for op in prefix:
        yield 0, op
    index = 1
    while True:
        for op in make_round(pkg, workload, seed, index):
            yield index, op
        index += 1


# ---------------------------------------------------------------------------
# Runners.  Each returns the seconds spent in the op and what it produced;
# preparing inputs and collecting outputs stay outside the timed part.


def run_session(pkg, op: Op, session) -> Tuple[float, Optional[OpOutput], object]:
    """`sweep`: one in-process ``run_probe_session`` (or its traced wrapper);
    returns (seconds, OpOutput on an exception else None, session result)."""
    capability = pkg.tunnels.Capability(op.config.capability)
    start = time.perf_counter()
    try:
        result = session(op.scenario, capability, op.config.repetitions)
    except Exception as exc:  # any exception is a failed op
        return time.perf_counter() - start, OpOutput(None, error=repr(exc)), None
    return time.perf_counter() - start, None, result


def emit_session(pkg, op: Op, result) -> OpOutput:
    """Render a sweep session the way ``ecnprobe probe`` would.

    Looks the report and trace functions up through ``ecnprobe.cli`` so the
    traced run times them under the same names as in the other workloads.
    """
    cli = pkg.cli
    try:
        probe_report = cli.build_report(result, op.config)
        return OpOutput(
            cli.EXIT_BY_VERDICT[probe_report.verdict],
            json=cli.render_report(probe_report, "json"),
            trace=cli.serialize_trace(result.exchanges).encode(),
        )
    except Exception as exc:
        return OpOutput(None, error=repr(exc))


class FileIO:
    """Config, JSON and trace files of one op inside the run's work dir."""

    def __init__(self, workdir: Path):
        self.config = workdir / "op.cfg"
        self.json = workdir / "op.json"
        self.trace = workdir / "op.trace"
        self.stdout = workdir / "op.stdout"
        self.stderr = workdir / "op.stderr"

    def prepare(self, op: Op) -> List[str]:
        for path in (self.json, self.trace):
            path.unlink(missing_ok=True)
        self.config.write_text(op.config_text())
        return ["probe", "--config", str(self.config), "--json", str(self.json),
                "--trace", str(self.trace)]

    def collect(self, out: OpOutput) -> OpOutput:
        out.json = self.json.read_bytes() if self.json.exists() else None
        out.trace = self.trace.read_bytes() if self.trace.exists() else None
        return out


def run_cli_inprocess(op: Op, files: FileIO, main) -> Tuple[float, OpOutput]:
    """`corpus`: ``cli.main(["probe", ...])`` (or its traced wrapper) in
    process, stdout and stderr captured."""
    argv = files.prepare(op)
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    except Exception as exc:
        return time.perf_counter() - start, OpOutput(None, error=repr(exc))
    elapsed = time.perf_counter() - start
    out = OpOutput(code, stdout=stdout.getvalue().encode(), stderr=stderr.getvalue().encode())
    return elapsed, files.collect(out)


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


class ChildTimeout(BenchError):
    """A child process ran longer than CHILD_TIMEOUT_S and was killed."""


def _child_timed_out(signum, frame):
    raise ChildTimeout(f"a child process ran longer than {CHILD_TIMEOUT_S} s")


def run_child(argv: List[str], env: dict, stdout: Path, stderr: Path) -> Tuple[float, int, int]:
    """Run one child to completion: (wall seconds, exit code, max RSS in KiB).

    ``os.wait4`` reaps the child and returns its own resource usage; an alarm
    bounds the wait, and a child still running on any error is killed and
    reaped before the error propagates.
    """
    with stdout.open("wb") as out, stderr.open("wb") as err:
        previous = signal.signal(signal.SIGALRM, _child_timed_out)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        try:
            signal.alarm(CHILD_TIMEOUT_S)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss


def run_cli_child(op: Op, files: FileIO, env: dict) -> Tuple[float, OpOutput]:
    """`cli_cold`: one ``python -m ecnprobe probe ...`` process."""
    argv = [sys.executable, "-m", "ecnprobe"] + files.prepare(op)
    try:
        elapsed, code, rss = run_child(argv, env, files.stdout, files.stderr)
    except ChildTimeout as exc:
        return float(CHILD_TIMEOUT_S), OpOutput(None, error=str(exc))
    out = OpOutput(code, stdout=files.stdout.read_bytes(), stderr=files.stderr.read_bytes(),
                   max_rss_kb=rss)
    return elapsed, files.collect(out)
