"""Layer timings that need no span: codepoint, tunnel and feedback loops, and
the split of one ``ecnprobe probe`` process into start, import and main.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

import reference
from workloads import BenchError, FileIO, Op, child_env, run_child

LOOP_REPEATS = 9
PROCESS_REPEATS = 5


def _ns_per_call(loop, calls: int) -> float:
    """Median over repeats of one loop's wall time, per call, loop overhead included."""
    times = []
    for _ in range(LOOP_REPEATS):
        start = time.perf_counter_ns()
        loop()
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times) / calls


def _at_reference_speed(measure, exponents: Dict[str, float]) -> Dict[str, float]:
    """Run ``measure`` between two reference timings and rescale its times
    (exponent 1 unless ``exponents`` names another; see reference.factor)."""
    before = reference.measure()
    times = measure()
    ref = (before + reference.measure()) / 2
    return {name: value * reference.factor(ref, exponents.get(name, 1.0))
            for name, value in times.items()}


def codec_loops(pkg) -> Dict[str, float]:
    """Per-call ns of the codepoint, tunnel and feedback primitives."""
    return _at_reference_speed(lambda: _codec_loops(pkg), {})


def _codec_loops(pkg) -> Dict[str, float]:
    ecn, tunnels, feedback = pkg.ecn, pkg.tunnels, pkg.feedback
    octets = list(range(256)) * 20
    codepoints = list(ecn.EcnCodepoint)
    ecn_of, overwrite = ecn.ecn_of, ecn.overwrite_ecn
    encap_cells = [(p, cp) for p in tunnels.EncapPolicy for cp in codepoints] * 200
    decap_cells = [
        (tunnels.builtin_policy(c), inner, outer)
        for c in tunnels.CONFORMANT_CLASSES for inner in codepoints for outer in codepoints
    ] * 50
    handshakes = codepoints * 500
    encap, decap = tunnels.encap, tunnels.decap
    encode, decode = feedback.encode_handshake, feedback.decode_handshake
    return {
        "ecn.ecn_of_ns": _ns_per_call(lambda: [ecn_of(o) for o in octets], len(octets)),
        "ecn.overwrite_ecn_ns": _ns_per_call(
            lambda: [overwrite(o, o >> 2) for o in octets], len(octets)),
        "tunnels.encap_ns": _ns_per_call(lambda: [encap(p, cp) for p, cp in encap_cells], len(encap_cells)),
        "tunnels.decap_ns": _ns_per_call(
            lambda: [decap(p, i, o) for p, i, o in decap_cells], len(decap_cells)),
        "feedback.handshake_roundtrip_ns": _ns_per_call(
            lambda: [decode(encode(cp)) for cp in handshakes], len(handshakes)),
    }


# The child times its own import and main() so interpreter start and exit
# stay out of both figures.
_SPLIT_CHILD = """\
import sys, time
start = time.perf_counter()
import ecnprobe.cli
imported = time.perf_counter()
code = ecnprobe.cli.main(sys.argv[2:])
done = time.perf_counter()
with open(sys.argv[1], "w") as out:
    out.write(f"{code} {imported - start!r} {done - imported!r}\\n")
"""


def process_split(ops: List[Op], src: Path, workdir: Path) -> Dict[str, float]:
    """Interpreter start (``-c pass``), ``import ecnprobe.cli`` and ``main()``, in ms."""
    return _at_reference_speed(lambda: _process_split(ops, src, workdir),
                               {"cli.interpreter_start_ms": reference.CHILD_PROCESS_EXPONENT})


def _process_split(ops: List[Op], src: Path, workdir: Path) -> Dict[str, float]:
    env = child_env(src)
    files = FileIO(workdir)
    timing = workdir / "split.txt"
    start_ms, import_ms, main_ms = [], [], []
    for i in range(PROCESS_REPEATS):
        elapsed, code, _ = run_child([sys.executable, "-c", "pass"], env, files.stdout, files.stderr)
        if code != 0:
            raise BenchError(f"`{sys.executable} -c pass` exited {code}")
        start_ms.append(elapsed * 1e3)
        argv = [sys.executable, "-c", _SPLIT_CHILD, str(timing)] + files.prepare(ops[i % len(ops)])
        _, code, _ = run_child(argv, env, files.stdout, files.stderr)
        if code != 0 or not timing.exists():
            raise BenchError(f"process split child exited {code}: {files.stderr.read_text()[-300:]}")
        _, imported, ran = timing.read_text().split()
        timing.unlink()
        import_ms.append(float(imported) * 1e3)
        main_ms.append(float(ran) * 1e3)
    return {
        "cli.interpreter_start_ms": statistics.median(start_ms),
        "cli.import_ms": statistics.median(import_ms),
        "cli.process_main_ms": statistics.median(main_ms),
    }
