"""Per-op correctness checks, accuracy tallies and the output digest.

An op fails on any of:

* an exception, a probe process killed after running too long, or an exit
  code outside {0, 1, 2, 3};
* a dead-path config (loss 1.0) that does not end in exit 3, or an exit 3
  that still wrote a JSON report or trace;
* a clean-path op whose classification differs from ``signature_of_policy``
  matched against the reference signatures;
* ``--json`` bytes that do not survive ``parse_report`` -> ``render_report``
  byte for byte;
* an exit code that disagrees with the JSON verdict;
* a trace without exactly one ``FEEDBACK`` line per exchange, numbered in
  order, where the exchange count follows from the config and the control
  test's fallback flag.

Heavy noise makes some classifications wrong; that is accuracy, reported
through ``identified_ratio`` and ``confident_wrong_ratio``, not a failure.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Optional

from workloads import EXIT_CONTROL_FAILURE, VERDICT_EXIT, Op, OpOutput


@dataclass
class Verdict:
    """Outcome of checking one op."""

    failure: Optional[str] = None
    classified: bool = False
    identified: bool = False
    confident_wrong: bool = False


class Oracle:
    """Clean-path classification of a config's egress, from its probe-row signature."""

    def __init__(self, pkg):
        self.pkg = pkg
        self._cache: Dict[tuple, tuple] = {}

    def expected(self, op: Op, capability: str) -> tuple:
        """(kind, sorted class names) a clean path must produce."""
        key = (op.config.egress, capability)
        if key not in self._cache:
            tunnels = self.pkg.tunnels
            cap = tunnels.Capability(capability)
            policy = self.pkg.simnet.build_scenario(op.config).egress
            signature = tunnels.signature_of_policy(policy, cap)
            matches = sorted(
                c.json_name for c in tunnels.CONFORMANT_CLASSES
                if tunnels.reference_signature(c, cap) == signature
            )
            kind = "mangled" if not matches else "single" if len(matches) == 1 else "ambiguous"
            self._cache[key] = (kind, tuple(matches))
        return self._cache[key]


def check(pkg, oracle: Oracle, op: Op, out: OpOutput) -> Verdict:
    try:
        return _check(pkg, oracle, op, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return Verdict(f"malformed output: {exc!r}")


def _check(pkg, oracle: Oracle, op: Op, out: OpOutput) -> Verdict:
    if out.error is not None:
        return Verdict(f"exception: {out.error}")
    code = out.exit_code
    if code not in (0, 1, 2, EXIT_CONTROL_FAILURE):
        return Verdict(f"exit code {code}: {out.stderr[-200:]!r}")
    if code == EXIT_CONTROL_FAILURE:
        if out.json is not None or out.trace is not None:
            return Verdict("control failure still wrote a report or trace")
        return Verdict()
    if op.dead:
        return Verdict(f"dead path exited {code}, expected {EXIT_CONTROL_FAILURE}")
    if out.json is None or out.trace is None:
        return Verdict("no JSON report or trace written")

    report = pkg.report
    if report.render_report(report.parse_report(out.json), "json") != out.json:
        return Verdict("JSON report does not survive parse_report -> render_report")
    obj = json.loads(out.json)
    if VERDICT_EXIT.get(obj["verdict"]) != code:
        return Verdict(f"exit code {code} disagrees with verdict {obj['verdict']}")

    config = op.config
    rows = 4 if config.capability == "full" else 3
    if len(obj["observations"]) != rows:
        return Verdict(f"{len(obj['observations'])} observations, expected {rows}")
    per_phase = config.servers * config.repetitions
    control_passes = 2 if obj["control"]["overwrite_fallback_enabled"] else 1
    expected_exchanges = 4 * per_phase * control_passes + rows * per_phase
    feedback_lines = [
        line.split(" ", 2)[0] for line in out.trace.decode().splitlines()
        if line.split(" ", 2)[1] == "FEEDBACK"
    ]
    if feedback_lines != [str(i) for i in range(expected_exchanges)]:
        return Verdict(f"{len(feedback_lines)} FEEDBACK lines, expected {expected_exchanges}")

    observed = (obj["classification"]["result"], tuple(sorted(obj["classification"]["classes"])))
    if op.clean and observed != oracle.expected(op, config.capability):
        return Verdict(f"clean path classified {observed}, expected "
                       f"{oracle.expected(op, config.capability)}")

    truth_kind, truth = oracle.expected(op, "full")
    if truth_kind == "mangled":
        identified = observed[0] == "mangled"
    else:
        identified = truth[0] in observed[1] and (
            config.capability != "full" or observed[0] == "single")
    any_ambiguous = any(o["ambiguous"] for o in obj["observations"])
    return Verdict(None, True, identified, not identified and not any_ambiguous)


class Tally:
    """Failures over every op; accuracy and digest over the fixed prefix."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failures = []
        self.classified = 0
        self.identified = 0
        self.confident_wrong = 0
        self._digest = hashlib.sha256()

    def add(self, op: Op, out: OpOutput, verdict: Verdict, in_prefix: bool) -> None:
        self.attempted += 1
        if verdict.failure is not None:
            self.failed += 1
            if len(self.first_failures) < 5:
                self.first_failures.append(f"{op.key}: {verdict.failure}")
        if not in_prefix:
            return
        self.classified += verdict.classified
        self.identified += verdict.identified
        self.confident_wrong += verdict.confident_wrong
        digest = self._digest
        for part in (op.key.encode(), str(out.exit_code).encode(), out.json or b"",
                     out.trace or b"", out.stdout, out.stderr):
            digest.update(len(part).to_bytes(8, "big"))
            digest.update(part)

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def ratio(self, count: int) -> float:
        return count / self.classified if self.classified else 0.0
