"""Probe reports: assembly, JSON serialization and text rendering.

The JSON form is schema-versioned and canonical (sorted keys, two-space
indent, trailing newline), so identical probe runs serialize to identical
bytes and a parsed report re-serializes byte for byte.  Keys are
lower_snake_case, enumerations appear as their names, counts as integers.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple

from ._version import __version__
from .ecn import CODEPOINT_BY_NAME, CODEPOINTS, EcnCodepoint
from .engine import (
    Classification,
    CodepointControl,
    ControlReport,
    ProbeObservation,
    ProbeSessionResult,
    PropagationVerdict,
    aggregate,
    classify,
    interpret,
)
from .feedback import encode_handshake, wireshark_string
from .simnet import CONFIG_TYPES, ConfigError, ScenarioConfig, build_scenario
from .tunnels import (
    CONFORMANT_CLASSES,
    Capability,
    OUTCOME_BY_NAME,
    OUTCOME_LABEL,
    OUTCOME_NAME,
    OUTCOME_ORDER,
    REFERENCE_SIGNATURES,
    probe_rows,
)

SCHEMA_VERSION = 1


class ProbeReport(NamedTuple):
    """Everything one probe run produced, plus the config that reruns it.

    The verdict follows from the classification; the capability, seed and
    repetitions are the config's.
    """

    control: ControlReport
    observations: List[ProbeObservation]
    classification: Classification
    config: ScenarioConfig
    version: str = __version__

    @property
    def verdict(self) -> PropagationVerdict:
        return interpret(self.classification)

    @property
    def capability(self) -> Capability:
        return Capability(self.config.capability)

    @property
    def repetitions(self) -> int:
        return self.config.repetitions

    @property
    def seed(self) -> int:
        return self.config.seed


def build_report(result: ProbeSessionResult, config: ScenarioConfig) -> ProbeReport:
    """Assemble the report for a finished session, echoing the effective config."""
    return ProbeReport(result.control, result.observations, result.classification, config)


# ---------------------------------------------------------------------------
# JSON


def report_to_obj(report: ProbeReport) -> Dict[str, object]:
    aggregated = [aggregate(obs.votes) for obs in report.observations]
    return {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "ecnprobe", "version": report.version},
        "seed": report.seed,
        "capability": report.capability.value,
        "repetitions": report.repetitions,
        "config": report.config._asdict(),
        "control": {
            "ingress_copies": report.control.ingress_copies,
            "overwrite_fallback_enabled": report.control.overwrite_fallback_enabled,
            "codepoints": {
                cp.json_name: {
                    "feedback_matches": res.feedback_matches,
                    "outer_matches_initial": res.outer_matches_initial,
                }
                for cp, res in report.control.results.items()
            },
        },
        "observations": [
            {
                "row": obs.row,
                "initial": obs.initial.json_name,
                "outer_set": obs.outer_set.json_name,
                "consensus": OUTCOME_NAME[consensus],
                "ambiguous": ambiguous,
                "votes": {OUTCOME_NAME[outcome]: count for outcome, count in obs.votes.items()},
            }
            for obs, (consensus, ambiguous) in zip(report.observations, aggregated)
        ],
        "classification": {
            "result": report.classification.kind.value,
            "classes": [
                c.json_name
                for c in sorted(report.classification.classes, key=CONFORMANT_CLASSES.index)
            ],
        },
        "verdict": report.verdict.value,
    }


def _typed(obj, key: str, kind: type, where: str = ""):
    """``obj[key]``, which must be exactly a ``kind`` (a bool is no int here);
    ``where`` prefixes the key to name the field in the error."""
    value = obj[key]
    if type(value) is not kind:
        raise ValueError(f"malformed report: {where}{key} must be {kind.__name__}, got {value!r}")
    return value


def _check_restated(want, got, where: str = "") -> None:
    """Raise ValueError at the first key where the document ``got`` differs
    from ``want``, in type too (a bool is no int), naming the key."""
    if type(want) is dict and type(got) is dict:
        for key in sorted(want.keys() | got.keys()):
            path = f"{where}.{key}" if where else key
            if key not in want or key not in got:
                raise ValueError(f"malformed report: {path} is {'missing' if key in want else 'unknown'}")
            _check_restated(want[key], got[key], path)
    elif type(want) is list and type(got) is list and len(want) == len(got):
        for i, (w, g) in enumerate(zip(want, got)):
            _check_restated(w, g, f"{where}[{i}]")
    elif type(want) is not type(got) or want != got:
        raise ValueError(f"malformed report: {where} must be {want!r}, got {got!r}")


def report_from_obj(obj: Dict[str, object]) -> ProbeReport:
    """Rebuild a report from the facts its document holds: the config, the
    control results, each row's votes and the tool version.  Every other key
    restates these and must be what :func:`report_to_obj` writes for them."""
    if obj.get("schema") != SCHEMA_VERSION or type(obj["schema"]) is not int:
        raise ValueError(f"unsupported report schema {obj.get('schema')!r}")
    config_obj = _typed(obj, "config", dict)
    config = ScenarioConfig(**{key: _typed(config_obj, key, kind, "config.") for key, kind in CONFIG_TYPES.items()})
    try:
        build_scenario(config)
    except ConfigError as exc:
        raise ValueError(f"malformed report: config: {exc}") from None
    capability = Capability(config.capability)

    codepoints = _typed(obj["control"], "codepoints", dict, "control.")
    control = ControlReport({
        CODEPOINT_BY_NAME[name]: CodepointControl(
            feedback_matches=_typed(entry, "feedback_matches", bool, f"control.codepoints.{name}."),
            outer_matches_initial=_typed(entry, "outer_matches_initial", bool, f"control.codepoints.{name}."),
        )
        for name, entry in codepoints.items()
    })
    if len(control.results) != len(CODEPOINTS):
        raise ValueError("malformed report: control.codepoints must hold all four codepoints")
    if not control.usable:
        raise ValueError("malformed report: control.codepoints: no feedback matched, a control failure")

    rows = probe_rows(capability)
    entries = _typed(obj, "observations", list)
    if len(entries) != len(rows):
        raise ValueError(f"malformed report: capability {capability.value} needs {len(rows)} observations")
    probes = config.servers * config.repetitions
    observations = []
    for i, entry in enumerate(entries):
        where = f"observations[{i}].votes"
        votes = {OUTCOME_BY_NAME[name]: _typed(entry["votes"], name, int, where + ".") for name in entry["votes"]}
        if sum(votes.values()) != probes or min(votes.values()) < 1:
            raise ValueError(f"malformed report: {where} must be positive counts totalling {probes}")
        observations.append(ProbeObservation(i, votes))

    version = _typed(obj["tool"], "version", str, "tool.")
    report = ProbeReport(control, observations, classify(observations, capability), config, version)
    _check_restated(report_to_obj(report), obj)
    return report


def render_report(report: ProbeReport, format: str = "text") -> bytes:
    """Serialize a report; ``format`` is ``text`` or ``json``."""
    if format == "json":
        text = json.dumps(report_to_obj(report), indent=2, sort_keys=True) + "\n"
        return text.encode()
    if format == "text":
        return _render_text(report).encode()
    raise ValueError(f"unknown report format {format!r}")


def parse_report(data: bytes) -> ProbeReport:
    """Inverse of ``render_report(..., "json")``.

    Any malformed document raises ValueError saying what was wrong.
    """
    try:
        obj = json.loads(data.decode())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"report is not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"report is not a JSON object: {type(obj).__name__}")
    try:
        return report_from_obj(obj)
    except KeyError as exc:
        raise ValueError(f"malformed report: missing key or unknown name {exc.args[0]!r}") from None
    except (AttributeError, TypeError) as exc:
        raise ValueError(f"malformed report: a field has the wrong type ({exc})") from None


# ---------------------------------------------------------------------------
# Text rendering


def _signature_lines(rows, outcomes) -> List[str]:
    return [
        f"{initial} {outer} -> {OUTCOME_LABEL[outcome]}"
        for (initial, outer), outcome in zip(rows, outcomes)
    ]


def _votes_text(obs: ProbeObservation) -> str:
    votes = obs.votes
    return " ".join(f"{OUTCOME_NAME[outcome]}:{votes[outcome]}" for outcome in OUTCOME_ORDER if outcome in votes)


def _control_flag_lines(control: ControlReport) -> List[str]:
    return [
        f"  ingress copies ECN to outer: {_yesno(control.ingress_copies)}",
        f"  overwrite fallback enabled: {_yesno(control.overwrite_fallback_enabled)}",
    ]


def _render_text(report: ProbeReport) -> str:
    capability = report.capability
    rows = probe_rows(capability)
    aggregated = [aggregate(obs.votes) for obs in report.observations]
    lines: List[str] = []
    add = lines.append

    add(f"ecnprobe {report.version} probe report (schema {SCHEMA_VERSION})")
    add("")
    add("Configuration")
    for key, value in report.config._asdict().items():
        add(f"  {key} = {value}")
    add("")

    add("Control test")
    add("  initial   outer==initial  feedback==initial  syn-ack flags")
    for cp in EcnCodepoint:
        res = report.control.results[cp]
        flags = wireshark_string(encode_handshake(cp))
        add(
            f"  {cp.label:<9} {_yesno(res.outer_matches_initial):<15} "
            f"{_yesno(res.feedback_matches):<18} {flags}"
        )
    lines += _control_flag_lines(report.control)
    for cp in report.control.failed_codepoints:
        add(f"  warning: feedback never reflected {cp.label}; probes sending it may be unreliable")
    add("")

    add(
        f"Main test (capability {capability.value}, "
        f"{report.repetitions} repetitions per server)"
    )
    add("  row  initial   outer-set  consensus  ambiguous  votes")
    for obs, (consensus, ambiguous) in zip(report.observations, aggregated):
        add(
            f"  {obs.row + 1:<4} {obs.initial.label:<9} {obs.outer_set.label:<10} "
            f"{OUTCOME_LABEL[consensus]:<10} {_yesno(ambiguous):<10} {_votes_text(obs)}"
        )
        if ambiguous:
            add(f"       warning: no strict majority on row {obs.row + 1}")
    add("")

    add("Interpretation")
    header = "  initial   outer-set  | " + "  ".join(
        f"{c.display:<8}" for c in CONFORMANT_CLASSES
    ) + "| observed"
    add(header)
    full_signatures = REFERENCE_SIGNATURES[Capability.FULL]
    for row_index, ((initial, outer), (seen, _)) in enumerate(zip(rows, aggregated)):
        cells = "  ".join(
            f"{OUTCOME_LABEL[full_signatures[c][row_index]]:<8}" for c in CONFORMANT_CLASSES
        )
        add(f"  {initial.label:<9} {outer.label:<10} | {cells}| {OUTCOME_LABEL[seen]}")

    matched = sorted(report.classification.classes, key=CONFORMANT_CLASSES.index)
    if matched:
        add("  matched columns: " + ", ".join(c.display for c in matched))
        for c in matched:
            add("")
            add(f"Matched signature {c.display}:")
            for line in _signature_lines(rows, REFERENCE_SIGNATURES[capability][c]):
                add(f"  {line}")
    else:
        add("  matched columns: none (mangled)")
        add("")
        add("Observed signature (matches no known behaviour):")
        for line in _signature_lines(rows, [consensus for consensus, _ in aggregated]):
            add(f"  {line}")
    add("")

    names = ", ".join(c.display for c in matched)
    add(f"classification: {report.classification.kind.value}" + (f" ({names})" if matched else ""))
    add(f"verdict: {report.verdict.value}")
    add("")
    return "\n".join(lines)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def render_control_failure(report: ControlReport) -> str:
    """Diagnostics for a control test that found the path unusable."""
    lines = ["control test failed: no probed codepoint was ever reflected in feedback"]
    for cp in EcnCodepoint:
        res = report.results[cp]
        lines.append(
            f"  {cp.label:<9} outer==initial: {_yesno(res.outer_matches_initial):<4}"
            f" feedback==initial: {_yesno(res.feedback_matches)}"
        )
    lines += _control_flag_lines(report)
    return "\n".join(lines) + "\n"
