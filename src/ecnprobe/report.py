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
from .ecn import CODEPOINT_BY_NAME, EcnCodepoint
from .engine import (
    Classification,
    ClassificationKind,
    CodepointControl,
    ControlReport,
    ProbeObservation,
    ProbeSessionResult,
    PropagationVerdict,
)
from .feedback import encode_handshake, wireshark_string
from .simnet import ScenarioConfig
from .tunnels import (
    CONFORMANT_CLASSES,
    DecapBehaviorClass,
    Capability,
    OUTCOME_BY_NAME,
    REFERENCE_SIGNATURES,
    outcome_sort_key,
    probe_rows,
)

SCHEMA_VERSION = 1


class ProbeReport(NamedTuple):
    """Everything one probe run produced, plus enough metadata to rerun it."""

    control: ControlReport
    observations: List[ProbeObservation]
    classification: Classification
    verdict: PropagationVerdict
    capability: Capability
    repetitions: int
    seed: int
    config: Dict[str, object]
    version: str = __version__


def build_report(result: ProbeSessionResult, config: ScenarioConfig) -> ProbeReport:
    """Assemble the report for a finished session, echoing the effective config."""
    return ProbeReport(
        control=result.control,
        observations=result.observations,
        classification=result.classification,
        verdict=result.verdict,
        capability=Capability(config.capability),
        repetitions=config.repetitions,
        seed=config.seed,
        config=config._asdict(),
    )


# ---------------------------------------------------------------------------
# JSON


def report_to_obj(report: ProbeReport) -> Dict[str, object]:
    return {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "ecnprobe", "version": report.version},
        "seed": report.seed,
        "capability": report.capability.value,
        "repetitions": report.repetitions,
        "config": dict(report.config),
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
                "consensus": obs.consensus.json_name,
                "ambiguous": obs.ambiguous,
                "votes": {outcome.json_name: count for outcome, count in obs.votes.items()},
            }
            for obs in report.observations
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


def report_from_obj(obj: Dict[str, object]) -> ProbeReport:
    if obj.get("schema") != SCHEMA_VERSION or type(obj["schema"]) is not int:
        raise ValueError(f"unsupported report schema {obj.get('schema')!r}")
    control_obj = obj["control"]
    control = ControlReport(
        results={
            CODEPOINT_BY_NAME[name]: CodepointControl(
                feedback_matches=_typed(entry, "feedback_matches", bool, f"control.codepoints.{name}."),
                outer_matches_initial=_typed(entry, "outer_matches_initial", bool, f"control.codepoints.{name}."),
            )
            for name, entry in control_obj["codepoints"].items()
        },
        ingress_copies=_typed(control_obj, "ingress_copies", bool, "control."),
        overwrite_fallback_enabled=_typed(control_obj, "overwrite_fallback_enabled", bool, "control."),
    )
    observations = [
        ProbeObservation(
            row=_typed(entry, "row", int, f"observations[{i}]."),
            initial=CODEPOINT_BY_NAME[entry["initial"]],
            outer_set=CODEPOINT_BY_NAME[entry["outer_set"]],
            consensus=OUTCOME_BY_NAME[entry["consensus"]],
            votes={
                OUTCOME_BY_NAME[name]: _typed(entry["votes"], name, int, f"observations[{i}].votes.")
                for name in entry["votes"]
            },
            ambiguous=_typed(entry, "ambiguous", bool, f"observations[{i}]."),
        )
        for i, entry in enumerate(obj["observations"])
    ]
    cls_obj = obj["classification"]
    classification = Classification(
        kind=ClassificationKind(cls_obj["result"]),
        classes=frozenset(DecapBehaviorClass(n) for n in cls_obj["classes"]),
    )
    return ProbeReport(
        control=control,
        observations=observations,
        classification=classification,
        verdict=PropagationVerdict(obj["verdict"]),
        capability=Capability(obj["capability"]),
        repetitions=_typed(obj, "repetitions", int),
        seed=_typed(obj, "seed", int),
        config=dict(obj["config"]),
        version=obj["tool"]["version"],
    )


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
        f"{initial} {outer} -> {outcome}"
        for (initial, outer), outcome in zip(rows, outcomes)
    ]


def _votes_text(obs: ProbeObservation) -> str:
    ordered = sorted(obs.votes.items(), key=lambda kv: outcome_sort_key(kv[0]))
    return " ".join(f"{outcome.json_name}:{count}" for outcome, count in ordered)


def _render_text(report: ProbeReport) -> str:
    rows = probe_rows(report.capability)
    lines: List[str] = []
    add = lines.append

    add(f"ecnprobe {report.version} probe report (schema {SCHEMA_VERSION})")
    add("")
    add("Configuration")
    for key in ScenarioConfig._fields:
        add(f"  {key} = {report.config.get(key)}")
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
    add(f"  ingress copies ECN to outer: {_yesno(report.control.ingress_copies)}")
    add(f"  overwrite fallback enabled: {_yesno(report.control.overwrite_fallback_enabled)}")
    for cp in report.control.failed_codepoints:
        add(f"  warning: feedback never reflected {cp.label}; probes sending it may be unreliable")
    add("")

    add(
        f"Main test (capability {report.capability.value}, "
        f"{report.repetitions} repetitions per server)"
    )
    add("  row  initial   outer-set  consensus  ambiguous  votes")
    for obs in report.observations:
        add(
            f"  {obs.row + 1:<4} {obs.initial.label:<9} {obs.outer_set.label:<10} "
            f"{obs.consensus.label:<10} {_yesno(obs.ambiguous):<10} {_votes_text(obs)}"
        )
        if obs.ambiguous:
            add(f"       warning: no strict majority on row {obs.row + 1}")
    add("")

    add("Interpretation")
    header = "  initial   outer-set  | " + "  ".join(
        f"{c.display:<8}" for c in CONFORMANT_CLASSES
    ) + "| observed"
    add(header)
    observed = {obs.row: obs.consensus for obs in report.observations}
    full_signatures = REFERENCE_SIGNATURES[Capability.FULL]
    for row_index, (initial, outer) in enumerate(rows):
        cells = "  ".join(
            f"{full_signatures[c][row_index].label:<8}" for c in CONFORMANT_CLASSES
        )
        seen = observed.get(row_index)
        add(f"  {initial.label:<9} {outer.label:<10} | {cells}| {seen.label if seen else '-'}")

    matched = sorted(report.classification.classes, key=CONFORMANT_CLASSES.index)
    if matched:
        add("  matched columns: " + ", ".join(c.display for c in matched))
        for c in matched:
            add("")
            add(f"Matched signature {c.display}:")
            for line in _signature_lines(rows, REFERENCE_SIGNATURES[report.capability][c]):
                add(f"  {line}")
    else:
        add("  matched columns: none (mangled)")
        add("")
        add("Observed signature (matches no known behaviour):")
        for line in _signature_lines(rows, tuple(obs.consensus for obs in report.observations)):
            add(f"  {line}")
    add("")

    if report.classification.kind is ClassificationKind.SINGLE:
        add(f"classification: single ({report.classification.single_class.display})")
    elif report.classification.kind is ClassificationKind.AMBIGUOUS:
        names = ", ".join(c.display for c in matched)
        add(f"classification: ambiguous ({names})")
    else:
        add("classification: mangled")
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
    lines.append(f"  ingress copies ECN to outer: {_yesno(report.ingress_copies)}")
    lines.append(f"  overwrite fallback enabled: {_yesno(report.overwrite_fallback_enabled)}")
    return "\n".join(lines) + "\n"
