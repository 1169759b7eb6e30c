"""Probe reports: assembly, JSON serialization and text rendering.

The JSON form is schema-versioned and canonical: the bytes that
``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` writes for the report's
document (sorted keys, two-space indent, ASCII with ``\\uXXXX`` escapes, a
trailing newline), so a parsed report re-serializes byte for byte.  Schema
1's layout is fixed, so the writer fills a template laid out once, at
import, as json.dumps lays it out, with each leaf encoded as json.dumps
encodes it.  Writing a report loads neither ``json`` nor its C
accelerator: only a string leaf that needs escaping (a ``custom:`` egress
with a tab, say) or a leaf type the program never writes does, and so does
:func:`parse_report`, whose reader loads on its first call.  Keys are
lower_snake_case, enumerations appear as their names, counts as integers.
The text report's constant columns and blocks are likewise built at import.
"""

from typing import Dict, FrozenSet, List, NamedTuple

from ._version import __version__
from .ecn import CODEPOINT_BY_NAME, CODEPOINTS
from .engine import (
    ClassificationKind,
    ControlReport,
    ProbeObservation,
    ProbeSessionResult,
    PropagationVerdict,
    interpret,
)
from .simnet import ScenarioConfig
from .tunnels import (
    CONFORMANT_CLASSES,
    Capability,
    DecapBehaviorClass,
    OUTCOME_BY_NAME,
    OUTCOME_LABEL,
    OUTCOME_NAME,
    OUTCOME_ORDER,
    PROBE_ROWS,
    REFERENCE_SIGNATURES,
    Store,
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
    classification: FrozenSet[DecapBehaviorClass]
    config: ScenarioConfig
    version: str = __version__

    @property
    def verdict(self) -> PropagationVerdict:
        return interpret(self.classification)


def build_report(result: ProbeSessionResult, config: ScenarioConfig) -> ProbeReport:
    """Assemble the report for a finished session, echoing the effective config."""
    return ProbeReport(result.control, result.observations, result.classification, config)


# ---------------------------------------------------------------------------
# JSON


def _leaf(value) -> str:
    """json.dumps(value), written here, by exact type, for a bool, an int, a
    finite float and a printable ASCII string without ``"`` or ``\\``, which
    json.dumps does not escape; json loads only for any other leaf."""
    kind = type(value)
    if kind is str:
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return '"' + value + '"'
    elif kind is bool:
        return "true" if value else "false"
    elif kind is int or (kind is float and value - value == 0.0):
        return repr(value)
    import json

    return json.dumps(value)


def _layout(skeleton, indent: str) -> str:
    """What json.dumps(indent=2, sort_keys=True) writes for ``skeleton``, a
    leaf or a non-empty dict of them, nested at ``indent``, with each "%s"
    string made a format slot."""
    if type(skeleton) is not dict:
        return "%s" if skeleton == "%s" else _leaf(skeleton)
    inner = indent + "  "
    items = [f"{inner}{_leaf(key)}: {_layout(skeleton[key], inner)}" for key in sorted(skeleton)]
    return "{\n" + ",\n".join(items) + "\n" + indent + "}"


# Schema 1, one %s slot per value; the keys, and so the slots, are in sorted order.
_REPORT_SKELETON = {
    "capability": "%s",
    "classification": {
        "classes": "%s",
        "result": "%s",
    },
    "config": dict.fromkeys(ScenarioConfig._fields, "%s"),
    "control": {
        "codepoints": dict.fromkeys(CODEPOINT_BY_NAME, {
            "feedback_matches": "%s",
            "outer_matches_initial": "%s",
        }),
        "ingress_copies": "%s",
        "overwrite_fallback_enabled": "%s",
    },
    "observations": "%s",
    "repetitions": "%s",
    "schema": SCHEMA_VERSION,
    "seed": "%s",
    "tool": {
        "name": "ecnprobe",
        "version": "%s",
    },
    "verdict": "%s",
}
_OBSERVATION_SKELETON = dict.fromkeys(("ambiguous", "consensus", "initial", "outer_set", "row", "votes"), "%s")
_REPORT_JSON = _layout(_REPORT_SKELETON, "") + "\n"
_OBSERVATION_JSON = "\n    " + _layout(_OBSERVATION_SKELETON, "    ")
# The config fields and control codepoints in key order; each outcome's vote
# key and value text; each probe row's initial and outer-set values.
_CONFIG_ORDER = sorted(range(len(ScenarioConfig._fields)), key=ScenarioConfig._fields.__getitem__)
_CONTROL_ORDER = [cp for _, cp in sorted(CODEPOINT_BY_NAME.items())]
_VOTE_KEYS = [(f'\n        "{name}": ', o) for name, o in sorted(OUTCOME_BY_NAME.items())]
_OUTCOME_JSON = {o: f'"{name}"' for o, name in OUTCOME_NAME.items()}
_PROBE_JSON = [(f'"{initial.json_name}"', f'"{outer.json_name}"') for initial, outer in PROBE_ROWS]
# The section memo: each section that depends on one part of a report only, by its renderer and that part,
# so that it is rendered once per distinct part.
_SECTIONS = Store(lambda key: key[0](*key[1:]), 1024)


def _json_list(items: List[str], indent: str) -> str:
    return "[" + ",".join(items) + "\n" + indent + "]" if items else "[]"


def _section(render, *part):
    try:
        return _SECTIONS[(render, *part)]
    except TypeError:  # a part that cannot be hashed (a hand-built report with plain sets, say)
        return render(*part)


def _control_json(control: ControlReport) -> tuple:
    flags = [_leaf(cp in cps) for cp in _CONTROL_ORDER for cps in (control.reflected, control.copied)]
    return (*flags, _leaf(control.ingress_copies), _leaf(control.overwrite_fallback_enabled))


def _classification_json(classification: FrozenSet[DecapBehaviorClass]) -> tuple:
    classes = [f'\n      "{c.json_name}"' for c in sorted(classification, key=CONFORMANT_CLASSES.index)]
    kind, verdict = ClassificationKind.of(classification), interpret(classification)
    return _json_list(classes, "    "), _leaf(kind.value), _leaf(verdict.value)


def _json_text(report: ProbeReport) -> str:
    observations = []
    for row, obs in enumerate(report.observations):
        votes = ",".join([key + _leaf(obs.votes[o]) for key, o in _VOTE_KEYS if o in obs.votes])
        initial, outer_set = _PROBE_JSON[row]
        observations.append(_OBSERVATION_JSON % (
            _leaf(obs.ambiguous),
            _OUTCOME_JSON[obs.consensus],
            initial,
            outer_set,
            _leaf(row),
            "{%s\n      }" % votes,
        ))
    classes, kind, verdict = _section(_classification_json, report.classification)
    config = report.config
    return _REPORT_JSON % (
        _leaf(config.capability),
        classes,
        kind,
        *[_leaf(config[i]) for i in _CONFIG_ORDER],
        *_section(_control_json, report.control),
        _json_list(observations, "  "),
        _leaf(config.repetitions),
        _leaf(config.seed),
        _leaf(report.version),
        verdict,
    )


def render_report(report: ProbeReport, format: str = "text") -> bytes:
    """Serialize a report; ``format`` is ``text`` or ``json``."""
    if format == "json":
        return _json_text(report).encode()
    if format == "text":
        return _render_text(report).encode()
    raise ValueError(f"unknown report format {format!r}")


def parse_report(data: bytes) -> ProbeReport:
    """Inverse of ``render_report(..., "json")``.

    Any malformed document, or data not bytes, raises ValueError saying what was wrong.
    """
    # Imported here: a probe never reads a report back, and the reader needs json.
    from ._parse import parse

    return parse(data)


# ---------------------------------------------------------------------------
# Text rendering

# The constant text, by capability where it depends on the probed rows.  A
# signature line is "  initial outer -> outcome"; SIGNATURE_TEXT holds each
# class's reference lines, which the ``tables`` command prints too.
_SIGNATURE_HEADS = {cap: [f"  {i.label} {o.label} -> " for i, o in probe_rows(cap)] for cap in Capability}


def _signature_lines(capability: Capability, labels: List[str]) -> List[str]:
    return [head + label for head, label in zip(_SIGNATURE_HEADS[capability], labels)]


SIGNATURE_TEXT: Dict[Capability, Dict[DecapBehaviorClass, str]] = {
    cap: {
        c: "\n".join(_signature_lines(cap, [OUTCOME_LABEL[outcome] for outcome in signature]))
        for c, signature in signatures.items()
    }
    for cap, signatures in REFERENCE_SIGNATURES.items()
}
_MATCHED_BLOCKS = {
    cap: {c: f"\nMatched signature {c.display}:\n{text}" for c, text in texts.items()}
    for cap, texts in SIGNATURE_TEXT.items()
}
_INTERPRETATION_HEAD = "  initial   outer-set  | " + "  ".join(
    f"{c.display:<8}" for c in CONFORMANT_CLASSES
) + "| observed"
# Each probed row's reference cells, up to the observed column.
_INTERPRETATION_ROWS = {
    cap: [
        f"  {initial.label:<9} {outer.label:<10} | "
        + "  ".join(f"{OUTCOME_LABEL[signatures[c][n]]:<8}" for c in CONFORMANT_CLASSES)
        + "| "
        for n, (initial, outer) in enumerate(probe_rows(cap))
    ]
    for cap, signatures in REFERENCE_SIGNATURES.items()
}
# Main-test row heads by row index; control-test row heads and syn-ack flags by codepoint.
_ROW_HEADS = [f"  {n + 1:<4} {i.label:<9} {o.label:<10} " for n, (i, o) in enumerate(PROBE_ROWS)]
_CONTROL_HEADS = {cp: f"  {cp.label:<9} " for cp in CODEPOINTS}
# The syn-ack flags are feedback.wireshark_string(feedback.encode_handshake(cp)).
_SYNACK_FLAGS = dict(zip(CODEPOINTS, (".C.", ".CE", "A..", "AC.")))
_VOTE_NAMES = [(o, OUTCOME_NAME[o] + ":") for o in OUTCOME_ORDER]
# The head and the Configuration block, one slot for the version and one per config field.
_CONFIGURATION_TEXT = f"ecnprobe %s probe report (schema {SCHEMA_VERSION})\n\nConfiguration\n" + "".join(
    f"  {key} = %s\n" for key in ScenarioConfig._fields
) + "\n"


def _control_flag_lines(control: ControlReport) -> List[str]:
    return [
        f"  ingress copies ECN to outer: {_yesno(control.ingress_copies)}",
        f"  overwrite fallback enabled: {_yesno(control.overwrite_fallback_enabled)}",
    ]


def _control_text(control: ControlReport) -> str:
    lines = ["Control test", "  initial   outer==initial  feedback==initial  syn-ack flags"]
    for cp in CODEPOINTS:
        lines.append(
            f"{_CONTROL_HEADS[cp]}{_yesno(cp in control.copied):<15} "
            f"{_yesno(cp in control.reflected):<18} {_SYNACK_FLAGS[cp]}"
        )
    lines += _control_flag_lines(control)
    lines += [f"  warning: feedback never reflected {cp.label}; probes sending it may be unreliable"
              for cp in CODEPOINTS if cp not in control.reflected]
    return "\n".join(lines) + "\n\n"


def _interpretation_text(capability: Capability, consensus: tuple, classes: FrozenSet[DecapBehaviorClass]) -> str:
    seen = [OUTCOME_LABEL[outcome] for outcome in consensus]
    lines = ["Interpretation", _INTERPRETATION_HEAD]
    lines += [cells + label for cells, label in zip(_INTERPRETATION_ROWS[capability], seen)]
    matched = sorted(classes, key=CONFORMANT_CLASSES.index)
    names = ", ".join(c.display for c in matched)
    if matched:
        lines.append("  matched columns: " + names)
        lines += [_MATCHED_BLOCKS[capability][c] for c in matched]
    else:
        lines += ["  matched columns: none (mangled)", "", "Observed signature (matches no known behaviour):"]
        lines += _signature_lines(capability, seen)
    kind, verdict = ClassificationKind.of(classes), interpret(classes)
    lines += ["", f"classification: {kind.value}" + (f" ({names})" if matched else ""), f"verdict: {verdict.value}\n"]
    return "\n".join(lines)


def _render_text(report: ProbeReport) -> str:
    config = report.config
    capability = Capability(config.capability)
    lines = [f"Main test (capability {capability.value}, {config.repetitions} repetitions per server)"]
    lines.append("  row  initial   outer-set  consensus  ambiguous  votes")
    for row, obs in enumerate(report.observations):
        votes = " ".join([name + str(obs.votes[o]) for o, name in _VOTE_NAMES if o in obs.votes])
        lines.append(f"{_ROW_HEADS[row]}{OUTCOME_LABEL[obs.consensus]:<10} {_yesno(obs.ambiguous):<10} {votes}")
        if obs.ambiguous:
            lines.append(f"       warning: no strict majority on row {row + 1}")
    consensus = tuple([obs.consensus for obs in report.observations])
    return (
        _CONFIGURATION_TEXT % (report.version, *config) + _section(_control_text, report.control)
        + "\n".join(lines) + "\n\n" + _section(_interpretation_text, capability, consensus, report.classification)
    )


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def render_control_failure(report: ControlReport) -> str:
    """Diagnostics for a control test that found the path unusable."""
    lines = ["control test failed: no probed codepoint was ever reflected in feedback"]
    for cp in CODEPOINTS:
        lines.append(
            f"{_CONTROL_HEADS[cp]}outer==initial: {_yesno(cp in report.copied):<4}"
            f" feedback==initial: {_yesno(cp in report.reflected)}"
        )
    lines += _control_flag_lines(report)
    return "\n".join(lines) + "\n"

