"""Probe reports: assembly, JSON serialization and text rendering.

The JSON form is schema-versioned and canonical: the bytes that
``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` writes for the report's
document (sorted keys, two-space indent, ASCII with ``\\uXXXX`` escapes, a
trailing newline), so a parsed report re-serializes byte for byte.  Schema
1's layout is fixed, so the writer fills a template that json.dumps laid out
once, at import, with each leaf encoded as json.dumps encodes it.  Keys are
lower_snake_case, enumerations appear as their names, counts as integers.
The text report's constant columns and blocks are likewise built at import.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Dict, FrozenSet, List, NamedTuple

from ._version import __version__
from .ecn import CODEPOINT_BY_NAME, CODEPOINTS
from .engine import (
    ClassificationKind,
    ControlReport,
    ProbeObservation,
    ProbeSessionResult,
    PropagationVerdict,
    aggregate,
    classify,
    interpret,
)
from .feedback import encode_handshake, wireshark_string
from .simnet import ConfigError, ScenarioConfig, build_scenario
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


# A leaf's text as json.dumps writes it, by exact type (a bool is no int
# here); any other type, and a non-finite float, goes through json.dumps.
_LEAF_TEXT = {
    str: encode_basestring_ascii,
    bool: {True: "true", False: "false"}.__getitem__,
    int: int.__repr__,
    float: lambda value: float.__repr__(value) if value - value == 0.0 else json.dumps(value),
}


def _leaf(value) -> str:
    return _LEAF_TEXT.get(type(value), json.dumps)(value)


def _layout(skeleton, depth: int) -> str:
    """What json.dumps(indent=2, sort_keys=True) writes for ``skeleton`` nested
    ``depth`` levels deep, with each "%s" string made a format slot."""
    text = json.dumps(skeleton, indent=2, sort_keys=True).replace('"%s"', "%s")
    return text.replace("\n", "\n" + "  " * depth)


# Schema 1, one %s slot per value; the keys, and so the slots, are in sorted order.
_REPORT_JSON = _layout({
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
}, 0) + "\n"
_OBSERVATION_JSON = "\n    " + _layout({
    "ambiguous": "%s",
    "consensus": "%s",
    "initial": "%s",
    "outer_set": "%s",
    "row": "%s",
    "votes": "%s",
}, 2)
# The config fields and control codepoints in key order; each outcome's vote
# key and value text; each probe row's initial and outer-set values.
_CONFIG_ORDER = sorted(range(len(ScenarioConfig._fields)), key=ScenarioConfig._fields.__getitem__)
_CONTROL_ORDER = [cp for _, cp in sorted(CODEPOINT_BY_NAME.items())]
_VOTE_KEYS = [(f'\n        "{name}": ', o) for name, o in sorted(OUTCOME_BY_NAME.items())]
_OUTCOME_JSON = {o: f'"{name}"' for o, name in OUTCOME_NAME.items()}
_PROBE_JSON = [(f'"{initial.json_name}"', f'"{outer.json_name}"') for initial, outer in PROBE_ROWS]


def _json_list(items: List[str], indent: str) -> str:
    return "[" + ",".join(items) + "\n" + indent + "]" if items else "[]"


def _json_text(report: ProbeReport) -> str:
    control = report.control
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
    classes = sorted(report.classification, key=CONFORMANT_CLASSES.index)
    flags = []
    for cp in _CONTROL_ORDER:
        flags += [_leaf(cp in control.reflected), _leaf(cp in control.copied)]
    config = report.config
    return _REPORT_JSON % (
        _leaf(config.capability),
        _json_list([f'\n      "{c.json_name}"' for c in classes], "    "),
        _leaf(ClassificationKind.of(report.classification).value),
        *[_leaf(config[i]) for i in _CONFIG_ORDER],
        *flags,
        _leaf(control.ingress_copies),
        _leaf(control.overwrite_fallback_enabled),
        _json_list(observations, "  "),
        _leaf(config.repetitions),
        _leaf(config.seed),
        _leaf(report.version),
        _leaf(report.verdict.value),
    )


def _typed(obj, key, kind: type, where: str = ""):
    """``obj[key]``, which must be exactly a ``kind`` (a bool is no int here);
    ``where`` prefixes the key, or a list index as ``[key]``, to name the
    field in the error."""
    value = obj[key]
    if type(value) is not kind:
        field = f"{where}[{key}]" if type(key) is int else where + key
        raise ValueError(f"malformed report: {field} must be {kind.__name__}, got {value!r}")
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


def _from_obj(obj: Dict[str, object]) -> ProbeReport:
    """Rebuild a report from the facts the document ``obj`` holds (the config,
    each codepoint's two control flags, each row's votes and the tool
    version), then require ``obj`` to be, key by key and in type too, what
    :func:`render_report` writes for it.  The checks made before that one
    comparison are those it cannot make: a fact of the wrong type that would
    re-render as itself, a config or vote total the writer never produces,
    and a container whose wrong type would otherwise fail unnamed."""
    if obj.get("schema") != SCHEMA_VERSION or type(obj["schema"]) is not int:
        raise ValueError(f"unsupported report schema {obj.get('schema')!r}")
    config_obj = _typed(obj, "config", dict)
    config = ScenarioConfig(**{key: config_obj[key] for key in ScenarioConfig._fields})
    try:
        build_scenario(config)
    except ConfigError as exc:
        raise ValueError(f"malformed report: config: {exc}") from None
    capability = Capability(config.capability)

    reflected, copied = set(), set()
    codepoints = _typed(_typed(obj, "control", dict), "codepoints", dict, "control.")
    for name in codepoints:
        cp = CODEPOINT_BY_NAME[name]
        entry = _typed(codepoints, name, dict, "control.codepoints.")
        if entry["feedback_matches"]:
            reflected.add(cp)
        if entry["outer_matches_initial"]:
            copied.add(cp)
    control = ControlReport(frozenset(reflected), frozenset(copied))

    probes = config.servers * config.repetitions
    observations = []
    entries = _typed(obj, "observations", list)
    for i in range(len(entries)):
        where = f"observations[{i}]"
        counts = _typed(_typed(entries, i, dict, "observations"), "votes", dict, where + ".")
        votes = {OUTCOME_BY_NAME[name]: _typed(counts, name, int, where + ".votes.") for name in counts}
        if sum(votes.values()) != probes or min(votes.values()) < 1:
            raise ValueError(f"malformed report: {where}.votes must be positive counts totalling {probes}")
        observations.append(ProbeObservation(votes, *aggregate(votes)))

    version = _typed(_typed(obj, "tool", dict), "version", str, "tool.")
    report = ProbeReport(control, observations, classify(observations, capability), config, version)
    _check_restated(json.loads(_json_text(report)), obj)
    if not reflected:
        raise ValueError("malformed report: control.codepoints: no feedback matched, a control failure")
    return report


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
    if not isinstance(data, (bytes, bytearray)):
        raise ValueError(f"report must be bytes, got {type(data).__name__}")
    try:
        obj = json.loads(data.decode())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"report is not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"report is not a JSON object: {type(obj).__name__}")
    try:
        return _from_obj(obj)
    except KeyError as exc:
        raise ValueError(f"malformed report: missing key or unknown name {exc.args[0]!r}") from None


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
_SYNACK_FLAGS = {cp: wireshark_string(encode_handshake(cp)) for cp in CODEPOINTS}
_VOTE_NAMES = [(o, OUTCOME_NAME[o] + ":") for o in OUTCOME_ORDER]


def _control_flag_lines(control: ControlReport) -> List[str]:
    return [
        f"  ingress copies ECN to outer: {_yesno(control.ingress_copies)}",
        f"  overwrite fallback enabled: {_yesno(control.overwrite_fallback_enabled)}",
    ]


def _render_text(report: ProbeReport) -> str:
    config = report.config
    capability = Capability(config.capability)
    control = report.control
    lines: List[str] = []
    add = lines.append

    add(f"ecnprobe {report.version} probe report (schema {SCHEMA_VERSION})")
    add("")
    add("Configuration")
    for key, value in zip(ScenarioConfig._fields, config):
        add(f"  {key} = {value}")
    add("")

    add("Control test")
    add("  initial   outer==initial  feedback==initial  syn-ack flags")
    for cp in CODEPOINTS:
        add(
            f"{_CONTROL_HEADS[cp]}{_yesno(cp in control.copied):<15} "
            f"{_yesno(cp in control.reflected):<18} {_SYNACK_FLAGS[cp]}"
        )
    lines += _control_flag_lines(control)
    for cp in CODEPOINTS:
        if cp not in control.reflected:
            add(f"  warning: feedback never reflected {cp.label}; probes sending it may be unreliable")
    add("")

    add(f"Main test (capability {capability.value}, {config.repetitions} repetitions per server)")
    add("  row  initial   outer-set  consensus  ambiguous  votes")
    for row, obs in enumerate(report.observations):
        votes = " ".join([name + str(obs.votes[o]) for o, name in _VOTE_NAMES if o in obs.votes])
        add(f"{_ROW_HEADS[row]}{OUTCOME_LABEL[obs.consensus]:<10} {_yesno(obs.ambiguous):<10} {votes}")
        if obs.ambiguous:
            add(f"       warning: no strict majority on row {row + 1}")
    add("")

    add("Interpretation")
    add(_INTERPRETATION_HEAD)
    seen = [OUTCOME_LABEL[obs.consensus] for obs in report.observations]
    for cells, label in zip(_INTERPRETATION_ROWS[capability], seen):
        add(cells + label)

    matched = sorted(report.classification, key=CONFORMANT_CLASSES.index)
    names = ", ".join(c.display for c in matched)
    if matched:
        add("  matched columns: " + names)
        for c in matched:
            add(_MATCHED_BLOCKS[capability][c])
    else:
        add("  matched columns: none (mangled)")
        add("")
        add("Observed signature (matches no known behaviour):")
        lines += _signature_lines(capability, seen)
    add("")

    kind = ClassificationKind.of(report.classification)
    add(f"classification: {kind.value}" + (f" ({names})" if matched else ""))
    add(f"verdict: {report.verdict.value}")
    add("")
    return "\n".join(lines)


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
