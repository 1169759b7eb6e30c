"""Reading a JSON report back: the body of :func:`report.parse_report`.

``report.parse_report`` imports this module on its first call, so a
``probe`` process, which only writes reports, never loads it or ``json``.
"""

import json
from typing import Dict

from .ecn import CODEPOINT_BY_NAME
from .engine import ControlReport, ProbeObservation, aggregate, classify
from .report import SCHEMA_VERSION, ProbeReport, _json_text
from .simnet import ConfigError, ScenarioConfig, build_scenario
from .tunnels import OUTCOME_BY_NAME, Capability


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
    :func:`report.render_report` writes for it.  The checks made before that
    one comparison are those it cannot make: a fact of the wrong type that
    would re-render as itself, a config or vote total the writer never
    produces, and a container whose wrong type would otherwise fail unnamed."""
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


def parse(data: bytes) -> ProbeReport:
    """:func:`report.parse_report`."""
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
