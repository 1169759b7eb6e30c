"""Deterministic in-process simulation of one probe session's tunnelled path.

A :class:`TunnelPath`, which fixes the session's capability and repetitions,
runs packet exchanges from an application client to a set of application
servers through: tunnel ingress (encapsulation), the tester's vantage device
(optional per-exchange overwrite of the outer ECN field, where the outgoing
outer header is also captured), a noisy segment (AQM CE-marking and loss),
and the tunnel egress under test (decapsulation).  Only the 2-bit ECN field
is modelled.  A forwarded packet's server feedback is the codepoint the
server received, which is what a real tester reads from the AccECN handshake
or from QUIC ACK_ECN counts; drops and losses surface as absent feedback,
exactly as a real tester would see them.

All randomness comes from one Mersenne Twister (``random.Random``) seeded
from the scenario seed, with exactly two uniform draws per exchange, so a
scenario replays byte for byte.  ``random.Random.random()`` is guaranteed
stable across CPython versions and platforms for a given seed.  Independent
streams (e.g. for sweeps) should be derived with
:func:`ecnprobe.tunnels.derive_seed`.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from types import MappingProxyType
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .ecn import CODEPOINTS, EcnCodepoint
from .tunnels import (
    CONFORMANT_CLASSES,
    Capability,
    DecapTable,
    EncapPolicy,
    _ALL_CELLS,
    builtin_policy,
    encap,
    mangled_policy,
    parse_custom_table,
    probe_rows,
)


class ConfigError(ValueError):
    """One or more invalid scenario-config or session fields.

    ``errors`` is a list of (field, reason) pairs so a front end can report
    every problem at once.
    """

    def __init__(self, errors: Sequence[Tuple[str, str]]):
        self.errors = list(errors)
        super().__init__("; ".join(f"{f}: {r}" for f, r in self.errors))


class ScenarioConfig(NamedTuple):
    """Parsed scenario configuration, before validation.

    ``egress`` has no default: it names the behaviour under test and must be
    given explicitly.  All other fields default to the standard probe setup.
    """

    ingress: str = "copy"
    egress: Optional[str] = None
    aqm_ce_probability: float = 0.0
    loss_probability: float = 0.0
    seed: int = 0
    servers: int = 3
    repetitions: int = 5
    capability: str = "full"


# Each config key's value type, from its default (egress has none: a name).
CONFIG_TYPES = {
    key: str if default is None else type(default) for key, default in ScenarioConfig._field_defaults.items()
}


def _range_errors(fields) -> List[Tuple[str, str]]:
    """(field, reason) for each range a Scenario or ScenarioConfig ``fields`` breaks."""
    errors = []
    if not 0.0 <= fields.aqm_ce_probability <= 1.0:
        errors.append(("aqm_ce_probability", "out of range, expected [0, 1]"))
    if not 0.0 <= fields.loss_probability <= 1.0:
        errors.append(("loss_probability", "out of range, expected [0, 1]"))
    if fields.servers < 1:
        errors.append(("servers", "must be >= 1"))
    return errors


# Upper bound on servers x repetitions, the probes each row sends.  A session
# sends at most 12 times this many packets (control test, its fallback pass
# and four main-test rows); at the limit, a 120,000-exchange session and its
# 15 MB text trace take 0.48-0.77 s and 128 MB peak RSS, each probe's plan
# building up to three records for every server (CPython 3.11, shared 2-vCPU host).
MAX_PROBES_PER_ROW = 10_000


def _repetition_errors(servers, repetitions) -> List[Tuple[str, str]]:
    """(field, reason) for repetitions not an int >= 1, or a row over MAX_PROBES_PER_ROW probes."""
    if type(repetitions) is not int:
        return [("repetitions", f"must be int, got {repetitions!r}")]
    if repetitions < 1:
        return [("repetitions", "must be >= 1")]
    if servers * repetitions > MAX_PROBES_PER_ROW:
        return [("servers x repetitions", f"{servers * repetitions} exceeds the limit of {MAX_PROBES_PER_ROW}")]
    return []


def _seed_errors(fields) -> List[Tuple[str, str]]:
    # A negative seed would replay its absolute value's draws.
    return [("seed", "must be a non-negative integer")] if fields.seed < 0 else []


# The types each numeric Scenario field takes; a bool is none of them.
_NUMBER_TYPES = {"aqm_ce_probability": (int, float), "loss_probability": (int, float), "seed": (int,), "servers": (int,)}


class _ScenarioFields(NamedTuple):
    ingress: EncapPolicy
    egress: DecapTable
    aqm_ce_probability: float = 0.0
    loss_probability: float = 0.0
    seed: int = 0
    servers: int = 1
    server_bug_mask: Optional[Mapping[int, Mapping[EcnCodepoint, EcnCodepoint]]] = None


class Scenario(_ScenarioFields):
    """Immutable description of one simulated tunnel path.

    ``egress`` is the egress's decap table (see :mod:`ecnprobe.tunnels`).
    ``server_bug_mask`` optionally maps a server id in ``range(servers)`` to a
    codepoint-to-codepoint substitution applied to that server's feedback,
    modelling a server with broken ECN feedback.  Each table is copied,
    read-only, as it is checked: an egress through ``tunnels.mangled_policy``
    unless it is a built-in table, which is shared.  So a later write to the
    caller's dict cannot change the scenario.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        # Type errors, or else range and bug-mask errors; each table is copied as it is checked.
        self = super().__new__(cls, *args, **kwargs)
        errors = [
            (field, f"must be {' or '.join(kind.__name__ for kind in kinds)}, got {value!r}")
            for field, kinds in _NUMBER_TYPES.items()
            if type(value := getattr(self, field)) not in kinds
        ]
        if type(self.ingress) is not EncapPolicy:
            errors.append(("ingress", f"must be an EncapPolicy, got {self.ingress!r}"))
        egress, mask = self.egress, self.server_bug_mask
        if id(egress) not in _BUILTIN_OUTCOMES:
            try:
                egress = mangled_policy(egress)
            except ValueError as exc:
                errors.append(("egress", str(exc)))
        if mask is not None and not isinstance(mask, Mapping):
            errors.append(("server_bug_mask", f"{mask!r} is not a mapping"))
        if errors:
            raise ConfigError(errors)
        errors = _range_errors(self) + _seed_errors(self)
        frozen = {}
        for server, bugs in (mask or {}).items():
            where = f"server_bug_mask[{server!r}]"
            if type(server) is not int or not 0 <= server < self.servers:
                errors.append((where, f"no such server, expected an int in range({self.servers})"))
            elif not isinstance(bugs, Mapping):
                errors.append((where, f"{bugs!r} is not a mapping"))
            else:
                frozen[server] = bugs = MappingProxyType(dict(bugs))
                if not all(isinstance(cp, EcnCodepoint) for entry in bugs.items() for cp in entry):
                    errors.append((where, f"{dict(bugs)!r} does not map codepoints to codepoints"))
        if errors:
            raise ConfigError(errors)
        if mask is not None:
            mask = MappingProxyType(frozen)
        elif egress is self.egress:  # a built-in egress and no mask: nothing to copy
            return self
        return super().__new__(cls, self.ingress, egress, *self[2:-1], mask)

    # _replace builds through _make, which bypasses __new__; validate and freeze there too.
    @classmethod
    def _make(cls, iterable) -> "Scenario":
        return cls(*iterable)


class ExchangeResult(NamedTuple):
    """One client->server probe packet and the feedback it produced.

    ``initial`` is the codepoint sent, which the ingress also encapsulates
    as the inner header.  ``outer`` is the outer header as the tester's
    device sent it (the capture point, before any AQM marking), and
    ``onward`` the header the egress forwarded.  ``onward`` and
    ``feedback`` are None when the packet was dropped at the egress or lost
    on the path; the tester cannot tell those apart.

    Records are immutable and shared: every :class:`TunnelPath` takes them
    from its probes' plans (_PLANS, at most MAX_PLANNED_RECORDS records),
    so compare records with ``==``, not ``is``.  A plan builds each record
    from its server number, the probe's codepoints and the egress table's
    outcome, so it holds no object the caller passed: ``exchange(cp,
    server_id=True)`` returns server 1's record.
    """

    feedback: Optional[EcnCodepoint]
    server_id: int
    initial: EcnCodepoint
    outer: EcnCodepoint
    onward: Optional[EcnCodepoint]


# Outer ECN bits each ingress writes, by initial bits.
_OUTER_BITS = {policy: tuple(encap(policy, cp)._value_ for cp in CODEPOINTS) for policy in EncapPolicy}


def _outcomes(egress: DecapTable, bugs: Mapping[EcnCodepoint, EcnCodepoint]) -> tuple:
    """Each cell's outcome by (inner bits << 2) | outer bits, as _ALL_CELLS is ordered: None for an
    egress drop, else (onward, feedback), the feedback being the onward codepoint through ``bugs``."""
    onward = [egress[cell] for cell in _ALL_CELLS]
    return tuple([None if cp is None else (cp, bugs.get(cp, cp)) for cp in onward])


# A healthy server's outcomes for each shared read-only built-in table (which a Scenario need not copy), by id.
_BUILTIN_OUTCOMES = {id(table): _outcomes(table, {}) for table in map(builtin_policy, CONFORMANT_CLASSES)}


# The one process-wide store.  Each probe's plan, a record triple per server (unmarked, AQM-marked, lost),
# by plan key (healthy outcomes, servers, sorted bug-mask outcomes), then by cell.  Cleared before its plans
# would hold more than MAX_PLANNED_RECORDS records, three per triple; a bigger plan is not kept.  Full of
# distinct records, it holds about 1.4 MB (tracemalloc, CPython 3.11).
MAX_PLANNED_RECORDS = 12_288
_PLANS: Dict[tuple, Dict[int, List[Tuple[ExchangeResult, ...]]]] = {}
_planned_records = 0  # the records the kept plans hold


class TunnelPath:
    """One session's live scenario: runs exchanges, advancing one deterministic RNG.

    The ``scenario`` must be a :class:`Scenario`.  The device's ``capability``,
    whose ``rows`` the main test probes, and the ``repetitions`` of each probe
    per server are checked, with MAX_PROBES_PER_ROW, before any draw.

    Encap behaviour is tabulated through the model in :mod:`ecnprobe.tunnels`,
    and the egress's table composed with each server's feedback, as one
    (onward, feedback) outcome per cell, None for a drop.  A probe's plan,
    each server's records (unmarked, AQM-marked, lost), is built from those
    outcomes once for all paths with equal tables and server count, and
    shared through _PLANS, so a send is a lookup and two draws per packet.
    A plan builds one :class:`ExchangeResult` per distinct outcome of a
    server's triple, so the paths that share it share their records too.
    """

    def __init__(self, scenario: Scenario, capability: Capability = Capability.FULL, repetitions: int = 5):
        if not isinstance(scenario, Scenario):
            raise ValueError(f"scenario must be a Scenario, got {type(scenario).__name__}")
        self.rows = probe_rows(capability)
        if errors := _repetition_errors(scenario.servers, repetitions):
            raise ConfigError(errors)
        self.scenario = scenario
        self.capability = capability
        self.repetitions = repetitions
        # Fields a probe reads, as plain attributes (a NamedTuple field read is about three times slower) that
        # cannot go stale, the scenario being immutable.
        self._aqm_ce_probability = scenario.aqm_ce_probability
        self._loss_probability = scenario.loss_probability
        self._rng = random.Random(scenario.seed)
        self.log: List[ExchangeResult] = []
        self._outer_bits = _OUTER_BITS[scenario.ingress]
        egress, mask = scenario.egress, scenario.server_bug_mask or {}
        self._outcomes = _BUILTIN_OUTCOMES.get(id(egress)) or _outcomes(egress, {})
        self._buggy_outcomes = {server: _outcomes(egress, bugs) for server, bugs in mask.items()}
        self._plan_key = (self._outcomes, scenario.servers, tuple(sorted(self._buggy_outcomes.items())))
        self._plans = _PLANS.get(self._plan_key, {})

    def exchange(
        self, initial: EcnCodepoint, outer_override: Optional[EcnCodepoint] = None, server_id: int = 0
    ) -> ExchangeResult:
        """Send one probe packet with the given initial ECN codepoint.

        ``outer_override`` is the value the tester's device writes into the
        outer ECN field after encapsulation (the N of the tc pedit action).
        Two uniform draws are consumed per call (AQM, loss) whether or not
        they end up mattering, so traces stay aligned across variations.
        ``server_id`` must be an int in ``range(servers)`` (``True`` is 1), ``initial`` a
        codepoint and ``outer_override`` None or one; else ValueError is raised before the draws.
        """
        if not isinstance(server_id, int) or not 0 <= server_id < self.scenario.servers:
            raise ValueError(f"server_id must be an int in range({self.scenario.servers}), got {server_id!r}")
        return self._packets([self._plan(initial, outer_override)[server_id]])[0]

    def send(self, initial: EcnCodepoint, outer_override: Optional[EcnCodepoint]) -> List[ExchangeResult]:
        """Send one probe the path's ``repetitions`` times to each server, servers varying fastest, and return
        the records in order: from one packet loop, or one call per packet of a subclass's :meth:`exchange`."""
        if type(self).exchange is TunnelPath.exchange:
            return self._packets(self._plan(initial, outer_override) * self.repetitions)
        return [self.exchange(initial, outer_override, i) for i in [*range(self.scenario.servers)] * self.repetitions]

    def _plan(self, initial, outer_override) -> List[Tuple[ExchangeResult, ...]]:
        """Each server's record triple for a probe, from the path's plans or _PLANS, else built and kept."""
        if type(initial) is not EcnCodepoint:
            raise ValueError(f"initial must be an EcnCodepoint, got {initial!r}")
        if outer_override is not None and type(outer_override) is not EcnCodepoint:
            raise ValueError(f"outer_override must be None or an EcnCodepoint, got {outer_override!r}")
        # Tunnel ingress: the inner is the initial header, the outer's ECN per policy or the tester's override
        # (the capture point).  _value_ is a codepoint's 2-bit pattern; .value is a slower property.
        inner = initial._value_
        cell = inner << 2 | (captured := self._outer_bits[inner] if outer_override is None else outer_override._value_)
        if plan := self._plans.get(cell) or _PLANS.get(self._plan_key, {}).get(cell):
            return plan
        # AQM marks only ECN-capable outers (ECT(1), ECT(0)); a Not-ECT one it would drop, as the loss draw models.
        marked_cell = cell | 3 if 0 < captured < 3 else cell
        outer = CODEPOINTS[captured]

        def build(server, outcome):  # outcome None: dropped or lost
            return ExchangeResult(outcome and outcome[1], server, initial, outer, outcome and outcome[0])

        plan = self._plans[cell] = []  # kept by the path, also once a clear takes it out of _PLANS
        for server in range(self.scenario.servers):
            outcomes = self._buggy_outcomes.get(server, self._outcomes)
            outcome, marked_outcome = outcomes[cell], outcomes[marked_cell]
            # Each distinct outcome's record is built once: equal outcomes in a triple share it.
            record = build(server, outcome)
            marked = record if marked_outcome == outcome else build(server, marked_outcome)
            lost = record if outcome is None else marked if marked_outcome is None else build(server, None)
            plan.append((record, marked, lost))
        global _planned_records
        if (size := 3 * len(plan)) <= MAX_PLANNED_RECORDS:
            if (_planned_records := _planned_records + size) > MAX_PLANNED_RECORDS:
                _PLANS.clear()
                _planned_records = size
            _PLANS.setdefault(self._plan_key, {})[cell] = plan
        return plan

    def _packets(self, plan: Sequence[Tuple[ExchangeResult, ...]]) -> List[ExchangeResult]:
        """Draw AQM then loss for each record triple of ``plan``; the records picked, also appended to ``log``."""
        aqm, loss, draw, records = self._aqm_ce_probability, self._loss_probability, self._rng.random, []
        for record, marked, lost in plan:
            if draw() < aqm:
                record = marked
            if draw() < loss:
                record = lost
            records.append(record)
        self.log += records
        return records


_INGRESS_NAMES = {policy.value: policy for policy in EncapPolicy}
_EGRESS_NAMES = {behavior.json_name: behavior for behavior in CONFORMANT_CLASSES}
_CAPABILITY_NAMES = tuple(capability.value for capability in Capability)


def build_scenario(config: ScenarioConfig) -> Scenario:
    """Validate a parsed config and construct the scenario it describes.

    Every invalid field is reported, not just the first, via
    :class:`ConfigError`: first each value whose type is not exactly its
    ``CONFIG_TYPES`` type (a bool is no int), then, if there is none, each
    value that is out of range or names nothing.
    """
    errors = [
        (key, f"must be {kind.__name__}, got {value!r}")
        for (key, kind), value in zip(CONFIG_TYPES.items(), config)
        if type(value) is not kind and not (key == "egress" and value is None)
    ]
    if errors:
        raise ConfigError(errors)

    ingress = _INGRESS_NAMES.get(config.ingress)
    if ingress is None:
        errors.append(("ingress", f"unknown ingress {config.ingress!r}, expected one of {sorted(_INGRESS_NAMES)}"))

    egress: Optional[DecapTable] = None
    if config.egress is None:
        errors.append(("egress", "required (the behaviour under test)"))
    elif config.egress in _EGRESS_NAMES:
        egress = builtin_policy(_EGRESS_NAMES[config.egress])
    elif config.egress.startswith("custom:"):
        try:
            egress = parse_custom_table(config.egress[len("custom:"):])
        except ValueError as exc:
            errors.append(("egress", str(exc)))
    else:
        errors.append(
            ("egress", f"unknown egress {config.egress!r}, expected one of {sorted(_EGRESS_NAMES)} or custom:<table>")
        )

    errors += _range_errors(config) + _repetition_errors(config.servers, config.repetitions)
    if config.capability not in _CAPABILITY_NAMES:
        errors.append(("capability", f"unknown capability {config.capability!r}, expected one of {_CAPABILITY_NAMES}"))
    errors += _seed_errors(config)

    if errors:
        raise ConfigError(errors)
    assert ingress is not None and egress is not None
    return Scenario(
        ingress=ingress,
        egress=egress,
        aqm_ce_probability=config.aqm_ce_probability,
        loss_probability=config.loss_probability,
        seed=config.seed,
        servers=config.servers,
    )


# Line tails after the server number, by codepoint, for each header
# location; and the closing-line tails by feedback codepoint or None.
_INITIAL_LINES, _INNER_LINES, _OUTER_LINES, _ONWARD_LINES = (
    {cp: f"{location} {cp._value_:02x} {cp}\n" for cp in CODEPOINTS}
    for location in ("Initial", "Inner", "Outer", "Onward")
)
_FEEDBACK_LINES = {None: " FEEDBACK ABSENT\n", **{cp: f" FEEDBACK {cp}\n" for cp in CODEPOINTS}}


def serialize_trace(results: Sequence[ExchangeResult]) -> str:
    """Text form of an exchange sequence, one line per header.

    ``<exchange#> <server#> <location> <octet-hex> <codepoint-name>`` for
    the Initial, Inner and Outer headers, and the Onward header when the
    egress forwarded the packet, then ``<exchange#> FEEDBACK
    <codepoint-name|ABSENT>`` closing the exchange.  The octet is the ECN
    field's 2-bit pattern.  Every line ends in a newline.
    """
    # A session repeats a handful of distinct records, so each record's text
    # is built once per call, as the pieces between its exchange numbers.
    pieces_by_record: Dict[ExchangeResult, List[str]] = {}
    chunks: List[str] = []
    append = chunks.append
    for i, result in enumerate(results):
        pieces = pieces_by_record.get(result)
        if pieces is None:
            server = f" {result.server_id} "
            initial = result.initial
            pieces = pieces_by_record[result] = [
                "",
                server + _INITIAL_LINES[initial],
                server + _INNER_LINES[initial],
                server + _OUTER_LINES[result.outer],
            ]
            if result.onward is not None:
                pieces.append(server + _ONWARD_LINES[result.onward])
            pieces.append(_FEEDBACK_LINES[result.feedback])
        append(str(i).join(pieces))
    return "".join(chunks)
