"""Deterministic in-process simulation of one tunnelled path.

A :class:`TunnelPath` runs packet exchanges from an application client to a
set of application servers through: tunnel ingress (encapsulation), the
tester's vantage device (optional per-exchange overwrite of the outer ECN
field, where the outgoing outer header is also captured), a noisy segment
(AQM CE-marking and loss), and the tunnel egress under test
(decapsulation).  Only the 2-bit ECN field is modelled.  A forwarded
packet's server feedback is the codepoint the server received, which is
what a real tester reads from the AccECN handshake or from QUIC ACK_ECN
counts; drops and losses surface as absent feedback, exactly as a real
tester would see them.

All randomness comes from one Mersenne Twister (``random.Random``) seeded
from the scenario seed, with exactly two uniform draws per exchange, so a
scenario replays byte for byte.  ``random.Random.random()`` is guaranteed
stable across CPython versions and platforms for a given seed.  Independent
streams (e.g. for sweeps) should be derived with
:func:`ecnprobe.tunnels.derive_seed`.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .ecn import CODEPOINTS, ECN_MASK, EcnCodepoint
from .tunnels import (
    CONFORMANT_CLASSES,
    Capability,
    DecapTable,
    EncapPolicy,
    _ALL_CELLS,
    builtin_policy,
    encap,
    parse_custom_table,
)


class ConfigError(Exception):
    """One or more invalid scenario-config fields.

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


class _ScenarioFields(NamedTuple):
    ingress: EncapPolicy
    egress: DecapTable
    aqm_ce_probability: float = 0.0
    loss_probability: float = 0.0
    seed: int = 0
    servers: int = 1
    server_bug_mask: Optional[Dict[int, Dict[EcnCodepoint, EcnCodepoint]]] = None


class Scenario(_ScenarioFields):
    """Immutable description of one simulated tunnel path.

    ``egress`` is the egress's decap table (see :mod:`ecnprobe.tunnels`).
    ``server_bug_mask`` optionally maps a server id to a codepoint
    substitution applied to that server's feedback, modelling a server with
    broken ECN feedback.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        errors = _range_errors(self)
        if errors:
            raise ValueError("; ".join(f"{f}: {r}" for f, r in errors))
        return self

    # _replace builds through _make, which bypasses __new__; validate there too.
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

    Records are immutable, and every :class:`TunnelPath` may return one
    shared record for every identical exchange, on any path, so compare
    records with ``==``, not ``is``.
    """

    feedback: Optional[EcnCodepoint]
    server_id: int
    initial: EcnCodepoint
    outer: EcnCodepoint
    onward: Optional[EcnCodepoint]


# Low bits of an exchange key for a packet that was lost or dropped: above
# every (onward bits << 2 | feedback bits) pattern.
_DROPPED = 0b10000

# One shared record per distinct exchange key, for every path, since a record
# is a pure function of its key.  Cleared when full, so it holds at most
# MAX_SHARED_RECORDS records of about 160 bytes; a benchmark corpus round uses 320.
MAX_SHARED_RECORDS = 4096
_RECORDS: Dict[int, ExchangeResult] = {}

# Outer ECN bits each ingress writes, by initial bits.
_OUTER_BITS = {policy: tuple(encap(policy, cp)._value_ for cp in CODEPOINTS) for policy in EncapPolicy}
# A healthy server's feedback bits by received bits: the codepoint it received.
_REFLECTED = tuple(cp._value_ for cp in CODEPOINTS)


class TunnelPath:
    """A live scenario: runs exchanges, advancing one deterministic RNG.

    Encap behaviour is tabulated through the model in :mod:`ecnprobe.tunnels`,
    decap from the egress's table, and feedback through the bug mask, as
    2-bit ECN patterns, so an exchange does its header arithmetic on ints.
    Ingress tables are built once per process, the decap and bug-mask
    tables once per path.  Identical exchanges, on this path or any other, may return
    the same shared :class:`ExchangeResult`.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        # The scenario fields each exchange reads, as plain attributes: a
        # NamedTuple field read is about three times slower.  The scenario
        # is immutable, so these copies cannot go stale.
        self._servers = scenario.servers
        self._aqm_ce_probability = scenario.aqm_ce_probability
        self._loss_probability = scenario.loss_probability
        self._rng = random.Random(scenario.seed)
        self.log: List[ExchangeResult] = []
        self._outer_bits = _OUTER_BITS[scenario.ingress]
        # Onward ECN bits, or None for a drop, by (inner bits << 2) | outer
        # bits: _ALL_CELLS is in that order, as CODEPOINTS is.
        self._onward_bits = tuple(
            [None if cp is None else cp._value_ for cp in map(scenario.egress.__getitem__, _ALL_CELLS)]
        )
        # Feedback bits by received bits for each server in the bug mask.
        self._buggy_feedback = {
            server_id: tuple(bugs.get(cp, cp)._value_ for cp in CODEPOINTS)
            for server_id, bugs in (scenario.server_bug_mask or {}).items()
        }

    def exchange(
        self, initial: EcnCodepoint, outer_override: Optional[EcnCodepoint] = None, server_id: int = 0
    ) -> ExchangeResult:
        """Send one probe packet with the given initial ECN codepoint.

        ``outer_override`` is the value the tester's device writes into the
        outer ECN field after encapsulation (the N of the tc pedit action).
        Two uniform draws are consumed per call (AQM, loss) whether or not
        they end up mattering, so traces stay aligned across variations.
        """
        if not 0 <= server_id < self._servers:
            raise ValueError(f"server_id {server_id} out of range")

        # Tunnel ingress: the inner is the initial header, the outer's ECN is
        # per policy.  _value_ is a codepoint's 2-bit pattern; .value is a
        # slower property.
        inner = initial._value_
        # Tester's device, after tunnel encapsulation: the capture point.
        captured = outer = self._outer_bits[inner] if outer_override is None else outer_override._value_

        u_aqm = self._rng.random()
        u_loss = self._rng.random()

        # AQM only marks ECN-capable outers (ECT(1), ECT(0)); Not-ECT traffic
        # it would drop, which the loss draw already models.
        if u_aqm < self._aqm_ce_probability and 0 < outer < 3:
            outer = 3
        if u_loss < self._loss_probability:
            onward = None
        else:
            onward = self._onward_bits[inner << 2 | outer]

        # The record is set by server, inner and captured outer, then 5 low
        # bits: _DROPPED for a loss or drop (no feedback either way), else
        # the onward bits and the feedback bits.
        key = (server_id << 4 | inner << 2 | captured) << 5
        if onward is None:
            key |= _DROPPED
        else:
            key |= onward << 2 | self._buggy_feedback.get(server_id, _REFLECTED)[onward]
        result = _RECORDS.get(key)
        if result is None:
            if onward is None:
                result = ExchangeResult(None, server_id, initial, CODEPOINTS[captured], None)
            else:
                result = ExchangeResult(
                    CODEPOINTS[key & ECN_MASK], server_id, initial, CODEPOINTS[captured], CODEPOINTS[onward]
                )
            if len(_RECORDS) >= MAX_SHARED_RECORDS:
                _RECORDS.clear()
            _RECORDS[key] = result
        self.log.append(result)
        return result


_INGRESS_NAMES = {policy.value: policy for policy in EncapPolicy}
_EGRESS_NAMES = {behavior.json_name: behavior for behavior in CONFORMANT_CLASSES}
_CAPABILITY_NAMES = tuple(capability.value for capability in Capability)

# Upper bound on servers x repetitions, the probes each row sends.  A session
# sends at most 12 times this many packets (control test, its fallback pass
# and four main-test rows); at the limit, a 120,000-exchange session takes
# 0.1-0.2 s and 16 MB peak RSS on CPython 3.11 (2-vCPU Xeon), or 0.2 s and
# 51 MB with its 14 MB text trace.
MAX_PROBES_PER_ROW = 10_000


def build_scenario(config: ScenarioConfig) -> Scenario:
    """Validate a parsed config and construct the scenario it describes.

    Every invalid field is reported, not just the first, via
    :class:`ConfigError`.
    """
    errors: List[Tuple[str, str]] = []

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

    errors += _range_errors(config)
    if config.repetitions < 1:
        errors.append(("repetitions", "must be >= 1"))
    elif config.servers >= 1 and config.servers * config.repetitions > MAX_PROBES_PER_ROW:
        errors.append(
            ("servers x repetitions", f"{config.servers * config.repetitions} exceeds the limit of {MAX_PROBES_PER_ROW}")
        )
    if config.capability not in _CAPABILITY_NAMES:
        errors.append(("capability", f"unknown capability {config.capability!r}, expected one of {_CAPABILITY_NAMES}"))
    if config.seed < 0:
        errors.append(("seed", "must be a non-negative integer"))

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
