"""Deterministic in-process simulation of one tunnelled path.

A :class:`TunnelPath` runs packet exchanges from an application client to a
set of application servers through: tunnel ingress (encapsulation), the
tester's vantage device (optional per-exchange overwrite of the outer ECN
field, where the outgoing outer header is also captured), an optional
standing path mangler, a noisy segment (AQM CE-marking and loss), and the
tunnel egress under test (decapsulation).  Forwarded packets produce server
feedback through the AccECN handshake or QUIC ACK_ECN counter codec; drops
and losses surface as absent feedback, exactly as a real tester would see
them.

All randomness comes from one Mersenne Twister (``random.Random``) seeded
from the scenario seed, with exactly two uniform draws per exchange, so a
scenario replays byte for byte.  ``random.Random.random()`` is guaranteed
stable across CPython versions and platforms for a given seed.  Independent
streams (e.g. for sweeps) should be derived with
:func:`ecnprobe.tunnels.derive_seed`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import feedback as fb
from .ecn import (
    CODEPOINTS,
    DSCP_SHIFT,
    ECN_MASK,
    EcnCodepoint,
    PathLocation,
    ecn_of,
    overwrite_ecn,
)
from .tunnels import (
    DecapBehaviorClass,
    DecapPolicy,
    EncapPolicy,
    builtin_policy,
    decap,
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


@dataclass
class ScenarioConfig:
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


@dataclass(frozen=True)
class ManglerRule:
    """An overwrite applied to the outer header at the post-encap location.

    ``match`` is an optional predicate over the flow's server id; ``None``
    matches every flow.
    """

    set_bits: int
    retain_mask: int = ECN_MASK
    match: Optional[Callable[[int], bool]] = None

    def matches(self, server_id: int) -> bool:
        return self.match is None or self.match(server_id)


def apply_mangler(rule: ManglerRule, outer: int) -> int:
    """Rewrite an outer traffic-class octet per a matching mangler rule."""
    return overwrite_ecn(outer, rule.set_bits, rule.retain_mask)


@dataclass(frozen=True)
class Scenario:
    """Immutable description of one simulated tunnel path.

    ``server_bug_mask`` optionally maps a server id to a codepoint
    substitution applied to that server's feedback, modelling a server with
    broken ECN feedback.  ``feedback_channel`` selects how feedback is
    carried ("tcp" handshake flags or "quic" ACK_ECN counts); both decode to
    the same codepoint on a healthy server.
    """

    ingress: EncapPolicy
    egress: DecapPolicy
    mangler: Optional[ManglerRule] = None
    aqm_ce_probability: float = 0.0
    loss_probability: float = 0.0
    seed: int = 0
    servers: int = 1
    server_bug_mask: Optional[Dict[int, Dict[EcnCodepoint, EcnCodepoint]]] = None
    feedback_channel: str = "tcp"

    def __post_init__(self) -> None:
        if not 0.0 <= self.aqm_ce_probability <= 1.0:
            raise ValueError("aqm_ce_probability out of range")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError("loss_probability out of range")
        if self.servers < 1:
            raise ValueError("servers must be >= 1")
        if self.feedback_channel not in ("tcp", "quic"):
            raise ValueError("feedback_channel must be 'tcp' or 'quic'")


TraceRecord = Tuple[PathLocation, int]

_INITIAL = PathLocation.INITIAL
_INNER = PathLocation.INNER
_OUTER = PathLocation.OUTER
_ONWARD = PathLocation.ONWARD


@dataclass(frozen=True)
class ExchangeResult:
    """One client->server probe packet and the feedback it produced.

    ``feedback`` is None when the packet was dropped at the egress or lost
    on the path; the tester cannot tell those apart.  ``trace`` holds the
    traffic-class octet observed at each path location, always Initial,
    Inner and Outer, plus Onward when the egress forwarded the packet.
    """

    feedback: Optional[EcnCodepoint]
    trace: Tuple[TraceRecord, ...]
    server_id: int


class TunnelPath:
    """A live scenario: runs exchanges, advancing one deterministic RNG.

    The scenario's encap, decap and feedback behaviour is tabulated once,
    through the models in :mod:`ecnprobe.tunnels` and
    :mod:`ecnprobe.feedback`, as 2-bit ECN patterns, so an exchange does
    its header arithmetic on ints.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self._rng = random.Random(scenario.seed)
        self.log: List[ExchangeResult] = []
        self._quic_counts: Dict[int, fb.QuicEcnCounts] = {}
        # Outer ECN bits the ingress writes, by initial bits.
        self._outer_bits = tuple(encap(scenario.ingress, cp).outer_ecn.value for cp in CODEPOINTS)
        # Onward ECN bits, or None for a drop, by (inner bits << 2) | outer bits.
        outcomes = (decap(scenario.egress, inner, outer) for inner in CODEPOINTS for outer in CODEPOINTS)
        self._onward_bits = tuple(None if o.is_dropped else o.codepoint.value for o in outcomes)
        # TCP handshake feedback by received bits, for a healthy server and
        # for each server in the bug mask.
        self._tcp_feedback = tuple(fb.decode_handshake(fb.encode_handshake(cp)) for cp in CODEPOINTS)
        self._buggy_tcp_feedback = {
            server_id: tuple(self._tcp_feedback[bugs.get(cp, cp).value] for cp in CODEPOINTS)
            for server_id, bugs in (scenario.server_bug_mask or {}).items()
        }

    def exchange(
        self,
        initial: EcnCodepoint,
        outer_override: Optional[EcnCodepoint] = None,
        server_id: int = 0,
        dscp: int = 0,
    ) -> ExchangeResult:
        """Send one probe packet with the given initial ECN codepoint.

        ``outer_override`` is the value the tester's device writes into the
        outer ECN field after encapsulation (the N of the tc pedit action).
        Two uniform draws are consumed per call (AQM, loss) whether or not
        they end up mattering, so traces stay aligned across variations.
        """
        sc = self.scenario
        if not 0 <= server_id < sc.servers:
            raise ValueError(f"server_id {server_id} out of range")
        if not 0 <= dscp <= 63:
            raise ValueError(f"DSCP out of range: {dscp}")

        # Tunnel ingress: DSCP is copied to the outer, ECN per policy.
        initial_bits = initial.value
        inner = (dscp << DSCP_SHIFT) | initial_bits
        outer = (dscp << DSCP_SHIFT) | self._outer_bits[initial_bits]
        # Tester's device, after tunnel encapsulation.
        if outer_override is not None:
            outer = (outer & ~ECN_MASK) | outer_override.value
        captured = outer

        # Standing path mangler, downstream of the capture point.
        if sc.mangler is not None and sc.mangler.matches(server_id):
            outer = apply_mangler(sc.mangler, outer)

        u_aqm = self._rng.random()
        u_loss = self._rng.random()

        # AQM only marks ECN-capable outers (ECT(1), ECT(0)); Not-ECT traffic
        # it would drop, which the loss draw already models.
        if u_aqm < sc.aqm_ce_probability and 0 < outer & ECN_MASK < 3:
            outer |= ECN_MASK
        if u_loss < sc.loss_probability:
            onward_bits = None
        else:
            onward_bits = self._onward_bits[(initial_bits << 2) | (outer & ECN_MASK)]
        # Lost on the path or dropped at the egress: no feedback either way.
        if onward_bits is None:
            result = ExchangeResult(None, ((_INITIAL, inner), (_INNER, inner), (_OUTER, captured)), server_id)
            self.log.append(result)
            return result

        onward = (inner & ~ECN_MASK) | onward_bits
        if sc.feedback_channel == "quic":
            feedback_cp = self._quic_feedback(server_id, CODEPOINTS[onward_bits])
        else:
            feedback_cp = self._buggy_tcp_feedback.get(server_id, self._tcp_feedback)[onward_bits]
        result = ExchangeResult(
            feedback_cp,
            ((_INITIAL, inner), (_INNER, inner), (_OUTER, captured), (_ONWARD, onward)),
            server_id,
        )
        self.log.append(result)
        return result

    def _quic_feedback(self, server_id: int, received: EcnCodepoint) -> EcnCodepoint:
        # ACK_ECN feedback depends on every earlier packet, so it is not tabulated.
        sc = self.scenario
        if sc.server_bug_mask and server_id in sc.server_bug_mask:
            received = sc.server_bug_mask[server_id].get(received, received)
        before = self._quic_counts.get(server_id, fb.QuicEcnCounts())
        after = fb.record_packet(before, received)
        self._quic_counts[server_id] = after
        return fb.counts_delta_codepoint(before, after)


def run_exchange(
    scenario: Scenario,
    initial: EcnCodepoint,
    outer_override: Optional[EcnCodepoint] = None,
    server_id: int = 0,
) -> ExchangeResult:
    """One-shot exchange over a fresh path; deterministic in its arguments.

    Sequences of exchanges that should share one random stream belong on a
    single :class:`TunnelPath`.
    """
    return TunnelPath(scenario).exchange(initial, outer_override, server_id)


_INGRESS_NAMES = {
    "copy": EncapPolicy.COPY_EXACT,
    "zero": EncapPolicy.ZERO_OUTER,
    "rfc3168full": EncapPolicy.RFC3168_FULL,
}

_EGRESS_NAMES = {
    "rfc6040": DecapBehaviorClass.RFC6040,
    "rfc4301": DecapBehaviorClass.RFC4301,
    "rfc3168": DecapBehaviorClass.RFC3168,
    "rfc2003": DecapBehaviorClass.RFC2003_SIMPLE,
}

_CAPABILITY_NAMES = ("full", "ce_only")

# Upper bound on servers x repetitions, the probes each row sends.  A session
# sends at most 12 times this many packets (control test, its fallback pass
# and four main-test rows); at the limit, 120,000 exchanges take about a
# second and 140 MB on CPython 3.11.
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

    egress: Optional[DecapPolicy] = None
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

    if not 0.0 <= config.aqm_ce_probability <= 1.0:
        errors.append(("aqm_ce_probability", "out of range, expected [0, 1]"))
    if not 0.0 <= config.loss_probability <= 1.0:
        errors.append(("loss_probability", "out of range, expected [0, 1]"))
    if config.servers < 1:
        errors.append(("servers", "must be >= 1"))
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


# Closing-line tails for a feedback codepoint, by its 2-bit wire pattern.
_FEEDBACK_TAILS = tuple(f"FEEDBACK {cp}\n" for cp in CODEPOINTS)


def serialize_trace(results: Sequence[ExchangeResult]) -> str:
    """Text form of an exchange sequence, one line per header record.

    ``<exchange#> <server#> <location> <octet-hex> <codepoint-name>`` for
    each trace record, then ``<exchange#> FEEDBACK <codepoint-name|ABSENT>``
    closing the exchange.  Every line ends in a newline.
    """
    # A session repeats a handful of distinct records, so each one's text is
    # formatted once per call and reused behind the line prefix.  The four
    # locations are told apart by identity and their records keyed by octet:
    # hashing a record would call the Python-level Enum.__hash__ every line.
    initial: Dict[int, str] = {}
    inner: Dict[int, str] = {}
    outer: Dict[int, str] = {}
    onward: Dict[int, str] = {}
    other: Dict[TraceRecord, str] = {}
    lines: List[str] = []
    append = lines.append
    for i, result in enumerate(results):
        prefix = f"{i} {result.server_id} "
        for record in result.trace:
            location, octet = record
            if location is _INITIAL:
                tails, key = initial, octet
            elif location is _INNER:
                tails, key = inner, octet
            elif location is _OUTER:
                tails, key = outer, octet
            elif location is _ONWARD:
                tails, key = onward, octet
            else:
                tails, key = other, record
            tail = tails.get(key)
            if tail is None:
                tail = tails[key] = f"{location} {octet:02x} {ecn_of(octet)}\n"
            append(prefix + tail)
        feedback = result.feedback
        # _value_ is the member's 2-bit pattern; .value is a slower property.
        append(f"{i} FEEDBACK ABSENT\n" if feedback is None else f"{i} {_FEEDBACK_TAILS[feedback._value_]}")
    return "".join(lines)
