"""Server-side ECN feedback encodings.

Covers the two feedback channels a probe client can read:

* The AccECN TCP handshake: the SYN-ACK reflects the IP-ECN codepoint the
  server saw on the SYN, encoded into the AE, CWR and ECE flags.  Only four
  of the eight flag patterns are reflections; the rest are protocol noise
  and decode to an error.
* QUIC ACK_ECN packet counters per RFC 9000 section 19.3.2 (ECT0, ECT1
  and CE packet counts, starting at 0).
"""

from __future__ import annotations

from typing import NamedTuple

from .ecn import EcnCodepoint


class InvalidFeedback(Exception):
    """A TCP flag pattern that is not one of the four handshake reflections."""


class TcpEcnFlags(NamedTuple):
    """The AE, CWR and ECE bits of a TCP header, most significant first."""

    ae: bool
    cwr: bool
    ece: bool

    @classmethod
    def from_bits(cls, bits: int) -> "TcpEcnFlags":
        if not 0 <= bits <= 0b111:
            raise ValueError(f"flag pattern out of range: {bits:#b}")
        return cls(ae=bool(bits & 0b100), cwr=bool(bits & 0b010), ece=bool(bits & 0b001))

    def to_bits(self) -> int:
        return (self.ae << 2) | (self.cwr << 1) | int(self.ece)


# SYN-ACK handshake encoding: which flag pattern reflects which IP-ECN
# codepoint received on the SYN.
_HANDSHAKE_BITS = {
    EcnCodepoint.NOT_ECT: 0b010,
    EcnCodepoint.ECT1: 0b011,
    EcnCodepoint.ECT0: 0b100,
    EcnCodepoint.CE: 0b110,
}
_HANDSHAKE_DECODE = {bits: cp for cp, bits in _HANDSHAKE_BITS.items()}


def encode_handshake(received: EcnCodepoint) -> TcpEcnFlags:
    """Flags a server puts in its SYN-ACK to reflect the received IP-ECN field."""
    return TcpEcnFlags.from_bits(_HANDSHAKE_BITS[received])


def decode_handshake(flags: TcpEcnFlags) -> EcnCodepoint:
    """Recover the codepoint the server reflected; inverse of :func:`encode_handshake`."""
    try:
        return _HANDSHAKE_DECODE[flags.to_bits()]
    except KeyError:
        raise InvalidFeedback(f"flag pattern {flags.to_bits():#05b} is not a handshake reflection") from None


def wireshark_string(flags: TcpEcnFlags) -> str:
    """Render flags the way packet dissectors abbreviate them, e.g. ``.C.`` or ``AC.``."""
    return ("A" if flags.ae else ".") + ("C" if flags.cwr else ".") + ("E" if flags.ece else ".")


class QuicEcnCounts(NamedTuple):
    """QUIC ACK_ECN packet counts: packets received with each ECN codepoint."""

    ect0_packets: int = 0
    ect1_packets: int = 0
    ce_packets: int = 0


def record_packet(counts: QuicEcnCounts, cp: EcnCodepoint) -> QuicEcnCounts:
    """Bump the matching packet counter; a Not-ECT packet bumps nothing."""
    if cp is EcnCodepoint.ECT0:
        return counts._replace(ect0_packets=counts.ect0_packets + 1)
    if cp is EcnCodepoint.ECT1:
        return counts._replace(ect1_packets=counts.ect1_packets + 1)
    if cp is EcnCodepoint.CE:
        return counts._replace(ce_packets=counts.ce_packets + 1)
    return counts


def counts_delta_codepoint(before: QuicEcnCounts, after: QuicEcnCounts) -> EcnCodepoint:
    """Infer the codepoint of a single acknowledged packet from a count delta.

    No counter moving means the packet arrived Not-ECT (ACK_ECN carries no
    Not-ECT count).  More than one counter moving, or a counter moving by
    more than one, cannot come from a single packet.
    """
    deltas = {
        EcnCodepoint.ECT0: after.ect0_packets - before.ect0_packets,
        EcnCodepoint.ECT1: after.ect1_packets - before.ect1_packets,
        EcnCodepoint.CE: after.ce_packets - before.ce_packets,
    }
    if any(d < 0 for d in deltas.values()):
        raise InvalidFeedback("ECN counts went backwards")
    moved = [cp for cp, d in deltas.items() if d]
    if not moved:
        return EcnCodepoint.NOT_ECT
    if len(moved) > 1 or deltas[moved[0]] != 1:
        raise InvalidFeedback(f"count delta {deltas} is not a single packet")
    return moved[0]
