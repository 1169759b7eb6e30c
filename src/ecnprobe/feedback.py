"""The AccECN TCP handshake feedback encoding.

The SYN-ACK reflects the IP-ECN codepoint the server saw on the SYN,
encoded into the AE, CWR and ECE flags.  Only four of the eight flag
patterns are reflections; the rest are protocol noise and decode to an
error.  (QUIC ACK_ECN counts, the other channel a tester can read, move by
one per packet and so also name the received codepoint.)
"""

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
