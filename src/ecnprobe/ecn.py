"""ECN codepoints and the masked-overwrite primitive.

The probe reads and writes only the 2-bit ECN field, so codepoints are the
model everywhere else.  The traffic-class octet (IPv4 TOS / IPv6 Traffic
Class) carries the 6-bit DSCP in bits 7..2 and the ECN field in bits 1..0;
its accessors and the ``tc pedit``-style masked overwrite here model how a
tester's device rewrites the ECN bits without disturbing DSCP.
"""

from __future__ import annotations

import enum

ECN_MASK = 0x03
DSCP_SHIFT = 2


class _Enum(enum.Enum):
    # Base of every package enum.  Members are singletons compared by identity,
    # so object.__hash__ agrees with == and, unlike Enum.__hash__, runs in C.
    __hash__ = object.__hash__


class EcnCodepoint(_Enum):
    """The four ECN codepoints; the enum value is the 2-bit wire pattern."""

    NOT_ECT = 0b00
    ECT1 = 0b01
    ECT0 = 0b10
    CE = 0b11

    @property
    def label(self) -> str:
        """Conventional display name, e.g. ``ECT(0)``."""
        return _LABELS[self]

    @property
    def json_name(self) -> str:
        return self.name.lower()

    def __str__(self) -> str:
        return self.label


_LABELS = {
    EcnCodepoint.NOT_ECT: "Not-ECT",
    EcnCodepoint.ECT1: "ECT(1)",
    EcnCodepoint.ECT0: "ECT(0)",
    EcnCodepoint.CE: "CE",
}

# Codepoints indexed by their 2-bit wire pattern.
CODEPOINTS = tuple(EcnCodepoint)
# Codepoints by their name in reports and table text, e.g. ``ect0``.
CODEPOINT_BY_NAME = {cp.json_name: cp for cp in EcnCodepoint}


def ecn_of(octet: int) -> EcnCodepoint:
    """Extract the ECN codepoint from a traffic-class octet."""
    return CODEPOINTS[octet & ECN_MASK]


def dscp_of(octet: int) -> int:
    """Extract the 6-bit DSCP from a traffic-class octet."""
    return (octet & 0xFF) >> DSCP_SHIFT


def overwrite_ecn(octet: int, new_bits: int, retain_mask: int = ECN_MASK) -> int:
    """Overwrite the masked bits of a traffic-class octet, keeping the rest.

    Models ``tc ... action pedit ex munge ip dsfield set N retain 0x3``: the
    bits selected by ``retain_mask`` are replaced with ``new_bits``, all other
    bits are preserved.  With the default mask this rewrites the ECN field and
    leaves DSCP untouched.
    """
    return (octet & ~retain_mask & 0xFF) | (new_bits & retain_mask)
