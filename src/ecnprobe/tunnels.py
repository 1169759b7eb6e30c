"""Encapsulation and decapsulation behaviour models for ECN tunnelling.

Each decapsulation lineage is a total 16-cell table mapping the (inner,
outer) ECN codepoint pair arriving at the tunnel egress to the onward
codepoint, or to a drop.  An outcome is an ``Optional[EcnCodepoint]``, None
for a drop, everywhere from the table to the report; its name and display
label are ``OUTCOME_NAME[outcome]`` and ``OUTCOME_LABEL[outcome]``.  The
tables follow the decapsulation rules of the relevant standards:

* RFC 6040 section 4.2 (the unified behaviour, figure 4 there),
* RFC 4301 section 5.1.2 (IPsec tunnel mode),
* RFC 3168 section 9.1.1 (the original full-functionality ECN tunnel),
* a pre-ECN "simple" tunnel per RFC 2003, which discards the outer header
  unexamined, so the onward header is always the inner.

An egress is its table: a read-only, total mapping.  Its class is not
stored with it but inferred, by probing, from the outcomes of the probe rows;
a table whose probe rows match none of the four classes is "mangled".  Any
total table can be an egress (a few canned mangled ones are provided for
exercising the classifier).
"""

import random
from collections.abc import Mapping
from types import MappingProxyType
from typing import Dict, Optional, Tuple

from .ecn import CODEPOINT_BY_NAME, CODEPOINTS, EcnCodepoint, _Enum

NOT_ECT = EcnCodepoint.NOT_ECT
ECT0 = EcnCodepoint.ECT0
ECT1 = EcnCodepoint.ECT1
CE = EcnCodepoint.CE


# A decap outcome is the onward codepoint, or None for a drop.  Its
# deterministic tie-break order for vote aggregation and sorted rendering:
# dropped first, forwarded codepoints by their 2-bit pattern.
OUTCOME_ORDER: Tuple[Optional[EcnCodepoint], ...] = (None, *CODEPOINTS)
# Each outcome's name in reports and table text, e.g. ``ect0``, and its
# display label, e.g. ``ECT(0)``.
OUTCOME_NAME = {o: "dropped" if o is None else o.json_name for o in OUTCOME_ORDER}
OUTCOME_LABEL = {o: "dropped" if o is None else o.label for o in OUTCOME_ORDER}
# Outcomes by name, the inverse of OUTCOME_NAME.
OUTCOME_BY_NAME = {name: o for o, name in OUTCOME_NAME.items()}


class DecapBehaviorClass(_Enum):
    RFC6040 = "rfc6040"
    RFC4301 = "rfc4301"
    RFC3168 = "rfc3168"
    RFC2003_SIMPLE = "rfc2003"

    @property
    def json_name(self) -> str:
        return self.value

    @property
    def display(self) -> str:
        """Name as written in reports, e.g. ``RFC6040``."""
        return self.value.upper()

    def __str__(self) -> str:
        return self.value


# Classes whose decapsulation propagates ECN marks correctly onward.
GREEN_CLASSES = frozenset(
    {
        DecapBehaviorClass.RFC6040,
        DecapBehaviorClass.RFC4301,
        DecapBehaviorClass.RFC3168,
    }
)


class EncapPolicy(_Enum):
    """How the tunnel ingress fills the outer ECN field.

    COPY_EXACT      outer := initial (RFC 6040 normal mode; pre-ECN tunnels
                    copied the whole TOS octet)
    ZERO_OUTER      outer := Not-ECT (RFC 3168 limited functionality,
                    RFC 6040 compatibility mode)
    RFC3168_FULL    outer := initial, except CE becomes ECT(0)
                    (RFC 3168 section 9.1.1 full functionality)

    The inner header is the initial header unchanged in every mode.
    """

    COPY_EXACT = "copy"
    ZERO_OUTER = "zero"
    RFC3168_FULL = "rfc3168full"


class Capability(_Enum):
    """What the tester's vantage device can write into the outer ECN field.

    FULL allows arbitrary values; CE_ONLY can only set CE, which supports
    three of the four probe rows (the ECT(1) row needs an arbitrary write).
    """

    FULL = "full"
    CE_ONLY = "ce_only"


# The probed (initial, outer) combinations, in fixed row order.
PROBE_ROWS: Tuple[Tuple[EcnCodepoint, EcnCodepoint], ...] = (
    (NOT_ECT, CE),
    (ECT1, CE),
    (ECT0, CE),
    (ECT0, ECT1),
)
# A CE_ONLY device probes the rows whose outer it can write: those with CE.
_CE_ROWS = tuple(row for row in PROBE_ROWS if row[1] is CE)


def probe_rows(capability: Capability) -> Tuple[Tuple[EcnCodepoint, EcnCodepoint], ...]:
    """The rows a device of this capability can probe, in PROBE_ROWS order."""
    if capability is Capability.FULL:
        return PROBE_ROWS
    if capability is Capability.CE_ONLY:
        return _CE_ROWS
    raise ValueError(f"capability must be a Capability, got {capability!r}")


ProbeSignature = Tuple[Optional[EcnCodepoint], ...]

# A decapsulation policy: the egress's total, read-only (inner, outer) ->
# onward codepoint table, None for a drop.  ``dict(table)`` is a writable copy.
DecapTable = Mapping[Tuple[EcnCodepoint, EcnCodepoint], Optional[EcnCodepoint]]


def decap(policy: DecapTable, inner: EcnCodepoint, outer: EcnCodepoint) -> Optional[EcnCodepoint]:
    """Apply a decapsulation policy to the codepoint pair arriving at the egress."""
    return policy[(inner, outer)]


def encap(policy: EncapPolicy, initial: EcnCodepoint) -> EcnCodepoint:
    """Encapsulate: the outer codepoint per policy.  The inner is the
    initial header unchanged."""
    if policy is EncapPolicy.COPY_EXACT:
        return initial
    if policy is EncapPolicy.ZERO_OUTER:
        return NOT_ECT
    return ECT0 if initial is CE else initial  # RFC3168_FULL


_ALL_CELLS = tuple((i, o) for i in EcnCodepoint for o in EcnCodepoint)
_CELL_SET, _OUTCOMES = frozenset(_ALL_CELLS), frozenset(OUTCOME_ORDER)

# Column order of the row tuples below, matching the standards' figures.
_COLS = (NOT_ECT, ECT0, ECT1, CE)


def _table_from_rows(rows: Dict[EcnCodepoint, Tuple[Optional[EcnCodepoint], ...]]) -> DecapTable:
    """A builtin table, read-only: every egress of its class and
    REFERENCE_SIGNATURES share it."""
    return MappingProxyType(
        {(inner, outer): cp for inner, onward in rows.items() for outer, cp in zip(_COLS, onward)}
    )


# RFC 6040 s4.2: outer CE is propagated to ECN-capable inners and drops the
# packet for a Not-ECT inner; outer ECT(1) upgrades an ECT(0) inner.
_RFC6040_ROWS = {
    #         outer: Not-ECT   ECT(0)   ECT(1)   CE
    NOT_ECT: (NOT_ECT, NOT_ECT, NOT_ECT, None),
    ECT0:    (ECT0,    ECT0,    ECT1,    CE),
    ECT1:    (ECT1,    ECT1,    ECT1,    CE),
    CE:      (CE,      CE,      CE,      CE),
}

# RFC 4301 s5.1.2: only an outer CE is looked at, and it is copied down to
# ECN-capable inners; nothing is ever dropped.
_RFC4301_ROWS = {
    NOT_ECT: (NOT_ECT, NOT_ECT, NOT_ECT, NOT_ECT),
    ECT0:    (ECT0,    ECT0,    ECT0,    CE),
    ECT1:    (ECT1,    ECT1,    ECT1,    CE),
    CE:      (CE,      CE,      CE,      CE),
}

# RFC 3168 s9.1.1 (full functionality): like RFC 4301, but an outer CE with a
# Not-ECT inner is dropped rather than forwarded unmarked.
_RFC3168_ROWS = {
    NOT_ECT: (NOT_ECT, NOT_ECT, NOT_ECT, None),
    ECT0:    (ECT0,    ECT0,    ECT0,    CE),
    ECT1:    (ECT1,    ECT1,    ECT1,    CE),
    CE:      (CE,      CE,      CE,      CE),
}

# Pre-ECN simple tunnel (RFC 2003 era): the outer is stripped unexamined.
_RFC2003_ROWS = {
    inner: (inner, inner, inner, inner) for inner in EcnCodepoint
}

_BUILTIN_TABLES = {
    DecapBehaviorClass.RFC6040: _table_from_rows(_RFC6040_ROWS),
    DecapBehaviorClass.RFC4301: _table_from_rows(_RFC4301_ROWS),
    DecapBehaviorClass.RFC3168: _table_from_rows(_RFC3168_ROWS),
    DecapBehaviorClass.RFC2003_SIMPLE: _table_from_rows(_RFC2003_ROWS),
}

CONFORMANT_CLASSES: Tuple[DecapBehaviorClass, ...] = tuple(DecapBehaviorClass)


def builtin_policy(behavior: DecapBehaviorClass) -> DecapTable:
    """The standard decap table of a class, shared and read-only."""
    return _BUILTIN_TABLES[behavior]


def mangled_policy(table: Mapping) -> DecapTable:
    """A read-only copy of an arbitrary table, which must map the 16 cells and nothing else.

    Raises ValueError for a non-mapping, else naming every missing cell, else every key
    outside the cells, else every cell whose outcome is neither None nor an EcnCodepoint.
    """
    if type(table) is not dict and not isinstance(table, Mapping):
        raise ValueError(f"table is not a mapping: {type(table).__name__}")
    policy = dict(table)
    try:
        if policy.keys() == _CELL_SET and _OUTCOMES.issuperset(policy.values()):
            return MappingProxyType(policy)
    except TypeError:  # an unhashable outcome
        pass
    names = {(i, o): f"({i.json_name},{o.json_name})" for i, o in _ALL_CELLS}
    missing = [name for cell, name in names.items() if cell not in policy]
    if missing:
        raise ValueError(f"table incomplete: missing {', '.join(missing)}")
    extra = [repr(key) for key in policy if key not in names]
    if extra:
        raise ValueError(f"table has keys outside the 16 (inner, outer) cells: {', '.join(extra)}")
    wrong = [f"{name} -> {policy[cell]!r}" for cell, name in names.items() if policy[cell] not in OUTCOME_ORDER]
    raise ValueError(f"table outcomes must be None or an EcnCodepoint: {', '.join(wrong)}")


def mangled_zero_all() -> DecapTable:
    """A mangled egress that bleaches everything: onward is always Not-ECT."""
    return mangled_policy({cell: NOT_ECT for cell in _ALL_CELLS})


def mangled_copy_outer() -> DecapTable:
    """A mangled egress that forwards the outer ECN field, ignoring the inner."""
    return mangled_policy({(i, o): o for i, o in _ALL_CELLS})


def mangled_random(seed: int) -> DecapTable:
    """A mangled egress with a seeded, arbitrary but fixed table."""
    rng = random.Random(derive_seed(seed, "mangled-table"))
    return mangled_policy({cell: rng.choice(OUTCOME_ORDER) for cell in _ALL_CELLS})


def derive_seed(seed: int, *labels: object) -> int:
    """Derive an independent 64-bit sub-seed from a seed and a label path.

    SHA-256 over the decimal seed and the labels' ``str`` forms, so derived
    streams are stable across platforms and do not depend on call order.
    """
    # Imported here: a probe never derives a seed, and hashlib is slow to load.
    import hashlib

    h = hashlib.sha256()
    h.update(str(seed).encode())
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode())
    return int.from_bytes(h.digest()[:8], "big")


def reference_signature(
    behavior: DecapBehaviorClass, capability: Capability = Capability.FULL
) -> ProbeSignature:
    """Expected probe-row outcomes for a class.

    Returns the outcomes of the rows :func:`probe_rows` gives for the
    capability, in order.
    """
    return REFERENCE_SIGNATURES[capability][behavior]


def signature_of_policy(policy: DecapTable, capability: Capability = Capability.FULL) -> ProbeSignature:
    """Probe-row outcomes any table (mangled included) would produce on a clean path."""
    return tuple(policy[row] for row in probe_rows(capability))


# The reference signature of each class by capability,
# tabulated once; classes are in CONFORMANT_CLASSES order.
REFERENCE_SIGNATURES: Dict[Capability, Dict[DecapBehaviorClass, ProbeSignature]] = {
    capability: {
        behavior: signature_of_policy(builtin_policy(behavior), capability)
        for behavior in CONFORMANT_CLASSES
    }
    for capability in Capability
}


# ---------------------------------------------------------------------------
# Custom-table text form used by scenario configs: 16 entries
# "<inner>,<outer>-><outcome>" joined with ";", names per json_name.

# Table text also accepts "drop" for a drop; reports do not.
_TABLE_OUTCOME_NAMES = {**OUTCOME_BY_NAME, "drop": None}


class Store(dict):
    """A process-wide memo: ``store[key]`` is ``build(key)``, built on the first lookup and kept.  The store is
    cleared when full, before it keeps another entry, so it never holds more than ``limit``.  A build that raises
    keeps nothing; a key that cannot be hashed raises TypeError.  A hit is a C-level dict lookup."""

    __slots__ = ("build", "limit")

    def __init__(self, build, limit: int):
        self.build, self.limit = build, limit

    def __missing__(self, key):
        value = self.build(key)
        if len(self) >= self.limit:
            self.clear()
        self[key] = value
        return value


def _table_of_text(text: str) -> DecapTable:
    table = {}
    entries = [e.strip() for e in text.split(";") if e.strip()]
    for entry in entries:
        head, sep, tail = entry.partition("->")
        if not sep:
            raise ValueError(f"bad table entry {entry!r}: expected 'inner,outer->outcome'")
        parts = [p.strip() for p in head.split(",")]
        if len(parts) != 2:
            raise ValueError(f"bad table entry {entry!r}: expected two codepoints before '->'")
        try:
            inner, outer = CODEPOINT_BY_NAME[parts[0]], CODEPOINT_BY_NAME[parts[1]]
        except KeyError as exc:
            raise ValueError(f"bad table entry {entry!r}: unknown codepoint {exc.args[0]!r}") from None
        outcome_name = tail.strip()
        if outcome_name not in _TABLE_OUTCOME_NAMES:
            raise ValueError(f"bad table entry {entry!r}: unknown outcome {outcome_name!r}")
        if (inner, outer) in table:
            raise ValueError(f"duplicate table entry for ({parts[0]},{parts[1]})")
        table[(inner, outer)] = _TABLE_OUTCOME_NAMES[outcome_name]
    return mangled_policy(table)


# The custom-table memo: each valid text's table, by text.
_CUSTOM_TABLES = Store(_table_of_text, 64)


def parse_custom_table(text: str) -> DecapTable:
    """Parse the 16-row custom table grammar into a table, via :func:`mangled_policy`, once per text.

    Raises ValueError naming the offending entry; callers translate into
    their own config error type.
    """
    return _CUSTOM_TABLES[text]


def custom_table_text(policy: DecapTable) -> str:
    """Canonical text form of a table; inverse of :func:`parse_custom_table`."""
    return ";".join(
        f"{inner.json_name},{outer.json_name}->{OUTCOME_NAME[policy[(inner, outer)]]}" for inner, outer in _ALL_CELLS
    )
