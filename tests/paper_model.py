"""The paper's probe procedure, written once for the tests: the RFC decap
tables, the ingress rules, the probe rows, the vote, the signatures, the
classification and the verdict; one packet and the exact distribution of
its outcome; and the decision a session's exchange log leads to.  It
imports nothing from ``ecnprobe``, so an oracle built on it shares no code
with what it checks.  It works in the report's names (``dropped`` for a
packet no server saw).  A table maps (inner, outer) to an outcome; a table
under test is passed in, and only the reference tables are written here."""

from collections import Counter

# The four codepoints in 2-bit wire order, and the outcomes in the vote's tie order: a drop first.
WIRE = ("not_ect", "ect1", "ect0", "ce")
TIE_ORDER = ("dropped", *WIRE)

# Each class's onward outcome by inner (the rows) and by the outer arriving at the egress (the columns, in the
# order of RFC 6040's figure 4), in signature order.
_COLUMNS = ("not_ect", "ect0", "ect1", "ce")
_ONWARD = {
    # RFC 6040 s4.2: an outer CE marks an ECN-capable inner and drops a Not-ECT one; an outer ECT(1) upgrades an
    # ECT(0) inner.
    "rfc6040": {
        "not_ect": ("not_ect", "not_ect", "not_ect", "dropped"),
        "ect0": ("ect0", "ect0", "ect1", "ce"),
        "ect1": ("ect1", "ect1", "ect1", "ce"),
        "ce": ("ce", "ce", "ce", "ce"),
    },
    # RFC 4301 s5.1.2: only an outer CE counts, copied to an ECN-capable inner; nothing is dropped.
    "rfc4301": {
        "not_ect": ("not_ect", "not_ect", "not_ect", "not_ect"),
        "ect0": ("ect0", "ect0", "ect0", "ce"),
        "ect1": ("ect1", "ect1", "ect1", "ce"),
        "ce": ("ce", "ce", "ce", "ce"),
    },
    # RFC 3168 s9.1.1, full functionality: as RFC 4301, but an outer CE drops a Not-ECT inner.
    "rfc3168": {
        "not_ect": ("not_ect", "not_ect", "not_ect", "dropped"),
        "ect0": ("ect0", "ect0", "ect0", "ce"),
        "ect1": ("ect1", "ect1", "ect1", "ce"),
        "ce": ("ce", "ce", "ce", "ce"),
    },
    # RFC 2003: the outer is stripped unexamined, so the inner goes on.
    "rfc2003": {inner: (inner,) * 4 for inner in WIRE},
}
TABLES = {
    cls: {(inner, outer): onward for inner, row in rows.items() for outer, onward in zip(_COLUMNS, row)}
    for cls, rows in _ONWARD.items()
}
# The classes whose egress propagates ECN marks correctly.
GREEN = frozenset({"rfc6040", "rfc4301", "rfc3168"})

# The outer ECN field each ingress writes, by initial; the inner is the initial.  RFC 6040's normal mode copies
# it; RFC 3168's limited functionality writes Not-ECT; its full functionality (s9.1.1) copies all but CE, which
# it writes as ECT(0).
INGRESS = {
    "copy": {cp: cp for cp in WIRE},
    "zero": dict.fromkeys(WIRE, "not_ect"),
    "rfc3168full": {cp: "ect0" if cp == "ce" else cp for cp in WIRE},
}

# (initial, outer) of each main-test row, the outer written over the ingress's by the tester's device.  A CE-only
# device can write only CE, so it probes the first three.
ROWS = (("not_ect", "ce"), ("ect1", "ce"), ("ect0", "ce"), ("ect0", "ect1"))
ROWS_BY_CAPABILITY = {"full": ROWS, "ce_only": ROWS[:3]}
# What each class's table forwards on the rows; a CE-only signature is its first three outcomes.
SIGNATURES = {cls: tuple(table[row] for row in ROWS) for cls, table in TABLES.items()}


def vote(votes):
    """(consensus, ambiguous) of a row's votes, counts by outcome: the most voted outcome, a tie going to the
    earliest in TIE_ORDER, and ambiguous unless it holds a strict majority."""
    best = max((o for o in TIE_ORDER if o in votes), key=votes.__getitem__)
    return best, votes[best] * 2 <= sum(votes.values())


def classify(consensus):
    """The classes, in signature order, whose signature the consensus vector is, or begins."""
    return [cls for cls, signature in SIGNATURES.items() if signature[:len(consensus)] == tuple(consensus)]


def kind(classes):
    return ("mangled", "single", "ambiguous")[min(len(classes), 2)]


def verdict(classes):
    return "propagates_correctly" if classes and GREEN.issuperset(classes) else "does_not_propagate"


def packet(table, ingress, initial, override, aqm, loss, bugs, draw):
    """(outer as sent, onward, feedback) of one packet to a server whose feedback goes through ``bugs``.  The
    ingress writes the outer unless the tester's device overrides it; ``draw()`` then decides AQM, which marks an
    ECT outer CE (a Not-ECT one it would drop, as loss models), and then loss, both drawn whatever happens."""
    sent = INGRESS[ingress][initial] if override is None else override
    marked, lost = draw() < aqm, draw() < loss
    onward = "dropped" if lost else table[(initial, "ce" if marked and sent in ("ect0", "ect1") else sent)]
    return sent, onward, bugs.get(onward, onward)


def outcome_distribution(table, initial, outer, aqm, loss):
    """Each outcome's chance, by TIE_ORDER, for one packet sent as ``(initial, outer)`` to a healthy server:
    :func:`packet`'s two draws in closed form."""
    marked = aqm if outer in ("ect0", "ect1") else 0.0
    chances = dict.fromkeys(TIE_ORDER, 0.0)
    chances["dropped"] += loss
    for arriving, chance in (("ce", marked), (outer, 1.0 - marked)):
        chances[table[(initial, arriving)]] += (1.0 - loss) * chance
    return chances


def report_sections(reflected, copied, row_votes, classes):
    """The report's ``control``, ``observations``, ``classification`` and ``verdict`` from its facts: the
    codepoints some feedback reflected, those whose every outer the ingress copied, each row's votes (counts by
    outcome) and the matched classes."""
    observations = []
    for row, votes in enumerate(row_votes):
        consensus, ambiguous = vote(votes)
        initial, outer = ROWS[row]
        observations.append(dict(row=row, initial=initial, outer_set=outer, consensus=consensus, ambiguous=ambiguous,
                                 votes=dict(votes)))
    return {
        "control": {
            "codepoints": {cp: {"feedback_matches": cp in reflected, "outer_matches_initial": cp in copied}
                           for cp in WIRE},
            "ingress_copies": len(copied) == 4,
            "overwrite_fallback_enabled": len(copied) < 4,
        },
        "observations": observations,
        "classification": {"classes": classes, "result": kind(classes)},
        "verdict": verdict(classes),
    }


def control(probes):
    """(reflected, copied, the probes after it) of the control test that begins a session's probes, each a list
    of exchanges (server, initial, outer as sent, feedback).  The control test probes the codepoints in wire
    order, and again with each outer overwritten with a copy of the initial if the ingress did not copy all four;
    its last pass decides the reflected set, which is empty for a control failure."""
    copied = {cp for cp, probe in zip(WIRE, probes) if all(o == cp for _, _, o, _ in probe)}
    fallback = len(copied) < 4
    passes, rest = (probes[4:8], probes[8:]) if fallback else (probes[:4], probes[4:])
    assert [probe[0][1] for probe in probes[:8 if fallback else 4]] == list(WIRE) * (1 + fallback)
    assert not fallback or all(o == i for probe in passes for _, i, o, _ in probe)
    return {cp for cp, probe in zip(WIRE, passes) if any(f == cp for *_, f in probe)}, copied, rest


def decide(log, servers, repetitions, capability):
    """:func:`report_sections` from a session's exchange log alone, each exchange (server, initial, outer as
    sent, feedback), asserting the paper's schedule: each probe sends one initial to every server
    ``repetitions`` times, servers varying fastest.  After the :func:`control` test, the capability's rows are
    probed."""
    n = servers * repetitions
    probes = [log[i:i + n] for i in range(0, len(log), n)]
    for probe in probes:
        assert [(s, i) for s, i, _, _ in probe] == [(k % servers, probe[0][1]) for k in range(n)]
    reflected, copied, main = control(probes)
    assert reflected, "a control failure has no report"
    assert [{(i, o) for _, i, o, _ in probe} for probe in main] == [{row} for row in ROWS_BY_CAPABILITY[capability]]
    row_votes = [Counter(f for *_, f in probe) for probe in main]
    classes = classify(tuple(vote(votes)[0] for votes in row_votes))
    return report_sections(reflected, copied, row_votes, classes)
