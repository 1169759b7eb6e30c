"""An independent reader of the ``--trace`` text: from a trace and its
config alone it derives what the ``--json`` report must say about the
control test, each row, the classification and the verdict.  It imports
nothing from ``ecnprobe``: the rows, the tie order and the reference
signatures are written out here from the RFC decapsulation tables (RFC 6040
s4.2, RFC 4301 s5.1.2, RFC 3168 s9.1.1, and an RFC 2003 tunnel, which
forwards the inner).  It reads each outer as the tester's device sent it,
and makes no claim about which outers a CE-only device can write."""

import re
from collections import Counter

# Trace names to report names; the four codepoints in 2-bit wire order.
NAMES = {"Not-ECT": "not_ect", "ECT(1)": "ect1", "ECT(0)": "ect0", "CE": "ce", "ABSENT": "dropped"}
WIRE = ("not_ect", "ect1", "ect0", "ce")
TIE_ORDER = ("dropped", *WIRE)
# (initial, outer) of each main-test row; a CE-only device probes the first three.
ROWS = (("not_ect", "ce"), ("ect1", "ce"), ("ect0", "ce"), ("ect0", "ect1"))
# What each class's table forwards for the four rows.
SIGNATURES = {
    "rfc6040": ("dropped", "ce", "ce", "ect1"),
    "rfc4301": ("not_ect", "ce", "ce", "ect0"),
    "rfc3168": ("dropped", "ce", "ce", "ect0"),
    "rfc2003": ("not_ect", "ect1", "ect0", "ect0"),
}
GREEN = {"rfc6040", "rfc4301", "rfc3168"}
# One exchange: the Inner line repeats the Initial's server, octet and name.
EXCHANGE = re.compile(
    r"(\d+) (\d+) Initial (0\d) (\S+)\n\1 \2 Inner \3 \4\n\1 \2 Outer (0\d) (\S+)\n"
    r"(?:\1 \2 Onward (0\d) (\S+)\n)?\1 FEEDBACK (\S+)\n"
)


def exchanges(trace):
    """(server, initial, outer, feedback) of each exchange, checking the layout, numbering and octets."""
    found = list(EXCHANGE.finditer(trace))
    assert "".join(m.group(0) for m in found) == trace, "the trace is not a sequence of exchanges"
    assert [int(m[1]) for m in found] == list(range(len(found))), "exchanges are not numbered 0, 1, 2, ..."
    for m in found:
        for octet, name in ((m[3], m[4]), (m[5], m[6]), (m[7], m[8])):
            assert octet is None or WIRE[int(octet)] == NAMES[name]
    return [(int(m[2]), NAMES[m[4]], NAMES[m[6]], NAMES[m[9]]) for m in found]


def derive(trace, config):
    """The ``control``, ``observations``, ``classification`` and ``verdict`` of the report."""
    fields = {k.strip(): v.strip() for k, _, v in (line.split("#")[0].partition("=") for line in config.splitlines())}
    servers, repetitions = int(fields.get("servers", 3)), int(fields.get("repetitions", 5))
    n = servers * repetitions
    rows = ROWS[:3] if fields.get("capability") == "ce_only" else ROWS
    found = exchanges(trace)
    probes = [found[i:i + n] for i in range(0, len(found), n)]
    for probe in probes:  # one initial, sent to every server, servers varying fastest
        assert [(s, i) for s, i, _, _ in probe] == [(k % servers, probe[0][1]) for k in range(n)]
    copied = {cp for cp, probe in zip(WIRE, probes) if all(o == cp for _, _, o, _ in probe)}
    fallback = len(copied) < 4
    control, main = (probes[4:8], probes[8:]) if fallback else (probes[:4], probes[4:])
    assert [probe[0][1] for probe in probes[:8 if fallback else 4]] == list(WIRE) * (1 + fallback)
    # The fallback pass overwrites each outer with a copy of its initial.
    assert not fallback or all(o == i for probe in control for _, i, o, _ in probe)
    reflected = {cp for cp, probe in zip(WIRE, control) if any(f == cp for *_, f in probe)}
    assert reflected, "a control failure writes no trace"
    assert [{(i, o) for _, i, o, _ in probe} for probe in main] == [{row} for row in rows]
    observations = []
    for row, ((initial, outer), probe) in enumerate(zip(rows, main)):
        votes = Counter(f for *_, f in probe)
        best = max((o for o in TIE_ORDER if o in votes), key=votes.__getitem__)
        ambiguous = votes[best] * 2 <= n
        observations.append(dict(row=row, initial=initial, outer_set=outer, consensus=best, ambiguous=ambiguous,
                                 votes=dict(votes)))
    consensus = tuple(obs["consensus"] for obs in observations)
    classes = [c for c, signature in SIGNATURES.items() if signature[:len(rows)] == consensus]
    verdict = "propagates_correctly" if classes and GREEN.issuperset(classes) else (
        "does_not_propagate" if len(classes) <= 1 else "unknown")
    return {
        "control": {
            "codepoints": {cp: {"feedback_matches": cp in reflected, "outer_matches_initial": cp in copied}
                           for cp in WIRE},
            "ingress_copies": not fallback,
            "overwrite_fallback_enabled": fallback,
        },
        "observations": observations,
        "classification": {"classes": classes, "result": ("mangled", "single", "ambiguous")[min(len(classes), 2)]},
        "verdict": verdict,
    }
