"""An independent reader of the ``--trace`` text: from a trace and its
config alone it derives what the ``--json`` report must say about the
control test, each row, the classification and the verdict.  It parses the
trace here and decides with :func:`paper_model.decide`, so like the model
it imports nothing from ``ecnprobe``.  It reads each outer as the tester's
device sent it, and makes no claim about which outers a CE-only device can
write."""

import re

from paper_model import WIRE, decide

# Trace names to report names.
NAMES = {"Not-ECT": "not_ect", "ECT(1)": "ect1", "ECT(0)": "ect0", "CE": "ce", "ABSENT": "dropped"}
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
    return decide(exchanges(trace), servers, repetitions, fields.get("capability", "full"))
