"""The reference for the JSON report writer: the schema-1 document as a
dict, serialized by ``json.dumps``.  ``render_report(report, "json")`` must
equal :func:`oracle_bytes` byte for byte."""

import json

from ecnprobe.ecn import CODEPOINTS
from ecnprobe.engine import aggregate
from ecnprobe.report import SCHEMA_VERSION
from ecnprobe.tunnels import CONFORMANT_CLASSES, OUTCOME_NAME, PROBE_ROWS


def oracle_obj(report):
    aggregated = [aggregate(obs.votes) for obs in report.observations]
    copies = report.control.copied == set(CODEPOINTS)
    return {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "ecnprobe", "version": report.version},
        "seed": report.config.seed,
        "capability": report.config.capability,
        "repetitions": report.config.repetitions,
        "config": report.config._asdict(),
        "control": {
            "ingress_copies": copies,
            "overwrite_fallback_enabled": not copies,
            "codepoints": {
                cp.json_name: {
                    "feedback_matches": cp in report.control.reflected,
                    "outer_matches_initial": cp in report.control.copied,
                }
                for cp in CODEPOINTS
            },
        },
        "observations": [
            {
                "row": row,
                "initial": PROBE_ROWS[row][0].json_name,
                "outer_set": PROBE_ROWS[row][1].json_name,
                "consensus": OUTCOME_NAME[consensus],
                "ambiguous": ambiguous,
                "votes": {OUTCOME_NAME[outcome]: count for outcome, count in obs.votes.items()},
            }
            for row, (obs, (consensus, ambiguous)) in enumerate(zip(report.observations, aggregated))
        ],
        "classification": {
            "result": ("mangled", "single", "ambiguous")[min(len(report.classification), 2)],
            "classes": [c.json_name for c in sorted(report.classification, key=CONFORMANT_CLASSES.index)],
        },
        "verdict": report.verdict.value,
    }


def oracle_bytes(report) -> bytes:
    return (json.dumps(oracle_obj(report), indent=2, sort_keys=True) + "\n").encode()
