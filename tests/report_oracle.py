"""The reference for the JSON report writer: the schema-1 document as a
dict, serialized by ``json.dumps``.  ``render_report(report, "json")`` must
equal :func:`oracle_bytes` byte for byte.  The report's facts (its control
sets, votes and classes) are read in ``paper_model``'s names, and the
model lays out its control test, rows, classification and verdict."""

import json

import paper_model as model
from ecnprobe.report import SCHEMA_VERSION
from ecnprobe.tunnels import OUTCOME_NAME


def oracle_obj(report):
    reflected, copied = ({OUTCOME_NAME[cp] for cp in cps} for cps in (report.control.reflected, report.control.copied))
    row_votes = [{OUTCOME_NAME[outcome]: count for outcome, count in obs.votes.items()} for obs in report.observations]
    matched = {cls.json_name for cls in report.classification}
    return {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "ecnprobe", "version": report.version},
        "seed": report.config.seed,
        "capability": report.config.capability,
        "repetitions": report.config.repetitions,
        "config": report.config._asdict(),
        **model.report_sections(reflected, copied, row_votes, [c for c in model.SIGNATURES if c in matched]),
    }


def oracle_bytes(report) -> bytes:
    return (json.dumps(oracle_obj(report), indent=2, sort_keys=True) + "\n").encode()
