"""The JSON report writer against the ``json.dumps`` oracle on reports at
the edges of schema 1: empty lists, escaped strings and unusual numbers."""

import pytest

from ecnprobe.cli import parse_config_text
from ecnprobe.engine import run_probe_session
from ecnprobe.report import build_report, render_report
from ecnprobe.simnet import ScenarioConfig, build_scenario
from ecnprobe.tunnels import Capability, custom_table_text, mangled_zero_all
from report_oracle import oracle_bytes


def session_report(config):
    result = run_probe_session(build_scenario(config), Capability(config.capability), config.repetitions)
    return build_report(result, config)


ZERO_ALL = "custom:" + custom_table_text(mangled_zero_all())
# A config file whose custom: entries hold a tab and a no-break space, which
# the table parser strips and the config echo keeps.
SPACED_CONFIG = "egress = " + ZERO_ALL.replace(",", ",\t").replace("->", "\u00a0->") + "\n"

# id -> (report, text its JSON must contain)
EDGE_REPORTS = {
    "empty observations": (
        lambda: session_report(ScenarioConfig(egress="rfc6040"))._replace(observations=[]),
        b'"observations": [],',
    ),
    "mangled": (lambda: session_report(ScenarioConfig(egress=ZERO_ALL)), b'"classes": [],'),
    "tab and no-break space in a custom table": (
        lambda: session_report(parse_config_text(SPACED_CONFIG)),
        b'"custom:not_ect,\\tnot_ect\\u00a0->not_ect;',
    ),
    "quote, backslash, newline and non-ASCII in the version": (
        lambda: session_report(ScenarioConfig(egress="rfc6040"))._replace(version='0.1"\\\n\u00e9'),
        b'"version": "0.1\\"\\\\\\n\\u00e9"',
    ),
    "int-valued probabilities": (
        lambda: session_report(ScenarioConfig(egress="rfc4301", aqm_ce_probability=1, loss_probability=0)),
        b'"aqm_ce_probability": 1,',
    ),
    "largest seed": (
        lambda: session_report(ScenarioConfig(egress="rfc3168", seed=2**64 - 1)),
        b'"seed": 18446744073709551615,',
    ),
}


@pytest.mark.parametrize("make, needle", EDGE_REPORTS.values(), ids=EDGE_REPORTS.keys())
def test_json_writer_matches_the_oracle_at_the_edges(make, needle):
    report = make()
    data = render_report(report, "json")
    assert data == oracle_bytes(report)
    assert needle in data
