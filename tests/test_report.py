"""The JSON report writer against the ``json.dumps`` oracle on reports at
the edges of schema 1: empty lists, escaped strings and unusual numbers;
the writer's constants against the code they stand in for; and the writer
and the reader agreeing on which configs are valid."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecnprobe import report as report_module
from ecnprobe.cli import parse_config_text
from ecnprobe.ecn import CODEPOINTS
from ecnprobe.engine import ControlFailure, ControlReport, run_probe_session
from ecnprobe.feedback import encode_handshake, wireshark_string
from ecnprobe.report import build_report, parse_report, render_report
from ecnprobe.simnet import ConfigError, ScenarioConfig, build_scenario
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
    # build_scenario refuses an int probability, so the echoed config is
    # replaced after the session.
    "int-valued probabilities": (
        lambda: session_report(ScenarioConfig(egress="rfc4301", aqm_ce_probability=1.0))._replace(
            config=ScenarioConfig(egress="rfc4301", aqm_ce_probability=1, loss_probability=0)
        ),
        b'"aqm_ce_probability": 1,',
    ),
    # json.dumps writes these leaves; the writer loads json for them.
    "no egress and non-finite probabilities": (
        lambda: session_report(ScenarioConfig(egress="rfc4301"))._replace(
            config=ScenarioConfig(egress=None, aqm_ce_probability=float("inf"), loss_probability=float("nan"))
        ),
        b'"aqm_ce_probability": Infinity,\n    "capability": "full",\n    "egress": null,',
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


def test_the_json_templates_are_json_dumps_layouts():
    def dumped(skeleton, indent):
        return json.dumps(skeleton, indent=2, sort_keys=True).replace('"%s"', "%s").replace("\n", "\n" + indent)

    assert report_module._REPORT_JSON == dumped(report_module._REPORT_SKELETON, "") + "\n"
    assert report_module._OBSERVATION_JSON == "\n    " + dumped(report_module._OBSERVATION_SKELETON, "    ")


# Each string that EDGE_REPORTS escapes also holds non-ASCII, so the
# examples pin a quote, a backslash and a control character on their own.
@settings(database=None)
@given(
    st.one_of(
        st.text(),
        st.booleans(),
        st.integers(-(2**64), 2**64),
        st.floats(allow_nan=True, allow_infinity=True),
        st.none(),
    )
)
@example('"')
@example("\\")
@example("\t")
@example("\x7f")
@example("\u00e9")
@example("")
@example(-0.0)
def test_a_leaf_is_what_json_dumps_writes(value):
    assert report_module._leaf(value) == json.dumps(value)


# Sessions whose control tests reflect the same codepoints and copy
# different ones (copy and zero ingress), and whose classifications repeat
# under other capabilities and consensus vectors.
SECTION_CONFIGS = [
    ScenarioConfig(
        ingress=ingress, egress=egress, capability=capability, aqm_ce_probability=noise, loss_probability=noise
    )
    for egress in ("rfc6040", "rfc3168", "rfc2003", ZERO_ALL)
    for ingress in ("copy", "zero", "rfc3168full")
    for capability in ("full", "ce_only")
    for noise in (0.0, 0.3)
]


def plain_sets(report):
    """The report with plain sets, which no section memo can key, for its control sets and classification."""
    control = ControlReport(set(report.control.reflected), set(report.control.copied))
    return report._replace(control=control, classification=set(report.classification))


def test_a_report_with_plain_sets_renders_as_one_with_frozensets(fresh_stores):
    # Each section kept by the memos is the one its report shows: a memo
    # keyed by less than its section depends on would hand a report an
    # earlier report's section.
    for config in SECTION_CONFIGS:
        report = session_report(config)
        for format in ("text", "json"):
            assert render_report(report, format) == render_report(plain_sets(report), format), (config, format)


def test_the_synack_flags_are_the_handshake_codecs():
    expected = {cp: wireshark_string(encode_handshake(cp)) for cp in CODEPOINTS}
    assert report_module._SYNACK_FLAGS == expected


# Valid configs of at most 3 x 3 probes per row, with up to three numeric
# fields replaced by an int, a float or a bool, in range or not.
numbers = st.one_of(st.booleans(), st.integers(-1, 3), st.floats(-0.5, 1.5), st.floats())
typed_configs = st.builds(
    lambda config, replaced: config._replace(**replaced),
    st.builds(
        ScenarioConfig,
        ingress=st.sampled_from(("copy", "zero")),
        egress=st.sampled_from(("rfc6040", "rfc2003")),
        aqm_ce_probability=st.floats(0, 1),
        loss_probability=st.floats(0, 1),
        seed=st.integers(0, 2**64),
        servers=st.integers(1, 3),
        repetitions=st.integers(1, 3),
        capability=st.sampled_from(("full", "ce_only")),
    ),
    st.dictionaries(
        st.sampled_from(("aqm_ce_probability", "loss_probability", "seed", "servers", "repetitions")),
        numbers,
        max_size=3,
    ),
)


@settings(max_examples=300, deadline=None, database=None)
@given(typed_configs)
def test_a_config_build_scenario_accepts_gives_a_report_parse_report_accepts(config):
    try:
        report = session_report(config)
    except (ConfigError, ControlFailure):
        return
    assert parse_report(render_report(report, "json")) == report
