import json

import pytest

from ecnprobe.cli import (
    EXIT_BY_VERDICT,
    EXIT_CANTCREAT,
    EXIT_CONFIG,
    EXIT_CONTROL_FAILURE,
    main,
    parse_config_text,
)
from ecnprobe.engine import PropagationVerdict, run_probe_session
from ecnprobe.report import (
    ProbeReport,
    build_report,
    parse_report,
    render_report,
)
from ecnprobe.simnet import ConfigError, ScenarioConfig, build_scenario
from ecnprobe.tunnels import custom_table_text, mangled_zero_all


def write_config(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def run_session_report(config):
    scenario = build_scenario(config)
    from ecnprobe.tunnels import Capability

    result = run_probe_session(scenario, Capability(config.capability), config.repetitions)
    return build_report(result, config)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_defaults():
    config = parse_config_text("egress = rfc6040\n")
    assert config.ingress == "copy"
    assert config.egress == "rfc6040"
    assert config.aqm_ce_probability == 0.0
    assert config.loss_probability == 0.0
    assert config.seed == 0
    assert config.servers == 3
    assert config.repetitions == 5
    assert config.capability == "full"


def test_parse_config_full_file():
    text = """
# probe scenario
ingress = zero
egress = rfc3168
aqm_ce_probability = 0.1   # light marking
loss_probability = 0.05
seed = 99
servers = 2
repetitions = 7
capability = ce_only
"""
    config = parse_config_text(text)
    assert config.ingress == "zero"
    assert config.egress == "rfc3168"
    assert config.aqm_ce_probability == 0.1
    assert config.loss_probability == 0.05
    assert config.seed == 99
    assert config.servers == 2
    assert config.repetitions == 7
    assert config.capability == "ce_only"


def test_parse_config_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError) as exc_info:
        parse_config_text("egress = rfc6040\nwarp_factor = 9\negress = rfc4301\nseed = x\n")
    fields = [f for f, _ in exc_info.value.errors]
    assert "warp_factor" in fields
    assert "egress" in fields  # duplicate
    assert "seed" in fields  # not an int


def test_parse_config_rejects_bad_lines():
    with pytest.raises(ConfigError) as exc_info:
        parse_config_text("just some words\n")
    assert "line 1" in exc_info.value.errors[0][0]


# ---------------------------------------------------------------------------
# probe subcommand


def test_probe_green_egress_exits_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, "egress = rfc6040\nseed = 42\n")
    code = main(["probe", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert "RFC6040" in out
    assert "ECT(0) ECT(1) -> ECT(1)" in out
    assert ".C." in out
    assert "verdict: propagates_correctly" in out


def test_probe_simple_tunnel_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "egress = rfc2003\nseed = 1\n")
    code = main(["probe", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 1
    assert "classification: single (RFC2003)" in out
    assert "verdict: does_not_propagate" in out


def test_probe_mangled_custom_table_exits_one(tmp_path, capsys):
    table = custom_table_text(mangled_zero_all())
    cfg = write_config(tmp_path, f"egress = custom:{table}\nseed = 3\n")
    code = main(["probe", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 1
    assert "classification: mangled" in out
    # bleaching egress reflects only Not-ECT; the report must flag the rest
    assert "warning: feedback never reflected" in out


def test_probe_ce_only_green_still_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, "egress = rfc3168\ncapability = ce_only\n")
    code = main(["probe", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert "classification: ambiguous (RFC6040, RFC3168)" in out


def test_probe_dead_path_exits_three(tmp_path, capsys):
    cfg = write_config(tmp_path, "egress = rfc6040\nloss_probability = 1.0\n")
    code = main(["probe", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == EXIT_CONTROL_FAILURE
    assert "control test failed" in err


def test_probe_missing_config_exits_64(tmp_path, capsys):
    code = main(["probe", "--config", str(tmp_path / "missing.cfg")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "config error" in err


def test_probe_invalid_config_reports_each_field(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "egress = rfc6040\naqm_ce_probability = 1.5\nservers = 0\n"
    )
    code = main(["probe", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "aqm_ce_probability" in err
    assert "servers" in err


def test_usage_error_exits_64(capsys):
    assert main(["probe"]) == EXIT_CONFIG
    assert main(["warp"]) == EXIT_CONFIG
    capsys.readouterr()


def test_exit_code_mapping_is_total():
    assert EXIT_BY_VERDICT[PropagationVerdict.PROPAGATES_CORRECTLY] == 0
    assert EXIT_BY_VERDICT[PropagationVerdict.DOES_NOT_PROPAGATE] == 1
    assert EXIT_BY_VERDICT[PropagationVerdict.UNKNOWN] == 2


def test_probe_writes_json_and_trace(tmp_path, capsys):
    cfg = write_config(tmp_path, "egress = rfc4301\nseed = 8\n")
    json_out = tmp_path / "report.json"
    trace_out = tmp_path / "run.trace"
    code = main(["probe", "--config", str(cfg), "--json", str(json_out), "--trace", str(trace_out)])
    capsys.readouterr()
    assert code == 0
    obj = json.loads(json_out.read_text())
    assert obj["schema"] == 1
    assert obj["classification"] == {"classes": ["rfc4301"], "result": "single"}
    assert obj["verdict"] == "propagates_correctly"
    assert obj["control"]["ingress_copies"] is True
    assert len(obj["observations"]) == 4
    assert "FEEDBACK" in trace_out.read_text()


@pytest.mark.parametrize("flag", ["--json", "--trace"])
def test_probe_unwritable_output_exits_73(tmp_path, capsys, flag):
    cfg = write_config(tmp_path, "egress = rfc6040\nseed = 8\n")
    target = tmp_path / "missing-dir" / "out"
    code = main(["probe", "--config", str(cfg), flag, str(target)])
    err = capsys.readouterr().err
    assert code == EXIT_CANTCREAT
    assert EXIT_CANTCREAT not in (*EXIT_BY_VERDICT.values(), EXIT_CONTROL_FAILURE, EXIT_CONFIG)
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_cli_runs_are_byte_identical(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "egress = rfc6040\nseed = 31\naqm_ce_probability = 0.1\nloss_probability = 0.05\n",
    )
    outputs = []
    for run_index in range(2):
        json_out = tmp_path / f"report{run_index}.json"
        trace_out = tmp_path / f"run{run_index}.trace"
        main(["probe", "--config", str(cfg), "--json", str(json_out), "--trace", str(trace_out)])
        outputs.append((json_out.read_bytes(), trace_out.read_bytes()))
    capsys.readouterr()
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# report serialization


def test_report_json_round_trip_byte_identical():
    config = ScenarioConfig(egress="rfc6040", seed=42)
    report = run_session_report(config)
    data = render_report(report, "json")
    reparsed = parse_report(data)
    assert render_report(reparsed, "json") == data
    assert reparsed == report


def test_report_json_round_trip_under_noise_and_ce_only():
    config = ScenarioConfig(
        egress="rfc2003",
        seed=13,
        aqm_ce_probability=0.2,
        loss_probability=0.1,
        capability="ce_only",
    )
    report = run_session_report(config)
    data = render_report(report, "json")
    assert render_report(parse_report(data), "json") == data


def test_empty_observations_report_is_valid_json():
    config = ScenarioConfig(egress="rfc6040")
    full = run_session_report(config)
    empty = ProbeReport(
        control=full.control,
        observations=[],
        classification=full.classification,
        verdict=full.verdict,
        capability=full.capability,
        repetitions=full.repetitions,
        seed=full.seed,
        config=full.config,
    )
    obj = json.loads(render_report(empty, "json"))
    assert obj["observations"] == []
    assert render_report(parse_report(render_report(empty, "json")), "json") == render_report(
        empty, "json"
    )


def test_render_report_rejects_unknown_format():
    config = ScenarioConfig(egress="rfc6040")
    report = run_session_report(config)
    with pytest.raises(ValueError):
        render_report(report, "yaml")


# ---------------------------------------------------------------------------
# tables and selftest subcommands


def test_tables_prints_reference_rows(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    # the probed rows, verbatim per behaviour
    assert "RFC6040:" in out
    assert "Not-ECT CE -> dropped" in out
    assert "ECT(0) ECT(1) -> ECT(1)" in out
    assert "ECT(0) ECT(1) -> ECT(0)" in out
    assert "ECT(1) CE -> ECT(1)" in out  # the simple tunnel row
    assert "Decapsulation profiles" in out


def test_tables_grid_matches_reference_signatures(capsys):
    main(["tables"])
    out = capsys.readouterr().out
    sections = {}
    current = None
    for line in out.splitlines():
        if line.endswith(":") and line[:-1] in ("RFC6040", "RFC4301", "RFC3168", "RFC2003"):
            current = line[:-1]
            sections[current] = []
        elif current and line.startswith("  ") and "->" in line:
            sections[current].append(line.strip())
        elif not line.strip():
            current = None
    assert sections["RFC6040"] == [
        "Not-ECT CE -> dropped",
        "ECT(1) CE -> CE",
        "ECT(0) CE -> CE",
        "ECT(0) ECT(1) -> ECT(1)",
    ]
    assert sections["RFC4301"] == [
        "Not-ECT CE -> Not-ECT",
        "ECT(1) CE -> CE",
        "ECT(0) CE -> CE",
        "ECT(0) ECT(1) -> ECT(0)",
    ]
    assert sections["RFC3168"] == [
        "Not-ECT CE -> dropped",
        "ECT(1) CE -> CE",
        "ECT(0) CE -> CE",
        "ECT(0) ECT(1) -> ECT(0)",
    ]
    assert sections["RFC2003"] == [
        "Not-ECT CE -> Not-ECT",
        "ECT(1) CE -> ECT(1)",
        "ECT(0) CE -> ECT(0)",
        "ECT(0) ECT(1) -> ECT(0)",
    ]


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    ran = sum(line.startswith("ok ") for line in out.splitlines())
    assert ran == 12
    assert out.endswith(f"selftest: {ran}/{ran} scenarios identified correctly\n")
    assert "FAIL" not in out
