import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecnprobe import cli
from ecnprobe.cli import (
    EXIT_BY_VERDICT,
    EXIT_CANTCREAT,
    EXIT_CONFIG,
    EXIT_CONTROL_FAILURE,
    main,
    parse_config_text,
)
from ecnprobe.engine import ControlFailure, PropagationVerdict, run_probe_session
from ecnprobe.report import (
    build_report,
    parse_report,
    render_report,
)
from ecnprobe.simnet import ConfigError, ScenarioConfig, build_scenario
from ecnprobe.tunnels import custom_table_text, mangled_random, mangled_zero_all


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


TABLE_NAMES = st.sampled_from(("not_ect", "ect1", "ect0", "ce", "dropped", "x", ""))
TABLE_ENTRIES = custom_table_text(mangled_random(5)).split(";")
# A valid value for every key, and for each key values that may be anything.
VALID_VALUES = {
    "ingress": st.sampled_from(("copy", "zero", "rfc3168full")),
    "egress": st.one_of(
        st.sampled_from(("rfc6040", "rfc4301", "rfc3168", "rfc2003")),
        st.permutations(TABLE_ENTRIES).map(lambda entries: "custom:" + ";".join(entries)),
    ),
    "aqm_ce_probability": st.floats(0, 1),
    "loss_probability": st.floats(0, 1),
    "seed": st.integers(0),
    "servers": st.integers(1, 20),
    "repetitions": st.integers(1, 20),
    "capability": st.sampled_from(("full", "ce_only")),
}
table_entries = st.one_of(
    st.sampled_from(TABLE_ENTRIES),
    st.tuples(TABLE_NAMES, TABLE_NAMES, TABLE_NAMES).map("{0[0]},{0[1]}->{0[2]}".format),
    st.text(),
)
any_number = st.one_of(st.integers(-2, 2), st.floats(-2, 2), st.integers(), st.floats(), st.text())
ANY_VALUES = {
    "ingress": st.one_of(st.sampled_from(("rfc6040", "full")), st.text()),
    "egress": st.one_of(
        st.sampled_from(("copy", "custom:")),
        st.lists(table_entries, max_size=20).map(lambda entries: "custom:" + ";".join(entries)),
        st.text(),
    ),
    "aqm_ce_probability": any_number,
    "loss_probability": any_number,
    "seed": any_number,
    "servers": any_number,
    "repetitions": any_number,
    "capability": st.one_of(st.sampled_from(("copy", "FULL")), st.text()),
}
# Valid configs with up to three values replaced, so that most examples get
# past parse_config_text into build_scenario, plus plain arbitrary text.
overrides = st.lists(
    st.sampled_from(sorted(ANY_VALUES)).flatmap(lambda key: st.tuples(st.just(key), ANY_VALUES[key])), max_size=3
)
config_texts = st.one_of(
    st.text(),
    st.tuples(st.fixed_dictionaries(VALID_VALUES), overrides).map(
        lambda parts: "".join(f"{key} = {value}\n" for key, value in {**parts[0], **dict(parts[1])}.items())
    ),
)


@settings(max_examples=500, deadline=None, database=None)
@given(config_texts)
def test_config_text_raises_only_config_error(text):
    try:
        build_scenario(parse_config_text(text))
    except ConfigError:
        pass


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


def test_probe_huge_session_exits_64_before_probing(tmp_path, capsys):
    cfg = write_config(tmp_path, "egress = rfc6040\nservers = 1000000000\nrepetitions = 1000000\n")
    code = main(["probe", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err.startswith("config error: servers x repetitions: ")
    assert captured.out == ""


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


@pytest.mark.parametrize(
    "outputs, message",
    [
        (["--json", "{cfg}"], "--json and --config"),
        (["--trace", "{dir}/sub/../scenario.cfg"], "--trace and --config"),
        (["--json", "{dir}/link.cfg"], "--json and --config"),
        (["--json", "{dir}/out", "--trace", "{dir}/./out"], "--trace and --json"),
    ],
)
def test_probe_refuses_outputs_that_name_the_same_file(tmp_path, capsys, outputs, message):
    (tmp_path / "sub").mkdir()
    text = "egress = rfc6040\nseed = 8\n"
    cfg = write_config(tmp_path, text)
    os.link(cfg, tmp_path / "link.cfg")
    argv = [arg.format(cfg=cfg, dir=tmp_path) for arg in outputs]
    code = main(["probe", "--config", str(cfg), *argv])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert captured.err == f"ecnprobe: error: {message} name the same file\n"
    assert cfg.read_text() == text
    assert not (tmp_path / "out").exists()


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


def test_one_parser_serves_every_main_call(tmp_path, capsys):
    # main() builds its parser on the first call and reuses it; each command
    # must give the same exit code and bytes after the others as on its own.
    cfg = write_config(tmp_path, "egress = rfc3168\nseed = 12\naqm_ce_probability = 0.1\nloss_probability = 0.05\n")
    json_out = tmp_path / "report.json"
    trace_out = tmp_path / "run.trace"
    probe = ["probe", "--config", str(cfg), "--json", str(json_out), "--trace", str(trace_out)]
    sequence = [probe, ["probe"], ["--version"], ["tables"], probe]

    def run(argv):
        for path in (json_out, trace_out):
            path.unlink(missing_ok=True)
        code = main(argv)
        captured = capsys.readouterr()
        files = tuple(path.read_bytes() if path.exists() else None for path in (json_out, trace_out))
        return code, captured.out.encode(), captured.err.encode(), files

    alone = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        alone.append(run(argv))
    assert [code for code, *_ in alone] == [0, EXIT_CONFIG, 0, 0, 0]
    assert alone[0][3][0] and alone[0][3][1]
    assert alone[1][2].startswith(b"ecnprobe probe: error: ")
    assert alone[2][1].startswith(b"ecnprobe ")

    cli._build_parser.cache_clear()
    together = [run(argv) for argv in sequence]
    assert together == alone
    assert cli._build_parser.cache_info().misses == 1


def test_import_does_not_build_the_parser():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    # The interpreter's site may preload modules, so only the modules the
    # import newly loads count.  dataclasses pulls in inspect; hashlib is
    # only needed to derive seeds, which a probe never does.
    code = (
        "import sys; before = set(sys.modules); import ecnprobe.cli as cli; "
        "print(cli._build_parser.cache_info().misses); "
        "print(sorted({'dataclasses', 'inspect', 'hashlib'} & (set(sys.modules) - before)))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n[]\n"


def test_non_utf8_config_exits_64_without_a_traceback(tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_bytes(b"egress = rfc6040\nseed = 1\xff\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    argv = [sys.executable, "-m", "ecnprobe", "probe", "--config", str(config)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_CONFIG
    assert "Traceback" not in done.stderr
    assert done.stderr == f"config error: config: {config} is not UTF-8 text (byte 25: invalid start byte)\n"
    assert done.stdout == ""


# A CE-only probe whose signature two classes share, a custom: mangled
# table and a dead path (exit 3, no --json or --trace written).
HASH_SEED_CONFIGS = {
    "ce-only-ambiguous": (
        "egress = rfc6040\ncapability = ce_only\nseed = 21\n", 0, b"classification: ambiguous (RFC6040, RFC3168)"
    ),
    "custom-mangled": (
        f"egress = custom:{custom_table_text(mangled_zero_all())}\naqm_ce_probability = 0.1\n",
        1,
        b"classification: mangled",
    ),
    "dead-path": ("egress = rfc6040\nloss_probability = 1.0\n", EXIT_CONTROL_FAILURE, b""),
}


@pytest.mark.parametrize("name", sorted(HASH_SEED_CONFIGS))
def test_probe_output_does_not_depend_on_hash_seed(name, tmp_path):
    text, exit_code, shown = HASH_SEED_CONFIGS[name]
    config = write_config(tmp_path, text)
    json_out, trace_out = tmp_path / "report.json", tmp_path / "run.trace"
    src = str(Path(cli.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "ecnprobe", "probe", "--config", str(config)]
    argv += ["--json", str(json_out), "--trace", str(trace_out)]
    runs = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run(argv, env=env, capture_output=True, timeout=60)
        files = []
        for out in (json_out, trace_out):
            files.append(out.read_bytes() if out.exists() else None)
            out.unlink(missing_ok=True)
        runs.append((done.returncode, done.stdout, done.stderr, files))
    assert runs[0] == runs[1]
    assert runs[0][0] == exit_code and shown in runs[0][1]
    assert (runs[0][3] == [None, None]) == (exit_code == EXIT_CONTROL_FAILURE)


LAZY_PACKAGE_CHECKS = """
import importlib, json, sys
before = set(sys.modules)
import ecnprobe
checks = {"loaded": sorted(m for m in set(sys.modules) - before if m.startswith("ecnprobe."))}
checks["cli"] = ecnprobe.cli is sys.modules["ecnprobe.cli"]
modules = [importlib.import_module("ecnprobe." + m) for m in
           ("ecn", "feedback", "tunnels", "simnet", "engine", "report", "cli", "_version")]
checks["unresolved"] = [
    name for name in ecnprobe.__all__
    if not [m for m in modules if hasattr(m, name)]
    or any(getattr(ecnprobe, name) is not getattr(m, name) for m in modules if hasattr(m, name))
]
namespace = {}
exec("from ecnprobe import *", namespace)
checks["unbound"] = [name for name in ecnprobe.__all__ if name not in namespace]
checks["simnet"] = ecnprobe.simnet is sys.modules["ecnprobe.simnet"]
try:
    ecnprobe.nope
    checks["nope"] = "resolved"
except AttributeError as exc:
    checks["nope"] = str(exc)
checks["undir"] = sorted(set(ecnprobe.__all__) - set(dir(ecnprobe)))
checks["count"] = len(ecnprobe.__all__) == len(set(ecnprobe.__all__))
print(json.dumps(checks))
"""


def test_package_names_load_on_first_use():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c", LAZY_PACKAGE_CHECKS], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "loaded": ["ecnprobe._version"],
        "cli": True,
        "unresolved": [],
        "unbound": [],
        "simnet": True,
        "nope": "module 'ecnprobe' has no attribute 'nope'",
        "undir": [],
        "count": True,
    }


def test_package_exports():
    import ecnprobe

    assert sorted(ecnprobe.__all__) == [
        "Capability", "Classification", "ClassificationKind", "ConfigError", "ControlFailure",
        "ControlReport", "DecapBehaviorClass", "EcnCodepoint", "EncapPolicy", "ExchangeResult",
        "GREEN_CLASSES", "InvalidFeedback", "PROBE_ROWS", "ProbeObservation", "ProbeReport",
        "ProbeSessionResult", "PropagationVerdict", "Scenario", "ScenarioConfig", "TcpEcnFlags",
        "TunnelPath", "__version__", "aggregate", "build_report", "build_scenario", "builtin_policy",
        "classify", "decap", "decode_handshake", "dscp_of", "ecn_of", "encap", "encode_handshake",
        "interpret", "mangled_copy_outer", "mangled_policy", "mangled_random", "mangled_zero_all",
        "overwrite_ecn", "parse_report", "probe_rows", "reference_signature", "render_report",
        "run_control_test", "run_main_test", "run_probe_session", "serialize_trace", "wireshark_string",
    ]


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
    empty = run_session_report(config)._replace(observations=[])
    obj = json.loads(render_report(empty, "json"))
    assert obj["observations"] == []
    # A full-capability report needs its four rows, so the document does not parse back.
    with pytest.raises(ValueError, match="needs 4 observations"):
        parse_report(render_report(empty, "json"))


# Random sessions: every egress (any seeded random custom: table too),
# ingress, capability, noise level and seed, up to 4 servers x 4 repetitions.
session_configs = st.builds(
    ScenarioConfig,
    **{
        **VALID_VALUES,
        "egress": st.one_of(
            st.sampled_from(("rfc6040", "rfc4301", "rfc3168", "rfc2003")),
            st.integers(0, 2**32).map(lambda seed: "custom:" + custom_table_text(mangled_random(seed))),
        ),
        "servers": st.integers(1, 4),
        "repetitions": st.integers(1, 4),
    },
)


@settings(max_examples=150, deadline=None, database=None)
@given(session_configs)
def test_report_render_parse_render_is_the_identity(config):
    try:
        report = run_session_report(config)
    except ControlFailure:
        return
    data = render_report(report, "json")
    parsed = parse_report(data)
    assert render_report(parsed, "json") == data
    assert parsed == report and parsed.config == config
    assert render_report(parsed, "text") == render_report(report, "text")


MALFORMED_REPORTS = {
    "array": b"[]",
    "no control": b'{"schema": 1}',
    "control not an object": b'{"schema": 1, "control": 3}',
    "not json": b"not json",
    "not utf-8": b"\xff{}",
}


@pytest.mark.parametrize("data", MALFORMED_REPORTS.values(), ids=MALFORMED_REPORTS.keys())
def test_parse_report_rejects_malformed_documents_with_value_error(data):
    with pytest.raises(ValueError) as exc_info:
        parse_report(data)
    assert type(exc_info.value) is ValueError


@pytest.mark.parametrize(
    "field, name",
    [
        ("initial", "purple"),
        ("outer_set", "ect2"),
        ("consensus", "drop"),
        ("consensus", "ECT0"),
        ("votes", "drop"),
        ("codepoints", "ect3"),
    ],
)
def test_parse_report_rejects_unknown_names(field, name):
    obj = json.loads(render_report(run_session_report(ScenarioConfig(egress="rfc6040")), "json"))
    row = obj["observations"][1]
    if field == "votes":
        row["votes"] = {name: 15}
    elif field == "codepoints":
        codepoints = obj["control"]["codepoints"]
        codepoints[name] = codepoints.pop("ce")
    else:
        row[field] = name
    with pytest.raises(ValueError, match=repr(name)) as exc_info:
        parse_report(json.dumps(obj).encode())
    assert type(exc_info.value) is ValueError


# Documents with valid names whose leaves have the wrong type: path to the
# leaf, its bad value, and the field the error must name.
WRONG_TYPE_LEAVES = {
    "row is a string": (["observations", 0, "row"], "x", "observations[0].row"),
    "row is a bool": (["observations", 0, "row"], True, "observations[0].row"),
    "vote count is a string": (["observations", 1, "votes", "ce"], "15", "observations[1].votes.ce"),
    "ingress_copies is a string": (["control", "ingress_copies"], "yes", "control.ingress_copies"),
    "feedback flag is an int": (["control", "codepoints", "ect0", "feedback_matches"], 1, "feedback_matches"),
    "seed is a string": (["seed"], "abc", "seed"),
    "repetitions is a float": (["repetitions"], 2.5, "repetitions"),
}


@pytest.mark.parametrize("path, value, field", WRONG_TYPE_LEAVES.values(), ids=WRONG_TYPE_LEAVES.keys())
def test_parse_report_rejects_wrong_type_leaves(path, value, field):
    obj = json.loads(render_report(run_session_report(ScenarioConfig(egress="rfc6040")), "json"))
    parent = obj
    for step in path[:-1]:
        parent = parent[step]
    assert path[-1] in parent
    parent[path[-1]] = value
    with pytest.raises(ValueError, match=f"{re.escape(field)} must be") as exc_info:
        parse_report(json.dumps(obj).encode())
    assert type(exc_info.value) is ValueError


def _set(obj, path, value):
    for step in path[:-1]:
        obj = obj[step]
    obj[path[-1]] = value


def _flip_fallback(obj):
    control = obj["control"]
    control["overwrite_fallback_enabled"] = not control["overwrite_fallback_enabled"]


def _ce_only(obj):
    obj["capability"] = obj["config"]["capability"] = "ce_only"


def _no_feedback_matched(obj):
    for entry in obj["control"]["codepoints"].values():
        entry["feedback_matches"] = False


# Edits of an rfc6040 report that leave every leaf well typed but make the
# document one this program never writes, and the key the error must name.
INCONSISTENT_REPORTS = {
    "ce missing from the control test": (lambda obj: obj["control"]["codepoints"].pop("ce"), "control.codepoints"),
    "empty votes": (lambda obj: _set(obj, ["observations", 0, "votes"], {}), "observations[0].votes"),
    "consensus contradicts the votes": (
        lambda obj: _set(obj, ["observations", 0, "consensus"], "not_ect"),
        "observations[0].consensus",
    ),
    "fallback flag flipped": (_flip_fallback, "control.overwrite_fallback_enabled"),
    "seed differs from the config's": (lambda obj: _set(obj, ["seed"], obj["seed"] + 1), "seed"),
    "verdict edited": (lambda obj: _set(obj, ["verdict"], "does_not_propagate"), "verdict"),
    "classes edited": (lambda obj: _set(obj, ["classification", "classes"], ["rfc3168"]), "classification.classes"),
    "config as a list of pairs": (lambda obj: _set(obj, ["config"], sorted(obj["config"].items())), "config"),
    "config key missing": (lambda obj: obj["config"].pop("servers"), "servers"),
    "row out of range": (lambda obj: _set(obj, ["observations", 0, "row"], 7), "observations[0].row"),
    "ce_only capability with four rows": (_ce_only, "observations"),
    "control failure written as a report": (_no_feedback_matched, "control.codepoints"),
}


@pytest.mark.parametrize("edit, key", INCONSISTENT_REPORTS.values(), ids=INCONSISTENT_REPORTS.keys())
def test_parse_report_rejects_inconsistent_documents(edit, key):
    data = render_report(run_session_report(ScenarioConfig(egress="rfc6040")), "json")
    assert render_report(parse_report(data), "json") == data
    obj = json.loads(data)
    edit(obj)
    with pytest.raises(ValueError, match=re.escape(key)) as exc_info:
        parse_report(json.dumps(obj).encode())
    assert type(exc_info.value) is ValueError


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
