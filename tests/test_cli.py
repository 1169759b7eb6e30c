import ast
import contextlib
import errno
import functools
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from stat import S_ISLNK, S_ISREG

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import paper_model as model
from ecnprobe import cli
from ecnprobe.cli import (
    EXIT_BY_VERDICT,
    EXIT_CANTCREAT,
    EXIT_CONFIG,
    EXIT_CONTROL_FAILURE,
    EXIT_IOERR,
    main,
    parse_config_text,
)
from ecnprobe.engine import ControlFailure, PropagationVerdict, aggregate, run_probe_session
from ecnprobe.report import (
    build_report,
    parse_report,
    render_report,
)
from ecnprobe.simnet import ConfigError, Scenario, ScenarioConfig, build_scenario
from ecnprobe.tunnels import OUTCOME_BY_NAME, OUTCOME_LABEL, custom_table_text, mangled_random, mangled_zero_all
from report_oracle import oracle_bytes


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


def config_texts_of(valid, any_values):
    """Valid configs with up to three values replaced, so that most examples get
    past parse_config_text into build_scenario, plus plain arbitrary text."""
    overrides = st.lists(
        st.sampled_from(sorted(any_values)).flatmap(lambda key: st.tuples(st.just(key), any_values[key])), max_size=3
    )
    return st.one_of(
        st.text(),
        st.tuples(st.fixed_dictionaries(valid), overrides).map(
            lambda parts: "".join(f"{key} = {value}\n" for key, value in {**parts[0], **dict(parts[1])}.items())
        ),
    )


config_texts = config_texts_of(VALID_VALUES, ANY_VALUES)


@settings(max_examples=500, deadline=None, database=None)
@given(config_texts)
def test_config_text_raises_only_config_error(text):
    try:
        scenario = build_scenario(parse_config_text(text))
    except ConfigError:
        return
    # build_scenario skips Scenario's own checks, so each scenario it returns must pass them unchanged.
    assert Scenario._make(scenario) == scenario


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
    assert EXIT_BY_VERDICT == {PropagationVerdict.PROPAGATES_CORRECTLY: 0, PropagationVerdict.DOES_NOT_PROPAGATE: 1}
    assert set(EXIT_BY_VERDICT) == set(PropagationVerdict)


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


@pytest.mark.parametrize("capability,rows", [("full", 4), ("ce_only", 3)])
def test_probe_aggregates_each_row_once(tmp_path, capsys, monkeypatch, capability, rows):
    # A row's consensus is decided where the row is made; classify and both
    # writers read that decision.
    calls = []

    def counted(votes):
        calls.append(votes)
        return aggregate(votes)

    monkeypatch.setattr("ecnprobe.engine.aggregate", counted)
    monkeypatch.setattr("ecnprobe._parse.aggregate", counted)
    cfg = write_config(tmp_path, f"egress = rfc6040\ncapability = {capability}\n")
    code = main(["probe", "--config", str(cfg), "--json", str(tmp_path / "report.json")])
    assert "verdict: propagates_correctly" in capsys.readouterr().out
    assert code == 0
    assert len(calls) == rows


@pytest.mark.parametrize("flag", ["--json", "--trace"])
def test_probe_unwritable_output_exits_73(tmp_path, capsys, flag):
    cfg = write_config(tmp_path, "egress = rfc6040\nseed = 8\n")
    target = tmp_path / "missing-dir" / "out"
    # The other output names a writable file.
    other_flag, other = ("--trace" if flag == "--json" else "--json"), tmp_path / "other"
    code = main(["probe", "--config", str(cfg), flag, str(target), other_flag, str(other)])
    err = capsys.readouterr().err
    assert code == EXIT_CANTCREAT
    codes = (*EXIT_BY_VERDICT.values(), EXIT_CONTROL_FAILURE, EXIT_CONFIG, EXIT_CANTCREAT, EXIT_IOERR)
    assert len(set(codes)) == len(codes)
    assert err == f"error: cannot write {target}: No such file or directory\n"
    # The JSON report is written first: when the trace then fails, the
    # complete report is removed, so neither file is left behind.
    assert not target.exists() and not other.exists()


def test_probe_exit_73_keeps_a_symlinked_output(tmp_path, capsys):
    # A --json symlink stays a symlink and is not deleted in the cleanup; the
    # target its open created, empty, goes again, as nothing is written.
    cfg = write_config(tmp_path, "egress = rfc6040\nseed = 8\n")
    report = tmp_path / "report.json"
    link = tmp_path / "link.json"
    link.symlink_to(report)
    target = tmp_path / "missing-dir" / "out"
    code = main(["probe", "--config", str(cfg), "--json", str(link), "--trace", str(target)])
    assert code == EXIT_CANTCREAT
    assert capsys.readouterr().err == f"error: cannot write {target}: No such file or directory\n"
    assert link.is_symlink() and not report.exists()


@pytest.mark.parametrize("flag", ["--config", "--json", "--trace"])
def test_a_symlink_loop_is_reported_not_raised(tmp_path, capsys, flag):
    # Before CPython 3.13, resolving a symlink loop raises RuntimeError; the
    # probe reports the loop where it reads or writes the path, as on 3.13.
    # For --config, the loop is given second and replaces the good config.
    loop = tmp_path / "loop"
    loop.symlink_to(loop)
    argv = ["probe", "--config", str(write_config(tmp_path, "egress = rfc6040\n")), flag, str(loop)]
    code = main(argv)
    reason = os.strerror(errno.ELOOP)
    if flag == "--config":
        assert (code, capsys.readouterr().err) == (EXIT_CONFIG, f"config error: config: cannot read {loop}: {reason}\n")
    else:
        assert (code, capsys.readouterr().err) == (EXIT_CANTCREAT, f"error: cannot write {loop}: {reason}\n")
    assert loop.is_symlink()


def fill_disk_on(path, monkeypatch):
    """Make cli's os.write on ``path``'s file write 100 bytes and then fail as a full disk does; the list it
    returns holds what each such call wrote."""
    write, partial = os.write, []

    def disk_full(fd, data):
        if path.exists() and os.path.samestat(os.fstat(fd), os.stat(path)):
            partial.append(write(fd, data[:100]))
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return write(fd, data)

    monkeypatch.setattr(os, "write", disk_full)
    return partial


def test_probe_exit_73_when_a_written_output_cannot_be_removed(tmp_path, capsys, monkeypatch):
    # A writable --json file in a directory the user cannot write to: it is
    # written, the trace write then fails, and removing the report fails.
    # Root ignores the directory's mode, so the refusal is made explicit for it.
    cfg = write_config(tmp_path, "egress = rfc6040\nseed = 8\n")
    locked = tmp_path / "locked"
    locked.mkdir()
    json_out = locked / "report.json"
    json_out.write_bytes(b"")
    locked.chmod(0o555)
    trace_out = tmp_path / "run.trace"
    partial = fill_disk_on(trace_out, monkeypatch)
    if os.geteuid() == 0:
        unlink = os.unlink

        def refuse(path, *, dir_fd=None):
            if os.path.dirname(path) == str(locked):
                raise PermissionError(13, "Permission denied", path)
            unlink(path)

        monkeypatch.setattr(os, "unlink", refuse)
    try:
        code = main(["probe", "--config", str(cfg), "--json", str(json_out), "--trace", str(trace_out)])
    finally:
        monkeypatch.undo()
        locked.chmod(0o755)
    assert (code, partial) == (EXIT_CANTCREAT, [100])
    assert capsys.readouterr().err == f"error: cannot write {trace_out}: No space left on device\n"
    assert json_out.read_bytes().startswith(b"{") and not trace_out.exists()


def test_probe_exit_73_removes_a_partly_written_output(tmp_path, capsys, monkeypatch):
    # The trace write stops partway (disk full): the partial trace goes with
    # the complete report written before it.
    cfg = write_config(tmp_path, "egress = rfc6040\nseed = 8\n")
    json_out, trace_out = tmp_path / "report.json", tmp_path / "run.trace"
    partial = fill_disk_on(trace_out, monkeypatch)
    code = main(["probe", "--config", str(cfg), "--json", str(json_out), "--trace", str(trace_out)])
    monkeypatch.undo()
    assert partial == [100]
    assert code == EXIT_CANTCREAT
    assert capsys.readouterr().err == f"error: cannot write {trace_out}: No space left on device\n"
    assert not json_out.exists() and not trace_out.exists()


def test_probe_exit_73_keeps_a_symlink_it_wrote_through(tmp_path, capsys, monkeypatch):
    # A --json symlink to an existing file is written through, and the trace
    # write then fails: the symlink is no regular file, so it stays, and its
    # target keeps the report.
    cfg = write_config(tmp_path, "egress = rfc6040\nseed = 8\n")
    report, link, trace_out = tmp_path / "report.json", tmp_path / "link.json", tmp_path / "run.trace"
    report.write_bytes(b"old")
    link.symlink_to(report)
    partial = fill_disk_on(trace_out, monkeypatch)
    code = main(["probe", "--config", str(cfg), "--json", str(link), "--trace", str(trace_out)])
    monkeypatch.undo()
    assert (code, partial) == (EXIT_CANTCREAT, [100])
    assert capsys.readouterr().err == f"error: cannot write {trace_out}: No space left on device\n"
    assert link.is_symlink() and report.read_bytes().startswith(b"{") and not trace_out.exists()


@pytest.mark.parametrize(
    "outputs, message",
    [
        (["--json", "{cfg}"], "--json and --config"),
        (["--trace", "{dir}/sub/../scenario.cfg"], "--trace and --config"),
        (["--json", "{dir}/link.cfg"], "--json and --config"),
        (["--json", "{dir}/out", "--trace", "{dir}/./out"], "--trace and --json"),
        (["--json", "{dir}/dangling", "--trace", "{dir}/out"], "--trace and --json"),
        (["--json", "{dir}/sub/out", "--trace", "{dir}/lsub/out"], "--trace and --json"),
    ],
)
def test_probe_refuses_outputs_that_name_the_same_file(tmp_path, capsys, outputs, message):
    (tmp_path / "sub").mkdir()
    (tmp_path / "lsub").symlink_to("sub")
    (tmp_path / "dangling").symlink_to(tmp_path / "out")
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
    assert not (tmp_path / "out").exists() and not (tmp_path / "sub" / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--config", "{fifo}", "--json", "{fifo}"], "--json and --config"),
        (["--config", "{cfg}", "--json", "{fifo}", "--trace", "{fifo}"], "--trace and --json"),
    ],
    ids=["config", "outputs"],
)
def test_a_fifo_named_twice_is_refused_before_it_is_opened(tmp_path, capsys, argv, message):
    # Opening a FIFO for writing waits for a reader, and none comes: the
    # same-file check refuses it first.  A probe that waits past 5 s is let go
    # by a reader, and fails.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    cfg = write_config(tmp_path, "egress = rfc6040\nseed = 8\n")
    argv = ["probe", *(arg.format(fifo=fifo, cfg=cfg) for arg in argv)]
    codes = []
    probe = threading.Thread(target=lambda: codes.append(main(argv)))
    probe.start()
    probe.join(5)
    waited = probe.is_alive()
    if waited:
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        probe.join()
        os.close(reader)
    assert (waited, codes) == (False, [EXIT_CONFIG])
    assert capsys.readouterr().err == f"ecnprobe: error: {message} name the same file\n"
    assert sorted(os.listdir(tmp_path)) == ["fifo", "scenario.cfg"]


def test_missing_outputs_in_a_directory_are_not_resolved(tmp_path, capsys, monkeypatch):
    # A probe knows its files by what the kernel opens, not by Path.resolve(),
    # which calls lstat once per path component.
    cfg = write_config(tmp_path, "egress = rfc6040\nseed = 8\n")
    json_out, trace_out = tmp_path / "report.json", tmp_path / "run.trace"

    def refuse(self, strict=False):
        raise AssertionError(f"{self} resolved")

    monkeypatch.setattr(Path, "resolve", refuse)
    code = main(["probe", "--config", str(cfg), "--json", str(json_out), "--trace", str(trace_out)])
    monkeypatch.undo()
    capsys.readouterr()
    assert code == 0
    assert json_out.read_bytes() and trace_out.read_bytes()


# The file-system calls of a plain probe, in order, when its config is a file and its two outputs are
# missing: the config is stat'ed, each output is created and fstat'ed, the config is read to end of file, and
# each output is written and closed.
PLAIN_PROBE_CALLS = [
    "stat", "open", "fstat", "open", "fstat",
    "open", "read", "read", "close",
    "write", "close",
    "write", "close",
]
# When both outputs exist, each is refused by O_EXCL and stat'ed; once neither names a file taken already, each
# is opened, and it is cut to what was written.
OVERWRITE_CALLS = [
    "stat", "open", "stat", "open", "stat", "open", "open",
    "open", "read", "read", "close",
    "write", "ftruncate", "close",
    "write", "ftruncate", "close",
]
# When the control test fails, each output this run created is closed and removed again.
CONTROL_FAILURE_CALLS = PLAIN_PROBE_CALLS[:9] + ["close", "unlink", "close", "unlink"]


@pytest.mark.parametrize("config_kind", ["file", "symlink"])
@pytest.mark.parametrize("outputs", ["created", "overwritten", "control-failure"])
def test_a_plain_probe_makes_13_file_system_calls(tmp_path, capsys, monkeypatch, config_kind, outputs):
    # 13 calls, 17 when both outputs exist, 13 when the control test fails;
    # a symlinked config costs nothing more, as stat follows it.  No io object
    # is built: the builtin open is never called.
    loss = "1.0" if outputs == "control-failure" else "0.0"
    cfg = write_config(tmp_path, f"egress = rfc6040\nseed = 8\nloss_probability = {loss}\n")
    if config_kind == "symlink":
        (tmp_path / "link.cfg").symlink_to(cfg)
        cfg = tmp_path / "link.cfg"
    json_out, trace_out = tmp_path / "report.json", tmp_path / "run.trace"
    if outputs == "overwritten":
        json_out.write_bytes(b"old" * 10_000)
        trace_out.write_bytes(b"old")
    calls = []

    def counted(name, function):
        def call(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)

        return call

    for name in ("lstat", "stat", "fstat", "open", "read", "write", "ftruncate", "close", "unlink"):
        monkeypatch.setattr(os, name, counted(name, getattr(os, name)))
    monkeypatch.setattr("builtins.open", counted("builtins.open", open))
    code = main(["probe", "--config", str(cfg), "--json", str(json_out), "--trace", str(trace_out)])
    monkeypatch.undo()
    captured = capsys.readouterr()
    if outputs == "control-failure":
        assert (code, calls) == (EXIT_CONTROL_FAILURE, CONTROL_FAILURE_CALLS)
        assert not json_out.exists() and not trace_out.exists()
        return
    assert (code, calls) == (0, OVERWRITE_CALLS if outputs == "overwritten" else PLAIN_PROBE_CALLS)
    assert json_out.read_bytes() == render_report(parse_report(json_out.read_bytes()), "json")
    assert captured.out and b"old" not in trace_out.read_bytes()


def test_short_writes_give_the_same_outputs(tmp_path, capsys, monkeypatch):
    # os.write may write less than it is given (a pipe, a signal); the rest is written again until done.
    cfg = write_config(tmp_path, "egress = rfc4301\nservers = 8\nrepetitions = 10\naqm_ce_probability = 0.1\n")
    runs = []
    for capped in (False, True):
        json_out, trace_out = tmp_path / f"report-{capped}.json", tmp_path / f"run-{capped}.trace"
        if capped:
            write = os.write
            monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:7]))
        code = main(["probe", "--config", str(cfg), "--json", str(json_out), "--trace", str(trace_out)])
        monkeypatch.undo()
        runs.append((code, capsys.readouterr(), json_out.read_bytes(), trace_out.read_bytes()))
    assert runs[0][0] == 0 and len(runs[0][3]) > 7 * 1000
    assert runs[1] == runs[0]


def test_a_config_is_read_to_its_end_from_a_file_or_a_pipe(tmp_path):
    # Longer than one os.read: a comment line pads the config between two keys.
    text = "egress = rfc3168\n# " + "x" * (2 * cli._READ_SIZE) + "\nseed = 3\nservers = 2\n"
    config = write_config(tmp_path, text)
    expected = parse_config_text(text)
    assert expected.seed == 3 and expected.servers == 2
    assert cli.load_config(config) == cli.load_config(str(config)) == expected
    # A pipe hands over at most its buffer per read, and ends only when its writer closes it.
    read, write = os.pipe()
    writer = threading.Thread(target=lambda: (os.write(write, text.encode()), os.close(write)))
    writer.start()
    try:
        assert cli.load_config(f"/dev/fd/{read}") == expected
    finally:
        os.close(read)
        writer.join()


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


def test_a_command_gives_the_same_result_whatever_ran_before(tmp_path, capsys):
    # main() keeps no state between calls: each command gives the same exit
    # code and bytes whichever commands ran before it in the process.
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

    forward = [run(argv) for argv in sequence]
    assert [code for code, *_ in forward] == [0, EXIT_CONFIG, 0, 0, 0]
    assert forward[0][3][0] and forward[0][3][1]
    assert forward[1][2].startswith(b"ecnprobe probe: error: ")
    assert forward[2][1].startswith(b"ecnprobe ")
    assert [run(argv) for argv in reversed(sequence)] == forward[::-1]


# The plain probe command line, which cli._probe_paths reads without argparse,
# stated on its own: "probe", then --config and any of --json and --trace,
# each once, in any order, each followed by a value not starting with "-".
def is_plain_probe(argv):
    options, values = argv[1::2], argv[2::2]
    return (
        argv[:1] == ["probe"]
        and len(options) == len(values)
        and "--config" in options
        and len(set(options)) == len(options)
        and set(options) <= {"--config", "--json", "--trace"}
        and not any(value.startswith("-") for value in values)
    )


ODD_TOKENS = ("--conf", "--config=a", "-h", "--version", "--", "--seed")
ODD_VALUES = ("", "-", "-1", "--json", "a=b", "probe")
PROBE_VALUES = st.one_of(
    st.sampled_from(("c", "out.json", "dir/run.trace")), st.sampled_from(ODD_VALUES), st.text(max_size=4)
)


OUTPUT_OPTIONS = st.lists(st.sampled_from(("--json", "--trace")), unique=True)


@st.composite
def probe_command_lines(draw, value=lambda option: PROBE_VALUES, outputs=OUTPUT_OPTIONS, edits=st.integers(0, 2)):
    """A plain probe command line with the ``outputs`` options, each option's value drawn from ``value(option)``,
    then ``edits`` edits: an odd token in place of another or inserted, a token dropped, or an option repeated."""
    options = ["--config", *draw(outputs)]
    argv = ["probe"]
    for option in draw(st.permutations(options)):
        argv += [option, draw(value(option))]
    for _ in range(draw(edits)):
        edit = draw(st.sampled_from(("swap", "insert", "drop", "repeat")))
        if edit == "swap" and argv:
            argv[draw(st.integers(0, len(argv) - 1))] = draw(st.sampled_from(ODD_TOKENS))
        elif edit == "insert":
            argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(ODD_TOKENS)))
        elif edit == "drop" and argv:
            del argv[draw(st.integers(0, len(argv) - 1))]
        elif edit == "repeat":
            at = 1 + 2 * draw(st.integers(0, len(argv) // 2))
            option = draw(st.sampled_from(options))
            argv[at:at] = [option, draw(value(option))]
    return argv


PLAIN = ["probe", "--config", "c", "--json", "j", "--trace", "t"]
AGREEMENT_EXAMPLES = [
    # The six orders of the three options.
    *(["probe", *itertools.chain(*pairs)] for pairs in itertools.permutations((PLAIN[1:3], PLAIN[3:5], PLAIN[5:]))),
    # An odd token in place of --json, and an abbreviated --config.
    *(PLAIN[:3] + [token] + PLAIN[4:] for token in ODD_TOKENS),
    ["probe", "--conf", "c"],
    # Values the reader takes (the first, fifth and sixth) or leaves to argparse.
    *(["probe", "--config", value, "--json", "j"] for value in ODD_VALUES),
    # A dropped token, and a repeated option.
    PLAIN[:2] + PLAIN[3:],
    PLAIN + ["--json", "k"],
    PLAIN[:1] + PLAIN[1:3] * 2,
]


def with_agreement_examples(test):
    for argv in AGREEMENT_EXAMPLES:
        test = example(argv)(test)
    return test


# main() builds a parser per call; one is enough for up to 500 examples.
PARSER = cli._build_parser()


# CI runs this on every supported Python: argparse reads each command line
# that the plain reader takes as the same three paths.
@settings(database=None, max_examples=500)
@with_agreement_examples
@given(probe_command_lines())
def test_the_plain_probe_reader_agrees_with_argparse(argv):
    paths = cli._probe_paths(argv)
    assert (paths is not None) == is_plain_probe(argv)
    if paths is not None:
        args = PARSER.parse_args(argv)
        assert (args.command, args.config, args.json, args.trace) == ("probe", *paths)
        assert all(path is None or type(path) is str for path in paths)


# A path is kept as text; its spelling decides what is opened, so it must be
# pathlib's: "out.json/" names out.json and "" names ".".
PATH_TEXT = st.lists(
    st.one_of(st.sampled_from(("/", ".", "..", "a", "~", "\\", " ")), st.characters(min_codepoint=0x80)), max_size=8
).map("".join)


@settings(database=None, max_examples=1000)
@example("")
@example("a/")
@example("//a//b/./")
@example("///.")
@given(PATH_TEXT)
def test_a_path_is_spelled_as_pathlib_spells_it(value):
    assert cli._path_spelling(value) == str(Path(value))


# ---------------------------------------------------------------------------
# One contract for the whole command line: any probe command line over any
# layout of its files gives a defined outcome.

# What each of three slots, named a, b and c, may be.  A regular file holds
# the drawn config bytes; "link" is a symlink to another slot's path; "full"
# is a symlink to /dev/full, never the device itself, so that no run can
# remove it.  A --config value never reaches /dev/full: reading it never ends.
SLOT_KINDS = ("missing", "file", "dir", "under-file", "dangling", "dangling-deep", "dangling-up", "link") + (
    ("full",) if os.path.exists("/dev/full") else ()
)
SLOT_TOKENS = ("<a>", "<b>", "<c>")
# Ways to reach a slot that _path_spelling keeps as written: directly, through
# a directory and "..", or through a symlink to the layout's directory.
SLOT_SPELLINGS = ("", "sub/../", "lsub/")
SMALL_SESSIONS = {"servers": st.integers(1, 3), "repetitions": st.integers(1, 3)}
ANY_SMALL_NUMBER = st.one_of(st.integers(-2, 3), st.floats(-2, 3), st.text())
CONFIG_BYTES = st.tuples(
    st.sampled_from((b"", b"\xef\xbb\xbf")),
    st.one_of(
        *[st.fixed_dictionaries({**VALID_VALUES, **SMALL_SESSIONS}).map(
            lambda values: "".join(f"{key} = {value}\n" for key, value in values.items())
        )] * 2,
        config_texts_of(
            {**VALID_VALUES, **SMALL_SESSIONS},
            {**ANY_VALUES, "servers": ANY_SMALL_NUMBER, "repetitions": ANY_SMALL_NUMBER},
        ),
    ).map(str.encode),
    st.sampled_from((b"",) * 5 + (b"\xff",)),
).map(b"".join)


def make_layout(root, entries):
    """Make each (kind, location, target) entry under ``root``, in order: a "dir", a "file" holding the bytes
    ``target``, or a "symlink" to ``target``."""
    for kind, location, target in entries:
        path = root / location
        if kind == "dir":
            path.mkdir()
        elif kind == "file":
            path.write_bytes(target)
        else:
            path.symlink_to(target)


def slot_path(slots, index):
    name = "abc"[index]
    return f"{name}/x" if slots[index][0] == "under-file" else name


def slot_entry(slots, index, data):
    """The (kind, location, target) layout entry that makes slot ``index``, or None for a missing slot."""
    name, (kind, other) = "abc"[index], slots[index]
    kind, target = {
        "file": ("file", data),
        "under-file": ("file", data),
        "dir": ("dir", None),
        "dangling": ("symlink", f"{name}.new"),
        "dangling-deep": ("symlink", f"nodir/{name}"),
        # The kernel stops at nodir; os.path.realpath drops "nodir/.." by its spelling.
        "dangling-up": ("symlink", f"nodir/../{name}.new"),
        "link": ("symlink", slot_path(slots, other)),
        "full": ("symlink", "/dev/full"),
    }.get(kind, (None, None))
    return kind and (kind, name, target)


def reaches_full(slots, index, seen=()):
    kind, other = slots[index]
    return kind == "full" or kind == "link" and index not in seen and reaches_full(slots, other, (*seen, index))


@st.composite
def command_line_cases(draw):
    """Config bytes; each slot's (kind, slot it links to); each slot's spelling; a probe command line from
    probe_command_lines, whose values are slot tokens, each option's own slot (a, b, c) most often; and
    whether standard output fails."""
    data = draw(CONFIG_BYTES)
    kinds = [
        draw(st.sampled_from(["file"] * 8 + [kind for kind in SLOT_KINDS if kind != "full"])),
        *draw(st.lists(st.sampled_from(SLOT_KINDS), min_size=2, max_size=2)),
    ]
    slots = tuple((kind, draw(st.sampled_from([other for other in range(3) if other != index])))
                  for index, kind in enumerate(kinds))
    readable = [index for index in range(3) if not reaches_full(slots, index)]
    assume(readable)

    def value(option):
        own, allowed = ("--config", "--json", "--trace").index(option), range(3)
        if option == "--config":
            allowed = readable
        return st.sampled_from([SLOT_TOKENS[index] for index in [own] * 6 * (own in allowed) + [*allowed]])

    spellings = draw(st.one_of(st.just(("",) * 3), st.tuples(*[st.sampled_from(SLOT_SPELLINGS)] * 3)))
    outputs = st.sampled_from([["--json", "--trace"]] * 4 + [[], ["--json"], ["--trace"]])
    argv = draw(probe_command_lines(value, outputs, st.one_of(st.just(0), st.integers(0, 2))))
    return data, slots, spellings, argv, draw(st.sampled_from((False, False, False, True)))


class FullStream(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def run_main(argv, stdout_fails=False):
    """main(argv)'s exit code, standard output and standard error."""
    out, err = FullStream() if stdout_fails else io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, "" if stdout_fails else out.getvalue(), err.getvalue()


def probe_args(argv):
    """The options argparse reads from a probe command line, or None for any other."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = PARSER.parse_args(argv)
        except SystemExit:
            return None
    return args if args.command == "probe" else None


def snapshot(root):
    """Each entry under ``root``: a regular file's bytes, a symlink's target, or None for anything else."""
    entries = {}
    for folder, dirs, files in os.walk(root):
        for name in dirs + files:
            path = os.path.join(folder, name)
            mode = os.lstat(path).st_mode
            entries[os.path.relpath(path, root)] = (
                ("link", os.readlink(path)) if S_ISLNK(mode)
                else ("file", Path(path).read_bytes()) if S_ISREG(mode)
                else None
            )
    return entries


FRESH_PROBES = {}  # config bytes -> the exit code, stdout, --json and --trace bytes of a probe into a new directory


def fresh_probe(data):
    if data not in FRESH_PROBES:
        with tempfile.TemporaryDirectory() as root:
            config, *paths = (f"{root}/{name}" for name in ("scenario.cfg", "report.json", "run.trace"))
            Path(config).write_bytes(data)
            code, out, _ = run_main(["probe", "--config", config, "--json", paths[0], "--trace", paths[1]])
            outputs = [Path(path).read_bytes() if code in (0, 1) else None for path in paths]
            FRESH_PROBES[data] = (code, out, *outputs)
    return FRESH_PROBES[data]


PLAIN_SLOTS = ["probe", "--config", "<a>", "--json", "<b>", "--trace", "<c>"]


def with_full_example(test):
    # An existing --json file, written, and a --trace symlink to /dev/full, whose write fails: the report goes,
    # the symlink stays.  Made only where the device exists, so that no run creates a file at its name.
    if "full" in SLOT_KINDS:
        slots = (("file", 1), ("file", 0), ("full", 0))
        test = example(case=(b"egress = rfc6040\n", slots, ("",) * 3, PLAIN_SLOTS, False))(test)
    return test


@settings(max_examples=300, deadline=None, database=None)
@with_full_example
# A dangling --json symlink and a --trace directory: the symlink's target, made by this run, goes on exit 73.
@example(case=(b"egress = rfc6040\n", (("file", 1), ("dangling", 0), ("dir", 0)), ("", "", ""), PLAIN_SLOTS, False))
# An existing --json file and a --trace directory: the --json file is left as it was.
@example(case=(b"egress = rfc6040\n", (("file", 1), ("file", 0), ("dir", 0)), ("", "", ""), PLAIN_SLOTS, False))
@given(case=command_line_cases())
def test_every_command_line_and_file_layout_has_a_defined_outcome(case):
    # The exit code is one of the six, and main raises nothing.  On 3, 64 and
    # 74 the files are as they were; on 73 no file is new and no symlink
    # changed, and nothing changed at all unless an output reaches /dev/full;
    # a probe that gives 0 or 1 writes nothing to stderr, and the bytes a
    # probe into a new directory writes.  Exit code, stdout and stderr
    # (each slot's path read as its token) do not depend on the spellings.
    data, slots, spellings, argv, stdout_fails = case
    outcomes = []
    for spelled in {("", "", ""), spellings}:
        with tempfile.TemporaryDirectory() as root:
            entries = filter(None, (slot_entry(slots, index, data) for index in range(3)))
            make_layout(Path(root), [("dir", "sub", None), ("symlink", "lsub", "."), *entries])
            paths = [f"{root}/{prefix}{slot_path(slots, index)}" for index, prefix in enumerate(spelled)]
            full = {path for index, path in enumerate(paths) if reaches_full(slots, index)}
            argv_here = [paths[SLOT_TOKENS.index(token)] if token in SLOT_TOKENS else token for token in argv]
            args = probe_args(argv_here)
            assert not args or args.config not in full
            before = snapshot(root)
            code, out, err = run_main(argv_here, stdout_fails)
            after = snapshot(root)
            assert code in (0, 1, EXIT_CONTROL_FAILURE, EXIT_CONFIG, EXIT_CANTCREAT, EXIT_IOERR)
            assert {name: entry for name, entry in after.items() if entry and entry[0] == "link"} == {
                name: entry for name, entry in before.items() if entry and entry[0] == "link"
            }
            if code in (0, 1) and args:
                expected_code, expected_out, expected_json, expected_trace = fresh_probe(data)
                assert (code, out, err) == (expected_code, expected_out, "")
                for path, expected in ((args.json, expected_json), (args.trace, expected_trace)):
                    assert path is None or Path(path).read_bytes() == expected
            else:
                assert after.keys() <= before.keys()
                if code != EXIT_CANTCREAT or not args or not {args.json, args.trace} & full:
                    assert after == before
            for path, token in sorted(zip(paths, SLOT_TOKENS), key=lambda item: -len(item[0])):
                err = err.replace(path, token)
            outcomes.append((code, out, err))
    assert outcomes[0] == outcomes[-1]


def test_import_does_not_build_the_parser():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    # The interpreter's site may preload modules, so only the modules the
    # import newly loads count.  dataclasses pulls in inspect; hashlib is
    # only needed to derive seeds, which a probe never does; argparse loads
    # with the parser.
    code = (
        "import sys; before = set(sys.modules); import ecnprobe.cli; "
        "print(sorted({'argparse', 'dataclasses', 'inspect', 'hashlib'} & (set(sys.modules) - before)))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# A fresh process runs main(argv[2:]), then, for "parse", reads the --json
# report back; it prints the exit code (and whether the report re-renders
# as itself), the ecnprobe modules it newly loaded, and which of the watched
# standard modules it newly loaded.  It imports no json itself.
FOOTPRINT_CHECK = """
import contextlib, io, sys
before = set(sys.modules)
from ecnprobe.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[2:])
if sys.argv[1] == "parse":
    from ecnprobe.report import parse_report, render_report
    with open(sys.argv[sys.argv.index("--json") + 1], "rb") as report:
        data = report.read()
    code = (code, render_report(parse_report(data), "json") == data)
loaded = set(sys.modules) - before
watched = {"json", "_json", "hashlib", "dataclasses", "inspect", "__future__", "argparse", "gettext"}
print(repr((code, sorted(m for m in loaded if m.startswith("ecnprobe")), sorted(watched & loaded))))
"""
# What a probe runs: neither json, its _json accelerator, __future__, the
# feedback codec, the report reader nor the tables and selftest commands.  No
# command loads __future__: annotations are evaluated where they are written.
# A plain probe command line is read without argparse (and the gettext it
# imports); the other commands are read by it.
PROBE_MODULES = [
    "ecnprobe", "ecnprobe._version", "ecnprobe.cli", "ecnprobe.ecn", "ecnprobe.engine",
    "ecnprobe.report", "ecnprobe.simnet", "ecnprobe.tunnels",
]


@pytest.mark.parametrize(
    "command, code, more_modules, watched",
    [
        ("probe", 0, [], []),
        ("parse", (0, True), ["ecnprobe._parse"], ["_json", "json"]),
        ("tables", 0, ["ecnprobe._commands"], ["argparse", "gettext"]),
        ("selftest", 0, ["ecnprobe._commands"], ["argparse", "gettext", "hashlib"]),
    ],
)
def test_each_command_loads_only_what_it_runs(tmp_path, command, code, more_modules, watched):
    cfg = write_config(tmp_path, "egress = rfc3168\nseed = 12\naqm_ce_probability = 0.1\nloss_probability = 0.05\n")
    argv = {"tables": ["tables"], "selftest": ["selftest"]}.get(command, [
        "probe", "--config", str(cfg), "--json", str(tmp_path / "report.json"), "--trace", str(tmp_path / "run.trace")
    ])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_CHECK, command, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert ast.literal_eval(done.stdout) == (code, sorted(PROBE_MODULES + more_modules), watched)


def test_non_utf8_config_exits_64_without_a_traceback(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_bytes(b"egress = rfc6040\n\xff\n")
    report, trace = tmp_path / "report.json", tmp_path / "exchanges.trace"
    error = f"config error: config: {config} is not UTF-8 text (byte 17: invalid start byte)\n"
    # In process, with outputs requested, none of which is written.
    code = main(["probe", "--config", str(config), "--json", str(report), "--trace", str(trace)])
    captured = capsys.readouterr()
    assert (code, captured.err, captured.out) == (EXIT_CONFIG, error, "")
    assert not report.exists() and not trace.exists()
    # As a process, whatever the locale.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    argv = [sys.executable, "-m", "ecnprobe", "probe", "--config", str(config)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_CONFIG
    assert "Traceback" not in done.stderr
    assert done.stderr == error
    assert done.stdout == ""


# A fresh process whose standard output fails: a full disk (/dev/full), a
# pipe whose reader is gone, or no fd 1 at all.  With PYTHONUNBUFFERED unset
# the text waits in a buffer, so the failure shows at the flush, not the write.
@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("stdout", ["full", "pipe", "closed"])
@pytest.mark.parametrize("command", ["probe", "tables", "--version", "--help"])
def test_a_failed_stdout_write_exits_74(tmp_path, command, stdout, buffered):
    report, trace = tmp_path / "report.json", tmp_path / "run.trace"
    config = write_config(tmp_path, "egress = rfc6040\n")
    argv = [sys.executable, "-m", "ecnprobe", command]
    if command == "probe":
        argv += ["--config", str(config), "--json", str(report), "--trace", str(trace)]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    run = functools.partial(subprocess.run, env=env, stderr=subprocess.PIPE, text=True, timeout=60)
    if stdout == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "wb") as out:
            done, reason = run(argv, stdout=out), errno.ENOSPC
    elif stdout == "pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done, reason = run(argv, stdout=write_end), errno.EPIPE
        finally:
            os.close(write_end)
    else:
        done, reason = run(["sh", "-c", 'exec "$@" >&-', "sh", *argv]), errno.EBADF
    error = f"error: cannot write standard output: {os.strerror(reason)}\n"
    assert (done.returncode, done.stderr) == (EXIT_IOERR, error)
    assert not report.exists() and not trace.exists()


def test_a_config_with_a_byte_order_mark_reads_as_one_without(tmp_path, capsys):
    text = b"egress = rfc3168\nseed = 3\n"
    runs = []
    for folder, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
        (tmp_path / folder).mkdir()
        config = tmp_path / folder / "scenario.cfg"
        config.write_bytes(data)
        runs.append((main(["probe", "--config", str(config)]), *capsys.readouterr()))
    assert runs[0][0] == 0 and runs[0][1]
    assert runs[1] == runs[0]


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_config_reads_as_a_text_mode_read_gives_it(tmp_path, ending):
    # load_config reads bytes; its lines, line numbers and values are those
    # that Path.read_text's newline translation gives, for a Path or a str.
    def outcome(read):
        try:
            return read()
        except ConfigError as exc:
            return exc.errors

    for text in ("egress = rfc3168\nseed = 3\n", "egress = rfc3168\nbogus\nseed = x\r\n\nrepetitions = 2 # c\n"):
        config = tmp_path / "scenario.cfg"
        config.write_bytes(text.replace("\n", ending).encode())
        expected = outcome(lambda: parse_config_text(config.read_text(encoding="utf-8")))
        assert outcome(lambda: cli.load_config(config)) == outcome(lambda: cli.load_config(str(config))) == expected


def test_a_byte_order_mark_counts_in_the_non_utf8_offset(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_bytes(b"\xef\xbb\xbfegress = rfc6040\n\xff\n")
    assert main(["probe", "--config", str(config)]) == EXIT_CONFIG
    error = f"config error: config: {config} is not UTF-8 text (byte 20: invalid start byte)\n"
    assert capsys.readouterr() == ("", error)


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
        "Capability", "ClassificationKind", "ConfigError", "ControlFailure",
        "ControlReport", "DecapBehaviorClass", "EcnCodepoint", "EncapPolicy", "ExchangeResult",
        "GREEN_CLASSES", "InvalidFeedback", "PROBE_ROWS", "ProbeObservation", "ProbeReport",
        "ProbeSessionResult", "PropagationVerdict", "Scenario", "ScenarioConfig", "TcpEcnFlags",
        "TunnelPath", "__version__", "aggregate", "build_report", "build_scenario", "builtin_policy",
        "classify", "decap", "decode_handshake", "ecn_of", "encap", "encode_handshake",
        "interpret", "mangled_copy_outer", "mangled_policy", "mangled_random", "mangled_zero_all",
        "overwrite_ecn", "parse_report", "probe_rows", "reference_signature", "render_report",
        "run_control_test", "run_main_test", "run_probe_session", "serialize_trace", "wireshark_string",
    ]
    # A classification is a frozenset of classes, and no probe reads a DSCP.
    for gone in ("Classification", "dscp_of"):
        assert not hasattr(ecnprobe, gone)


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
    with pytest.raises(ValueError, match="expected 4 observations"):
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
    assert data == oracle_bytes(report)
    parsed = parse_report(data)
    assert render_report(parsed, "json") == data
    assert parsed == report and parsed.config == config
    assert render_report(parsed, "text") == render_report(report, "text")


def test_a_report_with_ambiguous_rows_reads_back_as_itself():
    # Under a zero ingress the copy and feedback columns differ, and at this
    # seed rows 3 and 4 each split one vote to one.
    config = ScenarioConfig(
        ingress="zero", egress="rfc3168", aqm_ce_probability=0.3, loss_probability=0.3, seed=0, servers=1, repetitions=2
    )
    report = run_session_report(config)
    assert report.control.copied != report.control.reflected
    assert [obs.ambiguous for obs in report.observations] == [False, False, True, True]
    data = render_report(report, "json")
    assert data == oracle_bytes(report)
    parsed = parse_report(data)
    assert parsed == report
    assert render_report(parsed, "json") == data


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


def test_parse_report_refuses_a_str_and_reads_a_bytearray():
    for data in ("{}", None, memoryview(b"{}")):
        with pytest.raises(ValueError) as exc_info:
            parse_report(data)
        assert str(exc_info.value) == f"report must be bytes, got {type(data).__name__}"
    data = render_report(run_session_report(ScenarioConfig(egress="rfc6040")), "json")
    assert parse_report(bytearray(data)) == parse_report(data)


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


def _nodes(node, path=()):
    """(path, value) for each node of a JSON document, parents first."""
    yield path, node
    if type(node) in (dict, list):
        for key, value in node.items() if type(node) is dict else enumerate(node):
            yield from _nodes(value, path + (key,))


def _leaves(node):
    """(path, value) for each leaf of a JSON document."""
    return [(path, value) for path, value in _nodes(node) if type(value) not in (dict, list)]


def _containers(node):
    """(path, value) for each object or array below the top of a JSON document."""
    return [(path, value) for path, value in _nodes(node) if path and type(value) in (dict, list)]


def _last_key(path):
    """The last key of ``path`` with the list indices after it: ``observations[0]``."""
    last = max(i for i, step in enumerate(path) if type(step) is str)
    return path[last] + "".join(f"[{i}]" for i in path[last + 1:])


# One value of each JSON type (int and float apart).
JSON_TYPE_VALUES = (None, True, 1, 1.5, "x", [], {})


def _wrong_type_values(value):
    """A value of each other JSON type, the equal float and bool of an int,
    and the equal int of a bool."""
    values = [other for other in JSON_TYPE_VALUES if type(other) is not type(value)]
    if type(value) is int:
        values += [float(value)] + ([bool(value)] if value in (0, 1) else [])
    elif type(value) is bool:
        values.append(int(value))
    return values


def _unnamed_wrong_types(capability, nodes, wrong_values):
    """(path, value, message) for each edit of an rfc6040 report, a node
    that ``nodes`` yields replaced by each of its ``wrong_values``, whose
    ValueError does not name the node; any other exception fails the test."""
    obj = json.loads(render_report(run_session_report(ScenarioConfig(egress="rfc6040", capability=capability)), "json"))
    unnamed = []
    for path, value in nodes(obj):
        for bad in wrong_values(value):
            _set(obj, path, bad)
            with pytest.raises(ValueError) as exc_info:
                parse_report(json.dumps(obj).encode())
            assert type(exc_info.value) is ValueError
            if _last_key(path) not in str(exc_info.value):
                unnamed.append((path, bad, str(exc_info.value)))
        _set(obj, path, value)
    return unnamed


@pytest.mark.parametrize("capability", ["full", "ce_only"])
def test_parse_report_rejects_every_leaf_of_another_type(capability):
    assert _unnamed_wrong_types(capability, _leaves, _wrong_type_values) == []


@pytest.mark.parametrize("capability", ["full", "ce_only"])
def test_parse_report_names_every_container_of_another_type(capability):
    # One edit for each other JSON type: 216 over the two reports.
    assert _unnamed_wrong_types(capability, _containers, _wrong_type_values) == []


def _flip_fallback(obj):
    control = obj["control"]
    control["overwrite_fallback_enabled"] = not control["overwrite_fallback_enabled"]


def _ce_only(obj):
    obj["capability"] = obj["config"]["capability"] = "ce_only"


def _no_feedback_matched(obj):
    for entry in obj["control"]["codepoints"].values():
        entry["feedback_matches"] = False


# Edits of an rfc6040 report that make the document one this program never
# writes, and the text the error must hold (most name the offending key).
INCONSISTENT_REPORTS = {
    "schema 2": (lambda obj: _set(obj, ["schema"], 2), "unsupported report schema 2"),
    "schema true": (lambda obj: _set(obj, ["schema"], True), "unsupported report schema True"),
    "config the CLI refuses": (
        lambda obj: _set(obj, ["config", "servers"], 0),
        "malformed report: config: servers: must be >= 1",
    ),
    "unknown top-level key": (lambda obj: _set(obj, ["extra"], 1), "malformed report: extra is unknown"),
    "restated key missing": (lambda obj: obj.pop("verdict"), "malformed report: verdict is missing"),
    "control a list": (lambda obj: _set(obj, ["control"], []), "malformed report: control must be dict, got []"),
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
    assert "RFC6040:" in out
    assert "Decapsulation profiles" in out


def test_tables_grid_matches_reference_signatures(capsys):
    main(["tables"])
    out = capsys.readouterr().out
    sections = {}
    current = None
    for line in out.splitlines():
        if line.endswith(":") and line[:-1].lower() in model.SIGNATURES:
            current = line[:-1]
            sections[current] = []
        elif current and line.startswith("  ") and "->" in line:
            sections[current].append(line.strip())
        elif not line.strip():
            current = None
    # the probed rows, verbatim per behaviour
    label = {name: OUTCOME_LABEL[outcome] for name, outcome in OUTCOME_BY_NAME.items()}
    assert sections == {
        cls.upper(): [f"{label[initial]} {label[outer]} -> {label[onward]}"
                      for (initial, outer), onward in zip(model.ROWS, signature)]
        for cls, signature in model.SIGNATURES.items()
    }


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    ran = sum(line.startswith("ok ") for line in out.splitlines())
    assert ran == 12
    assert out.endswith(f"selftest: {ran}/{ran} scenarios identified correctly\n")
    assert "FAIL" not in out
