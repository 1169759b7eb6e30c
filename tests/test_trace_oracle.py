"""Every trace proves its report: the independent reader in ``trace_oracle``
derives the ``--json`` report's control test, rows, classification and
verdict from the ``--trace`` text and the config alone."""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecnprobe.cli import EXIT_BY_VERDICT, EXIT_CONTROL_FAILURE, main
from ecnprobe.engine import PropagationVerdict
from paper_model import WIRE
from test_golden import CONFIGS
from trace_oracle import derive


def probe(directory: Path, config: str):
    """(exit code, parsed --json report or None, --trace text or None) of one probe."""
    (directory / "scenario.cfg").write_text(config)
    report, trace = directory / "report.json", directory / "run.trace"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["probe", "--config", str(directory / "scenario.cfg"), "--json", str(report), "--trace", str(trace)])
    return (
        code,
        json.loads(report.read_bytes()) if report.exists() else None,
        trace.read_text() if trace.exists() else None,
    )


def check(directory: Path, config: str):
    """The report is what the trace shows, and a control failure writes neither file."""
    code, report, trace = probe(directory, config)
    if code == EXIT_CONTROL_FAILURE:
        assert (report, trace) == (None, None)
        return
    derived = derive(trace, config)
    assert {key: report[key] for key in derived} == derived
    assert code == EXIT_BY_VERDICT[PropagationVerdict(derived["verdict"])]


# A custom: table of 16 random outcomes, the drop alias among them.
custom_tables = st.lists(
    st.sampled_from(("dropped", "drop", *WIRE)), min_size=16, max_size=16
).map(lambda outcomes: "custom:" + ";".join(
    f"{inner},{outer}->{outcome}" for (inner, outer), outcome in zip([(i, o) for i in WIRE for o in WIRE], outcomes)
))
cli_configs = st.fixed_dictionaries(
    {
        "ingress": st.sampled_from(("copy", "zero", "rfc3168full")),
        "egress": st.one_of(st.sampled_from(("rfc6040", "rfc4301", "rfc3168", "rfc2003")), custom_tables),
        "aqm_ce_probability": st.floats(0.0, 0.5),
        "loss_probability": st.floats(0.0, 0.5),
        "seed": st.integers(min_value=0),
        "servers": st.integers(1, 4),
        "repetitions": st.integers(1, 6),
        "capability": st.sampled_from(("full", "ce_only")),
    }
)


@settings(max_examples=200, deadline=None, database=None)
@given(cli_configs)
# Rows 3 and 4 split one vote to one: a consensus with exactly half the votes is ambiguous.
@example(dict(ingress="zero", egress="rfc3168", aqm_ce_probability=0.3, loss_probability=0.3, seed=0, servers=1,
              repetitions=2, capability="full"))
def test_the_json_report_is_what_the_trace_shows(fields):
    with tempfile.TemporaryDirectory() as tmp:
        check(Path(tmp), "".join(f"{key} = {value}\n" for key, value in fields.items()))


def test_the_trace_reader_agrees_with_every_golden_probe(tmp_path):
    for key, config in CONFIGS.items():
        directory = tmp_path / key.replace("/", "-")
        directory.mkdir()
        check(directory, config)


def test_the_paper_model_and_the_trace_reader_load_no_ecnprobe_module():
    # A fresh interpreter, with only tests/ on the path, so the oracles cannot share code with what they check.
    code = "import sys, paper_model, trace_oracle; print(sorted(m for m in sys.modules if m.startswith('ecnprobe')))"
    result = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parent, env={}, capture_output=True,
                            text=True, check=True)
    assert result.stdout == "[]\n"
