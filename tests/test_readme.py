"""Every Python code block in README.md runs, and its trace example is an
excerpt of the trace its example config writes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ecnprobe.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def code_blocks():
    """(section heading, fence language, code) for each ``` block, in README order."""
    blocks = []
    heading, fence, code = "", None, ""
    for line in README.splitlines(keepends=True):
        if fence is None and line.startswith("```"):
            fence, code = line[3:].strip(), ""
        elif fence is None and line.startswith("#"):
            heading = line.lstrip("#").strip()
        elif line.startswith("```"):
            blocks.append((heading, fence, code))
            fence = None
        else:
            code += line
    return blocks


CODE_BLOCKS = code_blocks()
BLOCKS = [(heading, code) for heading, fence, code in CODE_BLOCKS if fence == "python"]


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("heading,code", BLOCKS, ids=[f"{i}-{heading}" for i, (heading, _) in enumerate(BLOCKS)])
def test_readme_python_block_runs(heading, code):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_the_trace_example_is_an_excerpt_of_the_example_config_trace(tmp_path):
    [config] = [code for _, fence, code in CODE_BLOCKS if fence == "ini"]
    # The section's last unlabelled block; the one before it is the line grammar.
    example = [code for heading, fence, code in CODE_BLOCKS if heading == "Trace format" and not fence][-1]
    (tmp_path / "scenario.cfg").write_text(config)
    code = main(["probe", "--config", str(tmp_path / "scenario.cfg"), "--trace", str(tmp_path / "run.trace")])
    assert code == 0
    assert example.count("\n") == 5
    assert "\n" + example in "\n" + (tmp_path / "run.trace").read_text()
