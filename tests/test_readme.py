"""Every Python code block in README.md runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def python_blocks():
    """(section heading, code) for each ```python block, in README order."""
    blocks = []
    heading, fence, code = "", None, ""
    for line in README.splitlines(keepends=True):
        if fence is None and line.startswith("```"):
            fence, code = line[3:].strip(), ""
        elif fence is None and line.startswith("#"):
            heading = line.lstrip("#").strip()
        elif line.startswith("```"):
            if fence == "python":
                blocks.append((heading, code))
            fence = None
        else:
            code += line
    return blocks


BLOCKS = python_blocks()


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("heading,code", BLOCKS, ids=[f"{i}-{heading}" for i, (heading, _) in enumerate(BLOCKS)])
def test_readme_python_block_runs(heading, code):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
