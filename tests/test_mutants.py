"""The mutation gate's table still fits the code and the tests.

``tests/mutants.py`` fails a snippet that no longer occurs exactly once only
when its gate runs, minutes later; these checks fail in about a second.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


def test_each_snippet_occurs_once_in_its_file():
    # The gate leaves this test out of a mutant's whole-suite run by this node id.
    assert mutants.SNIPPET_TEST == f"tests/test_mutants.py::{test_each_snippet_occurs_once_in_its_file.__name__}"
    counts = {name: (ROOT / file).read_text().count(snippet) for name, file, snippet, *_ in mutants.MUTANTS}
    assert {name: count for name, count in counts.items() if count != 1} == {}


def test_each_killer_names_a_test_function_in_its_file():
    functions = {}  # test functions by file
    missing = []
    for name, *_, killer in mutants.MUTANTS:
        file, _, test = killer.partition("::")
        if file not in functions:
            path = ROOT / file
            body = ast.parse(path.read_text()).body if path.is_file() else []
            functions[file] = {node.name for node in body if isinstance(node, ast.FunctionDef)}
        if not test.startswith("test_") or test.partition("[")[0] not in functions[file]:
            missing.append((name, killer))
    assert missing == []

