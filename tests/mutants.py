"""Mutation gate: every mutant in MUTANTS must make the test suite fail.

Run from anywhere with ``python tests/mutants.py``.  The script first copies
``src``, ``tests``, ``pyproject.toml`` and ``README.md`` to a temporary
directory and checks that the whole unmutated suite passes there.  Then, for
each mutant, it makes a fresh copy, replaces one exact snippet of one file,
and runs pytest there under a timeout, up to WORKERS mutants at once: first
the mutant's recorded killer, a test that failed on it before, and only if
that does not fail, the whole suite with ``-x``.  A mutant is killed when a
pytest run fails (a test fails or a test module does not import) or times
out.  A killer that no longer kills is reported, and the whole suite
decides.  A snippet that does not occur exactly once in its file is an
error, not a skip, so a refactor must carry this table along;
``tests/test_mutants.py`` checks that, and that every killer exists, in the
tier-1 suite.

It prints a kill table in table order and exits 0 only when every mutant is
killed.  It needs only the standard library and pytest; pytest does not
collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md")
TIMEOUT_S = 600
# Each worker thread waits on one pytest process.
WORKERS = min(4, os.cpu_count() or 1)

SIMNET = "src/ecnprobe/simnet.py"
ENGINE = "src/ecnprobe/engine.py"
REPORT = "src/ecnprobe/report.py"
TUNNELS = "src/ecnprobe/tunnels.py"

# The tier-1 test that each snippet occurs once: in a mutant's copy its own snippet is gone, so the
# whole-suite run leaves it out.
SNIPPET_TEST = "tests/test_mutants.py::test_each_snippet_occurs_once_in_its_file"

# (name, file, exact snippet, replacement, what the mutant breaks, killer: the node id of a test it fails)
MUTANTS = [
    (
        "server-left-out-of-key",
        SIMNET,
        "ExchangeResult(outcome and outcome[1], server, initial, outer, outcome and outcome[0])",
        "ExchangeResult(outcome and outcome[1], 0, initial, outer, outcome and outcome[0])",
        "exchanges to different servers share one record",
        "tests/test_golden.py::test_probe_output_matches_golden[copy_outer/copy/ce_only/clean]",
    ),
    (
        "inner-outer-lines-swapped",
        SIMNET,
        "_INITIAL_LINES, _INNER_LINES, _OUTER_LINES, _ONWARD_LINES = (",
        "_INITIAL_LINES, _OUTER_LINES, _INNER_LINES, _ONWARD_LINES = (",
        "the trace labels the inner header Outer and the outer Inner",
        "tests/test_golden.py::test_probe_output_matches_golden[copy_outer/copy/ce_only/clean]",
    ),
    (
        "post-aqm-outer-stored",
        SIMNET,
        "else build(server, marked_outcome)",
        "else build(server, marked_outcome)._replace(outer=CODEPOINTS[marked_cell & 3])",
        "an AQM-marked record holds the outer after AQM marking, not as the tester's device sent it",
        "tests/test_golden.py::test_probe_output_matches_golden[copy_outer/copy/ce_only/heavy]",
    ),
    (
        "bug-mask-table-ignored",
        SIMNET,
        "outcomes = self._buggy_outcomes.get(server, self._outcomes)",
        "outcomes = self._outcomes",
        "every server feeds back as a healthy one, whatever its bug mask",
        "tests/test_simnet.py::test_server_bug_mask_corrupts_feedback",
    ),
    (
        "aggregate-order-reversed",
        ENGINE,
        "for o in OUTCOME_ORDER if o in votes",
        "for o in reversed(OUTCOME_ORDER) if o in votes",
        "a tied row breaks toward CE instead of toward a drop",
        "tests/test_engine.py::test_aggregate_tie_breaks_deterministically",
    ),
    (
        "scenario-make-override-removed",
        SIMNET,
        '    @classmethod\n    def _make(cls, iterable) -> "Scenario":\n        return cls(*iterable)\n',
        "",
        "Scenario._replace skips the range checks and the bug-mask freeze",
        "tests/test_engine.py::test_scenario_keeps_a_frozen_copy_of_the_bug_mask",
    ),
    (
        "ambiguous-signature-tabulated-single",
        ENGINE,
        "observed: frozenset(b for b, signature in signatures.items() if signature == observed)",
        "observed: frozenset([next(b for b, signature in signatures.items() if signature == observed)])",
        "CE-only RFC 6040 and RFC 3168 classify as one class",
        "tests/test_acceptance.py::test_criterion_3_ce_only_degradation",
    ),
    (
        "kind-counts-two-as-one",
        ENGINE,
        "[min(len(classes), 2)]",
        "[min(len(classes), 1)]",
        "an ambiguous classification is reported single",
        "tests/test_acceptance.py::test_criterion_5_mangled_catch_all_oracle",
    ),
    (
        "interpret-without-green-check",
        ENGINE,
        "if classes and classes <= GREEN_CLASSES:",
        "if classes:",
        "a simple (RFC 2003) egress passes as propagating correctly",
        "tests/test_acceptance.py::test_criterion_2_soundness_sweep",
    ),
    (
        "bug-mask-not-frozen",
        SIMNET,
        "            mask = MappingProxyType(frozen)\n",
        "            pass\n",
        "a scenario keeps the caller's bug-mask dict, so a later write changes its sessions",
        "tests/test_engine.py::test_scenario_keeps_a_frozen_copy_of_the_bug_mask",
    ),
    (
        "egress-not-copied",
        SIMNET,
        "                egress = mangled_policy(egress)\n",
        "                mangled_policy(egress)\n",
        "a scenario keeps the caller's egress dict, so a later write changes its sessions",
        "tests/test_engine.py::test_scenario_keeps_a_read_only_copy_of_the_callers_egress",
    ),
    (
        "send-varies-servers-slowest",
        SIMNET,
        "self._plan(initial, outer_override) * self.repetitions",
        "[triple for triple in self._plan(initial, outer_override) for _ in range(self.repetitions)]",
        "a probe's repetitions go to one server before the next, so the draws and the trace reorder",
        "tests/test_engine.py::test_a_path_that_wraps_exchange_runs_the_same_session",
    ),
    (
        "server-id-type-guard-removed",
        SIMNET,
        "not isinstance(server_id, int) or not 0 <= server_id",
        "not 0 <= server_id",
        "exchange raises TypeError, not ValueError, for a server id of 1.5 or None",
        "tests/test_simnet.py::test_exchange_rejects_bad_server_id",
    ),
    (
        "main-test-rows-never-ambiguous",
        ENGINE,
        "observations.append(ProbeObservation(votes, *aggregate(votes)))",
        "observations.append(ProbeObservation(votes, aggregate(votes)[0], False))",
        "a row without a strict majority is reported as decided",
        "tests/test_cli.py::test_report_render_parse_render_is_the_identity",
    ),
    (
        "parsed-row-undecided-by-aggregate",
        REPORT,
        "observations.append(ProbeObservation(votes, *aggregate(votes)))",
        "observations.append(ProbeObservation(votes, max(votes, key=votes.__getitem__), False))",
        "parse_report decides a row by its own plurality rule instead of aggregate's",
        "tests/test_cli.py::test_report_render_parse_render_is_the_identity",
    ),
    (
        "bug-mask-server-range-unchecked",
        SIMNET,
        "if type(server) is not int or not 0 <= server < self.servers:",
        "if type(server) is not int:",
        "a bug mask for a server the scenario does not have is accepted and never used",
        "tests/test_simnet.py::test_scenario_rejects_a_bad_bug_mask[server out of range]",
    ),
    (
        "control-fallback-reflected-dropped",
        ENGINE,
        "reflected = _control_pass(path, override=True)[0]",
        "_control_pass(path, override=True)",
        "the fallback pass runs, but the report keeps the first pass's feedback",
        "tests/test_engine.py::test_clean_path_oracle_over_every_probe_cell_table",
    ),
    (
        "control-fallback-without-override",
        ENGINE,
        "_control_pass(path, override=True)",
        "_control_pass(path, override=False)",
        "the fallback pass sends the ingress's outer instead of a copy of the initial",
        "tests/test_engine.py::test_clean_path_oracle_over_every_probe_cell_table",
    ),
    (
        "control-copied-from-fallback",
        ENGINE,
        "reflected = _control_pass(path, override=True)[0]",
        "reflected, copied = _control_pass(path, override=True)",
        "the copy check is taken from the fallback pass, whose outers the tester wrote",
        "tests/test_acceptance.py::test_criterion_2_soundness_sweep",
    ),
    (
        "parsed-control-sets-swapped",
        REPORT,
        "control = ControlReport(frozenset(reflected), frozenset(copied))",
        "control = ControlReport(frozenset(copied), frozenset(reflected))",
        "parse_report reads the copy column as the feedback column and back",
        "tests/test_cli.py::test_report_render_parse_render_is_the_identity",
    ),
    (
        "config-types-unchecked",
        SIMNET,
        'if type(value) is not kind and not (key == "egress" and value is None)',
        "if False",
        "build_scenario accepts a config value of the wrong type",
        "tests/test_cli.py::test_parse_report_rejects_every_leaf_of_another_type[full]",
    ),
    (
        "scenario-types-unchecked",
        SIMNET,
        "if type(value := getattr(self, field)) not in kinds",
        "if False",
        "Scenario accepts a float server count or a bool seed",
        "tests/test_simnet.py::test_a_value_of_the_wrong_type_is_refused[scenario servers a float]",
    ),
    (
        "parsed-restated-keys-unchecked",
        REPORT,
        "    _check_restated(json.loads(_json_text(report)), obj)\n",
        "",
        "parse_report accepts a document whose restated keys contradict its facts",
        "tests/test_cli.py::test_parse_report_rejects_unknown_names[initial-purple]",
    ),
    (
        "parsed-vote-counts-untyped",
        REPORT,
        '_typed(counts, name, int, where + ".votes.")',
        "counts[name]",
        "parse_report accepts a vote count of 15.0 or true, which re-renders as itself",
        "tests/test_cli.py::test_parse_report_rejects_wrong_type_leaves[vote count is a string]",
    ),
    (
        "scenario-ingress-egress-unchecked",
        SIMNET,
        "        if type(self.ingress) is not EncapPolicy:\n"
        '            errors.append(("ingress", f"must be an EncapPolicy, got {self.ingress!r}"))\n'
        "        egress, mask = self.egress, self.server_bug_mask\n"
        "        if id(egress) not in _BUILTIN_OUTCOMES:\n"
        "            try:\n"
        "                egress = mangled_policy(egress)\n"
        "            except ValueError as exc:\n"
        '                errors.append(("egress", str(exc)))\n',
        "        egress, mask = self.egress, self.server_bug_mask\n",
        "Scenario accepts an ingress name or a partial egress table, which fail later with KeyError",
        "tests/test_engine.py::test_scenario_keeps_a_read_only_copy_of_the_callers_egress",
    ),
    (
        "scenario-negative-seed-accepted",
        SIMNET,
        "errors = _range_errors(self) + _seed_errors(self)",
        "errors = _range_errors(self)",
        "Scenario accepts seed -7, which replays seed 7",
        "tests/test_simnet.py::test_scenario_refuses_a_negative_seed_as_a_config_does",
    ),
    (
        "probe-rows-capability-unchecked",
        TUNNELS,
        "    if capability is Capability.CE_ONLY:\n        return _CE_ROWS\n"
        '    raise ValueError(f"capability must be a Capability, got {capability!r}")\n',
        "    return _CE_ROWS\n",
        "a capability name probes the CE-only rows and the session then fails with KeyError",
        "tests/test_engine.py::test_session_arguments_of_the_wrong_type_are_refused[capability a name]",
    ),
    (
        "session-capability-checked-late",
        ENGINE,
        "    path = TunnelPath(scenario, capability, repetitions)\n    control = run_control_test(path)\n",
        "    path = TunnelPath(scenario, Capability.FULL, repetitions)\n    control = run_control_test(path)\n"
        "    path.rows, path.capability = probe_rows(capability), capability\n",
        "a bad capability is refused only after the control test has sent its exchanges",
        "tests/test_engine.py::test_session_arguments_of_the_wrong_type_are_refused[capability a name]",
    ),
    (
        "path-session-limits-unchecked",
        SIMNET,
        "        if errors := _repetition_errors(scenario.servers, repetitions):\n"
        "            raise ConfigError(errors)\n",
        "",
        "a library session of 10001 servers, or of 10**9 repetitions, runs instead of being refused",
        "tests/test_engine.py::test_control_requires_repetitions",
    ),
    (
        "mangled-policy-outcomes-unchecked",
        TUNNELS,
        "_OUTCOMES.issuperset(policy.values())",
        "True",
        "mangled_policy, so Scenario, accepts a table of outcome names, which a session then fails on",
        "tests/test_simnet.py::test_a_value_of_the_wrong_type_is_refused[scenario egress onward a name]",
    ),
    (
        "parsed-control-entry-unguarded",
        REPORT,
        'entry = _typed(codepoints, name, dict, "control.codepoints.")',
        "entry = codepoints[name]",
        "parse_report fails with TypeError on a control codepoint entry that is not an object",
        "tests/test_cli.py::test_parse_report_names_every_container_of_another_type[full]",
    ),
    (
        "loss-drawn-before-aqm",
        SIMNET,
        "            if draw() < aqm:\n                record = marked\n"
        "            if draw() < loss:\n                record = lost\n",
        "            is_lost = draw() < loss\n            if draw() < aqm:\n                record = marked\n"
        "            if is_lost:\n                record = lost\n",
        "each packet's first draw decides its loss and its second the AQM marking, so the draws misalign",
        "tests/test_golden.py::test_probe_output_matches_golden[copy_outer/copy/ce_only/heavy]",
    ),
    (
        "aqm-marks-any-outer",
        SIMNET,
        "marked_cell = cell | 3 if 0 < captured < 3 else cell",
        "marked_cell = cell | 3",
        "AQM marks a Not-ECT outer CE, which a real AQM would drop instead",
        "tests/test_golden.py::test_probe_output_matches_golden[copy_outer/copy/ce_only/heavy]",
    ),
    (
        "log-not-extended",
        SIMNET,
        "        self.log += records\n",
        "",
        "the path's log, so a session's exchanges and trace, misses every packet",
        "tests/test_cli.py::test_probe_writes_json_and_trace",
    ),
    (
        "exchange-override-ignored-by-send",
        SIMNET,
        "if type(self).exchange is TunnelPath.exchange:",
        "if True:",
        "send skips a subclass's exchange, so the traced benchmark counts no packets",
        "tests/test_engine.py::test_session_arguments_of_the_wrong_type_are_refused[capability a name]",
    ),
    (
        "initial-type-unchecked",
        SIMNET,
        "        if type(initial) is not EcnCodepoint:\n"
        '            raise ValueError(f"initial must be an EcnCodepoint, got {initial!r}")\n',
        "",
        "a codepoint name as the initial raises AttributeError, not ValueError",
        "tests/test_simnet.py::test_a_codepoint_of_the_wrong_type_is_refused_before_the_draws"
        "[packet loop-send initial a name]",
    ),
    (
        "override-type-unchecked",
        SIMNET,
        "outer_override is not None and type(outer_override) is not EcnCodepoint",
        "False",
        "an int outer override raises AttributeError, not ValueError",
        "tests/test_simnet.py::test_a_codepoint_of_the_wrong_type_is_refused_before_the_draws"
        "[packet loop-send override an int]",
    ),
    (
        "table-extra-cells-accepted",
        TUNNELS,
        "policy.keys() == _CELL_SET",
        "policy.keys() >= _CELL_SET",
        "mangled_policy, so Scenario, accepts a table with a key outside the 16 cells and keeps the stray key",
        "tests/test_tunnels.py::test_mangled_policy_names_every_key_outside_the_cells",
    ),
    (
        "path-scenario-type-unchecked",
        SIMNET,
        "        if not isinstance(scenario, Scenario):\n"
        '            raise ValueError(f"scenario must be a Scenario, got {type(scenario).__name__}")\n',
        "",
        "a session given a ScenarioConfig fails with KeyError, and one given None with AttributeError",
        "tests/test_engine.py::test_a_session_of_no_scenario_is_refused[a config]",
    ),
    (
        "plan-key-without-servers",
        SIMNET,
        "(self._outcomes, scenario.servers, tuple(sorted(self._buggy_outcomes.items())))",
        "(self._outcomes, tuple(sorted(self._buggy_outcomes.items())))",
        "a path reuses the plan of a path with more or fewer servers, so it sends to servers it does not have",
        "tests/test_simnet.py::test_a_second_path_over_the_same_table_builds_no_record_and_no_plan",
    ),
    (
        "plan-key-without-bug-mask",
        SIMNET,
        "(self._outcomes, scenario.servers, tuple(sorted(self._buggy_outcomes.items())))",
        "(self._outcomes, scenario.servers)",
        "a path with a buggy server reuses a healthy path's plan, or a healthy path a buggy one's",
        "tests/test_simnet.py::test_a_second_path_over_the_same_table_builds_no_record_and_no_plan",
    ),
    (
        "plan-store-never-capped",
        SIMNET,
        "            if (_planned_records := _planned_records + size) > MAX_PLANNED_RECORDS:\n"
        "                _PLANS.clear()\n"
        "                _planned_records = size\n",
        "            _planned_records += size\n",
        "the plan store grows with every table, server count and bug mask a process probes",
        "tests/test_simnet.py::test_plans_stay_within_their_cap",
    ),
    (
        "plan-store-skipped-on-a-path-miss",
        SIMNET,
        "if plan := self._plans.get(cell) or _PLANS.get(self._plan_key, {}).get(cell):",
        "if plan := self._plans.get(cell):",
        "a path made before its key's first plan was kept builds every plan again",
        "tests/test_simnet.py::test_a_second_path_over_the_same_table_builds_no_record_and_no_plan",
    ),
    (
        "aqm-marks-by-override",
        SIMNET,
        "marked_cell = cell | 3 if 0 < captured < 3 else cell",
        "marked_cell = cell | 3 if outer_override in (EcnCodepoint.ECT1, EcnCodepoint.ECT0) else cell",
        "AQM marks by the tester's override, not the captured outer: never an outer the ingress wrote",
        "tests/test_golden.py::test_probe_output_matches_golden[copy_outer/copy/ce_only/heavy]",
    ),
    (
        "aqm-marked-record-always-built",
        SIMNET,
        "marked = record if marked_outcome == outcome else build(server, marked_outcome)",
        "marked = build(server, marked_outcome)",
        "a plan builds an AQM-marked record for a probe whose outer AQM cannot mark",
        "tests/test_simnet.py::test_each_exchange_field_gives_its_own_record",
    ),
    (
        "lost-record-always-built",
        SIMNET,
        "lost = record if outcome is None else marked if marked_outcome is None else build(server, None)",
        "lost = build(server, None)",
        "a plan builds a lost record equal to the egress drop's it already holds",
        "tests/test_simnet.py::test_a_plan_builds_each_distinct_record_of_a_triple_once",
    ),
    (
        "report-type-unchecked",
        REPORT,
        "    if not isinstance(data, (bytes, bytearray)):\n"
        '        raise ValueError(f"report must be bytes, got {type(data).__name__}")\n',
        "",
        "parse_report given a str fails with AttributeError, not ValueError",
        "tests/test_cli.py::test_parse_report_refuses_a_str_and_reads_a_bytearray",
    ),
    (
        "parsed-tool-unguarded",
        REPORT,
        'version = _typed(_typed(obj, "tool", dict), "version", str, "tool.")',
        'version = _typed(obj["tool"], "version", str, "tool.")',
        "parse_report fails with TypeError on a tool that is not an object",
        "tests/test_cli.py::test_parse_report_names_every_container_of_another_type[full]",
    ),
]


class SnippetError(Exception):
    pass


def make_copy(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        else:
            shutil.copy2(source, dest / name)


def apply(dest: Path, file: str, snippet: str, replacement: str) -> None:
    path = dest / file
    text = path.read_text()
    count = text.count(snippet)
    if count != 1:
        raise SnippetError(f"{file}: snippet occurs {count} times, expected once: {snippet!r}")
    path.write_text(text.replace(snippet, replacement))


def run_pytest(dest: Path, *args: str):
    """(outcome, seconds, first failing test or "") for ``pytest -x -q *args`` in ``dest``: "passed",
    "failed" (a test failed or a module did not import), "timeout", or "unrun" (no such test, say)."""
    env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
    started = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args],
            cwd=dest, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "timeout", time.monotonic() - started, ""
    seconds = time.monotonic() - started
    if done.returncode == 0:
        return "passed", seconds, ""
    if done.returncode not in (1, 2):  # pytest's exit codes for failed tests and for errors collecting them
        return "unrun", seconds, f"pytest exit {done.returncode}"
    first = next(
        (line.split(" - ")[0] for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))),
        f"pytest exit {done.returncode}",
    )
    return "failed", seconds, first


def judge(dest: Path, mutant):
    """(name, verdict, seconds, first failing test or reason, stale killer note or "") for one mutant, run in a
    fresh copy at ``dest``, which is removed afterwards: its killer first, then, if that passed, the whole suite."""
    name, file, snippet, replacement, reason, killer = mutant
    make_copy(dest)
    try:
        apply(dest, file, snippet, replacement)
    except SnippetError as exc:
        return name, "ERROR", 0.0, str(exc), ""
    else:
        outcome, seconds, first = run_pytest(dest, killer)
        stale = ""
        if outcome not in ("failed", "timeout"):
            stale = f"killer {outcome}: {killer}"
            outcome, more, first = run_pytest(dest, "--deselect", SNIPPET_TEST)
            seconds += more
        verdict = {"passed": "SURVIVED", "unrun": "ERROR"}.get(outcome, f"killed ({outcome})")
        return name, verdict, seconds, first or reason, stale
    finally:
        shutil.rmtree(dest)


def main() -> int:
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="ecnprobe-mutants-") as tmp:
        base = Path(tmp) / "unmutated"
        make_copy(base)
        outcome, seconds, first = run_pytest(base)
        print(f"unmutated copy: {outcome} in {seconds:.1f} s {first}".rstrip(), flush=True)
        if outcome != "passed":
            print("error: the suite must pass before mutants can be judged", file=sys.stderr)
            return 2

        rows = []
        dests = [Path(tmp) / f"mutant-{index}" for index in range(len(MUTANTS))]
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            # map yields in table order, each row as soon as it and those before it are done.
            for row in pool.map(judge, dests, MUTANTS):
                rows.append(row)
                print(f"{row[0]:<38} {row[1]:<18} {row[2]:6.1f} s  {row[3]}", flush=True)
                if row[4]:
                    print(f"{'':<38} {row[4]}", flush=True)

    killed = sum(verdict.startswith("killed") for _, verdict, _, _, _ in rows)
    stale = sum(bool(note) for *_, note in rows)
    wall = time.monotonic() - started
    print(f"mutants: {killed}/{len(rows)} killed in {wall:.0f} s with {WORKERS} workers; {stale} stale killers")
    return 0 if killed == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
