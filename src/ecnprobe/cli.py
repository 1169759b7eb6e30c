"""Command-line front end.

``ecnprobe probe --config FILE`` runs the control and main tests against
the configured simulated path and reports how the egress decapsulates the
ECN field.  ``ecnprobe tables`` prints the reference signatures and the
full decapsulation matrices.  ``ecnprobe selftest`` sweeps every built-in
egress behaviour against every ingress mode and checks each is identified.

Exit codes for ``probe``: 0 the egress propagates ECN correctly, 1 it does
not, 2 the result is unknown or ambiguous, 3 the control test found the
path unusable, 64 configuration or usage error (including a ``--json`` or
``--trace`` path that names the config file or the other output), 73 the
``--json`` or ``--trace`` file could not be written.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from ._version import __version__
from .engine import (
    Classification,
    ControlFailure,
    PropagationVerdict,
    run_probe_session,
)
from .report import _signature_lines, build_report, render_control_failure, render_report
from .simnet import CONFIG_TYPES, ConfigError, ScenarioConfig, build_scenario, serialize_trace
from .tunnels import (
    CONFORMANT_CLASSES,
    Capability,
    EncapPolicy,
    OUTCOME_LABEL,
    PROBE_ROWS,
    _COLS,
    builtin_policy,
    derive_seed,
    reference_signature,
)

EXIT_BY_VERDICT = {
    PropagationVerdict.PROPAGATES_CORRECTLY: 0,
    PropagationVerdict.DOES_NOT_PROPAGATE: 1,
    PropagationVerdict.UNKNOWN: 2,
}
EXIT_CONTROL_FAILURE = 3
EXIT_CONFIG = 64
EXIT_CANTCREAT = 73

def parse_config_text(text: str) -> ScenarioConfig:
    """Parse ``key = value`` lines with ``#`` comments into a scenario config.

    Unknown and duplicate keys are rejected; every problem in the file is
    reported in one :class:`ConfigError`.
    """
    values: dict = {}
    errors: List[Tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            errors.append((f"line {lineno}", f"expected 'key = value', got {raw.strip()!r}"))
            continue
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_TYPES:
            errors.append((key, f"unknown key (line {lineno})"))
            continue
        if key in values:
            errors.append((key, f"duplicate key (line {lineno})"))
            continue
        try:
            values[key] = CONFIG_TYPES[key](value)
        except ValueError:
            errors.append((key, f"cannot parse {value!r} as {CONFIG_TYPES[key].__name__}"))
    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(**values)


def load_config(path: Path) -> ScenarioConfig:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([("config", f"cannot read {path}: {exc.strerror or exc}")]) from None
    except UnicodeDecodeError as exc:
        raise ConfigError([("config", f"{path} is not UTF-8 text (byte {exc.start}: {exc.reason})")]) from None
    return parse_config_text(text)


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are configuration errors, same exit code as a bad file.
    def error(self, message: str):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


# Built on the first main() call, not at import, and reused by later calls.
@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ecnprobe", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"ecnprobe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    probe = sub.add_parser("probe", help="run the control and main tests against a configured path")
    probe.add_argument("--config", required=True, type=Path, help="scenario config file (key = value lines)")
    probe.add_argument("--json", type=Path, metavar="OUT", help="also write the machine-readable report here")
    probe.add_argument("--trace", type=Path, metavar="OUT", help="also write the per-exchange header trace here")

    sub.add_parser("tables", help="print reference signatures and decapsulation matrices")

    selftest = sub.add_parser("selftest", help="verify every built-in behaviour is identified")
    selftest.add_argument("--seed", type=int, default=0, help="base seed for the sweep scenarios")
    return parser


def _cmd_probe(args) -> int:
    # No output may overwrite the config or the other output.  An existing
    # file is known by its inode, so a hard link to it is the same file.
    option_by_file = {}
    for option, path in (("--config", args.config), ("--json", args.json), ("--trace", args.trace)):
        if path is None:
            continue
        try:
            stat = path.stat()
            file = (stat.st_dev, stat.st_ino)
        except OSError:
            file = path.resolve()
        if file in option_by_file:
            print(f"ecnprobe: error: {option} and {option_by_file[file]} name the same file", file=sys.stderr)
            return EXIT_CONFIG
        option_by_file[file] = option
    try:
        config = load_config(args.config)
        scenario = build_scenario(config)
    except ConfigError as exc:
        for field, reason in exc.errors:
            print(f"config error: {field}: {reason}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        result = run_probe_session(
            scenario, Capability(config.capability), config.repetitions
        )
    except ControlFailure as exc:
        sys.stderr.write(render_control_failure(exc.report))
        return EXIT_CONTROL_FAILURE

    probe_report = build_report(result, config)
    sys.stdout.write(render_report(probe_report, "text").decode())
    outputs = []
    if args.json is not None:
        outputs.append((args.json, render_report(probe_report, "json")))
    if args.trace is not None:
        outputs.append((args.trace, serialize_trace(result.exchanges).encode()))
    for path, data in outputs:
        try:
            path.write_bytes(data)
        except OSError as exc:
            print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_CANTCREAT
    return EXIT_BY_VERDICT[probe_report.verdict]


def _cmd_tables(_args) -> int:
    out = sys.stdout
    out.write("Reference signatures (probed initial/outer-set rows)\n\n")
    for behavior in CONFORMANT_CLASSES:
        out.write(f"{behavior.display}:\n")
        for line in _signature_lines(PROBE_ROWS, reference_signature(behavior, Capability.FULL)):
            out.write(f"  {line}\n")
        out.write("\n")

    out.write("Decapsulation profiles (rows: inner, columns: outer)\n\n")
    for behavior in CONFORMANT_CLASSES:
        table = builtin_policy(behavior)
        out.write(f"{behavior.display}\n")
        out.write("  inner \\ outer  " + "".join(f"{c.label:<9}" for c in _COLS) + "\n")
        for inner in _COLS:
            cells = "".join(f"{OUTCOME_LABEL[table[(inner, outer)]]:<9}" for outer in _COLS)
            out.write(f"  {inner.label:<15}{cells}\n")
        out.write("\n")
    return 0


def _cmd_selftest(args) -> int:
    scenarios = 0
    failures = 0
    for behavior in CONFORMANT_CLASSES:
        for ingress in EncapPolicy:
            ingress_name = ingress.value
            config = ScenarioConfig(
                ingress=ingress_name,
                egress=behavior.json_name,
                seed=derive_seed(args.seed, "selftest", behavior.json_name, ingress_name),
            )
            scenario = build_scenario(config)
            result = run_probe_session(scenario)
            expected = Classification.single(behavior)
            ok = result.classification == expected
            scenarios += 1
            failures += 0 if ok else 1
            status = "ok" if ok else "FAIL"
            got = result.classification
            print(
                f"{status:<4} egress={behavior.json_name:<8} ingress={ingress_name:<12}"
                f" classification={_describe_classification(got)} verdict={result.verdict.value}"
            )
    print(f"selftest: {scenarios - failures}/{scenarios} scenarios identified correctly")
    return 0 if failures == 0 else 1


def _describe_classification(classification: Classification) -> str:
    if classification.single_class is not None:
        return classification.single_class.json_name
    if classification.classes:
        return "ambiguous:" + "+".join(sorted(c.json_name for c in classification.classes))
    return "mangled"


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse handled --help/--version or a usage error
        return int(exc.code or 0)
    if args.command == "probe":
        return _cmd_probe(args)
    if args.command == "tables":
        return _cmd_tables(args)
    return _cmd_selftest(args)


def run() -> None:
    raise SystemExit(main())
