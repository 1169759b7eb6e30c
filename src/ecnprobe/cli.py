"""Command-line front end.

``ecnprobe probe --config FILE`` runs the control and main tests against
the configured simulated path and reports how the egress decapsulates the
ECN field.  ``ecnprobe tables`` prints the reference signatures and the
full decapsulation matrices.  ``ecnprobe selftest`` sweeps every built-in
egress behaviour against every ingress mode and checks each is identified.
Those two are in ``_commands``, which ``main`` imports only to run one, so
a probe loads neither them nor ``json``, the feedback codec or the report
reader; nor ``argparse``, which reads every command line but the plain
``probe`` one (``_probe_paths``).  A probe reads and writes files with
plain system calls, knowing each by its ``(st_dev, st_ino)``: 13 with an
existing config and two new outputs (the config's stat, open, two reads and
close; each output's open, fstat, write and close), 17 when both exist.

Exit codes for ``probe``: 0 the egress propagates ECN correctly, 1 it does
not, 3 the control test found the path unusable, 64 configuration or usage
error (including a ``--json`` or ``--trace`` path that names the config
file or the other output), 73 the ``--json`` or ``--trace`` file could not
be written, 74 standard output could not be written (any command).  A probe
that does not exit 0 or 1 leaves no file it created, and changes no other
file but an existing regular output it had begun to write, which it removes.
"""

import contextlib
import errno
import io
import os
import sys
from pathlib import Path
from stat import S_ISREG
from typing import List, Optional, Tuple, Union

from ._version import __version__
from .engine import ControlFailure, PropagationVerdict, run_probe_session
from .report import build_report, render_control_failure, render_report
from .simnet import CONFIG_TYPES, ConfigError, ScenarioConfig, build_scenario, serialize_trace
from .tunnels import Capability

EXIT_BY_VERDICT = {
    PropagationVerdict.PROPAGATES_CORRECTLY: 0,
    PropagationVerdict.DOES_NOT_PROPAGATE: 1,
}
EXIT_CONTROL_FAILURE = 3
EXIT_CONFIG = 64
EXIT_CANTCREAT = 73
EXIT_IOERR = 74
_READ_SIZE = 1 << 16  # load_config's os.read size; no io object is built, so no fstat, ioctl or lseek
_CREATE = os.O_WRONLY | os.O_CREAT | os.O_EXCL

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


def load_config(path: Union[str, os.PathLike]) -> ScenarioConfig:
    # Read as bytes: parse_config_text's splitlines() ends a line at \r, \n or \r\n, as newline translation would.
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            text = b"".join(iter(lambda: os.read(fd, _READ_SIZE), b"")).decode()
        finally:
            os.close(fd)
    except OSError as exc:
        raise ConfigError([("config", f"cannot read {path}: {exc.strerror or exc}")]) from None
    except UnicodeDecodeError as exc:
        raise ConfigError([("config", f"{path} is not UTF-8 text (byte {exc.start}: {exc.reason})")]) from None
    # Skip one leading byte-order mark (as Notepad writes); utf-8-sig would shift the byte offset above.
    return parse_config_text(text.removeprefix("\ufeff"))


# Built by the main() call that needs it, not at import.  A plain probe
# command line never needs it (_probe_paths).
def _build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        # Usage mistakes are configuration errors, same exit code as a bad file.
        def error(self, message: str):
            self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")

    parser = _Parser(prog="ecnprobe", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"ecnprobe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    probe = sub.add_parser("probe", help="run the control and main tests against a configured path")
    probe.add_argument("--config", required=True, type=_path_spelling, help="scenario config file (key = value lines)")
    probe.add_argument("--json", type=_path_spelling, metavar="OUT", help="also write the machine-readable report here")
    probe.add_argument("--trace", type=_path_spelling, metavar="OUT", help="also write the per-exchange header trace here")

    sub.add_parser("tables", help="print reference signatures and decapsulation matrices")

    selftest = sub.add_parser("selftest", help="verify every built-in behaviour is identified")
    selftest.add_argument("--seed", type=int, default=0, help="base seed for the sweep scenarios")
    return parser


_PROBE_OPTIONS = ("--config", "--json", "--trace")


def _probe_paths(argv: List[str]) -> Optional[Tuple[Optional[str], ...]]:
    """The config, JSON and trace paths of ``probe --config FILE [--json OUT]
    [--trace OUT]``, each option spelled out once, in any order, with no value
    starting with ``-``; None for any other command line, left to argparse.
    argparse reads this form the same way on every supported Python."""
    values = dict(zip(argv[1::2], argv[2::2]))
    if (
        2 * len(values) + 1 != len(argv)
        or argv[0] != "probe"
        or "--config" not in values
        or not values.keys() <= {*_PROBE_OPTIONS}
        or any(value.startswith("-") for value in values.values())
    ):
        return None
    return tuple(_path_spelling(values[option]) if option in values else None for option in _PROBE_OPTIONS)


def _path_spelling(value: str) -> str:
    """``value`` as ``str(Path(value))`` spells it (``out/`` opens ``out``, ``""`` is ``.``), building a
    ``Path`` only for an empty value or one with a ``.`` component, ``//`` or a trailing ``/``."""
    if value and "//" not in value and not value.endswith("/") and "/./" not in f"/{value}/":
        return value
    return str(Path(value))


def _write_stdout(text: str) -> int:
    """Write and flush ``text``: 0, or EXIT_IOERR, said in one stderr line,
    when standard output fails (a full disk, a closed pipe, no fd 1)."""
    out = sys.stdout
    try:
        if out is None:  # the process started with fd 1 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        out.write(text)
        out.flush()
    except OSError as exc:
        print(f"error: cannot write standard output: {exc.strerror or exc}", file=sys.stderr)
        if out is not None:
            # Closed, so that the interpreter does not flush it again at exit.
            with contextlib.suppress(OSError):
                out.close()
        return EXIT_IOERR
    return 0


def _create_output(path: str):
    """Create an output with O_EXCL, so the run knows it made it: (fd, None for an existing file or the OSError
    that refused it; its stat or None; the name created or None).  A dangling symlink's target is created by the
    link's text from the link's directory, as the kernel resolves it (realpath reads ".." by its spelling)."""
    try:
        try:
            fd = os.open(path, _CREATE, 0o666)
        except FileExistsError:
            try:
                return None, os.stat(path), None
            except FileNotFoundError:
                return _create_output(os.path.join(os.path.dirname(path), os.readlink(path)))
        return fd, os.fstat(fd), path
    except OSError as exc:
        return exc, None, None


def _cmd_probe(config_path: str, json_path: Optional[str], trace_path: Optional[str]) -> int:
    outputs = []  # [path, fd (None once closed) or the OSError that refused it, stat, the name this run created]
    written = False
    try:
        try:
            # No output may name the config or the other output; each is known by its file, before it is opened.
            try:
                stat = os.stat(config_path)
            except OSError as exc:  # as load_config reports it
                raise ConfigError([("config", f"cannot read {config_path}: {exc.strerror or exc}")]) from None
            option_by_file = {(stat.st_dev, stat.st_ino): "--config"}
            for option, path in (("--json", json_path), ("--trace", trace_path)):
                if path is None:
                    continue
                outputs.append([path, *_create_output(path)])
                if stat := outputs[-1][2]:  # None when nothing could be found at the path
                    if (file := (stat.st_dev, stat.st_ino)) in option_by_file:
                        print(f"ecnprobe: error: {option} and {option_by_file[file]} name the same file", file=sys.stderr)
                        return EXIT_CONFIG
                    option_by_file[file] = option
            for output in outputs:  # an existing output is opened once none is refused (a FIFO waits for a reader)
                if output[1] is None:
                    try:
                        output[1] = os.open(output[0], os.O_WRONLY)
                    except OSError as exc:
                        output[1] = exc
            config = load_config(config_path)
            scenario = build_scenario(config)
        except ConfigError as exc:
            for field, reason in exc.errors:
                print(f"config error: {field}: {reason}", file=sys.stderr)
            return EXIT_CONFIG

        try:
            result = run_probe_session(scenario, Capability(config.capability), config.repetitions)
        except ControlFailure as exc:
            sys.stderr.write(render_control_failure(exc.report))
            return EXIT_CONTROL_FAILURE

        probe_report = build_report(result, config)
        # The text report goes out first: when standard output fails, no output is written.
        if _write_stdout(render_report(probe_report, "text").decode()):
            return EXIT_IOERR
        for path, fd, _, _ in outputs:
            if isinstance(fd, OSError):
                print(f"error: cannot write {path}: {fd.strerror or fd}", file=sys.stderr)
                return EXIT_CANTCREAT
        data = [render_report(probe_report, "json")] if json_path is not None else []
        if trace_path is not None:
            data.append(serialize_trace(result.exchanges).encode())
        # When a write fails, each existing regular file this run has written, the failing one included, is
        # removed where its directory allows, so no report or trace is left behind to be taken for a good one.
        # Anything else (a symlink, a device such as /dev/stdout) stays.
        for index, ((path, fd, stat, created), bytes_) in enumerate(zip(outputs, data)):
            try:
                rest = memoryview(bytes_)
                while rest:  # a short write is retried with what is left
                    rest = rest[os.write(fd, rest):]
                if not created and S_ISREG(stat.st_mode):
                    os.ftruncate(fd, len(bytes_))  # the end of an older, longer file
                outputs[index][1] = None
                os.close(fd)
            except OSError as exc:
                print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
                for done, _, _, created in outputs[: index + 1]:
                    with contextlib.suppress(OSError):
                        if not created and S_ISREG(os.lstat(done).st_mode):
                            os.unlink(done)
                return EXIT_CANTCREAT
        written = True
        return EXIT_BY_VERDICT[probe_report.verdict]
    finally:
        # Whatever this run created goes again unless the probe wrote its outputs.
        for _, fd, _, created in outputs:
            if type(fd) is int:
                with contextlib.suppress(OSError):
                    os.close(fd)
            if created and not written:
                with contextlib.suppress(OSError):
                    os.unlink(created)


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    paths = _probe_paths(argv)
    if paths is not None:
        return _cmd_probe(*paths)
    text = io.StringIO()
    try:
        with contextlib.redirect_stdout(text):
            args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse printed a usage error to stderr (exit 64), or --help or --version into text (exit 0)
        return int(exc.code or 0) or _write_stdout(text.getvalue())
    if args.command == "probe":
        return _cmd_probe(args.config, args.json, args.trace)
    # Imported here: a probe never runs the other two commands.
    from . import _commands

    command = _commands.tables if args.command == "tables" else _commands.selftest
    with contextlib.redirect_stdout(text):
        code = command(args)
    return _write_stdout(text.getvalue()) or code


def run() -> None:
    raise SystemExit(main())
