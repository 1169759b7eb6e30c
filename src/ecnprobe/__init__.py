"""Active-probe classifier for the ECN decapsulation behaviour of tunnel egresses.

The names in ``__all__`` and the submodules load on first use (PEP 562), so
``import ecnprobe`` loads no other module of the package.
"""

from ._version import __version__

# The public names, by the submodule that defines them.
_EXPORTS = {
    "ecn": (
        "EcnCodepoint",
        "dscp_of",
        "ecn_of",
        "overwrite_ecn",
    ),
    "engine": (
        "Classification",
        "ClassificationKind",
        "ControlFailure",
        "ControlReport",
        "ProbeObservation",
        "ProbeSessionResult",
        "PropagationVerdict",
        "aggregate",
        "classify",
        "interpret",
        "run_control_test",
        "run_main_test",
        "run_probe_session",
    ),
    "report": (
        "ProbeReport",
        "build_report",
        "parse_report",
        "render_report",
    ),
    "feedback": (
        "InvalidFeedback",
        "TcpEcnFlags",
        "decode_handshake",
        "encode_handshake",
        "wireshark_string",
    ),
    "simnet": (
        "ConfigError",
        "ExchangeResult",
        "Scenario",
        "ScenarioConfig",
        "TunnelPath",
        "build_scenario",
        "serialize_trace",
    ),
    "tunnels": (
        "Capability",
        "DecapBehaviorClass",
        "EncapPolicy",
        "GREEN_CLASSES",
        "PROBE_ROWS",
        "builtin_policy",
        "decap",
        "encap",
        "mangled_copy_outer",
        "mangled_policy",
        "mangled_random",
        "mangled_zero_all",
        "probe_rows",
        "reference_signature",
    ),
    "cli": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    loaded = importlib.import_module(f"{__name__}.{module}")
    return loaded if module == name else getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
