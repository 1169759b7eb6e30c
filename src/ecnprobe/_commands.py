"""The ``tables`` and ``selftest`` commands.

``cli.main`` imports this module only to run one of them, so a ``probe``
process never loads it.
"""

import sys
from typing import FrozenSet

from .engine import ClassificationKind, run_probe_session
from .report import SIGNATURE_TEXT
from .simnet import ScenarioConfig, build_scenario
from .tunnels import (
    CONFORMANT_CLASSES,
    Capability,
    DecapBehaviorClass,
    EncapPolicy,
    OUTCOME_LABEL,
    _COLS,
    builtin_policy,
    derive_seed,
)


def tables(_args) -> int:
    out = sys.stdout
    out.write("Reference signatures (probed initial/outer-set rows)\n\n")
    for behavior in CONFORMANT_CLASSES:
        out.write(f"{behavior.display}:\n{SIGNATURE_TEXT[Capability.FULL][behavior]}\n\n")

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


def selftest(args) -> int:
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
            ok = result.classification == {behavior}
            scenarios += 1
            failures += 0 if ok else 1
            status = "ok" if ok else "FAIL"
            print(
                f"{status:<4} egress={behavior.json_name:<8} ingress={ingress_name:<12}"
                f" classification={_describe_classification(result.classification)}"
                f" verdict={result.verdict.value}"
            )
    print(f"selftest: {scenarios - failures}/{scenarios} scenarios identified correctly")
    return 0 if failures == 0 else 1


def _describe_classification(classes: FrozenSet[DecapBehaviorClass]) -> str:
    # selftest probes at full capability, where no two reference signatures
    # are equal, so a classification is one class or none (mangled).
    kind = ClassificationKind.of(classes)
    return next(iter(classes)).json_name if kind is ClassificationKind.SINGLE else kind.value
