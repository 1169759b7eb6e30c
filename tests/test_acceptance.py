"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines as they complete.
"""

import itertools
import json

import pytest

from ecnprobe.cli import main
from ecnprobe.ecn import EcnCodepoint, dscp_of, ecn_of, overwrite_ecn
from ecnprobe.engine import (
    Classification,
    ProbeObservation,
    PropagationVerdict,
    classify,
    run_probe_session,
)
from ecnprobe.feedback import (
    InvalidFeedback,
    TcpEcnFlags,
    decode_handshake,
    encode_handshake,
    wireshark_string,
)
from ecnprobe.simnet import Scenario
from ecnprobe.tunnels import (
    CONFORMANT_CLASSES,
    DROPPED,
    Capability,
    DecapBehaviorClass,
    EncapPolicy,
    PROBE_ROWS,
    builtin_policy,
    decap,
    derive_seed,
    forwarded,
)

NOT_ECT = EcnCodepoint.NOT_ECT
ECT0 = EcnCodepoint.ECT0
ECT1 = EcnCodepoint.ECT1
CE = EcnCodepoint.CE

RFC6040 = DecapBehaviorClass.RFC6040
RFC4301 = DecapBehaviorClass.RFC4301
RFC3168 = DecapBehaviorClass.RFC3168
RFC2003 = DecapBehaviorClass.RFC2003_SIMPLE

# Independent oracle: expected probe-row outcomes per behaviour, frozen by
# hand from the standards' decapsulation rules.
# Row order: (Not-ECT, CE), (ECT(1), CE), (ECT(0), CE), (ECT(0), ECT(1)).
KNOWN_SIGNATURES = {
    RFC6040: (DROPPED, forwarded(CE), forwarded(CE), forwarded(ECT1)),
    RFC4301: (forwarded(NOT_ECT), forwarded(CE), forwarded(CE), forwarded(ECT0)),
    RFC3168: (DROPPED, forwarded(CE), forwarded(CE), forwarded(ECT0)),
    RFC2003: (forwarded(NOT_ECT), forwarded(ECT1), forwarded(ECT0), forwarded(ECT0)),
}

GREEN = {RFC6040, RFC4301, RFC3168}

ALL_OUTCOMES = (DROPPED,) + tuple(forwarded(cp) for cp in EcnCodepoint)


def report_line(number, description, ok=True):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def make_scenario(behavior, ingress=EncapPolicy.COPY_EXACT, **kw):
    return Scenario(ingress=ingress, egress=builtin_policy(behavior), **kw)


def observations_for(vector):
    return [ProbeObservation(i, {outcome: 1}) for i, outcome in enumerate(vector)]


def test_criterion_1_decap_row_equivalence():
    checked = 0
    for behavior, signature in KNOWN_SIGNATURES.items():
        policy = builtin_policy(behavior)
        for (inner, outer), expected in zip(PROBE_ROWS, signature):
            assert decap(policy, inner, outer) == expected, (behavior, inner, outer)
            checked += 1
    report_line(1, f"decap matches every expected probe-row outcome ({checked} checks)")


def test_criterion_2_soundness_sweep():
    scenarios = 0
    for behavior in CONFORMANT_CLASSES:
        for ingress in (EncapPolicy.COPY_EXACT, EncapPolicy.ZERO_OUTER):
            result = run_probe_session(make_scenario(behavior, ingress))
            assert result.classification == Classification.single(behavior), (behavior, ingress)
            expected_verdict = (
                PropagationVerdict.PROPAGATES_CORRECTLY
                if behavior in GREEN
                else PropagationVerdict.DOES_NOT_PROPAGATE
            )
            assert result.verdict is expected_verdict, (behavior, ingress)
            if ingress is EncapPolicy.ZERO_OUTER:
                assert result.control.overwrite_fallback_enabled
            scenarios += 1
    report_line(2, f"clean-path sweep identifies every class under both ingress modes ({scenarios} scenarios)")


def test_criterion_3_ce_only_degradation():
    for behavior in CONFORMANT_CLASSES:
        for ingress in (EncapPolicy.COPY_EXACT, EncapPolicy.ZERO_OUTER):
            result = run_probe_session(make_scenario(behavior, ingress), Capability.CE_ONLY)
            if behavior in (RFC6040, RFC3168):
                assert result.classification == Classification.ambiguous({RFC6040, RFC3168})
            else:
                assert result.classification == Classification.single(behavior)
            expected_verdict = (
                PropagationVerdict.PROPAGATES_CORRECTLY
                if behavior in GREEN
                else PropagationVerdict.DOES_NOT_PROPAGATE
            )
            assert result.verdict is expected_verdict
    report_line(3, "CE-only capability degrades exactly to the RFC6040/RFC3168 ambiguity, verdicts unchanged")


def test_criterion_4_noise_robustness():
    trials = 1000
    for behavior in CONFORMANT_CLASSES:
        expected = Classification.single(behavior)
        recovered = 0
        misses = []
        for seed_index in range(trials):
            scenario = make_scenario(
                behavior,
                aqm_ce_probability=0.1,
                loss_probability=0.05,
                seed=derive_seed(seed_index, "noise-robustness", behavior.json_name),
                servers=3,
            )
            result = run_probe_session(scenario, repetitions=5)
            if result.classification == expected:
                recovered += 1
            else:
                misses.append(result)
        assert recovered >= 0.99 * trials, (behavior, recovered)
        for miss in misses:
            # a miss must be visibly ambiguous, never a confident wrong class
            assert miss.any_ambiguous, (behavior, miss.classification)
            other = miss.classification.single_class
            assert other is None or other is behavior, (behavior, other)
    report_line(4, f"noisy-path sweep recovers the clean classification in >=99% of {trials} seeds per class")


def test_criterion_5_mangled_catch_all_oracle():
    # independent oracle: direct comparison of each possible consensus
    # vector against the frozen signature table
    for capability, length in ((Capability.FULL, 4), (Capability.CE_ONLY, 3)):
        references = {
            behavior: signature[:length] for behavior, signature in KNOWN_SIGNATURES.items()
        }
        count = 0
        for vector in itertools.product(ALL_OUTCOMES, repeat=length):
            matches = frozenset(b for b, sig in references.items() if sig == vector)
            got = classify(observations_for(vector), capability)
            expected = Classification(matches)
            expected_kind = ("mangled", "single", "ambiguous")[min(len(matches), 2)]
            assert got == expected and got.kind.value == expected_kind, (capability, vector, got, expected)
            count += 1
        assert count == 5 ** length
    report_line(5, "classifier agrees with the direct-comparison oracle on all 625 + 125 consensus vectors")


def test_criterion_6_feedback_codec():
    table = {
        NOT_ECT: (0b010, ".C."),
        ECT1: (0b011, ".CE"),
        ECT0: (0b100, "A.."),
        CE: (0b110, "AC."),
    }
    for cp, (bits, shark) in table.items():
        flags = encode_handshake(cp)
        assert flags.to_bits() == bits
        assert wireshark_string(flags) == shark
        assert decode_handshake(flags) is cp
    for bits in (0b000, 0b001, 0b101, 0b111):
        with pytest.raises(InvalidFeedback):
            decode_handshake(TcpEcnFlags.from_bits(bits))
    report_line(6, "handshake codec round-trips, rejects the 4 invalid patterns, renders dissector strings")


def test_criterion_7_cli_determinism(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        "egress = rfc6040\nseed = 2024\naqm_ce_probability = 0.1\nloss_probability = 0.05\n"
    )
    artifacts = []
    for run_index in range(2):
        json_path = tmp_path / f"report{run_index}.json"
        trace_path = tmp_path / f"trace{run_index}.txt"
        code = main(
            ["probe", "--config", str(cfg), "--json", str(json_path), "--trace", str(trace_path)]
        )
        assert code == 0
        artifacts.append((json_path.read_bytes(), trace_path.read_bytes()))
    capsys.readouterr()
    assert artifacts[0][0] == artifacts[1][0]
    assert artifacts[0][1] == artifacts[1][1]
    json.loads(artifacts[0][0])  # remains well-formed JSON
    report_line(7, "identical configs produce byte-identical JSON reports and trace files")


def test_criterion_8_overwrite_primitive():
    checks = 0
    for octet in range(256):
        for bits in range(4):
            result = overwrite_ecn(octet, bits)
            assert dscp_of(result) == dscp_of(octet)
            assert ecn_of(result) is EcnCodepoint(bits)
            assert overwrite_ecn(result, bits) == result
            checks += 1
    report_line(8, f"masked overwrite preserves DSCP, sets ECN, and is idempotent ({checks} cases)")
