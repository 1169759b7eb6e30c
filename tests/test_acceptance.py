"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines as they complete.
"""

import itertools
import json
import math

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
    Capability,
    DecapBehaviorClass,
    EncapPolicy,
    PROBE_ROWS,
    builtin_policy,
    decap,
    derive_seed,
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
    RFC6040: (None, CE, CE, ECT1),
    RFC4301: (NOT_ECT, CE, CE, ECT0),
    RFC3168: (None, CE, CE, ECT0),
    RFC2003: (NOT_ECT, ECT1, ECT0, ECT0),
}

GREEN = {RFC6040, RFC4301, RFC3168}

ALL_OUTCOMES = (None, *EcnCodepoint)


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


# ---------------------------------------------------------------------------
# Exact noise oracle for a copy-ingress, 3 servers x 5 repetitions session
# with healthy servers.  Every exchange draws AQM and loss independently, so
# a row's votes are i.i.d. draws from one outcome distribution, which follows
# from the table alone; the chance that the session classifies right is then
# a product over the control test and the rows.

VOTES = 3 * 5
# Every vote-count vector over ALL_OUTCOMES, in that order.
COUNT_VECTORS = [
    counts + (VOTES - sum(counts),)
    for counts in itertools.product(range(VOTES + 1), repeat=len(ALL_OUTCOMES) - 1)
    if sum(counts) <= VOTES
]
# Beyond 4.5 standard deviations, one tail of a normal holds this much.
TAIL = 0.5 * math.erfc(4.5 / math.sqrt(2))


def exchange_outcome_probabilities(table, initial, outer, aqm, loss):
    """Each outcome's chance for one exchange whose outer leaves the tester
    as ``outer``: AQM marks an ECT(0) or ECT(1) outer CE, the path loses
    the packet, or the egress decapsulates what arrives."""
    marked = aqm if outer in (ECT0, ECT1) else 0.0
    probabilities = dict.fromkeys(ALL_OUTCOMES, 0.0)
    probabilities[None] += loss
    for arriving, chance in ((CE, marked), (outer, 1.0 - marked)):
        probabilities[table[(initial, arriving)]] += (1.0 - loss) * chance
    return probabilities


def consensus_probability(probabilities, expected):
    """The chance that VOTES draws have ``expected`` as their consensus: the
    plurality, ties going to the outcome earliest in ALL_OUTCOMES."""
    k = ALL_OUTCOMES.index(expected)
    weights = [probabilities[outcome] for outcome in ALL_OUTCOMES]
    total = 0.0
    for counts in COUNT_VECTORS:
        wins = counts[k]
        if all(n < wins for n in counts[:k]) and all(n <= wins for n in counts[k + 1:]):
            ways = math.factorial(VOTES) // math.prod(math.factorial(n) for n in counts)
            total += ways * math.prod(w**n for w, n in zip(weights, counts))
    return total


def exact_single_probability(behavior, aqm, loss):
    """The chance that a session classifies ``behavior`` correctly: the
    control test finds the path usable (a copying ingress needs no fallback)
    and every row's consensus is the class's reference outcome."""
    table = builtin_policy(behavior)
    unreflected = math.prod(
        (1.0 - exchange_outcome_probabilities(table, cp, cp, aqm, loss)[cp]) ** VOTES for cp in EcnCodepoint
    )
    probability = 1.0 - unreflected
    for (initial, outer), expected in zip(PROBE_ROWS, KNOWN_SIGNATURES[behavior]):
        probability *= consensus_probability(exchange_outcome_probabilities(table, initial, outer, aqm, loss), expected)
    return probability


def assert_binomially_consistent(recovered, trials, probability, context):
    """Fail when ``recovered`` of ``trials`` lies further into either tail of
    Binomial(trials, probability) than 4.5 standard deviations of a normal.
    The exact tails keep that bound fair where probability is near 1, and
    the normal band would be narrower than one trial."""
    pmf = [math.comb(trials, k) * probability**k * (1.0 - probability) ** (trials - k) for k in range(trials + 1)]
    below, above = sum(pmf[: recovered + 1]), sum(pmf[recovered:])
    assert below > TAIL and above > TAIL, (context, recovered, trials * probability, below, above)


def test_exact_noise_oracle_is_a_distribution():
    assert len(COUNT_VECTORS) == math.comb(VOTES + len(ALL_OUTCOMES) - 1, len(ALL_OUTCOMES) - 1) == 3876
    table = builtin_policy(RFC6040)
    for initial, outer in PROBE_ROWS:
        probabilities = exchange_outcome_probabilities(table, initial, outer, 0.3, 0.3)
        assert math.isclose(sum(probabilities.values()), 1.0)
        # Some outcome is always the consensus.
        consensus = sum(consensus_probability(probabilities, outcome) for outcome in ALL_OUTCOMES)
        assert math.isclose(consensus, 1.0)


def noisy_recoveries(behavior, aqm, loss, label, trials):
    """How many of ``trials`` noisy copy-ingress sessions classify
    ``behavior`` right, and the results of those that do not."""
    recovered = 0
    misses = []
    expected = Classification.single(behavior)
    for seed_index in range(trials):
        scenario = make_scenario(
            behavior,
            aqm_ce_probability=aqm,
            loss_probability=loss,
            seed=derive_seed(seed_index, label, behavior.json_name),
            servers=3,
        )
        result = run_probe_session(scenario, repetitions=5)
        if result.classification == expected:
            recovered += 1
        else:
            misses.append(result)
    return recovered, misses


def test_criterion_4_noise_robustness():
    trials = 1000
    for behavior in CONFORMANT_CLASSES:
        recovered, misses = noisy_recoveries(behavior, 0.1, 0.05, "noise-robustness", trials)
        assert recovered >= 0.99 * trials, (behavior, recovered)
        assert_binomially_consistent(recovered, trials, exact_single_probability(behavior, 0.1, 0.05), behavior)
        for miss in misses:
            # a miss must be visibly ambiguous, never a confident wrong class
            assert miss.any_ambiguous, (behavior, miss.classification)
            other = miss.classification.single_class
            assert other is None or other is behavior, (behavior, other)
    report_line(4, f"noisy-path sweep recovers the clean classification in >=99% of {trials} seeds per class")


def test_heavy_noise_recovery_matches_the_exact_oracle():
    # At AQM 0.3 and loss 0.3 a row's right outcome often lacks a majority,
    # so about a third of sessions classify wrongly; the count of right ones
    # must still be what the exact oracle predicts.
    trials = 1000
    exact = {behavior: exact_single_probability(behavior, 0.3, 0.3) for behavior in CONFORMANT_CLASSES}
    assert [round(exact[b], 4) for b in CONFORMANT_CLASSES] == [0.6614, 0.6283, 0.6614, 0.8145]
    for behavior in CONFORMANT_CLASSES:
        recovered, _ = noisy_recoveries(behavior, 0.3, 0.3, "heavy-noise", trials)
        assert_binomially_consistent(recovered, trials, exact[behavior], behavior)


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
