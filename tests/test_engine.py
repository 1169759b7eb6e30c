import itertools

import pytest

from ecnprobe.ecn import EcnCodepoint
from ecnprobe.engine import (
    Classification,
    ClassificationKind,
    ControlFailure,
    ProbeObservation,
    PropagationVerdict,
    aggregate,
    classify,
    interpret,
    run_control_test,
    run_main_test,
    run_probe_session,
)
from ecnprobe.simnet import Scenario, TunnelPath, serialize_trace
from ecnprobe.tunnels import (
    CONFORMANT_CLASSES,
    DROPPED,
    Capability,
    DecapBehaviorClass,
    EncapPolicy,
    OUTCOME_ORDER,
    PROBE_ROWS,
    builtin_policy,
    derive_seed,
    forwarded,
    mangled_copy_outer,
    mangled_random,
    mangled_zero_all,
    reference_signature,
    signature_of_policy,
)

NOT_ECT = EcnCodepoint.NOT_ECT
ECT0 = EcnCodepoint.ECT0
ECT1 = EcnCodepoint.ECT1
CE = EcnCodepoint.CE

RFC6040 = DecapBehaviorClass.RFC6040
RFC4301 = DecapBehaviorClass.RFC4301
RFC3168 = DecapBehaviorClass.RFC3168
RFC2003 = DecapBehaviorClass.RFC2003_SIMPLE


def scenario_for(egress=RFC6040, ingress=EncapPolicy.COPY_EXACT, **kw):
    policy = egress if not isinstance(egress, DecapBehaviorClass) else builtin_policy(egress)
    return Scenario(ingress=ingress, egress=policy, **kw)


def observations_from(outcomes, capability=Capability.FULL):
    rows = PROBE_ROWS if capability is Capability.FULL else PROBE_ROWS[:3]
    return [
        ProbeObservation(
            row=i,
            initial=initial,
            outer_set=outer,
            consensus=outcome,
            votes={outcome: 1},
            ambiguous=False,
        )
        for i, ((initial, outer), outcome) in enumerate(zip(rows, outcomes))
    ]


# ---------------------------------------------------------------------------
# aggregate


def test_aggregate_strict_majority():
    assert aggregate({forwarded(CE): 4, DROPPED: 1}) == (forwarded(CE), False)


def test_aggregate_tie_breaks_deterministically():
    # tied votes: the smaller outcome in the documented order wins, flagged
    assert aggregate({forwarded(CE): 2, DROPPED: 2}) == (DROPPED, True)
    assert aggregate({forwarded(ECT0): 3, forwarded(ECT1): 3}) == (forwarded(ECT1), True)
    assert aggregate({forwarded(NOT_ECT): 2, forwarded(ECT1): 2, DROPPED: 1}) == (
        forwarded(NOT_ECT),
        True,
    )


def test_aggregate_unanimous_single_vote():
    assert aggregate({DROPPED: 1}) == (DROPPED, False)


def test_aggregate_plurality_without_majority_is_ambiguous():
    consensus, ambiguous = aggregate({forwarded(CE): 2, DROPPED: 1, forwarded(ECT0): 2})
    assert ambiguous
    assert consensus == forwarded(ECT0)  # tie between CE and ECT(0), ECT(0) sorts lower


def test_aggregate_requires_votes():
    with pytest.raises(ValueError):
        aggregate({})


# ---------------------------------------------------------------------------
# control test


def test_control_copying_ingress_clean_path():
    report = run_control_test(scenario_for(RFC6040), repetitions=3)
    assert report.ingress_copies
    assert not report.overwrite_fallback_enabled
    for cp in EcnCodepoint:
        assert report.results[cp].feedback_matches
        assert report.results[cp].outer_matches_initial
    assert report.failed_codepoints == ()


def test_control_zero_outer_ingress_enables_fallback():
    report = run_control_test(scenario_for(RFC6040, EncapPolicy.ZERO_OUTER), repetitions=3)
    assert not report.ingress_copies
    assert report.overwrite_fallback_enabled
    # Not-ECT is the one codepoint a zeroing ingress copies faithfully
    assert report.results[NOT_ECT].outer_matches_initial
    for cp in (ECT0, ECT1, CE):
        assert not report.results[cp].outer_matches_initial
    # with the fallback overwrite in place, feedback reflects every codepoint
    for cp in EcnCodepoint:
        assert report.results[cp].feedback_matches


def test_control_rfc3168full_ingress_only_ce_differs():
    report = run_control_test(scenario_for(RFC6040, EncapPolicy.RFC3168_FULL), repetitions=3)
    assert not report.ingress_copies
    for cp in (NOT_ECT, ECT0, ECT1):
        assert report.results[cp].outer_matches_initial
    assert not report.results[CE].outer_matches_initial


def test_control_total_loss_is_a_failure():
    with pytest.raises(ControlFailure) as exc_info:
        run_control_test(scenario_for(RFC6040, loss_probability=1.0), repetitions=2)
    report = exc_info.value.report
    assert len(report.failed_codepoints) == 4


def test_control_partial_mismatch_is_reported_not_fatal():
    # an egress that bleaches everything still reflects Not-ECT correctly,
    # so the session proceeds with the other codepoints flagged
    report = run_control_test(scenario_for(mangled_zero_all()), repetitions=3)
    assert report.results[NOT_ECT].feedback_matches
    assert set(report.failed_codepoints) == {ECT1, ECT0, CE}


def test_control_mismatch_counts_only_when_persistent():
    # heavy but not total loss: a single reflected exchange per codepoint
    # is enough for the channel to count as usable
    scenario = scenario_for(RFC6040, loss_probability=0.5, seed=5, servers=3)
    report = run_control_test(scenario, repetitions=5)
    assert report.failed_codepoints == ()


def test_control_requires_repetitions():
    with pytest.raises(ValueError):
        run_control_test(scenario_for(), repetitions=0)


# ---------------------------------------------------------------------------
# main test


@pytest.mark.parametrize("behavior", CONFORMANT_CLASSES)
@pytest.mark.parametrize("ingress", [EncapPolicy.COPY_EXACT, EncapPolicy.ZERO_OUTER])
def test_main_test_reproduces_reference_signature(behavior, ingress):
    scenario = scenario_for(behavior, ingress)
    path = TunnelPath(scenario)
    run_control_test(scenario, repetitions=2, path=path)
    observations = run_main_test(scenario, Capability.FULL, 2, path=path)
    observed = tuple(obs.consensus for obs in observations)
    assert observed == reference_signature(behavior, Capability.FULL)
    assert not any(obs.ambiguous for obs in observations)
    assert [obs.row for obs in observations] == [0, 1, 2, 3]
    assert [(obs.initial, obs.outer_set) for obs in observations] == list(PROBE_ROWS)


def test_main_test_ce_only_runs_three_rows():
    scenario = scenario_for(RFC6040)
    observations = run_main_test(scenario, Capability.CE_ONLY, 2)
    assert len(observations) == 3
    assert tuple(obs.consensus for obs in observations) == reference_signature(
        RFC6040, Capability.CE_ONLY
    )


def test_main_test_vote_counts():
    scenario = scenario_for(RFC6040, servers=3)
    observations = run_main_test(scenario, Capability.FULL, repetitions=5)
    for obs in observations:
        assert sum(obs.votes.values()) == 15


def test_fallback_equivalence():
    # the row overwrite makes the outer identical whatever the ingress does
    vectors = []
    for ingress in (EncapPolicy.COPY_EXACT, EncapPolicy.ZERO_OUTER):
        scenario = scenario_for(RFC4301, ingress, seed=11)
        result = run_probe_session(scenario, repetitions=3)
        vectors.append(tuple(obs.consensus for obs in result.observations))
    assert vectors[0] == vectors[1]


def test_main_test_requires_repetitions():
    with pytest.raises(ValueError):
        run_main_test(scenario_for(), repetitions=0)


# ---------------------------------------------------------------------------
# classify / interpret


def test_classify_examples():
    assert classify(
        observations_from([DROPPED, forwarded(CE), forwarded(CE), forwarded(ECT1)])
    ) == Classification.single(RFC6040)
    assert classify(
        observations_from([forwarded(NOT_ECT), forwarded(ECT1), forwarded(ECT0), forwarded(ECT0)])
    ) == Classification.single(RFC2003)
    assert classify(
        observations_from([forwarded(NOT_ECT)] * 4)
    ) == Classification.mangled()
    assert classify(
        observations_from([DROPPED, forwarded(CE), forwarded(CE)], Capability.CE_ONLY),
        Capability.CE_ONLY,
    ) == Classification.ambiguous({RFC6040, RFC3168})


@pytest.mark.parametrize("capability", list(Capability))
def test_classify_matches_policy_signatures_on_every_vector(capability):
    # Exact oracle: every consensus vector, against each builtin policy's own
    # table rather than the tabulated reference signatures.
    signatures = {
        behavior: signature_of_policy(builtin_policy(behavior), capability)
        for behavior in CONFORMANT_CLASSES
    }
    rows = 4 if capability is Capability.FULL else 3
    vectors = list(itertools.product(OUTCOME_ORDER, repeat=rows))
    assert len(vectors) == 5 ** rows
    identified = 0
    for vector in vectors:
        matches = frozenset(b for b, signature in signatures.items() if signature == vector)
        got = classify(observations_from(vector, capability), capability)
        if not matches:
            assert got == Classification.mangled()
        elif len(matches) == 1:
            assert got == Classification.single(*matches)
        else:
            assert got == Classification.ambiguous(matches)
        identified += bool(matches)
    # Every distinct signature is hit exactly once.
    assert identified == len(set(signatures.values()))


def test_classify_rejects_wrong_length():
    with pytest.raises(ValueError):
        classify(observations_from([DROPPED] * 3))
    with pytest.raises(ValueError):
        classify(observations_from([DROPPED] * 4), Capability.CE_ONLY)


def test_classification_shape_constraints():
    with pytest.raises(ValueError):
        Classification(ClassificationKind.SINGLE, frozenset())
    with pytest.raises(ValueError):
        Classification(ClassificationKind.AMBIGUOUS, frozenset({RFC6040}))
    with pytest.raises(ValueError):
        Classification(ClassificationKind.MANGLED, frozenset({RFC6040}))


def test_classification_replace_revalidates():
    single = Classification.single(RFC6040)
    assert single._replace(classes=frozenset({RFC3168})) == Classification.single(RFC3168)
    with pytest.raises(ValueError):
        single._replace(classes=frozenset())
    with pytest.raises(ValueError):
        single._replace(kind=ClassificationKind.AMBIGUOUS)
    with pytest.raises(ValueError):
        Classification.mangled()._replace(classes=frozenset({RFC6040}))


def test_interpret_verdicts():
    assert interpret(Classification.single(RFC3168)) is PropagationVerdict.PROPAGATES_CORRECTLY
    assert interpret(Classification.single(RFC6040)) is PropagationVerdict.PROPAGATES_CORRECTLY
    assert interpret(Classification.single(RFC4301)) is PropagationVerdict.PROPAGATES_CORRECTLY
    assert interpret(Classification.single(RFC2003)) is PropagationVerdict.DOES_NOT_PROPAGATE
    assert interpret(Classification.mangled()) is PropagationVerdict.DOES_NOT_PROPAGATE
    assert (
        interpret(Classification.ambiguous({RFC6040, RFC3168}))
        is PropagationVerdict.PROPAGATES_CORRECTLY
    )
    # a hypothetical ambiguity reaching outside the green set stays unknown
    assert (
        interpret(Classification.ambiguous({RFC6040, RFC2003}))
        is PropagationVerdict.UNKNOWN
    )


# ---------------------------------------------------------------------------
# whole sessions


@pytest.mark.parametrize("behavior", CONFORMANT_CLASSES)
@pytest.mark.parametrize("ingress", [EncapPolicy.COPY_EXACT, EncapPolicy.ZERO_OUTER])
@pytest.mark.parametrize("repetitions", [1, 5])
def test_session_soundness_clean_path(behavior, ingress, repetitions):
    scenario = scenario_for(behavior, ingress)
    result = run_probe_session(scenario, repetitions=repetitions)
    assert result.classification == Classification.single(behavior)
    expected_verdict = (
        PropagationVerdict.DOES_NOT_PROPAGATE
        if behavior is RFC2003
        else PropagationVerdict.PROPAGATES_CORRECTLY
    )
    assert result.verdict is expected_verdict
    assert not result.any_ambiguous


def test_session_ce_only_collapses_to_ambiguous_green():
    for behavior in (RFC6040, RFC3168):
        result = run_probe_session(scenario_for(behavior), Capability.CE_ONLY)
        assert result.classification == Classification.ambiguous({RFC6040, RFC3168})
        assert result.verdict is PropagationVerdict.PROPAGATES_CORRECTLY
    for behavior in (RFC4301, RFC2003):
        result = run_probe_session(scenario_for(behavior), Capability.CE_ONLY)
        assert result.classification == Classification.single(behavior)


def test_session_identifies_mangled_copy_outer():
    result = run_probe_session(scenario_for(mangled_copy_outer()))
    assert result.classification == Classification.mangled()
    assert result.verdict is PropagationVerdict.DOES_NOT_PROPAGATE


def test_session_under_light_noise_recovers():
    scenario = scenario_for(
        RFC6040, aqm_ce_probability=0.1, loss_probability=0.05, seed=77, servers=3
    )
    result = run_probe_session(scenario, repetitions=5)
    assert result.classification == Classification.single(RFC6040)


def test_session_exchange_log_is_complete():
    scenario = scenario_for(RFC6040, servers=2)
    result = run_probe_session(scenario, repetitions=3)
    # control: 4 codepoints x 3 reps x 2 servers; main: 4 rows x 3 reps x 2 servers
    assert len(result.exchanges) == 24 + 24


def test_buggy_server_outvoted_by_healthy_ones():
    # one of three servers mis-reports CE as ECT(0); majority still correct
    scenario = scenario_for(
        RFC6040, servers=3, server_bug_mask={2: {CE: ECT0, ECT1: ECT0}}
    )
    result = run_probe_session(scenario, repetitions=3)
    assert result.classification == Classification.single(RFC6040)


# ---------------------------------------------------------------------------
# The QUIC feedback channel gives the TCP session, exchange for exchange


CHANNEL_EGRESSES = [builtin_policy(b) for b in CONFORMANT_CLASSES] + [
    mangled_copy_outer(),
    mangled_random(derive_seed(0, "golden-table")),
]
# (aqm_ce_probability, loss_probability): clean, criterion-4 and heavy noise
CHANNEL_NOISES = ((0.0, 0.0), (0.1, 0.05), (0.3, 0.3))


def sessions_by_channel(capability=Capability.FULL, **scenario_fields):
    """The session (or the control report of its ControlFailure) and its
    trace text on each feedback channel."""
    by_channel = {}
    for channel in ("tcp", "quic"):
        try:
            result = run_probe_session(Scenario(feedback_channel=channel, **scenario_fields), capability)
        except ControlFailure as exc:
            by_channel[channel] = (exc.report, None)
        else:
            by_channel[channel] = (result, serialize_trace(result.exchanges).encode())
    return by_channel


@pytest.mark.parametrize("egress", CHANNEL_EGRESSES, ids=lambda policy: policy.name)
def test_quic_session_equals_tcp_session(egress):
    for ingress, capability, (aqm, loss) in itertools.product(EncapPolicy, Capability, CHANNEL_NOISES):
        by_channel = sessions_by_channel(
            capability,
            ingress=ingress,
            egress=egress,
            aqm_ce_probability=aqm,
            loss_probability=loss,
            seed=derive_seed(0, "channels", egress.name, ingress.value, capability.value, aqm),
            servers=3,
        )
        assert by_channel["quic"] == by_channel["tcp"], (ingress, capability, aqm, loss)


def test_quic_session_equals_tcp_session_with_buggy_servers():
    by_channel = sessions_by_channel(
        ingress=EncapPolicy.COPY_EXACT,
        egress=builtin_policy(RFC6040),
        aqm_ce_probability=0.1,
        loss_probability=0.05,
        seed=11,
        servers=3,
        server_bug_mask={1: {CE: ECT0, ECT1: ECT0}, 2: {NOT_ECT: CE}},
    )
    result, trace = by_channel["tcp"]
    assert trace is not None and any(r.server_id == 1 and r.feedback is ECT0 for r in result.exchanges)
    assert by_channel["quic"] == by_channel["tcp"]
