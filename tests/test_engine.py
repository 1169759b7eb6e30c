import itertools

import pytest

from ecnprobe.cli import EXIT_BY_VERDICT, EXIT_CONTROL_FAILURE
from ecnprobe.ecn import EcnCodepoint
from ecnprobe.engine import (
    Classification,
    ClassificationKind,
    CodepointControl,
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
from ecnprobe.simnet import Scenario, TunnelPath
from ecnprobe.tunnels import (
    CONFORMANT_CLASSES,
    GREEN_CLASSES,
    Capability,
    DecapBehaviorClass,
    EncapPolicy,
    OUTCOME_ORDER,
    PROBE_ROWS,
    builtin_policy,
    encap,
    mangled_copy_outer,
    mangled_policy,
    mangled_zero_all,
    probe_rows,
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


def observations_from(outcomes):
    return [ProbeObservation(i, {outcome: 1}) for i, outcome in enumerate(outcomes)]


# ---------------------------------------------------------------------------
# aggregate


def test_aggregate_strict_majority():
    assert aggregate({CE: 4, None: 1}) == (CE, False)


def test_aggregate_tie_breaks_deterministically():
    # tied votes: the smaller outcome in the documented order wins, flagged
    assert aggregate({CE: 2, None: 2}) == (None, True)
    assert aggregate({ECT0: 3, ECT1: 3}) == (ECT1, True)
    assert aggregate({NOT_ECT: 2, ECT1: 2, None: 1}) == (NOT_ECT, True)


def test_aggregate_unanimous_single_vote():
    assert aggregate({None: 1}) == (None, False)


def test_aggregate_plurality_without_majority_is_ambiguous():
    consensus, ambiguous = aggregate({CE: 2, None: 1, ECT0: 2})
    assert ambiguous
    assert consensus == ECT0  # tie between CE and ECT(0), ECT(0) sorts lower


def test_aggregate_requires_votes():
    with pytest.raises(ValueError):
        aggregate({})


def min_rule_aggregate(votes):
    """The earlier rule, as oracle: the fewest negated votes, then the
    smallest sort key (dropped, then forwarded by 2-bit pattern)."""
    best = min(votes, key=lambda o: (-votes[o], 0 if o is None else 1 + o.value))
    return best, votes[best] * 2 <= sum(votes.values())


def test_aggregate_matches_the_min_rule_on_every_small_vote_dict():
    checked = 0
    for counts in itertools.product(range(4), repeat=len(OUTCOME_ORDER)):
        votes = {outcome: n for outcome, n in zip(OUTCOME_ORDER, counts) if n}
        if not votes:
            continue
        for ordered in (votes, dict(reversed(votes.items()))):
            assert aggregate(ordered) == min_rule_aggregate(ordered), ordered
            checked += 1
    assert checked == 2046


# ---------------------------------------------------------------------------
# control test


def test_control_copying_ingress_clean_path():
    report = run_control_test(TunnelPath(scenario_for(RFC6040)), repetitions=3)
    assert report.ingress_copies
    assert not report.overwrite_fallback_enabled
    for cp in EcnCodepoint:
        assert report.results[cp].feedback_matches
        assert report.results[cp].outer_matches_initial
    assert report.failed_codepoints == ()


def test_control_zero_outer_ingress_enables_fallback():
    report = run_control_test(TunnelPath(scenario_for(RFC6040, EncapPolicy.ZERO_OUTER)), repetitions=3)
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
    report = run_control_test(TunnelPath(scenario_for(RFC6040, EncapPolicy.RFC3168_FULL)), repetitions=3)
    assert not report.ingress_copies
    for cp in (NOT_ECT, ECT0, ECT1):
        assert report.results[cp].outer_matches_initial
    assert not report.results[CE].outer_matches_initial


def test_control_total_loss_is_a_failure():
    with pytest.raises(ControlFailure) as exc_info:
        run_control_test(TunnelPath(scenario_for(RFC6040, loss_probability=1.0)), repetitions=2)
    report = exc_info.value.report
    assert len(report.failed_codepoints) == 4


def test_control_partial_mismatch_is_reported_not_fatal():
    # an egress that bleaches everything still reflects Not-ECT correctly,
    # so the session proceeds with the other codepoints flagged
    report = run_control_test(TunnelPath(scenario_for(mangled_zero_all())), repetitions=3)
    assert report.results[NOT_ECT].feedback_matches
    assert set(report.failed_codepoints) == {ECT1, ECT0, CE}


def test_control_mismatch_counts_only_when_persistent():
    # heavy but not total loss: a single reflected exchange per codepoint
    # is enough for the channel to count as usable
    scenario = scenario_for(RFC6040, loss_probability=0.5, seed=5, servers=3)
    report = run_control_test(TunnelPath(scenario), repetitions=5)
    assert report.failed_codepoints == ()


def test_control_requires_repetitions():
    with pytest.raises(ValueError):
        run_control_test(TunnelPath(scenario_for()), repetitions=0)


# ---------------------------------------------------------------------------
# main test


@pytest.mark.parametrize("behavior", CONFORMANT_CLASSES)
@pytest.mark.parametrize("ingress", [EncapPolicy.COPY_EXACT, EncapPolicy.ZERO_OUTER])
def test_main_test_reproduces_reference_signature(behavior, ingress):
    scenario = scenario_for(behavior, ingress)
    path = TunnelPath(scenario)
    run_control_test(path, repetitions=2)
    observations = run_main_test(path, Capability.FULL, 2)
    observed = tuple(obs.consensus for obs in observations)
    assert observed == reference_signature(behavior, Capability.FULL)
    assert not any(obs.ambiguous for obs in observations)
    assert [obs.row for obs in observations] == [0, 1, 2, 3]
    assert [(obs.initial, obs.outer_set) for obs in observations] == list(PROBE_ROWS)


def test_main_test_ce_only_runs_three_rows():
    scenario = scenario_for(RFC6040)
    observations = run_main_test(TunnelPath(scenario), Capability.CE_ONLY, 2)
    assert len(observations) == 3
    assert [(obs.initial, obs.outer_set) for obs in observations] == list(probe_rows(Capability.CE_ONLY))
    assert tuple(obs.consensus for obs in observations) == reference_signature(
        RFC6040, Capability.CE_ONLY
    )


def test_main_test_vote_counts():
    scenario = scenario_for(RFC6040, servers=3)
    observations = run_main_test(TunnelPath(scenario), Capability.FULL, repetitions=5)
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
        run_main_test(TunnelPath(scenario_for()), repetitions=0)


# ---------------------------------------------------------------------------
# classify / interpret


def test_classify_examples():
    assert classify(
        observations_from([None, CE, CE, ECT1])
    ) == Classification.single(RFC6040)
    assert classify(
        observations_from([NOT_ECT, ECT1, ECT0, ECT0])
    ) == Classification.single(RFC2003)
    assert classify(
        observations_from([NOT_ECT] * 4)
    ) == Classification.mangled()
    assert classify(
        observations_from([None, CE, CE]),
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
        got = classify(observations_from(vector), capability)
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
        classify(observations_from([None] * 3))
    with pytest.raises(ValueError):
        classify(observations_from([None] * 4), Capability.CE_ONLY)


def test_classification_replace_revalidates():
    # The kind is derived from the classes, so a replaced value has the right one.
    single = Classification.single(RFC6040)
    assert single._replace(classes=frozenset({RFC3168})) == Classification.single(RFC3168)
    assert single._replace(classes=frozenset()).kind is ClassificationKind.MANGLED
    assert single._replace(classes=frozenset({RFC6040, RFC3168})).kind is ClassificationKind.AMBIGUOUS
    assert Classification.single(RFC6040).kind is ClassificationKind.SINGLE


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
# Exhaustive clean-path oracle.  On a clean 1x1 path the control outcome
# depends on the diagonal cells only through whether each reflects its
# codepoint, first-pass feedback under a non-copying ingress is superseded
# by the fallback pass, and the main test reads only the probe cells.  So
# these two enumerations cover every egress table, provided no session
# sends any other cell, which each trace confirms.

# The diagonal (the control test and its fallback), the zero ingress's
# Not-ECT outers, the rfc3168full ingress's CE -> ECT(0) outer and the probe
# rows.  The other 4 cells are never sent, so no clean probe can see them.
SENT_CELLS = frozenset(
    {(cp, cp) for cp in EcnCodepoint}
    | {(cp, NOT_ECT) for cp in (ECT1, ECT0, CE)}
    | {(CE, ECT0)}
    | set(PROBE_ROWS)
)
DIAGONAL = tuple((cp, cp) for cp in EcnCodepoint)
OTHER_CELLS = tuple((i, o) for i in EcnCodepoint for o in EcnCodepoint if (i, o) not in DIAGONAL + PROBE_ROWS)


def oracle_table(index, diagonal, probe_outcomes):
    """A 16-cell table: the diagonal and probe cells as given, the other 8
    cells varying with ``index`` (the session must not depend on them)."""
    table = dict(zip(DIAGONAL, diagonal))
    table.update(zip(PROBE_ROWS, probe_outcomes))
    table.update((cell, OUTCOME_ORDER[(index + k) % 5]) for k, cell in enumerate(OTHER_CELLS))
    return table


def expected_clean_session(table, ingress, capability):
    """Exit code, matched classes (None on a control failure) and control
    results of a clean session, straight from the table."""
    control = {
        cp: CodepointControl(
            feedback_matches=table[(cp, cp)] is cp,
            outer_matches_initial=encap(ingress, cp) is cp,
        )
        for cp in EcnCodepoint
    }
    if not any(result.feedback_matches for result in control.values()):
        return EXIT_CONTROL_FAILURE, None, control
    signature = tuple(table[row] for row in probe_rows(capability))
    matches = frozenset(c for c in CONFORMANT_CLASSES if reference_signature(c, capability) == signature)
    if matches and matches <= GREEN_CLASSES:
        exit_code = 0
    elif len(matches) <= 1:
        exit_code = 1
    else:
        exit_code = 2
    return exit_code, matches, control


def check_clean_session(table, ingress, capability):
    """Run one clean 1x1 session against the oracle; return the cells it sent."""
    scenario = Scenario(ingress=ingress, egress=mangled_policy(table))
    try:
        result = run_probe_session(scenario, capability, repetitions=1)
    except ControlFailure as exc:
        path = TunnelPath(scenario)
        with pytest.raises(ControlFailure):
            run_control_test(path, 1)
        got = (EXIT_CONTROL_FAILURE, None, exc.report.results)
        control, exchanges = exc.report, path.log
    else:
        got = (EXIT_BY_VERDICT[result.verdict], result.classification.classes, result.control.results)
        control, exchanges = result.control, result.exchanges
    expected = expected_clean_session(table, ingress, capability)
    assert got == expected, (ingress, capability, table)
    copies = all(result.outer_matches_initial for result in expected[2].values())
    assert (control.ingress_copies, control.overwrite_fallback_enabled) == (copies, not copies)
    # The initial (which is the inner) and the captured outer are the cell
    # the egress saw.
    return {(r.initial, r.outer) for r in exchanges}


def test_clean_path_oracle_over_every_probe_cell_table():
    reflecting = tuple(EcnCodepoint)
    sent = set()
    for index, probe_outcomes in enumerate(itertools.product(OUTCOME_ORDER, repeat=4)):
        table = oracle_table(index, reflecting, probe_outcomes)
        for ingress, capability in itertools.product(EncapPolicy, Capability):
            sent |= check_clean_session(table, ingress, capability)
    assert sent == SENT_CELLS


def test_clean_path_oracle_over_every_diagonal_pattern():
    sent = set()
    for index, pattern in enumerate(itertools.product((True, False), repeat=4)):
        diagonal = tuple(cp if reflects else None for cp, reflects in zip(EcnCodepoint, pattern))
        table = oracle_table(index, diagonal, reference_signature(RFC6040))
        for ingress in EncapPolicy:
            sent |= check_clean_session(table, ingress, Capability.FULL)
    assert sent == SENT_CELLS
