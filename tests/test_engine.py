import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paper_model as model
from ecnprobe import engine
from ecnprobe.cli import EXIT_BY_VERDICT, EXIT_CONTROL_FAILURE
from ecnprobe.ecn import EcnCodepoint
from ecnprobe.engine import (
    _CLASSIFICATIONS,
    ClassificationKind,
    ControlFailure,
    ControlReport,
    ProbeObservation,
    PropagationVerdict,
    aggregate,
    classify,
    interpret,
    run_control_test,
    run_main_test,
    run_probe_session,
)
from ecnprobe.simnet import (
    MAX_PROBES_PER_ROW,
    ConfigError,
    Scenario,
    ScenarioConfig,
    TunnelPath,
    build_scenario,
    serialize_trace,
)
from ecnprobe.tunnels import (
    CONFORMANT_CLASSES,
    Capability,
    DecapBehaviorClass,
    EncapPolicy,
    OUTCOME_NAME,
    OUTCOME_ORDER,
    PROBE_ROWS,
    builtin_policy,
    mangled_policy,
    mangled_random,
    reference_signature,
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
    return [ProbeObservation({outcome: 1}, outcome, False) for outcome in outcomes]


# ---------------------------------------------------------------------------
# aggregate


def test_aggregate_requires_votes():
    with pytest.raises(ValueError):
        aggregate({})


def min_rule_aggregate(votes):
    """The earlier rule, as oracle: the fewest negated votes, then the
    smallest sort key (dropped, then forwarded by 2-bit pattern)."""
    best = min(votes, key=lambda o: (-votes[o], 0 if o is None else 1 + o.value))
    return best, votes[best] * 2 <= sum(votes.values())


def test_aggregate_matches_the_min_rule_on_every_small_vote_dict():
    # Counts 0-4 of each outcome, in both insertion orders: every tie, and a
    # majority, such as 4 votes to 1, as well as a plurality.
    checked = 0
    for counts in itertools.product(range(5), repeat=len(OUTCOME_ORDER)):
        votes = {outcome: n for outcome, n in zip(OUTCOME_ORDER, counts) if n}
        if not votes:
            continue
        for ordered in (votes, dict(reversed(votes.items()))):
            assert aggregate(ordered) == min_rule_aggregate(ordered), ordered
            checked += 1
    assert checked == 6248


def test_a_key_outside_the_outcomes_never_wins():
    # Its votes count toward the total, so CE's two of five are no majority.
    assert aggregate({"ce": 3, CE: 2}) == (CE, True)


# ---------------------------------------------------------------------------
# control test


ALL_CODEPOINTS = frozenset(EcnCodepoint)


def test_control_total_loss_is_a_failure():
    with pytest.raises(ControlFailure) as exc_info:
        run_control_test(TunnelPath(scenario_for(RFC6040, loss_probability=1.0), repetitions=2))
    assert exc_info.value.report == ControlReport(reflected=frozenset(), copied=ALL_CODEPOINTS)


def test_control_mismatch_counts_only_when_persistent():
    # heavy but not total loss: a single reflected exchange per codepoint
    # is enough for the channel to count as usable
    scenario = scenario_for(RFC6040, loss_probability=0.5, seed=5, servers=3)
    report = run_control_test(TunnelPath(scenario, repetitions=5))
    assert report.reflected == ALL_CODEPOINTS


# ---------------------------------------------------------------------------
# main test


def test_main_test_vote_counts():
    scenario = scenario_for(RFC6040, servers=3)
    observations = run_main_test(TunnelPath(scenario, Capability.FULL, repetitions=5))
    for obs in observations:
        assert sum(obs.votes.values()) == 15


# Session arguments of the wrong type: the error the path raises for each,
# and how its message starts.  The capability is checked by probe_rows.
WRONG_SESSION_ARGUMENTS = {
    "capability a name": ("full", 5, ValueError, "capability must be"),
    "capability None": (None, 5, ValueError, "capability must be"),
    "capability an int": (1, 5, ValueError, "capability must be"),
    "repetitions a bool": (Capability.FULL, True, ConfigError, "repetitions: must be int"),
    "repetitions a float": (Capability.FULL, 2.5, ConfigError, "repetitions: must be int"),
    "repetitions a string": (Capability.FULL, "3", ConfigError, "repetitions: must be int"),
}


@pytest.fixture
def sent(monkeypatch):
    """The exchanges every session's path sends from now on."""
    sent = []

    class CountingPath(TunnelPath):
        def exchange(self, *args, **kwargs):
            sent.append(args)
            return super().exchange(*args, **kwargs)

    monkeypatch.setattr(engine, "TunnelPath", CountingPath)
    return sent


@pytest.mark.parametrize(
    "capability, repetitions, error, message", WRONG_SESSION_ARGUMENTS.values(), ids=WRONG_SESSION_ARGUMENTS.keys()
)
def test_session_arguments_of_the_wrong_type_are_refused(sent, capability, repetitions, error, message):
    # Refused before the first exchange.  With a zero ingress, the control
    # test and its fallback pass would send 120 exchanges first.
    scenario = build_scenario(ScenarioConfig(egress="rfc6040", ingress="zero"))
    with pytest.raises(ValueError, match=f"^{message}") as exc_info:
        run_probe_session(scenario, capability, repetitions)
    assert type(exc_info.value) is error
    assert sent == []
    # The patched class does count: a good session sends those 120 and 60
    # main-test exchanges.
    run_probe_session(scenario)
    assert len(sent) == 180


@pytest.mark.parametrize("scenario", [ScenarioConfig(egress="rfc6040"), None], ids=["a config", "None"])
def test_a_session_of_no_scenario_is_refused(sent, scenario):
    # A config's ingress is a name, which the path would fail on with KeyError.
    with pytest.raises(ValueError) as exc_info:
        run_probe_session(scenario)
    assert type(exc_info.value) is ValueError
    assert str(exc_info.value) == f"scenario must be a Scenario, got {type(scenario).__name__}"
    assert sent == []


# Sessions over any table, ingress, capability and noise, up to 4 servers x
# 6 repetitions, with an optional bug mask on server 0.
routed_sessions = st.tuples(
    st.builds(
        Scenario,
        ingress=st.sampled_from(EncapPolicy),
        egress=st.one_of(
            st.sampled_from([builtin_policy(b) for b in CONFORMANT_CLASSES]), st.integers(0, 2**32).map(mangled_random)
        ),
        aqm_ce_probability=st.floats(0.0, 0.5),
        loss_probability=st.one_of(st.floats(0.0, 0.5), st.just(1.0)),
        seed=st.integers(0, 2**32),
        servers=st.integers(1, 4),
        server_bug_mask=st.sampled_from([None, {0: {CE: ECT0}}]),
    ),
    st.sampled_from(Capability),
    st.integers(1, 6),
)


def session_facts(scenario, capability, repetitions):
    """A session's control report, observations, classification, exchanges and
    trace, or the control report of a ControlFailure."""
    try:
        result = run_probe_session(scenario, capability, repetitions)
    except ControlFailure as exc:
        return exc.report
    return (*result, serialize_trace(result.exchanges))


@settings(max_examples=150, deadline=None, database=None)
@given(routed_sessions)
def test_a_path_that_wraps_exchange_runs_the_same_session(session):
    # The traced benchmark's route: send makes one exchange call per packet.
    calls = []

    class WrappingPath(TunnelPath):
        def exchange(self, *args, **kwargs):
            calls.append(args)
            return super().exchange(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "TunnelPath", WrappingPath)
        wrapped = session_facts(*session)
    assert session_facts(*session) == wrapped
    if not isinstance(wrapped, ControlReport):
        assert len(calls) == len(wrapped[3]) > 0


@pytest.mark.parametrize("ingress, calls", [("copy", {"_packets": 2, "_plan": 8}), ("zero", {"_packets": 3, "_plan": 12})])
def test_a_session_sends_each_phase_in_one_call(fresh_stores, monkeypatch, ingress, calls):
    # One packet loop per control pass and one for the main test's rows.  On an empty plan store the first
    # session fetches one plan per probe; a repeat of its shape finds each phase's plans in one lookup.
    made = []
    for name in calls:

        def counted(self, *args, name=name, method=getattr(TunnelPath, name)):
            made.append(name)
            return method(self, *args)

        monkeypatch.setattr(TunnelPath, name, counted)
    config = ScenarioConfig(ingress=ingress, egress="rfc6040", aqm_ce_probability=0.1, loss_probability=0.05)
    for seed, want in enumerate([calls, dict(calls, _plan=0)]):
        made.clear()
        run_probe_session(build_scenario(config._replace(seed=seed)))
        assert {name: made.count(name) for name in calls} == want


def test_session_over_the_probes_per_row_limit_is_refused(sent):
    # The limit build_scenario applies holds for a Scenario built directly.
    scenario = Scenario(EncapPolicy.COPY_EXACT, builtin_policy(RFC6040), servers=MAX_PROBES_PER_ROW + 1)
    with pytest.raises(ConfigError) as exc_info:
        run_probe_session(scenario, Capability.FULL, 1)
    assert exc_info.value.errors == [("servers x repetitions", "10001 exceeds the limit of 10000")]
    with pytest.raises(ConfigError, match=r"^servers x repetitions: 50005 exceeds the limit of 10000$"):
        TunnelPath(scenario)
    assert sent == []


# ---------------------------------------------------------------------------
# classify / interpret


def test_classify_rejects_wrong_length():
    with pytest.raises(ValueError):
        classify(observations_from([None] * 3))
    with pytest.raises(ValueError):
        classify(observations_from([None] * 4), Capability.CE_ONLY)


def test_classification_kind_counts_classes():
    assert ClassificationKind.of(frozenset()) is ClassificationKind.MANGLED
    for behavior in CONFORMANT_CLASSES:
        assert ClassificationKind.of(frozenset({behavior})) is ClassificationKind.SINGLE
    assert ClassificationKind.of(frozenset({RFC6040, RFC3168})) is ClassificationKind.AMBIGUOUS
    assert ClassificationKind.of(frozenset(CONFORMANT_CLASSES)) is ClassificationKind.AMBIGUOUS


def test_interpret_verdicts():
    assert interpret(frozenset({RFC3168})) is PropagationVerdict.PROPAGATES_CORRECTLY
    assert interpret(frozenset({RFC6040})) is PropagationVerdict.PROPAGATES_CORRECTLY
    assert interpret(frozenset({RFC4301})) is PropagationVerdict.PROPAGATES_CORRECTLY
    assert interpret(frozenset({RFC2003})) is PropagationVerdict.DOES_NOT_PROPAGATE
    assert interpret(frozenset()) is PropagationVerdict.DOES_NOT_PROPAGATE
    assert interpret(frozenset({RFC6040, RFC3168})) is PropagationVerdict.PROPAGATES_CORRECTLY
    # an ambiguity reaching outside the green set does not pass
    assert interpret(frozenset({RFC6040, RFC2003})) is PropagationVerdict.DOES_NOT_PROPAGATE


def test_every_classification_classify_returns_exits_0_or_1():
    # The one signature collision, CE-only RFC 6040 and RFC 3168, is between
    # two green classes, so it exits 0.
    returned = {frozenset()} | {c for table in _CLASSIFICATIONS.values() for c in table.values()}
    assert frozenset({RFC6040, RFC3168}) in returned
    for classes in returned:
        assert EXIT_BY_VERDICT[interpret(classes)] in (0, 1), classes
    assert EXIT_BY_VERDICT[interpret(frozenset({RFC6040, RFC3168}))] == 0


# ---------------------------------------------------------------------------
# whole sessions


def test_session_under_light_noise_recovers():
    scenario = scenario_for(
        RFC6040, aqm_ce_probability=0.1, loss_probability=0.05, seed=77, servers=3
    )
    result = run_probe_session(scenario, repetitions=5)
    assert result.classification == {RFC6040}


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
    assert result.classification == {RFC6040}


def test_scenario_keeps_a_frozen_copy_of_the_bug_mask():
    mask = {1: {CE: ECT0}}
    scenario = scenario_for(RFC6040, servers=3, server_bug_mask=mask)
    first = run_probe_session(scenario)
    assert first.classification == {RFC6040}
    # Two of three servers mis-reporting CE would make the next run mangled.
    mask[1][CE] = NOT_ECT
    mask[2] = {CE: NOT_ECT}
    assert run_probe_session(scenario) == first
    with pytest.raises(TypeError):
        scenario.server_bug_mask[1][CE] = NOT_ECT
    with pytest.raises(TypeError):
        scenario.server_bug_mask[2] = {CE: NOT_ECT}
    # _replace freezes the mask it is given too.
    with pytest.raises(TypeError):
        scenario._replace(server_bug_mask=mask).server_bug_mask[2][CE] = ECT1


def test_scenario_keeps_a_read_only_copy_of_the_callers_egress():
    table = dict(builtin_policy(RFC2003))
    scenario = scenario_for(table, servers=3)
    first = run_probe_session(scenario)
    assert first.classification == {RFC2003}
    # The caller's dict turned into RFC 6040, then into no table at all,
    # leaves the scenario's table as it was.
    table.update(builtin_policy(RFC6040))
    assert run_probe_session(scenario) == first
    table[(CE, CE)] = "junk"
    assert run_probe_session(scenario) == first
    assert scenario.egress == builtin_policy(RFC2003)
    with pytest.raises(TypeError):
        scenario.egress[(CE, CE)] = NOT_ECT
    # _replace copies the table it is given too; a built-in table is shared.
    other = dict(builtin_policy(RFC4301))
    replaced = scenario._replace(egress=other)
    other[(CE, CE)] = NOT_ECT
    assert replaced.egress == builtin_policy(RFC4301)
    assert scenario._replace(egress=builtin_policy(RFC3168)).egress is builtin_policy(RFC3168)


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
    report of a clean session, straight from the table by the paper model:
    a codepoint is reflected when its diagonal cell forwards it, and the
    rows read the table's own cells."""
    names = {(OUTCOME_NAME[i], OUTCOME_NAME[o]): OUTCOME_NAME[onward] for (i, o), onward in table.items()}
    control = ControlReport(
        reflected=frozenset(cp for cp in EcnCodepoint if names[(cp.json_name,) * 2] == cp.json_name),
        copied=frozenset(cp for cp in EcnCodepoint if model.INGRESS[ingress.value][cp.json_name] == cp.json_name),
    )
    if not control.reflected:
        return EXIT_CONTROL_FAILURE, None, control
    classes = model.classify(tuple(names[row] for row in model.ROWS_BY_CAPABILITY[capability.value]))
    verdict = PropagationVerdict(model.verdict(classes))
    return EXIT_BY_VERDICT[verdict], frozenset(map(DecapBehaviorClass, classes)), control


def check_clean_session(table, ingress, capability):
    """Run one clean 1x1 session against the oracle; return the cells it sent."""
    scenario = Scenario(ingress=ingress, egress=mangled_policy(table))
    try:
        result = run_probe_session(scenario, capability, repetitions=1)
    except ControlFailure as exc:
        path = TunnelPath(scenario, capability, 1)
        with pytest.raises(ControlFailure):
            run_control_test(path)
        got = (EXIT_CONTROL_FAILURE, None, exc.report)
        control, exchanges = exc.report, path.log
    else:
        got = (EXIT_BY_VERDICT[result.verdict], result.classification, result.control)
        control, exchanges = result.control, result.exchanges
    expected = expected_clean_session(table, ingress, capability)
    assert got == expected, (ingress, capability, table)
    copies = expected[2].copied == ALL_CODEPOINTS
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
    # Each diagonal cell reflects its codepoint, drops it, or forwards another
    # one: Not-ECT, or CE for the Not-ECT cell.
    choices = [(cp, None, CE if cp is NOT_ECT else NOT_ECT) for cp in EcnCodepoint]
    sent = set()
    for index, diagonal in enumerate(itertools.product(*choices)):
        table = oracle_table(index, diagonal, reference_signature(RFC6040))
        for ingress in EncapPolicy:
            sent |= check_clean_session(table, ingress, Capability.FULL)
    assert sent == SENT_CELLS


# ---------------------------------------------------------------------------
# The small scope: every packet outcome of a session's control passes and rows


# AQM and loss at 0.5 and each packet's two draws (AQM, then loss) scripted: 0.0 is a hit, 0.75 a miss.
SCRIPTED_PACKETS = {"unmarked": (0.75, 0.75), "marked": (0.0, 0.75), "lost": (0.75, 0.0)}
CLEAN = SCRIPTED_PACKETS["unmarked"]
# (table, ingress, capability, repetitions) of one server: every built-in combination once, and one table per
# capability twice, so that a row's votes can tie.
SMALL_SCOPE = [
    *((b, ingress, capability, 1) for b in CONFORMANT_CLASSES for ingress in EncapPolicy for capability in Capability),
    (RFC6040, EncapPolicy.COPY_EXACT, Capability.FULL, 2),
    (RFC4301, EncapPolicy.ZERO_OUTER, Capability.CE_ONLY, 2),
]


def model_probes(ingress, capability):
    """The paper's (initial, override) probes of a session whose control test goes through: the control test, its
    fallback pass when the ingress does not copy, and the capability's rows."""
    fallback = any(model.INGRESS[ingress][cp] != cp for cp in model.WIRE)
    return [(cp, None) for cp in model.WIRE] + [(cp, cp) for cp in model.WIRE] * fallback + [
        *model.ROWS_BY_CAPABILITY[capability]
    ]


def check_scripted_session(behavior, ingress, capability, repetitions, draws) -> bool:
    """Run a one-server session over a built-in table whose packets draw ``draws`` in turn, and check it against
    the paper model's packets from the same draws: the exchange log and the control report, then the rows'
    decisions and the classes, or a ControlFailure where the model reflects nothing.  True for a failure."""
    path = TunnelPath(Scenario(ingress, builtin_policy(behavior), 0.5, 0.5), capability, repetitions)
    path._rng = SimpleNamespace(random=iter(draws).__next__)
    # The model's packets: (server, initial, outer as sent, feedback) of each.
    draw, table = iter(draws).__next__, model.TABLES[behavior.json_name]
    log = [
        (0, initial, *model.packet(table, ingress.value, initial, override, 0.5, 0.5, {}, draw)[::2])
        for initial, override in model_probes(ingress.value, capability.value)
        for _ in range(repetitions)
    ]
    reflected, copied, rows = model.control([log[i:i + repetitions] for i in range(0, len(log), repetitions)])
    try:
        control = run_control_test(path)
    except ControlFailure as failure:
        control, failed, log = failure.report, True, log[:len(log) - repetitions * len(rows)]
    else:
        observations, failed = run_main_test(path), False
        expected = model.decide(log, 1, repetitions, capability.value)
        assert [(OUTCOME_NAME[o.consensus], o.ambiguous) for o in observations] == [
            (row["consensus"], row["ambiguous"]) for row in expected["observations"]
        ], draws
        assert {b.json_name for b in classify(observations, capability)} == set(
            expected["classification"]["classes"]
        ), draws
    assert [
        (r.server_id, OUTCOME_NAME[r.initial], OUTCOME_NAME[r.outer], OUTCOME_NAME[r.feedback]) for r in path.log
    ] == log, draws
    assert ({cp.json_name for cp in control.reflected}, {cp.json_name for cp in control.copied}) == (
        reflected, copied
    ), draws
    return failed


@pytest.mark.parametrize(
    "behavior, ingress, capability, repetitions",
    SMALL_SCOPE,
    ids=[f"{b.json_name}/{i.value}/{c.value}/1x{r}" for b, i, c, r in SMALL_SCOPE],
)
def test_every_row_outcome_decides_as_the_paper_model(behavior, ingress, capability, repetitions):
    # The control test goes through clean; each row packet is unmarked, AQM-marked or lost, in every combination.
    probes = len(model_probes(ingress.value, capability.value))
    rows = repetitions * len(model.ROWS_BY_CAPABILITY[capability.value])
    for outcomes in itertools.product(SCRIPTED_PACKETS.values(), repeat=rows):
        draws = [*CLEAN * (repetitions * probes - rows), *itertools.chain(*outcomes)]
        assert not check_scripted_session(behavior, ingress, capability, repetitions, draws)


# (table, ingress, scripted pass) at 1 x 1: the first control pass under every ingress, and the fallback pass
# under each ingress that does not copy, for every built-in table.
CONTROL_SCOPE = [
    (b, ingress, scripted)
    for b in CONFORMANT_CLASSES
    for ingress in EncapPolicy
    for scripted in ("first", "fallback")[:1 + (ingress is not EncapPolicy.COPY_EXACT)]
]


@pytest.mark.parametrize(
    "behavior, ingress, scripted", CONTROL_SCOPE, ids=[f"{b.json_name}/{i.value}/{s}" for b, i, s in CONTROL_SCOPE]
)
def test_every_control_outcome_decides_as_the_paper_model(behavior, ingress, scripted):
    # Each packet of one control pass is unmarked, AQM-marked or lost, in every combination, and every other
    # packet goes through clean.  Losing the whole pass that decides the reflected set is a control failure.
    before = 4 * (scripted == "fallback")
    after = len(model_probes(ingress.value, "full")) - before - 4
    failures = []
    for outcomes in itertools.product(SCRIPTED_PACKETS.values(), repeat=4):
        draws = [*CLEAN * before, *itertools.chain(*outcomes), *CLEAN * after]
        if check_scripted_session(behavior, ingress, Capability.FULL, 1, draws):
            failures.append(outcomes)
    decides = scripted == "fallback" or ingress is EncapPolicy.COPY_EXACT
    assert ((SCRIPTED_PACKETS["lost"],) * 4 in failures) is decides
