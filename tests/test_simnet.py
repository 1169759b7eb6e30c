import itertools
import random

import pytest

from ecnprobe import feedback as fb
from ecnprobe.ecn import CODEPOINTS, EcnCodepoint, PathLocation, dscp_of, ecn_of, overwrite_ecn
from ecnprobe.simnet import (
    MAX_PROBES_PER_ROW,
    ConfigError,
    ExchangeResult,
    ManglerRule,
    Scenario,
    ScenarioConfig,
    TunnelPath,
    apply_mangler,
    build_scenario,
    run_exchange,
    serialize_trace,
)
from ecnprobe.tunnels import (
    CONFORMANT_CLASSES,
    DecapBehaviorClass,
    EncapPolicy,
    behavior_profile,
    builtin_policy,
    custom_table_text,
    decap,
    encap,
    mangled_copy_outer,
    mangled_random,
    mangled_zero_all,
)

NOT_ECT = EcnCodepoint.NOT_ECT
ECT0 = EcnCodepoint.ECT0
ECT1 = EcnCodepoint.ECT1
CE = EcnCodepoint.CE


def clean_scenario(egress=DecapBehaviorClass.RFC6040, ingress=EncapPolicy.COPY_EXACT, **kw):
    return Scenario(ingress=ingress, egress=builtin_policy(egress), **kw)


def trace_octet(result, location):
    return next(o for loc, o in result.trace if loc is location)


def test_run_exchange_examples():
    scenario = clean_scenario()
    assert run_exchange(scenario, ECT0, CE).feedback is CE
    assert run_exchange(scenario, NOT_ECT, CE).feedback is None
    simple = clean_scenario(DecapBehaviorClass.RFC2003_SIMPLE)
    assert run_exchange(simple, ECT0, ECT1).feedback is ECT0
    lossy = clean_scenario(loss_probability=1.0)
    assert run_exchange(lossy, ECT0).feedback is None


def test_apply_mangler_examples():
    assert apply_mangler(ManglerRule(set_bits=3), 0x00) == 0x03
    assert apply_mangler(ManglerRule(set_bits=1), 0x02) == 0x01
    assert apply_mangler(ManglerRule(set_bits=2), 0xBA) == 0xBA


def test_pipeline_equals_behavior_profile_on_clean_path():
    # with no noise, feedback must be exactly the decap table cell for the
    # (inner, effective outer) the pipeline delivers to the egress
    for behavior in CONFORMANT_CLASSES:
        profile = behavior_profile(builtin_policy(behavior))
        for ingress in EncapPolicy:
            scenario = clean_scenario(behavior, ingress)
            for initial in EcnCodepoint:
                for override in (None,) + tuple(EcnCodepoint):
                    result = run_exchange(scenario, initial, override)
                    effective_outer = override if override is not None else encap(ingress, initial).outer_ecn
                    expected = profile[(initial, effective_outer)]
                    if expected.is_dropped:
                        assert result.feedback is None
                    else:
                        assert result.feedback is expected.codepoint


def test_copy_ingress_outer_equals_initial():
    scenario = clean_scenario()
    for initial in EcnCodepoint:
        result = run_exchange(scenario, initial)
        assert trace_octet(result, PathLocation.OUTER) == trace_octet(result, PathLocation.INITIAL)


def test_trace_completeness():
    scenario = clean_scenario()
    forwarded_result = run_exchange(scenario, ECT0, CE)
    assert [loc for loc, _ in forwarded_result.trace] == [
        PathLocation.INITIAL,
        PathLocation.INNER,
        PathLocation.OUTER,
        PathLocation.ONWARD,
    ]
    dropped_result = run_exchange(scenario, NOT_ECT, CE)
    assert [loc for loc, _ in dropped_result.trace] == [
        PathLocation.INITIAL,
        PathLocation.INNER,
        PathLocation.OUTER,
    ]
    lost_result = run_exchange(clean_scenario(loss_probability=1.0), ECT0)
    assert [loc for loc, _ in lost_result.trace] == [
        PathLocation.INITIAL,
        PathLocation.INNER,
        PathLocation.OUTER,
    ]


def test_override_recorded_in_outer_trace():
    result = run_exchange(clean_scenario(), NOT_ECT, CE)
    assert ecn_of(trace_octet(result, PathLocation.OUTER)) is CE


def test_dscp_preserved_through_pipeline():
    path = TunnelPath(clean_scenario())
    result = path.exchange(ECT0, CE, dscp=46)
    for _loc, octet in result.trace:
        assert dscp_of(octet) == 46
    assert result.feedback is CE


def test_deterministic_traces():
    def run_sequence():
        path = TunnelPath(
            clean_scenario(aqm_ce_probability=0.3, loss_probability=0.2, seed=1234, servers=2)
        )
        for rep in range(20):
            for initial in EcnCodepoint:
                path.exchange(initial, CE, server_id=rep % 2)
        return serialize_trace(path.log)

    assert run_sequence() == run_sequence()


def test_different_seeds_differ():
    def run_sequence(seed):
        path = TunnelPath(clean_scenario(loss_probability=0.5, seed=seed))
        for _ in range(30):
            path.exchange(ECT0, CE)
        return serialize_trace(path.log)

    assert run_sequence(1) != run_sequence(2)


def test_aqm_marks_only_ect_outers():
    # aqm probability 1: an ECT outer is always delivered to decap as CE
    scenario = clean_scenario(DecapBehaviorClass.RFC2003_SIMPLE, aqm_ce_probability=1.0)
    # simple tunnel ignores the outer, so use copy-outer to observe it
    observer = Scenario(
        ingress=EncapPolicy.COPY_EXACT, egress=mangled_copy_outer(), aqm_ce_probability=1.0
    )
    assert run_exchange(observer, ECT0).feedback is CE
    assert run_exchange(observer, ECT1).feedback is CE
    # Not-ECT and CE outers are left alone
    assert run_exchange(observer, NOT_ECT).feedback is NOT_ECT
    assert run_exchange(observer, CE).feedback is CE
    assert run_exchange(scenario, ECT0).feedback is ECT0


def test_standing_mangler_applies_after_capture():
    # a hostile middlebox bleaching the outer: the tester still sees their
    # own overwrite at the capture point, but the egress sees Not-ECT
    scenario = Scenario(
        ingress=EncapPolicy.COPY_EXACT,
        egress=mangled_copy_outer(),
        mangler=ManglerRule(set_bits=0),
    )
    result = run_exchange(scenario, ECT0, CE)
    assert ecn_of(trace_octet(result, PathLocation.OUTER)) is CE
    assert result.feedback is NOT_ECT


def test_mangler_match_predicate():
    scenario = Scenario(
        ingress=EncapPolicy.COPY_EXACT,
        egress=mangled_copy_outer(),
        mangler=ManglerRule(set_bits=0, match=lambda server_id: server_id == 1),
        servers=2,
    )
    assert run_exchange(scenario, ECT0, CE, server_id=0).feedback is CE
    assert run_exchange(scenario, ECT0, CE, server_id=1).feedback is NOT_ECT


def test_server_bug_mask_corrupts_feedback():
    scenario = clean_scenario(
        servers=2, server_bug_mask={1: {CE: ECT0}}
    )
    assert run_exchange(scenario, ECT0, CE, server_id=0).feedback is CE
    assert run_exchange(scenario, ECT0, CE, server_id=1).feedback is ECT0


def test_quic_feedback_channel_matches_tcp():
    for initial in EcnCodepoint:
        for override in (None, CE, ECT1):
            tcp = run_exchange(clean_scenario(feedback_channel="tcp"), initial, override)
            quic = run_exchange(clean_scenario(feedback_channel="quic"), initial, override)
            assert tcp.feedback is quic.feedback


def test_exchange_rejects_bad_server_id():
    path = TunnelPath(clean_scenario(servers=2))
    with pytest.raises(ValueError):
        path.exchange(ECT0, server_id=2)


def test_scenario_validation():
    with pytest.raises(ValueError):
        clean_scenario(aqm_ce_probability=1.5)
    with pytest.raises(ValueError):
        clean_scenario(loss_probability=-0.1)
    with pytest.raises(ValueError):
        clean_scenario(servers=0)
    with pytest.raises(ValueError):
        clean_scenario(feedback_channel="smoke-signal")


def test_build_scenario_builtin_names():
    for name, behavior in (
        ("rfc6040", DecapBehaviorClass.RFC6040),
        ("rfc4301", DecapBehaviorClass.RFC4301),
        ("rfc3168", DecapBehaviorClass.RFC3168),
        ("rfc2003", DecapBehaviorClass.RFC2003_SIMPLE),
    ):
        scenario = build_scenario(ScenarioConfig(egress=name))
        assert scenario.egress.behavior is behavior
    zero = build_scenario(ScenarioConfig(ingress="zero", egress="rfc6040"))
    assert zero.ingress is EncapPolicy.ZERO_OUTER


def test_build_scenario_custom_table():
    text = custom_table_text(mangled_zero_all())
    scenario = build_scenario(ScenarioConfig(egress=f"custom:{text}"))
    assert scenario.egress.behavior is DecapBehaviorClass.MANGLED
    assert behavior_profile(scenario.egress) == behavior_profile(mangled_zero_all())


def test_build_scenario_field_errors():
    with pytest.raises(ConfigError) as exc_info:
        build_scenario(ScenarioConfig(egress="rfc6040", aqm_ce_probability=1.5))
    assert any(f == "aqm_ce_probability" and "out of range" in r for f, r in exc_info.value.errors)

    with pytest.raises(ConfigError) as exc_info:
        build_scenario(
            ScenarioConfig(
                ingress="teleport",
                egress="rfc9999",
                loss_probability=2.0,
                servers=0,
                repetitions=0,
                capability="psychic",
                seed=-1,
            )
        )
    fields = {f for f, _ in exc_info.value.errors}
    assert fields == {
        "ingress",
        "egress",
        "loss_probability",
        "servers",
        "repetitions",
        "capability",
        "seed",
    }

    with pytest.raises(ConfigError) as exc_info:
        build_scenario(ScenarioConfig())
    assert any(f == "egress" and "required" in r for f, r in exc_info.value.errors)

    with pytest.raises(ConfigError):
        build_scenario(ScenarioConfig(egress="custom:nonsense"))


def test_build_scenario_bounds_probes_per_row():
    for servers, repetitions in ((1, MAX_PROBES_PER_ROW), (MAX_PROBES_PER_ROW, 1), (100, 100)):
        assert servers * repetitions == MAX_PROBES_PER_ROW
        scenario = build_scenario(ScenarioConfig(egress="rfc6040", servers=servers, repetitions=repetitions))
        assert scenario.servers == servers
    for servers, repetitions in ((1, MAX_PROBES_PER_ROW + 1), (101, 100), (10**9, 10**6)):
        with pytest.raises(ConfigError) as exc_info:
            build_scenario(ScenarioConfig(egress="rfc6040", servers=servers, repetitions=repetitions))
        assert [f for f, _ in exc_info.value.errors] == ["servers x repetitions"]


def test_serialize_trace_format():
    path = TunnelPath(clean_scenario(servers=2))
    path.exchange(ECT0, CE, server_id=0)
    path.exchange(NOT_ECT, CE, server_id=1)
    text = serialize_trace(path.log)
    lines = text.splitlines()
    assert lines[0] == "0 0 Initial 02 ECT(0)"
    assert lines[1] == "0 0 Inner 02 ECT(0)"
    assert lines[2] == "0 0 Outer 03 CE"
    assert lines[3] == "0 0 Onward 03 CE"
    assert lines[4] == "0 FEEDBACK CE"
    assert lines[-1] == "1 FEEDBACK ABSENT"
    assert text.endswith("\n")
    assert serialize_trace([]) == ""


def reference_serialize_trace(results):
    """The trace format written out directly: one f-string per line."""
    lines = []
    for i, result in enumerate(results):
        for location, octet in result.trace:
            lines.append(f"{i} {result.server_id} {location} {octet:02x} {ecn_of(octet)}")
        verdict = "ABSENT" if result.feedback is None else str(result.feedback)
        lines.append(f"{i} FEEDBACK {verdict}")
    return "\n".join(lines) + ("\n" if lines else "")


def test_serialize_trace_matches_reference_on_arbitrary_results():
    # Record layouts TunnelPath never writes: every octet at every location,
    # no records, out-of-order and repeated locations, more than four
    # records, locations given as plain strings, absent feedback,
    # multi-digit server ids and exchange numbers.
    rng = random.Random(3)
    locations = tuple(PathLocation) + ("Outer", "Elsewhere")
    results = [ExchangeResult(None, (), 0)]
    results += [
        ExchangeResult(CODEPOINTS[octet % 4], ((location, octet),), 10 + octet)
        for location in locations
        for octet in range(256)
    ]
    for _ in range(1200):
        trace = tuple((rng.choice(locations), rng.randrange(256)) for _ in range(rng.randrange(9)))
        results.append(ExchangeResult(rng.choice((None,) + CODEPOINTS), trace, rng.randrange(1000)))
    assert len(results) > 2000
    for sequence in (results, tuple(reversed(results)), results[:1], results[1:5], [], ()):
        assert serialize_trace(sequence) == reference_serialize_trace(sequence)


# ---------------------------------------------------------------------------
# TunnelPath against the models it tabulates


class ReferencePath:
    """Exchanges computed straight from the models, one packet at a time:
    encap, tester override as a ManglerRule, standing mangler, AQM, loss,
    decap, then the handshake codec or the QUIC counters."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.rng = random.Random(scenario.seed)
        self.quic_counts = {}

    def exchange(self, initial, outer_override=None, server_id=0, dscp=0):
        sc = self.scenario
        stack = encap(sc.ingress, initial, dscp)
        inner, outer = stack.inner, stack.outer
        if outer_override is not None:
            outer = apply_mangler(ManglerRule(set_bits=outer_override.value), outer)
        trace = [(PathLocation.INITIAL, inner), (PathLocation.INNER, inner), (PathLocation.OUTER, outer)]
        if sc.mangler is not None and sc.mangler.matches(server_id):
            outer = apply_mangler(sc.mangler, outer)
        u_aqm = self.rng.random()
        u_loss = self.rng.random()
        if u_aqm < sc.aqm_ce_probability and ecn_of(outer) in (ECT0, ECT1):
            outer = overwrite_ecn(outer, CE.value)
        if u_loss < sc.loss_probability:
            return ExchangeResult(None, tuple(trace), server_id)
        outcome = decap(sc.egress, ecn_of(inner), ecn_of(outer))
        if outcome.is_dropped:
            return ExchangeResult(None, tuple(trace), server_id)
        onward = overwrite_ecn(inner, outcome.codepoint.value)
        trace.append((PathLocation.ONWARD, onward))
        received = ecn_of(onward)
        if sc.server_bug_mask and server_id in sc.server_bug_mask:
            received = sc.server_bug_mask[server_id].get(received, received)
        if sc.feedback_channel == "quic":
            before = self.quic_counts.get(server_id, fb.QuicEcnCounts())
            after = fb.record_packet(before, received)
            self.quic_counts[server_id] = after
            feedback = fb.counts_delta_codepoint(before, after)
        else:
            feedback = fb.decode_handshake(fb.encode_handshake(received))
        return ExchangeResult(feedback, tuple(trace), server_id)


EQUIVALENCE_EGRESSES = [builtin_policy(b) for b in CONFORMANT_CLASSES] + [
    mangled_zero_all(),
    mangled_copy_outer(),
    mangled_random(0),
    mangled_random(1),
    mangled_random(2),
]
# (aqm_ce_probability, loss_probability)
EQUIVALENCE_NOISES = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.5))
# (server_bug_mask, standing mangler) on a two-server path
EQUIVALENCE_QUIRKS = (
    (None, None),
    ({1: {CE: ECT0, NOT_ECT: ECT1}}, None),
    (None, ManglerRule(set_bits=0, match=lambda server_id: server_id == 1)),
)


@pytest.mark.parametrize("egress", EQUIVALENCE_EGRESSES, ids=lambda policy: policy.name)
def test_exchange_matches_reference_models(egress):
    for ingress, (aqm, loss), channel, (bug_mask, mangler) in itertools.product(
        EncapPolicy, EQUIVALENCE_NOISES, ("tcp", "quic"), EQUIVALENCE_QUIRKS
    ):
        scenario = Scenario(
            ingress=ingress,
            egress=egress,
            mangler=mangler,
            aqm_ce_probability=aqm,
            loss_probability=loss,
            seed=7,
            servers=2,
            server_bug_mask=bug_mask,
            feedback_channel=channel,
        )
        path, reference = TunnelPath(scenario), ReferencePath(scenario)
        expected_log = []
        for args in itertools.product(EcnCodepoint, (None,) + tuple(EcnCodepoint), (0, 1), (0, 46)):
            got = path.exchange(*args)
            want = reference.exchange(*args)
            assert got == want, (scenario, args)
            expected_log.append(want)
        assert path.log == expected_log
        assert serialize_trace(path.log) == reference_serialize_trace(expected_log)
        # Same number of draws: later exchanges stay aligned.
        assert path._rng.getstate() == reference.rng.getstate()


def test_exchange_rejects_bad_dscp_without_drawing():
    path = TunnelPath(clean_scenario())
    state = path._rng.getstate()
    for dscp in (-1, 64):
        with pytest.raises(ValueError):
            path.exchange(ECT0, dscp=dscp)
    assert path._rng.getstate() == state
    assert path.log == []
