import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ecnprobe import feedback as fb
from ecnprobe import simnet
from ecnprobe.ecn import CODEPOINTS, EcnCodepoint
from ecnprobe.simnet import (
    MAX_PROBES_PER_ROW,
    MAX_SHARED_RECORDS,
    ConfigError,
    ExchangeResult,
    Scenario,
    ScenarioConfig,
    TunnelPath,
    build_scenario,
    serialize_trace,
)
from ecnprobe.tunnels import (
    CONFORMANT_CLASSES,
    DecapBehaviorClass,
    EncapPolicy,
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


def test_run_exchange_examples():
    scenario = clean_scenario()
    assert TunnelPath(scenario).exchange(ECT0, CE).feedback is CE
    assert TunnelPath(scenario).exchange(NOT_ECT, CE).feedback is None
    simple = clean_scenario(DecapBehaviorClass.RFC2003_SIMPLE)
    assert TunnelPath(simple).exchange(ECT0, ECT1).feedback is ECT0
    lossy = clean_scenario(loss_probability=1.0)
    assert TunnelPath(lossy).exchange(ECT0).feedback is None


def test_pipeline_equals_behavior_profile_on_clean_path():
    # with no noise, feedback must be exactly the decap table cell for the
    # (inner, effective outer) the pipeline delivers to the egress
    for behavior in CONFORMANT_CLASSES:
        profile = builtin_policy(behavior)
        for ingress in EncapPolicy:
            scenario = clean_scenario(behavior, ingress)
            for initial in EcnCodepoint:
                for override in (None,) + tuple(EcnCodepoint):
                    result = TunnelPath(scenario).exchange(initial, override)
                    effective_outer = override if override is not None else encap(ingress, initial)
                    expected = profile[(initial, effective_outer)]
                    if expected.is_dropped:
                        assert result.feedback is None
                    else:
                        assert result.feedback is expected.codepoint


def test_copy_ingress_outer_equals_initial():
    scenario = clean_scenario()
    for initial in EcnCodepoint:
        result = TunnelPath(scenario).exchange(initial)
        assert result.initial is result.outer is initial


def test_trace_completeness():
    # Each fact once: the onward header, like the feedback, only when the
    # egress forwarded the packet.
    assert ExchangeResult._fields == ("feedback", "server_id", "initial", "outer", "onward")
    scenario = clean_scenario(servers=2)
    assert TunnelPath(scenario).exchange(ECT0, CE, server_id=1) == ExchangeResult(CE, 1, ECT0, CE, CE)
    assert TunnelPath(scenario).exchange(NOT_ECT, CE) == ExchangeResult(None, 0, NOT_ECT, CE, None)
    lost_result = TunnelPath(clean_scenario(loss_probability=1.0)).exchange(ECT0)
    assert lost_result == ExchangeResult(None, 0, ECT0, ECT0, None)


def test_override_recorded_in_outer_trace():
    result = TunnelPath(clean_scenario()).exchange(NOT_ECT, CE)
    assert result.outer is CE


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
    assert TunnelPath(observer).exchange(ECT0).feedback is CE
    assert TunnelPath(observer).exchange(ECT1).feedback is CE
    # The record keeps the outer the tester's device sent, before the marking.
    assert TunnelPath(observer).exchange(ECT0, ECT1) == ExchangeResult(CE, 0, ECT0, ECT1, CE)
    # Not-ECT and CE outers are left alone
    assert TunnelPath(observer).exchange(NOT_ECT).feedback is NOT_ECT
    assert TunnelPath(observer).exchange(CE).feedback is CE
    assert TunnelPath(scenario).exchange(ECT0).feedback is ECT0


def test_server_bug_mask_corrupts_feedback():
    scenario = clean_scenario(
        servers=2, server_bug_mask={1: {CE: ECT0}}
    )
    assert TunnelPath(scenario).exchange(ECT0, CE, server_id=0).feedback is CE
    assert TunnelPath(scenario).exchange(ECT0, CE, server_id=1).feedback is ECT0


def test_simnet_does_not_load_the_feedback_codec():
    # Feedback is the received codepoint; the handshake codec is for reports.
    src = str(Path(simnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, ecnprobe.simnet; print('ecnprobe.feedback' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


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


def test_scenario_replace_revalidates():
    scenario = build_scenario(ScenarioConfig(egress="rfc6040"))
    replaced = scenario._replace(servers=2)
    assert type(replaced) is Scenario and replaced.servers == 2
    for bad in (
        {"servers": 0},
        {"aqm_ce_probability": 1.5},
        {"loss_probability": -0.1},
    ):
        with pytest.raises(ValueError):
            scenario._replace(**bad)


def test_build_scenario_builtin_names():
    for name, behavior in (
        ("rfc6040", DecapBehaviorClass.RFC6040),
        ("rfc4301", DecapBehaviorClass.RFC4301),
        ("rfc3168", DecapBehaviorClass.RFC3168),
        ("rfc2003", DecapBehaviorClass.RFC2003_SIMPLE),
    ):
        scenario = build_scenario(ScenarioConfig(egress=name))
        assert scenario.egress is builtin_policy(behavior)
    zero = build_scenario(ScenarioConfig(ingress="zero", egress="rfc6040"))
    assert zero.ingress is EncapPolicy.ZERO_OUTER


def test_build_scenario_custom_table():
    text = custom_table_text(mangled_zero_all())
    scenario = build_scenario(ScenarioConfig(egress=f"custom:{text}"))
    assert scenario.egress == mangled_zero_all()


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
    for i, r in enumerate(results):
        lines.append(f"{i} {r.server_id} Initial {r.initial.value:02x} {r.initial}")
        lines.append(f"{i} {r.server_id} Inner {r.initial.value:02x} {r.initial}")
        lines.append(f"{i} {r.server_id} Outer {r.outer.value:02x} {r.outer}")
        if r.onward is not None:
            lines.append(f"{i} {r.server_id} Onward {r.onward.value:02x} {r.onward}")
        lines.append(f"{i} FEEDBACK {'ABSENT' if r.feedback is None else r.feedback}")
    return "\n".join(lines) + ("\n" if lines else "")


def writable_records(server_id):
    """Every record TunnelPath can write for a server: any initial and
    outer, then either no onward header and no feedback (lost or dropped),
    or any onward header with any feedback (a buggy server may report any
    codepoint)."""
    for initial, outer in itertools.product(CODEPOINTS, repeat=2):
        yield ExchangeResult(None, server_id, initial, outer, None)
        for onward, feedback in itertools.product(CODEPOINTS, repeat=2):
            yield ExchangeResult(feedback, server_id, initial, outer, onward)


def test_serialize_trace_matches_reference_on_arbitrary_results():
    # Multi-digit server ids, and more than 1000 exchanges for multi-digit
    # exchange numbers.
    records = [record for server_id in (0, 9, 10, 4321) for record in writable_records(server_id)]
    assert len(records) == len(set(records)) == 4 * 16 * (1 + 16)
    rng = random.Random(3)
    sampled = rng.choices(records, k=3000)
    repeated = [records[7]] * 300 + records[:3] * 100
    for sequence in (records, tuple(reversed(records)), sampled, records[:1], records[1:5], [], (), repeated):
        assert serialize_trace(sequence) == reference_serialize_trace(sequence)


def test_serialize_trace_on_a_one_shot_iterator_of_fresh_records():
    # Each record is built fresh and dropped by the generator once the
    # serializer moves on, so its memory, and with it its id, is free for
    # the next record unless the serializer holds on to it.
    def fresh(count):
        rng = random.Random(count)
        for _ in range(count):
            onward = rng.choice((None,) + CODEPOINTS)
            feedback = None if onward is None else rng.choice(CODEPOINTS)
            yield ExchangeResult(feedback, rng.randrange(3), rng.choice(CODEPOINTS), rng.choice(CODEPOINTS), onward)

    for count in (0, 1, 500):
        assert serialize_trace(fresh(count)) == reference_serialize_trace(list(fresh(count)))


# ---------------------------------------------------------------------------
# TunnelPath against the models it tabulates


class ReferencePath:
    """Exchanges computed straight from the models, one packet at a time:
    encap's outer, the tester's override replacing it, AQM, loss, decap,
    then the handshake codec."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.rng = random.Random(scenario.seed)

    def exchange(self, initial, outer_override=None, server_id=0):
        sc = self.scenario
        sent = encap(sc.ingress, initial) if outer_override is None else outer_override
        u_aqm = self.rng.random()
        u_loss = self.rng.random()
        outer = CE if u_aqm < sc.aqm_ce_probability and sent in (ECT0, ECT1) else sent
        if u_loss < sc.loss_probability:
            return ExchangeResult(None, server_id, initial, sent, None)
        outcome = decap(sc.egress, initial, outer)
        if outcome.is_dropped:
            return ExchangeResult(None, server_id, initial, sent, None)
        received = outcome.codepoint
        if sc.server_bug_mask and server_id in sc.server_bug_mask:
            received = sc.server_bug_mask[server_id].get(received, received)
        feedback = fb.decode_handshake(fb.encode_handshake(received))
        return ExchangeResult(feedback, server_id, initial, sent, outcome.codepoint)


EQUIVALENCE_EGRESSES = {
    **{b.json_name: builtin_policy(b) for b in CONFORMANT_CLASSES},
    "zero-all": mangled_zero_all(),
    "copy-outer": mangled_copy_outer(),
    **{f"random:{seed}": mangled_random(seed) for seed in range(3)},
}
# (aqm_ce_probability, loss_probability)
EQUIVALENCE_NOISES = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.5))
# server_bug_mask on a two-server path
EQUIVALENCE_BUG_MASKS = (None, {1: {CE: ECT0, NOT_ECT: ECT1}})


@pytest.mark.parametrize("egress", EQUIVALENCE_EGRESSES.values(), ids=list(EQUIVALENCE_EGRESSES))
def test_exchange_matches_reference_models(egress):
    for ingress, (aqm, loss), bug_mask in itertools.product(EncapPolicy, EQUIVALENCE_NOISES, EQUIVALENCE_BUG_MASKS):
        scenario = Scenario(
            ingress=ingress,
            egress=egress,
            aqm_ce_probability=aqm,
            loss_probability=loss,
            seed=7,
            servers=2,
            server_bug_mask=bug_mask,
        )
        path, reference = TunnelPath(scenario), ReferencePath(scenario)
        expected_log = []
        for args in itertools.product(EcnCodepoint, (None,) + tuple(EcnCodepoint), (0, 1)):
            got = path.exchange(*args)
            want = reference.exchange(*args)
            assert got == want, (scenario, args)
            expected_log.append(want)
        assert path.log == expected_log
        assert serialize_trace(path.log) == reference_serialize_trace(expected_log)
        # Same number of draws: later exchanges stay aligned.
        assert path._rng.getstate() == reference.rng.getstate()


@pytest.fixture
def empty_records(monkeypatch):
    """Run the test on an empty shared record table, whatever ran before it."""
    monkeypatch.setattr(simnet, "_RECORDS", {})


def test_equal_exchanges_share_one_record(empty_records):
    path = TunnelPath(clean_scenario(servers=2))
    forwarded = path.exchange(ECT0, CE, server_id=1)
    dropped = path.exchange(NOT_ECT, CE)
    assert path.exchange(ECT0, CE, server_id=1) is forwarded
    assert path.exchange(NOT_ECT, CE) is dropped
    assert path.log == [forwarded, dropped, forwarded, dropped]


def test_each_exchange_field_gives_its_own_record(empty_records):
    # A copy-outer egress forwards the outer the tester set, so the base
    # exchange (Not-ECT, CE) is either lost or forwarded as CE with CE
    # feedback; AQM turns an ECT(0) outer into CE, which changes the onward
    # header and the feedback alone.  Server 1 reflects CE as ECT(1).  Each
    # exchange repeats 40 times on one path, so most records are shared.
    scenario = Scenario(
        ingress=EncapPolicy.COPY_EXACT,
        egress=mangled_copy_outer(),
        aqm_ce_probability=0.5,
        loss_probability=0.5,
        seed=5,
        servers=2,
        server_bug_mask={1: {CE: ECT1}},
    )
    variants = {
        "base": (NOT_ECT, CE, 0),
        "server": (NOT_ECT, CE, 1),
        "initial": (ECT0, CE, 0),
        "override": (NOT_ECT, ECT0, 0),
        "no override": (ECT0, None, 0),
    }
    path, reference = TunnelPath(scenario), ReferencePath(scenario)
    expected_log = []
    # Records by variant, then by feedback (None: lost).
    seen = {name: {} for name in variants}
    for _ in range(40):
        for name, args in variants.items():
            got = path.exchange(*args)
            want = reference.exchange(*args)
            assert got == want, (name, args)
            expected_log.append(want)
            assert seen[name].setdefault(got.feedback, got) is got
    assert {name: set(by_feedback) for name, by_feedback in seen.items()} == {
        "base": {None, CE},
        "server": {None, ECT1},
        "initial": {None, CE},
        "override": {None, ECT0, CE},
        "no override": {None, ECT0, CE},
    }
    records = [record for by_feedback in seen.values() for record in by_feedback.values()]
    assert len(set(records)) == len(records)
    assert path.log == expected_log
    assert serialize_trace(path.log) == reference_serialize_trace(expected_log)
    assert path._rng.getstate() == reference.rng.getstate()


def test_paths_share_records_across_seeds_egresses_and_ingresses(empty_records):
    # Overriding the outer with CE hides the ingress; RFC 6040 and RFC 3168
    # agree on (ECT(0), CE) and both drop (Not-ECT, CE), and a loss leaves
    # the same record as an egress drop.
    # Each path is built only after the one before it has run.
    first = TunnelPath(clean_scenario(DecapBehaviorClass.RFC6040, EncapPolicy.COPY_EXACT, seed=1))
    forwarded = first.exchange(ECT0, CE)
    dropped = first.exchange(NOT_ECT, CE)
    assert forwarded.feedback is CE and dropped.feedback is None
    second = TunnelPath(clean_scenario(DecapBehaviorClass.RFC3168, EncapPolicy.RFC3168_FULL, seed=2))
    assert second.exchange(ECT0, CE) is forwarded
    assert second.exchange(NOT_ECT, CE) is dropped
    lossy = TunnelPath(clean_scenario(DecapBehaviorClass.RFC4301, EncapPolicy.ZERO_OUTER, seed=3, loss_probability=1.0))
    assert lossy.exchange(NOT_ECT, CE) is dropped
    assert TunnelPath(clean_scenario(servers=2)).exchange(ECT0, CE, server_id=1) is not forwarded


def test_shared_records_stay_within_the_cap(empty_records):
    # One exchange per (server, initial) pair gives 1.5 x cap distinct keys;
    # sent twice, they must clear the table at least once and still give
    # every exchange its reference record.
    servers = MAX_SHARED_RECORDS * 3 // 8
    scenario = Scenario(
        ingress=EncapPolicy.COPY_EXACT,
        egress=mangled_random(3),
        aqm_ce_probability=0.3,
        loss_probability=0.2,
        seed=11,
        servers=servers,
    )
    shapes = list(itertools.product(range(servers), EcnCodepoint))
    path, reference = TunnelPath(scenario), ReferencePath(scenario)
    expected_log = []
    sizes = []
    for server_id, initial in shapes * 2:
        got = path.exchange(initial, CE if server_id % 2 else None, server_id)
        want = reference.exchange(initial, CE if server_id % 2 else None, server_id)
        assert got == want
        expected_log.append(want)
        sizes.append(len(simnet._RECORDS))
    assert max(sizes) == MAX_SHARED_RECORDS
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))
    # Not assert ==: pytest's diff of two megabyte-long values takes minutes.
    if path.log != expected_log:
        pytest.fail("path.log differs from the reference records")
    got, want = serialize_trace(path.log), reference_serialize_trace(expected_log)
    if got != want:
        lines = itertools.zip_longest(got.splitlines(keepends=True), want.splitlines(keepends=True))
        number, (got_line, want_line) = next((n, pair) for n, pair in enumerate(lines, 1) if pair[0] != pair[1])
        pytest.fail(
            f"trace is {len(got)} chars, reference {len(want)}; first difference at line {number}: "
            f"{got_line!r} != {want_line!r}"
        )
