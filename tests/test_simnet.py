import itertools
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import paper_model
from conftest import empty_stores
from ecnprobe import simnet
from ecnprobe.ecn import CODEPOINTS, EcnCodepoint
from ecnprobe.engine import _CONTROL_PROBES
from ecnprobe.simnet import (
    MAX_PROBES_PER_ROW,
    MAX_PLANNED_RECORDS,
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
    OUTCOME_BY_NAME,
    OUTCOME_NAME as NAME,
    Capability,
    DecapBehaviorClass,
    EncapPolicy,
    builtin_policy,
    custom_table_text,
    mangled_copy_outer,
    mangled_policy,
    mangled_random,
    mangled_zero_all,
    probe_rows,
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
    # Refused before the draws, so the path is as it was.
    path = TunnelPath(clean_scenario(servers=2, aqm_ce_probability=0.5, loss_probability=0.5))
    state = path._rng.getstate()
    for server_id in (2, -1, 1.5, 1.0, "1", None):
        with pytest.raises(ValueError, match=re.escape(f"server_id must be an int in range(2), got {server_id!r}")):
            path.exchange(ECT0, CE, server_id)
    assert path._rng.getstate() == state
    assert path.log == []


# Each call, and the ValueError it raises before the draws.
WRONG_CODEPOINTS = {
    "send initial a name": (lambda path: path.send("ce", None), "initial must be an EcnCodepoint, got 'ce'"),
    "send override an int": (lambda path: path.send(CE, 3), "outer_override must be None or an EcnCodepoint, got 3"),
    "send initial None": (lambda path: path.send(None, None), "initial must be an EcnCodepoint, got None"),
    "send initial an int": (lambda path: path.send(2, CE), "initial must be an EcnCodepoint, got 2"),
    "exchange override an int": (
        lambda path: path.exchange(CE, 2),
        "outer_override must be None or an EcnCodepoint, got 2",
    ),
    "exchange initial a name": (lambda path: path.exchange("ect0"), "initial must be an EcnCodepoint, got 'ect0'"),
}


class PerPacketPath(TunnelPath):
    """Overrides exchange, so its send makes one exchange call per packet."""

    def exchange(self, *args, **kwargs):
        return super().exchange(*args, **kwargs)


@pytest.mark.parametrize("call, message", WRONG_CODEPOINTS.values(), ids=WRONG_CODEPOINTS.keys())
@pytest.mark.parametrize("path_class", [TunnelPath, PerPacketPath], ids=["packet loop", "exchange per packet"])
def test_a_codepoint_of_the_wrong_type_is_refused_before_the_draws(path_class, call, message):
    path = path_class(clean_scenario(servers=2, aqm_ce_probability=0.5, loss_probability=0.5))
    state = path._rng.getstate()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as exc_info:
        call(path)
    assert type(exc_info.value) is ValueError
    assert path._rng.getstate() == state
    assert path.log == []


SEND_SCENARIO = dict(
    egress=DecapBehaviorClass.RFC3168,
    aqm_ce_probability=0.3,
    loss_probability=0.2,
    seed=21,
    servers=3,
    server_bug_mask={1: {CE: ECT0}, 2: {ECT0: NOT_ECT}},
)


def test_send_is_the_exchange_loop_with_servers_varying_fastest():
    for repetitions in (4, 1, 2):
        path = TunnelPath(clean_scenario(**SEND_SCENARIO), repetitions=repetitions)
        twin = TunnelPath(clean_scenario(**SEND_SCENARIO))
        for initial, override in ((ECT0, CE), (NOT_ECT, None), (CE, ECT1)):
            before = len(path.log)
            sent = path.send(initial, override)
            want = [twin.exchange(initial, override, server_id) for _ in range(repetitions) for server_id in range(3)]
            assert sent == want
            assert [record.server_id for record in sent] == [0, 1, 2] * repetitions
            assert path.log[before:] == sent
            assert path.log == twin.log
            assert path._rng.getstate() == twin._rng.getstate()


@pytest.mark.parametrize(
    "servers, repetitions, message",
    [
        (3, 0, "repetitions: must be >= 1"),
        (3, True, "repetitions: must be int, got True"),
        (3, 2.0, "repetitions: must be int, got 2.0"),
        (MAX_PROBES_PER_ROW + 1, 5, "servers x repetitions: 50005 exceeds the limit of 10000"),
        (3, 10**9, "servers x repetitions: 3000000000 exceeds the limit of 10000"),
    ],
    ids=["zero", "a bool", "a float", "servers over the limit", "repetitions over the limit"],
)
def test_path_refuses_repetitions_before_any_draw(monkeypatch, servers, repetitions, message):
    # The check comes before the path seeds its generator.
    seeded = []
    monkeypatch.setattr(simnet.random, "Random", lambda seed: seeded.append(seed))
    scenario = clean_scenario(**dict(SEND_SCENARIO, servers=servers))
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$") as exc_info:
        TunnelPath(scenario, Capability.FULL, repetitions)
    assert exc_info.value.errors == [tuple(message.split(": "))]
    assert seeded == []


def test_scenario_validation():
    with pytest.raises(ValueError):
        clean_scenario(aqm_ce_probability=1.5)
    with pytest.raises(ValueError):
        clean_scenario(loss_probability=-0.1)
    with pytest.raises(ValueError):
        clean_scenario(servers=0)


@pytest.mark.parametrize(
    "mask,where",
    [
        ({7: {CE: ECT0}}, r"server_bug_mask\[7\]: no such server"),
        ({0: {CE: "ect0"}}, r"server_bug_mask\[0\]: .*'ect0'.* does not map codepoints"),
        ({0: {"ce": ECT0}}, r"server_bug_mask\[0\]: .*'ce'.* does not map codepoints"),
        ({0: 5}, r"server_bug_mask\[0\]: 5 is not a mapping"),
    ],
    ids=["server out of range", "value not a codepoint", "key not a codepoint", "not a mapping"],
)
def test_scenario_rejects_a_bad_bug_mask(mask, where):
    # On a one-server scenario; _replace checks the mask it is given too.
    with pytest.raises(ValueError, match=where):
        clean_scenario(servers=1, server_bug_mask=mask)
    with pytest.raises(ValueError, match=where):
        clean_scenario(servers=1)._replace(server_bug_mask=mask)


COPY = EncapPolicy.COPY_EXACT
RFC6040_TABLE = builtin_policy(DecapBehaviorClass.RFC6040)
# Each (inner, outer) cell as mangled_policy names it, in its order.
CELL_NAMES = [f"({i.json_name},{o.json_name})" for i in EcnCodepoint for o in EcnCodepoint]

# Values of a type the field does not take, each refused with a ConfigError
# naming the field: build_scenario wants exactly each CONFIG_TYPES type,
# while Scenario takes an int or a float for a probability; a bool is no
# number to either.
WRONG_TYPES = {
    "config egress an int": (lambda: build_scenario(ScenarioConfig(egress=5)), ConfigError, "egress: must be str, got 5"),
    "config probability a string": (
        lambda: build_scenario(ScenarioConfig(egress="rfc6040", aqm_ce_probability="0.1")),
        ConfigError,
        "aqm_ce_probability: must be float, got '0.1'",
    ),
    "config probability an int": (
        lambda: build_scenario(ScenarioConfig(egress="rfc6040", aqm_ce_probability=1)),
        ConfigError,
        "aqm_ce_probability: must be float, got 1",
    ),
    "config servers a float": (
        lambda: build_scenario(ScenarioConfig(egress="rfc6040", servers=2.5)),
        ConfigError,
        "servers: must be int, got 2.5",
    ),
    "config seed a float": (
        lambda: build_scenario(ScenarioConfig(egress="rfc6040", seed=1.5)),
        ConfigError,
        "seed: must be int, got 1.5",
    ),
    "config seed a bool": (
        lambda: build_scenario(ScenarioConfig(egress="rfc6040", seed=True)),
        ConfigError,
        "seed: must be int, got True",
    ),
    "config with several": (
        lambda: build_scenario(ScenarioConfig(ingress=None, loss_probability=0, repetitions=False)),
        ConfigError,
        "ingress: must be str, got None; loss_probability: must be float, got 0; repetitions: must be int, got False",
    ),
    "scenario servers a float": (lambda: clean_scenario(servers=2.5), ConfigError, "servers: must be int, got 2.5"),
    "scenario servers a bool": (lambda: clean_scenario(servers=True), ConfigError, "servers: must be int, got True"),
    "scenario probability a string": (
        lambda: clean_scenario(loss_probability="0.1"),
        ConfigError,
        "loss_probability: must be int or float, got '0.1'",
    ),
    "scenario probability a bool": (
        lambda: clean_scenario(aqm_ce_probability=False),
        ConfigError,
        "aqm_ce_probability: must be int or float, got False",
    ),
    "scenario seed a float": (lambda: clean_scenario(seed=1.5), ConfigError, "seed: must be int, got 1.5"),
    "scenario bug mask a list": (
        lambda: clean_scenario(server_bug_mask=[(0, {})]),
        ConfigError,
        "server_bug_mask: [(0, {})] is not a mapping",
    ),
    "scenario ingress a name": (
        lambda: Scenario(ingress="copy", egress=RFC6040_TABLE),
        ConfigError,
        "ingress: must be an EncapPolicy, got 'copy'",
    ),
    "scenario egress empty": (
        lambda: Scenario(ingress=COPY, egress={}),
        ConfigError,
        f"egress: table incomplete: missing {', '.join(CELL_NAMES)}",
    ),
    "scenario egress a class name": (
        lambda: Scenario(ingress=COPY, egress=DecapBehaviorClass.RFC6040),
        ConfigError,
        "egress: table is not a mapping: DecapBehaviorClass",
    ),
    "scenario egress onward a name": (
        lambda: Scenario(ingress=COPY, egress=dict.fromkeys(RFC6040_TABLE, "ce")),
        ConfigError,
        "egress: table outcomes must be None or an EcnCodepoint: " + ", ".join(f"{c} -> 'ce'" for c in CELL_NAMES),
    ),
    "scenario egress onward a list": (
        lambda: Scenario(ingress=COPY, egress=dict.fromkeys(RFC6040_TABLE, [])),
        ConfigError,
        "egress: table outcomes must be None or an EcnCodepoint: " + ", ".join(f"{c} -> []" for c in CELL_NAMES),
    ),
}


@pytest.mark.parametrize("make, error, message", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
def test_a_value_of_the_wrong_type_is_refused(make, error, message):
    with pytest.raises(error) as exc_info:
        make()
    assert type(exc_info.value) is error
    assert str(exc_info.value) == message


# Candidate egress tables: the 16 cells, some perhaps missing, others
# perhaps mapped to a wrong-typed outcome, with perhaps a key outside the
# cells, as a dict or a read-only view; or no mapping at all.
CELLS = list(itertools.product(EcnCodepoint, EcnCodepoint))
outcomes = st.sampled_from([None, *CODEPOINTS])
wrong_outcomes = st.one_of(st.text(max_size=2), st.integers(0, 3), st.booleans(), st.lists(st.none(), max_size=1))
stray_keys = st.one_of(st.text(max_size=2), st.integers(), st.tuples(*[st.sampled_from(CODEPOINTS)] * 3))


@st.composite
def egress_tables(draw):
    table = draw(st.fixed_dictionaries({cell: outcomes for cell in CELLS}))
    for cell in draw(st.sets(st.sampled_from(CELLS), max_size=3)):
        del table[cell]
    table.update(draw(st.dictionaries(st.sampled_from(CELLS), wrong_outcomes, max_size=2)))
    table.update(draw(st.dictionaries(stray_keys, outcomes | wrong_outcomes, max_size=1)))
    return draw(st.sampled_from([table, MappingProxyType(table)]))


non_mappings = st.sampled_from([None, 3, DecapBehaviorClass.RFC6040, list(RFC6040_TABLE.items())])


@settings(max_examples=300, deadline=None, database=None)
@given(egress_tables() | non_mappings)
def test_scenario_checks_its_egress_by_mangled_policy(table):
    try:
        expected = mangled_policy(table)
    except ValueError as exc:
        with pytest.raises(ConfigError) as exc_info:
            Scenario(COPY, table)
        assert exc_info.value.errors == [("egress", str(exc))]
    else:
        scenario = Scenario(COPY, table)
        assert scenario.egress == expected
        assert scenario.egress is not table


def test_scenario_refuses_a_negative_seed_as_a_config_does():
    # random.Random seeds from the absolute value, so -7 would replay seed 7.
    with pytest.raises(ValueError, match="^seed: must be a non-negative integer$"):
        clean_scenario(seed=-7)
    with pytest.raises(ConfigError, match="^seed: must be a non-negative integer$"):
        build_scenario(ScenarioConfig(egress="rfc6040", seed=-7))


def test_scenario_takes_an_int_probability():
    assert clean_scenario(aqm_ce_probability=1, loss_probability=0).aqm_ce_probability == 1


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


def test_a_parsed_custom_table_is_shared_like_a_built_in(monkeypatch):
    # build_scenario's scenario holds the very table parse_custom_table returned: it neither checks nor copies
    # it again.  A caller's own equal table is still checked and copied, and a path takes its outcomes from it.
    text = custom_table_text(mangled_random(11))
    checked = []
    monkeypatch.setattr(simnet, "mangled_policy", lambda table: checked.append(table) or mangled_policy(table))
    scenario = build_scenario(ScenarioConfig(egress="custom:" + text))
    assert scenario.egress is simnet.parse_custom_table(text)
    assert checked == []
    own = Scenario(EncapPolicy.COPY_EXACT, mangled_random(11))
    assert own.egress == scenario.egress and own.egress is not scenario.egress
    assert len(checked) == 1
    assert TunnelPath(scenario)._outcomes == TunnelPath(own)._outcomes == simnet_outcomes(mangled_random(11), {})


simnet_outcomes = simnet._outcomes


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


def test_a_record_has_the_same_text_in_every_trace(fresh_stores):
    # Text kept from one trace is reused by every later one, whatever records
    # it is mixed with, also for an equal record built anew: the memo holds
    # one entry per distinct record and never rebuilds it.
    first, second = list(writable_records(0)), list(writable_records(10))
    rng = random.Random(5)
    copies = [ExchangeResult(*record) for record in second[:20]]
    seen, kept = set(), {}
    for sequence in (first, second, rng.sample(first + second, 300), first[::-1], first[:5] + copies * 3):
        assert serialize_trace(sequence) == reference_serialize_trace(sequence)
        seen.update(sequence)
        assert simnet._TRACE_PIECES.keys() == seen
        for record in sequence:
            assert simnet._TRACE_PIECES[record] is kept.setdefault(record, simnet._TRACE_PIECES[record])


def test_a_server_number_equal_to_an_int_is_written_as_itself(fresh_stores):
    # True and 1.0 equal the int 1, so their records equal server 1's and
    # would share its memo entry.  Each is written as itself, traced before
    # and after the int records, alone and mixed in one trace, and the memo
    # keeps only records whose server number is an int.
    ints = list(writable_records(1))[:30]
    for other in (True, 1.0):
        simnet._TRACE_PIECES.clear()
        others = [record._replace(server_id=other) for record in ints]
        assert others == ints
        for sequence in (others, ints, others, others[:10] + ints[10:20] + others[20:]):
            assert serialize_trace(sequence) == reference_serialize_trace(sequence)
            assert serialize_trace(iter(sequence)) == reference_serialize_trace(sequence)
            assert {type(record.server_id) for record in simnet._TRACE_PIECES} <= {int}
        assert len(simnet._TRACE_PIECES) == len(ints)


def test_traces_longer_than_the_number_cap_match_the_reference(fresh_stores, monkeypatch):
    # Numbers up to the cap are kept as traces first reach them; later ones
    # are built for each trace.  A small cap, then the module's own.
    records = list(writable_records(3))
    rng = random.Random(7)
    for cap, lengths in ((10, (3, 12, 7, 10, 11, 25, 0)), (simnet._MAX_NUMBERS, (simnet._MAX_NUMBERS + 20,))):
        monkeypatch.setattr(simnet, "_MAX_NUMBERS", cap)
        monkeypatch.setattr(simnet, "_NUMBERS", [])
        longest = 0
        for length in lengths:
            sequence = rng.choices(records, k=length)
            assert serialize_trace(iter(sequence)) == reference_serialize_trace(sequence)
            longest = max(longest, length)
            assert simnet._NUMBERS == [str(i) for i in range(min(cap, longest))]


# ---------------------------------------------------------------------------
# TunnelPath against the models it tabulates


class ReferencePath:
    """Exchanges from ``paper_model.packet``, one packet at a time, drawing
    from ``rng``, seeded as the path's; the scenario is read in the model's
    names and each exchange translated back."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.rng = random.Random(scenario.seed)
        self.table = {(NAME[inner], NAME[outer]): NAME[onward] for (inner, outer), onward in scenario.egress.items()}
        self.bugs = {
            server: {NAME[cp]: NAME[fed_back] for cp, fed_back in bugs.items()}
            for server, bugs in (scenario.server_bug_mask or {}).items()
        }

    def exchange(self, initial, outer_override=None, server_id=0):
        sc = self.scenario
        override = None if outer_override is None else NAME[outer_override]
        sent, onward, feedback = paper_model.packet(
            self.table, sc.ingress.value, NAME[initial], override, sc.aqm_ce_probability, sc.loss_probability,
            self.bugs.get(server_id, {}), self.rng.random,
        )
        sent, onward, feedback = (OUTCOME_BY_NAME[name] for name in (sent, onward, feedback))
        return ExchangeResult(feedback, server_id, initial, sent, onward)


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


def reference_send(reference, servers, repetitions, initial, outer_override):
    """One probe through ReferencePath, one packet at a time, servers varying fastest."""
    packets = [server_id for _ in range(repetitions) for server_id in range(servers)]
    return [reference.exchange(initial, outer_override, server_id) for server_id in packets]


# Scenarios for the send property: any of the equivalence egresses, or a
# seeded random table; every ingress; AQM and loss rates of 0, 1 or anywhere
# between; 1-4 servers, an optional bug mask on some of them, any seed.
probability = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
egresses = st.one_of(st.sampled_from(list(EQUIVALENCE_EGRESSES.values())), st.integers(0, 2**32).map(mangled_random))
bug_masks = st.dictionaries(st.sampled_from(CODEPOINTS), st.sampled_from(CODEPOINTS))


@st.composite
def send_scenarios(draw):
    servers = draw(st.integers(1, 4))
    return Scenario(
        ingress=draw(st.sampled_from(EncapPolicy)),
        egress=draw(egresses),
        aqm_ce_probability=draw(probability),
        loss_probability=draw(probability),
        seed=draw(st.integers(0, 2**32)),
        servers=servers,
        server_bug_mask=draw(st.none() | st.dictionaries(st.integers(0, servers - 1), bug_masks)),
    )


# Every (initial, outer override) pair a probe can send, None for no override.
PROBES = list(itertools.product(EcnCodepoint, (None,) + tuple(EcnCodepoint)))


@settings(max_examples=200, deadline=None, database=None)
@given(send_scenarios(), st.integers(1, 6), st.permutations(PROBES))
def test_send_matches_the_reference_packet_loop(scenario, repetitions, probes):
    path, reference = TunnelPath(scenario, repetitions=repetitions), ReferencePath(scenario)
    expected_log = []
    for initial, outer_override in probes:
        want = reference_send(reference, scenario.servers, repetitions, initial, outer_override)
        assert path.send(initial, outer_override) == want, (initial, outer_override)
        expected_log += want
    assert path.log == expected_log
    assert path._rng.getstate() == reference.rng.getstate()
    assert serialize_trace(path.log) == reference_serialize_trace(expected_log)


BUILTIN_TABLES = [builtin_policy(b) for b in CONFORMANT_CLASSES]
# Probes that send_each refuses: an initial or an override that is not a codepoint.
BAD_PROBES = [("ce", None), (CE, 3), (None, None), (2, CE)]


@st.composite
def send_each_paths(draw):
    """A path over a built-in or seeded random table, any ingress, AQM and loss in [0, 0.5], 1-4 servers with an
    optional bug mask on some of them, any seed and 1-6 repetitions, as (scenario, repetitions)."""
    servers = draw(st.integers(1, 4))
    scenario = Scenario(
        ingress=draw(st.sampled_from(EncapPolicy)),
        egress=draw(st.sampled_from(BUILTIN_TABLES) | st.integers(0, 2**32).map(mangled_random)),
        aqm_ce_probability=draw(st.floats(0.0, 0.5)),
        loss_probability=draw(st.floats(0.0, 0.5)),
        seed=draw(st.integers(0, 2**32)),
        servers=servers,
        server_bug_mask=draw(st.none() | st.dictionaries(st.integers(0, servers - 1), bug_masks)),
    )
    return scenario, draw(st.integers(1, 6))


@settings(max_examples=150, deadline=None, database=None)
@given(send_each_paths(), st.lists(st.sampled_from(PROBES), min_size=1, max_size=5), st.sampled_from(BAD_PROBES))
@example((clean_scenario(servers=2), 2), [(ECT0, CE), (CE, None)], ("ce", None))
def test_send_each_is_one_send_per_probe(path_args, probes, bad):
    scenario, repetitions = path_args
    path, twin, per_packet = (kind(scenario, repetitions=repetitions) for kind in (TunnelPath, TunnelPath, PerPacketPath))
    # An invalid probe anywhere in the list is refused before the first draw.
    state = path._rng.getstate()
    for at in range(len(probes) + 1):
        for each in (path, per_packet):
            with pytest.raises(ValueError):
                each.send_each([*probes[:at], bad, *probes[at:]])
            assert each.log == [] and each._rng.getstate() == state, at
    sent = path.send_each(probes)
    assert sent == [twin.send(*probe) for probe in probes]
    assert path.log == twin.log == [record for records in sent for record in records]
    assert path._rng.getstate() == twin._rng.getstate()
    assert per_packet.send_each(probes) == sent
    assert per_packet.log == path.log
    assert per_packet._rng.getstate() == path._rng.getstate()
    # A one-probe generator is read once, on either route.
    for kind in (TunnelPath, PerPacketPath):
        assert kind(scenario, repetitions=repetitions).send_each(probe for probe in probes[:1]) == sent[:1]


def test_equal_exchanges_share_one_record(fresh_stores):
    path = TunnelPath(clean_scenario(servers=2))
    forwarded = path.exchange(ECT0, CE, server_id=1)
    dropped = path.exchange(NOT_ECT, CE)
    assert path.exchange(ECT0, CE, server_id=1) is forwarded
    assert path.exchange(NOT_ECT, CE) is dropped
    assert path.log == [forwarded, dropped, forwarded, dropped]


def test_each_exchange_field_gives_its_own_record(fresh_stores):
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


def test_paths_give_equal_records_across_seeds_egresses_and_ingresses(fresh_stores):
    # Overriding the outer with CE hides the ingress; RFC 6040 and RFC 3168
    # agree on (ECT(0), CE) and both drop (Not-ECT, CE), and a loss leaves
    # a record equal to an egress drop's.
    # Each path is built only after the one before it has run.
    first = TunnelPath(clean_scenario(DecapBehaviorClass.RFC6040, EncapPolicy.COPY_EXACT, seed=1))
    forwarded = first.exchange(ECT0, CE)
    dropped = first.exchange(NOT_ECT, CE)
    assert forwarded.feedback is CE and dropped.feedback is None
    second = TunnelPath(clean_scenario(DecapBehaviorClass.RFC3168, EncapPolicy.RFC3168_FULL, seed=2))
    assert second.exchange(ECT0, CE) == forwarded
    assert second.exchange(NOT_ECT, CE) == dropped
    lossy = TunnelPath(clean_scenario(DecapBehaviorClass.RFC4301, EncapPolicy.ZERO_OUTER, seed=3, loss_probability=1.0))
    assert lossy.exchange(NOT_ECT, CE) == dropped
    assert TunnelPath(clean_scenario(servers=2)).exchange(ECT0, CE, server_id=1) != forwarded


def test_a_shared_record_holds_no_object_the_caller_passed(fresh_stores):
    # True is server 1 to the range check and the key, so it gets server
    # 1's record, which a later path must not see as True.
    scenario = clean_scenario(servers=2)
    assert TunnelPath(scenario).exchange(CE, server_id=True).server_id == 1
    path = TunnelPath(scenario)
    record = path.exchange(CE, server_id=1)
    assert type(record.server_id) is int and record.server_id == 1
    assert serialize_trace(path.log).splitlines()[0] == "0 1 Initial 03 CE"


def test_every_exchange_gives_its_own_exact_record(fresh_stores):
    # Every record an exchange can make at servers 0-3: each inner, captured
    # outer and outcome (the 16 onward x feedback pairs, and a drop), 1,088
    # in all, made through constant egress tables and bug masks.
    cells = list(itertools.product(EcnCodepoint, EcnCodepoint))
    records = []
    for onward, feedback in [*itertools.product(EcnCodepoint, EcnCodepoint), (None, None)]:
        mask = None if onward is None else dict.fromkeys(range(4), {onward: feedback})
        path = TunnelPath(
            Scenario(EncapPolicy.COPY_EXACT, dict.fromkeys(cells, onward), servers=4, server_bug_mask=mask)
        )
        for server_id, inner, outer in itertools.product(range(4), EcnCodepoint, EcnCodepoint):
            record = path.exchange(inner, outer, server_id)
            assert record == ExchangeResult(feedback, server_id, inner, outer, onward)
            records.append(record)
    assert len(set(records)) == len(records) == 1088


def test_a_wide_noisy_path_matches_the_reference(fresh_stores):
    # Two exchanges per (server, initial) pair on 1,536 servers over a noisy
    # random table, every other server's with a CE override: the plans of
    # its 8 cells hold 4,608 records each, so the plan store is cleared on
    # the way.  Every exchange must still give its reference record.
    servers = 1536
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
    for server_id, initial in shapes * 2:
        got = path.exchange(initial, CE if server_id % 2 else None, server_id)
        want = reference.exchange(initial, CE if server_id % 2 else None, server_id)
        assert got == want
        expected_log.append(want)
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


@pytest.fixture
def built_records(fresh_stores, monkeypatch):
    """Every ExchangeResult simnet builds in the test, on an empty plan store."""
    built = []

    def build(*fields):
        built.append(ExchangeResult(*fields))
        return built[-1]

    monkeypatch.setattr(simnet, "ExchangeResult", build)
    return built


def planned_records():
    """The records the plan store counts: 3 per server, the key's second field, for each plan (keyed by its cell)
    and for each plan of a phase (keyed by its probes' id and the ingress's outer bits)."""
    return sum(
        3 * key[1] * sum(1 if type(entry) is int else len(value[1]) for entry, value in plans.items())
        for key, plans in simnet._PLANS.items()
    )


def test_plans_stay_within_their_cap(built_records):
    # 64-server paths over fresh random tables: each probe's plan holds 192
    # records, and the 16 cells of a path's 20 probes take 3,072, so four
    # paths fill the store.  Sampled after each send, it must come within one
    # plan of its cap, never pass it, be cleared, and still give every path
    # its reference records.
    sizes = []
    for seed in range(6):
        scenario = Scenario(EncapPolicy.COPY_EXACT, mangled_random(seed), 0.5, 0.5, seed, servers=64)
        path, reference = TunnelPath(scenario, repetitions=1), ReferencePath(scenario)
        for initial, override in PROBES:
            assert path.send(initial, override) == reference_send(reference, 64, 1, initial, override)
            sizes.append(planned_records())
    assert MAX_PLANNED_RECORDS - 192 < max(sizes) <= MAX_PLANNED_RECORDS
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))

    # A plan of more records than the cap is used by its own path, for every
    # send of its probe, but not kept: the store does not change, and a second
    # path builds it again.
    servers = MAX_PLANNED_RECORDS // 3 + 1
    kept = {key: dict(plans) for key, plans in simnet._PLANS.items()}
    scenario = clean_scenario(aqm_ce_probability=0.5, loss_probability=0.5, seed=3, servers=servers)
    for _ in range(2):
        path, reference = TunnelPath(scenario, repetitions=1), ReferencePath(scenario)
        for rebuilt in (True, False):
            built_records.clear()
            assert path.send(ECT0, None) == reference_send(reference, servers, 1, ECT0, None)
            assert bool(built_records) is rebuilt
        assert simnet._PLANS == kept
        assert path._rng.getstate() == reference.rng.getstate()


def test_a_second_path_over_the_same_table_builds_no_record_and_no_plan(built_records):
    # Once a path has sent every probe, another with the same table, server
    # count and bug mask finds every plan built, whatever its seed, noise or
    # ingress (a probe's plan is keyed by its captured outer), also when it
    # was made before the first path sent: it builds no record.  An
    # equal custom table built separately shares too.  A path with another
    # server count or bug mask builds its own plans.  Every path is made
    # before any of them sends.
    def variant(**changes):
        return clean_scenario(**dict(SEND_SCENARIO, **changes))

    def custom():
        return Scenario(EncapPolicy.COPY_EXACT, mangled_random(9), 0.5, 0.5, servers=2)

    # (scenario, whether it builds records), in order.
    runs = [
        (variant(), True),
        (variant(seed=4, aqm_ce_probability=1.0, ingress=EncapPolicy.ZERO_OUTER), False),
        (variant(servers=2, server_bug_mask={1: {CE: ECT0}}), True),
        (variant(server_bug_mask={1: {CE: ECT0}}), True),
        (variant(server_bug_mask=None), True),
        (custom(), True),
        (custom(), False),
    ]
    paths = [TunnelPath(scenario) for scenario, _ in runs]
    for path, (scenario, builds) in zip(paths, runs):
        built_records.clear()
        reference = ReferencePath(scenario)
        for initial, override in PROBES:
            want = reference_send(reference, scenario.servers, 5, initial, override)
            assert path.send(initial, override) == want, (scenario, initial, override)
        assert bool(built_records) is builds, scenario
        assert path._rng.getstate() == reference.rng.getstate()


def test_a_plan_builds_each_distinct_record_of_a_triple_once(built_records):
    # A clean 1-server RFC 6040 path with copy ingress.  AQM marks only an
    # ECT outer, so with a Not-ECT or CE outer the marked record is the
    # unmarked one; an egress drop's record is the lost one.  (Not-ECT, CE)
    # is both; (Not-ECT, ECT(0)) is AQM-marked into a drop.
    path = TunnelPath(clean_scenario())
    for initial, override, built in [(NOT_ECT, CE, 1), (NOT_ECT, None, 2), (ECT0, None, 3), (NOT_ECT, ECT0, 2)]:
        built_records.clear()
        triple = path._plan(initial, override)[0]
        assert len(built_records) == len(set(built_records)) == len({*map(id, triple)}) == built, (initial, override)
        assert triple[2] == ExchangeResult(None, 0, initial, override or initial, None)


# Paths for the sharing property: RFC 3168's built-in table, with or without
# a bug mask, or a random table built anew for each path, so equal tables
# are separate objects; 1-4 servers; the packet loop or a subclass whose
# exchange runs once per packet.
SHARING_MASKS = ({CE: ECT0}, {ECT0: NOT_ECT, CE: ECT1})


@st.composite
def sharing_runs(draw):
    """(path specs, steps, plan-store cap): a spec is (table, servers, bug mask, per packet, seed, aqm, loss,
    repetitions); a step is (path index, initial, override, server id or None for a send)."""
    specs = []
    for _ in range(draw(st.integers(2, 5))):
        servers = draw(st.integers(1, 4))
        masks = st.dictionaries(st.integers(0, servers - 1), st.sampled_from(range(len(SHARING_MASKS))), min_size=1)
        specs.append((
            draw(st.sampled_from(["rfc3168", "random"])), servers, draw(st.none() | masks), draw(st.booleans()),
            draw(st.integers(0, 2**32)), draw(probability), draw(probability), draw(st.integers(1, 3)),
        ))
    steps = draw(st.lists(
        st.tuples(st.integers(0, len(specs) - 1), st.sampled_from(PROBES), st.none() | st.integers(0, 3)),
        min_size=1, max_size=40,
    ))
    cap = draw(st.sampled_from([MAX_PLANNED_RECORDS, 3, 12, 24, 60]))
    return specs, [(index, initial, override, server) for index, (initial, override), server in steps], cap


def sharing_path(spec):
    """(path, reference) for one sharing spec, each table and mask built anew."""
    table, servers, mask, per_packet, seed, aqm, loss, repetitions = spec
    egress = builtin_policy(DecapBehaviorClass.RFC3168) if table == "rfc3168" else mangled_random(17)
    bug_mask = None if mask is None else {server: dict(SHARING_MASKS[which]) for server, which in mask.items()}
    scenario = Scenario(EncapPolicy.COPY_EXACT, egress, aqm, loss, seed, servers, bug_mask)
    return (PerPacketPath if per_packet else TunnelPath)(scenario, repetitions=repetitions), ReferencePath(scenario)


@settings(max_examples=200, deadline=None, database=None)
@given(sharing_runs())
@example((
    [("rfc3168", 2, None, False, 1, 0.0, 0.0, 1), ("rfc3168", 2, {1: 0}, False, 2, 0.0, 0.0, 1),
     ("rfc3168", 3, None, True, 3, 0.0, 0.0, 1)],
    [(0, CE, None, None), (1, CE, None, None), (2, CE, None, None)],
    MAX_PLANNED_RECORDS,
))
def test_paths_sharing_one_plan_store_match_the_reference(run):
    specs, steps, cap = run
    with pytest.MonkeyPatch.context() as patch:
        empty_stores(patch)
        patch.setattr(simnet, "MAX_PLANNED_RECORDS", cap)
        # Each path is made at its first step, so it finds the plans of those that ran before it.
        paths, expected_logs = {}, {}
        for index, initial, override, server in steps:
            spec = specs[index]
            if index not in paths:
                paths[index], expected_logs[index] = sharing_path(spec), []
            path, reference = paths[index]
            if server is None:
                want = reference_send(reference, spec[1], spec[-1], initial, override)
                assert path.send(initial, override) == want, (index, initial, override)
            else:
                want = [reference.exchange(initial, override, server % spec[1])]
                assert [path.exchange(initial, override, server % spec[1])] == want, (index, initial, override)
            expected_logs[index] += want
            assert planned_records() <= cap
        for index, (path, reference) in paths.items():
            expected_log = expected_logs[index]
            assert path.log == expected_log
            assert path._rng.getstate() == reference.rng.getstate()
            assert serialize_trace(path.log) == reference_serialize_trace(expected_log)


# The probe tuples a session's phases send: each control pass's and each capability's rows.
PHASES = (*_CONTROL_PROBES.values(), *map(probe_rows, Capability))


@settings(max_examples=100, deadline=None, database=None)
@given(
    send_each_paths(),
    st.lists(st.sampled_from(EncapPolicy), min_size=1, max_size=4),
    st.lists(st.sampled_from(PHASES), min_size=1, max_size=6),
    st.sampled_from(BAD_PROBES),
    st.sampled_from([MAX_PLANNED_RECORDS, 12, 60, 240]),
)
@example(
    (clean_scenario(aqm_ce_probability=0.3, loss_probability=0.3), 2),
    [EncapPolicy.COPY_EXACT, EncapPolicy.ZERO_OUTER],
    [PHASES[0], PHASES[2], PHASES[0]],
    ("ce", None),
    MAX_PLANNED_RECORDS,
)
def test_a_phase_sent_again_gives_the_records_of_one_send_per_probe(path_args, ingresses, phases, bad, cap):
    # Sessions on fresh paths share the plan store; each ingress's session, a zero-ingress one after a
    # copy-ingress one included, must match a twin path that sends one probe at a time, also when the store
    # passes a small cap and is cleared mid-run.
    scenario, repetitions = path_args
    with pytest.MonkeyPatch.context() as patch:
        empty_stores(patch)
        patch.setattr(simnet, "MAX_PLANNED_RECORDS", cap)
        for number, ingress in enumerate(ingresses * 2):
            session = scenario._replace(ingress=ingress, seed=scenario.seed + number)
            path, twin = TunnelPath(session, repetitions=repetitions), TunnelPath(session, repetitions=repetitions)
            for probes in phases:
                assert path.send_each(probes) == [twin.send(*probe) for probe in probes], (ingress, probes)
                assert planned_records() == simnet._planned_records <= cap
            assert path.log == twin.log
            assert path._rng.getstate() == twin._rng.getstate()

        # A sequence that is not this very tuple of tuples is checked and planned probe by probe, every time.
        planned, plan = [], TunnelPath._plan
        patch.setattr(TunnelPath, "_plan", lambda self, *probe: planned.append(probe) or plan(self, *probe))
        probes = phases[0]
        listed, holding_a_list = [*probes], (*probes[:-1], [*probes[-1]])
        for variant in (lambda: tuple([*probes]), lambda: listed, lambda: iter(probes), lambda: holding_a_list):
            for _ in range(2):
                planned.clear()
                path, twin = TunnelPath(scenario, repetitions=repetitions), TunnelPath(scenario, repetitions=repetitions)
                assert path.send_each(variant()) == [twin.send(*probe) for probe in probes]
                assert planned[:len(probes)] == [*probes]
                assert path.log == twin.log and path._rng.getstate() == twin._rng.getstate()
        listed[-1], holding_a_list[-1][:] = bad, bad
        path = TunnelPath(scenario, repetitions=repetitions)
        for changed in (listed, holding_a_list):
            with pytest.raises(ValueError):
                path.send_each(changed)

        # An invalid probe at any position is refused before any draw, after the engine's tuples are stored.
        state = path._rng.getstate()
        for at in range(len(probes) + 1):
            with pytest.raises(ValueError):
                path.send_each((*probes[:at], bad, *probes[at:]))
            assert path.log == [] and path._rng.getstate() == state


def test_fresh_probe_tuples_keep_the_plan_store_within_its_bound(fresh_stores):
    # Each one-probe tuple is kept as a phase of 3 records until the store is cleared.
    path = TunnelPath(clean_scenario(servers=1), repetitions=1)
    for sent in range(1, 10_001):
        path.send_each(((ECT0, None),))
        if sent % 1000 == 0:
            assert planned_records() == simnet._planned_records <= MAX_PLANNED_RECORDS
    assert len(path.log) == 10_000
