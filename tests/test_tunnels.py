import pytest

from ecnprobe.ecn import EcnCodepoint
from ecnprobe.engine import Classification, run_probe_session
from ecnprobe.simnet import ConfigError, ScenarioConfig, build_scenario
from ecnprobe.tunnels import (
    CONFORMANT_CLASSES,
    OUTCOME_BY_NAME,
    OUTCOME_LABEL,
    OUTCOME_NAME,
    OUTCOME_ORDER,
    REFERENCE_SIGNATURES,
    Capability,
    DecapBehaviorClass,
    EncapPolicy,
    PROBE_ROWS,
    builtin_policy,
    custom_table_text,
    decap,
    encap,
    mangled_copy_outer,
    mangled_policy,
    mangled_random,
    mangled_zero_all,
    parse_custom_table,
    probe_rows,
    reference_signature,
    signature_of_policy,
)

NOT_ECT = EcnCodepoint.NOT_ECT
ECT0 = EcnCodepoint.ECT0
ECT1 = EcnCodepoint.ECT1
CE = EcnCodepoint.CE

# Expected outcomes of the probed rows per behaviour, frozen by hand from
# the standards' decapsulation rules.  None means the packet is dropped.
EXPECTED_OUTCOMES = {
    DecapBehaviorClass.RFC6040: (None, CE, CE, ECT1),
    DecapBehaviorClass.RFC4301: (NOT_ECT, CE, CE, ECT0),
    DecapBehaviorClass.RFC3168: (None, CE, CE, ECT0),
    DecapBehaviorClass.RFC2003_SIMPLE: (NOT_ECT, ECT1, ECT0, ECT0),
}

EXPECTED_PROBE_ROWS = ((NOT_ECT, CE), (ECT1, CE), (ECT0, CE), (ECT0, ECT1))


def test_probe_rows_are_the_expected_rows():
    assert PROBE_ROWS == EXPECTED_PROBE_ROWS


def test_probe_rows_by_capability():
    assert probe_rows(Capability.FULL) == EXPECTED_PROBE_ROWS
    # a CE-only device cannot write the ECT(1) outer of the last row
    assert probe_rows(Capability.CE_ONLY) == EXPECTED_PROBE_ROWS[:3]


@pytest.mark.parametrize("behavior", CONFORMANT_CLASSES)
def test_decap_matches_expected_row_outcomes(behavior):
    policy = builtin_policy(behavior)
    for row, cell in zip(EXPECTED_PROBE_ROWS, EXPECTED_OUTCOMES[behavior]):
        inner, outer = row
        assert decap(policy, inner, outer) is cell


@pytest.mark.parametrize("behavior", CONFORMANT_CLASSES)
def test_reference_signature_matches_frozen_expectations(behavior):
    expected = EXPECTED_OUTCOMES[behavior]
    assert reference_signature(behavior, Capability.FULL) == expected
    assert reference_signature(behavior, Capability.CE_ONLY) == expected[:3]


def test_full_signatures_pairwise_distinct():
    signatures = [reference_signature(b, Capability.FULL) for b in CONFORMANT_CLASSES]
    assert len(set(signatures)) == 4


def test_ce_only_signature_collision():
    # losing the ECT(1) overwrite row makes RFC 6040 and RFC 3168 identical
    sig_6040 = reference_signature(DecapBehaviorClass.RFC6040, Capability.CE_ONLY)
    sig_3168 = reference_signature(DecapBehaviorClass.RFC3168, Capability.CE_ONLY)
    sig_4301 = reference_signature(DecapBehaviorClass.RFC4301, Capability.CE_ONLY)
    sig_2003 = reference_signature(DecapBehaviorClass.RFC2003_SIMPLE, Capability.CE_ONLY)
    assert sig_6040 == sig_3168
    assert len({sig_6040, sig_4301, sig_2003}) == 3


def test_mangled_has_no_reference_signature():
    # "mangled" is what no class's signature matches, not a class of its own.
    assert [b.json_name for b in DecapBehaviorClass] == ["rfc6040", "rfc4301", "rfc3168", "rfc2003"]
    assert CONFORMANT_CLASSES == tuple(DecapBehaviorClass)
    for table in (mangled_zero_all(), mangled_copy_outer()):
        for capability, signatures in REFERENCE_SIGNATURES.items():
            assert signature_of_policy(table, capability) not in signatures.values()


def test_simple_tunnel_preserves_inner_everywhere():
    table = builtin_policy(DecapBehaviorClass.RFC2003_SIMPLE)
    assert len(table) == 16
    for (inner, _outer), outcome in table.items():
        assert outcome == inner


def test_profile_spot_checks():
    rfc6040 = builtin_policy(DecapBehaviorClass.RFC6040)
    rfc3168 = builtin_policy(DecapBehaviorClass.RFC3168)
    rfc4301 = builtin_policy(DecapBehaviorClass.RFC4301)
    assert rfc6040[(CE, ECT0)] == CE
    assert rfc6040[(NOT_ECT, CE)] is None
    assert rfc6040[(ECT1, ECT0)] == ECT1
    assert rfc3168[(NOT_ECT, CE)] is None
    assert rfc3168[(ECT0, ECT1)] == ECT0
    assert rfc4301[(ECT0, ECT1)] == ECT0
    assert rfc4301[(NOT_ECT, CE)] == NOT_ECT


def test_inner_ce_always_survives_decap():
    # every behaviour that looks at the headers keeps a CE inner marked
    for behavior in CONFORMANT_CLASSES:
        table = builtin_policy(behavior)
        for outer in EcnCodepoint:
            assert table[(CE, outer)] == CE


@pytest.mark.parametrize("behavior", CONFORMANT_CLASSES)
def test_profiles_are_total(behavior):
    assert set(builtin_policy(behavior)) == {(i, o) for i in EcnCodepoint for o in EcnCodepoint}


def test_decap_table_must_be_total():
    with pytest.raises(ValueError, match=r"missing \(not_ect,ect1\)"):
        mangled_policy({(NOT_ECT, NOT_ECT): None})


def test_mangled_policy_keeps_only_the_cells():
    # Equal decapsulation means equal tables: a key outside the 16 cells is dropped.
    rfc6040 = builtin_policy(DecapBehaviorClass.RFC6040)
    assert mangled_policy({**rfc6040, "extra": None}) == rfc6040


def test_mangled_policy_names_every_missing_cell():
    with pytest.raises(ValueError) as exc_info:
        mangled_policy({})
    message = str(exc_info.value)
    cells = ", ".join(f"({i.json_name},{o.json_name})" for i in EcnCodepoint for o in EcnCodepoint)
    assert message == f"table incomplete: missing {cells}"
    # The config path reports the same text.
    with pytest.raises(ConfigError) as config_error:
        build_scenario(ScenarioConfig(egress="custom:"))
    assert config_error.value.errors == [("egress", message)]


def test_encap_examples():
    assert encap(EncapPolicy.COPY_EXACT, CE) is CE
    assert encap(EncapPolicy.ZERO_OUTER, ECT0) is NOT_ECT
    assert encap(EncapPolicy.RFC3168_FULL, NOT_ECT) is NOT_ECT
    # full-functionality encap hides the CE mark from the outer
    assert encap(EncapPolicy.RFC3168_FULL, CE) is ECT0


def test_builtin_tables_are_read_only():
    # Every rfc6040 egress shares one table.
    table = builtin_policy(DecapBehaviorClass.RFC6040)
    original = table[(NOT_ECT, CE)]
    try:
        with pytest.raises(TypeError):
            table[(NOT_ECT, CE)] = NOT_ECT
    finally:
        # A writable table took the write: undo it, so only this test fails.
        if table[(NOT_ECT, CE)] != original:
            table[(NOT_ECT, CE)] = original
    result = run_probe_session(build_scenario(ScenarioConfig(egress="rfc6040")))
    assert result.classification == Classification.single(DecapBehaviorClass.RFC6040)


def test_custom_tables_are_read_only():
    text = custom_table_text(mangled_copy_outer())
    for table in (
        mangled_policy(dict(mangled_zero_all())),
        parse_custom_table(text),
        build_scenario(ScenarioConfig(egress="custom:" + text)).egress,
    ):
        before = dict(table)
        with pytest.raises(TypeError):
            table[(NOT_ECT, CE)] = None
        assert dict(table) == before


def test_mangled_zero_all():
    assert all(outcome == NOT_ECT for outcome in mangled_zero_all().values())


def test_mangled_copy_outer():
    for (_inner, outer), outcome in mangled_copy_outer().items():
        assert outcome == outer


def test_mangled_random_is_seed_stable():
    assert mangled_random(99) == mangled_random(99)
    assert mangled_random(99) != mangled_random(100)


def test_custom_table_round_trip():
    table = mangled_copy_outer()
    text = custom_table_text(table)
    reparsed = parse_custom_table(text)
    assert reparsed == table
    assert custom_table_text(reparsed) == text


def test_custom_table_accepts_builtin_shape():
    table = parse_custom_table(custom_table_text(builtin_policy(DecapBehaviorClass.RFC6040)))
    assert table == builtin_policy(DecapBehaviorClass.RFC6040)
    assert signature_of_policy(table) == reference_signature(DecapBehaviorClass.RFC6040)


@pytest.mark.parametrize("behavior", CONFORMANT_CLASSES)
def test_custom_copy_of_a_builtin_table_is_that_class(behavior):
    # The class is inferred from the table, never declared with it.
    table = builtin_policy(behavior)
    scenario = build_scenario(ScenarioConfig(egress="custom:" + custom_table_text(table)))
    assert scenario.egress == table
    assert run_probe_session(scenario).classification == Classification.single(behavior)


@pytest.mark.parametrize(
    "text, message",
    [
        ("not_ect,not_ect->ce", "incomplete"),
        ("bogus", "expected 'inner,outer->outcome'"),
        ("xx,ce->ce", "unknown codepoint"),
        ("ce,ce->xx", "unknown outcome"),
        ("ce,ce->ce;ce,ce->ce", "duplicate"),
    ],
)
def test_custom_table_errors(text, message):
    with pytest.raises(ValueError, match=message):
        parse_custom_table(text)



def test_every_table_value_is_none_or_a_codepoint():
    # A decap outcome is the onward codepoint itself, or None for a drop.
    tables = [builtin_policy(b) for b in CONFORMANT_CLASSES]
    tables += [mangled_zero_all(), mangled_copy_outer(), mangled_random(0), mangled_random(5)]
    tables.append(parse_custom_table(custom_table_text(mangled_random(5))))
    tables.append(build_scenario(ScenarioConfig(egress="custom:" + custom_table_text(mangled_random(6)))).egress)
    for table in tables:
        assert all(outcome is None or type(outcome) is EcnCodepoint for outcome in table.values()), table
    assert None in mangled_random(5).values()


def test_outcome_names_and_labels():
    assert OUTCOME_ORDER == (None, NOT_ECT, ECT1, ECT0, CE)
    assert list(OUTCOME_NAME) == list(OUTCOME_LABEL) == list(OUTCOME_ORDER)
    assert OUTCOME_NAME == {None: "dropped", NOT_ECT: "not_ect", ECT1: "ect1", ECT0: "ect0", CE: "ce"}
    assert OUTCOME_LABEL == {None: "dropped", NOT_ECT: "Not-ECT", ECT1: "ECT(1)", ECT0: "ECT(0)", CE: "CE"}
    assert OUTCOME_BY_NAME == {name: outcome for outcome, name in OUTCOME_NAME.items()}


@pytest.mark.parametrize("name", ["drop", "dropped"])
def test_drop_and_dropped_parse_to_none(name):
    text = ";".join(f"{i.json_name},{o.json_name}->{name}" for i in EcnCodepoint for o in EcnCodepoint)
    assert set(parse_custom_table(text).values()) == {None}
