import pytest

from ecnprobe.ecn import EcnCodepoint
from ecnprobe.engine import Classification, run_probe_session
from ecnprobe.simnet import ScenarioConfig, build_scenario
from ecnprobe.tunnels import (
    CONFORMANT_CLASSES,
    DROPPED,
    Capability,
    DecapBehaviorClass,
    DecapPolicy,
    EncapPolicy,
    NoSignature,
    PROBE_ROWS,
    behavior_profile,
    builtin_policy,
    custom_table_text,
    decap,
    encap,
    forwarded,
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


def as_outcome(cell):
    return DROPPED if cell is None else forwarded(cell)


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
        assert decap(policy, inner, outer) == as_outcome(cell)


@pytest.mark.parametrize("behavior", CONFORMANT_CLASSES)
def test_reference_signature_matches_frozen_expectations(behavior):
    expected = tuple(as_outcome(cell) for cell in EXPECTED_OUTCOMES[behavior])
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
    with pytest.raises(NoSignature):
        reference_signature(DecapBehaviorClass.MANGLED)


def test_simple_tunnel_preserves_inner_everywhere():
    profile = behavior_profile(builtin_policy(DecapBehaviorClass.RFC2003_SIMPLE))
    assert len(profile) == 16
    for (inner, _outer), outcome in profile.items():
        assert outcome == forwarded(inner)


def test_profile_spot_checks():
    rfc6040 = behavior_profile(builtin_policy(DecapBehaviorClass.RFC6040))
    rfc3168 = behavior_profile(builtin_policy(DecapBehaviorClass.RFC3168))
    rfc4301 = behavior_profile(builtin_policy(DecapBehaviorClass.RFC4301))
    assert rfc6040[(CE, ECT0)] == forwarded(CE)
    assert rfc6040[(NOT_ECT, CE)] == DROPPED
    assert rfc6040[(ECT1, ECT0)] == forwarded(ECT1)
    assert rfc3168[(NOT_ECT, CE)] == DROPPED
    assert rfc3168[(ECT0, ECT1)] == forwarded(ECT0)
    assert rfc4301[(ECT0, ECT1)] == forwarded(ECT0)
    assert rfc4301[(NOT_ECT, CE)] == forwarded(NOT_ECT)


def test_inner_ce_always_survives_decap():
    # every behaviour that looks at the headers keeps a CE inner marked
    for behavior in CONFORMANT_CLASSES:
        profile = behavior_profile(builtin_policy(behavior))
        for outer in EcnCodepoint:
            assert profile[(CE, outer)] == forwarded(CE)


@pytest.mark.parametrize("behavior", CONFORMANT_CLASSES)
def test_profiles_are_total(behavior):
    profile = behavior_profile(builtin_policy(behavior))
    assert set(profile) == {(i, o) for i in EcnCodepoint for o in EcnCodepoint}


def test_decap_table_must_be_total():
    with pytest.raises(ValueError):
        DecapPolicy(DecapBehaviorClass.MANGLED, {(NOT_ECT, NOT_ECT): DROPPED})


def test_decap_policy_replace_revalidates():
    policy = builtin_policy(DecapBehaviorClass.RFC6040)
    relabelled = policy._replace(label="edge")
    assert type(relabelled) is DecapPolicy and relabelled.name == "edge"
    with pytest.raises(ValueError, match="not total"):
        policy._replace(table={(NOT_ECT, NOT_ECT): DROPPED})


def test_encap_examples():
    assert encap(EncapPolicy.COPY_EXACT, CE) is CE
    assert encap(EncapPolicy.ZERO_OUTER, ECT0) is NOT_ECT
    assert encap(EncapPolicy.RFC3168_FULL, NOT_ECT) is NOT_ECT
    # full-functionality encap hides the CE mark from the outer
    assert encap(EncapPolicy.RFC3168_FULL, CE) is ECT0


def test_builtin_tables_are_read_only():
    # Every rfc6040 policy shares one table.
    table = builtin_policy(DecapBehaviorClass.RFC6040).table
    original = table[(NOT_ECT, CE)]
    try:
        with pytest.raises(TypeError):
            table[(NOT_ECT, CE)] = forwarded(NOT_ECT)
    finally:
        # A writable table took the write: undo it, so only this test fails.
        if table[(NOT_ECT, CE)] != original:
            table[(NOT_ECT, CE)] = original
    result = run_probe_session(build_scenario(ScenarioConfig(egress="rfc6040")))
    assert result.classification == Classification.single(DecapBehaviorClass.RFC6040)


def test_mangled_zero_all():
    profile = behavior_profile(mangled_zero_all())
    assert all(outcome == forwarded(NOT_ECT) for outcome in profile.values())


def test_mangled_copy_outer():
    profile = behavior_profile(mangled_copy_outer())
    for (_inner, outer), outcome in profile.items():
        assert outcome == forwarded(outer)


def test_mangled_random_is_seed_stable():
    a = mangled_random(99)
    b = mangled_random(99)
    c = mangled_random(100)
    assert behavior_profile(a) == behavior_profile(b)
    assert behavior_profile(a) != behavior_profile(c)


def test_custom_table_round_trip():
    policy = mangled_copy_outer()
    text = custom_table_text(policy)
    reparsed = parse_custom_table(text)
    assert behavior_profile(reparsed) == behavior_profile(policy)
    assert custom_table_text(reparsed) == text


def test_custom_table_accepts_builtin_shape():
    text = custom_table_text(builtin_policy(DecapBehaviorClass.RFC6040))
    policy = parse_custom_table(text)
    # the table is the unified behaviour even though the class tag is mangled
    assert policy.behavior is DecapBehaviorClass.MANGLED
    assert signature_of_policy(policy) == reference_signature(DecapBehaviorClass.RFC6040)


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


def test_mangled_policy_label():
    table = {cell: DROPPED for cell in behavior_profile(mangled_zero_all())}
    policy = mangled_policy(table, "black-hole")
    assert policy.name == "black-hole"
    assert signature_of_policy(policy) == (DROPPED,) * 4
