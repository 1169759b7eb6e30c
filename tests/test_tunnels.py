import pytest

import paper_model as model
from ecnprobe import report, simnet, tunnels
from ecnprobe.ecn import EcnCodepoint
from ecnprobe.engine import run_probe_session
from ecnprobe.simnet import MAX_PLANNED_RECORDS, ConfigError, ScenarioConfig, build_scenario
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
    Store,
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


def names(outcomes):
    """Outcomes, or codepoint pairs, in the paper model's names."""
    return tuple(names(o) if type(o) is tuple else OUTCOME_NAME[o] for o in outcomes)


def test_probe_rows_by_capability():
    # a CE-only device cannot write the ECT(1) outer of the last row
    for capability in Capability:
        assert names(probe_rows(capability)) == model.ROWS_BY_CAPABILITY[capability.value]


def test_ce_only_rows_and_signatures_are_prefixes_of_the_full_ones():
    # An observation's row indexes PROBE_ROWS whatever the capability, and a
    # CE-only signature is the FULL one cut short: the report writers and
    # the criterion-5 oracle rely on both.
    assert probe_rows(Capability.CE_ONLY) == PROBE_ROWS[:3]
    for capability in Capability:
        rows = probe_rows(capability)
        assert rows == PROBE_ROWS[: len(rows)], capability
    full = REFERENCE_SIGNATURES[Capability.FULL]
    for behavior, signature in REFERENCE_SIGNATURES[Capability.CE_ONLY].items():
        assert len(signature) == 3 and signature == full[behavior][:3], behavior


def test_the_paper_model_agrees_with_every_cell_ingress_and_signature():
    # Each built-in table's 16 cells, each ingress's outer for the 4
    # initials, and each capability's reference signatures, as tabulated and
    # as reference_signature gives them.
    for behavior in CONFORMANT_CLASSES:
        policy = builtin_policy(behavior)
        cells = {names(cell): OUTCOME_NAME[decap(policy, *cell)] for cell in policy}
        assert cells == model.TABLES[behavior.json_name], behavior
    for ingress in EncapPolicy:
        assert {cp.json_name: encap(ingress, cp).json_name for cp in EcnCodepoint} == model.INGRESS[ingress.value]
    for capability, rows in model.ROWS_BY_CAPABILITY.items():
        signatures = REFERENCE_SIGNATURES[Capability(capability)]
        assert {b.json_name: names(sig) for b, sig in signatures.items()} == {
            cls: signature[: len(rows)] for cls, signature in model.SIGNATURES.items()
        }
        assert {b: reference_signature(b, Capability(capability)) for b in signatures} == signatures


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


def test_mangled_policy_names_every_key_outside_the_cells():
    # A table maps the 16 cells and nothing else, so a stray key is refused, not dropped.
    rfc6040 = builtin_policy(DecapBehaviorClass.RFC6040)
    with pytest.raises(ValueError) as exc_info:
        mangled_policy({**rfc6040, "extra": None, (CE, CE, CE): CE})
    assert str(exc_info.value) == "table has keys outside the 16 (inner, outer) cells: 'extra', " + repr((CE, CE, CE))


def test_mangled_policy_refuses_a_non_mapping():
    for table in (None, list(mangled_zero_all().items()), DecapBehaviorClass.RFC6040):
        with pytest.raises(ValueError, match=f"^table is not a mapping: {type(table).__name__}$"):
            mangled_policy(table)


def test_mangled_policy_names_every_cell_whose_outcome_is_no_codepoint():
    # Such a table would pass here and fail later, in Scenario or in
    # custom_table_text.
    with pytest.raises(ValueError) as exc_info:
        mangled_policy(dict.fromkeys(mangled_zero_all(), "ce"))
    cells = ", ".join(f"({i.json_name},{o.json_name}) -> 'ce'" for i in EcnCodepoint for o in EcnCodepoint)
    assert str(exc_info.value) == f"table outcomes must be None or an EcnCodepoint: {cells}"
    with pytest.raises(ValueError) as exc_info:
        mangled_policy({**mangled_zero_all(), (CE, CE): 3, (CE, ECT1): [CE]})
    assert str(exc_info.value) == f"table outcomes must be None or an EcnCodepoint: (ce,ect1) -> {[CE]!r}, (ce,ce) -> 3"


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
    assert result.classification == {DecapBehaviorClass.RFC6040}


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
    assert run_probe_session(scenario).classification == {behavior}


def test_a_custom_table_is_parsed_once_per_text(fresh_stores):
    # Each valid text gives the same read-only table every time, and its own
    # table; an invalid text is not kept and raises each time.
    texts = [custom_table_text(mangled_random(seed)) for seed in range(6)]
    assert len(set(texts)) == len(texts)
    tables = [parse_custom_table(text) for text in texts]
    for text, table in zip(texts, tables):
        assert parse_custom_table(text) is table
        assert custom_table_text(table) == text
    for _ in range(2):
        with pytest.raises(ValueError, match="duplicate"):
            parse_custom_table("ce,ce->ce;ce,ce->ce")
    assert list(tunnels._CUSTOM_TABLES) == texts


def test_a_store_keeps_what_it_builds_up_to_its_limit():
    # A full store is cleared before it keeps another entry; a build that
    # raises keeps nothing, and does not clear a full store; a key that
    # cannot be hashed raises TypeError and builds nothing.
    built = []

    def build(key):
        built.append(key)
        if key < 0:
            raise ValueError(key)
        return str(key)

    store = Store(build, 3)
    for key in (0, 1, 0, 2, 1):
        assert store[key] == str(key)
    assert (store, built) == ({0: "0", 1: "1", 2: "2"}, [0, 1, 2])
    for _ in range(2):
        with pytest.raises(ValueError):
            store[-1]
    with pytest.raises(TypeError):
        store[[3]]
    assert (store, built) == ({0: "0", 1: "1", 2: "2"}, [0, 1, 2, -1, -1])
    for key in (3, 4, 3):
        assert store[key] == str(key)
    assert (store, built[5:]) == ({3: "3", 4: "4"}, [3, 4])


@pytest.mark.parametrize(
    "store, limit",
    [(tunnels._CUSTOM_TABLES, 64), (simnet._TRACE_PIECES, MAX_PLANNED_RECORDS), (report._SECTIONS, 1024)],
    ids=["custom tables", "trace pieces", "sections"],
)
def test_each_memo_is_a_store_with_its_documented_limit(store, limit):
    assert (type(store), store.limit) == (Store, limit)


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
    assert names(OUTCOME_ORDER) == model.TIE_ORDER
    assert list(OUTCOME_NAME) == list(OUTCOME_LABEL) == list(OUTCOME_ORDER)
    assert OUTCOME_NAME == {None: "dropped", NOT_ECT: "not_ect", ECT1: "ect1", ECT0: "ect0", CE: "ce"}
    assert OUTCOME_LABEL == {None: "dropped", NOT_ECT: "Not-ECT", ECT1: "ECT(1)", ECT0: "ECT(0)", CE: "CE"}
    assert OUTCOME_BY_NAME == {name: outcome for outcome, name in OUTCOME_NAME.items()}


@pytest.mark.parametrize("name", ["drop", "dropped"])
def test_drop_and_dropped_parse_to_none(name):
    text = ";".join(f"{i.json_name},{o.json_name}->{name}" for i in EcnCodepoint for o in EcnCodepoint)
    assert set(parse_custom_table(text).values()) == {None}
