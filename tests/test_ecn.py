import pytest

from ecnprobe.ecn import (
    CODEPOINT_BY_NAME,
    EcnCodepoint,
    dscp_of,
    ecn_of,
    overwrite_ecn,
)


def test_codepoint_bit_mapping():
    # the tc pedit N values 0..3
    assert EcnCodepoint(0) is EcnCodepoint.NOT_ECT
    assert EcnCodepoint(1) is EcnCodepoint.ECT1
    assert EcnCodepoint(2) is EcnCodepoint.ECT0
    assert EcnCodepoint(3) is EcnCodepoint.CE


def test_codepoint_to_bits():
    assert EcnCodepoint.ECT0.value == 2
    assert EcnCodepoint.NOT_ECT.value == 0


def test_codepoint_round_trip():
    for cp in EcnCodepoint:
        assert EcnCodepoint(cp.value) is cp
        assert CODEPOINT_BY_NAME[cp.json_name] is cp
    for bits in range(4):
        assert EcnCodepoint(bits).value == bits
    assert sorted(CODEPOINT_BY_NAME) == ["ce", "ect0", "ect1", "not_ect"]


def test_exactly_four_codepoints():
    assert len(EcnCodepoint) == 4


def test_codepoint_from_bits_rejects_out_of_range():
    with pytest.raises(ValueError):
        EcnCodepoint(4)


def test_overwrite_examples():
    # oracle: (octet & ~mask) | (new & mask)
    assert overwrite_ecn(0xB8, 3) == 0xBB
    assert overwrite_ecn(0x00, 0) == 0x00
    # overwriting with the ECN bits already present is the identity
    assert overwrite_ecn(0xB9, 1) == 0xB9


def test_overwrite_preserves_dscp_and_sets_ecn_exhaustively():
    for octet in range(256):
        for bits in range(4):
            out = overwrite_ecn(octet, bits)
            assert dscp_of(out) == dscp_of(octet)
            assert ecn_of(out) is EcnCodepoint(bits)
            # repeated overwrite is idempotent
            assert overwrite_ecn(out, bits) == out


def test_codepoint_labels():
    assert str(EcnCodepoint.NOT_ECT) == "Not-ECT"
    assert str(EcnCodepoint.ECT1) == "ECT(1)"
    assert str(EcnCodepoint.ECT0) == "ECT(0)"
    assert str(EcnCodepoint.CE) == "CE"
