import pytest

from ecnprobe.ecn import EcnCodepoint
from ecnprobe.feedback import (
    InvalidFeedback,
    TcpEcnFlags,
    decode_handshake,
    encode_handshake,
    wireshark_string,
)

# The SYN-ACK reflection table: codepoint -> (AE/CWR/ECE bits, dissector string)
HANDSHAKE_TABLE = {
    EcnCodepoint.NOT_ECT: (0b010, ".C."),
    EcnCodepoint.ECT1: (0b011, ".CE"),
    EcnCodepoint.ECT0: (0b100, "A.."),
    EcnCodepoint.CE: (0b110, "AC."),
}


@pytest.mark.parametrize("cp", list(EcnCodepoint))
def test_handshake_encoding_table(cp):
    bits, shark = HANDSHAKE_TABLE[cp]
    flags = encode_handshake(cp)
    assert flags.to_bits() == bits
    assert wireshark_string(flags) == shark


@pytest.mark.parametrize("cp", list(EcnCodepoint))
def test_handshake_round_trip(cp):
    assert decode_handshake(encode_handshake(cp)) is cp


def test_decode_specific_patterns():
    assert decode_handshake(TcpEcnFlags.from_bits(0b011)) is EcnCodepoint.ECT1
    assert decode_handshake(TcpEcnFlags.from_bits(0b110)) is EcnCodepoint.CE


@pytest.mark.parametrize("bits", [0b000, 0b001, 0b101, 0b111])
def test_invalid_patterns_rejected(bits):
    with pytest.raises(InvalidFeedback):
        decode_handshake(TcpEcnFlags.from_bits(bits))


def test_exactly_four_patterns_decode():
    decodable = []
    for bits in range(8):
        try:
            decode_handshake(TcpEcnFlags.from_bits(bits))
            decodable.append(bits)
        except InvalidFeedback:
            pass
    assert decodable == [0b010, 0b011, 0b100, 0b110]


def test_flags_bits_round_trip():
    for bits in range(8):
        assert TcpEcnFlags.from_bits(bits).to_bits() == bits
    with pytest.raises(ValueError):
        TcpEcnFlags.from_bits(8)
