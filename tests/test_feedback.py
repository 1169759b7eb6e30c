import random

import pytest

from ecnprobe.ecn import EcnCodepoint
from ecnprobe.feedback import (
    InvalidFeedback,
    QuicEcnCounts,
    TcpEcnFlags,
    counts_delta_codepoint,
    decode_handshake,
    encode_handshake,
    record_packet,
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


def test_counters_monotone_over_random_sequences():
    # Each packet moves at most one counter, by one, and the delta over it
    # names its codepoint whatever the counts before.
    rng = random.Random(1)
    for _ in range(50):
        counts = QuicEcnCounts()
        for _ in range(rng.randrange(40)):
            cp = rng.choice(list(EcnCodepoint))
            previous = counts
            counts = record_packet(counts, cp)
            assert sum(counts) - sum(previous) == (cp is not EcnCodepoint.NOT_ECT)
            assert min(n - m for n, m in zip(counts, previous)) >= 0
            assert counts_delta_codepoint(previous, counts) is cp


def test_record_packet_examples():
    zero = QuicEcnCounts()
    assert record_packet(zero, EcnCodepoint.ECT1) == QuicEcnCounts(0, 1, 0)
    assert record_packet(zero, EcnCodepoint.NOT_ECT) == zero
    assert record_packet(QuicEcnCounts(2, 0, 1), EcnCodepoint.CE) == QuicEcnCounts(2, 0, 2)


def test_counts_delta_decoding():
    zero = QuicEcnCounts()
    for cp in EcnCodepoint:
        after = record_packet(zero, cp)
        assert counts_delta_codepoint(zero, after) is cp


def test_counts_delta_rejects_impossible():
    with pytest.raises(InvalidFeedback):
        counts_delta_codepoint(QuicEcnCounts(1, 0, 0), QuicEcnCounts(0, 0, 0))
    with pytest.raises(InvalidFeedback):
        counts_delta_codepoint(QuicEcnCounts(), QuicEcnCounts(1, 1, 0))
    with pytest.raises(InvalidFeedback):
        counts_delta_codepoint(QuicEcnCounts(), QuicEcnCounts(2, 0, 0))
