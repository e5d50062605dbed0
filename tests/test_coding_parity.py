"""Unit and property tests for byte-granularity even parity."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coding.parity import (
    BYTES_PER_WORD,
    WORD_BITS,
    ParityWord,
    byte_parity_bits,
    check_parity,
    failing_bytes,
)

WORDS = st.integers(min_value=0, max_value=(1 << 64) - 1)


def ref_byte_parity_bits(word: int) -> int:
    """Bit-loop reference (the oracle for the fold-and-gather codec)."""
    word &= (1 << WORD_BITS) - 1
    bits = 0
    for i in range(BYTES_PER_WORD):
        if bin((word >> (8 * i)) & 0xFF).count("1") & 1:
            bits |= 1 << i
    return bits


class TestMatchesReference:
    def test_every_single_byte(self):
        for k in range(BYTES_PER_WORD):
            for v in range(256):
                word = v << (8 * k)
                assert byte_parity_bits(word) == ref_byte_parity_bits(word)

    def test_random_words(self):
        rng = random.Random(2003)
        for _ in range(10_000):
            word = rng.getrandbits(WORD_BITS)
            assert byte_parity_bits(word) == ref_byte_parity_bits(word), hex(word)

    def test_negative_and_wide_words_masked_like_reference(self):
        for word in (-1, -(1 << 40) - 7, (1 << 64) | 5, (0xAB << 64) | 0xFF):
            assert byte_parity_bits(word) == ref_byte_parity_bits(word)


class TestByteParityBits:
    def test_zero_word_has_zero_parity(self):
        assert byte_parity_bits(0) == 0

    def test_single_bit_sets_one_parity_bit(self):
        assert byte_parity_bits(1) == 0b1
        assert byte_parity_bits(1 << 8) == 0b10
        assert byte_parity_bits(1 << 63) == 0b1000_0000

    def test_two_bits_same_byte_cancel(self):
        assert byte_parity_bits(0b11) == 0

    def test_all_ones_word(self):
        # Each byte has 8 set bits (even) -> all parity bits zero.
        assert byte_parity_bits((1 << 64) - 1) == 0

    def test_word_is_masked_to_64_bits(self):
        assert byte_parity_bits(1 << 64) == byte_parity_bits(0)

    @given(WORDS)
    def test_parity_is_xor_reduction_per_byte(self, word):
        bits = byte_parity_bits(word)
        for i in range(BYTES_PER_WORD):
            byte = (word >> (8 * i)) & 0xFF
            expected = bin(byte).count("1") & 1
            assert (bits >> i) & 1 == expected


class TestCheckParity:
    @given(WORDS)
    def test_clean_word_passes(self, word):
        assert check_parity(word, byte_parity_bits(word))

    @given(WORDS, st.integers(min_value=0, max_value=WORD_BITS - 1))
    def test_single_bit_flip_always_detected(self, word, bit):
        parity = byte_parity_bits(word)
        assert not check_parity(word ^ (1 << bit), parity)

    @given(
        WORDS,
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
    )
    def test_double_flip_same_byte_escapes(self, word, byte, bit_a, bit_b):
        """The fundamental parity limitation: even flips per byte hide."""
        if bit_a == bit_b:
            return
        corrupted = word ^ (1 << (8 * byte + bit_a)) ^ (1 << (8 * byte + bit_b))
        assert check_parity(corrupted, byte_parity_bits(word))

    @given(
        WORDS,
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
    )
    def test_double_flip_different_bytes_detected(self, word, bit_a, bit_b):
        if bit_a // 8 == bit_b // 8:
            return
        corrupted = word ^ (1 << bit_a) ^ (1 << bit_b)
        assert not check_parity(corrupted, byte_parity_bits(word))


class TestFailingBytes:
    def test_no_failures_when_clean(self):
        assert failing_bytes(0x1234, byte_parity_bits(0x1234)) == []

    def test_reports_corrupted_byte_index(self):
        word = 0xDEADBEEF
        parity = byte_parity_bits(word)
        assert failing_bytes(word ^ (1 << 17), parity) == [2]

    def test_reports_multiple_bytes(self):
        word = 0
        parity = byte_parity_bits(word)
        corrupted = word ^ 1 ^ (1 << 60)
        assert failing_bytes(corrupted, parity) == [0, 7]


class TestParityWord:
    def test_write_then_check(self):
        cell = ParityWord(0xCAFEBABE)
        assert cell.check()

    def test_data_bit_flip_detected(self):
        cell = ParityWord(0xCAFEBABE)
        cell.flip_data_bit(5)
        assert not cell.check()

    def test_parity_bit_flip_detected(self):
        cell = ParityWord(0xCAFEBABE)
        cell.flip_parity_bit(3)
        assert not cell.check()

    def test_rewrite_clears_error(self):
        cell = ParityWord(1)
        cell.flip_data_bit(0)
        cell.write(2)
        assert cell.check()

    def test_flip_is_involution(self):
        cell = ParityWord(77)
        cell.flip_data_bit(9)
        cell.flip_data_bit(9)
        assert cell.check()

    def test_bad_bit_index_rejected(self):
        cell = ParityWord(0)
        with pytest.raises(ValueError):
            cell.flip_data_bit(64)
        with pytest.raises(ValueError):
            cell.flip_parity_bit(8)
        with pytest.raises(ValueError):
            cell.flip_data_bit(-1)

    @given(WORDS)
    def test_write_masks_to_64_bits(self, word):
        cell = ParityWord(word)
        assert cell.data == word & ((1 << 64) - 1)
