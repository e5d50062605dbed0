"""Tests for the protection-policy layer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coding.hamming import CODEWORD_BITS
from repro.coding.parity import BYTES_PER_WORD, WORD_BITS, byte_parity_bits
from repro.coding.protection import (
    ProtectedWord,
    ProtectionKind,
    protection_energy_fraction,
)

WORDS = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestProtectionKind:
    def test_parity_loads_are_single_cycle(self):
        assert ProtectionKind.PARITY.load_hit_cycles == 1

    def test_ecc_loads_are_two_cycles(self):
        assert ProtectionKind.ECC.load_hit_cycles == 2

    def test_only_ecc_corrects(self):
        assert not ProtectionKind.PARITY.can_correct
        assert ProtectionKind.ECC.can_correct

    def test_storage_overhead_is_12_5_percent(self):
        assert ProtectionKind.PARITY.storage_overhead == 0.125
        assert ProtectionKind.ECC.storage_overhead == 0.125


class TestProtectedWord:
    @pytest.mark.parametrize("kind", list(ProtectionKind))
    def test_clean_read(self, kind):
        cell = ProtectedWord(kind, 1234)
        outcome = cell.read()
        assert not outcome.error_detected
        assert outcome.data == 1234

    def test_parity_detects_but_does_not_correct(self):
        cell = ProtectedWord(ProtectionKind.PARITY, 99)
        cell.flip_data_bit(7)
        outcome = cell.read()
        assert outcome.error_detected
        assert not outcome.corrected

    def test_ecc_detects_and_corrects(self):
        cell = ProtectedWord(ProtectionKind.ECC, 99)
        cell.flip_data_bit(7)
        outcome = cell.read()
        assert outcome.error_detected
        assert outcome.corrected
        assert outcome.data == 99

    @pytest.mark.parametrize("kind", list(ProtectionKind))
    @given(word=WORDS)
    def test_write_roundtrip(self, kind, word):
        cell = ProtectedWord(kind, 0)
        cell.write(word)
        assert cell.raw_data == word

    @pytest.mark.parametrize("kind", list(ProtectionKind))
    def test_every_data_bit_flippable(self, kind):
        for bit in range(64):
            cell = ProtectedWord(kind, 0)
            cell.flip_data_bit(bit)
            assert cell.raw_data == (1 << bit)
            assert cell.read().error_detected

    def test_ecc_flip_bit_addresses_the_codeword(self):
        for bit in range(CODEWORD_BITS):
            cell = ProtectedWord(ProtectionKind.ECC, 99)
            clean = cell._cell.codeword
            cell.flip_bit(bit)
            assert cell._cell.codeword == clean ^ (1 << bit)
            outcome = cell.read()
            assert outcome.corrected and outcome.data == 99

    def test_parity_flip_bit_addresses_data_then_parity(self):
        for bit in range(WORD_BITS + BYTES_PER_WORD):
            cell = ProtectedWord(ProtectionKind.PARITY, 99)
            cell.flip_bit(bit)
            if bit < WORD_BITS:
                assert cell.raw_data == 99 ^ (1 << bit)
                assert cell._cell.parity == byte_parity_bits(99)
            else:
                assert cell.raw_data == 99
                assert cell._cell.parity == byte_parity_bits(99) ^ (
                    1 << (bit - WORD_BITS)
                )
            assert cell.read().error_detected

    @pytest.mark.parametrize("kind", list(ProtectionKind))
    def test_flip_bit_rejects_bits_outside_the_word(self, kind):
        cell = ProtectedWord(kind, 0)
        with pytest.raises(ValueError):
            cell.flip_bit(CODEWORD_BITS)


class TestEnergyFractions:
    def test_defaults_match_figure_17b(self):
        assert protection_energy_fraction(ProtectionKind.PARITY) == 0.15
        assert protection_energy_fraction(ProtectionKind.ECC) == 0.30

    def test_figure_17c_ratios(self):
        assert protection_energy_fraction(
            ProtectionKind.PARITY, parity_fraction=0.10
        ) == 0.10

    def test_ecc_at_least_as_costly_as_parity(self):
        # Bertozzi et al.: ECC is 2-3x the parity computation energy.
        p = protection_energy_fraction(ProtectionKind.PARITY)
        e = protection_energy_fraction(ProtectionKind.ECC)
        assert e >= 2 * p
