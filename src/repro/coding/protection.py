"""Protection policies: how a cache line's words are guarded, and at what cost.

The paper considers two protection kinds for cache lines:

* ``PARITY`` — byte parity; detection only; 1-cycle load hits; cheap to
  compute (modeled as 10-15% of an L1 access energy).
* ``ECC`` — (72, 64) SEC-DED; single-error correction; the verification does
  not fit in a 1-cycle load path, so load hits take 2 cycles (unless the
  processor supports speculative loads); expensive to compute (~30% of an
  L1 access energy, i.e. 2-3x parity [Bertozzi et al.]).

ICR schemes mix the two: replicated lines are always parity-protected (the
replica itself is the correction mechanism), while unreplicated lines carry
either parity (``ICR-P-*``) or ECC (``ICR-ECC-*``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.coding import hamming, parity


class ProtectionKind(enum.Enum):
    """The two per-line protection codes evaluated in the paper."""

    PARITY = "parity"
    ECC = "ecc"

    @property
    def load_hit_cycles(self) -> int:
        """dL1 load-hit latency implied by the verification path."""
        return 1 if self is ProtectionKind.PARITY else 2

    @property
    def can_correct(self) -> bool:
        """Whether a single-bit error is correctable from the code alone."""
        return self is ProtectionKind.ECC

    @property
    def storage_overhead(self) -> float:
        """Extra storage per protected bit (both are 8 bits per 64)."""
        return 0.125


@dataclass(frozen=True)
class CheckOutcome:
    """Result of verifying one word under some protection kind."""

    error_detected: bool
    corrected: bool
    data: int


class ProtectedWord:
    """A stored 64-bit word under a chosen :class:`ProtectionKind`.

    This wrapper gives the fault injector and the recovery logic a single
    interface regardless of the underlying code.
    """

    __slots__ = ("kind", "_cell")

    def __init__(self, kind: ProtectionKind, data: int = 0):
        self.kind = kind
        if kind is ProtectionKind.PARITY:
            self._cell = parity.ParityWord(data)
        else:
            self._cell = hamming.EccWord(data)

    def write(self, data: int) -> None:
        """Store *data*, regenerating check bits."""
        self._cell.write(data)

    @property
    def raw_data(self) -> int:
        """Raw (possibly corrupted) data bits, bypassing verification."""
        return self._cell.data

    def flip_bit(self, bit: int) -> None:
        """Inject a transient fault into stored bit *bit* of the whole word.

        Bits are numbered over the protected word as the error models see
        it: the 72 codeword bits (0..71) under ECC, and under parity the 64
        data bits (0..63) followed by the 8 parity bits (64..71).
        """
        if self.kind is ProtectionKind.PARITY:
            if bit < parity.WORD_BITS:
                self._cell.flip_data_bit(bit)
            else:
                self._cell.flip_parity_bit(bit - parity.WORD_BITS)
        else:
            self._cell.flip_bit(bit)

    def flip_data_bit(self, bit: int) -> None:
        """Inject a transient fault into data bit *bit*."""
        if self.kind is ProtectionKind.PARITY:
            self._cell.flip_data_bit(bit)
        else:
            # Map the data-bit index onto its codeword position.
            self._cell.flip_bit(hamming._DATA_POSITIONS[bit])

    def read(self) -> CheckOutcome:
        """Verify (and for ECC, correct) the stored word."""
        if self.kind is ProtectionKind.PARITY:
            ok = self._cell.check()
            return CheckOutcome(
                error_detected=not ok, corrected=False, data=self._cell.data
            )
        result = self._cell.read()
        if result.status is hamming.DecodeStatus.OK:
            return CheckOutcome(False, False, result.data)
        if result.status is hamming.DecodeStatus.CORRECTED:
            return CheckOutcome(True, True, result.data)
        return CheckOutcome(True, False, result.data)


def protection_energy_fraction(
    kind: ProtectionKind, parity_fraction: float = 0.15, ecc_fraction: float = 0.30
) -> float:
    """Energy of one check/compute as a fraction of an L1 access energy.

    The paper reports results for parity:ECC of 15%:30% (Figure 17b) and
    10%:30% (Figure 17c) of the per-access L1 energy.
    """
    if kind is ProtectionKind.PARITY:
        return parity_fraction
    return ecc_fraction
