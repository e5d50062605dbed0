"""(72, 64) Hamming SEC-DED code — the "8-bit SEC-DED at 64-bit granularity".

This is the heavy-weight protection option of the paper: every 64-bit word
carries 8 check bits (12.5% storage overhead, same as byte parity) but the
code can *correct* any single-bit error and *detect* any double-bit error.
The price is the slower check — a SEC-DED verification cannot complete
within the single-cycle load path of a GHz-class processor, so ECC-protected
loads are modeled as 2 cycles throughout the paper.

The construction is the classic extended Hamming code: 7 Hamming check bits
sit at the power-of-two positions of a 71-bit codeword, and an eighth
overall-parity bit extends single-error-correction to double-error-detection.

Decoding outcomes (:class:`DecodeStatus`):

* ``OK`` — no error.
* ``CORRECTED`` — exactly one bit flipped; the decoder repaired it.
* ``DETECTED`` — an even number (>= 2) of flips; detected, not correctable.
* ``MISCORRECTED`` is not an explicit status: >= 3 flips may alias onto a
  valid or singly-flipped codeword, the fundamental SEC-DED limitation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

DATA_BITS = 64
CHECK_BITS = 8  # 7 Hamming bits + 1 overall parity bit
CODEWORD_BITS = DATA_BITS + CHECK_BITS  # 72

# Codeword layout: positions 1..71 form the (71, 64) Hamming code; check
# bits live at positions 1, 2, 4, 8, 16, 32, 64 and data bits fill the rest
# in increasing position order.  Position 0 holds the overall parity of
# positions 1..71, giving the extended (72, 64) SEC-DED code.
_CHECK_POSITIONS = tuple(1 << i for i in range(7))  # 1,2,4,...,64
_DATA_POSITIONS = tuple(
    p for p in range(1, CODEWORD_BITS) if p not in set(_CHECK_POSITIONS)
)
assert len(_DATA_POSITIONS) == DATA_BITS


class DecodeStatus(enum.Enum):
    """Outcome of a SEC-DED decode."""

    OK = "ok"
    CORRECTED = "corrected"
    DETECTED = "detected"  # uncorrectable (double) error


@dataclass(frozen=True)
class DecodeResult:
    """Decoded data plus what the decoder had to do to obtain it."""

    data: int
    status: DecodeStatus

    @property
    def usable(self) -> bool:
        """Whether :attr:`data` can be consumed by the pipeline."""
        return self.status is not DecodeStatus.DETECTED


def _parity(value: int) -> int:
    """Parity (XOR-reduction) of an arbitrary-width integer."""
    return value.bit_count() & 1


# -- byte-sliced tables ------------------------------------------------------
#
# Encoding, data extraction and the syndrome are all linear over GF(2): the
# image of a word is the XOR of the images of its set bits (the code's
# single-bit columns).  Grouping the columns by input byte gives one
# 256-entry table per byte, so each map costs one lookup per input byte.


def _byte_tables(columns: list[int]) -> tuple[list[int], ...]:
    """One 256-entry table per input byte of a GF(2)-linear map.

    ``columns[i]`` is the image of input bit *i*.  Entry *v* of table *k* is
    the image of byte value *v* at byte position *k*, built incrementally:
    the image of *v* without its lowest set bit, XOR that bit's column.
    """
    tables = []
    for base in range(0, len(columns), 8):
        cols = columns[base : base + 8]
        table = [0] * 256
        for v in range(1, 256):
            low = v & -v
            table[v] = table[v ^ low] ^ cols[low.bit_length() - 1]
        tables.append(table)
    return tuple(tables)


def _data_column(pos: int) -> int:
    """Codeword image of the data bit stored at codeword position *pos*.

    That is the bit itself, every check bit covering it (check bit 2**i
    covers the positions with bit i set), and the overall parity bit at
    position 0 when positions 1..71 hold an odd number of ones.
    """
    column = 1 << pos
    for check in _CHECK_POSITIONS:
        if pos & check:
            column |= 1 << check
    return column | _parity(column)


_E0, _E1, _E2, _E3, _E4, _E5, _E6, _E7 = _byte_tables(
    [_data_column(pos) for pos in _DATA_POSITIONS]
)
_X0, _X1, _X2, _X3, _X4, _X5, _X6, _X7, _X8 = _byte_tables(
    [
        1 << _DATA_POSITIONS.index(p) if p in _DATA_POSITIONS else 0
        for p in range(CODEWORD_BITS)
    ]
)
# Position 0 (overall parity) contributes nothing to the syndrome.
_S0, _S1, _S2, _S3, _S4, _S5, _S6, _S7, _S8 = _byte_tables(list(range(CODEWORD_BITS)))


def encode(data: int) -> int:
    """Encode a 64-bit word into a 72-bit SEC-DED codeword."""
    return (
        _E0[data & 0xFF]
        ^ _E1[data >> 8 & 0xFF]
        ^ _E2[data >> 16 & 0xFF]
        ^ _E3[data >> 24 & 0xFF]
        ^ _E4[data >> 32 & 0xFF]
        ^ _E5[data >> 40 & 0xFF]
        ^ _E6[data >> 48 & 0xFF]
        ^ _E7[data >> 56 & 0xFF]
    )


def _syndrome(codeword: int) -> int:
    """XOR of the positions of all set bits in positions 1..71."""
    return (
        _S0[codeword & 0xFF]
        ^ _S1[codeword >> 8 & 0xFF]
        ^ _S2[codeword >> 16 & 0xFF]
        ^ _S3[codeword >> 24 & 0xFF]
        ^ _S4[codeword >> 32 & 0xFF]
        ^ _S5[codeword >> 40 & 0xFF]
        ^ _S6[codeword >> 48 & 0xFF]
        ^ _S7[codeword >> 56 & 0xFF]
        ^ _S8[codeword >> 64 & 0xFF]
    )


def extract_data(codeword: int) -> int:
    """Pull the 64 data bits out of a codeword without any checking."""
    return (
        _X0[codeword & 0xFF]
        ^ _X1[codeword >> 8 & 0xFF]
        ^ _X2[codeword >> 16 & 0xFF]
        ^ _X3[codeword >> 24 & 0xFF]
        ^ _X4[codeword >> 32 & 0xFF]
        ^ _X5[codeword >> 40 & 0xFF]
        ^ _X6[codeword >> 48 & 0xFF]
        ^ _X7[codeword >> 56 & 0xFF]
        ^ _X8[codeword >> 64 & 0xFF]
    )


def decode(codeword: int) -> DecodeResult:
    """Decode a possibly-corrupted 72-bit codeword.

    Implements the standard extended-Hamming decision procedure:

    ========  ==============  =======================================
    syndrome  overall parity  verdict
    ========  ==============  =======================================
    0         even            no error
    != 0      odd             single-bit error at *syndrome*; correct
    0         odd             error in the overall parity bit; correct
    != 0      even            double-bit error; detect only
    ========  ==============  =======================================
    """
    syndrome = _syndrome(codeword)
    overall_odd = _parity(codeword) == 1
    if syndrome == 0 and not overall_odd:
        return DecodeResult(extract_data(codeword), DecodeStatus.OK)
    if syndrome == 0 and overall_odd:
        # The overall parity bit itself flipped; data is intact.
        return DecodeResult(extract_data(codeword), DecodeStatus.CORRECTED)
    if overall_odd:
        if syndrome >= CODEWORD_BITS:
            # Syndrome points outside the codeword: multi-bit corruption.
            return DecodeResult(extract_data(codeword), DecodeStatus.DETECTED)
        corrected = codeword ^ (1 << syndrome)
        return DecodeResult(extract_data(corrected), DecodeStatus.CORRECTED)
    return DecodeResult(extract_data(codeword), DecodeStatus.DETECTED)


class EccWord:
    """A 64-bit word stored as a SEC-DED codeword, for fault injection.

    Mirrors :class:`repro.coding.parity.ParityWord` so the error injector can
    treat protected words uniformly.
    """

    __slots__ = ("codeword",)

    def __init__(self, data: int = 0):
        self.write(data)

    def write(self, data: int) -> None:
        """Store *data*, regenerating all 8 check bits."""
        self.codeword = encode(data)

    @property
    def data(self) -> int:
        """The (possibly corrupted) raw data bits, without decoding."""
        return extract_data(self.codeword)

    def flip_bit(self, bit: int) -> None:
        """Model a transient fault in codeword bit *bit* (0..71)."""
        if not 0 <= bit < CODEWORD_BITS:
            raise ValueError(f"bit index {bit} out of range for a codeword")
        self.codeword ^= 1 << bit

    def read(self) -> DecodeResult:
        """Read-time verification and correction."""
        return decode(self.codeword)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EccWord(codeword={self.codeword:#020x})"
