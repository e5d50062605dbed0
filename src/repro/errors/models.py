"""Transient-error models (Kim & Somani, ISCA 1999 — paper Section 5.5).

Each model decides *where* a fault lands once the injector decides *when*
one occurs:

* ``random``   — one bit of one random word anywhere in the cache (the model
  the paper reports results for);
* ``direct``   — one bit of a recently used word (MRU line of a random
  set), modeling strikes on actively-cycling cells;
* ``adjacent`` — two horizontally adjacent bits of the same word, modeling
  a single particle upsetting neighbouring cells;
* ``column``   — the same bit position in two vertically adjacent lines of
  a set, modeling a strike along a bitline column;
* ``burst``    — a run of 2..5 adjacent bits of one word (spilling into
  the next word of the line), modeling a high-energy particle track that
  defeats single-error protection within one protection domain.

Faults are expressed as ``FaultSite`` records; the injector applies them to
the bit-accurate word storage.  Bit indices cover the *whole* protected
word — data bits and check bits alike — since a real strike does not know
which cells hold parity.

Models read a cache only through its *fault surface*, one line per
frame (``frame = set_index * associativity + way``), implemented by the
object kernel's :class:`~repro.core.icr_cache.ICRCache` and the SoA
kernel's :class:`~repro.core.array_kernel.BitAccurateArrayDL1`:

* ``frame_protection(frame)`` — the line's :class:`ProtectionKind`, or
  ``None`` when the frame holds no stored words (invalid line);
* ``frame_stamp(frame)`` — the line's LRU stamp;
* ``frame_flip(frame, word, bit)`` — flip one stored bit (the injector's
  half of the surface);

plus ``geometry`` and ``words_per_block``.  Both kernels answer alike
for the same line state, so one seeded injector draws the same sites on
either.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Protocol

from repro.coding.hamming import CODEWORD_BITS
from repro.coding.parity import BYTES_PER_WORD, WORD_BITS
from repro.coding.protection import ProtectionKind


@dataclass(frozen=True)
class FaultSite:
    """One bit flip at (set, way, word, bit-within-protected-word)."""

    set_index: int
    way: int
    word_index: int
    bit: int


class ErrorModel(Protocol):
    """Strategy choosing fault sites within a cache."""

    name: str

    def sites(self, cache, rng: random.Random) -> Iterable[FaultSite]: ...


def _protected_bits(kind: ProtectionKind) -> int:
    """Number of injectable bits per word under protection *kind*."""
    if kind is ProtectionKind.ECC:
        return CODEWORD_BITS  # 72: data + check bits as one codeword
    return WORD_BITS + BYTES_PER_WORD  # 64 data + 8 parity cells


def _random_valid_line(cache, rng: random.Random, tries: int = 64):
    """Pick a random line holding words: ``(set, way, protection)``, or
    ``None`` when the cache looks empty."""
    n_sets = cache.geometry.n_sets
    assoc = cache.geometry.associativity
    protection = cache.frame_protection
    for _ in range(tries):
        set_index = rng.randrange(n_sets)
        way = rng.randrange(assoc)
        kind = protection(set_index * assoc + way)
        if kind is not None:
            return set_index, way, kind
    return None


class RandomModel:
    """A random bit of a random word present in the dL1 (paper default)."""

    name = "random"

    def sites(self, cache, rng: random.Random):
        found = _random_valid_line(cache, rng)
        if found is None:
            return []
        set_index, way, kind = found
        word = rng.randrange(cache.words_per_block)
        bit = rng.randrange(_protected_bits(kind))
        return [FaultSite(set_index, way, word, bit)]


class DirectModel:
    """A random bit of a *recently used* word (MRU line of a random set)."""

    name = "direct"

    def sites(self, cache, rng: random.Random):
        n_sets = cache.geometry.n_sets
        assoc = cache.geometry.associativity
        protection = cache.frame_protection
        stamp_of = cache.frame_stamp
        for _ in range(16):
            set_index = rng.randrange(n_sets)
            base = set_index * assoc
            candidates = [
                (way, kind)
                for way in range(assoc)
                if (kind := protection(base + way)) is not None
            ]
            if not candidates:
                continue
            way, kind = max(candidates, key=lambda wk: stamp_of(base + wk[0]))
            word = rng.randrange(cache.words_per_block)
            bit = rng.randrange(_protected_bits(kind))
            return [FaultSite(set_index, way, word, bit)]
        return []


class AdjacentModel:
    """Two horizontally adjacent bits of the same word."""

    name = "adjacent"

    def sites(self, cache, rng: random.Random):
        found = _random_valid_line(cache, rng)
        if found is None:
            return []
        set_index, way, kind = found
        word = rng.randrange(cache.words_per_block)
        bit = rng.randrange(_protected_bits(kind) - 1)
        return [
            FaultSite(set_index, way, word, bit),
            FaultSite(set_index, way, word, bit + 1),
        ]


class ColumnModel:
    """The same bit position in two vertically adjacent lines of a set."""

    name = "column"

    def sites(self, cache, rng: random.Random):
        found = _random_valid_line(cache, rng)
        if found is None:
            return []
        set_index, way, kind = found
        assoc = cache.geometry.associativity
        word = rng.randrange(cache.words_per_block)
        bit = rng.randrange(_protected_bits(kind))
        sites = [FaultSite(set_index, way, word, bit)]
        # The vertically adjacent cell: the nearest other valid way.
        for offset in range(1, assoc):
            other_way = (way + offset) % assoc
            other = cache.frame_protection(set_index * assoc + other_way)
            if other is not None:
                other_width = _protected_bits(other)
                sites.append(
                    FaultSite(set_index, other_way, word, min(bit, other_width - 1))
                )
                break
        return sites


class BurstModel:
    """A multi-bit burst: a run of adjacent bits of one word, spilling
    into the next word of the same line when it crosses the word edge.

    Models a high-energy particle track upsetting a short run of
    physically contiguous cells — the worst case for per-word parity
    *and* SEC-DED, since several flips land inside one protection
    domain.  The burst length is drawn (2..5) from the caller's RNG, so
    the whole fault history — strike times, sites and lengths alike —
    is pinned by the injector's single seed.
    """

    name = "burst"

    MIN_LENGTH = 2
    MAX_LENGTH = 5

    def sites(self, cache, rng: random.Random):
        found = _random_valid_line(cache, rng)
        if found is None:
            return []
        set_index, way, kind = found
        n_words = cache.words_per_block
        word = rng.randrange(n_words)
        width = _protected_bits(kind)
        start = rng.randrange(width)
        length = rng.randint(self.MIN_LENGTH, self.MAX_LENGTH)
        sites = []
        for offset in range(length):
            bit = start + offset
            w, b = word + bit // width, bit % width
            if w >= n_words:
                break  # burst ran off the end of the line
            sites.append(FaultSite(set_index, way, w, b))
        return sites


MODELS: dict[str, type] = {
    "random": RandomModel,
    "direct": DirectModel,
    "adjacent": AdjacentModel,
    "column": ColumnModel,
    "burst": BurstModel,
}


def make_model(name: str) -> ErrorModel:
    """Instantiate an error model by name."""
    try:
        return MODELS[name]()
    except KeyError:
        raise ValueError(
            f"unknown error model {name!r}; choose from {sorted(MODELS)}"
        ) from None
