"""The fault injector: *when* transient errors strike.

The paper injects errors "at each clock cycle based on a constant
probability" (Section 5.5).  Iterating every cycle is wasteful in a
software simulator, so the injector draws the gap to the next fault from
the geometric distribution — statistically identical to per-cycle Bernoulli
trials with probability *p* — and applies the configured error model's
fault sites when the simulated clock passes each strike time.

The injector is attached to an :class:`~repro.core.icr_cache.ICRCache`
built with ``track_data=True``; the cache calls :meth:`advance` at the
start of every demand access.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Optional

from repro.errors.models import ErrorModel, FaultSite, make_model


def derive_stream_seed(seed: int, stream: str) -> int:
    """A decorrelated sub-seed for one named draw stream of a trial.

    Monte Carlo campaigns enumerate trials with consecutive integer
    seeds, so sub-streams must never be derived by integer offsets: with
    the historical ``seed + 1`` derivation the iL1 injector of trial *s*
    and the dL1 injector of trial *s + 1* shared one Mersenne Twister
    stream — their fault histories were identical, not independent.
    Hashing ``(seed, stream)`` instead guarantees that two trials
    differing only in *seed* (and two streams of one trial) get draw
    streams with no such aliasing, for every error model including the
    multi-draw ``burst`` model.
    """
    digest = hashlib.blake2b(
        f"{seed}\x00{stream}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class FaultInjector:
    """Injects bit flips into a cache's word storage over simulated time."""

    def __init__(
        self,
        cache,
        probability_per_cycle: float,
        model: ErrorModel | str = "random",
        seed: int = 12345,
    ):
        if not 0.0 <= probability_per_cycle < 1.0:
            raise ValueError("per-cycle error probability must be in [0, 1)")
        if not getattr(cache.config, "track_data", False):
            raise ValueError("fault injection needs a cache with track_data=True")
        self.cache = cache
        self.probability = probability_per_cycle
        self.model = make_model(model) if isinstance(model, str) else model
        self.rng = random.Random(seed)
        self._clock = 0
        self._next_strike: Optional[int] = None
        if probability_per_cycle > 0.0:
            self._next_strike = self._draw_gap()
        cache.injector = self

    def _draw_gap(self) -> int:
        """Geometric gap (in cycles) to the next fault; always >= 1.

        Draws come from ``self.rng``, the *same* stream the error model
        uses for its fault sites — one seed pins the whole fault history
        of one injector.  Cross-trial and cross-cache independence is the
        caller's job: seed every injector of every trial through
        :func:`derive_stream_seed`, never with integer-offset seeds.
        """
        u = self.rng.random()
        # Inverse-CDF sampling of Geometric(p) on {1, 2, ...}.
        gap = int(math.log(1.0 - u) / math.log(1.0 - self.probability)) + 1
        return self._clock + max(1, gap)

    def advance(self, now: int) -> int:
        """Apply every fault scheduled in (clock, now]; returns #flips."""
        if self._next_strike is None:
            self._clock = max(self._clock, now)
            return 0
        flips = 0
        while self._next_strike <= now:
            self._clock = self._next_strike
            for site in self.model.sites(self.cache, self.rng):
                self._apply(site)
                flips += 1
            self._next_strike = self._draw_gap()
        self._clock = max(self._clock, now)
        return flips

    def _apply(self, site: FaultSite) -> None:
        """Flip one stored bit, honouring the word's protection layout."""
        block = self.cache.sets[site.set_index][site.way]
        if not block.valid or block.words is None:
            return
        if site.word_index >= len(block.words):
            return
        self.cache.stats.errors_injected += 1
        block.words[site.word_index].flip_bit(site.bit)

    def force_fault(self, site: FaultSite) -> None:
        """Apply a specific fault immediately (deterministic tests)."""
        self._apply(site)
