"""The fault injector: *when* transient errors strike.

The paper injects errors "at each clock cycle based on a constant
probability" (Section 5.5).  Iterating every cycle is wasteful in a
software simulator, so the injector draws the gap to the next fault from
the geometric distribution — statistically identical to per-cycle Bernoulli
trials with probability *p* — and applies the configured error model's
fault sites when the simulated clock passes each strike time.

The injector attaches to any cache built with ``track_data=True`` that
exposes the ``InjectionTarget`` slots and the per-frame fault surface
(:mod:`repro.errors.models`) — the object kernel's
:class:`~repro.core.icr_cache.ICRCache` or the SoA kernel's
:class:`~repro.core.array_kernel.BitAccurateArrayDL1`.  A cache calls
:meth:`advance` at the start of every demand access; the batched engine
calls it only for the accesses at or past :attr:`FaultInjector.next_strike`,
which is the same fault history, since strikes land only inside
:meth:`advance`.
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
        self._assoc = cache.geometry.associativity
        #: Cycle of the next strike (``None``: the probability is 0).
        #: No fault lands before :meth:`advance` reaches it.
        self.next_strike: Optional[int] = None
        if probability_per_cycle > 0.0:
            self.next_strike = self._draw_gap(0)
        cache.injector = self

    def _draw_gap(self, start: int) -> int:
        """Cycle of the next fault: *start* plus a geometric gap >= 1.

        Draws come from ``self.rng``, the *same* stream the error model
        uses for its fault sites — one seed pins the whole fault history
        of one injector.  Cross-trial and cross-cache independence is the
        caller's job: seed every injector of every trial through
        :func:`derive_stream_seed`, never with integer-offset seeds.
        """
        u = self.rng.random()
        # Inverse-CDF sampling of Geometric(p) on {1, 2, ...}.
        gap = int(math.log(1.0 - u) / math.log(1.0 - self.probability)) + 1
        return start + max(1, gap)

    def advance(self, now: int) -> int:
        """Apply every fault scheduled up to cycle *now*; returns #flips."""
        if self.next_strike is None:
            return 0
        flips = 0
        while self.next_strike <= now:
            for site in self.model.sites(self.cache, self.rng):
                self._apply(site)
                flips += 1
            self.next_strike = self._draw_gap(self.next_strike)
        return flips

    def _apply(self, site: FaultSite) -> None:
        """Flip one stored bit, honouring the word's protection layout."""
        cache = self.cache
        frame = site.set_index * self._assoc + site.way
        if cache.frame_protection(frame) is None:
            return
        if site.word_index >= cache.words_per_block:
            return
        cache.stats.errors_injected += 1
        cache.frame_flip(frame, site.word_index, site.bit)

    def force_fault(self, site: FaultSite) -> None:
        """Apply a specific fault immediately (deterministic tests)."""
        self._apply(site)
