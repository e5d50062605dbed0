"""Branch prediction: the combined predictor + BTB of Table 1.

SimpleScalar's ``comb`` predictor: a bimodal table and a two-level global
predictor run in parallel, and a chooser (meta) table of 2-bit counters
picks which one to believe per branch.  Table 1's sizes: bimodal 2K-entry,
two-level with 1K-entry pattern table and 8 bits of global history, and a
512-entry 4-way BTB.  A conditional branch mispredicts when the chosen
direction is wrong, or when it is (correctly) predicted taken but the BTB
cannot supply the target.  Misprediction costs 3 cycles (Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PredictorStats:
    branches: int = 0
    direction_mispredicts: int = 0
    btb_misses: int = 0

    @property
    def mispredicts(self) -> int:
        return self.direction_mispredicts + self.btb_misses

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.branches if self.branches else 0.0


class CombinedPredictor:
    """Bimodal + gshare-style two-level, arbitrated by a chooser table."""

    def __init__(
        self,
        bimodal_entries: int = 2048,
        l2_entries: int = 1024,
        history_bits: int = 8,
        chooser_entries: int = 2048,
        btb_sets: int = 128,
        btb_ways: int = 4,
    ):
        for n, what in (
            (bimodal_entries, "bimodal_entries"),
            (l2_entries, "l2_entries"),
            (chooser_entries, "chooser_entries"),
            (btb_sets, "btb_sets"),
        ):
            if n <= 0 or n & (n - 1):
                raise ValueError(f"{what} must be a power of two")
        self.bimodal = [2] * bimodal_entries  # weakly taken
        self.l2_table = [2] * l2_entries
        self.chooser = [2] * chooser_entries  # weakly prefer two-level
        self.history = 0
        self.history_mask = (1 << history_bits) - 1
        self._bi_mask = bimodal_entries - 1
        self._l2_mask = l2_entries - 1
        self._ch_mask = chooser_entries - 1
        self.btb_sets = btb_sets
        self.btb_ways = btb_ways
        # BTB ways store (tag, target, stamp) tuples.
        self.btb: list[list[tuple[int, int, int]]] = [[] for _ in range(btb_sets)]
        self._btb_clock = 0
        self.stats = PredictorStats()

    # -- index helpers ------------------------------------------------------

    def _bi_index(self, pc: int) -> int:
        return (pc >> 2) & self._bi_mask

    def _l2_index(self, pc: int) -> int:
        return ((pc >> 2) ^ (self.history << 2)) & self._l2_mask

    def _ch_index(self, pc: int) -> int:
        return (pc >> 2) & self._ch_mask

    # -- BTB ----------------------------------------------------------------

    def _btb_lookup(self, pc: int) -> int | None:
        entry_set = self.btb[(pc >> 2) & (self.btb_sets - 1)]
        tag = pc >> 2
        for stored_tag, target, _ in entry_set:
            if stored_tag == tag:
                return target
        return None

    def _btb_insert(self, pc: int, target: int) -> None:
        index = (pc >> 2) & (self.btb_sets - 1)
        entry_set = self.btb[index]
        tag = pc >> 2
        self._btb_clock += 1
        for i, (stored_tag, _, _) in enumerate(entry_set):
            if stored_tag == tag:
                entry_set[i] = (tag, target, self._btb_clock)
                return
        if len(entry_set) >= self.btb_ways:
            victim = min(range(len(entry_set)), key=lambda i: entry_set[i][2])
            entry_set.pop(victim)
        entry_set.append((tag, target, self._btb_clock))

    # -- predict / update ----------------------------------------------------

    def predict(self, pc: int) -> tuple[bool, int | None]:
        """Predicted (direction, target-or-None) for the branch at *pc*."""
        bimodal_taken = self.bimodal[self._bi_index(pc)] >= 2
        l2_taken = self.l2_table[self._l2_index(pc)] >= 2
        use_l2 = self.chooser[self._ch_index(pc)] >= 2
        taken = l2_taken if use_l2 else bimodal_taken
        target = self._btb_lookup(pc) if taken else None
        return taken, target

    def access(self, pc: int, taken: bool, target: int) -> bool:
        """Predict, then update with the resolved outcome.

        Returns ``True`` when the branch *mispredicted* (direction wrong,
        or predicted taken without a BTB-supplied correct target).
        """
        self.stats.branches += 1
        bi_index = self._bi_index(pc)
        l2_index = self._l2_index(pc)
        ch_index = self._ch_index(pc)
        bimodal_taken = self.bimodal[bi_index] >= 2
        l2_taken = self.l2_table[l2_index] >= 2
        use_l2 = self.chooser[ch_index] >= 2
        predicted_taken = l2_taken if use_l2 else bimodal_taken

        mispredict = predicted_taken != taken
        if mispredict:
            self.stats.direction_mispredicts += 1
        elif taken:
            known_target = self._btb_lookup(pc)
            if known_target != target:
                self.stats.btb_misses += 1
                mispredict = True

        # Update component tables with the true outcome (2-bit saturating
        # counters, inlined — this runs once per branch instruction).
        bimodal = self.bimodal
        l2_table = self.l2_table
        if taken:
            if bimodal[bi_index] < 3:
                bimodal[bi_index] += 1
            if l2_table[l2_index] < 3:
                l2_table[l2_index] += 1
        else:
            if bimodal[bi_index] > 0:
                bimodal[bi_index] -= 1
            if l2_table[l2_index] > 0:
                l2_table[l2_index] -= 1
        if bimodal_taken != l2_taken:
            # Reward whichever component was right.
            chooser = self.chooser
            if l2_taken == taken:
                if chooser[ch_index] < 3:
                    chooser[ch_index] += 1
            elif chooser[ch_index] > 0:
                chooser[ch_index] -= 1
        self.history = ((self.history << 1) | int(taken)) & self.history_mask
        if taken:
            self._btb_insert(pc, target)
        return mispredict
