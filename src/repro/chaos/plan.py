"""Deterministic, seeded fault plans.

A :class:`FaultPlan` is the *entire* description of a chaos run: a seed
plus per-fault-kind probabilities.  Whether a particular fault fires at
a particular site is a pure function of ``(seed, kind, site key)`` — a
blake2b hash mapped onto the unit interval and compared against the
kind's rate — so a chaos run is exactly as reproducible as the
simulations it disturbs: same seed, same faults, same recoveries, and
(because every fault lands beneath a retry or quarantine boundary) the
same final report, byte for byte.

The plan is plain data on purpose.  It serializes to one JSON object so
:mod:`repro.chaos.runtime` can ship it to pool workers through an
environment variable, and it contains no callables or state — all
"fire at most once" bookkeeping lives in the runtime's marker files,
shared by every process of the run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

#: Everything the runtime knows how to inject, with the plan field
#: carrying each kind's probability.
FAULT_KINDS = (
    "kill",  # worker death (os._exit in pool workers, raise in-process)
    "timeout",  # forced per-job timeout
    "corrupt",  # garble a result-cache entry after it lands on disk
    "truncate",  # truncate a result-cache entry after it lands on disk
    "torn_checkpoint",  # campaign checkpoint persisted half-written
    "disk_full",  # ENOSPC from a persistence write
)


@dataclass(frozen=True)
class FaultPlan:
    """One seeded schedule of faults (rates in [0, 1] per site)."""

    seed: int = 0
    kill_rate: float = 0.0
    timeout_rate: float = 0.0
    corrupt_rate: float = 0.0
    truncate_rate: float = 0.0
    torn_checkpoint_rate: float = 0.0
    disk_full_rate: float = 0.0

    def __post_init__(self):
        for kind in FAULT_KINDS:
            rate = self.rate(kind)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{kind} rate {rate!r} outside [0, 1]")

    def rate(self, kind: str) -> float:
        """The configured probability for *kind* (raises on unknown)."""
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        return getattr(self, f"{kind}_rate")

    def decide(self, kind: str, key: str) -> bool:
        """Whether *kind* is scheduled at site *key* (pure, seeded).

        The same (plan, kind, key) triple always answers the same way,
        in every process of the run — that is what makes a chaos run
        reproducible and its marker-file dedup race-free.
        """
        rate = self.rate(kind)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        digest = hashlib.blake2b(
            f"{self.seed}\x00{kind}\x00{key}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") < rate * 2.0**64

    def to_json(self) -> str:
        """Compact JSON wire form (the env-var transport payload)."""
        return json.dumps(
            dataclasses.asdict(self), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Inverse of :meth:`to_json` (raises on malformed input)."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("fault plan must be a JSON object")
        allowed = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ValueError(f"unknown fault plan field(s): {', '.join(unknown)}")
        return cls(**data)
