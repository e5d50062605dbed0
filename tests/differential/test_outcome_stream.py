"""Per-access differential: ArrayDL1 and ICRCache agree event by event.

The matrix tests compare end-of-run aggregates; these drive both dL1
implementations through the same access stream and compare every
:class:`~repro.core.protocol.DL1Outcome` as it happens, plus the
eviction callback streams and the final counter state.  A transposition
that cancels out in the totals is caught here.
"""

import dataclasses
import random

import pytest

from repro.core.array_kernel import ArrayDL1
from repro.core.config import VictimPolicy
from repro.core.icr_cache import ICRCache
from repro.core.schemes import make_config

#: Knob points spanning the ICR design space the kernel supports.
CONFIGS = {
    "basep": ("BaseP", {}),
    "icr_s": ("ICR-P-PS(S)", {}),
    "icr_ls_pp": ("ICR-ECC-PP(LS)", {}),
    "replica_first": (
        "ICR-P-PS(S)",
        {"victim_policy": VictimPolicy.REPLICA_FIRST},
    ),
    "decay": ("ICR-P-PS(LS)", {"decay_window": 512}),
    "never_dead": ("ICR-P-PS(S)", {"decay_window": None}),
    "two_replicas": (
        "ICR-P-PS(S)",
        {"max_replicas": 2, "second_replica_distances": ("N/4",)},
    ),
    "leave_replicas": ("ICR-P-PS(LS)", {"leave_replicas_on_evict": True}),
    "into_invalid": ("ICR-P-PS(S)", {"replicate_into_invalid": True}),
    "horizontal": ("ICR-P-PS(S)", {"replica_distances": (0,)}),
}


def _access_stream(seed, n=4_000):
    """A hot/cold mix over enough sets to exercise eviction and decay."""
    rng = random.Random(seed)
    hot = [rng.randrange(1 << 18) & ~63 for _ in range(96)]
    return [
        (
            rng.choice(hot) if rng.random() < 0.75 else rng.randrange(1 << 22),
            rng.random() < 0.3,
        )
        for _ in range(n)
    ]


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("seed", [1, 2])
def test_outcome_streams_identical(name, seed):
    scheme, knobs = CONFIGS[name]
    config = make_config(scheme, **knobs)
    reference = ICRCache(config)
    candidate = ArrayDL1(config)

    ref_evictions, cand_evictions = [], []
    reference.set_evict_hook(ref_evictions.append)
    candidate.set_evict_hook(cand_evictions.append)

    for now, (addr, is_write) in enumerate(_access_stream(seed)):
        expected = reference.access(addr, is_write, now)
        got = candidate.access(addr, is_write, now)
        assert got == expected, f"access {now} (addr={addr:#x})"

    assert cand_evictions == ref_evictions
    assert dataclasses.asdict(candidate.stats) == dataclasses.asdict(
        reference.stats
    )
