"""Error models pick the same sites on both kernels.

The injector and the five error models reach a cache only through its
per-frame fault surface (``frame_protection``, ``frame_stamp``,
``frame_flip``).  :class:`~repro.core.icr_cache.ICRCache` answers from
its CacheBlocks, :class:`~repro.core.array_kernel.BitAccurateArrayDL1`
from its struct-of-arrays state; driven by one seeded access stream,
one seeded injector on each must flip the same sites in the same order.
"""

import random

import pytest

from repro.core.array_kernel import ArrayDL1
from repro.core.icr_cache import ICRCache
from repro.core.schemes import make_config
from repro.errors.injector import FaultInjector
from repro.errors.models import MODELS


def _recorded_sites(cache, model, seed):
    """Attach a seeded injector to *cache*; returns the list it fills
    with every site it applies."""
    injector = FaultInjector(cache, 2e-2, model=model, seed=seed)
    sites = []
    apply = injector._apply

    def recording(site):
        sites.append(site)
        apply(site)

    injector._apply = recording
    return sites


@pytest.mark.parametrize("seed", [1, 7, 2024])
@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("scheme", ["BaseP", "ICR-ECC-PS(S)", "ICR-P-PS(LS)"])
def test_models_flip_the_same_sites_on_both_kernels(scheme, model, seed):
    config = make_config(scheme, track_data=True)
    obj, arr = ICRCache(config), ArrayDL1(config)
    obj_sites = _recorded_sites(obj, model, seed)
    arr_sites = _recorded_sites(arr, model, seed)
    rng = random.Random(seed)
    lines = [rng.randrange(1 << 12) for _ in range(384)]
    for now in range(1, 3_000):
        addr = (rng.choice(lines) << 6) | (rng.randrange(8) << 3)
        is_write = rng.random() < 0.3
        for cache in (obj, arr):
            cache.access(addr, is_write, now)

    assert len(obj_sites) > 20
    assert arr_sites == obj_sites
    assert arr.stats.errors_injected == obj.stats.errors_injected
    n_frames = config.geometry.n_sets * config.geometry.associativity
    for f in range(n_frames):
        assert arr.frame_protection(f) == obj.frame_protection(f)
        if obj.frame_protection(f) is not None:
            assert arr.frame_stamp(f) == obj.frame_stamp(f)
