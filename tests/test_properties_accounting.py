"""Property-based accounting invariants of fault-injected runs.

* Every load error the dL1 detects lands in exactly one outcome bucket:
  recovered from a replica, recovered from L2, corrected by ECC, or
  counted unrecoverable (checked on finished runs).
* Under BaseECC a single-bit fault per word is always corrected.
* A load never delivers data that differs from its golden value unless
  the mismatch is counted.

Hypothesis draws the Fig. 14 scheme, the error model, the error rate and
the seed; the last two invariants run on both dL1 kernels.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import hamming, parity
from repro.coding.hamming import CODEWORD_BITS
from repro.coding.protection import ProtectionKind
from repro.core.array_kernel import ArrayDL1
from repro.core.icr_cache import ICRCache
from repro.core.schemes import make_config
from repro.errors.injector import FaultInjector
from repro.errors.models import MODELS, FaultSite
from repro.harness.experiment import run_experiment
from repro.harness.spec import ExperimentSpec

N = 2_000

SCHEMES = st.sampled_from(["BaseP", "BaseECC", "ICR-P-PS(S)", "ICR-ECC-PS(S)"])
ERROR_MODELS = st.sampled_from(sorted(MODELS))
ERROR_RATES = st.sampled_from([1e-3, 1e-2, 5e-2])
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=40, deadline=None)
@given(scheme=SCHEMES, model=ERROR_MODELS, rate=ERROR_RATES, seed=SEEDS)
def test_every_detected_load_error_lands_in_one_bucket(scheme, model, rate, seed):
    spec = ExperimentSpec.from_kwargs(
        "gzip",
        scheme,
        n_instructions=N,
        error_rate=rate,
        error_model=model,
        error_seed=seed,
    )
    dl1 = run_experiment(spec).dl1
    assert dl1["load_errors_detected"] == (
        dl1["load_errors_recovered_replica"]
        + dl1["load_errors_recovered_l2"]
        + dl1["load_errors_corrected_ecc"]
        + dl1["load_errors_unrecoverable"]
    ), dl1


# ---------------------------------------------------------------------------
# kernel-level invariants, on both kernels
# ---------------------------------------------------------------------------
#
# These drive the dL1 directly — no pipeline — so every load can be checked
# against the stored word it reads.  Both kernels run the same access
# stream and fault history and must also end with identical counters.

KERNELS = {"object": ICRCache, "array": ArrayDL1}
_MASK = (1 << 64) - 1


def _stream(seed: int, n: int = 1_500):
    """Loads and stores over a footprint 1.5x the 16 KB dL1."""
    rng = random.Random(seed)
    lines = [rng.randrange(1 << 12) for _ in range(384)]
    return [
        ((rng.choice(lines) << 6) | (rng.randrange(8) << 3), rng.random() < 0.3)
        for _ in range(n)
    ]


def _word_state(cache, block_addr: int, word: int):
    """``(kind, stored cell, golden)`` of a resident primary's word, else None.

    The cell uses the error models' bit numbering: the (72,64) codeword,
    or the 64 data bits with the 8 parity bits above them.
    """
    if isinstance(cache, ArrayDL1):
        f = cache._tag_index.get(block_addr, -1)
        if f < 0:
            return None
        kind = (ProtectionKind.PARITY, ProtectionKind.ECC)[cache._prot[f]]
        golden = cache._gold[(f << cache._word_shift) + word]
        error = cache._overlay.get(f, {}).get(word, 0)
        return kind, _fresh(kind, golden) ^ error, golden
    block = cache._tag_index.get(block_addr)
    if block is None or not block.valid or block.block_addr != block_addr:
        return None
    stored = block.words[word]
    if stored.kind is ProtectionKind.ECC:
        cell = stored._cell.codeword
    else:
        cell = stored._cell.data | stored._cell.parity << 64
    return stored.kind, cell, block.golden[word]


def _fresh(kind, data: int) -> int:
    if kind is ProtectionKind.ECC:
        return hamming.encode(data)
    return data | parity.byte_parity_bits(data) << 64


def _reference_read(kind, cell: int):
    """``(error_detected, corrected, data)`` straight from the codecs."""
    if kind is ProtectionKind.ECC:
        result = hamming.decode(cell)
        return (
            result.status is not hamming.DecodeStatus.OK,
            result.status is hamming.DecodeStatus.CORRECTED,
            result.data,
        )
    data = cell & _MASK
    return not parity.check_parity(data, cell >> 64), False, data


@settings(max_examples=30, deadline=None)
@given(
    backend=st.sampled_from(sorted(KERNELS)),
    seed=SEEDS,
    n_lines=st.integers(min_value=1, max_value=64),
)
def test_baseecc_corrects_every_single_bit_fault(backend, seed, n_lines):
    """One forced single-bit fault per word is always corrected by SEC-DED.

    Dirty lines included: BaseECC never needs a replica or an L2 refetch
    for a single-bit error, so nothing is unrecoverable.
    """
    rng = random.Random(seed)
    cache = KERNELS[backend](make_config("BaseECC", track_data=True))
    injector = FaultInjector(cache, 0.0)
    now = 0
    for addr, is_write in _stream(seed):
        now += 1
        cache.access(addr, is_write, now)
    assoc = cache.geometry.associativity
    resident = sorted(cache._tag_index)
    faulted = []
    for block_addr in rng.sample(resident, min(n_lines, len(resident))):
        state = cache._tag_index[block_addr]
        if isinstance(state, int):
            set_index, way = divmod(state, assoc)
        else:
            set_index, way = state.set_index, state.way
        for word in range(8):
            injector.force_fault(
                FaultSite(set_index, way, word, rng.randrange(CODEWORD_BITS))
            )
            faulted.append((block_addr, word))
    for block_addr, word in faulted:
        now += 1
        cache.access((block_addr << 6) | (word << 3), False, now)
    stats = cache.stats
    assert stats.errors_injected == len(faulted)
    assert stats.load_errors_unrecoverable == 0
    assert stats.load_errors_corrected_ecc == len(faulted)
    assert stats.silent_corruptions == 0


@settings(max_examples=30, deadline=None)
@given(
    scheme=SCHEMES,
    model=ERROR_MODELS,
    rate=st.sampled_from([1e-2, 5e-2, 2e-1]),
    seed=SEEDS,
)
def test_loads_never_return_wrong_data_uncounted(scheme, model, rate, seed):
    """A load hit delivers its golden value or the mismatch is counted —
    except for SEC-DED miscorrections, which are exempted.

    For every load the word's stored cell is read with the reference
    codecs just before the access, and the counters the load moved must
    match: an undetected mismatch is a silent corruption, a detected
    uncorrectable error is served from a replica or L2 or counted lost.
    The exemption: a SEC-DED miscorrection — three or more flips
    aliasing onto a single-bit syndrome — delivers wrong data that the
    code reports as corrected (``load_errors_corrected_ecc``), not as a
    silent corruption.  The test only pins that this needs at least
    three flipped bits.
    """
    finals = {}
    for backend, kernel in KERNELS.items():
        cache = kernel(make_config(scheme, track_data=True))
        injector = FaultInjector(cache, rate, model=model, seed=seed)
        stats = cache.stats
        now = 0
        for addr, is_write in _stream(seed):
            now += 1 + (addr >> 3) % 3
            block_addr, word = addr >> 6, (addr >> 3) & 7
            injector.advance(now)  # faults land before the read below
            state = None if is_write else _word_state(cache, block_addr, word)
            before = stats.snapshot()
            cache.access(addr, is_write, now)
            if state is None:
                continue
            kind, cell, golden = state
            after = stats.snapshot()
            moved = {
                key: after[key] - before[key]
                for key in after
                if after[key] != before[key]
                and key.startswith(("silent_corruptions", "load_errors"))
            }
            detected, corrected, data = _reference_read(kind, cell)
            if not detected:
                expected = {"silent_corruptions": 1} if data != golden else {}
                assert moved == expected, (backend, moved)
            elif corrected:
                assert moved.get("load_errors_corrected_ecc") == 1, (backend, moved)
                # TODO: drop this exemption when miscorrections count as
                # silent corruptions (ROADMAP, "Accounting invariants":
                # the change that re-pins the ECC fault-injection goldens).
                if data != golden:
                    flips = (cell ^ _fresh(kind, golden)).bit_count()
                    assert flips >= 3, (backend, flips)
            else:
                assert moved.get("load_errors_detected") == 1, (backend, moved)
                assert (
                    moved.get("load_errors_recovered_replica", 0)
                    + moved.get("load_errors_recovered_l2", 0)
                    + moved.get("load_errors_unrecoverable", 0)
                ) == 1, (backend, moved)
        finals[backend] = stats.snapshot()
    assert finals["array"] == finals["object"]
