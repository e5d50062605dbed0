"""The batched engine's demand lane against the object reference.

A dL1 model with no struct-of-arrays port — a model the registry builds
whole (rcache, victim-cache, an external scheme), or an ``ICRCache`` for
scrubbing, vulnerability sampling, software hints and non-LRU
replacement — runs on ``array-batched`` through its own ``access``,
with every access stamped with its exact issue cycle and its dirty
victims reported through the evict hook.  These tests pin each kind of
model to the object kernel's complete ``SimulationResult.to_dict()``.
"""

import pytest

from repro.cache.stats import CacheStats
from repro.coding.protection import ProtectionKind
from repro.core import _native, array_kernel, registry
from repro.core.array_kernel import backend_mode
from repro.core.config import variant
from repro.core.hints import ReplicationHints
from repro.core.registry import SchemeEntry, SchemeInfo
from repro.core.schemes import make_config
from repro.harness.experiment import run_experiment
from repro.harness.spec import ExperimentSpec
from repro.workloads.generator import HOT_BASE, STREAM_BASE
from tests.differential.test_equivalence_matrix import N, TRACES
from tests.test_api_check_scheme import TinyDirectMapped

#: The baselines' variants: plain, a warm-up boundary, Fig. 14 faults.
BASELINE_RUNS = {
    "plain": {},
    "warmup": {"warmup_instructions": 3_000},
    "faults": {"error_rate": 1e-2, "error_seed": 7},
}

#: Software hints over the synthetic workload's hot and stream regions.
HINTED = variant(
    make_config("ICR-P-PS(S)", decay_window=1000),
    hints=ReplicationHints()
    .replicas(HOT_BASE, HOT_BASE + 64 * 64, 2)
    .eager(HOT_BASE, HOT_BASE + 64 * 64)
    .never(STREAM_BASE, STREAM_BASE + (1 << 28)),
    name="ICR-P-PS(S)+hints",
)


def _spec(bench, trace_seed, scheme, **extra):
    return ExperimentSpec(
        bench, scheme, n_instructions=N, trace_seed=trace_seed,
        backend="array", **extra,
    )


def _assert_identical(spec):
    assert backend_mode(spec) == "array-batched"
    reference = run_experiment(spec.replace(backend="object")).to_dict()
    assert run_experiment(spec).to_dict() == reference


@pytest.mark.parametrize("bench,trace_seed", TRACES)
@pytest.mark.parametrize("run", sorted(BASELINE_RUNS))
@pytest.mark.parametrize("scheme", ["rcache", "victim-cache"])
def test_baselines_bit_identical(scheme, run, bench, trace_seed):
    _assert_identical(_spec(bench, trace_seed, scheme, **BASELINE_RUNS[run]))


class _ResultStats(CacheStats):
    """CacheStats that also takes TinyDirectMapped's own two counters."""

    accesses = 0
    hits = 0


class _TinyScheme(TinyDirectMapped):
    """TinyDirectMapped, also counting what a simulation result reads."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.stats = _ResultStats()

    def access(self, addr, is_write, now):
        outcome = super().access(addr, is_write, now)
        stats = self.stats
        if is_write:
            stats.stores += 1
            stats.store_hits += outcome.hit
            stats.store_misses += not outcome.hit
        else:
            stats.loads += 1
            stats.load_hits += outcome.hit
            stats.load_misses += not outcome.hit
        return outcome


@pytest.fixture
def tiny_scheme():
    """TinyDirectMapped registered as an external scheme, then removed."""
    info = SchemeInfo(
        name="Tiny-DM",
        kind="base",
        description="external protocol-floor scheme",
        protection=ProtectionKind.PARITY,
        load_hit_latency=1,
    )
    registry.register(SchemeEntry(info=info, build=_TinyScheme))
    yield info.name
    registry._REGISTRY.pop(info.name)
    registry._LOOKUP.pop(registry._squash(info.name), None)


@pytest.mark.parametrize("bench,trace_seed", TRACES)
def test_external_scheme_bit_identical(tiny_scheme, bench, trace_seed):
    _assert_identical(_spec(bench, trace_seed, tiny_scheme))


@pytest.mark.parametrize("bench,trace_seed", TRACES)
@pytest.mark.parametrize("scheme", ["BaseP", "ICR-ECC-PS(S)"])
def test_scrubbing_bit_identical(scheme, bench, trace_seed):
    spec = _spec(
        bench, trace_seed, scheme, error_rate=1e-2, error_seed=3, scrub_period=500
    )
    _assert_identical(spec)
    assert run_experiment(spec).dl1["errors_injected"] > 0


@pytest.mark.parametrize("bench,trace_seed", TRACES)
@pytest.mark.parametrize("faults", [{}, {"error_rate": 1e-2}], ids=["clean", "faults"])
def test_vulnerability_bit_identical(faults, bench, trace_seed):
    spec = _spec(
        bench, trace_seed, "ICR-P-PS(S)", measure_vulnerability=True, **faults
    )
    _assert_identical(spec)
    assert run_experiment(spec).vulnerability.samples > 1


@pytest.mark.parametrize("bench,trace_seed", TRACES)
@pytest.mark.parametrize("replacement", ["fifo", "random", "plru"])
def test_replacement_bit_identical(replacement, bench, trace_seed):
    _assert_identical(
        _spec(
            bench, trace_seed, "ICR-P-PS(S)",
            scheme_kwargs={"replacement": replacement},
        )
    )


@pytest.mark.parametrize("bench,trace_seed", TRACES)
def test_hints_bit_identical(bench, trace_seed):
    _assert_identical(_spec(bench, trace_seed, HINTED))


def test_python_twin_drives_the_demand_lane(monkeypatch):
    """With native unavailable, the twin stamps the demand lane alike."""
    spec = _spec("mcf", 11, "victim-cache", error_rate=1e-2)
    native = run_experiment(spec).to_dict()
    twins = []

    def counted(*args):
        twins.append(args)
        return twin(*args)

    twin = array_kernel._phase2_python
    monkeypatch.setattr(_native, "_STATE", [None])
    monkeypatch.setattr(array_kernel, "_phase2_python", counted)
    fallback = run_experiment(spec).to_dict()
    assert len(twins) == 1
    assert fallback == native
    assert fallback == run_experiment(spec.replace(backend="object")).to_dict()
