"""Micro-benchmarks of the simulator itself (proper pytest-benchmark use).

These track the throughput of the hot paths — cache accesses, SEC-DED
encode/decode, pipeline scheduling, trace generation — so performance
regressions in the substrate are visible independently of the figure
suite.
"""

import random

from repro.cache.hierarchy import MemoryHierarchy
from repro.cache.set_assoc import CacheGeometry, SetAssociativeCache
from repro.coding.hamming import decode, encode
from repro.core.schemes import make_cache
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.harness.runner import ParallelRunner
from repro.harness.spec import ExperimentSpec
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.spec2000 import profile_for


def test_plain_cache_access_throughput(benchmark):
    cache = SetAssociativeCache(CacheGeometry(16 * 1024, 4, 64))
    rng = random.Random(1)
    addrs = [rng.randrange(1 << 22) & ~7 for _ in range(20_000)]

    def run():
        for now, addr in enumerate(addrs):
            cache.access(addr, now & 3 == 0, now)

    benchmark(run)


def test_icr_cache_access_throughput(benchmark):
    cache = make_cache("ICR-P-PS(S)", decay_window=0)
    rng = random.Random(2)
    hot = [rng.randrange(1 << 20) & ~7 for _ in range(128)]
    addrs = [
        rng.choice(hot) if rng.random() < 0.8 else rng.randrange(1 << 22) & ~7
        for _ in range(20_000)
    ]

    def run():
        for now, addr in enumerate(addrs):
            cache.access(addr, now & 3 == 0, now)

    benchmark(run)


def test_secded_encode_throughput(benchmark):
    words = [((i * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)) for i in range(2_000)]
    benchmark(lambda: [encode(w) for w in words])


def test_secded_decode_throughput(benchmark):
    codewords = [
        encode((i * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)) for i in range(2_000)
    ]
    benchmark(lambda: [decode(c) for c in codewords])


def test_pipeline_throughput(benchmark):
    trace = WorkloadGenerator(profile_for("gzip")).generate(30_000)

    def run():
        pipeline = OutOfOrderPipeline(MemoryHierarchy(make_cache("BaseP")))
        return pipeline.run(trace).cycles

    benchmark(run)


def test_trace_generation_throughput(benchmark):
    generator = WorkloadGenerator(profile_for("gcc"))
    benchmark(lambda: generator.generate(30_000))


def _end_to_end_grid(backend):
    return [
        ExperimentSpec(bench, scheme, n_instructions=30_000, backend=backend)
        for bench in ("gzip", "mcf")
        for scheme in ("BaseP", "ICR-P-PS(S)")
    ]


def test_end_to_end_sims_per_sec(benchmark):
    """End-to-end runner throughput (jobs=1, result cache disabled).

    This is the number the acceptance bar in BENCH_simulator.json tracks:
    whole simulations per second through the serial in-process path —
    trace lookup, pipeline, hierarchy and stats extraction included.
    """
    grid = _end_to_end_grid("object")

    def run():
        runner = ParallelRunner(jobs=1, cache=None)
        runner.run(grid)
        return runner.stats.sims_per_sec

    benchmark(run)


def test_end_to_end_sims_per_sec_array(benchmark):
    """Same grid through the struct-of-arrays kernel (backend="array").

    One untimed warm-up pass first: it fills the trace memo and the
    phase-1 prestage memo and builds the native phase-2 kernel, all
    one-time costs that would otherwise be charged to the first timed
    round.  The steady-state number here against its object twin above
    is the array kernel's speedup claim (>= 3x end to end).
    """
    grid = _end_to_end_grid("array")
    ParallelRunner(jobs=1, cache=None).run(list(grid))

    def run():
        runner = ParallelRunner(jobs=1, cache=None)
        runner.run(grid)
        return runner.stats.sims_per_sec

    benchmark(run)
