"""Top-level experiment runner: workload -> CPU -> ICR dL1 -> metrics.

One :func:`run_experiment` call reproduces one bar of one figure: it builds
the Table 1 machine around the requested dL1 scheme, generates (or reuses)
the benchmark trace, runs the timing pipeline, and returns every Section
4.1 metric plus the raw counters.

The primary calling convention is spec-based::

    spec = ExperimentSpec("gzip", "ICR-P-PS(S)", n_instructions=100_000)
    result = run_experiment(spec)

The historical keyword form (``run_experiment(benchmark, scheme, **kw)``)
has been removed; :meth:`ExperimentSpec.from_kwargs` builds the
equivalent spec for callers migrating off it — both routes produce
bit-identical results and share one cache identity.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.cache.hierarchy import MemoryHierarchy
from repro.core import array_kernel
from repro.cpu.branch import PredictorStats
from repro.cpu.pipeline import OutOfOrderPipeline, PipelineResult
from repro.energy.accounting import EnergyBreakdown, EnergyParams, energy_of
from repro.errors.injector import FaultInjector, derive_stream_seed
from repro.harness.spec import ExperimentSpec, MachineConfig
from repro.workloads.generator import trace_for
from repro.workloads.spec2000 import profile_for

#: Version tag of the plain-data form of :class:`SimulationResult`
#: (:meth:`SimulationResult.to_dict`); bumped on incompatible changes.
RESULT_FORMAT = 1


@dataclass
class SimulationResult:
    """Everything one run produced."""

    benchmark: str
    scheme: str
    instructions: int
    cycles: int
    pipeline: PipelineResult
    dl1: dict[str, int]  # raw dL1 counters (CacheStats.snapshot())
    miss_rate: float
    load_miss_rate: float
    replication_ability: float
    second_replica_ability: float
    loads_with_replica: float
    unrecoverable_load_fraction: float
    energy: EnergyBreakdown
    write_buffer_stalls: int
    # Present only when the run was started with measure_vulnerability.
    vulnerability: Optional["VulnerabilityReport"] = None
    # Raw iL1 counters (populated when icache_error_rate > 0).
    l1i: Optional[dict] = None

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    # -- stable plain-data round-trip ------------------------------------

    def to_dict(self) -> dict:
        """Lossless plain-data form (JSON-serializable).

        The inverse is :meth:`from_dict`; the round-trip covers every
        field including the optional ``vulnerability`` and ``l1i``
        payloads.  This is the one serialization used by the result
        cache, campaign checkpoints and JSONL trial logs.
        """
        p = self.pipeline
        return {
            "format": RESULT_FORMAT,
            "benchmark": self.benchmark,
            "scheme": self.scheme,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "pipeline": {
                "cycles": p.cycles,
                "instructions": p.instructions,
                "loads": p.loads,
                "stores": p.stores,
                "branches": p.branches,
                "mispredicts": p.mispredicts,
                "predictor_stats": dataclasses.asdict(p.predictor_stats),
            },
            "dl1": dict(self.dl1),
            "miss_rate": self.miss_rate,
            "load_miss_rate": self.load_miss_rate,
            "replication_ability": self.replication_ability,
            "second_replica_ability": self.second_replica_ability,
            "loads_with_replica": self.loads_with_replica,
            "unrecoverable_load_fraction": self.unrecoverable_load_fraction,
            "energy": dataclasses.asdict(self.energy),
            "write_buffer_stalls": self.write_buffer_stalls,
            "vulnerability": (
                _vulnerability_to_dict(self.vulnerability)
                if self.vulnerability is not None
                else None
            ),
            "l1i": dict(self.l1i) if self.l1i is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        """Inverse of :meth:`to_dict` (raises on malformed input)."""
        if data.get("format") != RESULT_FORMAT:
            raise ValueError(
                f"unsupported result format {data.get('format')!r}"
            )
        p = data["pipeline"]
        pipeline = PipelineResult(
            cycles=p["cycles"],
            instructions=p["instructions"],
            loads=p["loads"],
            stores=p["stores"],
            branches=p["branches"],
            mispredicts=p["mispredicts"],
            predictor_stats=PredictorStats(**p["predictor_stats"]),
        )
        vulnerability = data["vulnerability"]
        return cls(
            benchmark=data["benchmark"],
            scheme=data["scheme"],
            instructions=data["instructions"],
            cycles=data["cycles"],
            pipeline=pipeline,
            dl1=dict(data["dl1"]),
            miss_rate=data["miss_rate"],
            load_miss_rate=data["load_miss_rate"],
            replication_ability=data["replication_ability"],
            second_replica_ability=data["second_replica_ability"],
            loads_with_replica=data["loads_with_replica"],
            unrecoverable_load_fraction=data["unrecoverable_load_fraction"],
            energy=EnergyBreakdown(**data["energy"]),
            write_buffer_stalls=data["write_buffer_stalls"],
            vulnerability=(
                _vulnerability_from_dict(vulnerability)
                if vulnerability is not None
                else None
            ),
            l1i=dict(data["l1i"]) if data["l1i"] is not None else None,
        )


def _vulnerability_to_dict(report) -> dict:
    return {
        "block_cycles": {c.value: v for c, v in report.block_cycles.items()},
        "invalid_block_cycles": report.invalid_block_cycles,
        "observed_cycles": report.observed_cycles,
        "samples": report.samples,
        "total_blocks": report.total_blocks,
    }


def _vulnerability_from_dict(data: dict):
    from repro.reliability.vulnerability import ExposureClass, VulnerabilityReport

    return VulnerabilityReport(
        block_cycles={
            ExposureClass(name): value
            for name, value in data["block_cycles"].items()
        },
        invalid_block_cycles=data["invalid_block_cycles"],
        observed_cycles=data["observed_cycles"],
        samples=data["samples"],
        total_blocks=data["total_blocks"],
    )


def run_experiment(spec: ExperimentSpec) -> SimulationResult:
    """Run one experiment on the Table 1 machine.

    Takes an :class:`~repro.harness.spec.ExperimentSpec` — the sole
    entry point since the removal of the deprecated
    ``run_experiment(benchmark, scheme, **kwargs)`` keyword form (build
    the equivalent spec with :meth:`ExperimentSpec.from_kwargs`).  A
    nonzero ``error_rate`` turns on bit-accurate storage and per-cycle
    Bernoulli fault injection (Section 5.5).
    """
    if not isinstance(spec, ExperimentSpec):
        raise TypeError(
            "run_experiment takes an ExperimentSpec; the keyword form "
            "was removed — use ExperimentSpec.from_kwargs(benchmark, "
            "scheme, **kwargs)"
        )
    return _run_spec(spec)


def _run_spec(spec: ExperimentSpec) -> SimulationResult:
    """Execute one fully-specified experiment."""
    machine = spec.machine or MachineConfig()
    profile = (
        profile_for(spec.benchmark)
        if isinstance(spec.benchmark, str)
        else spec.benchmark
    )
    # One resolver picks the kernel tier (array_kernel.backend_mode
    # reports the same choice).  Under backend="array" every spec with a
    # plain iL1 runs the batched engine, whatever its dL1 model; a
    # protected or injected iL1 runs here, under the object hierarchy
    # and pipeline, with the per-access SoA dL1 where it applies and the
    # object dL1 otherwise.  backend="object" is the reference oracle.
    # All tiers are bit-identical (tests/differential/).
    mode, config = array_kernel.resolve_kernel(spec)
    if mode == "array-batched":
        return array_kernel.run_batched(spec, profile, config, machine)
    dl1, monitor = array_kernel.build_model(spec, config, mode == "array-soa")
    config = dl1.config

    hierarchy_config = machine.hierarchy
    if spec.icache_error_rate > 0.0 and not hierarchy_config.protected_icache:
        hierarchy_config = dataclasses.replace(
            hierarchy_config, protected_icache=True
        )
    hierarchy = MemoryHierarchy(dl1, hierarchy_config)
    if spec.icache_error_rate > 0.0:
        # The iL1 stream is hash-derived from the trial seed, never a
        # neighbouring integer seed — two trials differing only in
        # error_seed can't alias each other's draw streams.
        FaultInjector(
            hierarchy.l1i,
            spec.icache_error_rate,
            model=spec.error_model,
            seed=derive_stream_seed(spec.error_seed, "l1i"),
        )
    pipeline = OutOfOrderPipeline(hierarchy, machine.pipeline)

    trace = trace_for(
        profile,
        spec.n_instructions + spec.warmup_instructions,
        seed_offset=spec.trace_seed,
    )
    result = pipeline.run(trace, reset_stats_at=spec.warmup_instructions)
    vulnerability = monitor.finish(result.cycles) if monitor else None

    params = EnergyParams.from_geometries(
        config.geometry,
        machine.hierarchy.l2_geometry,
        parity_fraction=machine.parity_fraction,
        ecc_fraction=machine.ecc_fraction,
    )
    stats = dl1.stats
    return SimulationResult(
        benchmark=profile.name,
        scheme=config.name,
        instructions=result.instructions,
        cycles=result.cycles,
        pipeline=result,
        dl1=stats.snapshot(),
        miss_rate=stats.miss_rate,
        load_miss_rate=stats.load_miss_rate,
        replication_ability=stats.replication_ability,
        second_replica_ability=stats.second_replica_ability,
        loads_with_replica=stats.loads_with_replica,
        unrecoverable_load_fraction=stats.unrecoverable_load_fraction,
        energy=energy_of(hierarchy.stats, params, cycles=result.cycles),
        write_buffer_stalls=hierarchy.stats.write_buffer_stall_cycles,
        vulnerability=vulnerability,
        l1i=(
            hierarchy.l1i.stats.snapshot()
            if spec.icache_error_rate > 0.0
            else None
        ),
    )


def normalized_cycles(
    results: dict[str, SimulationResult], base: str = "BaseP"
) -> dict[str, float]:
    """Execution cycles of each scheme relative to *base* (Figure 9 style)."""
    base_cycles = results[base].cycles
    return {name: r.cycles / base_cycles for name, r in results.items()}
