"""repro — a full reproduction of *ICR: In-Cache Replication for Enhancing
Data Cache Reliability* (Zhang, Gurumurthi, Kandemir, Sivasubramaniam;
DSN 2003).

The package implements the paper's contribution — an L1 data cache that
recycles dead lines to hold replicas of live data — together with every
substrate its evaluation needs: a set-associative cache hierarchy, parity
and SEC-DED codes, a dead-block predictor, transient-fault injection, an
out-of-order CPU timing model, synthetic SPEC2000-like workloads, a
CACTI-style energy model, and a per-figure experiment harness.

Quick start::

    from repro import ExperimentSpec, run_experiment

    spec = ExperimentSpec("gzip", "ICR-P-PS(S)", n_instructions=100_000)
    result = run_experiment(spec)
    print(result.loads_with_replica, result.cpi)

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-vs-measured record of every figure.
"""

from repro import api
from repro.core import (
    ALL_SCHEMES,
    HEADLINE_SCHEMES,
    ICRCache,
    ICRConfig,
    LookupMode,
    ReplicationTrigger,
    VictimPolicy,
    make_cache,
    make_config,
)
from repro.harness import (
    ExperimentSpec,
    MachineConfig,
    SimulationResult,
    normalized_cycles,
    run_experiment,
)
from repro.workloads import BENCHMARKS, PROFILES, WorkloadProfile

__version__ = "1.0.0"

__all__ = [
    "api",
    "ALL_SCHEMES",
    "HEADLINE_SCHEMES",
    "ICRCache",
    "ICRConfig",
    "LookupMode",
    "ReplicationTrigger",
    "VictimPolicy",
    "make_cache",
    "make_config",
    "ExperimentSpec",
    "MachineConfig",
    "SimulationResult",
    "normalized_cycles",
    "run_experiment",
    "BENCHMARKS",
    "PROFILES",
    "WorkloadProfile",
    "__version__",
]
