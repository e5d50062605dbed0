"""One function per table/figure of the paper's evaluation (Section 5).

Each ``figure_*`` function runs the experiments behind one figure and
returns a :class:`FigureResult` whose rows are the same series the paper
plots.  The benchmark suite (``benchmarks/``) calls these functions, and
``EXPERIMENTS.md`` is generated from their output, so the mapping
paper-figure -> code lives in exactly one place.

Two standard configurations (paper Section 5):

* **aggressive** — decay window 0 (dead as soon as the access completes)
  with the dead-only victim policy; used by Figures 1-9.
* **relaxed** — 1000-cycle decay window with the dead-first victim policy;
  adopted in Section 5.4 and used by Figures 12-17.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.core.config import VictimPolicy
from repro.core.schemes import ALL_SCHEMES
from repro.harness.experiment import (
    DEFAULT_INSTRUCTIONS,
    run_experiment,
)
from repro.harness.report import format_table
from repro.harness.runner import Job, ParallelRunner
from repro.harness.spec import ExperimentSpec
from repro.workloads.spec2000 import BENCHMARKS

#: Shared kwargs for the two standard configurations.
AGGRESSIVE = dict(decay_window=0, victim_policy=VictimPolicy.DEAD_ONLY)
RELAXED = dict(decay_window=1000, victim_policy=VictimPolicy.DEAD_FIRST)


@dataclass
class FigureResult:
    """The regenerated rows of one paper figure."""

    figure_id: str
    title: str
    paper_claim: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    # Hand-written reproduction status vs. the paper (paper figures only).
    verdict: str = ""

    def to_table(self) -> str:
        body = format_table(self.columns, self.rows)
        return f"{self.figure_id}: {self.title}\npaper: {self.paper_claim}\n{body}"

    def column(self, name: str) -> list:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def averages(self) -> dict[str, float]:
        """Mean of every numeric column (skipping the first, labels)."""
        result = {}
        for i, name in enumerate(self.columns[1:], start=1):
            values = [row[i] for row in self.rows if isinstance(row[i], (int, float))]
            if values:
                result[name] = sum(values) / len(values)
        return result

    def to_json(self) -> str:
        """Machine-readable form for downstream tooling."""
        import json

        return json.dumps(
            {
                "figure_id": self.figure_id,
                "title": self.title,
                "paper_claim": self.paper_claim,
                "columns": self.columns,
                "rows": self.rows,
                "verdict": self.verdict,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "FigureResult":
        import json

        data = json.loads(text)
        return cls(
            figure_id=data["figure_id"],
            title=data["title"],
            paper_claim=data["paper_claim"],
            columns=data["columns"],
            rows=data["rows"],
            verdict=data.get("verdict", ""),
        )


# ---------------------------------------------------------------------------
# Execution engine plumbing
#
# Every simulation a figure function performs goes through _run().  By
# default that is a plain run_experiment() call; under an execution
# context it is routed through a ParallelRunner (caching, metrics), a
# job collector or a replay engine (the two passes of prefetched()).
# ---------------------------------------------------------------------------

#: The active execution engine, or None for direct serial execution.
_CONTEXT = None


@contextlib.contextmanager
def execution_context(engine):
    """Route every ``_run`` call inside the block through *engine*.

    *engine* is anything with a ``run_one(benchmark, scheme, **kwargs)``
    method — normally a :class:`~repro.harness.runner.ParallelRunner`.
    Contexts nest; the previous engine is restored on exit.
    """
    global _CONTEXT
    previous = _CONTEXT
    _CONTEXT = engine
    try:
        yield engine
    finally:
        _CONTEXT = previous


def _run(bench, scheme, n, **kwargs):
    if _CONTEXT is not None:
        return _CONTEXT.run_one(bench, scheme, n_instructions=n, **kwargs)
    return run_experiment(
        ExperimentSpec.from_kwargs(bench, scheme, n_instructions=n, **kwargs)
    )


class _Probe(float):
    """Placeholder result used while collecting a figure's job set.

    Behaves as 1.0 in arithmetic, returns another probe for any
    attribute or item access, so the row-building code of a figure
    function runs to completion without a real simulation behind it.
    """

    def __new__(cls):
        return super().__new__(cls, 1.0)

    def __getattr__(self, name):
        return _Probe()

    def __getitem__(self, key):
        return _Probe()


class _JobCollector:
    """Execution engine that records jobs instead of running them.

    Uncacheable jobs (no stable key) are skipped: their results could
    not be recovered from the cache during the replay pass, so they run
    exactly once, serially, during replay.
    """

    def __init__(self):
        self.jobs: list[Job] = []
        self._seen: set[str] = set()

    def run_one(self, benchmark, scheme, **kwargs):
        job = Job(benchmark, scheme, kwargs)
        key = job.key()
        if key is not None and key not in self._seen:
            self._seen.add(key)
            self.jobs.append(job)
        return _Probe()


class _ReplayEngine:
    """Serves the replay pass from the runner's memo without re-counting.

    The batch pass already accounted for every cacheable job in the
    runner's stats; replaying through ``runner.run_one`` would double
    the job and hit counters.  Anything not in the memo (uncacheable
    jobs) falls through to the runner and is counted normally.
    """

    def __init__(self, runner: ParallelRunner):
        self.runner = runner

    def run_one(self, benchmark, scheme, **kwargs):
        key = Job(benchmark, scheme, kwargs).key()
        if key is not None:
            hit = self.runner._memo.get(key)
            if hit is not None:
                return hit
        return self.runner.run_one(benchmark, scheme, **kwargs)


def prefetched(figure_id: str, runner: ParallelRunner, **kwargs):
    """The execution engine that runs figure *figure_id* through *runner*.

    With more than one worker the figure function is first traced with
    placeholder results to collect its job grid, the grid runs as one
    batch through ``runner.run`` (worker pool + cache), and the returned
    engine replays the figure from the warmed memo — output
    bit-identical to the serial path, each job counted once.  A serial
    runner gains nothing from the batch and is returned as is.
    """
    if runner.jobs <= 1:
        return runner
    collector = _JobCollector()
    with execution_context(collector):
        ALL_FIGURES[figure_id](**kwargs)
    runner.run(collector.jobs)
    return _ReplayEngine(runner)


def run_figure(
    figure_id: str, *, runner: Optional[ParallelRunner] = None, **kwargs
) -> FigureResult:
    """Run one registered figure, optionally through a runner.

    Without a *runner* the figure simulates directly; with one it runs
    under :func:`prefetched`'s engine.
    """
    fn = ALL_FIGURES[figure_id]
    if runner is None:
        return fn(**kwargs)
    with execution_context(prefetched(figure_id, runner, **kwargs)):
        return fn(**kwargs)


# ---------------------------------------------------------------------------
# Section 5.1 — replication mechanisms (aggressive dead-block prediction)
# ---------------------------------------------------------------------------


def figure_01(
    n: int = DEFAULT_INSTRUCTIONS, benchmarks: Sequence[str] = BENCHMARKS
) -> FigureResult:
    """Replication ability: single vs multiple placement attempts."""
    result = FigureResult(
        "Fig 1",
        "Replication ability, single vs multiple attempts, ICR-P-PS(S)",
        "multiple attempts (N/2 then N/4) raise the replication ability",
        ["benchmark", "single_attempt", "multi_attempt"],
        verdict=(
            "REPRODUCED — multi-attempt ability exceeds single-attempt on every "
            "benchmark; absolute levels are workload-dependent."
        ),
    )
    for bench in benchmarks:
        single = _run(bench, "ICR-P-PS(S)", n, **AGGRESSIVE)
        multi = _run(
            bench, "ICR-P-PS(S)", n, replica_distances=("N/2", "N/4"), **AGGRESSIVE
        )
        result.rows.append(
            [bench, single.replication_ability, multi.replication_ability]
        )
    return result


def figure_02(
    n: int = DEFAULT_INSTRUCTIONS, benchmarks: Sequence[str] = BENCHMARKS
) -> FigureResult:
    """Loads with replica: single vs multiple placement attempts."""
    result = FigureResult(
        "Fig 2",
        "Loads with replica, single vs multiple attempts, ICR-P-PS(S)",
        "negligible improvement from multiple attempts (hot data already replicated)",
        ["benchmark", "single_attempt", "multi_attempt"],
        verdict=(
            "REPRODUCED — the loads-with-replica gain from multiple attempts is far "
            "smaller than the ability gain (slightly larger than the paper's "
            "'negligible')."
        ),
    )
    for bench in benchmarks:
        single = _run(bench, "ICR-P-PS(S)", n, **AGGRESSIVE)
        multi = _run(
            bench, "ICR-P-PS(S)", n, replica_distances=("N/2", "N/4"), **AGGRESSIVE
        )
        result.rows.append([bench, single.loads_with_replica, multi.loads_with_replica])
    return result


def figure_03(
    n: int = DEFAULT_INSTRUCTIONS, benchmarks: Sequence[str] = BENCHMARKS
) -> FigureResult:
    """Ability to create one vs two replicas (second at Distance-N/4)."""
    result = FigureResult(
        "Fig 3",
        "Replication ability for one vs two replicas, ICR-P-PS(S)",
        "a second copy can be created around 12% of the time on average",
        ["benchmark", "one_replica", "two_replicas"],
        verdict=(
            "REPRODUCED — a second replica is placeable a minority of the time, in the "
            "paper's ~12%-average regime."
        ),
    )
    for bench in benchmarks:
        two = _run(
            bench,
            "ICR-P-PS(S)",
            n,
            max_replicas=2,
            second_replica_distances=("N/4",),
            **AGGRESSIVE,
        )
        both = two.replication_ability * two.second_replica_ability
        result.rows.append([bench, two.replication_ability, both])
    return result


def figure_04(
    n: int = DEFAULT_INSTRUCTIONS, benchmarks: Sequence[str] = BENCHMARKS
) -> FigureResult:
    """dL1 miss rates with one vs two replicas."""
    result = FigureResult(
        "Fig 4",
        "Miss rates, single vs two replicas, ICR-P-PS(S)",
        "extra copies evict useful blocks and worsen miss rates (mesa nearly doubles)",
        ["benchmark", "one_replica", "two_replicas"],
        verdict=(
            "REPRODUCED — the second replica's displacement raises miss rates on every "
            "benchmark."
        ),
    )
    for bench in benchmarks:
        one = _run(bench, "ICR-P-PS(S)", n, **AGGRESSIVE)
        two = _run(
            bench,
            "ICR-P-PS(S)",
            n,
            max_replicas=2,
            second_replica_distances=("N/4",),
            **AGGRESSIVE,
        )
        result.rows.append([bench, one.miss_rate, two.miss_rate])
    return result


def figure_05(
    n: int = DEFAULT_INSTRUCTIONS, benchmarks: Sequence[str] = BENCHMARKS
) -> FigureResult:
    """Vertical (Distance-N/2) vs horizontal (Distance-0) replication."""
    result = FigureResult(
        "Fig 5",
        "Loads with replica, vertical vs horizontal replication, ICR-P-PS(S)",
        "little difference between Distance-N/2 and Distance-0",
        ["benchmark", "vertical_N/2", "horizontal_0"],
        verdict=(
            "REPRODUCED — vertical and horizontal replication are nearly "
            "indistinguishable."
        ),
    )
    for bench in benchmarks:
        vertical = _run(bench, "ICR-P-PS(S)", n, **AGGRESSIVE)
        horizontal = _run(
            bench, "ICR-P-PS(S)", n, replica_distances=("0",), **AGGRESSIVE
        )
        result.rows.append(
            [bench, vertical.loads_with_replica, horizontal.loads_with_replica]
        )
    return result


# ---------------------------------------------------------------------------
# Section 5.2 — comparing the schemes (aggressive dead-block prediction)
# ---------------------------------------------------------------------------


def figure_06(
    n: int = DEFAULT_INSTRUCTIONS, benchmarks: Sequence[str] = BENCHMARKS
) -> FigureResult:
    """Replication ability: LS (misses + stores) vs S (stores only)."""
    result = FigureResult(
        "Fig 6",
        "Replication ability, ICR-*(LS) vs ICR-*(S)",
        "LS replicates more data than S",
        ["benchmark", "LS", "S"],
        verdict=(
            "PARTIAL — LS >= S holds on most benchmarks; per-benchmark magnitudes "
            "differ from the paper's."
        ),
    )
    for bench in benchmarks:
        ls = _run(bench, "ICR-P-PS(LS)", n, **AGGRESSIVE)
        s = _run(bench, "ICR-P-PS(S)", n, **AGGRESSIVE)
        result.rows.append([bench, ls.replication_ability, s.replication_ability])
    return result


def figure_07(
    n: int = DEFAULT_INSTRUCTIONS, benchmarks: Sequence[str] = BENCHMARKS
) -> FigureResult:
    """Loads with replica: LS vs S."""
    result = FigureResult(
        "Fig 7",
        "Loads with replica, ICR-*(LS) vs ICR-*(S)",
        "over 65% of read hits find replicas with S, over 90% with LS (max in mcf)",
        ["benchmark", "LS", "S"],
        verdict=(
            "PARTIAL — S covers the majority of read hits (~0.5-0.8) and LS >= S per "
            "benchmark, but LS stays below the paper's >90% (flatter synthetic reuse "
            "skew; see the header notes)."
        ),
    )
    for bench in benchmarks:
        ls = _run(bench, "ICR-P-PS(LS)", n, **AGGRESSIVE)
        s = _run(bench, "ICR-P-PS(S)", n, **AGGRESSIVE)
        result.rows.append([bench, ls.loads_with_replica, s.loads_with_replica])
    return result


def figure_08(
    n: int = DEFAULT_INSTRUCTIONS, benchmarks: Sequence[str] = BENCHMARKS
) -> FigureResult:
    """dL1 miss rates: Base vs ICR-*(LS) vs ICR-*(S)."""
    result = FigureResult(
        "Fig 8",
        "Miss rates for Base*, ICR-*(LS) and ICR-*(S)",
        "both ICR variants increase dL1 misses; LS more than S",
        ["benchmark", "Base", "ICR(LS)", "ICR(S)"],
        verdict="REPRODUCED — Base < ICR(S) < ICR(LS) miss rates on every benchmark.",
    )
    for bench in benchmarks:
        base = _run(bench, "BaseP", n)
        ls = _run(bench, "ICR-P-PS(LS)", n, **AGGRESSIVE)
        s = _run(bench, "ICR-P-PS(S)", n, **AGGRESSIVE)
        result.rows.append([bench, base.miss_rate, ls.miss_rate, s.miss_rate])
    return result


def figure_09(
    n: int = DEFAULT_INSTRUCTIONS,
    benchmarks: Sequence[str] = BENCHMARKS,
    schemes: Sequence[str] = ALL_SCHEMES,
) -> FigureResult:
    """Normalized execution cycles for all ten schemes (aggressive)."""
    result = FigureResult(
        "Fig 9",
        "Normalized execution cycles, all schemes, aggressive dead-block prediction",
        "BaseECC/ICR-*-PP 25-45% over BaseP; ICR-P-PS(S) +3.6%, ICR-ECC-PS(S) +21% avg",
        ["benchmark"] + list(schemes),
        verdict=(
            "REPRODUCED (orderings) — BaseP < ICR-P-PS < ICR-ECC-PS < PP-schemes ~ "
            "BaseECC; the BaseECC magnitude is ~half the paper's +31% (see header "
            "notes)."
        ),
    )
    for bench in benchmarks:
        base_cycles: Optional[int] = None
        row: list = [bench]
        for scheme in schemes:
            r = _run(bench, scheme, n, **AGGRESSIVE)
            if base_cycles is None:
                base_cycles = r.cycles
            row.append(r.cycles / base_cycles)
        result.rows.append(row)
    return result


# ---------------------------------------------------------------------------
# Section 5.3-5.4 — decay-window aggressiveness (vpr), relaxed comparison
# ---------------------------------------------------------------------------

DECAY_WINDOWS = (0, 250, 1000, 4000, 10000)


def figure_10(n: int = DEFAULT_INSTRUCTIONS, benchmark: str = "vpr") -> FigureResult:
    """Replication ability and loads-with-replica vs decay window (vpr)."""
    result = FigureResult(
        "Fig 10",
        f"Replication ability / loads with replica vs decay window ({benchmark})",
        "ability falls with larger windows; loads-with-replica barely moves",
        ["decay_window", "replication_ability", "loads_with_replica"],
        verdict=(
            "REPRODUCED — ability falls steadily with the window; loads-with-replica "
            "barely moves."
        ),
    )
    for window in DECAY_WINDOWS:
        r = _run(
            benchmark,
            "ICR-P-PS(S)",
            n,
            decay_window=window,
            victim_policy=VictimPolicy.DEAD_ONLY,
        )
        result.rows.append([window, r.replication_ability, r.loads_with_replica])
    return result


def figure_11(n: int = DEFAULT_INSTRUCTIONS, benchmark: str = "vpr") -> FigureResult:
    """Normalized execution cycles vs decay window (vpr)."""
    result = FigureResult(
        "Fig 11",
        f"Normalized execution cycles vs decay window ({benchmark})",
        "ICR-P-PS(S) < 4% over BaseP at 1000 cycles, ~1.7% at 10000",
        ["decay_window", "ICR-P-PS(S)", "ICR-ECC-PS(S)"],
        verdict=(
            "REPRODUCED — ICR-P-PS(S) within a few percent of BaseP at 1000 cycles, "
            "closer at 10000."
        ),
    )
    base = _run(benchmark, "BaseP", n)
    for window in DECAY_WINDOWS:
        p = _run(
            benchmark,
            "ICR-P-PS(S)",
            n,
            decay_window=window,
            victim_policy=VictimPolicy.DEAD_ONLY,
        )
        e = _run(
            benchmark,
            "ICR-ECC-PS(S)",
            n,
            decay_window=window,
            victim_policy=VictimPolicy.DEAD_ONLY,
        )
        result.rows.append([window, p.cycles / base.cycles, e.cycles / base.cycles])
    return result


def figure_12(
    n: int = DEFAULT_INSTRUCTIONS, benchmarks: Sequence[str] = BENCHMARKS
) -> FigureResult:
    """Normalized cycles with the relaxed (1000-cycle) configuration."""
    result = FigureResult(
        "Fig 12",
        "Normalized execution cycles, decay window 1000, dead-first victim",
        "avg over BaseP: BaseECC +30.9%, ICR-P-PS(S) +2.4%, ICR-ECC-PS(S) +10.2%",
        ["benchmark", "BaseP", "BaseECC", "ICR-P-PS(S)", "ICR-ECC-PS(S)"],
        verdict=(
            "REPRODUCED (orderings and small-overhead claims) — ICR-ECC recovers most "
            "of BaseECC's loss."
        ),
    )
    for bench in benchmarks:
        base = _run(bench, "BaseP", n)
        ecc = _run(bench, "BaseECC", n)
        icr_p = _run(bench, "ICR-P-PS(S)", n, **RELAXED)
        icr_e = _run(bench, "ICR-ECC-PS(S)", n, **RELAXED)
        result.rows.append(
            [
                bench,
                1.0,
                ecc.cycles / base.cycles,
                icr_p.cycles / base.cycles,
                icr_e.cycles / base.cycles,
            ]
        )
    return result


def figure_13(
    n: int = DEFAULT_INSTRUCTIONS, benchmarks: Sequence[str] = BENCHMARKS
) -> FigureResult:
    """Replication ability / loads-with-replica: window 1000 vs 0."""
    result = FigureResult(
        "Fig 13",
        "Replication ability and loads with replica, decay window 1000 vs 0",
        "loads-with-replica barely changes even though ability differs",
        ["benchmark", "ability_w0", "ability_w1000", "lwr_w0", "lwr_w1000"],
        verdict=(
            "REPRODUCED — coverage is insensitive to the window even where ability is "
            "not."
        ),
    )
    for bench in benchmarks:
        w0 = _run(bench, "ICR-P-PS(S)", n, **AGGRESSIVE)
        w1000 = _run(bench, "ICR-P-PS(S)", n, **RELAXED)
        result.rows.append(
            [
                bench,
                w0.replication_ability,
                w1000.replication_ability,
                w0.loads_with_replica,
                w1000.loads_with_replica,
            ]
        )
    return result


# ---------------------------------------------------------------------------
# Section 5.5 — error injection (vortex)
# ---------------------------------------------------------------------------

# Per-cycle fault probabilities.  As in the paper, deliberately extreme:
# realistic rates produce zero unrecoverable loads for every scheme, so the
# plot only separates the schemes under intense error pressure.
ERROR_RATES = (3e-2, 1e-2, 3e-3, 1e-3)


def figure_14(
    n: int = 100_000,
    benchmark: str = "vortex",
    error_rates: Sequence[float] = ERROR_RATES,
    model: str = "random",
) -> FigureResult:
    """Unrecoverable loads vs per-cycle error probability (vortex).

    Uses bit-accurate storage and the real parity/SEC-DED decoders;
    BaseECC corrects all single-bit errors by construction.
    """
    result = FigureResult(
        "Fig 14",
        f"Percentage of unrecoverable loads ({benchmark}, {model} model)",
        (
            "ICR schemes are far more resilient than BaseP; BaseECC corrects all 1-bit "
            "errors"
        ),
        ["error_rate", "BaseP", "ICR-P-PS(S)", "ICR-ECC-PS(S)", "BaseECC"],
        verdict=(
            "REPRODUCED — ICR-P far more resilient than BaseP at every rate; ICR-ECC "
            "near zero; BaseECC loses only accumulated doubles at extreme rates."
        ),
    )
    for rate in error_rates:
        row: list = [rate]
        for scheme, kwargs in (
            ("BaseP", {}),
            ("ICR-P-PS(S)", RELAXED),
            ("ICR-ECC-PS(S)", RELAXED),
            ("BaseECC", {}),
        ):
            r = _run(
                benchmark,
                scheme,
                n,
                error_rate=rate,
                error_model=model,
                **kwargs,
            )
            row.append(r.unrecoverable_load_fraction * 100)
        result.rows.append(row)
    return result


# ---------------------------------------------------------------------------
# Section 5.6 — performance mode (replicas left in place)
# ---------------------------------------------------------------------------


def figure_15(
    n: int = DEFAULT_INSTRUCTIONS, benchmarks: Sequence[str] = BENCHMARKS
) -> FigureResult:
    """Normalized cycles when replicas are left in dL1 on primary eviction."""
    result = FigureResult(
        "Fig 15",
        "Normalized execution cycles with replicas used for performance",
        (
            "ICR-*-PS(S) matches BaseP nearly everywhere and beats it in mcf/vpr (up "
            "to 24%)"
        ),
        ["benchmark", "BaseP", "BaseECC", "ICR-P-PS(S)+leave", "ICR-ECC-PS(S)+leave"],
        verdict=(
            "PARTIAL — direction reproduced (ICR+leave matches BaseP everywhere and "
            "beats it on mcf); the mcf win is a few percent rather than up to 24% (see "
            "header notes)."
        ),
    )
    for bench in benchmarks:
        base = _run(bench, "BaseP", n)
        ecc = _run(bench, "BaseECC", n)
        icr_p = _run(
            bench, "ICR-P-PS(S)", n, leave_replicas_on_evict=True, **RELAXED
        )
        icr_e = _run(
            bench, "ICR-ECC-PS(S)", n, leave_replicas_on_evict=True, **RELAXED
        )
        result.rows.append(
            [
                bench,
                1.0,
                ecc.cycles / base.cycles,
                icr_p.cycles / base.cycles,
                icr_e.cycles / base.cycles,
            ]
        )
    return result


# ---------------------------------------------------------------------------
# Section 5.8 — write-through comparison
# ---------------------------------------------------------------------------


def figure_16(
    n: int = DEFAULT_INSTRUCTIONS, benchmarks: Sequence[str] = BENCHMARKS
) -> FigureResult:
    """Write-through BaseP vs write-back ICR-P-PS(S): cycles and energy."""
    result = FigureResult(
        "Fig 16",
        "Write-through BaseP normalized to write-back ICR-P-PS(S)",
        "ICR is ~5.7% faster on average; WT spends >2x the L1+L2 energy",
        ["benchmark", "wt_cycles_ratio", "wt_energy_ratio"],
        verdict=(
            "REPRODUCED — write-through costs cycles (stalls) and much more L1+L2 "
            "energy than write-back ICR."
        ),
    )
    for bench in benchmarks:
        icr = _run(bench, "ICR-P-PS(S)", n, **RELAXED)
        wt = _run(bench, "BaseP-WT", n)
        result.rows.append(
            [
                bench,
                wt.cycles / icr.cycles,
                wt.energy.total_nj / icr.energy.total_nj,
            ]
        )
    return result


# ---------------------------------------------------------------------------
# Section 5.9 — speculative-load BaseECC comparison
# ---------------------------------------------------------------------------


def figure_17(
    n: int = DEFAULT_INSTRUCTIONS, benchmarks: Sequence[str] = BENCHMARKS
) -> FigureResult:
    """Speculative-load BaseECC vs performance-optimized ICR-P-PS(S)."""
    from repro.harness.experiment import MachineConfig

    result = FigureResult(
        "Fig 17",
        "BaseECC with 1-cycle speculative loads, normalized to ICR-P-PS(S)+leave",
        "ICR still ~2.5% faster avg (30.8% in mcf); energy ~equal at 15:30, "
        "BaseECC ~3.1% worse at 10:30",
        [
            "benchmark",
            "spec_cycles_ratio",
            "energy_ratio_15_30",
            "energy_ratio_10_30",
        ],
        verdict=(
            "REPRODUCED — speculative BaseECC recovers the cycles but not the check "
            "energy; the gap grows at 10:30."
        ),
    )
    machine_15 = MachineConfig(parity_fraction=0.15, ecc_fraction=0.30)
    machine_10 = MachineConfig(parity_fraction=0.10, ecc_fraction=0.30)
    for bench in benchmarks:
        icr_15 = _run(
            bench,
            "ICR-P-PS(S)",
            n,
            machine=machine_15,
            leave_replicas_on_evict=True,
            **RELAXED,
        )
        icr_10 = _run(
            bench,
            "ICR-P-PS(S)",
            n,
            machine=machine_10,
            leave_replicas_on_evict=True,
            **RELAXED,
        )
        spec_15 = _run(bench, "BaseECC-spec", n, machine=machine_15)
        spec_10 = _run(bench, "BaseECC-spec", n, machine=machine_10)
        result.rows.append(
            [
                bench,
                spec_15.cycles / icr_15.cycles,
                spec_15.energy.total_nj / icr_15.energy.total_nj,
                spec_10.energy.total_nj / icr_10.energy.total_nj,
            ]
        )
    return result


# ---------------------------------------------------------------------------
# Ablations called out in the text (Sections 5.1, 5.7) and DESIGN.md
# ---------------------------------------------------------------------------


def ablation_distance(
    n: int = DEFAULT_INSTRUCTIONS, benchmark: str = "gzip"
) -> FigureResult:
    """Distance-N/2 vs Distance-7 vs Distance-N/4 (text of Section 5.1)."""
    result = FigureResult(
        "Ablation A1",
        f"Replica distance choice ({benchmark})",
        "Distance-7 behaves like Distance-N/2",
        ["distance", "replication_ability", "loads_with_replica", "miss_rate"],
    )
    for label, distance in (("N/2", "N/2"), ("7", 7), ("N/4", "N/4"), ("0", "0")):
        r = _run(
            benchmark, "ICR-P-PS(S)", n, replica_distances=(distance,), **AGGRESSIVE
        )
        result.rows.append(
            [label, r.replication_ability, r.loads_with_replica, r.miss_rate]
        )
    return result


def ablation_victim_policy(
    n: int = DEFAULT_INSTRUCTIONS, benchmark: str = "gcc"
) -> FigureResult:
    """All four victim policies (Section 3.1)."""
    result = FigureResult(
        "Ablation A2",
        f"Victim policy for replica placement ({benchmark})",
        "dead-first finds more sites than dead-only without hurting misses",
        ["policy", "replication_ability", "loads_with_replica", "miss_rate"],
    )
    for policy in VictimPolicy:
        r = _run(
            benchmark,
            "ICR-P-PS(S)",
            n,
            decay_window=1000,
            victim_policy=policy,
        )
        result.rows.append(
            [policy.value, r.replication_ability, r.loads_with_replica, r.miss_rate]
        )
    return result


def ablation_cache_params(
    n: int = DEFAULT_INSTRUCTIONS, benchmark: str = "vpr"
) -> FigureResult:
    """Cache size / associativity sensitivity (Section 5.7)."""
    from repro.cache.set_assoc import CacheGeometry

    result = FigureResult(
        "Ablation A3",
        f"Sensitivity to dL1 size and associativity ({benchmark})",
        "ability rises with cache size; loads-with-replica changes little",
        ["geometry", "replication_ability", "loads_with_replica", "miss_rate"],
    )
    for size_kb, assoc in ((8, 4), (16, 2), (16, 4), (16, 8), (32, 4), (64, 4)):
        geometry = CacheGeometry(size_kb * 1024, assoc, 64)
        r = _run(
            benchmark, "ICR-P-PS(S)", n, geometry=geometry, **AGGRESSIVE
        )
        result.rows.append(
            [
                f"{size_kb}KB/{assoc}way",
                r.replication_ability,
                r.loads_with_replica,
                r.miss_rate,
            ]
        )
    return result


#: Registry used by the benchmark suite and the EXPERIMENTS.md generator.
ALL_FIGURES: dict[str, Callable[..., FigureResult]] = {
    "fig01": figure_01,
    "fig02": figure_02,
    "fig03": figure_03,
    "fig04": figure_04,
    "fig05": figure_05,
    "fig06": figure_06,
    "fig07": figure_07,
    "fig08": figure_08,
    "fig09": figure_09,
    "fig10": figure_10,
    "fig11": figure_11,
    "fig12": figure_12,
    "fig13": figure_13,
    "fig14": figure_14,
    "fig15": figure_15,
    "fig16": figure_16,
    "fig17": figure_17,
    "ablation_distance": ablation_distance,
    "ablation_victim_policy": ablation_victim_policy,
    "ablation_cache_params": ablation_cache_params,
}


# ---------------------------------------------------------------------------
# Extensions: comparisons and ablations beyond the paper's figures
# ---------------------------------------------------------------------------


def comparison_rcache(
    n: int = DEFAULT_INSTRUCTIONS, benchmarks: Sequence[str] = BENCHMARKS
) -> FigureResult:
    """ICR coverage vs a dedicated Kim & Somani-style duplicate cache.

    The R-Cache side runs through the registered ``rcache`` scheme, so
    it shares the runner, the result cache, and the standard
    ``loads_with_replica`` metric with every other scheme (the numbers
    match :func:`repro.baselines.rcache.run_rcache_baseline` exactly —
    benchmarks/bench_comparison_rcache.py asserts it).
    """
    result = FigureResult(
        "Comparison C1",
        "Duplicate coverage: ICR-P-PS(S) vs dedicated 2KB R-Cache",
        "ICR reaches comparable coverage without the dedicated array",
        ["benchmark", "icr_loads_with_replica", "rcache_loads_with_duplicate"],
    )
    for bench in benchmarks:
        icr = _run(bench, "ICR-P-PS(S)", n)
        rcache = _run(bench, "rcache", n)
        result.rows.append(
            [bench, icr.loads_with_replica, rcache.loads_with_replica]
        )
    return result


def comparison_victim_cache(
    n: int = DEFAULT_INSTRUCTIONS, benchmarks: Sequence[str] = BENCHMARKS
) -> FigureResult:
    """ICR leave-in-place mode vs a dedicated 16-entry victim cache.

    The victim-cache side runs through the registered ``victim-cache``
    scheme on the full Table 1 machine — cycle-identical to
    :func:`repro.baselines.victim_cache.run_victim_cache_baseline`
    (benchmarks/bench_comparison_victim_cache.py asserts it).
    """
    result = FigureResult(
        "Comparison C2",
        "Cycles vs BaseP: dedicated 16-entry victim cache vs ICR leave-mode",
        "ICR's replica fills buy a victim-cache-like win with no extra array",
        ["benchmark", "victim_cache", "ICR-P-PS(S)+leave"],
    )
    for bench in benchmarks:
        base = _run(bench, "BaseP", n)
        vc = _run(bench, "victim-cache", n)
        icr = _run(
            bench, "ICR-P-PS(S)", n, leave_replicas_on_evict=True, **RELAXED
        )
        result.rows.append(
            [bench, vc.cycles / base.cycles, icr.cycles / base.cycles]
        )
    return result


def comparison_area(n: int = DEFAULT_INSTRUCTIONS) -> FigureResult:
    """Storage/leakage cost of each reliability option (Section 6 claim)."""
    from repro.cache.set_assoc import CacheGeometry
    from repro.energy.area import compare_reliability_areas

    result = FigureResult(
        "Comparison C3",
        "Extra storage over a parity dL1 (16KB/4-way/64B)",
        "ICR adds <1% metadata; every alternative adds a real array",
        ["option", "extra_bits", "extra_leakage_nW", "fraction_of_dl1"],
    )
    for row in compare_reliability_areas(CacheGeometry(16 * 1024, 4, 64)):
        result.rows.append(
            [row.option, row.extra_bits, row.extra_leakage_nw,
             row.extra_fraction_of_dl1]
        )
    return result


def ablation_pipeline(
    n: int = DEFAULT_INSTRUCTIONS, benchmark: str = "gzip"
) -> FigureResult:
    """BaseECC's relative penalty across out-of-order window sizes."""
    from repro.cpu.pipeline import PipelineConfig
    from repro.harness.experiment import MachineConfig

    result = FigureResult(
        "Ablation A4",
        f"BaseECC cycle penalty vs out-of-order window ({benchmark})",
        "chained loads defeat the window; throughput-bound machines dilute "
        "the ECC penalty instead",
        ["configuration", "BaseECC/BaseP"],
    )
    for label, kwargs in (
        ("width2_ruu8_lsq4", dict(issue_width=2, ruu_size=8, lsq_size=4)),
        ("width4_ruu16_lsq8 (Table 1)", dict()),
        ("width4_ruu64_lsq32", dict(ruu_size=64, lsq_size=32)),
        ("width8_ruu128_lsq64", dict(issue_width=8, ruu_size=128, lsq_size=64)),
    ):
        machine = MachineConfig(pipeline=PipelineConfig(**kwargs))
        base = _run(benchmark, "BaseP", n, machine=machine)
        ecc = _run(benchmark, "BaseECC", n, machine=machine)
        result.rows.append([label, ecc.cycles / base.cycles])
    return result


def ablation_scrubbing(
    n: int = DEFAULT_INSTRUCTIONS, benchmark: str = "vortex"
) -> FigureResult:
    """Scrubbing vs double-error accumulation at an intense fault rate."""
    rate = 5e-2
    result = FigureResult(
        "Ablation A5",
        f"Unrecoverable loads with/without scrubbing ({benchmark}, p={rate})",
        "scrubbing suppresses double-error accumulation (extension)",
        ["scheme", "no_scrub", "scrub_10k", "scrub_2k"],
    )
    for scheme in ("BaseECC", "ICR-ECC-PS(S)"):
        kwargs = {} if scheme.startswith("Base") else {"decay_window": 1000}
        row: list = [scheme]
        for period in (None, 10_000, 2_000):
            r = _run(
                benchmark, scheme, n,
                error_rate=rate, error_seed=5, scrub_period=period, **kwargs,
            )
            row.append(r.dl1["load_errors_unrecoverable"])
        result.rows.append(row)
    return result


def ablation_replacement(
    n: int = DEFAULT_INSTRUCTIONS, benchmark: str = "gzip"
) -> FigureResult:
    """ICR behaviour under LRU approximations (extension)."""
    result = FigureResult(
        "Ablation A6",
        f"ICR-P-PS(S) under different primary replacement policies ({benchmark})",
        "coverage and miss cost are robust to the replacement approximation",
        ["replacement", "miss_rate", "loads_with_replica", "norm_cycles"],
    )
    base = _run(benchmark, "BaseP", n)
    for policy in ("lru", "plru", "fifo", "random"):
        r = _run(benchmark, "ICR-P-PS(S)", n, replacement=policy)
        result.rows.append(
            [policy, r.miss_rate, r.loads_with_replica, r.cycles / base.cycles]
        )
    return result


ALL_FIGURES.update(
    {
        "ablation_pipeline": ablation_pipeline,
        "ablation_scrubbing": ablation_scrubbing,
        "ablation_replacement": ablation_replacement,
        "comparison_rcache": comparison_rcache,
        "comparison_victim_cache": comparison_victim_cache,
        "comparison_area": comparison_area,
    }
)


def ablation_write_buffer(
    n: int = DEFAULT_INSTRUCTIONS, benchmark: str = "vortex"
) -> FigureResult:
    """Write-buffer depth sensitivity for the write-through dL1 (Section 5.8).

    The paper's WT comparison uses an 8-entry coalescing buffer [24];
    shallower buffers stall stores more, deeper ones approach stall-free.
    """
    from repro.cache.hierarchy import HierarchyConfig
    from repro.harness.experiment import MachineConfig

    result = FigureResult(
        "Ablation A7",
        f"Write-through dL1 vs write-buffer depth ({benchmark})",
        "stalls shrink with buffer depth; 8 entries nearly suffices",
        ["entries", "norm_cycles_vs_wb8", "stall_cycles"],
    )
    reference = None
    for entries in (2, 4, 8, 16):
        machine = MachineConfig(
            hierarchy=HierarchyConfig(write_buffer_entries=entries)
        )
        r = _run(benchmark, "BaseP-WT", n, machine=machine)
        if entries == 8:
            reference = r.cycles
        result.rows.append([entries, r.cycles, r.write_buffer_stalls])
    # Normalize after the fact (reference defined once all rows ran).
    for row in result.rows:
        row[1] = row[1] / reference
    return result


def ablation_power2(
    n: int = DEFAULT_INSTRUCTIONS, benchmark: str = "gzip"
) -> FigureResult:
    """The power-2 fallback sequence (Section 3.1): more attempts, more
    ability, diminishing returns."""
    from repro.core.config import power2_distances

    result = FigureResult(
        "Ablation A8",
        f"Power-2 placement fallback: attempts vs ability ({benchmark})",
        "each extra attempt raises ability with diminishing returns",
        ["max_attempts", "replication_ability", "loads_with_replica", "miss_rate"],
    )
    for attempts in (1, 2, 3, 5):
        distances = tuple(power2_distances(64, attempts))
        r = _run(
            benchmark, "ICR-P-PS(S)", n, replica_distances=distances, **AGGRESSIVE
        )
        result.rows.append(
            [attempts, r.replication_ability, r.loads_with_replica, r.miss_rate]
        )
    return result


def comparison_placement(
    n: int = DEFAULT_INSTRUCTIONS, benchmark: str = "gzip"
) -> FigureResult:
    """Placement policies beyond the paper: the Distance-N/2 walk vs
    power-2 multi-attempt vs consistent-hash-ring placement with
    replication factor N ∈ {1, 2, 3}."""
    result = FigureResult(
        "Comparison C4",
        f"Replica placement policies ({benchmark})",
        "ring placement matches the distance walk's ability at N=1 and "
        "buys extra replicas (deeper error coverage) at N>=2 at the "
        "cost of more displaced dead lines",
        [
            "placement",
            "replication_ability",
            "replicas_per_success",
            "loads_with_replica",
            "miss_rate",
        ],
    )
    runs = [
        ("distance-N/2", "ICR-P-PS(S)", {}),
        (
            "power2(4)",
            "ICR-P-PS(S)",
            {"placement": "power2", "ring_attempts": 4},
        ),
    ] + [
        (
            f"ring-N{k}",
            f"ICR-Ring-{k}",
            {},
        )
        for k in (1, 2, 3)
    ]
    for label, scheme, extra in runs:
        r = _run(benchmark, scheme, n, **extra, **AGGRESSIVE)
        d = r.dl1
        successes = d["replication_successes"]
        placed = successes + d["second_replica_successes"]
        result.rows.append(
            [
                label,
                r.replication_ability,
                placed / successes if successes else 0.0,
                r.loads_with_replica,
                r.miss_rate,
            ]
        )
    return result


def ablation_error_models(n: int = 60_000, benchmark: str = "vortex") -> FigureResult:
    """All four Kim & Somani models (Section 5.5: 'the overall results
    are similar, we present ... random')."""
    rate = 1e-2
    result = FigureResult(
        "Ablation A9",
        f"Lost-load %% (unrecoverable + silent) per error model "
        f"({benchmark}, p={rate})",
        "the scheme ordering holds under every injection model; adjacent "
        "double flips within a byte defeat parity *silently*, which only "
        "the golden-value comparison reveals",
        ["model", "BaseP", "BaseP_silent", "ICR-P-PS(S)", "ICR-P_silent",
         "ICR-ECC-PS(S)"],
    )
    for model in ("random", "direct", "adjacent", "column"):
        row: list = [model]
        for scheme, kwargs in (
            ("BaseP", {}),
            ("ICR-P-PS(S)", RELAXED),
            ("ICR-ECC-PS(S)", RELAXED),
        ):
            r = _run(
                benchmark, scheme, n,
                error_rate=rate, error_model=model, **kwargs,
            )
            row.append(r.unrecoverable_load_fraction * 100)
            if scheme != "ICR-ECC-PS(S)":
                row.append(r.dl1["silent_corruptions"] / r.dl1["loads"] * 100)
        result.rows.append(row)
    return result


ALL_FIGURES.update(
    {
        "ablation_write_buffer": ablation_write_buffer,
        "ablation_power2": ablation_power2,
        "comparison_placement": comparison_placement,
        "ablation_error_models": ablation_error_models,
    }
)


def ablation_icache(n: int = 60_000, benchmark: str = "gzip") -> FigureResult:
    """Parity-only iL1 under fault injection (Section 1's claim).

    "error detection and correction is more critical for data caches
    (which can be written into), while detection may suffice for
    instruction caches which are mainly read-only" — instructions are
    never dirty, so every detected iL1 error is recovered by refetch.
    """
    result = FigureResult(
        "Ablation A10",
        f"Parity iL1 under fault injection ({benchmark})",
        "every detected iL1 error is refetched from L2; none are lost",
        ["icache_error_rate", "injected", "detected", "recovered_l2",
         "unrecoverable"],
    )
    for rate in (1e-2, 1e-3):
        r = _run(benchmark, "BaseP", n, icache_error_rate=rate)
        i = r.l1i
        result.rows.append(
            [
                rate,
                i["errors_injected"],
                i["load_errors_detected"],
                i["load_errors_recovered_l2"],
                i["load_errors_unrecoverable"],
            ]
        )
    return result


ALL_FIGURES["ablation_icache"] = ablation_icache
