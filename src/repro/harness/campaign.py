"""Monte Carlo fault-injection campaigns with confidence intervals.

The paper's reliability numbers (Figure 14, the unrecoverable-load
fraction, the AVF census, derived MTTF) come from *one* seeded
fault-injection run per configuration — a single-sample point estimate.
This module upgrades them to statistical campaigns: every
``(benchmark, scheme, error_rate)`` cell runs N independent trials that
differ only in their fault-injection seed, fanned out through the
:class:`~repro.harness.runner.ParallelRunner` (and therefore through
the content-addressed result cache), and the per-trial outcomes are
aggregated into means with percentile-bootstrap confidence intervals.

Design points, in the order a long campaign meets them:

* **Trials are specs.**  Each trial is an
  :class:`~repro.harness.spec.ExperimentSpec` whose ``error_seed`` is a
  hash of (campaign seed, cell, trial index, attempt) — the cache key
  falls out of the spec's content hash, so re-running or resuming a
  campaign never re-simulates a trial it already has.
* **Adaptive stopping.**  With ``target_half_width`` set, a cell stops
  scheduling new trials once the CI half-width of its
  unrecoverable-load fraction drops below the target (after
  ``min_trials``); otherwise it runs the full ``trials`` budget.
* **Graceful degradation.**  A crashed or hung worker costs one
  attempt: the trial is retried with a *fresh* seed (bounded by
  ``max_trial_retries``), and a trial that exhausts its retries is
  recorded as failed in the report instead of aborting the campaign.
* **Checkpointing.**  The engine atomically writes a JSON checkpoint
  of all committed trial records on a dirty-count / elapsed-time
  cadence (and always when a run exits); a new engine pointed at the
  same checkpoint resumes exactly where the interrupted one stopped and
  produces a byte-identical final report (everything downstream of the
  records — bootstrap resampling included — is deterministic).
* **Work stealing.**  Every cell keeps its own task deque (retries
  first, then fresh trial indices); one
  :class:`~repro.harness.runner.RunnerSession` executes trials
  continuously, and the dispatcher refills worker capacity the instant
  a trial completes — stealing from another cell's deque when the cell
  that just freed the slot has nothing left to run.  A straggler that
  looks pathological gets one duplicate of the *same* spec, so
  whichever copy finishes first yields the identical result.
* **Deterministic reports.**  The report is a pure function of the
  config, pinned in ``tests/golden/campaign_reports.json`` and
  byte-identical across worker counts, speculation depths and resumes:

  - the stopping rule (``_cell_done``: trial budget, circuit breaker,
    adaptive stopping) is consulted only at batch-aligned committed
    record counts, so it reads the committed records alone — never
    completion order, timing or worker count;
  - results are *staged* as they arrive out of order and committed
    strictly in contiguous trial-index order, an index only once its
    whole retry chain has resolved, so at every batch boundary the
    committed set is the same however the trials ran;
  - work past the batch the stopping rule has already approved is
    *speculative*: submitted early to keep workers busy, committed only
    once the boundary decision lets the cell continue.  When a cell
    converges its queued trials are revoked mid-flight and its staged
    results discarded — they were never committed, so the report
    cannot see them.  With ``lookahead_batches=0`` nothing is
    speculative and a cell's batches run one after another;
  - aggregation (bootstrap CIs included) is deterministic given the
    records, and the report sorts records by ``(index, attempt)``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from repro import recovery
from repro.chaos import runtime as _chaos
from repro.core.registry import normalize_scheme_name, scheme_info
from repro.harness.report import format_table
from repro.harness.runner import ParallelRunner, RunnerError
from repro.harness.spec import ExperimentSpec, MachineConfig
from repro.harness.stats import BootstrapCI, bootstrap_ci

#: Version tag of the checkpoint / report plain-data formats.
CAMPAIGN_FORMAT = 1

#: The per-trial metric driving adaptive stopping.
STOPPING_METRIC = "unrecoverable_load_fraction"


def _stable_seed(*parts: Any) -> int:
    """A 63-bit seed pinned by the hash of its parts (never by offsets)."""
    text = "\x00".join(repr(p) for p in parts)
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass(frozen=True)
class Cell:
    """One campaign cell: a (benchmark, scheme, error_rate) triple."""

    benchmark: str
    scheme: str
    error_rate: float

    @property
    def id(self) -> str:
        return f"{self.benchmark}|{self.scheme}|{self.error_rate!r}"


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign depends on (frozen, content-hashable)."""

    benchmarks: tuple[str, ...]
    schemes: tuple[str, ...]
    error_rates: tuple[float, ...] = (1e-2,)
    trials: int = 50
    min_trials: int = 8
    batch_size: int = 10
    target_half_width: Optional[float] = None
    ci_level: float = 0.95
    bootstrap_resamples: int = 1000
    bootstrap_seed: int = 0
    seed0: int = 20_000
    max_trial_retries: int = 2
    #: Per-cell circuit breaker: once this many *consecutive trailing*
    #: trial indices have exhausted their retry budget and failed, the
    #: cell is declared broken (its outcome carries a diagnostic) and
    #: stops scheduling — a systematically-crashing configuration costs
    #: one batch or two, not an endless retry grind.  Checked only at
    #: batch-aligned committed counts, so the decision is a pure
    #: function of the committed records (the byte-identical report
    #: contract).  0 disables the breaker.
    breaker_threshold: int = 5
    n_instructions: int = 40_000
    error_model: str = "random"
    measure_vulnerability: bool = False
    scrub_period: Optional[int] = None
    machine: Optional[MachineConfig] = None
    #: Simulation kernel for every trial ("array" | "object"); each
    #: trial spec carries it, and each cell's trials run on the tier
    #: :func:`repro.core.array_kernel.backend_mode` resolves (a pure
    #: function of the cell, never of the worker or host).  Part of the
    #: campaign digest, so an object-backend checkpoint can never be
    #: resumed by an array-backend campaign (or vice versa).  "auto" is
    #: accepted as an alias of "array": older clients still send it.
    backend: str = "array"
    #: Extra scheme kwargs applied to non-Base schemes (e.g. the relaxed
    #: decay/victim knobs); normalized to a sorted tuple of pairs.
    scheme_kwargs: tuple = ()

    def __post_init__(self):
        if self.backend == "auto":
            object.__setattr__(self, "backend", "array")
        if self.backend not in ("object", "array"):
            raise ValueError(
                f"unknown backend {self.backend!r}; choose 'object' or 'array'"
            )
        object.__setattr__(self, "benchmarks", tuple(self.benchmarks))
        # Scheme names resolve through the registry: canonical spelling
        # everywhere (cells, checkpoints, reports), and an unknown
        # scheme fails here with the registered list, not mid-campaign.
        object.__setattr__(
            self,
            "schemes",
            tuple(normalize_scheme_name(s) for s in self.schemes),
        )
        object.__setattr__(self, "error_rates", tuple(self.error_rates))
        kwargs = self.scheme_kwargs
        items = kwargs.items() if isinstance(kwargs, Mapping) else tuple(kwargs)
        object.__setattr__(
            self, "scheme_kwargs", tuple(sorted((str(k), v) for k, v in items))
        )
        if self.trials <= 0:
            raise ValueError("a campaign needs at least one trial per cell")
        if self.batch_size <= 0:
            raise ValueError("batch size must be positive")
        if self.min_trials <= 1:
            raise ValueError("adaptive stopping needs min_trials >= 2")
        if self.breaker_threshold < 0:
            raise ValueError("breaker_threshold must be >= 0 (0 disables)")

    def cells(self) -> list[Cell]:
        """The campaign grid, in deterministic report order."""
        return [
            Cell(bench, scheme, rate)
            for bench in self.benchmarks
            for scheme in self.schemes
            for rate in self.error_rates
        ]

    def digest(self) -> str:
        """Content hash of the config plus the simulator code version.

        A checkpoint is only resumed when its digest matches, so a
        config edit or any simulator change starts a fresh campaign
        instead of mixing incompatible trial populations.
        """
        from repro.harness.cache import _canonical, code_version

        payload = {
            "format": CAMPAIGN_FORMAT,
            "code": code_version(),
            "config": _canonical(self),
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()

    def trial_spec(self, cell: Cell, index: int, attempt: int) -> ExperimentSpec:
        """The fully-specified experiment for one trial attempt.

        The seed is a content hash of (campaign seed, cell, index,
        attempt): distinct cells never share seeds, and a retry after a
        crash gets a genuinely fresh seed rather than a neighbour.
        """
        # The shared scheme kwargs are the ICR design-space knobs (e.g.
        # the relaxed decay/victim settings); the registry's metadata
        # says which schemes they mean anything to — base schemes and
        # the rcache/victim-cache baselines run without them.
        scheme_kwargs = (
            dict(self.scheme_kwargs)
            if scheme_info(cell.scheme).accepts_icr_knobs
            else {}
        )
        return ExperimentSpec(
            benchmark=cell.benchmark,
            scheme=cell.scheme,
            n_instructions=self.n_instructions,
            machine=self.machine,
            error_rate=cell.error_rate,
            error_model=self.error_model,
            error_seed=_stable_seed(
                self.seed0, cell.benchmark, cell.scheme, cell.error_rate,
                index, attempt,
            ),
            measure_vulnerability=self.measure_vulnerability,
            scrub_period=self.scrub_period,
            backend=self.backend,
            scheme_kwargs=scheme_kwargs,
        )

    def trial_mode(self, cell: Cell) -> str:
        """The kernel tier the cell's trials execute on.

        One of ``array-batched`` / ``array-soa`` / ``object`` — the
        engine's per-tier latency telemetry is keyed by this — or
        ``unresolved`` for a cell whose spec its scheme rejects (an
        unknown knob, say): every such trial fails before reaching a
        kernel, and the telemetry probe must not end the run.
        """
        return _trial_mode(self, cell)


@lru_cache(maxsize=4096)
def _trial_mode(config: CampaignConfig, cell: Cell) -> str:
    """Memoized kernel-tier probe (``backend_mode`` builds a config)."""
    from repro.core.array_kernel import backend_mode

    try:
        return backend_mode(config.trial_spec(cell, 0, 0))
    except (TypeError, ValueError):
        return "unresolved"


@dataclass
class TrialRecord:
    """Outcome of one trial attempt (successful or failed)."""

    index: int
    attempt: int
    error_seed: int
    status: str  # "ok" | "failed"
    error: Optional[str] = None
    metrics: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "attempt": self.attempt,
            "error_seed": self.error_seed,
            "status": self.status,
            "error": self.error,
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrialRecord":
        return cls(
            index=data["index"],
            attempt=data["attempt"],
            error_seed=data["error_seed"],
            status=data["status"],
            error=data.get("error"),
            metrics=dict(data.get("metrics") or {}),
        )


def trial_metrics(result) -> dict[str, Any]:
    """The per-trial reliability metrics a campaign aggregates."""
    d = result.dl1
    cycles = result.cycles
    unrecoverable = d.get("load_errors_unrecoverable", 0)
    metrics: dict[str, Any] = {
        "cycles": cycles,
        "instructions": result.instructions,
        "errors_injected": d.get("errors_injected", 0),
        "load_errors_detected": d.get("load_errors_detected", 0),
        "load_errors_unrecoverable": unrecoverable,
        "load_errors_recovered_replica": d.get("load_errors_recovered_replica", 0),
        "load_errors_recovered_l2": d.get("load_errors_recovered_l2", 0),
        "load_errors_corrected_ecc": d.get("load_errors_corrected_ecc", 0),
        "silent_corruptions": d.get("silent_corruptions", 0),
        "unrecoverable_load_fraction": result.unrecoverable_load_fraction,
        "fatal_rate_per_cycle": unrecoverable / cycles if cycles else 0.0,
        "avf": (
            result.vulnerability.vulnerable_fraction
            if result.vulnerability is not None
            else None
        ),
    }
    return metrics


def _ci_to_dict(ci: BootstrapCI) -> dict:
    return {
        "mean": ci.mean,
        "lo": ci.lo,
        "hi": ci.hi,
        "half_width": ci.half_width,
        "n": ci.n,
        "level": ci.level,
    }


@dataclass
class CellOutcome:
    """All records of one cell plus its aggregate statistics."""

    cell: Cell
    records: list[TrialRecord]
    stopped_early: bool = False
    #: Circuit-breaker diagnostic when the cell was failed after
    #: repeated exhausted trials; None for a healthy cell.  Derived
    #: deterministically from the records (never persisted), so a
    #: resumed campaign re-trips the same breaker with the same text.
    broken: Optional[str] = None

    def ok_records(self) -> list[TrialRecord]:
        return sorted(
            (r for r in self.records if r.status == "ok"),
            key=lambda r: (r.index, r.attempt),
        )

    def failed_attempts(self) -> int:
        return sum(1 for r in self.records if r.status == "failed")

    def metric_values(self, metric: str) -> list[float]:
        values = []
        for record in self.ok_records():
            value = record.metrics.get(metric)
            if value is not None:
                values.append(float(value))
        return values

    def metric_ci(self, metric: str, config: CampaignConfig) -> Optional[BootstrapCI]:
        values = self.metric_values(metric)
        if not values:
            return None
        return bootstrap_ci(
            values,
            level=config.ci_level,
            n_resamples=config.bootstrap_resamples,
            seed=_stable_seed(config.bootstrap_seed, self.cell.id, metric),
        )

    def summary(self, config: CampaignConfig) -> dict:
        """Aggregate statistics (plain data, deterministic)."""
        out: dict[str, Any] = {
            "benchmark": self.cell.benchmark,
            "scheme": self.cell.scheme,
            "error_rate": self.cell.error_rate,
            "trials_ok": len(self.ok_records()),
            "failed_attempts": self.failed_attempts(),
            "stopped_early": self.stopped_early,
            "broken": self.broken,
            "metrics": {},
        }
        for metric in (
            "unrecoverable_load_fraction",
            "fatal_rate_per_cycle",
            "avf",
            "silent_corruptions",
            "errors_injected",
        ):
            ci = self.metric_ci(metric, config)
            if ci is not None:
                out["metrics"][metric] = _ci_to_dict(ci)
        rate = out["metrics"].get("fatal_rate_per_cycle")
        if rate is not None:
            # MTTF in cycles is the inverse of the fatal rate; a zero
            # rate bound maps to None (report-friendly "no failures
            # observed") rather than JSON-hostile infinity.
            out["metrics"]["mttf_cycles"] = {
                "mean": 1.0 / rate["mean"] if rate["mean"] > 0 else None,
                "lo": 1.0 / rate["hi"] if rate["hi"] > 0 else None,
                "hi": 1.0 / rate["lo"] if rate["lo"] > 0 else None,
            }
        return out


@dataclass
class CampaignReport:
    """Final (or partial) campaign outcome: records + aggregates."""

    config: CampaignConfig
    digest: str
    outcomes: list[CellOutcome]
    complete: bool = True
    _summaries: Optional[list] = field(
        default=None, init=False, repr=False, compare=False
    )

    def _cell_summaries(self) -> list[dict]:
        """Each outcome's :meth:`CellOutcome.summary`, computed once per
        report: the bootstrap CIs behind them are the report's whole
        cost, and ``to_json``/``to_dict``/``to_table`` all read them."""
        if self._summaries is None:
            self._summaries = [o.summary(self.config) for o in self.outcomes]
        return self._summaries

    def to_dict(self) -> dict:
        return {
            "format": CAMPAIGN_FORMAT,
            "campaign": self.digest,
            "complete": self.complete,
            "cells": [
                {
                    **summary,
                    "metrics": {
                        name: dict(ci) for name, ci in summary["metrics"].items()
                    },
                    "records": [
                        r.to_dict()
                        for r in sorted(
                            outcome.records, key=lambda r: (r.index, r.attempt)
                        )
                    ],
                }
                for summary, outcome in zip(self._cell_summaries(), self.outcomes)
            ],
        }

    def to_json(self) -> str:
        """Canonical JSON rendering (byte-identical across resumes)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_table(self) -> str:
        """The per-cell summary table (mean and CI bounds per metric)."""
        columns = [
            "benchmark", "scheme", "error_rate", "n", "failed",
            "ulf_mean", "ulf_lo", "ulf_hi",
        ]
        have_avf = self.config.measure_vulnerability
        if have_avf:
            columns += ["avf_mean", "avf_lo", "avf_hi"]
        rows = []
        for summary in self._cell_summaries():
            ulf = summary["metrics"].get("unrecoverable_load_fraction")
            row = [
                summary["benchmark"],
                summary["scheme"],
                f"{summary['error_rate']:g}",
                summary["trials_ok"],
                summary["failed_attempts"],
            ]
            row += (
                [ulf["mean"], ulf["lo"], ulf["hi"]]
                if ulf
                else [float("nan")] * 3
            )
            if have_avf:
                avf = summary["metrics"].get("avf")
                row += (
                    [avf["mean"], avf["lo"], avf["hi"]]
                    if avf
                    else [float("nan")] * 3
                )
            rows.append(row)
        return format_table(columns, rows)


#: Log-spaced latency histogram bucket edges (seconds).
HIST_EDGES = (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0)


def latency_summary(values: list) -> dict:
    """Order statistics plus a log-bucket histogram of latencies.

    The per-tier telemetry payload of campaigns and of the simulation
    service; an empty list summarizes to zeros.
    """
    vals = sorted(values)
    n = len(vals)
    counts = [0] * (len(HIST_EDGES) + 1)
    for v in vals:
        i = 0
        while i < len(HIST_EDGES) and v >= HIST_EDGES[i]:
            i += 1
        counts[i] += 1
    return {
        "count": n,
        "mean": sum(vals) / n if n else 0.0,
        "p50": vals[n // 2] if n else 0.0,
        "p90": vals[min(n - 1, (9 * n) // 10)] if n else 0.0,
        "max": vals[-1] if n else 0.0,
        "histogram": {"edges": list(HIST_EDGES), "counts": counts},
    }


@dataclass
class _CellRun:
    """Scheduling state of one cell during a run (the committed state
    lives in the engine's :class:`CellOutcome`)."""

    cell: Cell
    done: bool = False
    next_submit: int = 0
    #: (index, attempt) pairs waiting to be resubmitted after a failure.
    retries: deque = field(default_factory=deque)
    #: index -> [(attempt, result), ...] staged, not yet committed.
    staged: dict = field(default_factory=dict)
    #: Indices whose retry chain has fully resolved (commit-eligible).
    resolved: set = field(default_factory=set)
    #: (index, attempt) -> TrialHandle for primary submissions.
    inflight: dict = field(default_factory=dict)
    #: (index, attempt) -> TrialHandle for speculative duplicates.
    dups: dict = field(default_factory=dict)
    #: Committed count the stopping rule was last evaluated at (memo).
    checked: int = -1


class CampaignEngine:
    """Runs a :class:`CampaignConfig` to completion by work stealing.

    Parameters
    ----------
    config:
        The campaign definition.
    runner:
        A :class:`~repro.harness.runner.ParallelRunner` (bring your own
        worker count / result cache); default is serial and uncached.
    checkpoint_path:
        JSON checkpoint location.  Written atomically on the cadence
        below; loaded on construction when it exists and its config
        digest matches.  ``None`` disables checkpointing.
    trial_log_path:
        Optional JSONL file appended with one line per committed trial
        attempt — the full :meth:`SimulationResult.to_dict` payload for
        successes, the error text for failures.
    checkpoint_every_trials / checkpoint_interval:
        Checkpoint write cadence: a write happens at the next
        opportunity once *checkpoint_every_trials* records are dirty
        **or** *checkpoint_interval* seconds have elapsed since the
        last write, whichever comes first — large campaigns stop
        serializing the full record set after every handful of trials.
        A run always flushes on exit (completion or early stop), so
        resumability never depends on the cadence.
    verbose:
        When true, one progress line per finished cell goes to *stream*
        (default ``sys.stderr``).
    workers:
        Session worker-process count (default: the runner's ``jobs``).
    max_inflight:
        Cap on queued-plus-running trials (default ``4 * workers``) —
        enough lookahead to hide scheduling latency without revoking
        large swaths of work on convergence.
    lookahead_batches:
        How many batches past the firm frontier a cell may speculate
        (0 disables speculation; only meaningful with adaptive
        stopping).
    speculate_after:
        Seconds an in-flight trial must age before a duplicate is
        launched against it; ``None`` auto-tunes to 4x the observed
        median latency (and disables duplication until 8 latencies are
        seen).  Duplication needs a real pool (``workers > 1``).
    """

    def __init__(
        self,
        config: CampaignConfig,
        runner: Optional[ParallelRunner] = None,
        *,
        checkpoint_path: Union[str, Path, None] = None,
        trial_log_path: Union[str, Path, None] = None,
        checkpoint_every_trials: int = 32,
        checkpoint_interval: float = 10.0,
        verbose: bool = False,
        stream=None,
        workers: Optional[int] = None,
        max_inflight: Optional[int] = None,
        lookahead_batches: int = 2,
        speculate_after: Optional[float] = None,
    ):
        self.config = config
        self.runner = runner if runner is not None else ParallelRunner(jobs=1)
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self.trial_log_path = Path(trial_log_path) if trial_log_path else None
        self.checkpoint_every_trials = max(1, checkpoint_every_trials)
        self.checkpoint_interval = checkpoint_interval
        self.verbose = verbose
        self.stream = stream if stream is not None else sys.stderr
        self.workers = (
            workers if workers and workers > 0 else self.runner.jobs
        )
        self.max_inflight = (
            max_inflight
            if max_inflight and max_inflight > 0
            else 4 * self.workers
        )
        self.lookahead_batches = max(0, lookahead_batches)
        self.speculate_after = speculate_after
        self.digest = config.digest()
        self.outcomes: dict[Cell, CellOutcome] = {
            cell: CellOutcome(cell, []) for cell in config.cells()
        }
        self.resumed = False
        # -- telemetry counters (never part of the report) --
        self.checkpoint_writes = 0
        self.breaker_trips = 0
        self.steals = 0
        self.speculative_submits = 0
        self.duplicate_submits = 0
        self.cancelled_savings = 0
        self.discarded_results = 0
        #: Ordered trace of ("submit", cell_id, index, attempt, kind)
        #: and ("cell-done", cell_id) events — the zero-trials-after-
        #: convergence test reads this.
        self.events: list = []
        self._busy = 0.0
        self._run_elapsed = 0.0
        self._latency: dict = {}
        self._submit_times: dict = {}
        self._cells: dict = {}
        self._order: list = []
        self._rr = 0
        self._commits = 0
        self._dirty_records = 0
        self._last_checkpoint = time.monotonic()
        if self.checkpoint_path is not None:
            self.resumed = self._load_checkpoint()

    # -- stopping rule ----------------------------------------------------

    def _next_index(self, outcome: CellOutcome) -> int:
        """Indices are attempted contiguously; the next is 1 + highest."""
        if not outcome.records:
            return 0
        return 1 + max(r.index for r in outcome.records)

    def _cell_done(self, outcome: CellOutcome) -> bool:
        """The pure stopping rule.

        Adaptive stopping is only consulted at *batch-aligned* record
        counts (multiples of ``batch_size``).  That makes the decision a
        function of the committed records alone — independent of worker
        count, completion order, speculation depth and of where a
        checkpoint happened to land — which is the invariant behind
        byte-identical reports and behind resuming a mid-batch
        checkpoint.
        """
        next_index = self._next_index(outcome)
        if next_index >= self.config.trials:
            return True
        if (
            self.config.breaker_threshold
            and next_index % self.config.batch_size == 0
            and self._breaker_tripped(outcome)
        ):
            return True
        if self.config.target_half_width is None:
            return False
        if next_index % self.config.batch_size != 0:
            return False
        values = outcome.metric_values(STOPPING_METRIC)
        if len(values) < self.config.min_trials:
            return False
        ci = outcome.metric_ci(STOPPING_METRIC, self.config)
        if ci is not None and ci.half_width <= self.config.target_half_width:
            outcome.stopped_early = True
            return True
        return False

    def _breaker_tripped(self, outcome: CellOutcome) -> bool:
        """The per-cell circuit breaker (pure function of the records).

        Trips when the trailing ``breaker_threshold`` trial indices all
        exhausted their retry budget and failed — the signature of a
        configuration (or environment) that crashes systematically
        rather than sporadically.  The cell is failed with a diagnostic
        instead of grinding through (and retrying) its whole trial
        budget; sporadic failures interleaved with successes never
        trip it.
        """
        if outcome.broken is not None:
            return True
        final: dict[int, TrialRecord] = {}
        for record in outcome.records:
            prev = final.get(record.index)
            if prev is None or record.attempt > prev.attempt:
                final[record.index] = record
        if not final:
            return False
        streak = 0
        last_failure: Optional[TrialRecord] = None
        index = max(final)
        while index >= 0:
            record = final.get(index)
            if (
                record is None
                or record.status != "failed"
                or record.attempt < self.config.max_trial_retries
            ):
                break
            last_failure = last_failure or record
            streak += 1
            index -= 1
        if streak < self.config.breaker_threshold:
            return False
        outcome.broken = (
            f"circuit breaker: last {streak} trials exhausted "
            f"{1 + self.config.max_trial_retries} attempt(s) each "
            f"(latest error: {last_failure.error or 'unknown'})"
        )
        self.breaker_trips += 1
        recovery.count("breaker_trips")
        recovery.warn(
            "campaign",
            f"breaker tripped for cell {outcome.cell.id}: "
            f"{streak} consecutive exhausted trials",
        )
        if self.verbose:
            print(
                f"[campaign] cell {outcome.cell.id} failed by circuit "
                f"breaker after {streak} consecutive exhausted trials",
                file=self.stream,
            )
        return True

    def _batch_stop(self, start: int) -> int:
        """End of the batch containing *start* (batch-grid aligned).

        Aligning to the global batch grid — rather than ``start +
        batch_size`` — keeps batch boundaries identical when a resume
        starts from a mid-batch checkpoint.
        """
        b = self.config.batch_size
        return min(b * (start // b + 1), self.config.trials)

    # -- frontier geometry ------------------------------------------------

    def _firm_end(self, cs: _CellRun) -> int:
        """End of the batch the stopping rule has already approved."""
        committed = self._next_index(self.outcomes[cs.cell])
        if committed >= self.config.trials:
            return committed
        return self._batch_stop(committed)

    def _submit_limit(self, cs: _CellRun) -> int:
        """First index this cell may *not* submit yet.

        Without adaptive stopping every index up to ``trials`` is firm.
        With it, the firm batch plus ``lookahead_batches`` speculative
        batches may be in flight; anything beyond waits for the next
        boundary decision.
        """
        if cs.done:
            return 0
        if self.config.target_half_width is None:
            return self.config.trials
        return min(
            self._firm_end(cs)
            + self.lookahead_batches * self.config.batch_size,
            self.config.trials,
        )

    # -- run loop ---------------------------------------------------------

    def run(self, max_trials: Optional[int] = None) -> CampaignReport:
        """Stream trials until every cell is done (or *max_trials* is hit).

        *max_trials* bounds the records committed by this call (tests and
        incremental driving use it); a report built after such an early
        stop is marked ``complete=False``.
        """
        t0 = time.monotonic()
        self._cells = {cell: _CellRun(cell) for cell in self.config.cells()}
        self._order = list(self._cells.values())
        self._rr = 0
        self._commits = 0
        for cs in self._order:
            outcome = self.outcomes[cs.cell]
            cs.next_submit = self._next_index(outcome)
            self._drain(cs, None)  # checkpointed records may finish a cell
        session = self.runner.session(workers=self.workers)
        last_cell = None
        try:
            with session:
                while True:
                    if all(cs.done for cs in self._order):
                        break
                    if max_trials is not None and self._commits >= max_trials:
                        break
                    self._dispatch(session, last_cell)
                    last_cell = None
                    handle = session.next_completed()
                    if handle is None:
                        break  # defensive: nothing runnable
                    last_cell = handle.tag[0]
                    self._on_complete(session, handle)
        finally:
            self._submit_times.clear()
            self._maybe_checkpoint(force=True)
            self._run_elapsed += time.monotonic() - t0
        return self.report()

    # -- dispatch ---------------------------------------------------------

    def _dispatch(self, session, freed_cell=None) -> None:
        """Refill worker capacity from the per-cell deques.

        The first refill after a completion prefers the cell that just
        freed the slot; serving any other cell instead is counted as a
        steal.  Once regular work runs dry the dispatcher falls back to
        speculative duplication of stragglers.
        """
        prefer = freed_cell
        while (
            session.in_flight() < self.max_inflight
            and session.outstanding() < 4 * self.max_inflight
        ):
            picked = self._next_work(prefer)
            prefer = None
            if picked is None:
                self._maybe_duplicate(session)  # at most one per pass
                return
            cs, index, attempt = picked
            kind = "trial"
            if (
                self.config.target_half_width is not None
                and index >= self._firm_end(cs)
            ):
                kind = "spec"
                self.speculative_submits += 1
            self._submit(session, cs, index, attempt, kind)

    def _cell_work(self, cs: _CellRun):
        """The cell's next (index, attempt), or None (retries first)."""
        if cs.done:
            return None
        if cs.retries:
            return cs.retries.popleft()
        if cs.next_submit < self._submit_limit(cs):
            index = cs.next_submit
            cs.next_submit += 1
            return (index, 0)
        return None

    def _next_work(self, prefer: Optional[Cell]):
        """Pick the next (cell, index, attempt), stealing if needed."""
        if prefer is not None:
            cs = self._cells.get(prefer)
            if cs is not None:
                work = self._cell_work(cs)
                if work is not None:
                    return (cs, *work)
        n = len(self._order)
        for k in range(n):
            cs = self._order[(self._rr + k) % n]
            work = self._cell_work(cs)
            if work is not None:
                self._rr = (self._rr + k) % n
                if prefer is not None and cs.cell != prefer:
                    self.steals += 1
                return (cs, *work)
        return None

    def _submit(self, session, cs, index, attempt, kind):
        spec = self.config.trial_spec(cs.cell, index, attempt)
        handle = session.submit(spec, tag=(cs.cell, index, attempt, kind))
        self._submit_times[handle] = time.monotonic()
        self.events.append(("submit", cs.cell.id, index, attempt, kind))
        if kind == "dup":
            cs.dups[(index, attempt)] = handle
            self.duplicate_submits += 1
        else:
            cs.inflight[(index, attempt)] = handle
        return handle

    def _maybe_duplicate(self, session) -> None:
        """Launch one duplicate of the oldest pathological straggler."""
        if self.workers <= 1:
            return
        threshold = self.speculate_after
        if threshold is None:
            latencies = [v for vals in self._latency.values() for v in vals]
            if len(latencies) < 8:
                return
            threshold = max(1.0, 4 * sorted(latencies)[len(latencies) // 2])
        now = time.monotonic()
        best = None
        for cs in self._order:
            if cs.done:
                continue
            for (index, attempt), handle in cs.inflight.items():
                if (index, attempt) in cs.dups or handle.done:
                    continue
                started = self._submit_times.get(handle)
                if started is None:
                    continue
                age = now - started
                if age >= threshold and (best is None or age > best[0]):
                    best = (age, cs, index, attempt)
        if best is None:
            return
        _, cs, index, attempt = best
        self._submit(session, cs, index, attempt, "dup")

    # -- completion + commit ----------------------------------------------

    def _on_complete(self, session, handle) -> None:
        cell, index, attempt, _kind = handle.tag
        cs = self._cells[cell]
        started = self._submit_times.pop(handle, None)
        if started is not None and not handle.cached:
            elapsed = time.monotonic() - started
            self._busy += elapsed
            mode = self.config.trial_mode(cell)
            self._latency.setdefault(mode, []).append(elapsed)
        primary = cs.inflight.pop((index, attempt), None)
        dup = cs.dups.pop((index, attempt), None)
        if primary is None and dup is None:
            return  # twin already processed, or the cell was abandoned
        twin = dup if handle is primary else primary
        if twin is not None and twin is not handle:
            # First completion wins; same spec -> identical result, so
            # which copy wins never shows in the records.
            if session.cancel(twin):
                self.cancelled_savings += 1
            self._submit_times.pop(twin, None)
        if cs.done:
            self.discarded_results += 1
            return
        cs.staged.setdefault(index, []).append((attempt, handle.result))
        if (
            isinstance(handle.result, RunnerError)
            and attempt < self.config.max_trial_retries
        ):
            cs.retries.append((index, attempt + 1))
        else:
            cs.resolved.add(index)
        self._drain(cs, session)

    def _drain(self, cs: _CellRun, session) -> None:
        """Commit the resolved contiguous prefix; stop on convergence.

        The stopping rule runs at most once per committed-count value
        (``cs.checked`` memoizes the boundary evaluation); it only does
        real work at batch boundaries.
        """
        outcome = self.outcomes[cs.cell]
        while not cs.done:
            committed = self._next_index(outcome)
            if committed != cs.checked:
                cs.checked = committed
                if self._cell_done(outcome):
                    cs.done = True
                    self.events.append(("cell-done", cs.cell.id))
                    if self.verbose:
                        print(
                            f"[campaign] cell {cs.cell.id} done "
                            f"({len(outcome.records)} records)",
                            file=self.stream,
                        )
                    self._abandon(cs, session)
                    return
            if committed not in cs.resolved:
                return
            cs.resolved.discard(committed)
            for attempt, result in sorted(
                cs.staged.pop(committed, ()), key=lambda item: item[0]
            ):
                self._record(cs.cell, committed, attempt, result)
                self._commits += 1
            self._maybe_checkpoint()

    def _abandon(self, cs: _CellRun, session) -> None:
        """Revoke a converged cell's queued work, discard its stage."""
        for handle in [*cs.inflight.values(), *cs.dups.values()]:
            if session is not None and session.cancel(handle):
                self.cancelled_savings += 1
                self._submit_times.pop(handle, None)
        cs.inflight.clear()
        cs.dups.clear()
        self.discarded_results += sum(
            len(events) for events in cs.staged.values()
        )
        cs.staged.clear()
        cs.resolved.clear()
        cs.retries.clear()

    def _record(self, cell: Cell, index: int, attempt: int, result) -> None:
        """Commit one trial attempt's outcome."""
        seed = self.config.trial_spec(cell, index, attempt).error_seed
        if isinstance(result, RunnerError):
            record = TrialRecord(
                index=index,
                attempt=attempt,
                error_seed=seed,
                status="failed",
                error=_last_line(result.detail),
            )
            self.outcomes[cell].records.append(record)
            self._log_trial(cell, record, None)
        else:
            record = TrialRecord(
                index=index,
                attempt=attempt,
                error_seed=seed,
                status="ok",
                metrics=trial_metrics(result),
            )
            self.outcomes[cell].records.append(record)
            self._log_trial(cell, record, result)
        self._dirty_records += 1

    # -- persistence ------------------------------------------------------

    def _maybe_checkpoint(self, force: bool = False) -> None:
        """Write a checkpoint when the cadence thresholds say so.

        Serializing every record after every handful of trials is
        O(trials²) over a campaign; batching the write behind a
        dirty-count / elapsed-time threshold caps that cost while
        bounding the work an interrupt can lose.  ``force`` flushes
        unconditionally (run exit).
        """
        if self.checkpoint_path is None or (not force and not self._dirty_records):
            return
        if not force:
            due = (
                self._dirty_records >= self.checkpoint_every_trials
                or time.monotonic() - self._last_checkpoint
                >= self.checkpoint_interval
            )
            if not due:
                return
        self._write_checkpoint()

    def _write_checkpoint(self) -> None:
        if self.checkpoint_path is None:
            return
        payload = {
            "format": CAMPAIGN_FORMAT,
            "campaign": self.digest,
            "cells": {
                cell.id: [r.to_dict() for r in outcome.records]
                for cell, outcome in self.outcomes.items()
            },
        }
        path = self.checkpoint_path
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            _chaos.check_disk_full("checkpoint", str(path))
            text = json.dumps(payload, sort_keys=True)
            if _chaos.tear_checkpoint(self.digest):
                # A writer crash persisted half the payload: the resume
                # path's quarantine (below) must absorb it.
                text = text[: len(text) // 2]
            tmp.write_text(text)
            os.replace(tmp, path)
        except OSError:
            # A full or read-only disk costs durability, never the run:
            # the records stay dirty, the next cadence window retries,
            # and the exit flush gets the last word.
            recovery.count("checkpoint_write_errors")
            recovery.warn(
                "campaign", f"checkpoint write to {path} failed; continuing"
            )
            try:
                tmp.unlink()
            except OSError:
                pass
            self._last_checkpoint = time.monotonic()
            return
        self.checkpoint_writes += 1
        self._dirty_records = 0
        self._last_checkpoint = time.monotonic()

    def _load_checkpoint(self) -> bool:
        """Adopt a matching checkpoint.

        Missing or digest-mismatched checkpoints are ignored (fresh
        start); a *corrupt* one — truncated JSON, malformed trial
        records — is quarantined (renamed to ``*.corrupt``) so the
        campaign restarts its cells cleanly instead of raising out of
        resume.  Restarting is cheap: every previously-simulated trial
        is a content-addressed cache hit.
        """
        path = self.checkpoint_path
        try:
            text = path.read_text()
        except OSError:
            return False  # nothing there: a fresh campaign, not a fault
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError("checkpoint is not a JSON object")
        except ValueError:
            self._quarantine_checkpoint("unparseable JSON")
            return False
        if (
            payload.get("format") != CAMPAIGN_FORMAT
            or payload.get("campaign") != self.digest
        ):
            if self.verbose:
                print(
                    f"[campaign] ignoring checkpoint {path} "
                    "(different config or code version)",
                    file=self.stream,
                )
            return False
        by_id = {cell.id: cell for cell in self.outcomes}
        staged: dict[Cell, list[TrialRecord]] = {}
        try:
            for cell_id, records in payload.get("cells", {}).items():
                cell = by_id.get(cell_id)
                if cell is None:
                    continue
                staged[cell] = [TrialRecord.from_dict(r) for r in records]
        except (ValueError, KeyError, TypeError, AttributeError):
            # Structurally valid JSON whose records are garbage (a torn
            # write that happened to cut on a token boundary, a foreign
            # tool's file, ...).  Stage-then-commit keeps the outcomes
            # untouched on this path.
            self._quarantine_checkpoint("malformed trial records")
            return False
        loaded = 0
        for cell, records in staged.items():
            self.outcomes[cell].records = records
            loaded += len(records)
        if self.verbose and loaded:
            print(
                f"[campaign] resumed {loaded} trial records from {path}",
                file=self.stream,
            )
        return loaded > 0

    def _quarantine_checkpoint(self, reason: str) -> None:
        """Move a corrupt checkpoint aside and account for it."""
        path = self.checkpoint_path
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
        recovery.count("checkpoint_quarantined")
        recovery.warn(
            "campaign",
            f"quarantined corrupt checkpoint {path} ({reason}); "
            "restarting cells from the result cache",
        )
        if self.verbose:
            print(
                f"[campaign] quarantined corrupt checkpoint {path} ({reason})",
                file=self.stream,
            )

    def _log_trial(self, cell: Cell, record: TrialRecord, result) -> None:
        if self.trial_log_path is None:
            return
        line: dict[str, Any] = {"cell": cell.id, **record.to_dict()}
        if result is not None:
            line["result"] = result.to_dict()
        try:
            self.trial_log_path.parent.mkdir(parents=True, exist_ok=True)
            with self.trial_log_path.open("a") as fh:
                fh.write(json.dumps(line, sort_keys=True) + "\n")
        except OSError:
            # The trial log is observability, not state: losing a line
            # to a full disk must not fail the trial it describes.
            recovery.count("trial_log_errors")
            recovery.warn("campaign", "trial log append failed; continuing")

    # -- reporting --------------------------------------------------------

    def report(self) -> CampaignReport:
        """The campaign outcome built from the records gathered so far."""
        outcomes = []
        complete = True
        for cell in self.config.cells():
            outcome = self.outcomes[cell]
            if not self._cell_done(outcome):
                complete = False
            outcomes.append(outcome)
        return CampaignReport(
            config=self.config,
            digest=self.digest,
            outcomes=outcomes,
            complete=complete,
        )

    def telemetry(self) -> dict[str, Any]:
        """Engine and runner counters for benchmarks and the CLI.

        Deliberately *not* part of :class:`CampaignReport` — telemetry
        depends on timing and scheduling, while the report is
        byte-identical across worker counts, speculation depths and
        resumes.  ``utilization`` approximates worker busy fraction from
        summed trial latencies (submit-to-harvest, so pool queue wait
        inflates it slightly); ``cancelled_savings`` counts trials
        revoked before they ever executed; ``discarded_results`` counts
        simulated-but-never-committed speculative results (they stay in
        the result cache, so they are not pure waste on resume).
        """
        elapsed = self._run_elapsed
        stats = self.runner.stats
        return {
            "trials_committed": sum(
                len(o.records) for o in self.outcomes.values()
            ),
            "checkpoint_writes": self.checkpoint_writes,
            "breaker_trips": self.breaker_trips,
            "workers": self.workers,
            "max_inflight": self.max_inflight,
            "utilization": (
                min(1.0, self._busy / (self.workers * elapsed))
                if elapsed > 0
                else 0.0
            ),
            "steals": self.steals,
            "speculative_submits": self.speculative_submits,
            "speculative_duplicates": self.duplicate_submits,
            "cancelled_savings": self.cancelled_savings,
            "discarded_results": self.discarded_results,
            "backend_latency": {
                mode: latency_summary(vals)
                for mode, vals in sorted(self._latency.items())
            },
            "runner": {
                "jobs": stats.jobs,
                "cache_hits": stats.cache_hits,
                "simulated": stats.simulated,
                "retries": stats.retries,
                "cancelled": stats.cancelled,
                "elapsed": stats.elapsed,
            },
        }


def _last_line(detail: str) -> str:
    """The final non-empty line of a traceback (the exception itself)."""
    lines = [line for line in detail.strip().splitlines() if line.strip()]
    return lines[-1].strip() if lines else "unknown error"


def create_engine(
    config: CampaignConfig,
    runner: Optional[ParallelRunner] = None,
    *,
    scheduler: str = "stealing",
    **engine_kwargs: Any,
) -> CampaignEngine:
    """Build a :class:`CampaignEngine`.

    *scheduler* is kept for signature compatibility; ``"stealing"`` is
    its only value.
    """
    if scheduler == "round":
        raise ValueError(
            "the round-barrier campaign engine was removed; "
            "CampaignEngine (scheduler='stealing') renders the same reports"
        )
    if scheduler != "stealing":
        raise ValueError(
            f"unknown scheduler {scheduler!r}; the only scheduler is 'stealing'"
        )
    return CampaignEngine(config, runner, **engine_kwargs)


def run_campaign(
    config: CampaignConfig,
    runner: Optional[ParallelRunner] = None,
    *,
    scheduler: str = "stealing",
    **engine_kwargs: Any,
) -> CampaignReport:
    """Convenience one-shot: build an engine, run it, return the report."""
    return create_engine(
        config, runner, scheduler=scheduler, **engine_kwargs
    ).run()
