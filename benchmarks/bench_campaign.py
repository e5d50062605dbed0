"""Campaign smoke target: a tiny Monte Carlo fault-injection campaign.

Runs a deliberately small campaign (two schemes, one benchmark, a
handful of trials) through :mod:`repro.harness.campaign` under **both**
schedulers — the synchronous round-barrier engine and the continuous
work-stealing engine — asserts their reports are byte-identical, and
records per-scheduler trials/sec plus scheduler telemetry (worker
utilization, steals, cancelled-trial savings) under
``benchmarks/results/``.

A second, adaptive-stopping campaign measures the headline scheduler
win: with ``batch_size=1`` and a bootstrap half-width target, the round
engine degenerates into one barrier per trial while the stealing engine
pipelines speculative trials past the firm frontier and cancels them on
convergence.  The wall-clock ratio (round / stealing) is recorded as
``adaptive.speedup`` in ``BENCH_campaign.json``.

The scheduler comparisons run every trial on the object kernel, the
campaign default.  The smoke campaign then runs once more on the
stealing engine with ``backend="auto"`` (fault-injected trials on the
per-access SoA kernel).  Trials/sec and the per-tier
``backend_latency`` of both backends land under ``backends`` — the
``object`` entry is the stealing run above — with
``byte_identical_backends`` recording that the two reports match byte
for byte apart from the campaign digest (which hashes the backend).

This is the artifact the CI campaign-smoke job uploads; it is sized to
finish in well under a minute so it can run on every push without
gating merges.

Usage::

    PYTHONPATH=src python benchmarks/bench_campaign.py
    PYTHONPATH=src python benchmarks/bench_campaign.py --trials 20 --jobs 4
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def _run_once(config, scheduler, jobs, **engine_kwargs):
    """One fresh, uncached campaign run; returns (report, telemetry, secs)."""
    from repro.harness.campaign import create_engine
    from repro.harness.runner import ParallelRunner

    runner = ParallelRunner(jobs=jobs, cache=None)
    engine = create_engine(config, runner, scheduler=scheduler, **engine_kwargs)
    start = time.perf_counter()
    report = engine.run()
    elapsed = time.perf_counter() - start
    return report, engine.telemetry(), elapsed


def _scheduler_entry(report, telemetry, elapsed):
    trials = sum(len(o.records) for o in report.outcomes)
    return {
        "elapsed_s": round(elapsed, 3),
        "trials": trials,
        "trials_per_sec": round(trials / elapsed, 2) if elapsed else None,
        "telemetry": telemetry,
        # Multi-host cooperation: how much of the helper-trial effort
        # (trials run for cells owned by another engine) actually warmed
        # the shared result cache with fresh simulations.
        "helper_warming": {
            "submitted": telemetry.get("helper_trials", 0),
            "completed": telemetry.get("helper_completed", 0),
            "warmed": telemetry.get("helper_warmed", 0),
            "warm_rate": round(telemetry.get("helper_warm_rate", 0.0), 4),
        },
    }


def _without_digest(report) -> str:
    """The canonical report JSON minus the digest, which hashes the config
    (backend included) rather than the results."""
    data = report.to_dict()
    del data["campaign"]
    return json.dumps(data, indent=2, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default="gzip", help="workload profile")
    parser.add_argument(
        "--schemes", default="BaseP,ICR-P-PS(S)", help="comma-separated schemes"
    )
    parser.add_argument("--error-rate", type=float, default=1e-2)
    parser.add_argument("--trials", type=int, default=12, help="trials per cell")
    parser.add_argument("--instructions", type=int, default=20_000)
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument(
        "--adaptive-jobs",
        type=int,
        default=4,
        help="worker processes for the adaptive-stopping comparison",
    )
    parser.add_argument(
        "--adaptive-trials",
        type=int,
        default=48,
        help="trial cap per cell in the adaptive-stopping comparison",
    )
    parser.add_argument(
        "--adaptive-instructions",
        type=int,
        default=5_000,
        help="instructions per trial in the adaptive-stopping comparison "
        "(short trials make the per-barrier overhead visible)",
    )
    parser.add_argument(
        "--skip-adaptive",
        action="store_true",
        help="skip the adaptive-stopping scheduler comparison",
    )
    args = parser.parse_args(argv)

    from repro.harness.campaign import CampaignConfig

    config = CampaignConfig(
        benchmarks=(args.benchmark,),
        schemes=tuple(args.schemes.split(",")),
        error_rates=(args.error_rate,),
        trials=args.trials,
        batch_size=max(4, args.trials // 2),
        n_instructions=args.instructions,
    )

    # -- smoke campaign under both schedulers ------------------------------
    schedulers = {}
    reports = {}
    telemetries = {}
    for scheduler in ("round", "stealing"):
        report, telemetry, elapsed = _run_once(config, scheduler, args.jobs)
        reports[scheduler] = report
        telemetries[scheduler] = telemetry
        schedulers[scheduler] = _scheduler_entry(report, telemetry, elapsed)
        print(
            f"[{scheduler:>8}] {schedulers[scheduler]['trials']} trials "
            f"in {elapsed:.1f}s "
            f"({schedulers[scheduler]['trials_per_sec']} trials/sec, "
            f"jobs={args.jobs})"
        )

    byte_identical = reports["round"].to_json() == reports["stealing"].to_json()
    if not byte_identical:
        print("FAIL: round and stealing reports differ", file=sys.stderr)
    report = reports["round"]

    # -- the smoke campaign on the auto backend ------------------------------
    auto_report, auto_tel, auto_elapsed = _run_once(
        dataclasses.replace(config, backend="auto"), "stealing", args.jobs
    )
    backends = {}
    for backend, entry, telemetry in (
        ("object", schedulers["stealing"], telemetries["stealing"]),
        ("auto", _scheduler_entry(auto_report, auto_tel, auto_elapsed), auto_tel),
    ):
        backends[backend] = {
            key: entry[key] for key in ("elapsed_s", "trials", "trials_per_sec")
        }
        backends[backend]["backend_latency"] = telemetry.get("backend_latency", {})
        print(
            f"[{backend:>8}] {entry['trials']} trials in {entry['elapsed_s']}s "
            f"({entry['trials_per_sec']} trials/sec, "
            f"tiers {sorted(backends[backend]['backend_latency'])})"
        )
    byte_identical_backends = _without_digest(
        reports["stealing"]
    ) == _without_digest(auto_report)
    if not byte_identical_backends:
        print("FAIL: object and auto backend reports differ", file=sys.stderr)
    if backends["auto"]["elapsed_s"]:
        backends["auto_speedup"] = round(
            backends["object"]["elapsed_s"] / backends["auto"]["elapsed_s"], 2
        )

    # -- adaptive stopping: round barriers vs stealing pipeline ------------
    adaptive = None
    if not args.skip_adaptive:
        adaptive_config = CampaignConfig(
            benchmarks=(args.benchmark,),
            schemes=tuple(args.schemes.split(",")),
            error_rates=(args.error_rate,),
            trials=args.adaptive_trials,
            min_trials=8,
            batch_size=1,
            target_half_width=1.15e-3,
            n_instructions=args.adaptive_instructions,
        )
        adaptive = {
            "config": {
                "trials": adaptive_config.trials,
                "batch_size": adaptive_config.batch_size,
                "target_half_width": adaptive_config.target_half_width,
                "jobs": args.adaptive_jobs,
            }
        }
        adaptive_reports = {}
        for scheduler in ("round", "stealing"):
            extra = {"lookahead_batches": 8} if scheduler == "stealing" else {}
            a_report, a_tel, a_elapsed = _run_once(
                adaptive_config, scheduler, args.adaptive_jobs, **extra
            )
            adaptive_reports[scheduler] = a_report
            adaptive[scheduler] = _scheduler_entry(a_report, a_tel, a_elapsed)
        adaptive["byte_identical"] = (
            adaptive_reports["round"].to_json()
            == adaptive_reports["stealing"].to_json()
        )
        speedup = (
            adaptive["round"]["elapsed_s"] / adaptive["stealing"]["elapsed_s"]
            if adaptive["stealing"]["elapsed_s"]
            else None
        )
        adaptive["speedup"] = round(speedup, 2) if speedup else None
        savings = adaptive["stealing"]["telemetry"].get("cancelled_savings", 0)
        print(
            f"[adaptive] round {adaptive['round']['elapsed_s']}s vs "
            f"stealing {adaptive['stealing']['elapsed_s']}s -> "
            f"{adaptive['speedup']}x speedup, "
            f"{savings} cancelled trials saved, "
            f"byte_identical={adaptive['byte_identical']}"
        )
        if not adaptive["byte_identical"]:
            print("FAIL: adaptive reports differ across schedulers", file=sys.stderr)
            byte_identical = False

    table = report.to_table()
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_campaign.txt").write_text(table + "\n")
    payload = {
        "report": json.loads(report.to_json()),
        "byte_identical": byte_identical,
        "schedulers": schedulers,
        "byte_identical_backends": byte_identical_backends,
        "backends": backends,
        "adaptive": adaptive,
    }
    (RESULTS_DIR / "BENCH_campaign.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(table)

    # Shape check: every ICR cell must be at least as resilient as the
    # baseline cell sharing its (benchmark, error_rate).
    ulf = {
        o.cell: o.metric_ci("unrecoverable_load_fraction", config)
        for o in report.outcomes
    }
    ok = byte_identical and byte_identical_backends
    for cell, ci in ulf.items():
        if ci is None or cell.scheme.startswith("Base"):
            continue
        for base_cell, base_ci in ulf.items():
            if (
                base_ci is not None
                and base_cell.scheme.startswith("Base")
                and base_cell.benchmark == cell.benchmark
                and base_cell.error_rate == cell.error_rate
                and ci.mean > base_ci.mean + 1e-9
            ):
                print(
                    f"FAIL: {cell.scheme} ulf {ci.mean:.4f} > "
                    f"{base_cell.scheme} {base_ci.mean:.4f}",
                    file=sys.stderr,
                )
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
