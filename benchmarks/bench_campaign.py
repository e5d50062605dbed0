"""Campaign smoke target: a tiny Monte Carlo fault-injection campaign.

Runs a deliberately small campaign (two schemes, one benchmark, a
handful of trials) through :class:`~repro.harness.campaign.CampaignEngine`
on both kernel backends: ``array`` (the campaign default: fault-injected
trials on the per-access SoA kernel) and ``object`` (the reference
oracle).  Trials/sec, the engine telemetry (worker utilization, steals,
cancelled-trial savings, per-tier ``backend_latency``) and the array
backend's speedup over the oracle land under ``backends`` in
``benchmarks/results/BENCH_campaign.json``,
with ``byte_identical_backends`` recording that the two reports match
byte for byte apart from the campaign digest (which hashes the backend).
The object run's report and summary table are recorded as well, and
the script fails unless every ICR cell is at least as resilient as the
Base cell it shares a benchmark and error rate with.

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


def _run_once(config, jobs):
    """One fresh, uncached campaign run; returns (report, telemetry, secs)."""
    from repro.harness.campaign import CampaignEngine
    from repro.harness.runner import ParallelRunner

    engine = CampaignEngine(config, ParallelRunner(jobs=jobs, cache=None))
    start = time.perf_counter()
    report = engine.run()
    elapsed = time.perf_counter() - start
    return report, engine.telemetry(), elapsed


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

    # -- the smoke campaign on both backends --------------------------------
    reports = {}
    backends = {}
    for backend in ("object", "array"):
        report, telemetry, elapsed = _run_once(
            dataclasses.replace(config, backend=backend), args.jobs
        )
        trials = sum(len(o.records) for o in report.outcomes)
        reports[backend] = report
        backends[backend] = {
            "elapsed_s": round(elapsed, 3),
            "trials": trials,
            "trials_per_sec": round(trials / elapsed, 2) if elapsed else None,
            "telemetry": telemetry,
        }
        print(
            f"[{backend:>8}] {trials} trials in {elapsed:.1f}s "
            f"({backends[backend]['trials_per_sec']} trials/sec, "
            f"jobs={args.jobs}, "
            f"tiers {sorted(telemetry['backend_latency'])})"
        )
    byte_identical_backends = _without_digest(
        reports["object"]
    ) == _without_digest(reports["array"])
    if not byte_identical_backends:
        print("FAIL: object and array backend reports differ", file=sys.stderr)
    if backends["array"]["elapsed_s"]:
        backends["array_speedup"] = round(
            backends["object"]["elapsed_s"] / backends["array"]["elapsed_s"], 2
        )
    report = reports["object"]

    table = report.to_table()
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_campaign.txt").write_text(table + "\n")
    payload = {
        "report": json.loads(report.to_json()),
        "byte_identical_backends": byte_identical_backends,
        "backends": backends,
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
    ok = byte_identical_backends
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
