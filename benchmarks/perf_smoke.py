"""Perf-smoke harness: substrate throughput, tracked across PRs.

Measures the simulator's hot-path throughput with plain ``time.perf_counter``
loops (no pytest-benchmark dependency) and appends one labelled entry to
``benchmarks/results/BENCH_simulator.json``.  The JSON keeps the whole
*trajectory* — one entry per measurement run — so a perf PR can point at its
before/after pair and CI can watch for regressions without failing builds.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py --label after-tag-index
    PYTHONPATH=src python benchmarks/perf_smoke.py --check        # print last two

Metrics (higher is better):

``plain_cache_accesses_per_sec``
    ``SetAssociativeCache.access`` micro-loop (the L2/iL1 demand path).
``icr_cache_accesses_per_sec``
    ``ICRCache.access`` micro-loop on the headline ICR-P-PS(S) scheme —
    the same workload as ``test_icr_cache_access_throughput``.
``base_cache_accesses_per_sec``
    ``ICRCache.access`` micro-loop on BaseP (the object kernel's single
    demand path on a non-replicating scheme).
``end_to_end_sims_per_sec``
    Whole simulations per second through ``ParallelRunner`` (jobs=1, result
    cache disabled, traces pre-generated) on the object kernel, the plain
    reference oracle: pipeline + hierarchy + dL1.
``end_to_end_sims_per_sec_array``
    The same grid under ``backend="array"`` (the struct-of-arrays kernel),
    measured warm — trace memo, prestage memo and the native phase-2
    kernel are primed by an untimed pass.  The ratio against the object
    number above is the array kernel's end-to-end speedup.
``end_to_end_sims_per_sec_fault``
    One Fig. 14 Monte Carlo trial (gzip, ICR-P-PS(S), 20k instructions,
    ``error_rate=1e-2``) per second on the object kernel: bit-accurate
    words, the fault injector and the recovery paths.
``end_to_end_sims_per_sec_fault_array``
    The same trial under ``backend="array"``, which runs it on the
    per-access SoA kernel (``array-soa``) — the tier every fault-injected
    campaign trial takes under the default backend.
``cold_sweep_sims_per_sec``
    Same grid but with cold in-process trace memo (includes trace
    generation / trace-cache time, the sweep-level view).
``trace_generation_instr_per_sec``
    Raw ``WorkloadGenerator.generate`` throughput.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_JSON = RESULTS_DIR / "BENCH_simulator.json"


def _best_of(fn, repeats: int = 3) -> float:
    """Best wall-clock of *repeats* calls (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _micro_addresses(seed: int, n: int = 20_000):
    import random

    rng = random.Random(seed)
    hot = [rng.randrange(1 << 20) & ~7 for _ in range(128)]
    return [
        rng.choice(hot) if rng.random() < 0.8 else rng.randrange(1 << 22) & ~7
        for _ in range(n)
    ]


def bench_plain_cache(repeats: int) -> float:
    import random

    from repro.cache.set_assoc import CacheGeometry, SetAssociativeCache

    rng = random.Random(1)
    addrs = [rng.randrange(1 << 22) & ~7 for _ in range(20_000)]

    def run():
        cache = SetAssociativeCache(CacheGeometry(16 * 1024, 4, 64))
        for now, addr in enumerate(addrs):
            cache.access(addr, now & 3 == 0, now)

    return len(addrs) / _best_of(run, repeats)


def bench_icr_cache(scheme: str, repeats: int) -> float:
    from repro.core.schemes import make_cache

    addrs = _micro_addresses(seed=2)

    def run():
        cache = make_cache(scheme, decay_window=0)
        for now, addr in enumerate(addrs):
            cache.access(addr, now & 3 == 0, now)

    return len(addrs) / _best_of(run, repeats)


def bench_end_to_end(repeats: int, *, cold: bool, backend: str = "object") -> float:
    """Simulations per second through the jobs=1, cache-disabled runner."""
    from repro.harness.runner import ParallelRunner
    from repro.harness.spec import ExperimentSpec
    from repro.workloads.generator import trace_for
    from repro.workloads.spec2000 import profile_for

    n_instructions = 30_000
    grid = [
        ExperimentSpec(bench, scheme, n_instructions=n_instructions, backend=backend)
        for bench in ("gzip", "mcf")
        for scheme in ("BaseP", "ICR-P-PS(S)")
    ]
    if not cold:
        for bench in ("gzip", "mcf"):
            trace_for(profile_for(bench), n_instructions)
        if backend == "array":
            # Prime the one-time costs the warm metric must not pay:
            # phase-1 prestage memo and the native phase-2 build.
            ParallelRunner(jobs=1, cache=None).run(list(grid))

    def run():
        if cold:
            trace_for.cache_clear()
        ParallelRunner(jobs=1, cache=None).run(list(grid))

    return len(grid) / _best_of(run, repeats)


def bench_fault_trial(repeats: int, backend: str) -> float:
    """Fault-injected Fig. 14 trials per second through the same runner."""
    from repro.harness.runner import ParallelRunner
    from repro.harness.spec import ExperimentSpec
    from repro.workloads.generator import trace_for
    from repro.workloads.spec2000 import profile_for

    n_instructions = 20_000
    spec = ExperimentSpec(
        "gzip",
        "ICR-P-PS(S)",
        n_instructions=n_instructions,
        error_rate=1e-2,
        error_seed=2024,
        backend=backend,
    )
    trace_for(profile_for("gzip"), n_instructions)
    return 1 / _best_of(
        lambda: ParallelRunner(jobs=1, cache=None).run([spec]), repeats
    )


def bench_trace_generation(repeats: int) -> float:
    from repro.workloads.generator import WorkloadGenerator
    from repro.workloads.spec2000 import profile_for

    n = 30_000
    generator = WorkloadGenerator(profile_for("gcc"))
    return n / _best_of(lambda: generator.generate(n), repeats)


def collect_metrics(repeats: int) -> dict[str, float]:
    return {
        "plain_cache_accesses_per_sec": bench_plain_cache(repeats),
        "icr_cache_accesses_per_sec": bench_icr_cache("ICR-P-PS(S)", repeats),
        "base_cache_accesses_per_sec": bench_icr_cache("BaseP", repeats),
        "end_to_end_sims_per_sec": bench_end_to_end(repeats, cold=False),
        "end_to_end_sims_per_sec_array": bench_end_to_end(
            repeats, cold=False, backend="array"
        ),
        "end_to_end_sims_per_sec_fault": bench_fault_trial(repeats, "object"),
        "end_to_end_sims_per_sec_fault_array": bench_fault_trial(
            repeats, "array"
        ),
        "cold_sweep_sims_per_sec": bench_end_to_end(repeats, cold=True),
        "trace_generation_instr_per_sec": bench_trace_generation(repeats),
    }


def _git_rev() -> str:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                cwd=Path(__file__).parent,
                timeout=10,
            ).stdout.strip()
            or "unknown"
        )
    except Exception:
        return "unknown"


def load_trajectory() -> dict:
    if BENCH_JSON.exists():
        try:
            return json.loads(BENCH_JSON.read_text())
        except ValueError:
            pass
    return {"format": 1, "entries": []}


def _backend_info() -> dict[str, str]:
    """Which simulation kernels this entry measured, and their flavor."""
    from repro.core import _native

    return {
        "object": "pure-python",
        "array": (
            "native-phase2" if _native.available() else "python-phase2"
        ),
    }


def append_entry(label: str, metrics: dict[str, float]) -> dict:
    trajectory = load_trajectory()
    entry = {
        "label": label,
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "backends": _backend_info(),
        "metrics": {k: round(v, 1) for k, v in metrics.items()},
    }
    # Re-running a label overwrites its entry (keeps the trajectory one
    # point per milestone instead of accumulating duplicates).
    entries = trajectory["entries"]
    entries[:] = [e for e in entries if e.get("label") != label]
    entries.append(entry)
    RESULTS_DIR.mkdir(exist_ok=True)
    BENCH_JSON.write_text(json.dumps(trajectory, indent=2) + "\n")
    return entry


def print_comparison(trajectory: dict, stream=sys.stdout) -> None:
    entries = trajectory.get("entries", [])
    if not entries:
        print("no entries recorded", file=stream)
        return
    last = entries[-1]
    prev = entries[-2] if len(entries) >= 2 else None
    print(f"latest: {last['label']} ({last['git_rev']})", file=stream)
    for name, value in last["metrics"].items():
        line = f"  {name:34s} {value:>14,.1f}"
        if prev and name in prev.get("metrics", {}):
            before = prev["metrics"][name]
            if before > 0:
                line += f"   ({value / before:.2f}x vs {prev['label']})"
        print(line, file=stream)


def check_within(
    trajectory: dict,
    fraction: float,
    metric: str = "end_to_end_sims_per_sec",
    stream=sys.stderr,
) -> bool:
    """Is the latest *metric* within *fraction* of the previous entry?

    Compares the trajectory's last entry against the one before it (the
    committed baseline when CI re-measures under a fixed label).  An
    *improvement* always passes; only a drop beyond ``fraction`` fails.
    With fewer than two entries there is nothing to compare — passes.
    """
    entries = trajectory.get("entries", [])
    if len(entries) < 2:
        print(f"assert-within: no baseline entry for {metric}", file=stream)
        return True
    current = entries[-1].get("metrics", {}).get(metric)
    baseline = entries[-2].get("metrics", {}).get(metric)
    if not current or not baseline:
        print(f"assert-within: metric {metric!r} missing", file=stream)
        return True
    ratio = current / baseline
    ok = ratio >= 1.0 - fraction
    print(
        f"assert-within: {metric} {current:,.1f} vs baseline "
        f"{baseline:,.1f} ({entries[-2]['label']}) = {ratio:.3f}x "
        f"(floor {1.0 - fraction:.2f}x) -> {'OK' if ok else 'REGRESSION'}",
        file=stream,
    )
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="smoke", help="entry label")
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    parser.add_argument(
        "--check",
        action="store_true",
        help="only print the recorded trajectory (no measurement)",
    )
    parser.add_argument(
        "--assert-within",
        type=float,
        default=None,
        metavar="FRAC",
        help="exit 1 if end_to_end_sims_per_sec dropped more than FRAC "
        "(e.g. 0.05) below the previous trajectory entry",
    )
    args = parser.parse_args(argv)
    if args.check:
        print_comparison(load_trajectory())
        return 0
    metrics = collect_metrics(args.repeats)
    append_entry(args.label, metrics)
    trajectory = load_trajectory()
    print_comparison(trajectory)
    if args.assert_within is not None:
        if not check_within(trajectory, args.assert_within):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
