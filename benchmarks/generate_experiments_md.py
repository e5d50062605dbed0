#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from actual figure runs.

Runs every entry of :data:`repro.harness.figures.ALL_FIGURES` and writes
the paper-vs-measured record.  This is the script that produced the
checked-in EXPERIMENTS.md; rerun it after any change to the core, the
workload profiles or the machine model.

    python benchmarks/generate_experiments_md.py [n_instructions]
"""

import multiprocessing
import sys
import time

from repro.harness.figures import ALL_FIGURES, FigureResult


def _run_one(args):
    key, n = args
    fn = ALL_FIGURES[key]
    start = time.time()
    result = fn(n=n) if "n" in fn.__code__.co_varnames else fn()
    return key, result.to_json(), time.time() - start

HEADER = """\
# EXPERIMENTS — paper vs. measured

Every figure of the paper's evaluation (Section 5), regenerated by this
repository.  Produced by `benchmarks/generate_experiments_md.py`; each
entry names the bench target that reproduces it
(`pytest benchmarks/bench_<id>*.py --benchmark-only`).

**How to read this file.**  The paper ran SPEC2000 binaries for 500M
instructions on SimpleScalar; this reproduction runs calibrated synthetic
workloads for {n:,} instructions on a pure-Python machine model (see
DESIGN.md section 2 for the substitution table).  Absolute numbers are
therefore not expected to match; the *shape* — who wins, in which
direction, roughly by how much — is the reproduction target, and each
entry below records both the paper's claim and our measurement.

**Known deviations** (full discussion in DESIGN.md):

* The average BaseECC slowdown measures ~+12-20% here vs. the paper's
  ~+31%: our out-of-order model hides somewhat more of the 2-cycle load
  latency than sim-outorder did, even with pointer-style load chains in
  the workloads.  All scheme *orderings* and relative gaps are preserved
  (e.g. ICR-ECC-PS(S) recovers roughly two-thirds of BaseECC's loss).
* Loads-with-replica for the LS trigger reaches ~0.65-0.85 rather than
  the paper's >0.90: the synthetic hot sets have a flatter reuse skew
  than real SPEC2000 hot data.  LS >= S holds per benchmark, as in
  Figure 7.
* Figure 15's mcf speedup from leaving replicas in place measures a few
  percent rather than up to 24%: our replica fills save the L2 *hit*
  latency (4 cycles); the paper's mcf additionally avoided longer
  stalls.  The direction (ICR beats BaseP on mcf, matches it elsewhere)
  reproduces.

**Statistical confidence.**  Every number below is one deterministic
seeded run, exactly like the paper's own single-sample methodology.  For
the reliability metrics (unrecoverable loads, AVF, MTTF) the repository
can do better: `repro-icr campaign` reruns each (benchmark, scheme,
error-rate) cell over many fault-injection seeds and reports the mean
with a 95% percentile-bootstrap confidence interval — use it before
reading significance into a small gap between two schemes.  The
non-blocking `campaign-smoke` CI job publishes a small such campaign
(`benchmarks/results/BENCH_campaign.*`) on every push, run on both
kernel backends (`object` and `array`) with byte-identical reports; the
JSON artifact also records per-backend trials/sec and the engine
telemetry (worker utilization, cancelled-trial savings).

Generated: {timestamp} — total generation time {elapsed:.0f}s.

---
"""


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
    t0 = time.time()
    keys = list(ALL_FIGURES)
    workers = max(1, min(len(keys), (multiprocessing.cpu_count() or 2) - 1))
    with multiprocessing.Pool(workers) as pool:
        outputs = pool.map(_run_one, [(key, n) for key in keys])
    sections = []
    for key, payload, elapsed in outputs:
        result = FigureResult.from_json(payload)
        print(f"{key}: {elapsed:.0f}s", flush=True)
        verdict = f"\n**Verdict:** {result.verdict}\n" if result.verdict else ""
        sections.append(
            f"## {result.figure_id} — {result.title}\n\n"
            f"*Paper:* {result.paper_claim}.\n"
            f"{verdict}\n"
            f"*Bench target:* `benchmarks/bench_{key}*.py`\n\n"
            "```\n"
            + "\n".join(result.to_table().splitlines()[2:])
            + "\n```\n"
        )
    body = HEADER.format(
        n=n, timestamp=time.strftime("%Y-%m-%d %H:%M"), elapsed=time.time() - t0
    )
    with open("EXPERIMENTS.md", "w") as fh:
        fh.write(body + "\n".join(sections))
    print(f"wrote EXPERIMENTS.md in {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()
