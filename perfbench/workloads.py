"""The four benchmark workloads, driven only through the public surface.

Every workload loads the simulator through :mod:`repro.api` (the
sweeps and the campaign) or through :class:`repro.service.ServiceClient`
against a ``repro serve`` process (the service).  Each workload has the
same shape:

* ``setup()`` — the untimed work before the first timed op: cold trace
  generation and one warm-up op per trace (plus server boot for the
  service);
* ``measure(seconds)`` — timed ops until *seconds* have passed, with
  whole sweep passes and whole campaigns as the unit so every timed
  window does the same mix of work;
* ``peak_rss_mb()`` — VmHWM of the processes doing the simulating, read
  before they exit;
* ``check(reference)`` — every op's output against the untimed
  reference and the accounting invariants, counting each mismatch as a
  failed op.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Optional

from repro.api import (
    CampaignConfig,
    ExperimentSpec,
    ParallelRunner,
    ResultCache,
    create_engine,
    get_scheme,
    result_from_dict,
    run_experiment,
)

PROFILES = ("gzip", "vpr", "gcc", "mesa", "mcf", "parser", "vortex", "equake")
PAPER_SCHEMES = (
    "BaseP", "BaseECC",
    "ICR-P-PS(LS)", "ICR-P-PS(S)", "ICR-P-PP(LS)", "ICR-P-PP(S)",
    "ICR-ECC-PS(LS)", "ICR-ECC-PS(S)", "ICR-ECC-PP(LS)", "ICR-ECC-PP(S)",
)
SWEEP_INSTRUCTIONS = 30_000
SERVICE_INSTRUCTIONS = 20_000
#: Section 5.4's relaxed knobs in the spec wire form, so the enum comes
#: through ExperimentSpec.from_dict rather than an internal import.
RELAXED_KNOBS = {
    "decay_window": 1000,
    "victim_policy": {
        "__enum__": "repro.core.config:VictimPolicy", "value": "dead-first",
    },
}
#: error_seed of warm-up ops; measured ops never use it, so a warm-up
#: result can never answer a timed op.
WARMUP_ERROR_SEED = 1


def vm_hwm_mb(pid: int) -> Optional[float]:
    """Peak resident set (VmHWM) of a live process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def child_pids(pid: int) -> list[int]:
    pids = []
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            pids.extend(int(p) for p in task.read_text().split())
        except OSError:
            pass
    return pids


def invariant_errors(result: dict[str, Any], n_instructions: int) -> list[str]:
    """The accounting invariants every result must satisfy."""
    dl1 = result.get("dl1", result)
    buckets = sum(
        dl1.get(name, 0)
        for name in (
            "load_errors_recovered_replica",
            "load_errors_recovered_l2",
            "load_errors_corrected_ecc",
            "load_errors_unrecoverable",
        )
    )
    errors = []
    if dl1.get("load_errors_detected", 0) != buckets:
        errors.append("detected load errors != sum of recovery buckets")
    if result.get("instructions") != n_instructions:
        errors.append(
            f"instructions {result.get('instructions')} != {n_instructions}"
        )
    return errors


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 < q <= 100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, min(len(ordered), -(-len(ordered) * q // 100)))
    return ordered[int(rank) - 1]


def _wire_spec(benchmark, scheme, n_instructions, *, knobs, **fields):
    data = ExperimentSpec(
        benchmark, scheme, n_instructions=n_instructions, backend="array",
        **fields,
    ).to_dict()
    if get_scheme(scheme).accepts_icr_knobs:
        data["scheme_kwargs"] = knobs
    return ExperimentSpec.from_dict(data)


def object_reference(specs: list[ExperimentSpec]) -> dict[str, Any]:
    """The object kernel's ``to_dict()`` for each spec, by spec label."""
    runner = ParallelRunner(jobs=min(2, os.cpu_count() or 1), cache=None)
    reference = {}
    with runner.session() as session:
        for spec in specs:
            session.submit_spec(spec.with_backend("object"), tag=spec.label)
        while session.outstanding():
            handle = session.next_completed(timeout=60)
            if handle is None:
                continue
            if not handle.ok:
                raise RuntimeError(f"reference run failed: {handle.result}")
            reference[handle.tag] = handle.result.to_dict()
    return reference


class Workload:
    name = ""

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.run_dir = Path(run_dir)
        self.attempted = 0
        self.failed = 0
        self.ops = 0
        self.elapsed = 0.0
        #: host time from the start of each timed op to its result
        self.latencies_ms: list[float] = []
        #: [verified ops, seconds] per timed unit (sweep pass, campaign,
        #: service window); ops_per_sec is the median of their rates
        self.windows: list[list[float]] = []
        self.extra: dict[str, Any] = {}

    def reference_key(self) -> str:
        return f"{self.name}-seed{self.seed}"

    def ops_per_sec(self) -> float:
        return statistics.median(ops / sec for ops, sec in self.windows)

    def latency_ms(self, q: float) -> float:
        return percentile(self.latencies_ms, q)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


class Sweep(Workload):
    """Whole passes over a scheme x profile grid, jobs=1, no result cache."""

    MIN_OPS = 80  # at least two passes of the 40-op relaxed grid

    def __init__(self, seed: int, run_dir: Path):
        super().__init__(seed, run_dir)
        self.specs = self.grid()
        #: (spec, result, index of the pass that produced it)
        self.results: list[tuple[ExperimentSpec, Any, int]] = []

    def grid(self) -> list[ExperimentSpec]:
        raise NotImplementedError

    def setup(self) -> None:
        for profile in PROFILES:
            run_experiment(
                ExperimentSpec(
                    profile, "BaseP", n_instructions=SWEEP_INSTRUCTIONS,
                    backend="array", trace_seed=self.seed,
                    error_seed=WARMUP_ERROR_SEED,
                )
            )

    def measure(self, seconds: float) -> None:
        start = time.perf_counter()
        while (self.attempted < self.MIN_OPS
               or time.perf_counter() - start < seconds):
            began_pass = time.perf_counter()
            runner = ParallelRunner(jobs=1, cache=None)
            done = 0
            for spec in self.specs:
                self.attempted += 1
                began = time.perf_counter()
                try:
                    result = runner.run_one(spec)
                except Exception as exc:  # counted, reported, never fatal
                    self.failed += 1
                    print(f"[perfbench] {spec.label} failed: {exc!r}",
                          file=sys.stderr)
                    continue
                self.latencies_ms.append((time.perf_counter() - began) * 1e3)
                self.results.append((spec, result, len(self.windows)))

                done += 1
            self.windows.append([done, time.perf_counter() - began_pass])
        self.elapsed = time.perf_counter() - start
        self.ops = len(self.results)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(os.getpid()) or 0.0

    def build_reference(self) -> dict[str, Any]:
        return object_reference(self.specs)

    def check(self, reference: dict[str, Any]) -> None:
        for spec, result, window in self.results:
            data = result.to_dict()
            problems = invariant_errors(data, spec.n_instructions)
            if data != reference.get(spec.label):
                problems.append("differs from the object kernel")
            if problems:
                self.failed += 1
                self.ops -= 1
                self.windows[window][0] -= 1
                print(f"[perfbench] {spec.label}: {'; '.join(problems)}",
                      file=sys.stderr)


class SweepAggressive(Sweep):
    """The ten paper schemes x eight profiles at decay window 0."""

    name = "sweep-aggressive"

    def grid(self):
        return [
            _wire_spec(profile, scheme, SWEEP_INSTRUCTIONS,
                       knobs={"decay_window": 0}, trace_seed=self.seed)
            for profile in PROFILES
            for scheme in PAPER_SCHEMES
        ]


class SweepRelaxed(Sweep):
    """Relaxed ICR schemes plus the write-through and baseline rivals."""

    name = "sweep-relaxed"
    SCHEMES = ("ICR-P-PS(S)", "ICR-ECC-PS(S)", "BaseP-WT", "rcache",
               "victim-cache")

    def grid(self):
        return [
            _wire_spec(profile, scheme, SWEEP_INSTRUCTIONS,
                       knobs=RELAXED_KNOBS, trace_seed=self.seed)
            for profile in PROFILES
            for scheme in self.SCHEMES
        ]


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------


class Campaign(Workload):
    """Whole Fig. 14 campaigns with a fixed trial budget, repeated."""

    name = "campaign-fault"
    TRIALS = 2

    def __init__(self, seed: int, run_dir: Path):
        super().__init__(seed, run_dir)
        self.config = CampaignConfig(
            benchmarks=("gzip", "mcf"),
            schemes=("BaseP", "BaseECC", "ICR-P-PS(S)", "ICR-ECC-PS(S)"),
            error_rates=(1e-2,),
            trials=self.TRIALS,
            min_trials=2,
            batch_size=self.TRIALS,
            target_half_width=None,
            n_instructions=SERVICE_INSTRUCTIONS,
            seed0=seed,
            backend="auto",
        )
        self.workers = min(2, os.cpu_count() or 1)
        self.reports: list[tuple[str, dict]] = []
        self.engines: list = []  # for the traced run's telemetry
        self._rss: dict[int, float] = {}
        self._sampling = False

    def setup(self) -> None:
        # One untimed trial per trace, in the parent: the pool forks
        # from it, so workers start with the traces in memory.
        for benchmark in self.config.benchmarks:
            cell = next(c for c in self.config.cells()
                        if c.benchmark == benchmark)
            run_experiment(self.config.trial_spec(cell, 10**6, 0))

    def _sample_children(self) -> None:
        me = os.getpid()
        while self._sampling:
            for pid in child_pids(me):
                peak = vm_hwm_mb(pid)
                if peak is not None:
                    self._rss[pid] = max(self._rss.get(pid, 0.0), peak)
            time.sleep(0.25)

    def measure(self, seconds: float) -> None:
        self._sampling = True
        sampler = threading.Thread(target=self._sample_children, daemon=True)
        sampler.start()
        start = time.perf_counter()
        try:
            while not self.reports or time.perf_counter() - start < seconds:
                rep_dir = self.run_dir / f"campaign-{len(self.reports)}"
                runner = ParallelRunner(
                    jobs=self.workers, cache=ResultCache(rep_dir / "cache")
                )
                engine = create_engine(
                    self.config, runner, scheduler="stealing",
                    checkpoint_path=rep_dir / "checkpoint.json",
                )
                self.attempted += len(self.config.cells()) * self.TRIALS
                began = time.perf_counter()
                try:
                    report = engine.run()
                except Exception as exc:
                    print(f"[perfbench] campaign failed: {exc!r}",
                          file=sys.stderr)
                    self.reports.append(("", {}))
                    self.windows.append([0, time.perf_counter() - began])
                    continue
                took = time.perf_counter() - began
                self.latencies_ms.append(took * 1e3)
                self.windows.append([0, took])  # ops counted by check()
                self.reports.append((report.to_json(), report.to_dict()))
                self.engines.append(engine)
        finally:
            self.elapsed = time.perf_counter() - start
            self._sampling = False
            sampler.join(timeout=5)
        self.ops = sum(
            record["status"] == "ok"
            for _, data in self.reports
            for cell in data.get("cells", ())
            for record in cell["records"]
        )

    def peak_rss_mb(self) -> float:
        return (vm_hwm_mb(os.getpid()) or 0.0) + max(self._rss.values(),
                                                     default=0.0)

    def build_reference(self) -> dict[str, Any]:
        report = create_engine(
            self.config, ParallelRunner(jobs=1, cache=None),
            scheduler="stealing",
        ).run()
        return {"report": report.to_json()}

    def check(self, reference: dict[str, Any]) -> None:
        per_campaign = len(self.config.cells()) * self.TRIALS
        ok_total = 0
        for window, (text, data) in zip(self.windows, self.reports):
            if text != reference["report"]:
                self.failed += per_campaign
                print("[perfbench] campaign report differs from the jobs=1 run",
                      file=sys.stderr)
                continue
            ok = 0
            for cell in data["cells"]:
                for record in cell["records"]:
                    if record["status"] != "ok":
                        continue
                    problems = invariant_errors(
                        record["metrics"], self.config.n_instructions
                    )
                    if problems:
                        print(f"[perfbench] trial: {'; '.join(problems)}",
                              file=sys.stderr)
                    else:
                        ok += 1
            self.failed += per_campaign - ok
            ok_total += ok
            window[0] = ok
        self.ops = ok_total


# ---------------------------------------------------------------------------
# service
# ---------------------------------------------------------------------------


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Service(Workload):
    """Two closed-loop clients against one ``repro serve`` process.

    Op kinds: a *fresh* spec is one the server has never seen, so it is
    simulated; a *cached* op resubmits a spec already answered, so the
    read-through store answers it; a *dedup* op is one fresh spec both
    clients submit at the same moment (one simulation, two answers).
    Every 16th op of each client is a dedup op; of the rest, 1 in 5 is
    cached.  That puts about 19% of answers in the fast cached band and
    81% in the simulated band, so p50 (the 38th percentile of the
    simulated band) and p90 (its 88th) both sit far from the boundary.
    The cached band is a few milliseconds of GIL hand-off inside the
    server and swings with host load far more than the simulated band,
    which is why it is the minority.
    """

    name = "service-mixed"
    CLIENTS = 2
    DEDUP_EVERY = 16
    CACHED_SHARE = 0.2
    SLICES = 3
    MIN_OPS = 300  # about ten samples beyond p90 in each slice

    def __init__(self, seed: int, run_dir: Path, server_cmd: list[str]):
        super().__init__(seed, run_dir)
        self.server_cmd = server_cmd
        self.grid = [
            _wire_spec(profile, scheme, SERVICE_INSTRUCTIONS,
                       knobs={"decay_window": 0})
            for profile in PROFILES
            for scheme in PAPER_SCHEMES
        ]
        self.server: Optional[subprocess.Popen] = None
        self._cpus = os.sched_getaffinity(0)
        self.client = None
        self.records: list[dict[str, Any]] = []
        self.server_rss = 0.0
        self.boot_s = 0.0
        self.telemetry: dict[str, Any] = {}

    # -- server lifecycle --------------------------------------------------

    def boot(self) -> None:
        from repro.service import ServiceClient

        port = free_port()
        started = time.perf_counter()
        log = open(self.run_dir / "server.log", "ab")
        try:
            self.server = subprocess.Popen(
                [*self.server_cmd, "serve", "--port", str(port),
                 "--queue-dir", str(self.run_dir / "queue"),
                 "--cache-dir", str(self.run_dir / "results"), "--jobs", "1"],
                stdout=log, stderr=log,
            )
        finally:
            log.close()
        self._pin()
        self.client = ServiceClient(port=port, timeout=60.0)
        deadline = time.monotonic() + 60
        while not self.client.health():
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("server did not come up; see server.log")
            time.sleep(0.01)
        self.boot_s = time.perf_counter() - started

    def _pin(self) -> None:
        """Server on one CPU, the client process on another.

        Left to the scheduler, the two processes sometimes share a CPU
        for a whole run and sometimes do not, which splits runs of one
        seed into a fast and a slow mode (about 34 and 23 ops/s here).
        """
        cpus = sorted(self._cpus)
        if len(cpus) >= 2:
            os.sched_setaffinity(self.server.pid, {cpus[0]})
            os.sched_setaffinity(0, {cpus[1]})

    def stop(self) -> None:
        os.sched_setaffinity(0, self._cpus)  # the reference uses them all
        if self.server is None:
            return
        for sig, wait in ((signal.SIGINT, 15), (signal.SIGTERM, 5),
                          (signal.SIGKILL, 5)):
            if self.server.poll() is not None:
                break
            self.server.send_signal(sig)
            try:
                self.server.wait(timeout=wait)
            except subprocess.TimeoutExpired:
                continue
        self.server.wait()
        self.server = None

    # -- one op ------------------------------------------------------------

    def _answer(self, client, spec: ExperimentSpec) -> dict[str, Any]:
        """Submit *spec*, wait on its SSE stream, return the op record."""
        t0 = time.perf_counter()
        submitted = client.submit(spec)
        t_submit = time.perf_counter()
        record: dict[str, Any] = {
            "spec": spec, "how": submitted["submission"],
            "submit_ms": (t_submit - t0) * 1000.0,
        }
        if "result" in submitted:
            result = submitted["result"]
        else:
            job_id = submitted["job"]["id"]
            stamps = {}
            for event in client.events(job_id, timeout=120):
                stamps[event["event"]] = event["ts"]
            payload = client.job(job_id)
            result = payload.get("result")
            record["delivery_ms"] = (time.time() - stamps.get("done", 0)) * 1e3
            if "started" in stamps and "queued" in stamps:
                record["queue_wait_ms"] = (
                    stamps["started"] - stamps["queued"]) * 1e3
            if "started" in stamps and "done" in stamps:
                record["exec_ms"] = (stamps["done"] - stamps["started"]) * 1e3
        record["done_at"] = time.perf_counter()
        record["latency_ms"] = (record["done_at"] - t0) * 1000.0
        record["result"] = result
        return record

    def setup(self) -> None:
        self.boot()
        for profile in PROFILES:
            spec = ExperimentSpec(
                profile, "BaseP", n_instructions=SERVICE_INSTRUCTIONS,
                backend="array", error_seed=WARMUP_ERROR_SEED,
            )
            if self._answer(self.client, spec)["result"] is None:
                raise RuntimeError(f"warm-up op {spec.label} got no result")

    def measure(self, seconds: float) -> None:
        from repro.service import ServiceClient

        port = self.client.port
        rng = random.Random(self.seed)
        dedup_grid = [rng.choice(self.grid) for _ in range(1000)]
        done: list[ExperimentSpec] = []
        lock = threading.Lock()
        stop = threading.Event()
        start = time.perf_counter()

        def decide() -> None:
            with lock:
                enough = len(self.records) >= self.MIN_OPS
            if enough and time.perf_counter() - start >= seconds:
                stop.set()

        barrier = threading.Barrier(self.CLIENTS, action=decide, timeout=120)

        def client_loop(index: int) -> None:
            try:
                ops_of(index)
            except Exception as exc:  # e.g. the other client died
                stop.set()
                barrier.abort()
                print(f"[perfbench] client {index} stopped: {exc!r}",
                      file=sys.stderr)

        def ops_of(index: int) -> None:
            client = ServiceClient(port=port, timeout=60.0)
            own = random.Random(f"{self.seed}-{index}")
            fresh = 0
            op = 0
            while not stop.is_set():
                op += 1
                if op % self.DEDUP_EVERY == 0:
                    barrier.wait()
                    rendezvous = op // self.DEDUP_EVERY
                    spec = dedup_grid[rendezvous % len(dedup_grid)].replace(
                        error_seed=2_000_000 + rendezvous)
                else:
                    with lock:
                        pool = list(done)
                    if pool and own.random() < self.CACHED_SHARE:
                        spec = own.choice(pool)
                    else:
                        fresh += 1
                        spec = own.choice(self.grid).replace(
                            error_seed=1_000_000 * (index + 2) + fresh
                        )
                with lock:
                    self.attempted += 1
                try:
                    record = self._answer(client, spec)
                except Exception as exc:
                    with lock:
                        self.failed += 1
                    print(f"[perfbench] {spec.label} failed: {exc!r}",
                          file=sys.stderr)
                    continue
                with lock:
                    self.records.append(record)
                    if record["result"] is not None:
                        done.append(spec)

        threads = [threading.Thread(target=client_loop, args=(i,))
                   for i in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.elapsed = time.perf_counter() - start
        self.ops = len(self.records)
        # Equal time slices by completion time: the medians over slices
        # shrug off a burst of host contention inside one slice.
        width = self.elapsed / self.SLICES
        for record in self.records:
            record["slice"] = min(self.SLICES - 1,
                                  int((record["done_at"] - start) / width))
        self.windows = [
            [sum(r["slice"] == k for r in self.records), width]
            for k in range(self.SLICES)
        ]
        self.latencies_ms = [r["latency_ms"] for r in self.records]
        for how in ("cached", "queued", "deduped"):
            kind = [r["latency_ms"] for r in self.records if r["how"] == how]
            self.extra[how] = [len(kind), percentile(kind, 50)]
        self.telemetry = self.client.telemetry()
        self.server_rss = vm_hwm_mb(self.server.pid) or 0.0

    def latency_ms(self, q: float) -> float:
        return statistics.median(
            percentile([r["latency_ms"] for r in self.records
                        if r["slice"] == k], q)
            for k in range(self.SLICES)
        )

    def peak_rss_mb(self) -> float:
        return self.server_rss

    def build_reference(self) -> dict[str, Any]:
        return object_reference(self.grid)

    def check(self, reference: dict[str, Any]) -> None:
        for record in self.records:
            spec = record["spec"]
            problems = []
            if record["result"] is None:
                problems.append("no result delivered")
            else:
                data = result_from_dict(record["result"]).to_dict()
                problems += invariant_errors(data, spec.n_instructions)
                if data != reference.get(spec.label):
                    problems.append("differs from the object kernel")
            if problems:
                self.failed += 1
                self.ops -= 1
                self.windows[record["slice"]][0] -= 1
                print(f"[perfbench] {spec.label}: {'; '.join(problems)}",
                      file=sys.stderr)


def load_or_build_reference(workload: Workload, path: Path) -> dict[str, Any]:
    """The untimed reference, kept on disk per seed and source digest."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        pass
    reference = workload.build_reference()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(reference))
    os.replace(tmp, path)
    return reference
