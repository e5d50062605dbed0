"""Synthetic workload generation.

The paper drives its evaluation with eight SPEC2000 applications on
SimpleScalar.  Neither the binaries nor the simulator's EIO traces are
available here, so the reproduction generates *synthetic* dynamic traces
whose first-order properties — the ones every ICR result depends on — are
controlled per benchmark:

* **locality skew**: a Zipf-distributed hot working set ("hot data items
  are getting automatically replicated", Section 5.2), plus streaming,
  uniform pointer-chasing and stack components;
* **dL1 miss rate** (via working-set sizes and the region mix);
* **instruction mix** (loads/stores/ALU/FP/branches) and register-
  dependence distances (ILP available to hide latencies);
* **branch predictability** (fraction of strongly-biased branch sites);
* **set-pressure imbalance**: hot blocks are concentrated into a fraction
  of the dL1 sets, so their distance-N/2 replicas compete for the
  remaining sets — the effect behind the paper's observation that
  dead-only victim positions "may become less with high replication
  rates" (Section 5.1).

Code is laid out as *segments* (inner loops): execution iterates one
segment many times, then falls through to the next, like real hot loops.
Static sites keep their role across iterations — memory op + region,
branch + bias, filler class — which is what makes the branch predictor,
the BTB and the dead-block predictor behave sensibly.

Everything is seeded and deterministic: the same (profile, length, seed)
always yields the identical trace, so scheme comparisons are paired.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path
from typing import Optional

from repro.cpu.isa import (
    OP_BRANCH,
    OP_FP_ALU,
    OP_FP_MUL,
    OP_INT_ALU,
    OP_INT_MUL,
    OP_LOAD,
    OP_STORE,
    Trace,
)

#: Virtual-address layout of the synthetic process image.
CODE_BASE = 0x0040_0000
# Stack lands in the upper dL1 sets (block index ≡ 48 mod 64), away from
# the hot region's home sets.
STACK_BASE = 0x7FFF_0C00
HOT_BASE = 0x1000_0000
STREAM_BASE = 0x2000_0000
CHASE_BASE = 0x4000_0000

BLOCK = 64  # bytes per cache line
_ZIPF_TABLE = 4096  # size of the precomputed Zipf alias table
_DL1_SETS = 64  # set count of the default 16KB/4-way/64B dL1 layout


@dataclass(frozen=True)
class WorkloadProfile:
    """Tunable characteristics of one synthetic benchmark."""

    name: str
    # Static code shape.
    body_size: int = 1024  # instructions of static code (4*body bytes)
    segment_length: int = 160  # instructions per inner loop
    segment_switch_prob: float = 0.06  # P(leave the loop) per iteration
    mem_fraction: float = 0.38
    store_ratio: float = 0.33  # stores / memory ops
    branch_fraction: float = 0.16
    fp_fraction: float = 0.0  # of the ALU filler, how much is FP
    mul_fraction: float = 0.04  # of the ALU filler, how much is mul/div
    # Data regions: probabilities that a memory site belongs to each.
    p_hot: float = 0.55
    p_stream: float = 0.25
    p_chase: float = 0.0
    p_stack: float = 0.20
    # Region shapes.
    hot_blocks: int = 160
    zipf_s: float = 0.9
    # Hot blocks are concentrated into this fraction of the (64) dL1 sets,
    # modeling the set-pressure imbalance of real data layouts.
    hot_set_fraction: float = 0.6
    # Within the hot span, a fraction of "heavy" sets receives this many
    # times the block density of the others.  Heavy sets overcommit their
    # associativity, so their distance-N/2 replica targets saturate — the
    # paper's "the number of such positions may become less with high
    # replication rates" effect that makes single attempts fail.
    hot_heavy_fraction: float = 0.4
    hot_heavy_weight: int = 3
    # Fraction of hot blocks that are never stored to.  Under the S trigger
    # these can never gain replicas, which is exactly the gap between the
    # S and LS curves of Figures 2 and 7.
    hot_readonly_fraction: float = 0.25
    n_streams: int = 4
    stream_region_blocks: int = 8192
    chase_region_blocks: int = 65536
    stack_blocks: int = 16
    # Program phases: every phase_instructions the hot region shifts to a
    # fresh (set-aligned) copy of itself, forcing refills — the mechanism
    # by which LS re-replicates read-only data that S never can (the
    # Figure 7 gap), and by which dead old-phase lines become replica homes.
    phase_instructions: int = 40_000
    # Branch behaviour: fraction of sites that are strongly biased.
    branch_predictability: float = 0.92
    # Register-dependence distance (geometric parameter; higher = more ILP).
    dep_geometric_p: float = 0.45
    # Probability that the instruction right after a load consumes the
    # loaded value (load-use dependence).  This is what exposes the 1- vs
    # 2-cycle load-hit latency difference between the schemes — with no
    # load-use chains an out-of-order core hides the ECC check entirely.
    load_use_prob: float = 0.65
    # Probability that a load's address depends on the previous load
    # (pointer-style chains).  Chains serialize loads at their hit latency,
    # which is what makes BaseECC's 2-cycle loads cost ~30% (Section 5.2)
    # instead of disappearing into the out-of-order window.
    load_chain_prob: float = 0.75
    seed: int = 0

    def __post_init__(self) -> None:
        total = self.p_hot + self.p_stream + self.p_chase + self.p_stack
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{self.name}: region probabilities sum to {total}")
        if not 0.0 < self.mem_fraction < 1.0:
            raise ValueError("mem_fraction must be in (0, 1)")
        if self.body_size < 16 or self.segment_length < 8:
            raise ValueError("body/segment sizes too small")


@dataclass
class _Site:
    """Static properties of one instruction slot in the code."""

    op: int
    region: str = ""
    stream_id: int = 0
    branch_bias: float = 1.0
    is_loopback: bool = False


def _zipf_alias(n: int, s: float, rng: random.Random) -> list[int]:
    """A table of block ranks sampled from Zipf(s) over ``n`` items."""
    weights = [1.0 / (rank + 1) ** s for rank in range(n)]
    total = sum(weights)
    table: list[int] = []
    acc = 0.0
    rank = 0
    for i in range(_ZIPF_TABLE):
        threshold = (i + 0.5) / _ZIPF_TABLE * total
        while acc + weights[rank] < threshold and rank < n - 1:
            acc += weights[rank]
            rank += 1
        table.append(rank)
    rng.shuffle(table)
    return table


class WorkloadGenerator:
    """Generates :class:`~repro.cpu.isa.Trace` objects from a profile."""

    def __init__(self, profile: WorkloadProfile):
        self.profile = profile
        if profile.body_size % profile.segment_length:
            self.n_segments = profile.body_size // profile.segment_length + 1
        else:
            self.n_segments = profile.body_size // profile.segment_length

    def _build_sites(self, rng: random.Random) -> list[_Site]:
        """Lay out the static code: segments of sites, loopback at each end."""
        p = self.profile
        sites: list[_Site] = []
        for position in range(p.body_size):
            if (position + 1) % p.segment_length == 0 or position == p.body_size - 1:
                # Segment-closing branch: taken = iterate the loop again.
                sites.append(_Site(op=OP_BRANCH, is_loopback=True))
                continue
            roll = rng.random()
            if roll < p.mem_fraction:
                region_roll = rng.random()
                if region_roll < p.p_hot:
                    region = "hot"
                elif region_roll < p.p_hot + p.p_stream:
                    region = "stream"
                elif region_roll < p.p_hot + p.p_stream + p.p_chase:
                    region = "chase"
                else:
                    region = "stack"
                is_store = rng.random() < p.store_ratio
                sites.append(
                    _Site(
                        op=OP_STORE if is_store else OP_LOAD,
                        region=region,
                        stream_id=rng.randrange(p.n_streams),
                    )
                )
            elif roll < p.mem_fraction + p.branch_fraction:
                if rng.random() < p.branch_predictability:
                    bias = 0.97 if rng.random() < 0.8 else 0.03
                else:
                    bias = rng.uniform(0.35, 0.65)
                sites.append(_Site(op=OP_BRANCH, branch_bias=bias))
            else:
                fp = rng.random() < p.fp_fraction
                mul = rng.random() < p.mul_fraction
                if fp:
                    sites.append(_Site(op=OP_FP_MUL if mul else OP_FP_ALU))
                else:
                    sites.append(_Site(op=OP_INT_MUL if mul else OP_INT_ALU))
        return sites

    def generate(self, n_instructions: int, seed_offset: int = 0) -> Trace:
        """Produce a deterministic dynamic trace of *n_instructions*."""
        p = self.profile
        rng = random.Random((p.seed << 16) ^ 0xC0FFEE ^ seed_offset)
        sites = self._build_sites(rng)
        zipf = _zipf_alias(p.hot_blocks, p.zipf_s, rng)
        trace = Trace(name=p.name)

        # Hot-region layout: rank -> block number concentrated into the
        # first hot_set_fraction of dL1 sets, with heavy sets receiving
        # hot_heavy_weight times the density; plus the read-only block map.
        span = max(1, round(_DL1_SETS * p.hot_set_fraction))
        n_heavy = max(0, round(span * p.hot_heavy_fraction))
        set_cycle: list[int] = []
        for s in range(span):
            copies = p.hot_heavy_weight if s < n_heavy else 1
            set_cycle.extend([s] * copies)
        used: dict[int, int] = {}  # set -> blocks assigned so far
        hot_block_of = []
        for rank in range(p.hot_blocks):
            s = set_cycle[rank % len(set_cycle)]
            hot_block_of.append(used.get(s, 0) * _DL1_SETS + s)
            used[s] = used.get(s, 0) + 1
        # Set-aligned stride between phase copies of the hot region.
        phase_stride = (max(hot_block_of) // _DL1_SETS + 2) * _DL1_SETS
        # The hottest few blocks are always read-write (real hot data is);
        # read-only blocks — lookup tables, constants — live in the tail.
        readonly = [
            rank >= 8
            and ((rank * 0x9E3779B1) % (1 << 32)) % 1000
            < p.hot_readonly_fraction * 1000
            for rank in range(p.hot_blocks)
        ]
        writable_ranks = [r for r in range(p.hot_blocks) if not readonly[r]] or [0]
        store_rank_of = [
            min(writable_ranks, key=lambda w: abs(w - rank)) if readonly[rank] else rank
            for rank in range(p.hot_blocks)
        ]

        stream_cursors = [
            rng.randrange(p.stream_region_blocks) * BLOCK for _ in range(p.n_streams)
        ]
        stream_span = p.stream_region_blocks * BLOCK
        recent_dests = [0] * 32
        dest_head = 0
        body = len(sites)
        seg_len = p.segment_length
        switch_prob = p.segment_switch_prob
        randrange = rng.randrange
        rand = rng.random
        dep_p = p.dep_geometric_p

        position = 0  # current static position within the body
        segment_start = 0
        phase_offset = 0
        last_load_dest = 0
        phase_len = max(1, p.phase_instructions)
        for instr_index in range(n_instructions):
            if instr_index % phase_len == 0:
                phase_offset = (instr_index // phase_len) * phase_stride * BLOCK
            site = sites[position]
            pc = CODE_BASE + 4 * position
            op = site.op
            # Register dependences: sources reach back geometrically.
            dist1 = 1
            while rand() > dep_p and dist1 < 24:
                dist1 += 1
            dist2 = 1
            while rand() > dep_p and dist2 < 24:
                dist2 += 1
            src1 = recent_dests[(dest_head - dist1) % 32]
            src2 = recent_dests[(dest_head - dist2) % 32]
            if last_load_dest and rand() < p.load_use_prob:
                src1 = last_load_dest  # load-use dependence
            dest = 1 + randrange(31)

            if op == OP_LOAD or op == OP_STORE:
                region = site.region
                if region == "hot":
                    rank = zipf[randrange(_ZIPF_TABLE)]
                    if op == OP_STORE:
                        rank = store_rank_of[rank]
                    addr = (
                        HOT_BASE
                        + phase_offset
                        + hot_block_of[rank] * BLOCK
                        + randrange(8) * 8
                    )
                elif region == "stream":
                    sid = site.stream_id
                    cursor = stream_cursors[sid]
                    stream_cursors[sid] = (cursor + 8) % stream_span
                    addr = STREAM_BASE + sid * stream_span + cursor
                elif region == "chase":
                    addr = CHASE_BASE + randrange(p.chase_region_blocks) * BLOCK
                    addr += randrange(8) * 8
                else:  # stack
                    addr = STACK_BASE + randrange(p.stack_blocks * 8) * 8
                if op == OP_STORE:
                    trace.append(op, 0, src1, src2, pc, addr)
                else:
                    if last_load_dest and rand() < p.load_chain_prob:
                        src1 = last_load_dest  # address chains off prior load
                    trace.append(op, dest, src1, 0, pc, addr)
                position += 1
            elif op == OP_BRANCH:
                if site.is_loopback:
                    # Taken = iterate this segment again; fall through to
                    # the next segment when the loop "exits".
                    taken = rand() >= switch_prob
                    if taken:
                        target = CODE_BASE + 4 * segment_start
                        trace.append(op, 0, src1, 0, pc, 0, True, target)
                        position = segment_start
                    else:
                        trace.append(op, 0, src1, 0, pc, 0, False, 0)
                        position += 1
                        segment_start = position if position < body else 0
                else:
                    taken = rand() < site.branch_bias
                    trace.append(op, 0, src1, 0, pc, 0, taken, pc + 16)
                    # Direction is modeled for the predictor; control flow
                    # stays on the fall-through path of the segment.
                    position += 1
            else:
                trace.append(op, dest, src1, src2, pc)
                position += 1

            if position >= body:
                position = 0
                segment_start = 0
            recent_dests[dest_head % 32] = dest
            dest_head += 1
            if op == OP_LOAD:
                last_load_dest = dest
            elif dest == last_load_dest:
                last_load_dest = 0  # the loaded value was overwritten
        return trace


@lru_cache(maxsize=1)
def _generator_version() -> str:
    """Digest of the trace-producing sources (this file and the ISA).

    Part of every trace-cache key: editing the generator or the trace
    format invalidates all persisted traces, never serves stale ones.
    """
    from repro.cpu import isa

    digest = hashlib.blake2b(digest_size=8)
    for module_file in (__file__, isa.__file__):
        digest.update(Path(module_file).read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def trace_key(
    profile: WorkloadProfile, n_instructions: int, seed_offset: int = 0
) -> str:
    """Stable content hash for one generated trace.

    Keyed on the full profile parameter set (a digest — renaming a
    profile field or changing any value changes the key), the requested
    length and the seed offset, plus the generator code version.
    """
    payload = repr(
        (
            _generator_version(),
            tuple(
                (f.name, repr(getattr(profile, f.name)))
                for f in fields(profile)
            ),
            n_instructions,
            seed_offset,
        )
    )
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


def trace_cache_dir() -> Optional[Path]:
    """Directory for persisted traces, or ``None`` when disabled.

    ``REPRO_TRACE_CACHE=0`` disables persistence; ``REPRO_TRACE_CACHE_DIR``
    relocates it; otherwise traces live beside the result cache
    (``$REPRO_CACHE_DIR/traces`` or ``~/.cache/repro/traces``).
    """
    if os.environ.get("REPRO_TRACE_CACHE", "") == "0":
        return None
    explicit = os.environ.get("REPRO_TRACE_CACHE_DIR")
    if explicit:
        return Path(explicit).expanduser()
    base = os.environ.get("REPRO_CACHE_DIR")
    if base:
        return Path(base).expanduser() / "traces"
    return Path.home() / ".cache" / "repro" / "traces"


def _load_persisted(path: Path) -> Optional[Trace]:
    from repro.workloads.trace_io import load_trace

    try:
        return load_trace(path)
    except FileNotFoundError:
        return None
    except (OSError, ValueError):
        # Corrupt or truncated: drop it and regenerate.
        try:
            path.unlink()
        except OSError:
            pass
        return None


def _persist(trace: Trace, path: Path) -> None:
    from repro.workloads.trace_io import save_trace

    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        save_trace(trace, tmp)
        os.replace(tmp, path)
    except OSError:
        # A read-only or full cache dir never fails the run.
        try:
            tmp.unlink()
        except OSError:
            pass


@lru_cache(maxsize=64)
def trace_for(
    profile: WorkloadProfile, n_instructions: int, seed_offset: int = 0
) -> Trace:
    """Memoized trace generation — scheme sweeps reuse the identical trace.

    Two layers: an in-process LRU (the profile is a frozen dataclass, so
    it is hashable) makes scheme comparisons *paired* within one process,
    and an on-disk store (ICRT files under :func:`trace_cache_dir`, keyed
    by :func:`trace_key`) shares each generated trace across the worker
    processes of a sweep and across runs.  The binary round-trip is exact,
    so a loaded trace is equal-by-value to a freshly generated one.
    """
    directory = trace_cache_dir()
    if directory is None:
        return WorkloadGenerator(profile).generate(n_instructions, seed_offset)
    path = directory / f"{trace_key(profile, n_instructions, seed_offset)}.icrt"
    trace = _load_persisted(path)
    if trace is None:
        trace = WorkloadGenerator(profile).generate(n_instructions, seed_offset)
        _persist(trace, path)
    return trace
