"""Timing-coupled specs on the batched engine: lockstep phase 2.

A decay window > 0 makes the dead-block predicate read cycle numbers,
and a write-through dL1 feeds write-buffer stalls back into store
latency.  The batched engine runs both by handing phase 1 each memory
op's issue cycle from a resumable scoreboard.  These tests pin that
widened tier to the object reference: the decay sweep, write-through
configurations, the warm-up boundary, and the stamps themselves.
"""

import dataclasses

import pytest

from repro.cache.hierarchy import MemoryHierarchy
from repro.core import _native, array_kernel
from repro.core.array_kernel import backend_mode
from repro.core.config import VictimPolicy, variant
from repro.core.registry import registered_schemes, scheme_info
from repro.core.schemes import make_config
from repro.cpu.isa import OP_LOAD, OP_STORE
from repro.energy import accounting
from repro.harness import experiment
from repro.harness.experiment import run_experiment
from repro.harness.spec import ExperimentSpec
from repro.workloads.generator import trace_for
from repro.workloads.spec2000 import profile_for
from tests.differential.test_equivalence_matrix import N, TRACES

#: Every registered scheme that takes the ICR knobs (decay, victims).
KNOB_SCHEMES = [s for s in registered_schemes() if scheme_info(s).accepts_icr_knobs]

#: Section 5.4's relaxed ICR knobs.
RELAXED = {"decay_window": 1000, "victim_policy": VictimPolicy.DEAD_FIRST}

#: A replicating scheme on a write-through dL1 with relaxed decay: both
#: timing couplings at once.
WT_DECAY = variant(make_config("ICR-P-PS(LS)", **RELAXED), write_policy="writethrough")

#: Silent stores skip the dL1 write but still go through the write buffer.
WT_SILENT = variant(make_config("BaseECC-SW"), write_policy="writethrough")


def _assert_identical(spec):
    assert backend_mode(spec) == "array-batched"
    reference = run_experiment(spec.replace(backend="object")).to_dict()
    assert run_experiment(spec).to_dict() == reference


@pytest.mark.parametrize("bench,trace_seed", TRACES)
@pytest.mark.parametrize("policy", [VictimPolicy.DEAD_FIRST, VictimPolicy.DEAD_ONLY])
@pytest.mark.parametrize("window", [250, 1000, 10_000])
@pytest.mark.parametrize("scheme", KNOB_SCHEMES)
def test_decay_windows_bit_identical(scheme, window, policy, bench, trace_seed):
    _assert_identical(
        ExperimentSpec(
            bench,
            scheme,
            n_instructions=N,
            trace_seed=trace_seed,
            backend="array",
            scheme_kwargs={"decay_window": window, "victim_policy": policy},
        )
    )


@pytest.mark.parametrize("bench,trace_seed", TRACES)
@pytest.mark.parametrize(
    "scheme", ["BaseP-WT", WT_DECAY, WT_SILENT], ids=["BaseP-WT", "icr", "silent"]
)
def test_write_through_bit_identical(scheme, bench, trace_seed):
    _assert_identical(
        ExperimentSpec(
            bench, scheme, n_instructions=N, trace_seed=trace_seed, backend="array"
        )
    )


def _hierarchy_stats(monkeypatch, spec):
    """The result plus the HierarchyStats each kernel prices energy from."""
    seen = []

    def recording(energy_of):
        def wrapper(stats, *args, **kwargs):
            seen.append(dataclasses.asdict(stats))
            return energy_of(stats, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(accounting, "energy_of", recording(accounting.energy_of))
    monkeypatch.setattr(experiment, "energy_of", recording(experiment.energy_of))
    result = run_experiment(spec).to_dict()
    return result, seen.pop()


@pytest.mark.parametrize(
    "scheme,knobs",
    [("ICR-P-PS(S)", RELAXED), ("BaseP-WT", {})],
    ids=["decay", "write-through"],
)
def test_warmup_window_bit_identical(monkeypatch, scheme, knobs):
    """The stats reset lands on the same instruction, WT counters too."""
    warmup = 3_000
    spec = ExperimentSpec(
        "gzip",
        scheme,
        n_instructions=N,
        warmup_instructions=warmup,
        backend="array",
        scheme_kwargs=knobs,
    )
    assert backend_mode(spec) == "array-batched"
    result, stats = _hierarchy_stats(monkeypatch, spec)
    reference, reference_stats = _hierarchy_stats(
        monkeypatch, spec.replace(backend="object")
    )
    assert result == reference
    assert stats == reference_stats
    if scheme == "BaseP-WT":
        # Every store past the boundary, and only those, reached L2
        # through the write buffer.
        trace = trace_for(profile_for("gzip"), N + warmup)
        assert stats["l2_store_writes"] == trace.op[warmup:].count(OP_STORE)
        assert stats["write_buffer_stall_cycles"] == result["write_buffer_stalls"]
        assert result["write_buffer_stalls"] > 0


def _object_stamps(monkeypatch, spec):
    """The ``now`` the object pipeline passes to each load and store."""
    stamps = {"load": [], "store": []}
    for kind in stamps:
        method = getattr(MemoryHierarchy, kind)

        def wrapper(self, addr, now, _method=method, _seen=stamps[kind]):
            _seen.append(now)
            return _method(self, addr, now)

        monkeypatch.setattr(MemoryHierarchy, kind, wrapper)
    run_experiment(spec.replace(backend="object"))
    monkeypatch.undo()
    return stamps


def _batched_stamps(monkeypatch, spec):
    """The issue cycles the lockstep scoreboard hands phase 1."""
    stamps = []

    def recording(factory):
        def make(*args):
            step = factory(*args)
            if step is None:
                return None

            def recorded(stop):
                cycle = step(stop)
                stamps.append(cycle)
                return cycle

            return recorded

        return make

    monkeypatch.setattr(_native, "scoreboard", recording(_native.scoreboard))
    monkeypatch.setattr(
        array_kernel, "_phase2_python", recording(array_kernel._phase2_python)
    )
    run_experiment(spec)
    monkeypatch.undo()
    return stamps[:-1]  # the last step runs to the end: the cycle count


def test_stamps_match_object_pipeline(monkeypatch):
    """A decay spec stamps every memory op with the object pipeline's now."""
    spec = ExperimentSpec(
        "vpr",
        "ICR-ECC-PS(S)",
        n_instructions=N,
        trace_seed=3,
        backend="array",
        scheme_kwargs={"decay_window": 1000},
    )
    trace = trace_for(profile_for("vpr"), N, 3)
    expected = _object_stamps(monkeypatch, spec)
    loads, stores = iter(expected["load"]), iter(expected["store"])
    in_order = [
        next(stores) if op == OP_STORE else next(loads)
        for op in trace.op
        if op in (OP_LOAD, OP_STORE)
    ]
    stamps = _batched_stamps(monkeypatch, spec)
    assert len(stamps) == len(in_order) > 0
    assert stamps == in_order


def test_write_through_stamps_stores_only(monkeypatch):
    """A write-through spec at decay 0 asks for store stamps alone."""
    spec = ExperimentSpec("mcf", "BaseP-WT", n_instructions=N, backend="array")
    expected = _object_stamps(monkeypatch, spec)["store"]
    assert _batched_stamps(monkeypatch, spec) == expected
