"""Timing-coupled specs on the batched engine: lockstep phase 2.

A decay window > 0 makes the dead-block predicate read cycle numbers, a
fault injector draws its strikes in cycles, and a write-through dL1
feeds write-buffer stalls back into store latency.  The batched engine
runs all three by handing phase 1 each memory op's issue cycle from a
resumable scoreboard.  These tests pin that widened tier to the object
reference: the decay sweep, write-through configurations, faults under
both, the warm-up boundary, and the stamps themselves.
"""

import dataclasses

import pytest

from repro.cache.hierarchy import MemoryHierarchy
from repro.core import _native, array_kernel
from repro.core.array_kernel import backend_mode
from repro.core.config import VictimPolicy, variant
from repro.core.icr_cache import ICRCache
from repro.core.registry import registered_schemes, scheme_info
from repro.core.schemes import make_config
from repro.cpu.isa import OP_LOAD, OP_STORE
from repro.energy import accounting
from repro.errors.models import MODELS
from repro.harness import experiment
from repro.harness.experiment import run_experiment
from repro.harness.spec import ExperimentSpec
from repro.workloads.generator import trace_for
from repro.workloads.spec2000 import profile_for
from tests.differential.test_equivalence_matrix import N, TRACES

#: Every registered scheme that takes the ICR knobs (decay, victims).
KNOB_SCHEMES = [s for s in registered_schemes() if scheme_info(s).accepts_icr_knobs]

#: Section 5.4's relaxed ICR knobs.
RELAXED_VICTIMS = {"victim_policy": VictimPolicy.DEAD_FIRST}
RELAXED = {"decay_window": 1000, **RELAXED_VICTIMS}

#: A replicating scheme on a write-through dL1 with relaxed decay: both
#: timing couplings at once.
WT_DECAY = variant(make_config("ICR-P-PS(LS)", **RELAXED), write_policy="writethrough")

#: Silent stores skip the dL1 write but still go through the write buffer.
WT_SILENT = variant(make_config("BaseECC-SW"), write_policy="writethrough")

#: Fault injection at a Fig. 14 rate (the spec turns ``track_data`` on).
FAULTS = {"error_rate": 1e-2, "error_seed": 7}

#: Leave-in-place replicas at distance 0 share their primary's home set,
#: so a leftover replica can become the LRU victim of its own refill and
#: be promoted in place, keeping the ``_last`` its replica updates wrote.
PROMOTE_IN_PLACE = {
    "leave_replicas_on_evict": True,
    "replica_distances": (0,),
    "victim_policy": VictimPolicy.DEAD_FIRST,
}


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


def _final_frames(monkeypatch, spec):
    """Per-frame ``(valid, tag, replica, dirty, LRU stamp, last access)``
    of the dL1 a run of *spec* leaves behind, on either kernel."""
    built = []
    for cls in (array_kernel.ArrayDL1, ICRCache):

        def recording(self, config, _init=cls.__init__):
            _init(self, config)
            built.append(self)

        monkeypatch.setattr(cls, "__init__", recording)
    run_experiment(spec)
    monkeypatch.undo()
    (dl1,) = built
    if isinstance(dl1, ICRCache):
        return [
            (b.valid, b.block_addr, b.is_replica, b.dirty, b.lru_stamp,
             b.last_access_cycle)
            for ways in dl1.sets
            for b in ways
        ]
    return list(
        zip(dl1._valid, dl1._tag, dl1._is_rep, dl1._dirty, dl1._lru, dl1._last)
    )


@pytest.mark.parametrize("bench,trace_seed", TRACES)
@pytest.mark.parametrize("window", [250, 1000, 10_000])
def test_replicas_promoted_in_place_under_decay(
    monkeypatch, window, bench, trace_seed
):
    """Results and the final frames agree, decay stamps of replicas too.

    A replica's last access is read only once a leftover replica is
    promoted in place, and then only when a store updated it at a later
    stamp than the promoting access; the end state shows every one.
    """
    spec = ExperimentSpec(
        bench,
        "ICR-P-PS(S)",
        n_instructions=N,
        trace_seed=trace_seed,
        backend="array",
        scheme_kwargs={**PROMOTE_IN_PLACE, "decay_window": window},
    )
    _assert_identical(spec)
    frames = _final_frames(monkeypatch, spec)
    assert any(valid and replica for valid, _, replica, *_ in frames)
    assert frames == _final_frames(monkeypatch, spec.replace(backend="object"))


@pytest.mark.parametrize("bench,trace_seed", TRACES)
@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("window", [250, 10_000])
@pytest.mark.parametrize("scheme", ["ICR-P-PS(S)", "ICR-ECC-PS(S)"])
def test_faults_under_decay_bit_identical(scheme, window, model, bench, trace_seed):
    spec = ExperimentSpec(
        bench,
        scheme,
        n_instructions=N,
        trace_seed=trace_seed,
        backend="array",
        error_model=model,
        scheme_kwargs={"decay_window": window, **RELAXED_VICTIMS},
        **FAULTS,
    )
    _assert_identical(spec)


@pytest.mark.parametrize("bench,trace_seed", TRACES)
@pytest.mark.parametrize("model", ["random", "burst"])
@pytest.mark.parametrize(
    "scheme",
    [
        "BaseP-WT",
        variant(WT_DECAY, track_data=True),
        variant(WT_SILENT, track_data=True),
    ],
    ids=["BaseP-WT", "icr", "silent"],
)
def test_faults_under_write_through_bit_identical(scheme, model, bench, trace_seed):
    spec = ExperimentSpec(
        bench,
        scheme,
        n_instructions=N,
        trace_seed=trace_seed,
        backend="array",
        error_model=model,
        **FAULTS,
    )
    _assert_identical(spec)


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
    "scheme,knobs,faults",
    [
        ("ICR-P-PS(S)", RELAXED, {}),
        ("BaseP-WT", {}, {}),
        ("ICR-ECC-PS(S)", {}, FAULTS),
        ("BaseP-WT", {}, FAULTS),
    ],
    ids=["decay", "write-through", "faults", "faults-write-through"],
)
def test_warmup_window_bit_identical(monkeypatch, scheme, knobs, faults):
    """The stats reset lands on the same instruction, WT counters and the
    strikes counted past the boundary too."""
    warmup = 3_000
    spec = ExperimentSpec(
        "gzip",
        scheme,
        n_instructions=N,
        warmup_instructions=warmup,
        backend="array",
        scheme_kwargs=knobs,
        **faults,
    )
    assert backend_mode(spec) == "array-batched"
    result, stats = _hierarchy_stats(monkeypatch, spec)
    reference, reference_stats = _hierarchy_stats(
        monkeypatch, spec.replace(backend="object")
    )
    assert result == reference
    assert stats == reference_stats
    if faults:
        assert 0 < stats["l1d"]["errors_injected"] == result["dl1"]["errors_injected"]
    if scheme == "BaseP-WT":
        # Every store past the boundary, and only those, reached L2
        # through the write buffer.
        trace = trace_for(profile_for("gzip"), N + warmup, seed_offset=0)
        assert stats["l2"]["stores"] == trace.op[warmup:].count(OP_STORE)
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


@pytest.mark.parametrize(
    "extra",
    [{"scheme_kwargs": {"decay_window": 1000}}, FAULTS],
    ids=["decay", "faults"],
)
def test_stamps_match_object_pipeline(monkeypatch, extra):
    """A decay or fault spec stamps every memory op with the object
    pipeline's now."""
    spec = ExperimentSpec(
        "vpr", "ICR-ECC-PS(S)", n_instructions=N, trace_seed=3, backend="array", **extra
    )
    trace = trace_for(profile_for("vpr"), N, seed_offset=3)
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
