"""The documented plugin protocol: what a dL1 scheme model must provide.

The scheme registry (:mod:`repro.core.registry`) turns names into
*models* — objects the memory hierarchy drives one demand access at a
time.  This module is the single, frozen definition of that contract,
so external scheme packages can implement it and register themselves
without importing anything from ``repro.core``'s internals:

* :class:`DataL1` is the structural interface every model must satisfy
  (the hierarchy, the experiment runner and the energy model consume
  exactly this surface and nothing more);
* :class:`DL1Outcome` is the value a model returns per access;
* :class:`InjectionTarget` is the *observer* surface — fault injection,
  scrubbing and vulnerability monitoring attach to the object a model
  exposes as ``injection_target`` (the model itself when it owns the
  data array, the inner core cache for wrapper models such as the
  rcache / victim-cache baselines).

Registering an external scheme is three steps (DESIGN.md §10 has the
worked recipe):

1. implement a model satisfying :class:`DataL1` (and, if it should
   support error injection, expose an :class:`InjectionTarget`);
2. wrap it in a factory ``build(**kwargs) -> model``;
3. call :func:`repro.core.registry.register` with a ``SchemeEntry``
   carrying the factory plus a ``SchemeInfo`` metadata record.

After that the scheme is usable everywhere a built-in one is: from
:class:`~repro.harness.spec.ExperimentSpec`, sweeps, figures, Monte
Carlo campaigns, the CLI and the simulation service — all of which
resolve names through the registry and drive models only through this
protocol.

This module deliberately imports nothing from the rest of ``repro`` so
it can be imported from anywhere (including ``repro.cache.hierarchy``)
without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol, runtime_checkable


@dataclass(frozen=True)
class DL1Outcome:
    """What the data L1 did with one demand access."""

    hit: bool
    # Load-hit (or replica-fill) latency; ``None`` means the request must
    # be satisfied by the next level.
    latency: Optional[int]
    replica_fill: bool = False


@runtime_checkable
class DataL1(Protocol):
    """Structural interface of a simulatable dL1 scheme model.

    Attributes
    ----------
    config:
        The model's configuration object.  The experiment runner reads
        ``config.name`` (the reported scheme name), ``config.geometry``
        (a :class:`~repro.cache.set_assoc.CacheGeometry`, priced by the
        energy model) and ``config.track_data`` (whether bit-accurate
        storage backs error injection).
    stats:
        A :class:`~repro.cache.stats.CacheStats`-compatible counter
        object; its ``snapshot()`` becomes ``SimulationResult.dl1``.
    geometry:
        The dL1 geometry (usually ``config.geometry``); the hierarchy
        derives block-offset shifts from it.
    write_policy:
        ``"writeback"`` or ``"writethrough"`` — routes store traffic
        through the write buffer in write-through mode.
    """

    config: object
    stats: object
    geometry: object
    write_policy: str

    def access(self, addr: int, is_write: bool, now: int) -> DL1Outcome:
        """Serve one demand access at cycle *now*; never raises."""
        ...

    def set_evict_hook(self, hook: Callable[..., None]) -> None:
        """Install the hierarchy's eviction callback (dirty writebacks)."""
        ...


@runtime_checkable
class InjectionTarget(Protocol):
    """The observer surface of a model's real data array.

    A model that wraps an inner cache (the rcache / victim-cache
    baselines) exposes the inner array as ``injection_target``; models
    that *are* the array (``ICRCache``) are their own target — callers
    use ``getattr(model, "injection_target", model)``.  Observers
    attach by plain attribute assignment:

    * ``target.injector`` — a fault injector with ``advance(now)``
      (:class:`repro.errors.injector.FaultInjector` assigns itself);
    * ``target.monitor`` — an observer with ``observe(now)``, called at
      the start of every demand access
      (:class:`repro.reliability.vulnerability.VulnerabilityMonitor`);
    * ``target.scrubber`` — a background scrubber with ``advance(now)``
      (:class:`repro.errors.scrubber.Scrubber`).

    All three slots are ``None`` until attached; the model must consult
    them on its demand path when they are set.  The fault injector also
    reaches lines through a per-frame fault surface (``frame_protection``,
    ``frame_stamp``, ``frame_flip``; see :mod:`repro.errors.models`).
    """

    injector: object
    monitor: object
    scrubber: object

    def access(self, addr: int, is_write: bool, now: int) -> DL1Outcome: ...


def check_scheme(scheme, **kwargs) -> list:
    """Conformance-check a scheme model against the plugin protocol.

    *scheme* is a model class/factory (instantiated with ``**kwargs``)
    or an already-built model instance.  Returns a list of
    human-readable violations — empty means the model satisfies
    everything the hierarchy, runner and energy model will ask of it.
    External packages call this from their own test suites before
    registering (it is exported as ``repro.api.check_scheme``), so a
    protocol break fails their CI instead of a user's simulation.

    The checks are behavioural, not just structural: the model is
    actually driven through a store and a load to verify the outcome
    shape, so a model that *has* an ``access`` attribute but returns
    the wrong thing is still caught.
    """
    problems: list = []
    if isinstance(scheme, type) or callable(scheme):
        try:
            model = scheme(**kwargs)
        except Exception as exc:
            return [f"building the model failed: {exc!r}"]
    else:
        model = scheme

    if not isinstance(model, DataL1):
        problems.append(
            "model does not satisfy the DataL1 protocol (needs config, "
            "stats, geometry, write_policy, access, set_evict_hook)"
        )
        return problems

    config = model.config
    name = getattr(config, "name", None)
    if not isinstance(name, str) or not name:
        problems.append("config.name must be a non-empty string")
    geometry = getattr(config, "geometry", None)
    for attr in ("n_sets", "associativity", "block_size", "block_offset_bits"):
        if not isinstance(getattr(geometry, attr, None), int):
            problems.append(f"config.geometry.{attr} must be an int")
    if model.write_policy not in ("writeback", "writethrough"):
        problems.append(
            "write_policy must be 'writeback' or 'writethrough', "
            f"got {model.write_policy!r}"
        )
    snapshot = getattr(model.stats, "snapshot", None)
    if not callable(snapshot):
        problems.append("stats must provide a snapshot() method")
    else:
        try:
            snap = snapshot()
            dict(snap)
        except Exception as exc:
            problems.append(f"stats.snapshot() must yield a mapping: {exc!r}")

    try:
        model.set_evict_hook(lambda *_args, **_kw: None)
    except Exception as exc:
        problems.append(f"set_evict_hook(callable) raised: {exc!r}")

    try:
        for addr, is_write in ((0, True), (0, False), (1 << 16, False)):
            outcome = model.access(addr, is_write, 0)
            if not isinstance(getattr(outcome, "hit", None), bool):
                problems.append("access() outcome needs a bool 'hit'")
                break
            latency = getattr(outcome, "latency", "missing")
            if latency is not None and not isinstance(latency, int):
                problems.append("access() outcome needs int-or-None 'latency'")
                break
            if not hasattr(outcome, "replica_fill"):
                problems.append("access() outcome needs 'replica_fill'")
                break
    except Exception as exc:
        problems.append(f"access() raised on a demand access: {exc!r}")

    target = getattr(model, "injection_target", model)
    if target is not model and not isinstance(target, InjectionTarget):
        problems.append(
            "injection_target must satisfy InjectionTarget "
            "(injector/monitor/scrubber slots + access)"
        )
    return problems


__all__ = ["DL1Outcome", "DataL1", "InjectionTarget", "check_scheme"]
