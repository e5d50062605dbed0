"""The experiment specification: one frozen value = one simulation.

Historically :func:`repro.harness.experiment.run_experiment` grew a long
keyword tail (error rate, error model, seeds, scrubbing, warm-up, iL1
injection, plus free-form scheme kwargs).  :class:`ExperimentSpec`
replaces that sprawl with a single frozen dataclass:

* every run parameter is a field with the same default the keyword form
  used, so a spec built with no arguments reproduces a bare
  ``run_experiment(benchmark, scheme)`` call bit-for-bit;
* free-form scheme kwargs (``decay_window``, ``victim_policy``, ...) are
  normalized into a sorted tuple of ``(name, value)`` pairs, making two
  specs that mean the same run compare (and hash) equal;
* :meth:`ExperimentSpec.key` is the content-addressed cache key, the
  one the :class:`~repro.harness.runner.ParallelRunner` looks results up
  by, so campaign trials, sweeps and ad-hoc runs all share one cache
  identity;
* :meth:`ExperimentSpec.replace` derives variants (a new ``error_seed``
  per Monte Carlo trial, a new ``trace_seed`` per statistics run)
  without mutating anything.

``run_experiment(spec)`` is the sole entry point (the deprecated
keyword shim has been removed); :meth:`ExperimentSpec.from_kwargs`
builds a spec from the legacy keyword vocabulary.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Union

from repro.cache.hierarchy import HierarchyConfig
from repro.cache.set_assoc import CacheGeometry
from repro.core.config import ICRConfig
from repro.core.registry import normalize_scheme_name
from repro.cpu.pipeline import PipelineConfig
from repro.workloads.generator import WorkloadProfile
from repro.workloads.spec2000 import profile_for

#: Default trace length.  The paper runs 500M instructions on SimpleScalar;
#: a pure-Python model uses shorter traces, long past dL1 warm-up (the
#: convergence test in tests/test_integration_convergence.py verifies the
#: metrics are stable at this scale).
DEFAULT_INSTRUCTIONS = 200_000


@dataclass(frozen=True)
class MachineConfig:
    """The full Table 1 machine around the dL1 under study."""

    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    parity_fraction: float = 0.15
    ecc_fraction: float = 0.30


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one :func:`run_experiment` call depends on.

    *benchmark* is a benchmark name or a full
    :class:`~repro.workloads.generator.WorkloadProfile`; *scheme* is a
    scheme name (see :mod:`repro.core.schemes`) or a prebuilt
    :class:`~repro.core.config.ICRConfig`.  *scheme_kwargs* holds the
    extra keyword arguments forwarded to
    :func:`repro.core.schemes.make_config` when *scheme* is a name; pass
    a mapping — it is canonicalized to a sorted tuple of pairs.
    """

    benchmark: Union[str, WorkloadProfile]
    scheme: Union[str, ICRConfig]
    n_instructions: int = DEFAULT_INSTRUCTIONS
    machine: Optional[MachineConfig] = None
    error_rate: float = 0.0
    error_model: str = "random"
    error_seed: int = 12345
    measure_vulnerability: bool = False
    scrub_period: Optional[int] = None
    trace_seed: int = 0
    warmup_instructions: int = 0
    icache_error_rate: float = 0.0
    #: Simulation kernel: "array" (the default: the batched engine of
    #: repro.core.array_kernel for every spec with a plain iL1, the
    #: object pipeline elsewhere — see
    #: :func:`~repro.core.array_kernel.backend_mode`) or "object" (the
    #: CacheBlock-based reference implementation, the differential
    #: oracle).  Both give bit-identical results.  Participates in
    #: :meth:`key`, so results from different backends never share a
    #: cache entry.
    backend: str = "array"
    scheme_kwargs: tuple = ()

    def __post_init__(self):
        if self.backend not in ("object", "array"):
            raise ValueError(
                f"unknown backend {self.backend!r}; choose 'object' or 'array'"
            )
        if isinstance(self.scheme, str):
            # Canonicalize through the registry: every accepted spelling
            # of a scheme shares one spec (and one cache key), and typos
            # fail here with the list of registered schemes instead of
            # deep inside a worker.
            object.__setattr__(
                self, "scheme", normalize_scheme_name(self.scheme)
            )
        kwargs = self.scheme_kwargs
        if isinstance(kwargs, Mapping):
            items = kwargs.items()
        else:
            items = tuple(kwargs)
        normalized = tuple(sorted((str(k), _freeze(v)) for k, v in items))
        object.__setattr__(self, "scheme_kwargs", normalized)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_kwargs(
        cls,
        benchmark: Union[str, WorkloadProfile],
        scheme: Union[str, ICRConfig],
        **kwargs: Any,
    ) -> "ExperimentSpec":
        """Build a spec from the legacy ``run_experiment`` keyword form.

        Keywords matching a spec field set that field; everything else is
        collected into :attr:`scheme_kwargs`.
        """
        known = {}
        scheme_kwargs = {}
        for name, value in kwargs.items():
            if name in _SPEC_FIELDS:
                known[name] = value
            else:
                scheme_kwargs[name] = value
        return cls(benchmark, scheme, scheme_kwargs=scheme_kwargs, **known)

    def replace(self, **changes: Any) -> "ExperimentSpec":
        """A copy of this spec with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def with_seed(self, error_seed: int) -> "ExperimentSpec":
        """The same experiment under a different fault-injection seed."""
        return self.replace(error_seed=error_seed)

    def with_backend(self, backend: str) -> "ExperimentSpec":
        """The same experiment on a different simulation kernel.

        ``with_backend("object")`` is the spec's reference-oracle twin.
        The backend participates in :meth:`key`, so the twin is a
        distinct cache identity.
        """
        return self.replace(backend=backend)

    # -- views ------------------------------------------------------------

    @property
    def benchmark_name(self) -> str:
        return (
            self.benchmark
            if isinstance(self.benchmark, str)
            else self.benchmark.name
        )

    @property
    def scheme_name(self) -> str:
        return self.scheme if isinstance(self.scheme, str) else self.scheme.name

    @property
    def label(self) -> str:
        return f"{self.benchmark_name}/{self.scheme_name}"

    def key(self) -> str:
        """Content-addressed cache key (see :mod:`repro.harness.cache`).

        The hash covers the resolved workload profile, the scheme and
        every run field with the scheme kwargs flattened in, an omitted
        machine read as ``MachineConfig()``, plus the format and code
        versions.  Raises
        :class:`~repro.harness.cache.UncacheableJobError` when a value
        has no stable representation.
        """
        from repro.harness import cache

        profile = (
            profile_for(self.benchmark)
            if isinstance(self.benchmark, str)
            else self.benchmark
        )
        run: dict[str, Any] = {
            name: getattr(self, name) for name in _SPEC_FIELDS
        }
        run.update(self.scheme_kwargs)
        if run["machine"] is None:
            run["machine"] = MachineConfig()
        payload = {
            "format": cache.CACHE_FORMAT,
            "code": cache.code_version(),
            "profile": cache._canonical(profile),
            "scheme": cache._canonical(self.scheme),
            "kwargs": cache._canonical(run),
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()

    # -- wire form ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe wire form; the simulation service's submission payload.

        Round-trips exactly: ``ExperimentSpec.from_dict(spec.to_dict())``
        equals *spec* and shares its :meth:`key` — the property that
        makes a spec submitted over HTTP the same cache identity as one
        run locally.  *scheme* must be a registered name (prebuilt
        :class:`~repro.core.config.ICRConfig` objects have no stable
        wire form); *benchmark* may be a name or a full
        :class:`~repro.workloads.generator.WorkloadProfile`.  Raises
        :class:`ValueError` for specs that cannot be represented.
        """
        if not isinstance(self.scheme, str):
            raise ValueError(
                "only named schemes are wire-serializable; got a prebuilt "
                f"{type(self.scheme).__name__}"
            )
        out: dict[str, Any] = {
            "format": SPEC_WIRE_FORMAT,
            "benchmark": (
                self.benchmark
                if isinstance(self.benchmark, str)
                else {"__profile__": dataclasses.asdict(self.benchmark)}
            ),
            "scheme": self.scheme,
            "scheme_kwargs": {
                name: _wire_value(value) for name, value in self.scheme_kwargs
            },
        }
        for name in _SPEC_FIELDS:
            value = getattr(self, name)
            if name == "machine":
                value = _machine_to_dict(value) if value is not None else None
            out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict` (raises :class:`ValueError` on bad input)."""
        if data.get("format") != SPEC_WIRE_FORMAT:
            raise ValueError(f"unsupported spec format {data.get('format')!r}")
        benchmark = data["benchmark"]
        if isinstance(benchmark, dict):
            benchmark = WorkloadProfile(**benchmark["__profile__"])
        known: dict[str, Any] = {}
        for name in _SPEC_FIELDS:
            if name not in data:
                continue
            value = data[name]
            if name == "machine" and value is not None:
                value = _machine_from_dict(value)
            known[name] = value
        scheme_kwargs = {
            name: _unwire_value(value)
            for name, value in dict(data.get("scheme_kwargs", {})).items()
        }
        return cls(
            benchmark, data["scheme"], scheme_kwargs=scheme_kwargs, **known
        )


def _freeze(value: Any) -> Any:
    """Recursively turn lists into tuples so spec fields stay hashable."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


#: Version tag of the spec wire form (:meth:`ExperimentSpec.to_dict`).
SPEC_WIRE_FORMAT = 1


def _wire_value(value: Any) -> Any:
    """JSON-safe form of one scheme kwarg (raises ValueError otherwise).

    Enums are tagged with their import path so :func:`_unwire_value`
    reconstructs the *same* object — a spec built with
    ``victim_policy=VictimPolicy.DEAD_FIRST`` and its wire round-trip
    hash to one cache key.
    """
    if isinstance(value, enum.Enum):
        cls = type(value)
        return {
            "__enum__": f"{cls.__module__}:{cls.__qualname__}",
            "value": value.value,
        }
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_wire_value(v) for v in value]
    raise ValueError(
        f"scheme kwarg of type {type(value).__name__} is not wire-serializable"
    )


def _unwire_value(value: Any) -> Any:
    """Inverse of :func:`_wire_value`.

    Wire payloads are untrusted (the job server feeds them straight off
    the network), so the ``__enum__`` tag is *not* a free import-and-call
    gadget: the path must resolve inside this package and to an actual
    :class:`enum.Enum` subclass, or the payload is rejected.
    """
    if isinstance(value, dict):
        path = value.get("__enum__")
        if not isinstance(path, str) or ":" not in path:
            raise ValueError(f"malformed wire value {value!r}")
        module_name, _, qualname = path.partition(":")
        root = __name__.partition(".")[0]
        if module_name != root and not module_name.startswith(root + "."):
            raise ValueError(
                f"wire enum {path!r} is outside the {root!r} package"
            )
        try:
            obj: Any = importlib.import_module(module_name)
            for part in qualname.split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError):
            raise ValueError(f"wire enum {path!r} does not resolve") from None
        if not (isinstance(obj, type) and issubclass(obj, enum.Enum)):
            raise ValueError(f"wire enum {path!r} is not an enum type")
        return obj(value["value"])
    if isinstance(value, list):
        return [_unwire_value(v) for v in value]
    return value


def _machine_to_dict(machine: MachineConfig) -> dict[str, Any]:
    """Wire form of a full machine (all leaves are plain scalars)."""
    if machine.pipeline.fu_specs is not None:
        raise ValueError("custom fu_specs are not wire-serializable")
    return dataclasses.asdict(machine)


def _machine_from_dict(data: Mapping[str, Any]) -> MachineConfig:
    hierarchy = dict(data["hierarchy"])
    for geom in ("l1i_geometry", "l2_geometry"):
        hierarchy[geom] = CacheGeometry(**hierarchy[geom])
    return MachineConfig(
        hierarchy=HierarchyConfig(**hierarchy),
        pipeline=PipelineConfig(**data["pipeline"]),
        parity_fraction=data["parity_fraction"],
        ecc_fraction=data["ecc_fraction"],
    )


#: Run-parameter fields of the spec (everything except the identity pair
#: and the free-form scheme kwargs).
_SPEC_FIELDS: tuple[str, ...] = tuple(
    f.name
    for f in dataclasses.fields(ExperimentSpec)
    if f.name not in ("benchmark", "scheme", "scheme_kwargs")
)
