"""The ``repro.schemes`` entry-point group: external scheme discovery.

External distributions advertise schemes via ``importlib.metadata``
entry points; these tests fake the metadata layer (no installation
needed) and pin the three accepted shapes — a ``SchemeEntry`` object, a
registration callable, a module import — plus the failure contract: a
broken plugin warns and is skipped, and unknown-name errors advertise
the group.
"""

import dataclasses
import importlib.metadata

import pytest

from repro.coding.protection import ProtectionKind
from repro.core import registry
from repro.core.registry import (
    ENTRY_POINT_GROUP,
    SchemeEntry,
    SchemeInfo,
    UnknownSchemeError,
    load_entry_point_schemes,
    normalize_scheme_name,
    registered_schemes,
)


class _FakeEntryPoint:
    """Just enough of importlib.metadata.EntryPoint: name + load()."""

    def __init__(self, name, obj=None, error=None):
        self.name = name
        self._obj = obj
        self._error = error

    def load(self):
        if self._error is not None:
            raise self._error
        return self._obj


def _tiny_entry(name: str) -> SchemeEntry:
    from repro.core.icr_cache import ICRCache
    from repro.core.schemes import make_config

    info = SchemeInfo(
        name=name,
        kind="base",
        description="external test scheme",
        protection=ProtectionKind.PARITY,
        load_hit_latency=1,
        aliases=(name.lower() + "-alias",),
    )

    def build(**kwargs):
        config = dataclasses.replace(
            make_config("BaseP", **kwargs), name=name
        )
        return ICRCache(config)

    return SchemeEntry(info=info, build=build)


@pytest.fixture
def fake_entry_points(monkeypatch):
    """Install fake entry points; scrub any registrations afterwards."""
    installed: list[_FakeEntryPoint] = []

    def entry_points(*, group=None):
        return list(installed) if group == ENTRY_POINT_GROUP else []

    monkeypatch.setattr(importlib.metadata, "entry_points", entry_points)
    before = set(registered_schemes())
    yield installed
    for name in [n for n in registered_schemes() if n not in before]:
        entry = registry._REGISTRY.pop(name)
        for spelling in (name,) + entry.info.aliases:
            registry._LOOKUP.pop(registry._squash(spelling), None)


class TestLoading:
    def test_scheme_entry_object_registered_directly(self, fake_entry_points):
        fake_entry_points.append(
            _FakeEntryPoint("ext", _tiny_entry("Ext-Scheme"))
        )
        added = load_entry_point_schemes(force=True)
        assert added == ("Ext-Scheme",)
        assert normalize_scheme_name("ext-scheme-alias") == "Ext-Scheme"

    def test_registration_callable_invoked(self, fake_entry_points):
        def install():
            registry.register(_tiny_entry("Ext-Callable"))

        fake_entry_points.append(_FakeEntryPoint("ext", install))
        assert "Ext-Callable" in load_entry_point_schemes(force=True)

    def test_loaded_scheme_simulates_end_to_end(self, fake_entry_points):
        fake_entry_points.append(
            _FakeEntryPoint("ext", _tiny_entry("Ext-Runs"))
        )
        load_entry_point_schemes(force=True)
        from repro.harness.experiment import run_experiment
        from repro.harness.spec import ExperimentSpec

        result = run_experiment(
            ExperimentSpec("gzip", "Ext-Runs", n_instructions=5000)
        )
        assert result.scheme == "Ext-Runs"
        assert result.dl1["loads"] > 0

    def test_external_scheme_runs_on_the_batched_tier(self, fake_entry_points):
        # The tier resolver and the executed dispatch are one function:
        # an external scheme reports the batched tier it runs on (its
        # model goes through the engine's demand lane), so a default
        # (array-backend) campaign over it completes.
        fake_entry_points.append(
            _FakeEntryPoint("ext", _tiny_entry("Ext-Campaign"))
        )
        load_entry_point_schemes(force=True)
        from repro.core.array_kernel import backend_mode
        from repro.harness.campaign import CampaignConfig, CampaignEngine
        from repro.harness.runner import ParallelRunner
        from repro.harness.spec import ExperimentSpec

        spec = ExperimentSpec(
            "gzip", "Ext-Campaign", n_instructions=3000, backend="array"
        )
        assert backend_mode(spec) == "array-batched"
        config = CampaignConfig(
            benchmarks=("gzip",),
            schemes=("Ext-Campaign",),
            error_rates=(1e-2,),
            trials=2,
            batch_size=2,
            n_instructions=3000,
            backend="array",
        )
        engine = CampaignEngine(config, ParallelRunner(jobs=1, cache=None))
        report = engine.run()
        assert report.complete
        (outcome,) = report.outcomes
        assert len(outcome.ok_records()) == 2

    def test_loads_at_most_once_unless_forced(self, fake_entry_points):
        fake_entry_points.append(
            _FakeEntryPoint("ext", _tiny_entry("Ext-Once"))
        )
        load_entry_point_schemes(force=True)
        fake_entry_points.append(
            _FakeEntryPoint("late", _tiny_entry("Ext-Late"))
        )
        assert load_entry_point_schemes() == ()  # already loaded
        assert "Ext-Late" in load_entry_point_schemes(force=True)


class TestFailureContract:
    def test_broken_plugin_warns_and_is_skipped(self, fake_entry_points):
        fake_entry_points.append(
            _FakeEntryPoint("broken", error=ImportError("no such module"))
        )
        fake_entry_points.append(
            _FakeEntryPoint("good", _tiny_entry("Ext-Good"))
        )
        with pytest.warns(RuntimeWarning, match="broken"):
            added = load_entry_point_schemes(force=True)
        assert "Ext-Good" in added

    def test_unknown_scheme_error_mentions_the_group(self):
        with pytest.raises(UnknownSchemeError, match="repro.schemes"):
            normalize_scheme_name("definitely-not-a-scheme")

    def test_resolution_retries_after_loading_plugins(
        self, fake_entry_points, monkeypatch
    ):
        monkeypatch.setattr(registry, "_entry_points_loaded", False)
        fake_entry_points.append(
            _FakeEntryPoint("ext", _tiny_entry("Ext-Lazy"))
        )
        # Never explicitly loaded: the failed lookup triggers the load.
        assert normalize_scheme_name("ext-lazy") == "Ext-Lazy"
