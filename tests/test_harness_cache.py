"""Tests for the content-addressed result cache."""

import json

import pytest

from repro.harness.cache import (
    ReadThroughCache,
    ResultCache,
    UncacheableJobError,
    code_version,
    result_from_dict,
    result_to_dict,
)
from repro.harness.experiment import MachineConfig, run_experiment
from repro.harness.runner import ParallelRunner
from repro.harness.spec import ExperimentSpec
from repro.workloads.spec2000 import profile_for

N = 4_000


class TestResultRoundTrip:
    def test_plain_result(self):
        result = run_experiment(
            ExperimentSpec.from_kwargs("gzip", "ICR-P-PS(S)", n_instructions=N)
        )
        restored = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert restored == result
        assert restored.cpi == result.cpi  # derived properties survive too

    def test_error_injection_result(self):
        result = run_experiment(ExperimentSpec.from_kwargs(
            "vortex", "BaseP", n_instructions=N, error_rate=0.01, error_seed=9
        ))
        restored = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert restored == result
        assert restored.dl1["errors_injected"] == result.dl1["errors_injected"]

    def test_vulnerability_report_survives(self):
        result = run_experiment(ExperimentSpec.from_kwargs(
            "gzip", "BaseP", n_instructions=N, measure_vulnerability=True
        ))
        restored = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert restored.vulnerability == result.vulnerability
        assert (
            restored.vulnerability.vulnerable_fraction
            == result.vulnerability.vulnerable_fraction
        )

    def test_icache_counters_survive(self):
        result = run_experiment(ExperimentSpec.from_kwargs(
            "gzip", "BaseP", n_instructions=N, icache_error_rate=1e-3
        ))
        restored = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert restored.l1i == result.l1i

    def test_unknown_format_rejected(self):
        result = run_experiment(
            ExperimentSpec.from_kwargs("gzip", "BaseP", n_instructions=N)
        )
        data = result_to_dict(result)
        data["format"] = 999
        with pytest.raises(ValueError):
            result_from_dict(data)


class TestSpecKey:
    def _key(self, benchmark="gzip", scheme="ICR-P-PS(S)", **kwargs):
        kwargs.setdefault("n_instructions", N)
        return ExperimentSpec.from_kwargs(benchmark, scheme, **kwargs).key()

    def test_stable_across_calls(self):
        assert self._key() == self._key()

    def test_sensitive_to_scheme(self):
        assert self._key(scheme="BaseP") != self._key()

    def test_sensitive_to_scheme_kwargs(self):
        assert self._key(decay_window=1000) != self._key()
        assert self._key(replica_distances=("N/4",)) != self._key()

    def test_sensitive_to_trace_seed(self):
        assert self._key(trace_seed=1) != self._key()

    def test_sensitive_to_instruction_count(self):
        assert self._key(n_instructions=N + 1) != self._key()

    def test_sensitive_to_error_parameters(self):
        base = self._key()
        assert self._key(error_rate=0.01) != base
        assert self._key(error_rate=0.01, error_seed=1) != self._key(
            error_rate=0.01
        )
        assert self._key(error_rate=0.01, error_model="column") != self._key(
            error_rate=0.01
        )

    def test_explicit_defaults_share_the_omitted_key(self):
        # A spec with error_rate=0.0 spelled out and one without it are
        # the same simulation, so they must share one cache entry.
        explicit = self._key(
            error_rate=0.0,
            error_model="random",
            error_seed=12345,
            trace_seed=0,
            warmup_instructions=0,
            machine=None,
        )
        assert explicit == self._key()
        assert self._key(machine=MachineConfig()) == self._key()

    def test_profile_object_matches_benchmark_name(self):
        assert self._key(profile_for("gzip"), "BaseP") == self._key(
            "gzip", "BaseP"
        )

    def test_alias_spelling_matches_canonical_name(self):
        assert self._key(scheme="icr-p-ps (s)") == self._key()

    def test_code_version_is_a_stable_digest(self):
        version = code_version()
        assert len(version) == 16
        assert version == code_version()
        int(version, 16)  # hex digest

    def test_unrepresentable_values_rejected(self):
        with pytest.raises(UncacheableJobError):
            self._key("gzip", "BaseP", victim_picker=lambda b: b)
        with pytest.raises(UncacheableJobError):
            self._key("gzip", "BaseP", weight=float("nan"))


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = ExperimentSpec("gzip", "BaseP", n_instructions=N)
        result = run_experiment(spec)
        key = spec.key()
        cache.put(key, result)
        assert cache.get(key) == result
        assert cache.hits == 1 and cache.stores == 1

    def test_missing_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 32) is None
        assert cache.misses == 1

    def test_corrupted_entry_recomputes_not_crashes(self, tmp_path):
        runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        spec = ExperimentSpec("gzip", "BaseP", n_instructions=N)
        expected = runner.run([spec])[0]

        # Truncate the entry on disk, then rebuild through a new runner:
        # the corrupt file must be treated as a miss and replaced.
        path = ResultCache(tmp_path).path_for(spec.key())
        assert path.exists()
        path.write_text('{"format": 1, "benchmark": "gz')

        fresh = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        recomputed = fresh.run([spec])[0]
        assert recomputed == expected
        assert fresh.cache.corrupt == 1
        assert fresh.stats.simulated == 1
        # The rebuilt entry is valid again.
        assert ResultCache(tmp_path).get(spec.key()) == expected

    def test_disabled_cache_is_a_no_op(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=False)
        result = run_experiment(
            ExperimentSpec.from_kwargs("gzip", "BaseP", n_instructions=N)
        )
        cache.put("ab" * 16, result)
        assert cache.get("ab" * 16) is None
        assert list(tmp_path.iterdir()) == []

    def test_env_var_sets_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "from-env"))
        cache = ResultCache()
        assert cache.cache_dir == tmp_path / "from-env"

    def test_entries_are_sharded_by_key_prefix(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 30
        assert cache.path_for(key).parent.name == "ab"


class TestNoCacheBypass:
    def test_runner_without_cache_never_touches_disk(self, tmp_path):
        runner = ParallelRunner(jobs=1, cache=None)
        runner.run([ExperimentSpec("gzip", "BaseP", n_instructions=N)])
        assert list(tmp_path.iterdir()) == []
        assert runner.stats.simulated == 1

    def test_uncacheable_jobs_still_run(self, tmp_path, monkeypatch):
        # A spec with no stable key must execute normally, bypassing both
        # memo and disk, and be counted in the uncacheable stat.
        def no_key(self):
            raise UncacheableJobError("no stable key")

        monkeypatch.setattr(ExperimentSpec, "key", no_key)
        runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        results = runner.run([ExperimentSpec("gzip", "BaseP", n_instructions=N)])
        assert results[0].scheme == "BaseP"
        assert runner.stats.uncacheable == 1
        assert runner.stats.simulated == 1
        assert list(tmp_path.iterdir()) == []


class TestReadThroughCache:
    """The in-memory LRU tier the simulation service serves from."""

    def _result(self, n=N):
        return run_experiment(
            ExperimentSpec("gzip", "BaseP", n_instructions=n)
        )

    def test_read_through_populates_memory_tier(self, tmp_path):
        backing = ResultCache(tmp_path)
        result = self._result()
        backing.put("ab" * 16, result)
        store = ReadThroughCache(backing)
        assert not store.contains_in_memory("ab" * 16)
        first = store.get("ab" * 16)  # disk -> memory
        assert first.to_dict() == result.to_dict()
        assert store.contains_in_memory("ab" * 16)
        stats = store.stats()
        assert stats["backing_hits"] == 1
        assert stats["memory_hits"] == 0
        second = store.get("ab" * 16)  # now a pure memory hit
        assert second is first
        assert store.stats()["memory_hits"] == 1

    def test_put_writes_through_to_backing(self, tmp_path):
        backing = ResultCache(tmp_path)
        store = ReadThroughCache(backing)
        result = self._result()
        store.put("cd" * 16, result)
        assert backing.get("cd" * 16) is not None

    def test_warm_is_memory_only(self, tmp_path):
        backing = ResultCache(tmp_path)
        store = ReadThroughCache(backing)
        store.warm("ef" * 16, self._result())
        assert store.contains_in_memory("ef" * 16)
        assert backing.get("ef" * 16) is None

    def test_miss_everywhere_is_none(self, tmp_path):
        store = ReadThroughCache(ResultCache(tmp_path))
        assert store.get("99" * 16) is None
        assert ReadThroughCache(None).get("99" * 16) is None

    def test_lru_eviction_per_shard(self):
        store = ReadThroughCache(None, shards=1, capacity_per_shard=2)
        result = self._result()
        store.warm("aaaa", result)
        store.warm("bbbb", result)
        store.get("aaaa")  # make "bbbb" the LRU entry
        store.warm("cccc", result)  # evicts "bbbb"
        assert store.contains_in_memory("aaaa")
        assert not store.contains_in_memory("bbbb")
        assert store.contains_in_memory("cccc")
        assert store.stats()["evictions"] == 1

    def test_keys_spread_across_shards(self):
        store = ReadThroughCache(None, shards=4, capacity_per_shard=8)
        result = self._result()
        for i in range(16):
            store.warm(f"{i:04x}{'0' * 28}", result)
        occupied = [
            s for s in store.stats()["per_shard"] if s["entries"] > 0
        ]
        assert len(occupied) > 1

    def test_stats_hit_rate(self):
        store = ReadThroughCache(None, shards=1, capacity_per_shard=4)
        store.warm("aaaa", self._result())
        store.get("aaaa")
        store.get("ffff")
        stats = store.stats()
        assert stats["memory_hits"] == 1
        assert stats["memory_misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_rejects_degenerate_geometry(self):
        with pytest.raises(ValueError):
            ReadThroughCache(None, shards=0)
        with pytest.raises(ValueError):
            ReadThroughCache(None, capacity_per_shard=0)
