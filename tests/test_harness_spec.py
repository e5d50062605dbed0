"""Tests for the ExperimentSpec API and the SimulationResult round-trip.

The load-bearing properties:

* a spec built from the legacy keyword vocabulary
  (:meth:`ExperimentSpec.from_kwargs`) is the same value, with the same
  cache key, as one built field by field;
* ``SimulationResult.to_dict`` / ``from_dict`` is a lossless JSON-safe
  round-trip — it is the one serialization used by the result cache,
  campaign checkpoints and JSONL trial logs.
"""

import json

import pytest

from repro.harness.experiment import SimulationResult, run_experiment
from repro.harness.spec import ExperimentSpec

N = 4_000


class TestSpecConstruction:
    def test_scheme_kwargs_canonicalized(self):
        a = ExperimentSpec(
            "gzip", "ICR-P-PS(S)",
            scheme_kwargs={"decay_window": 1000, "replicate_into_invalid": True},
        )
        b = ExperimentSpec(
            "gzip", "ICR-P-PS(S)",
            scheme_kwargs=(
                ("replicate_into_invalid", True), ("decay_window", 1000),
            ),
        )
        assert a == b
        assert hash(a) == hash(b)

    def test_list_values_frozen_hashable(self):
        spec = ExperimentSpec(
            "gzip", "ICR-P-PS(S)", scheme_kwargs={"distances": [1, 2, 4]}
        )
        assert dict(spec.scheme_kwargs)["distances"] == (1, 2, 4)
        hash(spec)  # must not raise

    def test_from_kwargs_splits_fields(self):
        spec = ExperimentSpec.from_kwargs(
            "gzip", "ICR-P-PS(S)", n_instructions=N, decay_window=1000
        )
        assert spec.n_instructions == N
        assert dict(spec.scheme_kwargs) == {"decay_window": 1000}

    def test_replace_and_with_seed(self):
        spec = ExperimentSpec("gzip", "BaseP")
        assert spec.with_seed(99).error_seed == 99
        assert spec.with_seed(99).replace(error_seed=spec.error_seed) == spec

    def test_label_and_names(self):
        spec = ExperimentSpec("gzip", "ICR-P-PS(S)")
        assert spec.benchmark_name == "gzip"
        assert spec.scheme_name == "ICR-P-PS(S)"
        assert spec.label == "gzip/ICR-P-PS(S)"


class TestCacheKeyIdentity:
    def test_explicit_defaults_do_not_change_the_key(self):
        bare = ExperimentSpec("gzip", "BaseP", n_instructions=N)
        explicit = ExperimentSpec.from_kwargs(
            "gzip", "BaseP",
            n_instructions=N, error_rate=0.0, error_seed=12345, trace_seed=0,
        )
        assert explicit.key() == bare.key()

    def test_different_seeds_different_keys(self):
        spec = ExperimentSpec("gzip", "BaseP", error_rate=0.01)
        assert spec.key() != spec.with_seed(7).key()


class TestRunExperimentForms:
    def test_from_kwargs_form_identical(self):
        spec = ExperimentSpec("gzip", "ICR-P-PS(S)", n_instructions=N)
        via_spec = run_experiment(spec)
        via_kwargs = run_experiment(
            ExperimentSpec.from_kwargs("gzip", "ICR-P-PS(S)", n_instructions=N)
        )
        assert via_spec == via_kwargs

    def test_keyword_form_removed(self):
        # The deprecated run_experiment(benchmark, scheme, **kwargs)
        # shim is gone: a spec is the sole entry point.
        with pytest.raises(TypeError):
            run_experiment("gzip", "BaseP", n_instructions=N)
        with pytest.raises(TypeError, match="ExperimentSpec"):
            run_experiment("gzip")


class TestResultRoundTrip:
    def _round_trip(self, result):
        payload = json.loads(json.dumps(result.to_dict()))
        return SimulationResult.from_dict(payload)

    def test_plain_run(self):
        result = run_experiment(ExperimentSpec("gzip", "BaseP", n_instructions=N))
        assert self._round_trip(result) == result

    def test_full_payload_run(self):
        # Exercise the optional fields: vulnerability report + iL1 stats.
        spec = ExperimentSpec(
            "gzip", "ICR-P-PS(S)",
            n_instructions=N,
            error_rate=0.01,
            icache_error_rate=0.001,
            measure_vulnerability=True,
        )
        result = run_experiment(spec)
        assert result.vulnerability is not None
        assert result.l1i is not None
        back = self._round_trip(result)
        assert back == result
        assert back.vulnerability == result.vulnerability
        assert back.l1i == result.l1i

    def test_unknown_format_rejected(self):
        result = run_experiment(ExperimentSpec("gzip", "BaseP", n_instructions=N))
        payload = result.to_dict()
        payload["format"] = 999
        with pytest.raises(ValueError, match="format"):
            SimulationResult.from_dict(payload)


class TestWireEnumHardening:
    """The spec wire form is untrusted input (the job server feeds it
    straight off the network), so the ``__enum__`` tag must reject
    anything that is not an enum type inside this package — it is not a
    generic import-and-call gadget."""

    def _payload(self, tag, value):
        base = ExperimentSpec("gzip", "ICR-P-PS(S)").to_dict()
        base["scheme_kwargs"] = {"victim_policy": {"__enum__": tag, "value": value}}
        return base

    def test_module_outside_package_rejected(self):
        payload = self._payload("os:system", "true")
        with pytest.raises(ValueError, match="outside"):
            ExperimentSpec.from_dict(payload)

    def test_package_prefix_spoof_rejected(self):
        payload = self._payload("reprox.evil:Thing", 1)
        with pytest.raises(ValueError, match="outside"):
            ExperimentSpec.from_dict(payload)

    def test_non_enum_target_rejected(self):
        payload = self._payload("repro.harness.spec:ExperimentSpec", "x")
        with pytest.raises(ValueError, match="not an enum"):
            ExperimentSpec.from_dict(payload)

    def test_unresolvable_target_rejected(self):
        payload = self._payload("repro.harness.spec:NoSuchThing", 1)
        with pytest.raises(ValueError, match="does not resolve"):
            ExperimentSpec.from_dict(payload)

    def test_malformed_tag_rejected(self):
        payload = self._payload("no-colon-here", 1)
        with pytest.raises(ValueError, match="malformed"):
            ExperimentSpec.from_dict(payload)
