"""The backend knob is part of every result's identity.

Results computed by different kernels must never be conflated, even
though they are bit-identical by contract: the backend participates in
the spec cache key and the campaign digest, so a cache entry or a
checkpoint written under one backend is invisible to the other.  And
when both backends *do* run the same campaign, the final reports are
byte-for-byte equal.  At the CLI, the default backend (array) prints
exactly what the object oracle prints.
"""

from repro.cli import main
from repro.harness.cache import ResultCache
from repro.harness.campaign import CampaignConfig, CampaignEngine
from repro.harness.experiment import run_experiment
from repro.harness.runner import ParallelRunner
from repro.harness.spec import ExperimentSpec


def _spec(backend):
    return ExperimentSpec(
        "gzip", "ICR-P-PS(S)", n_instructions=5_000, backend=backend
    )


def test_backend_in_spec_key():
    assert _spec("object").key() != _spec("array").key()


def test_mixed_backend_cache_hit_impossible(tmp_path):
    """A result stored under one backend never satisfies the other."""
    cache = ResultCache(cache_dir=tmp_path)
    spec_obj, spec_arr = _spec("object"), _spec("array")
    cache.put(spec_obj.key(), run_experiment(spec_obj))
    assert cache.get(spec_obj.key()) is not None
    assert cache.get(spec_arr.key()) is None


def _campaign_config(backend):
    return CampaignConfig(
        benchmarks=("gzip",),
        schemes=("ICR-P-PS(S)",),
        error_rates=(0.0,),
        trials=4,
        batch_size=2,
        n_instructions=5_000,
        backend=backend,
    )


def test_backend_in_campaign_digest():
    assert _campaign_config("object").digest() != (
        _campaign_config("array").digest()
    )


def test_checkpoint_not_resumed_across_backends(tmp_path):
    """An object-backend checkpoint is stale to an array-backend engine."""
    checkpoint = tmp_path / "campaign.json"
    runner = ParallelRunner(jobs=1, cache=None)
    engine = CampaignEngine(
        _campaign_config("object"), runner, checkpoint_path=checkpoint
    )
    engine.run(max_trials=2)
    assert checkpoint.exists()

    resumed_same = CampaignEngine(
        _campaign_config("object"), runner, checkpoint_path=checkpoint
    )
    assert resumed_same.resumed

    resumed_other = CampaignEngine(
        _campaign_config("array"), runner, checkpoint_path=checkpoint
    )
    assert not resumed_other.resumed


def test_resumed_array_campaign_matches_uninterrupted(tmp_path):
    """Interrupt + resume changes nothing about the final report."""
    runner = ParallelRunner(jobs=1, cache=None)
    config = _campaign_config("array")
    full = CampaignEngine(config, runner).run().to_json()

    checkpoint = tmp_path / "campaign.json"
    CampaignEngine(config, runner, checkpoint_path=checkpoint).run(
        max_trials=2
    )
    resumed = CampaignEngine(config, runner, checkpoint_path=checkpoint)
    assert resumed.resumed
    assert resumed.run().to_json() == full


def test_campaign_reports_byte_identical_across_backends():
    """Fault-free campaigns agree to the last byte (modulo the digest).

    The two reports differ *only* in the embedded campaign digest —
    which exists precisely to keep their artifacts apart.
    """
    runner = ParallelRunner(jobs=1, cache=None)
    reports = {}
    for backend in ("object", "array"):
        engine = CampaignEngine(_campaign_config(backend), runner)
        reports[backend] = engine.run().to_json()
    obj = reports["object"].replace(_campaign_config("object").digest(), "X")
    arr = reports["array"].replace(_campaign_config("array").digest(), "X")
    assert obj == arr


def _cli_stdout(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def test_cli_compare_default_matches_object_oracle(capsys):
    argv = ["compare", "gzip", "--instructions", "3000", "--no-cache"]
    default = _cli_stdout(capsys, argv)
    oracle = _cli_stdout(capsys, argv + ["--backend", "object"])
    assert "BaseP" in default
    assert default == oracle


def test_cli_campaign_default_matches_object_oracle(capsys):
    argv = [
        "campaign", "--benchmark", "gzip",
        "--schemes", "BaseP,ICR-P-PS(S)",
        "--trials", "2", "--batch-size", "2", "--instructions", "3000",
        "--no-checkpoint", "--no-cache",
    ]
    default = _cli_stdout(capsys, argv)
    oracle = _cli_stdout(capsys, argv + ["--backend", "object"])
    assert "ICR-P-PS(S)" in default
    assert default == oracle
