"""Writers clean up their temp file when the write itself fails.

Every persistent writer is temp file + ``os.replace``.  A disk that
fills up partway through the write (a real ``ENOSPC``, not the chaos
hook, which fires before the temp file exists) must cost only the
write: the run goes on, the writer's recovery counter moves where it
has one, and no ``*.tmp.*`` file is left behind to pile up.
"""

import errno
import pathlib

from repro import recovery
from repro.harness.cache import ResultCache
from repro.harness.campaign import CampaignConfig, CampaignEngine
from repro.harness.experiment import run_experiment
from repro.harness.runner import ParallelRunner
from repro.harness.spec import ExperimentSpec
from repro.workloads import generator, trace_io


def _enospc():
    return OSError(errno.ENOSPC, "No space left on device")


def _half_write_text(self, text, *args, **kwargs):
    """``Path.write_text`` on a disk that fills up halfway through."""
    with open(self, "w") as fh:
        fh.write(text[: len(text) // 2])
    raise _enospc()


def test_result_cache_put_removes_temp_file(tmp_path, monkeypatch):
    result = run_experiment(ExperimentSpec("gzip", "BaseP", n_instructions=2_000))
    cache = ResultCache(tmp_path)
    before = recovery.counter("cache_write_errors")
    monkeypatch.setattr(pathlib.Path, "write_text", _half_write_text)
    cache.put("ab" * 16, result)
    monkeypatch.undo()
    assert recovery.counter("cache_write_errors") == before + 1
    assert cache.stores == 0
    assert list(tmp_path.rglob("*.tmp.*")) == []
    assert cache.get("ab" * 16) is None


def test_checkpoint_write_removes_temp_file(tmp_path, monkeypatch):
    config = CampaignConfig(
        benchmarks=("gzip",),
        schemes=("BaseP",),
        error_rates=(1e-2,),
        trials=2,
        batch_size=2,
        n_instructions=2_000,
    )
    checkpoint = tmp_path / "campaign.json"
    engine = CampaignEngine(
        config, ParallelRunner(jobs=1), checkpoint_path=checkpoint
    )
    before = recovery.counter("checkpoint_write_errors")
    monkeypatch.setattr(pathlib.Path, "write_text", _half_write_text)
    report = engine.run()
    monkeypatch.undo()
    assert report.complete
    assert recovery.counter("checkpoint_write_errors") > before
    assert engine.checkpoint_writes == 0
    assert not checkpoint.exists()
    assert list(tmp_path.rglob("*.tmp.*")) == []


def test_trace_persist_removes_temp_file(tmp_path, monkeypatch):
    trace = generator.WorkloadGenerator(
        generator.WorkloadProfile(name="tiny")
    ).generate(500)

    def half_save(trace, path):
        with open(path, "wb") as fh:
            fh.write(b"ICRT")
        raise _enospc()

    monkeypatch.setattr(trace_io, "save_trace", half_save)
    path = tmp_path / "traces" / "tiny.icrt"
    generator._persist(trace, path)
    assert not path.exists()
    assert list(tmp_path.rglob("*.tmp.*")) == []
