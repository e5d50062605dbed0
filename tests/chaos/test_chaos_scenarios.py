"""The blocking chaos suite: every local scenario must pass.

Each scenario injects one fault family from the fault model (DESIGN.md
§15) into the real execution stack and demands (a) the recovery ledger
prove the fault actually fired and (b) the final campaign report be
byte-identical to an undisturbed reference run.  The scenarios live in
:mod:`repro.chaos.scenarios`; this module is the CI gate around them.

The service-restart scenario (subprocess kill + resume) runs in its own
module, :mod:`tests.chaos.test_service_restart_chaos`, because it is an
order of magnitude slower than the in-process ones.
"""

import json

import pytest

from repro.chaos import runtime
from repro.chaos.plan import FAULT_KINDS, FaultPlan
from repro.chaos.scenarios import SCENARIOS, run_scenario, run_suite
from repro.cli import main

#: Everything except the slow subprocess scenario.
LOCAL_SCENARIOS = [name for name in SCENARIOS if name != "service-restart"]


@pytest.fixture(autouse=True)
def _clean_runtime():
    """Never leak an installed plan between tests (env + cache)."""
    runtime.uninstall()
    yield
    runtime.uninstall()


class TestScenarios:
    @pytest.mark.parametrize("name", LOCAL_SCENARIOS)
    def test_scenario_passes(self, name, tmp_path):
        result = run_scenario(name, workdir=tmp_path, seed=0)
        assert result.passed, f"{name}: {result.detail}"
        assert result.duration >= 0.0

    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_suite(["no-such-scenario"], workdir=tmp_path)

    def test_registry_covers_fault_model(self):
        # One scenario per fault family, plus the service restart
        # (a protocol fault, not a plan kind).
        assert set(SCENARIOS) == {
            "cache-corruption",
            "worker-crash",
            "forced-timeout",
            "torn-checkpoint",
            "disk-full",
            "service-restart",
        }


class TestChaosCommand:
    def test_list_names_every_scenario(self, capsys):
        assert main(["chaos", "--list"]) == 0
        names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert names == list(SCENARIOS)

    def test_removed_lease_scenario_exits_2(self, capsys, tmp_path):
        # Campaigns run on one host, so there is no lease to take over.
        code = main(
            ["chaos", "--scenario", "lease-takeover", "--workdir", str(tmp_path)]
        )
        assert code == 2
        assert "lease-takeover" in capsys.readouterr().err


class TestFaultPlan:
    def test_decide_is_deterministic(self):
        plan = FaultPlan(seed=7, kill_rate=0.5)
        again = FaultPlan(seed=7, kill_rate=0.5)
        keys = [f"trial-{i}" for i in range(200)]
        assert [plan.decide("kill", k) for k in keys] == [
            again.decide("kill", k) for k in keys
        ]

    def test_seed_changes_decisions(self):
        a = FaultPlan(seed=1, kill_rate=0.5)
        b = FaultPlan(seed=2, kill_rate=0.5)
        keys = [f"trial-{i}" for i in range(200)]
        assert [a.decide("kill", k) for k in keys] != [
            b.decide("kill", k) for k in keys
        ]

    def test_rate_extremes(self):
        always = FaultPlan(seed=0, timeout_rate=1.0)
        never = FaultPlan(seed=0, timeout_rate=0.0)
        for i in range(50):
            assert always.decide("timeout", f"k{i}")
            assert not never.decide("timeout", f"k{i}")

    def test_rate_roughly_honored(self):
        plan = FaultPlan(seed=3, corrupt_rate=0.25)
        hits = sum(plan.decide("corrupt", f"k{i}") for i in range(2000))
        assert 350 < hits < 650  # ~500 expected; hash, not luck

    def test_json_round_trip(self):
        plan = FaultPlan(seed=9, kill_rate=0.1, disk_full_rate=0.9)
        clone = FaultPlan.from_json(plan.to_json())
        assert clone == plan
        assert json.loads(plan.to_json())["seed"] == 9

    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ValueError):
            FaultPlan(seed=0, kill_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(seed=0, corrupt_rate=-0.1)

    def test_unknown_kind_rejected(self):
        plan = FaultPlan(seed=0)
        with pytest.raises(ValueError):
            plan.decide("meteor-strike", "key")

    def test_kind_registry_matches_plan_fields(self):
        plan = FaultPlan(seed=0)
        for kind in FAULT_KINDS:
            assert plan.decide(kind, "key") in (False, True)


class TestRuntime:
    def test_inactive_hooks_are_noops(self, tmp_path):
        assert runtime.active() is None
        assert runtime.check_trial("k") is None
        assert not runtime.damage_cache_entry("k", tmp_path / "x")
        runtime.check_disk_full("cache", "k")  # must not raise
        assert not runtime.tear_checkpoint("k")
        assert runtime.summary() is None

    def test_fault_fires_exactly_once(self, tmp_path):
        runtime.install(FaultPlan(seed=0, timeout_rate=1.0), tmp_path)
        assert runtime.check_trial("trial-A") == "timeout"
        # The retry of the same site must sail through — this is the
        # crux of the byte-identical-report contract.
        assert runtime.check_trial("trial-A") is None
        assert runtime.check_trial("trial-B") == "timeout"
        assert runtime.fired()["timeout"] == 2

    def test_kill_wins_over_timeout(self, tmp_path):
        runtime.install(
            FaultPlan(seed=0, kill_rate=1.0, timeout_rate=1.0), tmp_path
        )
        assert runtime.check_trial("trial-A") == "kill"

    def test_plan_adopted_from_environment(self, tmp_path, monkeypatch):
        plan = FaultPlan(seed=5, corrupt_rate=1.0)
        monkeypatch.setenv(runtime.ENV_PLAN, plan.to_json())
        monkeypatch.setenv(runtime.ENV_SCRATCH, str(tmp_path))
        runtime._STATE.clear()  # simulate a fresh pool worker
        adopted = runtime.active()
        assert adopted == plan

    def test_disk_full_raises_enospc_once(self, tmp_path):
        runtime.install(FaultPlan(seed=0, disk_full_rate=1.0), tmp_path)
        with pytest.raises(OSError) as excinfo:
            runtime.check_disk_full("cache", "key-1")
        assert excinfo.value.errno == 28
        runtime.check_disk_full("cache", "key-1")  # spent: no raise
        with pytest.raises(OSError):
            runtime.check_disk_full("checkpoint", "key-1")  # new site

    def test_damage_truncates_and_corrupts(self, tmp_path):
        runtime.install(
            FaultPlan(seed=0, truncate_rate=1.0, corrupt_rate=1.0), tmp_path
        )
        victim = tmp_path / "entry.json"
        victim.write_text('{"ok": true}')
        assert runtime.damage_cache_entry("k", victim)
        assert victim.read_text() == ""  # truncate wins first
        victim.write_text('{"ok": true}')
        assert runtime.damage_cache_entry("k", victim)
        assert victim.read_bytes().startswith(b"\x00garbage\x00")
