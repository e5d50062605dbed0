"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep CLI tests out of the user's real ~/.cache/repro."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gzip" in out and "mcf" in out
        assert "ICR-P-PS(S)" in out
        assert "fig14" in out


class TestRun:
    def test_basic_run(self, capsys):
        assert main(["run", "gzip", "BaseP", "--instructions", "5000"]) == 0
        out = capsys.readouterr().out
        assert "BaseP on gzip" in out
        assert "miss rate" in out

    def test_scheme_knobs(self, capsys):
        code = main(
            [
                "run", "gzip", "ICR-P-PS(S)",
                "--instructions", "5000",
                "--decay-window", "1000",
                "--victim", "dead-first",
                "--leave-replicas",
            ]
        )
        assert code == 0
        assert "loads w/ replica" in capsys.readouterr().out

    def test_error_injection_output(self, capsys):
        main(
            [
                "run", "vortex", "BaseP",
                "--instructions", "10000",
                "--error-rate", "1e-2",
            ]
        )
        out = capsys.readouterr().out
        assert "injected" in out

    def test_vulnerability_output(self, capsys):
        main(["run", "gzip", "BaseP", "--instructions", "5000", "--vulnerability"])
        assert "AVF" in capsys.readouterr().out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nosuch", "BaseP"])


class TestCompare:
    def test_table_has_all_schemes(self, capsys):
        assert main(["compare", "gzip", "--instructions", "5000"]) == 0
        out = capsys.readouterr().out
        for scheme in ("BaseP", "BaseECC", "ICR-ECC-PP(LS)"):
            assert scheme in out

    def test_relaxed_flag(self, capsys):
        assert main(["compare", "gzip", "--instructions", "5000", "--relaxed"]) == 0


class TestFigure:
    def test_runs_a_figure(self, capsys):
        assert main(["figure", "fig10", "--instructions", "8000"]) == 0
        out = capsys.readouterr().out
        assert "decay window" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestRunnerFlags:
    """--jobs / --no-cache / --cache-dir on run, compare and figure."""

    def test_jobs1_run_stays_in_process(self, capsys, monkeypatch):
        import repro.harness.runner as runner_mod

        monkeypatch.setattr(
            runner_mod,
            "ProcessPoolExecutor",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("pool used")),
        )
        code = main(
            ["run", "gzip", "BaseP", "--instructions", "5000", "--jobs", "1"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "BaseP on gzip" in captured.out
        assert "[runner]" in captured.err

    def test_run_reports_metrics_on_stderr_only(self, capsys):
        main(["run", "gzip", "BaseP", "--instructions", "5000", "--no-cache"])
        captured = capsys.readouterr()
        assert "[runner]" not in captured.out
        assert "1 jobs" in captured.err

    def test_figure_repeat_hits_cache_with_identical_stdout(
        self, capsys, tmp_path
    ):
        argv = [
            "figure", "fig10",
            "--instructions", "5000",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "cache hits" in second.err
        assert "0 simulated" in second.err

    def test_no_cache_leaves_cache_dir_empty(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        main(
            [
                "run", "gzip", "BaseP",
                "--instructions", "5000",
                "--no-cache",
                "--cache-dir", str(cache_dir),
            ]
        )
        assert not cache_dir.exists()

    def test_compare_parallel_matches_serial(self, capsys):
        base = ["compare", "gzip", "--instructions", "5000", "--no-cache"]
        assert main(base + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial


class TestUnknownSchemeExitCode:
    """Unknown schemes exit 2 uniformly, with the registry's catalog."""

    def test_run_unknown_scheme_exits_2(self, capsys):
        assert main(["run", "gzip", "no-such-scheme"]) == 2
        err = capsys.readouterr().err
        assert "no-such-scheme" in err
        assert "ICR-P-PS(S)" in err  # the catalog is listed

    def test_campaign_unknown_scheme_exits_2(self, capsys):
        code = main(
            ["campaign", "--benchmark", "gzip", "--schemes", "no-such-scheme"]
        )
        assert code == 2
        assert "registered schemes" in capsys.readouterr().err

    def test_campaign_share_dir_flag_removed(self, capsys, tmp_path):
        # Campaigns run on one host; the cooperation flag is gone.
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "campaign",
                    "--benchmark",
                    "gzip",
                    "--schemes",
                    "BaseP",
                    "--share-dir",
                    str(tmp_path),
                ]
            )
        assert exc.value.code == 2
        assert "--share-dir" in capsys.readouterr().err

    def test_submit_unknown_scheme_exits_2_before_connecting(self, capsys):
        # The spec is validated locally, so this needs no server.
        code = main(
            ["submit", "gzip", "no-such-scheme", "--port", "1"]
        )
        assert code == 2
        assert "no-such-scheme" in capsys.readouterr().err


class TestServiceCommands:
    def test_submit_unreachable_server_exits_1(self, capsys):
        code = main(
            ["submit", "gzip", "BaseP", "--port", "9", "--no-wait"]
        )
        assert code == 1
        assert "cannot reach server" in capsys.readouterr().err

    def test_status_unreachable_server_exits_1(self, capsys):
        assert main(["status", "--port", "9"]) == 1
        assert "cannot reach server" in capsys.readouterr().err

    def test_submit_and_status_against_live_server(self, tmp_path, capsys):
        from repro.service import ServiceConfig, ServiceThread

        config = ServiceConfig(
            port=0, workers=1, queue_dir=tmp_path / "queue"
        )
        with ServiceThread(config) as st:
            port = str(st.port)
            code = main(
                [
                    "submit", "gzip", "BaseP",
                    "--instructions", "5000", "--port", port,
                ]
            )
            captured = capsys.readouterr()
            assert code == 0
            assert "BaseP on gzip" in captured.out
            assert main(["status", "--port", port]) == 0
            captured = capsys.readouterr()
            assert "experiment  done" in captured.out
            assert "1 submissions" in captured.err
