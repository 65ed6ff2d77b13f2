"""Integration tests for the ``tels`` command line."""

import pytest

from repro.cli import main


@pytest.fixture
def blif_file(tmp_path):
    path = tmp_path / "cmb.blif"
    assert main(["bench", "cmb", "-o", str(path)]) == 0
    return path


class TestCommands:
    def test_stats(self, blif_file, capsys):
        assert main(["stats", str(blif_file)]) == 0
        out = capsys.readouterr().out
        assert "inputs:   16" in out
        assert "outputs:  4" in out

    def test_synth_and_print(self, blif_file, tmp_path, capsys):
        th_path = tmp_path / "cmb.th"
        assert main(["synth", str(blif_file), "-o", str(th_path)]) == 0
        out = capsys.readouterr().out
        assert "verified=True" in out
        assert th_path.exists()
        assert main(["print-th", str(th_path)]) == 0
        out = capsys.readouterr().out
        assert "<" in out and ";" in out  # weight-threshold vectors

    def test_synth_with_options(self, blif_file, capsys):
        assert main(
            ["synth", str(blif_file), "--psi", "5", "--delta-on", "1"]
        ) == 0
        assert "verified=True" in capsys.readouterr().out

    def test_map(self, blif_file, capsys):
        assert main(["map", str(blif_file)]) == 0
        assert "verified=True" in capsys.readouterr().out

    def test_simulate(self, blif_file, capsys):
        assert main(["simulate", str(blif_file)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_bench_to_stdout(self, capsys):
        assert main(["bench", "tcon"]) == 0
        out = capsys.readouterr().out
        assert ".model tcon" in out

    def test_enumerate(self, capsys):
        assert main(["enumerate", "3"]) == 0
        assert "5 threshold / 5" in capsys.readouterr().out

    def test_table1_subset(self, capsys):
        assert main(["table1", "--benchmarks", "cmb", "tcon"]) == 0
        out = capsys.readouterr().out
        assert "cmb" in out and "tcon" in out and "TOTAL" in out

    def test_fig10_fast_benchmark(self, capsys):
        assert main(["fig10", "--benchmark", "cmb"]) == 0
        out = capsys.readouterr().out
        assert "psi" in out and "TELS" in out

    def test_analyze_blif(self, blif_file, capsys):
        assert main(["analyze", str(blif_file)]) == 0
        out = capsys.readouterr().out
        assert "fanin histogram" in out and "critical path" in out

    def test_analyze_thblif(self, blif_file, tmp_path, capsys):
        th_path = tmp_path / "cmb.th"
        main(["synth", str(blif_file), "-o", str(th_path)])
        capsys.readouterr()
        assert main(["analyze", str(th_path)]) == 0
        assert "gates:" in capsys.readouterr().out

    def test_verilog_export(self, blif_file, tmp_path, capsys):
        v_path = tmp_path / "cmb.v"
        assert main(["verilog", str(blif_file), "-o", str(v_path)]) == 0
        text = v_path.read_text()
        assert "module" in text and "ltg" in text

    def test_bench_extended_name(self, capsys):
        assert main(["bench", "majority"]) == 0
        assert ".model majority" in capsys.readouterr().out

    def test_synth_prints_check_stats_and_trace(self, blif_file, capsys):
        assert main(["synth", str(blif_file)]) == 0
        out = capsys.readouterr().out
        assert "checks:" in out and "cache hits" in out and "ILPs" in out
        assert "engine:" in out and "backend=serial" in out
        assert "passes: collapse" in out
        assert "slowest tasks:" in out
        # Each counter line is printed once, from the run totals.
        lines = out.splitlines()
        for prefix in ("checks:", "fastpath:", "solvers:"):
            assert sum(line.startswith(prefix) for line in lines) == 1, prefix

    def test_synth_jobs_flag(self, blif_file, capsys):
        assert main(["synth", str(blif_file), "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "verified=True" in out
        assert "backend=process jobs=2" in out


class TestCache:
    def test_synth_cold_then_warm(self, blif_file, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["synth", str(blif_file), "--cache", cache]) == 0
        cold = capsys.readouterr().out
        assert f"cache: {cache} holds" in cold
        assert "persistent cache:" not in cold
        assert main(["synth", str(blif_file), "--cache", cache]) == 0
        warm = capsys.readouterr().out
        assert "0 misses" in warm
        assert "0 rejected" in warm
        # Warm run served at least one lookup from disk.
        hits = int(warm.split("this run: ")[1].split(" hits")[0])
        assert hits > 0

    def test_cache_stats_and_clear(self, blif_file, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        main(["synth", str(blif_file), "--cache", cache])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache", cache]) == 0
        out = capsys.readouterr().out
        assert "entries:" in out and "solved:" in out
        assert main(["cache", "clear", "--cache", cache]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache", cache]) == 0
        assert "entries:  0" in capsys.readouterr().out

    def test_cache_warm_command(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["cache", "warm", "cm85a", "--cache", cache]) == 0
        out = capsys.readouterr().out
        assert "warmed cm85a" in out
        assert "entries on disk" in out

    def test_cache_requires_directory(self, capsys, monkeypatch):
        monkeypatch.delenv("TELS_CACHE", raising=False)
        assert main(["cache", "stats"]) == 2
        assert "TELS_CACHE" in capsys.readouterr().err

    def test_env_var_enables_and_no_cache_overrides(
        self, blif_file, tmp_path, capsys, monkeypatch
    ):
        cache = str(tmp_path / "envcache")
        monkeypatch.setenv("TELS_CACHE", cache)
        assert main(["synth", str(blif_file)]) == 0
        assert f"cache: {cache}" in capsys.readouterr().out
        assert main(["synth", str(blif_file), "--no-cache"]) == 0
        assert "cache:" not in capsys.readouterr().out


class TestSweep:
    def test_sweep(self, capsys):
        assert main(
            ["sweep", "--benchmarks", "cm152a", "--deltas", "0", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "d_on" in out
        assert "analyses reused after the first sweep point" in out


class TestResilienceFlags:
    def test_deadline_degrades_with_warning_but_exit_zero(
        self, blif_file, capsys
    ):
        assert main(
            ["synth", str(blif_file), "--deadline-per-cone", "0.000001"]
        ) == 0
        captured = capsys.readouterr()
        assert "verified=True" in captured.out
        assert "degraded to one-to-one mapping" in captured.err

    def test_strict_synthesis_turns_degradation_into_exit_2(
        self, blif_file, capsys
    ):
        assert main(
            [
                "synth",
                str(blif_file),
                "--deadline-per-cone",
                "0.000001",
                "--strict-synthesis",
            ]
        ) == 2
        assert "strict synthesis" in capsys.readouterr().err

    def test_total_deadline_flag(self, blif_file, capsys):
        assert main(
            ["synth", str(blif_file), "--deadline-total", "0.000001"]
        ) == 0
        captured = capsys.readouterr()
        assert "verified=True" in captured.out
        assert "total-deadline" in captured.err

    def test_max_attempts_flag_parses(self, blif_file, capsys):
        assert main(
            ["synth", str(blif_file), "--max-attempts", "5"]
        ) == 0
        assert "verified=True" in capsys.readouterr().out

    def test_synth_under_chaos_env(self, blif_file, capsys, monkeypatch):
        monkeypatch.setenv("TELS_CHAOS", "solver=0.5,cache=0.2:1")
        assert main(["synth", str(blif_file)]) == 0
        captured = capsys.readouterr()
        assert "verified=True" in captured.out
        assert "degraded" not in captured.err

    def test_malformed_chaos_spec_is_a_usage_error(
        self, blif_file, capsys, monkeypatch
    ):
        monkeypatch.setenv("TELS_CHAOS", "bogus=1.0")
        assert main(["synth", str(blif_file)]) == 2
        assert "chaos" in capsys.readouterr().err.lower()


class TestSubmit:
    def test_submit_forwards_analyze(self, blif_file, capsys):
        import json

        from repro.serve.app import ServeApp
        from repro.serve.client import TelsClient

        app = ServeApp(port=0)
        app.start_background()
        try:
            assert main(
                [
                    "submit",
                    str(blif_file),
                    "--url",
                    app.url,
                    "--analyze",
                    "--wait",
                ]
            ) == 0
            job_id = json.loads(capsys.readouterr().out)["id"]
            result = TelsClient(app.url).result(job_id)
        finally:
            app.shutdown()
        assert "analysis" in result
