"""Integration tests for the ``tels`` command line."""

import os
import select
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


def cli_env() -> dict:
    """The environment for a ``python -m repro.cli`` subprocess."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


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

    def test_synth_blif_with_a_dead_buffer_of_an_inverter(self, tmp_path, capsys):
        path = tmp_path / "dead.blif"
        path.write_text(
            ".model dead\n.inputs a b\n.outputs o\n"
            ".names B A\n1 1\n.names a B\n0 1\n.names a b o\n11 1\n.end\n"
        )
        assert main(["synth", str(path)]) == 0
        assert "verified=True" in capsys.readouterr().out

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


class TestOptionChecks:
    def test_map_rejects_a_negative_tolerance(self, blif_file, capsys):
        assert main(["map", str(blif_file), "--delta-on", "-1"]) == 2
        assert "tolerances" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "map"])
    def test_a_zero_off_tolerance_exits_2(self, blif_file, capsys, command):
        # delta_off = 0 lets the ILP put an OFF point on T, where an LTG
        # fires: the networks it gave were wrong, so it is refused.
        assert main([command, str(blif_file), "--delta-off", "0"]) == 2
        assert "delta_off >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["map", "--gate-model", "flash"],
            ["submit", "--distribute", "http://127.0.0.1:9"],
            ["submit", "--cache", "somewhere"],
            ["suite", "--no-fastpath"],
        ],
    )
    def test_a_flag_the_command_ignores_is_rejected(self, blif_file, argv):
        command, *flags = argv
        files = [] if command == "suite" else [str(blif_file)]
        with pytest.raises(SystemExit) as exc:
            main([command, *files, *flags])
        assert exc.value.code == 2

    def test_simulate_writes_the_cache(self, blif_file, tmp_path):
        from repro.cache.store import cache_file

        cache = tmp_path / "cache"
        assert main(["simulate", str(blif_file), "--cache", str(cache)]) == 0
        assert cache_file(cache).stat().st_size > 0

    def test_table1_with_psi_one_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "table1", "--psi", "1",
             "--benchmarks", "cm152a"],
            env=cli_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr

    def test_bench_requires_a_name(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2


class TestServe:
    def test_sigterm_stops_a_daemon_that_ignores_sigint(self):
        # A daemon started with `&` from a non-interactive shell inherits
        # SIGINT ignored; TERM must still shut it down through shutdown().
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            env={**cli_env(), "PYTHONUNBUFFERED": "1"},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 30)
            assert ready, "tels serve printed nothing in 30 s"
            assert "listening on" in proc.stdout.readline()
            proc.send_signal(signal.SIGTERM)
            _out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "shutting down" in err
