"""Resilience layer: deadlines, degradation, crash recovery, chaos runs.

The contract under test: whatever faults the chaos harness injects on the
recoverable paths, ``run_synthesis`` completes with a network that is
simulation-equivalent to its source and lint-clean, and every cone that
could not be synthesized is listed as degraded (one-to-one fallback).
Without injection the resilience layer must be invisible: zero degraded
cones and bit-identical output.
"""

from __future__ import annotations

import time

import pytest

from repro.benchgen.extended import build_extended_benchmark
from repro.benchgen.paper_examples import motivational_network
from repro.benchgen.random_logic import random_logic_network
from repro.core.identify import ThresholdChecker
from repro.core.synthesis import SynthesisOptions
from repro.core.verify import verify_threshold_network
from repro.engine.executor import ProcessExecutor
from repro.engine.resilience import (
    Deadline,
    cone_subnetwork,
    fallback_cone_gates,
)
from repro.engine.scheduler import run_synthesis
from repro.engine.tasks import preserved_set
from repro.errors import DeadlineExceeded, SynthesisError
from repro.faults.injector import CHAOS_ENV
from repro.ilp.scipy_backend import have_scipy
from repro.io.thblif import to_thblif
from repro.lint.diagnostics import LintOptions
from repro.lint.runner import run_lint
from repro.network.scripts import prepare_tels


def _gate_list(net):
    return [
        (g.name, g.inputs, g.weights, g.threshold, g.delta_on, g.delta_off)
        for g in net.gates()
    ]


def _source():
    return random_logic_network(
        "resil", num_inputs=8, num_outputs=3, num_nodes=14, seed=11
    )


def _check(source, result, psi=3):
    """Every resilient run must stay equivalent and lint-clean."""
    assert verify_threshold_network(source, result.network)
    lint = run_lint(result.network, LintOptions(psi=psi), source=source)
    assert lint.violations == 0


class TestDeadline:
    def test_after_none_is_unbudgeted(self):
        assert Deadline.after(None) is None

    def test_fresh_deadline_has_budget(self):
        deadline = Deadline.after(60.0)
        assert 0.0 < deadline.remaining() <= 60.0
        assert not deadline.expired
        deadline.check("anything")  # must not raise

    def test_expired_deadline_raises_with_context(self):
        deadline = Deadline(0.0)
        time.sleep(0.001)
        assert deadline.expired
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceeded, match="during cone 'z'"):
            deadline.check("cone 'z'")


class TestFallback:
    def test_fallback_gates_cover_the_cone(self):
        source = motivational_network()
        net = prepare_tels(source)
        preserved = preserved_set(net, preserve_sharing=True)
        root = next(o for o in net.outputs if net.has_node(o))
        options = SynthesisOptions(psi=3)
        checker = ThresholdChecker.from_options(options)
        gates, discovered = fallback_cone_gates(
            net, root, preserved, options, checker
        )
        names = {g.name for g in gates}
        assert root in names
        for gate in gates:
            assert len(gate.inputs) <= options.psi
            if gate.name != root:
                assert gate.name.startswith(f"{root}$f")
        for signal in discovered:
            assert net.has_node(signal)

    def test_cone_subnetwork_stops_at_boundaries(self):
        net = prepare_tels(motivational_network())
        preserved = preserved_set(net, preserve_sharing=True)
        root = next(o for o in net.outputs if net.has_node(o))
        cone, discovered = cone_subnetwork(net, root, preserved)
        assert list(cone.outputs) == [root]
        for signal in cone.inputs:
            assert (
                net.is_input(signal)
                or signal in preserved
                or not net.has_node(signal)
            )
        assert set(discovered) <= set(cone.inputs)


class TestDeadlineDegradation:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_tiny_per_cone_deadline_degrades_everything(self, jobs):
        source = _source()
        net = prepare_tels(source)
        options = SynthesisOptions(
            psi=3, deadline_per_cone_s=1e-6, watchdog_grace_s=30.0
        )
        result = run_synthesis(net, options, jobs=jobs)
        report = result.report
        assert report.degraded_cones == len(result.trace.tasks)
        assert report.degraded_cones > 0
        assert all(d.reason == "deadline" for d in report.degraded)
        assert {t for t, _r in result.trace.degraded} == {
            d.task_id for d in report.degraded
        }
        _check(source, result)

    def test_tiny_total_deadline_degrades_everything(self):
        source = _source()
        net = prepare_tels(source)
        options = SynthesisOptions(psi=3, deadline_total_s=1e-9)
        result = run_synthesis(net, options)
        report = result.report
        assert report.degraded_cones > 0
        assert all(d.reason == "total-deadline" for d in report.degraded)
        _check(source, result)

    def test_strict_synthesis_raises_instead_of_degrading(self):
        net = prepare_tels(_source())
        options = SynthesisOptions(
            psi=3, deadline_per_cone_s=1e-6, strict_synthesis=True
        )
        with pytest.raises(SynthesisError, match="strict synthesis"):
            run_synthesis(net, options)

    def test_degraded_network_matches_one_to_one_area_bound(self):
        """A fully degraded run is exactly the per-cone one-to-one fallback,
        so it still respects the fanin bound everywhere."""
        net = prepare_tels(_source())
        options = SynthesisOptions(psi=3, deadline_per_cone_s=1e-6)
        result = run_synthesis(net, options)
        for gate in result.network.gates():
            assert len(gate.inputs) <= options.psi


class TestChaosWorkerCrashes:
    def test_crash_storm_quarantines_and_recovers(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "worker=1.0:1")
        source = _source()
        net = prepare_tels(source)
        options = SynthesisOptions(psi=3, retry_backoff_s=0.01)
        result = run_synthesis(net, options, jobs=2)
        assert result.trace.pool_rebuilds >= 1
        assert result.trace.quarantined
        assert result.report.degraded_cones > 0
        assert all(
            d.reason == "quarantined" for d in result.report.degraded
        )
        _check(source, result)

    def test_moderate_crash_rate_completes_equivalent(self, monkeypatch):
        source = _source()
        net = prepare_tels(source)
        options = SynthesisOptions(psi=3, retry_backoff_s=0.01)
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        clean = run_synthesis(net, SynthesisOptions(psi=3))
        monkeypatch.setenv(CHAOS_ENV, "worker=0.4:3")
        result = run_synthesis(net, options, jobs=2)
        _check(source, result)
        if result.report.degraded_cones == 0:
            # Crash-retry recovery alone must not change the output.
            assert _gate_list(result.network) == _gate_list(clean.network)

    def test_worker_chaos_is_inert_in_serial_runs(self, monkeypatch):
        """The worker/stall sites model process deaths; the serial backend
        has no worker processes, so the same env must change nothing."""
        source = _source()
        net = prepare_tels(source)
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        clean = run_synthesis(net, SynthesisOptions(psi=3))
        monkeypatch.setenv(CHAOS_ENV, "worker=1.0,stall=1.0:9")
        chaotic = run_synthesis(net, SynthesisOptions(psi=3))
        assert chaotic.report.degraded_cones == 0
        assert _gate_list(chaotic.network) == _gate_list(clean.network)


class TestChaosStalls:
    def test_watchdog_reaps_stalled_workers(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "stall=1.0:1")
        source = _source()
        net = prepare_tels(source)
        options = SynthesisOptions(
            psi=3, deadline_per_cone_s=0.25, watchdog_grace_s=0.3
        )
        result = run_synthesis(net, options, jobs=2)
        assert result.trace.watchdog_kills > 0
        assert result.report.degraded_cones > 0
        assert all(d.reason == "deadline" for d in result.report.degraded)
        _check(source, result)


class TestChaosSolver:
    def test_solver_timeouts_fall_back_to_exact(self, monkeypatch):
        if not have_scipy():
            pytest.skip("solver chaos targets the scipy attempt")
        monkeypatch.setenv(CHAOS_ENV, "solver=1.0:2")
        source = _source()
        net = prepare_tels(source)
        result = run_synthesis(net, SynthesisOptions(psi=3))
        assert result.report.degraded_cones == 0
        stats = result.report.checker.stats
        if stats.ilp_solved:
            assert stats.solver_timeouts > 0
            assert stats.exact_solves > 0
        _check(source, result)

    def test_wrong_solver_answers_are_caught(self, monkeypatch):
        if not have_scipy():
            pytest.skip("solver chaos targets the scipy attempt")
        monkeypatch.setenv(CHAOS_ENV, "solver-wrong=1.0:4")
        source = _source()
        net = prepare_tels(source)
        result = run_synthesis(net, SynthesisOptions(psi=3))
        assert result.report.degraded_cones == 0
        _check(source, result)


class TestChaosEndToEnd:
    def test_combined_chaos_differential(self, tmp_path, monkeypatch):
        """The acceptance scenario: >=10% worker crashes plus solver
        timeouts plus cache faults, and the run still completes with a
        verified, lint-clean network."""
        source = _source()
        net = prepare_tels(source)
        monkeypatch.setenv(CHAOS_ENV, "worker=0.2,solver=0.3,cache=0.3:5")
        options = SynthesisOptions(psi=3, retry_backoff_s=0.01)
        result = run_synthesis(
            net, options, jobs=2, cache_dir=str(tmp_path / "cache")
        )
        _check(source, result)
        for degraded in result.report.degraded:
            assert degraded.reason in {
                "deadline",
                "quarantined",
                "retry-exhausted",
            }

    def test_no_chaos_means_no_degradation(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        source = _source()
        net = prepare_tels(source)
        result = run_synthesis(net, SynthesisOptions(psi=3), jobs=2)
        assert result.report.degraded_cones == 0
        assert result.trace.retries == 0
        assert result.trace.pool_rebuilds == 0
        _check(source, result)


class TestBrokenPoolRecovery:
    def test_single_crash_requeues_and_matches_serial(self, monkeypatch):
        """One injected worker death: the pool is rebuilt, the cone is
        retried, and the final network is identical to a serial clean run
        (recovery must not perturb determinism)."""
        source = _source()
        net = prepare_tels(source)
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        serial = run_synthesis(net, SynthesisOptions(psi=3))
        # Rate 0.12 with this seed kills exactly one first attempt and no
        # retries (decisions are keyed on task:attempt, so retries survive).
        monkeypatch.setenv(CHAOS_ENV, "worker=0.12:0")
        options = SynthesisOptions(psi=3, retry_backoff_s=0.01)
        recovered = run_synthesis(net, options, jobs=2)
        assert recovered.trace.pool_rebuilds >= 1
        assert recovered.trace.requeues >= 1
        assert recovered.report.degraded_cones == 0
        assert _gate_list(recovered.network) == _gate_list(serial.network)
        _check(source, recovered)

    def test_a_crash_is_charged_only_to_the_cone_that_crashed(
        self, monkeypatch
    ):
        """comp at a 15% crash rate: a break with several cones in flight
        blames none of them; each reruns alone, and only a cone that
        crashes alone is charged.  No comp cone crashes three attempts in a
        row at this seed, so none is quarantined and the network matches
        the serial one byte for byte."""
        net = prepare_tels(build_extended_benchmark("comp"))
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        serial = run_synthesis(net, SynthesisOptions())
        monkeypatch.setenv(CHAOS_ENV, "worker=0.15:2")
        pooled = run_synthesis(net, SynthesisOptions(), jobs=2)
        assert pooled.trace.pool_rebuilds > 0
        assert pooled.trace.quarantined == []
        assert to_thblif(pooled.network) == to_thblif(serial.network)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_break_loses_at_most_jobs_cones(self, monkeypatch, seed):
        """The pool holds at most ``jobs`` cones, so a break loses only
        those, never cones queued behind them that had not started."""
        net = prepare_tels(build_extended_benchmark("comp"))
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        serial = run_synthesis(net, SynthesisOptions())
        lost_per_break: list[int] = []
        blame = ProcessExecutor._blame

        def counting_blame(executor, broken):
            failures = blame(executor, broken)
            lost_per_break.append(len(failures))
            return failures

        monkeypatch.setattr(ProcessExecutor, "_blame", counting_blame)
        monkeypatch.setenv(CHAOS_ENV, f"worker=0.15:{seed}")
        pooled = run_synthesis(net, SynthesisOptions(), jobs=2)
        assert lost_per_break
        assert max(lost_per_break) <= 2, lost_per_break
        assert to_thblif(pooled.network) == to_thblif(serial.network)
