"""Engine-level behaviour: determinism, parallel equivalence, store reuse.

The acceptance bar for the pass-based engine is that the process-pool
backend is *bit-identical* to the serial schedule — same gate names, same
fanins, same weight–threshold vectors, in the same order — and that every
synthesized network simulates equivalent to its source.
"""

from __future__ import annotations

import pytest

from repro.benchgen.mcnc import (
    CORPUS_STRESSOR_PSI,
    build_corpus_circuit,
    corpus_names,
    is_corpus_stressor,
)
from repro.benchgen.paper_examples import motivational_network
from repro.benchgen.random_logic import random_logic_network
from repro.core.identify import CheckStats
from repro.core.synthesis import SynthesisOptions, synthesize_with_report
from repro.core.verify import verify_threshold_network
from repro.engine.cone import task_rng
from repro.engine.scheduler import run_synthesis
from repro.engine.store import ResultStore
from repro.engine.tasks import plan_initial_tasks, preserved_set
from repro.network.scripts import prepare_tels


def _gate_list(net):
    """The full observable identity of a synthesized network."""
    return [
        (g.name, g.inputs, g.weights, g.threshold, g.delta_on, g.delta_off)
        for g in net.gates()
    ]


def _random_circuits():
    return [
        random_logic_network(
            f"rand{seed}",
            num_inputs=8,
            num_outputs=3,
            num_nodes=14,
            seed=seed,
        )
        for seed in (11, 23, 47)
    ]


class TestTaskLayer:
    def test_one_initial_task_per_output_node(self):
        net = prepare_tels(motivational_network())
        tasks = plan_initial_tasks(net)
        roots = [t.root for t in tasks]
        assert roots == [o for o in net.outputs if net.has_node(o)]
        assert len({t.task_id for t in tasks}) == len(tasks)

    def test_preserved_set_contains_outputs(self):
        net = prepare_tels(motivational_network())
        preserved = preserved_set(net, preserve_sharing=True)
        for out in net.outputs:
            if net.has_node(out):
                assert out in preserved

    def test_task_rng_is_deterministic_and_per_task(self):
        a = task_rng(0, "z0")
        b = task_rng(0, "z0")
        c = task_rng(0, "z1")
        seq_a = [a.random() for _ in range(5)]
        assert seq_a == [b.random() for _ in range(5)]
        assert seq_a != [c.random() for _ in range(5)]


class TestSerialEngine:
    def test_motivational_network(self):
        net = prepare_tels(motivational_network())
        result = run_synthesis(net, SynthesisOptions(psi=4))
        assert verify_threshold_network(motivational_network(), result.network)
        assert result.trace.backend == "serial"
        assert len(result.trace.tasks) >= len(net.outputs)

    def test_trace_totals_match_report(self):
        net = prepare_tels(motivational_network())
        result = run_synthesis(net, SynthesisOptions(psi=4))
        assert result.report.nodes_processed == result.trace.total(
            "nodes_processed"
        )
        assert result.report.trace is result.trace

    def test_events_cover_every_task(self):
        net = prepare_tels(motivational_network())
        result = run_synthesis(net, SynthesisOptions(psi=4))
        for metrics in result.trace.tasks:
            phases = {e.phase for e in metrics.events()}
            assert "done" in phases

    def test_summary_formats(self):
        net = prepare_tels(motivational_network())
        result = run_synthesis(net, SynthesisOptions(psi=4))
        text = result.trace.format_summary()
        assert "engine:" in text
        assert "collapse" in text


class TestParallelDeterminism:
    """Serial and process-pool schedules must be bit-identical."""

    def test_motivational_example(self):
        source = motivational_network()
        net = prepare_tels(source)
        serial = run_synthesis(net, SynthesisOptions(psi=4), jobs=1)
        pooled = run_synthesis(net, SynthesisOptions(psi=4), jobs=2)
        assert _gate_list(serial.network) == _gate_list(pooled.network)
        assert pooled.trace.backend == "process"
        assert verify_threshold_network(source, pooled.network)

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_random_benchgen_circuits(self, index):
        source = _random_circuits()[index]
        net = prepare_tels(source)
        options = SynthesisOptions(psi=3, seed=5)
        serial = run_synthesis(net, options, jobs=1)
        pooled = run_synthesis(net, options, jobs=2)
        assert _gate_list(serial.network) == _gate_list(pooled.network)
        assert verify_threshold_network(source, serial.network)
        assert verify_threshold_network(source, pooled.network)

    def test_parallel_stats_match_serial(self):
        """Worker stat deltas must fold back into the parent checker."""
        net = prepare_tels(motivational_network())
        serial = run_synthesis(net, SynthesisOptions(psi=4), jobs=1)
        pooled = run_synthesis(net, SynthesisOptions(psi=4), jobs=2)
        assert (
            pooled.report.checker.stats.calls
            == serial.report.checker.stats.calls
        )


class TestSharedStore:
    def test_delta_sweep_reuses_analyses(self):
        """2nd+ sweep points must hit the delta-independent tier."""
        source = motivational_network()
        net = prepare_tels(source)
        store = ResultStore()
        for delta_on in (0, 1, 2):
            before = store.stats.snapshot()
            result = run_synthesis(
                net,
                SynthesisOptions(psi=4, delta_on=delta_on),
                store=store,
            )
            assert verify_threshold_network(source, result.network)
            spent = store.stats.since(before)
            if delta_on > 0:
                assert spent.analysis_hits > 0
                assert spent.analysis_misses == 0

    def test_same_point_twice_is_all_hits(self):
        net = prepare_tels(motivational_network())
        store = ResultStore()
        run_synthesis(net, SynthesisOptions(psi=4), store=store)
        before = store.stats.snapshot()
        run_synthesis(net, SynthesisOptions(psi=4), store=store)
        spent = store.stats.since(before)
        assert spent.vector_misses == 0
        assert spent.analysis_misses == 0

    def test_facade_passes_store_through(self):
        net = prepare_tels(motivational_network())
        store = ResultStore()
        synthesize_with_report(net, SynthesisOptions(psi=4), store=store)
        assert len(store) > 0

    def test_large_corpus_counters_hold_their_floors(self):
        """The 40-circuit corpus of ``repro.benchgen.mcnc`` on one store.

        Bulk circuits run at psi=3.  The stressors run at psi=9 with
        sharing off, so their 9-support cone reaches the ILP whole and
        their pair-select cone is refuted by the fast path.  One store
        serves all 40 circuits, which sets these counts; none may drop
        below the count it had when the floors were recorded.
        """
        store = ResultStore()
        totals = CheckStats()
        circuits = cones = 0
        for name in corpus_names():
            source = build_corpus_circuit(name)
            if is_corpus_stressor(name):
                options = SynthesisOptions(
                    psi=CORPUS_STRESSOR_PSI, preserve_sharing=False
                )
            else:
                options = SynthesisOptions(psi=3)
            network, report = synthesize_with_report(
                prepare_tels(source), options, store=store
            )
            verified = verify_threshold_network(source, network, vectors=128)
            assert verified, name
            circuits += 1
            cones += len(report.trace.tasks)
            totals.add(report.checker.stats)
        assert circuits >= 40
        assert cones >= 1143
        assert totals.ilp_solved >= 5
        assert totals.fastpath_negatives >= 17


class TestFacade:
    def test_report_carries_trace_and_checker(self):
        net = prepare_tels(motivational_network())
        _, report = synthesize_with_report(net, SynthesisOptions(psi=4))
        assert report.trace is not None
        assert report.checker is not None
        assert report.checker.stats.calls > 0
