"""Bench smoke for CI: time the engine on a Table-I subset.

Writes ``BENCH_synth.json`` with per-benchmark wall time, gate count, and
the store cache-hit rates for both a cold run and a warm re-run against the
same shared store — the number CI tracks to catch regressions in the
shared-result-store reuse.  Two further phases cover the axes the cold/warm
pair cannot: a delta phase re-synthesizes the subset at a bumped
``delta_on`` over the same store (only the analysis tier can answer, so its
hit rate proves the delta-independent checker split still works), and a
gate-model phase runs the ``parmix`` stressor once per ``repro.gates``
backend and asserts the model-specific outcomes (ILP traffic and fast-path
refutations under ``ltg``; strictly fewer gates under ``multi-threshold``).

With ``--corpus large`` (the default for the checked-in artifact) two more
sections are emitted: ``large_corpus`` synthesizes the dozens-of-circuits
corpus from :mod:`repro.benchgen.mcnc` — thousands of cones, including
stressors the Chow fast path must hand to the ILP or refute — and records
per-cone p50/p95 latency; ``substrate_microbench`` times the packed BitVec
kernels against reference per-point Python loops (cover evaluation and
network simulation) and records the speedups the substrate must sustain.

Run as a module::

    python -m benchmarks.synth_bench [-o BENCH_synth.json] [--jobs N]
        [--corpus small|large]

(or ``python benchmarks/synth_bench.py`` with ``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

#: Small, fast Table-I subset — CI smoke, not the full suite.
DEFAULT_BENCHMARKS = ("cm152a", "cm85a", "cmb", "comp")


def run_bench(
    names: tuple[str, ...] = DEFAULT_BENCHMARKS,
    psi: int = 3,
    seed: int = 0,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> dict:
    from repro.benchgen.extended import build_extended_benchmark
    from repro.core.area import network_stats
    from repro.core.synthesis import SynthesisOptions, synthesize_with_report
    from repro.core.verify import verify_threshold_network
    from repro.engine.store import ResultStore
    from repro.network.scripts import prepare_tels

    from repro.core.identify import CheckStats

    store = ResultStore()
    options = SynthesisOptions(psi=psi, seed=seed)
    rows = []
    totals = CheckStats()
    degraded_cones = 0
    for name in names:
        source = build_extended_benchmark(name)
        prepared = prepare_tels(source)
        start = time.perf_counter()
        network, report = synthesize_with_report(
            prepared, options, jobs=jobs, store=store
        )
        wall = time.perf_counter() - start
        if not verify_threshold_network(source, network, vectors=256):
            raise SystemExit(f"bench verification failed on {name!r}")
        stats = network_stats(network)
        check = report.checker.stats
        rows.append(
            {
                "benchmark": name,
                "gates": stats.gates,
                "levels": stats.levels,
                "area": stats.area,
                "wall_s": round(wall, 4),
                "checker_calls": check.calls,
                "checker_cache_hit_rate": round(check.cache_hit_rate, 4),
                "ilp_solves": check.ilp_solved,
                "fastpath_hit_rate": round(check.fastpath_hit_rate, 4),
                "exact_solve_wall_s": round(check.exact_wall_s, 4),
                "scipy_solve_wall_s": round(check.scipy_wall_s, 4),
            }
        )
        totals.add(check)
        degraded_cones += report.degraded_cones

    # Warm re-run over the same store: near-total reuse is the invariant.
    # Preparation stays outside the clock so warm_wall_s is comparable to
    # the per-benchmark wall_s (which also times synthesis only).
    warm_nets = [prepare_tels(build_extended_benchmark(n)) for n in names]
    warm_before = store.stats.snapshot()
    start = time.perf_counter()
    for prepared in warm_nets:
        synthesize_with_report(prepared, options, jobs=jobs, store=store)
    warm_wall = time.perf_counter() - start
    warm = store.stats.since(warm_before)

    # Delta phase: re-synthesize the same subset with a bumped ``delta_on``
    # over the *same* store.  The tolerances change every ILP answer, so the
    # vector tier cannot help — but the delta-independent analysis half of
    # each check (cover minimization, unate rewrite, complement) is reused
    # from the analysis tier.  This is the traffic the always-zero per-row
    # analysis column used to pretend to measure: analysis hits only appear
    # when the *same* store answers checks under *different* tolerances.
    delta_options = SynthesisOptions(psi=psi, seed=seed, delta_on=1)
    delta_before = store.stats.snapshot()
    start = time.perf_counter()
    for prepared in warm_nets:
        synthesize_with_report(prepared, delta_options, jobs=jobs, store=store)
    delta_wall = time.perf_counter() - start
    delta = store.stats.since(delta_before)

    # Persistent-cache phases (when a cache directory is given): each phase
    # starts from a *fresh* in-memory store so every first-touch lookup has
    # to go through the on-disk tier.  The cold phase populates (or, on a
    # repeated bench invocation in the same workdir, reuses) the cache; the
    # warm phase must then answer every lookup from disk.
    persistent: dict = {}
    if cache_dir is not None:

        def _persistent_phase() -> tuple[float, "ResultStore"]:
            pstore = ResultStore.with_cache_dir(cache_dir)
            start = time.perf_counter()
            for prepared in warm_nets:
                synthesize_with_report(
                    prepared, options, jobs=jobs, store=pstore
                )
            return time.perf_counter() - start, pstore

        cold_wall_p, cold_store = _persistent_phase()
        warm_wall_p, warm_store = _persistent_phase()
        persistent = {
            "cache_dir": str(cache_dir),
            "persistent_cold_wall_s": round(cold_wall_p, 4),
            "persistent_warm_wall_s": round(warm_wall_p, 4),
            "persistent_cold_hits": cold_store.stats.persistent_hits,
            "persistent_cold_hit_rate": round(
                cold_store.stats.persistent_hit_rate, 4
            ),
            "persistent_warm_hits": warm_store.stats.persistent_hits,
            "persistent_warm_hit_rate": round(
                warm_store.stats.persistent_hit_rate, 4
            ),
            "persistent_transformed_hits": warm_store.stats.transformed_hits,
            "persistent_entries": len(warm_store.persistent),
        }

    # Gate-model phase: the parmix stressor (parity + wide-threshold +
    # non-threshold cones) synthesized once per registered backend at a
    # fanin bound that admits the 9-support cone whole.  Each model gets a
    # fresh store (the comparison measures the models, not cache reuse) and
    # sharing preservation is off so the parity cone collapses to primary
    # inputs, where the multi-threshold search can absorb it into a single
    # k-threshold gate.  The tracked invariants: under ``ltg`` the subset
    # exercises the ILP (9 support vars defeat the Chow fast path) and the
    # two-monotonicity refutation; under ``multi-threshold`` the same
    # circuit needs strictly fewer gates than under ``ltg``.
    from repro.gates import model_names

    gate_models: dict = {}
    gm_source = build_extended_benchmark("parmix")
    gm_prepared = prepare_tels(build_extended_benchmark("parmix"))
    for model in model_names():
        gm_options = SynthesisOptions(
            psi=9, seed=seed, gate_model=model, preserve_sharing=False
        )
        start = time.perf_counter()
        gm_net, gm_report = synthesize_with_report(
            gm_prepared, gm_options, jobs=jobs, store=ResultStore()
        )
        gm_wall = time.perf_counter() - start
        if not verify_threshold_network(gm_source, gm_net, vectors=256):
            raise SystemExit(
                f"gate-model bench verification failed under {model!r}"
            )
        gm_stats = network_stats(gm_net)
        gm_check = gm_report.checker.stats
        gate_models[model] = {
            "benchmark": "parmix",
            "gates": gm_stats.gates,
            "levels": gm_stats.levels,
            "area": gm_stats.area,
            "wall_s": round(gm_wall, 4),
            "ilp_solves": gm_check.ilp_solved,
            "fastpath_negatives": gm_check.fastpath_negatives,
            "multithreshold_hits": gm_check.multithreshold_hits,
            "flash_requantized": gm_check.flash_requantized,
        }
        degraded_cones += gm_report.degraded_cones

    # Lint smoke phase: the full rule set re-linted over every synthesized
    # network.  Every violation here is a synthesis bug, so the tracked
    # invariant is a flat zero; the wall time watches for rule-cost creep.
    from repro.lint.diagnostics import LintOptions
    from repro.lint.runner import run_lint

    lint_violations = 0
    start = time.perf_counter()
    for name in names:
        source = build_extended_benchmark(name)
        network, _ = synthesize_with_report(
            prepare_tels(source), options, jobs=jobs, store=store
        )
        lint_report = run_lint(network, LintOptions(psi=psi), source=source)
        lint_violations += lint_report.violations
    lint_wall = time.perf_counter() - start

    analysis = run_analysis_phase(names, psi=psi, seed=seed, jobs=jobs)
    distributed = run_distributed_phase(names, psi=psi, seed=seed)

    return {
        "analysis": analysis,
        "distributed": distributed,
        "psi": psi,
        "seed": seed,
        "jobs": jobs,
        **persistent,
        "lint_wall_s": round(lint_wall, 4),
        "lint_violations": lint_violations,
        "degraded_cones": degraded_cones,
        "benchmarks": rows,
        "cold_wall_s": round(sum(r["wall_s"] for r in rows), 4),
        "warm_wall_s": round(warm_wall, 4),
        "warm_vector_hit_rate": round(warm.vector_hit_rate, 4),
        "warm_analysis_hit_rate": round(warm.analysis_hit_rate, 4),
        "delta_wall_s": round(delta_wall, 4),
        "delta_analysis_hits": delta.analysis_hits,
        "delta_analysis_hit_rate": round(delta.analysis_hit_rate, 4),
        "gate_models": gate_models,
        "store_entries": len(store),
        "ilp_solves_total": totals.ilp_solved,
        "fastpath_hit_rate": round(totals.fastpath_hit_rate, 4),
        "fastpath_hits": totals.fastpath_hits,
        "fastpath_negatives": totals.fastpath_negatives,
        "fastpath_misses": totals.fastpath_misses,
        "exact_solves": totals.exact_solves,
        "scipy_solves": totals.scipy_solves,
        "exact_solve_wall_s": round(totals.exact_wall_s, 4),
        "scipy_solve_wall_s": round(totals.scipy_wall_s, 4),
    }


def _analysis_stressor():
    """Hand-built network with known-redundant structure for the analyzer.

    ``g1 = <2,1;2>(a, b)`` fires iff ``a`` does (the weight-1 fanin ``b``
    can never bridge the threshold gap alone), so ``b`` is a redundant
    fanin; ``g2 = <1,1;0>(a, c)`` is satisfied by the empty assignment and
    therefore a constant-1 gate.  Both must be found, verified by packed
    equivalence, and removable without changing the network's function.
    """
    from repro.core.threshold import (
        ThresholdGate,
        ThresholdNetwork,
        WeightThresholdVector,
    )

    net = ThresholdNetwork("analysis_stressor")
    for pi in ("a", "b", "c"):
        net.add_input(pi)
    net.add_gate(
        ThresholdGate("g1", ("a", "b"), WeightThresholdVector((2, 1), 2))
    )
    net.add_gate(
        ThresholdGate("g2", ("a", "c"), WeightThresholdVector((1, 1), 0))
    )
    net.add_output("g1")
    net.add_output("g2")
    return net


def run_analysis_phase(
    names: tuple[str, ...],
    psi: int = 3,
    seed: int = 0,
    jobs: int = 1,
) -> dict:
    """Dataflow-analysis phase: certificates per gate model + a stressor.

    Two invariants feed the FAIL gates in :func:`main`:

    * the hand-built stressor must yield at least one *verified* removal
      (a redundant fanin and a constant gate are planted), and applying
      the removals must leave the network packed-equivalent to the
      original — a failed re-verification would be a false positive;
    * across every analyzed network the unverified-candidate count must
      be zero: each suggestion the analyzer reports on synthesized output
      has to survive its own equivalence check.

    The gate-model sub-section re-synthesizes the ``parmix`` stressor once
    per registered backend (same configuration as the gate-model phase)
    and records the robustness-certificate margin statistics — ``ltg``
    margins are structural, ``flash`` margins absorb the drift floor, and
    ``multi-threshold`` gates are skipped from enumeration-based
    certification only when their fanin exceeds the enumeration bound.
    """
    from repro.analysis import (
        AnalysisOptions,
        analyze_threshold_network,
        apply_removals,
    )
    from repro.benchgen.extended import build_extended_benchmark
    from repro.core.synthesis import SynthesisOptions, synthesize_with_report
    from repro.engine.store import ResultStore
    from repro.gates import model_names
    from repro.network.scripts import prepare_tels
    from repro.network.simulate import equivalent_threshold_networks

    def _bound(value: float) -> float | None:
        return None if value == float("inf") else round(value, 4)

    verified_total = 0
    unverified_total = 0

    # Stressor: planted redundancies the analyzer must find and verify.
    stressor = _analysis_stressor()
    start = time.perf_counter()
    s_result = analyze_threshold_network(stressor, AnalysisOptions(seed=seed))
    s_wall = time.perf_counter() - start
    rewritten, applied = apply_removals(
        stressor, s_result.verified_findings, seed=seed
    )
    equivalent = equivalent_threshold_networks(stressor, rewritten, seed=seed)
    verified_total += len(s_result.verified_findings)
    unverified_total += len(s_result.unverified_findings)
    stressor_row = {
        "findings": len(s_result.findings),
        "verified_findings": len(s_result.verified_findings),
        "unverified_findings": len(s_result.unverified_findings),
        "applied": len(applied),
        "gates_before": sum(1 for _ in stressor.gates()),
        "gates_after": sum(1 for _ in rewritten.gates()),
        "equivalent_after_apply": equivalent,
        "wall_s": round(s_wall, 4),
    }

    # Certificate margins for every registered gate model on parmix.
    gate_models: dict = {}
    gm_prepared = prepare_tels(build_extended_benchmark("parmix"))
    for model in model_names():
        gm_options = SynthesisOptions(
            psi=9, seed=seed, gate_model=model, preserve_sharing=False
        )
        gm_net, _ = synthesize_with_report(
            gm_prepared, gm_options, jobs=jobs, store=ResultStore()
        )
        start = time.perf_counter()
        result = analyze_threshold_network(
            gm_net, AnalysisOptions(gate_model=model, seed=seed)
        )
        wall = time.perf_counter() - start
        cert = result.certificate
        verified_total += len(result.verified_findings)
        unverified_total += len(result.unverified_findings)
        gate_models[model] = {
            "benchmark": "parmix",
            "gates": sum(1 for _ in gm_net.gates()),
            "certified_gates": len(cert.gates),
            "skipped_gates": len(cert.skipped),
            "min_slack": cert.min_slack,
            "perturbation_bound": _bound(cert.perturbation_bound),
            "meets_tolerances": cert.meets_tolerances,
            "constant_gates": len(result.interval.constant_gates),
            "verified_findings": len(result.verified_findings),
            "unverified_findings": len(result.unverified_findings),
            "wall_s": round(wall, 4),
        }

    # Subset sweep: the analyzer over every synthesized smoke benchmark.
    # Synthesized output should carry no unverified suggestions at all.
    subset_rows = []
    options = SynthesisOptions(psi=psi, seed=seed)
    store = ResultStore()
    for name in names:
        prepared = prepare_tels(build_extended_benchmark(name))
        network, _ = synthesize_with_report(
            prepared, options, jobs=jobs, store=store
        )
        result = analyze_threshold_network(
            network, AnalysisOptions(seed=seed)
        )
        cert = result.certificate
        verified_total += len(result.verified_findings)
        unverified_total += len(result.unverified_findings)
        subset_rows.append(
            {
                "benchmark": name,
                "gates": sum(1 for _ in network.gates()),
                "min_slack": cert.min_slack,
                "perturbation_bound": _bound(cert.perturbation_bound),
                "verified_findings": len(result.verified_findings),
                "unverified_findings": len(result.unverified_findings),
            }
        )

    return {
        "stressor": stressor_row,
        "gate_models": gate_models,
        "benchmarks": subset_rows,
        "verified_removals": verified_total,
        "unverified_findings": unverified_total,
    }


def run_distributed_phase(
    names: tuple[str, ...],
    psi: int = 3,
    seed: int = 0,
    workers: int = 2,
) -> dict:
    """Distributed phase: the subset farmed to in-process remote workers.

    Boots an in-process daemon (:class:`repro.serve.app.ServeApp`) plus
    ``workers`` worker threads and re-synthesizes every benchmark with
    ``distribute=<url>``, against a serial baseline of the same subset.
    The tracked invariant is byte-identity: distribution may only change
    *where* a cone runs, never what the assembled network looks like —
    the ``identical`` flag feeds a FAIL gate in :func:`main`.  Alongside
    wall times the phase records the resilience counters (expired leases,
    re-enqueued cones, cones that fell back to the local executor) and the
    daemon's network-cache traffic, so regressions in the distributed
    path's sharing or retry behaviour show up in the artifact.
    """
    from repro.benchgen.extended import build_extended_benchmark
    from repro.core.synthesis import SynthesisOptions
    from repro.engine.scheduler import run_synthesis
    from repro.io.thblif import to_thblif
    from repro.network.scripts import prepare_tels
    from repro.serve.app import ServeApp
    from repro.serve.worker import start_worker_thread

    options = SynthesisOptions(psi=psi, seed=seed)
    prepared = [prepare_tels(build_extended_benchmark(n)) for n in names]

    serial_texts = []
    start = time.perf_counter()
    for network in prepared:
        serial_texts.append(to_thblif(run_synthesis(network, options).network))
    serial_wall = time.perf_counter() - start

    app = ServeApp(port=0)
    app.start_background()
    handles = [
        start_worker_thread(app.url, worker_id=f"bench-w{i}")
        for i in range(workers)
    ]
    identical = True
    workers_seen = 0
    lease_expirations = requeues = fallback_tasks = 0
    try:
        start = time.perf_counter()
        for network, expected in zip(prepared, serial_texts):
            outcome = run_synthesis(network, options, distribute=app.url)
            identical &= to_thblif(outcome.network) == expected
            trace = outcome.trace
            workers_seen = max(workers_seen, trace.remote_workers)
            lease_expirations += trace.lease_expirations
            requeues += trace.requeues
            fallback_tasks += trace.remote_fallback_tasks
        distributed_wall = time.perf_counter() - start
        network_cache = dict(app.manager.stats()["network_cache"])
        duplicate_results = app.manager.broker.duplicate_results
    finally:
        for _thread, stop in handles:
            stop.set()
        for thread, _stop in handles:
            thread.join(timeout=5.0)
        app.shutdown()

    return {
        "workers": workers,
        "workers_seen": workers_seen,
        "serial_wall_s": round(serial_wall, 4),
        "distributed_wall_s": round(distributed_wall, 4),
        "speedup": round(serial_wall / max(distributed_wall, 1e-9), 4),
        "identical": identical,
        "lease_expirations": lease_expirations,
        "requeues": requeues,
        "fallback_tasks": fallback_tasks,
        "duplicate_results": duplicate_results,
        "network_cache": network_cache,
    }


def _percentile_ms(sorted_walls: list[float], q: float) -> float:
    """Nearest-rank percentile of a sorted wall-time list, in ms."""
    if not sorted_walls:
        return 0.0
    rank = min(len(sorted_walls) - 1, int(q * (len(sorted_walls) - 1) + 0.5))
    return round(sorted_walls[rank] * 1000.0, 4)


def run_large_corpus(
    psi: int = 3,
    seed: int = 0,
    jobs: int = 1,
    limit: int | None = None,
) -> dict:
    """Synthesize the large corpus and distill per-cone latency stats.

    Bulk circuits run at the default ``psi``; the stressor circuits run at
    ``CORPUS_STRESSOR_PSI`` with sharing preservation off so their
    9-support cone reaches the checker whole (forcing ILP traffic) and
    their non-threshold cone exercises the 2-monotonicity refutation.
    """
    from repro.benchgen.mcnc import (
        CORPUS_STRESSOR_PSI,
        build_corpus_circuit,
        corpus_names,
        is_corpus_stressor,
    )
    from repro.core.identify import CheckStats
    from repro.core.synthesis import SynthesisOptions, synthesize_with_report
    from repro.core.verify import verify_threshold_network
    from repro.engine.store import ResultStore
    from repro.network.scripts import prepare_tels

    names = corpus_names()
    if limit is not None:
        # Keep the stressors: they carry the ILP/refutation invariants.
        bulk = [n for n in names if not is_corpus_stressor(n)][:limit]
        names = bulk + [n for n in names if is_corpus_stressor(n)]
    store = ResultStore()
    totals = CheckStats()
    cone_walls: list[float] = []
    circuits = 0
    cones = 0
    gates = 0
    area = 0
    start = time.perf_counter()
    for name in names:
        source = build_corpus_circuit(name)
        prepared = prepare_tels(source)
        if is_corpus_stressor(name):
            options = SynthesisOptions(
                psi=CORPUS_STRESSOR_PSI, seed=seed, preserve_sharing=False
            )
        else:
            options = SynthesisOptions(psi=psi, seed=seed)
        network, report = synthesize_with_report(
            prepared, options, jobs=jobs, store=store
        )
        if not verify_threshold_network(source, network, vectors=128):
            raise SystemExit(f"corpus verification failed on {name!r}")
        circuits += 1
        from repro.core.area import network_stats

        stats = network_stats(network)
        gates += stats.gates
        area += stats.area
        totals.add(report.checker.stats)
        if report.trace is not None:
            cones += len(report.trace.tasks)
            cone_walls.extend(m.wall_s for m in report.trace.tasks)
    wall = time.perf_counter() - start
    cone_walls.sort()
    return {
        "circuits": circuits,
        "cones": cones,
        "gates": gates,
        "area": area,
        "wall_s": round(wall, 4),
        "ilp_solves": totals.ilp_solved,
        "fastpath_hits": totals.fastpath_hits,
        "fastpath_negatives": totals.fastpath_negatives,
        "fastpath_hit_rate": round(totals.fastpath_hit_rate, 4),
        "checker_calls": totals.calls,
        "cone_wall_ms_p50": _percentile_ms(cone_walls, 0.50),
        "cone_wall_ms_p95": _percentile_ms(cone_walls, 0.95),
    }


def run_substrate_microbench(repeats: int = 3) -> dict:
    """Packed-kernel speedups over reference per-point Python loops.

    Two microbenchmarks, each run ``repeats`` times keeping the best wall
    per side:

    * **cover evaluation** — full truth tables of a batch of random
      12-variable covers, per-cube/per-point loop vs ``bitset.key_table``;
    * **network simulation** — 4096-vector sweep of a random logic
      network, per-point ``BooleanNetwork.evaluate`` vs the packed
      ``simulate_vectors``.
    """
    import random as _random

    from repro.boolean import bitset
    from repro.boolean.cover import Cover
    from repro.boolean.cube import Cube
    from repro.benchgen.random_logic import random_logic_network
    from repro.network.simulate import random_pi_vectors, simulate_vectors

    rng = _random.Random(1234)
    nvars = 12
    covers = []
    for _ in range(24):
        cubes = []
        for _ in range(16):
            pos = 0
            neg = 0
            for var in rng.sample(range(nvars), rng.randint(2, 5)):
                if rng.random() < 0.5:
                    pos |= 1 << var
                else:
                    neg |= 1 << var
            cubes.append(Cube(pos, neg, nvars))
        covers.append(Cover(cubes, nvars))

    def legacy_tables() -> list[list[int]]:
        out = []
        for cover in covers:
            out.append(
                [
                    int(any(c.evaluate(p) for c in cover.cubes))
                    for p in range(1 << nvars)
                ]
            )
        return out

    def packed_tables() -> list[list[int]]:
        return [
            bitset.key_table(
                (nvars, tuple((c.pos, c.neg) for c in cover.cubes))
            ).to_bits()
            for cover in covers
        ]

    def best_wall(fn) -> float:
        best = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            t1 = time.perf_counter()
            if best is None or t1 - t0 < best:
                best = t1 - t0
        return best

    if legacy_tables() != packed_tables():
        raise SystemExit("substrate microbench: packed tables disagree")
    eval_legacy = best_wall(legacy_tables)
    eval_packed = best_wall(packed_tables)

    network = random_logic_network(
        "microbench",
        num_inputs=16,
        num_outputs=8,
        num_nodes=48,
        seed=77,
        max_fanin=3,
        max_cubes=3,
        locality=12,
    )
    width = 4096
    vecs = random_pi_vectors(network, width, _random.Random(5))

    def legacy_sim() -> list[int]:
        sigs = []
        for k in range(width):
            assignment = {
                name: vecs[name].test(k) for name in network.inputs
            }
            out = network.evaluate(assignment)
            sigs.append(sum(1 for o in network.outputs if out[o]))
        return sigs

    def packed_sim() -> list[int]:
        sim = simulate_vectors(network, vecs, width)
        counts = [0] * width
        for o in network.outputs:
            for k, bit in enumerate(sim[o].to_bits()):
                counts[k] += bit
        return counts

    if legacy_sim() != packed_sim():
        raise SystemExit("substrate microbench: simulations disagree")
    sim_legacy = best_wall(legacy_sim)
    sim_packed = best_wall(packed_sim)

    return {
        "backend": bitset.active_backend(),
        "cover_eval_legacy_s": round(eval_legacy, 4),
        "cover_eval_packed_s": round(eval_packed, 4),
        "cover_eval_speedup": round(eval_legacy / max(eval_packed, 1e-9), 1),
        "simulate_legacy_s": round(sim_legacy, 4),
        "simulate_packed_s": round(sim_packed, 4),
        "simulate_speedup": round(sim_legacy / max(sim_packed, 1e-9), 1),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", default="BENCH_synth.json")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument(
        "--benchmarks", nargs="*", default=list(DEFAULT_BENCHMARKS)
    )
    parser.add_argument(
        "--cache",
        default=".tels-cache",
        help="persistent cache directory for the cold/warm phases",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the persistent-cache phases",
    )
    parser.add_argument(
        "--corpus",
        choices=("small", "large"),
        default="large",
        help="'large' adds the large-corpus and substrate-microbench "
        "sections; 'small' keeps the historical smoke phases only",
    )
    parser.add_argument(
        "--corpus-limit",
        type=int,
        default=None,
        help="cap the number of bulk corpus circuits (stressors always run)",
    )
    args = parser.parse_args(argv)
    cache_dir = None if args.no_cache else args.cache
    result = run_bench(
        tuple(args.benchmarks), jobs=args.jobs, cache_dir=cache_dir
    )
    if args.corpus == "large":
        result["large_corpus"] = run_large_corpus(
            jobs=args.jobs, limit=args.corpus_limit
        )
        result["substrate_microbench"] = run_substrate_microbench()
    Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    # A vector-tier hit short-circuits the whole check, so the warm run's
    # analysis tier sees no traffic at all; the reuse invariant is that the
    # vector tier answers every warm lookup.
    if result["warm_vector_hit_rate"] < 1.0:
        print("FAIL: warm re-run did not fully reuse the result store")
        return 1
    # The persistent warm phase starts from an empty in-memory store, so
    # every first-touch lookup must be answered by the on-disk tier.
    if cache_dir is not None and result["persistent_warm_hit_rate"] < 1.0:
        print("FAIL: persistent warm phase missed the on-disk cache")
        return 1
    # The tolerance bump invalidates every vector-tier entry, so reuse in
    # the delta phase can only come from the analysis tier; zero hits there
    # means the delta-independent split of the checker regressed.
    if result["delta_analysis_hit_rate"] <= 0.0:
        print("FAIL: delta re-synthesis reused nothing from the analysis tier")
        return 1
    # The gate-model stressor must hit the paths it was built to hit:
    # a 9-support cone the fast path cannot decide (ILP traffic) and a
    # unate non-threshold cone the two-monotonicity screen refutes.
    gm = result["gate_models"]
    if gm["ltg"]["ilp_solves"] <= 0:
        print("FAIL: gate-model phase never reached the ILP under ltg")
        return 1
    if gm["ltg"]["fastpath_negatives"] <= 0:
        print("FAIL: gate-model phase never refuted a cone under ltg")
        return 1
    # The point of the multi-threshold backend: the parity cone collapses
    # into a single k-threshold gate, so parmix must come out strictly
    # smaller than the single-threshold result.
    if gm["multi-threshold"]["gates"] >= gm["ltg"]["gates"]:
        print("FAIL: multi-threshold did not beat ltg on parmix")
        return 1
    # The analysis stressor plants a redundant fanin and a constant gate;
    # the analyzer must find them, verify them by packed equivalence, and
    # the applied rewrite must stay equivalent to the original network.
    analysis = result["analysis"]
    if analysis["verified_removals"] < 1:
        print("FAIL: analysis phase found no verified removal candidates")
        return 1
    if analysis["stressor"]["verified_findings"] < 2:
        print("FAIL: analysis stressor missed a planted redundancy")
        return 1
    if not analysis["stressor"]["equivalent_after_apply"]:
        print("FAIL: applying analysis removals changed the stressor")
        return 1
    # An unverified suggestion on synthesized output is a false positive:
    # every candidate the analyzer reports must survive its own packed
    # equivalence check.
    if analysis["unverified_findings"] != 0:
        print("FAIL: analysis phase reported unverified removal candidates")
        return 1
    # Certificate margin stats must cover every registered gate model.
    for model in ("ltg", "multi-threshold", "flash"):
        if model not in analysis["gate_models"]:
            print(f"FAIL: analysis phase missing gate model {model!r}")
            return 1
    # Every synthesized network must come out of the engine lint-clean.
    if result["lint_violations"] != 0:
        print("FAIL: lint smoke phase found violations in synthesized output")
        return 1
    # Without fault injection the resilience layer must stay invisible:
    # a degraded cone here means a deadline/retry bug, not a real fault.
    if result["degraded_cones"] != 0:
        print("FAIL: cones degraded without fault injection")
        return 1
    # Distribution may change where a cone runs, never the output: the
    # remote run must assemble byte-identical networks, on real workers
    # (a silent fallback to the local executor would mask a broken
    # distributed path while keeping the bytes right).
    distributed = result["distributed"]
    if not distributed["identical"]:
        print("FAIL: distributed phase diverged from the serial baseline")
        return 1
    if distributed["workers_seen"] < 1:
        print("FAIL: distributed phase never saw a live worker")
        return 1
    if distributed["fallback_tasks"] != 0:
        print("FAIL: distributed phase fell back to the local executor")
        return 1
    if args.corpus == "large":
        corpus = result["large_corpus"]
        # The corpus stressors exist to force real ILP traffic and real
        # fast-path refutations at scale; zeros mean the stressor cones
        # were split before reaching the checker whole.
        if corpus["ilp_solves"] <= 0:
            print("FAIL: large corpus never reached the ILP")
            return 1
        if corpus["fastpath_negatives"] <= 0:
            print("FAIL: large corpus never refuted a cone combinatorially")
            return 1
        if corpus["cones"] < 1000:
            print("FAIL: large corpus shrank below a thousand cones")
            return 1
        # The substrate's reason to exist: packed kernels must stay well
        # clear of the per-point Python loops they replaced.
        micro = result["substrate_microbench"]
        if micro["cover_eval_speedup"] < 3.0:
            print("FAIL: packed cover evaluation lost its >=3x speedup")
            return 1
        if micro["simulate_speedup"] < 3.0:
            print("FAIL: packed simulation lost its >=3x speedup")
            return 1
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
