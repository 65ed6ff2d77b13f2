"""The traced run's layer map: what is wrapped, and the per-layer metrics.

Each layer is a public entry point wrapped at the site its caller looks it
up (see :mod:`spans`).  Times are self times (a layer's span minus its
wrapped children), reported per pass: one pass over the circuits for
bulk, wide and distributed, one round of the job mix for the daemon.  A
pass's traced wall time is the sum of its circuit spans, which the
workloads open around each timed circuit, just as ``wall_s`` sums the
circuits' intervals; the speed probes between circuits lie outside it.
"""

from __future__ import annotations

import statistics

#: per-layer metric -> span name whose self time it reports.
SELF_TIMES = {
    "network.transform.self_s": "network.transform",
    "network.transform.simplify_s": "network.transform.simplify",
    "network.transform.eliminate_s": "network.transform.eliminate",
    "network.transform.extract_cubes_s": "network.transform.extract_cubes",
    "core.collapse.self_s": "core.collapse",
    "core.identify.self_s": "core.identify",
    "ilp.self_s": "ilp",
    "engine.store.flush_s": "engine.store.flush",
    "lint.cone_s": "lint.cone",
    "lint.network_s": "lint.network",
    "analysis.self_s": "analysis",
    "core.verify.self_s": "core.verify",
    "engine.scheduler.self_s": "engine.scheduler",
    "io.blif_parse_s": "io.blif_parse",
    "serve.schemas.render_s": "serve.schemas.render",
    "serve.journal.append_s": "serve.journal.append",
    "engine.remote.wait_s": "engine.remote.wait",
}

#: per-layer metric -> span name whose call count it reports.
CALLS = {
    "network.transform.calls": "network.transform",
    "core.collapse.calls": "core.collapse",
    "core.identify.calls": "core.identify",
    "ilp.solves": "ilp",
    "lint.cone_calls": "lint.cone",
    "lint.network_calls": "lint.network",
}

#: per-layer metric -> counter folded by a wrapper (summed per pass).
COUNTERS = {
    "network.transform.nodes_out": "nodes_out",
    "network.transform.literals_out": "literals_out",
    "ilp.exact_solves": "exact_solves",
    "ilp.scipy_solves": "scipy_solves",
    "ilp.presolve_rows_removed": "presolve_rows_removed",
    "engine.store.analysis_hits": "analysis_hits",
    "engine.store.persistent_hits": "persistent_hits",
    "engine.store.entries": "store_entries",
    "lint.findings": "lint_findings",
    "analysis.verified_removals": "verified_removals",
    "engine.scheduler.cones": "cones",
    "engine.remote.fallback_tasks": "fallback_tasks",
    "serve.broker.claims": "claims",
}

PER_LAYER = (
    list(SELF_TIMES)
    + list(CALLS)
    + list(COUNTERS)
    + [
        "core.identify.store_hit_ratio",
        "core.identify.fastpath_ratio",
        "engine.store.vector_hit_ratio",
        "serve.jobs.queue_wait_ms_p50",
        "serve.jobs.run_ms_p50",
        "serve.jobs.events_per_job",
        "serve.app.overhead_ms_p50",
        "serve.broker.claim_hit_ratio",
        "serve.broker.lease_expirations",
        "serve.broker.duplicate_results",
        "serve.worker.busy_s",
        "serve.worker.idle_s",
        "cache.network.hits",
        "cache.network.rejects",
        "trace.unattributed_s",
        "trace.overhead_ratio",
    ]
)


def unit_of(metric: str) -> str:
    if metric.endswith("_ms_p50"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def install(tracer) -> None:
    """Wrap every layer entry point at its import site."""
    import repro.analysis as analysis
    import repro.core.identify as identify
    import repro.core.verify as verify
    import repro.engine.cone as cone
    import repro.engine.scheduler as scheduler
    import repro.io.blif as blif
    import repro.lint.runner as runner
    import repro.network.scripts as scripts
    import repro.serve.jobs as jobs
    from repro.core.identify import ThresholdChecker
    from repro.engine.remote import RemoteExecutor
    from repro.engine.store import ResultStore
    from repro.serve.broker import WorkBroker
    from repro.serve.journal import JobJournal
    from repro.serve.worker import Worker

    count = tracer.count

    def prepared(network, _args, _kwargs, _state) -> None:
        count("nodes_out", network.num_nodes)
        count("literals_out", network.num_literals())

    tracer.wrap(scripts, "prepare_tels", "network.transform", after=prepared)
    for sub in ("simplify", "eliminate", "extract_cubes"):
        tracer.wrap(scripts, sub, f"network.transform.{sub}")
    tracer.wrap(cone, "collapse_node", "core.collapse")
    tracer.wrap(ThresholdChecker, "check_function", "core.identify")
    tracer.wrap(identify, "solve_ilp_info", "ilp")
    tracer.wrap(ResultStore, "flush_persistent", "engine.store.flush")
    tracer.wrap(
        cone,
        "lint_gates",
        "lint.cone",
        after=lambda found, *_: count("lint_findings", len(found)),
    )
    tracer.wrap(
        runner,
        "run_lint",
        "lint.network",
        after=lambda report, *_: count("lint_findings", len(report.diagnostics)),
    )
    tracer.wrap(
        analysis,
        "analyze_threshold_network",
        "analysis",
        after=lambda result, *_: count(
            "verified_removals", len(result.verified_findings)
        ),
    )
    tracer.wrap(verify, "verify_threshold_network", "core.verify")

    def store_before(_args, kwargs):
        store = kwargs.get("store")
        if store is None:
            return None
        return store.stats.snapshot(), len(store)

    def engine_done(result, _args, _kwargs, state) -> None:
        stats = result.report.checker.stats
        for name in (
            "calls",
            "cache_hits",
            "fastpath_hits",
            "fastpath_negatives",
            "fastpath_misses",
            "exact_solves",
            "scipy_solves",
            "presolve_rows_removed",
        ):
            count(name, getattr(stats, name))
        store = result.store.stats
        entries = len(result.store)
        if state is not None:
            store = store.since(state[0])
            entries -= state[1]
        count("store_entries", entries)
        for name in (
            "vector_hits",
            "vector_misses",
            "analysis_hits",
            "persistent_hits",
            "transform_rejects",
        ):
            count(name, getattr(store, name))
        count("cones", result.trace.num_tasks)
        count("fallback_tasks", result.trace.remote_fallback_tasks)

    tracer.wrap(
        scheduler,
        "run_synthesis",
        "engine.scheduler",
        before=store_before,
        after=engine_done,
    )
    tracer.wrap(blif, "parse_blif", "io.blif_parse")
    tracer.wrap(jobs, "report_to_dict", "serve.schemas.render")
    tracer.wrap(JobJournal, "append", "serve.journal.append")

    def claimed(reply, *_) -> None:
        count("claims")
        count("claim_hits", 1 if reply.get("tasks") else 0)

    tracer.wrap(WorkBroker, "claim", "serve.broker.claim", after=claimed)
    tracer.wrap(Worker, "_handle_batch", "serve.worker.busy")
    tracer.wrap(RemoteExecutor, "wait", "engine.remote.wait")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload: str, tracer, traced, untraced):
    """Per-layer metrics, the stage table and its wall time (per pass).

    The table's rows plus ``unattributed`` sum to the wall time; rows
    marked concurrent (distributed worker threads) are listed apart.
    ``traced`` and ``untraced`` are the two finalized halves of the run.
    """
    counters = tracer.counters
    if workload == "daemon":
        units = traced.completed / traced.unit
    else:
        units = len(traced.pass_walls)
    units = units or 1.0
    layer_self = tracer.layer_self()
    values: dict[str, float] = {}
    for metric, span in SELF_TIMES.items():
        values[metric] = layer_self.get(span, 0.0) / units
    for metric, span in CALLS.items():
        values[metric] = len(tracer.durations(span)) / units
    for metric, counter in COUNTERS.items():
        values[metric] = counters[counter] / units
    values["core.identify.store_hit_ratio"] = _ratio(
        counters["cache_hits"], counters["calls"]
    )
    values["core.identify.fastpath_ratio"] = _ratio(
        counters["fastpath_hits"] + counters["fastpath_negatives"],
        counters["fastpath_hits"]
        + counters["fastpath_negatives"]
        + counters["fastpath_misses"],
    )
    values["engine.store.vector_hit_ratio"] = _ratio(
        counters["vector_hits"],
        counters["vector_hits"] + counters["vector_misses"],
    )
    values["serve.broker.claim_hit_ratio"] = _ratio(
        counters["claim_hits"], counters["claims"]
    )
    for metric in (
        "serve.jobs.queue_wait_ms_p50",
        "serve.jobs.run_ms_p50",
        "serve.jobs.events_per_job",
        "serve.app.overhead_ms_p50",
        "serve.broker.lease_expirations",
        "serve.broker.duplicate_results",
        "serve.worker.busy_s",
        "serve.worker.idle_s",
        "cache.network.hits",
        "cache.network.rejects",
    ):
        values[metric] = 0.0

    if workload == "daemon":
        table, unattributed, wall = _daemon_table(tracer, traced, values, units)
        overhead = _ratio(
            statistics.median(traced.job_s), statistics.median(untraced.job_s)
        )
    else:
        table, unattributed = _pass_table(tracer, units)
        wall = sum(tracer.durations("circuit")) / units
        overhead = _ratio(
            statistics.median(traced.pass_walls),
            statistics.median(untraced.pass_walls),
        )
    if workload == "distributed":
        busy = sum(tracer.durations("serve.worker.busy"))
        extra = traced.extra
        values["serve.worker.busy_s"] = busy / units
        values["serve.worker.idle_s"] = (
            extra["workers"] * sum(traced.pass_walls) - busy
        ) / units
        values["serve.broker.lease_expirations"] = (
            extra["lease_expirations"] / units
        )
        values["serve.broker.duplicate_results"] = (
            extra["duplicate_results"] / units
        )
        values["cache.network.hits"] = extra["cache_hits"] / units
        values["cache.network.rejects"] = (
            extra["fingerprint_rejects"] + counters["transform_rejects"]
        ) / units
        on_workers = tracer.layer_self(
            lambda root: root.name == "serve.worker.busy"
        )
        on_workers["serve.worker.busy (self)"] = on_workers.pop(
            "serve.worker.busy", 0.0
        )
        for name, seconds in sorted(on_workers.items(), key=lambda kv: -kv[1]):
            table.append((name, seconds / units, True))
        table.append(("serve.worker.idle", values["serve.worker.idle_s"], True))
    values["trace.unattributed_s"] = unattributed
    values["trace.overhead_ratio"] = overhead
    return values, table, wall


def _pass_table(tracer, units) -> tuple[list, float]:
    """Self times under the benchmark's circuit spans: they sum to the wall."""
    under = tracer.layer_self(lambda root: root.name == "circuit")
    unattributed = under.pop("circuit", 0.0) / units
    rows = [
        (name, seconds / units, False)
        for name, seconds in sorted(under.items(), key=lambda kv: -kv[1])
    ]
    rows.append(("unattributed", unattributed, False))
    return rows, unattributed


def _daemon_table(tracer, traced, values, units) -> tuple[list, float, float]:
    """Client time per round: queueing, server layers, serve overhead.

    Server layers are the self times of spans on the job-manager threads
    (journal appends excluded: they straddle the queue and overhead
    windows).  The residual against the round's wall time, per client,
    is unattributed: the run's own bookkeeping and client gaps.
    """
    records = traced.extra["records"]
    snapshots = traced.extra["snapshots"]
    queue_ms, run_ms, overhead_ms, events = [], [], [], []
    for record in records:
        snap = snapshots.get(record["job"], {})
        if "started_at" not in snap or "finished_at" not in snap:
            continue
        queue = snap["started_at"] - snap["submitted_at"]
        run = snap["finished_at"] - snap["started_at"]
        queue_ms.append(1000 * queue)
        run_ms.append(1000 * run)
        latency = record["interval"][1] - record["interval"][0]
        overhead_ms.append(1000 * (latency - queue - run))
        events.append(len(record["events"]))
    median = statistics.median
    if records:
        values["serve.jobs.queue_wait_ms_p50"] = median(queue_ms)
        values["serve.jobs.run_ms_p50"] = median(run_ms)
        values["serve.app.overhead_ms_p50"] = median(overhead_ms)
        values["serve.jobs.events_per_job"] = sum(events) / len(events)
    clients = units * traced.extra["clients"]
    wall = traced.loop_s / units
    server = tracer.layer_self(
        lambda root: root.thread.startswith("tels-job-")
        and root.name != "serve.journal.append"
    )
    rows = [("serve.jobs.queue_wait", sum(queue_ms) / 1000 / clients, False)]
    rows += [
        (name, seconds / clients, False)
        for name, seconds in sorted(server.items(), key=lambda kv: -kv[1])
    ]
    rows.append(
        ("serve.app.overhead", sum(overhead_ms) / 1000 / clients, False)
    )
    unattributed = wall - sum(row[1] for row in rows)
    rows.append(("unattributed", unattributed, False))
    return rows, unattributed, wall
