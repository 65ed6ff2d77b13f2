"""One counter record per cone, folded once into the run's counters.

Each cone counts its threshold checks and store lookups into its own
``CheckStats``/``StoreStats`` record; the scheduler folds every registered
cone's records into ``report.checker.stats`` and ``store.stats`` exactly
once, the same way on every backend.  These tests pin the consequences:
the records add up to the run's counters on every backend, a degraded
cone's fallback is counted in its own record, a failed attempt counts
nowhere, and a lookup someone else makes on a shared store never lands
in this run's numbers.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import fields

import pytest

import repro.engine.cone as cone_mod
import repro.engine.remote as remote_mod
from repro.benchgen.extended import build_extended_benchmark
from repro.boolean.cover import Cover
from repro.core.identify import CheckStats, ThresholdChecker
from repro.core.synthesis import SynthesisOptions
from repro.engine.scheduler import run_synthesis
from repro.engine.store import ResultStore, StoreStats
from repro.errors import TransientError
from repro.io.thblif import to_thblif
from repro.network.scripts import prepare_tels
from repro.serve.app import ServeApp
from repro.serve.schemas import report_to_dict
from repro.serve.worker import start_worker_thread

#: Counters that depend only on the cones, never on who ran them.
EXECUTOR_FREE = (
    "nodes_processed",
    "gates_emitted",
    "binate_splits",
    "unate_splits",
    "kway_splits",
    "and_factor_splits",
    "theorem2_applications",
)
INT_CHECK_FIELDS = [
    f.name for f in fields(CheckStats) if not f.name.endswith("_wall_s")
]


def prepared(name: str):
    return prepare_tels(build_extended_benchmark(name))


def assert_records_fold_to_run(result) -> None:
    """The cones' records sum to the run's checker and store counters."""
    check, store = result.trace.folded()
    for name in INT_CHECK_FIELDS:
        assert getattr(check, name) == getattr(
            result.report.checker.stats, name
        ), name
    assert store == result.store.stats


@pytest.fixture
def daemon():
    app = ServeApp(port=0)
    app.start_background()
    try:
        yield app
    finally:
        app.shutdown()


class TestCounterIdentity:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_synthesis(prepared("comp"), SynthesisOptions())

    def _assert_matches_serial(self, result, serial) -> None:
        assert_records_fold_to_run(result)
        assert to_thblif(result.network) == to_thblif(serial.network)
        assert (
            result.report.checker.stats.calls
            == serial.report.checker.stats.calls
        )
        for name in EXECUTOR_FREE:
            assert getattr(result.report, name) == getattr(
                serial.report, name
            ), name

    def test_serial(self, serial):
        assert serial.report.checker.stats.calls > 0
        assert_records_fold_to_run(serial)

    def test_process_pool(self, serial):
        pooled = run_synthesis(prepared("comp"), SynthesisOptions(), jobs=2)
        assert pooled.trace.backend == "process"
        self._assert_matches_serial(pooled, serial)

    def test_two_remote_workers(self, serial, daemon):
        workers = [
            start_worker_thread(daemon.url, worker_id=f"w{i}")
            for i in range(2)
        ]
        try:
            remote = run_synthesis(
                prepared("comp"), SynthesisOptions(), distribute=daemon.url
            )
        finally:
            for _thread, stop in workers:
                stop.set()
            for thread, _stop in workers:
                thread.join(timeout=5.0)
        assert remote.trace.remote_fallback_tasks == 0
        self._assert_matches_serial(remote, serial)

    def test_remote_local_fallback(self, serial, daemon, monkeypatch):
        monkeypatch.setattr(remote_mod, "DEFAULT_WORKER_WAIT_S", 0.2)
        fallback = run_synthesis(
            prepared("comp"), SynthesisOptions(), distribute=daemon.url
        )
        assert fallback.trace.backend == "remote"
        trace = fallback.trace
        assert trace.remote_fallback_tasks == trace.num_tasks
        self._assert_matches_serial(fallback, serial)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", ["cm85a", "comp"])
def test_degraded_cones_count_their_fallback(name, jobs):
    result = run_synthesis(
        prepared(name), SynthesisOptions(deadline_total_s=1e-6), jobs=jobs
    )
    assert result.report.degraded_cones == result.trace.num_tasks > 0
    assert result.report.checker.stats.calls > 0
    assert_records_fold_to_run(result)
    cache = report_to_dict(result.network, result.report, True, 0.0)["cache"]
    assert cache["checker_calls"] == result.report.checker.stats.calls


def test_failed_attempt_counts_nowhere(monkeypatch):
    clean = run_synthesis(prepared("comp"), SynthesisOptions())
    real_check = ThresholdChecker.check
    failed: list[bool] = []

    def check_then_fail(self, cover):
        # The run's first check completes (and is counted in its cone's
        # record), then its cone attempt fails and is retried.
        vector = real_check(self, cover)
        if not failed:
            failed.append(True)
            raise TransientError("injected failure after a check")
        return vector

    monkeypatch.setattr(ThresholdChecker, "check", check_then_fail)
    retried = run_synthesis(
        prepared("comp"), SynthesisOptions(retry_backoff_s=0.001)
    )
    assert failed and retried.trace.retries == 1
    assert_records_fold_to_run(retried)
    assert (
        retried.report.checker.stats.calls == clean.report.checker.stats.calls
    )
    assert to_thblif(retried.network) == to_thblif(clean.network)


def test_shared_store_lookups_stay_out_of_the_run(tmp_path, monkeypatch):
    # Warm the persistent tier with another circuit, then make one lookup
    # of one of its keys from inside this run, as a concurrent job on the
    # same store would.
    run_synthesis(
        prepared("cm152a"), SynthesisOptions(), cache_dir=str(tmp_path)
    )
    checker = ThresholdChecker()
    foreign_key = checker.model.store_key(
        Cover.from_strings(["11"]).canonical_key(), 0, 1, None
    )
    store = ResultStore.with_cache_dir(str(tmp_path))
    real_collapse = cone_mod.collapse_node
    looked_up: list[bool] = []

    def collapse_and_look(*args, **kwargs):
        if not looked_up:
            looked_up.append(True)
            store.get_vector(foreign_key)
        return real_collapse(*args, **kwargs)

    monkeypatch.setattr(cone_mod, "collapse_node", collapse_and_look)
    result = run_synthesis(prepared("cm85a"), SynthesisOptions(), store=store)
    assert looked_up
    _check, records = result.trace.folded()
    cache = report_to_dict(result.network, result.report, True, 0.0)["cache"]
    assert (
        cache["persistent_hits"] + cache["persistent_misses"]
        == records.persistent_lookups
    )
    assert store.stats.persistent_lookups == records.persistent_lookups + 1
    assert store.stats.vector_lookups == records.vector_lookups + 1


def test_concurrent_folds_into_one_store_lose_no_counts():
    # Daemon job threads fold their cones into one shared store.
    store = ResultStore()
    record = StoreStats(vector_hits=1, vector_misses=2, persistent_hits=3)
    threads_n, folds_n = 4, 5000

    def fold_many() -> None:
        for _ in range(folds_n):
            store.fold_stats(record)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=fold_many) for _ in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    folds = threads_n * folds_n
    assert store.stats == StoreStats(
        vector_hits=folds, vector_misses=2 * folds, persistent_hits=3 * folds
    )


@pytest.mark.parametrize("name", ["comp", "cm85a", "parmix"])
def test_trace_wall_covers_the_post_passes(name):
    trace = run_synthesis(
        prepared(name), SynthesisOptions(analyze=True)
    ).trace
    assert trace.network_analysis_s > 0
    assert trace.wall_s >= (
        trace.total("wall_s")
        + trace.network_lint_s
        + trace.network_analysis_s
    )
