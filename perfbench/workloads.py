"""The four workloads: set-up, the timed closed loop, and output checks.

Each workload function takes ``(seed, seconds, tracer, setups)`` and
returns a :class:`Run` of raw timing intervals and the speed probes taken
between them; :meth:`Run.finalize` scales the intervals (see :mod:`speed`)
and :mod:`run` turns them into metrics.  The program is driven through its
public API only, and every call a traced run should see goes through a
module or class attribute looked up at call time, so :mod:`layers` can
wrap it.

Correctness is checked inside the command, against references the
compiler did not produce: every synthesized network is simulated against
its generated *source* network, distributed output must be byte-identical
to a serial run (itself verified against the source), and daemon results
are re-parsed and re-verified by the benchmark, not trusted for their
``verified`` flag alone.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import inputs
from repro.core import synthesis, verify
from repro.core.area import network_stats
from repro.engine import scheduler
from repro.engine.store import ResultStore
from repro.io.blif import to_blif
from repro.io.thblif import parse_thblif, to_thblif
from repro.network import scripts
from repro.serve.app import ServeApp
from repro.serve.client import ServeClientError, TelsClient
from repro.serve.worker import start_worker_thread
from speed import SpeedLog, Unscaled

#: Checks after the timed loop use the unwrapped verifier, so they never
#: show up in a traced run's layer times.
reference_verify = verify.verify_threshold_network

#: Closed-loop clients of the daemon, and remote workers of the
#: distributed workload (the machine has two cores).
CLIENTS = 2
WORKERS = 2

Interval = tuple[float, float]


@dataclass
class Run:
    """One workload invocation: raw intervals, then scaled samples."""

    unit: int  # circuits (or jobs) per pass
    #: The timed loop mostly waits on poll intervals: do not speed-scale it.
    poll_bound: bool = False
    #: Too few timed circuits for a tail with ten samples beyond p90:
    #: circuit percentiles are taken over each circuit's mean time across
    #: the passes.  Over all timed circuits, the distributed median spread
    #: by 21-26% over ten seeds (one circuit's time swings 2x between
    #: passes with the poll phase); over per-circuit means, by 9-18%.
    by_circuit: bool = False
    #: Foreground speed probes, taken between the measured intervals.
    speed: SpeedLog = field(default_factory=SpeedLog)
    #: Set-up batches: (start, end, seconds per set-up).
    setups: list[tuple[float, float, float]] = field(default_factory=list)
    circuits: list[Interval] = field(default_factory=list)
    names: list[str] = field(default_factory=list)  # one per timed circuit
    passes: list[range] = field(default_factory=list)
    jobs: list[Interval] = field(default_factory=list)
    server_s: list[float] = field(default_factory=list)
    loop: Interval = (0.0, 0.0)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Exact per-pass counts; every pass of a run must agree.
    exact: list[dict] = field(default_factory=list)
    #: Workload-specific extras for the traced run.
    extra: dict = field(default_factory=dict)
    # Filled by finalize(), in seconds at the speed it was given.
    setup_s: list[float] = field(default_factory=list)
    pass_walls: list[float] = field(default_factory=list)
    circuit_s: list[float] = field(default_factory=list)
    job_s: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    completed: int = 0
    elapsed: float = 0.0
    #: The daemon's loop time without the benchmark's own probes (raw).
    loop_s: float = 0.0
    #: Peak RSS of the process when the timed loop ended (before teardown).
    peak_rss_mb: float = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def totals(self) -> dict:
        return self.exact[0] if self.exact else {}

    def finalize(self, speed) -> "Run":
        """Scale every interval by ``speed`` (:class:`Unscaled` for raw).

        May be called again with another ``speed``; each call replaces
        the samples of the one before.
        """
        loop_speed = Unscaled() if self.poll_bound else speed
        self.setup_s = [each * speed.scale(s, e) for s, e, each in self.setups]
        self.scales = [loop_speed.scale(s, e) for s, e in self.circuits]
        scaled = [(e - s) * k for (s, e), k in zip(self.circuits, self.scales)]
        self.pass_walls = [
            sum(scaled[i] for i in members) for members in self.passes
        ]
        self.circuit_s = self.job_s = scaled
        if self.by_circuit:
            times: dict[str, list[float]] = {}
            for name, seconds in zip(self.names, scaled):
                times.setdefault(name, []).append(seconds)
            self.circuit_s = self.job_s = [
                statistics.mean(each) for each in times.values()
            ]
        self.completed = len(self.circuits)
        self.elapsed = sum(self.pass_walls)
        if self.jobs:  # the daemon: client-side jobs, no passes
            self.scales = [loop_speed.scale(s, e) for s, e in self.jobs]
            self.job_s = [(e - s) * k for (s, e), k in zip(self.jobs, self.scales)]
            self.circuit_s = [t * k for t, k in zip(self.server_s, self.scales)]
            self.completed = len(self.jobs)
            start, end = self.loop
            # The probes between job pairs are the benchmark's, not the
            # daemon's: they do not count against its throughput.
            self.loop_s = end - start - self.speed.probed_s(start, end)
            self.elapsed = self.loop_s * loop_speed.scale(start, end)
        return self


#: A set-up is timed in batches of at least this long, so that one of a
#: few milliseconds (wide) is not timed alone.
SETUP_BATCH_S = 0.1

#: Batches repeat until they have taken this long in total: with 0.5 s, the
#: median set-up of a bulk run still spread by 26% over ten seeds, since
#: three batches fell into whatever speed phase the machine was in.
SETUP_TOTAL_S = 1.0

#: Speed probes before each compiled circuit and each batch of set-ups.  A
#: wide circuit runs for seconds, so the probes on either side of it are
#: the only ones its scale sees, and one probe alone varies by about 30%.
PROBES = 3


def _timed_setups(run: Run, make, teardown, setups: int):
    """Time ``make`` in at least ``setups`` batches, for ``SETUP_TOTAL_S``.

    A batch repeats ``make`` until it has taken ``SETUP_BATCH_S`` and
    records the mean time of one set-up; speed probes run before each
    batch, and tear-downs are not timed.  The last state is kept; the
    others are torn down.
    """
    state = None
    total = 0.0
    while len(run.setups) < setups or total < SETUP_TOTAL_S:
        for _ in range(PROBES):
            run.speed.probe()
        first = time.perf_counter()
        batch, count = 0.0, 0
        while count == 0 or batch < SETUP_BATCH_S:
            if state is not None:
                teardown(state)
            start = time.perf_counter()
            state = make()
            batch += time.perf_counter() - start
            count += 1
        run.setups.append((first, time.perf_counter(), batch / count))
        total += batch
    return state


def _passes(run: Run, seconds: float, body, min_passes: int) -> None:
    """Repeat ``body`` (one pass) while another pass fits in ``seconds``.

    A pass is indivisible, so at least ``min_passes`` run even when that
    outlasts ``seconds``: the wide pass takes ~18 s, and the distributed
    one, timed by poll intervals, needs three passes to be steady.
    """
    start = time.perf_counter()
    while True:
        counts: Counter = Counter()
        first = len(run.circuits)
        pass_start = time.perf_counter()
        body(counts)
        wall = time.perf_counter() - pass_start
        run.passes.append(range(first, len(run.circuits)))
        run.exact.append(dict(counts))
        over = time.perf_counter() - start + wall > seconds
        if over and len(run.passes) >= min_passes:
            break
    run.peak_rss_mb = _peak_rss_mb()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _record_network(counts: Counter, network) -> None:
    stats = network_stats(network)
    counts["gates"] += stats.gates
    counts["area"] += stats.area
    counts["levels"] += stats.levels


# ----------------------------------------------------------------------
# bulk and wide: prepare -> synthesize -> verify, one fresh store each
# ----------------------------------------------------------------------
def _compile(circuit):
    prepared = scripts.prepare_tels(circuit.network)
    network, report = synthesis.synthesize_with_report(
        prepared,
        synthesis.SynthesisOptions(**circuit.options),
        store=ResultStore(),
    )
    ok = verify.verify_threshold_network(circuit.network, network)
    return prepared, network, report, ok


def _quiesce(run: Run) -> None:
    """Between measured intervals: collect garbage, then probe the speed.

    Each interval then starts from a collected heap, so it pays for the
    collections its own allocations trigger, not for the garbage of the
    circuits before it.
    """
    gc.collect()
    for _ in range(PROBES):
        run.speed.probe()


def _compile_passes(seed, seconds, tracer, setups, generate, by_circuit) -> Run:
    """Passes of prepare -> synthesize -> verify; at least two of them.

    The first circuit is compiled once, untimed, before the first pass:
    the program imports some modules on first use (the wide workload's
    first ILP imports scipy), which made the first circuit of a run up to
    2.7x slower than the same circuit a pass later.
    """
    run = Run(unit=0, by_circuit=by_circuit)
    circuits = _timed_setups(run, lambda: generate(seed), lambda _s: None, setups)
    run.unit = len(circuits)
    _compile(circuits[0])

    def one_pass(counts: Counter) -> None:
        for circuit in circuits:
            run.attempted += 1
            _quiesce(run)
            with tracer.span("circuit"):
                start = time.perf_counter()
                try:
                    prepared, network, report, ok = _compile(circuit)
                except Exception as exc:  # one bad circuit must not end the run
                    run.fail(f"{circuit.name}: {type(exc).__name__}: {exc}")
                    continue
                run.circuits.append((start, time.perf_counter()))
                run.names.append(circuit.name)
            if not ok:
                run.fail(f"{circuit.name}: not equivalent to its source")
            if report.degraded_cones:
                run.fail(f"{circuit.name}: {report.degraded_cones} degraded")
            _record_network(counts, network)
            counts["nodes_out"] += prepared.num_nodes
            counts["literals_out"] += prepared.num_literals()
            counts["cones"] += report.trace.num_tasks
            counts["checker_calls"] += report.checker.stats.calls
            counts["ilp_solves"] += report.checker.stats.ilp_solved

    tracer.activate()
    try:
        _passes(run, seconds, one_pass, min_passes=2)
    finally:
        tracer.deactivate()
    return run


def bulk(seed: int, seconds: float, tracer, setups: int) -> Run:
    return _compile_passes(
        seed, seconds, tracer, setups, inputs.bulk_inputs, by_circuit=False
    )


def wide(seed: int, seconds: float, tracer, setups: int) -> Run:
    return _compile_passes(
        seed, seconds, tracer, setups, inputs.wide_inputs, by_circuit=True
    )


# ----------------------------------------------------------------------
# daemon: two closed-loop clients against an in-process `tels serve`
# ----------------------------------------------------------------------
#: The daemon keeps every job and the run keeps every reply, so memory
#: grows with the number of jobs run (96 MB after 94 jobs, 128 MB after
#: 160): its peak RSS is read once this many rounds of the mix are done,
#: about 13 s into the loop on a 2-vCPU machine.
RSS_ROUNDS = 4

#: Fewest rounds of the mix a daemon run measures, so that job_ms_p90 has
#: at least ten samples beyond it (6 x 18 = 108 jobs) on a slow machine too.
MIN_ROUNDS = 6


def daemon(seed: int, seconds: float, tracer, setups: int, out_dir: Path) -> Run:
    def make():
        circuits = inputs.daemon_inputs(seed)
        blifs = [to_blif(c.network) for c in circuits]
        tmp = Path(tempfile.mkdtemp(prefix="daemon-", dir=out_dir))
        app = ServeApp(
            port=0,
            cache_dir=str(tmp / "cache"),
            journal_dir=str(tmp / "journal"),
        )
        app.start_background()
        return circuits, blifs, app, tmp

    def teardown(state) -> None:
        _circuits, _blifs, app, tmp = state
        app.shutdown()
        shutil.rmtree(tmp, ignore_errors=True)

    run = Run(unit=0)
    state = _timed_setups(run, make, teardown, setups)
    circuits, blifs, app, _tmp = state
    run.unit = len(circuits)
    lock = threading.Lock()
    order = inputs.daemon_order(seed, len(circuits))
    records: list[dict] = []
    start = time.perf_counter()
    # The clients submit in lock-step pairs: a job's latency depends on the
    # job it shares the daemon with, and free-running clients overlap
    # arbitrary parts of two jobs, which moved the median latency of one
    # seed by up to 2x per circuit between runs.
    pair: list[int] = []
    issued = [0]

    def next_pair() -> None:
        # Runs while both clients wait and the daemon is idle, so the speed
        # probe overlaps no job.  The loop ends only after a whole round of
        # the mix, so every circuit has run equally often and the latency
        # percentiles do not depend on which circuits a partial last round
        # happened to hold.
        pair.clear()
        if not run.peak_rss_mb and len(records) >= RSS_ROUNDS * len(circuits):
            run.peak_rss_mb = _peak_rss_mb()
        in_round = issued[0] % len(circuits)
        too_few = issued[0] < MIN_ROUNDS * len(circuits)
        if time.perf_counter() - start < seconds or in_round or too_few:
            run.speed.probe()
            pair.extend(next(order) for _ in range(CLIENTS))
            issued[0] += CLIENTS

    barrier = threading.Barrier(CLIENTS, action=next_pair)

    def client_loop(slot: int) -> None:
        client = TelsClient(app.url)
        while True:
            try:
                barrier.wait(timeout=120.0)
            except threading.BrokenBarrierError:
                return
            if not pair:
                return
            index = pair[slot]
            name = circuits[index].name
            with lock:
                run.attempted += 1
            t0 = time.perf_counter()
            try:
                # Latency runs from submit until the NDJSON stream closes
                # and the result is fetched: no status polling, so the
                # figure is not rounded up to a poll interval.
                job_id = client.submit(blifs[index], name=name)["id"]
                events = list(client.events(job_id))
                result = client.result(job_id)
            except ServeClientError as exc:
                with lock:
                    run.fail(f"{name}: {exc}")
                continue
            except Exception as exc:
                # A broken stream or reply ends this client and, through
                # the barrier, the other one; the request still counts.
                with lock:
                    run.fail(f"{name}: {type(exc).__name__}: {exc}")
                barrier.abort()
                return
            done = time.perf_counter()
            with lock:
                records.append(
                    {
                        "circuit": name,
                        "job": job_id,
                        "interval": (t0, done),
                        "events": events,
                        "result": result,
                    }
                )

    threads = [
        threading.Thread(
            target=client_loop, args=(i,), name=f"bench-client-{i}"
        )
        for i in range(CLIENTS)
    ]
    tracer.activate()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        tracer.deactivate()
    # A run whose jobs failed may not reach RSS_ROUNDS: read it at the end.
    run.peak_rss_mb = run.peak_rss_mb or _peak_rss_mb()
    try:
        snapshots = {s["id"]: s for s in TelsClient(app.url).jobs()}
    finally:
        teardown(state)

    unaccounted = run.attempted - len(records) - run.failed
    if unaccounted:
        run.fail(f"{unaccounted} requests neither completed nor failed")
    run.loop = (start, max((r["interval"][1] for r in records), default=start))
    by_circuit: dict[str, dict] = {}
    early_closes = 0
    for record in records:
        result = record["result"]
        name = record["circuit"]
        run.jobs.append(record["interval"])
        run.server_s.append(result.get("wall_s", 0.0))
        # The result endpoint answers only once the job is ``done``.  The
        # event stream can close just before its terminal event is
        # published (the stream sees the state flip first); that is
        # counted and reported, not treated as a failed job.
        last = record["events"][-1] if record["events"] else {}
        if last.get("event") != "job-done":
            early_closes += 1
        if not result.get("verified"):
            run.fail(f"{name}: result not verified")
        elif result.get("synthesis", {}).get("degraded_cones"):
            run.fail(f"{name}: degraded cones")
        network = result.get("network", {})
        first = by_circuit.setdefault(name, network)
        if network.get("thblif") != first.get("thblif"):
            run.fail(f"{name}: result differs between submissions")
    sources = {c.name: c.network for c in circuits}
    counts: Counter = Counter()
    for name, network in by_circuit.items():
        if not reference_verify(sources[name], parse_thblif(network["thblif"])):
            run.fail(f"{name}: result not equivalent to its source")
        for key in ("gates", "area", "levels"):
            counts[key] += network[key]
    missing = set(sources) - set(by_circuit)
    if missing:
        run.fail(f"mix not completed once: {sorted(missing)}")
    run.exact.append(dict(counts))
    run.extra = {
        "records": records,
        "snapshots": snapshots,
        "clients": CLIENTS,
        "early_closes": early_closes,
    }
    return run


# ----------------------------------------------------------------------
# distributed: run_synthesis(distribute=url) with two in-process workers
# ----------------------------------------------------------------------
def distributed(seed: int, seconds: float, tracer, setups: int) -> Run:
    options = synthesis.SynthesisOptions(psi=3)

    def make():
        circuits = inputs.distributed_inputs(seed)
        prepared = [scripts.prepare_tels(c.network) for c in circuits]
        serial = [scheduler.run_synthesis(p, options) for p in prepared]
        app = ServeApp(port=0)
        app.start_background()
        workers = [
            start_worker_thread(app.url, worker_id=f"bench-w{i}")
            for i in range(WORKERS)
        ]
        return circuits, prepared, serial, app, workers

    def teardown(state) -> None:
        *_rest, app, workers = state
        for _thread, stop in workers:
            stop.set()
        for thread, _stop in workers:
            thread.join(timeout=10.0)
        app.shutdown()
        if any(thread.is_alive() for thread, _stop in workers):
            raise RuntimeError("a remote worker thread did not stop")

    # Passes are not speed-scaled: they mostly wait on the broker's poll
    # intervals, not on computation.
    run = Run(unit=0, poll_bound=True, by_circuit=True)
    state = _timed_setups(run, make, teardown, setups)
    circuits, prepared, serial, app, _workers = state
    run.unit = len(circuits)
    try:
        expected = []
        for circuit, outcome in zip(circuits, serial):
            if not reference_verify(circuit.network, outcome.network):
                run.fail(f"{circuit.name}: serial reference not equivalent")
            expected.append(to_thblif(outcome.network))
        before = _distributed_counters(app)

        def one_pass(counts: Counter) -> None:
            for circuit, network, text in zip(circuits, prepared, expected):
                run.attempted += 1
                with tracer.span("circuit"):
                    start = time.perf_counter()
                    try:
                        outcome = scheduler.run_synthesis(
                            network, options, distribute=app.url
                        )
                    except Exception as exc:
                        run.fail(f"{circuit.name}: {type(exc).__name__}: {exc}")
                        continue
                    run.circuits.append((start, time.perf_counter()))
                    run.names.append(circuit.name)
                trace = outcome.trace
                if to_thblif(outcome.network) != text:
                    run.fail(f"{circuit.name}: differs from the serial run")
                if outcome.report.degraded_cones or trace.remote_fallback_tasks:
                    run.fail(f"{circuit.name}: degraded or fell back locally")
                _record_network(counts, outcome.network)
                counts["cones"] += trace.num_tasks
                counts["checker_calls"] += outcome.report.checker.stats.calls

        tracer.activate()
        try:
            _passes(run, seconds, one_pass, min_passes=3)
        finally:
            tracer.deactivate()
        after = _distributed_counters(app)
        run.extra = {key: after[key] - before[key] for key in after}
        run.extra["workers"] = WORKERS
    finally:
        teardown(state)
    return run


def _distributed_counters(app) -> dict:
    stats = app.manager.stats()
    work = stats["work"]
    cache = stats["network_cache"]
    return {
        "lease_expirations": work["lease_expirations"],
        "duplicate_results": work["duplicate_results"],
        "cache_hits": cache["hits"],
        "fingerprint_rejects": cache["fingerprint_rejects"],
    }
