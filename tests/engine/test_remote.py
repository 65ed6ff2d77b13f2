"""Distributed synthesis: byte-identity, worker death, graceful degradation."""

from __future__ import annotations

import threading
import time

import pytest

from repro.benchgen.paper_examples import MOTIVATIONAL_BLIF
from repro.core.synthesis import SynthesisOptions
from repro.engine.scheduler import run_synthesis
from repro.io.blif import parse_blif
from repro.io.thblif import to_thblif
from repro.network.scripts import prepare_tels
from repro.network.simulate import equivalent_threshold_networks
from repro.serve.app import ServeApp
from repro.serve.broker import WorkClient
from repro.serve.transport import HttpTransport
from repro.serve.worker import start_worker_thread

MULTI_CONE_BLIF = """\
.model fanout
.inputs a b c d
.outputs f g
.names a b x
11 1
.names c d y
00 1
.names x y f
1- 1
-1 1
.names x c g
10 1
.end
"""


def synth(
    blif: str,
    distribute: str | None = None,
    options: SynthesisOptions | None = None,
    **kwargs,
):
    prepared = prepare_tels(parse_blif(blif))
    return run_synthesis(
        prepared,
        options or SynthesisOptions(),
        distribute=distribute,
        **kwargs,
    )


@pytest.fixture
def daemon():
    app = ServeApp(port=0)
    app.start_background()
    try:
        yield app
    finally:
        app.shutdown()


def stop_workers(*pairs):
    for thread, stop in pairs:
        stop.set()
    for thread, _stop in pairs:
        thread.join(timeout=5.0)


class TestDistributedIdentity:
    def test_remote_run_matches_serial_byte_for_byte(self, daemon):
        serial = synth(MULTI_CONE_BLIF)
        w1 = start_worker_thread(daemon.url, worker_id="wA")
        w2 = start_worker_thread(daemon.url, worker_id="wB")
        try:
            remote = synth(MULTI_CONE_BLIF, distribute=daemon.url)
        finally:
            stop_workers(w1, w2)
        assert to_thblif(remote.network) == to_thblif(serial.network)
        assert remote.trace.backend == "remote"
        assert remote.trace.remote_workers >= 1
        assert remote.trace.remote_fallback_tasks == 0
        # The distributed run shares solves through the network cache tier.
        counters = daemon.manager.stats()["network_cache"]
        assert counters["installs"] >= 1

    def test_remote_run_under_network_chaos_stays_identical(
        self, daemon, monkeypatch
    ):
        serial = synth(MOTIVATIONAL_BLIF)
        monkeypatch.setenv(
            "TELS_CHAOS",
            "net-latency=0.2,net-dup=0.4,net-disconnect=0.1,"
            "net-corrupt=0.3:5",
        )
        worker = start_worker_thread(daemon.url, worker_id="chaotic")
        try:
            remote = synth(MOTIVATIONAL_BLIF, distribute=daemon.url)
        finally:
            stop_workers(worker)
        assert to_thblif(remote.network) == to_thblif(serial.network)
        # Duplicate deliveries (net-dup) are absorbed, never double-applied.
        assert daemon.manager.broker.duplicate_results >= 0


class TestWorkerDeath:
    def test_dead_worker_lease_expires_and_survivor_finishes(self, daemon):
        """A worker claiming cones then going silent forfeits them."""
        daemon.manager.broker.lease_s = 0.4
        daemon.manager.broker.worker_timeout_s = 0.8
        serial = synth(MULTI_CONE_BLIF)

        client = WorkClient(HttpTransport(daemon.url))
        rogue_claimed = threading.Event()

        def rogue():
            # Claim whatever shows up first, then die without a word:
            # no heartbeat, no results — exactly a SIGKILLed worker.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                claim = client.claim("rogue", 16)
                if claim.get("tasks"):
                    rogue_claimed.set()
                    return
                time.sleep(0.02)

        threading.Thread(target=rogue, daemon=True).start()
        survivor_handle = []

        def start_survivor():
            rogue_claimed.wait(timeout=10.0)
            survivor_handle.append(
                start_worker_thread(daemon.url, worker_id="survivor")
            )

        threading.Thread(target=start_survivor, daemon=True).start()
        # The rogue's death is one crash of each cone it held, on purpose;
        # one more than the default poison budget leaves the usual three
        # for any TELS_CHAOS worker faults the survivor meets.
        options = SynthesisOptions(poison_crashes=4)
        try:
            remote = synth(
                MULTI_CONE_BLIF, distribute=daemon.url, options=options
            )
        finally:
            if survivor_handle:
                stop_workers(survivor_handle[0])
        assert rogue_claimed.is_set()
        assert to_thblif(remote.network) == to_thblif(serial.network)
        assert remote.trace.lease_expirations >= 1
        assert remote.trace.requeues >= 1
        assert daemon.manager.broker.lease_expirations >= 1

    def test_injected_crash_in_worker_thread_reports_crash_failures(
        self, daemon, monkeypatch
    ):
        """``worker=1.0`` crashes every attempt of every cone.  A worker
        thread must not end its host process (here: pytest); each crash
        comes back as a ``"crash"`` failure, and the retry ladder
        quarantines every cone to the one-to-one fallback."""
        serial = synth(MULTI_CONE_BLIF)
        monkeypatch.setenv("TELS_CHAOS", "worker=1.0:1")
        worker = start_worker_thread(daemon.url, worker_id="crashy")
        try:
            remote = synth(MULTI_CONE_BLIF, distribute=daemon.url)
            assert worker[0].is_alive()
        finally:
            stop_workers(worker)
        assert not worker[0].is_alive()
        trace = remote.trace
        assert trace.remote_fallback_tasks == 0
        assert trace.quarantined
        assert {reason for _task, reason in trace.degraded} == {"quarantined"}
        assert trace.requeues >= 2 * len(trace.quarantined)
        assert equivalent_threshold_networks(remote.network, serial.network)


class TestGracefulDegradation:
    def test_total_worker_loss_falls_back_to_local(self, daemon, monkeypatch):
        import repro.engine.remote as remote_mod

        monkeypatch.setattr(remote_mod, "DEFAULT_WORKER_WAIT_S", 0.3)
        serial = synth(MULTI_CONE_BLIF)
        remote = synth(MULTI_CONE_BLIF, distribute=daemon.url)  # no workers
        assert to_thblif(remote.network) == to_thblif(serial.network)
        assert remote.trace.remote_fallback_tasks >= 1
        assert "no live workers" in remote.trace.remote_fallback_reason
        assert any(
            line.startswith("remote:")
            for line in remote.trace.summary_lines()
        )

    def test_unreachable_daemon_falls_back_at_startup(self):
        serial = synth(MULTI_CONE_BLIF)
        remote = synth(MULTI_CONE_BLIF, distribute="http://127.0.0.1:9")
        assert to_thblif(remote.network) == to_thblif(serial.network)
        assert "unreachable at startup" in remote.trace.remote_fallback_reason
        assert remote.trace.remote_fallback_tasks == remote.trace.num_tasks
