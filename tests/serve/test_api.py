"""HTTP job-API round trips: differential vs the direct engine, 4xx paths."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.core.area import network_stats
from repro.core.synthesis import SynthesisOptions, synthesize_with_report
from repro.core.verify import verify_threshold_network
from repro.io.blif import parse_blif
from repro.io.thblif import to_thblif
from repro.network.scripts import prepare_tels
from repro.serve.client import ServeClientError

from tests.serve.conftest import BAD_BLIF


class TestRoundTrip:
    def test_submit_result_matches_direct_synthesis(self, daemon, small_blif):
        """The service answer is byte-identical to calling the engine."""
        _, client = daemon
        job_id = client.submit(small_blif, name="motivational")["id"]
        final = client.wait(job_id)
        assert final["state"] == "done"
        result = client.result(job_id)

        source = parse_blif(small_blif, default_name="motivational")
        network, report = synthesize_with_report(
            prepare_tels(source), SynthesisOptions()
        )
        stats = network_stats(network)
        assert result["network"]["thblif"] == to_thblif(network)
        assert result["network"]["gates"] == stats.gates
        assert result["network"]["levels"] == stats.levels
        assert result["network"]["area"] == stats.area
        assert result["verified"] is True
        assert verify_threshold_network(source, network)
        assert result["lint"]["clean"] is report.lint.is_clean
        assert client.result(job_id, fmt="thblif") == to_thblif(network)

    def test_options_travel_through(self, daemon, small_blif):
        _, client = daemon
        job_id = client.submit(
            small_blif, options={"psi": 4, "delta_off": 2, "seed": 7}
        )["id"]
        assert client.wait(job_id)["state"] == "done"
        direct, _ = synthesize_with_report(
            prepare_tels(parse_blif(small_blif, default_name="network")),
            SynthesisOptions(psi=4, delta_off=2, seed=7),
        )
        result = client.result(job_id)
        assert result["network"]["thblif"] == to_thblif(direct)

    def test_sarif_result_is_valid(self, daemon, small_blif):
        _, client = daemon
        job_id = client.submit(small_blif)["id"]
        client.wait(job_id)
        sarif = client.result(job_id, fmt="sarif")
        assert sarif["version"] == "2.1.0"
        assert sarif["runs"][0]["results"] == []  # lint-clean

    def test_healthz_and_stats(self, daemon, small_blif):
        _, client = daemon
        assert client.healthz()["status"] == "ok"
        job_id = client.submit(small_blif)["id"]
        client.wait(job_id)
        stats = client.stats()
        assert stats["jobs"]["done"] == 1
        assert stats["max_workers"] == 2
        assert stats["models_done"] == {"ltg": 1}
        assert stats["cache"]["entries"] > 0
        assert "journal" in stats

    def test_job_listing(self, daemon, small_blif):
        _, client = daemon
        first = client.submit(small_blif)["id"]
        second = client.submit(small_blif)["id"]
        client.wait(first)
        client.wait(second)
        assert [job["id"] for job in client.jobs()] == [first, second]


class TestErrorPaths:
    def test_malformed_blif_is_structured_400(self, client):
        with pytest.raises(ServeClientError) as err:
            client.submit(BAD_BLIF)
        assert err.value.status == 400
        assert err.value.code == "blif-error"
        detail = err.value.payload["error"]["detail"]
        assert isinstance(detail["line"], int)

    def test_unknown_option_is_400(self, client, small_blif):
        # A removed option is rejected like any unknown one, never ignored.
        for option, value in (("warp_factor", 9), ("use_presolve", True)):
            with pytest.raises(ServeClientError) as err:
                client.submit(small_blif, options={option: value})
            assert err.value.status == 400
            assert option in str(err.value)

    def test_bad_option_value_is_400(self, client, small_blif):
        for options in (
            {"psi": "three"},
            {"backend": "bogus"},
            {"splitting_strategy": "bogus"},
            {"max_weight": 0},
            {"delta_off": 0},  # an OFF point on T would fire
        ):
            with pytest.raises(ServeClientError) as err:
                client.submit(small_blif, options=options)
            assert err.value.status == 400, options
            assert err.value.code == "bad-options", options

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeClientError) as err:
            client.status("j999999")
        assert err.value.status == 404
        assert err.value.code == "not-found"

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServeClientError) as err:
            client._json("GET", "/frobnicate")
        assert err.value.status == 404

    def test_failed_job_reports_error_not_result(self, daemon, small_blif):
        _, client = daemon
        # A strict run with an already-expired total deadline is accepted
        # (the options are well-formed) but fails during execution.
        job_id = client.submit(
            small_blif,
            options={"deadline_total_s": 1e-9, "strict_synthesis": True},
        )["id"]
        final = client.wait(job_id)
        assert final["state"] == "failed"
        assert final["error"]["code"] == "synthesis-error"
        with pytest.raises(ServeClientError) as err:
            client.result(job_id)
        assert err.value.status == 404
        assert err.value.code == "no-result"

    def test_unknown_result_format_is_400(self, daemon, small_blif):
        _, client = daemon
        job_id = client.submit(small_blif)["id"]
        client.wait(job_id)
        with pytest.raises(ServeClientError) as err:
            client.result(job_id, fmt="xml")
        assert err.value.status == 400

    def test_empty_body_is_400(self, daemon):
        app, _ = daemon
        request = urllib.request.Request(app.url + "/jobs", method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_non_json_body_is_400(self, daemon):
        app, client = daemon
        request = urllib.request.Request(
            app.url + "/jobs", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400
        payload = json.loads(err.value.read())
        assert "error" in payload

    def test_missing_blif_field_is_400(self, client):
        with pytest.raises(ServeClientError) as err:
            client._json("POST", "/jobs", {"name": "nothing"})
        assert err.value.status == 400
