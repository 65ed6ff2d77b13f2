"""Analysis surfaced through the engine post-pass and the serve schema."""

from __future__ import annotations

import pytest

from repro.benchgen.extended import build_extended_benchmark
from repro.benchgen.paper_examples import motivational_network
from repro.core.synthesis import SynthesisOptions
from repro.core.verify import verify_threshold_network
from repro.engine.scheduler import run_synthesis
from repro.network.scripts import prepare_tels
from repro.serve.schemas import report_to_dict, validate_options


def _run(analyze: bool):
    net = prepare_tels(motivational_network())
    return run_synthesis(net, SynthesisOptions(analyze=analyze))


class TestEnginePostPass:
    def test_analyze_off_by_default(self):
        result = _run(analyze=False)
        assert result.report.analysis is None
        assert result.trace.analysis_removals is None
        assert result.trace.network_analysis_s == 0.0

    def test_analyze_populates_report_and_trace(self):
        result = _run(analyze=True)
        analysis = result.report.analysis
        assert analysis is not None
        assert analysis.network == result.network.name
        # Synthesis output should carry no redundancy the analyzer can
        # prove away — and nothing unverified may survive the post-pass.
        assert analysis.unverified_findings == []
        trace = result.trace
        assert trace.analysis_removals == len(analysis.verified_findings)
        assert trace.analysis_min_slack == analysis.certificate.min_slack
        assert trace.network_analysis_s > 0.0

    def test_trace_summary_mentions_analysis(self):
        result = _run(analyze=True)
        summary = result.trace.format_summary()
        assert "analysis:" in summary
        assert "verified removal" in summary

    @pytest.mark.parametrize("name", ["cm152a", "cm85a", "cmb", "comp"])
    def test_table1_subset_has_no_unverified_finding(self, name):
        source = build_extended_benchmark(name)
        result = run_synthesis(
            prepare_tels(source), SynthesisOptions(psi=3, analyze=True)
        )
        assert verify_threshold_network(source, result.network, vectors=256)
        assert result.report.degraded_cones == 0
        assert result.report.analysis.unverified_findings == []


class TestServeSchema:
    def test_analyze_is_an_accepted_option(self):
        assert validate_options({"analyze": True}) == {"analyze": True}

    def test_report_dict_gains_analysis_section(self):
        result = _run(analyze=True)
        payload = report_to_dict(
            result.network, result.report, source_verified=True, wall_s=0.1
        )
        section = payload["analysis"]
        assert section["network"] == result.network.name
        assert section["unverified_findings"] == 0
        assert "certificate" in section and "fixpoint" in section

    def test_report_dict_omits_analysis_when_off(self):
        result = _run(analyze=False)
        payload = report_to_dict(
            result.network, result.report, source_verified=True, wall_s=0.1
        )
        assert "analysis" not in payload
