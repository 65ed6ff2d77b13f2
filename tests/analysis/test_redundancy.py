"""Redundancy detection, per-candidate verification, and verified apply."""

from __future__ import annotations

from repro.analysis import (
    analyze_threshold_network,
    apply_removals,
    dontcare_analysis,
    find_candidates,
    interval_analysis,
    threshold_to_boolean,
    verify_removals,
)
from repro.core.threshold import (
    ThresholdGate,
    ThresholdNetwork,
    WeightThresholdVector,
)
from repro.core.verify import verify_threshold_network
from repro.network.simulate import equivalent_threshold_networks


def _candidates(network):
    interval = interval_analysis(network)
    dontcare = dontcare_analysis(network, interval=interval)
    return find_candidates(network, interval, dontcare)


class TestFindCandidates:
    def test_planted_redundancies_found(self, stressor):
        kinds = {(f.kind, f.gate, f.fanin) for f in _candidates(stressor)}
        assert ("constant-gate", "g2", None) in kinds
        assert ("redundant-fanin", "g1", "b") in kinds

    def test_clean_network_yields_nothing(self, clean):
        assert _candidates(clean) == []

    def test_zero_fanin_constants_are_not_flagged(self):
        # <;0> is a deliberate synthesis constant, not redundancy.
        net = ThresholdNetwork("const")
        net.add_input("x")
        net.add_gate(ThresholdGate("one", (), WeightThresholdVector((), 0)))
        net.add_gate(
            ThresholdGate(
                "root", ("x", "one"), WeightThresholdVector((1, 1), 2)
            )
        )
        net.add_output("root")
        findings = _candidates(net)
        assert all(f.gate != "one" or f.kind != "constant-gate" for f in findings)


class TestVerifyRemovals:
    def test_planted_findings_verify(self, stressor):
        verified = verify_removals(stressor, _candidates(stressor))
        assert verified and all(f.verified for f in verified)

    def test_verification_is_against_the_original(self, stressor):
        # verify_removals must not mutate its input network.
        before = {g.name: g for g in stressor.gates()}
        verify_removals(stressor, _candidates(stressor))
        assert {g.name: g for g in stressor.gates()} == before


class TestApplyRemovals:
    def test_apply_preserves_equivalence(self, stressor):
        result = analyze_threshold_network(stressor)
        assert result.unverified_findings == []
        rewritten, applied = apply_removals(
            stressor, result.verified_findings
        )
        assert len(applied) == 2
        assert equivalent_threshold_networks(stressor, rewritten)

    def test_applied_network_lost_the_redundancy(self, stressor):
        result = analyze_threshold_network(stressor)
        rewritten, _ = apply_removals(stressor, result.verified_findings)
        assert rewritten.gate("g1").inputs == ("a",)
        assert rewritten.gate("g2").fanin == 0

    def test_nothing_to_apply_returns_original(self, clean):
        result = analyze_threshold_network(clean)
        rewritten, applied = apply_removals(clean, result.verified_findings)
        assert applied == []
        assert rewritten is clean

    def test_bogus_finding_is_rejected_not_applied(self, clean):
        from repro.analysis.redundancy import RemovalFinding

        bogus = [
            RemovalFinding(
                kind="redundant-fanin", gate="and1", fanin="b", verified=True
            )
        ]
        rewritten, applied = apply_removals(clean, bogus)
        # Dropping b from the AND changes the function: the cumulative
        # equivalence check must refuse it.
        assert applied == []
        assert rewritten is clean


class TestThresholdToBoolean:
    def test_mirror_is_equivalent(self, stressor):
        golden = threshold_to_boolean(stressor)
        assert verify_threshold_network(golden, stressor)
        assert golden.inputs == stressor.inputs
        assert golden.outputs == stressor.outputs
