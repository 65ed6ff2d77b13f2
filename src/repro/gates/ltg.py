"""The default single-threshold LTG backend.

This is the paper's gate model, re-expressed through :class:`GateModel`.
It must stay behaviorally identical to the pre-refactor flow (the
differential test in ``tests/gates/test_differential.py`` holds it to the
golden baseline), so it has no fingerprint: its vector-tier key is the
historical 4-tuple and its persistent entry key carries no model suffix.
"""

from __future__ import annotations

from repro.gates.base import GateModel


class LtgModel(GateModel):
    """Single-threshold linear threshold gates, ``f=1 iff sum(w·x) >= T``."""

    name = "ltg"
    fingerprint = None
    supports_binate = False

    def check_cover(self, checker, cover, canonical):
        return checker.solve_ltg(cover, canonical)

    def buffer_vector(self, delta_on, delta_off):
        # Historical fixed <1; 1> buffer, independent of the tolerances.
        from repro.core.threshold import WeightThresholdVector

        return WeightThresholdVector((1,), 1)
