"""The flash-calibrated LTG backend (arXiv:1910.04910).

Flash-transistor threshold gates program each weight as a stored charge
level, which gives a *discrete* weight grid (``levels`` programmable
magnitudes) and a *relative* drift error: a programmed weight ``w`` may
drift by up to ``drift * |w|`` before recalibration.  Realizable gates
therefore need margins that scale with their largest weight — a gate is
signed off only when both defect margins reach
``ceil(drift * max|w|)``.

The feasibility check reuses the full single-threshold pipeline (fast path
+ Fig. 6 ILP) with two device constraints layered on top:

* every |w| is boxed to the device grid (``max_weight = levels``), so the
  integral ILP solution *is* the level assignment;
* the δ-tolerances are raised until they cover the drift requirement of
  the solved weights — solve, measure ``ceil(drift * max|w|)``, and
  re-solve with boosted deltas until the solution's own margins cover its
  own drift (a fixpoint; the requirement is capped by
  ``ceil(drift * levels)``, so the loop terminates in a few rounds).

Gates built structurally (OR roots, buffers, Theorem-2 extensions) go
through :meth:`FlashModel.or_vector` / :meth:`FlashModel.admits_vector`,
which apply the same sign-off rule; networks synthesized under this model
then survive the PR-5 defect-noise suite at the device's drift amplitude
by construction.
"""

from __future__ import annotations

import math

from repro.core.threshold import (
    GateVector,
    WeightThresholdVector,
    make_or_vector,
)
from repro.gates.base import GateModel


class FlashModel(GateModel):
    """LTGs on a flash device grid with drift-derived tolerances."""

    name = "flash"
    #: Device parameters are part of the key space: a cache warmed at one
    #: (levels, drift) point must not serve another.
    fingerprint = "flash-v1:L8:d0.25"
    supports_binate = False

    #: Programmable weight magnitudes per device.
    levels = 8
    #: Relative drift bound: |w| may wander by up to ``drift * |w|``.
    drift = 0.25

    def required_margin(self, weights) -> int:
        """Margin needed to absorb worst-case drift of these weights."""
        peak = max((abs(w) for w in weights), default=0)
        return math.ceil(self.drift * peak)

    def check_cover(self, checker, cover, canonical) -> GateVector | None:
        box = self.levels
        if checker.max_weight is not None:
            box = min(box, checker.max_weight)
        # Nonzero weights always need at least ceil(drift) of margin, so
        # start there instead of burning a solve on the base tolerances.
        base_on, base_off = checker.delta_on, checker.delta_off
        floor = math.ceil(self.drift)
        don, doff = max(base_on, floor), max(base_off, floor)
        for _ in range(self.levels):
            vector = checker.solve_ltg(
                cover,
                canonical,
                delta_on=don,
                delta_off=doff,
                max_weight=box,
            )
            if vector is None:
                return None
            req = self.required_margin(vector.weights)
            if don >= max(base_on, req) and doff >= max(base_off, req):
                return vector
            checker.stats.flash_requantized += 1
            don = max(don, base_on, req)
            doff = max(doff, base_off, req)
        return None

    def or_vector(self, k: int, delta_on: int, delta_off: int):
        """An OR root whose margins cover the drift of its own weights."""
        don, doff = delta_on, delta_off
        vec = make_or_vector(k, don, doff)
        for _ in range(self.levels):
            req = self.required_margin(vec.weights)
            if don >= max(delta_on, req) and doff >= max(delta_off, req):
                return vec
            don = max(don, req)
            doff = max(doff, req)
            vec = make_or_vector(k, don, doff)
        return vec

    def admits_vector(self, vector) -> bool:
        """Grid + drift sign-off for structurally built vectors."""
        if not isinstance(vector, WeightThresholdVector):
            return False
        if any(abs(w) > self.levels for w in vector.weights):
            return False
        req = self.required_margin(vector.weights)
        if req == 0:
            return True
        on, off = vector.margins()
        if on is not None and on < req:
            return False
        if off is not None and off < req:
            return False
        return True

    def verify_vector(self, cover_key, vector, delta_on, delta_off) -> bool:
        # Persisted entries must satisfy the device contract too, not just
        # the base Eq. 1 — margins and |w| are NP-invariants, so anything
        # this model solved passes; anything else must not.  The drift
        # margin of admits_vector folds into the tolerances, so the one
        # Eq. (1) check covers both.
        if not isinstance(vector, WeightThresholdVector) or any(
            abs(w) > self.levels for w in vector.weights
        ):
            return False
        req = self.required_margin(vector.weights)
        return super().verify_vector(
            cover_key, vector, max(delta_on, req), max(delta_off, req)
        )
