"""The multi-threshold gate backend (arXiv:1301.0048).

A multi-threshold gate ``<w; T1 < ... < Tk>`` toggles its output at every
threshold the weighted sum crosses, so one gate realizes functions far
beyond the unate LTG class — weights of 1 with thresholds ``1..l`` compute
l-input parity, which is exactly the cone the single-threshold flow must
split into an XOR tree.

The feasibility check layers an exact small-k search over the shared LTG
machinery:

1. the LTG pipeline runs first (fast path + Fig. 6 ILP) — any function that
   *is* a single threshold gate keeps its minimum-area LTG solution, so the
   model strictly extends the default backend;
2. otherwise positive weight vectors over the support are enumerated in
   increasing total-weight order; a vector works when every input point of
   equal weighted sum agrees on the output, and thresholds are then placed
   at each output flip while honoring the δ-tolerances (each consecutive
   sum pair around a flip must be ``delta_on + delta_off`` apart, with the
   threshold ``delta_off`` above the lower sum — the generalized Eq. 1).

The search covers every totally-symmetric function (parity, exact-k,
majority windows) and many partially-symmetric ones; functions that would
need negative or larger weights fall back to None and are split by the
cone synthesizer exactly as under ``ltg``.
"""

from __future__ import annotations

from itertools import product

from repro.boolean import bitset
from repro.core.threshold import (
    GateVector,
    MultiThresholdVector,
    WeightThresholdVector,
)
from repro.gates.base import GateModel


class MultiThresholdModel(GateModel):
    """k-threshold gates with an exact small-k search atop the LTG solve."""

    name = "multi-threshold"
    #: The search bounds below are part of the fingerprint; bump it if
    #: they ever change.
    fingerprint = "mtg-v1:k6:w2"
    supports_binate = True

    #: Largest threshold count the search will emit.
    max_thresholds = 6
    #: Per-weight search ceiling (further clipped by the checker's bound).
    search_weight = 2
    #: Widest cover the exact search enumerates (2**nvars points).
    max_search_vars = 10

    def check_cover(self, checker, cover, canonical) -> GateVector | None:
        vector = checker.solve_ltg(cover, canonical)
        if vector is not None:
            return vector
        return self._search(checker, cover)

    def _search(self, checker, cover) -> MultiThresholdVector | None:
        nvars = cover.nvars
        if nvars == 0 or nvars > self.max_search_vars:
            return None
        support = cover.support_vars()
        if not support:
            return None
        outputs = cover.truth_table()
        w_max = self.search_weight
        if checker.max_weight is not None:
            w_max = min(w_max, checker.max_weight)
        if w_max < 1:
            return None
        # Increasing total weight = increasing gate area; first hit is the
        # cheapest this search can realize.  Lex tiebreak keeps it stable.
        candidates = sorted(
            product(range(1, w_max + 1), repeat=len(support)),
            key=lambda ws: (sum(ws), ws),
        )
        for slot_weights in candidates:
            thresholds = self._place_thresholds(
                nvars, support, slot_weights, outputs, checker
            )
            if thresholds is None:
                continue
            weights = [0] * nvars
            for slot, var in enumerate(support):
                weights[var] = slot_weights[slot]
            checker.stats.multithreshold_hits += 1
            if len(thresholds) == 1:
                # Degenerate single-threshold find (the LTG pipeline missed
                # it only if its tolerance algebra was stricter); keep the
                # plain LTG shape so downstream passes treat it normally.
                return WeightThresholdVector(tuple(weights), thresholds[0])
            return MultiThresholdVector(tuple(weights), tuple(thresholds))
        return None

    def _place_thresholds(
        self, nvars, support, slot_weights, outputs, checker
    ) -> list[int] | None:
        """Thresholds realizing ``outputs`` under one weight vector, or None.

        Groups the ``2**nvars`` input points by weighted sum; a realization
        exists iff equal sums agree on the output, and every output flip
        between consecutive sums leaves room for both tolerances.  The
        grouping is one weighted-sum sweep into a dict, stopping at the
        first sum whose points disagree.
        """
        full_weights = [0] * nvars
        for slot, var in enumerate(support):
            full_weights[var] = slot_weights[slot]
        by_sum: dict[int, int] = {}
        for total, out in zip(bitset.weighted_sums(full_weights), outputs):
            if by_sum.setdefault(total, out) != out:
                return None  # same sum, different output: weights too coarse
        sums = sorted(by_sum)
        min_gap = checker.delta_on + checker.delta_off
        thresholds: list[int] = []
        if by_sum[sums[0]]:
            # The lowest band is already ON: open with a threshold the full
            # ON margin below it.
            thresholds.append(sums[0] - checker.delta_on)
        for prev, cur in zip(sums, sums[1:]):
            if by_sum[prev] == by_sum[cur]:
                continue
            if cur - prev < min_gap:
                return None  # flip too tight for the δ contract
            thresholds.append(prev + checker.delta_off)
        if not thresholds or len(thresholds) > self.max_thresholds:
            return None
        if any(a >= b for a, b in zip(thresholds, thresholds[1:])):
            return None  # degenerate tolerances collapsed two thresholds
        return thresholds

    # -- NP algebra ----------------------------------------------------
    # Negating input x maps <w; T1..Tk> to <-w; T1-w .. Tk-w>: every
    # weighted sum shifts by -w, so all thresholds shift together and their
    # order (and every margin) is preserved.  Permutation permutes weights.
    # Entries are encoded as [w_1..w_n, T1..Tk] with k >= 2 — the length
    # alone distinguishes them from single-threshold entries (n + 1).

    def encode_canonical(self, vector, transform):
        if isinstance(vector, WeightThresholdVector):
            return super().encode_canonical(vector, transform)
        if not isinstance(vector, MultiThresholdVector):
            return None
        weights = list(vector.weights)
        thresholds = list(vector.thresholds)
        for var, flip in enumerate(transform.flipped):
            if flip:
                thresholds = [t - weights[var] for t in thresholds]
                weights[var] = -weights[var]
        return [weights[var] for var in transform.perm] + thresholds

    def decode_canonical(self, values, transform):
        nvars = len(transform.perm)
        if len(values) < nvars + 2:
            return super().decode_canonical(values, transform)
        weights = [0] * nvars
        thresholds = list(values[nvars:])
        for slot, var in enumerate(transform.perm):
            weights[var] = values[slot]
        # The phase map is an involution: the same closed form inverts it.
        for var, flip in enumerate(transform.flipped):
            if flip:
                thresholds = [t - weights[var] for t in thresholds]
                weights[var] = -weights[var]
        if any(a >= b for a, b in zip(thresholds, thresholds[1:])):
            return None
        return MultiThresholdVector(tuple(weights), tuple(thresholds))
