"""Chow-parameter fast path: resolve threshold checks without an LP.

Smaus–Schilling–Wenzelmann ("Implementations of two Algorithms for the
Threshold Synthesis Problem", arXiv:2301.03667) observe that most small
threshold-synthesis instances are settled by combinatorial reasoning alone.
This module implements that pre-pass for the Fig. 6 identification ILP, on
the *positive-unate minimized prime cover* (so every support variable is
essential):

1. **2-monotonicity screen.**  For every support pair ``(i, j)`` compare the
   cofactors ``f[i=1, j=0]`` and ``f[j=1, i=0]``.  Threshold functions are
   2-monotonic, so an incomparable pair proves the ILP infeasible: a feasible
   ``(w, T)`` would force both ``w_i < w_j`` and ``w_j < w_i`` (take a point
   true on one side and false on the other, in both directions).

2. **Chow-ordered weight enumeration.**  The Chow parameter of variable *i*
   is the number of true points with ``x_i = 1``.  For any vector feasible
   for the ON/OFF system, ``chow_i > chow_j`` implies ``w_i >= w_j`` (the
   swap argument), and after the screen, equal Chow parameters mean the pair
   is symmetric (either weight order works).  So enumerating only
   *non-increasing* weight tuples in Chow-descending order, by increasing
   weight sum ``S``, visits every realization up to symmetry.  Each support
   variable is essential, which pins ``w_i >= delta_on + delta_off``.  For a
   fixed tuple the feasible thresholds form the interval
   ``[max_off_dc_sum + delta_off, min_on_cube_sum - delta_on]``, so the
   tuple is checked against *all* ON/OFF inequalities in O(cubes) with no LP.
   The first feasible tuple at the smallest ``S`` (taking the smallest legal
   ``T``) minimizes ``sum(w) + T`` — the same objective the ILP minimizes —
   so a hit is *provably optimal*, not merely feasible.

Outcomes: ``HIT`` (optimal vector, ILP skipped), ``NOT_THRESHOLD`` (screen
failed, or the ``max_weight`` box was exhausted — ILP skipped), or
``UNDECIDED`` (support too wide, or enumeration budget exhausted — the best
feasible tuple found, if any, is handed to branch & bound as a warm-start
incumbent).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.boolean import bitset
from repro.boolean.cover import Cover

#: All 2-monotonic functions of up to 8 variables are threshold functions,
#: so below this support size a screened-in function always enumerates to an
#: optimum (budget permitting); above it we don't try.
DEFAULT_MAX_SUPPORT = 8

#: Weight tuples examined before giving up and falling back to the ILP.
DEFAULT_BUDGET = 5_000


class FastpathStatus(Enum):
    HIT = "hit"  # optimal vector found, ILP skipped
    NOT_THRESHOLD = "not_threshold"  # proven infeasible, ILP skipped
    UNDECIDED = "undecided"  # fall back to the ILP


@dataclass(frozen=True)
class FastpathResult:
    """Outcome of one fast-path attempt.

    ``values`` (on HIT) and ``candidate`` (on UNDECIDED, when any feasible
    tuple was seen before the budget ran out) are laid out exactly like the
    Fig. 6 ILP solution vector: one weight per support variable in ascending
    variable order, then the threshold ``T`` in the last slot.
    """

    status: FastpathStatus
    values: tuple[int, ...] | None = None
    candidate: tuple[int, ...] | None = None
    tuples_tried: int = 0
    screened: bool = False


def chow_parameters(cover: Cover) -> dict[int, int]:
    """Chow parameter per support variable: ``|{p : f(p), p_i = 1}|``.

    Counts are taken over the full variable space (the restricted cofactor
    leaves ``x_i`` free, doubling every count uniformly), which preserves
    the ordering the enumeration needs.  The cover must fit a packed truth
    table (``MAX_TABLE_VARS``), as every cover the checker minimizes does.
    """
    return bitset.chow_from_table(
        cover.packed_table(), cover.nvars, cover.support_vars()
    )


def two_monotonicity_violation(
    cover: Cover, support: list[int] | None = None
) -> tuple[int, int] | None:
    """The first support pair proving the function is not 2-monotonic.

    Returns None when every pair of cofactors ``f[i=1,j=0]`` / ``f[j=1,i=0]``
    is comparable (a necessary condition for thresholdness).  The cover
    must fit a packed truth table, as for :func:`chow_parameters`.
    """
    if support is None:
        support = cover.support_vars()
    table = cover.packed_table()
    nvars = cover.nvars
    cof: dict[tuple[int, bool], bitset.BitVec] = {}

    def cofactor(var: int, value: bool) -> bitset.BitVec:
        key = (var, value)
        if key not in cof:
            cof[key] = bitset.cofactor_table(table, nvars, var, value)
        return cof[key]

    for a_pos, i in enumerate(support):
        for j in support[a_pos + 1 :]:
            fi = bitset.cofactor_table(cofactor(i, True), nvars, j, False)
            fj = bitset.cofactor_table(cofactor(j, True), nvars, i, False)
            if not fj.andnot(fi).is_zero() and not fi.andnot(fj).is_zero():
                return (i, j)
    return None


def fastpath_check(
    positive: Cover,
    off_cubes: Cover,
    *,
    delta_on: int = 0,
    delta_off: int = 1,
    max_weight: int | None = None,
    max_support: int = DEFAULT_MAX_SUPPORT,
    budget: int = DEFAULT_BUDGET,
) -> FastpathResult:
    """Try to settle a Fig. 6 instance combinatorially.

    Args:
        positive: the positive-unate *minimized prime* cover (every support
            variable essential — the caller minimizes first).
        off_cubes: cubes of its complement (the maximal false points).
        delta_on / delta_off: the defect tolerances of the ILP.
        max_weight: the per-weight box bound, if any.  With a box, tuple
            exhaustion is a proof of infeasibility; without one the search
            can only HIT or give up.
        max_support: widest support attempted (see DEFAULT_MAX_SUPPORT).
        budget: weight tuples examined before declaring UNDECIDED.
    """
    undecided = FastpathResult(FastpathStatus.UNDECIDED)
    support = positive.support_vars()
    n = len(support)
    if n == 0 or n > max_support:
        return undecided
    if delta_on + delta_off <= 0:
        # Degenerate tolerances: a point with sum exactly T would satisfy
        # both sides, so neither the screen nor the essential-variable bound
        # below is sound.  Leave it to the ILP.
        return undecided
    if two_monotonicity_violation(positive, support) is not None:
        return FastpathResult(FastpathStatus.NOT_THRESHOLD, screened=True)

    # Chow-descending slot order (ties by variable index; after the screen,
    # equal-Chow pairs are symmetric so one tie order suffices).
    chow = chow_parameters(positive)
    order = sorted(support, key=lambda v: (-chow[v], v))
    pos_of = {var: k for k, var in enumerate(order)}

    # ON rows: positions (in `order`) of each cube's literals.
    on_rows = [
        tuple(pos_of[var] for var, _ in cube.literals())
        for cube in positive.cubes
    ]
    # OFF rows: positions of each complement cube's don't-care variables.
    off_rows = [
        tuple(pos_of[var] for var in support if not (cube.neg & (1 << var)))
        for cube in off_cubes.cubes
    ]
    if not on_rows or not off_rows:
        return undecided  # constants are the caller's business

    wmin = delta_on + delta_off
    t_floor = max(delta_off, 0)
    best_obj: int | None = None
    best: tuple[int, ...] | None = None  # weights in `order`, then T

    def pack(weights: tuple[int, ...], threshold: int) -> tuple[int, ...]:
        by_var = {var: weights[pos_of[var]] for var in support}
        return tuple(by_var[var] for var in support) + (threshold,)

    tried = 0
    s = n * wmin
    while True:
        if best_obj is not None and s + t_floor >= best_obj:
            assert best is not None
            return FastpathResult(
                FastpathStatus.HIT,
                values=pack(best[:-1], best[-1]),
                tuples_tried=tried,
            )
        if max_weight is not None and s > n * max_weight:
            # The whole [wmin, max_weight]^n box is exhausted: whatever was
            # found (if anything) is the optimum, since every realization up
            # to symmetry has been checked.
            if best is not None:
                return FastpathResult(
                    FastpathStatus.HIT,
                    values=pack(best[:-1], best[-1]),
                    tuples_tried=tried,
                )
            return FastpathResult(
                FastpathStatus.NOT_THRESHOLD, tuples_tried=tried
            )
        for weights in _weight_tuples(s, n, wmin, max_weight):
            tried += 1
            if tried > budget:
                return FastpathResult(
                    FastpathStatus.UNDECIDED,
                    candidate=(
                        pack(best[:-1], best[-1]) if best is not None else None
                    ),
                    tuples_tried=tried,
                )
            t_hi = min(sum(weights[k] for k in row) for row in on_rows)
            t_hi -= delta_on
            t_lo = max(
                max(sum(weights[k] for k in row) for row in off_rows)
                + delta_off,
                0,
            )
            if t_lo > t_hi:
                continue
            obj = s + t_lo
            if best_obj is None or obj < best_obj:
                best_obj = obj
                best = weights + (t_lo,)
        s += 1


def _weight_tuples(total: int, parts: int, lo: int, hi: int | None):
    """Non-increasing ``parts``-tuples in ``[lo, hi]`` summing to ``total``.

    Yielded with the largest leading weight first, so within one weight sum
    the enumeration (and therefore the returned optimum) is deterministic.
    """
    if hi is None:
        hi = total

    def rec(remaining: int, k: int, cap: int, prefix: list[int]):
        if k == 0:
            if remaining == 0:
                yield tuple(prefix)
            return
        top = min(cap, remaining - (k - 1) * lo)
        for v in range(top, lo - 1, -1):
            if v * k < remaining:
                break  # even k copies of v cannot reach the target
            prefix.append(v)
            yield from rec(remaining - v, k - 1, v, prefix)
            prefix.pop()

    yield from rec(total, parts, hi, [])
