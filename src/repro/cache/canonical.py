"""NP-semi-canonical forms for covers, with invertible transform records.

Threshold-ness is invariant under input *permutation* and input *negation*
(the NP group): if ``<w1..wl; T>`` realizes ``f``, then permuting the
inputs permutes the weights, and replacing input ``x`` by ``x'`` maps the
vector in closed form — ``w' = -w`` and ``T' = T - w`` (Section IV of the
paper, applied per variable).  Both operations also preserve the defect
margins ``delta_on`` / ``delta_off`` exactly, because they are bijections
of the input points that shift every weighted sum by a constant.

This module reduces a cover key (the ``(nvars, rows)`` tuple produced by
:meth:`repro.boolean.cover.Cover.canonical_key`) to an *NP-semi-canonical*
representative of its function class:

1. **phase normalization** — every variable is put in its majority phase
   (a variable appearing more often negated is complemented), which maps
   any unate cover to its positive-unate rewrite and gives binate covers a
   deterministic phase choice;
2. **variable ordering** — variables are sorted by a structural signature
   (occurrence profile per phase and cube size); signature ties are broken
   by exhaustively selecting, within each tied group, the permutation whose
   remapped row set is lexicographically smallest (capped — hence *semi*-
   canonical: pathological tie groups fall back to a stable order, which
   can only cost cache hits, never correctness).

The returned :class:`NPCanonical` carries the canonical key plus the
:class:`NPTransform` needed to map a vector solved for the canonical cover
back to the original cover (and vice versa — the phase map is an
involution).  :func:`verify_vector_key` is the one Eq. (1) acceptance test
for a vector of either kind on a cover: the persistent and network tiers
run it on every transformed gate before trusting it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.boolean import bitset
from repro.core.threshold import GateVector, WeightThresholdVector

#: Covers wider than this skip NP-canonicalization entirely: the exhaustive
#: re-verification of a transformed vector enumerates ``2**nvars`` points.
MAX_CANONICAL_VARS = 14

#: Total candidate permutations tried across all signature-tie groups.
MAX_TIE_CANDIDATES = 720

#: Bump when the canonical form or the entry encoding changes shape —
#: persisted entries produced by a different algorithm must not be trusted.
CANONICAL_FINGERPRINT = "np-v1"


@dataclass(frozen=True)
class NPTransform:
    """How an original cover maps onto its canonical representative.

    Attributes:
        perm: ``perm[slot]`` is the original variable occupying canonical
            position ``slot``.
        flipped: per-original-variable flags; True where the canonical form
            uses the complemented phase of that variable.
    """

    perm: tuple[int, ...]
    flipped: tuple[bool, ...]

    @property
    def is_identity(self) -> bool:
        return not any(self.flipped) and all(
            v == i for i, v in enumerate(self.perm)
        )


@dataclass(frozen=True)
class NPCanonical:
    """A canonical cover key together with its recovery transform."""

    key: tuple  # (nvars, sorted (pos, neg) rows) of the canonical cover
    transform: NPTransform


def _flip_rows(rows: tuple, flip_mask: int) -> list[tuple[int, int]]:
    """Exchange the pos/neg literal bits of every variable in ``flip_mask``."""
    out = []
    for pos, neg in rows:
        moved_to_pos = neg & flip_mask
        moved_to_neg = pos & flip_mask
        out.append(
            (
                (pos & ~flip_mask) | moved_to_pos,
                (neg & ~flip_mask) | moved_to_neg,
            )
        )
    return out


def _permute_rows(
    rows: list[tuple[int, int]], perm: tuple[int, ...]
) -> tuple[tuple[int, int], ...]:
    """Remap rows so canonical slot ``i`` reads original variable ``perm[i]``."""
    out = []
    for pos, neg in rows:
        new_pos = 0
        new_neg = 0
        for slot, var in enumerate(perm):
            bit = 1 << var
            if pos & bit:
                new_pos |= 1 << slot
            if neg & bit:
                new_neg |= 1 << slot
        out.append((new_pos, new_neg))
    # Sorted row order is part of the cover-key canonical form.
    return tuple(sorted(out))


def _var_signatures(
    rows: list[tuple[int, int]], nvars: int
) -> dict[int, tuple]:
    """All variable signatures in one pass over the rows.

    Treats each phase as a packed column over the row index: row sizes are
    computed once, then scattered to the variables each row touches —
    O(rows * literals) instead of O(nvars * rows) rescans.
    """
    pos_sizes: list[list[int]] = [[] for _ in range(nvars)]
    neg_sizes: list[list[int]] = [[] for _ in range(nvars)]
    for pos, neg in rows:
        size = (pos | neg).bit_count()
        mask = pos
        while mask:
            low = mask & -mask
            pos_sizes[low.bit_length() - 1].append(size)
            mask ^= low
        mask = neg
        while mask:
            low = mask & -mask
            neg_sizes[low.bit_length() - 1].append(size)
            mask ^= low
    return {
        var: (
            len(pos_sizes[var]),
            len(neg_sizes[var]),
            tuple(sorted(pos_sizes[var])),
            tuple(sorted(neg_sizes[var])),
        )
        for var in range(nvars)
    }


def np_canonicalize(cover_key: tuple) -> NPCanonical:
    """Reduce a cover key to its NP-semi-canonical representative.

    ``cover_key`` must be the ``(nvars, rows)`` tuple of
    :meth:`Cover.canonical_key`.  The result is deterministic and, for
    covers without oversized signature-tie groups, identical for every
    NP-equivalent input cover.
    """
    nvars, rows = cover_key
    # Phase normalization: put every variable in its majority phase; ties
    # keep the positive phase so unate covers land on their positive form.
    flip_mask = 0
    for var in range(nvars):
        bit = 1 << var
        pos = sum(1 for p, n in rows if p & bit)
        neg = sum(1 for p, n in rows if n & bit)
        if neg > pos:
            flip_mask |= bit
    flipped = tuple(bool(flip_mask & (1 << v)) for v in range(nvars))
    normalized = _flip_rows(rows, flip_mask)

    # Order variables by signature; signatures sort descending so heavily
    # used variables take the low canonical slots.
    signatures = _var_signatures(normalized, nvars)
    ordered = sorted(range(nvars), key=lambda v: (signatures[v], v))
    ordered.reverse()  # descending signature, descending index within ties

    # Group consecutive variables with identical signatures; within each
    # group the order is structurally unconstrained, so pick the composite
    # permutation minimizing the remapped row set (capped).
    groups: list[list[int]] = []
    for var in ordered:
        if groups and signatures[groups[-1][-1]] == signatures[var]:
            groups[-1].append(var)
        else:
            groups.append([var])
    candidates = 1
    for group in groups:
        for k in range(2, len(group) + 1):
            candidates *= k
        if candidates > MAX_TIE_CANDIDATES:
            break
    if candidates > MAX_TIE_CANDIDATES or len(groups) == nvars:
        perm = tuple(ordered)
        best_rows = _permute_rows(normalized, perm)
    else:
        best_rows = None
        perm = tuple(ordered)
        for arrangement in itertools.product(
            *(itertools.permutations(g) for g in groups)
        ):
            candidate = tuple(itertools.chain.from_iterable(arrangement))
            remapped = _permute_rows(normalized, candidate)
            if best_rows is None or remapped < best_rows:
                best_rows = remapped
                perm = candidate
    return NPCanonical(
        key=(nvars, best_rows), transform=NPTransform(perm, flipped)
    )


def vector_to_canonical(
    vector: WeightThresholdVector, transform: NPTransform
) -> list[int]:
    """Map an original-cover vector into canonical space (weights + T)."""
    weights = list(vector.weights)
    threshold = vector.threshold
    for var, flip in enumerate(transform.flipped):
        if flip:
            threshold -= weights[var]
            weights[var] = -weights[var]
    return [weights[var] for var in transform.perm] + [threshold]


def vector_from_canonical(
    values: list[int], transform: NPTransform
) -> WeightThresholdVector:
    """Map a canonical-space vector (weights + T) back to the original cover."""
    nvars = len(transform.perm)
    weights = [0] * nvars
    threshold = values[-1]
    for slot, var in enumerate(transform.perm):
        weights[var] = values[slot]
    # The phase map is an involution: the same closed form inverts it.
    for var, flip in enumerate(transform.flipped):
        if flip:
            threshold -= weights[var]
            weights[var] = -weights[var]
    return WeightThresholdVector(tuple(weights), threshold)


def verify_vector_key(
    cover_key: tuple,
    vector: GateVector,
    delta_on: int,
    delta_off: int,
) -> bool:
    """Exhaustively check a gate vector against a cover key under Eq. (1).

    The vector, of either kind, must compute the cover's function, and its
    margins must meet both tolerances: every ON point ``delta_on`` or more
    above its nearest threshold below, every OFF point ``delta_off`` or
    more below its nearest threshold above.  For an LTG that is
    ``sum >= T + delta_on`` on and ``sum <= T - delta_off`` off.
    Exponential in ``nvars``; wider covers than
    :data:`MAX_CANONICAL_VARS` are rejected.
    """
    nvars = cover_key[0]
    if nvars > MAX_CANONICAL_VARS or len(vector.weights) != nvars:
        return False
    table, on_margin, off_margin = vector.table_and_margins()
    if table != bitset.key_table(cover_key):
        return False
    return (on_margin is None or on_margin >= delta_on) and (
        off_margin is None or off_margin >= delta_off
    )
