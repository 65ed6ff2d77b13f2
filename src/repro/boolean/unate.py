"""Unateness analysis of SOP covers.

Every threshold function is unate (Kohavi), so unateness is the cheap first
filter TELS applies before spending an ILP solve on a node.  This module
classifies each variable of a cover as positive unate, negative unate, binate,
or absent *syntactically*, from the literal phases appearing in the given
cover.

The synthesis flow works on algebraically-factored networks whose node covers
are already SCC-minimal, so syntactic unateness is what the paper's algorithms
consume.  Dependence on an input is read from the packed truth table
(:func:`repro.boolean.bitset.table_support`); the semantic (monotonicity)
classification is kept in the tests as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.boolean.cover import Cover


class Phase(Enum):
    """Classification of one variable's role in a function."""

    ABSENT = "absent"
    POSITIVE = "positive"
    NEGATIVE = "negative"
    BINATE = "binate"


@dataclass(frozen=True)
class UnatenessReport:
    """Per-variable phase classification of a cover."""

    phases: tuple[Phase, ...]

    @property
    def is_unate(self) -> bool:
        """True when no variable is binate."""
        return Phase.BINATE not in self.phases

    @property
    def is_positive_unate(self) -> bool:
        """True when every present variable appears only positively."""
        return all(p in (Phase.ABSENT, Phase.POSITIVE) for p in self.phases)

    def binate_vars(self) -> list[int]:
        return [i for i, p in enumerate(self.phases) if p is Phase.BINATE]

    def negative_vars(self) -> list[int]:
        return [i for i, p in enumerate(self.phases) if p is Phase.NEGATIVE]


def syntactic_unateness(cover: Cover) -> UnatenessReport:
    """Classify each variable by the literal phases present in the cover."""
    phases = []
    for var in range(cover.nvars):
        pos, neg = cover.column_phases(var)
        if pos and neg:
            phases.append(Phase.BINATE)
        elif pos:
            phases.append(Phase.POSITIVE)
        elif neg:
            phases.append(Phase.NEGATIVE)
        else:
            phases.append(Phase.ABSENT)
    return UnatenessReport(tuple(phases))


def is_unate(cover: Cover) -> bool:
    """Convenience wrapper: True when no variable is syntactically binate."""
    return syntactic_unateness(cover).is_unate


def to_positive_unate(cover: Cover) -> tuple[Cover, tuple[bool, ...]]:
    """Rewrite a (syntactically) unate cover in positive-unate form.

    Every negative-unate variable ``x`` is replaced by a fresh positive
    variable ``y = x'`` occupying the same index.  Returns the rewritten
    cover and a per-variable flag tuple (True where the variable was
    complemented) so weights can be mapped back per Section IV of the paper.
    """
    report = syntactic_unateness(cover)
    flipped = tuple(p is Phase.NEGATIVE for p in report.phases)
    from repro.boolean.cube import Cube

    cubes = []
    for cube in cover.cubes:
        pos, neg = cube.pos, cube.neg
        for var, flip in enumerate(flipped):
            bit = 1 << var
            if flip and (neg & bit):
                neg &= ~bit
                pos |= bit
        cubes.append(Cube(pos, neg, cover.nvars))
    return Cover(cubes, cover.nvars), flipped
