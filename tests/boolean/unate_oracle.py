"""Semantic unateness: the reference oracle for packed dependence checks.

Classifies each variable of a cover by the monotonicity of the function
itself rather than by the literal phases of the cover, with two Shannon
containments per variable.  The library answers the same question from the
packed truth table (``repro.boolean.bitset.table_support`` for dependence,
``repro.boolean.unate.syntactic_unateness`` on SCC-minimal covers for
phases); the tests compare those answers against this one.
"""

from __future__ import annotations

from repro.boolean.cover import Cover
from repro.boolean.unate import Phase, UnatenessReport


def semantic_unateness(cover: Cover) -> UnatenessReport:
    """Classify each variable by monotonicity of the function itself.

    Variable x is positive (negative) unate when ``f_{x=0} <= f_{x=1}``
    (``f_{x=1} <= f_{x=0}``); independent when both hold; binate when neither
    holds.
    """
    phases = []
    for var in range(cover.nvars):
        f0, f1 = cover.shannon(var)
        up = f1.covers(f0)  # f0 <= f1
        down = f0.covers(f1)  # f1 <= f0
        if up and down:
            phases.append(Phase.ABSENT)
        elif up:
            phases.append(Phase.POSITIVE)
        elif down:
            phases.append(Phase.NEGATIVE)
        else:
            phases.append(Phase.BINATE)
    return UnatenessReport(tuple(phases))
