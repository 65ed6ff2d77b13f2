"""Regenerate the exact-ILP vector golden (``golden_vectors.json``).

Run from the repo root::

    PYTHONPATH=src python -m tests.ilp.make_golden

The golden pins the vector ``[weights, threshold]`` (or ``null`` for a
non-threshold cover) that the exact backend returns with the Chow fast path
off, for every random cover that ``tests/ilp/test_differential.py`` checks
in ``test_feasibility_agreement_and_inequalities`` and
``test_bounded_agreement``.  In that configuration branch and bound alone
picks among tied optima, so a change to the solver stack's warm starts or
search order shows up here.  Regenerate only when the chosen optimum
changes on purpose; those two tests fail on any drift.
"""

from __future__ import annotations

import json
import random

from repro.core.identify import ThresholdChecker
from tests.ilp.test_differential import (
    GOLDEN_PATH,
    NUM_BOUNDED_COVERS,
    NUM_COVERS,
    _random_unate_cover,
    vector_row,
)


def exact_rows(
    seed: int, count: int, max_weight: int | None = None
) -> list[list | None]:
    """Replay one test's cover stream through a fast-path-off exact checker."""
    rng = random.Random(seed)
    checker = ThresholdChecker(
        use_fastpath=False, backend="exact", max_weight=max_weight
    )
    return [
        vector_row(checker.check(_random_unate_cover(rng)))
        for _ in range(count)
    ]


def main() -> None:
    golden = {"feasibility": exact_rows(20260805, NUM_COVERS)}
    for w in (1, 2):
        golden[f"bounded[{w}]"] = exact_rows(
            w, NUM_BOUNDED_COVERS, max_weight=w
        )
    # One cover per line, so a drift shows up as a readable diff.
    sections = [
        f"{json.dumps(name)}: [\n"
        + ",\n".join(json.dumps(row) for row in rows)
        + "\n]"
        for name, rows in golden.items()
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(sections) + "\n}\n")
    for name, rows in golden.items():
        feasible = sum(row is not None for row in rows)
        print(f"{name}: {len(rows)} covers, {feasible} threshold")


if __name__ == "__main__":
    main()
