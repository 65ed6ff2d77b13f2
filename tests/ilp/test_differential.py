"""Differential test: fast path vs exact ILP vs scipy on random unate covers.

The acceptance bar for the solver-stack refactor: on hundreds of randomized
unate covers, (a) the Chow fast path, the exact backend, and the scipy
backend agree on feasibility, and (b) every accepted weight–threshold
vector satisfies every ON/OFF inequality — checked here in the strongest
form, point by point over the full truth table with the defect tolerances.
The exact backend's vectors (fast path off) must also match
``golden_vectors.json`` cover by cover.
"""

import functools
import json
import random
from pathlib import Path

import pytest

from repro.boolean.cover import Cover
from repro.core.identify import ThresholdChecker
from repro.ilp.scipy_backend import have_scipy

NUM_COVERS = 520
#: Covers per ``test_bounded_agreement`` case.
NUM_BOUNDED_COVERS = 100
#: The exact-ILP vector of every cover above, fast path off; regenerated
#: only by ``make_golden.py``.
GOLDEN_PATH = Path(__file__).with_name("golden_vectors.json")
#: Support sizes, skewed small (ILP width = support + 1) but reaching 10.
SIZE_POOL = [2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 6, 6, 7, 8, 9, 10]


def _random_unate_cover(rng: random.Random) -> Cover:
    """A random unate cover: positive rows, then a random phase per var."""
    nvars = rng.choice(SIZE_POOL)
    flip = [rng.random() < 0.4 for _ in range(nvars)]
    rows = []
    for _ in range(rng.randint(1, 5)):
        row = []
        for var in range(nvars):
            lit = rng.choice("1--")
            if lit == "1" and flip[var]:
                lit = "0"
            row.append(lit)
        rows.append("".join(row))
    return Cover.from_strings(rows)


def vector_row(vec) -> list | None:
    """A checker answer as a golden row: ``[weights, threshold]`` or None."""
    if vec is None:
        return None
    return [list(vec.weights), vec.threshold]


@functools.cache
def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _assert_vector_separates(cover, vec, delta_on, delta_off, context):
    """Every true point clears T + delta_on; every false point stays below."""
    for point in range(1 << cover.nvars):
        sum_w = sum(
            w for i, w in enumerate(vec.weights) if (point >> i) & 1
        )
        if cover.evaluate(point):
            assert sum_w >= vec.threshold + delta_on, (context, point)
        else:
            assert sum_w <= vec.threshold - delta_off, (context, point)


class TestDifferential:
    def _checkers(self):
        configs = {
            "fastpath": ThresholdChecker(use_fastpath=True, backend="exact"),
            "exact": ThresholdChecker(use_fastpath=False, backend="exact"),
        }
        if have_scipy():
            configs["scipy"] = ThresholdChecker(
                use_fastpath=False, backend="scipy"
            )
        return configs

    def test_feasibility_agreement_and_inequalities(self):
        rng = random.Random(20260805)
        checkers = self._checkers()
        accepted = 0
        rejected = 0
        for index in range(NUM_COVERS):
            cover = _random_unate_cover(rng)
            results = {
                name: checker.check(cover)
                for name, checker in checkers.items()
            }
            verdicts = {name: r is not None for name, r in results.items()}
            assert len(set(verdicts.values())) == 1, (index, cover, verdicts)
            assert vector_row(results["exact"]) == (
                _golden()["feasibility"][index]
            ), (index, cover)
            if results["fastpath"] is None:
                rejected += 1
                continue
            accepted += 1
            for name, vec in results.items():
                _assert_vector_separates(
                    cover, vec, delta_on=0, delta_off=1,
                    context=(index, name, cover),
                )
        # The distribution must actually exercise both outcomes.
        assert accepted >= 50
        assert rejected >= 50

    def test_fastpath_hits_match_ilp_optimum(self):
        """Where the fast path answers, its vector has the ILP's objective."""
        rng = random.Random(99)
        fast = ThresholdChecker(use_fastpath=True, backend="exact")
        slow = ThresholdChecker(use_fastpath=False, backend="exact")
        compared = 0
        for _ in range(120):
            cover = _random_unate_cover(rng)
            a = fast.check(cover)
            b = slow.check(cover)
            assert (a is None) == (b is None), cover
            if a is None:
                continue
            compared += 1
            obj_a = sum(abs(w) for w in a.weights) + a.to_positive_threshold()
            obj_b = sum(abs(w) for w in b.weights) + b.to_positive_threshold()
            assert obj_a == obj_b, (cover, a, b)
        assert compared >= 20

    @pytest.mark.parametrize("max_weight", [1, 2])
    def test_bounded_agreement(self, max_weight):
        """max_weight verdicts agree between the fast path and the ILP."""
        rng = random.Random(max_weight)
        golden = _golden()[f"bounded[{max_weight}]"]
        fast = ThresholdChecker(
            use_fastpath=True, backend="exact", max_weight=max_weight
        )
        slow = ThresholdChecker(
            use_fastpath=False, backend="exact", max_weight=max_weight
        )
        for index in range(NUM_BOUNDED_COVERS):
            cover = _random_unate_cover(rng)
            a = fast.check(cover)
            b = slow.check(cover)
            assert (a is None) == (b is None), (index, cover)
            assert vector_row(b) == golden[index], (index, cover)
            if a is not None:
                assert all(abs(w) <= max_weight for w in a.weights)
                _assert_vector_separates(
                    cover, a, 0, 1, (index, cover)
                )
