"""Unit tests for the espresso-lite two-level minimizer."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolean.bitset import weighted_sums
from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.boolean.function import BooleanFunction
from repro.boolean.minimize import expand, irredundant, minimize, reduce_cover
from repro.core.identify import is_threshold_function
from repro.errors import CoverError
from tests.conftest import random_cover


def cover_loop(cover: Cover, dcset: Cover | None = None) -> Cover:
    """The EXPAND / IRREDUNDANT / REDUCE loop on covers, OFF-set included.

    The reference for :func:`minimize`: the same fixpoint, driven by the
    public cover steps against the complement of the ON- and DC-set.
    """
    cover = cover.scc()
    offset = (cover if dcset is None else cover.union(dcset)).complement()
    best = irredundant(expand(cover, offset), dcset)
    best_cost = (best.num_cubes, best.num_literals)
    for _ in range(8):
        candidate = irredundant(expand(reduce_cover(best, dcset), offset), dcset)
        cost = (candidate.num_cubes, candidate.num_literals)
        if cost >= best_cost:
            break
        best, best_cost = candidate, cost
    return best


@st.composite
def sparse_covers(draw, nvars: int, max_cubes: int):
    """Covers over ``nvars`` variables; wide ones get few literals a cube,
    which keeps the reference's complement small."""
    max_literals = min(nvars, 8 if nvars <= 8 else 4)
    cubes = draw(
        st.lists(
            st.dictionaries(
                st.integers(0, max(nvars - 1, 0)),
                st.booleans(),
                max_size=max_literals,
            ),
            max_size=max_cubes,
        )
    )
    return Cover([Cube.from_literals(c, nvars) for c in cubes], nvars)


class TestExpand:
    def test_expands_to_primes(self):
        # f = ab + ab' = a; expansion against the offset discovers it.
        cover = Cover.from_strings(["11", "10"])
        offset = cover.complement()
        result = expand(cover, offset)
        assert result.to_strings() == ["1-"]

    def test_no_expansion_into_offset(self):
        cover = Cover.from_strings(["11"])
        offset = cover.complement()
        result = expand(cover, offset)
        assert result.equivalent(cover)


class TestIrredundant:
    def test_removes_covered_cube(self):
        # ab is covered by a.
        cover = Cover.from_strings(["1-", "11"])
        result = irredundant(cover)
        assert result.to_strings() == ["1-"]

    def test_keeps_essential_cubes(self):
        cover = Cover.from_strings(["1-", "-1"])
        assert irredundant(cover).num_cubes == 2

    def test_consensus_redundancy(self):
        # ab + a'c + bc: bc is redundant (consensus).
        cover = Cover.from_strings(["11-", "0-1", "-11"])
        result = irredundant(cover)
        assert result.num_cubes == 2
        assert result.equivalent(cover)


class TestReduce:
    def test_reduce_keeps_function_on_care_set(self):
        rng = random.Random(61)
        for _ in range(40):
            cover = random_cover(rng, rng.randint(1, 5), max_cubes=5)
            reduced = reduce_cover(cover)
            assert reduced.equivalent(cover)


class TestMinimize:
    def test_classic_example(self):
        # f = a b + a b' + a' b  ==  a + b (2 cubes, 2 literals).
        cover = Cover.from_strings(["11", "10", "01"])
        result = minimize(cover)
        assert result.num_cubes == 2
        assert result.num_literals == 2
        assert result.equivalent(cover)

    def test_constant_one_detected(self):
        cover = Cover.from_strings(["1-", "0-"])
        assert minimize(cover).is_tautology()

    def test_constant_zero_passthrough(self):
        assert minimize(Cover.zero(3)).is_zero()

    def test_with_dont_cares(self):
        # ON = {11}, DC = {10}: minimal result is just `a`.
        on = Cover.from_strings(["11"])
        dc = Cover.from_strings(["10"])
        result = minimize(on, dc)
        assert result.to_strings() == ["1-"]

    def test_never_increases_cost_fuzz(self):
        rng = random.Random(67)
        for _ in range(80):
            cover = random_cover(rng, rng.randint(1, 5), max_cubes=6).scc()
            if cover.is_zero():
                continue
            result = minimize(cover)
            assert result.equivalent(cover)
            assert result.num_cubes <= max(cover.num_cubes, 1)

    def test_dc_fuzz_respects_care_set(self):
        rng = random.Random(71)
        for _ in range(60):
            n = rng.randint(1, 5)
            on = random_cover(rng, n, max_cubes=4)
            dc = random_cover(rng, n, max_cubes=3)
            if on.is_zero():
                continue
            result = minimize(on, dc)
            for p in range(1 << n):
                if dc.evaluate(p):
                    continue
                assert result.evaluate(p) == on.evaluate(p), (
                    on.to_strings(),
                    dc.to_strings(),
                    p,
                )

    def test_irredundant_result(self):
        rng = random.Random(73)
        for _ in range(40):
            cover = random_cover(rng, rng.randint(1, 5), max_cubes=6)
            if cover.is_zero() or cover.is_tautology():
                continue
            result = minimize(cover)
            # Dropping any single cube must change the function.
            for i in range(result.num_cubes):
                rest = Cover(
                    result.cubes[:i] + result.cubes[i + 1 :], result.nvars
                )
                assert not rest.equivalent(result)


class TestTablePath:
    """Covers of up to 16 variables minimize on truth tables; the result
    must be the cover loop's, cube for cube and in order."""

    @pytest.mark.parametrize("nvars", range(17))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_cover_loop(self, nvars, data):
        on = data.draw(sparse_covers(nvars, max_cubes=6))
        dc = data.draw(sparse_covers(nvars, max_cubes=3))
        if on.scc().is_zero() or on.is_tautology():
            return
        assert minimize(on).cubes == cover_loop(on).cubes
        assert minimize(on, dc).cubes == cover_loop(on, dc).cubes

    def test_builds_no_complement(self, monkeypatch):
        def refuse(self):
            raise AssertionError("complement() on a packable cover")

        monkeypatch.setattr(Cover, "complement", refuse)
        rng = random.Random(79)
        for _ in range(40):
            n = rng.randint(1, 6)
            on = random_cover(rng, n, max_cubes=6)
            dc = random_cover(rng, n, max_cubes=3)
            assert minimize(on).equivalent(on)
            minimize(on, dc)

    def test_dc_set_of_another_width_raises(self):
        with pytest.raises(CoverError):
            minimize(Cover.from_strings(["11-"]), Cover.from_strings(["10"]))
        # Constant covers are checked too, before their shortcut.
        with pytest.raises(CoverError):
            minimize(Cover.zero(3), Cover.from_strings(["10"]))
        with pytest.raises(CoverError):
            minimize(Cover.from_strings(["1-", "0-"]), Cover.from_strings(["1"]))


class TestWideLoop:
    """Over 16 variables minimize runs the cover loop, OFF-set included."""

    WIDTH = 17

    def _cover(self, rows: dict[int, dict[int, bool]]) -> Cover:
        return Cover(
            [Cube.from_literals(lits, self.WIDTH) for lits in rows.values()],
            self.WIDTH,
        )

    def test_consensus_cube_is_dropped(self):
        # x0 x16 + x0' x1 + x1 x16: the third cube is the consensus of the
        # first two.
        cover = self._cover(
            {0: {0: True, 16: True}, 1: {0: False, 1: True}, 2: {1: True, 16: True}}
        )
        result = minimize(cover)
        assert result.cubes == cover_loop(cover).cubes
        assert sorted(result.to_strings()) == sorted(cover.to_strings()[:2])

    def test_dont_cares_widen_a_cube(self):
        # ON = x0 x1 x16, DC = x0 x1 x16': the result is x0 x1.
        on = self._cover({0: {0: True, 1: True, 16: True}})
        dc = self._cover({0: {0: True, 1: True, 16: False}})
        result = minimize(on, dc)
        assert result.cubes == (Cube.from_literals({0: True, 1: True}, 17),)

    def test_threshold_function_over_17_inputs(self):
        # maj(x0, x1, x2) + x3 + ... + x16: weights 1, 1, 1, 2, ..., 2 and
        # threshold 2 realize it; the checker minimizes its 17-variable
        # complement in the cover loop.
        names = [f"x{i}" for i in range(17)]
        text = " + ".join(["x0 x1", "x0 x2", "x1 x2"] + names[3:])
        vector = is_threshold_function(BooleanFunction.parse(text))
        assert vector is not None
        sums = weighted_sums(vector.weights)
        for point, total in enumerate(sums):
            expected = (point & 7) in (3, 5, 6, 7) or point >> 3 != 0
            assert vector.fires(total) == expected, point
