"""Unit tests for unateness analysis and positive-unate normalization."""

import random

from repro.boolean.cover import Cover
from repro.boolean.unate import (
    Phase,
    is_unate,
    syntactic_unateness,
    to_positive_unate,
)
from tests.boolean.unate_oracle import semantic_unateness
from tests.conftest import random_cover


class TestSyntactic:
    def test_phases(self):
        cover = Cover.from_strings(["10--", "1-1-"])
        report = syntactic_unateness(cover)
        assert report.phases == (
            Phase.POSITIVE,
            Phase.NEGATIVE,
            Phase.POSITIVE,
            Phase.ABSENT,
        )

    def test_binate_detection(self):
        cover = Cover.from_strings(["1-", "01"])
        report = syntactic_unateness(cover)
        assert report.phases[0] is Phase.BINATE
        assert not report.is_unate
        assert report.binate_vars() == [0]

    def test_positive_unate_flag(self):
        assert syntactic_unateness(
            Cover.from_strings(["11-", "--1"])
        ).is_positive_unate
        assert not syntactic_unateness(
            Cover.from_strings(["10-"])
        ).is_positive_unate

    def test_negative_vars(self):
        report = syntactic_unateness(Cover.from_strings(["00-"]))
        assert report.negative_vars() == [0, 1]


class TestSemantic:
    def test_redundant_cover_can_hide_unateness(self):
        # f = x0 + x0'x1 is semantically positive in x0 (equals x0 + x1).
        cover = Cover.from_strings(["1-", "01"])
        assert not syntactic_unateness(cover).is_unate
        report = semantic_unateness(cover)
        assert report.phases[0] is Phase.POSITIVE
        assert report.is_unate

    def test_truly_binate(self):
        xor = Cover.from_strings(["10", "01"])
        report = semantic_unateness(xor)
        assert report.phases == (Phase.BINATE, Phase.BINATE)

    def test_independent_variable_is_absent(self):
        cover = Cover.from_strings(["1-", "0-"])  # tautology: no dependence
        report = semantic_unateness(cover)
        assert report.phases == (Phase.ABSENT, Phase.ABSENT)

    def test_semantic_agrees_with_monotonicity_fuzz(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(1, 5)
            cover = random_cover(rng, n)
            report = semantic_unateness(cover)
            tt = cover.truth_table()
            for var in range(n):
                ups = downs = False
                for p in range(1 << n):
                    if not (p >> var) & 1:
                        lo, hi = tt[p], tt[p | (1 << var)]
                        ups |= lo < hi
                        downs |= lo > hi
                if ups and downs:
                    assert report.phases[var] is Phase.BINATE
                elif ups:
                    assert report.phases[var] is Phase.POSITIVE
                elif downs:
                    assert report.phases[var] is Phase.NEGATIVE
                else:
                    assert report.phases[var] is Phase.ABSENT


class TestIsUnate:
    def test_dispatch(self):
        cover = Cover.from_strings(["1-", "01"])
        assert not is_unate(cover)
        assert semantic_unateness(cover).is_unate


class TestToPositiveUnate:
    def test_flips_negative_columns(self):
        cover = Cover.from_strings(["10-", "1-0"])
        positive, flipped = to_positive_unate(cover)
        assert flipped == (False, True, True)
        assert sorted(positive.to_strings()) == ["1-1", "11-"]

    def test_identity_on_positive_cover(self):
        cover = Cover.from_strings(["11-", "--1"])
        positive, flipped = to_positive_unate(cover)
        assert positive == cover
        assert flipped == (False, False, False)

    def test_flip_preserves_function_modulo_phase(self):
        rng = random.Random(9)
        for _ in range(40):
            cover = random_cover(rng, 4)
            if not syntactic_unateness(cover).is_unate:
                continue
            positive, flipped = to_positive_unate(cover)
            for p in range(16):
                q = p
                for var, flip in enumerate(flipped):
                    if flip:
                        q ^= 1 << var
                assert positive.evaluate(q) == cover.evaluate(p)
