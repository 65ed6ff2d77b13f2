"""NP-semi-canonicalization: transform algebra and key invariance."""

import random

from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.cache.canonical import (
    NPTransform,
    np_canonicalize,
    vector_from_canonical,
    vector_to_canonical,
    verify_vector_key,
)
from repro.core.identify import is_threshold_function
from repro.core.threshold import WeightThresholdVector
from repro.gates import get_model


def random_cover(rng: random.Random, nvars: int) -> Cover:
    cubes = []
    for _ in range(rng.randint(1, 4)):
        lits = {}
        for var in rng.sample(range(nvars), rng.randint(1, nvars)):
            lits[var] = rng.random() < 0.6
        cubes.append(Cube.from_literals(lits, nvars))
    return Cover(cubes, nvars).scc()


def np_variant(cover_key: tuple, perm: tuple, negate_mask: int) -> tuple:
    """An NP-equivalent cover key: negate masked variables, then permute."""
    nvars, rows = cover_key
    out = []
    for pos, neg in rows:
        flipped_pos = (pos & ~negate_mask) | (neg & negate_mask)
        flipped_neg = (neg & ~negate_mask) | (pos & negate_mask)
        new_pos = new_neg = 0
        for new_var, old_var in enumerate(perm):
            if flipped_pos & (1 << old_var):
                new_pos |= 1 << new_var
            if flipped_neg & (1 << old_var):
                new_neg |= 1 << new_var
        out.append((new_pos, new_neg))
    return (nvars, tuple(sorted(out)))


class TestTransformAlgebra:
    def test_identity_round_trip(self):
        transform = NPTransform((0, 1, 2), (False, False, False))
        vector = WeightThresholdVector((2, -1, 3), 2)
        values = vector_to_canonical(vector, transform)
        assert values == [2, -1, 3, 2]
        assert vector_from_canonical(values, transform) == vector
        assert transform.is_identity

    def test_random_transforms_invert_exactly(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 6)
            perm = tuple(rng.sample(range(n), n))
            flipped = tuple(rng.random() < 0.5 for _ in range(n))
            transform = NPTransform(perm, flipped)
            vector = WeightThresholdVector(
                tuple(rng.randint(-4, 4) for _ in range(n)), rng.randint(-4, 4)
            )
            values = vector_to_canonical(vector, transform)
            assert vector_from_canonical(values, transform) == vector

    def test_negation_is_an_involution(self):
        transform = NPTransform((0, 1), (True, False))
        vector = WeightThresholdVector((3, 2), 4)
        once = vector_from_canonical(
            vector_to_canonical(vector, transform), transform
        )
        assert once == vector


class TestCanonicalKey:
    def test_canonical_form_is_a_fixpoint(self):
        rng = random.Random(11)
        for _ in range(100):
            cover = random_cover(rng, rng.randint(2, 5))
            canonical = np_canonicalize(cover.canonical_key())
            again = np_canonicalize(canonical.key)
            assert again.key == canonical.key

    def test_solved_vector_verifies_in_canonical_space(self):
        rng = random.Random(13)
        checked = 0
        for _ in range(150):
            cover = random_cover(rng, rng.randint(2, 5))
            vector = is_threshold_function(cover)
            if vector is None:
                continue
            checked += 1
            key = cover.canonical_key()
            assert verify_vector_key(key, vector, 0, 1)
            canonical = np_canonicalize(key)
            values = vector_to_canonical(vector, canonical.transform)
            canonical_vector = WeightThresholdVector(
                tuple(values[:-1]), values[-1]
            )
            assert verify_vector_key(canonical.key, canonical_vector, 0, 1)
            back = vector_from_canonical(values, canonical.transform)
            assert back == vector
        assert checked > 30

    def test_np_equivalent_covers_transport_vectors(self):
        """The cache-hit path: a vector solved for one cover serves every
        NP-equivalent cover that lands on the same canonical key."""
        rng = random.Random(17)
        matched = transported = 0
        for _ in range(200):
            nvars = rng.randint(2, 5)
            cover = random_cover(rng, nvars)
            vector = is_threshold_function(cover)
            if vector is None:
                continue
            key = cover.canonical_key()
            perm = tuple(rng.sample(range(nvars), nvars))
            mask = rng.getrandbits(nvars)
            variant_key = np_variant(key, perm, mask)
            a = np_canonicalize(key)
            b = np_canonicalize(variant_key)
            if a.key != b.key:
                continue  # semi-canonical: phase ties may split classes
            matched += 1
            values = vector_to_canonical(vector, a.transform)
            transported_vector = vector_from_canonical(values, b.transform)
            assert verify_vector_key(variant_key, transported_vector, 0, 1)
            if not b.transform.is_identity:
                transported += 1
        assert matched > 50
        assert transported > 20


class TestVerification:
    def test_wrong_vector_is_rejected(self):
        cover = Cover(
            (Cube.from_literals({0: True, 1: True}, 2),), 2
        )  # AND
        key = cover.canonical_key()
        assert verify_vector_key(key, WeightThresholdVector((1, 1), 2), 0, 1)
        assert not verify_vector_key(
            key, WeightThresholdVector((1, 1), 1), 0, 1
        )  # fires on single inputs: OR, not AND
        # At delta_off = 0 the weighted sums alone cannot tell: <0, 0; 0>
        # (constant 1) and <1, 1; 1> (OR) keep every OFF sum at T - 0.
        assert not verify_vector_key(
            key, WeightThresholdVector((0, 0), 0), 0, 0
        )
        assert not get_model("ltg").verify_vector(
            key, WeightThresholdVector((1, 1), 1), 1, 0
        )

    def test_margins_are_enforced_not_just_function(self):
        cover = Cover((Cube.from_literals({0: True}, 1),), 1)  # buffer
        vector = WeightThresholdVector((1,), 1)
        assert verify_vector_key(cover.canonical_key(), vector, 0, 1)
        # Functionally right, but the ON margin is below delta_on=1.
        assert not verify_vector_key(cover.canonical_key(), vector, 1, 1)

    def test_width_mismatch_rejected(self):
        cover = Cover((Cube.from_literals({0: True}, 2),), 2)
        assert not verify_vector_key(
            cover.canonical_key(), WeightThresholdVector((1,), 1), 0, 1
        )
