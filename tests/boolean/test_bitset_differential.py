"""Differential suite: packed bitset kernels vs legacy cube semantics.

Every packed kernel must agree bit-for-bit with the per-cube / per-point
definitions it replaced.  Property-based inputs come from the same cover
strategy the boolean substrate's other property tests use.

The property tests run once per bridge a table crosses on its way in and
out of the kernels: numpy's ``packbits``/``unpackbits`` over the little-
endian bytes of the int, and plain Python bit lists.  The two read the
bits independently, and both must carry the same ones.

The golden checks pin every kernel's output on seeded covers, weight
vectors and networks to ``golden_tables.json`` (regenerate with
``PYTHONPATH=src python -m tests.boolean.make_golden``).  The file was
first generated from the numpy word-array representation of ``BitVec``,
so it also pins the Python-int representation to that one.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolean import bitset
from repro.boolean.bitset import BitVec
from repro.boolean.cover import Cover, _count_minterms, _is_tautology
from repro.boolean.cube import Cube

#: Golden kernel outputs; written only by ``make_golden.py``.
GOLDEN_PATH = Path(__file__).with_name("golden_tables.json")
GOLDEN_SEED = 20261017
#: Simulation widths on and around the 64-bit word boundaries.
SIM_WIDTHS = (1, 63, 64, 65, 127, 128, 129, 200, 1000)

try:
    import numpy as np
except ImportError:  # the boolean substrate also runs without numpy
    np = None

needs_numpy = pytest.mark.skipif(np is None, reason="numpy not installed")
#: How bits enter and leave the packed kernels.
BRIDGES = (pytest.param("numpy", marks=needs_numpy), "python")


def _bool_array(table: BitVec):
    """The bits of ``table`` as a numpy bool array."""
    raw = table.words.to_bytes((table.width + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits[: table.width].astype(bool)


def _from_bool_array(array) -> BitVec:
    """Pack a numpy bool array, bit ``k`` from ``array[k]``."""
    packed = np.packbits(array.astype(np.uint8), bitorder="little").tobytes()
    return BitVec.from_int(int.from_bytes(packed, "little"), len(array))


def through(table: BitVec, bridge: str) -> BitVec:
    """``table`` after a round trip through ``bridge``."""
    if bridge == "numpy":
        return _from_bool_array(_bool_array(table))
    return BitVec.from_bits(table.to_bits())


def bits_of(table: BitVec, bridge: str) -> list[int]:
    """The bits of ``table`` as read through ``bridge``."""
    if bridge == "numpy":
        return [int(b) for b in _bool_array(table)]
    return table.to_bits()


@st.composite
def covers(draw, max_vars: int = 6, max_cubes: int = 6):
    nvars = draw(st.integers(min_value=1, max_value=max_vars))
    rows = draw(
        st.lists(
            st.text(alphabet="01-", min_size=nvars, max_size=nvars),
            min_size=0,
            max_size=max_cubes,
        )
    )
    return Cover.from_strings(rows) if rows else Cover.zero(nvars)


def legacy_truth_table(cover: Cover) -> list[int]:
    """The pre-substrate definition: a per-cube loop at every point."""
    return [
        int(any(cube.evaluate(p) for cube in cover.cubes))
        for p in range(1 << cover.nvars)
    ]


@pytest.mark.parametrize("bridge", BRIDGES)
@given(cover=covers())
@settings(max_examples=60, deadline=None)
def test_cover_table_matches_legacy_evaluation(bridge, cover):
    table = bitset.cover_table(cover)
    assert bits_of(table, bridge) == legacy_truth_table(cover)
    assert through(table, bridge) == table
    assert table.count() == sum(legacy_truth_table(cover))


@pytest.mark.parametrize("bridge", BRIDGES)
@given(cover=covers(), var=st.integers(min_value=0, max_value=5),
       value=st.booleans())
@settings(max_examples=60, deadline=None)
def test_cofactor_table_matches_restrict(bridge, cover, var, value):
    var = var % cover.nvars
    table = through(bitset.cover_table(cover), bridge)
    packed = bitset.cofactor_table(table, cover.nvars, var, value)
    assert bits_of(packed, bridge) == legacy_truth_table(
        cover.restrict(var, value)
    )


@pytest.mark.parametrize("bridge", BRIDGES)
@given(cover=covers())
@settings(max_examples=60, deadline=None)
def test_tautology_matches_unate_recursion(bridge, cover):
    table = through(bitset.cover_table(cover), bridge)
    assert bitset.table_is_tautology(table) == _is_tautology(
        cover.canonical_key()
    )


@pytest.mark.parametrize("bridge", BRIDGES)
@given(a=covers(max_vars=4), b=covers(max_vars=4))
@settings(max_examples=60, deadline=None)
def test_xor_matches_cover_xor(bridge, a, b):
    nvars = max(a.nvars, b.nvars)
    a = Cover([Cube(c.pos, c.neg, nvars) for c in a.cubes], nvars)
    b = Cover([Cube(c.pos, c.neg, nvars) for c in b.cubes], nvars)
    packed = through(bitset.cover_table(a), bridge) ^ through(
        bitset.cover_table(b), bridge
    )
    assert bits_of(packed, bridge) == legacy_truth_table(a.xor(b))


@pytest.mark.parametrize("bridge", BRIDGES)
@given(cover=covers())
@settings(max_examples=60, deadline=None)
def test_chow_matches_restricted_minterm_counts(bridge, cover):
    table = through(bitset.cover_table(cover), bridge)
    chow = bitset.chow_from_table(table, cover.nvars, cover.support_vars())
    for var, value in chow.items():
        legacy = _count_minterms(cover.restrict(var, True).canonical_key())
        assert value == legacy


@pytest.mark.parametrize("bridge", BRIDGES)
@given(
    weights=st.lists(
        st.integers(min_value=-7, max_value=7), min_size=0, max_size=8
    )
)
@settings(max_examples=60, deadline=None)
def test_weighted_sums_match_pointwise(bridge, weights):
    sums = bitset.weighted_sums(weights)
    if bridge == "numpy":
        # The synthesis side wraps the sums in an array before use.
        sums = np.asarray(sums).tolist()
    expected = [
        sum(w for i, w in enumerate(weights) if (p >> i) & 1)
        for p in range(1 << len(weights))
    ]
    assert [int(s) for s in sums] == expected


@pytest.mark.parametrize("bridge", BRIDGES)
@given(cover=covers(max_vars=4), var=st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_smooth_matches_cover_smooth(bridge, cover, var):
    var = var % cover.nvars
    table = through(bitset.cover_table(cover), bridge)
    packed = bitset.smooth_table(table, cover.nvars, var)
    assert bits_of(packed, bridge) == legacy_truth_table(cover.smooth(var))


@given(
    nvars=st.integers(min_value=0, max_value=10),
    width=st.sampled_from((1, 63, 64, 65, 127, 128, 129, 200)),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_table_eval_matches_minterm_cover_eval(nvars, width, data):
    rows = data.draw(
        st.lists(
            st.text(alphabet="01-", min_size=nvars, max_size=nvars),
            max_size=8,
        )
    )
    cover = Cover.from_strings(rows) if rows else Cover.zero(nvars)
    table = bitset.cover_table(cover)
    fanins = [
        BitVec.from_int(data.draw(st.integers(0, (1 << width) - 1)), width)
        for _ in range(nvars)
    ]
    got = bitset.eval_table_vecs(table, fanins, width)
    # References: the table's minterm SOP and the cover itself, each
    # evaluated one AND per literal.
    minterms = Cover.from_truth_table(table.to_bits(), nvars)
    assert got == bitset.eval_cover_vecs(minterms, fanins, width)
    assert got == bitset.eval_cover_vecs(cover, fanins, width)


# ----------------------------------------------------------------------
# Golden kernel outputs
# ----------------------------------------------------------------------


def table_entry(table: BitVec) -> str:
    """A packed table as ``width:hex``, or ``width:popcount:digest`` when
    it is wider than 256 bits (a readable diff where it is small)."""
    value = table.to_int()
    if table.width <= 256:
        return f"{table.width}:{value:x}"
    raw = value.to_bytes((table.width + 7) // 8, "little")
    digest = hashlib.sha256(raw).hexdigest()[:24]
    return f"{table.width}:{table.count()}:{digest}"


def golden_covers() -> list[Cover]:
    """Three seeded covers per width, 1 to ``MAX_TABLE_VARS`` variables,
    of one to six cubes with one to six literals each."""
    rng = random.Random(GOLDEN_SEED)
    out = []
    for nvars in range(1, bitset.MAX_TABLE_VARS + 1):
        for _ in range(3):
            cubes = []
            for _ in range(rng.randint(1, 6)):
                size = rng.randint(1, min(nvars, 6))
                literals = {
                    var: rng.random() < 0.5
                    for var in rng.sample(range(nvars), size)
                }
                cubes.append(Cube.from_literals(literals, nvars))
            out.append(Cover(cubes, nvars))
    return out


def cover_row(cover: Cover) -> dict:
    """Every table kernel's output on one cover."""
    n = cover.nvars
    table = bitset.cover_table(cover)
    chow = bitset.chow_from_table(table, n, range(n))
    return {
        "cover": cover.to_strings(),
        "table": table_entry(table),
        "cofactors": [
            [
                table_entry(bitset.cofactor_table(table, n, var, value))
                for value in (False, True)
            ]
            for var in range(n)
        ],
        "smooth": [
            table_entry(bitset.smooth_table(table, n, var))
            for var in range(n)
        ],
        "support": bitset.table_support(table, n),
        "chow": [chow[var] for var in range(n)],
    }


def golden_weights() -> list[list[int | float]]:
    """Seeded weight vectors of 0 to 12 inputs, both signs, then two with
    dyadic float weights (exact in binary, so sums are order-free)."""
    rng = random.Random(GOLDEN_SEED + 1)
    cases: list[list[int | float]] = [
        [rng.randint(-9, 9) for _ in range(n)] for n in range(13)
    ]
    cases.append([0.5, -1.25, 2.0, 0.75])
    cases.append([1.5, 1.5, -0.5, 3.25, -2.0, 0.25, 1.0])
    return cases


def weights_row(weights: list[int | float]) -> dict:
    """Weighted sums of every point, and fire tables at five thresholds."""
    sums = bitset.weighted_sums(weights)
    floats = any(isinstance(w, float) for w in weights)
    values = [float(s) if floats else int(s) for s in sums]
    lo, hi = min(values), max(values)
    thresholds = sorted({lo, hi, 0, (lo + hi) // 2, hi + 1})
    if len(values) <= 64:
        summary: list | str = values
    else:
        text = json.dumps(values).encode()
        summary = f"{len(values)}:{hashlib.sha256(text).hexdigest()[:24]}"
    return {
        "weights": weights,
        "sums": summary,
        "fires": [
            [t, table_entry(bitset.fires_table(sums, t))] for t in thresholds
        ],
    }


def simulation_rows() -> list[dict]:
    """Every signal of two seeded networks, simulated over random vectors
    of every :data:`SIM_WIDTHS` width and over the exhaustive vectors."""
    from repro.benchgen.random_logic import random_logic_network
    from repro.network import simulate

    rows = []
    for seed, npi in ((1, 8), (2, 12)):
        net = random_logic_network(f"sim{seed}", npi, 4, 24, seed)
        cases = [
            (width, simulate.random_pi_vectors(net, width, random.Random(width)))
            for width in SIM_WIDTHS
        ]
        vecs, width = simulate.exhaustive_pi_vectors(net)
        cases.append((width, vecs))
        for width, pi_vecs in cases:
            sim = simulate.simulate_vectors(net, pi_vecs, width)
            rows.append(
                {
                    "network": net.name,
                    "width": width,
                    "signals": {
                        name: table_entry(vec)
                        for name, vec in sorted(sim.items())
                    },
                }
            )
    return rows


def golden_threshold_networks() -> list:
    """One seeded gate DAG per gate model: 9 inputs and 14 gates of fanin
    1 to 6 with weights of both signs, plus the constant gates ``<; 0>``
    and ``<; 1>``.  Under ``multi-threshold`` most gates carry two or
    three thresholds; under ``flash`` weights reach the device grid
    (``|w| <= 8``).  The outputs are the last gate, four others, both
    constants and the input ``x0``."""
    from repro.core.threshold import (
        MultiThresholdVector,
        ThresholdGate,
        ThresholdNetwork,
        WeightThresholdVector,
    )

    rng = random.Random(GOLDEN_SEED + 2)
    networks = []
    for model in ("ltg", "multi-threshold", "flash"):
        net = ThresholdNetwork(f"th-{model}")
        signals = [net.add_input(f"x{i}") for i in range(9)]
        bound = 8 if model == "flash" else 4
        choices = [w for w in range(-bound, bound + 1) if w]
        for g in range(14):
            fanin = rng.randint(1, 6)
            inputs = tuple(rng.sample(signals, fanin))
            weights = tuple(rng.choice(choices) for _ in inputs)
            lo = sum(min(w, 0) for w in weights)
            hi = sum(max(w, 0) for w in weights)
            if model == "multi-threshold" and rng.random() < 0.7:
                thresholds = rng.sample(range(lo, hi + 2), rng.randint(2, 3))
                vector = MultiThresholdVector(weights, tuple(sorted(thresholds)))
            else:
                vector = WeightThresholdVector(weights, rng.randint(lo, hi + 1))
            signals.append(net.add_gate(ThresholdGate(f"g{g}", inputs, vector)))
            if g == 4:
                for name, threshold in (("one", 0), ("zero", 1)):
                    constant = WeightThresholdVector((), threshold)
                    signals.append(
                        net.add_gate(ThresholdGate(name, (), constant))
                    )
        for name in ["g13", *rng.sample(signals[9:-1], 4), "one", "zero", "x0"]:
            if name not in net.outputs:
                net.add_output(name)
        networks.append(net)
    return networks


def threshold_simulation_rows() -> list[dict]:
    """Every signal of the :func:`golden_threshold_networks`, simulated
    over random vectors of every :data:`SIM_WIDTHS` width and over the
    exhaustive vectors."""
    from repro.network import simulate

    rows = []
    for net in golden_threshold_networks():
        cases = [
            (width, simulate.random_pi_vectors(net, width, random.Random(width)))
            for width in SIM_WIDTHS
        ]
        vecs, width = simulate.exhaustive_pi_vectors(net)
        cases.append((width, vecs))
        for width, pi_vecs in cases:
            sim = simulate.simulate_threshold_vectors(net, pi_vecs, width)
            rows.append(
                {
                    "network": net.name,
                    "width": width,
                    "signals": {
                        name: table_entry(vec)
                        for name, vec in sorted(sim.items())
                    },
                }
            )
    return rows


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_kernels_match_golden_tables():
    golden = _golden()
    covers_ = golden_covers()
    assert len(covers_) == len(golden["covers"])
    for index, cover in enumerate(covers_):
        assert cover_row(cover) == golden["covers"][index], index
    cases = golden_weights()
    assert len(cases) == len(golden["weights"])
    for index, weights in enumerate(cases):
        assert weights_row(weights) == golden["weights"][index], index


def test_simulation_matches_golden_tables():
    golden = _golden()["simulation"]
    rows = simulation_rows()
    assert len(rows) == len(golden)
    for row, want in zip(rows, golden):
        assert row == want, (row["network"], row["width"])


def test_threshold_simulation_matches_golden_tables():
    golden = _golden()["threshold"]
    rows = threshold_simulation_rows()
    assert len(rows) == len(golden)
    for row, want in zip(rows, golden):
        assert row == want, (row["network"], row["width"])


def best_of_3(fn) -> float:
    """The shortest wall time of three calls of ``fn``."""
    walls = []
    for _ in range(3):
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
    return min(walls)


class TestPackedSpeedup:
    """The packed kernels stay at least 3x faster than the per-point
    loops they replaced; below that, a kernel fell back to a scalar loop.
    Each pair is checked equal before it is timed."""

    def test_cover_tables(self):
        rng = random.Random(1234)
        nvars = 12
        covers_ = []
        for _ in range(24):
            cubes = []
            for _ in range(16):
                pos = neg = 0
                for var in rng.sample(range(nvars), rng.randint(2, 5)):
                    if rng.random() < 0.5:
                        pos |= 1 << var
                    else:
                        neg |= 1 << var
                cubes.append(Cube(pos, neg, nvars))
            covers_.append(Cover(cubes, nvars))

        def per_point():
            return [legacy_truth_table(cover) for cover in covers_]

        def packed():
            return [
                bitset.key_table(
                    (nvars, tuple((c.pos, c.neg) for c in cover.cubes))
                ).to_bits()
                for cover in covers_
            ]

        assert per_point() == packed()
        speedup = best_of_3(per_point) / best_of_3(packed)
        assert speedup >= 3.0, speedup

    def test_network_simulation(self):
        from repro.benchgen.random_logic import random_logic_network
        from repro.network.simulate import random_pi_vectors, simulate_vectors

        network = random_logic_network(
            "microbench",
            num_inputs=16,
            num_outputs=8,
            num_nodes=48,
            seed=77,
            max_fanin=3,
            max_cubes=3,
            locality=12,
        )
        width = 4096
        vecs = random_pi_vectors(network, width, random.Random(5))

        def per_point():
            counts = []
            for k in range(width):
                out = network.evaluate(
                    {name: vecs[name].test(k) for name in network.inputs}
                )
                counts.append(sum(1 for o in network.outputs if out[o]))
            return counts

        def packed():
            sim = simulate_vectors(network, vecs, width)
            counts = [0] * width
            for o in network.outputs:
                for k, bit in enumerate(sim[o].to_bits()):
                    counts[k] += bit
            return counts

        assert per_point() == packed()
        speedup = best_of_3(per_point) / best_of_3(packed)
        assert speedup >= 3.0, speedup


class TestBitVecBasics:
    @pytest.mark.parametrize("bridge", BRIDGES)
    def test_roundtrip_and_algebra(self, bridge):
        a = through(BitVec.from_int(0b1011_0101, 8), bridge)
        b = through(BitVec.from_int(0b0110_0110, 8), bridge)
        assert (a & b).to_int() == 0b0010_0100
        assert (a | b).to_int() == 0b1111_0111
        assert (a ^ b).to_int() == 0b1101_0011
        assert a.andnot(b).to_int() == 0b1001_0001
        assert a.invert().to_int() == 0b0100_1010
        assert a.count() == 5
        assert a.test(0) and not a.test(1)
        assert BitVec.from_bits(a.to_bits()) == a

    @pytest.mark.parametrize("bridge", BRIDGES)
    def test_wide_vectors(self, bridge):
        # Cross the single-word boundary: 200 bits spans four words.
        value = (1 << 199) | (1 << 64) | 1
        v = through(BitVec.from_int(value, 200), bridge)
        assert v.to_int() == value
        assert bits_of(v, bridge) == [(value >> k) & 1 for k in range(200)]
        assert v.count() == 3
        assert v.invert().count() == 197
        assert not v.is_zero() and not v.is_ones()
        assert BitVec.ones(200).is_ones()

    def test_variable_column_is_cached_per_backend(self):
        first = bitset.variable_column(2, 4)
        again = bitset.variable_column(2, 4)
        assert first is again


class TestCoverMemoization:
    def test_construction_dedupes_exact_cubes(self):
        cube = Cube.from_string("1-0")
        cover = Cover([cube, cube, Cube.from_string("01-"), cube], 3)
        assert cover.num_cubes == 2

    def test_truth_table_memoized_on_instance(self):
        cover = Cover.from_strings(["1-0", "01-"])
        first = cover.packed_table()
        assert cover.packed_table() is first
        # truth_table() hands out fresh lists: mutation must not leak back.
        bits = cover.truth_table()
        bits[0] ^= 1
        assert cover.truth_table() != bits

    def test_canonical_key_and_scc_memoized(self):
        cover = Cover.from_strings(["1--", "11-", "0-1"])
        assert cover.canonical_key() is cover.canonical_key()
        reduced = cover.scc()
        assert cover.scc() is reduced
        # The SCC form knows it is already reduced.
        assert reduced.scc() is reduced

    def test_cached_properties_match_recomputation(self):
        cover = Cover.from_strings(["1-0", "01-", "-11"])
        assert cover.num_literals == sum(
            c.num_literals for c in cover.cubes
        )
        expected = 0
        for c in cover.cubes:
            expected |= c.support
        assert cover.support == expected

    def test_pickle_drops_caches_but_preserves_value(self):
        import pickle

        cover = Cover.from_strings(["1-0", "01-"])
        cover.packed_table()
        clone = pickle.loads(pickle.dumps(cover))
        assert clone == cover
        assert clone.truth_table() == cover.truth_table()
