"""Two-level threshold network synthesis (the LSAT-style comparator).

The paper's related work cites Oliveira & Sangiovanni-Vincentelli's LSAT,
which synthesizes *two-level* threshold networks: each output is flattened
to a SOP, partitioned into subcovers that are threshold functions, and the
parts are OR-ed by one more gate — a depth-≤-2 structure (plus an OR tree
when the fanin bound forces one).  Implementing it provides the historical
baseline TELS's multi-level approach is implicitly compared against: on
networks with reconvergent structure the flattened covers explode or stop
being threshold, exactly the limitation that motivated multi-level
synthesis.

``synthesize_two_level`` raises :class:`~repro.errors.SynthesisError` when
an output's flattened cover exceeds ``max_cubes`` — deep circuits are out of
this method's reach by design, which the ablation benchmark demonstrates.

No flow runs it: it lives here, next to ``test_twolevel.py``, as the
comparator of ``benchmarks/test_ablation_twolevel.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.boolean import bitset
from repro.boolean.bitset import MAX_TABLE_VARS
from repro.boolean.cover import Cover
from repro.boolean.function import BooleanFunction
from repro.boolean.unate import syntactic_unateness
from repro.core.identify import ThresholdChecker
from repro.core.threshold import (
    ThresholdGate,
    ThresholdNetwork,
    WeightThresholdVector,
    make_or_vector,
)
from repro.errors import SynthesisError
from repro.network.network import BooleanNetwork
from repro.network.transform import collapse_network


@dataclass
class TwoLevelOptions:
    """Parameters of the two-level flow."""

    delta_on: int = 0
    delta_off: int = 1
    backend: str = "auto"
    max_fanin: int = 0  # 0 = unbounded gates (classic two-level setting)
    max_cubes: int = 256  # flattening guard


def synthesize_two_level(
    network: BooleanNetwork, options: TwoLevelOptions | None = None
) -> ThresholdNetwork:
    """Flatten each output and realize it as threshold parts + OR root."""
    options = options or TwoLevelOptions()
    checker = ThresholdChecker(
        delta_on=options.delta_on,
        delta_off=options.delta_off,
        backend=options.backend,
    )
    flat = collapse_network(network)
    result = ThresholdNetwork(network.name + "_2lvl")
    for pi in network.inputs:
        result.add_input(pi)
    for out in flat.outputs:
        result.add_output(out)
        if not flat.has_node(out):
            continue  # output aliases a primary input
        function = flat.function(out).trimmed()
        if function.num_cubes > options.max_cubes:
            raise SynthesisError(
                f"output {out!r} flattens to {function.num_cubes} cubes "
                f"(max {options.max_cubes}): out of two-level reach"
            )
        _realize_output(result, out, function, checker, options)
    result.cleanup()
    result.check()
    return result


def _realize_output(
    result: ThresholdNetwork,
    name: str,
    function: BooleanFunction,
    checker: ThresholdChecker,
    options: TwoLevelOptions,
) -> None:
    if function.nvars == 0:
        value = not function.cover.is_zero()
        result.add_gate(
            ThresholdGate(
                name,
                (),
                WeightThresholdVector((), 0 if value else 1),
                options.delta_on,
                options.delta_off,
            )
        )
        return
    parts = _partition_into_threshold_parts(function, checker, options)
    if len(parts) == 1:
        inputs, vector = parts[0]
        result.add_gate(
            ThresholdGate(
                name, inputs, vector, options.delta_on, options.delta_off
            )
        )
        return
    children = []
    for index, (inputs, vector) in enumerate(parts):
        child = f"{name}#p{index}"
        result.add_gate(
            ThresholdGate(
                child, inputs, vector, options.delta_on, options.delta_off
            )
        )
        children.append(child)
    _emit_or_tree(result, name, children, options)


def _partition_into_threshold_parts(
    function: BooleanFunction,
    checker: ThresholdChecker,
    options: TwoLevelOptions,
) -> list[tuple[tuple[str, ...], WeightThresholdVector]]:
    """Greedy cube packing: grow each part while it stays threshold."""
    remaining = list(function.cover.scc().cubes)
    nvars = function.nvars
    parts: list[tuple[tuple[str, ...], WeightThresholdVector]] = []
    while remaining:
        packed = [remaining.pop(0)]
        vector = _try_part(packed, nvars, function, checker, options)
        if vector is None:
            # A single unate cube is always threshold; a binate *cube* is
            # impossible, so failure here means the fanin bound is tiny.
            raise SynthesisError(
                "two-level part infeasible even for a single cube "
                f"(max_fanin={options.max_fanin})"
            )
        best = vector
        packable = nvars <= MAX_TABLE_VARS
        part_table = (
            Cover(packed, nvars).packed_table() if packable else None
        )
        index = 0
        while index < len(remaining):
            cube = remaining[index]
            if part_table is not None:
                # Packed absorption: a cube already covered by the part
                # adds no minterms, so the part's vector keeps working —
                # fold it in without paying for a checker call.
                ctab = bitset.cube_table(cube.pos, cube.neg, nvars)
                if ctab.andnot(part_table).is_zero():
                    packed = packed + [cube]
                    remaining.pop(index)
                    continue
            candidate = packed + [cube]
            cand_vector = _try_part(
                candidate, nvars, function, checker, options
            )
            if cand_vector is not None:
                packed = candidate
                best = cand_vector
                if part_table is not None:
                    part_table = Cover(packed, nvars).packed_table()
                remaining.pop(index)
            else:
                index += 1
        cover = Cover(packed, nvars)
        part_function = BooleanFunction(cover, function.variables).trimmed()
        weights = tuple(
            best.weights[function.index_of(v)]
            for v in part_function.variables
        )
        parts.append(
            (
                part_function.variables,
                WeightThresholdVector(weights, best.threshold),
            )
        )
    return parts


def _try_part(
    cubes,
    nvars: int,
    function: BooleanFunction,
    checker: ThresholdChecker,
    options: TwoLevelOptions,
) -> WeightThresholdVector | None:
    cover = Cover(cubes, nvars)
    if not syntactic_unateness(cover.scc()).is_unate:
        return None
    trimmed = BooleanFunction(cover, function.variables).trimmed()
    if options.max_fanin and trimmed.nvars > options.max_fanin:
        return None
    vector = checker.check(cover)
    return vector


def _emit_or_tree(
    result: ThresholdNetwork,
    name: str,
    children: list[str],
    options: TwoLevelOptions,
) -> None:
    bound = options.max_fanin or len(children)
    layer = children
    counter = 0
    while len(layer) > bound:
        next_layer = []
        for start in range(0, len(layer), bound):
            chunk = layer[start : start + bound]
            if len(chunk) == 1:
                next_layer.append(chunk[0])
                continue
            node = f"{name}#o{counter}"
            counter += 1
            result.add_gate(
                ThresholdGate(
                    node,
                    tuple(chunk),
                    make_or_vector(len(chunk), options.delta_on, options.delta_off),
                    options.delta_on,
                    options.delta_off,
                )
            )
            next_layer.append(node)
        layer = next_layer
    result.add_gate(
        ThresholdGate(
            name,
            tuple(layer),
            make_or_vector(len(layer), options.delta_on, options.delta_off),
            options.delta_on,
            options.delta_off,
        )
    )
