"""One-to-one mapping baseline (Section VI-A of the paper).

"One-to-one mapping refers to replacing each gate in the optimized Boolean
network with a threshold gate."  The input here is an optimized,
technology-decomposed network (every node a simple AND/OR gate of bounded
fanin, literal phases allowed); every such gate *is* a threshold function,
so each node maps to one LTG whose minimal-area weight–threshold vector the
ILP provides.
"""

from __future__ import annotations

from repro.core.identify import ThresholdChecker
from repro.core.threshold import (
    ThresholdGate,
    ThresholdNetwork,
    make_constant_vector,
)
from repro.errors import SynthesisError
from repro.network.network import BooleanNetwork


def one_to_one_map(
    network: BooleanNetwork,
    delta_on: int = 0,
    delta_off: int = 1,
    backend: str = "auto",
    checker: ThresholdChecker | None = None,
) -> ThresholdNetwork:
    """Replace every Boolean gate with a single threshold gate.

    Every node of ``network`` must itself be a threshold function (which is
    guaranteed when the network has been technology-decomposed into simple
    gates); a non-threshold node raises :class:`SynthesisError` naming it.
    """
    if checker is None:
        checker = ThresholdChecker(
            delta_on=delta_on, delta_off=delta_off, backend=backend
        )
    result = ThresholdNetwork(network.name + "_1to1")
    for pi in network.inputs:
        result.add_input(pi)
    for out in network.outputs:
        result.add_output(out)
    for node in network.topological_order():
        function = network.function(node).trimmed()
        if function.nvars == 0:
            value = not function.cover.is_zero()
            vector = make_constant_vector(value, 0, delta_on, delta_off)
            result.add_gate(
                ThresholdGate(node, (), vector, delta_on, delta_off)
            )
            continue
        vector = checker.check_function(function)
        if vector is None:
            raise SynthesisError(
                f"node {node!r} is not a threshold function; decompose the "
                "network into simple gates before one-to-one mapping"
            )
        result.add_gate(
            ThresholdGate(
                node, function.variables, vector, delta_on, delta_off
            )
        )
    result.check()
    return result
