"""Linear threshold gates and threshold networks.

A linear threshold gate (LTG) computes ``1`` when the weighted sum of its
inputs reaches its threshold ``T`` (Eq. 1 of the paper).  Synthesized gates
carry the defect tolerances ``delta_on`` / ``delta_off`` they were solved
with: the gate's weight–threshold vector guarantees every true input vector
sums to at least ``T + delta_on`` and every false one to at most
``T - delta_off``, which is what makes the network robust to weight
perturbation (Section VI-C).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Mapping, Sequence

from repro.boolean import bitset
from repro.boolean.bitset import BitVec
from repro.boolean.cover import Cover
from repro.boolean.function import BooleanFunction
from repro.errors import NetworkError


@dataclass(frozen=True)
class WeightThresholdVector:
    """The vector ``<w1, ..., wl; T>`` defining a threshold function."""

    weights: tuple[int, ...]
    threshold: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        object.__setattr__(self, "threshold", int(self.threshold))

    @property
    def num_inputs(self) -> int:
        return len(self.weights)

    @property
    def area(self) -> int:
        """RTD area model, Eq. (14): sum of |w_i| plus |T| (A_u = 1)."""
        return sum(abs(w) for w in self.weights) + abs(self.threshold)

    def fires(self, total: int | float) -> bool:
        """Gate output for a weighted input sum (Eq. 1)."""
        return total >= self.threshold

    def evaluate(self, inputs: Sequence[bool | int]) -> bool:
        """Exact gate evaluation: fire when the weighted sum reaches T."""
        total = sum(w for w, x in zip(self.weights, inputs) if x)
        return total >= self.threshold

    def to_positive_threshold(self) -> int:
        """Threshold of the positive-unate form (negative weights absorbed)."""
        return self.threshold + sum(-w for w in self.weights if w < 0)

    def margins(self) -> tuple[int | None, int | None]:
        """(ON margin, OFF margin) over all ``2**l`` input points.

        The ON margin is the tightest slack of a true vector's sum above
        ``T``; the OFF margin the tightest slack of a false vector's sum
        below ``T``.  None when the gate has no true (resp. false) vectors.
        """
        return _margins(self.weights, (self.threshold,))

    def table(self, weights: Sequence[float] | None = None) -> BitVec:
        """Packed truth table over all ``2**l`` input points.

        ``weights`` stands in for the vector's own, say a disturbed
        instance of them; the threshold stays.
        """
        sums = bitset.weighted_sums(self.weights if weights is None else weights)
        return bitset.fires_table(sums, self.threshold)

    def __str__(self) -> str:
        ws = ", ".join(str(w) for w in self.weights)
        return f"<{ws}; {self.threshold}>"


@dataclass(frozen=True)
class MultiThresholdVector:
    """A multi-threshold gate ``<w1, ..., wl; T1 < ... < Tk>``.

    The gate fires when the weighted input sum has crossed an *odd* number
    of thresholds — the output toggles at every ``T_j`` (arXiv:1301.0048).
    With ``k = 1`` this degenerates to the ordinary LTG; with weights of 1
    and thresholds ``1..l`` it computes parity, which is why the
    ``multi-threshold`` gate model can absorb whole XOR cones that the
    single-threshold flow must split.
    """

    weights: tuple[int, ...]
    thresholds: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        object.__setattr__(
            self, "thresholds", tuple(int(t) for t in self.thresholds)
        )
        if not self.thresholds:
            raise NetworkError("multi-threshold vector needs >= 1 threshold")
        if any(
            a >= b for a, b in zip(self.thresholds, self.thresholds[1:])
        ):
            raise NetworkError(
                f"thresholds must be strictly increasing: {self.thresholds}"
            )

    @property
    def num_inputs(self) -> int:
        return len(self.weights)

    @property
    def threshold(self) -> int:
        """The first (lowest) threshold — printing/diagnostic compatibility."""
        return self.thresholds[0]

    @property
    def area(self) -> int:
        """Eq. (14) generalized: one RTD per weight plus one per threshold."""
        return sum(abs(w) for w in self.weights) + sum(
            abs(t) for t in self.thresholds
        )

    def fires(self, total: int | float) -> bool:
        """Output toggles at each threshold the sum has reached."""
        return sum(1 for t in self.thresholds if total >= t) % 2 == 1

    def evaluate(self, inputs: Sequence[bool | int]) -> bool:
        total = sum(w for w, x in zip(self.weights, inputs) if x)
        return self.fires(total)

    def margins(self) -> tuple[int | None, int | None]:
        """(ON margin, OFF margin) generalized to interval boundaries.

        Every threshold behaves locally like an LTG threshold: a point at
        sum ``s`` must clear its nearest threshold below by the ON margin
        (``s - T_below``) and stay below its nearest threshold above by the
        OFF margin (``T_above - s``).  For ``k = 1`` this reduces exactly to
        :meth:`WeightThresholdVector.margins`.
        """
        return _margins(self.weights, self.thresholds)

    def table(self, weights: Sequence[float] | None = None) -> BitVec:
        """Packed truth table: XOR of the per-threshold fire tables.

        ``weights`` stands in for the vector's own, as in
        :meth:`WeightThresholdVector.table`.
        """
        sums = bitset.weighted_sums(self.weights if weights is None else weights)
        table = bitset.fires_table(sums, self.thresholds[0])
        for t in self.thresholds[1:]:
            table = table ^ bitset.fires_table(sums, t)
        return table

    def __str__(self) -> str:
        ws = ", ".join(str(w) for w in self.weights)
        ts = ", ".join(str(t) for t in self.thresholds)
        return f"<{ws}; {ts}>"


#: Any gate-defining vector a ThresholdGate may carry.
GateVector = WeightThresholdVector | MultiThresholdVector


def _margins(
    weights: Sequence[int], thresholds: Sequence[int]
) -> tuple[int | None, int | None]:
    """(ON margin, OFF margin) of all ``2**l`` input points against
    strictly increasing thresholds.

    ``bisect_right`` counts the thresholds at or below a point's sum
    ``s``: the nearest one below is ``thresholds[i - 1]`` (when ``i > 0``),
    the nearest one above ``thresholds[i]`` (when ``i < k``).
    """
    below: list[int] = []
    above: list[int] = []
    for s in bitset.weighted_sums(weights):
        i = bisect_right(thresholds, s)
        if i:
            below.append(s - thresholds[i - 1])
        if i < len(thresholds):
            above.append(thresholds[i] - s)
    return min(below, default=None), min(above, default=None)


@dataclass(frozen=True)
class ThresholdGate:
    """A named threshold-gate instance inside a threshold network.

    The ``vector`` is usually a :class:`WeightThresholdVector` (the paper's
    LTG); under the ``multi-threshold`` gate model it may be a
    :class:`MultiThresholdVector`.  All evaluation and margin queries go
    through the vector so both kinds behave uniformly.
    """

    name: str
    inputs: tuple[str, ...]
    vector: GateVector
    delta_on: int = 0
    delta_off: int = 1

    def __post_init__(self) -> None:
        if len(self.inputs) != self.vector.num_inputs:
            raise NetworkError(
                f"gate {self.name!r}: {len(self.inputs)} inputs but "
                f"{self.vector.num_inputs} weights"
            )
        if len(set(self.inputs)) != len(self.inputs):
            raise NetworkError(f"gate {self.name!r}: duplicate input names")

    @property
    def weights(self) -> tuple[int, ...]:
        return self.vector.weights

    @property
    def threshold(self) -> int:
        return self.vector.threshold

    @property
    def fanin(self) -> int:
        return len(self.inputs)

    @property
    def area(self) -> int:
        return self.vector.area

    def evaluate(self, values: Mapping[str, bool | int]) -> bool:
        total = sum(
            w for w, name in zip(self.vector.weights, self.inputs) if values[name]
        )
        return self.vector.fires(total)

    def local_function(self) -> BooleanFunction:
        """The Boolean function this gate implements, as an SOP.

        Built from the vector's packed truth table — gates are small (fanin
        is bounded by the synthesis fanin restriction), so this is cheap.
        """
        n = len(self.inputs)
        bits = self.vector.table().to_bits()
        return BooleanFunction(Cover.from_truth_table(bits, n), self.inputs)

    def implements(self, function: BooleanFunction) -> bool:
        """Exhaustively check this gate against ``function`` (small fanin)."""
        if tuple(function.variables) != self.inputs:
            function = function.rebased(self.inputs)
        return self.vector.table() == function.cover.packed_table()

    def margins(self) -> tuple[int | None, int | None]:
        """(ON margin, OFF margin), delegated to the gate's vector.

        For the LTG vector this is the distance of the tightest true sum
        above ``T`` and of the tightest false sum below ``T``; see
        :meth:`MultiThresholdVector.margins` for the generalized contract.
        """
        return self.vector.margins()


class ThresholdNetwork:
    """A DAG of threshold gates: the output of TELS."""

    def __init__(self, name: str = "threshold_network"):
        self.name = name
        self._inputs: list[str] = []
        self._outputs: list[str] = []
        self._gates: dict[str, ThresholdGate] = {}
        #: Optional per-gate source line numbers, filled by ``parse_thblif``
        #: so lint diagnostics can point into the file the gate came from.
        self.gate_lines: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> str:
        if name in self._inputs or name in self._gates:
            raise NetworkError(f"duplicate signal {name!r}")
        self._inputs.append(name)
        return name

    def add_output(self, name: str) -> str:
        if name in self._outputs:
            raise NetworkError(f"duplicate primary output {name!r}")
        self._outputs.append(name)
        return name

    def add_gate(self, gate: ThresholdGate) -> str:
        if gate.name in self._gates or gate.name in self._inputs:
            raise NetworkError(f"duplicate signal {gate.name!r}")
        self._gates[gate.name] = gate
        return gate.name

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> tuple[str, ...]:
        return tuple(self._inputs)

    @property
    def outputs(self) -> tuple[str, ...]:
        return tuple(self._outputs)

    @property
    def num_gates(self) -> int:
        return len(self._gates)

    def gates(self) -> Iterator[ThresholdGate]:
        return iter(self._gates.values())

    def gate(self, name: str) -> ThresholdGate:
        try:
            return self._gates[name]
        except KeyError:
            raise NetworkError(f"unknown gate {name!r}") from None

    def has_gate(self, name: str) -> bool:
        return name in self._gates

    def is_input(self, name: str) -> bool:
        return name in self._inputs

    def area(self) -> int:
        """Total RTD area, Eq. (14)."""
        return sum(g.area for g in self._gates.values())

    def max_fanin(self) -> int:
        return max((g.fanin for g in self._gates.values()), default=0)

    def topological_order(self) -> list[str]:
        indegree: dict[str, int] = {}
        readers: dict[str, list[str]] = {}
        for name, gate in self._gates.items():
            count = 0
            for fanin in gate.inputs:
                if fanin in self._gates:
                    count += 1
                    readers.setdefault(fanin, []).append(name)
                elif fanin not in self._inputs:
                    raise NetworkError(
                        f"gate {name!r} reads undefined signal {fanin!r}"
                    )
            indegree[name] = count
        ready = [n for n, d in indegree.items() if d == 0]
        order = []
        while ready:
            node = ready.pop()
            order.append(node)
            for reader in readers.get(node, ()):
                indegree[reader] -= 1
                if indegree[reader] == 0:
                    ready.append(reader)
        if len(order) != len(self._gates):
            raise NetworkError("cycle in threshold network")
        return order

    def levels(self) -> dict[str, int]:
        level = {name: 0 for name in self._inputs}
        for name in self.topological_order():
            fanins = self._gates[name].inputs
            level[name] = 1 + max((level[f] for f in fanins), default=0)
        return level

    def depth(self) -> int:
        level = self.levels()
        return max((level[o] for o in self._outputs), default=0)

    def check(self) -> None:
        for out in self._outputs:
            if out not in self._gates and out not in self._inputs:
                raise NetworkError(f"primary output {out!r} undefined")
        self.topological_order()

    def cleanup(self) -> int:
        """Drop gates not reachable from any primary output."""
        live: set[str] = set()
        stack = [o for o in self._outputs if o in self._gates]
        while stack:
            name = stack.pop()
            if name in live:
                continue
            live.add(name)
            for fanin in self._gates[name].inputs:
                if fanin in self._gates:
                    stack.append(fanin)
        dead = [n for n in self._gates if n not in live]
        for name in dead:
            del self._gates[name]
        return len(dead)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, assignment: Mapping[str, bool | int]) -> dict[str, bool]:
        values: dict[str, bool] = {}
        for name in self._inputs:
            if name not in assignment:
                raise NetworkError(f"missing value for primary input {name!r}")
            values[name] = bool(assignment[name])
        for name in self.topological_order():
            values[name] = self._gates[name].evaluate(values)
        return {o: values[o] for o in self._outputs}

    def __repr__(self) -> str:
        return (
            f"ThresholdNetwork({self.name!r}, inputs={len(self._inputs)}, "
            f"outputs={len(self._outputs)}, gates={len(self._gates)})"
        )


def make_or_vector(
    k: int, delta_on: int = 0, delta_off: int = 1
) -> WeightThresholdVector:
    """The k-input OR gate vector, honoring the defect tolerances.

    With the paper's defaults this is the classic ``<1, ..., 1; 1>``; for
    larger tolerances the threshold rises to ``delta_off`` and each weight
    to ``delta_off + delta_on`` so every true vector clears ``T + delta_on``
    and the false vector stays at ``T - delta_off``.
    """
    threshold = max(delta_off, 1)
    return WeightThresholdVector((threshold + delta_on,) * k, threshold)


def make_constant_vector(
    value: bool, k: int = 0, delta_on: int = 0, delta_off: int = 1
) -> WeightThresholdVector:
    """A constant gate vector of ``k`` zero weights, honoring the tolerances.

    Every input point sums to 0.  Constant 1 puts ``T = -delta_on``, so
    the sum clears ``T + delta_on``; constant 0 puts ``T`` at
    ``max(1 + delta_on, delta_off)``, so the sum stays at or below
    ``T - delta_off``.  With the paper's defaults these are ``<; 0>`` and
    ``<; 1>``.
    """
    threshold = -delta_on if value else max(1 + delta_on, delta_off)
    return WeightThresholdVector((0,) * k, threshold)


def make_and_vector(k: int) -> WeightThresholdVector:
    """The k-input AND gate vector ``<1, ..., 1; k>``."""
    return WeightThresholdVector((1,) * k, k)


def gate_table(network: ThresholdNetwork) -> Iterable[tuple[str, str, str]]:
    """(gate, inputs, vector) rows for pretty-printing (CLI ``print_th``)."""
    for name in network.topological_order():
        gate = network.gate(name)
        yield name, " ".join(gate.inputs), str(gate.vector)
