"""Per-cone TELS synthesis: one task's collapse → check → split pipeline.

This is the Fig. 3 recursion of the original monolithic synthesizer,
restructured so that one :class:`ConeSynthesizer` handles exactly one cone
rooted at a preserved node, a primary-output node, or a collapse-blocked
node.  Everything the cone creates (split parts, AND-tree internals) lives
in a task-local overlay of the source network under names derived from the
root, so cones never contend and serial/parallel runs emit byte-identical
gates.  References to *other* work-network nodes are not recursed into —
they are recorded as discovered roots for the scheduler to turn into tasks.

Rule-4 tie-breaks use an injected ``random.Random`` seeded with
``"{seed}:{task_id}"``; string seeding hashes through SHA-512, so streams
are reproducible across processes regardless of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import random
import time

from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.boolean.function import BooleanFunction
from repro.boolean.unate import syntactic_unateness
from repro.core.collapse import collapse_node
from repro.core.identify import ThresholdChecker
from repro.core.splitting import UnateSplit, split_binate, split_k_way
from repro.core.theorems import theorem2_extend
from repro.core.threshold import (
    GateVector,
    ThresholdGate,
    WeightThresholdVector,
    make_constant_vector,
)
from repro.engine.events import TaskMetrics, timed
from repro.engine.tasks import TaskResult
from repro.errors import SynthesisError
from repro.network.network import BooleanNetwork


def task_rng(seed: int, task_id: str) -> random.Random:
    """The task's private RNG stream (deterministic across processes)."""
    return random.Random(f"{seed}:{task_id}")


class ConeSynthesizer:
    """Synthesize the cone rooted at one work-network node."""

    def __init__(
        self,
        source: BooleanNetwork,
        root: str,
        options,  # repro.core.synthesis.SynthesisOptions (kept untyped: façade layering)
        checker: ThresholdChecker,
        preserved: frozenset[str],
        deadline=None,  # repro.engine.resilience.Deadline | None
        fault_hook=None,  # chaos: called once per processed node (tests only)
    ):
        self.options = options
        self.root = root
        self.deadline = deadline
        self.fault_hook = fault_hook
        # Shallow copy: functions are immutable and shared; only this task's
        # split parts are added, so the source stays pristine for siblings.
        self.work = source.copy()
        self.rng = task_rng(options.seed, root)
        self.preserved = preserved
        self.metrics = TaskMetrics(task_id=root)
        # The cone's own view of the checker: the deadline is this cone's,
        # and its checks and store lookups count into this cone's record.
        self.checker = self.metrics.counting(checker, deadline)
        self.gates: list[ThresholdGate] = []
        self.pending: list[str] = []
        self.done: set[str] = set()
        self.local_nodes: set[str] = set()
        self._discovered: dict[str, None] = {}
        self._prefix = f"{root}$t"
        from repro.core.strategies import make_splitter

        self.splitter = make_splitter(
            options.splitting_strategy, self.checker, options=options
        )

    # ------------------------------------------------------------------
    def run(self) -> TaskResult:
        run_started = time.perf_counter()
        budget = 1000 * (self.work.num_nodes + 10)
        self.pending.append(self.root)
        while self.pending:
            name = self.pending.pop()
            if name in self.done or self.work.is_input(name):
                continue
            self.done.add(name)
            if self.metrics.nodes_processed > budget:
                raise SynthesisError(
                    "synthesis is not converging (split/collapse loop?)"
                )
            self.metrics.nodes_processed += 1
            if self.deadline is not None:
                self.deadline.check(f"cone {self.root!r}")
            if self.fault_hook is not None:
                self.fault_hook()
            with timed(self.metrics, "collapse_s"):
                function = collapse_node(
                    self.work, name, self.options.psi, self.preserved - {name}
                )
            self._process(name, function)
        self.metrics.wall_s = time.perf_counter() - run_started
        return TaskResult(
            task_id=self.root,
            gates=tuple(self.gates),
            discovered=tuple(self._discovered),
            metrics=self.metrics,
            store_delta=self.checker.store.take_journal(),
        )

    # ------------------------------------------------------------------
    def _check(self, function: BooleanFunction):
        with timed(self.metrics, "check_s"):
            return self.checker.check_function(function)

    def _reference(self, signal: str) -> None:
        """A gate (or alias) reads ``signal``: queue or report its cone."""
        if signal in self.local_nodes:
            if signal not in self.done:
                self.pending.append(signal)
        elif self.work.has_node(signal) and signal != self.root:
            self._discovered.setdefault(signal)

    # ------------------------------------------------------------------
    def _process(self, name: str, function: BooleanFunction) -> None:
        function = function.trimmed()
        if function.nvars == 0:
            self._emit_constant(name, not function.cover.is_zero())
            return
        if not syntactic_unateness(function.cover).is_unate:
            # Models like multi-threshold can realize binate cones (parity,
            # XNOR) as one gate; the LTG never can, so it skips straight to
            # the Fig. 8 split.
            if (
                self.checker.model.supports_binate
                and function.nvars <= self.options.psi
            ):
                vector = self._check(function)
                if vector is not None:
                    self._emit(name, function.variables, vector)
                    return
            self._process_binate(name, function)
            return
        if function.nvars <= self.options.psi:
            vector = self._check(function)
            if vector is not None:
                self._emit(name, function.variables, vector)
                return
        self._process_unate_nonthreshold(name, function)

    def _process_binate(self, name: str, function: BooleanFunction) -> None:
        self.metrics.binate_splits += 1
        with timed(self.metrics, "split_s"):
            parts = split_binate(function, self.options.psi, self.rng)
        if len(parts) < 2:
            raise SynthesisError(
                f"binate split of {name!r} produced {len(parts)} part(s)"
            )
        self._emit_or_of_parts(name, parts)

    def _emit_or_of_parts(
        self, name: str, parts: list[BooleanFunction]
    ) -> None:
        """Emit ``name = part_1 OR ... OR part_k``.

        When the largest part is itself a threshold function and the fanin
        budget allows, Theorem 2 folds it into the root gate directly (the
        remaining parts enter through weight ``T_pos + delta_on`` inputs),
        saving one gate per split — an XNOR costs two gates instead of
        three.  Otherwise the root is a plain ``<1,...,1;1>`` OR.
        """
        if self.options.apply_theorem2:
            largest = max(range(len(parts)), key=lambda i: parts[i].num_cubes)
            main = parts[largest]
            rest = [p for i, p in enumerate(parts) if i != largest]
            if main.nvars + len(rest) <= self.options.psi and rest:
                vector = self._check(main)
                if vector is not None and self._theorem2_weight_ok(vector):
                    children = [self._new_node(p) for p in rest]
                    if len(set(children) | set(main.variables)) == len(
                        children
                    ) + main.nvars:
                        extended = theorem2_extend(
                            vector, len(children), self.options.delta_on
                        )
                        if self.checker.model.admits_vector(extended):
                            self._emit(
                                name,
                                tuple(main.variables) + tuple(children),
                                extended,
                            )
                            self.metrics.theorem2_applications += 1
                            return
                    # A child collapsed onto a signal the main part already
                    # reads (or the extended vector violates the gate
                    # model's device limits); fall through to the plain OR
                    # root below, giving the children their own nodes.
        children = [self._new_node(part) for part in parts]
        if len(set(children)) != len(children):
            # Two parts reduced to the same signal; deduplicate.
            children = list(dict.fromkeys(children))
            if len(children) == 1:
                # The OR collapsed to a single signal: emit a buffer.
                vector = self.checker.model.buffer_vector(
                    self.options.delta_on, self.options.delta_off
                )
                self._emit(name, (children[0],), vector)
                return
        self._emit(
            name,
            tuple(children),
            self.checker.model.or_vector(
                len(children), self.options.delta_on, self.options.delta_off
            ),
        )

    def _process_unate_nonthreshold(
        self, name: str, function: BooleanFunction
    ) -> None:
        if function.num_cubes < 2:
            if function.nvars > self.options.psi:
                # One wide cube: break the AND into a tree of psi-input ANDs.
                self._split_large_cube(name, function)
                return
            # A single unate cube within the fanin bound is always a
            # threshold function, so reaching here means extreme defect
            # tolerances made even an AND infeasible; splitting cannot help.
            raise SynthesisError(
                f"single-cube node {name!r} has no threshold realization "
                f"under delta_on={self.options.delta_on}, "
                f"delta_off={self.options.delta_off}"
            )
        self.metrics.unate_splits += 1
        with timed(self.metrics, "split_s"):
            split = self.splitter(function, self.rng)
            if not self.options.split_on_most_frequent and split.mode == "or":
                split = self._random_or_split(function)
        if split.mode == "and":
            self._emit_and_root(name, split.parts)
            return
        larger = split.parts[split.larger_index]
        smaller = split.parts[1 - split.larger_index]
        if self.options.apply_theorem2 and larger.nvars + 1 <= self.options.psi:
            vector = self._check(larger)
            if vector is not None and self._theorem2_weight_ok(vector):
                child = self._new_node(smaller)
                if child not in larger.variables:
                    extended = theorem2_extend(
                        vector, 1, self.options.delta_on
                    )
                    if self.checker.model.admits_vector(extended):
                        self._emit(
                            name,
                            tuple(larger.variables) + (child,),
                            extended,
                        )
                        self.metrics.theorem2_applications += 1
                        return
        k = min(self.options.psi, function.num_cubes)
        with timed(self.metrics, "split_s"):
            parts = split_k_way(function, k)
        if len(parts) < 2:
            raise SynthesisError(f"k-way split of {name!r} failed")
        self.metrics.kway_splits += 1
        self._emit_or_of_parts(name, parts)

    def _split_large_cube(self, name: str, function: BooleanFunction) -> None:
        """Emit a wide AND cube as a tree of at-most-ψ-input AND gates."""
        cube = function.cover.cubes[0]
        literals = [(function.variables[v], ph) for v, ph in cube.literals()]
        psi = self.options.psi
        groups = [literals[i : i + psi] for i in range(0, len(literals), psi)]
        children: list[str] = []
        for group in groups:
            if len(group) == 1 and group[0][1]:
                children.append(group[0][0])
                self._reference(group[0][0])
                continue
            names = [n for n, _ in group]
            child_func = BooleanFunction(
                Cover(
                    (
                        Cube.from_literals(
                            {i: ph for i, (_, ph) in enumerate(group)},
                            len(group),
                        ),
                    ),
                    len(group),
                ),
                names,
            )
            children.append(self._new_node(child_func))
        if len(children) > psi:
            # Too many chunks for one root: AND the children hierarchically.
            and_vars = tuple(children)
            child_func = BooleanFunction(
                Cover(
                    (
                        Cube.from_literals(
                            {i: True for i in range(len(and_vars))},
                            len(and_vars),
                        ),
                    ),
                    len(and_vars),
                ),
                and_vars,
            )
            self._split_large_cube(name, child_func)
            return
        root_func = BooleanFunction(
            Cover(
                (
                    Cube.from_literals(
                        {i: True for i in range(len(children))}, len(children)
                    ),
                ),
                len(children),
            ),
            tuple(children),
        )
        vector = self._check(root_func)
        if vector is None:
            raise SynthesisError(f"AND tree root of {name!r} not threshold")
        self._emit(name, tuple(children), vector)

    def _theorem2_weight_ok(self, vector) -> bool:
        """Check the Theorem-2 extension weight against the weight bound."""
        if not isinstance(vector, WeightThresholdVector):
            # Theorem 2's closed form extends single-threshold vectors only.
            return False
        if self.options.max_weight is None:
            return True
        new_weight = max(
            vector.to_positive_threshold() + self.options.delta_on, 0
        )
        return new_weight <= self.options.max_weight

    def _random_or_split(self, function: BooleanFunction) -> UnateSplit:
        """Ablation variant of rule 3: split on a random present variable."""
        cover = function.cover.scc()
        present = cover.support_vars()
        self.rng.shuffle(present)
        for var in present:
            bit = 1 << var
            with_var = [c for c in cover.cubes if (c.pos | c.neg) & bit]
            without = [c for c in cover.cubes if not ((c.pos | c.neg) & bit)]
            if with_var and without:
                part_a = BooleanFunction(
                    Cover(with_var, cover.nvars), function.variables
                ).trimmed()
                part_b = BooleanFunction(
                    Cover(without, cover.nvars), function.variables
                ).trimmed()
                return UnateSplit("or", (part_a, part_b))
        half = (cover.num_cubes + 1) // 2
        part_a = BooleanFunction(
            Cover(cover.cubes[:half], cover.nvars), function.variables
        ).trimmed()
        part_b = BooleanFunction(
            Cover(cover.cubes[half:], cover.nvars), function.variables
        ).trimmed()
        return UnateSplit("or", (part_a, part_b))

    def _emit_and_root(
        self, name: str, parts: tuple[BooleanFunction, BooleanFunction]
    ) -> None:
        """Emit ``name = common-cube AND quotient`` (Fig. 7 rule 2)."""
        self.metrics.and_factor_splits += 1
        cube_part, quotient = parts
        if cube_part.num_cubes != 1:
            cube_part, quotient = quotient, cube_part
        child = self._new_node(quotient)
        # Root = AND of the common-cube literals and the quotient node.
        literal_names = list(cube_part.variables)
        variables = tuple(literal_names) + (child,)
        cube = cube_part.cover.cubes[0]
        lits = {var: phase for var, phase in cube.literals()}
        lits[len(literal_names)] = True
        root = BooleanFunction(
            Cover(
                (Cube.from_literals(lits, len(variables)),), len(variables)
            ),
            variables,
        )
        if root.nvars > self.options.psi:
            # The common cube alone exceeds psi: build an AND tree instead.
            self._split_large_cube(name, root)
            return
        vector = self._check(root)
        if vector is None:
            raise SynthesisError(
                f"AND root of {name!r} unexpectedly not threshold"
            )
        self._emit(name, variables, vector)

    # ------------------------------------------------------------------
    def _new_node(self, function: BooleanFunction) -> str:
        """Install a split part as a fresh task-local node and queue it."""
        if function.nvars == 1 and function.num_cubes == 1:
            cube = function.cover.cubes[0]
            if cube.num_literals == 1 and cube.pos:
                # A bare positive literal needs no gate: reference the signal.
                signal = function.variables[0]
                self._reference(signal)
                return signal
        name = self.work.fresh_name(self._prefix)
        self.work.add_node(name, function)
        self.local_nodes.add(name)
        self.pending.append(name)
        return name

    def _emit_constant(self, name: str, value: bool) -> None:
        delta_on, delta_off = self.options.delta_on, self.options.delta_off
        gate = ThresholdGate(
            name,
            (),
            make_constant_vector(value, 0, delta_on, delta_off),
            delta_on,
            delta_off,
        )
        self.gates.append(gate)
        self.metrics.gates_emitted += 1

    def _emit(
        self,
        name: str,
        inputs: tuple[str, ...],
        vector: GateVector,
    ) -> None:
        if len(inputs) > self.options.psi:
            raise SynthesisError(
                f"gate {name!r} fanin {len(inputs)} exceeds psi="
                f"{self.options.psi}"
            )
        gate = ThresholdGate(
            name,
            tuple(inputs),
            vector,
            self.options.delta_on,
            self.options.delta_off,
        )
        self.gates.append(gate)
        self.metrics.gates_emitted += 1
        for fanin in inputs:
            self._reference(fanin)
