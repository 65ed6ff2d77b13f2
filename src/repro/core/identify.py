"""ILP-based threshold-function identification (Fig. 6 of the paper).

Given a unate SOP, the checker:

1. rewrites it in positive-unate form (negative-phase variables substituted,
   Section IV);
2. emits one ON-set inequality per cube of the irredundant cover —
   ``sum of cube weights >= T + delta_on``;
3. complements the function (the complement of a positive-unate function is
   negative-unate); each complement cube is a maximal false point and emits
   ``sum of don't-care weights <= T - delta_off``;
4. minimizes ``sum(w) + T`` over non-negative integers (gate area, Eq. 14);
5. maps weights back through the phase substitution: a variable that was
   negative gets weight ``-w`` and the threshold drops by ``w`` (Section IV).

Don't-care positions generate no inequalities — this is the paper's
"redundant constraint elimination" (each dropped constraint is dominated by
the cube's own constraint).  Results are memoized on the canonical cover in
a two-tier :class:`~repro.engine.store.ResultStore` so structurally repeated
nodes — ubiquitous during synthesis — are free, and so the delta-independent
preprocessing (minimization, positive-unate rewrite, complement) survives
across δ-sweep points that must re-solve the ILP.  A store may be injected
to share those results across checkers, tasks, and whole experiment sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from typing import TYPE_CHECKING

from repro.boolean.cover import Cover
from repro.boolean.function import BooleanFunction
from repro.boolean.minimize import minimize
from repro.boolean.unate import syntactic_unateness, to_positive_unate
from repro.core.threshold import (
    GateVector,
    WeightThresholdVector,
    make_constant_vector,
)
from repro.errors import CoverError, DeadlineExceeded, SynthesisError
from repro.ilp.fastpath import FastpathStatus, fastpath_check
from repro.ilp.model import IlpProblem
from repro.ilp.solve import SolveInfo, solve_ilp_info

if TYPE_CHECKING:  # imported lazily at runtime to keep core below engine
    from repro.engine.resilience import Deadline
    from repro.engine.store import ResultStore, StoreStats

#: Widest cover the checker minimizes.  The fast path's weight lower bound
#: needs every support variable essential, which only the minimized
#: irredundant prime cover guarantees, so it runs behind the same gate.
MAX_MINIMIZE_VARS = 12


def check_tolerances(delta_on: int, delta_off: int) -> None:
    """Raise :class:`SynthesisError` unless Eq. (1) can hold the tolerances.

    An LTG fires at ``sum >= T``: an ON row ``sum >= T + delta_on`` keeps
    its point on only for ``delta_on >= 0``, and an OFF row
    ``sum <= T - delta_off`` keeps its point off only for ``delta_off >= 1``.
    """
    if delta_on < 0 or delta_off < 1:
        raise SynthesisError(
            "defect tolerances must be delta_on >= 0 and delta_off >= 1 "
            f"(got delta_on={delta_on}, delta_off={delta_off})"
        )


class Counters:
    """Additive counter records: snapshot, delta and fold over every field.

    Subclasses are dataclasses whose fields are all additive numbers, so a
    new counter needs only its declaration to travel through the engine's
    per-cone records and the scheduler's fold.
    """

    def snapshot(self):
        """An independent copy."""
        return replace(self)

    def since(self, earlier):
        """The counts accumulated after ``earlier`` was snapshotted."""
        return type(self)(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )

    def add(self, other) -> None:
        """Fold another record (one cone's counts) into this one."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass
class CheckStats(Counters):
    """Counters for instrumentation and the ILP ablation benchmarks."""

    calls: int = 0
    cache_hits: int = 0
    multithreshold_hits: int = 0
    flash_requantized: int = 0
    ilp_solved: int = 0
    ilp_feasible: int = 0
    constraints_emitted: int = 0
    constraints_without_elimination: int = 0
    fastpath_hits: int = 0
    fastpath_negatives: int = 0
    fastpath_misses: int = 0
    #: Always 0: perfbench/layers.py still reads it by name.
    presolve_rows_removed: int = 0
    solver_timeouts: int = 0
    exact_solves: int = 0
    scipy_solves: int = 0
    exact_wall_s: float = 0.0
    scipy_wall_s: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.calls if self.calls else 0.0

    @property
    def fastpath_attempts(self) -> int:
        return self.fastpath_hits + self.fastpath_negatives + self.fastpath_misses

    @property
    def fastpath_hit_rate(self) -> float:
        """Share of fast-path attempts that skipped the ILP entirely."""
        attempts = self.fastpath_attempts
        if not attempts:
            return 0.0
        return (self.fastpath_hits + self.fastpath_negatives) / attempts


@dataclass
class ThresholdChecker:
    """Memoized threshold-function identification engine.

    Attributes:
        delta_on: ON-side defect tolerance (paper default 0; at least 0).
        delta_off: OFF-side defect tolerance (paper default 1; at least 1,
            see :func:`check_tolerances`).
        backend: one of :data:`repro.ilp.solve.BACKENDS`.
        max_weight: optional upper bound on every |w_i| (RTD/QCA processes
            realize weights as device areas, so practical weight ranges are
            small); functions needing a larger weight are declared
            non-threshold and split instead.
        use_fastpath: try the Chow-parameter fast path
            (:mod:`repro.ilp.fastpath`) before formulating an ILP.  Only
            attempted on covers of at most :data:`MAX_MINIMIZE_VARS`
            variables, the ones the checker minimizes.  Its candidate
            vector is the exact backend's only warm start.
        gate_model: name of the :class:`~repro.gates.base.GateModel`
            backend deciding representation and feasibility; ``"ltg"`` is
            the paper's single-threshold gate and keeps the historical
            behavior (and cache keys) exactly.
        store: the shared :class:`~repro.engine.store.ResultStore` backing
            the memo; inject one to share results across checkers, parallel
            tasks, and sweep points.  A private store is created on demand.
        deadline: optional :class:`~repro.engine.resilience.Deadline`;
            when set, every :meth:`check` first verifies the budget (raising
            :class:`~repro.errors.DeadlineExceeded` cooperatively) and the
            remaining time is forwarded to the solver stack as its
            wall-clock limit, so one slow ILP cannot blow through a
            per-cone budget unnoticed.  A solve the limit cut short
            raises ``DeadlineExceeded`` too, so no timeout is ever
            stored as a "not threshold" verdict.
        store_stats: where this checker's store lookups are counted; None
            counts them in ``store.stats``.  An engine cone passes its own
            record, so a store shared by concurrent runs cannot leak one
            run's lookups into another's counts.
    """

    delta_on: int = 0
    delta_off: int = 1
    backend: str = "auto"
    max_weight: int | None = None
    use_fastpath: bool = True
    gate_model: str = "ltg"
    stats: CheckStats = field(default_factory=CheckStats)
    store: "ResultStore | None" = field(default=None, repr=False)
    deadline: "Deadline | None" = field(default=None, repr=False)
    store_stats: "StoreStats | None" = field(default=None, repr=False)
    _model: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_tolerances(self.delta_on, self.delta_off)

    @property
    def model(self):
        """The resolved :class:`~repro.gates.base.GateModel` backend."""
        if self._model is None:
            from repro.gates import get_model

            self._model = get_model(self.gate_model)
        return self._model

    @classmethod
    def from_options(
        cls, options, store: "ResultStore | None" = None
    ) -> "ThresholdChecker":
        """Build a checker from :class:`~repro.core.synthesis.SynthesisOptions`."""
        return cls(
            delta_on=options.delta_on,
            delta_off=options.delta_off,
            backend=options.backend,
            max_weight=options.max_weight,
            use_fastpath=options.use_fastpath,
            gate_model=options.gate_model,
            store=store,
        )

    def _ensure_store(self) -> "ResultStore":
        if self.store is None:
            from repro.engine.store import ResultStore

            self.store = ResultStore()
        return self.store

    def check_function(self, function: BooleanFunction) -> GateVector | None:
        """Weights aligned to ``function.variables`` order, or None.

        Variables outside the function's support get weight 0.
        """
        return self.check(function.cover)

    def check(self, cover: Cover) -> GateVector | None:
        """Return a gate vector realizing ``cover``, or None.

        None means the configured gate model cannot realize the function as
        a single gate (for ``ltg``: binate, or the ILP is infeasible).
        Weights are positionally aligned with the cover's variables; absent
        variables get weight 0.
        """
        if self.deadline is not None:
            self.deadline.check("threshold check")
        self.stats.calls += 1
        store = self._ensure_store()
        cover = cover.scc()
        canonical = cover.canonical_key()
        model = self.model
        key = model.store_key(
            canonical, self.delta_on, self.delta_off, self.max_weight
        )
        found = store.get_vector(key, self.store_stats)
        if not store.is_miss(found):
            self.stats.cache_hits += 1
            return found
        result = model.check_cover(self, cover, canonical)
        store.put_vector(key, result)
        return result

    def solve_ltg(
        self,
        cover: Cover,
        canonical: tuple,
        *,
        delta_on: int | None = None,
        delta_off: int | None = None,
        max_weight: int | None = None,
    ) -> WeightThresholdVector | None:
        """The shared single-threshold pipeline, for gate-model backends.

        Runs constants → analysis → Chow fast path → Fig. 6 ILP under the
        checker's tolerances and weight box, or under the ones given for
        this one solve (the flash model's drift boosting).
        """
        return self._check_uncached(
            cover,
            canonical,
            self.delta_on if delta_on is None else delta_on,
            self.delta_off if delta_off is None else delta_off,
            self.max_weight if max_weight is None else max_weight,
        )

    def _analysis(self, cover: Cover, canonical: tuple):
        """Delta-independent preprocessing, via the store's analysis tier."""
        from repro.engine.store import CoverAnalysis

        store = self._ensure_store()
        found = store.get_analysis(canonical, self.store_stats)
        if not store.is_miss(found):
            return found
        # Minimizing canonicalizes the cover (the unique irredundant prime
        # cover of a unate function) and exposes semantic unateness that a
        # redundant cover can hide.
        if cover.nvars <= MAX_MINIMIZE_VARS:
            cover = minimize(cover)
        analysis: CoverAnalysis | None = None
        if syntactic_unateness(cover).is_unate:
            positive, flipped = to_positive_unate(cover)
            off_cubes = minimize(positive.complement())
            if not any(c.pos for c in off_cubes.cubes):
                analysis = CoverAnalysis(positive, tuple(flipped), off_cubes)
            # else: the complement of a positive-unate function is
            # negative-unate; a positive literal here means the cover was
            # only syntactically unate, not semantically, so it cannot be a
            # threshold function under any tolerance setting.
        store.put_analysis(canonical, analysis)
        return analysis

    def _check_uncached(
        self,
        cover: Cover,
        canonical: tuple,
        delta_on: int,
        delta_off: int,
        max_weight: int | None,
    ) -> WeightThresholdVector | None:
        nvars = cover.nvars
        # Constants: vacuous threshold gates.
        if cover.is_zero():
            return make_constant_vector(False, nvars, delta_on, delta_off)
        if cover.is_tautology():
            return make_constant_vector(True, nvars, delta_on, delta_off)
        analysis = self._analysis(cover, canonical)
        if analysis is None:
            return None
        positive, flipped = analysis.positive, analysis.flipped
        off_cubes = analysis.off_cubes
        warm_start: tuple[Fraction, ...] | None = None
        if self.use_fastpath and nvars <= MAX_MINIMIZE_VARS:
            fast = fastpath_check(
                positive,
                off_cubes,
                delta_on=delta_on,
                delta_off=delta_off,
                max_weight=max_weight,
            )
            if fast.status is FastpathStatus.HIT:
                self.stats.fastpath_hits += 1
                return self._vector_from_solution(
                    nvars, positive.support_vars(), flipped, list(fast.values)
                )
            if fast.status is FastpathStatus.NOT_THRESHOLD:
                self.stats.fastpath_negatives += 1
                return None
            self.stats.fastpath_misses += 1
            if fast.candidate is not None:
                warm_start = tuple(Fraction(v) for v in fast.candidate)
        problem, support = self._formulate(
            positive, off_cubes, delta_on, delta_off, max_weight
        )
        self.stats.ilp_solved += 1
        timeout_s = (
            self.deadline.remaining() if self.deadline is not None else None
        )
        result, info = solve_ilp_info(
            problem,
            backend=self.backend,
            warm_start=warm_start,
            timeout_s=timeout_s,
        )
        self._record_solve(info)
        if result.timed_out:
            # Declared, not proven: degrade like any spent deadline, and
            # store no verdict.
            raise DeadlineExceeded("deadline cut the threshold ILP short")
        if not result.is_optimal:
            return None
        self.stats.ilp_feasible += 1
        return self._vector_from_solution(
            nvars, support, flipped, result.int_values()
        )

    def _record_solve(self, info: SolveInfo) -> None:
        """Fold one dispatch-layer SolveInfo into the counters."""
        self.stats.exact_solves += info.solves_for("exact")
        self.stats.scipy_solves += info.solves_for("scipy")
        self.stats.exact_wall_s += info.wall_for("exact")
        self.stats.scipy_wall_s += info.wall_for("scipy")
        if info.timed_out:
            self.stats.solver_timeouts += 1

    def _vector_from_solution(
        self,
        nvars: int,
        support: list[int],
        flipped: tuple[bool, ...],
        solution: list[int],
    ) -> WeightThresholdVector:
        """Splice an ILP/fast-path solution (support slots + T) into a vector."""
        weights = [0] * nvars
        threshold = solution[-1]
        for slot, var in enumerate(support):
            weights[var] = solution[slot]
        # Map back through the phase substitution (Section IV).
        for var in range(nvars):
            if flipped[var] and weights[var]:
                threshold -= weights[var]
                weights[var] = -weights[var]
        return WeightThresholdVector(tuple(weights), threshold)

    def _formulate(
        self,
        positive: Cover,
        off_cubes: Cover,
        delta_on: int,
        delta_off: int,
        max_weight: int | None,
    ) -> tuple[IlpProblem, list[int]]:
        """Build the Fig. 6 ILP for a positive-unate cover."""
        support = positive.support_vars()
        slot = {var: i for i, var in enumerate(support)}
        n = len(support)
        problem = IlpProblem(
            num_vars=n + 1,
            objective=[1] * (n + 1),
            names=[f"w{v}" for v in support] + ["T"],
        )
        # ON-set: each cube's literal weights must reach T + delta_on.
        for cube in positive.cubes:
            coeffs = [0] * (n + 1)
            for var, phase in cube.literals():
                if not phase:
                    raise CoverError("positive-unate cover has negative literal")
                coeffs[slot[var]] = 1
            coeffs[n] = -1
            problem.add_constraint(coeffs, ">=", delta_on)
            self.stats.constraints_emitted += 1
            free = n - cube.num_literals
            self.stats.constraints_without_elimination += 1 << free
        # OFF-set: for each maximal false point (complement cube), the sum of
        # the *unconstrained* (don't care) weights must stay below T.
        for cube in off_cubes.cubes:
            coeffs = [0] * (n + 1)
            for var in support:
                bit = 1 << var
                if not (cube.neg & bit):
                    coeffs[slot[var]] = 1
            coeffs[n] = -1
            problem.add_constraint(coeffs, "<=", -delta_off)
            self.stats.constraints_emitted += 1
            fixed = sum(1 for var in support if cube.neg & (1 << var))
            self.stats.constraints_without_elimination += 1 << fixed
        if max_weight is not None:
            for slot_index in range(n):
                coeffs = [0] * (n + 1)
                coeffs[slot_index] = 1
                problem.add_constraint(coeffs, "<=", max_weight)
            # Implied bound tightening: every ON cube gives
            # T <= sum(cube weights) - delta_on <= |cube| * max_weight -
            # delta_on, so the smallest cube caps T.  Redundant for the
            # feasible set, but it shrinks the branch & bound's T range.
            if positive.cubes:
                min_lits = min(c.num_literals for c in positive.cubes)
                coeffs = [0] * (n + 1)
                coeffs[n] = 1
                problem.add_constraint(
                    coeffs, "<=", min_lits * max_weight - delta_on
                )
        return problem, support

    def formulate_only(self, cover: Cover) -> IlpProblem | None:
        """Expose the ILP for a unate cover (diagnostics / ablations)."""
        cover = cover.scc()
        if cover.is_zero() or cover.is_tautology():
            return None
        analysis = self._analysis(cover, cover.canonical_key())
        if analysis is None:
            return None
        problem, _ = self._formulate(
            analysis.positive,
            analysis.off_cubes,
            self.delta_on,
            self.delta_off,
            self.max_weight,
        )
        return problem

    def cache_size(self) -> int:
        return self._ensure_store().num_vectors


def is_threshold_function(
    function: BooleanFunction | Cover,
    delta_on: int = 0,
    delta_off: int = 1,
    backend: str = "auto",
    max_weight: int | None = None,
    store: "ResultStore | None" = None,
    cache_dir: str | None = None,
    deadline_s: float | None = None,
    gate_model: str = "ltg",
) -> GateVector | None:
    """One-shot convenience wrapper around :class:`ThresholdChecker`.

    ``max_weight`` and ``store`` mirror the engine-configured checker, so a
    one-shot call can enforce the device weight bound and share (or warm) a
    result store across calls.  ``cache_dir`` (ignored when ``store`` is
    given) layers the persistent NP-canonical cache under a fresh store and
    flushes any new solve back to disk before returning.  ``deadline_s``
    bounds the check's wall clock; a blown budget raises
    :class:`~repro.errors.DeadlineExceeded`.
    """
    flush_after = False
    if store is None and cache_dir is not None:
        from repro.engine.store import ResultStore

        store = ResultStore.with_cache_dir(cache_dir)
        flush_after = True
    deadline = None
    if deadline_s is not None:
        from repro.engine.resilience import Deadline

        deadline = Deadline.after(deadline_s)
    checker = ThresholdChecker(
        delta_on=delta_on,
        delta_off=delta_off,
        backend=backend,
        max_weight=max_weight,
        gate_model=gate_model,
        store=store,
        deadline=deadline,
    )
    if isinstance(function, BooleanFunction):
        result = checker.check_function(function)
    else:
        result = checker.check(function)
    if flush_after:
        store.flush_persistent()
    return result
