"""The TELS threshold-network synthesis flow (Fig. 3) — façade.

The input is an algebraically-factored multi-output Boolean network; the
output is a functionally equivalent :class:`ThresholdNetwork` in which every
gate respects the fanin restriction ψ and the defect tolerances.  The flow,
per node (starting from the primary outputs):

1. **collapse** the node into its non-preserved fanins (Fig. 4);
2. if the collapsed function is **binate**, split it per Fig. 8 into
   ``min(ψ, |K_n|)`` parts OR-combined by a ``<1,...,1;1>`` gate;
3. if it is unate, run the **ILP threshold check** (Fig. 6); success emits
   the gate and recurses into its node fanins;
4. otherwise **split** per Fig. 7; when the larger half is threshold and the
   split is an OR, **Theorem 2** absorbs the smaller half into the same gate
   through one high-weight input; an AND split emits an AND root gate; and
   when nothing else applies the node is split ``min(ψ, |K_n|)``-ways.

Fanout nodes of the input network (and primary outputs) are *preserved*:
collapsing stops at them, so logic sharing survives into the threshold
network (Section V-A).

Since the engine refactor this module is a thin compatibility façade: the
recursion lives in :mod:`repro.engine` as per-cone tasks driven by a
work-queue scheduler (:func:`repro.engine.scheduler.run_synthesis`), which
is what adds ``jobs`` (process-pool parallelism across cones) and ``store``
(a shared result cache across runs and sweeps) to the signatures below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.identify import ThresholdChecker, check_tolerances
from repro.core.strategies import STRATEGIES
from repro.core.threshold import ThresholdNetwork
from repro.errors import SynthesisError
from repro.ilp.solve import BACKENDS
from repro.network.network import BooleanNetwork

if TYPE_CHECKING:
    from repro.analysis.report import AnalysisResult
    from repro.engine.events import EngineTrace
    from repro.engine.resilience import DegradedCone
    from repro.engine.store import ResultStore
    from repro.lint.diagnostics import LintReport


@dataclass
class SynthesisOptions:
    """Tunable parameters of the TELS flow.

    Attributes:
        psi: fanin restriction ψ on every threshold gate (paper uses 3-8).
        delta_on / delta_off: defect tolerances in Eq. (1), at least 0
            and 1 (:func:`~repro.core.identify.check_tolerances`); the
            paper's experiments use ``delta_on`` in 0..3 and ``delta_off``
            = 1.
        backend: ILP backend (``auto`` / ``exact`` / ``scipy``).
        seed: RNG seed for the random tie-breaks of splitting rule 4.  Each
            cone task derives its own ``random.Random("{seed}:{task_id}")``
            stream, so results are reproducible under parallel execution.
        apply_theorem2: enable the Theorem-2 combining step (ablation knob).
        preserve_sharing: treat fanout nodes as collapse barriers (ablation
            knob; the paper argues this preserves network structure).
        split_on_most_frequent: rule-3 splitting on the most frequent
            variable; when False a random variable is used instead
            (ablation knob for the Theorem-1-motivated heuristic).
        splitting_strategy: ``"paper"`` (Fig. 7 rules), ``"lookahead"``
            (ILP-guided split-variable selection), or ``"balanced"``
            (depth-oriented cube halving) — the future-work directions of
            the paper's conclusion, selectable per run.
        gate_model: target gate technology (``repro.gates`` registry name):
            ``"ltg"`` — the paper's single-threshold gate (default,
            behaviorally identical to the pre-gate-model flow),
            ``"multi-threshold"`` — k-threshold gates absorbing parity
            cones, ``"flash"`` — LTGs on a flash device grid with
            drift-derived tolerances.
        use_fastpath: resolve threshold checks with the Chow-parameter fast
            path before formulating an ILP (ablation knob).
        max_weight: optional bound on every |w_i| (device weight range);
            a function needing a larger weight is split instead.
        lint: run the static lint post-pass (``repro.lint.run_lint``,
            every rule that needs no source network) once over the
            assembled network; the report carries the ``LintReport`` and
            ``EngineTrace`` its violation count and time.
        analyze: run the whole-network dataflow analysis post-pass
            (``repro.analysis``): interval/don't-care fixpoints, verified
            redundancy candidates, and a robustness certificate.  Off by
            default — it re-simulates the network per removal candidate.
        deadline_per_cone_s: wall-clock budget for each cone task; a cone
            blowing it falls back to the one-to-one mapping (degradation).
            None disables the per-cone deadline and the watchdog.
        deadline_total_s: wall-clock budget for the whole run; on expiry
            every unfinished cone degrades.
        max_attempts: dispatch attempts per cone for transient errors
            before degrading.
        poison_crashes: worker crashes charged to a cone before it is
            quarantined and degraded.
        retry_backoff_s: base of the exponential retry backoff
            (deterministically jittered from ``seed``, capped by
            :class:`~repro.faults.retry.RetryPolicy`).
        watchdog_grace_s: slack past ``deadline_per_cone_s`` before the
            process executor's watchdog kills a wedged worker pool.
        strict_synthesis: raise :class:`SynthesisError` instead of
            degrading a failed cone (see docs/RESILIENCE.md).
    """

    psi: int = 3
    delta_on: int = 0
    delta_off: int = 1
    backend: str = "auto"
    seed: int = 0
    apply_theorem2: bool = True
    preserve_sharing: bool = True
    split_on_most_frequent: bool = True
    splitting_strategy: str = "paper"
    gate_model: str = "ltg"
    use_fastpath: bool = True
    max_weight: int | None = None
    lint: bool = True
    analyze: bool = False
    deadline_per_cone_s: float | None = None
    deadline_total_s: float | None = None
    max_attempts: int = 3
    poison_crashes: int = 3
    retry_backoff_s: float = 0.05
    watchdog_grace_s: float = 2.0
    strict_synthesis: bool = False

    def __post_init__(self) -> None:
        if self.psi < 2:
            raise SynthesisError("fanin restriction must be at least 2")
        check_tolerances(self.delta_on, self.delta_off)
        if self.max_weight is not None and self.max_weight < 1:
            raise SynthesisError("max_weight must be at least 1 when set")
        for name in ("deadline_per_cone_s", "deadline_total_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise SynthesisError(f"{name} must be positive when set")
        if self.max_attempts < 1:
            raise SynthesisError("max_attempts must be at least 1")
        if self.poison_crashes < 1:
            raise SynthesisError("poison_crashes must be at least 1")
        from repro.gates import model_names

        for name, value, allowed in (
            ("ILP backend", self.backend, BACKENDS),
            ("splitting strategy", self.splitting_strategy, STRATEGIES),
            ("gate model", self.gate_model, tuple(model_names())),
        ):
            if value not in allowed:
                raise SynthesisError(
                    f"unknown {name} {value!r} "
                    f"(available: {', '.join(allowed)})"
                )


#: The fields a job-API client may set (``repro.serve.schemas`` derives
#: their JSON types from the annotations above).  The rest — ablation
#: knobs, retry and watchdog internals — stay server-side.
CLIENT_FIELDS = (
    "psi", "delta_on", "delta_off", "seed", "backend", "gate_model",
    "splitting_strategy", "use_fastpath", "max_weight", "lint", "analyze",
    "deadline_per_cone_s", "deadline_total_s", "max_attempts",
    "strict_synthesis",
)


def _trace_total(name: str) -> property:
    """A read-only report counter: the sum over the trace's cone records."""
    return property(
        lambda self: self.trace.total(name) if self.trace is not None else 0
    )


@dataclass
class SynthesisReport:
    """Bookkeeping of one synthesis run.

    ``trace`` carries the engine's per-task instrumentation (collapse /
    check / split timings, cache activity) when the run came through the
    pass-based engine — always, since the façade delegates to it.  The
    counters below and ``degraded`` are read-only views of it.
    ``lint`` is the static post-pass report over the assembled network
    (None when ``options.lint`` is off).  ``degraded`` lists every cone the
    resilience layer completed with the one-to-one fallback mapping (and
    why); the result network is still complete and simulation-equivalent,
    only those cones' area optimality is lost.
    """

    checker: ThresholdChecker | None = None
    trace: "EngineTrace | None" = None
    lint: "LintReport | None" = None
    analysis: "AnalysisResult | None" = None

    nodes_processed = _trace_total("nodes_processed")
    gates_emitted = _trace_total("gates_emitted")
    binate_splits = _trace_total("binate_splits")
    unate_splits = _trace_total("unate_splits")
    kway_splits = _trace_total("kway_splits")
    theorem2_applications = _trace_total("theorem2_applications")
    and_factor_splits = _trace_total("and_factor_splits")

    @property
    def degraded(self) -> "tuple[DegradedCone, ...]":
        return tuple(self.trace.degraded) if self.trace is not None else ()

    @property
    def degraded_cones(self) -> int:
        return len(self.degraded)


def synthesize(
    network: BooleanNetwork,
    options: SynthesisOptions | None = None,
    jobs: int = 1,
    store: "ResultStore | None" = None,
    cache_dir: str | None = None,
    on_event=None,
    cancel=None,
    distribute: str | None = None,
) -> ThresholdNetwork:
    """Run TELS on an (ideally algebraically-factored) Boolean network.

    Args:
        network: the prepared source network.
        options: flow parameters (defaults mirror the paper).
        jobs: cone-synthesis worker processes; 1 runs inline, 0 uses every
            core.  Serial and parallel runs emit identical networks.
        store: optional shared :class:`~repro.engine.store.ResultStore`;
            pass the same store across runs/sweeps to reuse threshold-check
            results and re-solve only what changed.
        cache_dir: directory of the persistent NP-canonical synthesis cache
            (ignored when ``store`` is given — attach the cache to the
            store instead).
        on_event: optional structured-progress listener (see
            :func:`repro.engine.scheduler.run_synthesis`).
        cancel: optional cooperative cancellation flag checked between
            cones; when set the run raises
            :class:`~repro.errors.SynthesisCancelled`.
        distribute: URL of a ``tels serve`` daemon to farm cones to
            (see :mod:`repro.engine.remote`); output is byte-identical
            to a local run.
    """
    from repro.engine.scheduler import run_synthesis

    return run_synthesis(
        network,
        options,
        jobs=jobs,
        store=store,
        cache_dir=cache_dir,
        on_event=on_event,
        cancel=cancel,
        distribute=distribute,
    ).network


def synthesize_with_report(
    network: BooleanNetwork,
    options: SynthesisOptions | None = None,
    jobs: int = 1,
    store: "ResultStore | None" = None,
    cache_dir: str | None = None,
    on_event=None,
    cancel=None,
    distribute: str | None = None,
) -> tuple[ThresholdNetwork, SynthesisReport]:
    """Like :func:`synthesize` but also returns run statistics."""
    from repro.engine.scheduler import run_synthesis

    result = run_synthesis(
        network,
        options,
        jobs=jobs,
        store=store,
        cache_dir=cache_dir,
        on_event=on_event,
        cancel=cancel,
        distribute=distribute,
    )
    return result.network, result.report
