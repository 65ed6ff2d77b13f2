"""The one ILP dispatch: the exact solver, or HiGHS under a verification chain.

``backend`` names (:data:`BACKENDS`):

* ``"exact"`` — pure-Python rational simplex + branch & bound (always
  available, exact feasibility);
* ``"scipy"`` — HiGHS via scipy under the verification chain below; an
  :class:`~repro.errors.IlpError` when scipy is missing;
* ``"auto"`` (default) — ``"scipy"`` when scipy is importable, ``"exact"``
  otherwise.

The *verification chain*: a HiGHS OPTIMAL is rounded to integers and
re-checked against every constraint of the model (falling back to the
exact solver on any violation), and a HiGHS INFEASIBLE is trusted only when
its Farkas certificate checks exactly against the model, because threshold
identification treats infeasibility as a *semantic* answer.  HiGHS solves
the certificate LP before ``milp`` (:mod:`repro.ilp.scipy_backend`), so an
LP-infeasible model is answered by one LP and this check.  An INFEASIBLE
without a confirmed certificate — a timed-out or rounded-away answer, or an
integer-only infeasibility such as a ``max_weight`` bound the LP relaxation
can meet — is re-proved by the exact solver.  A model without variables,
which HiGHS rejects, goes to the exact solver under every backend name.

Both solvers take the model exactly as given: the checker's Fig. 6
formulation already eliminates redundant constraints, so there is no
reduction pass in between.  :func:`solve_ilp_info` returns the result
together with a :class:`SolveInfo` record (per-solver attempts, wall times,
verification outcome) for the telemetry pipeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from repro.errors import IlpError
from repro.faults.injector import get_injector
from repro.ilp import scipy_backend
from repro.ilp.branch_bound import solve_bb, verify_integral_solution
from repro.ilp.model import IlpProblem, IlpResult, Status

__all__ = [
    "BACKENDS",
    "SolveAttempt",
    "SolveInfo",
    "available_backends",
    "solve_ilp",
    "solve_ilp_info",
]

#: Every accepted ``backend`` name, in the order the CLI lists them.
BACKENDS = ("auto", "exact", "scipy")


@dataclass(frozen=True)
class SolveAttempt:
    """One solver run inside a single :func:`solve_ilp_info` call."""

    backend: str
    status: Status
    wall_s: float
    timed_out: bool = False


@dataclass
class SolveInfo:
    """Structured telemetry for one dispatch.

    Attributes:
        backend: the solver whose answer was returned.
        attempts: every solver run, in order — a verification fallback
            shows up as a second attempt.
        verified: the returned point (or infeasibility) was re-checked
            against the model, not just taken from the solver's answer.
        fallback: True when the answering solver was not the first tried.
    """

    backend: str = ""
    attempts: list[SolveAttempt] = field(default_factory=list)
    verified: bool = False
    fallback: bool = False

    def wall_for(self, backend: str) -> float:
        return sum(a.wall_s for a in self.attempts if a.backend == backend)

    def solves_for(self, backend: str) -> int:
        return sum(1 for a in self.attempts if a.backend == backend)

    @property
    def timed_out(self) -> bool:
        """True when any attempt was cut short by a wall-clock limit."""
        return any(a.timed_out for a in self.attempts)


def _record(
    info: SolveInfo, backend: str, started: float, result: IlpResult
) -> None:
    """Append one finished solver run, timed from ``started``."""
    info.attempts.append(
        SolveAttempt(
            backend=backend,
            status=result.status,
            wall_s=time.perf_counter() - started,
            timed_out=result.timed_out,
        )
    )


def available_backends() -> list[str]:
    """The solvers usable on this machine (``auto`` picks among them)."""
    return ["exact", "scipy"] if scipy_backend.have_scipy() else ["exact"]


def _round_to_integral(
    problem: IlpProblem, result: IlpResult
) -> IlpResult | None:
    """Round integer variables and re-verify against the model.

    Returns the verified (possibly repaired) result, or None when the
    rounded point violates a constraint — the caller then falls back.
    """
    assert result.values is not None
    values = []
    for j, v in enumerate(result.values):
        values.append(Fraction(round(v)) if problem.integer[j] else v)
    values_t = tuple(values)
    if not problem.is_feasible_point(values_t):
        return None
    return IlpResult(
        Status.OPTIMAL,
        problem.objective_value(values_t),
        values_t,
        limit_hit=result.limit_hit,
    )


def _problem_key(problem: IlpProblem) -> str:
    """A content string for chaos keying: stable across processes/orders."""
    parts = [str(problem.num_vars)]
    for con in problem.constraints:
        coeffs = ",".join(str(c) for c in con.coefficients)
        parts.append(f"{con.sense.value}{con.rhs}:{coeffs}")
    return "|".join(parts)


def solve_ilp_info(
    problem: IlpProblem,
    backend: str = "auto",
    *,
    warm_start: tuple[Fraction, ...] | None = None,
    timeout_s: float | None = None,
) -> tuple[IlpResult, SolveInfo]:
    """Solve an ILP and report structured per-solve telemetry.

    Args:
        problem: the model (left untouched).
        backend: one of :data:`BACKENDS`.
        warm_start: a candidate point used as the exact solver's starting
            incumbent when feasible.
        timeout_s: best-effort wall-clock budget forwarded to every solver
            attempt; a solve cut short reports ``timed_out`` in its attempt
            record and is treated as a declared (not proven) answer.
    """
    if backend not in BACKENDS:
        raise IlpError(
            f"unknown backend {backend!r}; choose one of {', '.join(BACKENDS)}"
        )
    scipy = backend != "exact" and scipy_backend.have_scipy()
    if backend == "scipy" and not scipy:
        raise IlpError("scipy backend requested but scipy is unavailable")
    info = SolveInfo()
    # HiGHS rejects a model without variables; the exact solver decides it
    # by its rows alone.
    if scipy and problem.num_vars:
        result = _solve_verified(problem, info, warm_start, timeout_s)
    else:
        result = _solve_exact(problem, info, warm_start, timeout_s)
    return result, info


def _solve_exact(
    problem: IlpProblem,
    info: SolveInfo,
    warm_start: tuple[Fraction, ...] | None,
    timeout_s: float | None = None,
) -> IlpResult:
    started = time.perf_counter()
    result = solve_bb(
        problem, incumbent_values=warm_start, time_limit_s=timeout_s
    )
    _record(info, "exact", started, result)
    info.backend = "exact"
    verify_integral_solution(problem, result)
    info.verified = True
    return result


def _solve_verified(
    problem: IlpProblem,
    info: SolveInfo,
    warm_start: tuple[Fraction, ...] | None,
    timeout_s: float | None = None,
) -> IlpResult:
    """HiGHS under the verification chain; the exact solver re-proves."""
    # Chaos only ever perturbs the *float* attempt: the recovery path under
    # test is the verification chain itself, and the exact solver stays
    # the trust anchor, so an injected fault can cost a fallback solve but
    # never a wrong answer.
    injector = get_injector()
    chaos_key = _problem_key(problem) if injector is not None else ""
    if injector is not None and injector.decide("solver", chaos_key):
        info.attempts.append(
            SolveAttempt(
                backend="scipy",
                status=Status.INFEASIBLE,
                wall_s=0.0,
                timed_out=True,
            )
        )
        info.fallback = True
        return _solve_exact(problem, info, warm_start, timeout_s)
    # scipy.optimize.milp has no warm-start interface: only the exact
    # solver uses the hint.
    started = time.perf_counter()
    result = scipy_backend.solve_scipy(problem, time_limit_s=timeout_s)
    _record(info, "scipy", started, result)
    if injector is not None and injector.decide("solver-wrong", chaos_key):
        result = _corrupt_result(problem, result)
    if result.is_optimal:
        repaired = _round_to_integral(problem, result)
        if repaired is not None:
            info.backend = "scipy"
            info.verified = True
            return repaired
        # Rounded point violates the model: never trust it — fall back.
        info.fallback = True
        return _solve_exact(problem, info, warm_start, timeout_s)
    if result.status is Status.UNBOUNDED:
        info.backend = "scipy"
        return result
    # A float INFEASIBLE is a *semantic* answer for threshold
    # identification (the function would be declared non-threshold), so it
    # is trusted only with a proof: Farkas multipliers that check exactly
    # against the model.  Anything less (no certificate, a wrong one, a
    # timed-out or rounded-away answer) is re-proved by the exact solver,
    # whose result is verified like a first-class exact solve.
    if not result.timed_out and problem.is_infeasibility_certificate(
        result.certificate
    ):
        info.backend = "scipy"
        info.verified = True
        return result
    info.fallback = True
    return _solve_exact(problem, info, warm_start, timeout_s)


def _corrupt_result(problem: IlpProblem, result: IlpResult) -> IlpResult:
    """Chaos ``solver-wrong``: the shapes of float-solver misbehaviour.

    An OPTIMAL becomes a (false) INFEASIBLE without a certificate — which
    the chain re-proves with the exact solver; anything else becomes a
    bogus all-zero OPTIMAL — which the round-and-recheck verification
    rejects (or, on the rare model where the origin is feasible, accepts as
    a valid if suboptimal gate).
    """
    if result.is_optimal:
        return IlpResult(Status.INFEASIBLE)
    zeros = tuple(Fraction(0) for _ in range(problem.num_vars))
    return IlpResult(Status.OPTIMAL, Fraction(0), zeros)


def solve_ilp(
    problem: IlpProblem,
    backend: str = "auto",
    *,
    warm_start: tuple[Fraction, ...] | None = None,
    timeout_s: float | None = None,
) -> IlpResult:
    """Solve an ILP with the chosen backend (telemetry discarded).

    ``auto`` and ``scipy`` use HiGHS but never trust a float answer: an
    OPTIMAL point is rounded to integers and re-checked against every
    constraint (with an exact-solver fallback on violation), and an
    INFEASIBLE is trusted only with Farkas multipliers that
    :meth:`~repro.ilp.model.IlpProblem.is_infeasibility_certificate`
    confirms in exact arithmetic (otherwise the exact solver re-proves it),
    since TELS interprets infeasibility as "not a threshold function" and
    a false negative would silently degrade synthesis quality (never
    correctness).
    """
    result, _ = solve_ilp_info(
        problem, backend, warm_start=warm_start, timeout_s=timeout_s
    )
    return result
