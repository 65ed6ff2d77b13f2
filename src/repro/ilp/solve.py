"""The layered dispatch for ILP solving: backend → verify.

``backend`` choices:

* ``"exact"`` — pure-Python rational simplex + branch & bound (always
  available, exact feasibility);
* ``"scipy"`` — HiGHS via scipy (fast, float-based, re-verified);
* ``"auto"`` (default) — scipy when importable, with a *verification
  chain*: a scipy OPTIMAL is rounded to integers and re-checked against
  every constraint of the model (falling back to the exact solver on any
  violation), and a scipy INFEASIBLE is re-proved by the exact solver
  before being trusted, because threshold identification treats
  infeasibility as a *semantic* answer;
* any other registered name — see :mod:`repro.ilp.backends`.

Every backend solves the model exactly as given: the checker's Fig. 6
formulation already eliminates redundant constraints, so there is no
reduction pass in between.  :func:`solve_ilp_info` returns the result
together with a :class:`~repro.ilp.backends.SolveInfo` record (per-backend
attempts, wall times, verification outcome) for the telemetry pipeline.
"""

from __future__ import annotations

from fractions import Fraction

from repro.errors import IlpError
from repro.faults.injector import get_injector
from repro.ilp.backends import (
    SolveAttempt,
    SolveInfo,
    available_backends,
    get_backend,
    registered_backends,
    timed_solve,
)
from repro.ilp.branch_bound import verify_integral_solution
from repro.ilp.model import IlpProblem, IlpResult, Status

__all__ = [
    "available_backends",
    "registered_backends",
    "solve_ilp",
    "solve_ilp_info",
]


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
        backend: registered backend name, or ``"auto"``.
        warm_start: a candidate point used as the exact backend's starting
            incumbent when feasible.
        timeout_s: best-effort wall-clock budget forwarded to every backend
            attempt; a solve cut short reports ``timed_out`` in its attempt
            record and is treated as a declared (not proven) answer.
    """
    info = SolveInfo()
    if backend == "auto":
        result = _solve_auto(problem, info, warm_start, timeout_s)
    elif backend == "exact":
        result = _solve_exact(problem, info, warm_start, timeout_s)
    else:
        result = _solve_named(problem, info, backend, warm_start, timeout_s)
    info.status = result.status
    return result, info


def _solve_exact(
    problem: IlpProblem,
    info: SolveInfo,
    warm_start: tuple[Fraction, ...] | None,
    timeout_s: float | None = None,
) -> IlpResult:
    result, attempt = timed_solve(
        get_backend("exact"), problem, warm_start=warm_start,
        timeout_s=timeout_s,
    )
    info.attempts.append(attempt)
    info.backend = "exact"
    verify_integral_solution(problem, result)
    info.verified = True
    return result


def _solve_named(
    problem: IlpProblem,
    info: SolveInfo,
    backend: str,
    warm_start: tuple[Fraction, ...] | None,
    timeout_s: float | None = None,
) -> IlpResult:
    solver = get_backend(backend)
    if not solver.available():
        raise IlpError(
            f"{backend} backend requested but {backend} is unavailable"
        )
    result, attempt = timed_solve(
        solver, problem, warm_start=warm_start, timeout_s=timeout_s
    )
    info.attempts.append(attempt)
    info.backend = backend
    if result.is_optimal:
        repaired = _round_to_integral(problem, result)
        if repaired is None:
            raise IlpError(
                f"{backend} returned an OPTIMAL point violating the model"
            )
        info.verified = True
        return repaired
    return result


def _solve_auto(
    problem: IlpProblem,
    info: SolveInfo,
    warm_start: tuple[Fraction, ...] | None,
    timeout_s: float | None = None,
) -> IlpResult:
    """scipy when present, under the verification chain; exact otherwise."""
    scipy = get_backend("scipy")
    if not scipy.available():
        return _solve_exact(problem, info, warm_start, timeout_s)
    # Chaos only ever perturbs the *float* attempt: the recovery path under
    # test is the verification chain itself, and the exact backend stays
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
    result, attempt = timed_solve(scipy, problem, timeout_s=timeout_s)
    info.attempts.append(attempt)
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
    # is always re-proved by the exact solver — and that fallback result is
    # verified exactly like a first-class exact solve.
    info.fallback = True
    return _solve_exact(problem, info, warm_start, timeout_s)


def _corrupt_result(problem: IlpProblem, result: IlpResult) -> IlpResult:
    """Chaos ``solver-wrong``: the shapes of float-solver misbehaviour.

    An OPTIMAL becomes a (false) INFEASIBLE — which the chain re-proves
    with the exact solver; anything else becomes a bogus all-zero OPTIMAL —
    which the round-and-recheck verification rejects (or, on the rare model
    where the origin is feasible, accepts as a valid if suboptimal gate).
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

    ``auto`` uses HiGHS when present but never trusts a float answer: an
    OPTIMAL point is rounded to integers and re-checked against every
    constraint (with an exact-solver fallback on violation), and an
    INFEASIBLE is confirmed with the exact solver, since TELS interprets
    infeasibility as "not a threshold function" and a false negative would
    silently degrade synthesis quality (never correctness).
    """
    result, _ = solve_ilp_info(
        problem, backend, warm_start=warm_start, timeout_s=timeout_s
    )
    return result
