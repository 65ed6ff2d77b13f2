"""HiGHS backend: a Farkas LP first, then :func:`scipy.optimize.milp`.

Float-based but fast; results are rationalized back to exact Fractions and
re-verified against the model, so a numerically sloppy answer can never leak
into the synthesis flow (an invalid point falls back to the exact solver at
the dispatch layer).  Every solve of a model with rows starts with one HiGHS
LP for Farkas multipliers; when they check exactly
(:meth:`~repro.ilp.model.IlpProblem.is_infeasibility_certificate`), the
answer is INFEASIBLE with that certificate and the integer search never
runs.  The dispatch layer checks the certificate again before it trusts it.
"""

from __future__ import annotations

import time
from fractions import Fraction

from repro.ilp.model import IlpProblem, IlpResult, Sense, Status


def have_scipy() -> bool:
    """True when scipy.optimize.milp is importable."""
    try:
        from scipy.optimize import milp  # noqa: F401
    except ImportError:
        return False
    return True


def solve_scipy(
    problem: IlpProblem, time_limit_s: float | None = None
) -> IlpResult:
    """Solve with HiGHS; returns INFEASIBLE on any numerical doubt.

    A model with rows first gets one Farkas LP (:func:`_farkas_certificate`):
    multipliers that check exactly prove the LP relaxation empty, and the
    answer is INFEASIBLE with them, without calling ``milp``.  Otherwise
    ``milp`` runs on whatever is left of ``time_limit_s``, HiGHS's
    ``time_limit`` option.  A run HiGHS reports as stopped by an iteration
    or time limit (status 1) comes back as ``timed_out`` INFEASIBLE — a
    declared answer the dispatch layer never trusts semantically (it falls
    back to the exact solver, whose own budget is governed by the caller's
    deadline).  An INFEASIBLE from ``milp`` (status 2) carries no
    certificate, since the LP found none that checks, so the dispatch layer
    re-proves it too.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    started = time.perf_counter()
    rows = problem.constraints
    matrix = np.array([[float(v) for v in con.coefficients] for con in rows])
    rhs = np.array([float(con.rhs) for con in rows])
    le = np.array([con.sense is Sense.LE for con in rows], dtype=bool)
    ge = np.array([con.sense is Sense.GE for con in rows], dtype=bool)
    options = {}
    if time_limit_s is not None:
        options["time_limit"] = max(time_limit_s, 0.0)
    constraints = []
    if rows:
        certificate = _farkas_certificate(matrix, rhs, le, ge, options)
        if problem.is_infeasibility_certificate(certificate):
            return IlpResult(Status.INFEASIBLE, certificate=certificate)
        if time_limit_s is not None:
            elapsed = time.perf_counter() - started
            options["time_limit"] = max(time_limit_s - elapsed, 0.0)
        # One constraint object for all rows: HiGHS gets the model as one
        # matrix, as the certificate LP did.
        constraints = [
            LinearConstraint(
                matrix, np.where(le, -np.inf, rhs), np.where(ge, np.inf, rhs)
            )
        ]
    result = milp(
        c=np.array([float(v) for v in problem.objective]),
        constraints=constraints,
        integrality=np.array([1 if flag else 0 for flag in problem.integer]),
        bounds=Bounds(lb=0.0, ub=np.inf),
        options=options,
    )
    if result.status == 2:  # infeasible, with no checked certificate
        return IlpResult(Status.INFEASIBLE)
    if result.status == 3:  # unbounded
        return IlpResult(Status.UNBOUNDED)
    if result.status == 1:  # iteration or time limit reached
        return IlpResult(Status.INFEASIBLE, limit_hit=True, timed_out=True)
    if not result.success or result.x is None:
        return IlpResult(Status.INFEASIBLE)
    values = []
    for j, x in enumerate(result.x):
        if problem.integer[j]:
            values.append(Fraction(round(x)))
        else:
            values.append(Fraction(x).limit_denominator(10**9))
    values_t = tuple(values)
    if not problem.is_feasible_point(values_t):
        # Rounding produced an invalid point; report infeasible so the
        # dispatcher can fall back to the exact solver.
        return IlpResult(Status.INFEASIBLE)
    return IlpResult(
        Status.OPTIMAL, problem.objective_value(values_t), values_t
    )


def _farkas_certificate(matrix, rhs, le, ge, options):
    """Farkas multipliers for the rows ``matrix x (sense) rhs``, or None.

    Solves one LP over ``yᵀA >= 0`` and ``yᵀb <= -1``, with ``y_i >= 0``
    on a ``<=`` row (``le``), ``y_i <= 0`` on a ``>=`` row (``ge``) and
    ``y_i`` free on an ``==`` row, minimizing the summed magnitude of the
    inequality rows' multipliers, and rationalizes its answer.  The LP is
    feasible exactly when the model's LP relaxation is empty, so a model
    that is only integer-infeasible (``3x == 1``, a weight bound the
    relaxation can meet) gets None.  The multipliers are floats made
    rational, not a proof: the caller must check them exactly.
    """
    import numpy as np
    from scipy.optimize import linprog

    lp = linprog(
        c=le.astype(float) - ge,
        A_ub=np.vstack([-matrix.T, rhs]),
        b_ub=np.append(np.zeros(matrix.shape[1]), -1.0),
        bounds=np.column_stack(
            [np.where(le, 0.0, -np.inf), np.where(ge, 0.0, np.inf)]
        ),
        method="highs",
        options=options,
    )
    if lp.status != 0 or not np.all(np.isfinite(lp.x)):
        return None
    return tuple(Fraction(float(y)).limit_denominator(10**6) for y in lp.x)
