"""Integer linear programming substrate (the LP_SOLVE stand-in).

The threshold-identification step of TELS casts "is this unate function a
threshold function?" as a small ILP (Fig. 6 of the paper).  This package
provides:

* :mod:`repro.ilp.model` — a tiny declarative model (:class:`IlpProblem`);
* :mod:`repro.ilp.simplex` — an exact rational two-phase simplex;
* :mod:`repro.ilp.branch_bound` — branch & bound on top of the simplex;
* :mod:`repro.ilp.scipy_backend` — optional HiGHS solver: a Farkas LP
  that certifies an LP-infeasible model, then :func:`scipy.optimize.milp`;
* :func:`repro.ilp.solve.solve_ilp` — the one dispatch over the
  ``BACKENDS`` names ``auto``, ``exact`` and ``scipy``.

The pure-Python path is exact (Fraction arithmetic, no tolerance tuning) and
has no dependencies; HiGHS is faster on larger models.  A HiGHS answer is
never taken on trust: its point is re-checked and its infeasibility is
proved by a certificate or re-proved by the exact solver, so every backend
returns the same feasibility answer — an ablation benchmark
(`benchmarks/test_ablation_ilp.py`) checks exactly that.
"""

from repro.ilp.model import Constraint, IlpProblem, IlpResult, Sense, Status
from repro.ilp.solve import available_backends, solve_ilp

__all__ = [
    "Constraint",
    "IlpProblem",
    "IlpResult",
    "Sense",
    "Status",
    "available_backends",
    "solve_ilp",
]
