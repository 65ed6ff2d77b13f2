"""Wall-clock budgets through the solver stack, and solver-site chaos."""

from __future__ import annotations

from repro.faults.injector import CHAOS_ENV
from repro.ilp.backends import SolveAttempt, SolveInfo, get_backend
from repro.ilp.branch_bound import solve_bb
from repro.ilp.model import IlpProblem, Status
from repro.ilp.solve import solve_ilp_info


def branching_problem() -> IlpProblem:
    """min x s.t. 2x >= 1, x integer: the relaxation is fractional, so the
    solve cannot finish at the root node — a zero budget must trip."""
    p = IlpProblem(num_vars=1, objective=[1])
    p.add_constraint([2], ">=", 1)
    return p


class TestBranchBoundTimeLimit:
    def test_zero_budget_is_declared_not_proven(self):
        result = solve_bb(branching_problem(), time_limit_s=0.0)
        assert result.timed_out
        assert result.limit_hit
        assert result.status is Status.INFEASIBLE

    def test_ample_budget_solves_normally(self):
        result = solve_bb(branching_problem(), time_limit_s=60.0)
        assert result.status is Status.OPTIMAL
        assert not result.timed_out
        assert result.int_values() == (1,)

    def test_no_budget_means_no_timeout_flag(self):
        result = solve_bb(branching_problem())
        assert result.status is Status.OPTIMAL
        assert not result.timed_out


class TestDispatchTimeout:
    def test_exact_backend_reports_timeout_in_info(self):
        result, info = solve_ilp_info(
            branching_problem(), backend="exact", timeout_s=0.0
        )
        assert info.timed_out
        assert result.status is Status.INFEASIBLE
        assert any(a.timed_out for a in info.attempts)

    def test_untimed_solve_has_clean_info(self):
        result, info = solve_ilp_info(branching_problem(), backend="exact")
        assert result.status is Status.OPTIMAL
        assert not info.timed_out

    def test_info_timed_out_aggregates_attempts(self):
        info = SolveInfo()
        info.attempts.append(
            SolveAttempt(backend="scipy", status=Status.INFEASIBLE,
                         wall_s=0.0, timed_out=True)
        )
        info.attempts.append(
            SolveAttempt(backend="exact", status=Status.OPTIMAL, wall_s=0.0)
        )
        assert info.timed_out


class TestSolverChaos:
    def test_injected_timeout_falls_back_to_exact(self, monkeypatch):
        if not get_backend("scipy").available():
            import pytest

            pytest.skip("solver chaos perturbs the scipy attempt")
        monkeypatch.setenv(CHAOS_ENV, "solver=1.0:0")
        result, info = solve_ilp_info(branching_problem(), backend="auto")
        assert result.status is Status.OPTIMAL
        assert result.int_values() == (1,)
        assert info.fallback
        assert info.backend == "exact"
        assert info.timed_out  # the synthetic scipy attempt is recorded
        assert info.attempts[0].backend == "scipy"
        assert info.attempts[0].timed_out

    def test_injected_wrong_answer_is_re_proved(self, monkeypatch):
        if not get_backend("scipy").available():
            import pytest

            pytest.skip("solver chaos perturbs the scipy attempt")
        monkeypatch.setenv(CHAOS_ENV, "solver-wrong=1.0:0")
        result, info = solve_ilp_info(branching_problem(), backend="auto")
        # Whatever corruption the harness injected, the verification chain
        # must hand back a correct, verified answer.
        assert result.status is Status.OPTIMAL
        assert result.int_values() == (1,)
        assert info.verified
