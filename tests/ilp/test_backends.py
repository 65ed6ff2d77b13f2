"""Backend dispatch, registry, and verification-chain tests."""

import random
from fractions import Fraction

import pytest

from repro.errors import IlpError
from repro.ilp import backends as backends_mod
from repro.ilp.backends import (
    get_backend,
    register_backend,
    registered_backends,
)
from repro.ilp.model import IlpProblem, IlpResult, Status
from repro.ilp.scipy_backend import have_scipy, solve_scipy
from repro.ilp.solve import available_backends, solve_ilp, solve_ilp_info

needs_scipy = pytest.mark.skipif(not have_scipy(), reason="scipy missing")


class _FakeBackend:
    """A scriptable backend for testing the dispatch layer's verification."""

    def __init__(self, name, result):
        self.name = name
        self.result = result
        self.calls = 0

    def available(self):
        return True

    def solve(self, problem, warm_start=None):
        self.calls += 1
        return self.result


def _simple_problem() -> IlpProblem:
    """min x0 + x1 s.t. x0 + x1 >= 3: optimum 3."""
    p = IlpProblem(num_vars=2, objective=[1, 1])
    p.add_constraint([1, 1], ">=", 3)
    return p


class TestDispatch:
    def test_available_backends_contains_exact(self):
        assert "exact" in available_backends()

    def test_unknown_backend_rejected(self):
        with pytest.raises(IlpError):
            solve_ilp(IlpProblem(num_vars=1), backend="cplex")

    def test_scipy_requested_but_missing_behaviour(self):
        if have_scipy():
            r = solve_ilp(IlpProblem(num_vars=1, objective=[1]), backend="scipy")
            assert r.status is Status.OPTIMAL
        else:
            with pytest.raises(IlpError):
                solve_ilp(IlpProblem(num_vars=1), backend="scipy")

    def test_exact_backend_trivial(self):
        r = solve_ilp(IlpProblem(num_vars=2, objective=[1, 1]), backend="exact")
        assert r.status is Status.OPTIMAL
        assert r.objective == 0


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = registered_backends()
        assert "exact" in names
        assert "scipy" in names  # registered even when unavailable

    def test_available_is_subset_of_registered(self):
        assert set(available_backends()) <= set(registered_backends())

    def test_reserved_and_empty_names_rejected(self):
        with pytest.raises(IlpError):
            register_backend(_FakeBackend("auto", None))
        with pytest.raises(IlpError):
            register_backend(_FakeBackend("", None))

    def test_unknown_name_lists_registered(self):
        with pytest.raises(IlpError, match="exact"):
            get_backend("gurobi")

    def test_registered_backend_reachable_through_dispatch(self, monkeypatch):
        stub = _FakeBackend(
            "stub",
            IlpResult(
                Status.OPTIMAL,
                Fraction(3),
                (Fraction(3), Fraction(0)),
            ),
        )
        monkeypatch.setitem(backends_mod._REGISTRY, "stub", stub)
        result, info = solve_ilp_info(_simple_problem(), backend="stub")
        assert stub.calls == 1
        assert result.status is Status.OPTIMAL
        assert info.backend == "stub"
        assert info.verified


class TestVerificationChain:
    def test_corrupt_scipy_optimal_falls_back_to_exact(self, monkeypatch):
        # An "OPTIMAL" point violating the model must never be returned:
        # the auto chain re-solves with the exact backend.
        fake = _FakeBackend(
            "scipy",
            IlpResult(
                Status.OPTIMAL,
                Fraction(0),
                (Fraction(0), Fraction(0)),
            ),
        )
        monkeypatch.setitem(backends_mod._REGISTRY, "scipy", fake)
        result, info = solve_ilp_info(_simple_problem(), backend="auto")
        assert fake.calls == 1
        assert result.status is Status.OPTIMAL
        assert result.objective == 3
        assert info.fallback
        assert info.backend == "exact"
        assert info.verified
        assert info.solves_for("scipy") == 1
        assert info.solves_for("exact") >= 1

    def test_scipy_infeasible_is_reproved_by_exact(self, monkeypatch):
        # A float INFEASIBLE on a feasible model must be overturned.
        fake = _FakeBackend("scipy", IlpResult(Status.INFEASIBLE))
        monkeypatch.setitem(backends_mod._REGISTRY, "scipy", fake)
        result, info = solve_ilp_info(_simple_problem(), backend="auto")
        assert result.status is Status.OPTIMAL
        assert result.objective == 3
        assert info.fallback
        assert info.backend == "exact"

    def test_named_backend_corrupt_optimal_raises(self, monkeypatch):
        fake = _FakeBackend(
            "liar",
            IlpResult(
                Status.OPTIMAL,
                Fraction(0),
                (Fraction(0), Fraction(0)),
            ),
        )
        monkeypatch.setitem(backends_mod._REGISTRY, "liar", fake)
        with pytest.raises(IlpError, match="violating"):
            solve_ilp(_simple_problem(), backend="liar")

    def test_fractional_scipy_point_is_rounded_and_accepted(self, monkeypatch):
        # Float noise on an integral optimum is repaired, not rejected.
        fake = _FakeBackend(
            "scipy",
            IlpResult(
                Status.OPTIMAL,
                Fraction(3),
                (Fraction(2999999, 1000000), Fraction(1, 1000000)),
            ),
        )
        monkeypatch.setitem(backends_mod._REGISTRY, "scipy", fake)
        result, info = solve_ilp_info(_simple_problem(), backend="auto")
        assert result.status is Status.OPTIMAL
        assert result.int_values() == (3, 0)
        assert not info.fallback
        assert info.backend == "scipy"

    def test_infeasible_model_is_reproved_by_exact(self):
        # x0 + x1 <= -1 has no point with x >= 0.  Whatever answers first,
        # the INFEASIBLE that comes back is the exact solver's, verified.
        p = IlpProblem(num_vars=2, objective=[1, 1])
        p.add_constraint([1, 1], "<=", -1)
        result, info = solve_ilp_info(p, backend="auto")
        assert result.status is Status.INFEASIBLE
        assert info.backend == "exact"
        assert info.verified
        assert info.solves_for("exact") == 1
        assert info.fallback == have_scipy()


@needs_scipy
class TestAgreement:
    def _random_problem(self, rng):
        n = rng.randint(1, 4)
        p = IlpProblem(
            num_vars=n, objective=[rng.randint(0, 4) for _ in range(n)]
        )
        for _ in range(rng.randint(1, 5)):
            p.add_constraint(
                [rng.randint(-3, 3) for _ in range(n)],
                rng.choice(["<=", ">=", "=="]),
                rng.randint(-4, 6),
            )
        return p

    def test_feasibility_agreement_fuzz(self):
        rng = random.Random(0)
        limit_hits = 0
        for _ in range(120):
            p = self._random_problem(rng)
            exact = solve_ilp(p, backend="exact")
            auto = solve_ilp(p, backend="auto")
            if exact.limit_hit:
                # Node budget exhausted: the exact answer is a declared
                # (not proven) infeasibility — the paper's Section V-E
                # semantics — so there is nothing to compare.
                limit_hits += 1
                continue
            if exact.status is Status.OPTIMAL and auto.status is Status.OPTIMAL:
                assert exact.objective == auto.objective
            elif Status.INFEASIBLE in (exact.status, auto.status):
                assert exact.status == auto.status
        # The budget should only rarely trip on this distribution.
        assert limit_hits <= 6

    def test_scipy_solutions_verified(self):
        rng = random.Random(1)
        for _ in range(60):
            p = self._random_problem(rng)
            r = solve_scipy(p)
            if r.status is Status.OPTIMAL:
                assert p.is_feasible_point(r.values)

    def test_auto_double_checks_infeasible(self):
        # A problem where float rounding could matter: the auto path must
        # agree with the exact answer.
        p = IlpProblem(num_vars=1, objective=[1])
        p.add_constraint([3], "==", 1)  # 3x == 1: LP-feasible, ILP-infeasible
        assert solve_ilp(p, backend="auto").status is Status.INFEASIBLE
