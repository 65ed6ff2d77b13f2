"""Backend dispatch and verification-chain tests."""

import random
from fractions import Fraction

import pytest

from repro.errors import IlpError
from repro.ilp import scipy_backend
from repro.ilp.model import IlpProblem, IlpResult, Status
from repro.ilp.scipy_backend import have_scipy, solve_scipy
from repro.ilp.solve import (
    BACKENDS,
    available_backends,
    solve_ilp,
    solve_ilp_info,
)

needs_scipy = pytest.mark.skipif(not have_scipy(), reason="scipy missing")


class _FakeHighs:
    """A scriptable HiGHS call for testing the dispatch's verification."""

    def __init__(self, result):
        self.result = result
        self.calls = 0

    def __call__(self, problem, time_limit_s=None):
        self.calls += 1
        return self.result


def _fake_highs(monkeypatch, result) -> _FakeHighs:
    """Make every HiGHS call answer ``result``, with or without scipy."""
    fake = _FakeHighs(result)
    monkeypatch.setattr(scipy_backend, "have_scipy", lambda: True)
    monkeypatch.setattr(scipy_backend, "solve_scipy", fake)
    return fake


def _simple_problem() -> IlpProblem:
    """min x0 + x1 s.t. x0 + x1 >= 3: optimum 3."""
    p = IlpProblem(num_vars=2, objective=[1, 1])
    p.add_constraint([1, 1], ">=", 3)
    return p


def _infeasible_problem() -> IlpProblem:
    """x0 + x1 <= -1: no point with x >= 0; certificate y = (1,)."""
    p = IlpProblem(num_vars=2, objective=[1, 1])
    p.add_constraint([1, 1], "<=", -1)
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
    """The accepted names are the fixed :data:`BACKENDS` tuple."""

    def test_available_is_subset_of_registered(self):
        assert set(available_backends()) <= set(BACKENDS)

    def test_unknown_name_lists_registered(self):
        with pytest.raises(IlpError, match="auto, exact, scipy"):
            solve_ilp(_simple_problem(), backend="gurobi")


class TestVerificationChain:
    def test_corrupt_scipy_optimal_falls_back_to_exact(self, monkeypatch):
        # An "OPTIMAL" point violating the model must never be returned:
        # the auto chain re-solves with the exact backend.
        fake = _fake_highs(
            monkeypatch,
            IlpResult(
                Status.OPTIMAL,
                Fraction(0),
                (Fraction(0), Fraction(0)),
            ),
        )
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
        _fake_highs(monkeypatch, IlpResult(Status.INFEASIBLE))
        result, info = solve_ilp_info(_simple_problem(), backend="auto")
        assert result.status is Status.OPTIMAL
        assert result.objective == 3
        assert info.fallback
        assert info.backend == "exact"

    def test_fractional_scipy_point_is_rounded_and_accepted(self, monkeypatch):
        # Float noise on an integral optimum is repaired, not rejected.
        _fake_highs(
            monkeypatch,
            IlpResult(
                Status.OPTIMAL,
                Fraction(3),
                (Fraction(2999999, 1000000), Fraction(1, 1000000)),
            ),
        )
        result, info = solve_ilp_info(_simple_problem(), backend="auto")
        assert result.status is Status.OPTIMAL
        assert result.int_values() == (3, 0)
        assert not info.fallback
        assert info.backend == "scipy"

    def test_infeasible_model_is_reproved_by_exact(self):
        # x0 + x1 <= -1 has no point with x >= 0.  With scipy, HiGHS's
        # Farkas multipliers are the re-proof, checked in exact arithmetic,
        # so no exact solve runs; without it the exact solver answers.
        p = _infeasible_problem()
        result, info = solve_ilp_info(p, backend="auto")
        assert result.status is Status.INFEASIBLE
        assert info.verified
        assert not info.fallback
        if have_scipy():
            assert info.backend == "scipy"
            assert p.is_infeasibility_certificate(result.certificate)
            assert info.solves_for("exact") == 0
        else:
            assert info.backend == "exact"
            assert info.solves_for("exact") == 1


class TestFarkasCertificate:
    """A scipy INFEASIBLE is trusted only with an exactly checked proof."""

    def _auto(self, monkeypatch, problem, certificate, **flags):
        """Run auto over a fake HiGHS answering INFEASIBLE with ``certificate``."""
        fake = _fake_highs(
            monkeypatch,
            IlpResult(Status.INFEASIBLE, certificate=certificate, **flags),
        )
        result, info = solve_ilp_info(problem, backend="auto")
        assert fake.calls == 1
        return result, info

    def test_valid_certificate_skips_the_exact_solver(self, monkeypatch):
        result, info = self._auto(
            monkeypatch, _infeasible_problem(), (Fraction(1),)
        )
        assert result.status is Status.INFEASIBLE
        assert info.backend == "scipy"
        assert info.verified
        assert not info.fallback
        assert info.solves_for("exact") == 0

    @pytest.mark.parametrize(
        "certificate",
        [None, (Fraction(-1),), (Fraction(0),), (), (Fraction(1),) * 2],
        ids=["none", "wrong-sign", "zero", "too-short", "too-long"],
    )
    def test_bad_certificate_falls_back_to_exact(
        self, monkeypatch, certificate
    ):
        result, info = self._auto(
            monkeypatch, _infeasible_problem(), certificate
        )
        assert result.status is Status.INFEASIBLE
        assert info.backend == "exact"
        assert info.fallback
        assert info.solves_for("exact") == 1

    @pytest.mark.parametrize(
        "certificate", [(Fraction(-1),), (Fraction(1),)], ids=["ge", "le"]
    )
    def test_certificate_for_a_feasible_model_is_rejected(
        self, monkeypatch, certificate
    ):
        # No multipliers can prove x0 + x1 >= 3 empty: the exact solver
        # overturns the false INFEASIBLE.
        result, info = self._auto(monkeypatch, _simple_problem(), certificate)
        assert result.status is Status.OPTIMAL
        assert result.objective == 3
        assert info.backend == "exact"
        assert info.fallback

    def test_timed_out_answer_is_reproved(self, monkeypatch):
        # A timed-out answer is declared, not proven, whatever it carries.
        result, info = self._auto(
            monkeypatch,
            _infeasible_problem(),
            (Fraction(1),),
            limit_hit=True,
            timed_out=True,
        )
        assert result.status is Status.INFEASIBLE
        assert info.backend == "exact"
        assert info.solves_for("exact") == 1

    @needs_scipy
    def test_integer_only_infeasibility_reaches_the_exact_solver(self):
        # 3x == 1 has the real solution x = 1/3, so no Farkas certificate
        # exists and only the exact solver can prove it.
        p = IlpProblem(num_vars=1, objective=[1])
        p.add_constraint([3], "==", 1)
        result, info = solve_ilp_info(p, backend="auto")
        assert result.status is Status.INFEASIBLE
        assert info.attempts[0].backend == "scipy"
        assert info.backend == "exact"
        assert info.fallback
        assert info.solves_for("exact") == 1

    @needs_scipy
    def test_scipy_certifies_a_fig6_model(self):
        # x0 x1 + x2 x3 is unate but not threshold: its two ON rows and
        # two of its OFF rows bound w0 + w1 + w2 + w3 - 2T from both sides,
        # 2 (delta_on + delta_off) apart.
        from repro.boolean.cover import Cover
        from repro.core.identify import ThresholdChecker

        problem = ThresholdChecker().formulate_only(
            Cover.from_strings(["11--", "--11"])
        )
        result = solve_scipy(problem)
        assert result.status is Status.INFEASIBLE
        assert problem.is_infeasibility_certificate(result.certificate)
        assert all(y.denominator <= 10**6 for y in result.certificate)


@needs_scipy
class TestFarkasFirst:
    """HiGHS solves the certificate LP before ``milp``, and only once."""

    @staticmethod
    def _spy_milp(monkeypatch) -> list:
        import scipy.optimize

        calls = []
        real = scipy.optimize.milp

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "milp", spy)
        return calls

    def test_lp_infeasible_models_never_reach_milp(self, monkeypatch):
        import scipy.optimize

        from repro.boolean.cover import Cover
        from repro.core.identify import ThresholdChecker

        def no_milp(*args, **kwargs):
            raise AssertionError("milp ran on an LP-infeasible model")

        monkeypatch.setattr(scipy.optimize, "milp", no_milp)
        fig6 = ThresholdChecker().formulate_only(
            Cover.from_strings(["11--", "--11"])
        )
        for problem in (fig6, _infeasible_problem()):
            result, info = solve_ilp_info(problem, backend="auto")
            assert result.status is Status.INFEASIBLE
            assert problem.is_infeasibility_certificate(result.certificate)
            assert info.backend == "scipy"
            assert info.verified
            assert len(info.attempts) == 1
            assert not info.fallback

    def test_lp_feasible_models_still_reach_milp(self, monkeypatch):
        calls = self._spy_milp(monkeypatch)
        result, info = solve_ilp_info(_simple_problem(), backend="auto")
        assert len(calls) == 1
        assert result.status is Status.OPTIMAL
        assert result.objective == 3
        assert info.backend == "scipy"
        assert not info.fallback
        # 3x == 1: the LP finds no certificate, milp no integer point, and
        # the exact solver proves the INFEASIBLE.
        p = IlpProblem(num_vars=1, objective=[1])
        p.add_constraint([3], "==", 1)
        result, info = solve_ilp_info(p, backend="auto")
        assert len(calls) == 2
        assert result.status is Status.INFEASIBLE
        assert info.backend == "exact"
        assert info.fallback
        assert info.solves_for("scipy") == info.solves_for("exact") == 1

    def test_rejected_multipliers_still_run_milp(self, monkeypatch):
        # A wrong-signed vector on the <= row fails the exact check: milp
        # runs, its INFEASIBLE carries no certificate, and the exact solver
        # re-proves it.
        calls = self._spy_milp(monkeypatch)
        lps = []

        def wrong_signed(*args):
            lps.append(args)
            return (Fraction(-1),)

        monkeypatch.setattr(scipy_backend, "_farkas_certificate", wrong_signed)
        result, info = solve_ilp_info(_infeasible_problem(), backend="auto")
        assert len(lps) == len(calls) == 1
        assert result.status is Status.INFEASIBLE
        assert info.backend == "exact"
        assert info.fallback
        assert info.verified
        assert info.solves_for("scipy") == info.solves_for("exact") == 1


class TestScipyBackendIsVerified:
    """``backend="scipy"`` runs the same verification chain as ``auto``."""

    UNPROVEN = (
        IlpResult(Status.INFEASIBLE),
        IlpResult(Status.INFEASIBLE, limit_hit=True, timed_out=True),
    )

    def test_unproven_infeasible_is_reproved(self, monkeypatch):
        for answer in self.UNPROVEN:
            fake = _fake_highs(monkeypatch, answer)
            result, info = solve_ilp_info(_simple_problem(), backend="scipy")
            assert fake.calls == 1
            assert result.status is Status.OPTIMAL
            assert result.objective == 3
            assert info.backend == "exact"
            assert info.fallback
            assert info.verified

    def test_timed_out_highs_never_caches_not_threshold(
        self, monkeypatch, tmp_path
    ):
        # A threshold function (weights 2 1 1 1, T 3): an unproven
        # INFEASIBLE must neither reach the checker nor its disk cache,
        # whose keys carry no backend.
        from repro.boolean.cover import Cover
        from repro.cache.store import open_cache
        from repro.core.identify import ThresholdChecker
        from repro.engine.store import ResultStore

        cover = Cover.from_strings(["11--", "1-1-", "1--1", "-111"])
        _fake_highs(monkeypatch, self.UNPROVEN[1])
        store = ResultStore.with_cache_dir(tmp_path)
        checker = ThresholdChecker(
            backend="scipy", use_fastpath=False, store=store
        )
        assert checker.check(cover) is not None
        store.flush_persistent()
        on_disk = open_cache(tmp_path)
        assert len(on_disk) == on_disk.solved_count == 1
        monkeypatch.undo()
        later = ThresholdChecker(store=ResultStore.with_cache_dir(tmp_path))
        assert str(later.check(cover)) == "<2, 1, 1, 1; 3>"


class TestCorpusStressors:
    """The four corpus stressors at psi 9, sharing off, as perfbench's wide
    pass runs them: 8 of its 15 ILPs, every one INFEASIBLE."""

    @pytest.mark.parametrize(
        "name", ["corpus_s0", "corpus_s1", "corpus_s2", "corpus_s3"]
    )
    def test_every_backend_writes_the_same_bytes(self, name):
        from repro.benchgen.mcnc import (
            CORPUS_STRESSOR_PSI,
            build_corpus_circuit,
        )
        from repro.core.synthesis import (
            SynthesisOptions,
            synthesize_with_report,
        )
        from repro.engine.store import ResultStore
        from repro.io.thblif import to_thblif
        from repro.network.scripts import prepare_tels

        source = build_corpus_circuit(name)
        written, stats = {}, {}
        for backend in BACKENDS if have_scipy() else ("auto", "exact"):
            network, report = synthesize_with_report(
                prepare_tels(source),
                SynthesisOptions(
                    psi=CORPUS_STRESSOR_PSI,
                    preserve_sharing=False,
                    backend=backend,
                ),
                store=ResultStore(),
            )
            written[backend] = to_thblif(network)
            stats[backend] = report.checker.stats
        assert written["auto"] == written["exact"]
        assert stats["exact"].ilp_solved > 0
        if have_scipy():
            assert written["scipy"] == written["exact"]
            for backend in ("auto", "scipy"):
                assert stats[backend].scipy_solves == stats[backend].ilp_solved
                assert stats[backend].exact_solves == 0


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
        # A model without variables, which HiGHS rejects, alone and with an
        # unsatisfiable row, and one with variables but no rows (no
        # certificate LP to run) lead the random models.
        unsatisfiable = IlpProblem(num_vars=0)
        unsatisfiable.add_constraint([], "<=", -1)
        problems = [
            IlpProblem(num_vars=0),
            unsatisfiable,
            IlpProblem(num_vars=2, objective=[1, 1]),
        ]
        problems += [self._random_problem(rng) for _ in range(120)]
        limit_hits = 0
        for p in problems:
            exact = solve_ilp(p, backend="exact")
            if exact.limit_hit:
                # Node budget exhausted: the exact answer is a declared
                # (not proven) infeasibility — the paper's Section V-E
                # semantics — so there is nothing to compare.
                limit_hits += 1
                continue
            for backend in ("auto", "scipy"):
                other = solve_ilp(p, backend=backend)
                if exact.is_optimal and other.is_optimal:
                    assert exact.objective == other.objective
                elif Status.INFEASIBLE in (exact.status, other.status):
                    assert exact.status == other.status
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
