"""Tests for checker formulation details and the max-weight / store paths."""

import pytest

from repro.boolean.cover import Cover
from repro.boolean.function import BooleanFunction
from repro.core.identify import ThresholdChecker, is_threshold_function
from repro.core.synthesis import SynthesisOptions, synthesize
from repro.core.verify import verify_threshold_network
from repro.engine.store import ResultStore
from repro.ilp.model import Sense
from repro.ilp.scipy_backend import have_scipy
from repro.network.network import BooleanNetwork

MAJORITY = "a b + a c + b c"
NEEDS_WEIGHT_2 = "x1 x2' + x1 x3'"


class TestFormulateOnly:
    def test_majority_structure(self):
        problem = ThresholdChecker().formulate_only(
            BooleanFunction.parse(MAJORITY).cover
        )
        assert problem is not None
        # Three weights plus the threshold, all-ones objective (Eq. 14).
        assert problem.num_vars == 4
        assert all(c == 1 for c in problem.objective)
        assert problem.names[-1] == "T"
        on = [c for c in problem.constraints if c.sense is Sense.GE]
        off = [c for c in problem.constraints if c.sense is Sense.LE]
        # Majority: 3 prime ON cubes; its complement (minority) has 3.
        assert len(on) == 3
        assert len(off) == 3
        for con in on:
            assert con.coefficients[-1] == -1
            assert con.rhs == 0
        for con in off:
            assert con.coefficients[-1] == -1
            assert con.rhs == -1

    def test_tolerances_reach_rhs(self):
        checker = ThresholdChecker(delta_on=2, delta_off=3)
        problem = checker.formulate_only(
            BooleanFunction.parse(MAJORITY).cover
        )
        ge_rhs = {c.rhs for c in problem.constraints if c.sense is Sense.GE}
        le_rhs = {c.rhs for c in problem.constraints if c.sense is Sense.LE}
        assert ge_rhs == {2}
        assert le_rhs == {-3}

    def test_max_weight_adds_box_and_t_bound(self):
        base = ThresholdChecker().formulate_only(
            BooleanFunction.parse(MAJORITY).cover
        )
        bounded = ThresholdChecker(max_weight=2).formulate_only(
            BooleanFunction.parse(MAJORITY).cover
        )
        # One singleton row per weight, plus the implied T bound.
        assert len(bounded.constraints) == len(base.constraints) + 4
        singles = [
            c
            for c in bounded.constraints
            if c.sense is Sense.LE
            and sum(1 for x in c.coefficients if x != 0) == 1
        ]
        box = [c for c in singles if c.coefficients[-1] == 0]
        t_bound = [c for c in singles if c.coefficients[-1] == 1]
        assert len(box) == 3
        assert all(c.rhs == 2 for c in box)
        # Smallest ON cube has 2 literals: T <= 2 * max_weight - delta_on.
        assert len(t_bound) == 1
        assert t_bound[0].rhs == 4

    def test_binate_and_constant_covers_give_none(self):
        checker = ThresholdChecker()
        xor = Cover.from_strings(["10", "01"])
        assert checker.formulate_only(xor) is None
        assert checker.formulate_only(Cover.one(2)) is None
        assert checker.formulate_only(Cover.zero(2)) is None


class TestMaxWeightPath:
    def test_bound_flips_verdict(self):
        f = BooleanFunction.parse(NEEDS_WEIGHT_2)
        assert is_threshold_function(f) is not None
        assert is_threshold_function(f, max_weight=1) is None

    def test_bounded_rejection_is_split_in_synthesis(self):
        # x1 x2' + x1 x3' is threshold unconstrained (one gate) but needs
        # w1 = 2: under max_weight=1 the node must be split into several
        # unit-weight gates that still implement the function.
        net = BooleanNetwork("bounded")
        fanins = [net.add_input(v) for v in ("a", "b", "c")]
        net.add_node(
            "f", BooleanFunction.from_sop(["10-", "1-0"], fanins)
        )
        net.add_output("f")
        net.check()

        free = synthesize(net, SynthesisOptions(psi=3))
        assert free.num_gates == 1

        bounded = synthesize(net, SynthesisOptions(psi=3, max_weight=1))
        assert bounded.num_gates > 1
        for gate in bounded.gates():
            assert all(abs(w) <= 1 for w in gate.weights)
        assert verify_threshold_network(net, bounded)


class TestStoreInjection:
    def test_one_shot_calls_share_a_store(self):
        store = ResultStore()
        f = BooleanFunction.parse(MAJORITY)
        first = is_threshold_function(f, store=store)
        assert first is not None
        assert store.num_vectors == 1
        assert is_threshold_function(f, store=store) == first
        assert store.num_vectors == 1

    def test_injected_store_serves_cache_hits(self):
        store = ResultStore()
        f = BooleanFunction.parse(MAJORITY)
        is_threshold_function(f, store=store)
        checker = ThresholdChecker(store=store)
        assert checker.check_function(f) is not None
        assert checker.stats.cache_hits == 1
        assert checker.stats.fastpath_attempts == 0
        assert checker.stats.ilp_solved == 0

    def test_max_weight_keys_do_not_collide(self):
        store = ResultStore()
        f = BooleanFunction.parse(NEEDS_WEIGHT_2)
        assert is_threshold_function(f, store=store) is not None
        assert is_threshold_function(f, max_weight=1, store=store) is None
        assert is_threshold_function(f, store=store) is not None


class TestSolveCount:
    """A rejected cover costs one solve per backend, symmetry or not."""

    #: x0 x1 + x2 x3: unate but not threshold, with two interchangeable
    #: input pairs.
    TWO_PAIRS = ("11--", "--11")

    def _stats(self, backend):
        checker = ThresholdChecker(use_fastpath=False, backend=backend)
        assert checker.check(Cover.from_strings(list(self.TWO_PAIRS))) is None
        assert checker.stats.ilp_solved == 1
        return checker.stats

    def test_exact_backend_solves_once(self):
        assert self._stats("exact").exact_solves == 1

    @pytest.mark.skipif(not have_scipy(), reason="scipy missing")
    def test_auto_reproves_infeasible_with_one_exact_solve(self):
        stats = self._stats("auto")
        assert stats.scipy_solves == 1
        assert stats.exact_solves == 1
