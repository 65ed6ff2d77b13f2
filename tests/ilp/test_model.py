"""Unit tests for the ILP model layer."""

from fractions import Fraction

import pytest

from repro.errors import IlpError
from repro.ilp.model import Constraint, IlpProblem, IlpResult, Sense, Status


class TestProblemConstruction:
    def test_defaults(self):
        p = IlpProblem(num_vars=3)
        assert p.objective == [Fraction(0)] * 3
        assert p.integer == [True, True, True]
        assert p.names == ["x0", "x1", "x2"]

    def test_float_coefficients_become_fractions(self):
        p = IlpProblem(num_vars=1, objective=[0.5])
        assert p.objective[0] == Fraction(1, 2)

    def test_objective_length_checked(self):
        with pytest.raises(IlpError):
            IlpProblem(num_vars=2, objective=[1])

    def test_negative_num_vars_rejected(self):
        with pytest.raises(IlpError):
            IlpProblem(num_vars=-1)

    def test_add_constraint_validates_width(self):
        p = IlpProblem(num_vars=2)
        with pytest.raises(IlpError):
            p.add_constraint([1], "<=", 0)

    def test_add_constraint_accepts_string_sense(self):
        p = IlpProblem(num_vars=1)
        p.add_constraint([1], ">=", 2)
        assert p.constraints[0].sense is Sense.GE


class TestFeasibility:
    def test_is_feasible_point(self):
        p = IlpProblem(num_vars=2)
        p.add_constraint([1, 1], "<=", 3)
        p.add_constraint([1, 0], ">=", 1)
        assert p.is_feasible_point([1, 2])
        assert not p.is_feasible_point([0, 0])
        assert not p.is_feasible_point([-1, 0])  # nonnegativity

    def test_equality_sense(self):
        c = Constraint((Fraction(1),), Sense.EQ, Fraction(2))
        assert c.evaluate([Fraction(2)])
        assert not c.evaluate([Fraction(1)])

    def test_objective_value(self):
        p = IlpProblem(num_vars=2, objective=[2, 3])
        assert p.objective_value([1, 1]) == 5


class TestInfeasibilityCertificate:
    """Farkas multipliers, checked in exact arithmetic."""

    @staticmethod
    def two_pairs():
        """w0 + w1 - T >= 1 and w2 + w3 - T >= 1 (ON rows), against
        w0 + w2 - T <= -1 and w1 + w3 - T <= -1 (OFF rows): summed, the
        ON rows put w0 + w1 + w2 + w3 - 2T at >= 2, the OFF rows at <= -2."""
        p = IlpProblem(num_vars=5)
        p.add_constraint([1, 1, 0, 0, -1], ">=", 1)
        p.add_constraint([0, 0, 1, 1, -1], ">=", 1)
        p.add_constraint([1, 0, 1, 0, -1], "<=", -1)
        p.add_constraint([0, 1, 0, 1, -1], "<=", -1)
        return p

    def test_valid_certificate(self):
        p = self.two_pairs()
        assert p.is_infeasibility_certificate([-1, -1, 1, 1])
        # Any positive scaling proves the same thing.
        half = Fraction(1, 2)
        assert p.is_infeasibility_certificate([-half, -half, half, half])

    def test_wrong_sign_is_rejected(self):
        # The same combined row, but the ON rows weighted with the sign
        # of a <= row: the sum no longer follows from the model.
        assert not self.two_pairs().is_infeasibility_certificate(
            [1, 1, -1, -1]
        )

    def test_partial_combination_is_rejected(self):
        p = self.two_pairs()
        assert not p.is_infeasibility_certificate([-1, 0, 1, 1])
        assert not p.is_infeasibility_certificate([0, 0, 0, 0])

    def test_shape_and_missing_certificate(self):
        p = self.two_pairs()
        assert not p.is_infeasibility_certificate(None)
        assert not p.is_infeasibility_certificate([-1, -1, 1])
        assert not p.is_infeasibility_certificate([-1, -1, 1, 1, 0])

    def test_rhs_must_be_strictly_negative(self):
        # x0 <= 0 and x0 >= 0 are jointly feasible (x0 = 0): the combined
        # row is 0 >= 0 with rhs 0, which proves nothing.
        p = IlpProblem(num_vars=1)
        p.add_constraint([1], "<=", 0)
        p.add_constraint([1], ">=", 0)
        assert not p.is_infeasibility_certificate([1, -1])

    def test_equality_rows_take_either_sign(self):
        # x0 == -1 is empty for x0 >= 0: multiplier +1 gives x0 <= -1.
        p = IlpProblem(num_vars=1)
        p.add_constraint([1], "==", -1)
        assert p.is_infeasibility_certificate([1])
        assert not p.is_infeasibility_certificate([-1])
        q = IlpProblem(num_vars=1)
        q.add_constraint([-1], "==", 1)
        assert q.is_infeasibility_certificate([-1])

    def test_integer_only_infeasibility_has_no_certificate(self):
        # 3 x0 == 1 has the real point 1/3: every multiplier fails.
        p = IlpProblem(num_vars=1)
        p.add_constraint([3], "==", 1)
        for y in (-2, -1, Fraction(-1, 3), 1, 2):
            assert not p.is_infeasibility_certificate([y])


class TestResult:
    def test_int_values(self):
        r = IlpResult(Status.OPTIMAL, Fraction(1), (Fraction(2), Fraction(0)))
        assert r.int_values() == (2, 0)

    def test_int_values_rejects_fractional(self):
        r = IlpResult(Status.OPTIMAL, Fraction(1), (Fraction(1, 2),))
        with pytest.raises(IlpError):
            r.int_values()

    def test_int_values_without_solution(self):
        with pytest.raises(IlpError):
            IlpResult(Status.INFEASIBLE).int_values()

    def test_is_optimal(self):
        assert IlpResult(Status.OPTIMAL, Fraction(0), ()).is_optimal
        assert not IlpResult(Status.INFEASIBLE).is_optimal
