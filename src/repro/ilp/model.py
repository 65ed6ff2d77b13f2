"""Declarative (integer) linear program model.

An :class:`IlpProblem` is a minimization over non-negative variables with
linear constraints.  Coefficients may be ints, Fractions, or floats (floats
are converted to Fractions exactly).  The model is backend-agnostic: the
pure-Python simplex/branch-and-bound and the scipy/HiGHS backend both consume
it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from collections.abc import Sequence

from repro.errors import IlpError

Number = int | float | Fraction


class Sense(Enum):
    """Constraint sense."""

    LE = "<="
    GE = ">="
    EQ = "=="


class Status(Enum):
    """Solve outcome."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Constraint:
    """``coefficients . x  (sense)  rhs``; coefficients are dense."""

    coefficients: tuple[Fraction, ...]
    sense: Sense
    rhs: Fraction

    def evaluate(self, x: Sequence[Fraction]) -> bool:
        lhs = sum(c * v for c, v in zip(self.coefficients, x))
        if self.sense is Sense.LE:
            return lhs <= self.rhs
        if self.sense is Sense.GE:
            return lhs >= self.rhs
        return lhs == self.rhs


@dataclass(frozen=True)
class IlpResult:
    """Solution of an (I)LP.

    ``limit_hit`` marks an INFEASIBLE (or incumbent-only OPTIMAL) answer
    produced because the branch-and-bound search exhausted its node budget
    rather than proving the claim — the paper's own LP_SOLVE integration
    behaves the same way ("if the optimal solution cannot be found in a
    reasonable amount of time, it declares the problem as infeasible",
    Section V-E); threshold identification treats it as "not threshold" and
    simply splits the node further.

    ``timed_out`` marks an answer cut short by a wall-clock limit rather
    than a node budget; like ``limit_hit`` it means the claim was declared,
    not proven, so the dispatch layer never treats it as semantic.

    ``certificate`` optionally backs an INFEASIBLE with Farkas multipliers,
    one per constraint, for :meth:`IlpProblem.is_infeasibility_certificate`
    to check exactly.
    """

    status: Status
    objective: Fraction | None = None
    values: tuple[Fraction, ...] | None = None
    limit_hit: bool = False
    timed_out: bool = False
    certificate: tuple[Fraction, ...] | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status is Status.OPTIMAL

    def int_values(self) -> tuple[int, ...]:
        """Values as exact ints (raises if any value is fractional)."""
        if self.values is None:
            raise IlpError("no solution values available")
        out = []
        for v in self.values:
            if v.denominator != 1:
                raise IlpError(f"non-integral value {v} in integer solution")
            out.append(int(v))
        return tuple(out)


def _to_fraction(value: Number) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10**9)
    raise IlpError(f"bad coefficient type {type(value).__name__}")


@dataclass
class IlpProblem:
    """Minimize ``objective . x`` subject to linear constraints, ``x >= 0``.

    Attributes:
        num_vars: number of decision variables.
        objective: dense objective coefficients (minimization).
        constraints: list of :class:`Constraint`.
        integer: per-variable integrality flags (default: all integer).
        names: optional variable names for diagnostics.
    """

    num_vars: int
    objective: list[Fraction] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    integer: list[bool] = field(default_factory=list)
    names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise IlpError("num_vars must be non-negative")
        if not self.objective:
            self.objective = [Fraction(0)] * self.num_vars
        self.objective = [_to_fraction(c) for c in self.objective]
        if len(self.objective) != self.num_vars:
            raise IlpError("objective length != num_vars")
        if not self.integer:
            self.integer = [True] * self.num_vars
        if len(self.integer) != self.num_vars:
            raise IlpError("integer flags length != num_vars")
        if not self.names:
            self.names = [f"x{i}" for i in range(self.num_vars)]

    def add_constraint(
        self,
        coefficients: Sequence[Number],
        sense: Sense | str,
        rhs: Number,
    ) -> None:
        """Append a dense constraint row."""
        if len(coefficients) != self.num_vars:
            raise IlpError(
                f"constraint has {len(coefficients)} coefficients, "
                f"expected {self.num_vars}"
            )
        if isinstance(sense, str):
            sense = Sense(sense)
        self.constraints.append(
            Constraint(
                tuple(_to_fraction(c) for c in coefficients),
                sense,
                _to_fraction(rhs),
            )
        )

    def is_feasible_point(self, x: Sequence[Number]) -> bool:
        """Check a candidate point against every constraint and x >= 0."""
        xs = [_to_fraction(v) for v in x]
        if len(xs) != self.num_vars:
            raise IlpError("point has wrong dimension")
        if any(v < 0 for v in xs):
            return False
        return all(c.evaluate(xs) for c in self.constraints)

    def is_infeasibility_certificate(
        self, multipliers: Sequence[Number] | None
    ) -> bool:
        """Check exactly that ``multipliers`` prove the model infeasible.

        One multiplier ``y_i`` per constraint: ``y_i >= 0`` on a ``<=``
        row, ``y_i <= 0`` on a ``>=`` row, any sign on an ``==`` row.  Then
        every feasible x satisfies ``(yᵀA) x <= yᵀb``.  When every entry of
        ``yᵀA`` is >= 0 and ``yᵀb < 0``, no x >= 0 does (Farkas' lemma):
        the LP relaxation is empty, and with it the integer program.
        """
        if multipliers is None or len(multipliers) != len(self.constraints):
            return False
        combined = [Fraction(0)] * self.num_vars
        rhs = Fraction(0)
        for value, con in zip(multipliers, self.constraints):
            y = Fraction(value)
            if not y:
                continue
            if (con.sense is Sense.LE and y < 0) or (
                con.sense is Sense.GE and y > 0
            ):
                return False
            for j, a in enumerate(con.coefficients):
                if a:
                    combined[j] += y * a
            rhs += y * con.rhs
        return rhs < 0 and all(a >= 0 for a in combined)

    def objective_value(self, x: Sequence[Number]) -> Fraction:
        xs = [_to_fraction(v) for v in x]
        return sum(c * v for c, v in zip(self.objective, xs))
