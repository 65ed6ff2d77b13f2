"""Solver backends: a small protocol + registry replacing hard-coded dispatch.

A :class:`SolverBackend` turns an :class:`~repro.ilp.model.IlpProblem` into
an :class:`~repro.ilp.model.IlpResult`.  Backends register themselves in a
module-level registry keyed by name, so adding a solver (another MILP
library, a SAT translation, a remote service) is one class + one
:func:`register_backend` call — the dispatch layer, the CLI choices, and
``available_backends()`` pick it up without edits.

Every solve is wrapped in a :class:`SolveAttempt` (backend, status, wall
time) and the dispatch layer aggregates attempts into a :class:`SolveInfo`,
which is what threads per-backend telemetry up through the checker, the
engine trace, and the CLI summary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Protocol, runtime_checkable

from repro.errors import IlpError
from repro.ilp.model import IlpProblem, IlpResult, Status


@dataclass(frozen=True)
class SolveAttempt:
    """One backend invocation inside a single ``solve_ilp`` call."""

    backend: str
    status: Status
    wall_s: float
    warm_started: bool = False
    timed_out: bool = False


@dataclass
class SolveInfo:
    """Structured telemetry for one dispatch-layer solve.

    Attributes:
        backend: name of the backend whose answer was returned.
        status: final status returned to the caller.
        attempts: every backend invocation, in order — a verification
            fallback shows up as a second attempt.
        verified: the returned point (or infeasibility) was re-checked
            against the model, not just taken from the backend's answer.
        fallback: True when the answering backend was not the first tried.
    """

    backend: str = ""
    status: Status = Status.INFEASIBLE
    attempts: list[SolveAttempt] = field(default_factory=list)
    verified: bool = False
    fallback: bool = False

    @property
    def wall_s(self) -> float:
        return sum(a.wall_s for a in self.attempts)

    def wall_for(self, backend: str) -> float:
        return sum(a.wall_s for a in self.attempts if a.backend == backend)

    def solves_for(self, backend: str) -> int:
        return sum(1 for a in self.attempts if a.backend == backend)

    @property
    def timed_out(self) -> bool:
        """True when any attempt was cut short by a wall-clock limit."""
        return any(a.timed_out for a in self.attempts)


@runtime_checkable
class SolverBackend(Protocol):
    """The contract every ILP backend implements."""

    name: str

    def available(self) -> bool:
        """True when the backend can run on this machine."""
        ...

    def solve(
        self,
        problem: IlpProblem,
        warm_start: tuple[Fraction, ...] | None = None,
        timeout_s: float | None = None,
    ) -> IlpResult:
        """Solve ``problem``; ``warm_start`` is a feasible incumbent hint
        (backends without warm-start support simply ignore it), and
        ``timeout_s`` is a best-effort wall-clock limit — a backend that
        honours it returns a result with ``timed_out=True`` instead of a
        proven answer (see the deadline contract in docs/ARCHITECTURE.md)."""
        ...


class ExactBackend:
    """Pure-Python rational simplex + branch & bound (always available)."""

    name = "exact"

    def available(self) -> bool:
        return True

    def solve(
        self,
        problem: IlpProblem,
        warm_start: tuple[Fraction, ...] | None = None,
        timeout_s: float | None = None,
    ) -> IlpResult:
        from repro.ilp.branch_bound import solve_bb

        return solve_bb(
            problem, incumbent_values=warm_start, time_limit_s=timeout_s
        )


class ScipyBackend:
    """HiGHS via :func:`scipy.optimize.milp` (fast, float-based)."""

    name = "scipy"

    def available(self) -> bool:
        from repro.ilp.scipy_backend import have_scipy

        return have_scipy()

    def solve(
        self,
        problem: IlpProblem,
        warm_start: tuple[Fraction, ...] | None = None,
        timeout_s: float | None = None,
    ) -> IlpResult:
        from repro.ilp.scipy_backend import solve_scipy

        # scipy.optimize.milp has no warm-start interface; the hint is
        # intentionally unused.
        return solve_scipy(problem, time_limit_s=timeout_s)


_REGISTRY: dict[str, SolverBackend] = {}


def register_backend(backend: SolverBackend) -> None:
    """Add (or replace) a backend in the registry."""
    if not backend.name or backend.name == "auto":
        raise IlpError(f"invalid backend name {backend.name!r}")
    _REGISTRY[backend.name] = backend


def get_backend(name: str) -> SolverBackend:
    """Look up a registered backend by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise IlpError(
            f"unknown backend {name!r}; registered: "
            f"{sorted(_REGISTRY)} (or 'auto')"
        ) from None


def registered_backends() -> list[str]:
    """Every registered backend name, available or not."""
    return sorted(_REGISTRY)


def available_backends() -> list[str]:
    """Names of usable backends on this machine."""
    return [name for name in sorted(_REGISTRY) if _REGISTRY[name].available()]


def timed_solve(
    backend: SolverBackend,
    problem: IlpProblem,
    warm_start: tuple[Fraction, ...] | None = None,
    timeout_s: float | None = None,
) -> tuple[IlpResult, SolveAttempt]:
    """Run one backend under a wall-clock, producing its attempt record."""
    started = time.perf_counter()
    if timeout_s is None:
        # Backends registered before the timeout contract only take
        # (problem, warm_start); never passing an unused keyword keeps them
        # working as long as no deadline is configured.
        result = backend.solve(problem, warm_start=warm_start)
    else:
        result = backend.solve(
            problem, warm_start=warm_start, timeout_s=timeout_s
        )
    attempt = SolveAttempt(
        backend=backend.name,
        status=result.status,
        wall_s=time.perf_counter() - started,
        warm_started=warm_start is not None,
        timed_out=result.timed_out,
    )
    return result, attempt


register_backend(ExactBackend())
register_backend(ScipyBackend())
