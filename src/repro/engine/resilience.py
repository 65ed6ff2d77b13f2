"""Resilience primitives for the synthesis engine.

Three concerns live here, all consumed by the scheduler and executors:

* **Deadlines** — :class:`Deadline` is a monotonic budget checked
  cooperatively inside the cone loop and the threshold checker (which also
  forwards the remaining time to the ILP backends as a solver time limit);
  the process executor additionally enforces it from the outside with a
  watchdog for workers that stop reaching cooperative checkpoints.

* **Failure classification** — :class:`TaskFailure` is the executor's
  structured "this dispatch did not produce a result" record; the
  scheduler maps its ``kind`` to a policy action (retry with backoff,
  quarantine, degrade).

* **Graceful degradation** — :func:`fallback_cone_gates` realizes one cone
  with the paper's one-to-one mapping baseline (Section VI-A): extract the
  cone sub-network, SOP-decompose it into simple AND/OR gates of fanin ≤ ψ,
  and map each gate to one LTG.  Simple gates within the fanin bound are
  threshold under any tolerance setting, so the fallback always succeeds
  and the degraded network stays simulation-equivalent and lint-clean —
  only the area optimality of that one cone is lost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

from repro.core.identify import ThresholdChecker
from repro.core.mapping import one_to_one_map
from repro.core.threshold import ThresholdGate
from repro.errors import DeadlineExceeded, SynthesisError
from repro.faults.retry import RetryPolicy
from repro.network.network import BooleanNetwork
from repro.network.transform import decompose


class Deadline:
    """A monotonic wall-clock budget with cooperative check points."""

    __slots__ = ("budget_s", "_expires_at")

    def __init__(self, budget_s: float):
        self.budget_s = budget_s
        self._expires_at = time.monotonic() + budget_s

    @classmethod
    def after(cls, budget_s: float | None) -> "Deadline | None":
        """A deadline ``budget_s`` from now, or None when unbudgeted."""
        return None if budget_s is None else cls(budget_s)

    def remaining(self) -> float:
        return max(0.0, self._expires_at - time.monotonic())

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self._expires_at

    def check(self, what: str = "") -> None:
        """Raise :class:`DeadlineExceeded` once the budget is spent."""
        if self.expired:
            suffix = f" during {what}" if what else ""
            raise DeadlineExceeded(
                f"deadline of {self.budget_s:.3f}s exhausted{suffix}"
            )

    def __repr__(self) -> str:
        return f"Deadline({self.budget_s:.3f}s, {self.remaining():.3f}s left)"


@dataclass(frozen=True)
class TaskFailure:
    """One dispatch of a task that ended without a result.

    ``kind`` drives the scheduler's policy response:

    * ``"crash"``   — the worker process died (counts toward quarantine);
    * ``"timeout"`` — the per-cone deadline expired (degrade immediately);
    * ``"error"``   — a transient error worth retrying with backoff;
    * ``"evicted"`` — an innocent in-flight task lost its pool to another
      task's crash or watchdog kill (requeue, no penalty).
    """

    task_id: str
    kind: str
    message: str = ""
    attempt: int = 1


class DegradedCone(NamedTuple):
    """One cone that fell back to the one-to-one mapping, and why."""

    task_id: str
    reason: str


@dataclass(frozen=True)
class ResiliencePolicy:
    """The scheduler's knobs for deadlines, retries, and quarantine."""

    deadline_per_cone_s: float | None = None
    deadline_total_s: float | None = None
    max_attempts: int = 3
    poison_crashes: int = 3
    strict: bool = False
    watchdog_grace_s: float = 2.0
    retry: RetryPolicy = RetryPolicy()

    @classmethod
    def from_options(cls, options) -> "ResiliencePolicy":
        """Lift the resilience fields off ``SynthesisOptions``."""
        return cls(
            deadline_per_cone_s=getattr(options, "deadline_per_cone_s", None),
            deadline_total_s=getattr(options, "deadline_total_s", None),
            max_attempts=getattr(options, "max_attempts", 3),
            poison_crashes=getattr(options, "poison_crashes", 3),
            strict=getattr(options, "strict_synthesis", False),
            watchdog_grace_s=getattr(options, "watchdog_grace_s", 2.0),
            retry=RetryPolicy(
                max_attempts=getattr(options, "max_attempts", 3),
                base_backoff_s=getattr(options, "retry_backoff_s", 0.05),
                max_backoff_s=getattr(options, "retry_backoff_max_s", 0.5),
                seed=getattr(options, "seed", 0),
            ),
        )

    @property
    def watchdog_needed(self) -> bool:
        return self.deadline_per_cone_s is not None


def cone_subnetwork(
    source: BooleanNetwork, root: str, preserved: frozenset[str]
) -> tuple[BooleanNetwork, tuple[str, ...]]:
    """Extract the cone rooted at ``root`` as a standalone network.

    The traversal stops at primary inputs and at preserved nodes other than
    the root — the same barriers collapsing honours — and those boundary
    signals become the cone's inputs.  Returns the cone network and the
    boundary signals that are themselves work-network nodes (the cones the
    scheduler must still synthesize), in deterministic discovery order.
    """
    members: set[str] = set()
    boundary: dict[str, None] = {}
    stack = [root]
    while stack:
        name = stack.pop()
        if name in members:
            continue
        if name != root and (
            source.is_input(name)
            or name in preserved
            or not source.has_node(name)
        ):
            boundary.setdefault(name)
            continue
        members.add(name)
        stack.extend(reversed(source.fanins(name)))
    cone = BooleanNetwork(f"{root}_cone")
    for signal in boundary:
        cone.add_input(signal)
    cone.add_output(root)
    for name in source.topological_order():
        if name in members:
            cone.add_node(name, source.function(name))
    discovered = tuple(s for s in boundary if source.has_node(s))
    return cone, discovered


def fallback_cone_gates(
    source: BooleanNetwork,
    root: str,
    preserved: frozenset[str],
    options,
    checker: ThresholdChecker | None = None,
) -> tuple[tuple[ThresholdGate, ...], tuple[str, ...]]:
    """The paper's one-to-one mapping for a single cone (degradation path).

    Internal gates are renamed under a ``{root}$f`` prefix so degraded
    cones can never collide with each other or with synthesized cones (the
    engine's own split parts live under ``{root}$t``).
    """
    cone, discovered = cone_subnetwork(source, root, preserved)
    decompose(cone, max_fanin=options.psi, inverter_gates=False, style="sop")
    if checker is None:
        checker = ThresholdChecker(
            delta_on=options.delta_on,
            delta_off=options.delta_off,
            backend=options.backend,
            max_weight=options.max_weight,
            gate_model=getattr(options, "gate_model", "ltg"),
        )
    try:
        mapped = one_to_one_map(
            cone,
            delta_on=options.delta_on,
            delta_off=options.delta_off,
            checker=checker,
        )
    except SynthesisError as exc:
        # Only reachable when max_weight caps even a simple-gate vector:
        # there is no realization at all for this parameter point.
        raise SynthesisError(
            f"one-to-one fallback for cone {root!r} failed: {exc}"
        ) from exc
    rename: dict[str, str] = {}
    counter = 0
    for name in mapped.topological_order():
        if name != root:
            rename[name] = f"{root}$f{counter}"
            counter += 1
    gates: list[ThresholdGate] = []
    for name in mapped.topological_order():
        gate = mapped.gate(name)
        gates.append(
            ThresholdGate(
                rename.get(name, name),
                tuple(rename.get(i, i) for i in gate.inputs),
                gate.vector,
                gate.delta_on,
                gate.delta_off,
            )
        )
    return tuple(gates), discovered
