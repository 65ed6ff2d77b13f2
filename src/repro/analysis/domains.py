"""Abstract domains of the dataflow analyses.

The forward analyses run over two tiny finite lattices:

* :class:`BoolInterval` — the possible values of one signal, as an
  interval ``{lo..hi}`` over ``{0, 1}``: the three elements ``{0}``,
  ``{1}``, and ``{0,1}`` ordered by inclusion.  Joins are interval
  hulls, so every transfer function over it is trivially monotone.
* :class:`SumInterval` — the reachable weighted input sums of one gate,
  ``[lo, hi]`` over the integers.  It is not stored per signal (the gate
  recomputes it from its fanin ``BoolInterval`` values), but it is the
  quantity the interval analysis reasons about: a gate whose sum
  interval clears (or never reaches) its threshold is a proven constant.

Both lattices have finite height (2 and ``O(sum |w|)`` respectively,
the latter bounded per gate by its own weights).  Threshold networks are
acyclic, so the interval analysis needs only one topological sweep (see
``docs/ANALYSIS.md``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BoolInterval:
    """The set of values a Boolean signal may take: ``{lo..hi}``."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (0 <= self.lo <= self.hi <= 1):
            raise ValueError(f"invalid Boolean interval [{self.lo}, {self.hi}]")

    @classmethod
    def constant(cls, value: bool | int) -> "BoolInterval":
        return ONE if value else ZERO

    @property
    def is_constant(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> int | None:
        """The constant value, or None for the unknown element."""
        return self.lo if self.lo == self.hi else None

    def join(self, other: "BoolInterval") -> "BoolInterval":
        """Least upper bound (interval hull)."""
        return BoolInterval(min(self.lo, other.lo), max(self.hi, other.hi))

    def __le__(self, other: "BoolInterval") -> bool:
        """Lattice order: interval inclusion."""
        return other.lo <= self.lo and self.hi <= other.hi

    def __str__(self) -> str:
        if self.is_constant:
            return str(self.lo)
        return "?"


#: The three lattice elements.
ZERO = BoolInterval(0, 0)
ONE = BoolInterval(1, 1)
UNKNOWN = BoolInterval(0, 1)


@dataclass(frozen=True)
class SumInterval:
    """Reachable weighted-sum bounds ``[lo, hi]`` of one gate."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty sum interval [{self.lo}, {self.hi}]")

    def contains_threshold(self, threshold: int) -> bool:
        """True when ``threshold`` lies in the half-open ``(lo, hi]``.

        A threshold inside this range separates reachable sums below it
        from reachable sums at or above it, so the gate output is not
        decided by the interval alone.
        """
        return self.lo < threshold <= self.hi

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def weighted_sum_interval(
    weights: tuple[int, ...], values: tuple[BoolInterval, ...]
) -> SumInterval:
    """Bounds of ``sum(w_i * x_i)`` with each ``x_i`` in its interval."""
    lo = 0
    hi = 0
    for w, v in zip(weights, values):
        a = w * v.lo
        b = w * v.hi
        if a > b:
            a, b = b, a
        lo += a
        hi += b
    return SumInterval(lo, hi)
