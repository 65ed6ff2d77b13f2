"""Cubes in positional notation over an ordered set of Boolean variables.

A cube is a product term: each variable appears in positive phase, in negative
phase, or not at all (don't care).  The two phases are stored as bitmasks
(``pos`` and ``neg``), which makes containment, intersection, and cofactor
single machine-word operations for functions of up to word size — far more
variables than threshold synthesis ever touches in one node.

Cubes are immutable and hashable so they can live in sets and serve as
dictionary keys for memoization.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import CoverError


class Cube:
    """An immutable product term over ``nvars`` positionally-indexed variables.

    Attributes:
        pos: bitmask of variables appearing as positive literals.
        neg: bitmask of variables appearing as negative literals.
        nvars: number of variables in the cube's space.
    """

    __slots__ = ("pos", "neg", "nvars")

    def __init__(self, pos: int, neg: int, nvars: int):
        if nvars < 0:
            raise CoverError(f"nvars must be non-negative, got {nvars}")
        mask = (1 << nvars) - 1
        if pos & ~mask or neg & ~mask:
            raise CoverError("literal mask references a variable >= nvars")
        if pos & neg:
            raise CoverError(
                "cube has a variable in both phases (contradictory cube); "
                "represent the empty function as an empty cover instead"
            )
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "neg", neg)
        object.__setattr__(self, "nvars", nvars)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Cube is immutable")

    def __reduce__(self):
        # Slotted immutables can't use default pickling (it restores via
        # setattr); rebuild through the constructor instead.
        return (Cube, (self.pos, self.neg, self.nvars))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def full(cls, nvars: int) -> "Cube":
        """The universal cube (all don't cares); evaluates to 1 everywhere."""
        return cls(0, 0, nvars)

    @classmethod
    def from_string(cls, text: str) -> "Cube":
        """Parse espresso positional notation, e.g. ``"1-0"``.

        ``1`` is a positive literal, ``0`` a negative literal, and ``-`` (or
        ``2``) a don't care.  Character *i* corresponds to variable *i*.
        """
        pos = neg = 0
        for i, ch in enumerate(text):
            if ch == "1":
                pos |= 1 << i
            elif ch == "0":
                neg |= 1 << i
            elif ch in "-2":
                continue
            else:
                raise CoverError(f"invalid cube character {ch!r} in {text!r}")
        return cls(pos, neg, len(text))

    @classmethod
    def from_literals(cls, literals: dict[int, bool], nvars: int) -> "Cube":
        """Build a cube from ``{variable_index: phase}`` (True = positive)."""
        pos = neg = 0
        for var, phase in literals.items():
            if not 0 <= var < nvars:
                raise CoverError(f"variable index {var} out of range 0..{nvars - 1}")
            if phase:
                pos |= 1 << var
            else:
                neg |= 1 << var
        return cls(pos, neg, nvars)

    @classmethod
    def minterm(cls, point: int, nvars: int) -> "Cube":
        """The minterm cube in which every variable is assigned per ``point``."""
        mask = (1 << nvars) - 1
        return cls(point & mask, ~point & mask, nvars)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def to_string(self) -> str:
        """Render in espresso positional notation (``1``/``0``/``-``)."""
        chars = []
        for i in range(self.nvars):
            bit = 1 << i
            if self.pos & bit:
                chars.append("1")
            elif self.neg & bit:
                chars.append("0")
            else:
                chars.append("-")
        return "".join(chars)

    @property
    def support(self) -> int:
        """Bitmask of variables on which this cube depends."""
        return self.pos | self.neg

    @property
    def num_literals(self) -> int:
        """Number of literals (variables not don't care)."""
        return (self.pos | self.neg).bit_count()

    def is_full(self) -> bool:
        """True for the universal cube."""
        return self.pos == 0 and self.neg == 0

    def is_minterm(self) -> bool:
        """True when every variable is assigned a phase."""
        return (self.pos | self.neg) == (1 << self.nvars) - 1

    def phase(self, var: int) -> str:
        """Return ``"1"``, ``"0"``, or ``"-"`` for variable ``var``."""
        bit = 1 << var
        if self.pos & bit:
            return "1"
        if self.neg & bit:
            return "0"
        return "-"

    def literals(self) -> Iterator[tuple[int, bool]]:
        """Yield ``(variable_index, phase)`` pairs for every literal."""
        pos = self.pos
        mask = pos | self.neg
        while mask:
            bit = mask & -mask
            yield bit.bit_length() - 1, bool(pos & bit)
            mask ^= bit

    # ------------------------------------------------------------------
    # Relational operations
    # ------------------------------------------------------------------
    def contains(self, other: "Cube") -> bool:
        """True when this cube covers ``other`` (``other`` implies ``self``)."""
        return (self.pos & ~other.pos) == 0 and (self.neg & ~other.neg) == 0

    def intersects(self, other: "Cube") -> bool:
        """True when the two cubes share at least one minterm."""
        return (self.pos & other.neg) == 0 and (self.neg & other.pos) == 0

    def intersect(self, other: "Cube") -> "Cube | None":
        """The product cube, or None when the product is empty."""
        if not self.intersects(other):
            return None
        return Cube(self.pos | other.pos, self.neg | other.neg, self.nvars)

    def distance(self, other: "Cube") -> int:
        """Number of variables in which the cubes have opposite phases."""
        return ((self.pos & other.neg) | (self.neg & other.pos)).bit_count()

    def consensus(self, other: "Cube") -> "Cube | None":
        """The consensus cube when the distance is exactly 1, else None."""
        conflict = (self.pos & other.neg) | (self.neg & other.pos)
        if conflict.bit_count() != 1:
            return None
        pos = (self.pos | other.pos) & ~conflict
        neg = (self.neg | other.neg) & ~conflict
        return Cube(pos, neg, self.nvars)

    def supercube(self, other: "Cube") -> "Cube":
        """The smallest cube containing both operands."""
        return Cube(self.pos & other.pos, self.neg & other.neg, self.nvars)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def cofactor(self, other: "Cube") -> "Cube | None":
        """Cofactor of this cube with respect to ``other`` (Shannon).

        Returns None when the two cubes do not intersect (the cofactor is the
        empty function); otherwise drops every literal that ``other`` fixes.
        """
        if not self.intersects(other):
            return None
        drop = other.pos | other.neg
        return Cube(self.pos & ~drop, self.neg & ~drop, self.nvars)

    def restrict(self, var: int, value: bool) -> "Cube | None":
        """Cofactor with respect to a single variable assignment."""
        bit = 1 << var
        if value:
            if self.neg & bit:
                return None
            return Cube(self.pos & ~bit, self.neg, self.nvars)
        if self.pos & bit:
            return None
        return Cube(self.pos, self.neg & ~bit, self.nvars)

    def without_var(self, var: int) -> "Cube":
        """Drop any literal of ``var`` (existential abstraction of one cube)."""
        bit = 1 << var
        return Cube(self.pos & ~bit, self.neg & ~bit, self.nvars)

    def with_literal(self, var: int, phase: bool) -> "Cube":
        """Add (or overwrite) a literal of ``var``."""
        bit = 1 << var
        if phase:
            return Cube(self.pos | bit, self.neg & ~bit, self.nvars)
        return Cube(self.pos & ~bit, self.neg | bit, self.nvars)

    def permute(self, mapping: dict[int, int], nvars: int) -> "Cube":
        """Re-index variables through ``mapping`` into a space of ``nvars``."""
        pos = neg = 0
        for var, phase in self.literals():
            target = mapping[var]
            if not 0 <= target < nvars:
                raise CoverError(f"mapped index {target} out of range")
            if phase:
                pos |= 1 << target
            else:
                neg |= 1 << target
        return Cube(pos, neg, nvars)

    def evaluate(self, point: int) -> bool:
        """Evaluate at a point given as a bitmask of variable values."""
        return (self.pos & ~point) == 0 and (self.neg & point) == 0

    def num_minterms(self) -> int:
        """Number of minterms covered by this cube."""
        return 1 << (self.nvars - self.num_literals)

    def minterms(self) -> Iterator[int]:
        """Yield every covered point as a bitmask (exponential; small n only)."""
        free = [i for i in range(self.nvars) if not (self.support >> i) & 1]
        base = self.pos
        for assignment in range(1 << len(free)):
            point = base
            for j, var in enumerate(free):
                if (assignment >> j) & 1:
                    point |= 1 << var
            yield point

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cube):
            return NotImplemented
        return (
            self.pos == other.pos
            and self.neg == other.neg
            and self.nvars == other.nvars
        )

    def __hash__(self) -> int:
        return hash((self.pos, self.neg, self.nvars))

    def __lt__(self, other: "Cube") -> bool:
        return (self.nvars, self.pos, self.neg) < (other.nvars, other.pos, other.neg)

    def __repr__(self) -> str:
        return f"Cube({self.to_string()!r})"
