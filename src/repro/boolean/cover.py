"""Sum-of-products covers and the classic recursive-paradigm operations.

A :class:`Cover` is an immutable set of :class:`~repro.boolean.cube.Cube`
objects over a shared variable space.  It provides the operations the rest of
the library is built on: cofactor, tautology, complement, containment,
equivalence, and the cheap single-cube-containment minimization.  Tautology
and complement follow the unate-recursive paradigm of espresso: reduce on
unate variables, branch (Shannon) on the most binate variable.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator, Sequence

from repro.boolean import bitset
from repro.boolean.bitset import MAX_TABLE_VARS, BitVec
from repro.boolean.cube import Cube
from repro.errors import CoverError


class Cover:
    """An immutable SOP cover: the OR of a set of cubes.

    The empty cover is the constant-0 function; a cover containing the
    universal cube is the constant-1 function (after SCC it is exactly
    ``[Cube.full]``).

    Exact duplicate cubes are dropped at construction (first occurrence
    wins), so downstream normal forms never re-deduplicate.  Expensive
    derived data — the packed truth table, the SCC form, the canonical
    key, literal/support tallies — is memoized on the frozen instance;
    the caches are dropped by pickling (``__reduce__`` rebuilds through
    the constructor) and never observable through the public API.  The
    one exception is the ``scc() is self`` marker: a cover produced *by*
    :meth:`scc` carries its kept-cube order from the parent cover's
    tie-break, which is not recomputable from its own cubes — dropping
    the marker would let a pickled copy re-reduce into a reordered cover
    and break byte-identity between local and remote synthesis.
    """

    __slots__ = (
        "cubes",
        "nvars",
        "_table",
        "_scc",
        "_ckey",
        "_nlits",
        "_supp",
    )

    def __init__(self, cubes: Iterable[Cube], nvars: int):
        cubes = tuple(dict.fromkeys(cubes))
        for cube in cubes:
            if cube.nvars != nvars:
                raise CoverError(
                    f"cube over {cube.nvars} variables in a cover over {nvars}"
                )
        object.__setattr__(self, "cubes", cubes)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_table", None)
        object.__setattr__(self, "_scc", None)
        object.__setattr__(self, "_ckey", None)
        object.__setattr__(self, "_nlits", None)
        object.__setattr__(self, "_supp", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Cover is immutable")

    def __reduce__(self):
        # Slotted immutables can't use default pickling (it restores via
        # setattr); rebuild through the constructor instead.  The memo
        # caches are all pure functions of ``cubes`` except the self-SCC
        # marker, which records *assigned* order and must survive.
        if self._scc is self:
            return (_restore_scc_form, (self.cubes, self.nvars))
        return (Cover, (self.cubes, self.nvars))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "Cover":
        """The constant-0 function."""
        return cls((), nvars)

    @classmethod
    def one(cls, nvars: int) -> "Cover":
        """The constant-1 function."""
        return cls((Cube.full(nvars),), nvars)

    @classmethod
    def from_strings(cls, rows: Sequence[str]) -> "Cover":
        """Build a cover from positional-notation rows (all equal length)."""
        if not rows:
            raise CoverError("from_strings needs at least one row; use zero()")
        nvars = len(rows[0])
        cubes = []
        for row in rows:
            if len(row) != nvars:
                raise CoverError("rows of unequal length")
            cubes.append(Cube.from_string(row))
        return cls(cubes, nvars)

    @classmethod
    def literal(cls, var: int, phase: bool, nvars: int) -> "Cover":
        """A single-literal cover: ``x`` or ``x'``."""
        return cls((Cube.from_literals({var: phase}, nvars),), nvars)

    @classmethod
    def from_truth_table(cls, bits: Sequence[int], nvars: int) -> "Cover":
        """Build the minterm canonical cover from a 2**nvars truth table.

        ``bits[p]`` is the function value at point ``p`` where bit *i* of
        ``p`` is the value of variable *i*.
        """
        if len(bits) != 1 << nvars:
            raise CoverError("truth table length must be 2**nvars")
        cubes = [Cube.minterm(p, nvars) for p, b in enumerate(bits) if b]
        return cls(cubes, nvars)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_cubes(self) -> int:
        return len(self.cubes)

    @property
    def num_literals(self) -> int:
        """Total literal count over all cubes (an area proxy, cached)."""
        if self._nlits is None:
            object.__setattr__(
                self,
                "_nlits",
                sum(cube.num_literals for cube in self.cubes),
            )
        return self._nlits

    @property
    def support(self) -> int:
        """Bitmask of variables that appear in some cube (cached)."""
        if self._supp is None:
            mask = 0
            for cube in self.cubes:
                mask |= cube.support
            object.__setattr__(self, "_supp", mask)
        return self._supp

    def support_vars(self) -> list[int]:
        """Sorted list of variable indices in the support."""
        mask = self.support
        return [i for i in range(self.nvars) if (mask >> i) & 1]

    def is_zero(self) -> bool:
        """True when the cover has no cubes (syntactic constant 0)."""
        return not self.cubes

    def column_phases(self, var: int) -> tuple[int, int]:
        """Count of (positive, negative) occurrences of ``var``."""
        bit = 1 << var
        pos = sum(1 for c in self.cubes if c.pos & bit)
        neg = sum(1 for c in self.cubes if c.neg & bit)
        return pos, neg

    def to_strings(self) -> list[str]:
        return [cube.to_string() for cube in self.cubes]

    def packable(self) -> bool:
        """True when the variable space fits the packed truth-table kernels."""
        return self.nvars <= MAX_TABLE_VARS

    def packed_table(self) -> BitVec:
        """The packed truth table (cached; ``nvars <= MAX_TABLE_VARS`` only).

        This is the substrate every exponential query below rides on: one
        word-parallel AND per literal per cube, instead of a Python loop
        over the ``2**nvars`` points.
        """
        if self._table is None:
            if not self.packable():
                raise CoverError(
                    f"cover over {self.nvars} variables exceeds the "
                    f"{MAX_TABLE_VARS}-variable packed-table bound"
                )
            object.__setattr__(
                self,
                "_table",
                bitset.key_table(
                    (self.nvars, tuple((c.pos, c.neg) for c in self.cubes))
                ),
            )
        return self._table

    def evaluate(self, point: int) -> bool:
        """Evaluate the function at a point bitmask.

        Reads the packed table when one is cached (repeated point queries
        amortize to a single bit test); falls back to the cube loop for
        one-off evaluations and unpackable widths.
        """
        if self._table is not None:
            return self._table.test(point)
        return any(cube.evaluate(point) for cube in self.cubes)

    def truth_table(self) -> list[int]:
        """Full truth table as a list of 0/1 (exponential; small n only)."""
        return self.packed_table().to_bits()

    def num_minterms(self) -> int:
        """Exact minterm count of the function."""
        if self.packable():
            return self.packed_table().count()
        return _count_minterms(self.canonical_key())

    # ------------------------------------------------------------------
    # Minimization and normal forms
    # ------------------------------------------------------------------
    def scc(self) -> "Cover":
        """Single-cube containment: drop cubes contained in another cube.

        If the universal cube is present the result is exactly the
        constant-1 cover.  Duplicates were already dropped at construction;
        the result is cached on the instance (and the result knows it is
        its own SCC form, so chains of normal-form calls are free).
        """
        if self._scc is None:
            kept: list[Cube] = []
            masks: list[tuple[int, int]] = []
            # Sort by increasing size so containers are seen before
            # containees.  The set() pre-pass is kept deliberately: its
            # iteration order is the historical tie-break among equal-size
            # cubes, and downstream decompositions are pinned to it.
            for cube in sorted(set(self.cubes), key=lambda c: c.num_literals):
                pos, neg = cube.pos, cube.neg
                for kpos, kneg in masks:
                    if kpos & pos == kpos and kneg & neg == kneg:
                        break  # a kept cube contains this one
                else:
                    kept.append(cube)
                    masks.append((pos, neg))
            reduced = Cover(kept, self.nvars)
            object.__setattr__(reduced, "_scc", reduced)
            object.__setattr__(self, "_scc", reduced)
        return self._scc

    def canonical_key(self) -> tuple:
        """A hashable canonical key for memoization (after SCC, sorted).

        Cached on the instance: checkers, cache tiers, and lint rules all
        re-derive the key of the same frozen cover.
        """
        if self._ckey is None:
            reduced = self.scc()
            object.__setattr__(
                self,
                "_ckey",
                (
                    self.nvars,
                    tuple(sorted((c.pos, c.neg) for c in reduced.cubes)),
                ),
            )
        return self._ckey

    # ------------------------------------------------------------------
    # Cofactors
    # ------------------------------------------------------------------
    def cofactor(self, cube: Cube) -> "Cover":
        """The cover cofactor with respect to a cube."""
        result = []
        for c in self.cubes:
            cf = c.cofactor(cube)
            if cf is not None:
                result.append(cf)
        return Cover(result, self.nvars)

    def restrict(self, var: int, value: bool) -> "Cover":
        """Cofactor with respect to a single variable assignment."""
        result = []
        for c in self.cubes:
            cf = c.restrict(var, value)
            if cf is not None:
                result.append(cf)
        return Cover(result, self.nvars)

    def shannon(self, var: int) -> tuple["Cover", "Cover"]:
        """Return ``(f_{var=0}, f_{var=1})``."""
        return self.restrict(var, False), self.restrict(var, True)

    def smooth(self, var: int) -> "Cover":
        """Existential abstraction of ``var`` (OR of both cofactors)."""
        zero, one = self.shannon(var)
        return Cover(zero.cubes + one.cubes, self.nvars).scc()

    # ------------------------------------------------------------------
    # Tautology / containment / equivalence
    # ------------------------------------------------------------------
    def is_tautology(self) -> bool:
        """True when the function is the constant 1.

        Packed tables decide small spaces in a handful of word compares;
        wider covers run the unate-recursive paradigm.
        """
        if self.packable():
            return self.packed_table().is_ones()
        return _is_tautology(self.canonical_key())

    def contains_cube(self, cube: Cube) -> bool:
        """True when every minterm of ``cube`` is covered."""
        if self.packable():
            return (
                bitset.cube_table(cube.pos, cube.neg, self.nvars)
                .andnot(self.packed_table())
                .is_zero()
            )
        return self.cofactor(cube).is_tautology()

    def covers(self, other: "Cover") -> bool:
        """True when this function is implied by ``other`` (other ≤ self)."""
        if self.packable() and other.nvars == self.nvars:
            return other.packed_table().andnot(self.packed_table()).is_zero()
        return all(self.contains_cube(cube) for cube in other.cubes)

    def equivalent(self, other: "Cover") -> bool:
        """Semantic equality of the two functions."""
        if self.nvars != other.nvars:
            raise CoverError("covers over different variable counts")
        if self.packable():
            return self.packed_table() == other.packed_table()
        return self.covers(other) and other.covers(self)

    # ------------------------------------------------------------------
    # Boolean connectives
    # ------------------------------------------------------------------
    def union(self, other: "Cover") -> "Cover":
        """OR of the two functions (with SCC cleanup)."""
        if self.nvars != other.nvars:
            raise CoverError("covers over different variable counts")
        return Cover(self.cubes + other.cubes, self.nvars).scc()

    def product(self, other: "Cover") -> "Cover":
        """AND of the two functions (pairwise cube products, SCC cleanup)."""
        if self.nvars != other.nvars:
            raise CoverError("covers over different variable counts")
        result = []
        for a in self.cubes:
            for b in other.cubes:
                prod = a.intersect(b)
                if prod is not None:
                    result.append(prod)
        return Cover(result, self.nvars).scc()

    def complement(self) -> "Cover":
        """NOT of the function, via the unate-recursive paradigm."""
        key = self.canonical_key()
        nvars, rows = key
        return Cover([Cube(p, n, nvars) for (p, n) in _complement(key)], nvars)

    def xor(self, other: "Cover") -> "Cover":
        """Exclusive OR of the two functions."""
        return self.product(other.complement()).union(other.product(self.complement()))

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def compose(self, var: int, g: "Cover") -> "Cover":
        """Substitute function ``g`` (same variable space) for variable ``var``.

        Implements ``f(x <- g) = g * f_{x=1} + g' * f_{x=0}``.  When ``var``
        appears only in positive phase the complement branch collapses and no
        complement of ``g`` is required.
        """
        if g.nvars != self.nvars:
            raise CoverError("compose requires matching variable spaces")
        f0, f1 = self.shannon(var)
        result = g.product(f1)
        if f0.is_zero():
            return result
        f1_cubes = set(f1.cubes)
        if all(c in f1_cubes for c in f0.cubes) or f1.covers(f0):
            # f0 ⊆ f1: g*f1 + g'*f0 == g*f1 + f0, so no complement of g is
            # required.  The cube-wise test decides the common case without
            # a semantic containment: when var has no negative literal,
            # every cube of f0 is also a cube of f1.
            return result.union(f0)
        return result.union(g.complement().product(f0))

    # ------------------------------------------------------------------
    # Iteration over minterms (verification helpers)
    # ------------------------------------------------------------------
    def minterms(self) -> Iterator[int]:
        """Yield covered points, each exactly once (small n only)."""
        seen: set[int] = set()
        for cube in self.cubes:
            for point in cube.minterms():
                if point not in seen:
                    seen.add(point)
                    yield point

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)

    def __len__(self) -> int:
        return len(self.cubes)

    def __eq__(self, other: object) -> bool:
        """Syntactic equality (same cubes as sets). Use equivalent() for semantics."""
        if not isinstance(other, Cover):
            return NotImplemented
        return self.nvars == other.nvars and set(self.cubes) == set(other.cubes)

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.cubes)))

    def __repr__(self) -> str:
        rows = " + ".join(self.to_strings()) or "0"
        return f"Cover({rows})"


# ----------------------------------------------------------------------
# Recursive kernels, memoized on canonical keys.
#
# Keys are (nvars, tuple of sorted (pos, neg) pairs) — plain hashable data,
# cheap to build and to cache.  The caches make repeated threshold checks on
# structurally identical nodes (ubiquitous during synthesis) nearly free.
# ----------------------------------------------------------------------


def _restore_scc_form(cubes: tuple, nvars: int) -> Cover:
    """Unpickle a cover that is its own SCC form, keeping the marker."""
    cover = Cover(cubes, nvars)
    object.__setattr__(cover, "_scc", cover)
    return cover


def _key_restrict(key: tuple, var: int, value: bool) -> tuple:
    nvars, rows = key
    bit = 1 << var
    out = []
    for pos, neg in rows:
        if value:
            if neg & bit:
                continue
            out.append((pos & ~bit, neg))
        else:
            if pos & bit:
                continue
            out.append((pos, neg & ~bit))
    return (nvars, tuple(sorted(set(out))))


def _key_most_binate_var(key: tuple) -> int | None:
    """Pick the branching variable: most binate, ties by total occurrence."""
    nvars, rows = key
    best_var = None
    best_rank = None
    for var in range(nvars):
        bit = 1 << var
        pos = sum(1 for p, n in rows if p & bit)
        neg = sum(1 for p, n in rows if n & bit)
        if pos + neg == 0:
            continue
        binate = min(pos, neg)
        rank = (binate, pos + neg)
        if best_rank is None or rank > best_rank:
            best_rank = rank
            best_var = var
    return best_var


@functools.lru_cache(maxsize=200_000)
def _is_tautology(key: tuple) -> bool:
    nvars, rows = key
    if not rows:
        return False
    if any(p == 0 and n == 0 for p, n in rows):
        return True
    # A necessary condition: the cover must span at least 2**nvars_in_support
    # minterms; quick reject when the cube count is too small.
    support = 0
    for p, n in rows:
        support |= p | n
    free = nvars - support.bit_count()
    total = sum(1 << (nvars - (p | n).bit_count() - free) for p, n in rows)
    if total < (1 << support.bit_count()):
        return False
    # Unate reduction: if some supported variable is unate, the cover is a
    # tautology iff the cubes independent of it form one.
    for var in range(nvars):
        bit = 1 << var
        if not (support >> var) & 1:
            continue
        pos = any(p & bit for p, n in rows)
        neg = any(n & bit for p, n in rows)
        if pos and neg:
            continue
        reduced = tuple(sorted(set(
            (p, n) for p, n in rows if not ((p | n) & bit)
        )))
        return _is_tautology((nvars, reduced))
    var = _key_most_binate_var(key)
    if var is None:
        # No supported variable at all and no universal cube: empty space.
        return bool(rows)
    return _is_tautology(_key_restrict(key, var, False)) and _is_tautology(
        _key_restrict(key, var, True)
    )


@functools.lru_cache(maxsize=200_000)
def _complement(key: tuple) -> tuple:
    """Complement on canonical keys; returns a tuple of (pos, neg) rows."""
    nvars, rows = key
    if not rows:
        return ((0, 0),)
    if any(p == 0 and n == 0 for p, n in rows):
        return ()
    if len(rows) == 1:
        # De Morgan on a single cube: OR of complemented literals.
        pos, neg = rows[0]
        out = []
        for var in range(nvars):
            bit = 1 << var
            if pos & bit:
                out.append((0, bit))
            elif neg & bit:
                out.append((bit, 0))
        return tuple(sorted(out))
    var = _key_most_binate_var(key)
    assert var is not None  # len(rows) > 1 without universal cube => support
    bit = 1 << var
    c0 = _complement(_key_restrict(key, var, False))
    c1 = _complement(_key_restrict(key, var, True))
    merged: dict[tuple[int, int], None] = {}
    c0set = set(c0)
    c1set = set(c1)
    for pos, neg in c1:
        if (pos, neg) in c0set:
            merged[(pos, neg)] = None  # present in both branches: drop literal
        else:
            merged[(pos | bit, neg)] = None
    for pos, neg in c0:
        if (pos, neg) not in c1set:
            merged[(pos, neg | bit)] = None
    # SCC cleanup.
    items = sorted(merged, key=lambda r: (r[0] | r[1]).bit_count())
    kept: list[tuple[int, int]] = []
    for pos, neg in items:
        if not any((kp & ~pos) == 0 and (kn & ~neg) == 0 for kp, kn in kept):
            kept.append((pos, neg))
    return tuple(sorted(kept))


@functools.lru_cache(maxsize=200_000)
def _count_minterms(key: tuple) -> int:
    nvars, rows = key
    if not rows:
        return 0
    if len(rows) == 1:
        p, n = rows[0]
        return 1 << (nvars - (p | n).bit_count())
    var = _key_most_binate_var(key)
    if var is None:
        return 1 << nvars  # only universal cubes survive canonicalization
    # Each cofactor is counted over the full nvars-variable space, in which
    # the branching variable is free, so each contributes half its count.
    both = _count_minterms(_key_restrict(key, var, False)) + _count_minterms(
        _key_restrict(key, var, True)
    )
    return both // 2
