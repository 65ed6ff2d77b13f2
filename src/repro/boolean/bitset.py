"""Packed bit-parallel Boolean substrate.

Truth tables and simulation-vector words are stored as packed bitsets in
one :class:`BitVec` type whose ``words`` is a non-negative Python ``int``.
Bit *k* of a ``BitVec`` of width *W* is point/vector *k*; for truth tables
``W = 2**nvars`` and bit *i* of the point index is the value of variable
*i*, matching :meth:`repro.boolean.cube.Cube.evaluate`.  The tables the
synthesis flow builds are small (a gate or cone table has ``2**psi`` bits,
a few 64-bit words), and on those one arbitrary-precision int operation
is cheaper than dispatching an array operation.

On top of :class:`BitVec` this module provides the kernels the rest of the
library's hot paths are built on:

* cover → packed truth table (:func:`cover_table`, :func:`key_table`,
  :func:`cube_table`) — per cube one AND per literal over the whole table
  instead of a Python loop over ``2**n`` points;
* packed cofactor / smoothing / tautology / support
  (:func:`cofactor_table`, :func:`smooth_table`, :func:`table_is_tautology`,
  :func:`table_support`);
* Chow-parameter computation (:func:`chow_from_table`);
* weighted-sum enumeration over all input points
  (:func:`weighted_sums`), the workhorse of gate margin checks,
  multi-threshold placement, and cache vector re-verification;
* N-point evaluation over packed simulation words, of SOP functions
  (:func:`eval_cover_vecs`, the inner loop of Boolean-network simulation)
  and of packed truth tables (:func:`eval_table_vecs`, the inner loop of
  threshold-network simulation).

Nothing here needs numpy.
"""

from __future__ import annotations

from collections.abc import Sequence

#: Widest truth table the packed kernels build (2**16 bits = 8 KiB);
#: wider functions stay on the recursive cover algebra.
MAX_TABLE_VARS = 16


class _Masks(dict):
    """width -> the all-ones int of that many bits, built on first use."""

    def __missing__(self, width: int) -> int:
        mask = self[width] = (1 << width) - 1
        return mask


_ONES = _Masks()


class BitVec:
    """An immutable packed vector of ``width`` bits.

    ``words`` is a non-negative Python int below ``2**width``; every
    operator keeps it there.
    """

    __slots__ = ("width", "words")

    def __init__(self, width: int, words: int):
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "words", words)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("BitVec is immutable")

    def __reduce__(self):
        return (BitVec.from_int, (self.words, self.width))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, width: int) -> "BitVec":
        return cls(width, 0)

    @classmethod
    def ones(cls, width: int) -> "BitVec":
        return cls(width, _ONES[width])

    @classmethod
    def from_int(cls, value: int, width: int) -> "BitVec":
        """Pack the low ``width`` bits of a Python int."""
        return cls(width, value & _ONES[width])

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "BitVec":
        """Pack a 0/1 sequence; ``bits[k]`` becomes bit ``k``."""
        digits = "".join(["1" if b else "0" for b in reversed(bits)])
        return cls(len(bits), int(digits, 2) if digits else 0)

    @classmethod
    def random(cls, width: int, rng) -> "BitVec":
        """Uniform random bits from a ``random.Random``."""
        return cls.from_int(rng.getrandbits(width), width)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_int(self) -> int:
        return self.words

    def to_bits(self) -> list[int]:
        value = self.words
        return [(value >> k) & 1 for k in range(self.width)]

    # ------------------------------------------------------------------
    # Bitwise algebra
    # ------------------------------------------------------------------
    def __and__(self, other: "BitVec") -> "BitVec":
        return BitVec(self.width, self.words & other.words)

    def __or__(self, other: "BitVec") -> "BitVec":
        return BitVec(self.width, self.words | other.words)

    def __xor__(self, other: "BitVec") -> "BitVec":
        return BitVec(self.width, self.words ^ other.words)

    def andnot(self, other: "BitVec") -> "BitVec":
        """``self & ~other`` without materializing the complement."""
        return BitVec(self.width, self.words & ~other.words)

    def invert(self) -> "BitVec":
        return BitVec(self.width, self.words ^ _ONES[self.width])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def count(self) -> int:
        """Population count."""
        return self.words.bit_count()

    def is_zero(self) -> bool:
        return self.words == 0

    def is_ones(self) -> bool:
        """True when every one of the ``width`` bits is set."""
        return self.words == _ONES[self.width]

    def test(self, k: int) -> bool:
        """Value of bit ``k``."""
        return bool((self.words >> k) & 1)

    def first_set(self) -> int | None:
        """Index of the lowest set bit, or None when all-zero."""
        if self.words == 0:
            return None
        return (self.words & -self.words).bit_length() - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVec):
            return NotImplemented
        return self.width == other.width and self.words == other.words

    def __hash__(self) -> int:
        return hash((self.width, self.words))

    def __repr__(self) -> str:
        return f"BitVec(width={self.width}, popcount={self.count()})"


# ----------------------------------------------------------------------
# Truth-table structure: variable columns, cover tables, cofactors
# ----------------------------------------------------------------------

#: (nvars, var) -> BitVec column cache.  Columns are tiny (one table
#: each) and requested constantly, so a plain dict is the right call.
_column_cache: dict[tuple[int, int], BitVec] = {}


def variable_column(var: int, nvars: int) -> BitVec:
    """The packed truth table of variable ``var`` over ``2**nvars`` points."""
    key = (nvars, var)
    cached = _column_cache.get(key)
    if cached is not None:
        return cached
    width = 1 << nvars
    half = 1 << var
    # One period is ``half`` zeros then ``half`` ones; double it to width.
    value = _ONES[half] << half
    period = half << 1
    while period < width:
        value |= value << period
        period <<= 1
    column = _column_cache[key] = BitVec.from_int(value, width)
    return column


class _ColumnWords(dict):
    """nvars -> the int words of its variable columns, built on first use."""

    def __missing__(self, nvars: int) -> list[int]:
        words = self[nvars] = [
            variable_column(var, nvars).words for var in range(nvars)
        ]
        return words


_COLUMN_WORDS = _ColumnWords()


def _cube_words(pos: int, neg: int, nvars: int) -> int:
    """The packed table of one cube, as an int."""
    columns = _COLUMN_WORDS[nvars]
    value = _ONES[1 << nvars]
    while pos:
        low = pos & -pos
        value &= columns[low.bit_length() - 1]
        pos ^= low
    while neg:
        low = neg & -neg
        value &= ~columns[low.bit_length() - 1]
        neg ^= low
    return value


def cube_table(pos: int, neg: int, nvars: int) -> BitVec:
    """Packed truth table of one cube given its literal masks."""
    return BitVec(1 << nvars, _cube_words(pos, neg, nvars))


def key_table(key: tuple) -> BitVec:
    """Packed truth table of a cover key ``(nvars, ((pos, neg), ...))``."""
    nvars, rows = key
    width = 1 << nvars
    full = _ONES[width]
    value = 0
    for pos, neg in rows:
        value |= _cube_words(pos, neg, nvars)
        if value == full:
            break
    return BitVec(width, value)


def cover_table(cover) -> BitVec:
    """Packed truth table of a :class:`~repro.boolean.cover.Cover`.

    Goes through the cover's own memo slot when present so repeated
    requests for one instance are free.
    """
    packed = getattr(cover, "packed_table", None)
    if packed is not None:
        return packed()
    return key_table(
        (cover.nvars, tuple((c.pos, c.neg) for c in cover.cubes))
    )


def cofactor_table(table: BitVec, nvars: int, var: int, value: bool) -> BitVec:
    """Packed Shannon cofactor: ``var`` becomes free (both halves equal)."""
    column = variable_column(var, nvars).words
    shift = 1 << var
    if value:
        sel = table.words & column
        return BitVec(table.width, sel | (sel >> shift))
    sel = table.words & ~column
    return BitVec(table.width, sel | (sel << shift))


def smooth_table(table: BitVec, nvars: int, var: int) -> BitVec:
    """Existential abstraction: OR of both cofactors."""
    return cofactor_table(table, nvars, var, False) | cofactor_table(
        table, nvars, var, True
    )


def table_is_tautology(table: BitVec) -> bool:
    return table.is_ones()


def table_support(table: BitVec, nvars: int) -> int:
    """Bitmask of variables the function actually depends on.

    ``var`` matters iff the ``var = 1`` half of the table, shifted onto
    the ``var = 0`` half, differs from it (the two cofactors differ).
    """
    words = table.words
    mask = 0
    for var in range(nvars):
        column = variable_column(var, nvars).words
        if (words & column) >> (1 << var) != words & ~column:
            mask |= 1 << var
    return mask


def chow_from_table(table: BitVec, nvars: int, variables) -> dict[int, int]:
    """Chow parameters over the full space, matching the historical
    ``cover.restrict(var, True).num_minterms()`` definition (each count is
    doubled because the restricted cofactor leaves the variable free)."""
    words = table.words
    return {
        var: 2 * (words & variable_column(var, nvars).words).bit_count()
        for var in variables
    }


# ----------------------------------------------------------------------
# Weighted sums over all input points
# ----------------------------------------------------------------------


def weighted_sums(weights: Sequence[int | float]) -> list[int | float]:
    """Weighted input sums of all ``2**l`` points, in point order.

    Built by the doubling recurrence ``S_{i+1} = S_i ++ (S_i + w_i)``, so
    index ``p`` has bit *i* of ``p`` selecting whether ``w_i`` is added —
    the same point convention as the truth tables.
    """
    sums: list[int | float] = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def fires_table(sums: Sequence[int | float], threshold: int) -> BitVec:
    """Pack ``sums >= threshold`` into a truth-table BitVec."""
    return BitVec.from_bits([s >= threshold for s in sums])


# ----------------------------------------------------------------------
# Packed N-point evaluation (network simulation inner loops)
# ----------------------------------------------------------------------


def eval_cover_vecs(
    cover, fanin_vecs: Sequence[BitVec], width: int
) -> BitVec:
    """Evaluate an SOP over packed simulation words.

    ``fanin_vecs[i]`` carries the ``width`` simulation values of the
    cover's variable *i*; the result packs the cover's value on every
    vector.  One AND per literal per cube.
    """
    full = _ONES[width]
    result = 0
    for cube in cover.cubes:
        term = full
        pos = cube.pos
        literals = pos | cube.neg
        while literals:
            low = literals & -literals
            vec = fanin_vecs[low.bit_length() - 1].words
            term = term & vec if pos & low else term & ~vec
            if not term:
                break
            literals ^= low
        else:
            result |= term
            if result == full:
                break
    return BitVec(width, result)


def eval_table_vecs(
    table: BitVec, fanin_vecs: Sequence[BitVec], width: int
) -> BitVec:
    """Evaluate a packed truth table over packed simulation words.

    ``table`` has ``2**len(fanin_vecs)`` bits in this module's point
    order, and ``fanin_vecs[i]`` carries the ``width`` simulation values
    of variable *i*.  Shannon expansion on the top variable ``x``: with
    ``a`` and ``b`` the values of the table's upper (``x = 1``) and lower
    halves, the result is ``b ^ (x & (a ^ b))``.  An all-zero or all-one
    half returns at once, so a table costs at most ``2**len(fanin_vecs)``
    word operations and needs no cover.
    """
    full = _ONES[width]
    words = [vec.words for vec in fanin_vecs]

    def expand(bits: int, nvars: int) -> int:
        if not bits:
            return 0
        if bits == _ONES[1 << nvars]:
            return full
        nvars -= 1
        half = 1 << nvars
        low = expand(bits & _ONES[half], nvars)
        high = expand(bits >> half, nvars)
        return low ^ (words[nvars] & (high ^ low))

    return BitVec(width, expand(table.words, len(words)))
