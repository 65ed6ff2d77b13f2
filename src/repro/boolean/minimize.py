"""A compact espresso-style two-level minimizer.

Implements the EXPAND / IRREDUNDANT / REDUCE loop.  It is not the full
espresso (no MINI-style blocking matrices, no LASTGASP), but it produces
irredundant prime covers, honours a don't-care set, and is more than
adequate for the node-simplification duty the ``script.algebraic`` and
``script.boolean`` stand-ins need and for preparing benchmark functions.

Each step is a set predicate, and :func:`minimize` decides it one of two
ways, in the same cube and literal order, so both return the same cover:

* **The table path**, for every cover of at most
  :data:`~repro.boolean.bitset.MAX_TABLE_VARS` variables.  The steps read
  int truth tables: ``on`` and ``dc`` of the cover and of its don't-care
  set, and ``off = ~(on | dc)``.  EXPAND drops a literal when the grown
  cube misses ``off``; IRREDUNDANT drops a cube whose table lies inside
  the live others and ``dc``; REDUCE shrinks a cube to the smallest cube
  around its essential table ``cube & ~(rest | dc)``.  No OFF-set cover
  is built, as in SIS's ``simplify -m nocomp``.
* **The wide loop** (:func:`expand`, :func:`irredundant`,
  :func:`reduce_cover`), over the cover algebra, for wider covers: EXPAND
  tests against the complement of ``on | dc``.  ``network.transform``'s
  ``simplify`` never sends such a cover; ``core.identify`` does when it
  minimizes the complement of a cone over more than 16 variables (a ψ
  above 16, or an ``is_threshold_function`` call on a wider function).
  The tests use it as the reference for the table path.

The two callers in the flow are ``simplify``, on the nodes of every
network ``prepare_tels`` and ``prepare_one_to_one`` build, and the
threshold checker's preprocessing (``core.identify``), on every cone it
checks.
"""

from __future__ import annotations

from repro.boolean.bitset import _cube_words, variable_column
from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.errors import CoverError

_MAX_PASSES = 8


def expand(cover: Cover, offset: Cover) -> Cover:
    """Expand every cube to a prime against ``offset`` (greedy per literal).

    A literal may be dropped from a cube whenever the grown cube still
    intersects no OFF-set cube.  Cubes are processed largest-first so big
    primes get the chance to absorb smaller cubes via the final SCC.
    """
    expanded: list[Cube] = []
    for cube in sorted(cover.cubes, key=lambda c: c.num_literals):
        current = cube
        for var, phase in list(cube.literals()):
            candidate = current.without_var(var)
            if not any(candidate.intersects(off) for off in offset.cubes):
                current = candidate
        expanded.append(current)
    return Cover(expanded, cover.nvars).scc()


def irredundant(cover: Cover, dcset: Cover | None = None) -> Cover:
    """Drop cubes covered by the union of the remaining cubes and DC-set."""
    cubes = list(cover.cubes)
    # Try to drop the largest cubes last so primes are preferentially kept.
    order = sorted(range(len(cubes)), key=lambda i: cubes[i].num_literals, reverse=True)
    alive = [True] * len(cubes)
    for i in order:
        rest = [cubes[j] for j in range(len(cubes)) if alive[j] and j != i]
        if dcset is not None:
            rest = rest + list(dcset.cubes)
        if Cover(rest, cover.nvars).contains_cube(cubes[i]):
            alive[i] = False
    return Cover([c for i, c in enumerate(cubes) if alive[i]], cover.nvars)


def reduce_cover(cover: Cover, dcset: Cover | None = None) -> Cover:
    """Shrink each cube to the supercube of its essential part."""
    cubes = list(cover.cubes)
    out: list[Cube] = []
    for i, cube in enumerate(cubes):
        rest = out + cubes[i + 1 :]
        if dcset is not None:
            rest = rest + list(dcset.cubes)
        blocked = Cover(rest, cover.nvars)
        # Essential part of `cube`: minterms of cube not covered by the rest.
        essential = Cover([cube], cover.nvars).product(blocked.complement())
        if essential.is_zero():
            continue  # fully redundant
        shrunk = essential.cubes[0]
        for c in essential.cubes[1:]:
            shrunk = shrunk.supercube(c)
        out.append(shrunk)
    return Cover(out, cover.nvars)


# ----------------------------------------------------------------------
# The table path: the same three steps on int truth tables
# ----------------------------------------------------------------------


def _expand_tables(cover: Cover, off: int) -> Cover:
    """:func:`expand` with the OFF-set given as a table."""
    nvars = cover.nvars
    expanded: list[Cube] = []
    for cube in sorted(cover.cubes, key=lambda c: c.num_literals):
        pos, neg = cube.pos, cube.neg
        words = _cube_words(pos, neg, nvars)
        literals = pos | neg
        while literals:
            bit = literals & -literals
            literals ^= bit
            # Dropping the literal copies the cube onto the other half of
            # its variable: the grown cube's table.
            shift = 1 << (bit.bit_length() - 1)
            grown = words | (words >> shift if cube.pos & bit else words << shift)
            if not grown & off:
                words = grown
                pos &= ~bit
                neg &= ~bit
        expanded.append(Cube(pos, neg, nvars))
    return Cover(expanded, nvars).scc()


def _irredundant_tables(cover: Cover, dc: int) -> Cover:
    """:func:`irredundant` with the DC-set given as a table.

    A live cube lies inside the other live cubes and ``dc`` exactly when
    each of its points is in ``dc`` or in at least two live cubes, so one
    pass over the live tables serves every test until a cube is dropped.
    """
    nvars = cover.nvars
    cubes = cover.cubes
    tables = [_cube_words(c.pos, c.neg, nvars) for c in cubes]
    order = sorted(range(len(cubes)), key=lambda i: cubes[i].num_literals, reverse=True)
    alive = [True] * len(cubes)

    def covered_twice() -> int:
        once = twice = 0
        for table, live in zip(tables, alive):
            if live:
                twice |= once & table
                once |= table
        return twice | dc

    covered = covered_twice()
    for i in order:
        if not tables[i] & ~covered:
            alive[i] = False
            covered = covered_twice()
    return Cover([c for c, live in zip(cubes, alive) if live], nvars)


def _reduce_tables(cover: Cover, dc: int) -> Cover:
    """:func:`reduce_cover` with the DC-set given as a table.

    The supercube of the essential part fixes each free variable whose
    column the essential table lies on one side of.
    """
    nvars = cover.nvars
    cubes = cover.cubes
    tables = [_cube_words(c.pos, c.neg, nvars) for c in cubes]
    later = [0] * (len(cubes) + 1)  # later[i]: OR of tables[i:]
    for i in range(len(cubes) - 1, -1, -1):
        later[i] = later[i + 1] | tables[i]
    done = dc  # the reduced cubes so far, and the DC-set
    out: list[Cube] = []
    for i, cube in enumerate(cubes):
        essential = tables[i] & ~(done | later[i + 1])
        if not essential:
            continue  # fully redundant
        pos, neg = cube.pos, cube.neg
        free = ~(pos | neg) & ((1 << nvars) - 1)
        while free:
            bit = free & -free
            free ^= bit
            column = variable_column(bit.bit_length() - 1, nvars).words
            if not essential & ~column:
                pos |= bit
            elif not essential & column:
                neg |= bit
        out.append(Cube(pos, neg, nvars))
        done |= _cube_words(pos, neg, nvars)
    return Cover(out, nvars)


def minimize(cover: Cover, dcset: Cover | None = None) -> Cover:
    """Espresso-lite: iterate expand / irredundant / reduce to a fixpoint.

    Args:
        cover: the ON-set cover to minimize.
        dcset: optional don't-care cover the result may freely use.

    Returns:
        An irredundant cover of prime implicants equivalent to ``cover`` on
        the care set, with (heuristically) few cubes and literals.

    Raises:
        CoverError: ``dcset`` is over another number of variables.
    """
    if dcset is not None and dcset.nvars != cover.nvars:
        raise CoverError("covers over different variable counts")
    cover = cover.scc()
    if cover.is_zero() or cover.is_tautology():
        return Cover.one(cover.nvars) if cover.is_tautology() else cover
    if cover.packable():
        dc = 0 if dcset is None else dcset.packed_table().words
        off = cover.packed_table().invert().words & ~dc
        steps = (
            lambda c: _expand_tables(c, off),
            lambda c: _irredundant_tables(c, dc),
            lambda c: _reduce_tables(c, dc),
        )
    else:
        offset = (cover if dcset is None else cover.union(dcset)).complement()
        steps = (
            lambda c: expand(c, offset),
            lambda c: irredundant(c, dcset),
            lambda c: reduce_cover(c, dcset),
        )
    expand_step, irredundant_step, reduce_step = steps
    best = irredundant_step(expand_step(cover))
    best_cost = (best.num_cubes, best.num_literals)
    for _ in range(_MAX_PASSES):
        candidate = irredundant_step(expand_step(reduce_step(best)))
        cost = (candidate.num_cubes, candidate.num_literals)
        if cost < best_cost:
            best, best_cost = candidate, cost
        else:
            break
    assert _covers_care_set(best, cover, dcset)
    return best


def _covers_care_set(result: Cover, onset: Cover, dcset: Cover | None) -> bool:
    """Sanity check: result equals the ON-set everywhere outside the DC-set."""
    if result.packable():
        dc = 0 if dcset is None else dcset.packed_table().words
        return not (result.packed_table().words ^ onset.packed_table().words) & ~dc
    if dcset is None:
        return result.equivalent(onset)
    care_result = result.product(dcset.complement())
    care_on = onset.product(dcset.complement())
    return care_result.equivalent(care_on)
