"""Algebraic (weak) division of SOP covers.

Algebraic division treats each cube as a set of literals and the cover as a
polynomial in those literals; it is the foundation of kernel extraction and
algebraic factoring (Brayton/McMullen, as surveyed in Hachtel & Somenzi).
Given covers F and D, ``divide(F, D)`` returns the quotient Q and remainder R
with ``F = Q*D + R`` (algebraic product, disjoint literal supports).
"""

from __future__ import annotations

from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.errors import CoverError


def cube_divide(cube: Cube, divisor: Cube) -> Cube | None:
    """Divide one cube by another: remove divisor literals if all present."""
    if not divisor.contains(cube):
        # `divisor.contains(cube)` means every literal of divisor appears in
        # cube, i.e. cube is divisible by divisor.
        return None
    return Cube(cube.pos & ~divisor.pos, cube.neg & ~divisor.neg, cube.nvars)


def divide_by_cube(cover: Cover, divisor: Cube) -> Cover:
    """Quotient of a cover by a single cube (remainder implicit)."""
    out = []
    for cube in cover.cubes:
        q = cube_divide(cube, divisor)
        if q is not None:
            out.append(q)
    return Cover(out, cover.nvars)


def divide(cover: Cover, divisor: Cover) -> tuple[Cover, Cover]:
    """Weak division: return (quotient, remainder) with F = Q*D + R.

    The quotient is the largest cover Q such that Q*D is an algebraic product
    contained (cube-wise) in F.
    """
    if divisor.nvars != cover.nvars:
        raise CoverError("divisor over a different variable space")
    if divisor.is_zero():
        raise CoverError("division by the empty cover")
    quotient_cubes: set[Cube] | None = None
    for d in divisor.cubes:
        partials = {cube_divide(c, d) for c in cover.cubes}
        partials.discard(None)
        if quotient_cubes is None:
            quotient_cubes = partials  # type: ignore[assignment]
        else:
            quotient_cubes &= partials  # type: ignore[arg-type]
        if not quotient_cubes:
            return Cover.zero(cover.nvars), cover
    assert quotient_cubes is not None
    # Keep the product algebraic: quotient cubes must not mention divisor
    # variables (cubes that do simply stay in the remainder).
    dsupport = divisor.support
    quotient_cubes = {q for q in quotient_cubes if not (q.support & dsupport)}
    if not quotient_cubes:
        return Cover.zero(cover.nvars), cover
    quotient = Cover(sorted(quotient_cubes), cover.nvars)
    product = set(algebraic_product(quotient, divisor).cubes)
    remainder = Cover([c for c in cover.cubes if c not in product], cover.nvars)
    return quotient, remainder


def algebraic_product(a: Cover, b: Cover) -> Cover:
    """Pairwise cube concatenation; requires disjoint literal supports."""
    out = []
    for ca in a.cubes:
        for cb in b.cubes:
            if ca.support & cb.support:
                raise CoverError(
                    "algebraic product of covers with overlapping supports"
                )
            out.append(Cube(ca.pos | cb.pos, ca.neg | cb.neg, a.nvars))
    return Cover(out, a.nvars)


def common_cube(cover: Cover) -> Cube:
    """The largest cube dividing every cube of the cover."""
    if cover.is_zero():
        return Cube.full(cover.nvars)
    pos = neg = ~0
    for cube in cover.cubes:
        pos &= cube.pos
        neg &= cube.neg
    mask = (1 << cover.nvars) - 1
    return Cube(pos & mask, neg & mask, cover.nvars)


def is_cube_free(cover: Cover) -> bool:
    """True when no single literal divides every cube."""
    return common_cube(cover).is_full() and cover.num_cubes > 0


def make_cube_free(cover: Cover) -> tuple[Cover, Cube]:
    """Strip the largest common cube; return (cube-free cover, that cube)."""
    cc = common_cube(cover)
    if cc.is_full():
        return cover, cc
    return divide_by_cube(cover, cc), cc
