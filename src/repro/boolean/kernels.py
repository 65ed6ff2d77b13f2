"""Kernel and co-kernel enumeration for algebraic covers.

A *kernel* of a cover F is a cube-free quotient of F by a cube (the
*co-kernel*).  Kernels are the classic source of common algebraic divisors in
multi-level synthesis: two functions share a nontrivial common divisor of more
than one cube iff they share a kernel intersection of more than one cube
(the Brayton–McMullen theorem).  This module implements the recursive
enumeration with the standard pruning on literal order, plus helpers used by
the network-level ``extract`` transform.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.boolean.cover import Cover
from repro.boolean.cube import Cube
from repro.boolean.divide import divide_by_cube, make_cube_free


@dataclass(frozen=True)
class Kernel:
    """A kernel with one witnessing co-kernel cube and its recursion level.

    ``level`` 0 means the kernel has no kernels other than itself (no literal
    appears in more than one of its cubes).
    """

    cover: Cover
    cokernel: Cube
    level: int


def _literal_list(nvars: int) -> list[tuple[int, bool]]:
    """All literals in a fixed total order: (var 0, +), (var 0, -), ..."""
    out = []
    for var in range(nvars):
        out.append((var, True))
        out.append((var, False))
    return out


def _literal_count(cover: Cover, var: int, phase: bool) -> int:
    bit = 1 << var
    if phase:
        return sum(1 for c in cover.cubes if c.pos & bit)
    return sum(1 for c in cover.cubes if c.neg & bit)


def kernels(cover: Cover, include_self: bool = True) -> list[Kernel]:
    """Enumerate all kernels of ``cover`` (each with one co-kernel witness).

    When ``include_self`` is set and the cover is itself cube-free, the cover
    is reported as a kernel with the universal co-kernel, matching the
    conventional definition.
    """
    cover = cover.scc()
    found: dict[tuple, Kernel] = {}
    free, stripped = make_cube_free(cover)
    base_cokernel = stripped
    _kernel_rec(free, base_cokernel, 0, found)
    result = list(found.values())
    # The cube-free residue of the cover is itself a kernel.  When a
    # nontrivial common cube was stripped it is a *proper* kernel (its
    # co-kernel is that cube) and is always reported; when the cover was
    # already cube-free it is the trivial self-kernel, reported only when
    # ``include_self`` is set.
    if include_self or not stripped.is_full():
        key = free.canonical_key()
        if key not in found and free.num_cubes >= 2:
            level = 1 + max((k.level for k in result), default=-1)
            result.append(Kernel(free, base_cokernel, level))
    return result


def _kernel_rec(
    cover: Cover,
    cokernel: Cube,
    min_literal_index: int,
    found: dict[tuple, Kernel],
) -> int:
    """Recursive kerneling; returns the level of ``cover`` as a kernel."""
    literals = _literal_list(cover.nvars)
    max_child_level = -1
    for idx in range(min_literal_index, len(literals)):
        var, phase = literals[idx]
        if _literal_count(cover, var, phase) < 2:
            continue
        lit_cube = Cube.from_literals({var: phase}, cover.nvars)
        quotient = divide_by_cube(cover, lit_cube)
        quotient, extra = make_cube_free(quotient)
        # Pruning: if the stripped common cube contains a literal earlier in
        # the order, this kernel was (or will be) found from that literal.
        if _has_earlier_literal(extra, idx, literals):
            continue
        child_cokernel = _cube_product(cokernel, lit_cube, extra)
        key = quotient.canonical_key()
        if key in found:
            level = found[key].level
        else:
            level = _kernel_rec(quotient, child_cokernel, idx + 1, found)
            found[key] = Kernel(quotient, child_cokernel, level)
        max_child_level = max(max_child_level, level)
    return max_child_level + 1


def _has_earlier_literal(
    cube: Cube, index: int, literals: list[tuple[int, bool]]
) -> bool:
    for j in range(index):
        var, phase = literals[j]
        bit = 1 << var
        if (phase and cube.pos & bit) or (not phase and cube.neg & bit):
            return True
    return False


def _cube_product(a: Cube, b: Cube, c: Cube) -> Cube:
    return Cube(a.pos | b.pos | c.pos, a.neg | b.neg | c.neg, a.nvars)


def level0_kernels(cover: Cover) -> list[Kernel]:
    """Only the level-0 kernels (leaves of the kerneling tree)."""
    return [k for k in kernels(cover) if k.level == 0]
