"""Exact word closure of a crystallographic subgroup of U(1) x| C.

An element [zeta^j, m + n zeta] with zeta = e^{2 pi i / q} is stored as the
integer triple (j mod q, m, n), so products and the dedup are exact.  The
square lattice lives in Z[i] (q = 4); the hexagonal groups, p6 included,
live in Z[omega] with omega = e^{i pi / 3} (q = 6).  This is the independent
count that ``groups.enumerate_words`` and ``automorphy.CharacterTable`` are
checked against, and the benchmark's ``groups.closure_size``.
"""

from __future__ import annotations

import cmath
import math

MATCH_TOL = 1e-9

# multiplication of m + n zeta by zeta, as a map on (m, n)
_ROTATE = {
    4: lambda m, n: (-n, m),  # i^2 = -1
    6: lambda m, n: (-n, m + n),  # omega^2 = omega - 1
}


def _zeta(q: int) -> complex:
    return cmath.exp(2j * math.pi / q)


def _rotate(m: int, n: int, j: int, q: int) -> tuple[int, int]:
    for _ in range(j % q):
        m, n = _ROTATE[q](m, n)
    return m, n


def to_exact(a: complex, b: complex, q: int) -> tuple[int, int, int] | None:
    """(j, m, n) with a = zeta^j and b = m + n zeta, or None if [a, b] is not of that form."""
    zeta = _zeta(q)
    j = next((j for j in range(q) if abs(a - zeta**j) <= MATCH_TOL), None)
    if j is None:
        return None
    n = round(b.imag / zeta.imag)
    m = round(b.real - n * zeta.real)
    if abs(m + n * zeta - b) > MATCH_TOL:
        return None
    return j, m, n


def multiply(x, y, q: int):
    """[zeta^j, b] [zeta^k, c] = [zeta^(j+k), zeta^j c + b]."""
    j, m, n = x
    k, p, r = y
    p, r = _rotate(p, r, j, q)
    return (j + k) % q, m + p, n + r


def invert(x, q: int):
    """[zeta^j, b]^-1 = [zeta^-j, -zeta^-j b]."""
    j, m, n = x
    m, n = _rotate(-m, -n, -j, q)
    return (-j) % q, m, n


def exact_generators(pairs) -> tuple[list, int] | None:
    """Exact form of generators given as (a, b) pairs, in the first ring that holds them all."""
    for q in (6, 4):
        gens = [to_exact(complex(a), complex(b), q) for a, b in pairs]
        if all(g is not None for g in gens):
            return gens, q
    return None


def closure_size(pairs, max_len: int) -> int | None:
    """Number of distinct products of at most ``max_len`` generators or inverses.

    ``pairs`` are the generators as (a, b).  None when they are not exact in
    Z[i] or Z[omega].
    """
    exact = exact_generators(pairs)
    if exact is None:
        return None
    gens, q = exact
    letters = gens + [invert(g, q) for g in gens]
    seen = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    for _ in range(max_len):
        frontier = [
            w for w in {multiply(x, g, q) for x in frontier for g in letters} if w not in seen
        ]
        if not frontier:
            break
        seen.update(frontier)
    return len(seen)
