"""Solving h = g * reciprocal(g) in GF(2)[z]/(z^n - 1).

Two regimes are covered.  For n a power of two the factorable targets form
the set H (symmetric, constant term 1, middle coefficient 0, odd-index
half-sum 0) and each has a unique factor g in the structured set G; that g
is recovered by solving a linear system over GF(2).  The system's matrix
depends only on n, so it is eliminated once per ring size, into byte
tables of the linear map from h's coefficients to g's; each target then
costs one table lookup per byte of h's lower half.  For odd n a target
factors iff it is symmetric, and then g_i = h_{2i mod n} gives a symmetric
square root (g * g^* = g^2 = h).

factor_2power and factor_odd check their input, and factor_2power its
result, around the bare solvers _solve_2power and _sqrt_odd; the
prescription pipeline calls the solvers, as its own checks already prove
those facts (see the construct module).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .field import _byte_tables, _linear
from .poly2 import CyclicPoly, cyclic_mul, is_symmetric, reciprocal, symmetric_vectors


def _require_pow2(n: int):
    if n < 4 or n & (n - 1):
        raise ValueError(f"ring size must be a power of two >= 4, got {n}")


def _odd_half_sum(f: CyclicPoly) -> int:
    """Parity of the coefficients at the odd indices below n/2."""
    return (f.bits & int("10" * (f.n // 4) or "0", 2)).bit_count() & 1


def in_H(h: CyclicPoly) -> bool:
    """Membership in the factorable set H (ring size a power of two >= 4)."""
    _require_pow2(h.n)
    return (
        h.coeff(0) == 1
        and h.coeff(h.n // 2) == 0
        and is_symmetric(h)
        and _odd_half_sum(h) == 0
    )


def in_G(g: CyclicPoly) -> bool:
    """Membership in the structured factor set G (ring size a power of two >= 4).

    G fixes b_0 = 1, b_{n-1} = 0, b_2 = b_{n-3} = 0 and mirrors
    b_i = b_{n-1-i} for i = 1, 3, 4, ..., n/2 - 1: the free b_i fix the rest.
    """
    _require_pow2(g.n)
    free = _free_indices(g.n)
    return g == _g_from_assignment(g.n, free, [g.coeff(i) for i in free])


def _free_indices(n: int) -> list[int]:
    # the n/2 - 2 free coefficients of a member of G; for n = 4 the
    # b_{n-3} = b_1 = 0 constraint pins the lone candidate, so G = {1}
    if n == 4:
        return []
    return [1] + list(range(3, n // 2))


def _g_from_assignment(n: int, free: list[int], values) -> CyclicPoly:
    bits = 1
    for idx, v in zip(free, values):
        if v:
            bits |= (1 << idx) | (1 << (n - 1 - idx))
    return CyclicPoly(n, bits)


def iter_G(n: int) -> Iterator[CyclicPoly]:
    """All members of G in ascending order of their free-coefficient encoding."""
    _require_pow2(n)
    free = _free_indices(n)
    for pattern in range(1 << len(free)):
        yield _g_from_assignment(n, free, [(pattern >> k) & 1 for k in range(len(free))])


def iter_H(n: int) -> Iterator[CyclicPoly]:
    """All members of H, in ascending order of their coefficients 0 .. n/2."""
    _require_pow2(n)
    yield from filter(in_H, symmetric_vectors(n))


@lru_cache(maxsize=8)  # keyed on the ring size; one entry per power of two in use
def _eliminated_system(n: int) -> tuple[int, list[list[int]], list[int]]:
    """The factor_2power system for ring size n, eliminated once.

    Equation j (1 <= j <= n/2 - 1) is bit j - 1 of the right-hand side
    h_j + const_j.  Returns (const, solution, zero).  Each unknown is a
    parity of rhs bits, so the solution g is 1 plus a GF(2)-linear image
    of rhs, and solution holds that map as byte tables.  Each mask in zero
    combines equations that must sum to 0.  Raises RuntimeError if the
    system is rank-deficient, which would be an implementation bug.
    """
    free = _free_indices(n)
    col = {idx: pos for pos, idx in enumerate(free)}
    rows, const = [], 0
    for j in range(1, n // 2):
        if j % 2 == 0:
            terms = (j, j - 1)
        else:
            terms = (j, j - 1, (n - 1 - j) // 2, (j - 1) // 2)
        row = 0
        for z in terms:
            if z == 0:
                const ^= 1 << (j - 1)
            elif z in col:
                row ^= 1 << col[z]
        rows.append(row)
    combos = [1 << i for i in range(len(rows))]  # which equations each row now sums
    m = len(rows)
    pivot_row = []
    r = 0
    for c in range(len(free)):
        bit = 1 << c
        p = next((i for i in range(r, m) if rows[i] & bit), None)
        if p is None:
            raise RuntimeError("factorization system is rank-deficient (implementation bug)")
        rows[r], rows[p] = rows[p], rows[r]
        combos[r], combos[p] = combos[p], combos[r]
        for i in range(m):
            if i != r and rows[i] & bit:
                rows[i] ^= rows[r]
                combos[i] ^= combos[r]
        pivot_row.append(r)
        r += 1
    # bit j of rhs flips the unknowns whose pick holds bit j, each with its mirror
    images = [0] * m
    for idx, i in zip(free, pivot_row):
        for j in range(m):
            if combos[i] >> j & 1:
                images[j] ^= (1 << idx) | (1 << (n - 1 - idx))
    return const, _byte_tables(images), combos[r:]


def _solve_2power(h: CyclicPoly) -> CyclicPoly:
    """The g in G solving the eliminated system for h, which must lie in H; g is not verified."""
    n = h.n
    const, solution, zero = _eliminated_system(n)
    rhs = ((h.bits >> 1) & ((1 << (n // 2 - 1)) - 1)) ^ const
    if any((c & rhs).bit_count() & 1 for c in zero):
        raise RuntimeError("factorization system is inconsistent (implementation bug)")
    return CyclicPoly(n, 1 | _linear(solution, rhs))


def factor_2power(h: CyclicPoly) -> CyclicPoly:
    """The unique g in G with g * reciprocal(g) = h, for h in H.

    The product equations are linear over the free coefficients of G: with
    z_0 = 1 and every other index outside G's free set fixed at 0 (z_2, and
    also z_1 when n = 4), coefficient j of the product is z_j + z_{j-1} for
    even j and z_j + z_{j-1} + z_{(n-1-j)/2} + z_{(j-1)/2} for odd j
    (1 <= j <= n/2 - 1; repeated indices cancel).
    """
    if not in_H(h):
        raise ValueError(
            "no structured factorization: polynomial is outside the set H "
            "(needs constant term 1, middle coefficient 0, symmetry, odd-index half-sum 0)")
    g = _solve_2power(h)
    if not verify_factorization(h, g):
        raise RuntimeError("solved factor fails verification (implementation bug)")
    return g


def _sqrt_odd(h: CyclicPoly) -> CyclicPoly:
    """g_i = h_{2i mod n}, odd n: the symmetric square root when h is symmetric."""
    coeffs = f"{h.bits:0{h.n}b}"[::-1]  # coeffs[i] = h_i
    # 2i mod n runs over the even indices for i <= (n-1)/2, then over the odd ones
    return CyclicPoly(h.n, int((coeffs[::2] + coeffs[1::2])[::-1], 2))


def factor_odd(h: CyclicPoly) -> CyclicPoly:
    """The symmetric square root g (g_i = h_{2i mod n}) of a symmetric h, odd n."""
    if h.n % 2 == 0:
        raise ValueError(f"ring size must be odd, got {h.n}")
    if not is_symmetric(h):
        raise ValueError("no factorization: polynomial is not symmetric")
    return _sqrt_odd(h)


def verify_factorization(h: CyclicPoly, g: CyclicPoly) -> bool:
    """True iff g * reciprocal(g) = h in the cyclic ring."""
    if h.n != g.n:
        raise ValueError(f"ring size mismatch: {h.n} != {g.n}")
    return cyclic_mul(g, reciprocal(g)) == h
