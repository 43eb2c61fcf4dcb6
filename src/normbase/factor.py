"""Solving h = g * reciprocal(g) in GF(2)[z]/(z^n - 1).

Two regimes are covered.  For n a power of two the factorable targets form
the set H (symmetric, constant term 1, middle coefficient 0, odd-index
half-sum 0) and each has a unique factor g in the structured set G.  G is
one mask of free coefficients, bits 1, 3, 4, ..., n/2 - 1 (_free_mask): a
submask low is the member 1 + low + low's reflection i -> n - 1 - i
(_member), and iter_G walks the submasks in ascending order.  The factor g
is recovered by solving a linear system over GF(2), whose columns are
products (1 + u)(1 + u)^* since g * g^* is affine in g's free coefficients;
it is brought to echelon form by poly2's _eliminate, the package's one GF(2)
elimination routine.  For odd n a target factors iff it is symmetric, and
then g_i = h_{2i mod n} gives a symmetric square root (g * g^* = g^2 = h).

Both ways from h to g are one GF(2)-linear map per ring size, kept as the
images of the monomials (_images): the odd root is a bit permutation, and
the 2-power solution is linear in h on H, whose members all have odd
weight.  _factor sums those images over the set bits of h.  factor_2power
checks its input and its result around it; the prescription pipeline's
lift map calls _factor bare, as its own checks already prove those facts
(see the construct module), and a kept base's tables tabulate that lift.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .poly2 import (CyclicPoly, _eliminate, _mirror, _picked_sum, cyclic_mul, is_symmetric, reciprocal,
                    symmetric_vectors)


def _require_pow2(n: int):
    if n < 4 or n & (n - 1):
        raise ValueError(f"ring size must be a power of two >= 4, got {n}")


def _odd_half_sum(f: CyclicPoly) -> int:
    """Parity of the coefficients at the odd indices below n/2."""
    # 2^j // 3 = 0b1010...10 holds the odd bits below an odd j; with j = n//2 | 1, those below n/2
    return (f.bits & (1 << (f.n // 2 | 1)) // 3).bit_count() & 1


def in_H(h: CyclicPoly) -> bool:
    """Membership in the factorable set H (ring size a power of two >= 4)."""
    _require_pow2(h.n)
    return (
        h.coeff(0) == 1
        and h.coeff(h.n // 2) == 0
        and is_symmetric(h)
        and _odd_half_sum(h) == 0
    )


def _free_mask(n: int) -> int:
    # bits 1, 3, 4, ..., n/2 - 1, the free coefficients of a member of G; for n = 4 the
    # b_{n-3} = b_1 = 0 constraint pins the lone candidate, so G = {1}; GF(4) (n = 2) has
    # a single achievable vector, so there too h = g = 1
    return ((1 << n // 2) - 1) & ~0b101 if n > 4 else 0


def _member(n: int, low: int) -> CyclicPoly:
    """The member of G whose free coefficients are the bits of low, a submask of _free_mask(n)."""
    return CyclicPoly(n, 1 | low | _mirror(low, n) >> 1)  # low has no bit 0: i -> n - 1 - i


def iter_G(n: int) -> Iterator[CyclicPoly]:
    """All members of G, ascending in their free coefficients as a submask of _free_mask(n)."""
    _require_pow2(n)
    free, low = _free_mask(n), 0
    yield _member(n, low)
    while low := (low - free) & free:  # the next larger submask; 0 after the last
        yield _member(n, low)


def iter_H(n: int) -> Iterator[CyclicPoly]:
    """All members of H, in ascending order of their coefficients 0 .. n/2."""
    _require_pow2(n)
    yield from filter(in_H, symmetric_vectors(n))


@lru_cache(maxsize=64)  # keyed on the ring size; every size up to field.MAX_DEGREE
def _images(n: int) -> tuple[int, ...]:
    """The factor g of h = x^j for each j < n, n odd or a power of two: _factor's linear map.

    For odd n, g_i = h_(2i mod n) is the symmetric square root of a symmetric
    h (g * g^* = g^2 = h): bit j goes to bit j(n+1)/2 mod n.  For n = 2^s the
    unknowns are G's free coefficients z_k.  Column k is bits 1 .. n/2 - 1 of
    g * reciprocal(g) for g = _member(n, 1 << k) = 1 + u_k, u_k = x^k + x^(n-1-k)
    (see factor_2power), and the right-hand side is h_1 .. h_(n/2-1).  Row k is
    column k shifted left by n bits over its tag u_k, so _eliminate keeps each
    row a sum of columns over the sum of their tags; every pivot leads with a
    column bit, so a right-hand side in the columns' span reduces to a tag sum
    U alone, and then g = 1 + U.  A row of no tag at the one column that leads
    no row makes every bit j reduce, to U_j: image j is 1 + U_j for 0 < j < n/2,
    and 1 for j = 0 and j >= n/2.  Every h in H has odd weight (h_0 = 1,
    h_(n/2) = 0, the others pair up), so the sum of its images counts the 1
    once and is 1 + U: the map, linear on the whole ring, gives g on H.
    Raises RuntimeError if a column is dependent, which would be an
    implementation bug.
    """
    if n % 2:
        return tuple(1 << j * (n + 1) // 2 % n for j in range(n))
    mask = (1 << (n // 2 - 1)) - 1
    basis = [0] * (n + n // 2 - 1)  # rows are n/2 - 1 column bits over n tag bits
    free = _free_mask(n)
    for g in (_member(n, 1 << k) for k in range(n // 2) if free >> k & 1):
        tag, col = g.bits ^ 1, (cyclic_mul(g, reciprocal(g)).bits >> 1) & mask
        row = _eliminate(basis, col << n | tag)
        if not row >> n:
            raise RuntimeError("factorization system is rank-deficient (implementation bug)")
        basis[row.bit_length() - 1] = row
    for p in range(n, n + n // 2 - 1):
        basis[p] = basis[p] or 1 << p
    return (1, *(1 | _eliminate(basis, 1 << n + j) for j in range(n // 2 - 1)), *[1] * (n - n // 2))


def _factor(h: CyclicPoly) -> CyclicPoly:
    """The g of _images for h, the factor with g * reciprocal(g) = h for h in H (n = 2^s) or
    symmetric h (odd n); g is not verified."""
    return CyclicPoly(h.n, _picked_sum(_images(h.n), h.bits))


def factor_2power(h: CyclicPoly) -> CyclicPoly:
    """The unique g in G with g * reciprocal(g) = h, for h in H.

    The product is affine in G's free coefficients: with g = 1 + U and U
    the sum of z_k u_k, u_k = x^k + x^(n-1-k), reciprocal(u_k) = x * u_k,
    so g * reciprocal(g) = (1 + U)(1 + xU) = 1 + sum of z_k (u_k + x u_k + x u_k^2),
    because U^2 = sum of z_k u_k^2 over GF(2).  So coefficients 1 .. n/2 - 1
    of h give a linear system in the z_k; membership in H fixes the others.
    """
    if not in_H(h):
        raise ValueError(
            "no structured factorization: polynomial is outside the set H "
            "(needs constant term 1, middle coefficient 0, symmetry, odd-index half-sum 0)")
    g = _factor(h)
    if cyclic_mul(g, reciprocal(g)) != h:
        raise RuntimeError("solved factor fails verification (implementation bug)")
    return g
