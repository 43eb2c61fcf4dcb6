"""Normality tests, trace self-orthogonality vectors, and basis changes.

The corresponding vector of a is (a_0, ..., a_{n-1}) with
a_i = Tr(a * a^(2^i)); it is always symmetric and, read as a polynomial
f_a = sum a_i x^i, it is a unit mod x^n - 1 exactly when a is normal.
That criterion, decided by poly2.is_unit_mod_cyclic (Euclid, then
evaluation at the roots of unity), is the production normality test here;
the tests compare it with the rank-based reference, tests/rank_reference.py.

A vector is read off the trace form (the field module's _half_vector reads
a_0 .. a_{n/2}, by squaring or by a Frobenius table), as the rest mirror:
a_{n-i} = Tr(alpha^(2^(n-i)) * alpha) = Tr((alpha * alpha^(2^i))^(2^(n-i))) = a_i.

The deterministic scan is one stream and one decision.  The stream yields
each trace-one encoding in ascending order with its vector bits, by
aligned blocks of 256 encodings H | L (H with a zero low byte, L < 256),
from the block of the lowest trace-one basis monomial: the encodings below
that monomial have trace 0, so the trace-one filter alone skips them.  The
first block reads each vector with corresponding_vector, as nearly every
scan ends there before the 256 vectors f(L) would pay for themselves.
Each a_i is a quadratic form over GF(2) (Lidl & Niederreiter, Finite
Fields, ch. 6), so with f the vector's bits
f(H + L) = f(H) + f(L) + B_H(L), B_H linear in L with images
c_j = f(H + e_j) + f(H) + f(e_j): a later block costs nine vectors and
one byte table of B_H, and a candidate's vector three lookups.  The
decision tests the first SCAN_CAP candidates, one unit test per distinct
vector, and confirms a polarized hit by comparing its bits with the hit's
corresponding_vector.  The scan's element and its vector are kept by the
spec, so they are freed with the spec; the construct module's default
bases fold that vector instead of computing it again.
"""

from __future__ import annotations

import random
from itertools import islice

from .field import FieldSpec, _check_elem, _half_vector, _trace_form
from .poly2 import CyclicPoly, _byte_tables, _mirror, _rented, is_unit_mod_cyclic

# trace-one candidates the deterministic scan tests before it falls back to
# the seeded draw; every default modulus of degree n <= 64 but 63 is served
# within 16,385 (n = 31), and seeded moduli can reach the cap too
SCAN_CAP = 1 << 15
# seeded draws before find_normal gives up: at every n <= 64 at least 24% of
# GF(2^n) is normal (the fewest at n = 63), so a miss that long is a bug
DRAW_CAP = 1 << 15


def corresponding_vector(spec: FieldSpec, alpha: int) -> CyclicPoly:
    """The vector a with a_i = Tr(alpha * alpha^(2^i)), 0 <= i < n."""
    _check_elem(spec, alpha)
    bits = _half_vector(spec, alpha)
    return CyclicPoly(spec.n, bits | _mirror(bits, spec.n))


def is_normal(spec: FieldSpec, alpha: int) -> bool:
    """True iff the Frobenius orbit of alpha is a basis of GF(2^n) over GF(2)."""
    return is_unit_mod_cyclic(corresponding_vector(spec, alpha))


def _candidates(spec: FieldSpec, mask: int):
    # (encoding, vector bits, polarized) for each trace-one encoding in ascending order
    def trace(a):
        return (a & mask).bit_count() & 1

    def vec(a):
        return corresponding_vector(spec, a).bits
    H = mask & -mask & ~0xFF
    for a in range(H, H + 256):  # for n <= 8 the whole field, which holds a normal element
        if trace(a):
            yield a, vec(a), False
    low = [vec(L) for L in range(256)]
    trace_one = [[L for L in range(256) if trace(L) ^ t] for t in (0, 1)]  # by the trace of H
    for H in range(H + 256, spec.order, 256):
        f_H = vec(H)
        cross = _byte_tables([vec(H | 1 << j) ^ f_H ^ low[1 << j] for j in range(8)])[0]
        for L in trace_one[trace(H)]:
            yield H | L, f_H ^ low[L] ^ cross[L], True


def _scan(spec: FieldSpec) -> tuple[int, CyclicPoly]:
    units = {}
    for a, v, polarized in islice(_candidates(spec, _trace_form(spec)[0]), SCAN_CAP):
        if v not in units:
            units[v] = is_unit_mod_cyclic(CyclicPoly(spec.n, v))
        if units[v]:
            f = CyclicPoly(spec.n, v)
            if polarized and corresponding_vector(spec, a) != f:
                raise RuntimeError(f"polarized vector of {a:#x} is a unit, "
                                   "but not the element's vector (implementation bug)")
            return a, f
    a = find_normal(spec, seed=0)
    return a, corresponding_vector(spec, a)


def _scanned(spec: FieldSpec) -> tuple[int, CyclicPoly]:
    """The scan's normal element and its vector, kept by the spec."""
    return _rented(spec._held, "scan", None, _scan, spec)


def find_normal(spec: FieldSpec, seed: int | None = None) -> int:
    """Find a normal element.

    Without a seed, walk coordinate encodings in ascending order
    (deterministic); with one, draw seed-reproducible candidates.  The
    scan tests at most SCAN_CAP trace-one candidates and, if none of them
    is normal, returns the draw with seed 0 instead (at n = 63 on the
    default modulus no encoding below 2^14 is normal, and seeded moduli,
    such as 0x3CB377161A95 at n = 45, can reach the cap too).  Same arguments
    always return the same element; the scan runs once per spec, which
    keeps its result.  A seed must be an int (not a bool):
    any other value raises TypeError rather than seed a different draw.
    The draw raises RuntimeError after DRAW_CAP candidates with none
    normal, which only a wrong unit test can cause.
    """
    if seed is None:
        return _scanned(spec)[0]
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise TypeError(f"seed must be an int, got {type(seed).__name__}")
    rng = random.Random(seed)
    for _ in range(DRAW_CAP):
        a = rng.randrange(1, spec.order)
        if is_normal(spec, a):
            return a
    raise RuntimeError(f"no normal element in {DRAW_CAP} seeded draws (implementation bug)")
