"""Independent brute-force ground truth at desk scale, and the four audits.

Normality here is decided by the rank of the Frobenius-conjugate
coordinate matrix, deliberately NOT by the gcd criterion the production
path uses; the two are compared in tests, so theorem audits stay
non-circular; vectors are computed naively, multiply then trace, all n
entries.  The oracle has its own naive square (spread the bits, then
reduce) and reads none of the spec's tables: neither its squaring tables,
which the spec uses only to certify its modulus, nor its trace form.
Squaring is GF(2)-linear, so the oracle squares by its own naive squares
of g^j alone, computed once per call, and imports no production table
helper: a wrong spec table can reach an audit only through that
certification.  One generator, _conjugate_lanes, squares many values at
once, each in a lane of one int (see below), and both the trace pass and
the rank test square through it.  The rank test reduces by poly2's
_eliminate, as the factor solver does; the audits stay non-circular, since
the factorization audit checks that solver against a brute force over G,
and the rank test is checked against is_normal's unit test (Euclid, then
evaluation at roots of unity), which never eliminates.  The subfield
construction is the same pipeline as the full-field one; the tests check
it by rank on the first t conjugates.  The enumeration decides each
Frobenius orbit once: conjugates share normality and the vector, so one
rank test and one vector stand for the orbit's n elements, and the audits
count per element.

Each vector entry is still a product traced: reduction mod the modulus and
the trace are both GF(2)-linear, so Tr(e*c) is the sum of e_j c_k
Tr(g^(j+k)) over the bits j of e and k of c.  T holds those traces of the
2n - 1 monomials g^k, each g^k reduced by poly_mod, one lane each, and
traced as the sum of its n conjugates, once per enumeration; a lane whose
sum is not 0 or 1 makes the pass raise.  Grouped by the bits of c, Tr(e*c)
is the parity of c & w_e, where w_e is the XOR of (T >> j) & (2^n - 1)
over the set bits j of e.  The oracle shares with the field's trace form
only that identity, not its coefficients or its tables: T comes from naive
conjugate sums and poly_mod, never from the spec.

The vectors of all 2^n elements come from one bit-sliced pass (Biham, "A
fast new DES implementation in software", FSE 1997): plane k is a 2^n-bit
int whose bit e is bit k of e.  The n identity planes are built by
doubling; a GF(2)-linear map of the elements is an XOR of planes, one per
set bit of each basis image, so the planes of w_e and of each conjugate
e^(2^i) (the oracle's naive squares, applied i times) cost no Python step
per element.  Entry plane i, the XOR over k of C_i[k] & W[k], holds
Tr(e * e^(2^i)) for every e; plane 0 is Tr(e).  The pass checks
a_(n-i) = a_i for all elements at once and raises on a mismatch, so the
trace-one elements are split into one class per vector by planes 1 to n/2
alone, depth first.  When Tr(e) = 0 the n conjugates sum to 0, a linear
dependency, so trace-zero elements enter no class: a rank fact, not the
gcd criterion.

Gaussian rank decides the orbits a round needs all at once, in the style
of SIMD within a register (Fisher and Dietz, "Compiling for SIMD Within a
Register", LCPC 1998): each orbit's n conjugates are the rows of its own
matrix, one lane of ceil(n/8) bytes per orbit in one Python int.
_eliminate reduces every lane's row by its own pivots at once, and each
residue is placed at its leading bit.  Every lane is squared at once, as
the XOR over j of (x >> j & ones) * squares[j], ones holding bit 0 of each
lane: each product fits in its lane, since squares[j] < 2^n.  So the
interpreter pays its per-step cost once per round, not once per orbit.
After n squarings every lane must be back at its element, or the generator
raises.  A subfield orbit repeats a row, so it comes out dependent.  Round
1 ranks the smallest element of every class the caller wants; a class
holds whole orbits, so that element is its orbit's minimum.  Round 2,
after round 1's yields, splits the classes again and ranks the other
orbits of each class still wanted, their minima read from a last plane,
built by a sliced comparison with each conjugate only when round 2 has
work, in ascending order (to_bytes, then find jumps to each nonzero byte).
A class of at most n elements has no other orbit of n elements, so it
needs no round 2.  The callers want every class for check_necessary, only
a vector not yet found for achievable_vectors, and only (1, 0, ..., 0) for
the self-dual audit: an orbit whose vector is already found cannot change
the found set, whether it is normal or not.  Enumeration caps keep
exhaustive runs under a second on one core (about 0.2 s for all of
GF(2^20) on a 2-core Xeon with Python 3.11); the caps are the module
constants below.

This module owns every audit: check_characterization, check_factorization,
check_necessary and check_self_dual_existence.  Each returns a Report, whose
fields are ok, lines (the human output) and payload (the JSON record).

Two references depend on the degree alone, so each is built once per degree
per process and held in a bounded lru_cache as immutable values: the
characterization's predicted set (_predicted, a frozenset keyed on n and the
module's current _flags, so a patched _flags never reads a stale set) and
the brute force of G -> H (_factorization_reference, each target of H in
iter_H order with its factors in G as a tuple).  The references stand for
the paper's claims, which do not change between calls; the program under
audit might, so every call still checks production in full: a
characterization call enumerates its own field and compares the two sets,
and a factorization call runs factor_2power, with its own in_H check and
product verification, on every target.  The bounds are checked before any
work and raise, so no error is held.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_, xor
from typing import Callable, Iterator

from .construct import _characterized, _flags, pow2_odd_split
from .factor import _require_pow2, factor_2power, iter_G, iter_H
from .field import FieldSpec
from .poly2 import CyclicPoly, _eliminate, cyclic_mul, poly_mod, reciprocal, symmetric_vectors

ENUMERATION_CAP = 20
G_SEARCH_CAP = 24
_NONZERO = b"\0" + b"\1" * 255  # a translate table: nonzero bytes to 1


def _naive_square(spec: FieldSpec, a: int) -> int:
    sq = 0
    while a:
        low = a & -a
        sq |= 1 << (2 * (low.bit_length() - 1))
        a ^= low
    return poly_mod(sq, spec.modulus)


def _lanes(values: list[int], width: int) -> tuple[int, int]:
    """values packed in one int, lane i of width bytes holding values[i], and bit 0 of every lane."""
    x = int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")
    return x, int.from_bytes(b"\1".ljust(width, b"\0") * len(values), "little")


def _conjugate_lanes(squares: list[int], x: int, ones: int) -> Iterator[int]:
    """x, x^2, ..., x^(2^(n-1)) in every lane of x at once; squares[j] is the naive square of g^j.

    A lane's square is the XOR of squares[j] over its set bits j: x >> j & ones
    holds bit j of every lane at the lane's bit 0, and each product fits in its
    lane, since squares[j] < 2^n.  After n squarings every lane must be back
    at its start, or the generator raises.
    """
    start = x
    for _ in squares:
        yield x
        x = reduce(xor, [(x >> j & ones) * s for j, s in enumerate(squares)])
    if x != start:
        raise RuntimeError("Frobenius orbit longer than n (implementation bug)")


def _monomial_traces(spec: FieldSpec, squares: list[int]) -> int:
    """Bit k set iff Tr(g^k) = 1, k < 2n - 1: each g^k reduced by poly_mod, its n conjugates summed."""
    width = (spec.n + 7) // 8
    monomials = [poly_mod(1 << k, spec.modulus) for k in range(2 * spec.n - 1)]
    x, ones = _lanes(monomials, width)
    tr = reduce(xor, _conjugate_lanes(squares, x, ones))
    if tr & ~ones:
        raise RuntimeError("trace must land in GF(2) (implementation bug)")
    raw = tr.to_bytes(width * len(monomials), "little")
    return sum(bit << k for k, bit in enumerate(raw[::width]))


def _identity_planes(n: int) -> list[int]:
    """Plane k of every e < 2^n: bit e set iff bit k of e is, built by n doublings."""
    planes: list[int] = []
    for j in range(n):
        size = 1 << j
        planes = [p | p << size for p in planes] + [((1 << size) - 1) << size]
    return planes


def _mapped(images: list[int], planes: list[int]) -> list[int]:
    """The planes of x -> XOR of images[j] over the set bits j of x, from the planes of x."""
    out = [0] * len(planes)
    for image, plane in zip(images, planes):
        while image:
            out[(image & -image).bit_length() - 1] ^= plane
            image &= image - 1
    return out


def _classes(entries: list[int], n: int) -> Iterator[tuple[int, int]]:
    """(bits, members) per vector of the trace-one elements, split depth-first by a_1 .. a_(n/2)."""
    stack = [(1, entries[0], 1)]
    while stack:
        bits, members, i = stack.pop()
        if i > n // 2:
            yield bits, members
            continue
        ones = members & entries[i]
        for bit, child in ((1 << i | 1 << (n - i), ones), (0, members ^ ones)):  # 0 popped first
            if child:
                stack.append((bits | bit, child, i + 1))


def _ascending(mask: int) -> Iterator[int]:
    """The set bits of a mask in ascending order: find jumps to each nonzero byte."""
    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    nonzero, j = raw.translate(_NONZERO), -1
    while (j := nonzero.find(1, j + 1)) != -1:
        byte = raw[j]
        while byte:
            yield 8 * j + (byte & -byte).bit_length() - 1
            byte &= byte - 1


def _conjugate_planes(squares: list[int]) -> Iterator[list[int]]:
    """The planes of e, e^2, ..., e^(2^(n-1)) for every e < 2^n, each set mapped from the last."""
    conj = _identity_planes(len(squares))
    yield conj
    for _ in range(1, len(squares)):
        conj = _mapped(squares, conj)
        yield conj


def _vector_planes(spec: FieldSpec, squares: list[int]) -> list[int]:
    """The planes of a_0 .. a_(n/2) over every e < 2^n; squares[j] is the naive square of g^j."""
    n = spec.n
    traces = _monomial_traces(spec, squares)
    entries: list[int] = []
    for i, conj in enumerate(_conjugate_planes(squares)):
        if not i:  # the identity planes
            form = _mapped([traces >> j & (1 << n) - 1 for j in range(n)], conj)  # planes of w_e
        entry = reduce(xor, map(and_, conj, form))  # Tr(e * e^(2^i)) of every e
        if i <= n // 2:
            entries.append(entry)
        elif entry != entries[n - i]:
            raise RuntimeError("vector entries a_i and a_(n-i) differ (implementation bug)")
    return entries


def _minima(squares: list[int]) -> int:
    """The plane of orbit minima: bit e set iff e <= each of its conjugates."""
    conjugates = _conjugate_planes(squares)
    ident = next(conjugates)
    every = minima = (1 << (1 << len(squares))) - 1  # one bit per element
    for conj in conjugates:
        above, same = 0, every  # e > e^(2^i): e has the first differing bit from the top
        for x, c in zip(reversed(ident), reversed(conj)):
            differ = same & (x ^ c)
            above |= differ & x
            same ^= differ
        minima ^= minima & above
    return minima


def _normal_lanes(n: int, squares: list[int], es: list[int]) -> bytes:
    """One byte per e in es, 1 iff its n conjugates are independent: every e ranked at once.

    Lane i of one int holds a row of e_i, ceil(n/8) bytes wide.  Each of the
    n conjugate rows is reduced by _eliminate, then each lane's residue is
    placed at its leading bit.  A lane is normal iff bit k of basis[k] is set
    in it for every k.
    """
    width = (n + 7) // 8
    x, ones = _lanes(es, width)
    fill, basis = (1 << n) - 1, [0] * n
    for row in _conjugate_lanes(squares, x, ones):
        r = _eliminate(basis, row, ones, fill)
        for k in range(n - 1, -1, -1):
            if not r:
                break
            lead = (r >> k & ones) * fill & r  # the lanes whose residue leads with bit k
            basis[k] |= lead
            r ^= lead
    normal = reduce(and_, (b >> k & ones for k, b in enumerate(basis)))
    return normal.to_bytes(width * len(es), "little")[::width]


def _require_enumerable(n: int) -> None:
    if n > ENUMERATION_CAP:
        raise ValueError(f"exhaustive enumeration capped at n <= {ENUMERATION_CAP}, got {n}")


def enumerate_normal(spec: FieldSpec, wanted: Callable[[int], bool] = lambda bits: True
                     ) -> Iterator[tuple[int, CyclicPoly]]:
    """Yield (e, vector) once per rank-normal orbit with a wanted vector, e its smallest element.

    The n conjugates of e are normal with e and share its vector, since
    Tr(x^2) = Tr(x); each normal orbit has exactly n elements.  Orbits come
    in two rounds, each ranked by one _normal_lanes pass.  Round 1 ranks the
    smallest element of each class, one class per vector; round 2, run after
    round 1's yields, ranks the other orbits of each class still wanted
    that has more than n elements.  Within a round orbits come in class
    order, ascending within a class; the order of the classes is not part
    of the contract.  wanted(bits), for the vector's int bits, is asked per
    class before each round, so a caller can turn away the vectors it no
    longer needs; a class turned away in round 1 is not asked again.
    """
    n = spec.n
    _require_enumerable(n)
    squares = [_naive_square(spec, 1 << j) for j in range(n)]
    entries = _vector_planes(spec, squares)
    # a class holds whole orbits, so its smallest element is its first orbit's minimum
    first = {bits: (members ^ members - 1).bit_length() - 1
             for bits, members in _classes(entries, n) if wanted(bits)}
    if not first:
        return
    yield from _ranked(n, squares, list(first.items()))
    later = {bits for bits in first if wanted(bits)}
    if not later:
        return
    minima, orbits = None, []
    for bits, members in _classes(entries, n):
        # n elements or fewer hold no second orbit of n: a shorter orbit repeats a row
        if bits in later and members.bit_count() > n:
            minima = _minima(squares) if minima is None else minima
            others = members & minima
            orbits += ((bits, e) for e in _ascending(others & others - 1))
    yield from _ranked(n, squares, orbits)


def _ranked(n: int, squares: list[int], orbits: list[tuple[int, int]]
            ) -> Iterator[tuple[int, CyclicPoly]]:
    """(e, vector) for each (bits, e) of orbits, in order, whose e is normal by one lane pass."""
    if orbits:
        normal = _normal_lanes(n, squares, [e for _, e in orbits])
        yield from ((e, CyclicPoly(n, bits)) for (bits, e), ok in zip(orbits, normal) if ok)


def achievable_vectors(spec: FieldSpec) -> set[CyclicPoly]:
    """Distinct corresponding vectors over all (rank-)normal elements.

    Only a class whose vector is not yet found is ranked: round 2 passes
    over every class whose smallest element was normal, since an orbit
    whose vector is already in the set cannot change it, whether it is
    normal or not.  The set is kept as ints, and rebuilt as vectors once.
    """
    found: set[int] = set()
    for _, vec in enumerate_normal(spec, lambda bits: bits not in found):
        found.add(vec.bits)
    return {CyclicPoly(spec.n, bits) for bits in found}


def _require_characterized(n: int) -> None:
    if not _characterized(n):
        raise ValueError(f"characterization covers n = 2^s >= 4 or odd n, got {n}")


@lru_cache(maxsize=sum(map(_characterized, range(ENUMERATION_CAP + 1))))  # every audited n
def _predicted(n: int, flags: Callable[[int, CyclicPoly], list[bool]]) -> frozenset[CyclicPoly]:
    """The characterization's predicted set at n, by the rules flags: held per (n, flags)."""
    # corresponding vectors are symmetric
    return frozenset(v for v in symmetric_vectors(n) if all(flags(n, v)))


def predicted_vectors(n: int) -> set[CyclicPoly]:
    """All vectors the characterization declares achievable (n = 2^s >= 4 or odd)."""
    _require_characterized(n)
    return set(_predicted(n, _flags))  # a copy: the caller may change it, the memo stays


@dataclass(frozen=True)
class Report:
    """An audit's verdict, its human output and its JSON record."""

    ok: bool
    lines: tuple[str, ...]
    payload: dict


def check_characterization(spec: FieldSpec) -> Report:
    """Exhaustively compare achievable vectors against the characterization."""
    # both bounds before any work: the predicted set alone has 2^(n/2+1) candidates
    _require_characterized(spec.n)
    _require_enumerable(spec.n)
    predicted = _predicted(spec.n, _flags)
    achieved = achievable_vectors(spec)
    ok = predicted == achieved
    lines = [f"characterization audit, n = {spec.n}: "
             f"achievable {len(achieved)}, predicted {len(predicted)}"]
    lines += [f"  predicted but not achieved: {v}"
              for v in sorted(predicted - achieved, key=lambda v: v.bits)]
    lines += [f"  achieved but not predicted: {v}"
              for v in sorted(achieved - predicted, key=lambda v: v.bits)]
    lines.append("  agreement: " + ("exact" if ok else "VIOLATION"))
    return Report(ok, tuple(lines), {"audit": "characterization", "degree": spec.n,
                                     "achievable": len(achieved), "predicted": len(predicted),
                                     "ok": ok})


def _violations(audit: str, title: str, n: int, cases: str, count: int,
                failures: list[str]) -> Report:
    """A rule checked case by case: count cases under the JSON key cases, each failure a line."""
    ok = not failures
    lines = [f"{title} audit, n = {n}: {count} {cases.replace('_', ' ')}, "
             f"{len(failures)} violations"]
    lines += [f"  violation at {v}" for v in failures]
    return Report(ok, tuple(lines), {"audit": audit, "degree": n, cases: count,
                                     "violations": len(failures), "ok": ok})


def _factors_in_G(n: int) -> dict[CyclicPoly, list[CyclicPoly]]:
    """Each g * reciprocal(g) over G, with its factors in iter_G order: the brute force of G -> H."""
    # both bounds before the pass, which at n = 64 would walk 2^30 members; the ring size first
    _require_pow2(n)
    if n > G_SEARCH_CAP:
        raise ValueError(f"G-restricted search capped at n <= {G_SEARCH_CAP}, got {n}")
    factors: dict[CyclicPoly, list[CyclicPoly]] = {}
    for g in iter_G(n):
        factors.setdefault(cyclic_mul(g, reciprocal(g)), []).append(g)
    return factors


@lru_cache(maxsize=G_SEARCH_CAP.bit_length() - 2)  # every power of two 4 <= n <= G_SEARCH_CAP
def _factorization_reference(n: int) -> tuple[tuple[CyclicPoly, tuple[CyclicPoly, ...]], ...]:
    """Each h of H in iter_H order with its factors in G, by the brute force: held per n."""
    factors = _factors_in_G(n)  # the bounds, before iter_H
    return tuple((h, tuple(factors.get(h, ()))) for h in iter_H(n))


def check_factorization(spec: FieldSpec) -> Report:
    """Every h in H has exactly one factor g in G, found by brute force, and factor_2power returns it."""
    reference = _factorization_reference(spec.n)
    failures = [f"h = {h}" for h, matches in reference if matches != (factor_2power(h),)]
    return _violations("factorization", "factorization", spec.n, "targets", len(reference), failures)


def _require_composite(n: int) -> None:
    s2, m = pow2_odd_split(n)
    if s2 < 4 or m == 1:
        raise ValueError(
            f"necessary conditions apply to n = 2^s * m with 2^s >= 4 and odd m > 1, got n = {n}")


def check_necessary(spec: FieldSpec) -> Report:
    """The vector of every normal element passes the necessary conditions for composite 4 | n."""
    _require_enumerable(spec.n)  # first: an over-cap degree is reported as such
    _require_composite(spec.n)  # then the degree shape, still before the enumeration
    count, failing = 0, []
    failed: dict[CyclicPoly, bool] = {}  # few distinct vectors: each validated once
    for e, vec in enumerate_normal(spec):
        # counted per element: each orbit stands for its n conjugates, which share vec
        count += spec.n
        if vec not in failed:
            failed[vec] = not all(_flags(spec.n, vec))
        if failed[vec]:
            failing.append((e, vec))
    # orbits come class by class: the lines list them by e, which no two orbits share
    failures = [f"vector {vec}" for _, vec in sorted(failing) for _ in range(spec.n)]
    return _violations("necessary", "necessary-conditions", spec.n, "normal_elements",
                       count, failures)


def check_self_dual_existence(max_n: int) -> Report:
    """Exhaustively decide self-dual existence for every 2 <= n <= max_n."""
    if not 2 <= max_n <= 16:
        raise ValueError(f"self-dual audit covers 2 <= max_n <= 16, got {max_n}")
    lines = ["self-dual normal basis existence audit"]
    rows = []
    for n in range(2, max_n + 1):
        # only the self-dual vector (1, 0, ..., 0) is rank-tested; a yielded pair is truthy
        exists = any(enumerate_normal(FieldSpec.from_degree(n), lambda bits: bits == 1))
        expected = n % 4 != 0  # the 4-does-not-divide-n rule
        rows.append({"n": n, "exists": exists, "expected": expected})
        verdict = "ok" if exists == expected else "VIOLATION"
        lines.append(f"  n = {n:2d}: exists = {str(exists).lower():5s} "
                     f"expected = {str(expected).lower():5s} [{verdict}]")
    ok = all(r["exists"] == r["expected"] for r in rows)
    return Report(ok, tuple(lines), {"audit": "selfdual", "max_degree": max_n,
                                     "rows": rows, "ok": ok})
