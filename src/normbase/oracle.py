"""Independent brute-force ground truth at desk scale, and the four audits.

Normality here is decided by the rank of the Frobenius-conjugate
coordinate matrix, deliberately NOT by the gcd criterion the production
path uses; the two are compared in tests, so theorem audits stay
non-circular; vectors are computed naively, multiply then trace, all n
entries.  The oracle has its own naive square (spread the bits, then
reduce) and its own trace mask, and reads none of the spec's tables: neither
its squaring tables, which the spec uses only to certify its modulus, nor
its trace form.  Squaring is GF(2)-linear, so the oracle squares by tables
of its own naive squares of g^j, built once per call: the trace mask, each
Tr(g^i) a sum of n conjugates, by byte tables (n naive squares in all),
and an enumeration by two half-width tables.  The generic helpers
_byte_tables and _linear only tabulate and apply the values they are
given, so a wrong spec table can reach an audit only through that
certification.  The rank test reduces by poly2's _eliminate, as the factor
solver does; the audits stay non-circular, since the factorization audit
checks that solver against a brute force over G, and the rank test is
checked against is_normal's unit test (Euclid, then evaluation at roots of
unity), which never eliminates.  The subfield construction is the same
pipeline as the full-field one; the tests check it by rank on the first t
conjugates.  The enumeration decides each Frobenius orbit once: conjugates
share normality and the vector, so one rank test and one vector stand for
the orbit's n elements, and the audits count per element.

Each vector entry is still a product traced: reduction mod the modulus
and the trace are both GF(2)-linear, so Tr(e*c) is the sum of
e_j c_k Tr(g^(j+k)) over the bits j of e and k of c.  T holds those traces
of the 2n - 1 monomials g^k, each g^k reduced by poly_mod and traced by the
naive trace mask once per enumeration.  Grouped by the bits of c, Tr(e*c)
is the parity of c & w_e, where w_e is the XOR of (T >> j) & (2^n - 1) over
the set bits j of e.  w_e is linear in e, so those n images are tabulated
once per call and one _linear lookup per orbit gives all n entries.  The
oracle shares with the field's trace form only that identity, not its
coefficients or its tables: T comes from naive conjugate sums and
poly_mod, never from the spec.  The low n bits of T give Tr(e), the sum
of the n conjugates of e, as the parity of e & T.
When it is 0 the conjugates are linearly dependent, so e is never walked:
the visited map starts with every such e marked, built from those n bits
in n doublings, and bytearray.find jumps to the next element to decide.
That is a rank fact, not the gcd criterion.  Every other full-length orbit
gets its vector first, as the int of its n bits, and Gaussian rank decides
it whenever the caller still reads that vector (a CyclicPoly is built only
for a yielded orbit): every orbit for check_necessary, only a vector not
yet found for achievable_vectors, only (1, 0, ..., 0) for the self-dual
audit.  An orbit whose vector is already found cannot change the found
set, whether it is normal or not.  Enumeration caps keep exhaustive runs
under a second on one core (about 0.5 s for all of GF(2^20) on a 2-core
Xeon with Python 3.11); the caps are the module constants below.

This module owns every audit: check_characterization, check_factorization,
check_necessary and check_self_dual_existence.  Each returns a Report, whose
fields are ok, lines (the human output) and payload (the JSON record).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .construct import _characterized, _flags, pow2_odd_split
from .factor import _require_pow2, factor_2power, iter_G, iter_H
from .field import FieldSpec
from .poly2 import (CyclicPoly, _byte_tables, _eliminate, _linear, cyclic_mul, poly_mod, reciprocal,
                    symmetric_vectors)

ENUMERATION_CAP = 20
G_SEARCH_CAP = 24
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def _naive_square(spec: FieldSpec, a: int) -> int:
    sq = 0
    while a:
        low = a & -a
        sq |= 1 << (2 * (low.bit_length() - 1))
        a ^= low
    return poly_mod(sq, spec.modulus)


def _naive_trace_mask(spec: FieldSpec) -> int:
    """Bit i set iff Tr(g^i) = 1 (g^i = 1 << i), the sum of n conjugates squared by naive tables."""
    square = _byte_tables([_naive_square(spec, 1 << j) for j in range(spec.n)])
    mask = 0
    for i in range(spec.n):
        tr = 0
        x = 1 << i
        for _ in range(spec.n):
            tr ^= x
            x = _linear(square, x)
        if tr not in (0, 1):
            raise RuntimeError("trace must land in GF(2) (implementation bug)")
        mask |= tr << i
    return mask


def _monomial_traces(spec: FieldSpec) -> int:
    """Bit k set iff Tr(g^k) = 1, for k < 2n - 1: each g^k reduced by poly_mod, then traced."""
    mask = _naive_trace_mask(spec)
    traces = 0
    for k in range(2 * spec.n - 1):
        traces |= ((poly_mod(1 << k, spec.modulus) & mask).bit_count() & 1) << k
    return traces


def _square_tables(spec: FieldSpec) -> tuple[int, list[int], list[int]]:
    """(h, low, high): x^2 = low[x & (2^h - 1)] ^ high[x >> h], h = ceil(n/2), g^(2j) naive."""
    h = (spec.n + 1) // 2
    tables = _byte_tables([_naive_square(spec, 1 << j) for j in range(spec.n)], h)
    low, high = (tables + [[0]])[:2]  # n = 1 has no high half
    return h, low, high


def _independent(rows: list[int]) -> bool:
    """GF(2) elimination: True iff the rows are independent (stops at the first dependent)."""
    basis = [0] * max(rows).bit_length()  # pivots by leading bit: sized by width, not row count
    for r in rows:
        if not (r := _eliminate(basis, r)):
            return False
        basis[r.bit_length() - 1] = r
    return True


def _trace_zero_marks(n: int, traces: int) -> bytearray:
    """Byte e is 1 - Tr(e) for every e < 2^n, bit j of traces being Tr(g^j): n doublings.

    The trace is linear, so an e with bit j set has Tr(e) = Tr(e - 2^j) + Tr(g^j):
    each doubling appends a copy of the map so far, flipped where Tr(g^j) = 1.
    """
    marks = bytearray(b"\1")  # Tr(0) = 0
    for j in range(n):
        marks += marks.translate(_FLIP if traces >> j & 1 else None)
    return marks


def _require_enumerable(n: int) -> None:
    if n > ENUMERATION_CAP:
        raise ValueError(f"exhaustive enumeration capped at n <= {ENUMERATION_CAP}, got {n}")


def enumerate_normal(spec: FieldSpec, wanted: Callable[[int], bool] = lambda bits: True
                     ) -> Iterator[tuple[int, CyclicPoly]]:
    """Yield (e, vector) once per rank-normal orbit with a wanted vector, e its smallest element.

    The n conjugates of e are normal with e and share its vector, since
    Tr(x^2) = Tr(x); each normal orbit has exactly n elements.  Each
    full-length orbit's vector comes first, and the rank test runs only when
    wanted(bits) holds for the vector's int bits, asked just before the
    orbit would be yielded, so a caller can turn away the vectors it no
    longer needs.  Elements are scanned in ascending order, so every
    element below a yielded e has been decided.
    """
    n = spec.n
    _require_enumerable(n)
    traces = _monomial_traces(spec)
    full = (1 << n) - 1
    form = _byte_tables([(traces >> j) & full for j in range(n)])  # e -> w_e
    h, low, high = _square_tables(spec)
    half = (1 << h) - 1
    # Tr(e) = 0 sums the n conjugates to 0, a linear dependency; they share the trace,
    # so each starts marked and find jumps to the next unvisited e with Tr(e) = 1
    visited = _trace_zero_marks(n, traces)
    e = 0
    while (e := visited.find(0, e + 1)) != -1:
        w = _linear(form, e)
        bits, orbit = (e & w).bit_count() & 1, [e]
        x = low[e & half] ^ high[e >> h]
        for i in range(1, n):
            if x == e:
                break  # a shorter orbit lies in a proper subfield, so its conjugates repeat
            visited[x] = 1
            bits |= ((x & w).bit_count() & 1) << i
            orbit.append(x)
            x = low[x & half] ^ high[x >> h]
        else:
            if x != e:
                raise RuntimeError("Frobenius orbit longer than n (implementation bug)")
            if wanted(bits) and _independent(orbit):
                yield e, CyclicPoly(n, bits)


def achievable_vectors(spec: FieldSpec) -> set[CyclicPoly]:
    """Distinct corresponding vectors over all (rank-)normal elements.

    Only an orbit whose vector is not yet found is rank-tested: an orbit
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


def predicted_vectors(n: int) -> set[CyclicPoly]:
    """All vectors the characterization declares achievable (n = 2^s >= 4 or odd)."""
    _require_characterized(n)
    # corresponding vectors are symmetric
    return {v for v in symmetric_vectors(n) if all(_flags(n, v))}


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
    predicted = predicted_vectors(spec.n)
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


def check_factorization(spec: FieldSpec) -> Report:
    """Every h in H has exactly one factor g in G, found by brute force, and factor_2power returns it."""
    factors = _factors_in_G(spec.n)
    count, failures = 0, []
    for h in iter_H(spec.n):
        count += 1
        matches = factors.get(h, [])
        g = factor_2power(h)
        if matches != [g]:
            failures.append(f"h = {h}")
    return _violations("factorization", "factorization", spec.n, "targets", count, failures)


def _require_composite(n: int) -> None:
    s2, m = pow2_odd_split(n)
    if s2 < 4 or m == 1:
        raise ValueError(
            f"necessary conditions apply to n = 2^s * m with 2^s >= 4 and odd m > 1, got n = {n}")


def check_necessary(spec: FieldSpec) -> Report:
    """The vector of every normal element passes the necessary conditions for composite 4 | n."""
    _require_enumerable(spec.n)  # first: an over-cap degree is reported as such
    _require_composite(spec.n)  # then the degree shape, still before the enumeration
    count, failures = 0, []
    failed: dict[CyclicPoly, bool] = {}  # few distinct vectors: each validated once
    for _, vec in enumerate_normal(spec):
        # counted per element: each orbit stands for its n conjugates, which share vec
        count += spec.n
        if vec not in failed:
            failed[vec] = not all(_flags(spec.n, vec))
        if failed[vec]:
            failures += [f"vector {vec}"] * spec.n
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
