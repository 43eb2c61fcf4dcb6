"""Independent brute-force ground truth at desk scale.

Normality here is decided by the rank of the Frobenius-conjugate
coordinate matrix, deliberately NOT by the gcd criterion the production
path uses; the two are compared in tests, so theorem audits stay
non-circular; vectors are computed naively, multiply then trace.  The
subfield construction is the same pipeline as the full-field one, and is
audited by the same rank test on the first t conjugates.  Enumeration
caps keep exhaustive runs in the minutes range on one core; caps are
arguments, not constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .construct import Status, validate_vector
from .field import FieldSpec, _check_elem, _trace_mask, elem_mul, elem_square, in_subfield
from .poly2 import CyclicPoly, cyclic_mul, reciprocal

ENUMERATION_CAP = 20
G_SEARCH_CAP = 24
FULL_SEARCH_CAP = 16


def _conjugate_rows(spec: FieldSpec, alpha: int, t: int | None):
    _check_elem(spec, alpha)
    for _ in range(spec.n if t is None else t):
        yield alpha
        alpha = elem_square(spec, alpha)


def conjugates(spec: FieldSpec, alpha: int, t: int | None = None) -> list[int]:
    """Coordinate rows of alpha^(2^i) for i < t (default t = n)."""
    return list(_conjugate_rows(spec, alpha, t))


def _independent_conjugates(spec: FieldSpec, alpha: int, t: int | None = None) -> list[int] | None:
    """The conjugate rows if independent over GF(2), else None (stops at the first dependent)."""
    basis: dict[int, int] = {}
    rows = []
    for x in _conjugate_rows(spec, alpha, t):
        r = x
        while r:
            lead = r.bit_length() - 1
            b = basis.get(lead)
            if b is None:
                basis[lead] = r
                break
            r ^= b
        else:
            return None
        rows.append(x)
    return rows


def is_normal_by_rank(spec: FieldSpec, alpha: int) -> bool:
    """Rank-based normality: the n conjugates are linearly independent."""
    return _independent_conjugates(spec, alpha) is not None


def is_subfield_normal_by_rank(spec: FieldSpec, alpha: int, t: int) -> bool:
    """Rank-based subfield normality: alpha in GF(2^t), t independent conjugates."""
    if not in_subfield(spec, alpha, t):
        return False
    return _independent_conjugates(spec, alpha, t) is not None


def enumerate_normal(spec: FieldSpec, cap: int = ENUMERATION_CAP) -> Iterator[tuple[int, CyclicPoly]]:
    """Yield every rank-normal element with its corresponding vector."""
    n = spec.n
    if n > cap:
        raise ValueError(f"exhaustive enumeration capped at n <= {cap}, got {n}")
    mask = _trace_mask(spec)
    for e in range(1, 1 << n):
        conj = _independent_conjugates(spec, e)
        if conj is None:
            continue
        bits = 0
        for i, c in enumerate(conj):
            if (elem_mul(spec, e, c) & mask).bit_count() & 1:
                bits |= 1 << i
        yield e, CyclicPoly(n, bits)


def achievable_vectors(spec: FieldSpec, cap: int = ENUMERATION_CAP) -> set[CyclicPoly]:
    """Distinct corresponding vectors over all (rank-)normal elements."""
    return {vec for _, vec in enumerate_normal(spec, cap)}


def predicted_vectors(n: int) -> set[CyclicPoly]:
    """All vectors the characterization declares achievable (n = 2^s >= 4 or odd)."""
    if not ((n >= 4 and n & (n - 1) == 0) or n % 2 == 1):
        raise ValueError(f"characterization covers n = 2^s >= 4 or odd n, got {n}")
    # corresponding vectors are symmetric, so free indices are 0..floor(n/2)
    half = n // 2
    out = set()
    for pattern in range(1 << (half + 1)):
        bits = 0
        for k in range(half + 1):
            if (pattern >> k) & 1:
                bits |= 1 << k
                if 0 < k < n - k:
                    bits |= 1 << (n - k)
        v = CyclicPoly(n, bits)
        if validate_vector(n, v).status is Status.VALID:
            out.add(v)
    return out


@dataclass(frozen=True)
class CharacterizationReport:
    """Achievable-versus-predicted comparison for one field."""

    n: int
    achievable_count: int
    predicted_count: int
    missing: tuple[CyclicPoly, ...]  # predicted but never achieved
    extra: tuple[CyclicPoly, ...]    # achieved but not predicted

    @property
    def ok(self) -> bool:
        return not self.missing and not self.extra

    def lines(self) -> list[str]:
        out = [f"characterization audit, n = {self.n}: "
               f"achievable {self.achievable_count}, predicted {self.predicted_count}"]
        for v in self.missing:
            out.append(f"  predicted but not achieved: {v}")
        for v in self.extra:
            out.append(f"  achieved but not predicted: {v}")
        out.append("  agreement: " + ("exact" if self.ok else "VIOLATION"))
        return out


def check_characterization(spec: FieldSpec, cap: int = ENUMERATION_CAP) -> CharacterizationReport:
    """Exhaustively compare achievable vectors against the characterization."""
    predicted = predicted_vectors(spec.n)  # first: it rejects unsupported degrees
    achieved = achievable_vectors(spec, cap)
    return CharacterizationReport(
        spec.n,
        len(achieved),
        len(predicted),
        tuple(sorted(predicted - achieved, key=lambda v: v.bits)),
        tuple(sorted(achieved - predicted, key=lambda v: v.bits)),
    )


def brute_factor(h: CyclicPoly, restrict_to_G: bool,
                 g_cap: int = G_SEARCH_CAP, full_cap: int = FULL_SEARCH_CAP) -> list[CyclicPoly]:
    """All g (in G, or anywhere) with g * reciprocal(g) = h, by exhaustion."""
    from .factor import iter_G  # local import keeps module load cheap

    if restrict_to_G:
        if h.n > g_cap:
            raise ValueError(f"G-restricted search capped at n <= {g_cap}, got {h.n}")
        candidates = iter_G(h.n)
    else:
        if h.n > full_cap:
            raise ValueError(f"unrestricted search capped at n <= {full_cap}, got {h.n}")
        candidates = (CyclicPoly(h.n, bits) for bits in range(1 << h.n))
    return [g for g in candidates if cyclic_mul(g, reciprocal(g)) == h]


@dataclass(frozen=True)
class SelfDualRow:
    n: int
    exists: bool
    expected: bool  # the 4-does-not-divide-n rule


@dataclass(frozen=True)
class SelfDualReport:
    """Existence of self-dual normal elements versus the divisibility rule."""

    rows: tuple[SelfDualRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.exists == r.expected for r in self.rows)

    def lines(self) -> list[str]:
        out = ["self-dual normal basis existence audit"]
        for r in self.rows:
            verdict = "ok" if r.exists == r.expected else "VIOLATION"
            out.append(f"  n = {r.n:2d}: exists = {str(r.exists).lower():5s} "
                       f"expected = {str(r.expected).lower():5s} [{verdict}]")
        return out


def check_self_dual_existence(max_n: int, cap: int = ENUMERATION_CAP) -> SelfDualReport:
    """Exhaustively decide self-dual existence for every 2 <= n <= max_n."""
    if max_n > 16:
        raise ValueError(f"self-dual audit capped at max_n <= 16, got {max_n}")
    rows = []
    for n in range(2, max_n + 1):
        spec = FieldSpec.from_degree(n)
        exists = any(vec.bits == 1 for _, vec in enumerate_normal(spec, cap))
        rows.append(SelfDualRow(n, exists, n % 4 != 0))
    return SelfDualReport(tuple(rows))
