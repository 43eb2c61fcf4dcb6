"""Arithmetic in GF(2^n) = GF(2)[x]/(modulus) in polynomial-basis coordinates.

A field element is a plain int: bit i is the coordinate of g^i where g is
a root of the defining modulus.  Every n-bit pattern is an element.  The
immutable FieldSpec context is passed explicitly to every operation, so
elements stay compact and specs can be shared freely across threads.

Element text formats: LSB-first hex of the coordinates ("0x2B") or a power
sum "pow:1,126" meaning g^1 + g^126.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .poly2 import degree, find_irreducible, is_irreducible, poly_mod, poly_mul, poly_to_text

MAX_DEGREE = 64  # desk-scale bound; exhaustive oracles restrict further


def _check_degree(n: int):
    if not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"extension degree must be in [1, {MAX_DEGREE}], got {n}")


@dataclass(frozen=True)
class FieldSpec:
    """GF(2^n) defined by an irreducible degree-n modulus."""

    n: int
    modulus: int

    def __post_init__(self):
        _check_degree(self.n)
        if degree(self.modulus) != self.n:
            raise ValueError(
                f"modulus {poly_to_text(self.modulus)} does not have degree {self.n}")
        if not is_irreducible(self.modulus):
            raise ValueError(f"modulus {poly_to_text(self.modulus)} is reducible")

    @classmethod
    def from_degree(cls, n: int) -> "FieldSpec":
        """Field with the smallest-encoding irreducible modulus (deterministic)."""
        _check_degree(n)  # before the modulus search, whose cost grows with n
        return cls(n, find_irreducible(n))

    @property
    def order(self) -> int:
        return 1 << self.n

    @property
    def generator(self) -> int:
        """The element x mod modulus (the adjoined root g)."""
        return poly_mod(2, self.modulus)


def _check_elem(spec: FieldSpec, a: int):
    if not 0 <= a < (1 << spec.n):
        raise ValueError(f"{a:#x} is not an element of GF(2^{spec.n})")


def elem_add(spec: FieldSpec, a: int, b: int) -> int:
    _check_elem(spec, a)
    _check_elem(spec, b)
    return a ^ b


def elem_mul(spec: FieldSpec, a: int, b: int) -> int:
    _check_elem(spec, a)
    _check_elem(spec, b)
    return poly_mod(poly_mul(a, b), spec.modulus)


def elem_square(spec: FieldSpec, a: int) -> int:
    _check_elem(spec, a)
    sq = 0
    while a:
        low = a & -a
        sq |= 1 << (2 * (low.bit_length() - 1))
        a ^= low
    return poly_mod(sq, spec.modulus)


def elem_pow(spec: FieldSpec, a: int, e: int) -> int:
    """Raise a to the power e >= 0 (square-and-multiply).

    For nonzero a the exponent is reduced mod 2^n - 1.
    """
    _check_elem(spec, a)
    if e < 0:
        raise ValueError("negative exponent")
    if a == 0:
        return 1 if e == 0 else 0
    e %= (1 << spec.n) - 1
    result = 1
    while e:
        if e & 1:
            result = elem_mul(spec, result, a)
        a = elem_square(spec, a)
        e >>= 1
    return result


def frobenius(spec: FieldSpec, a: int, k: int) -> int:
    """a^(2^k); k is reduced mod n, so frobenius(a, n) = a."""
    _check_elem(spec, a)
    for _ in range(k % spec.n):
        a = elem_square(spec, a)
    return a


def _conjugate_sum(spec: FieldSpec, a: int, mask: int, step: int = 1) -> int:
    """Sum of a^(2^(step*i)) over the set bits i of mask."""
    acc = 0
    while True:
        if mask & 1:
            acc ^= a
        mask >>= 1
        if not mask:
            return acc
        for _ in range(step):
            a = elem_square(spec, a)


def _trace_by_sum(spec: FieldSpec, a: int, t: int | None = None) -> int:
    """Trace onto GF(2) of a in the GF(2^t) subfield (default t = n): its first t conjugates."""
    tr = _conjugate_sum(spec, a, (1 << (t or spec.n)) - 1)
    if tr not in (0, 1):
        raise RuntimeError("trace must land in GF(2) (implementation bug)")
    return tr


@lru_cache(maxsize=None)
def _trace_mask(spec: FieldSpec) -> int:
    # bit i set iff Tr(g^i) = 1; by linearity Tr(x) = parity(popcount(x & mask))
    mask = 0
    p = 1
    for i in range(spec.n):
        if _trace_by_sum(spec, p):
            mask |= 1 << i
        p = poly_mod(p << 1, spec.modulus)
    return mask


def abs_trace(spec: FieldSpec, a: int) -> int:
    """Absolute trace onto GF(2): the sum of all 2^i-th powers of a."""
    _check_elem(spec, a)
    return (a & _trace_mask(spec)).bit_count() & 1


def rel_trace(spec: FieldSpec, a: int, t: int) -> int:
    """Relative trace onto the GF(2^t) subfield: sum of a^(2^(t*i)), i < n/t."""
    _check_elem(spec, a)
    if t < 1 or spec.n % t:
        raise ValueError(f"{t} does not divide the extension degree {spec.n}")
    return _conjugate_sum(spec, a, (1 << (spec.n // t)) - 1, t)


def in_subfield(spec: FieldSpec, a: int, t: int) -> bool:
    """True iff a lies in the GF(2^t) subfield, i.e. a^(2^t) = a."""
    _check_elem(spec, a)
    if t < 1 or spec.n % t:
        raise ValueError(f"{t} does not divide the extension degree {spec.n}")
    return frobenius(spec, a, t) == a


def parse_elem(spec: FieldSpec, text: str) -> int:
    """Parse "0x2B" (hex coordinates) or "pow:1,126" (g^1 + g^126)."""
    s = "".join(text.split())
    if s.startswith("pow:"):
        acc = 0
        for part in s[4:].split(","):
            try:
                e = int(part)
            except ValueError:
                raise ValueError(f"bad exponent {part!r} in element {text!r}") from None
            if e < 0:
                raise ValueError(f"negative exponent in element {text!r}")
            acc ^= elem_pow(spec, spec.generator, e)
        return acc
    if s.lower().startswith("0x"):
        try:
            value = int(s, 16)
        except ValueError:
            raise ValueError(f"bad hex element {text!r}") from None
        _check_elem(spec, value)
        return value
    raise ValueError(f"bad element {text!r} (expected 0x... or pow:...)")


def elem_to_hex(a: int) -> str:
    return f"0x{a:X}"
