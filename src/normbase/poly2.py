"""Arithmetic in GF(2)[x] and in the cyclic quotient ring GF(2)[x]/(x^n - 1).

Polynomials over GF(2) are plain Python integers: bit i holds the
coefficient of x^i.  The integer encoding is automatically canonical (no
stored leading zeros) and the zero polynomial is 0.  Addition is xor.

Elements of GF(2)[x]/(x^n - 1) keep their ring size explicitly and never
canonicalize: a CyclicPoly stores exactly n coefficient bits, so the usual
identification between length-n bit vectors and ring elements stays
positional and lossless.  Cyclic ring values double as coefficient vectors
throughout the package (trace vectors, basis-change coefficients).

poly_mul takes b two bits at a time, each picking one of 0, a, x*a, x*a + a.
_mirror reverses the n bits a byte at a time through a 256-entry
bytes.translate table, then rotates them so that bit 0 stays fixed.
symmetric_vectors doubles its list of sums over the pairs x^k + x^(n-k),
k = 0 .. n/2, which keeps them ascending in f_0 .. f_{n//2}.

Text formats: "x^16+x^5+x^3+x^2+1" (terms in any order, duplicates
rejected) or LSB-first hex "0x1002D".  Bit vectors render as "1,0,1,...".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence


# ---------- GF(2)[x] on plain ints ----------

def poly_mul(a: int, b: int) -> int:
    """Multiply polynomials a and b (carry-less schoolbook, two bits of b per step)."""
    if a < b:
        a, b = b, a
    window = (0, a, a << 1, a << 1 ^ a)  # window[d] = d * a for the 2-bit digits d of b
    acc = shift = 0
    while b:
        acc ^= window[b & 3] << shift
        b >>= 2
        shift += 2
    return acc


def poly_mod(a: int, b: int) -> int:
    """Reduce a modulo b, for nonzero b."""
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    db = b.bit_length()
    while (shift := a.bit_length() - db) >= 0:
        a ^= b << shift
    return a


def poly_gcd(a: int, b: int) -> int:
    """Greatest common divisor of a and b (not both zero)."""
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    while b:
        db = b.bit_length()
        while (shift := a.bit_length() - db) >= 0:  # a becomes a mod b
            a ^= b << shift
        a, b = b, a
    return a


def _eliminate(basis: Sequence[int], r: int) -> int:
    """XOR into the GF(2) row r the pivot basis[i] at its leading bit i while there is one."""
    while r and (b := basis[r.bit_length() - 1]):
        r ^= b
    return r


def is_irreducible(f: int) -> bool:
    """Test f for irreducibility over GF(2) by Ben-Or's criterion.

    f of degree n is irreducible iff gcd(x^(2^i) - x, f) = 1 for every
    i <= n/2 (Ben-Or 1981; Gao & Panario, "Tests and constructions of
    irreducible polynomials over finite fields", 1997).  A reducible f with
    a small factor is rejected early, which keeps find_irreducible's search
    fast; FieldSpec certifies its modulus by Rabin's test on its squaring
    tables instead.  Constants are not irreducible.
    """
    n = f.bit_length() - 1
    if n < 1:
        return False
    h = 2  # the polynomial x
    for _ in range(n // 2):
        h = poly_mod(poly_mul(h, h), f)
        if poly_gcd(h ^ 2, f) != 1:
            return False
    return True


def find_irreducible(n: int) -> int:
    """Smallest (by integer encoding) irreducible polynomial of degree n."""
    if n < 1:
        raise ValueError("degree must be positive")
    for f in range(1 << n, 1 << (n + 1)):
        if is_irreducible(f):
            return f
    raise AssertionError("unreachable: irreducibles exist in every degree")


# ---------- text formats ----------

def _terms_text(exponents) -> str:
    """Render the distinct exponents, given highest first, as a sum of powers of x."""
    return "+".join("1" if i == 0 else "x" if i == 1 else f"x^{i}" for i in exponents)


def poly_to_text(a: int) -> str:
    """Render a as a sum of powers of x, highest degree first."""
    if a == 0:
        return "0"
    return _terms_text(
        i for i, bit in zip(range(a.bit_length() - 1, -1, -1), bin(a)[2:]) if bit == "1")


class DegreeBoundError(ValueError):
    """A term-form polynomial above its degree bound; text renders it as poly_to_text would."""

    def __init__(self, text: str, bound: int):
        super().__init__(f"polynomial {text} has degree above {bound}")
        self.text = text


def parse_poly(text: str, max_degree: int | None = None) -> int:
    """Parse "x^5+x+1" / "0x23" / "0" into a polynomial.

    With max_degree, a term-form text of higher degree raises
    DegreeBoundError once it has parsed, before any x^k is built.
    """
    s = "".join(text.split())
    if not s:
        raise ValueError("empty polynomial")
    if s.lower().startswith("0x"):
        try:
            return int(s, 16)
        except ValueError:
            raise ValueError(f"bad hex polynomial {text!r}") from None
    if s == "0":
        return 0
    exponents = set()
    for term in s.split("+"):
        if term == "1":
            k = 0
        elif term == "x":
            k = 1
        elif term.startswith("x^"):
            try:
                k = int(term[2:])
            except ValueError:
                raise ValueError(f"bad term {term!r} in polynomial {text!r}") from None
            if k < 0:
                raise ValueError(f"negative exponent in {text!r}")
        else:
            raise ValueError(f"bad term {term!r} in polynomial {text!r}")
        if k in exponents:
            raise ValueError(f"duplicate term {term!r} in polynomial {text!r}")
        exponents.add(k)
    if max_degree is not None and max(exponents) > max_degree:
        raise DegreeBoundError(_terms_text(sorted(exponents, reverse=True)), max_degree)
    return sum(1 << k for k in exponents)


# ---------- the cyclic ring GF(2)[x]/(x^n - 1) ----------

@dataclass(frozen=True)
class CyclicPoly:
    """A polynomial in GF(2)[x]/(x^n - 1); equivalently a length-n bit vector."""

    n: int
    bits: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ring size must be positive")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"coefficients do not fit ring size {self.n}")

    @classmethod
    def from_coeffs(cls, coeffs) -> "CyclicPoly":
        """Build from an iterable of 0/1 coefficients, index i = coeff of x^i."""
        coeffs = list(coeffs)
        if any(c not in (0, 1) for c in coeffs):
            raise ValueError("coefficients must be 0 or 1")
        return cls(len(coeffs), int("".join("01"[c] for c in reversed(coeffs)) or "0", 2))

    @classmethod
    def from_support(cls, n: int, support) -> "CyclicPoly":
        """Build from the set of indices carrying coefficient 1."""
        bits = 0
        for i in support:
            if not 0 <= i < n:
                raise ValueError(f"support index {i} outside [0, {n})")
            bits |= 1 << i
        return cls(n, bits)

    def coeff(self, i: int) -> int:
        return (self.bits >> (i % self.n)) & 1

    def coeffs(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(self.n)]

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if (self.bits >> i) & 1)

    def weight(self) -> int:
        return self.bits.bit_count()

    def __str__(self):
        return ",".join(str(b) for b in self.coeffs())


def parse_vector(text: str) -> CyclicPoly:
    """Parse a comma-separated bit vector "1,0,1" into a CyclicPoly."""
    parts = [p.strip() for p in text.split(",")]
    if any(p not in ("0", "1") for p in parts):
        raise ValueError(f"bad bit vector {text!r}")
    return CyclicPoly(len(parts), int("".join(reversed(parts)), 2))


def ring_modulus(n: int) -> int:
    """The polynomial x^n - 1 (equals x^n + 1 over GF(2))."""
    return (1 << n) | 1


def cyclic_mul(a: CyclicPoly, b: CyclicPoly) -> CyclicPoly:
    """Product in GF(2)[x]/(x^n - 1)."""
    if a.n != b.n:
        raise ValueError(f"ring size mismatch: {a.n} != {b.n}")
    prod = poly_mul(a.bits, b.bits)
    # deg(prod) <= 2n-2, so folding the high words once suffices
    return CyclicPoly(a.n, (prod & ((1 << a.n) - 1)) ^ (prod >> a.n))


def cyclic_inv(f: CyclicPoly) -> CyclicPoly:
    """Inverse of f modulo x^n - 1, for f coprime to x^n - 1: Euclid keeping f's cofactor u alone."""
    m = ring_modulus(f.n)
    a, b, u, u1 = f.bits, m, 1, 0
    while b:
        q, db = 0, b.bit_length()
        while (shift := a.bit_length() - db) >= 0:  # a becomes a mod b
            q |= 1 << shift
            a ^= b << shift
        a, b = b, a
        u, u1 = u1, u ^ poly_mul(q, u1)
    if a != 1:
        raise ZeroDivisionError(
            f"not invertible modulo x^{f.n}-1: shares factor {poly_to_text(a)}")
    return CyclicPoly(f.n, poly_mod(u, m))


_REVERSED = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))  # byte i, bits reversed


def _mirror(bits: int, n: int) -> int:
    """The n coefficient bits with bit i moved to n - i mod n, bit 0 fixed; 0 <= bits < 2^n."""
    w = (n + 7) // 8  # reversing w bytes moves bit i to 8w - 1 - i
    r = int.from_bytes(bits.to_bytes(w, "little").translate(_REVERSED), "big") >> (8 * w - n)
    return ((r << 1) | (r >> (n - 1))) & ((1 << n) - 1)  # r: coefficient at i moved to n - 1 - i


def reciprocal(g: CyclicPoly) -> CyclicPoly:
    """Reciprocal polynomial: coefficient at i moves to n - i, index 0 fixed."""
    return CyclicPoly(g.n, _mirror(g.bits, g.n))


def is_symmetric(f: CyclicPoly) -> bool:
    """True iff f equals its reciprocal (coefficients satisfy a_i = a_{n-i})."""
    return f.bits == _mirror(f.bits, f.n)


def symmetric_vectors(n: int) -> Iterator[CyclicPoly]:
    """Every symmetric f of ring size n, once, ascending in f_0 .. f_{n//2}, which fix the rest."""
    sums = [0]
    for k in range(n // 2 + 1):  # sums[low] is the sum of the pairs at the bits k of low
        pair = 1 << k | 1 << (n - k) % n
        sums += [s | pair for s in sums]
    for s in sums:
        yield CyclicPoly(n, s)


def is_unit_mod_cyclic(f: CyclicPoly) -> bool:
    """True iff gcd(f, x^n - 1) = 1, i.e. f is invertible in the cyclic ring."""
    return f.bits != 0 and poly_gcd(f.bits, ring_modulus(f.n)) == 1
