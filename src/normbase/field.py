"""Arithmetic in GF(2^n) = GF(2)[x]/(modulus) in polynomial-basis coordinates.

A field element is a plain int: bit i is the coordinate of g^i where g is
a root of the defining modulus.  Every n-bit pattern is an element.  The
immutable FieldSpec context is passed explicitly to every operation, so
elements stay compact and specs can be shared freely across threads.

Squaring and the trace form are GF(2)-linear (Lidl & Niederreiter, Finite
Fields, ch. 2), so a spec keeps their byte tables, freed with it.  The
squaring map (images g^(2j), by shifting and reducing) is built with the
spec, which certifies its modulus by Rabin's test on it (_is_certified).
Everything built later lives in the spec's one store, the dict spec._held,
through poly2._rented.  The trace form is built on its first read
(_trace_form, no fork, so price 0): the traces
p_m = Tr(g^m), m < 2n - 1, the power sums of the modulus's roots, are the
coefficients of z F'(z)/F(z) for the reversed modulus F; the trace mask is
their low n bits, and the Gram matrix of (x, y) -> Tr(xy) has row j, bit k
Tr(g^(j+k)).  It is a Hankel matrix, row j the sequence shifted down by j,
so one 256-entry table T serves every byte of an element: T[b] sums the
rows j over the bits j of b, and byte p of a contributes T[byte] >> 8p
(_form).  So a vector's bits a_i = Tr(alpha * alpha^(2^i)) are the parities
of alpha^(2^i) & w_alpha, and a spec reads them by a loop of table squarings
until that has cost about one build of a multi-step Frobenius table, then by
the table (_half_vector).  That switch is the package's one rent-or-buy rule,
poly2._rented, at the price poly2._PRICES["frobenius"]; the rule also buys a
kept base of the construct module the table of its map a -> lift, at
_PRICES["lift"].  Public functions validate their elements; the inner loops
apply the tables directly.

Element text formats: LSB-first hex of the coordinates ("0x2B") or a power
sum "pow:1,126" meaning g^1 + g^126.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly2 import (
    DegreeBoundError,
    _byte_tables,
    _linear,
    _picked_sum,
    _pow_mod,
    _prime_divisors,
    _rented,
    find_irreducible,
    parse_poly,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_to_text,
)

MAX_DEGREE = 64  # desk-scale bound; exhaustive oracles restrict further
_STEPS = 8  # M, the conjugates one lookup round of a Frobenius table reads
_PARITY = bytes(b.bit_count() & 1 for b in range(256))  # translate: byte -> its parity


def _check_degree(n: int):
    if not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"extension degree must be in [1, {MAX_DEGREE}], got {n}")


@dataclass(frozen=True)
class FieldSpec:
    """GF(2^n) defined by a degree-n modulus that Rabin's test certifies irreducible."""

    n: int
    modulus: int

    def __post_init__(self):
        _check_degree(self.n)
        d = self.modulus.bit_length() - 1  # -1 for the zero polynomial; ignores the sign
        if self.modulus < 0:  # above MAX_DEGREE by its hex digits, as below
            shown = f"-{elem_to_hex(-self.modulus)}" if d > MAX_DEGREE else self.modulus
            raise ValueError(f"modulus must be a nonnegative int, got {shown}")
        if d != self.n:  # above MAX_DEGREE by its hex digits: a term list grows with the degree
            shown = elem_to_hex(self.modulus) if d > MAX_DEGREE else poly_to_text(self.modulus)
            raise ValueError(f"modulus {shown} does not have degree {self.n}")
        images, x = [], 1
        for _ in range(self.n):
            images.append(x)
            x = poly_mod(x << 2, self.modulus)
        object.__setattr__(self, "_square", _byte_tables(images))
        object.__setattr__(self, "_held", {})  # the values built later, by key (_rented)
        if not _is_certified(self):
            raise ValueError(f"modulus {poly_to_text(self.modulus)} is reducible")

    @classmethod
    def from_degree(cls, n: int) -> "FieldSpec":
        """Field with the smallest-encoding irreducible modulus (deterministic)."""
        _check_degree(n)  # before the modulus search, whose cost grows with n
        return cls(n, find_irreducible(n))

    @classmethod
    def parse(cls, n: int, text: str) -> "FieldSpec":
        """Field with the modulus given as text (see poly2.parse_poly).

        A term above MAX_DEGREE is rejected before the polynomial is built.
        """
        try:
            modulus = parse_poly(text, MAX_DEGREE)
        except DegreeBoundError as e:  # FieldSpec(n, ...) would reject it too, after checking n
            _check_degree(n)
            raise ValueError(f"modulus {e.text} does not have degree {n}") from None
        return cls(n, modulus)

    @property
    def order(self) -> int:
        return 1 << self.n

    @property
    def generator(self) -> int:
        """The element x mod modulus (the adjoined root g)."""
        return poly_mod(2, self.modulus)


def _is_certified(spec: FieldSpec) -> bool:
    """Rabin's test: f of degree n is irreducible iff x^(2^n) = x mod f and gcd(x^(2^(n/p)) - x,
    f) = 1 for each prime p | n (Rabin 1980; Gao & Panario 1997).  The modulus search keeps
    poly2's Ben-Or test instead, as its early exit on small factors suits candidates."""
    n, x = spec.n, spec.generator
    h = _conjugates(spec, x, n + 1)
    return h[n] == x and all(poly_gcd(h[n // p] ^ x, spec.modulus) == 1 for p in _prime_divisors(n))


def _half_vector(spec: FieldSpec, alpha: int) -> int:
    """The bits a_0 .. a_{n//2} of alpha's vector, a_i the parity of alpha^(2^i) & w_alpha.

    A loop of n // 2 table squarings reads the vector until the spec has
    served poly2._PRICES["frobenius"] of them, and the spec's Frobenius table
    from then on (_rented).  On a 2-core Xeon with Python 3.11 (best of 9,
    three processes), the fill of 256 entries per input byte included, a build
    cost 18-22 loop reads at n = 13 .. 64 (0.14-0.17 ms at n = 21, 0.87-0.89
    ms at n = 64), and 4-16 at n <= 8.  A table read took 3.2 us against
    the loop's 3.2 at n = 8, 3.7 against 4.8 at n = 13, 4.9 against 7.9 at
    n = 21 and 14 against 46 at n = 64, so a table built at n <= 21 pays
    back after 50-80 more reads or never; the rule bounds that loss by one
    build.

    A lookup round of the table gives M = _STEPS conjugates as blocks of
    P = 8 ceil(n/8) bits, ORed into one int next to the rounds before; block
    M is the next round's input.  That int is ANDed with w repeated per
    block, a byte-parity translate and one multiply sum each block's bytes
    into its last byte, and one int(..., 2) reads the low bits of those sums.
    """
    n = spec.n
    w = _form(_trace_form(spec)[1], alpha, n)  # w_k = Tr(alpha * g^k)
    held = _rented(spec._held, "frobenius", "frobenius", _frobenius_tables, spec)
    if held is None:
        square, conj = spec._square, alpha
        bits = (alpha & w).bit_count() & 1
        for i in range(1, n // 2 + 1):
            conj = _linear(square, conj)
            bits |= ((conj & w).bit_count() & 1) << i
        return bits
    tables, rep, spread = held
    lanes, half = (n + 7) // 8, n // 2 + 1
    step = _STEPS * 8 * lanes
    packed, conj = 0, alpha
    for shift in range(0, -(-half // _STEPS) * step, step):
        image = _linear(tables, conj)
        packed |= image << shift  # its top block is the next round's block 0, so OR keeps it
        conj = image >> step
    size = half * lanes
    parities = int.from_bytes((packed & w * rep).to_bytes(size, "little").translate(_PARITY),
                              "little")
    sums = (parities * spread).to_bytes(size + lanes, "little")[lanes - 1::lanes]
    return int(sums.translate(b"01" * 128)[::-1], 2)  # a sum's low bit is its block's parity


def _frobenius_tables(spec: FieldSpec) -> tuple:
    """(tables, rep, spread) for _half_vector.

    The byte tables send x to the sum of x^(2^k) << kP, k = 0 .. _STEPS, with
    P = 8 ceil(n/8); rep repeats w over the n // 2 + 1 blocks a vector needs,
    and spread sums the bytes of a block.
    """
    n = spec.n
    lanes = (n + 7) // 8
    stride = 8 * lanes
    images = [sum(c << k * stride for k, c in enumerate(_conjugates(spec, 1 << j, _STEPS + 1)))
              for j in range(n)]
    return (_byte_tables(images), sum(1 << k * stride for k in range(n // 2 + 1)),
            sum(1 << 8 * j for j in range(lanes)))


def _form(table: list[int], a: int, n: int) -> int:
    """w_a by the Gram table of _trace_form, so Tr(a*c) = parity(c & w_a): byte p of a adds
    table[byte] >> 8p."""
    w, s = 0, 0
    while a:
        w ^= table[a & 0xFF] >> s
        a >>= 8
        s += 8
    return w & ((1 << n) - 1)


def _trace_form(spec: FieldSpec) -> tuple[int, list[int]]:
    """The trace mask and the Gram table, built on the first read and kept by the spec."""
    return _rented(spec._held, "trace", None, _trace_sequence, spec)


def _trace_sequence(spec: FieldSpec) -> tuple[int, list[int]]:
    # bit m of seq is p_m = Tr(g^m), m >= 1 the coefficient of z^m in z F'(z)/F(z),
    # F(z) = z^n modulus(1/z) with constant term 1; z F'(z) is F's odd-degree terms
    n = spec.n
    reverse = int(f"{spec.modulus:0{n + 1}b}"[::-1], 2)
    rest = reverse & int("10" * (n // 2 + 1), 2)
    seq = n & 1  # p_0 = Tr(1)
    for m in range(1, 2 * n - 1):  # long division by F, one quotient bit per step
        if rest >> m & 1:
            seq |= 1 << m
            rest ^= reverse << m
    return seq & ((1 << n) - 1), _byte_tables([seq >> j for j in range(8)])[0]  # the Gram table


def _check_elem(spec: FieldSpec, a: int):
    if not 0 <= a < (1 << spec.n):
        raise ValueError(f"{a:#x} is not an element of GF(2^{spec.n})")


def _check_divisor(spec: FieldSpec, t: int):
    if t < 1 or spec.n % t:
        raise ValueError(f"{t} does not divide the extension degree {spec.n}")


def elem_mul(spec: FieldSpec, a: int, b: int) -> int:
    _check_elem(spec, a)
    _check_elem(spec, b)
    return poly_mod(poly_mul(a, b), spec.modulus)


def elem_pow(spec: FieldSpec, a: int, e: int) -> int:
    """a^e for e >= 0; for nonzero a, e is reduced mod 2^n - 1.  poly2._pow_mod squares by the
    spec's tables, and each multiply is by a itself: for parse_elem's g = x, a shift and one
    reduction step."""
    _check_elem(spec, a)
    if e < 0:
        raise ValueError("negative exponent")
    if a == 0:
        return 1 if e == 0 else 0
    return _pow_mod(a, e % ((1 << spec.n) - 1), spec.modulus, spec._square)


def frobenius(spec: FieldSpec, a: int, k: int) -> int:
    """a^(2^k); k is reduced mod n, so frobenius(a, n) = a.

    The square of a is frobenius(spec, a, 1); a lies in GF(2^t) iff frobenius(spec, a, t) == a.
    """
    _check_elem(spec, a)
    return _conjugates(spec, a, k % spec.n + 1)[-1]


def _conjugates(spec: FieldSpec, a: int, count: int) -> list[int]:
    """The first count >= 1 of a, a^2, a^4, ..."""
    square = spec._square
    out = [a]
    for _ in range(count - 1):
        a = _linear(square, a)
        out.append(a)
    return out


def rel_trace(spec: FieldSpec, a: int, t: int) -> int:
    """Relative trace onto the GF(2^t) subfield: sum of a^(2^(t*i)), i < n/t."""
    _check_elem(spec, a)
    _check_divisor(spec, t)
    return _picked_sum(_conjugates(spec, a, spec.n - t + 1)[::t], (1 << spec.n // t) - 1)


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
