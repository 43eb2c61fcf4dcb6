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
is_unit_mod_cyclic tests a ring size by Euclid, then by evaluation at the
roots of unity through byte tables (_byte_tables), bought by the
package's one rent-or-buy rule (_rented); its per-size counts and tables
are the module's one state.  The rule reads every fork's price from the one
table _PRICES, and each site names its fork there.  The other modules take
_byte_tables, _linear, _picked_sum and _rented from here; _rented with no
fork (None, price 0) is also their one lazy value.

Text formats: "x^16+x^5+x^3+x^2+1" (terms in any order, duplicates
rejected) or LSB-first hex "0x1002D".  Bit vectors render as "1,0,1,...".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

# the uses a fork's loop serves before its tables are built (_rented): a spec's vector reads
# (field._half_vector), a kept base's prescriptions (construct._kept_base), a ring size's
# gcd tests (is_unit_mod_cyclic)
_PRICES = {"frobenius": 20, "lift": 20, "units": 256}
_UNIT_RINGS = 128  # the ring sizes _units holds at most (is_unit_mod_cyclic)
_units: dict[int, int | tuple] = {}  # ring size -> its gcd tests so far, then its tables


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


def _byte_tables(images: list[int]) -> list[list[int]]:
    """Tables of the GF(2)-linear map that sends bit j to images[j], one per input byte."""
    tables = []
    for start in range(0, len(images), 8):
        table = [0]
        for image in images[start:start + 8]:
            table += [t ^ image for t in table]
        tables.append(table)
    return tables


def _linear(tables: list[list[int]], a: int) -> int:
    """Apply the linear map given by _byte_tables to a."""
    out = 0
    for table in tables:
        out ^= table[a & 0xFF]
        a >>= 8
    return out


def _picked_sum(values: list[int], mask: int) -> int:
    """Sum of values[i] over the set bits i of mask."""
    acc = 0
    while mask:
        low = mask & -mask
        acc ^= values[low.bit_length() - 1]
        mask ^= low
    return acc


def _rented(store: dict, key, fork: str | None, build, *args):
    """Rent or buy: None for the first _PRICES[fork] calls, counted in store[key], then
    build(*args), made once and held in store[key]; the value built is never an int.

    For a loop that tables can replace: the caller runs its loop on None and
    reads the tables otherwise, so it pays for tables only once its loop has
    cost about as much as building them, and each fork prices a build in its
    own loop uses, named in the one table _PRICES and read while the count
    runs.  Fork None is price 0, a lazy value built on the first read.
    Threads that race here lose counts or build the same value twice; either
    way the result is the same.
    """
    held = store.get(key, 0)
    if type(held) is int:
        if fork is not None and held < _PRICES[fork]:
            store[key] = held + 1
            return None
        held = store[key] = build(*args)
    return held


def _eliminate(basis: Sequence[int], r: int, ones: int = 1, fill: int = -1) -> int:
    """Reduce the GF(2) row r by the pivots of basis, top column first, in every lane at once.

    Lanes are fixed-width fields of one int, one matrix's row in each: ones
    holds bit 0 of every lane and fill a lane of ones.  basis[k] holds, in
    each lane, a row led by bit k, or 0, and is XORed into each lane of r
    that has bit k set.  The defaults are one unbounded lane.
    """
    for k in range(len(basis) - 1, -1, -1):
        if b := basis[k]:  # an empty column reduces nothing
            hit = r >> k & b >> k & ones
            r ^= b & hit * fill
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


def _prime_divisors(n: int) -> list[int]:
    """The primes that divide n, ascending, by trial division."""
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


@lru_cache(maxsize=64)  # keyed on the degree; every degree up to field.MAX_DEGREE
def find_irreducible(n: int) -> int:
    """Smallest (by integer encoding) irreducible polynomial of degree n.

    The search runs once per degree per process; a FieldSpec built on the
    result still certifies it by Rabin's test.  An error is raised, not held.
    """
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


def _pow_mod(a: int, e: int, f: int, square: list[list[int]] | None = None) -> int:
    """a^e mod f, left to right: square, then multiply by a on a 1 bit.  square, if given,
    holds the byte tables of r -> r^2 mod f (_byte_tables), which square without a reduction."""
    r = 1
    for bit in f"{e:b}":
        r = _linear(square, r) if square else poly_mod(poly_mul(r, r), f)
        if bit == "1":
            r = poly_mod(poly_mul(r, a), f)
    return r


def _unit_tables(n: int) -> tuple[list[list[int]], int, int]:
    """(tables, L, H) of the evaluation f -> (f(zeta^r)) over one r per coset of 2 mod m, for
    n = 2^s * m, m > 1 odd: field c of the image holds f(zeta^(r_c)) in k = ord_m(2) bits, L
    the low k - 1 bits of each field and H its top bit."""
    m = n // (n & -n)
    k, p = 1, 2
    while p != 1:
        k, p = k + 1, 2 * p % m
    modulus = find_irreducible(k)
    primes = _prime_divisors(m)
    for c in range(2, 1 << k):  # zeta = c^((2^k - 1)/m) has order m unless some zeta^(m/p) = 1
        zeta = _pow_mod(c, ((1 << k) - 1) // m, modulus)
        if all(_pow_mod(zeta, m // p, modulus) != 1 for p in primes):
            break
    powers = [1]
    for _ in range(m - 1):
        powers.append(poly_mod(poly_mul(powers[-1], zeta), modulus))
    reps, seen = [], set()
    for r in range(m):
        if r not in seen:
            reps.append(r)
            while r not in seen:
                seen.add(r)
                r = 2 * r % m
    images = [sum(powers[r * i % m] << c * k for c, r in enumerate(reps)) for i in range(n)]
    ones = sum(1 << c * k for c in range(len(reps)))
    return _byte_tables(images), ones * ((1 << k - 1) - 1), ones << k - 1


def is_unit_mod_cyclic(f: CyclicPoly) -> bool:
    """True iff gcd(f, x^n - 1) = 1, i.e. f is invertible in the cyclic ring.

    With n = 2^s * m, m odd, x^n - 1 = (x^m - 1)^(2^s) has the roots of
    x^m - 1 alone, the m-th roots of unity zeta^r for zeta of order m in
    GF(2^k), k = ord_m(2).  So f is a unit exactly when no f(zeta^r) is 0
    (Lidl & Niederreiter, Finite Fields, ch. 2-3), and f(zeta^(2r)) =
    f(zeta^r)^2 leaves one r per cyclotomic coset of 2 mod m.  At m = 1 that
    is f(1), the parity of f's weight.  Otherwise the evaluation is
    GF(2)-linear, bit i going to zeta^(r i), so byte tables give every value
    at once, k bits per coset (_unit_tables), and one add tests every field
    nonzero: (x & L) + L carries into a field's top bit when its low bits
    are not all 0.

    A ring size runs Euclid for its first _PRICES["units"] tests, counted
    in _units, and buys its tables then (_rented).  On a 2-core Xeon with
    Python 3.11 (best of 7 over 300 seeded vectors, two processes), a test
    took 0.5 us by the tables against 2.2-3.4 us by Euclid at n = 21 and
    1.0-1.7 against 6.6-9.5 at 63.  A build, the search for the modulus of
    GF(2^k) included, cost as much as 15-90 Euclid tests at most n <= 64
    (0.08-0.09 ms at 21, 0.26-0.42 ms at 63), 130-230 at n = 37, 53 and 61,
    and 300-380 at 59 (k = 58, 2.9-3.8 ms), and it holds 256 ceil(n/8)
    ints.  So 256 tests cover the build's time at every n <= 64 but 59, and
    a process that tests a ring size up to about two hundred times, as a
    stream of CLI requests on fresh fields of every degree does, holds no
    tables it would barely use.  _units holds at most _UNIT_RINGS ring
    sizes, every size up to field.MAX_DEGREE among them, and is emptied
    when one more would pass that.
    """
    n, bits = f.n, f.bits
    if n & (n - 1) == 0:
        return bits.bit_count() & 1 == 1
    if n not in _units and len(_units) >= _UNIT_RINGS:
        _units.clear()
    held = _rented(_units, n, "units", _unit_tables, n)
    if held is None:
        return bits != 0 and poly_gcd(bits, ring_modulus(n)) == 1
    tables, low, high = held
    x = _linear(tables, bits)
    return ((x & low) + low | x) & high == high
