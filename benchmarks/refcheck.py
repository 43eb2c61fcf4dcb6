"""Reference arithmetic for checking benchmark results, independent of normbase.

Polynomials over GF(2) and elements of GF(2^n) are plain ints (bit i is the
coefficient of x^i), the encoding normbase uses, but nothing here imports
normbase: products are carry-less multiplies reduced by the modulus, the
trace is a sum of conjugates, and normality is the rank of the conjugate
matrix.  A faster or broken field kernel in normbase therefore cannot make
a wrong element pass.
"""

from __future__ import annotations

# SPREAD[b] interleaves the bits of byte b with zeros: the square of b over GF(2)
SPREAD = [sum(((b >> i) & 1) << (2 * i) for i in range(8)) for b in range(256)]


def poly_mod(a: int, b: int) -> int:
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
    return a


def poly_square(a: int) -> int:
    out = 0
    shift = 0
    while a:
        out |= SPREAD[a & 255] << shift
        a >>= 8
        shift += 16
    return out


def is_irreducible(f: int) -> bool:
    """Ben-Or's test: f of degree n has no factor of degree <= n/2."""
    n = f.bit_length() - 1
    if n < 1:
        return False
    h = 2  # the polynomial x
    for _ in range(n // 2):
        h = poly_mod(poly_square(h), f)
        if poly_gcd(f, h ^ 2) != 1:
            return False
    return True


def smallest_irreducible(n: int) -> int:
    """The irreducible polynomial of degree n with the smallest encoding."""
    return next(f for f in range(1 << n, 1 << (n + 1)) if is_irreducible(f))


def is_unit_mod_cyclic(bits: int, n: int) -> bool:
    """True iff the polynomial is coprime to x^n - 1."""
    return bits != 0 and poly_gcd((1 << n) | 1, bits) == 1


def _windows(a: int) -> list[int]:
    """The carry-less products of a with every 4-bit polynomial."""
    out = [0] * 16
    for i in range(1, 16):
        out[i] = (out[i >> 1] << 1) ^ (a if i & 1 else 0)
    return out


def rank(rows) -> int:
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            lead = r.bit_length() - 1
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = r
                break
            r ^= p
    return len(pivots)


class RefField:
    """GF(2^n) = GF(2)[x]/(modulus), checked irreducible on construction."""

    def __init__(self, n: int, modulus: int):
        if modulus.bit_length() - 1 != n or not is_irreducible(modulus):
            raise ValueError(f"{modulus:#x} is not an irreducible polynomial of degree {n}")
        self.n = n
        self.modulus = modulus
        # _reduce_tables[j][b] = (b * x^(n + 8j)) mod modulus, to reduce a byte at a time
        high = []
        v = modulus ^ (1 << n)
        for _ in range(n - 1):
            high.append(v)
            v <<= 1
            if v >> n:
                v ^= modulus
        self._reduce_tables = []
        for j in range(0, n - 1, 8):
            table = [0] * 256
            for b in range(1, 256):
                low = (b & -b).bit_length() - 1
                table[b] = table[b & (b - 1)] ^ (high[j + low] if j + low < n - 1 else 0)
            self._reduce_tables.append(table)
        # bit i set iff Tr(x^i) = 1, the trace taken as the sum of the n conjugates
        self.trace_mask = 0
        for i in range(n):
            acc = 0
            conj = 1 << i
            for _ in range(n):
                acc ^= conj
                conj = self.square(conj)
            if acc not in (0, 1) or conj != 1 << i:
                raise ValueError(f"trace of x^{i} does not lie in GF(2)")
            self.trace_mask |= acc << i

    def reduce(self, v: int) -> int:
        n = self.n
        hi = v >> n
        v &= (1 << n) - 1
        for table in self._reduce_tables:
            v ^= table[hi & 255]
            hi >>= 8
        return v

    def square(self, a: int) -> int:
        return self.reduce(poly_square(a))

    def _mul_windows(self, windows: list[int], b: int) -> int:
        acc = 0
        shift = 0
        while b:
            acc ^= windows[b & 15] << shift
            b >>= 4
            shift += 4
        return self.reduce(acc)

    def trace(self, a: int) -> int:
        return (a & self.trace_mask).bit_count() & 1

    def conjugates(self, a: int) -> list[int]:
        rows = []
        for _ in range(self.n):
            rows.append(a)
            a = self.square(a)
        return rows

    def vector(self, a: int, conjugates: list[int] | None = None) -> int:
        """Bits of the corresponding vector: bit i is Tr(a * a^(2^i))."""
        windows = _windows(a)
        bits = 0
        for i, conj in enumerate(conjugates or self.conjugates(a)):
            bits |= self.trace(self._mul_windows(windows, conj)) << i
        return bits

    def is_normal(self, a: int) -> bool:
        return rank(self.conjugates(a)) == self.n

    def check(self, element: int, vector_bits: int) -> bool:
        """True iff element is a normal element of this field with that vector."""
        if not 0 <= element < (1 << self.n):
            return False
        rows = self.conjugates(element)
        return self.vector(element, rows) == vector_bits and rank(rows) == self.n
