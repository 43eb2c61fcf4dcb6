"""Seeded inputs for the benchmark workloads, with the answers they must get.

Everything here follows from the seed and from the benchmark's own
reference arithmetic (refcheck); nothing imports normbase.  Bit vectors
and polynomials are ints (bit i is the coefficient of x^i).  Each purpose
and degree draws from its own random stream, so the length of one stream
never shifts the draws of another.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import refcheck as rc

PRESCRIBE_DEGREES = (21, 32, 33, 64)  # the acceptance-roundtrip degrees
PRESCRIBE_BLOCK = 10  # requests per degree in a block; one of them unachievable
FIELDS_COLD_DEGREES = tuple(range(2, 65))
# With the default modulus x^63+x+1 the ascending find_normal scan tested more
# than 220k trace-one candidates in 126 s without finding a normal element, so
# that request never finishes.  The default at n=31 (x^31+x^3+1, seconds) stays.
DEFAULT_MODULUS_SKIPPED = (63,)

# (mode, degree, the JSON line normbase prints); the line does not depend on the modulus
AUDITS = (
    ("characterization", 13,
     '{"audit":"characterization","degree":13,"achievable":63,"predicted":63,"ok":true}'),
    ("characterization", 15,
     '{"audit":"characterization","degree":15,"achievable":45,"predicted":45,"ok":true}'),
    ("characterization", 16,
     '{"audit":"characterization","degree":16,"achievable":64,"predicted":64,"ok":true}'),
    ("necessary", 12,
     '{"audit":"necessary","degree":12,"normal_elements":1536,"violations":0,"ok":true}'),
    ("factorization", 16,
     '{"audit":"factorization","degree":16,"targets":64,"violations":0,"ok":true}'),
    ("selfdual", 12,
     '{"audit":"selfdual","max_degree":12,"rows":['
     + ",".join(f'{{"n":{n},"exists":{str(n % 4 != 0).lower()},'
                f'"expected":{str(n % 4 != 0).lower()}}}' for n in range(2, 13))
     + '],"ok":true}'),
)


def is_pow2(n: int) -> bool:
    return n & (n - 1) == 0


def pow2_odd_split(n: int) -> tuple[int, int]:
    s2 = n & -n
    return s2, n // s2


def bit(bits: int, i: int) -> int:
    return (bits >> i) & 1


def is_symmetric(bits: int, n: int) -> bool:
    return all(bit(bits, i) == bit(bits, (n - i) % n) for i in range(n))


def achievable(n: int, bits: int) -> bool:
    """The characterization of vectors of normal elements, n a power of two or odd."""
    if n <= 2:
        return bits == 1
    if is_pow2(n):
        odd_half = sum(bit(bits, i) for i in range(1, n // 2, 2)) & 1
        return (bit(bits, 0) == 1 and bit(bits, n // 2) == 0
                and is_symmetric(bits, n) and odd_half == 1)
    if n % 2:
        return is_symmetric(bits, n) and rc.is_unit_mod_cyclic(bits, n)
    raise ValueError(f"no characterization for n = {n}")


def _symmetric(n: int, rng: random.Random) -> int:
    bits = 0
    for k in range(n // 2 + 1):
        if rng.getrandbits(1):
            bits |= (1 << k) | (1 << ((n - k) % n))
    return bits


def achievable_vector(n: int, rng: random.Random) -> int:
    while True:
        bits = _symmetric(n, rng)
        if n >= 4 and is_pow2(n):
            # a_0 = 1, a_{n/2} = 0, and the pair (1, n-1) fixes the odd half-sum
            bits = (bits | 1) & ~(1 << (n // 2))
            if not sum(bit(bits, i) for i in range(1, n // 2, 2)) & 1:
                bits ^= (1 << 1) | (1 << (n - 1))
        if achievable(n, bits):
            return bits


def unachievable_vector(n: int, rng: random.Random) -> int:
    """Half symmetric (breaking a characterization condition), half arbitrary."""
    while True:
        bits = _symmetric(n, rng) if rng.getrandbits(1) else rng.getrandbits(n)
        if not achievable(n, bits):
            return bits


def vector_text(bits: int, n: int) -> str:
    return ",".join(str(bit(bits, i)) for i in range(n))


def count_irreducible(n: int) -> int:
    """Number of irreducible polynomials of degree n: (1/n) sum mu(d) 2^(n/d)."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _mobius(d) << (n // d)
    return total // n


def _mobius(d: int) -> int:
    sign = 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if d > 1 else sign


def random_irreducible(n: int, rng: random.Random) -> int:
    while True:
        f = (1 << n) | (rng.getrandbits(n - 1) << 1) | 1
        if rc.is_irreducible(f):
            return f


class ModulusPool:
    """Distinct seeded irreducible moduli of degree n, never the default one."""

    def __init__(self, n: int, rng: random.Random, default: int):
        self.n = n
        self.rng = rng
        self.seen = {default}
        self.left = count_irreducible(n) - 1

    def draw(self) -> int | None:
        if self.left <= 0:
            return None
        while True:
            f = random_irreducible(self.n, self.rng)
            if f not in self.seen:
                self.seen.add(f)
                self.left -= 1
                return f


@dataclass(frozen=True)
class PrescribeRequest:
    n: int
    vector: int
    achievable: bool


@dataclass(frozen=True)
class CliRequest:
    argv: tuple[str, ...]
    n: int
    modulus: int       # the field the answer must lie in
    vector: int        # the corresponding vector the answer must have
    construction: str  # the construction name the JSON record must carry


@dataclass(frozen=True)
class AuditRequest:
    argv: tuple[str, ...]
    expected: str      # the exact JSON line
    field_elems: int   # field elements the audit decides over (2^n - 1 per field)


def prescribe_warm(seed: int, blocks: int) -> list[list[PrescribeRequest]]:
    """Blocks of PRESCRIBE_BLOCK requests per degree, one unachievable, shuffled."""
    rng = random.Random(f"{seed}/prescribe-warm")
    out = []
    for _ in range(blocks):
        block = []
        for n in PRESCRIBE_DEGREES:
            bad = rng.randrange(PRESCRIBE_BLOCK)
            for i in range(PRESCRIBE_BLOCK):
                if i == bad:
                    block.append(PrescribeRequest(n, unachievable_vector(n, rng), False))
                else:
                    block.append(PrescribeRequest(n, achievable_vector(n, rng), True))
        rng.shuffle(block)
        out.append(block)
    return out


def _command(n: int, round_index: int) -> str:
    if n >= 4 and is_pow2(n):
        return "weight3" if round_index % 2 else "prescribe"
    if n % 2:
        return "prescribe"
    return "weight3" if n % 4 == 0 else "compose"


def _cli_request(n: int, modulus: int, default: bool, command: str,
                 rng: random.Random) -> CliRequest:
    argv = ["--json", command, "--degree", str(n)]
    if not default:
        argv += ["--modulus", f"0x{modulus:X}"]
    s2, m = pow2_odd_split(n)
    if command == "prescribe":
        vector = achievable_vector(n, rng)
        argv += ["--vector", vector_text(vector, n)]
    elif command == "weight3":
        i0 = rng.randrange(1, s2, 2)
        argv += ["--i0", str(i0)]
        j0 = i0 * pow(m, -1, s2) % s2
        vector = (1 << 0) | (1 << (j0 * m)) | (1 << (n - j0 * m))
    else:  # compose, n = 2 (mod 4): the 2-power part is the forced GF(4) vector (1,0)
        odd = achievable_vector(m, rng)
        argv += ["--vector-pow2", "1,0", "--vector-odd", vector_text(odd, m)]
        vector = sum(bit(odd, k % m) << k for k in range(0, n, 2))
    return CliRequest(tuple(argv), n, modulus, vector, command)


def fields_cold(seed: int, rounds: int) -> list[list[CliRequest]]:
    """Round 0 asks once per degree with the default modulus; later rounds use
    fresh seeded moduli, one per degree while that degree has unused ones."""
    rng = random.Random(f"{seed}/fields-cold")
    defaults = {n: rc.smallest_irreducible(n) for n in FIELDS_COLD_DEGREES}
    pools = {n: ModulusPool(n, random.Random(f"{seed}/moduli/{n}"), defaults[n])
             for n in FIELDS_COLD_DEGREES}
    first = [_cli_request(n, defaults[n], True, _command(n, 0), rng)
             for n in FIELDS_COLD_DEGREES if n not in DEFAULT_MODULUS_SKIPPED]
    rng.shuffle(first)
    out = [first]
    for r in range(1, rounds):
        batch = []
        for n in FIELDS_COLD_DEGREES:
            f = pools[n].draw()
            if f is not None:
                batch.append(_cli_request(n, f, False, _command(n, r), rng))
        rng.shuffle(batch)
        out.append(batch)
    return out


def audit_exhaustive(seed: int, cycles: int) -> list[list[AuditRequest]]:
    """Cycles of the six audits in seeded order, each field on a seeded modulus."""
    rng = random.Random(f"{seed}/audit-exhaustive")
    out = []
    for _ in range(cycles):
        cycle = []
        for mode, n, expected in AUDITS:
            argv = ["--json", "audit", "--degree", str(n), "--mode", mode]
            if mode == "selfdual":
                elems = sum((1 << k) - 1 for k in range(2, n + 1))
            else:
                argv += ["--modulus", f"0x{random_irreducible(n, rng):X}"]
                elems = 0 if mode == "factorization" else (1 << n) - 1
            cycle.append(AuditRequest(tuple(argv), expected, elems))
        rng.shuffle(cycle)
        out.append(cycle)
    return out
