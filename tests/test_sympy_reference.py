"""poly2's shared primitives against sympy's galoistools, an outside reference that shares no code.

The oracle and the production kernels both stand on poly2, so a fault there
could reach an audit and the code it audits alike.  Where sympy is not
installed, this module alone is skipped.
"""

import random

import pytest

from normbase.poly2 import (
    CyclicPoly,
    cyclic_inv,
    cyclic_mul,
    find_irreducible,
    poly_gcd,
    poly_mod,
    poly_mul,
    reciprocal,
)

galoistools = pytest.importorskip("sympy.polys.galoistools")
ZZ = pytest.importorskip("sympy.polys.domains").ZZ


def _gf(bits):
    """The polynomial bits as galoistools' list over GF(2), the leading coefficient first."""
    return galoistools.gf_strip([int(c) for c in f"{bits:b}"])


def _bits(coeffs):
    return int("".join(str(int(c)) for c in coeffs) or "0", 2)


def _mod(f, g):
    return galoistools.gf_rem(f, g, 2, ZZ)


def _mul(f, g):
    return galoistools.gf_mul(f, g, 2, ZZ)


@pytest.mark.parametrize("n", [163, 233, 283])
def test_find_irreducible_is_irreducible_by_sympy(n):
    f = find_irreducible(n)
    assert f.bit_length() == n + 1 and galoistools.gf_irreducible_p(_gf(f), 2, ZZ)


def _drawn(rng, bits):
    return rng.getrandbits(bits) | 1 << bits - 1


def test_products_remainders_and_gcds_are_sympys():
    # a 1,142-bit a and a 571-bit b, every other pair with a common factor of degree 99
    rng = random.Random(571)
    for k in range(10):
        common = _drawn(rng, 100) if k % 2 else 1
        a = poly_mul(common, _drawn(rng, 1143 - common.bit_length()))
        b = poly_mul(common, _drawn(rng, 572 - common.bit_length()))
        assert (a.bit_length(), b.bit_length()) == (1142, 571)
        assert poly_mul(a, b) == _bits(_mul(_gf(a), _gf(b)))
        assert poly_mod(a, b) == _bits(_mod(_gf(a), _gf(b)))
        assert poly_gcd(a, b) == _bits(galoistools.gf_gcd(_gf(a), _gf(b), 2, ZZ))
        assert poly_gcd(a, b).bit_length() > 99 or not k % 2


def test_cyclic_products_mirrors_and_inverses_at_571_are_sympys():
    n = 571
    ring = _gf(1 << n | 1)
    rng = random.Random(n)
    vectors = [CyclicPoly(n, rng.getrandbits(n)) for _ in range(4)]
    for f, g in zip(vectors, vectors[1:]):
        assert cyclic_mul(f, g).bits == _bits(_mod(_mul(_gf(f.bits), _gf(g.bits)), ring))
    units = []
    for f in vectors:
        # x^(n-1) f(1/x) is f's coefficients low first read leading first; times x, mod x^n - 1
        flipped = galoistools.gf_strip([int(c) for c in f"{f.bits:0{n}b}"[::-1]])
        assert reciprocal(f).bits == _bits(_mod(_mul(flipped, [1, 0]), ring))
        s, _, h = galoistools.gf_gcdex(_gf(f.bits), ring, 2, ZZ)  # s f + t (x^n - 1) = h
        units.append(h == [1])
        if units[-1]:
            assert cyclic_inv(f).bits == _bits(s)
        else:
            with pytest.raises(ZeroDivisionError):
                cyclic_inv(f)
    assert True in units and False in units
