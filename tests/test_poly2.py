"""GF(2)[x] and cyclic-ring arithmetic."""

import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normbase import poly2
from normbase.construct import compose
from normbase.field import MAX_DEGREE, FieldSpec, parse_elem
from normbase.poly2 import (
    CyclicPoly,
    DegreeBoundError,
    _mirror,
    cyclic_inv,
    cyclic_mul,
    find_irreducible,
    is_irreducible,
    is_symmetric,
    is_unit_mod_cyclic,
    parse_poly,
    parse_vector,
    poly_mod,
    poly_gcd,
    poly_mul,
    poly_to_text,
    reciprocal,
    ring_modulus,
    symmetric_vectors,
)

from prices import NEVER, at_price

polys = st.integers(min_value=0, max_value=(1 << 24) - 1)


@st.composite
def cyclic_polys(draw, min_n=1, max_n=20):
    n = draw(st.integers(min_n, max_n))
    return CyclicPoly(n, draw(st.integers(0, (1 << n) - 1)))


@st.composite
def cyclic_pairs(draw, min_n=1, max_n=20):
    n = draw(st.integers(min_n, max_n))
    bits = st.integers(0, (1 << n) - 1)
    return CyclicPoly(n, draw(bits)), CyclicPoly(n, draw(bits))


def _symmetric(n, half_bits, a0, mid=0):
    # build a symmetric length-n vector from its free lower half
    bits = a0
    for i in range(1, (n + 1) // 2):
        if (half_bits >> i) & 1:
            bits |= (1 << i) | (1 << (n - i))
    if n % 2 == 0 and mid:
        bits |= 1 << (n // 2)
    return CyclicPoly(n, bits)


@st.composite
def symmetric_polys(draw, min_n=2, max_n=20):
    n = draw(st.integers(min_n, max_n))
    return _symmetric(n, draw(st.integers(0, (1 << ((n + 1) // 2)) - 1)),
                      draw(st.integers(0, 1)), draw(st.integers(0, 1)))


# ---- base ring ----

def test_square_of_x_plus_1():
    assert poly_mul(0b11, 0b11) == 0b101  # (x+1)^2 = x^2+1


def test_mod_by_zero():
    with pytest.raises(ZeroDivisionError):
        poly_mod(1, 0)


@given(polys, polys, polys)
def test_mod_identity(q, b, r):
    # q*b + r with deg r < deg b reduces to r
    if b == 0:
        return
    r &= (1 << (b.bit_length() - 1)) - 1
    assert poly_mod(poly_mul(q, b) ^ r, b) == r


def test_gcd_with_zero():
    assert poly_gcd(0b1011, 0) == 0b1011
    with pytest.raises(ValueError):
        poly_gcd(0, 0)


def test_gcd_example_degree_five():
    # gcd(1+x+x^4, x^5-1) = 1, by hand-run Euclid:
    #   x^5+1 mod x^4+x+1 = x^2+x+1; x^4+x+1 mod x^2+x+1 = 1
    assert poly_gcd(0b10011, ring_modulus(5)) == 1


# ---- irreducibility ----

def _divisible(a, b):
    return poly_mod(a, b) == 0

def _is_irreducible_brute(f):
    d = f.bit_length() - 1
    if d < 1:
        return False
    return not any(_divisible(f, g) for g in range(2, 1 << (d // 2 + 1)))


def test_irreducible_examples():
    assert is_irreducible(0b111)          # x^2+x+1
    assert not is_irreducible(0b101)      # x^2+1 = (x+1)^2
    assert is_irreducible(0x1002D)        # x^16+x^5+x^3+x^2+1
    assert not is_irreducible(1)
    assert not is_irreducible(0)


def test_irreducible_matches_bruteforce_exhaustively():
    for f in range(1 << 12):
        assert is_irreducible(f) == _is_irreducible_brute(f), poly_to_text(f)


@pytest.mark.parametrize("n", range(1, 11))
def test_find_irreducible_is_smallest(n):
    f = find_irreducible(n)
    assert f.bit_length() - 1 == n and is_irreducible(f)
    assert f == min(g for g in range(1 << n, 1 << (n + 1)) if _is_irreducible_brute(g))


# the default modulus of every supported degree; golden outputs depend on this choice
PINNED_MODULI = {
    1: 0x2, 2: 0x7, 3: 0xB, 4: 0x13,
    5: 0x25, 6: 0x43, 7: 0x83, 8: 0x11B,
    9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009,
    13: 0x201B, 14: 0x4021, 15: 0x8003, 16: 0x1002B,
    17: 0x20009, 18: 0x40009, 19: 0x80027, 20: 0x100009,
    21: 0x200005, 22: 0x400003, 23: 0x800021, 24: 0x100001B,
    25: 0x2000009, 26: 0x400001B, 27: 0x8000027, 28: 0x10000003,
    29: 0x20000005, 30: 0x40000003, 31: 0x80000009, 32: 0x10000008D,
    33: 0x20000004B, 34: 0x40000001B, 35: 0x800000005, 36: 0x1000000035,
    37: 0x200000003F, 38: 0x4000000063, 39: 0x8000000011, 40: 0x10000000039,
    41: 0x20000000009, 42: 0x40000000027, 43: 0x80000000059, 44: 0x100000000021,
    45: 0x20000000001B, 46: 0x400000000003, 47: 0x800000000021, 48: 0x100000000002D,
    49: 0x2000000000071, 50: 0x400000000001D, 51: 0x800000000004B, 52: 0x10000000000009,
    53: 0x20000000000047, 54: 0x4000000000007D, 55: 0x80000000000047, 56: 0x100000000000095,
    57: 0x200000000000011, 58: 0x400000000000063, 59: 0x80000000000007B, 60: 0x1000000000000003,
    61: 0x2000000000000027, 62: 0x4000000000000069, 63: 0x8000000000000003, 64: 0x1000000000000001B,
}


def test_find_irreducible_pinned():
    assert {n: find_irreducible(n) for n in PINNED_MODULI} == PINNED_MODULI


# low terms of the default modulus at the five NIST binary-field degrees (FIPS 186-4,
# App. D); the NIST pentanomials at 163 and 571, smaller encodings at 233, 283 and 409
NIST_LOW_TERMS = {163: 0xC9, 233: 0xBD, 283: 0x167, 409: 0xA9, 571: 0x425}


def test_find_irreducible_pinned_at_nist_degrees():
    assert {n: find_irreducible(n) for n in NIST_LOW_TERMS} == {
        n: (1 << n) | low for n, low in NIST_LOW_TERMS.items()}


# ---- text formats ----

def test_hex_and_caret_forms():
    assert parse_poly("x^16+x^5+x^3+x^2+1") == 0x1002D
    assert parse_poly("0x1002D") == 0x1002D
    assert poly_to_text(0x1002D) == "x^16+x^5+x^3+x^2+1"
    assert parse_poly("1+x") == parse_poly("x+1") == 0b11
    assert parse_poly("0") == 0


def test_parse_poly_rejects_duplicates_and_junk():
    with pytest.raises(ValueError):
        parse_poly("x+x")
    with pytest.raises(ValueError):
        parse_poly("x^2+y")
    with pytest.raises(ValueError):
        parse_poly("")


def test_parse_poly_degree_bound():
    assert parse_poly("x^16+x^5+x^3+x^2+1", 16) == 0x1002D
    assert parse_poly("0x3FFFF", 16) == 0x3FFFF  # hex text is not bounded
    with pytest.raises(DegreeBoundError, match="above 16") as info:
        parse_poly("1+x^10000000000+x", 16)
    assert info.value.text == "x^10000000000+x+1"
    with pytest.raises(ValueError, match="duplicate"):  # the whole text is parsed first
        parse_poly("x^10000000000+x^10000000000", 16)


def test_from_coeffs_builds_a_million_coefficients_quickly():
    # the bits are the same at any speed: only the time shows the one-pass build
    coeffs = [1, 0, 0] * 333_333 + [1]
    start = time.perf_counter()
    f = CyclicPoly.from_coeffs(coeffs)
    assert time.perf_counter() - start < 1.5
    assert f == CyclicPoly(10**6, ((1 << 3 * 333_334) - 1) // 7)  # bit i set iff 3 divides i


@pytest.mark.parametrize("n, ring", [(1, "x+1"), (2, "x^2+1"), (7, "x^7+1"), (16, "x^16+1")])
def test_zero_is_not_invertible(n, ring):
    with pytest.raises(ZeroDivisionError) as exc:
        cyclic_inv(CyclicPoly(n, 0))
    assert str(exc.value) == f"not invertible modulo x^{n}-1: shares factor {ring}"


def test_parse_vector():
    v = parse_vector("1,0,1")
    assert v == CyclicPoly.from_coeffs([1, 0, 1])
    assert str(v) == "1,0,1"
    with pytest.raises(ValueError):
        parse_vector("1,2,0")


@given(polys)
def test_text_roundtrip(a):
    assert parse_poly(poly_to_text(a)) == a


def test_text_matches_term_by_term_rendering():
    rng = random.Random(11)
    for bits in (1, 2, 3, 64, 1000, 5000):
        for _ in range(5):
            a = rng.getrandbits(bits)
            terms = [i for i in range(a.bit_length() - 1, -1, -1) if (a >> i) & 1]
            expected = "+".join("1" if i == 0 else "x" if i == 1 else f"x^{i}" for i in terms)
            assert poly_to_text(a) == (expected or "0")


# ---- cyclic ring ----

def test_x_times_x_power_n_minus_1():
    for n in (2, 5, 16):
        x = CyclicPoly(n, 2)
        xn1 = CyclicPoly(n, 1 << (n - 1))
        assert cyclic_mul(x, xn1) == CyclicPoly(n, 1)


def test_cyclic_mul_size_mismatch():
    with pytest.raises(ValueError):
        cyclic_mul(CyclicPoly(4, 1), CyclicPoly(5, 1))


@given(cyclic_pairs())
def test_cyclic_mul_commutes(pair):
    a, b = pair
    assert cyclic_mul(a, b) == cyclic_mul(b, a)


def test_inverse_examples():
    assert cyclic_inv(CyclicPoly(7, 1)) == CyclicPoly(7, 1)
    for n in (3, 8):
        assert cyclic_inv(CyclicPoly(n, 2)) == CyclicPoly(n, 1 << (n - 1))


def test_inverse_of_golden_base_vector():
    f_b = CyclicPoly.from_support(16, {0, 2, 3, 4, 12, 13, 14})
    inv = cyclic_inv(f_b)
    assert inv == CyclicPoly.from_support(16, {0, 1, 2, 3, 5, 6, 10, 11, 13, 14, 15})
    assert cyclic_mul(f_b, inv) == CyclicPoly(16, 1)


def test_non_unit_inverse_reports_factor():
    # 1+x+x^2 divides x^3-1
    with pytest.raises(ZeroDivisionError, match="x"):
        cyclic_inv(CyclicPoly(3, 0b111))


def test_reciprocal_examples():
    assert reciprocal(CyclicPoly(4, 0b0011)) == CyclicPoly(4, 0b1001)  # 1+x -> 1+x^3
    g = CyclicPoly.from_support(16, {0, 1, 5, 6, 9, 10, 14})
    assert reciprocal(g) == CyclicPoly.from_support(16, {0, 2, 6, 7, 10, 11, 15})


def _reciprocal_by_definition(g):
    return CyclicPoly.from_support(g.n, {(g.n - i) % g.n for i in g.support()})


def test_reciprocal_matches_definition():
    for n in range(1, 11):
        for bits in range(1 << n):
            g = CyclicPoly(n, bits)
            assert reciprocal(g) == _reciprocal_by_definition(g)
    rng = random.Random(64)
    for _ in range(1000):
        g = CyclicPoly(64, rng.getrandbits(64))
        assert reciprocal(g) == _reciprocal_by_definition(g)


@given(cyclic_polys())
def test_reciprocal_involution(f):
    assert reciprocal(reciprocal(f)) == f


@given(cyclic_pairs())
def test_reciprocal_multiplicative(pair):
    a, b = pair
    assert reciprocal(cyclic_mul(a, b)) == cyclic_mul(reciprocal(a), reciprocal(b))


def test_symmetry_examples():
    assert is_symmetric(CyclicPoly(8, 1))
    assert is_symmetric(CyclicPoly.from_support(16, {0, 1, 15}))
    assert not is_symmetric(CyclicPoly.from_coeffs([1, 1, 0, 0]))


@given(symmetric_polys())
def test_symmetric_iff_equal_to_reciprocal(f):
    assert is_symmetric(f)
    assert reciprocal(f) == f


def test_unit_examples():
    assert not is_unit_mod_cyclic(CyclicPoly(5, 0))
    assert is_unit_mod_cyclic(CyclicPoly.from_support(16, {0, 1, 15}))
    assert not is_unit_mod_cyclic(CyclicPoly(3, 0b111))


@given(cyclic_polys())
def test_unit_agrees_with_invertibility(f):
    if is_unit_mod_cyclic(f):
        assert cyclic_mul(f, cyclic_inv(f)) == CyclicPoly(f.n, 1)
    else:
        with pytest.raises(ZeroDivisionError):
            cyclic_inv(f)


# ---- the unit test by evaluation at roots of unity ----

def _by_gcd(f):
    return f.bits != 0 and poly_gcd(f.bits, ring_modulus(f.n)) == 1


@pytest.mark.parametrize("tables", [True, False])
def test_unit_test_is_the_gcd_criterion_on_every_vector(tables):
    with at_price(0 if tables else NEVER):
        for n in range(1, 17):
            assert [is_unit_mod_cyclic(CyclicPoly(n, b)) for b in range(1 << n)] == [
                _by_gcd(CyclicPoly(n, b)) for b in range(1 << n)], n


def test_unit_test_is_sympys_gcd_criterion_on_seeded_vectors():
    # an outside reference: poly_gcd runs the same Euclid as the unit test's first tests
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ
    for n in [*range(1, 65), 127, 163]:
        rng = random.Random(n)
        half = [rng.getrandbits(n) for _ in range(20)]
        vectors = [CyclicPoly(n, b | _mirror(b, n)) for b in half] + [
            CyclicPoly(n, rng.getrandbits(n)) for _ in range(20)]
        ring = [1, *[0] * (n - 1), 1]  # x^n + 1, leading coefficient first
        expected = [galoistools.gf_gcd(galoistools.gf_strip([int(c) for c in f"{f.bits:b}"]),
                                       ring, 2, ZZ) == [1] for f in vectors]
        for price in (0, NEVER):
            with at_price(price):
                assert [is_unit_mod_cyclic(f) for f in vectors] == expected, (n, price)
        assert True in expected and (n == 1 or False in expected), n


def test_unit_test_is_the_gcd_criterion_on_seeded_vectors():
    # half symmetric, half arbitrary, each answer seen at every ring size with an odd part
    for n in range(1, 65):
        rng = random.Random(n)
        half = [rng.getrandbits(n) for _ in range(60)]
        vectors = [CyclicPoly(n, b | _mirror(b, n)) for b in half] + [
            CyclicPoly(n, rng.getrandbits(n)) for _ in range(60)]
        expected = [_by_gcd(f) for f in vectors]
        for price in (0, NEVER):
            with at_price(price):
                assert [is_unit_mod_cyclic(f) for f in vectors] == expected, (n, price)
        assert True in expected and (n == 1 or False in expected), n


def test_zero_is_no_unit_and_two_power_ring_sizes_read_the_parity():
    for price in (0, NEVER):
        with at_price(price):
            for n in range(1, 65):
                assert not is_unit_mod_cyclic(CyclicPoly(n, 0)), (n, price)
            for n in (1, 2, 4, 8, 16):  # x^n - 1 = (x - 1)^n: f is a unit exactly when f(1) = 1
                assert [is_unit_mod_cyclic(CyclicPoly(n, b)) for b in range(1 << n)] == [
                    b.bit_count() % 2 == 1 for b in range(1 << n)]
            assert not any(n & (n - 1) == 0 for n in poly2._units)  # the parity keeps no state


@pytest.mark.parametrize("price", [0, 1, 20])
def test_rent_is_none_for_price_calls_then_one_build(monkeypatch, price):
    monkeypatch.setattr(poly2, "_PRICES", {"fork": price})
    store, built = {"other": 7}, []

    def build():
        built.append([len(built)])
        return built[-1]
    for k in range(price):
        assert poly2._rented(store, "key", "fork", build) is None
        assert store == {"other": 7, "key": k + 1}
    assert built == []
    held = poly2._rented(store, "key", "fork", build)
    assert built == [held] and store["key"] is held
    assert all(poly2._rented(store, "key", "fork", build) is held for _ in range(3))
    assert len(built) == 1 and store["other"] == 7


def test_rent_with_no_fork_is_price_zero_and_an_unknown_fork_raises(monkeypatch):
    monkeypatch.setattr(poly2, "_PRICES", {"fork": 2})
    store = {}
    assert poly2._rented(store, "lazy", None, list) == [] and store == {"lazy": []}
    with pytest.raises(KeyError):
        poly2._rented(store, "key", "frok", list)
    assert "key" not in store
    # a held value reads no price, so a table bought is kept whatever the prices say later
    for _ in range(3):
        held = poly2._rented(store, "key", "fork", list)
    monkeypatch.setattr(poly2, "_PRICES", {})
    assert held == [] and poly2._rented(store, "key", "fork", list) is held


def test_a_ring_size_builds_its_tables_once_its_gcd_tests_have_cost_one_build(monkeypatch):
    monkeypatch.setattr(poly2, "_units", {})
    calls = []
    for name in ("poly_gcd", "_unit_tables"):
        real = getattr(poly2, name)
        monkeypatch.setattr(poly2, name,
                            lambda *args, _name=name, _real=real: calls.append(_name) or _real(*args))
    f = CyclicPoly.from_support(21, {0, 3, 18})  # a unit; 1 + x + x^20 shares x^3 + x + 1
    rent = poly2._PRICES["units"]
    for k in range(rent):
        assert is_unit_mod_cyclic(f)
        assert poly2._units[21] == k + 1
    assert calls == ["poly_gcd"] * rent
    assert is_unit_mod_cyclic(f) and calls[rent] == "_unit_tables"
    assert type(poly2._units[21]) is tuple
    built = len(calls)  # the build's own modulus search runs gcds too
    for _ in range(3):
        assert is_unit_mod_cyclic(f)
    assert len(calls) == built  # neither Euclid nor a second build


def test_ring_sizes_held_stay_within_the_bound(monkeypatch):
    monkeypatch.setattr(poly2, "_units", {})
    sizes = [n for n in range(3, 400) if n & (n - 1)][:poly2._UNIT_RINGS + 5]
    for n in sizes:
        assert is_unit_mod_cyclic(CyclicPoly(n, 1))
        assert len(poly2._units) <= poly2._UNIT_RINGS and poly2._units[n] == 1
    assert sizes[-1] in poly2._units and sizes[0] not in poly2._units


def test_ring_size_bound_holds_every_field_degree(monkeypatch):
    # a spec's vectors live in the ring of its degree n <= MAX_DEGREE (is_normal, the scan,
    # compose's check), and the odd rule tests folds at smaller sizes; a power of two tests
    # parity and is not held.  All the others are held at once, so a sweep over the degrees
    # never empties _units
    sizes = [n for n in range(1, MAX_DEGREE + 1) if n & (n - 1)]
    assert len(sizes) <= poly2._UNIT_RINGS
    monkeypatch.setattr(poly2, "_units", {})
    for _ in range(2):
        for n in sizes:
            is_unit_mod_cyclic(CyclicPoly(n, 1))
    assert poly2._units == dict.fromkeys(sizes, 2)


def test_threads_racing_on_the_counts_get_the_gcd_answers(monkeypatch):
    # threads that race lose counts or build the same tables twice; every answer is the gcd's
    monkeypatch.setattr(poly2, "_units", {})
    monkeypatch.setitem(poly2._PRICES, "units", 5)
    rng = random.Random(4)
    vectors = [CyclicPoly(n, rng.getrandbits(n)) for _ in range(40) for n in (15, 21, 33, 45, 63)]
    expected = [_by_gcd(f) for f in vectors]
    results = {}

    def run(k):
        results[k] = [is_unit_mod_cyclic(f) for f in vectors]
    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]  # more than the cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(results[k] == expected for k in range(4))
    assert all(type(poly2._units[n]) is tuple for n in (15, 21, 33, 45, 63))


# ---- symmetric-polynomial laws used by the constructions ----

@settings(max_examples=300)
@given(symmetric_polys(), st.data())
def test_product_of_symmetric_is_symmetric(f, data):
    g = data.draw(symmetric_polys(min_n=f.n, max_n=f.n))
    assert is_symmetric(cyclic_mul(f, g))


def test_product_of_symmetric_is_symmetric_exhaustive_small():
    for n in range(1, 9):
        sym = [CyclicPoly(n, b) for b in range(1 << n) if is_symmetric(CyclicPoly(n, b))]
        for f in sym:
            for g in sym:
                assert is_symmetric(cyclic_mul(f, g))


@settings(max_examples=300)
@given(st.data())
def test_inverse_of_symmetric_unit(data):
    # symmetric unit with constant term 1: its inverse is symmetric, a unit,
    # has constant term 1, and (even n) zero middle coefficient
    f = data.draw(symmetric_polys())
    f = CyclicPoly(f.n, f.bits | 1)
    if not is_unit_mod_cyclic(f):
        return
    inv = cyclic_inv(f)
    assert is_symmetric(inv)
    assert is_unit_mod_cyclic(inv)
    assert inv.coeff(0) == 1
    if f.n % 2 == 0:
        assert inv.coeff(f.n // 2) == 0


@settings(max_examples=300)
@given(st.data())
def test_half_sum_law_for_products(data):
    # even n, symmetric factors with constant term 1 and zero middle bit:
    # the product keeps c_0 = 1 and c_{n/2} = 0; when additionally 4 | n,
    # odd-index half-sums add up mod 2 (false for n = 2 mod 4, e.g. n = 10
    # with f = 1+x^4+x^6 and g = 1+x+x^9)
    n = data.draw(st.integers(1, 10)) * 2
    halves = st.integers(0, (1 << ((n + 1) // 2)) - 1)
    f = _symmetric(n, data.draw(halves), 1)
    g = _symmetric(n, data.draw(halves), 1)
    c = cyclic_mul(f, g)
    assert c.coeff(0) == 1
    assert c.coeff(n // 2) == 0
    if n % 4 == 0:
        def odd_half_sum(v):
            return sum(v.coeff(i) for i in range(1, n // 2, 2)) & 1

        assert odd_half_sum(c) == (odd_half_sum(f) + odd_half_sum(g)) % 2


def test_symmetric_vectors_are_every_symmetric_vector_once():
    for n in range(1, 15):
        found = list(symmetric_vectors(n))
        assert len(found) == 2 ** (n // 2 + 1)
        assert set(found) == {f for bits in range(1 << n) if is_symmetric(f := CyclicPoly(n, bits))}
        lows = [f.bits & ((2 << (n // 2)) - 1) for f in found]  # entries 0 .. n//2
        assert lows == sorted(set(lows))


def _mirror_by_string(bits, n):
    # the reference reversal: bit i moves to n - 1 - i in a binary string, then all rotate by one
    r = int(f"{bits:0{n}b}"[::-1], 2)
    return ((r << 1) | (r >> (n - 1))) & ((1 << n) - 1)


def test_mirror_matches_the_string_reversal():
    # _mirror's contract is 0 <= bits < 2^n, which every caller keeps
    for n in range(1, 15):
        for bits in range(1 << n):
            assert _mirror(bits, n) == _mirror_by_string(bits, n)
    rng = random.Random(600)
    for n in range(15, 601):
        for bits in (rng.getrandbits(n), 1 << (n - 1), (1 << n) - 1):
            assert _mirror(bits, n) == _mirror_by_string(bits, n)


def test_symmetric_vectors_are_the_mirrored_count_in_order():
    for n in range(1, 17):
        expected = [CyclicPoly(n, low | _mirror_by_string(low, n))
                    for low in range(1 << (n // 2 + 1))]
        assert list(symmetric_vectors(n)) == expected


def _mul_bit_serial(a, b):
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


# up to 1,200 bits: past the squares of ~570-bit values that degrees up to 571 would take
@settings(max_examples=300, deadline=None)
@given(st.integers(0, (1 << 1200) - 1), st.integers(0, (1 << 1200) - 1))
def test_poly_mul_matches_the_bit_serial_product(a, b):
    assert poly_mul(a, b) == poly_mul(b, a) == _mul_bit_serial(a, b)


def _compose_twelve_short_odd_part():
    spec = FieldSpec.from_degree(12)
    return compose(spec, CyclicPoly.from_support(4, {0, 1, 3}), CyclicPoly(2, 1))


@pytest.mark.parametrize("call,message", [
    (lambda: parse_poly("0xZZ"), "bad hex polynomial '0xZZ'"),
    (lambda: parse_poly("x^a+1"), "bad term 'x^a' in polynomial 'x^a+1'"),
    (lambda: parse_poly("x^-1+1"), "negative exponent in 'x^-1+1'"),
    (lambda: CyclicPoly(0), "ring size must be positive"),
    (lambda: CyclicPoly(3, 8), "coefficients do not fit ring size 3"),
    (lambda: CyclicPoly.from_coeffs([1, 2]), "coefficients must be 0 or 1"),
    (lambda: CyclicPoly.from_support(3, {3}), "support index 3 outside [0, 3)"),
    (lambda: poly_gcd(0, 0), "gcd(0, 0) is undefined"),
    (lambda: find_irreducible(0), "degree must be positive"),
    (lambda: parse_elem(FieldSpec.from_degree(8), "pow:-1"),
     "negative exponent in element 'pow:-1'"),
    (lambda: parse_elem(FieldSpec.from_degree(8), "0xZZ"), "bad hex element '0xZZ'"),
    (_compose_twelve_short_odd_part, "odd part vector must have length 3, got 2"),
])
def test_input_rejections(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_parse_poly_reads_x_to_the_zero_as_the_constant_term():
    assert parse_poly("x^0+x") == 3
    with pytest.raises(ValueError, match="duplicate term '1'"):
        parse_poly("x^0+x+1")
