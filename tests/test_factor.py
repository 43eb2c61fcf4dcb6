"""Reciprocal-product factorization in the cyclic ring."""

import hashlib
import random

import pytest

from normbase import factor
from normbase.factor import (
    _factor,
    _free_mask,
    _images,
    _member,
    _odd_half_sum,
    factor_2power,
    in_H,
    iter_G,
    iter_H,
)
from normbase.construct import _fold
from normbase.field import MAX_DEGREE
from normbase.oracle import _factors_in_G
from normbase.poly2 import CyclicPoly, _picked_sum, cyclic_mul, is_symmetric, reciprocal, symmetric_vectors

GOLDEN_H = CyclicPoly.from_support(16, {0, 1, 2, 7, 9, 14, 15})
GOLDEN_G = CyclicPoly.from_support(16, {0, 1, 5, 6, 9, 10, 14})


def in_G(g):
    # membership in G: g is the member whose free coefficients are its own
    return g == _member(g.n, g.bits & _free_mask(g.n))


def test_in_H_examples():
    assert in_H(CyclicPoly(4, 1))
    assert in_H(GOLDEN_H)
    assert not in_H(CyclicPoly.from_support(16, {0, 1, 15}))  # odd half-sum 1
    with pytest.raises(ValueError):
        in_H(CyclicPoly(6, 1))
    with pytest.raises(ValueError):
        in_H(CyclicPoly(2, 1))


def test_in_G_examples():
    assert in_G(CyclicPoly(4, 1))
    assert list(iter_G(4)) == [CyclicPoly(4, 1)]
    assert in_G(GOLDEN_G)
    assert not in_G(CyclicPoly.from_support(16, {0, 2}))  # b_2 must vanish


def _reference_free(n):
    # the paper's free indices 1, 3, 4, ..., n/2 - 1; none for n = 4, where b_1 = b_{n-3} = 0
    return [1] + list(range(3, n // 2)) if n > 4 else []


def _reference_member(n, pattern):
    # pattern bit k sets b_i and b_{n-1-i} for the k-th free index i; b_0 = 1
    support = {0}
    for k, i in enumerate(_reference_free(n)):
        if pattern >> k & 1:
            support |= {i, n - 1 - i}
    return CyclicPoly.from_support(n, support)


def _reference_in_G(v):
    pattern = sum(v.coeff(i) << k for k, i in enumerate(_reference_free(v.n)))
    return v == _reference_member(v.n, pattern)


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_iter_G_is_the_index_definition_in_order(n):
    reference = [_reference_member(n, p) for p in range(1 << len(_reference_free(n)))]
    assert list(iter_G(n)) == reference


@pytest.mark.parametrize("n", [8, 16])
def test_in_G_rejects_every_single_bit_flip(n):
    for g in iter_G(n):
        assert in_G(g)
        assert not any(in_G(CyclicPoly(n, g.bits ^ 1 << i)) for i in range(n))


@pytest.mark.parametrize("n", [32, 64])
def test_in_G_agrees_with_the_index_definition(n):
    # members, members with one bit flipped and uniform vectors, a third of the draws each
    rng = random.Random(n)
    verdicts = []
    for draw in range(2000):
        v = _reference_member(n, rng.getrandbits(len(_reference_free(n))))
        if draw % 3 == 1:
            v = CyclicPoly(n, v.bits ^ 1 << rng.randrange(n))
        elif draw % 3 == 2:
            v = CyclicPoly(n, rng.getrandbits(n))
        verdicts.append(in_G(v))
        assert verdicts[-1] == _reference_in_G(v)
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_set_sizes(n):
    assert len(list(iter_G(n))) == 1 << (n // 2 - 2)
    assert len(list(iter_H(n))) == 1 << (n // 2 - 2)
    assert all(in_G(g) for g in iter_G(n))
    assert all(in_H(h) for h in iter_H(n))


def test_factor_trivial():
    assert factor_2power(CyclicPoly(4, 1)) == CyclicPoly(4, 1)


def test_factor_golden_run():
    assert factor_2power(GOLDEN_H) == GOLDEN_G
    assert cyclic_mul(GOLDEN_G, reciprocal(GOLDEN_G)) == GOLDEN_H


def test_factor_degree_eight_matches_bruteforce():
    h = CyclicPoly.from_support(8, {0, 2, 6})
    assert in_H(h)
    matches = _factors_in_G(8)[h]
    assert len(matches) == 1
    assert factor_2power(h) == matches[0]


def test_factor_rejects_outside_H():
    with pytest.raises(ValueError):
        factor_2power(CyclicPoly.from_support(16, {0, 1, 15}))


@pytest.mark.parametrize("n", [4, 8, 16])
def test_factor_set_bijection(n):
    # g -> g * reciprocal(g) maps G one-to-one onto H, and the solver inverts it
    products = {}
    for g in iter_G(n):
        h = cyclic_mul(g, reciprocal(g))
        assert in_H(h)
        assert h not in products
        products[h] = g
    assert set(products) == set(iter_H(n))
    for h, g in products.items():
        assert factor_2power(h) == g


@pytest.mark.parametrize("n", [32, 64])
def test_factor_round_trips_past_the_enumerable_sizes(n):
    # seeded members of G where G is too large to walk: the solver inverts g -> g * g^*
    rng, free = random.Random(n), _free_mask(n)
    for low in [0, free] + [rng.getrandbits(n // 2) & free for _ in range(300)]:
        g = _member(n, low)
        h = cyclic_mul(g, reciprocal(g))
        assert _factor(h) == g
        assert factor_2power(h) == g


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_solution_images_solve_every_target_in_H_linearly(n):
    # the sum of the images over h's bits is h's factor in G, for every h in H (all of H up
    # to 16, seeded members above): h's odd weight counts the constant 1 once
    rng, free = random.Random(n), _free_mask(n)
    if n == 2:
        targets = [CyclicPoly(2, 1)]
    elif n <= 16:
        targets = list(iter_H(n))
    else:
        targets = [cyclic_mul(g, reciprocal(g)) for g in
                   (_member(n, rng.getrandbits(n // 2) & free) for _ in range(300))]
    images = _images(n)
    assert len(images) == n and all(u < 1 << n for u in images)
    for h in targets:
        g = CyclicPoly(n, _picked_sum(images, h.bits))
        assert in_G(g) and cyclic_mul(g, reciprocal(g)) == h, (n, h)
        assert _factor(h) == g


@pytest.mark.parametrize("n", [n for n in range(1, 65) if n % 2 or n & (n - 1) == 0])
def test_factor_is_linear_at_every_ring_size(n):
    # a kept base tabulates _factor bit by bit, so h -> g must be GF(2)-linear on the whole ring
    rng = random.Random(n)
    for _ in range(50):
        h1, h2 = CyclicPoly(n, rng.getrandbits(n)), CyclicPoly(n, rng.getrandbits(n))
        assert _factor(CyclicPoly(n, h1.bits ^ h2.bits)).bits == _factor(h1).bits ^ _factor(h2).bits


def test_any_product_with_reciprocal_is_symmetric_with_zero_middle():
    n = 8
    for bits in range(1 << n):
        g = CyclicPoly(n, bits)
        h = cyclic_mul(g, reciprocal(g))
        assert is_symmetric(h)
        assert h.coeff(n // 2) == 0


def test_factor_odd_examples():
    assert _factor(CyclicPoly(5, 1)) == CyclicPoly(5, 1)
    h = CyclicPoly.from_support(5, {0, 1, 4})
    g = _factor(h)
    assert g == CyclicPoly.from_support(5, {0, 2, 3})
    assert cyclic_mul(g, g) == h
    h3 = CyclicPoly(3, 0b111)
    assert _factor(h3) == h3
    assert cyclic_mul(h3, h3) == h3


def test_sqrt_odd_is_the_string_permutation():
    # the odd images against the string form of the square root: coefficient 2i mod n moved
    # to i, read off the even indices and then the odd ones
    def by_string(h):
        coeffs = f"{h.bits:0{h.n}b}"[::-1]
        return CyclicPoly(h.n, int((coeffs[::2] + coeffs[1::2])[::-1], 2))

    for n in range(1, 14, 2):
        for bits in range(1 << n):
            assert _factor(CyclicPoly(n, bits)) == by_string(CyclicPoly(n, bits))
    rng = random.Random(601)
    for n in range(15, 602, 2):
        for h in (CyclicPoly(n, rng.getrandbits(n)) for _ in range(4)):
            assert _factor(h) == by_string(h)


def test_factor_odd_output_is_symmetric_square_root():
    for n in (3, 5, 7, 9):
        for bits in range(1 << ((n + 1) // 2)):
            h_bits = bits & 1
            for k in range(1, (n + 1) // 2):
                if (bits >> k) & 1:
                    h_bits |= (1 << k) | (1 << (n - k))
            h = CyclicPoly(n, h_bits)
            g = _factor(h)
            assert is_symmetric(g)
            assert cyclic_mul(g, reciprocal(g)) == h
            assert cyclic_mul(g, g) == h


def test_odd_factorization_exists_iff_symmetric():
    for n in (3, 5, 7):
        ring = [CyclicPoly(n, bits) for bits in range(1 << n)]
        products = {cyclic_mul(g, reciprocal(g)) for g in ring}
        for h in ring:
            assert (h in products) == is_symmetric(h)


def _symmetric(n, bits):
    # h_0 .. h_{n//2} from the low bits, the rest mirrored
    low = CyclicPoly(n, bits & ((2 << (n // 2)) - 1))
    return CyclicPoly(n, low.bits | reciprocal(low).bits)


def test_loop_free_helpers_match_their_definitions():
    def odd_half_sum(f):
        return sum(f.coeff(i) for i in range(1, f.n // 2, 2)) & 1

    def square_root(h):
        return CyclicPoly.from_coeffs(h.coeff(2 * i % h.n) for i in range(h.n))

    def fold(a, k):
        return CyclicPoly.from_coeffs(
            sum(a.coeff(i * k + j) for i in range(a.n // k)) & 1 for j in range(k))

    for n in (4, 8, 16):
        members = list(iter_H(n))
        assert members and all(_odd_half_sum(h) == odd_half_sum(h) == 0 for h in members)
        for bits in range(1 << n):
            f = CyclicPoly(n, bits)
            assert _odd_half_sum(f) == odd_half_sum(f)
    for n in range(1, 16, 2):
        for h in symmetric_vectors(n):
            assert _factor(h) == square_root(h)
    rng = random.Random(63)
    for _ in range(1000):
        h = _symmetric(63, rng.getrandbits(63))
        assert _factor(h) == square_root(h)
        assert _odd_half_sum(h) == odd_half_sum(h)
    for n in (6, 10, 12):
        divisors = [k for k in range(1, n + 1) if n % k == 0]
        for bits in range(1 << n):
            a = CyclicPoly(n, bits)
            assert all(_fold(a, k) == fold(a, k) for k in divisors)
    for n in range(4, 65):
        if n & (n - 1) == 0 or n % 2:  # composite n = 2^s * m, s >= 1, odd m > 1
            continue
        divisors = [k for k in range(1, n + 1) if n % k == 0]
        for _ in range(20):
            a = CyclicPoly(n, rng.getrandbits(n))
            assert all(_fold(a, k) == fold(a, k) for k in divisors)


@pytest.mark.parametrize("solve, h, error, message", [
    (factor_2power, CyclicPoly(6, 1), ValueError, "ring size must be a power of two >= 4, got 6"),
    (factor_2power, CyclicPoly(2, 1), ValueError, "ring size must be a power of two >= 4, got 2"),
    (factor_2power, CyclicPoly.from_support(16, {0, 1, 15}), ValueError,
     "no structured factorization: polynomial is outside the set H "
     "(needs constant term 1, middle coefficient 0, symmetry, odd-index half-sum 0)"),
])
def test_public_factor_checks_keep_their_errors(solve, h, error, message):
    with pytest.raises(error) as raised:
        solve(h)
    assert str(raised.value) == message


def test_rank_deficient_system_is_an_implementation_bug(monkeypatch):
    # every column 0: the constant 1 has no bits in positions 1 .. n/2 - 1
    monkeypatch.setattr(factor, "cyclic_mul", lambda a, b: CyclicPoly(a.n, 1))
    factor._images.cache_clear()
    try:
        with pytest.raises(RuntimeError) as exc:
            factor._images(16)
    finally:
        factor._images.cache_clear()
    assert str(exc.value) == "factorization system is rank-deficient (implementation bug)"


def test_images_are_pinned_at_every_ring_size_they_serve():
    # the images of every odd and 2-power ring size up to MAX_DEGREE, as the leading-bit
    # elimination gave them: _eliminate's one-lane default, which reduces every column top
    # down, solves the 2-power systems to the same images
    sizes = [t for t in range(1, MAX_DEGREE + 1) if t % 2 or t & (t - 1) == 0]
    digest = hashlib.sha256(repr([_images(t) for t in sizes]).encode()).hexdigest()
    assert digest == "6bc2d538778559ed99855301dfc8bff3948dcdbee73888185181983868c674ff"


def test_images_cache_holds_every_ring_size_it_serves():
    # _factor runs at the odd and 2-power ring sizes up to MAX_DEGREE: the pipeline's t, and
    # factor_2power's n; the cache holds them all at once, so a sweep over the degrees builds
    # each size's images once
    sizes = [t for t in range(1, MAX_DEGREE + 1) if t % 2 or t & (t - 1) == 0]
    assert len(sizes) <= _images.cache_info().maxsize
    _images.cache_clear()
    for _ in range(2):
        for t in sizes:
            _images(t)
    assert _images.cache_info().misses == len(sizes)
