"""Normality, corresponding vectors, basis changes, the transform law."""

import gc
import random
import sys
import threading
import weakref

import pytest

from normbase import normal, poly2
from normbase.construct import _fold, compose, prescribe, weight3
from normbase.field import FieldSpec, elem_mul, frobenius, rel_trace
from normbase.normal import corresponding_vector, find_normal, is_normal
from normbase.poly2 import (
    CyclicPoly,
    cyclic_mul,
    is_irreducible,
    is_symmetric,
    is_unit_mod_cyclic,
    reciprocal,
)

from prices import at_both_prices
from test_acceptance import Budget
from rank_reference import is_subfield_normal_by_rank


def test_zero_and_one(f16):
    assert corresponding_vector(f16, 0) == CyclicPoly(16, 0)
    assert not is_normal(f16, 0)
    assert not is_normal(f16, 1)


def test_golden_base_element_vector(f16):
    from normbase.field import parse_elem
    beta = parse_elem(f16, "pow:1,126")
    assert corresponding_vector(f16, beta) == CyclicPoly.from_coeffs(
        [1, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0])
    assert is_normal(f16, beta)


def test_vectors_are_symmetric_exhaustive():
    for n in range(1, 9):
        spec = FieldSpec.from_degree(n)
        for a in range(spec.order):
            assert is_symmetric(corresponding_vector(spec, a))


def test_vectors_are_symmetric_random(f12):
    rng = random.Random(7)
    for _ in range(200):
        assert is_symmetric(corresponding_vector(f12, rng.randrange(f12.order)))


def test_gcd_and_rank_normality_agree_exhaustive():
    for n in list(range(1, 11)) + [12]:
        spec = FieldSpec.from_degree(n)
        for a in range(spec.order):
            assert is_normal(spec, a) == is_subfield_normal_by_rank(spec, a, n)


def test_normal_count_in_gf16():
    spec = FieldSpec.from_degree(4)
    assert sum(1 for a in range(16) if is_subfield_normal_by_rank(spec, a, 4)) == 8


def test_find_normal_scan_smallest():
    spec = FieldSpec.from_degree(2)
    assert find_normal(spec) == 2  # the adjoined root is the first normal element


def test_find_normal_matches_naive_scan():
    for n in (3, 4, 5, 6, 8):
        spec = FieldSpec.from_degree(n)
        naive = next(a for a in range(spec.order) if is_normal(spec, a))
        assert find_normal(spec) == naive


def test_find_normal_postcondition(f16):
    assert is_normal(f16, find_normal(f16))
    assert is_normal(f16, find_normal(f16, seed=123))


def test_find_normal_random_reproducible(f12):
    assert find_normal(f12, seed=42) == find_normal(f12, seed=42)


def test_find_normal_seed_must_be_an_int(f16):
    # a string or bool would otherwise seed a silently different draw
    for seed in ("random", True, False, 1.0, b"0"):
        with pytest.raises(TypeError, match="seed must be an int"):
            find_normal(f16, seed)
    assert (find_normal(f16), find_normal(f16, seed=0), find_normal(f16, 7)) == (0x800, 0xD82D, 0xF2A8)


def test_seeded_draw_without_a_normal_element_is_an_implementation_bug(monkeypatch):
    # a unit test that never answers yes ends the draw after DRAW_CAP candidates, not never
    calls = []
    monkeypatch.setattr(normal, "is_normal", lambda spec, a: calls.append(a) or False)
    with Budget(2.0), pytest.raises(RuntimeError) as exc:
        find_normal(FieldSpec.from_degree(16), seed=3)
    assert str(exc.value) == f"no normal element in {normal.DRAW_CAP} seeded draws (implementation bug)"
    assert len(calls) == normal.DRAW_CAP

# the scan's element on the default modulus of every degree where the
# uncapped scan ended (all n <= 64 but 63); the cap must not move any of them
SCANNED = {
    1: 0x1, 2: 0x2, 3: 0x3, 4: 0x8, 5: 0x3, 6: 0x20, 7: 0x9, 8: 0x20, 9: 0x3, 10: 0x80, 11: 0x3,
    12: 0x202, 13: 0x3, 14: 0x200, 15: 0x81, 16: 0x800, 17: 0x3, 18: 0x8002, 19: 0x3,
    20: 0x20000, 21: 0x3, 22: 0x200000, 23: 0x3, 24: 0x200000, 25: 0x3, 26: 0x800000, 27: 0x3,
    28: 0x8000000, 29: 0x3, 30: 0x20000000, 31: 0x8001, 32: 0x2000000, 33: 0x21, 34: 0x80000000,
    35: 0x3, 36: 0x80000000, 37: 0x3, 38: 0x200000000, 39: 0x21, 40: 0x800000000, 41: 0x3,
    42: 0x2000000000, 43: 0x3, 44: 0x8000000000, 45: 0x3, 46: 0x200000000000, 47: 0x3,
    48: 0x80000000000, 49: 0x3, 50: 0x800000000000, 51: 0x3, 52: 0x2000000000000, 53: 0x3,
    54: 0x2000000000000, 55: 0x9, 56: 0x2000000000000, 57: 0x21, 58: 0x20000000000000, 59: 0x3,
    60: 0x800000000000000, 61: 0x3, 62: 0x200000000000000, 64: 0x2000000000000000,
}


@pytest.mark.parametrize("n", sorted(SCANNED))
def test_find_normal_pinned_by_degree(n):
    assert find_normal(FieldSpec.from_degree(n)) == SCANNED[n]


def test_scan_past_its_cap_returns_the_seed_zero_draw(monkeypatch):
    # seeded moduli reach the real SCAN_CAP too: none of this one's first 2^15 trace-one
    # candidates is normal
    spec = FieldSpec(45, 0x3CB377161A95)
    assert find_normal(spec) == find_normal(spec, seed=0) == 0xC53D82C07CE
    # at n = 12 the scan's first trace-one candidate 0x200 is not normal
    monkeypatch.setattr(normal, "SCAN_CAP", 1)
    assert find_normal(FieldSpec.from_degree(12)) == 0x62A  # find_normal(spec, seed=0), not 0x202
    # at n = 31 the 16,385th trace-one candidate 0x8001 is the first normal one, in the
    # 128th block of 256; the cap counts candidates, inside and across blocks
    assert find_normal(FieldSpec.from_degree(31), seed=0) == 0x6104A657
    for cap, expected in ((200, 0x6104A657), (16_384, 0x6104A657), (16_385, 0x8001)):
        monkeypatch.setattr(normal, "SCAN_CAP", cap)
        assert find_normal(FieldSpec.from_degree(31)) == expected


def _naive_scan(spec):
    return next(a for a in range(spec.order) if is_normal(spec, a))


def test_scan_is_the_naive_scan_on_every_modulus_of_degree_15():
    from test_acceptance import Budget
    late = set()
    with Budget(2.0):
        moduli = [f for f in range(1 << 15, 1 << 16) if is_irreducible(f)]
        for f in moduli:
            spec = FieldSpec(15, f)
            a = find_normal(spec)
            assert a == _naive_scan(spec), hex(f)
            if a >= 256:  # past the first block, which starts at 0 as Tr(1) = 1 for odd n
                late.add(f)
    assert len(moduli) == 2182 and late == {0x9117, 0x9D63, 0xE581, 0xEFF9}


@pytest.mark.parametrize("modulus, expected", [
    (0x4214B, 0x820), (0x43569, 0x220), (0x4653F, 0x820), (0x47051, 0x200)])
def test_scan_answers_past_its_first_block_at_degree_18(modulus, expected):
    # the first trace-one encoding is 0x20 on each, so the first block is 0 ... 0xFF
    spec = FieldSpec(18, modulus)
    assert find_normal(spec) == _naive_scan(spec) == expected


@pytest.mark.parametrize("n, seeded", [(16, False), (21, False), (32, False), (33, False),
                                       (64, False), (16, True), (32, True), (64, True)])
def test_scan_that_ends_in_its_first_block_reads_one_vector_per_candidate(monkeypatch, n, seeded):
    # the first block is tested lazily: f(L) for L < 256 and the block tables of B_H are
    # built only if the scan leaves it, and a hit there is not read a second time
    rng = random.Random(n)
    while seeded and not is_irreducible(modulus := rng.randrange(1 << n, 1 << (n + 1))):
        pass
    spec = FieldSpec(n, modulus) if seeded else FieldSpec.from_degree(n)
    read, tables = [], []
    vector, byte_tables = normal.corresponding_vector, normal._byte_tables
    monkeypatch.setattr(normal, "corresponding_vector", lambda s, a: read.append(a) or vector(s, a))
    monkeypatch.setattr(normal, "_byte_tables", lambda im: tables.append(im) or byte_tables(im))
    a = find_normal(spec)
    start = min(1 << i for i in range(n) if rel_trace(spec, 1 << i, 1)) & ~0xFF
    assert start <= a < start + 256 and not tables
    assert read == [b for b in range(start, a + 1) if rel_trace(spec, b, 1)]


def test_scan_hit_that_is_not_normal_is_an_implementation_bug(monkeypatch):
    # with B_H(L) taken as L, a polarized unit at n = 31 turns up below 0x8001, where none is normal
    monkeypatch.setattr(normal, "_byte_tables", lambda images: [list(range(256))])
    with pytest.raises(RuntimeError, match="implementation bug"):
        find_normal(FieldSpec.from_degree(31))


@pytest.mark.parametrize("n", [9, 18, 31, 64])
def test_vector_polarization_identity(n):
    # a_i(alpha) = Tr(alpha * alpha^(2^i)) is a quadratic form, so f(H + L) = f(H) + f(L) + B_H(L)
    # with B_H linear in L: B_H(e_j) = c_j = f(H + e_j) + f(H) + f(e_j)
    spec = FieldSpec.from_degree(n)
    rng = random.Random(n)

    def f(a):
        return corresponding_vector(spec, a).bits
    for _ in range(10):
        H, L = rng.randrange(spec.order), rng.randrange(spec.order)
        cross = 0
        for j in (j for j in range(n) if L >> j & 1):
            cross ^= f(H ^ 1 << j) ^ f(H) ^ f(1 << j)
        assert f(H ^ L) == f(H) ^ f(L) ^ cross


@pytest.mark.parametrize("n", range(1, 13))
def test_loop_and_table_vectors_are_the_naive_vector_on_every_element(n, naive_subfield_vector):
    spec = FieldSpec.from_degree(n)
    tables, loops = at_both_prices(spec, lambda s: [corresponding_vector(s, a) for a in range(s.order)])
    assert tables == loops == [naive_subfield_vector(spec, a, n) for a in range(spec.order)]


@pytest.mark.parametrize("n", range(1, 65))
def test_loop_and_table_vectors_agree_on_default_and_seeded_moduli(n, naive_subfield_vector):
    # the stride P = 8 ceil(n/8) exceeds n unless 8 | n, and _STEPS divides the n // 2 + 1
    # conjugates a vector reads at n = 14, 15, 30, 31, 46, 47, 62, 63 alone
    rng = random.Random(n)
    while not is_irreducible(modulus := rng.randrange(1 << n, 1 << (n + 1))):
        pass
    for spec in (FieldSpec.from_degree(n), FieldSpec(n, modulus)):
        elements = [spec.generator] + [rng.randrange(spec.order) for _ in range(15)]
        tables, loops = at_both_prices(spec, lambda s: [corresponding_vector(s, a) for a in elements])
        assert tables == loops
        assert loops[:2] == [naive_subfield_vector(spec, a, n) for a in elements[:2]]


@pytest.mark.parametrize("n", [1, 2, 3, 16, 21, 32, 33, 64])
def test_a_spec_builds_its_table_once_the_loop_has_cost_one_build(n):
    # the loop serves the "frobenius" price of vectors, about the cost of one build at every
    # n >= 8, and the Frobenius table serves from the next one on
    spec = FieldSpec.from_degree(n)
    for k in range(poly2._PRICES["frobenius"]):
        corresponding_vector(spec, k % spec.order)
        assert spec._held["frobenius"] == k + 1
    vector = corresponding_vector(spec, spec.generator)
    assert type(spec._held["frobenius"]) is tuple
    spec._held["frobenius"] = 0
    assert corresponding_vector(spec, spec.generator) == vector


def test_threads_sharing_a_spec_read_the_same_vectors():
    # threads that race on the count lose counts or build the table twice; every vector they
    # read, by either path, is still the element's vector
    spec = FieldSpec.from_degree(33)
    elements = range(1, 120)
    expected = [corresponding_vector(FieldSpec.from_degree(33), a) for a in elements]
    results = {}

    def read(k):
        results[k] = [corresponding_vector(spec, a) for a in elements]
    threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]  # more than the cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(results[k] == expected for k in range(4))
    assert type(spec._held["frobenius"]) is tuple


def test_field_spec_is_freed_and_its_choices_repeat():
    # per-field values live on the spec, so nothing keeps a dropped spec alive
    spec = FieldSpec.from_degree(21)
    element = find_normal(spec)
    for _ in range(poly2._PRICES["frobenius"] + 1):  # past the switch, so the spec holds its table
        corresponding_vector(spec, element)
    frobenius_table = spec._held["frobenius"][0][0]
    frobenius_map = (id(frobenius_table), tuple(frobenius_table))
    for _ in range(poly2._PRICES["lift"] + 1):  # past the switch, so the base holds its tables
        prescribe(spec, CyclicPoly(21, 1))
    drawn = find_normal(spec, seed=7)
    sub = FieldSpec.from_degree(12)
    # the subfield prescriptions keep one base per subfield degree on the spec, with its tables
    for _ in range(poly2._PRICES["lift"] + 1):
        weight3(sub)
    compose(sub, CyclicPoly.from_support(4, {0, 1, 3}), CyclicPoly(3, 1))
    kept = ((spec, 21), (sub, 4), (sub, 3))
    bases = [s._held[t] for s, t in kept]  # each the base with its tables
    base_tables = [table for _, tables in bases for table in tables]
    base_vectors = [weakref.ref(base[1]) for base, _ in bases]
    # a list takes no weak reference, so each kept basis-change map and byte table is looked
    # for by id and value
    maps = ([(id(base[3]), tuple(base[3])) for base, _ in bases] + [frobenius_map]
            + [(id(table), tuple(table)) for table in base_tables])
    ref, sub_ref = weakref.ref(spec), weakref.ref(sub)
    del spec, sub, bases, frobenius_table, kept, base_tables
    gc.collect()
    assert ref() is None and sub_ref() is None
    assert all(r() is None for r in base_vectors)
    alive = {id(o): o for o in gc.get_objects() if type(o) is list}
    assert not any(tuple(alive.get(i, ())) == images for i, images in maps)
    # equal but distinct specs make the same deterministic choices
    again = FieldSpec.from_degree(21)
    assert again is not ref() and find_normal(again) == element
    assert find_normal(again, seed=7) == find_normal(again, seed=7) == drawn


def test_explicit_base_is_not_kept_by_the_spec():
    spec = FieldSpec.from_degree(16)
    prescribe(spec, CyclicPoly.from_support(16, {0, 1, 15}), beta=find_normal(spec, seed=3))
    assert set(vars(spec)) == {"n", "modulus", "_square", "_held"}
    assert set(spec._held) <= {"frobenius", "trace"}  # the vector read's state, no base


def test_basis_change_identity(f16, basis_change):
    beta = find_normal(f16)
    assert basis_change(f16, beta, CyclicPoly(16, 1)) == beta


def test_basis_change_golden_run(f16, basis_change):
    from normbase.field import parse_elem
    beta = parse_elem(f16, "pow:1,126")
    g = CyclicPoly.from_support(16, {0, 1, 5, 6, 9, 10, 14})
    alpha = basis_change(f16, beta, g)
    assert corresponding_vector(f16, alpha) == CyclicPoly.from_support(16, {0, 1, 15})


def test_basis_change_all_ones_not_normal(f16, basis_change):
    # the all-ones coefficient vector is divisible by x-1 for even n
    beta = find_normal(f16)
    alpha = basis_change(f16, beta, CyclicPoly(16, (1 << 16) - 1))
    assert not is_normal(f16, alpha)


def test_basis_change_size_mismatch():
    # the transform law of a basis change needs a change of the field's own length
    with pytest.raises(ValueError) as raised:
        cyclic_mul(CyclicPoly(16, 1), CyclicPoly(8, 1))
    assert str(raised.value) == "ring size mismatch: 16 != 8"


def test_vector_transform_identity(f16):
    beta = find_normal(f16)
    f_b, c = corresponding_vector(f16, beta), CyclicPoly(16, 1)
    assert cyclic_mul(cyclic_mul(f_b, c), reciprocal(c)) == f_b


def test_vector_transform_golden_run():
    f_b = CyclicPoly.from_coeffs([1, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0])
    g = CyclicPoly.from_support(16, {0, 1, 5, 6, 9, 10, 14})
    assert cyclic_mul(cyclic_mul(f_b, g), reciprocal(g)) == CyclicPoly.from_support(16, {0, 1, 15})


def test_vector_transform_matches_field_computation(f12, basis_change):
    # base elements need not be normal for the transform law
    rng = random.Random(8)
    for _ in range(200):
        beta = rng.randrange(f12.order)
        c = CyclicPoly(12, rng.randrange(1 << 12))
        alpha = basis_change(f12, beta, c)
        lhs = corresponding_vector(f12, alpha)
        rhs = cyclic_mul(cyclic_mul(corresponding_vector(f12, beta), c), reciprocal(c))
        assert lhs == rhs


@pytest.mark.parametrize("n", list(range(2, 25)) + [36, 48, 60, 62])
def test_subfield_vector_matches_naive_reference(n, naive_subfield_vector):
    # the vector of Tr_{n|t}(A) is the fold of A's vector, for every t | n and any A,
    # so both the odd and the even cofactors n/t are covered
    spec = FieldSpec.from_degree(n)
    rng = random.Random(n)
    inputs = [0, 1, find_normal(spec)] + [rng.randrange(spec.order) for _ in range(3)]
    for t in (t for t in range(1, n + 1) if n % t == 0):
        for a in inputs:
            expected = naive_subfield_vector(spec, rel_trace(spec, a, t), t)
            assert _fold(corresponding_vector(spec, a), t) == expected


def test_traced_down_normal_element_has_valid_subfield_vector(f12):
    from normbase.construct import Status, validate_vector
    v = _fold(corresponding_vector(f12, find_normal(f12)), 4)  # the vector of its trace onto GF(2^4)
    assert is_unit_mod_cyclic(v)
    assert validate_vector(4, v).status is Status.VALID
    assert v == CyclicPoly.from_coeffs([1, 1, 0, 1])  # the unique valid length-4 vector


def test_subfield_normality_tests_agree(f12):
    # exhaustive: the fold of A's vector is a unit exactly when Tr_{n|t}(A) is normal in GF(2^t)
    for t in (3, 4, 6):
        for a in range(f12.order):
            production = is_unit_mod_cyclic(_fold(corresponding_vector(f12, a), t))
            assert production == is_subfield_normal_by_rank(f12, rel_trace(f12, a, t), t)


def test_trace_down_preserves_normality_exhaustive(f12, per_element):
    # every normal element traces down to a subfield-normal element
    from normbase.oracle import enumerate_normal
    for delta, _ in per_element(f12, enumerate_normal(f12)):
        for t in (3, 4, 6):
            assert is_subfield_normal_by_rank(f12, rel_trace(f12, delta, t), t)


def test_coprime_subfield_product_normality(f12):
    # product of subfield elements is normal iff both factors are normal
    # in their subfields (subfield degrees 4 and 3 are coprime with 4*3 = 12)
    sub4 = [a for a in range(f12.order) if frobenius(f12, a, 4) == a]
    sub3 = [a for a in range(f12.order) if frobenius(f12, a, 3) == a]
    assert len(sub4) == 16 and len(sub3) == 8
    for a in sub4:
        for b in sub3:
            want = (is_subfield_normal_by_rank(f12, a, 4)
                    and is_subfield_normal_by_rank(f12, b, 3))
            assert is_normal(f12, elem_mul(f12, a, b)) == want


def test_self_dual():
    # self-dual: the vector (1, 0, ..., 0), a unit, so such an element is normal
    spec3 = FieldSpec.from_degree(3)
    assert any(corresponding_vector(spec3, a).bits == 1 for a in range(8))
    assert corresponding_vector(spec3, 0).bits != 1
    spec4 = FieldSpec.from_degree(4)
    assert not any(corresponding_vector(spec4, a).bits == 1 for a in range(16))


def _stream(spec, count):
    # the first count (encoding, bits, polarized) of the scan's candidate stream, and the trace
    from itertools import islice

    from normbase.field import _trace_form
    mask = _trace_form(spec)[0]
    return list(islice(normal._candidates(spec, mask), count)), lambda a: (a & mask).bit_count() & 1


def test_polarized_blocks_yield_only_their_128_trace_one_candidates():
    # trace mask 0x8420: the blocks at 0x100 ... 0x300 have Tr(H) = 0 and the block at 0x400 Tr(H) = 1
    spec = FieldSpec(18, 0x4214B)
    stream, trace = _stream(spec, 128 * 5)
    for H, t in ((0x300, 0), (0x400, 1)):
        assert trace(H) == t
        block = [(a, v) for a, v, polarized in stream if polarized and a >> 8 == H >> 8]
        assert [a for a, _ in block] == [H | L for L in range(256) if trace(H | L)]
        assert len(block) == 128
        assert all(v == corresponding_vector(spec, a).bits for a, v in block)


def test_first_block_yields_each_encoding_once():
    # trace mask 0xA800: the stream starts at 0x800, where every encoding up to 0x1000 has trace 1
    spec = FieldSpec.from_degree(16)
    stream, trace = _stream(spec, 512)
    assert trace(0x900) == 1
    assert [a for a, _, _ in stream] == list(range(0x800, 0xA00))
    assert [polarized for _, _, polarized in stream] == [False] * 256 + [True] * 256


def test_polarized_hit_must_carry_the_element_vector(monkeypatch):
    # a normal element offered with another unit's bits: is_normal alone would accept it
    spec = FieldSpec.from_degree(5)
    a = find_normal(FieldSpec.from_degree(5))
    other = CyclicPoly.from_support(5, {0, 1, 4})
    assert is_normal(spec, a) and is_unit_mod_cyclic(other) and corresponding_vector(spec, a) != other
    monkeypatch.setattr(normal, "_candidates", lambda spec, mask: iter([(a, other.bits, True)]))
    with pytest.raises(RuntimeError, match="implementation bug"):
        find_normal(spec)


@pytest.mark.parametrize("n", [2, 5, 16, 18, 21, 31, 60, 64])
def test_scan_keeps_its_element_with_the_element_vector(n):
    # the default bases fold the kept vector, so it must be the element's own
    spec = FieldSpec.from_degree(n)
    a, f = normal._scanned(spec)
    assert a == find_normal(spec) and f == corresponding_vector(spec, a)
