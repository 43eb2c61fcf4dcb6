"""GF(2^n) arithmetic, Frobenius, traces, subfields."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normbase import field
from normbase.field import (
    FieldSpec,
    elem_mul,
    elem_pow,
    elem_to_hex,
    frobenius,
    parse_elem,
    rel_trace,
)
from normbase.normal import corresponding_vector
from normbase.oracle import _monomial_traces, _naive_square
from normbase.poly2 import (
    CyclicPoly,
    find_irreducible,
    is_irreducible,
    poly_mod,
    poly_mul,
    poly_to_text,
)


def test_spec_rejects_bad_moduli():
    with pytest.raises(ValueError):
        FieldSpec(2, 0b101)  # (x+1)^2 reducible
    with pytest.raises(ValueError):
        FieldSpec(3, 0b111)  # degree mismatch
    with pytest.raises(ValueError):
        FieldSpec(70, (1 << 70) | 1)  # over the desk-scale bound


def test_spec_from_degree_deterministic():
    assert FieldSpec.from_degree(4) == FieldSpec.from_degree(4)
    assert FieldSpec.from_degree(2).modulus == 0b111


def test_from_degree_certifies_the_found_modulus(monkeypatch):
    # the search's result is certified like a given modulus, so a faulty search cannot slip by
    reducible = find_irreducible(40) ^ 1  # x divides it
    monkeypatch.setattr(field, "find_irreducible", lambda n: reducible)
    with pytest.raises(ValueError) as exc:
        FieldSpec.from_degree(40)
    assert str(exc.value) == f"modulus {poly_to_text(reducible)} is reducible"


def _accepts(n, f):
    try:
        FieldSpec(n, f)
    except ValueError as e:
        assert str(e) == f"modulus {poly_to_text(f)} is reducible"
        return False
    return True


def test_certification_matches_trial_division_exhaustively():
    from test_poly2 import _is_irreducible_brute
    for n in range(1, 13):
        for f in range(1 << n, 1 << (n + 1)):
            assert _accepts(n, f) == _is_irreducible_brute(f), poly_to_text(f)


def test_only_the_gcd_rejects_a_product_of_irreducibles_of_degree_n_over_p():
    from test_acceptance import Budget
    # p distinct irreducibles of degree n/p: x^(2^n) = x mod their product f, and the gcd
    # at step n/p is the only one that sees a factor of f
    cases = []
    with Budget(10.0):
        for n in range(2, 65):
            for p in (q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))):
                d = n // p
                irreducibles = (g for g in range(1 << d, 1 << (d + 1)) if is_irreducible(g))
                factors = list(itertools.islice(irreducibles, p))
                if len(factors) < p:
                    continue
                f = functools.reduce(poly_mul, factors)
                h = 2
                for _ in range(n):
                    h = poly_mod(poly_mul(h, h), f)
                assert h == 2
                assert not _accepts(n, f)
                cases.append((n, p))
    assert (64, 2) in cases and (12, 3) in cases and len(cases) == 61, cases


def test_spec_parse():
    assert FieldSpec.parse(16, "x^16+x^5+x^3+x^2+1") == FieldSpec(16, 0x1002D)
    with pytest.raises(ValueError) as info:
        FieldSpec.parse(16, "1+x+x^10000000000")
    assert str(info.value) == "modulus x^10000000000+x+1 does not have degree 16"
    with pytest.raises(ValueError, match="extension degree"):  # the degree is checked first
        FieldSpec.parse(99, "x^10000000000+1")
    with pytest.raises(ValueError, match="bad term"):  # and the text before either
        FieldSpec.parse(99, "x^10000000000+y")


def test_generator_power_reduction(f16):
    # x^16 = x^5+x^3+x^2+1 mod the defining polynomial
    assert elem_pow(f16, f16.generator, 16) == 0x2D


def test_mul_add_basics(f16):
    rng = random.Random(1)
    for _ in range(100):
        a = rng.randrange(f16.order)
        assert elem_mul(f16, a, 1) == a
        assert frobenius(f16, a, 1) == elem_mul(f16, a, a)


def test_element_range_checked(f16):
    with pytest.raises(ValueError):
        elem_mul(f16, 1 << 16, 1)
    with pytest.raises(ValueError, match="is not an element of GF"):
        frobenius(f16, -1, 1)


def test_pow_edge_cases(f16):
    assert elem_pow(f16, 0, 0) == 1
    assert elem_pow(f16, 0, 5) == 0
    assert elem_pow(f16, 3, 0) == 1
    # exponents reduce mod 2^n - 1 for nonzero base
    assert elem_pow(f16, 3, f16.order - 1) == 1
    assert elem_pow(f16, 3, f16.order) == 3
    with pytest.raises(ValueError):
        elem_pow(f16, 3, -1)


@pytest.mark.parametrize("spec", [FieldSpec(1, 0b10), FieldSpec(1, 0b11), FieldSpec.from_degree(2),
                                  FieldSpec(16, 0x1002D), FieldSpec.from_degree(64)],
                         ids=["1x", "1x+1", "2", "16", "64"])
def test_pow_is_repeated_multiplication(spec):
    n = spec.n
    for a in sorted({0, 1, spec.generator, random.Random(n).randrange(spec.order)}):
        power = 1
        for e in range(40):
            assert elem_pow(spec, a, e) == power
            power = elem_mul(spec, power, a)
        # a^(2^n) by n squarings, a^(2^n - 1) as the product of a^(2^i), i < n
        conjugate, product = a, 1
        for _ in range(n):
            product = elem_mul(spec, product, conjugate)
            conjugate = elem_mul(spec, conjugate, conjugate)
        assert elem_pow(spec, a, 2**n - 1) == product
        assert elem_pow(spec, a, 2**n) == conjugate
        assert elem_pow(spec, a, 2**n + 1) == elem_mul(spec, conjugate, a)


def _pow_by_conjugates(spec, a, e):
    # a^e as the product of the conjugates a^(2^i) over the bits i of e, e never reduced
    power, conjugate = 1, a
    while e:
        if e & 1:
            power = elem_mul(spec, power, conjugate)
        conjugate = elem_mul(spec, conjugate, conjugate)
        e >>= 1
    return power


def test_pow_is_repeated_multiplication_at_every_degree():
    for n in range(1, 13):
        spec = FieldSpec.from_degree(n)
        for a in random.Random(n).sample(range(spec.order), min(spec.order, 8)):
            power = 1
            for e in range(3 * n):
                assert elem_pow(spec, a, e) == power, (n, a, e)
                power = elem_mul(spec, power, a)
    for n in range(1, 65):  # e up to 2^80, so above 2^n - 1 at every n but for few draws
        spec = FieldSpec.from_degree(n)
        rng = random.Random(n)
        for a, e in [(rng.randrange(spec.order), rng.getrandbits(80)) for _ in range(10)]:
            assert elem_pow(spec, a, e) == _pow_by_conjugates(spec, a, e), (n, a, e)


def test_frobenius(f16):
    rng = random.Random(2)
    for _ in range(100):
        a = rng.randrange(f16.order)
        assert frobenius(f16, a, 0) == a
        assert frobenius(f16, a, 16) == a
        assert frobenius(f16, a, 1) == elem_pow(f16, a, 2)
        assert frobenius(f16, a, -1) == frobenius(f16, a, 15)


def test_frobenius_is_field_automorphism(f16):
    rng = random.Random(3)
    for _ in range(100):
        a, b = rng.randrange(f16.order), rng.randrange(f16.order)
        assert frobenius(f16, a ^ b, 1) == frobenius(f16, a, 1) ^ frobenius(f16, b, 1)
        assert (frobenius(f16, elem_mul(f16, a, b), 1)
                == elem_mul(f16, frobenius(f16, a, 1), frobenius(f16, b, 1)))


def _naive_traces(spec):
    # the oracle's Tr(g^k), k < 2n - 1, each a sum of n conjugates squared by its naive squares;
    # the low n bits are its trace mask
    return _monomial_traces(spec, [_naive_square(spec, 1 << j) for j in range(spec.n)])


def _trace_of(spec):
    """The absolute trace as the parity of a & trace_mask, after checking the mask naively."""
    mask = field._trace_form(spec)[0]
    assert mask == _naive_traces(spec) & (spec.order - 1)
    return lambda a: (a & mask).bit_count() & 1


def test_trace_basics(f16):
    trace = _trace_of(f16)
    assert trace(0) == 0
    beta = parse_elem(f16, "pow:1,126")
    assert beta == elem_pow(f16, f16.generator, 126) ^ f16.generator
    assert trace(beta) == 1


def _trace_by_sum(spec, a):
    tr = 0
    for _ in range(spec.n):
        tr ^= a
        a = _naive_square(spec, a)
    assert tr in (0, 1)
    return tr


def test_trace_equals_conjugate_sum():
    # the cached linear form must agree with the defining power sum
    for n in range(1, 9):
        spec = FieldSpec.from_degree(n)
        trace = _trace_of(spec)
        for a in range(spec.order):
            assert trace(a) == _trace_by_sum(spec, a)
    spec = FieldSpec.from_degree(16)
    trace = _trace_of(spec)
    rng = random.Random(4)
    for _ in range(200):
        a = rng.randrange(spec.order)
        assert trace(a) == _trace_by_sum(spec, a)


@pytest.mark.parametrize("n", range(1, 13))
def test_half_of_all_elements_have_trace_one(n):
    spec = FieldSpec.from_degree(n)
    assert sum(map(_trace_of(spec), range(spec.order))) == spec.order // 2


def test_rel_trace_basics(f12):
    rng = random.Random(5)
    for _ in range(50):
        a = rng.randrange(f12.order)
        assert rel_trace(f12, a, 12) == a
        for t in (1, 2, 3, 4, 6):
            y = rel_trace(f12, a, t)
            assert frobenius(f12, y, t) == y
    with pytest.raises(ValueError, match="5 does not divide the extension degree 12"):
        rel_trace(f12, 1, 5)


@pytest.mark.parametrize("n", [12, 64])
def test_rel_trace_is_the_sum_of_the_subfield_conjugates(n):
    # the XOR of a^(2^(t*i)), i < n/t, each conjugate by naive squaring
    spec = FieldSpec.from_degree(n)
    rng = random.Random(n)
    for t in (t for t in range(1, n + 1) if n % t == 0):
        for a in [0, 1, spec.generator] + [rng.randrange(spec.order) for _ in range(10)]:
            expected, y = 0, a
            for i in range(n):
                if i % t == 0:
                    expected ^= y
                y = _naive_square(spec, y)
            assert rel_trace(spec, a, t) == expected


def test_trace_transitivity_exhaustive(f12):
    # absolute trace = subfield trace of the relative trace, every tower
    trace = _trace_of(f12)
    for t in (1, 2, 3, 4, 6, 12):
        for a in range(f12.order):
            y = rel_trace(f12, a, t)
            tr = 0
            for _ in range(t):
                tr ^= y
                y = frobenius(f12, y, 1)
            assert tr == trace(a)


def test_in_subfield(f12):
    # GF(2^4) inside GF(2^12) is the set of a with a^(2^4) = a
    assert frobenius(f12, 0, 4) == 0 and frobenius(f12, 1, 4) == 1
    count = sum(1 for a in range(f12.order) if frobenius(f12, a, 4) == a)
    assert count == 16


def test_parse_and_format(f16):
    assert parse_elem(f16, "0x2B") == 0x2B
    assert parse_elem(f16, "0x2b") == 0x2B
    assert elem_to_hex(0x2B) == "0x2B"
    assert parse_elem(f16, "pow:0") == 1
    with pytest.raises(ValueError):
        parse_elem(f16, "2B")
    with pytest.raises(ValueError):
        parse_elem(f16, "0x10000")  # out of range
    with pytest.raises(ValueError):
        parse_elem(f16, "pow:x")


# ---------- the field kernel against the oracle's naive arithmetic ----------

def _moduli(n):
    """The default modulus and up to two seeded irreducible others (fewer exist for n <= 3)."""
    rng = random.Random(n)
    mods = [find_irreducible(n)]
    for _ in range(64 * n):
        if len(mods) == 3:
            break
        f = rng.randrange(1 << n, 1 << (n + 1)) | 1
        if f not in mods and is_irreducible(f):
            mods.append(f)
    return mods


def _assert_kernel_matches_reference(spec, elements):
    mask = _naive_traces(spec) & (spec.order - 1)
    assert field._trace_form(spec)[0] == mask  # so the field's trace is the parity of a & mask
    assert spec.n != 1 or mask & 1  # Tr(1) = n mod 2: 1 in GF(2) itself
    assert spec.n % 2 or not mask & 1  # and 0 for every even n
    for a in elements:
        conjugates = [a]
        for _ in range(spec.n):
            conjugates.append(_naive_square(spec, conjugates[-1]))
        assert conjugates[-1] == a
        assert [frobenius(spec, a, k) for k in range(spec.n)] == conjugates[:-1]
        naive = sum(((elem_mul(spec, a, c) & mask).bit_count() & 1) << i
                    for i, c in enumerate(conjugates[:-1]))
        assert corresponding_vector(spec, a) == CyclicPoly(spec.n, naive)


@pytest.mark.parametrize("n", range(1, 65))
def test_kernel_matches_naive_reference(n):
    # every degree, so n = 1 (Tr(1) = 1) and even n (Tr(1) = 0) are both covered
    rng = random.Random(1000 + n)
    for modulus in _moduli(n):
        spec = FieldSpec(n, modulus)
        elements = {0, 1, spec.generator} | {rng.randrange(spec.order) for _ in range(6)}
        _assert_kernel_matches_reference(spec, sorted(elements))


@st.composite
def _degree_64_fields(draw):
    # the lower half of the degree-64 range, so the search upward stays in degree 64
    f = draw(st.integers(1 << 64, (1 << 64) | (1 << 63))) | 1
    while not is_irreducible(f):  # the next irreducible modulus above the draw
        f += 2
    return FieldSpec(64, f)


@settings(max_examples=15, deadline=None)
@given(_degree_64_fields(), st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=3))
def test_kernel_matches_naive_reference_random_moduli(spec, elements):
    _assert_kernel_matches_reference(spec, elements)


@pytest.mark.parametrize("make", [
    lambda: FieldSpec(16, 0), lambda: FieldSpec.parse(16, "0"), lambda: FieldSpec.parse(16, "0x0"),
], ids=["int", "terms", "hex"])
def test_zero_modulus_does_not_have_degree_n(make):
    # the zero polynomial has no degree, so it fails the degree check like any wrong-degree modulus
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == "modulus 0 does not have degree 16"


def test_negative_modulus_is_rejected_before_any_polynomial_work():
    from test_acceptance import Budget
    # the bit length ignores the sign, so this one has "degree 16" and once ran the
    # irreducibility test without end
    with Budget(1.0), pytest.raises(ValueError) as exc:
        FieldSpec(16, -(1 << 16) - 0x2D)
    assert str(exc.value) == "modulus must be a nonnegative int, got -65581"
    for m in (-1, -5):
        with pytest.raises(ValueError) as exc:
            FieldSpec(16, m)
        assert str(exc.value) == f"modulus must be a nonnegative int, got {m}"
    with pytest.raises(ValueError) as exc:
        FieldSpec(16, -(1 << 400000))  # above x^64 named by its hex digits, as for positive moduli
    assert str(exc.value) == "modulus must be a nonnegative int, got -0x1" + "0" * 100000


def test_hex_modulus_above_the_degree_bound_is_named_as_written():
    # rendering 10^6 hex digits term by term would take seconds and a 39 MB message
    text = "0x" + "F" * 10**6
    with pytest.raises(ValueError) as exc:
        FieldSpec.parse(16, text)
    assert str(exc.value) == f"modulus {text} does not have degree 16"
    assert len(str(exc.value)) <= len(text) + 40
    with pytest.raises(ValueError) as exc:
        FieldSpec(16, (1 << 400000) - 1)  # the constructor names it the same way
    assert str(exc.value) == "modulus 0x" + "F" * 100000 + " does not have degree 16"
    with pytest.raises(ValueError) as exc:
        FieldSpec.parse(99, "0x" + "F" * 100)  # the degree is checked first
    assert str(exc.value) == "extension degree must be in [1, 64], got 99"
    with pytest.raises(ValueError) as exc:
        FieldSpec.parse(16, "0x11")  # at most x^64: still rendered by terms
    assert str(exc.value) == "modulus x^4+1 does not have degree 16"


def test_form_reads_the_one_gram_table_as_the_byte_tables():
    # the Gram map is Hankel: row j is the power-sum sequence >> j, so one byte table,
    # shifted by 8p for byte p, gives what byte tables of the n rows give byte by byte
    for n in range(1, 65):
        rng = random.Random(n)
        while not is_irreducible(seeded := rng.randrange(1 << n, 1 << (n + 1))):
            pass
        for spec in (FieldSpec.from_degree(n), FieldSpec(n, seeded)):
            traces = _naive_traces(spec)
            tables = field._byte_tables([traces >> j & ((1 << n) - 1) for j in range(n)])
            table = field._trace_form(spec)[1]
            elements = [1 << j for j in range(n)] + [rng.randrange(spec.order) for _ in range(200)]
            for e in elements:
                assert field._form(table, e, n) == field._linear(tables, e), (n, hex(spec.modulus), e)


def test_modulus_of_degree_max_degree_at_another_n_is_named_by_its_terms():
    with pytest.raises(ValueError, match=r"^modulus x\^64\+x\^4\+x\^3\+x\+1 does not have degree 16$"):
        FieldSpec(16, (1 << 64) | 0b11011)
