"""Vector validation and the end-to-end construction pipelines."""

import hashlib
import random
import sys
import threading

import pytest

from normbase import cli, construct, factor, field, normal, poly2
from normbase.construct import (
    InvalidVectorError,
    Status,
    compose,
    pow2_odd_split,
    prescribe,
    prescribe_in_subfield,
    prescribe_steps,
    validate_vector,
    weight3,
)
from normbase.field import FieldSpec, frobenius
from normbase.normal import corresponding_vector, find_normal, is_normal
from normbase.oracle import (
    check_characterization,
    check_factorization,
    check_necessary,
    check_self_dual_existence,
)
from normbase.poly2 import (
    CyclicPoly,
    cyclic_mul,
    is_irreducible,
    is_symmetric,
    is_unit_mod_cyclic,
    reciprocal,
    symmetric_vectors,
)

from prices import at_both_prices, at_prices, each_price
from rank_reference import is_subfield_normal_by_rank


def e0(n):
    return CyclicPoly(n, 1)


def test_split():
    assert pow2_odd_split(12) == (4, 3)
    assert pow2_odd_split(16) == (16, 1)
    assert pow2_odd_split(21) == (1, 21)


# ---- validation ----

def test_validate_two_power():
    assert validate_vector(16, CyclicPoly.from_support(16, {0, 1, 15})).status is Status.VALID
    v = validate_vector(16, e0(16))
    assert v.status is Status.INVALID
    assert any(r.startswith("FAIL") and "odd" in r for r in v.reasons)


def test_validate_odd():
    assert validate_vector(5, CyclicPoly.from_coeffs([1, 1, 0, 0, 1])).status is Status.VALID
    assert validate_vector(5, e0(5)).status is Status.VALID
    assert validate_vector(5, CyclicPoly.from_coeffs([1, 1, 0, 0, 0])).status is Status.INVALID
    # symmetric but sharing a factor with x^3-1
    assert validate_vector(3, CyclicPoly(3, 0b111)).status is Status.INVALID


def test_validate_degenerate_sizes():
    assert validate_vector(1, CyclicPoly(1, 1)).status is Status.VALID
    assert validate_vector(1, CyclicPoly(1, 0)).status is Status.INVALID
    assert validate_vector(2, CyclicPoly.from_coeffs([1, 0])).status is Status.VALID
    assert validate_vector(2, CyclicPoly.from_coeffs([1, 1])).status is Status.INVALID


def test_validate_composite_is_necessary_only():
    ok = CyclicPoly.from_support(12, {0, 3, 9})
    assert validate_vector(12, ok).status is Status.NECESSARY_ONLY
    assert validate_vector(12, e0(12)).status is Status.INVALID
    # n = 2 mod 4 with odd part > 1 also gets only necessary conditions
    sixes = corresponding_vector(FieldSpec.from_degree(6), find_normal(FieldSpec.from_degree(6)))
    assert validate_vector(6, sixes).status is Status.NECESSARY_ONLY


def test_validate_length_mismatch():
    for decide in (validate_vector, construct._flags):
        with pytest.raises(ValueError, match="^vector length mismatch: 4 != 8$"):
            decide(8, CyclicPoly(4, 1))


def _pinned_vectors():
    """Every vector at n <= 12, then seeded ones, half symmetrized, at larger n of each kind."""
    for n in range(1, 13):
        for bits in range(1 << n):
            yield CyclicPoly(n, bits)
    rng = random.Random(35)
    for n in (15, 16, 21, 32, 33, 64):
        for i in range(400):
            a = CyclicPoly(n, rng.getrandbits(n))
            yield CyclicPoly(n, a.bits | reciprocal(a).bits) if i % 2 else a


# sha256 of every pinned vector's (n, bits, status, reasons), as validate_vector rendered them
# when each rule still built its text with its flags
VERDICTS_SHA256 = "4fdb39f580c37cbd63d1ee9ebd14ec66e030b612e1d7a7ccccf30c3c3a415da6"


def test_verdicts_pinned_and_decided_by_the_flags():
    for prices in each_price():
        digest = hashlib.sha256()
        with prices:
            for a in _pinned_vectors():
                verdict = validate_vector(a.n, a)
                digest.update(repr((a.n, a.bits, verdict.status.value, verdict.reasons)).encode())
                assert construct._flags(a.n, a) == [passed for _, passed in verdict.checks]
        assert digest.hexdigest() == VERDICTS_SHA256


def test_necessary_conditions_examples(f12):
    good = validate_vector(12, CyclicPoly.from_support(12, {0, 3, 9}))
    assert good.status is Status.NECESSARY_ONLY
    bad = validate_vector(12, e0(12))
    assert bad.status is Status.INVALID
    with pytest.raises(ValueError, match="necessary conditions apply"):
        check_necessary(FieldSpec.from_degree(8))   # pure 2-power not covered
    with pytest.raises(ValueError, match="necessary conditions apply"):
        check_necessary(FieldSpec.from_degree(6))   # 2-power part too small


def test_all_normal_vectors_pass_necessary_conditions(f12, per_element):
    from normbase.oracle import enumerate_normal
    for _, vec in per_element(f12, enumerate_normal(f12)):
        verdict = validate_vector(12, vec)
        assert verdict.status is Status.NECESSARY_ONLY


# ---- prescription ----

def test_prescribe_self_dual_in_gf8():
    spec = FieldSpec.from_degree(3)
    alpha = prescribe(spec, e0(3))
    assert corresponding_vector(spec, alpha) == e0(3)
    assert is_normal(spec, alpha)


def test_prescribe_rejects_invalid(f16):
    with pytest.raises(InvalidVectorError, match="There isn't such a normal element"):
        prescribe(f16, e0(16))


def test_prescribe_rejects_unsupported_sizes(f12):
    with pytest.raises(ValueError, match="compose"):
        prescribe(f12, CyclicPoly.from_support(12, {0, 3, 9}))
    with pytest.raises(ValueError):
        prescribe(FieldSpec.from_degree(2), CyclicPoly.from_coeffs([1, 0]))


def test_prescribe_rejects_non_normal_base(f16):
    with pytest.raises(ValueError, match="not normal"):
        prescribe(f16, CyclicPoly.from_support(16, {0, 1, 15}), beta=0)


def test_invalid_vector_is_reported_before_a_non_normal_base(f16):
    # the pipeline validates before it takes its base, so the vector's fault is the one named
    with pytest.raises(InvalidVectorError, match="FAIL: a\\[0\\] = 1"):
        prescribe_steps(f16, CyclicPoly(16, 0), beta=0)


def test_prescribe_vector_independent_of_base(f16):
    target = CyclicPoly.from_support(16, {0, 3, 13})
    assert validate_vector(16, target).status is Status.VALID
    a1 = prescribe(f16, target)  # scan base
    a2 = prescribe(f16, target, beta=find_normal(f16, seed=99))
    assert corresponding_vector(f16, a1) == corresponding_vector(f16, a2) == target


def test_prescribe_roundtrip_all_valid_vectors_small():
    for n in (4, 8):
        spec = FieldSpec.from_degree(n)
        from normbase.oracle import predicted_vectors
        for v in predicted_vectors(n):
            assert corresponding_vector(spec, prescribe(spec, v)) == v
    spec = FieldSpec.from_degree(7)
    from normbase.oracle import predicted_vectors
    for v in predicted_vectors(7):
        assert corresponding_vector(spec, prescribe(spec, v)) == v


# ---- subfield prescription ----

def test_prescribe_in_subfield_at_top_equals_prescribe(f16):
    target = CyclicPoly.from_support(16, {0, 1, 15})
    alpha = prescribe_in_subfield(f16, 16, target)
    assert corresponding_vector(f16, alpha) == target


def test_prescribe_in_subfield_length_four(f12, naive_subfield_vector):
    target = CyclicPoly.from_coeffs([1, 1, 0, 1])
    alpha = prescribe_in_subfield(f12, 4, target)
    assert frobenius(f12, alpha, 4) == alpha
    assert is_subfield_normal_by_rank(f12, alpha, 4)
    assert naive_subfield_vector(f12, alpha, 4) == target
    # cross-check by exhausting the 16 subfield elements
    matches = [a for a in range(f12.order)
               if frobenius(f12, a, 4) == a
               and is_subfield_normal_by_rank(f12, a, 4)
               and naive_subfield_vector(f12, a, 4) == target]
    assert alpha in matches


def test_prescribe_in_subfield_length_three(f12, naive_subfield_vector):
    target = e0(3)
    alpha = prescribe_in_subfield(f12, 3, target)
    assert is_subfield_normal_by_rank(f12, alpha, 3)
    assert naive_subfield_vector(f12, alpha, 3) == target
    matches = [a for a in range(f12.order)
               if frobenius(f12, a, 3) == a
               and naive_subfield_vector(f12, a, 3) == target]
    assert matches and alpha in matches


def test_prescribe_in_subfield_degenerate(f12, naive_subfield_vector):
    one = prescribe_in_subfield(f12, 1, CyclicPoly(1, 1))
    assert one == 1
    two = prescribe_in_subfield(f12, 2, CyclicPoly.from_coeffs([1, 0]))
    assert frobenius(f12, two, 2) == two
    assert naive_subfield_vector(f12, two, 2) == CyclicPoly.from_coeffs([1, 0])


def test_prescribe_in_subfield_rejects(f12):
    with pytest.raises(InvalidVectorError):
        prescribe_in_subfield(f12, 4, e0(4))
    with pytest.raises(ValueError):
        prescribe_in_subfield(f12, 5, e0(5))
    with pytest.raises(ValueError):
        prescribe_in_subfield(f12, 6, e0(6))  # even, not a 2-power, not 2


PRESCRIPTION_SCOPE = ("prescription requires n a power of two >= 4 or odd n, got {} "
                      "(use compose/weight3 for other composite sizes)")
AUDIT_SCOPE = "characterization covers n = 2^s >= 4 or odd n, got {}"


@pytest.mark.parametrize("entry, args, message", [
    (prescribe, (2, e0(2)), PRESCRIPTION_SCOPE.format(2)),
    (prescribe, (6, e0(6)), PRESCRIPTION_SCOPE.format(6)),
    (prescribe_in_subfield, (12, 6, e0(6)),
     "subfield prescription requires t a power of two, t = 2, or odd t, got 6"),
    (check_characterization, (2,), AUDIT_SCOPE.format(2)),
    (check_characterization, (6,), AUDIT_SCOPE.format(6)),
], ids=["prescribe-2", "prescribe-6", "prescribe_in_subfield-6",
        "check_characterization-2", "check_characterization-6"])
def test_degree_scope_checks_keep_their_errors(entry, args, message):
    # the paper's scope, n = 2^s >= 4 or odd n (and t = 2 for a subfield), checked before any work
    n, *rest = args
    with pytest.raises(ValueError) as raised:
        entry(FieldSpec.from_degree(n), *rest)
    assert str(raised.value) == message


# ---- composition ----

def test_compose_degenerate_odd_part(f16):
    target = CyclicPoly.from_support(16, {0, 1, 15})
    gamma, c = compose(f16, target, CyclicPoly(1, 1))
    assert c == target
    assert is_normal(f16, gamma)


def test_compose_twelve(f12):
    gamma, c = compose(f12, CyclicPoly.from_coeffs([1, 1, 0, 1]), e0(3))
    assert is_normal(f12, gamma)
    assert corresponding_vector(f12, gamma) == c
    assert c.support() == (0, 3, 9)


def test_compose_rejects_invalid_parts(f12):
    with pytest.raises(InvalidVectorError):
        compose(f12, e0(4), e0(3))
    with pytest.raises(ValueError):
        compose(f12, e0(3), e0(4))  # lengths swapped


def test_compose_n_equals_two_mod_four():
    spec6 = FieldSpec.from_degree(6)
    gamma, c = compose(spec6, CyclicPoly.from_coeffs([1, 0]), e0(3))
    assert is_normal(spec6, gamma)
    assert corresponding_vector(spec6, gamma) == c
    assert c.support() == (0,)  # product vector is e_0: a self-dual element


# ---- weight 3 ----

@pytest.mark.parametrize("n,support", [
    (16, (0, 1, 15)),
    (12, (0, 3, 9)),
    (20, (0, 5, 15)),
])
def test_weight3_supports(n, support):
    spec = FieldSpec.from_degree(n)
    gamma, c = weight3(spec)
    assert c.weight() == 3
    assert c.support() == support
    assert is_normal(spec, gamma)


def test_weight3_support_closed_under_reversal():
    for n in (8, 12, 16):
        spec = FieldSpec.from_degree(n)
        for i0 in range(1, pow2_odd_split(n)[0], 2):
            _, c = weight3(spec, i0)
            assert {(n - k) % n for k in c.support()} == set(c.support())


def test_subfield_base_kept_per_degree(monkeypatch):
    spec = FieldSpec.from_degree(60)
    first = weight3(spec)
    calls = []
    for name in ("_scanned", "_base"):
        real = getattr(construct, name)
        monkeypatch.setattr(construct, name,
                            lambda *args, _name=name, _real=real: calls.append(_name) or _real(*args))
    assert weight3(spec) == first
    assert calls == []


def test_weight3_rejects():
    with pytest.raises(ValueError):
        weight3(FieldSpec.from_degree(6))
    with pytest.raises(ValueError):
        weight3(FieldSpec.from_degree(16), i0=2)
    with pytest.raises(ValueError):
        weight3(FieldSpec.from_degree(16), i0=17)


# ---- the kept basis-change map ----

def _seeded_modulus(n: int) -> int:
    rng = random.Random(n)
    while not is_irreducible(f := rng.randrange(1 << n, 1 << (n + 1))):
        pass
    return f


@pytest.mark.parametrize("n", range(1, 65))
def test_kept_basis_change_matches_apply_basis_change(n, basis_change):
    seeded, default = FieldSpec(n, _seeded_modulus(n)), FieldSpec.from_degree(n)
    s2, m = pow2_odd_split(n)
    rng = random.Random(n)
    for spec in (seeded, default):
        bases = [construct._base(spec, n, find_normal(spec, seed=n))]
        # on the default modulus at n = 63 the scan runs to its cap (about 2 s);
        # test_acceptance covers that degree
        if not (n == 63 and spec is default):
            bases += [construct._kept_base(spec, t)[0] for t in sorted({n, s2, m})]
        for base in bases:
            beta, _, b_inv, conjugates = base
            t = len(conjugates)
            assert conjugates == [frobenius(spec, beta, i) for i in range(t)]
            if not (construct._characterized(t) or t == 2):
                continue  # no pipeline runs at a composite t, so no base tabulates its map
            tables = construct._base_tables(base)[1]
            for a in [_seeded_valid_vector(rng, t) for _ in range(10)]:
                g = construct._factor(cyclic_mul(a, b_inv))
                expected = basis_change(spec, beta, CyclicPoly(n, g.bits))
                assert construct._lift(base, a) == expected
                assert poly2._linear(tables, a.bits) == expected


def test_warm_prescribe_squares_at_most_half_the_degree(monkeypatch):
    spec = FieldSpec.from_degree(64)
    target = CyclicPoly.from_support(64, {0, 1, 63})
    first = prescribe(spec, target)  # builds and keeps the default base
    square, linear = spec._square, field._linear
    squarings = []

    def counted(tables, a):
        if tables is square:
            squarings.append(a)
        return linear(tables, a)

    monkeypatch.setattr(field, "_linear", counted)  # field reads every vector
    assert prescribe(spec, target) == first
    assert 0 < len(squarings) <= 64 // 2 + 1


@pytest.mark.parametrize("n", [1, 3, 4, 5, 7, 8, 9, 11])
def test_kept_tables_and_loops_prescribe_alike_on_every_valid_vector(n):
    # whole records: beta, its vector and that vector's inverse, quotient, change and element
    valid = _valid_vectors(n)
    tables, loops = at_both_prices(FieldSpec.from_degree(n),
                                   lambda s: [prescribe_steps(s, a) for a in valid])
    assert tables == loops and len(loops) == len(valid) > 0


@pytest.mark.parametrize("n", [16, 21, 32, 33, 64])
def test_kept_tables_and_loops_prescribe_alike_on_seeded_vectors(n):
    spec = FieldSpec.from_degree(n)
    rng = random.Random(n)
    targets = [_seeded_valid_vector(rng, n) for _ in range(30)]
    tables, loops = at_both_prices(spec, lambda s: [prescribe_steps(s, a) for a in targets])
    assert tables == loops and len(loops) == 30


@pytest.mark.parametrize("n", [12, 20, 60])
def test_kept_tables_and_loops_compose_alike(n):
    spec = FieldSpec.from_degree(n)
    s2, m = pow2_odd_split(n)
    rng = random.Random(n)
    parts = [(_seeded_valid_vector(rng, s2), _seeded_valid_vector(rng, m)) for _ in range(5)]

    def run(s):
        return [compose(s, a, b) for a, b in parts] + [weight3(s, i0) for i0 in range(1, s2, 2)]
    tables, loops = at_both_prices(spec, run)
    assert tables == loops


@pytest.mark.parametrize("n, support", [(4, {0, 1, 3}), (21, {0}), (64, {0, 1, 63})])
def test_a_kept_base_builds_its_tables_once_it_has_served_its_rent(monkeypatch, n, support):
    # the loops serve the "lift" price of prescriptions, about the cost of building the table,
    # and the table serves from the next one on
    rent = poly2._PRICES["lift"]
    spec = FieldSpec.from_degree(n)
    target = CyclicPoly.from_support(n, support)
    element = prescribe(FieldSpec.from_degree(n), target)
    loops = []
    for name in ("cyclic_mul", "_picked_sum"):
        real = getattr(construct, name)
        monkeypatch.setattr(construct, name,
                            lambda *args, _name=name, _real=real: loops.append(_name) or _real(*args))
    for k in range(rent):
        assert prescribe(spec, target) == element
        assert spec._held[n] == k + 1
    assert loops == ["cyclic_mul", "_picked_sum"] * rent
    assert prescribe(spec, target) == element
    assert type(spec._held[n]) is tuple and type(spec._held[n][1]) is list
    # the build lifts each monomial x^j once; from then on no request calls a loop
    assert loops == ["cyclic_mul", "_picked_sum"] * (rent + n)
    built = len(loops)
    assert prescribe(spec, target) == element
    assert len(loops) == built
    # an explicit base serves by the loops, however often, and keeps no tables
    beta = find_normal(spec, seed=1)
    for _ in range(rent + 1):
        prescribe(spec, target, beta)
    assert len(loops) == built + 2 * (rent + 1)


def test_each_fork_switches_at_its_own_price():
    # three distinct prices, so a site that names another fork's entry of the one table
    # switches at the wrong count
    with at_prices(frobenius=3, lift=5, units=7):
        one = CyclicPoly(15, 1)  # at a ring size no spec below tests
        for k in range(7):
            assert is_unit_mod_cyclic(one) and poly2._units[15] == k + 1
        assert is_unit_mod_cyclic(one) and type(poly2._units[15]) is tuple
        spec = FieldSpec.from_degree(21)
        for k in range(3):
            corresponding_vector(spec, k + 1)
            assert spec._held["frobenius"] == k + 1
        corresponding_vector(spec, 4)
        assert type(spec._held["frobenius"]) is tuple
        for k in range(5):
            prescribe(spec, CyclicPoly(21, 1))
            assert spec._held[21] == k + 1
        prescribe(spec, CyclicPoly(21, 1))
        assert type(spec._held[21]) is tuple


def test_a_spec_keeps_what_it_builds_later_in_its_one_store(monkeypatch):
    # vectors, kept bases past their switch and the audits add no attribute to a spec
    attributes = {"n", "modulus", "_square", "_held"}
    spec = FieldSpec.from_degree(21)
    for a in range(1, poly2._PRICES["frobenius"] + 2):  # past the Frobenius table's switch
        corresponding_vector(spec, a)
    assert set(vars(spec)) == attributes and type(spec._held["frobenius"]) is tuple
    for _ in range(poly2._PRICES["lift"] + 1):  # past the kept base's switch
        prescribe(spec, CyclicPoly(21, 1))
    assert set(vars(spec)) == attributes and type(spec._held[21]) is tuple
    sub = FieldSpec.from_degree(12)
    for _ in range(poly2._PRICES["lift"] + 1):
        weight3(sub)
        compose(sub, CyclicPoly.from_support(4, {0, 1, 3}), CyclicPoly(3, 1))
    assert set(vars(sub)) == attributes and all(type(sub._held[t]) is tuple for t in (3, 4))
    made = []
    from_degree = FieldSpec.from_degree
    monkeypatch.setattr(FieldSpec, "from_degree",
                        classmethod(lambda cls, n: made.append(from_degree(n)) or made[-1]))
    for check, n in [(check_characterization, 5), (check_factorization, 8), (check_necessary, 12)]:
        assert check(FieldSpec.from_degree(n)).ok
    assert check_self_dual_existence(6).ok
    assert len(made) == 8 and all(set(vars(s)) == attributes for s in made)


def test_prescribe_and_the_subfield_path_build_no_prescription(monkeypatch):
    built = []
    real = construct.Prescription
    monkeypatch.setattr(construct, "Prescription", lambda *args: built.append(args) or real(*args))
    spec = FieldSpec.from_degree(21)
    rng = random.Random(21)
    rent = poly2._PRICES["lift"]
    targets = [_seeded_valid_vector(rng, 21) for _ in range(rent + 2)]  # past the switch
    elements = [prescribe(spec, a) for a in targets]
    prescribe(spec, targets[0], find_normal(spec, seed=1))
    wide = FieldSpec.from_degree(12)
    for _ in range(rent + 2):
        prescribe_in_subfield(wide, 3, CyclicPoly(3, 1))
        weight3(wide)
    assert built == []
    assert prescribe_steps(spec, targets[0]).element == elements[0] and len(built) == 1


@pytest.mark.parametrize("n", [1, 3, 4, 5, 7, 8, 9, 11])
def test_prescribe_is_the_element_of_prescribe_steps_on_every_valid_vector(n):
    spec, valid = FieldSpec.from_degree(n), _valid_vectors(n)
    expected = [prescribe_steps(spec, a).element for a in valid]
    assert [prescribe(spec, a) for a in valid * 3] == expected * 3 and valid  # past the switch


@pytest.mark.parametrize("n", [21, 32, 33, 64])
def test_prescribe_is_the_element_of_prescribe_steps_on_seeded_vectors(n):
    spec = FieldSpec.from_degree(n)
    rng = random.Random(n)
    # both sides of the switch
    targets = [_seeded_valid_vector(rng, n) for _ in range(2 * poly2._PRICES["lift"])]
    assert [prescribe(spec, a) for a in targets] == [
        prescribe_steps(spec, a).element for a in targets]


def test_threads_sharing_a_spec_prescribe_the_same_elements():
    # threads that race on the count lose counts or build the tables twice; every element
    # they get, by either path, is the one a fresh spec gives
    spec = FieldSpec.from_degree(33)
    rng = random.Random(33)
    targets = [_seeded_valid_vector(rng, 33) for _ in range(3 * poly2._PRICES["lift"])]
    fresh = FieldSpec.from_degree(33)
    expected = [prescribe(fresh, a) for a in targets]
    results = {}

    def run(k):
        results[k] = [prescribe(spec, a) for a in targets]
    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]  # more than the cores
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
    assert type(spec._held[33][1]) is list


# ---- subfield results pinned ----

# sha256 of _subfield_results(); a deliberate change to what the subfield
# prescriptions, compose or weight3 return must update it
SUBFIELD_RESULTS_SHA256 = "e521566b3057c7ecb70ed7634848215083870c1f0187561922a86ff862d01e08"


def _seeded_valid_vector(rng, t):
    while True:
        a = CyclicPoly(t, rng.getrandbits(t))
        a = CyclicPoly(t, a.bits | reciprocal(a).bits)  # symmetric
        if validate_vector(t, a).status is Status.VALID:
            return a


def _subfield_results():
    """Lines (n, modulus, t, a, element): every supported t < n, compose and each weight3 i0."""
    for n in (12, 20, 24, 30, 36, 40, 60, 62):
        s2, m = pow2_odd_split(n)
        rng = random.Random(n)
        for spec in (FieldSpec.from_degree(n), FieldSpec(n, _seeded_modulus(n))):
            head = f"{n} {spec.modulus:#x}"
            for t in range(1, n):
                if n % t == 0 and (t % 2 or t & (t - 1) == 0):
                    for a in (_seeded_valid_vector(rng, t) for _ in range(2)):
                        yield f"{head} {t} {a} {prescribe_in_subfield(spec, t, a):#x}"
            a, b = _seeded_valid_vector(rng, s2), _seeded_valid_vector(rng, m)
            gamma, c = compose(spec, a, b)
            yield f"{head} compose {a} {b} {gamma:#x} {c}"
            for i0 in range(1, s2, 2) if n % 4 == 0 else ():
                gamma, c = weight3(spec, i0)
                yield f"{head} weight3 {i0} {gamma:#x} {c}"


def test_subfield_results_pinned():
    # at the default prices each (spec, t) serves two prescriptions, so only price 0 reads a
    # subfield base's tables
    for prices in each_price():
        with prices:
            digest = hashlib.sha256("\n".join(_subfield_results()).encode()).hexdigest()
        assert digest == SUBFIELD_RESULTS_SHA256


# ---- each fact proved once: the pipeline's closing vector check ----

def _valid_vectors(n):
    if n % 2:
        candidates = symmetric_vectors(n)
    else:  # the symmetric vectors with a_0 = 1 and a_{n/2} = 0
        candidates = (CyclicPoly(n, 1 | p << 1 | reciprocal(CyclicPoly(n, p << 1)).bits)
                      for p in range(1 << (n // 2 - 1)))
    return [a for a in candidates if validate_vector(n, a).status is Status.VALID]


@pytest.mark.parametrize("n", [16, 21, 32, 33, 64])
def test_warm_prescribe_skips_the_public_factor_checks(monkeypatch, n):
    spec = FieldSpec.from_degree(n)
    rng = random.Random(n)
    targets = []
    while len(targets) < 5:
        a = CyclicPoly(n, rng.getrandbits(n))
        a = CyclicPoly(n, a.bits | reciprocal(a).bits)  # symmetric
        if validate_vector(n, a).status is Status.VALID:
            targets.append(a)
    first = [prescribe(spec, a) for a in targets]  # builds and keeps the default base
    calls = []
    for module in (factor, construct):
        for name in ("in_H", "factor_2power"):
            if hasattr(module, name):
                real = getattr(module, name)
                monkeypatch.setattr(module, name,
                                    lambda *args, _name=name, _real=real:
                                    calls.append(_name) or _real(*args))
    assert [prescribe(spec, a) for a in targets] == first
    assert calls == []


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_valid_two_power_vectors_give_quotients_in_H(n):
    # what factor_2power's in_H check would prove: a valid a makes h = a * b^(-1) a member of H
    (_, _, b_inv, _), _ = construct._kept_base(FieldSpec.from_degree(n), n)
    valid = _valid_vectors(n)
    assert len(valid) == 1 << (n // 2 - 2)
    assert all(factor.in_H(cyclic_mul(a, b_inv)) for a in valid)


@pytest.mark.parametrize("n", range(3, 22, 2))
def test_valid_odd_vectors_give_symmetric_quotients(n):
    # what _factor needs to give an odd factor: a valid a makes h = a * b^(-1) symmetric
    (_, _, b_inv, _), _ = construct._kept_base(FieldSpec.from_degree(n), n)
    valid = _valid_vectors(n)
    assert valid
    assert all(is_symmetric(cyclic_mul(a, b_inv)) for a in valid)


def test_wrong_factor_is_caught_by_the_closing_check(monkeypatch, capsys):
    spec = FieldSpec.from_degree(16)
    target = CyclicPoly.from_support(16, {0, 1, 15})
    (_, _, b_inv, _), _ = construct._kept_base(spec, 16)
    solve = factor._factor

    def flipped(h):  # another member of G: free coefficient 1 and its mirror n - 2 flipped
        g = solve(h)
        return CyclicPoly(g.n, g.bits ^ (1 << 1) ^ (1 << (g.n - 2)))

    for module in (factor, construct):
        monkeypatch.setattr(module, "_factor", flipped)
    with pytest.raises(RuntimeError, match="prescribed vector mismatch"):
        prescribe(spec, target)
    vector = ",".join(map(str, target.coeffs()))
    assert cli.main(["prescribe", "--degree", "16", "--vector", vector]) == cli.EX_VERIFY
    out, err = capsys.readouterr()
    assert out == "" and "prescribed vector mismatch" in err
    with pytest.raises(RuntimeError, match="solved factor fails verification"):
        factor.factor_2power(cyclic_mul(target, b_inv))


@pytest.mark.parametrize("n,count", [(6, 2), (10, 12), (12, 8), (14, 56), (18, 112), (20, 192),
                                     (22, 992), (24, 512), (28, 3584)])
def test_composite_rule_passes_a_fixed_count_of_symmetric_vectors(n, count):
    # the 2-power rule on the fold onto 2^s entries, the odd rule on the fold onto m
    assert sum(validate_vector(n, v).status is Status.NECESSARY_ONLY
               for v in symmetric_vectors(n)) == count


def test_composite_reasons_name_each_fold():
    verdict = validate_vector(12, CyclicPoly.from_support(12, {0, 2, 10}))
    assert verdict.status is Status.INVALID
    assert verdict.reasons == (
        "ok: symmetric (a[i] = a[n-i])",
        "ok: a mod x^4-1 = 1,0,0,0: a[0] = 1",
        "ok: a mod x^4-1 = 1,0,0,0: a[2] = 0",
        "ok: a mod x^4-1 = 1,0,0,0: symmetric (a[i] = a[n-i])",
        "FAIL: a mod x^4-1 = 1,0,0,0: sum of a[i] over odd i < 2 equals 1",
        "ok: a mod x^3-1 = 1,1,1: symmetric (a[i] = a[n-i])",
        "FAIL: a mod x^3-1 = 1,1,1: coprime to x^3-1 (common factor x^2+x+1)",
        "conditions for n = 4*3 are necessary only; "
        "sufficiency is open (see compose/weight3 for constructive cases)",
    )


def test_reasons_at_n_equals_two():
    reasons = [validate_vector(2, CyclicPoly(2, bits)).reasons for bits in range(4)]
    assert reasons == [
        ("FAIL: a[0] = 1", "ok: a[1] = 0"),
        ("ok: a[0] = 1", "ok: a[1] = 0"),
        ("FAIL: a[0] = 1", "FAIL: a[1] = 0"),
        ("ok: a[0] = 1", "FAIL: a[1] = 0"),
    ]


def test_compose_verification_failure_is_an_implementation_bug(capsys, monkeypatch):
    spec = FieldSpec.from_degree(12)
    a, b = CyclicPoly(4, 0b1011), CyclicPoly(3, 1)
    original = construct.elem_mul

    def flipped(spec, x, y):  # gamma, the product of the two subfield prescriptions, plus g
        return original(spec, x, y) ^ 0b10  # (gamma + 1 has gamma's vector when n is even)

    monkeypatch.setattr(construct, "elem_mul", flipped)
    with pytest.raises(RuntimeError) as exc:
        compose(spec, a, b)
    assert str(exc.value) == "composed element fails verification (implementation bug)"
    argv = ["compose", "--degree", "12", "--vector-pow2", "1,1,0,1", "--vector-odd", "1,0,0"]
    assert cli.main(argv) == cli.EX_VERIFY
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "normbase: composed element fails verification (implementation bug)\n"


def test_weight3_support_mismatch_is_an_implementation_bug(capsys, monkeypatch):
    original = construct.compose

    def moved(spec, a, b):  # two extra support positions, 1 and 2
        gamma, c = original(spec, a, b)
        return gamma, CyclicPoly(c.n, c.bits ^ 0b110)

    monkeypatch.setattr(construct, "compose", moved)
    with pytest.raises(RuntimeError) as exc:
        weight3(FieldSpec.from_degree(12))
    assert str(exc.value) == "weight-3 support mismatch (implementation bug)"
    assert cli.main(["weight3", "--degree", "12"]) == cli.EX_VERIFY
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "normbase: weight-3 support mismatch (implementation bug)\n"


@pytest.mark.parametrize("n, run, checks", [
    (21, lambda spec: prescribe(spec, e0(21)), 1),
    (60, weight3, 3),
])
def test_cold_field_computes_each_vector_once(monkeypatch, n, run, checks):
    # the scan keeps its element's vector and the default bases fold it: on a fresh spec the
    # vectors read are the scan's candidates, the closing checks and compose's check, none by
    # _base; at t = n the closing check reads entries 0 .. n/2 alone (_half_vector)
    spec = FieldSpec.from_degree(n)
    scanned, checked = [], []
    for module, name, reads in ((normal, "corresponding_vector", scanned),
                                (construct, "corresponding_vector", checked),
                                (construct, "_half_vector", checked)):
        monkeypatch.setattr(module, name,
                            lambda s, a, _reads=reads, _real=getattr(module, name):
                            _reads.append(a) or _real(s, a))
    run(spec)
    mask = field._trace_form(spec)[0]
    start = min(1 << i for i in range(n) if mask >> i & 1) & ~0xFF
    beta = find_normal(spec)
    assert scanned == [b for b in range(start, beta + 1) if (b & mask).bit_count() & 1]
    assert len(checked) == checks
