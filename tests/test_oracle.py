"""Brute-force oracles: enumeration, predicted sets, factor search."""

import random
import tracemalloc
from functools import reduce
from operator import xor

import pytest

from normbase import oracle
from normbase.construct import _characterized
from normbase.factor import iter_H
from normbase.field import (
    FieldSpec,
    _byte_tables,
    _linear,
    _trace_form,
    elem_mul,
    elem_pow,
    rel_trace,
)
from normbase.normal import corresponding_vector, is_normal
from normbase.oracle import (
    ENUMERATION_CAP,
    G_SEARCH_CAP,
    _conjugate_lanes,
    _coset_planes,
    _element,
    _factorization_reference,
    _factors_in_G,
    _lanes,
    _lowest,
    _minima,
    _monomial_traces,
    _naive_square,
    _predicted,
    _vector_planes,
    achievable_vectors,
    check_characterization,
    check_factorization,
    check_necessary,
    check_self_dual_existence,
    enumerate_normal,
    predicted_vectors,
)
from normbase.poly2 import (
    CyclicPoly,
    _eliminate,
    _mirror,
    cyclic_mul,
    find_irreducible,
    is_irreducible,
    poly_mul,
    reciprocal,
)

import rank_reference
from rank_reference import _independent, _orbit, is_subfield_normal_by_rank


def test_enumeration_counts(per_element):
    for n, count in ((2, 2), (4, 8)):
        spec = FieldSpec.from_degree(n)
        assert sum(1 for _ in per_element(spec, enumerate_normal(spec))) == count


def _brute_vector(spec, a):
    # per element, multiply then trace, each trace a sum of n conjugates
    def trace(y):
        tr = 0
        for _ in range(spec.n):
            tr ^= y
            y = elem_mul(spec, y, y)
        assert tr in (0, 1)
        return tr

    bits, c = 0, a
    for i in range(spec.n):
        bits |= trace(elem_mul(spec, a, c)) << i
        c = elem_mul(spec, c, c)
    return CyclicPoly(spec.n, bits)


def _class_by_class(orbits):
    # the orbits of one vector come in one run, ascending in e
    runs = [vec for i, (_, vec) in enumerate(orbits) if i == 0 or vec != orbits[i - 1][1]]
    return len(runs) == len(set(runs)) and all(
        orbits[i - 1][0] < e for i, (e, vec) in enumerate(orbits) if i and vec == orbits[i - 1][1])


def _round_by_round(orbits):
    # round 1 yields at most one orbit per vector; round 2 the others class by class, ascending
    # within a class and above the class's round-1 orbit.  The longest prefix of distinct vectors
    # is taken as round 1: whenever some split passes, this one does
    first = {}
    for e, vec in orbits:
        if vec in first:
            break
        first[vec] = e
    later = orbits[len(first):]
    return _class_by_class(later) and all(first.get(vec, -1) < e for e, vec in later)


@pytest.mark.parametrize("n", range(1, 11))
def test_orbit_reduction_is_sound(n, per_element):
    # one yield per orbit, expanded, equals the per-element brute force over every element
    rng = random.Random(n)
    default = find_irreducible(n)
    seeded = next((f for f in (rng.randrange(1 << n, 1 << (n + 1)) | 1 for _ in range(64 * n))
                   if f != default and is_irreducible(f)), None)
    for modulus in [default] + [seeded] * (seeded is not None):
        spec = FieldSpec(n, modulus)
        orbits = list(enumerate_normal(spec))
        assert _round_by_round(orbits)
        expanded = {}
        for e, vec in orbits:
            orbit = [x for x, _ in per_element(spec, [(e, vec)])]
            assert len(set(orbit)) == n and min(orbit) == e
            assert expanded.keys().isdisjoint(orbit)
            expanded.update(dict.fromkeys(orbit, vec))
        brute = {a: _brute_vector(spec, a) for a in range(spec.order)
                 if is_subfield_normal_by_rank(spec, a, n)}
        assert expanded == brute
    assert n < 3 or seeded is not None  # a second modulus exists from n = 3 on


def _random_modulus(rng, n):
    while True:
        f = rng.randrange(1 << n, 1 << (n + 1))
        if is_irreducible(f):
            return f


def _squares(spec):
    return [_naive_square(spec, 1 << j) for j in range(spec.n)]


def _coset(spec):
    # the monomial traces, the trace mask, its lowest set bit j and the trace-one coset's planes
    traces = _monomial_traces(spec, _squares(spec))
    mask = traces & (spec.order - 1)
    return traces, mask, (mask & -mask).bit_length() - 1, _coset_planes(mask, spec.n)


def _lane_rows(spec, values):
    # the n rows of the lane generator, every value in its own lane of ceil(n/8) bytes, read
    # back lane by lane; running it to its end makes its closure check
    width = (spec.n + 7) // 8
    rows = [row.to_bytes(width * len(values), "little")
            for row in _conjugate_lanes(_squares(spec), *_lanes(values, width))]
    return [[int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]
            for raw in rows]


@pytest.mark.parametrize("n", [1, 2, 7, 8, 13, 16, 20])
def test_table_square_is_the_naive_square(n):
    # the lanes square by _naive_square of the basis monomials only: every element at n <= 12,
    # and samples above
    rng = random.Random(n)
    for modulus in {find_irreducible(n), _random_modulus(rng, n), _random_modulus(rng, n)}:
        spec = FieldSpec(n, modulus)
        samples = (list(range(spec.order)) if n <= 12 else
                   [0, 1, spec.order - 1] + [rng.randrange(spec.order) for _ in range(200)])
        rows = _lane_rows(spec, samples)
        assert rows[0] == samples
        # row 1 holds the squares; at n = 1 squaring is the identity, and the closure check
        # compared the square with row 0
        assert rows[1 % n] == [_naive_square(spec, a) for a in samples]


@pytest.mark.parametrize("n", [1, 2, 7, 8, 13, 16, 20])
def test_monomial_traces_are_the_production_traces(n):
    # bit k is Tr(g^k) for every k < 2n - 1, the degree bound of an unreduced product
    rng = random.Random(n)
    for modulus in {find_irreducible(n), _random_modulus(rng, n), _random_modulus(rng, n)}:
        spec = FieldSpec(n, modulus)
        traces = _monomial_traces(spec, _squares(spec))
        assert traces >> (2 * n - 1) == 0
        assert [traces >> k & 1 for k in range(2 * n - 1)] == [
            rel_trace(spec, elem_pow(spec, spec.generator, k), 1) for k in range(2 * n - 1)]
        # the trace of an unreduced product is the trace of the reduced one
        mask = traces & (spec.order - 1)
        pairs = [(spec.order - 1, spec.order - 1)] + [
            (rng.randrange(spec.order), rng.randrange(spec.order)) for _ in range(200)]
        for a, b in pairs:
            assert ((poly_mul(a, b) & traces).bit_count() & 1
                    == (elem_mul(spec, a, b) & mask).bit_count() & 1)


def _reference_enumeration(spec):
    # the loop before the monomial traces and the zero-sum skip: reduce each product,
    # trace it by the naive mask, and decide every full-length orbit by elimination
    mask = _monomial_traces(spec, _squares(spec)) & (spec.order - 1)
    visited = bytearray(spec.order)
    for e in range(1, spec.order):
        if visited[e]:
            continue
        orbit = _orbit(spec, e)
        for x in orbit:
            visited[x] = 1
        if len(orbit) < spec.n or not _independent(orbit):
            continue
        bits = 0
        for i, c in enumerate(orbit):
            bits |= ((elem_mul(spec, e, c) & mask).bit_count() & 1) << i
        yield e, CyclicPoly(spec.n, bits)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 13, 16, 20])
def test_trace_form_is_the_monomial_traces_regrouped(n):
    # w_e = XOR of (T >> j) over the set bits j of e, so Tr(e*c) = parity(c & w_e)
    rng = random.Random(n)
    full = (1 << n) - 1
    for modulus in {find_irreducible(n), _random_modulus(rng, n), _random_modulus(rng, n)}:
        spec = FieldSpec(n, modulus)
        traces = _monomial_traces(spec, _squares(spec))
        form = _byte_tables([traces >> j & full for j in range(n)])
        assert [_linear(form, 1 << j) for j in range(n)] == [traces >> j & full for j in range(n)]
        for _ in range(200):
            e, c = rng.randrange(spec.order), rng.randrange(spec.order)
            assert ((c & _linear(form, e)).bit_count() & 1
                    == (poly_mul(e, c) & traces).bit_count() & 1)


@pytest.mark.parametrize("n", range(1, 13))
def test_trace_first_test_is_the_sum_of_the_conjugates(n):
    # only trace-one elements are sliced: the low n bits of T give the sum of the n conjugates,
    # _element is an increasing bijection from the indices onto the elements where it is 1, the
    # coset planes hold those elements' bits, and the trace plane, entry plane 0, is all ones.
    # j, the lowest mask bit, is Tr(1) = 1 at odd n and above 0 at even n
    rng = random.Random(n)
    for modulus in (find_irreducible(n), _random_modulus(rng, n), _random_modulus(rng, n)):
        spec = FieldSpec(n, modulus)
        traces, mask, j, planes = _coset(spec)
        assert (j == 0) == (n % 2 == 1)
        trace_one = []
        for e in range(spec.order):
            orbit = _naive_orbit(spec, e)
            conjugate_sum = reduce(xor, orbit * (n // len(orbit)))  # Tr(e), n conjugates
            assert conjugate_sum in (0, 1)
            assert (e & mask).bit_count() & 1 == conjugate_sum
            trace_one += [e] * conjugate_sum
        indices = range(spec.order // 2)
        assert [_element(t, j, mask) for t in indices] == trace_one  # ascending, every one once
        assert len(planes) == n
        sliced = [sum((p >> t & 1) << k for k, p in enumerate(planes)) for t in indices]
        assert sliced == trace_one
        assert _vector_planes(_squares(spec), traces, planes)[0] == (1 << spec.order // 2) - 1


def _plane_vector(entries, n, t):
    # the vector bits of the element at index t read off the entry planes of a_0 .. a_(n/2), the
    # rest mirrored
    half = sum((plane >> t & 1) << i for i, plane in enumerate(entries))
    return half | _mirror(half, n)


def _coset_entries(spec):
    # the entry planes over the trace-one coset, and the element at each index
    traces, mask, j, planes = _coset(spec)
    return _vector_planes(_squares(spec), traces, planes), lambda t: _element(t, j, mask)


@pytest.mark.parametrize("n", range(1, 11))
def test_entry_planes_are_the_brute_vector_on_every_element(n):
    # entry plane i is the XOR over k of C_i[k] & W[k], the planes of e^(2^i) and of w_e, at
    # every index of the trace-one coset
    rng = random.Random(2000 + n)
    for modulus in (find_irreducible(n), _random_modulus(rng, n)):
        spec = FieldSpec(n, modulus)
        entries, element = _coset_entries(spec)
        indices = range(spec.order // 2)
        assert len(entries) == n // 2 + 1 and max(entries) >> len(indices) == 0
        assert ([_plane_vector(entries, n, t) for t in indices]
                == [_brute_vector(spec, element(t)).bits for t in indices])


@pytest.mark.parametrize("n", [16, 20])
def test_entry_planes_are_the_brute_vector_on_seeded_elements(n):
    rng = random.Random(n)
    spec = FieldSpec(n, _random_modulus(rng, n))
    entries, element = _coset_entries(spec)
    half = spec.order // 2
    for t in [0, 1, half - 1] + [rng.randrange(half) for _ in range(100)]:
        assert _plane_vector(entries, n, t) == _brute_vector(spec, element(t)).bits


@pytest.mark.parametrize("n", range(1, 13))
def test_minima_plane_marks_every_orbit_minimum(n):
    # index t is marked iff its element e <= each of its conjugates: one mark per trace-one
    # orbit, so round 2, which reads the classes' minima, ranks each orbit once
    spec = FieldSpec(n, _random_modulus(random.Random(3000 + n), n))
    traces, mask, j, planes = _coset(spec)
    minima = _minima(_squares(spec), planes)
    half = spec.order // 2
    assert minima >> half == 0
    marked = [_element(t, j, mask) for t in range(half) if minima >> t & 1]
    assert len(marked) == len(set(marked))
    assert set(marked) == {min(_naive_orbit(spec, e)) for e in range(spec.order)
                           if (e & mask).bit_count() & 1}


@pytest.mark.parametrize("low", [0, 63, 64, 65, 127, 128, (1 << 20) - 1])
def test_lowest_is_the_full_plane_read(low):
    # the windowed read agrees with (mask ^ mask - 1) at and around each window edge, with and
    # without bits above the lowest, and on a mask of one bit; no set bit is an error
    rng = random.Random(low)
    for mask in (1 << low, rng.getrandbits(1 << 21) << low | 1 << low):
        assert _lowest(mask) == (mask ^ mask - 1).bit_length() - 1 == low
    with pytest.raises(ValueError, match="no set bit"):
        _lowest(0)


def test_lowest_is_the_full_plane_read_on_random_masks():
    rng = random.Random(51)
    for _ in range(500):
        mask = rng.getrandbits(rng.randrange(1, 1 << 12)) << rng.randrange(1 << 12) or 1
        assert _lowest(mask) == (mask ^ mask - 1).bit_length() - 1


def test_asymmetric_entries_are_an_implementation_bug(monkeypatch):
    # a_(n-i) = a_i holds for a trace; flip Tr(g^n) and the form is no trace, so the pass,
    # which splits by a_1 .. a_(n/2) alone, must refuse before any class is walked
    spec = FieldSpec.from_degree(8)
    traces = _monomial_traces(spec, _squares(spec))
    monkeypatch.setattr(oracle, "_monomial_traces", lambda spec, squares: traces ^ 1 << spec.n)
    with pytest.raises(RuntimeError) as exc:
        next(enumerate_normal(spec))
    assert str(exc.value) == "vector entries a_i and a_(n-i) differ (implementation bug)"


def test_a_trace_zero_element_in_the_coset_is_an_implementation_bug(monkeypatch):
    # the coset comes from the mask's parity and entry plane 0 from the form of T: slice by a
    # wrong mask, whose coset holds trace-zero elements, and the pass must refuse before any
    # class is walked
    spec = FieldSpec.from_degree(8)
    coset, walked = oracle._coset_planes, []
    monkeypatch.setattr(oracle, "_coset_planes", lambda mask, n: coset(mask ^ 1, n))
    monkeypatch.setattr(oracle, "_classes", lambda entries, n: walked.append(n) or iter(()))
    with pytest.raises(RuntimeError) as exc:
        next(enumerate_normal(spec))
    assert str(exc.value) == "trace-zero element in the trace-one coset (implementation bug)"
    assert not walked


def test_characterization_at_sixteen_holds_under_a_megabyte():
    # the classes are split depth-first, so at most two masks per level are held; a
    # breadth-first list of every class mask held about 1.3 MB at n = 16
    spec = FieldSpec.from_degree(16)
    assert check_characterization(spec).ok  # imports and the spec's own values first
    tracemalloc.start()
    try:
        assert check_characterization(spec).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("audit", [check_necessary, achievable_vectors],
                         ids=["necessary", "achievable"])
def test_enumeration_at_the_cap_keeps_its_class_masks_lazy(audit):
    # round 2 splits the classes again rather than holding each class's 2^20-bit mask from
    # round 1: held, they peaked at 34 MB traced at n = 20, against about 11 MB for the
    # planes, the minima and the lanes
    from test_acceptance import Budget

    spec = FieldSpec.from_degree(20)
    with Budget(5.0):
        tracemalloc.start()
        try:
            audit(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 16 << 20


def test_necessary_violation_lines_keep_element_order(monkeypatch):
    # orbits come class by class; the report lists the failing ones by their smallest element
    spec = FieldSpec.from_degree(12)
    reference = list(_reference_enumeration(spec))
    assert [e for e, _ in enumerate_normal(spec)] != [e for e, _ in reference]
    monkeypatch.setattr(oracle, "_flags", lambda n, vec: [False])
    assert check_necessary(spec).lines[1:] == tuple(
        f"  violation at vector {vec}" for _, vec in reference for _ in range(12))


@pytest.mark.parametrize("n", range(1, 17))
def test_enumeration_matches_the_reference_loop(n):
    rng = random.Random(1000 + n)
    for modulus in (find_irreducible(n), _random_modulus(rng, n)):
        spec = FieldSpec(n, modulus)
        reference = list(_reference_enumeration(spec))
        orbits = list(enumerate_normal(spec))
        assert _round_by_round(orbits)
        assert sorted((e, vec.bits) for e, vec in orbits) == [(e, vec.bits) for e, vec in reference]
        # the audits that rank-test only the vectors they still read give the same answers
        assert achievable_vectors(spec) == {vec for _, vec in reference}
        self_dual = any(vec.bits == 1 for _, vec in reference)
        assert any(enumerate_normal(spec, lambda bits: bits == 1)) == self_dual
        if modulus == find_irreducible(n) and n >= 2:
            assert check_self_dual_existence(n).payload["rows"][-1] == {
                "n": n, "exists": self_dual, "expected": n % 4 != 0}


@pytest.mark.parametrize("seeded", [False, True])
def test_audits_rank_test_only_the_vectors_they_read(seeded, monkeypatch):
    # lanes per round: round 1 ranks the smallest element of each wanted class, round 2 the other
    # orbits of each class still wanted with more than n elements.  characterization: a vector
    # not yet found; self-dual: (1, 0, ..., 0); necessary: every class.  The counts do not
    # depend on the modulus
    calls, normal_lanes = [], oracle._normal_lanes

    def counted(n, tables, es):
        calls.append(len(es))
        return normal_lanes(n, tables, es)

    monkeypatch.setattr(oracle, "_normal_lanes", counted)
    rng = random.Random(7)

    def spec(n):
        return FieldSpec(n, _random_modulus(rng, n)) if seeded else FieldSpec.from_degree(n)

    def count(audit, arg):
        calls.clear()
        report = audit(arg)
        assert report.ok
        return calls[:]

    # 63 normal smallest elements and the class of 1 alone, which has no round 2
    assert count(check_characterization, spec(13)) == [64]
    # round 1 finds all 45 achievable vectors; round 2 ranks the 338 other orbits of the 68
    # classes of more than 15 elements among the other 83, and none is normal
    assert count(check_characterization, spec(15)) == [128, 338]
    assert count(check_characterization, spec(16)) == [64]
    assert count(check_necessary, spec(12)) == [11, 161]
    if not seeded:  # the self-dual audit runs on the default moduli only
        assert count(check_self_dual_existence, 12) == [1] * 8


def _naive_orbit(spec, alpha):
    orbit, x = [alpha], _naive_square(spec, alpha)
    while x != alpha:
        orbit.append(x)
        x = _naive_square(spec, x)
    return orbit


def _lane_orbit(spec, alpha):
    # the rows a lane of the enumeration takes, up to its first return to alpha
    rows = [row for row, in _lane_rows(spec, [alpha])]
    return rows[:(rows + [alpha]).index(alpha, 1)]


@pytest.mark.parametrize("n", [1, 6, 12, 13, 20])
def test_orbit_is_the_naive_squaring_chain(n):
    rng = random.Random(n)
    spec = FieldSpec(n, _random_modulus(rng, n))
    # subfield elements have orbits shorter than n: their length divides t
    subfield = [rel_trace(spec, rng.randrange(spec.order), t)
                for t in range(1, n + 1) if n % t == 0 for _ in range(5)]
    lengths = set()
    for alpha in [0, 1] + subfield + [rng.randrange(spec.order) for _ in range(50)]:
        orbit = _orbit(spec, alpha)
        assert orbit == _naive_orbit(spec, alpha) == _lane_orbit(spec, alpha)
        lengths.add(len(orbit))
    assert lengths == {t for t in range(1, n + 1) if n % t == 0}


@pytest.mark.parametrize("n, message", [
    (12, "ring size must be a power of two >= 4, got 12"),
    (40, "ring size must be a power of two >= 4, got 40"),
    (32, "G-restricted search capped at n <= 24, got 32"),
    (64, "G-restricted search capped at n <= 24, got 64"),
])
def test_factorization_audit_bounds_before_the_pass_over_G(n, message):
    with pytest.raises(ValueError, match=message):
        check_factorization(FieldSpec.from_degree(n))


def test_enumeration_cap():
    with pytest.raises(ValueError, match="capped at n <= 20, got 21"):
        list(enumerate_normal(FieldSpec.from_degree(21)))


def test_enumeration_agrees_with_production_test(per_element):
    for n in (2, 3, 4, 5, 6, 8):
        spec = FieldSpec.from_degree(n)
        yielded = set()
        for elem, vec in per_element(spec, enumerate_normal(spec)):
            assert is_normal(spec, elem)
            from normbase.normal import corresponding_vector
            assert corresponding_vector(spec, elem) == vec
            yielded.add(elem)
        assert yielded == {a for a in range(spec.order) if is_normal(spec, a)}


def test_necessary_audit_validates_each_distinct_vector_once(monkeypatch):
    spec = FieldSpec.from_degree(12)
    vectors = [vec for _, vec in enumerate_normal(spec)]
    chosen = vectors[len(vectors) // 2]
    calls, flags = [], oracle._flags

    def counted(n, vec):
        calls.append(vec)
        return [False] if vec == chosen else flags(n, vec)

    monkeypatch.setattr(oracle, "_flags", counted)
    report = check_necessary(spec)
    assert sorted(calls, key=lambda v: v.bits) == sorted(set(vectors), key=lambda v: v.bits)
    assert 1 < vectors.count(chosen) < len(vectors)
    violations = [line for line in report.lines if line.startswith("  violation at")]
    assert violations == [f"  violation at vector {chosen}"] * (12 * vectors.count(chosen))
    assert report.payload["normal_elements"] == 1536
    assert report.payload["violations"] == len(violations) and report.ok is False


def _span_size(rows):
    span = {0}
    for r in rows:
        span |= {s ^ r for s in span}
    return len(span)


@pytest.mark.parametrize("n", range(1, 9))
def test_independent_is_a_full_span(n):
    # t rows are independent iff their XOR span has 2^t elements; t <= n rows of n bits,
    # so the pivots are indexed by width, with a zero or a repeated row at any position.
    # rank_reference's _independent reduces by _eliminate's one-lane default
    rng = random.Random(n)
    for t in range(1, n + 1):
        for _ in range(20):
            rows = [rng.randrange(1 << n) for _ in range(t)]
            rows[0] |= 1 << (n - 1)
            for case in (rows, rng.sample(rows + [0], t + 1),
                         rng.sample(rows + [rng.choice(rows)], t + 1)):
                assert _independent(case) == (_span_size(case) == 1 << len(case)), case
    assert _independent([0]) is False and _independent([1 << n]) is True


def _lane_independent(lanes, n, width):
    # every lane's rows at once: row j of each lane packed in one int, reduced by the multi-lane
    # _eliminate, each residue placed at its leading bit; a zero residue makes its lane dependent
    bits = 8 * width
    ones = sum(1 << bits * i for i in range(len(lanes)))
    basis, verdicts = [0] * n, [True] * len(lanes)
    for j in range(len(lanes[0])):
        r = _eliminate(basis, sum(rows[j] << bits * i for i, rows in enumerate(lanes)), ones,
                       (1 << n) - 1)
        for i in range(len(lanes)):
            residue = r >> bits * i & (1 << bits) - 1
            if residue:
                basis[residue.bit_length() - 1] |= residue << bits * i
            else:
                verdicts[i] = False
    return verdicts


def _row_set(rng, n, t, independent):
    # t rows of n bits, drawn until independent, or with one row made a zero, a repeat or a sum
    rows = [rng.randrange(1 << n) for _ in range(t)]
    if independent:
        return rows if _span_size(rows) == 1 << t else _row_set(rng, n, t, True)
    k = rng.randrange(t)
    rest = rows[:k] + rows[k + 1:]
    rows[k] = reduce(xor, rng.sample(rest, rng.randrange(min(t - 1, 2) + 1)), 0)
    return rows


@pytest.mark.parametrize("n", range(1, 21))
def test_lane_elimination_is_the_one_lane_verdict_and_the_span(n):
    # up to 10 rows of n bits per lane (the span is a set of 2^t), lanes 1 to 3 bytes wide:
    # every lane independent, every lane dependent, and a mix
    rng = random.Random(4000 + n)
    for width in range((n + 7) // 8, 4):
        for t in range(1, min(n, 10) + 1):
            for kinds in ([True] * 5, [False] * 5, [rng.random() < 0.5 for _ in range(9)]):
                lanes = [_row_set(rng, n, t, kind) for kind in kinds]
                verdicts = _lane_independent(lanes, n, width)
                assert verdicts == kinds
                assert verdicts == [_independent(rows) for rows in lanes]
                assert verdicts == [_span_size(rows) == 1 << t for rows in lanes]


def test_achievable_vectors_are_symmetric_with_leading_one(f12):
    for v in achievable_vectors(f12):
        from normbase.poly2 import is_symmetric
        assert v.coeff(0) == 1
        assert is_symmetric(v)


def test_predicted_vectors_small():
    assert predicted_vectors(4) == {CyclicPoly.from_coeffs([1, 1, 0, 1])}
    assert predicted_vectors(3) == {CyclicPoly.from_coeffs([1, 0, 0])}
    assert len(predicted_vectors(16)) == 64
    with pytest.raises(ValueError):
        predicted_vectors(12)
    with pytest.raises(ValueError):
        predicted_vectors(2)


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 9])
def test_characterization_small(n):
    report = check_characterization(FieldSpec.from_degree(n))
    assert report.ok, report.lines
    assert report.payload["achievable"] == report.payload["predicted"]


def test_characterization_report_lines(f12):
    report = check_characterization(FieldSpec.from_degree(8))
    text = "\n".join(report.lines)
    assert "achievable 4" in text and "exact" in text


@pytest.mark.parametrize("check, arg, payload", [
    (check_characterization, FieldSpec.from_degree(8),
     {"audit": "characterization", "degree": 8, "achievable": 4, "predicted": 4, "ok": True}),
    (check_factorization, FieldSpec.from_degree(16),
     {"audit": "factorization", "degree": 16, "targets": 64, "violations": 0, "ok": True}),
    (check_necessary, FieldSpec.from_degree(12),
     {"audit": "necessary", "degree": 12, "normal_elements": 1536, "violations": 0, "ok": True}),
    (check_self_dual_existence, 3,
     {"audit": "selfdual", "max_degree": 3, "ok": True,
      "rows": [{"n": 2, "exists": True, "expected": True},
               {"n": 3, "exists": True, "expected": True}]}),
], ids=["characterization", "factorization", "necessary", "selfdual"])
def test_every_audit_report_has_one_shape(check, arg, payload):
    report = check(arg)
    assert type(report) is oracle.Report
    assert report.ok is True
    assert report.payload == payload
    assert type(report.lines) is tuple and report.lines
    assert all(isinstance(line, str) for line in report.lines)


def test_audits_leave_a_spec_its_squaring_tables_alone(monkeypatch):
    # certification squares with _square; the trace form is built by the first vector
    made = []
    from_degree = FieldSpec.from_degree
    monkeypatch.setattr(FieldSpec, "from_degree",
                        classmethod(lambda cls, n: made.append(from_degree(n)) or made[-1]))
    for check, n in [(check_characterization, 5), (check_factorization, 8), (check_necessary, 12)]:
        assert check(FieldSpec.from_degree(n)).ok
    assert check_self_dual_existence(6).ok
    assert [spec.n for spec in made] == [5, 8, 12, 2, 3, 4, 5, 6]
    for spec in made:
        assert "trace" not in spec._held
        corresponding_vector(spec, spec.generator)
        assert "trace" in spec._held
        assert _trace_form(spec)[0] == _monomial_traces(spec, _squares(spec)) & (spec.order - 1)


def test_brute_factor_golden_target():
    h = CyclicPoly.from_support(16, {0, 1, 2, 7, 9, 14, 15})
    g = CyclicPoly.from_support(16, {0, 1, 5, 6, 9, 10, 14})
    assert _factors_in_G(16)[h] == [g]


def _ring_factors(h):
    # every g in the whole cyclic ring with g * reciprocal(g) = h, G or not
    ring = (CyclicPoly(h.n, bits) for bits in range(1 << h.n))
    return [g for g in ring if cyclic_mul(g, reciprocal(g)) == h]


def test_factors_outside_G_are_not_unique():
    sols = _ring_factors(CyclicPoly(4, 1))
    assert CyclicPoly(4, 1) in sols
    assert len(sols) > 1


def test_nonsymmetric_target_has_no_factor():
    assert _ring_factors(CyclicPoly.from_coeffs([1, 1, 0])) == []


def test_brute_factor_caps():
    with pytest.raises(ValueError, match="G-restricted search capped at n <= 24, got 32"):
        _factors_in_G(32)
    with pytest.raises(ValueError, match="ring size must be a power of two >= 4, got 17"):
        _factors_in_G(17)


# ---------- the references held per degree ----------

CHARACTERIZED = [n for n in range(ENUMERATION_CAP + 1) if _characterized(n)]
POWERS = [n for n in range(4, G_SEARCH_CAP + 1) if n & (n - 1) == 0]


WARM_AUDITS = ([(check_characterization, _predicted, n) for n in CHARACTERIZED if n <= 17]
               + [(check_factorization, _factorization_reference, n) for n in POWERS])


@pytest.mark.parametrize("check, memo, n", WARM_AUDITS,
                         ids=[f"{check.__name__[6:]}-{n}" for check, _, n in WARM_AUDITS])
def test_a_warm_audit_is_the_cold_one(check, memo, n):
    spec = FieldSpec.from_degree(n)
    memo.cache_clear()
    cold = check(spec)
    warm = check(spec)
    assert memo.cache_info()[:2] == (1, 1)  # hits, misses: the second call read the memo
    assert (warm.ok, warm.lines, warm.payload) == (cold.ok, cold.lines, cold.payload)


def test_warm_audits_still_check_production_in_full(monkeypatch):
    # the references are held; the field's enumeration and the solver run on every call
    enumerations, solved = [], []
    enumerate_once, solve = oracle.enumerate_normal, oracle.factor_2power
    monkeypatch.setattr(oracle, "enumerate_normal",
                        lambda spec, wanted: enumerations.append(spec.n) or enumerate_once(spec, wanted))
    monkeypatch.setattr(oracle, "factor_2power", lambda h: solved.append(h) or solve(h))
    for _ in range(2):
        assert check_characterization(FieldSpec.from_degree(8)).ok
        assert check_factorization(FieldSpec.from_degree(16)).ok
    assert enumerations == [8, 8]
    assert solved == 2 * list(iter_H(16))


def test_a_patched_flags_never_reads_the_held_predicted_set(monkeypatch):
    spec = FieldSpec.from_degree(8)
    assert check_characterization(spec).ok  # the memo now holds n = 8 under the real rules
    monkeypatch.setattr(oracle, "_flags", lambda n, a: [False])
    report = check_characterization(spec)
    assert report.lines[0] == "characterization audit, n = 8: achievable 4, predicted 0"
    assert report.lines[-1] == "  agreement: VIOLATION" and not report.ok


def test_the_predicted_set_handed_out_is_a_copy():
    handed = predicted_vectors(8)
    assert type(handed) is set and len(handed) == 4
    handed.clear()
    handed.add(CyclicPoly(8, 1))
    report = check_characterization(FieldSpec.from_degree(8))
    assert report.ok and report.lines[-1] == "  agreement: exact"
    assert len(predicted_vectors(8)) == 4


def test_each_memo_holds_every_degree_it_is_asked_for():
    assert len(CHARACTERIZED) == 13 and POWERS == [4, 8, 16]
    for memo, degrees, fill in [(_predicted, CHARACTERIZED, lambda n: _predicted(n, oracle._flags)),
                                (_factorization_reference, POWERS, _factorization_reference)]:
        assert memo.cache_info().maxsize >= len(degrees)
        memo.cache_clear()
        for _ in range(2):
            for n in degrees:
                fill(n)
        assert memo.cache_info()[:2] == (len(degrees), len(degrees))  # no degree was evicted


def test_memos_hold_only_immutable_values():
    for n in CHARACTERIZED:
        held = _predicted(n, oracle._flags)
        assert type(held) is frozenset and all(type(v) is CyclicPoly for v in held)
        assert held == predicted_vectors(n)
    for n in POWERS:
        held, factors = _factorization_reference(n), _factors_in_G(n)
        assert type(held) is tuple and all(type(pair) is tuple for pair in held)
        assert [h for h, _ in held] == list(iter_H(n))  # the targets in iter_H order
        for h, gs in held:
            assert type(gs) is tuple and gs == tuple(factors.get(h, []))


def test_rejected_audits_fill_no_memo():
    # the bound checks run before any work, and an error is not held
    _predicted.cache_clear()
    _factorization_reference.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError, match="characterization covers"):
            check_characterization(FieldSpec.from_degree(2))
        with pytest.raises(ValueError, match="capped at n <= 20, got 21"):
            check_characterization(FieldSpec.from_degree(21))
        with pytest.raises(ValueError, match="capped at n <= 24, got 32"):
            check_factorization(FieldSpec.from_degree(32))
    assert _predicted.cache_info().currsize == _factorization_reference.cache_info().currsize == 0


def test_self_dual_existence_small():
    report = check_self_dual_existence(8)
    assert report.ok
    by_n = {r["n"]: r["exists"] for r in report.payload["rows"]}
    assert by_n == {2: True, 3: True, 4: False, 5: True, 6: True, 7: True, 8: False}
    for max_n in (1, 17):
        with pytest.raises(ValueError):
            check_self_dual_existence(max_n)


def test_trace_outside_gf2_is_an_implementation_bug():
    # with squaring the identity, Tr(g) sums g n times: g itself for odd n
    with pytest.raises(RuntimeError) as exc:
        _monomial_traces(FieldSpec.from_degree(5), [1 << j for j in range(5)])
    assert str(exc.value) == "trace must land in GF(2) (implementation bug)"


def test_orbit_longer_than_n_is_an_implementation_bug(monkeypatch):
    # x -> g*x is not the Frobenius map: the orbit of 1 is every power of g
    spec = FieldSpec.from_degree(8)
    monkeypatch.setattr(rank_reference, "_naive_square", lambda spec, a: elem_mul(spec, 2, a))
    with pytest.raises(RuntimeError) as exc:
        _orbit(spec, 1)
    assert str(exc.value) == "Frobenius orbit longer than n (implementation bug)"


def test_enumeration_orbit_longer_than_n_is_an_implementation_bug(monkeypatch):
    # the lanes square by the oracle's naive squares: take x -> g*x, of order 51 on the default
    # modulus, so no lane is back at its element after n steps
    spec = FieldSpec.from_degree(8)
    monkeypatch.setattr(oracle, "_naive_square", lambda spec, a: elem_mul(spec, 2, a))
    with pytest.raises(RuntimeError) as exc:
        list(enumerate_normal(spec))
    assert str(exc.value) == "Frobenius orbit longer than n (implementation bug)"
