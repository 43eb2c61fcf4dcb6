"""Brute-force oracles: enumeration, predicted sets, factor search."""

import pytest

from normbase.field import FieldSpec
from normbase.normal import is_normal
from normbase.oracle import (
    achievable_vectors,
    brute_factor,
    check_characterization,
    check_factorization,
    check_necessary,
    check_self_dual_existence,
    enumerate_normal,
    predicted_vectors,
)
from normbase.poly2 import CyclicPoly


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_normal(FieldSpec.from_degree(2))) == 2
    assert sum(1 for _ in enumerate_normal(FieldSpec.from_degree(4))) == 8


def test_enumeration_cap():
    with pytest.raises(ValueError):
        list(enumerate_normal(FieldSpec.from_degree(12), cap=10))


def test_enumeration_agrees_with_production_test():
    for n in (2, 3, 4, 5, 6, 8):
        spec = FieldSpec.from_degree(n)
        yielded = set()
        for elem, vec in enumerate_normal(spec):
            assert is_normal(spec, elem)
            from normbase.normal import corresponding_vector
            assert corresponding_vector(spec, elem) == vec
            yielded.add(elem)
        assert yielded == {a for a in range(spec.order) if is_normal(spec, a)}


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
    assert report.ok, report.lines()
    assert report.achievable_count == report.predicted_count


def test_characterization_report_lines(f12):
    report = check_characterization(FieldSpec.from_degree(8))
    text = "\n".join(report.lines())
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
    assert report.ok is True
    assert report.payload() == payload
    assert report.lines() and all(isinstance(line, str) for line in report.lines())


def test_brute_factor_golden_target():
    h = CyclicPoly.from_support(16, {0, 1, 2, 7, 9, 14, 15})
    g = CyclicPoly.from_support(16, {0, 1, 5, 6, 9, 10, 14})
    assert brute_factor(h, restrict_to_G=True) == [g]


def test_brute_factor_unrestricted_not_unique():
    sols = brute_factor(CyclicPoly(4, 1), restrict_to_G=False)
    assert CyclicPoly(4, 1) in sols
    assert len(sols) > 1  # factors outside G are not unique


def test_brute_factor_nonsymmetric_odd_empty():
    assert brute_factor(CyclicPoly.from_coeffs([1, 1, 0]), restrict_to_G=False) == []


def test_brute_factor_caps():
    with pytest.raises(ValueError):
        brute_factor(CyclicPoly(32, 1), restrict_to_G=True)
    with pytest.raises(ValueError):
        brute_factor(CyclicPoly(17, 1), restrict_to_G=False)


def test_self_dual_existence_small():
    report = check_self_dual_existence(8)
    assert report.ok
    by_n = {r.n: r.exists for r in report.rows}
    assert by_n == {2: True, 3: True, 4: False, 5: True, 6: True, 7: True, 8: False}
    for max_n in (1, 17):
        with pytest.raises(ValueError):
            check_self_dual_existence(max_n)
