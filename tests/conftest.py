import pytest

from normbase import FieldSpec
from normbase.field import elem_mul, frobenius
from normbase.oracle import _naive_square
from normbase.poly2 import CyclicPoly


@pytest.fixture(scope="session")
def f16():
    # GF(2^16) mod x^16+x^5+x^3+x^2+1, the field of the golden construction run
    return FieldSpec(16, 0x1002D)


@pytest.fixture(scope="session")
def f12():
    return FieldSpec.from_degree(12)


@pytest.fixture(scope="session")
def per_element():
    """Expand enumerate_normal's (e, vector) per orbit into (conjugate, vector) per element."""
    def expand(spec, orbits):
        for e, vec in orbits:
            x = e
            for _ in range(spec.n):
                yield x, vec
                x = frobenius(spec, x, 1)
    return expand


@pytest.fixture(scope="session")
def basis_change():
    """The map c -> sum of c_i * beta^(2^i), an XOR of Frobenius powers of beta."""
    def change(spec, beta, c):
        alpha = 0
        for i in range(c.n):
            if c.bits >> i & 1:
                alpha ^= frobenius(spec, beta, i)
        return alpha
    return change


@pytest.fixture(scope="session")
def naive_subfield_vector():
    """Length-t vector of alpha in GF(2^t): multiply, then trace as the sum of t conjugates."""
    def vector(spec, alpha, t):
        bits, conj = 0, alpha
        for i in range(t):
            y, tr = elem_mul(spec, alpha, conj), 0
            for _ in range(t):
                tr ^= y
                y = _naive_square(spec, y)
            assert tr in (0, 1)
            bits |= tr << i
            conj = _naive_square(spec, conj)
        return CyclicPoly(t, bits)
    return vector
