import pytest

from normbase import FieldSpec
from normbase.field import elem_square


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
                x = elem_square(spec, x)
    return expand
