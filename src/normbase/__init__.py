"""Normal bases of GF(2^n) over GF(2) with prescribed trace self-orthogonality.

The corresponding vector of a field element a is (a_0, ..., a_{n-1}) with
a_i = Tr(a * a^(2^i)).  This package decides which vectors are achievable
by normal elements, constructs a normal element realizing any achievable
vector when n is a power of two or odd, composes constructions across
coprime subfields for other n (including weight-3 vectors whenever 4 | n),
and ships exhaustive brute-force oracles that audit every claim at small n.
"""

from .construct import (
    InvalidVectorError,
    Prescription,
    Status,
    Verdict,
    compose,
    prescribe,
    prescribe_in_subfield,
    prescribe_steps,
    validate_vector,
    weight3,
)
from .factor import factor_2power, in_H, iter_G, iter_H
from .field import (
    FieldSpec,
    elem_mul,
    elem_pow,
    frobenius,
    parse_elem,
    rel_trace,
)
from .normal import corresponding_vector, find_normal, is_normal
from .poly2 import (
    CyclicPoly,
    cyclic_inv,
    cyclic_mul,
    find_irreducible,
    is_irreducible,
    is_symmetric,
    is_unit_mod_cyclic,
    parse_poly,
    parse_vector,
    poly_gcd,
    poly_mul,
    poly_to_text,
    reciprocal,
)

__version__ = "0.1.0"
