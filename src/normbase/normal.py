"""Normality tests, trace self-orthogonality vectors, and basis changes.

The corresponding vector of a is (a_0, ..., a_{n-1}) with
a_i = Tr(a * a^(2^i)); it is always symmetric and, read as a polynomial
f_a = sum a_i x^i, it is a unit mod x^n - 1 exactly when a is normal.
That gcd criterion is the production normality test here; the independent
rank-based test lives in the oracle module.

The full-field vector reads every entry off the trace form: with
w = Gram * alpha, so that Tr(alpha * x) = parity(x & w), a_i is the parity
of alpha^(2^i) & w, and the loop only squares (see the field module).  A
GF(2^t) subfield element gets its length-t vector by multiplying and then
taking the sum of the first t conjugates, so the subfield construction
runs the same pipeline.

The scan's normal element is computed once per spec and kept by the spec
itself, so it is freed with the spec.
"""

from __future__ import annotations

import random

from .field import (
    FieldSpec,
    _check_elem,
    _conjugate_sum,
    _linear,
    _owned,
    _trace_by_sum,
    elem_mul,
    in_subfield,
)
from .poly2 import CyclicPoly, cyclic_mul, is_unit_mod_cyclic, reciprocal

# a trace vector is positionally identified with a cyclic-ring polynomial
TraceVector = CyclicPoly


def _vector(spec: FieldSpec, alpha: int, t: int, entry) -> TraceVector:
    # entry(conj) is Tr(alpha * conj) for conj = alpha^(2^i), i < t
    square = spec._kernel.square
    bits = 0
    conj = alpha
    for i in range(t):
        bits |= entry(conj) << i
        conj = _linear(square, conj)
    return CyclicPoly(t, bits)


def corresponding_vector(spec: FieldSpec, alpha: int) -> TraceVector:
    """The vector a with a_i = Tr(alpha * alpha^(2^i)), 0 <= i < n."""
    _check_elem(spec, alpha)
    w = _linear(spec._kernel.gram, alpha)  # w_k = Tr(alpha * g^k)
    return _vector(spec, alpha, spec.n, lambda x: (x & w).bit_count() & 1)


def corresponding_vector_in_subfield(spec: FieldSpec, alpha: int, t: int) -> TraceVector:
    """Length-t vector of a subfield element, with traces taken onto GF(2).

    Entry i is the GF(2^t)-trace of alpha * alpha^(2^i), computed as the sum
    of the first t Frobenius powers of the product.
    """
    if not in_subfield(spec, alpha, t):
        raise ValueError(f"element does not lie in the GF(2^{t}) subfield")
    return _vector(spec, alpha, t, lambda x: _trace_by_sum(spec, elem_mul(spec, alpha, x), t))


def is_normal(spec: FieldSpec, alpha: int) -> bool:
    """True iff the Frobenius orbit of alpha is a basis of GF(2^n) over GF(2)."""
    return is_unit_mod_cyclic(corresponding_vector(spec, alpha))


def is_normal_in_subfield(spec: FieldSpec, alpha: int, t: int) -> bool:
    """True iff alpha lies in the GF(2^t) subfield and is normal there."""
    if not in_subfield(spec, alpha, t):
        return False
    return is_unit_mod_cyclic(corresponding_vector_in_subfield(spec, alpha, t))


def _scan(spec: FieldSpec) -> int:
    # a normal element has trace 1, so encodings below the lowest
    # trace-one basis monomial can be skipped wholesale (the ascending
    # order of candidates actually tested is unchanged)
    mask = spec._kernel.trace_mask
    for a in range(mask & -mask, spec.order):
        if (a & mask).bit_count() & 1 and is_normal(spec, a):
            return a
    raise AssertionError("unreachable: every extension has a normal element")


def find_normal(spec: FieldSpec, strategy: str = "scan", seed: int = 0) -> int:
    """Find a normal element.

    "scan" walks coordinate encodings in ascending order (deterministic);
    "random" draws seed-reproducible candidates.  Same arguments always
    return the same element; the scan runs once per spec, which keeps
    its result.
    """
    if strategy == "scan":
        return _owned(spec, "_normal_scan", lambda: _scan(spec))
    if strategy == "random":
        rng = random.Random(seed)
        while True:
            a = rng.randrange(1, spec.order)
            if is_normal(spec, a):
                return a
    raise ValueError(f"unknown strategy {strategy!r} (expected 'scan' or 'random')")


def apply_basis_change(spec: FieldSpec, beta: int, c: CyclicPoly) -> int:
    """Sum of c_i * beta^(2^i); normal whenever beta is normal and c is a unit."""
    if c.n != spec.n:
        raise ValueError(f"ring size mismatch: {c.n} != {spec.n}")
    _check_elem(spec, beta)
    return _conjugate_sum(spec, beta, c.bits)


def vector_transform(f_b: CyclicPoly, f_c: CyclicPoly) -> CyclicPoly:
    """Vector of a basis-changed element: f_b * f_c * reciprocal(f_c) mod x^n - 1."""
    return cyclic_mul(cyclic_mul(f_b, f_c), reciprocal(f_c))


def is_self_dual(spec: FieldSpec, alpha: int) -> bool:
    """True iff alpha has corresponding vector (1, 0, ..., 0), a unit, so alpha is then normal."""
    return corresponding_vector(spec, alpha).bits == 1
