"""Normality tests, trace self-orthogonality vectors, and basis changes.

The corresponding vector of a is (a_0, ..., a_{n-1}) with
a_i = Tr(a * a^(2^i)); it is always symmetric and, read as a polynomial
f_a = sum a_i x^i, it is a unit mod x^n - 1 exactly when a is normal.
That gcd criterion is the production normality test here; the independent
rank-based test lives in the oracle module.

One loop reads every vector off the trace form; the full-field vector is
its case t = n.  The trace is transitive (Lidl & Niederreiter, Finite
Fields, Thm 2.26): Tr_t(y) = Tr_n(delta * y) on GF(2^t) when the relative
trace Tr_{n|t}(delta) is 1.  So with w = Gram * (alpha * delta), a_i is the
parity of alpha^(2^i) & w and the loop only squares (see the field module).
delta = 1 when n/t is odd, as Tr_{n|t}(1) = n/t mod 2; otherwise
delta = x + x^2 + ... + x^(2^(t-1)) for the lowest basis monomial x of
trace 1, since Tr_{n|t}(delta) = Tr_t(Tr_{n|t}(x)) = Tr_n(x) = 1; it is
kept per t by the spec.
At t = n the loop stops after entry n/2 and mirrors the rest, as
a_{n-i} = Tr(alpha^(2^(n-i)) * alpha) = Tr((alpha * alpha^(2^i))^(2^(n-i))) = a_i;
below n it runs through all t squarings, since alpha^(2^t) = alpha is also
its membership check.

The scan's normal element is computed once per spec and kept by the spec
itself, so it is freed with the spec.
"""

from __future__ import annotations

import random
from itertools import islice

from .field import (
    FieldSpec,
    _check_divisor,
    _check_elem,
    _conjugates,
    _linear,
    _owned,
    _picked_sum,
    elem_mul,
    rel_trace,
)
from .poly2 import CyclicPoly, cyclic_mul, is_unit_mod_cyclic, reciprocal

# a trace vector is positionally identified with a cyclic-ring polynomial
TraceVector = CyclicPoly

# trace-one candidates the deterministic scan tests before it falls back to
# the seeded draw; every n <= 64 but 63 is served within 16,385 (n = 31)
SCAN_CAP = 1 << 15


def _delta(spec: FieldSpec, t: int) -> int:
    """An element of relative trace 1 onto GF(2^t); see the module docstring."""
    if spec.n // t % 2:
        return 1

    def build():
        mask = spec._kernel.trace_mask
        delta = _picked_sum(_conjugates(spec, mask & -mask, t), (1 << t) - 1)
        if rel_trace(spec, delta, t) != 1:
            raise RuntimeError("relative trace of delta is not 1 (implementation bug)")
        return delta

    return _owned(spec, f"_delta_{t}", build)


def corresponding_vector(spec: FieldSpec, alpha: int) -> TraceVector:
    """The vector a with a_i = Tr(alpha * alpha^(2^i)), 0 <= i < n."""
    return corresponding_vector_in_subfield(spec, alpha, spec.n)


def corresponding_vector_in_subfield(spec: FieldSpec, alpha: int, t: int) -> TraceVector:
    """Length-t vector of a subfield element, with traces taken onto GF(2).

    Entry i is the GF(2^t)-trace of alpha * alpha^(2^i), read off the trace
    form of the whole field as described in the module docstring.
    """
    _check_elem(spec, alpha)
    _check_divisor(spec, t)
    delta = _delta(spec, t)
    kernel = spec._kernel
    # w_k = Tr_n(alpha * delta * g^k)
    w = _linear(kernel.gram, alpha if delta == 1 else elem_mul(spec, alpha, delta))
    whole = t == spec.n
    conj = alpha
    bits = (alpha & w).bit_count() & 1
    for i in range(1, t // 2 + 1 if whole else t):
        conj = _linear(kernel.square, conj)
        bits |= ((conj & w).bit_count() & 1) << i
    if whole:  # a_i = a_{n-i}, so entries 0 .. n/2 determine the rest
        return CyclicPoly(t, bits | reciprocal(CyclicPoly(t, bits)).bits)
    if _linear(kernel.square, conj) != alpha:  # alpha^(2^t) = alpha exactly on GF(2^t)
        raise ValueError(f"element does not lie in the GF(2^{t}) subfield")
    return CyclicPoly(t, bits)


def is_normal(spec: FieldSpec, alpha: int) -> bool:
    """True iff the Frobenius orbit of alpha is a basis of GF(2^n) over GF(2)."""
    return is_unit_mod_cyclic(corresponding_vector(spec, alpha))


def _scan(spec: FieldSpec) -> int:
    # a normal element has trace 1, so encodings below the lowest
    # trace-one basis monomial can be skipped wholesale (the ascending
    # order of candidates actually tested is unchanged)
    mask = spec._kernel.trace_mask
    candidates = (a for a in range(mask & -mask, spec.order) if (a & mask).bit_count() & 1)
    for a in islice(candidates, SCAN_CAP):
        if is_normal(spec, a):
            return a
    return find_normal(spec, seed=0)


def find_normal(spec: FieldSpec, seed: int | None = None) -> int:
    """Find a normal element.

    Without a seed, walk coordinate encodings in ascending order
    (deterministic); with one, draw seed-reproducible candidates.  The
    scan tests at most SCAN_CAP trace-one candidates and, if none of them
    is normal, returns the draw with seed 0 instead (at n = 63 on the
    default modulus no encoding below 2^14 is normal).  Same arguments
    always return the same element; the scan runs once per spec, which
    keeps its result.  A seed must be an int (not a bool):
    any other value raises TypeError rather than seed a different draw.
    """
    if seed is None:
        return _owned(spec, "_normal_scan", lambda: _scan(spec))
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise TypeError(f"seed must be an int, got {type(seed).__name__}")
    rng = random.Random(seed)
    while True:
        a = rng.randrange(1, spec.order)
        if is_normal(spec, a):
            return a


def vector_transform(f_b: CyclicPoly, f_c: CyclicPoly) -> CyclicPoly:
    """Vector of a basis-changed element: f_b * f_c * reciprocal(f_c) mod x^n - 1."""
    return cyclic_mul(cyclic_mul(f_b, f_c), reciprocal(f_c))
