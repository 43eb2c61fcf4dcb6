"""The rank reference for subfield normality, which the tests compare the production path with.

alpha is normal in GF(2^t) exactly when it has t distinct conjugates and they
are linearly independent: the oracle's naive squaring and the package's one
GF(2) elimination routine, on its one-lane default, decide both, with no
production kernel.
"""

from normbase.field import FieldSpec, _check_divisor, _check_elem
from normbase.oracle import _naive_square
from normbase.poly2 import _eliminate


def _independent(rows: list[int]) -> bool:
    """True iff the GF(2) rows are independent: each reduces to a new leading bit by _eliminate."""
    basis = [0] * max(rows).bit_length()  # pivots by leading bit: sized by width, not row count
    for r in rows:
        if not (r := _eliminate(basis, r)):
            return False
        basis[r.bit_length() - 1] = r
    return True


def _orbit(spec: FieldSpec, alpha: int) -> list[int]:
    """The Frobenius orbit alpha, alpha^2, alpha^4, ... up to its first repeat, naively squared."""
    orbit = [alpha]
    x = _naive_square(spec, alpha)
    while x != alpha:
        if len(orbit) == spec.n:
            raise RuntimeError("Frobenius orbit longer than n (implementation bug)")
        orbit.append(x)
        x = _naive_square(spec, x)
    return orbit


def is_subfield_normal_by_rank(spec: FieldSpec, alpha: int, t: int) -> bool:
    """Rank-based subfield normality: alpha in GF(2^t), t independent conjugates."""
    _check_divisor(spec, t)
    _check_elem(spec, alpha)
    # t distinct conjugates iff alpha lies in GF(2^t) and in no smaller subfield,
    # where its t conjugates would repeat
    orbit = _orbit(spec, alpha)
    return len(orbit) == t and _independent(orbit)
