"""The rank reference for subfield normality, which the tests compare the production path with.

alpha is normal in GF(2^t) exactly when it has t distinct conjugates and they
are linearly independent: the oracle's naive squaring and its GF(2)
elimination decide both, with no production kernel.
"""

from normbase.field import FieldSpec, _check_divisor, _check_elem
from normbase.oracle import _independent, _naive_square


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
