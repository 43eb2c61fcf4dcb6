"""End-to-end constructions of normal elements with prescribed vectors.

_flags states each of the paper's two characterizations once, as pass
flags: the 2-power rule (at n = 1, 2 it leaves the single vectors (1) and
(1,0)) and the odd rule.  For composite n = 2^s * m only necessary
conditions are known, the two rules applied to the vector's folds onto 2^s
and m entries, reported as NECESSARY_ONLY.  The flags alone decide, for
the audits and the pipeline; validate_vector renders each condition's text
from n and a on demand and pairs it with its flag, and the pipeline builds
that Verdict only to reject a vector.  prescribe and prescribe_in_subfield
enter one _pipeline: it validates the vector, takes a normal base, maps the
vector to its lift and runs the closing check.  It returns the base (beta,
its vector, that vector's inverse and beta's conjugates) and the element;
only prescribe_steps wraps them in a Prescription, with the quotient and
the factor computed again, and prescribe and prescribe_in_subfield take
the element alone.
In GF(2^t) it works on full-field vectors alone: for t | n, the vector of
tau = Tr_{n|t}(A) is the fold f_A mod (x^t - 1), as entry i of the fold
is Tr_n(A * tau^(2^i)) = Tr_t(tau * tau^(2^i)) (tau^(2^i) lies in GF(2^t)).
So the base vector is the fold of f_beta for the scan's normal beta (the
scan keeps f_beta with beta), and the result is the relative trace of the
lift sum g_i beta^(2^i) (at t = n the lift itself, with no trace taken).
The base fixes the lift map, _lift: a -> h = a * b^(-1), h -> g
(factor._factor, one list of images per ring size for odd t and t = 2^s
alike) and g -> sum g_i beta^(2^i), each GF(2)-linear.  The fold, its
inverse and the t conjugates of beta depend on the field alone, so the
spec keeps the base per t, and once it has served as many prescriptions
as building them costs (poly2._rented at poly2._PRICES["lift"]), the byte
tables of _lift with it; from then on a request reads the base and its
tables by one lookup in the spec's store, and its lift by one table pass,
with no quotient or factor built.  Before that, and for a base that is not
kept, _lift runs as it reads.  A warm prescription reads conjugates only to
check its result, and to trace it down when t < n.  compose multiplies
prescriptions from the coprime 2-power and odd subfields; weight3
specializes composition to the minimum-weight vector available when 4 | n.

The pipeline's closing check, vec == a for the fold of the lift's
recomputed vector (by the identity, the returned element's vector), is
the one verification of every element it returns; at t = n it compares
entries 0 .. n/2 alone, as vec and the valid a are both symmetric, and
builds the whole vector only to report a mismatch.  So it calls the bare
map _factor, not factor_2power, which checks its input and its result,
and a table carries no check of its own.  The map's input conditions are
implied: a valid a is achievable (the paper's characterization, audited
by the oracle), say by sum c_i beta^(2^i) with c a unit, so
h = a * b^(-1) = c * c^*, which lies in H for t = 2^s and is symmetric
for odd t.  The result check is
subsumed: a valid a is a unit (for t = 2^s its weight is odd, as a_0 = 1,
a_{t/2} = 0 and the other entries pair up; for odd t the odd rule tests
it by poly2.is_unit_mod_cyclic), so vec == a proves that the element has
vector a and is normal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .factor import _factor, _odd_half_sum
from .field import FieldSpec, _check_divisor, _conjugates, _half_vector, elem_mul, rel_trace
from .normal import _scanned, corresponding_vector
from .poly2 import (
    CyclicPoly,
    _byte_tables,
    _linear,
    _picked_sum,
    _rented,
    cyclic_inv,
    cyclic_mul,
    is_symmetric,
    is_unit_mod_cyclic,
    poly_gcd,
    poly_mod,
    poly_to_text,
    ring_modulus,
)


class Status(enum.Enum):
    VALID = "valid"
    INVALID = "invalid"
    NECESSARY_ONLY = "necessary-only"


@dataclass(frozen=True)
class Verdict:
    """Outcome of vector validation: each condition checked, as (description, passed), and notes.

    reasons renders one line per condition, then the notes, on read.  The audits and the
    pipeline decide by the pass flags alone (_flags); status is the verdict for callers.
    """

    status: Status
    checks: tuple[tuple[str, bool], ...]
    notes: tuple[str, ...] = ()

    @property
    def reasons(self) -> tuple[str, ...]:
        return tuple(f"{'ok' if passed else 'FAIL'}: {desc}" for desc, passed in self.checks) + self.notes


class InvalidVectorError(ValueError):
    """Raised when a prescribed vector is not achievable (or not known to be)."""

    def __init__(self, verdict: Verdict):
        self.verdict = verdict
        detail = "; ".join(f"FAIL: {desc}" for desc, passed in verdict.checks if not passed)
        super().__init__(f"There isn't such a normal element: {detail}")


def _is_pow2(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def _characterized(n: int) -> bool:
    """True when the paper characterizes the vectors of length n: n = 2^s >= 4 or n odd."""
    return n % 2 == 1 or n >= 4 and _is_pow2(n)


def pow2_odd_split(n: int) -> tuple[int, int]:
    """Decompose n = 2^s * m with m odd; returns (2^s, m)."""
    s2 = n & -n
    return s2, n // s2


_SYMMETRIC = "symmetric (a[i] = a[n-i])"


def _fold(a: CyclicPoly, k: int) -> CyclicPoly:
    """a mod (x^k - 1), for k dividing a.n: entry j sums the a_i with i = j mod k."""
    return a if k == a.n else CyclicPoly(k, poly_mod(a.bits, ring_modulus(k)))


def _flags(n: int, a: CyclicPoly) -> list[bool]:
    """Each condition's pass flag, in the order validate_vector lists the conditions."""
    if a.n != n:
        raise ValueError(f"vector length mismatch: {a.n} != {n}")
    if _is_pow2(n):  # a[0] = 1, a[n/2] = 0, symmetric, odd half-sum 1; at n = 1, 2 the first n
        return [a.bits & 1 == 1, not a.bits >> n // 2 & 1, is_symmetric(a),
                _odd_half_sum(a) == 1][:min(n, 4)]
    if n % 2 == 1:  # symmetric, coprime to x^n - 1
        return [is_symmetric(a), is_unit_mod_cyclic(a)]
    return [is_symmetric(a), *(f for k in pow2_odd_split(n) for f in _flags(k, _fold(a, k)))]


def _texts(a: CyclicPoly) -> list[str]:
    """The description of each condition _flags(a.n, a) decides, in its order."""
    n = a.n
    if _is_pow2(n):
        return ["a[0] = 1", f"a[{n // 2}] = 0", _SYMMETRIC,
                f"sum of a[i] over odd i < {n // 2} equals 1"][:min(n, 4)]
    if n % 2 == 1:  # the gcd only for a vector the unit test rejects; 0: a itself is zero
        g = 1 if is_unit_mod_cyclic(a) else poly_gcd(a.bits, ring_modulus(n)) if a.bits else 0
        note = "" if g == 1 else f" (common factor {poly_to_text(g) if g else 'zero polynomial'})"
        return [_SYMMETRIC, f"coprime to x^{n}-1{note}"]
    return [_SYMMETRIC, *(f"a mod x^{k}-1 = {u}: {desc}"
                          for k in pow2_odd_split(n) for u in [_fold(a, k)] for desc in _texts(u))]


def validate_vector(n: int, a: CyclicPoly) -> Verdict:
    """Decide whether a length-n vector corresponds to some normal element.

    Returns VALID/INVALID where a full characterization exists (n a power
    of two or odd).  For composite n = 2^s * m the conditions are the two
    rules applied to the folds a mod x^(2^s) - 1 and a mod x^m - 1 (the
    vectors of the element's traces onto GF(2^(2^s)) and GF(2^m)), after
    symmetry of a; they are only necessary, so passing them yields
    NECESSARY_ONLY.  The flags decide; the text is rendered here, on demand.
    """
    flags = _flags(n, a)
    checks = tuple(zip(_texts(a), flags))
    if _is_pow2(n) or n % 2 == 1:
        return Verdict(Status.VALID if all(flags) else Status.INVALID, checks)
    s2, m = pow2_odd_split(n)
    note = (f"conditions for n = {s2}*{m} are necessary only; "
            "sufficiency is open (see compose/weight3 for constructive cases)",)
    return Verdict(Status.NECESSARY_ONLY if all(flags) else Status.INVALID, checks, note)


@dataclass(frozen=True)
class Prescription:
    """All intermediate values of one prescription run."""

    spec: FieldSpec
    target: CyclicPoly
    base: int                       # the normal element the pipeline starts from
    base_vector: CyclicPoly
    base_vector_inverse: CyclicPoly
    quotient: CyclicPoly            # target * base_vector_inverse in the cyclic ring
    change: CyclicPoly              # basis-change coefficients (the factor g)
    element: int
    vector: CyclicPoly              # element's vector: the closing check proved it is target


def _base(spec: FieldSpec, t: int,
          beta: int | None = None) -> tuple[int, CyclicPoly, CyclicPoly, list[int]]:
    """A normal beta (by default the scan's), the vector of its trace onto GF(2^t) (the fold of
    beta's vector, which the scan keeps with its element), that vector's inverse, t conjugates."""
    beta, f_beta = _scanned(spec) if beta is None else (beta, corresponding_vector(spec, beta))
    b = _fold(f_beta, t)
    try:
        b_inv = cyclic_inv(b)
    except ZeroDivisionError:  # the base vector is a unit exactly when the base is normal
        raise ValueError("supplied base element is not normal") from None
    return beta, b, b_inv, _conjugates(spec, beta, t)


def _kept_base(spec: FieldSpec, t: int) -> tuple:
    """(base, tables): the default _base, made once per t, and the byte tables of its _lift once
    it has served _PRICES["lift"] prescriptions, None before.  With its tables the pair is held
    in spec._held[t], the one entry that _pipeline reads first.  A table costs more loop
    prescriptions as t grows, so at small t the rule buys late, by at most that price.
    """
    base = _rented(spec._held, ("base", t), None, _base, spec, t)
    return _rented(spec._held, t, "lift", _base_tables, base) or (base, None)


def _lift(base: tuple, a: CyclicPoly) -> int:
    """sum g_i conjugates[i] for the factor g of h = a * b_inv: the lift of a valid a."""
    _, _, b_inv, conjugates = base
    return _picked_sum(conjugates, _factor(cyclic_mul(a, b_inv)).bits)


def _base_tables(base: tuple) -> tuple:
    """The base with the byte tables of its _lift, tabulated at each monomial x^j."""
    t = base[1].n
    return base, _byte_tables([_lift(base, CyclicPoly(t, 1 << j)) for j in range(t)])


def _pipeline(spec: FieldSpec, t: int, a: CyclicPoly, beta: int | None = None) -> tuple:
    """The one prescription entry, in GF(2^t) (t = n: the whole field): validate a, take the
    base of beta (by default the kept base, with its tables once it has served _PRICES["lift"]),
    map a to the lift, by _lift or by the tables, and run the closing check.  Returns
    (base, element), which only prescribe_steps unpacks."""
    if not all(_flags(t, a)):
        raise InvalidVectorError(validate_vector(t, a))
    # the kept base with its tables, or a count until they are built; a forced beta is not kept
    held = spec._held.get(t) if beta is None else (_base(spec, t, beta), None)
    base, tables = held if type(held) is tuple else _kept_base(spec, t)
    lift = _lift(base, a) if tables is None else _linear(tables, a.bits)
    # the one verification of the result; see the module docstring
    if (_half_vector(spec, lift) != a.bits & ((2 << t // 2) - 1) if t == spec.n
            else _fold(corresponding_vector(spec, lift), t) != a):
        vec = _fold(corresponding_vector(spec, lift), t)
        raise RuntimeError(
            f"prescribed vector mismatch (implementation bug): got {vec}, wanted {a}")
    return base, rel_trace(spec, lift, t) if t < spec.n else lift


def _full_degree(spec: FieldSpec) -> int:
    """spec.n, once the paper's characterization is known to cover it."""
    if not _characterized(spec.n):
        raise ValueError(
            f"prescription requires n a power of two >= 4 or odd n, got {spec.n} "
            "(use compose/weight3 for other composite sizes)")
    return spec.n


def prescribe_steps(spec: FieldSpec, a: CyclicPoly, beta: int | None = None) -> Prescription:
    """Run the full prescription pipeline, keeping every intermediate value.

    beta pins the starting normal element (it must be normal);
    by default a deterministic scan picks it.  The quotient and the factor are computed
    again for the record, as a kept base maps a to its element by one table.
    """
    (beta, b, b_inv, _), element = _pipeline(spec, _full_degree(spec), a, beta)
    h = cyclic_mul(a, b_inv)
    return Prescription(spec, a, beta, b, b_inv, h, _factor(h), element, a)


def prescribe(spec: FieldSpec, a: CyclicPoly, beta: int | None = None) -> int:
    """A normal element whose corresponding vector equals a (n = 2^s >= 4 or odd)."""
    return _pipeline(spec, _full_degree(spec), a, beta)[-1]


def prescribe_in_subfield(spec: FieldSpec, t: int, a: CyclicPoly) -> int:
    """A GF(2^t)-subfield element, normal there, with subfield vector a.

    Supports t = 2^s >= 4, t odd, and the degenerate t = 1, 2 (where the
    only achievable vectors are (1) and (1,0)).  The pipeline starts from
    the spec's default base for t.
    """
    _check_divisor(spec, t)
    if not (_characterized(t) or t == 2):
        raise ValueError(
            f"subfield prescription requires t a power of two, t = 2, or odd t, got {t}")
    return _pipeline(spec, t, a)[-1]


def compose(spec: FieldSpec, a: CyclicPoly, b: CyclicPoly) -> tuple[int, CyclicPoly]:
    """Multiply prescriptions from the coprime 2-power and odd subfields.

    With n = 2^s * m (m odd), a prescribes the GF(2^(2^s)) part and b the
    GF(2^m) part; the product is normal and its vector is the coordinatewise
    product c_k = a_{k mod 2^s} * b_{k mod m}.  Returns (element, c).
    """
    s2, m = pow2_odd_split(spec.n)
    if a.n != s2:
        raise ValueError(f"2-power part vector must have length {s2}, got {a.n}")
    if b.n != m:
        raise ValueError(f"odd part vector must have length {m}, got {b.n}")
    alpha = prescribe_in_subfield(spec, s2, a)
    beta = prescribe_in_subfield(spec, m, b)
    gamma = elem_mul(spec, alpha, beta)
    full = (1 << spec.n) - 1  # c is a repeated to n entries AND b repeated to n entries
    c = CyclicPoly(spec.n, a.bits * (full // ((1 << s2) - 1)) & b.bits * (full // ((1 << m) - 1)))
    if corresponding_vector(spec, gamma) != c or not is_unit_mod_cyclic(c):
        raise RuntimeError("composed element fails verification (implementation bug)")
    return gamma, c


def weight3(spec: FieldSpec, i0: int = 1) -> tuple[int, CyclicPoly]:
    """A normal element whose vector has Hamming weight exactly 3 (4 | n).

    The 2-power part vector puts ones at {0, i0, 2^s - i0} for odd i0; the
    odd part contributes (1, 0, ..., 0).  The product vector has support
    {0, j0*m, n - j0*m} where j0 solves m * j0 = i0 (mod 2^s).
    """
    if spec.n % 4:
        raise ValueError(f"weight-3 construction requires 4 | n, got {spec.n}")
    s2, m = pow2_odd_split(spec.n)
    if i0 % 2 == 0 or not 1 <= i0 <= s2 - 1:
        raise ValueError(f"i0 must be odd and in [1, {s2 - 1}], got {i0}")
    a = CyclicPoly.from_support(s2, {0, i0, s2 - i0})
    b = CyclicPoly(m, 1)
    gamma, c = compose(spec, a, b)
    j0 = (i0 * pow(m, -1, s2)) % s2
    # the three indices are distinct (j0 is odd, 2^s >= 4), so this also checks weight 3
    if c != CyclicPoly.from_support(spec.n, {0, j0 * m, spec.n - j0 * m}):
        raise RuntimeError("weight-3 support mismatch (implementation bug)")
    return gamma, c
