"""CLI output pinned byte for byte: one sha256 over a fixed, seeded corpus of runs."""

import contextlib
import hashlib
import io
import random

from normbase import poly2
from normbase.cli import main
from normbase.construct import Status, pow2_odd_split, validate_vector

# sha256 of (argv, exit code, stdout, stderr) over _corpus(); a deliberate change to
# any CLI output (a message, a record, a choice of modulus or element) must update it
DIGEST = "3de9b8e2ad65a8bce1309e6953b401f72b9f1ba0f1ac6a380d172d49ee4c22fe"

AUDIT_MODES = ("characterization", "factorization", "necessary", "selfdual")


def _bits(v: poly2.CyclicPoly) -> str:
    return ",".join(str(b) for b in v.coeffs())


def _random_symmetric(rng: random.Random, n: int) -> poly2.CyclicPoly:
    bits = rng.getrandbits(1)
    for i in range(1, n // 2 + 1):
        if rng.getrandbits(1):
            bits |= (1 << i) | (1 << (n - i) % n)
    return poly2.CyclicPoly(n, bits)


def _accepted(rng: random.Random, n: int) -> poly2.CyclicPoly:
    """A seeded random symmetric vector that validate_vector does not reject."""
    for _ in range(100):  # bounded: a rule that rejects every vector must fail, not hang
        v = _random_symmetric(rng, n)
        if validate_vector(n, v).status is not Status.INVALID:
            return v
    raise AssertionError(f"no accepted vector of length {n} in 100 draws")


def _corpus() -> list[list[str]]:
    """prescribe (accepted, random), compose and every weight3 i0 per degree; small audits."""
    rng = random.Random(2013)
    runs = []
    for n in [*range(1, 41), 48, 64]:
        s2, m = pow2_odd_split(n)
        degree = ["--degree", str(n)]
        runs.append(["prescribe", *degree, "--vector", _bits(_accepted(rng, n))])
        runs.append(["prescribe", *degree,
                     "--vector", _bits(poly2.CyclicPoly(n, rng.getrandbits(n)))])
        runs.append(["compose", *degree, "--vector-pow2", _bits(_accepted(rng, s2)),
                     "--vector-odd", _bits(_accepted(rng, m))])
        # below 4 | n the range holds only i0 = 1, which weight3 rejects
        runs += [["weight3", *degree, "--i0", str(i0)] for i0 in range(1, max(s2, 2), 2)]
    runs += [["audit", "--degree", str(n), "--mode", mode]
             for n in (8, 12) for mode in AUDIT_MODES]
    return [form + argv for argv in runs for form in ([], ["--json"])]


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error exits from the parser
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _corpus_digest() -> str:
    h = hashlib.sha256()
    for argv in _corpus():
        h.update(repr((argv, *_run(argv))).encode())
    return h.hexdigest()


def test_cli_output_matches_the_recorded_digest():
    assert _corpus_digest() == DIGEST
