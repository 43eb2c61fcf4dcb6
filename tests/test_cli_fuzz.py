"""Fuzzed command lines: any input ends in a short message and exit code 0, 1 or 64.

The argv grammar is each command with its required options, in both output
forms; option values are drawn from pools of good values and of zero,
negative, empty, malformed, non-ASCII-digit, out-of-range and over-long
ones.  Element commands stay at degrees <= 24 and audits at <= 16, so that
no example runs a one-second search or enumeration.
"""

import contextlib
import io
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from normbase.cli import EX_INVALID, EX_OK, EX_USAGE, main

# over-long inputs: 10^5 vector entries, 5,001 degree digits, 20,000 hex digits
LONG_VECTOR = ",".join(["1", "0"] * 50_000)
BAD_NUMBERS = ["0", "-1", "", "x", "٨", "１６", "99999999999999999999", "1" + "0" * 5000]

ELEMENT_DEGREES = [str(n) for n in range(1, 25)] + BAD_NUMBERS + ["65"]
AUDIT_DEGREES = [str(n) for n in range(1, 17)] + BAD_NUMBERS + ["65"]
MODULI = [None, "0", "0x0", "-1", "", "x", "x^", "x^-1+1", "x^٣+x+1", "0x1002D",
          "x^16+x^5+x^3+x^2+1", "x^8+x^4+x^3+x+1", "x^4+1", "x^99999999999+1", "0x" + "F" * 20000]
ELEMENTS = ["0x1", "0x0", "0x2B", "0x", "", "zz", "pow:1,126", "pow:", "pow:-1", "pow:x",
            "pow:٣", "pow:99999999999999999999", "0x" + "F" * 30]
VECTORS = ["1", "1,0", "", ",", "1,2", "1,٠", "1,1,0,1", "1,0,0", "1,1,1", "0,0,0,0",
           "1,1" + ",0" * 13 + ",1", "1" + ",0" * 23, LONG_VECTOR]
SEEDS = ["7"] + BAD_NUMBERS
I0S = ["1", "3", "2", "999"] + BAD_NUMBERS
MODES = ["characterization", "factorization", "necessary", "selfdual", "nope", ""]

# stderr beyond the echoed argv is at most a leaf's usage text and one error line: 254
# characters at most over 3,000 examples at 80 columns (audit's usage and an invalid
# --mode), 240 for compose's usage; narrower terminals wrap the usage into more lines
STDERR_ALLOWANCE = 400
RUN_SECONDS = 1.5  # the slowest of those examples took 0.04 s


def _options(*pairs):
    """Draw each (flag, pool) value; a None draw leaves the optional flag out."""
    return st.tuples(*(st.tuples(st.just(flag), st.sampled_from(pool)) for flag, pool in pairs))


COMMANDS = st.one_of(
    _options(("field find --degree", ELEMENT_DEGREES)),
    _options(("normal find --degree", ELEMENT_DEGREES), ("--modulus", MODULI),
             ("--seed", [None] + SEEDS)),
    _options(("normal check --degree", ELEMENT_DEGREES), ("--modulus", MODULI),
             ("--element", ELEMENTS)),
    _options(("vector --degree", ELEMENT_DEGREES), ("--modulus", MODULI), ("--element", ELEMENTS)),
    _options(("prescribe --degree", ELEMENT_DEGREES), ("--modulus", MODULI),
             ("--vector", VECTORS), ("--force-beta", [None] + ELEMENTS)),
    _options(("compose --degree", ELEMENT_DEGREES), ("--modulus", MODULI),
             ("--vector-pow2", VECTORS), ("--vector-odd", VECTORS)),
    _options(("weight3 --degree", ELEMENT_DEGREES), ("--modulus", MODULI), ("--i0", [None] + I0S)),
    _options(("audit --degree", AUDIT_DEGREES), ("--modulus", MODULI), ("--mode", MODES)),
)


def _argv(as_json, options):
    argv = ["--json"] if as_json else []
    for flag, value in options:
        if value is not None:
            argv += flag.split() + [value]
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.booleans(), COMMANDS)
def test_any_argv_ends_in_a_short_message_and_a_known_exit_code(as_json, options):
    argv = _argv(as_json, options)
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert time.perf_counter() - start < RUN_SECONDS
    assert code in (EX_OK, EX_INVALID, EX_USAGE)
    assert len(err.getvalue()) <= len(" ".join(argv)) + STDERR_ALLOWANCE
