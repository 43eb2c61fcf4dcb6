"""Byte-identity sweep of the CLI: one sha256 per command group over a fixed, seeded corpus.

Imports normbase from the source tree given by --src (default: this
checkout's src) and runs cli.main in-process on every run of the corpus,
hashing (argv, exit code, stdout, stderr) per group.  A run that exits from
the parser (a usage error or --help) is hashed by its argv and exit code
alone: argparse wraps that text to the terminal width and words it by
Python version, so no hash depends on either.  The corpus:

- every element command (normal find, normal check, vector, prescribe,
  compose, weight3) at each n <= 64, in both output forms;
- compose and every weight3 i0 on the default and on a seeded modulus;
- the golden --force-beta pow:1,126 run at n = 16;
- normal check and vector on 100-term pow: lists at each n <= 64 and at
  n = 1 on the moduli x and x + 1, mixing 0, 1, n, 2^n - 1, 2^n, 2^n + 1,
  twelve-digit and 300-bit exponents and repeated terms;
- small audits, and error cases (bad vectors, moduli, elements, degrees,
  usage);
- prescribe on unachievable vectors: each condition of the 2-power rule
  failing alone at n = 1 .. 64, and odd n whose vectors are zero,
  asymmetric, or share different factors with x^n - 1, so that every
  rendered FAIL line and common-factor note is hashed.

To compare two trees, run it once on each and diff the outputs:

    git worktree add ../parent HEAD~1
    python tools/identity.py --src ../parent/src > parent.txt
    python tools/identity.py > change.txt
    diff parent.txt change.txt

The vectors and moduli are drawn with the tree's own validate_vector and
is_irreducible, so a tree that judges them differently changes the corpus,
and its hashes, too; the unachievable vectors are fixed.  A sweep of the
4,374 runs takes about 3.5 s on a 2-core Xeon with Python 3.11.

The test suite enforces it: tests/test_cli_digest.py runs this script on
the checkout and compares every printed line with pinned hashes, so a
deliberate change to any CLI output must update them there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import random
import sys
from pathlib import Path

GOLDEN = ["prescribe", "--degree", "16", "--modulus", "0x1002D",
          "--vector", "1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,1", "--force-beta", "pow:1,126"]


def _bits(v) -> str:
    return ",".join(str(b) for b in v.coeffs())


def _corpus(nb) -> dict[str, list[list[str]]]:
    """Group name -> argv lists, one form each (the --json form is added by the caller)."""
    CyclicPoly, pow2_odd_split = nb.poly2.CyclicPoly, nb.construct.pow2_odd_split
    rng = random.Random(2013)

    def symmetric(n):
        a = CyclicPoly(n, rng.getrandbits(n))
        return CyclicPoly(n, a.bits | nb.poly2.reciprocal(a).bits)

    def accepted(n):
        while True:
            a = symmetric(n)
            if nb.construct.validate_vector(n, a).status is not nb.construct.Status.INVALID:
                return a

    def seeded_modulus(n):
        while not nb.poly2.is_irreducible(f := rng.randrange(1 << n, 1 << (n + 1))):
            pass
        return f"{f:#x}"

    groups: dict[str, list[list[str]]] = {name: [] for name in (
        "find", "check", "vector", "prescribe", "compose", "weight3", "force-beta", "audit",
        "errors", "pow", "invalid")}
    for n in range(1, 65):
        s2, m = pow2_odd_split(n)
        degree = ["--degree", str(n)]
        seeded = ["--modulus", seeded_modulus(n)]
        groups["find"] += [["normal", "find", *degree], ["normal", "find", *degree, *seeded],
                           ["normal", "find", *degree, "--seed", str(n)]]
        elements = [f"0x{rng.getrandbits(n):X}" for _ in range(2)] + ["0x1", f"pow:1,{n + 1}"]
        for mod in ([], seeded):
            for command in (["normal", "check"], ["vector"]):
                name = command[-1]
                groups[name] += [[*command, *degree, *mod, "--element", e] for e in elements]
            targets = [accepted(n), symmetric(n), CyclicPoly(n, rng.getrandbits(n))]
            groups["prescribe"] += [["prescribe", *degree, *mod, "--vector", _bits(a)]
                                    for a in targets]
            groups["compose"].append(["compose", *degree, *mod, "--vector-pow2",
                                      _bits(accepted(s2)), "--vector-odd", _bits(accepted(m))])
            groups["weight3"] += [["weight3", *degree, *mod, "--i0", str(i0)]
                                  for i0 in range(1, s2, 2) if n % 4 == 0]
    # drawn after the other groups, so their runs and hashes stay as they were
    for n, mod in [(n, []) for n in range(1, 65)] + [(1, ["--modulus", "x"]),
                                                      (1, ["--modulus", "x+1"])]:
        terms = [0, 1, n, 2**n - 1, 2**n, 2**n + 1] + [rng.getrandbits(300) for _ in range(5)]
        terms += [rng.randrange(10**11, 10**12) for _ in range(80)]
        terms += rng.choices(terms, k=9)  # repeated terms cancel
        rng.shuffle(terms)
        element = "pow:" + ",".join(map(str, terms))
        groups["pow"] += [[*command, "--degree", str(n), *mod, "--element", element]
                          for command in (["normal", "check"], ["vector"])]
    groups["force-beta"] += [GOLDEN, GOLDEN[:-1] + ["0x1"], GOLDEN[:-1] + ["0x0"],
                             GOLDEN[:-1] + ["pow:3"], GOLDEN[:-1] + ["0x10000"]]
    modes = ("characterization", "factorization", "necessary", "selfdual")
    groups["audit"] += [["audit", "--degree", str(n), "--mode", mode]
                        for n in range(1, 13) for mode in modes]
    groups["audit"] += [["audit", "--degree", str(n), "--mode", mode]
                        for n in (21, 40, 64) for mode in modes]
    groups["audit"].append(["audit", "--degree", "8", "--modulus", "0x11B", "--mode", "selfdual"])
    groups["errors"] += [
        ["prescribe", "--degree", "16", "--vector", "1,0,0"],
        ["prescribe", "--degree", "16", "--vector", "1," + "0," * 14 + "0"],
        ["prescribe", "--degree", "16", "--vector", "1,2" + ",0" * 14],
        ["prescribe", "--degree", "16", "--vector", ""],
        ["prescribe", "--degree", "12", "--vector", "1,0,0,1,0,0,0,0,0,1,0,0"],
        ["prescribe", "--degree", "16", "--modulus", "0x10001", "--vector", "1" + ",0" * 15],
        ["prescribe", "--degree", "16", "--modulus", "x^100000000+1", "--vector", "1"],
        ["prescribe", "--degree", "16", "--modulus", "", "--vector", "1"],
        ["compose", "--degree", "12", "--vector-pow2", "1,0,0", "--vector-odd", "1,1,0,1"],
        ["compose", "--degree", "12", "--vector-pow2", "1,0,0,0", "--vector-odd", "1,0,0"],
        ["compose", "--degree", "12", "--vector-pow2", "1,1,0,1", "--vector-odd", "1,1,1"],
        ["weight3", "--degree", "6"], ["weight3", "--degree", "16", "--i0", "2"],
        ["weight3", "--degree", "16", "--i0", "17"], ["weight3", "--degree", "16", "--i0", "-1"],
        ["normal", "check", "--degree", "8", "--element", "0x100"],
        ["normal", "check", "--degree", "8", "--element", "pow:-1"],
        ["normal", "check", "--degree", "8", "--element", "12"],
        ["vector", "--degree", "8", "--modulus", "0", "--element", "0x1"],
        ["vector", "--degree", "8", "--modulus", "0x0", "--element", "0x1"],
        ["vector", "--degree", "8", "--modulus", "x^8+1", "--element", "0x1"],
        ["vector", "--degree", "0", "--element", "0x1"],
        ["vector", "--degree", "65", "--element", "0x1"],
        ["normal", "find", "--degree", "-3"], ["field", "find", "--degree", "99"],
        ["audit", "--degree", "32", "--mode", "characterization"],
        ["audit", "--degree", "8", "--mode", "nope"],
        ["frobnicate"], ["normal"], ["prescribe", "--degree", "16"], ["--help"],
    ]
    # fixed supports, no draws: a[0] = 0, a[n/2] = 1, asymmetric, odd half-sum 0, each alone
    unachievable = [(1, ())] + [(n, ones) for n in (4, 8, 16, 32, 64) for ones in (
        (1, n - 1), (0, 1, n // 2, n - 1), (0, 1), (0,))]
    # odd n: zero, asymmetric with and without a common factor, and symmetric vectors whose
    # common factor with x^n - 1 is x+1, x^2+x+1, x^3+1, x^4+x^3+x^2+x+1, x^5+1, x^7+1, ...
    unachievable += [(9, (0, 3, 6)), (9, (1, 2, 7, 8)), (15, ()), (15, (0, 1)), (15, (0, 1, 3)),
                     (15, (1, 14)), (15, (0, 1, 14)), (15, (0, 5, 10)), (15, (1, 2, 13, 14)),
                     (15, (2, 3, 12, 13)), (15, (0, 1, 2, 13, 14)), (15, (0, 1, 3, 12, 14)),
                     (15, tuple(range(15))), (21, (3, 4, 17, 18)), (21, (2, 5, 16, 19)),
                     (21, (0, 1, 2, 3, 18, 19, 20)), (21, (0, 7, 14))]
    groups["invalid"] += [["prescribe", "--degree", str(n), "--vector",
                           ",".join("1" if i in ones else "0" for i in range(n))]
                          for n, ones in unachievable]
    return groups


def _run(main, argv: list[str]) -> tuple:
    """(exit code, stdout, stderr), or (exit code,) alone for a run that exits from the parser."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # usage or --help: argparse wraps to the terminal width
            return (exc.code,)
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory that holds the normbase package (default: ./src)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import normbase.cli as cli  # from --src, inserted first
    import normbase as nb

    print(f"normbase from {Path(nb.__file__).parent}", file=sys.stderr)
    total, runs = hashlib.sha256(), 0
    print(f"{'group':12} {'runs':>5}  sha256")
    for name, group in _corpus(nb).items():
        h = hashlib.sha256()
        for run in group:
            for form in ([], ["--json"]):
                record = repr((form + run, *_run(cli.main, form + run))).encode()
                h.update(record)
                total.update(record)
        runs += 2 * len(group)
        print(f"{name:12} {2 * len(group):5}  {h.hexdigest()}")
    print(f"{'all':12} {runs:5}  {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
