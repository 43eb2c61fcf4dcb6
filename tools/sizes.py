"""Source size of the normbase package: lines, code lines and tokens per module.

The counting rule, per module of the package:

- lines: the newline count, as `wc -l` gives it;
- code lines: the lines that carry a token other than a comment, a blank
  line, a newline, an indent or a dedent, not counting the lines of
  module, class and function docstrings;
- tokens: the tokens `tokenize` yields, without COMMENT and NL.

It prints one row per module and the total, or, with --json, one JSON
object of the same figures.  Imports nothing from the package, so it
counts any tree given by --src (default: this checkout's src):

    python tools/sizes.py
    python tools/sizes.py --json --src ../parent/src

It is not part of the test suite.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def _docstring_lines(source: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """{"lines", "code", "tokens"} of one module's source."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    docstrings = _docstring_lines(source)
    code = set()
    for tok in tokens:
        if tok.type in _LAYOUT or tok.type == tokenize.STRING and tok.start[0] in docstrings:
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return {"lines": source.count("\n"), "code": len(code),
            "tokens": sum(tok.type not in (tokenize.COMMENT, tokenize.NL) for tok in tokens)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory that holds the normbase package (default: ./src)")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    paths = sorted((Path(args.src) / "normbase").glob("*.py"))
    if not paths:
        print(f"no normbase package under {args.src}", file=sys.stderr)
        return 1
    sizes = {path.stem: count(path.read_text()) for path in paths}
    sizes["total"] = {key: sum(row[key] for row in sizes.values())
                      for key in ("lines", "code", "tokens")}
    if args.json:
        print(json.dumps(sizes, indent=2))
        return 0
    print(f"{'module':10s} {'lines':>6s} {'code':>6s} {'tokens':>7s}")
    for name, row in sizes.items():
        print(f"{name:10s} {row['lines']:6,d} {row['code']:6,d} {row['tokens']:7,d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
