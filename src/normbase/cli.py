"""Command-line front end.

Subcommands define fields, find/check normal elements, compute vectors,
run the prescription/composition constructions, and audit the exhaustive
oracles.  Human output is a small aligned table; --json emits one line of
machine-readable JSON with stable key order.  Every emitted element record
is re-verified in-process before printing: its vector is recomputed, and a
construction's must equal its target, or the run exits 2.  The oracle
module decides each audit; audit prints the report's lines or, with
--json, its payload.  Each subcommand's parser names its handler, which
main calls.

Exit codes: 0 ok, 1 invalid input vector (or unsupported construction),
2 verification/audit failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import construct, field, normal, oracle, poly2

EX_OK = 0
EX_INVALID = 1
EX_VERIFY = 2
EX_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _field_arguments(p: argparse.ArgumentParser, modulus_help: str | None = None):
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--modulus", help=modulus_help)


@lru_cache(maxsize=1)  # built on the first main() call, then reused: parsing keeps no state
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="normbase",
        description="Construct, verify, and audit normal elements of GF(2^n) over GF(2) "
                    "with prescribed trace self-orthogonality vectors.")
    parser.add_argument("--json", action="store_true",
                        help="emit one line of machine-readable JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="field-level utilities")
    field_sub = p_field.add_subparsers(dest="subcommand", required=True)
    p_ffind = field_sub.add_parser("find", help="deterministic irreducible modulus")
    p_ffind.add_argument("--degree", type=int, required=True)
    p_ffind.set_defaults(run=_cmd_field_find)

    p_normal = sub.add_parser("normal", help="find or check normal elements")
    normal_sub = p_normal.add_subparsers(dest="subcommand", required=True)
    p_nfind = normal_sub.add_parser("find", help="find a normal element")
    _field_arguments(p_nfind, "defaults to the deterministic modulus")
    p_nfind.add_argument("--seed", type=int,
                         help="use seeded random search instead of the scan")
    p_nfind.set_defaults(run=_cmd_element, make=_find)
    p_ncheck = normal_sub.add_parser("check", help="check normality of an element")
    _field_arguments(p_ncheck)
    p_ncheck.add_argument("--element", required=True)
    p_ncheck.set_defaults(run=_cmd_element, make=_given, name="check")

    p_vector = sub.add_parser("vector", help="corresponding vector of an element")
    _field_arguments(p_vector)
    p_vector.add_argument("--element", required=True)
    p_vector.set_defaults(run=_cmd_element, make=_given, name="vector")

    p_presc = sub.add_parser("prescribe",
                             help="construct a normal element with a prescribed vector")
    _field_arguments(p_presc)
    p_presc.add_argument("--vector", required=True, help="comma-separated bits")
    p_presc.add_argument("--force-beta", help=argparse.SUPPRESS)
    p_presc.set_defaults(run=_cmd_element, make=_prescribe)

    p_comp = sub.add_parser("compose",
                            help="compose subfield prescriptions for n = 2^s * m")
    _field_arguments(p_comp)
    p_comp.add_argument("--vector-pow2", required=True, help="length 2^s bits")
    p_comp.add_argument("--vector-odd", required=True, help="length m bits")
    p_comp.set_defaults(run=_cmd_element, make=_compose)

    p_w3 = sub.add_parser("weight3",
                          help="normal element with a weight-3 vector (4 | n)")
    _field_arguments(p_w3)
    p_w3.add_argument("--i0", type=int, default=1)
    p_w3.set_defaults(run=_cmd_element, make=_weight3)

    p_audit = sub.add_parser("audit", help="run an exhaustive oracle audit")
    _field_arguments(p_audit)
    p_audit.add_argument("--mode", required=True,
                         choices=["characterization", "factorization", "necessary", "selfdual"])
    p_audit.set_defaults(run=_cmd_audit)
    return parser


def _spec_from(args) -> field.FieldSpec:
    if args.modulus is not None:  # an empty --modulus is an error, not the default
        return field.FieldSpec.parse(args.degree, args.modulus)
    return field.FieldSpec.from_degree(args.degree)


def _emit(record: dict, as_json: bool):
    if as_json:
        print(json.dumps(record, separators=(",", ":")))
        return
    for key, value in record.items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, dict):
            value = " ".join(f"{k}={v}" for k, v in value.items())
        elif isinstance(value, bool):
            value = str(value).lower()
        print(f"{key:14} {value}")


def _field_record(spec) -> dict:
    return {
        "degree": spec.n,
        "modulus": field.elem_to_hex(spec.modulus),
        "modulus_terms": poly2.poly_to_text(spec.modulus),
    }


def _cmd_field_find(args) -> int:
    _emit(_field_record(field.FieldSpec.from_degree(args.degree)), args.json)
    return EX_OK


def _find(spec, args) -> tuple[int, dict, poly2.CyclicPoly | None]:
    construction = ({"name": "find", "strategy": "scan"} if args.seed is None
                    else {"name": "find", "strategy": "random", "seed": args.seed})
    return normal.find_normal(spec, args.seed), construction, None


def _given(spec, args) -> tuple[int, dict, poly2.CyclicPoly | None]:
    return field.parse_elem(spec, args.element), {"name": args.name}, None


def _prescribe(spec, args) -> tuple[int, dict, poly2.CyclicPoly | None]:
    target = poly2.parse_vector(args.vector)
    beta = field.parse_elem(spec, args.force_beta) if args.force_beta is not None else None
    steps = construct.prescribe_steps(spec, target, beta)
    return steps.element, {
        "name": "prescribe",
        "base": field.elem_to_hex(steps.base),
        "change": str(steps.change),
    }, target


def _compose(spec, args) -> tuple[int, dict, poly2.CyclicPoly | None]:
    a = poly2.parse_vector(args.vector_pow2)
    b = poly2.parse_vector(args.vector_odd)
    gamma, c = construct.compose(spec, a, b)
    return gamma, {"name": "compose", "vector_pow2": str(a), "vector_odd": str(b)}, c


def _weight3(spec, args) -> tuple[int, dict, poly2.CyclicPoly | None]:
    gamma, c = construct.weight3(spec, args.i0)
    return gamma, {"name": "weight3", "i0": args.i0}, c


def _cmd_element(args) -> int:
    """Build the field, make (element, construction, target vector or None) in it, and print the
    verified record."""
    spec = _spec_from(args)
    element, construction, target = args.make(spec, args)
    # recompute from scratch so "verified" means what it says
    vector = normal.corresponding_vector(spec, element)
    if target is not None and vector != target:
        raise RuntimeError(f"{construction['name']} element has vector {vector}, "
                           f"not {target} (implementation bug)")
    _emit({
        **_field_record(spec),
        "element": field.elem_to_hex(element),
        "vector": vector.coeffs(),
        "normal": poly2.is_unit_mod_cyclic(vector),  # a unit exactly when the element is normal
        "construction": construction,
        "verified": True,
    }, args.json)
    return EX_OK


def _cmd_audit(args) -> int:
    if args.mode != "selfdual":
        report = getattr(oracle, f"check_{args.mode}")(_spec_from(args))
    elif args.modulus is not None:
        raise ValueError("--modulus does not apply to --mode selfdual, "
                         "which audits every degree 2..N on its default modulus")
    else:
        report = oracle.check_self_dual_existence(args.degree)
    print(json.dumps(report.payload, separators=(",", ":")) if args.json
          else "\n".join(report.lines))
    return EX_OK if report.ok else EX_VERIFY


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except construct.InvalidVectorError as exc:
        print(str(exc), file=sys.stderr)
        return EX_INVALID
    except (ValueError, ZeroDivisionError) as exc:
        print(f"normbase: {exc}", file=sys.stderr)
        return EX_INVALID
    except RuntimeError as exc:
        print(f"normbase: {exc}", file=sys.stderr)
        return EX_VERIFY


if __name__ == "__main__":
    sys.exit(main())
