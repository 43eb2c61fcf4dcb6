"""Mutation check: each catalogued fault must make the tests named for it fail.

A mutant is (name, file, old, new, tests): the text old, which must occur
exactly once in file, is replaced by new, and the pytest ids in tests are
run on that mutated copy.  The check works in a temporary copy of src/,
tests/, tools/ and pyproject.toml, so the checkout is never edited:

1. every listed test must pass on the unmutated copy;
2. each mutant is applied alone and its tests run with `pytest -x -q`, one
   run at a time; a failing run kills the mutant, a passing one lets it
   survive.

Each pytest run is stopped after TIMEOUT_S seconds.  A mutant whose run is
stopped, say one that turns a bounded loop into an endless one, counts as
killed: its tests did not pass.  It prints one line per mutant (killed,
survived or timeout, and the seconds taken)
and exits 1 on a survivor, or on an old text that no longer occurs exactly
once (a stale entry: the code it names has changed, so the entry must be
rewritten).  Run it from anywhere:

    python tools/mutants.py

The sweep is not part of the test suite, which checks only that each old
text occurs once and each test id names an existing test
(tests/test_source.py); the catalogue, a hundred and seven mutants, takes
about 160-220 s on a 2-core Xeon with Python 3.11.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300  # one pytest run; the unmutated run of every listed test takes about 25 s
FIELD = "src/normbase/field.py"
CERTIFY = [
    "tests/test_field.py::test_certification_matches_trial_division_exhaustively",
    "tests/test_field.py::test_only_the_gcd_rejects_a_product_of_irreducibles_of_degree_n_over_p",
]
OWNERSHIP = "tests/test_oracle.py::test_audits_leave_a_spec_its_squaring_tables_alone"
FREED = "tests/test_normal.py::test_field_spec_is_freed_and_its_choices_repeat"
STORE = '        object.__setattr__(self, "_held", {})  # the values built later, by key (_rented)\n'
ORACLE = "src/normbase/oracle.py"
REFERENCE = ["tests/test_oracle.py::test_enumeration_matches_the_reference_loop"]
PLANES = ["tests/test_oracle.py::test_entry_planes_are_the_brute_vector_on_every_element"]
MINIMA = ["tests/test_oracle.py::test_minima_plane_marks_every_orbit_minimum"]
SPLIT = "for bit, child in ((1 << i | 1 << (n - i), ones), (0, members ^ ones)):"
SYMMETRY = ("        elif entry != entries[n - i]:\n"
            "            raise RuntimeError(\"vector entries a_i and a_(n-i) differ (implementation bug)\")\n")
FULL_SPAN = ["tests/test_oracle.py::test_independent_is_a_full_span"]
LANE_SPAN = ["tests/test_oracle.py::test_lane_elimination_is_the_one_lane_verdict_and_the_span"]
CLOSURE = ("    if x != start:\n"
           "        raise RuntimeError(\"Frobenius orbit longer than n (implementation bug)\")\n")
LANE_SQUARE = ["tests/test_oracle.py::test_table_square_is_the_naive_square"]
PREDICTED_MEMO = "@lru_cache(maxsize=sum(map(_characterized, range(ENUMERATION_CAP + 1))))"
PLACE = "            basis[k] |= lead\n            r ^= lead\n"
CONSTRUCT = "src/normbase/construct.py"
BASE_IF = "spec._held.get(t) if beta is None else"
BASE_READ = "held if type(held) is tuple else _kept_base(spec, t)"
BASE = ("    # the kept base with its tables, or a count until they are built; a forced beta is not kept\n"
        f"    held = {BASE_IF} (_base(spec, t, beta), None)\n"
        f"    base, tables = {BASE_READ}\n")
BASE_RENTED = '_rented(spec._held, t, "lift", _base_tables, base)'
MONOMIAL = "CyclicPoly(t, 1 << j)"
KEPT_TABLES = ["tests/test_construct.py::test_kept_tables_and_loops_prescribe_alike_on_every_valid_vector",
               "tests/test_construct.py::test_kept_tables_and_loops_compose_alike"]
BASE_SWITCH = [
    "tests/test_construct.py::test_a_kept_base_builds_its_tables_once_it_has_served_its_rent"]
VALIDATE = ("    if not all(_flags(t, a)):\n"
            "        raise InvalidVectorError(validate_vector(t, a))\n")
VERDICTS = ["tests/test_construct.py::test_verdicts_pinned_and_decided_by_the_flags"]
FACTOR = "src/normbase/factor.py"
G_ORDER = ["tests/test_factor.py::test_iter_G_is_the_index_definition_in_order"]
TWO_POWER_IMAGES = ["tests/test_factor.py::test_solution_images_solve_every_target_in_H_linearly"]
ODD_IMAGES = ["tests/test_factor.py::test_sqrt_odd_is_the_string_permutation"]
NORMAL = "src/normbase/normal.py"
SCAN = ["tests/test_normal.py::test_scan_is_the_naive_scan_on_every_modulus_of_degree_15",
        "tests/test_normal.py::test_scan_answers_past_its_first_block_at_degree_18"]
CAP = "tests/test_normal.py::test_scan_past_its_cap_returns_the_seed_zero_draw"
LAZY = "tests/test_normal.py::test_scan_that_ends_in_its_first_block_reads_one_vector_per_candidate"
FORM = "tests/test_field.py::test_form_reads_the_one_gram_table_as_the_byte_tables"
POLY2 = "src/normbase/poly2.py"
CLI = "src/normbase/cli.py"
SCOPE = ["tests/test_construct.py::test_degree_scope_checks_keep_their_errors"]
SUBFIELD_GUARD = "    if not (_characterized(t) or t == 2):\n"
EVERY_ELEMENT = ["tests/test_normal.py::test_loop_and_table_vectors_are_the_naive_vector_on_every_element"]
SEEDED_VECTORS = ["tests/test_normal.py::test_loop_and_table_vectors_agree_on_default_and_seeded_moduli"]
SWITCH = ["tests/test_normal.py::test_a_spec_builds_its_table_once_the_loop_has_cost_one_build"]
FROBENIUS_RENTED = '    held = _rented(spec._held, "frobenius", "frobenius", _frobenius_tables, spec)\n'
EACH_FORK = ["tests/test_construct.py::test_each_fork_switches_at_its_own_price"]
PRICED = ["tests/test_source.py::test_every_rent_site_names_its_fork_in_the_one_price_table"]
RENT = [
    "tests/test_poly2.py::test_rent_is_none_for_price_calls_then_one_build"]
UNIT_EVERY = ["tests/test_poly2.py::test_unit_test_is_the_gcd_criterion_on_every_vector"]
UNIT_SWITCH = [
    "tests/test_poly2.py::test_a_ring_size_builds_its_tables_once_its_gcd_tests_have_cost_one_build"]
POW_SQUARE = "        r = _linear(square, r) if square else poly_mod(poly_mul(r, r), f)\n"
UNIT_RENTED = '    held = _rented(_units, n, "units", _unit_tables, n)\n'
LIFT = "_picked_sum(conjugates, _factor("
NEXT_LIFT = "_picked_sum(conjugates[1:] + conjugates[:1], _factor("
ORDER_CHECK = ("        if all(_pow_mod(zeta, m // p, modulus) != 1 for p in primes):\n"
               "            break\n")

MUTANTS = [
    ("gcd one squaring early", FIELD,
     "poly_gcd(h[n // p] ^ x", "poly_gcd(h[n // p - 1] ^ x", CERTIFY),
    ("x^(2^n) = x not checked", FIELD,
     "return h[n] == x and all(", "return all(", CERTIFY),
    ("frobenius without k mod n", FIELD,
     "_conjugates(spec, a, k % spec.n + 1)[-1]", "_conjugates(spec, a, k + 1)[-1]",
     ["tests/test_field.py::test_frobenius"]),
    ("rel_trace summing the first n/t conjugates", FIELD,
     "spec.n - t + 1)[::t]", "spec.n - t + 1)[:spec.n // t]",
     ["tests/test_field.py::test_rel_trace_is_the_sum_of_the_subfield_conjugates"]),
    ("form without >> s", FIELD,
     "w ^= table[a & 0xFF] >> s", "w ^= table[a & 0xFF]", [FORM]),
    ("Gram table rows shifted by one", FIELD,
     "_byte_tables([seq >> j for j in range(8)])[0]", "_byte_tables([seq >> (j + 1) for j in range(8)])[0]",
     [FORM]),
    ("modulus of degree MAX_DEGREE shown in hex", FIELD,
     "elem_to_hex(self.modulus) if d > MAX_DEGREE", "elem_to_hex(self.modulus) if d >= MAX_DEGREE",
     ["tests/test_field.py::test_modulus_of_degree_max_degree_at_another_n_is_named_by_its_terms"]),
    ("trace form built with the spec", FIELD,
     STORE, STORE + "        _trace_form(self)\n", [OWNERSHIP]),
    ("trace form in a module-level dict", FIELD,
     "_rented(spec._held, \"trace\", None,", "_rented(globals().setdefault(\"_OWNED\", {}), spec, None,",
     [OWNERSHIP, FREED]),
    ("store module-level, one per modulus", FIELD,
     STORE, STORE.replace("{}", "globals().setdefault(\"_HELD\", {}).setdefault(self.modulus, {})"),
     [FREED]),
    ("pow multiplying before it squares", POLY2,
     POW_SQUARE + "        if bit == \"1\":\n            r = poly_mod(poly_mul(r, a), f)\n",
     "        if bit == \"1\":\n            r = poly_mod(poly_mul(r, a), f)\n" + POW_SQUARE,
     ["tests/test_field.py"]),
    ("Frobenius stride one byte short", FIELD,
     "    stride = 8 * lanes\n", "    stride = 8 * lanes - 8\n", EVERY_ELEMENT),
    ("one byte lane dropped from the parity sum", FIELD,
     "sum(1 << 8 * j for j in range(lanes))", "sum(1 << 8 * j for j in range(1, lanes))", EVERY_ELEMENT),
    ("Frobenius table built on the first vector", FIELD,
     FROBENIUS_RENTED, "    held = _frobenius_tables(spec)\n", SWITCH),
    ("Frobenius table never built", FIELD, FROBENIUS_RENTED, "    held = None\n", SWITCH),
    ("Frobenius site names the lift fork", FIELD,
     FROBENIUS_RENTED, FROBENIUS_RENTED.replace('"frobenius", _', '"lift", _'), EACH_FORK),
    ("field keeps a price table of its own", FIELD,
     "_STEPS = 8 ", "_PRICES = {\"frobenius\": 20}\n_STEPS = 8 ", PRICED),
    ("rent paid one use late", POLY2,
     "held < _PRICES[fork]:", "held <= _PRICES[fork]:",
     RENT + SWITCH + BASE_SWITCH + UNIT_SWITCH),
    ("no fork read as a price", POLY2,
     "if fork is not None and held", "if held",
     ["tests/test_poly2.py::test_rent_with_no_fork_is_price_zero_and_an_unknown_fork_raises"]),
    ("gcd only at n/2", FIELD,
     "for p in _prime_divisors(n))", "for p in [2])", CERTIFY),
    ("lanes without the closure check", ORACLE, CLOSURE, "",
     ["tests/test_oracle.py::test_enumeration_orbit_longer_than_n_is_an_implementation_bug"]),
    ("residue at bit 0 never placed", ORACLE,
     "for k in range(n - 1, -1, -1):", "for k in range(n - 1, 0, -1):", REFERENCE),
    ("every element taken as its orbit's minimum", ORACLE,
     "        minima ^= minima & above\n", "", REFERENCE + MINIMA),
    ("lane bytes packed big-endian", ORACLE,
     'v.to_bytes(width, "little") for v in values', 'v.to_bytes(width, "big") for v in values',
     REFERENCE),
    ("lane square reads bit j + 1", ORACLE,
     "(x >> j & ones) * s for", "(x >> j + 1 & ones) * s for", REFERENCE + LANE_SQUARE),
    ("yield without the rank test", ORACLE,
     "for (bits, e), ok in zip(orbits, normal) if ok)", "for (bits, e), ok in zip(orbits, normal) if True)",
     REFERENCE),
    ("fill one bit short", ORACLE,
     "fill, basis = (1 << n) - 1,", "fill, basis = (1 << n - 1) - 1,", REFERENCE),
    ("ones shifted by one", ORACLE,
     "* len(values), \"little\")", "* len(values), \"little\") << 1", REFERENCE),
    ("round 2 skipped", ORACLE, "    yield from _ranked(n, squares, orbits)\n", "", REFERENCE),
    ("round 2 ranking each class's first orbit again", ORACLE,
     "_ascending(others & others - 1)", "_ascending(others)", REFERENCE),
    ("round 2 skipping classes of two orbits", ORACLE,
     "members.bit_count() > n:", "members.bit_count() > 2 * n:", REFERENCE),
    ("classes of the trace-zero elements", ORACLE,
     "stack = [(1, entries[0], 1)]", "stack = [(1, entries[0] ^ (1 << (1 << n)) - 1, 1)]", REFERENCE),
    ("symmetry raise removed", ORACLE, SYMMETRY, "",
     ["tests/test_oracle.py::test_asymmetric_entries_are_an_implementation_bug"]),
    ("minima comparison reading the conjugate's bit", ORACLE,
     "above |= differ & x", "above |= differ & c", REFERENCE + MINIMA),
    ("split drops the zero child", ORACLE,
     SPLIT, SPLIT.replace(", (0, members ^ ones))", ",)"), REFERENCE),
    ("entry plane i from conjugate set i + 1", ORACLE,
     "entry = reduce(xor, map(and_, conj, form))",
     "entry = reduce(xor, map(and_, _mapped(squares, conj), form))", PLANES),
    ("necessary lines in class order", ORACLE,
     "for _, vec in sorted(failing) for", "for _, vec in failing for",
     ["tests/test_oracle.py::test_necessary_violation_lines_keep_element_order"]),
    ("residue placed at each of its bits", ORACLE, PLACE, PLACE.replace("            r ^= lead\n", ""),
     REFERENCE),
    ("trace pass of the wrong squares", ORACLE,
     "traces = _monomial_traces(spec, squares)", "traces = _monomial_traces(spec, squares[1:] + squares[:1])",
     REFERENCE + PLANES),
    ("wanted sees a shifted vector", ORACLE,
     "_classes(entries, n) if wanted(bits)}", "_classes(entries, n) if wanted(bits >> 1)}", REFERENCE),
    ("form rows shifted by one", ORACLE,
     "[traces >> j & (1 << n) - 1 for j in range(n)]",
     "[traces >> (j + 1) & (1 << n) - 1 for j in range(n)]", REFERENCE + PLANES),
    ("predicted memo keyed on n alone", ORACLE, PREDICTED_MEMO,
     "@lambda build, memo={}: lambda n, flags: memo[n] if n in memo else memo.setdefault(n, build(n, flags))",
     ["tests/test_oracle.py::test_a_patched_flags_never_reads_the_held_predicted_set"]),
    ("predicted_vectors hands out the memo itself", ORACLE,
     "return set(_predicted(n, _flags))", "return _predicted(n, _flags)",
     ["tests/test_oracle.py::test_the_predicted_set_handed_out_is_a_copy"]),
    ("monomial traced one power up", ORACLE,
     "poly_mod(1 << k, spec.modulus)", "poly_mod(1 << k + 1, spec.modulus)",
     ["tests/test_field.py::test_trace_basics",
      "tests/test_oracle.py::test_monomial_traces_are_the_production_traces"]),
    ("verdict swaps ok and FAIL", CONSTRUCT,
     "{'ok' if passed else 'FAIL'}", "{'FAIL' if passed else 'ok'}",
     ["tests/test_construct.py::test_reasons_at_n_equals_two"]),
    ("rejection lists the passing checks", CONSTRUCT,
     "in verdict.checks if not passed", "in verdict.checks if passed",
     ["tests/test_construct.py::test_invalid_vector_is_reported_before_a_non_normal_base",
      "tests/test_cli.py::test_invalid_vector_is_reported_before_a_non_normal_forced_base"]),
    ("base taken before validation", CONSTRUCT,
     VALIDATE + BASE, BASE + VALIDATE,
     ["tests/test_construct.py::test_invalid_vector_is_reported_before_a_non_normal_base",
      "tests/test_cli.py::test_invalid_vector_is_reported_before_a_non_normal_forced_base"]),
    ("odd rule's two flags swapped", CONSTRUCT,
     "[is_symmetric(a), is_unit_mod_cyclic(a)]", "[is_unit_mod_cyclic(a), is_symmetric(a)]",
     VERDICTS),
    ("forced beta ignored", CONSTRUCT,
     BASE_IF, "spec._held.get(t) if True else",
     ["tests/test_construct.py::test_prescribe_rejects_non_normal_base"]),
    ("base tables built on the first use", CONSTRUCT,
     BASE_RENTED, "_base_tables(base)", BASE_SWITCH),
    ("base tables never built", CONSTRUCT, BASE_RENTED, "None", BASE_SWITCH),
    ("lift site names the frobenius fork", CONSTRUCT,
     BASE_RENTED, BASE_RENTED.replace('"lift"', '"frobenius"'), EACH_FORK),
    ("warm read taking a count for the base", CONSTRUCT,
     BASE_READ, "held or _kept_base(spec, t)", BASE_SWITCH),
    ("held tables ignored", CONSTRUCT,
     "lift = _lift(base, a) if tables is None else _linear(tables, a.bits)", "lift = _lift(base, a)",
     BASE_SWITCH),
    ("lift of the conjugates off by one", CONSTRUCT, LIFT, NEXT_LIFT,
     ["tests/test_construct.py::test_kept_basis_change_matches_apply_basis_change"]),
    ("golden element: lift by the next conjugates", CONSTRUCT, LIFT, NEXT_LIFT,
     ["tests/test_acceptance.py::test_criterion_1_golden_sixteen_bit_run"]),
    ("table without the factor map", CONSTRUCT,
     f"_lift(base, {MONOMIAL})", f"_picked_sum(base[3], cyclic_mul({MONOMIAL}, base[2]).bits)",
     KEPT_TABLES),
    ("table tabulates x^(j+1)", CONSTRUCT, MONOMIAL, "CyclicPoly(t, 1 << (j + 1) % t)", KEPT_TABLES),
    ("subfield digest: table tabulates x^(j+1)", CONSTRUCT, MONOMIAL, "CyclicPoly(t, 1 << (j + 1) % t)",
     ["tests/test_construct.py::test_subfield_results_pinned"]),
    ("solution images without the free column", FACTOR,
     "        basis[p] = basis[p] or 1 << p\n", "        basis[p] = basis[p] or 0\n",
     TWO_POWER_IMAGES + KEPT_TABLES),
    ("weight-3 support off by one", CONSTRUCT,
     "{0, j0 * m, ", "{0, j0 * m + 1, ", ["tests/test_construct.py::test_weight3_supports"]),
    ("compose's b repeated with period m + 1", CONSTRUCT,
     "b.bits * (full // ((1 << m) - 1))", "b.bits * (full // ((1 << (m + 1)) - 1))",
     ["tests/test_construct.py::test_compose_twelve"]),
    ("degree scope taking n = 2", CONSTRUCT,
     "n >= 4 and _is_pow2(n)", "n >= 2 and _is_pow2(n)", SCOPE),
    ("subfield guard without t = 2", CONSTRUCT,
     SUBFIELD_GUARD, "    if not _characterized(t):\n",
     ["tests/test_construct.py::test_prescribe_in_subfield_degenerate"]),
    ("subfield guard dropped", CONSTRUCT,
     SUBFIELD_GUARD + "        raise ValueError(\n"
     "            f\"subfield prescription requires t a power of two, t = 2, or odd t, got {t}\")\n",
     "", SCOPE),
    ("free mask keeping bit 2", FACTOR, "& ~0b101", "& ~0b001", G_ORDER),
    ("odd half-sum mask without | 1", FACTOR,
     "(1 << (f.n // 2 | 1)) // 3", "(1 << f.n // 2) // 3",
     ["tests/test_factor.py::test_loop_free_helpers_match_their_definitions"]),
    ("factor_2power without its in_H check", FACTOR,
     "    if not in_H(h):\n", "    if False:\n",
     ["tests/test_factor.py::test_public_factor_checks_keep_their_errors"]),
    ("image of h_0 without the constant", FACTOR,
     "return (1, *(1 | ", "return (0, *(1 | ", TWO_POWER_IMAGES),
    ("image constant dropped", FACTOR,
     "*(1 | _eliminate(", "*(_eliminate(", TWO_POWER_IMAGES),
    ("upper images without the constant", FACTOR,
     "*[1] * (n - n // 2)", "*[0] * (n - n // 2)", TWO_POWER_IMAGES),
    ("echelon without its rank check", FACTOR,
     "        if not row >> n:\n"
     "            raise RuntimeError(\"factorization system is rank-deficient (implementation bug)\")\n",
     "", ["tests/test_factor.py::test_rank_deficient_system_is_an_implementation_bug"]),
    ("odd root by (n - 1)/2", FACTOR,
     "1 << j * (n + 1) // 2 % n", "1 << j * (n - 1) // 2 % n", ODD_IMAGES),
    ("odd image permutation off by one", FACTOR,
     "1 << j * (n + 1) // 2 % n", "1 << (j + 1) * (n + 1) // 2 % n", ODD_IMAGES),
    ("factor_2power's result unchecked", FACTOR,
     "if cyclic_mul(g, reciprocal(g)) != h:", "if False:",
     ["tests/test_construct.py::test_wrong_factor_is_caught_by_the_closing_check"]),
    ("submask step of (low + 1) & free", FACTOR,
     "(low - free) & free", "(low + 1) & free", G_ORDER),
    ("member without the mirror", FACTOR,
     "1 | low | _mirror(low, n) >> 1", "1 | low",
     G_ORDER + ["tests/test_factor.py::test_factor_golden_run"]),
    ("next round starting from block M - 1", FIELD,
     "conj = image >> step", "conj = image >> step - 8 * lanes", SEEDED_VECTORS),
    ("c_j without the f(e_j) term", NORMAL,
     "vec(H | 1 << j) ^ f_H ^ low[1 << j]", "vec(H | 1 << j) ^ f_H", SCAN),
    ("first block not aligned to 256", NORMAL,
     "H = mask & -mask & ~0xFF", "H = mask & -mask", SCAN),
    ("unit dict keyed on the low byte", NORMAL,
     "if v not in units:\n            units[v] = is_unit_mod_cyclic(CyclicPoly(spec.n, v))\n"
     "        if units[v]:",
     "if a & 0xFF not in units:\n"
     "            units[a & 0xFF] = is_unit_mod_cyclic(CyclicPoly(spec.n, v))\n"
     "        if units[a & 0xFF]:", SCAN),
    ("cap counting first-block trace-zero", NORMAL,
     "        if trace(a):\n            yield a, vec(a), False\n",
     "        yield a, vec(a), False\n", [CAP]),
    ("low built before the first block", NORMAL,
     "    H = mask & -mask & ~0xFF\n",
     "    H = mask & -mask & ~0xFF\n    low = [vec(L) for L in range(256)]\n", [LAZY]),
    ("polarized hit not confirmed", NORMAL,
     "if polarized and corresponding_vector(spec, a) != f:", "if False:",
     ["tests/test_normal.py::test_scan_hit_that_is_not_normal_is_an_implementation_bug"]),
    ("polarized hit confirmed by is_normal only", NORMAL,
     "if polarized and corresponding_vector(spec, a) != f:", "if polarized and not is_normal(spec, a):",
     ["tests/test_normal.py::test_polarized_hit_must_carry_the_element_vector"]),
    ("scan keeping the previous candidate's vector", NORMAL,
     "        if units[v]:\n            f = CyclicPoly(spec.n, v)\n",
     "        prev, units[\"prev\"] = units.get(\"prev\", v), v\n"
     "        if units[v]:\n            f = CyclicPoly(spec.n, prev)\n",
     ["tests/test_normal.py::test_scan_keeps_its_element_with_the_element_vector"]),
    ("polarized blocks yielding trace-zero L", NORMAL,
     "if trace(L) ^ t]", "if trace(L) | t]",
     ["tests/test_normal.py::test_polarized_blocks_yield_only_their_128_trace_one_candidates"]),
    ("first block of 257 encodings", NORMAL,
     "range(H, H + 256)", "range(H, H + 257)",
     ["tests/test_normal.py::test_first_block_yields_each_encoding_once"]),
    ("seeded draw one candidate past its cap", NORMAL,
     "for _ in range(DRAW_CAP):", "for _ in range(DRAW_CAP + 1):",
     ["tests/test_normal.py::test_seeded_draw_without_a_normal_element_is_an_implementation_bug"]),
    ("SCAN_CAP = 2^14", NORMAL,
     "SCAN_CAP = 1 << 15", "SCAN_CAP = 1 << 14",
     ["tests/test_normal.py::test_find_normal_pinned_by_degree[31]"]),
    ("unit L mask without the top low bit", POLY2,
     "ones * ((1 << k - 1) - 1)", "ones * ((1 << k - 2) - 1)", UNIT_EVERY),
    ("unit H at bit k - 2", POLY2, "ones << k - 1", "ones << k - 2", UNIT_EVERY),
    ("unit test skipping the coset of 1", POLY2,
     "            reps.append(r)\n", "            reps += [r] if r != 1 else []\n", UNIT_EVERY),
    ("zeta of order m/p", POLY2,
     ORDER_CHECK, ORDER_CHECK.replace("break", "zeta = _pow_mod(zeta, primes[0], modulus)\n"
                                              "            break"), UNIT_EVERY),
    ("unit site names the frobenius fork", POLY2,
     UNIT_RENTED, UNIT_RENTED.replace('"units"', '"frobenius"'), UNIT_SWITCH),
    ("unit tables never built", POLY2, UNIT_RENTED, "    held = None\n", UNIT_SWITCH),
    ("x^0 rejected as a negative exponent", POLY2,
     "if k < 0:", "if k <= 0:",
     ["tests/test_poly2.py::test_parse_poly_reads_x_to_the_zero_as_the_constant_term"]),
    ("human column one wider", CLI, "{key:14}", "{key:15}",
     ["tests/test_cli_digest.py::test_cli_output_matches_the_recorded_digest"]),
    ("audit violation exit code 3", CLI,
     "EX_VERIFY = 2", "EX_VERIFY = 3",
     ["tests/test_cli.py::test_audit_violation_exits_with_the_documented_code_2"]),
    ("cyclic_mul without its size check", POLY2,
     "    if a.n != b.n:\n        raise ValueError(f\"ring size mismatch: {a.n} != {b.n}\")\n", "",
     ["tests/test_normal.py::test_basis_change_size_mismatch"]),
    ("elimination bottom column first", POLY2,
     "for k in range(len(basis) - 1, -1, -1):", "for k in range(len(basis)):", FULL_SPAN + LANE_SPAN),
    ("elimination fill one bit short", POLY2,
     "r ^= b & hit * fill", "r ^= b & hit * (fill >> 1)", LANE_SPAN),
    ("inverse cofactor without the quotient", POLY2,
     "u, u1 = u1, u ^ poly_mul(q, u1)", "u, u1 = u1, u ^ u1",
     ["tests/test_poly2.py::test_inverse_of_golden_base_vector"]),
    ("mirror without the wrap of bit n - 1", POLY2,
     "((r << 1) | (r >> (n - 1)))", "(r << 1)",
     ["tests/test_poly2.py::test_reciprocal_matches_definition"]),
    ("byte-reversal table without [::-1]", POLY2,
     'int(f"{i:08b}"[::-1], 2)', 'int(f"{i:08b}", 2)',
     ["tests/test_poly2.py::test_mirror_matches_the_string_reversal"]),
    ("window entry x*a + a taken as x*a", POLY2,
     "(0, a, a << 1, a << 1 ^ a)", "(0, a, a << 1, a << 1)",
     ["tests/test_poly2.py::test_poly_mul_matches_the_bit_serial_product"]),
    ("doubling pair without mod n", POLY2,
     "1 << (n - k) % n", "1 << n - k",
     ["tests/test_poly2.py::test_symmetric_vectors_are_the_mirrored_count_in_order"]),
]


def _pytest(copy: Path, tests: list[str]) -> str:
    """"passed", "failed" or "timeout": the tests on the tree at copy, stopped after TIMEOUT_S."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    try:
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                              *tests], cwd=copy, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if run.returncode == 0 else "failed"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "tools"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy)
        listed = sorted({test for *_, tests in MUTANTS for test in tests})
        if _pytest(copy, listed) != "passed":
            print("the listed tests fail on the unmutated tree", file=sys.stderr)
            return 1
        failed = False
        for name, file, old, new, tests in MUTANTS:
            text = (copy / file).read_text()
            if text.count(old) != 1:
                print(f"{name:40s} stale: old text occurs {text.count(old)} times in {file}")
                failed = True
                continue
            (copy / file).write_text(text.replace(old, new))
            start = time.perf_counter()
            outcome = _pytest(copy, tests)
            (copy / file).write_text(text)
            verdict = {"passed": "survived", "failed": "killed"}.get(outcome, outcome)
            print(f"{name:40s} {verdict:8s} {time.perf_counter() - start:5.1f} s")
            failed |= outcome == "passed"
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
