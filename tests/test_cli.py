"""Command-line surface: records, exit codes, determinism."""

import dataclasses
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import normbase
from normbase import FieldSpec, cli, construct, normal, oracle, poly2
from normbase.cli import EX_INVALID, EX_OK, EX_USAGE, EX_VERIFY, main
from normbase.poly2 import CyclicPoly

GOLDEN_VECTOR = "1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,1"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_field_find(capsys):
    code, out, _ = run(capsys, "field", "find", "--degree", "16")
    assert code == EX_OK
    assert "0x1002B" in out or "0x1002" in out  # deterministic smallest modulus
    code, out, _ = run(capsys, "--json", "field", "find", "--degree", "16")
    record = json.loads(out)
    assert record["degree"] == 16
    assert record["modulus_terms"].startswith("x^16")


def test_normal_find_and_check(capsys):
    code, out, _ = run(capsys, "--json", "normal", "find", "--degree", "8")
    assert code == EX_OK
    record = json.loads(out)
    assert record["normal"] is True and record["verified"] is True
    element = record["element"]
    code, out, _ = run(capsys, "--json", "normal", "check", "--degree", "8",
                       "--element", element)
    assert json.loads(out)["normal"] is True


def test_normal_find_seeded_deterministic(capsys):
    _, out1, _ = run(capsys, "--json", "normal", "find", "--degree", "10", "--seed", "7")
    _, out2, _ = run(capsys, "--json", "normal", "find", "--degree", "10", "--seed", "7")
    assert out1 == out2
    assert json.loads(out1)["construction"]["seed"] == 7


def test_vector_command(capsys):
    code, out, _ = run(capsys, "--json", "vector", "--degree", "16",
                       "--modulus", "0x1002D", "--element", "pow:1,126")
    assert code == EX_OK
    record = json.loads(out)
    assert record["vector"] == [1, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0]


def test_prescribe_golden(capsys):
    code, out, _ = run(capsys, "--json", "prescribe", "--degree", "16",
                       "--modulus", "0x1002D", "--vector", GOLDEN_VECTOR,
                       "--force-beta", "pow:1,126")
    assert code == EX_OK
    record = json.loads(out)
    assert record["vector"] == [int(b) for b in GOLDEN_VECTOR.split(",")]
    assert record["construction"]["change"] == "1,1,0,0,0,1,1,0,0,1,1,0,0,0,1,0"
    assert record["normal"] is True and record["verified"] is True


def test_prescribe_invalid_vector_exit_code(capsys):
    code, _, err = run(capsys, "prescribe", "--degree", "16",
                       "--vector", ",".join(["1"] + ["0"] * 15))
    assert code == EX_INVALID
    assert "There isn't such a normal element" in err


def test_prescribe_malformed_vector_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["prescribe", "--degree"])  # missing value
    assert exc.value.code == EX_USAGE
    # well-formed flags but unusable vector text is a semantic failure
    code, _, err = run(capsys, "prescribe", "--degree", "4", "--vector", "1,2")
    assert code == EX_INVALID


def test_compose_command(capsys):
    code, out, _ = run(capsys, "--json", "compose", "--degree", "12",
                       "--vector-pow2", "1,1,0,1", "--vector-odd", "1,0,0")
    assert code == EX_OK
    record = json.loads(out)
    assert record["vector"] == [1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0]


def test_weight3_command(capsys):
    code, out, _ = run(capsys, "--json", "weight3", "--degree", "12")
    assert code == EX_OK
    record = json.loads(out)
    assert sum(record["vector"]) == 3


@pytest.mark.parametrize("argv, element", [
    (("weight3", "--degree", "12"), "0x234"),
    (("weight3", "--degree", "20", "--i0", "3"), "0xB8AB3"),
    (("weight3", "--degree", "24", "--i0", "5"), "0x25FBE9"),
    (("weight3", "--degree", "64"), "0x92EE5F012E15833B"),
    (("weight3", "--degree", "4"), "0x8"),
    (("compose", "--degree", "12", "--vector-pow2", "1,1,0,1", "--vector-odd", "1,0,0"), "0x234"),
    (("compose", "--degree", "10", "--vector-pow2", "1,0", "--vector-odd", "1,0,1,1,0"), "0x2F9"),
])
def test_subfield_constructions_pick_pinned_element(capsys, argv, element):
    # the deterministic choice of element, not only its vector, is part of the output
    code, out, _ = run(capsys, "--json", *argv)
    assert code == EX_OK
    assert json.loads(out)["element"] == element


@pytest.mark.parametrize("argv", [
    ("field", "find", "--degree", "100000"),
    ("audit", "--degree", "18", "--mode", "characterization"),
    ("audit", "--degree", "64", "--mode", "factorization"),
    ("audit", "--degree", "16", "--mode", "necessary"),
    ("audit", "--degree", "32", "--mode", "characterization"),
    ("audit", "--degree", "64", "--mode", "characterization"),
])
def test_unsupported_degree_rejected_before_search(capsys, argv):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert code == EX_INVALID and err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("degree, message", [
    ("24", "characterization covers n = 2^s >= 4 or odd n, got 24"),  # the shape is checked first
    ("32", "exhaustive enumeration capped at n <= 20, got 32"),
])
def test_characterization_audit_bound_messages(capsys, degree, message):
    assert run(capsys, "audit", "--degree", degree, "--mode", "characterization") == (
        EX_INVALID, "", f"normbase: {message}\n")


def test_audit_characterization(capsys):
    code, out, _ = run(capsys, "audit", "--degree", "8", "--mode", "characterization")
    assert code == EX_OK
    assert "achievable 4" in out and "exact" in out


def test_audit_factorization(capsys):
    code, out, _ = run(capsys, "--json", "audit", "--degree", "8", "--mode", "factorization")
    assert code == EX_OK
    record = json.loads(out)
    assert record["targets"] == 4 and record["ok"] is True


def test_audit_necessary(capsys):
    code, out, _ = run(capsys, "--json", "audit", "--degree", "12", "--mode", "necessary")
    assert code == EX_OK
    record = json.loads(out)
    assert record["normal_elements"] == 1536 and record["ok"] is True


def test_audit_selfdual(capsys):
    code, out, _ = run(capsys, "--json", "audit", "--degree", "8", "--mode", "selfdual")
    assert code == EX_OK
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("argv, human, as_json", [
    (("--degree", "8", "--mode", "characterization"),
     "characterization audit, n = 8: achievable 4, predicted 4\n  agreement: exact\n",
     '{"audit":"characterization","degree":8,"achievable":4,"predicted":4,"ok":true}\n'),
    (("--degree", "8", "--mode", "factorization"),
     "factorization audit, n = 8: 4 targets, 0 violations\n",
     '{"audit":"factorization","degree":8,"targets":4,"violations":0,"ok":true}\n'),
    (("--degree", "12", "--mode", "necessary"),
     "necessary-conditions audit, n = 12: 1536 normal elements, 0 violations\n",
     '{"audit":"necessary","degree":12,"normal_elements":1536,"violations":0,"ok":true}\n'),
    (("--degree", "8", "--mode", "selfdual"),
     "self-dual normal basis existence audit\n"
     "  n =  2: exists = true  expected = true  [ok]\n"
     "  n =  3: exists = true  expected = true  [ok]\n"
     "  n =  4: exists = false expected = false [ok]\n"
     "  n =  5: exists = true  expected = true  [ok]\n"
     "  n =  6: exists = true  expected = true  [ok]\n"
     "  n =  7: exists = true  expected = true  [ok]\n"
     "  n =  8: exists = false expected = false [ok]\n",
     '{"audit":"selfdual","max_degree":8,"rows":[{"n":2,"exists":true,"expected":true},'
     '{"n":3,"exists":true,"expected":true},{"n":4,"exists":false,"expected":false},'
     '{"n":5,"exists":true,"expected":true},{"n":6,"exists":true,"expected":true},'
     '{"n":7,"exists":true,"expected":true},{"n":8,"exists":false,"expected":false}],'
     '"ok":true}\n'),
], ids=["characterization", "factorization", "necessary", "selfdual"])
def test_audit_output_pinned(capsys, argv, human, as_json):
    # exact bytes in both formats: scripts and the benchmark compare these lines verbatim
    assert run(capsys, "audit", *argv) == (EX_OK, human, "")
    assert run(capsys, "--json", "audit", *argv) == (EX_OK, as_json, "")


def test_selfdual_audit_rejects_modulus(capsys):
    # the self-dual audit runs every degree 2..N on its default modulus
    for fmt in ((), ("--json",)):
        code, out, err = run(capsys, *fmt, "audit", "--degree", "8", "--mode", "selfdual",
                             "--modulus", "0x11D")
        assert code == EX_INVALID and out == ""
        assert "--modulus" in err


def test_empty_modulus_is_an_error_not_the_default(capsys):
    code, out, err = run(capsys, "normal", "check", "--degree", "8", "--modulus", "",
                         "--element", "0x1")
    assert (code, out, err) == (EX_INVALID, "", "normbase: empty polynomial\n")
    code, out, err = run(capsys, "audit", "--degree", "3", "--mode", "selfdual", "--modulus", "")
    assert code == EX_INVALID and out == ""
    assert err.startswith("normbase: --modulus does not apply to --mode selfdual")


def test_invalid_vector_is_reported_before_a_non_normal_forced_base(capsys):
    code, out, err = run(capsys, "prescribe", "--degree", "16", "--modulus", "0x1002D",
                         "--vector", ",".join(["0"] * 16), "--force-beta", "0x0")
    assert (code, out) == (EX_INVALID, "")
    assert err == ("There isn't such a normal element: FAIL: a[0] = 1; "
                   "FAIL: sum of a[i] over odd i < 8 equals 1\n")


def test_twenty_thousand_pow_terms_end_fast(capsys):
    from test_acceptance import Budget
    # one left-to-right power per term: each multiply by g = x is a shift and one reduction
    rng = random.Random(20000)
    element = "pow:" + ",".join(str(rng.randrange(10**11, 10**12)) for _ in range(20000))
    with Budget(2.5):
        code, _, _ = run(capsys, "normal", "check", "--degree", "64", "--element", element)
    assert code == EX_OK


def test_empty_force_beta_is_an_error_not_the_default_base(capsys):
    code, out, err = run(capsys, "prescribe", "--degree", "16", "--vector", GOLDEN_VECTOR,
                         "--force-beta", "")
    assert (code, out) == (EX_INVALID, "")
    assert err.startswith("normbase: bad element")


def _broken_characterization(monkeypatch):
    # one predicted vector never achieved, and one achieved vector never predicted
    achieved = oracle.predicted_vectors(8) - {poly2.parse_vector("1,0,0,1,0,1,0,0")}
    achieved.add(CyclicPoly(8, 1))
    monkeypatch.setattr(oracle, "achievable_vectors", lambda spec: achieved)


def _broken_factor(monkeypatch):
    monkeypatch.setattr(oracle, "factor_2power", lambda h: CyclicPoly(h.n, 1))


def _broken_conditions(monkeypatch):
    monkeypatch.setattr(oracle, "_flags", lambda n, a: [False])


@pytest.mark.parametrize("break_audit, argv, lines", [
    (_broken_characterization, ("--degree", "8", "--mode", "characterization"),
     ["characterization audit, n = 8: achievable 4, predicted 4",
      "  predicted but not achieved: 1,0,0,1,0,1,0,0",
      "  achieved but not predicted: 1,0,0,0,0,0,0,0",
      "  agreement: VIOLATION"]),
    (_broken_factor, ("--degree", "8", "--mode", "factorization"),
     ["factorization audit, n = 8: 4 targets, 3 violations",
      "  violation at h = 1,0,1,0,0,0,1,0",
      "  violation at h = 1,1,0,1,0,1,0,1"]),
    (_broken_conditions, ("--degree", "12", "--mode", "necessary"),
     ["necessary-conditions audit, n = 12: 1536 normal elements, 1536 violations",
      "  violation at vector 1,1,0,0,1,0,0,0,1,0,0,1",
      "  violation at vector 1,1,0,0,1,0,0,0,1,0,0,1"]),
], ids=["characterization", "factorization", "necessary"])
def test_audit_violation_exit_code(capsys, monkeypatch, break_audit, argv, lines):
    break_audit(monkeypatch)
    code, out, _ = run(capsys, "audit", *argv)
    assert code == EX_VERIFY
    assert out.splitlines()[:len(lines)] == lines


def test_necessary_violation_lines_one_per_element(capsys, monkeypatch):
    # the oracle decides each Frobenius orbit once; the report still lists every element
    _broken_conditions(monkeypatch)
    code, out, _ = run(capsys, "audit", "--degree", "12", "--mode", "necessary")
    lines = out.splitlines()
    assert code == EX_VERIFY
    assert len(lines) == 1 + 1536
    assert lines[:3] == [
        "necessary-conditions audit, n = 12: 1536 normal elements, 1536 violations",
        "  violation at vector 1,1,0,0,1,0,0,0,1,0,0,1",
        "  violation at vector 1,1,0,0,1,0,0,0,1,0,0,1"]
    spec = FieldSpec.from_degree(12)
    assert Counter(lines[1:]) == Counter(
        f"  violation at vector {normal.corresponding_vector(spec, a)}"
        for a in range(spec.order) if normal.is_normal(spec, a))


def test_parser_built_once_and_reused(capsys):
    cli._build_parser.cache_clear()
    usage = ["audit", "--degree", "8", "--mode", "nope"]
    with pytest.raises(SystemExit) as first:
        main(usage)
    fresh_err = capsys.readouterr().err
    code, out, _ = run(capsys, "--json", "field", "find", "--degree", "8")
    assert code == EX_OK and json.loads(out)["degree"] == 8
    code, out, _ = run(capsys, "field", "find", "--degree", "8")  # no --json carried over
    assert code == EX_OK and out.splitlines()[0].split() == ["degree", "8"]
    with pytest.raises(SystemExit) as again:
        main(usage)
    assert first.value.code == again.value.code == EX_USAGE
    assert capsys.readouterr().err == fresh_err
    assert cli._build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv, calls", [
    (("weight3", "--degree", "40"), 2),                          # compose, then the CLI
    (("prescribe", "--degree", "21", "--vector", "1" + ",0" * 20), 2),  # pipeline, then the CLI
    (("normal", "check", "--degree", "8", "--element", "0x20"), 1),
], ids=["weight3", "prescribe", "normal-check"])
def test_printed_element_vector_computed_once_per_verification(capsys, monkeypatch, argv, calls):
    run(capsys, *argv)  # warm-up: the find_normal scan may test the same element
    seen = []

    def counting(read):  # every vector computation goes through one of the two reads counted
        return lambda spec, alpha: seen.append(alpha) or read(spec, alpha)

    vector = counting(normal.corresponding_vector)
    monkeypatch.setattr(normal, "corresponding_vector", vector)
    monkeypatch.setattr(construct, "corresponding_vector", vector)
    # the pipeline's closing check at t = n reads entries 0 .. n/2 alone
    monkeypatch.setattr(construct, "_half_vector", counting(construct._half_vector))
    code, out, _ = run(capsys, "--json", *argv)
    assert code == EX_OK
    assert seen.count(int(json.loads(out)["element"], 16)) == calls


def test_json_output_byte_identical(capsys):
    args = ("--json", "prescribe", "--degree", "16", "--vector", "1,1," + "0," * 13 + "1")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert out1.count("\n") == 1  # single-line record


def test_usage_errors(capsys):
    for argv in (["frobnicate"], ["normal"], ["audit", "--degree", "8", "--mode", "nope"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EX_USAGE


def test_long_modulus_rejected_quickly(capsys):
    # rendering the modulus in the message is linear in its length
    start = time.perf_counter()
    code, _, err = run(capsys, "prescribe", "--degree", "16", "--modulus", "x^1000000+1",
                       "--vector", GOLDEN_VECTOR)
    assert code == EX_INVALID
    assert err == "normbase: modulus x^1000000+1 does not have degree 16\n"
    assert time.perf_counter() - start < 1.0


def test_modulus_above_the_degree_bound_is_not_built(capsys):
    # x^(10^10) alone would take 1.25 GB, so it is rejected from its text
    start = time.perf_counter()
    code, _, err = run(capsys, "prescribe", "--degree", "16", "--modulus", "x^10000000000+1",
                       "--vector", GOLDEN_VECTOR)
    assert code == EX_INVALID
    assert err == "normbase: modulus x^10000000000+1 does not have degree 16\n"
    assert time.perf_counter() - start < 1.0


def test_bad_modulus_is_semantic_error(capsys):
    code, _, err = run(capsys, "vector", "--degree", "4", "--modulus", "0x11",
                       "--element", "0x2")
    assert code == EX_INVALID  # x^4+1 is reducible
    assert "reducible" in err


def test_hex_modulus_above_the_degree_bound_is_named_as_written(capsys):
    modulus = "0x" + "F" * 20000
    code, _, err = run(capsys, "prescribe", "--degree", "16", "--modulus", modulus,
                       "--vector", GOLDEN_VECTOR)
    assert code == EX_INVALID
    assert err == f"normbase: modulus {modulus} does not have degree 16\n"


@pytest.mark.parametrize("argv, n", [
    (["normal", "find", "--degree", "16", "--modulus", "0"], 16),
    (["vector", "--degree", "8", "--modulus", "0x0", "--element", "0x1"], 8),
], ids=["terms", "hex"])
def test_zero_modulus_is_an_input_error(capsys, argv, n):
    assert run(capsys, *argv) == (EX_INVALID, "", f"normbase: modulus 0 does not have degree {n}\n")


def test_million_entry_vector_rejected_quickly(capsys):
    # the message is the same at any speed: only the time shows that the vector is
    # checked once and built in one pass (a quadratic build takes seconds)
    vector = ",".join(["1", "0"] * 500_000)
    start = time.perf_counter()
    result = run(capsys, "prescribe", "--degree", "16", "--vector", vector)
    assert time.perf_counter() - start < 1.5
    assert result == (EX_INVALID, "", "normbase: vector length mismatch: 1000000 != 16\n")


@pytest.mark.parametrize("argv, code, err", [
    (["field", "find", "--degree", "8"], EX_OK, ""),
    (["prescribe", "--degree", "16", "--vector", ",".join(["1"] + ["0"] * 15)], EX_INVALID,
     "There isn't such a normal element: FAIL: sum of a[i] over odd i < 8 equals 1\n"),
    (["frobnicate"], EX_USAGE, None),
], ids=["ok", "invalid", "usage"])
def test_module_entry_point_exit_codes(argv, code, err):
    # the console script's path: sys.exit(main()) in a fresh interpreter
    env = {**os.environ, "PYTHONPATH": str(Path(normbase.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-m", "normbase.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=30)
    assert done.returncode == code
    if err is not None:
        assert done.stderr == err


def test_audit_violation_exits_with_the_documented_code_2(capsys, monkeypatch):
    # README documents exit code 2 for a failed verification or audit
    _broken_characterization(monkeypatch)
    code, _, _ = run(capsys, "audit", "--degree", "8", "--mode", "characterization")
    assert code == 2


@pytest.mark.parametrize("argv, name", [
    (("prescribe", "--degree", "16", "--vector", GOLDEN_VECTOR), "prescribe_steps"),
    (("compose", "--degree", "12", "--vector-pow2", "1,1,0,1", "--vector-odd", "1,0,0"), "compose"),
    (("weight3", "--degree", "12"), "weight3"),
], ids=["prescribe", "compose", "weight3"])
def test_element_that_misses_its_target_vector_exits_2(capsys, monkeypatch, argv, name):
    # "verified" compares: the recomputed vector must be the --vector, or the composed c; the
    # element 1 stands in, whose vector at even n is Tr(1) = 0 in every entry
    real = getattr(construct, name)

    def wrong(*args):
        made = real(*args)
        if name == "prescribe_steps":
            return dataclasses.replace(made, element=1)
        return 1, made[1]

    monkeypatch.setattr(construct, name, wrong)
    code, out, err = run(capsys, "--json", *argv)
    assert code == EX_VERIFY and out == ""
    assert err.startswith(f"normbase: {argv[0]} element has vector ")
    assert err.endswith(" (implementation bug)\n")
