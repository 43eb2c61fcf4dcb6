#!/usr/bin/env python3
"""Self-tests of the benchmark's input generator and result checker.

    python3 benchmarks/selftest.py

The generator labels vectors achievable or not by its own reading of the
characterization; normbase.validate_vector must agree on every label.  The
checker must accept what normbase builds and reject a corrupted element.
A calibration tick still pending when sampling stops must not end the run.
"""

from __future__ import annotations

import os
import random
import signal
import sys
import unittest

import inputs
import refcheck
import run

run.import_normbase()
from normbase import (  # noqa: E402  (needs the checkout's src/ on the path)
    CyclicPoly,
    FieldSpec,
    Status,
    corresponding_vector,
    find_irreducible,
    is_normal,
    prescribe,
    validate_vector,
)

LABEL_DEGREES = (1, 2, 3, 4, 5, 8, 9, 15, 16, 21, 32, 33, 64)


class GeneratorTest(unittest.TestCase):
    def test_labels_agree_with_validate_vector(self):
        rng = random.Random(7)
        for n in LABEL_DEGREES:
            for _ in range(100):
                good = inputs.achievable_vector(n, rng)
                self.assertIs(validate_vector(n, CyclicPoly(n, good)).status, Status.VALID, (n, good))
                if n > 1:
                    bad = inputs.unachievable_vector(n, rng)
                    self.assertIs(validate_vector(n, CyclicPoly(n, bad)).status, Status.INVALID,
                                  (n, bad))

    def test_prescribe_stream_labels(self):
        for block in inputs.prescribe_warm(seed=3, blocks=5):
            self.assertEqual(sum(not r.achievable for r in block), len(inputs.PRESCRIBE_DEGREES))
            for r in block:
                status = validate_vector(r.n, CyclicPoly(r.n, r.vector)).status
                self.assertEqual(status is Status.VALID, r.achievable)

    def test_same_seed_same_inputs(self):
        self.assertEqual(inputs.prescribe_warm(5, 3), inputs.prescribe_warm(5, 3))
        self.assertNotEqual(inputs.prescribe_warm(5, 3), inputs.prescribe_warm(6, 3))
        self.assertEqual(inputs.fields_cold(5, 3), inputs.fields_cold(5, 3))
        self.assertEqual(inputs.audit_exhaustive(5, 2), inputs.audit_exhaustive(5, 2))

    def test_fields_cold_requests(self):
        rounds = inputs.fields_cold(seed=4, rounds=4)
        defaults = rounds[0]
        self.assertEqual(sorted(r.n for r in defaults),
                         [n for n in inputs.FIELDS_COLD_DEGREES
                          if n not in inputs.DEFAULT_MODULUS_SKIPPED])
        seen = set()
        for r in (r for batch in rounds for r in batch):
            self.assertNotIn((r.n, r.modulus), seen)
            seen.add((r.n, r.modulus))
            if "--vector-odd" in r.argv:
                odd = r.argv[r.argv.index("--vector-odd") + 1]
                m = r.n // 2
                vec = CyclicPoly.from_coeffs(int(b) for b in odd.split(","))
                self.assertIs(validate_vector(m, vec).status, Status.VALID)
        for r in defaults:
            self.assertEqual(r.modulus, find_irreducible(r.n))

    def test_moduli_are_irreducible_and_distinct(self):
        for n in (3, 4, 5, 10):
            pool = inputs.ModulusPool(n, random.Random(n), refcheck.smallest_irreducible(n))
            drawn = iter(pool.draw, None)
            moduli = list(drawn)
            self.assertEqual(len(moduli), inputs.count_irreducible(n) - 1)
            self.assertEqual(len(set(moduli)), len(moduli))
            for f in moduli:
                FieldSpec(n, f)  # raises if reducible

    def test_audit_counts_follow_from_the_theory(self):
        # predicted = number of symmetric vectors the characterization accepts
        for mode, n, expected in inputs.AUDITS:
            if mode == "characterization":
                count = sum(inputs.achievable(n, v) for v in range(1 << n)
                            if inputs.is_symmetric(v, n))
                self.assertIn(f'"predicted":{count},', expected)
        field = refcheck.RefField(12, refcheck.smallest_irreducible(12))
        normal = sum(field.is_normal(a) for a in range(1, 1 << 12))
        self.assertIn(f'"normal_elements":{normal},', inputs.AUDITS[3][2])


class CheckerTest(unittest.TestCase):
    def test_reference_agrees_with_normbase(self):
        rng = random.Random(11)
        for n in (2, 7, 16, 33, 64):
            spec = FieldSpec.from_degree(n)
            field = refcheck.RefField(n, spec.modulus)
            for _ in range(20):
                a = rng.getrandbits(n)
                self.assertEqual(field.vector(a), corresponding_vector(spec, a).bits)
                self.assertEqual(field.is_normal(a), is_normal(spec, a))

    def test_checker_flags_a_corrupted_element(self):
        rng = random.Random(13)
        for n in inputs.PRESCRIBE_DEGREES:
            spec = FieldSpec.from_degree(n)
            field = refcheck.RefField(n, spec.modulus)
            target = inputs.achievable_vector(n, rng)
            alpha = prescribe(spec, CyclicPoly(n, target))
            self.assertTrue(field.check(alpha, target))
            flagged = 0
            for k in range(n):
                bad = alpha ^ (1 << k)
                # alpha + 1 keeps the vector when n is even, since Tr(1) = 0 then
                still_right = (corresponding_vector(spec, bad).bits == target
                               and is_normal(spec, bad))
                self.assertEqual(field.check(bad, target), still_right, (n, k))
                flagged += not still_right
            self.assertGreaterEqual(flagged, n - 1)
            self.assertFalse(field.check(alpha, target ^ 2))
            self.assertFalse(field.check(1, field.vector(1)))  # 1 is not normal for n > 1
            self.assertFalse(field.check(1 << n, target))

    def test_reference_rejects_a_reducible_modulus(self):
        with self.assertRaises(ValueError):
            refcheck.RefField(4, 0b10101)  # (x^2 + x + 1)^2


class MachineSpeedTest(unittest.TestCase):
    def test_a_tick_pending_at_exit_reaches_the_handler(self):
        with run.MachineSpeed() as speed:
            os.kill(os.getpid(), signal.SIGALRM)  # blocked between requests: stays pending
        self.assertEqual(len(speed.ticks), 1)


if __name__ == "__main__":
    sys.exit(unittest.main())
