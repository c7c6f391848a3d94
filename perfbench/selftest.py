"""Self-tests of the benchmark's own logic.

    python3 perfbench/selftest.py

Covers the seeded input generators, the tail-percentile rule, the self-time
computation on synthetic spans, and that a deliberately wrong expected value
is counted as a failure rather than passed over.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import klmatroids as klm  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, (make_inputs, _, _) in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(make_inputs(7, 3), make_inputs(7, 3))

    def test_seed_and_pass_change_random_inputs(self):
        for name in ("oracle", "enumerate", "table"):
            make_inputs = workloads.WORKLOADS[name][0]
            with self.subTest(workload=name):
                self.assertNotEqual(make_inputs(1, 0), make_inputs(2, 0))
                self.assertNotEqual(make_inputs(1, 0), make_inputs(1, 1))

    def test_oracle_inputs_are_sparse_paving_basis_systems(self):
        for n, d, k, bases in workloads.oracle_inputs(11, 0):
            removed = {
                m for m in (workloads._mask(c) for c in combinations(range(1, n + 1), d))
            } - set(bases)
            self.assertEqual(len(removed), k)
            self.assertTrue(all((a & b).bit_count() <= d - 2 for a, b in combinations(removed, 2)))
            self.assertEqual(klm.matroid_from_bases(n, bases).n, n)

    def test_enumerate_draws_distinct_listed_shapes(self):
        shapes = workloads.enumerate_inputs(5, 0)
        unordered = {(min(a, b), i, max(a, b)) for a, i, b in shapes}
        listed = {(min(a, b), i, max(a, b)) for a, i, b in workloads.ENUMERATE_SHAPES}
        self.assertEqual(len(unordered), workloads.ENUMERATE_PER_PASS)
        self.assertLessEqual(unordered, listed)


class TailPercentile(unittest.TestCase):
    def test_ten_samples_beyond(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(run.tail_percentile(samples), (90, 90))
        p, value = run.tail_percentile(list(range(1, 41)))
        self.assertEqual((p, value), (75, 30))
        self.assertEqual(sum(1 for s in range(1, 41) if s > value), 10)

    def test_order_does_not_matter(self):
        self.assertEqual(run.tail_percentile([5, 1, 4, 2, 3] * 5), run.tail_percentile([1, 2, 3, 4, 5] * 5))

    def test_too_few_samples_gives_the_maximum(self):
        self.assertEqual(run.tail_percentile([3.0, 1.0, 2.0]), (100, 3.0))


class SelfTime(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        # 0: [0, 10] with children 1: [1, 4] and 2: [3, 6] (overlapping) and 3: [8, 12]
        # (runs past its parent); 4: [2, 3] is a grandchild inside 1.
        start = [0.0, 1.0, 3.0, 8.0, 2.0]
        end = [10.0, 4.0, 6.0, 12.0, 3.0]
        parent = [-1, 0, 0, 0, 1]
        self.assertEqual(tracing.self_time_per_span(start, end, parent), [3.0, 2.0, 3.0, 4.0, 1.0])

    def test_tracer_charges_each_layer_its_own_time(self):
        tracer = tracing.Tracer()
        for name, lo, hi, up in (("task", 0, 10, -1), ("kl", 1, 9, 0), ("kl", 2, 5, 1), ("minor", 6, 7, 1)):
            tracer.name.append(tracer.name_id(name))
            tracer.start.append(lo)
            tracer.end.append(hi)
            tracer.parent.append(up)
        self.assertEqual(tracer.self_times(), {"task": 2.0, "kl": 4.0 + 3.0, "minor": 1.0})
        self.assertEqual(tracer.call_counts(), {"kl": 2, "task": 1, "minor": 1})

    def test_install_wraps_every_binding_and_uninstall_restores(self):
        import klmatroids.verification as verification

        original = verification.kl_poly
        tracer = tracing.Tracer()
        tracer.install(extra_modules=[workloads])
        try:
            self.assertIsNot(verification.kl_poly, original)
            self.assertIs(verification.kl_poly, klm.kl_poly)
            workloads.oracle_run((4, 2, 0, [m for m in range(16) if m.bit_count() == 2]))
        finally:
            tracer.uninstall()
        self.assertIs(verification.kl_poly, original)
        calls = tracer.call_counts()
        self.assertEqual(calls["matroid.from_bases"] - calls["matroid.minor"], 1)
        self.assertGreaterEqual(calls["matroid.kl_poly"], 1)
        self.assertEqual(len(tracer._stack), 0)
        self.assertTrue(all(e >= s for s, e in zip(tracer.start, tracer.end)))


class BrokenExpectation(unittest.TestCase):
    def test_checks_reject_wrong_values(self):
        task = workloads.oracle_inputs(3, 0)[0]
        poly = workloads.oracle_run(task)
        self.assertIsNone(workloads.oracle_check(task, poly))
        broken = klm.IntPoly([c + (j == 0) for j, c in enumerate(poly.coeffs)])
        self.assertIsNotNone(workloads.oracle_check(task, broken))
        row = (3, 5)
        result = workloads.table_run(row)
        self.assertIsNone(workloads.table_check(row, result))
        by_rho, klum, at_one = result
        self.assertIsNotNone(workloads.table_check(row, (by_rho, [c + 1 for c in klum], at_one)))

    def test_broken_expected_value_shows_as_failed_tasks(self):
        """A pass whose expected coefficients are off by one reports every task failed."""
        good = workloads.sparse_paving_coefficients
        workloads.sparse_paving_coefficients = lambda n, d, k: [c + 1 for c in good(n, d, k)]
        try:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                worker.main(["--workload", "oracle", "--seed", "4", "--pass-index", "0"])
        finally:
            workloads.sparse_paving_coefficients = good
        report = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertGreater(report["attempted"], 0)
        self.assertEqual(report["failed"], report["attempted"])

if __name__ == "__main__":
    unittest.main()
