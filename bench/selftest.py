"""Self-tests of the benchmark's own code.

    python3 bench/selftest.py

Checks that the brute-force references agree with the library on small
inputs, that workload generation is a function of the seed, that span self
time is computed correctly, and that the stored verify reference carries
exactly the documented reds.
"""

from __future__ import annotations

import os
import random
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from newton_circle import circle, complete, ergodic, expsum, newton, poly  # noqa: E402
from workloads import Query  # noqa: E402


def _library(q: Query):
    """The library's value for a query, as a complex number or float."""
    k, a = q.kind, q.args
    if k == "double_sum":
        P, xi, K1, M1, K2, M2 = a
        return expsum.double_sum(poly.scale(P, xi), K1, M1, K2, M2).value
    if k == "double_sum_abs":
        P, xi, K1, M1, K2, M2, axis = a
        return expsum.double_sum_abs(poly.scale(P, xi), K1, M1, K2, M2, axis)
    if k == "weyl_sum":
        return expsum.weyl_sum(*a).value
    if k == "gauss_sum":
        return complete.gauss_sum(*a)
    if k == "partial_gauss":
        return complete.partial_gauss(*a)
    if k == "discrete_multiplier":
        return circle.discrete_multiplier(*a)
    if k == "character_average":
        return ergodic.character_average(*a)
    P, xi, M1, M2, tau, axis_partial = a
    return circle.continuous_multiplier(P, xi, M1, M2, tau, axis_partial=axis_partial)


def _as_number(exp):
    if isinstance(exp, dict):
        return complex(*exp["v"])
    if isinstance(exp, list):
        return complex(*exp)
    return exp


class ReferenceMatchesLibrary(unittest.TestCase):
    def test_small_boxes(self):
        rng = random.Random(1)
        golden = Fraction(5, 8) + Fraction(1, 3**45)
        for _ in range(6):
            P = workloads.shaped_poly(rng)
            M1, M2 = rng.randint(1, 9), rng.randint(1, 9)
            cases = [
                Query("double_sum", (P, Fraction(rng.randint(1, 96), 97), 0, M1, 1, M2)),
                Query("double_sum", (P, Fraction(3, 70001), 2, M1 + 2, 0, M2)),
                Query("double_sum", (P, golden, 0, M1, 0, M2)),
                # small phases keep the float path within rounding
                Query("double_sum", (P, rng.uniform(1e-9, 1e-8), 0, M1, 0, M2)),
                Query("double_sum_abs", (P, Fraction(2, 9), 0, M1, 0, M2, rng.choice((1, 2)))),
                Query("weyl_sum", ((Fraction(1, 3), Fraction(5, 11), Fraction(2, 7)), 40)),
                Query("weyl_sum", ((0.25, 0.5), 30)),
                Query("gauss_sum", (P, Fraction(rng.randint(1, 22), 23))),
                Query("partial_gauss", (P, Fraction(5, 12), rng.randint(1, 9), 1)),
                Query("partial_gauss", (P, Fraction(5, 12), rng.randint(1, 9), 2)),
                Query("discrete_multiplier", (P, Fraction(4, 13), 12, 10, 2)),
                Query("character_average", (P, golden, 9, 7, "truncated", Fraction(2))),
                Query("continuous_multiplier", (P, 0.5 / sum(map(abs, P.terms.values())),
                                                 1, 1, 2, None)),
                Query("continuous_multiplier", (P, 1e-4, 6, 6, 2, (rng.choice((1, 2)), 3))),
            ]
            for q in cases:
                with self.subTest(kind=q.kind, args=q.args[1:]):
                    gap = abs(_library(q) - _as_number(check.expected(q)))
                    floor = ref.QUAD_FLOOR if q.kind == "continuous_multiplier" else 1e-9
                    self.assertLessEqual(gap, floor)

    def test_sweep_rows(self):
        P = poly.parse_poly("m1^2*m2^3 - 2*m1*m2")
        lib = complete.gauss_sum_sweep(P, range(1, 31))
        mine = ref.sweep_rows(P.terms, 1, 30)
        for row, (q, count, best) in zip(lib, mine):
            self.assertEqual((row["q"], row["a_count"]), (q, count))
            self.assertAlmostEqual(row["max_abs_G"], best, delta=1e-12)

    def test_dirichlet_matches_library(self):
        from newton_circle.arith import dirichlet_approx, golden_ratio_conjugate
        for x, Q in [(golden_ratio_conjugate(96), 10**6), (Fraction(0.3183098861837907), 5000),
                     (Fraction(355, 113), 100), (Fraction(7, 3), 2)]:
            self.assertEqual(ref.dirichlet(x, Q), dirichlet_approx(x, Q))

    def test_judge_flags_a_wrong_value(self):
        q = Query("double_sum", (workloads.M1M2, Fraction(3, 7), 0, 20, 0, 20))
        exp = check.expected(q)
        good = {"v": exp["v"], "mode": "exact", "terms": 400, "budget": 0.0}
        self.assertFalse(check.judge(q, good, exp)["failed"])
        bad = dict(good, v=[exp["v"][0] + 1e-6, exp["v"][1]])
        self.assertTrue(check.judge(q, bad, exp)["failed"])
        self.assertTrue(check.judge(q, dict(good, terms=399), exp)["failed"])


class Generation(unittest.TestCase):
    def test_deterministic_per_seed(self):
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(workloads.generate(w, 3), workloads.generate(w, 3))
                self.assertNotEqual(workloads.generate(w, 3), workloads.generate(w, 4))

    def test_query_batches_are_large_enough_for_p95(self):
        for w in ("exact_phase_queries", "wide_phase_queries"):
            self.assertGreaterEqual(len(workloads.generate(w, 0)), 200)

    def test_verify_seed_zero_runs_pinned_defaults(self):
        self.assertFalse(any("--seed" in argv for argv in workloads.verify_calls(10)))
        self.assertTrue(any("--seed" in argv for argv in workloads.verify_calls(13)))


class SpanAccounting(unittest.TestCase):
    def test_self_time_of_nested_spans(self):
        ticks = iter([0, 1, 3, 4, 5, 6, 8, 10])
        tr = spans.Tracer(clock=lambda: next(ticks))
        tr.enter("A")          # 0
        tr.enter("B")          # 1
        tr.exit()              # 3: B took 2
        tr.enter("B")          # 4
        tr.enter("B")          # 5: recursive
        tr.exit()              # 6: inner B took 1
        tr.exit()              # 8: outer B took 4
        tr.exit()              # 10: A took 10
        self.assertEqual(tr.stats["A"], [1, 10, 4])
        # recursion is counted once in inclusive time, fully in self time
        self.assertEqual(tr.stats["B"], [3, 6, 6])

    def test_install_wraps_every_binding(self):
        tr = spans.Tracer()
        tr.install()
        self.assertIs(circle.double_sum, expsum.double_sum)
        self.assertIs(ergodic.double_sum, expsum.double_sum)
        P = workloads.M1M2
        circle.discrete_multiplier(P, Fraction(1, 3), 8, 8, 2)
        expsum.double_sum_abs(poly.scale(P, 0.3), 0, 4, 0, 5, 2)
        m = tr.metrics()
        self.assertEqual(m["circle.discrete_multiplier.calls"], 1)
        self.assertEqual(m["expsum.double_sum.calls"], 1)
        self.assertEqual(m["expsum.double_sum_abs.calls"], 2)
        self.assertEqual(m["expsum.terms.table"], 16)
        self.assertEqual(m["expsum.terms.float"], 20)
        self.assertLessEqual(m["expsum.double_sum.s"], m["circle.discrete_multiplier.s"])
        self.assertIsNotNone(newton.build_diagram(P))


class StoredReference(unittest.TestCase):
    def test_default_seed_carries_exactly_the_documented_reds(self):
        reds = [row[0] for call in check.verify_reference(0) for row in call["rows"] if not row[1]]
        self.assertEqual(sorted(reds), ["approx:partial_approx_decreases_under_doubling",
                                        "gauss:dyadic_envelope_nonincreasing[m1^2*m2^3]"])

    def test_anchor_references_exist(self):
        anchors = check.load_json(check.ANCHORS_PATH)
        names = {q.anchor for w in ("exact_phase_queries", "wide_phase_queries")
                 for q in workloads.generate(w, 0) if q.anchor}
        self.assertEqual(set(anchors), names)


if __name__ == "__main__":
    unittest.main()
