"""The acceptance gate: one test per shipping criterion, each printing a
single PASS/FAIL line.

Criteria 1 and 2 assert the published reference values for the (5,8)
fixture. Those values do not belong to the exponent pair (5,8) under the
construction itself: the construction reproduces every one of them, bit
for bit, from the inputs (11,6) instead, and the graph determinant pins
the discrepancy (the resolution graph of x^m + y^n + z^2 must have
|det Q| equal to the torus-link determinant, which is 5 for (5,8) and 11
for (11,6); the published 12-vertex graph has |det Q| = 11). So these
two tests fail and are expected to keep failing. They are intentionally
not weakened: the values are asserted exactly as published. The honest
(5,8) answers are tb = 3 for both signs on an 8-vertex graph.
"""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from tbcalc import (
    arms,
    blow_down_minimize,
    build_cover,
    build_gamma_f,
    c1_coefficients,
    canonical_coefficients,
    intersection_matrix,
    mark_real_structure,
    tb,
    verify_identities,
)
from oracles import canonical_form, det_exact, is_negative_definite, restrict_to_real

ROOT = Path(__file__).resolve().parent.parent


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {status}{suffix}")
    assert ok, f"criterion {number} failed{suffix}"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tbcalc", *args],
        capture_output=True, text=True, cwd=ROOT,
    )


class TestAcceptance:
    def test_criterion_1_fixture_values(self):
        """compute --m 5 --n 8: minus = 1 and plus = 7/11, < 0.1 s each."""
        t0 = time.time()
        minus = tb(5, 8, "minus").value
        t_minus = time.time() - t0
        t0 = time.time()
        plus = tb(5, 8, "plus").value
        t_plus = time.time() - t0
        ok = (minus == Fraction(1) and plus == Fraction(7, 11)
              and t_minus < 0.1 and t_plus < 0.1)
        report(1, ok,
               f"tb-({minus}) tb+({plus}); the published values 1 and 7/11 "
               "come out of this construction for the inputs (11,6), "
               "see the module docstring")

    def test_criterion_2_fixture_structure(self):
        """Gamma(5,8): 12 vertices, (-2) rupture, arms (-3) and two
        (-2,-2,-2,-2,-3) chains, |W| = 5, plus-real W_R = {rupture}, N=2."""
        cover = build_cover(5, 8)
        g = cover.minimal.graph
        e0 = cover.minimal.e0_lift
        arm_shapes = sorted(
            tuple(g.vertices[v].self_int for v in arm.vertices)
            for arm in arms(g, e0)
        )
        cd = canonical_coefficients(cover.minimal)
        marked = mark_real_structure(cover.minimal, "plus")
        cd_plus = canonical_coefficients(marked)
        wr = restrict_to_real(cd_plus, marked)
        n_real = sum(
            1 for v in marked.graph.vertex_ids() if marked.graph.vertices[v].real)
        ok = (len(g.vertex_ids()) == 12
              and g.vertices[e0].self_int == -2
              and arm_shapes == [(-3,), (-2, -2, -2, -2, -3),
                                 (-2, -2, -2, -2, -3)]
              and len(cd.w) == 5
              and wr == frozenset({e0})
              and n_real == 2)
        report(2, ok,
               f"got {len(g.vertex_ids())} vertices, arms {arm_shapes}, "
               f"|W|={len(cd.w)}, N={n_real}; the published 12-vertex "
               "structure is produced by the inputs (11,6), "
               "see the module docstring")

    def test_criterion_3_decomposition_fixture(self):
        """The two-piece decomposition tests/data/y-x5y4.json evaluates to
        [[3/2,-5/2],[-5/2,3/2]] exactly."""
        p = run_cli("linkform", "--decomposition",
                    str(ROOT / "tests" / "data" / "y-x5y4.json"))
        ok = p.returncode == 0 and p.stdout.strip() == "[[3/2,-5/2],[-5/2,3/2]]"
        report(3, ok, p.stdout.strip())

    def test_criterion_4_b_t_law(self):
        """b_t = -(m+n-1) for every valid pair with m, n <= 40, < 10 s."""
        t0 = time.time()
        checked = 0
        ok = True
        for m in range(2, 41):
            for n in range(2, 41):
                if math.gcd(m, n) != 1:
                    continue
                _g, trace = build_gamma_f(m, n)
                b = c1_coefficients(trace)
                if b[trace.rupture] != -(m + n - 1):
                    ok = False
                checked += 1
        elapsed = time.time() - t0
        ok = ok and elapsed < 10
        report(4, ok, f"{checked} pairs in {elapsed:.2f}s")

    def test_criterion_5_integrality(self):
        """tb- integral for all valid pairs <= 60; tb+ integral whenever
        4|m and n is odd, same range; < 60 s."""
        t0 = time.time()
        violations = []
        for m in range(2, 61):
            for n in range(2, 61):
                if math.gcd(m, n) != 1:
                    continue
                if not tb(m, n, "minus").is_integer:
                    violations.append(("minus", m, n))
                if m % 4 == 0 and n % 2 == 1:
                    if not tb(m, n, "plus").is_integer:
                        violations.append(("plus", m, n))
        elapsed = time.time() - t0
        ok = not violations and elapsed < 60
        report(5, ok, f"{elapsed:.1f}s, violations={violations[:3]}")

    def test_criterion_6_identity_suites(self):
        """period, symmetry (k <= 3 both parities), parity laws, rupture
        membership, structural growth diffs, and plus = minus for odd
        pairs; m <= 10, n <= 120, zero violations, < 5 min."""
        t0 = time.time()
        rep = verify_identities(m_max=10, n_max=120, k_max=3)
        both_odd_ok = all(
            tb(m, n, "plus").value == tb(m, n, "minus").value
            for m in range(3, 11, 2) for n in range(3, 121, 2)
            if math.gcd(m, n) == 1
        )
        elapsed = time.time() - t0
        ok = rep.total_violations == 0 and both_odd_ok and elapsed < 300
        report(6, ok,
               f"{sum(s.checked for s in rep.suites)} checks, "
               f"{rep.total_violations} violations, {elapsed:.1f}s")

    def test_criterion_7_property_suites(self):
        """200 randomized blow-down orders, unimodularity for odd pairs up
        to 25, negative definiteness, Wu cross-check, conj-invariance."""
        rng = random.Random(20260815)
        confluence_ok = True
        pairs = []
        while len(pairs) < 100:
            m = rng.randrange(2, 13)
            n = rng.randrange(2, 41)
            if math.gcd(m, n) == 1:
                pairs.append((m, n))
        for i, (m, n) in enumerate(pairs):
            cover = build_cover(m, n)
            a, _ = blow_down_minimize(cover.lift.graph, rng=random.Random(2 * i))
            b, _ = blow_down_minimize(cover.lift.graph,
                                      rng=random.Random(2 * i + 1))
            if (canonical_form(a, fields=("self_int",))
                    != canonical_form(b, fields=("self_int",))):
                confluence_ok = False

        unimodular_ok = all(
            abs(det_exact(intersection_matrix(
                build_cover(m, n).minimal.graph)[1])) == 1
            for m in range(3, 26, 2) for n in range(3, 26, 2)
            if math.gcd(m, n) == 1
        )
        definite_ok = all(
            is_negative_definite(intersection_matrix(
                build_cover(m, n).minimal.graph)[1])
            for m, n in pairs[:40]
        )
        wu_ok = all(
            canonical_coefficients(
                build_cover(m, n).lift).wu_status.startswith("confirmed")
            and canonical_coefficients(
                build_cover(m, n).minimal).wu_status.startswith("confirmed")
            for m, n in pairs[:40]
        )
        conj_ok = True
        for m, n in pairs[:40]:
            for sign in ("plus", "minus"):
                marked = mark_real_structure(build_cover(m, n).minimal, sign)
                cd = canonical_coefficients(marked)
                if {marked.conj[v] for v in cd.w} != set(cd.w):
                    conj_ok = False
        ok = (confluence_ok and unimodular_ok and definite_ok and wu_ok
              and conj_ok)
        report(7, ok,
               f"confluence={confluence_ok} unimodular={unimodular_ok} "
               f"definite={definite_ok} wu={wu_ok} conj={conj_ok}")

    def test_criterion_8_desk_scale_coverage(self):
        """The geometric statements with no direct computation are covered
        by the identity and property suites; this re-runs both entry
        points end to end at a reduced grid."""
        rep = verify_identities(m_max=6, n_max=40, k_max=2)
        suites_ran = {s.name for s in rep.suites} == {
            "integrality", "period", "symmetry", "parity", "structure"}
        ok = suites_ran and rep.total_violations == 0
        report(8, ok, "identity and property suites stand in for the "
                      "non-computable geometric claims")
