"""Randomized and grid-swept structural properties of the construction."""

import math
import random

from tbcalc import (
    WU_CONFIRMED_UNIQUE,
    blow_down_minimize,
    build_cover,
    canonical_coefficients,
    intersection_matrix,
    mark_real_structure,
    solve_gf2,
)
from tbcalc.numeric import GF2_INCONSISTENT, GF2_UNIQUE
from conftest import lifts_of
from oracles import canonical_form, det_exact, is_negative_definite


def coprime_pairs(rng, count, m_max=12, n_max=40):
    pairs = []
    while len(pairs) < count:
        m = rng.randrange(2, m_max + 1)
        n = rng.randrange(2, n_max + 1)
        if math.gcd(m, n) == 1:
            pairs.append((m, n))
    return pairs


class TestBlowDownConfluence:
    def test_random_contraction_orders_agree(self):
        # 200 randomized minimizations: contraction order never changes
        # the decorated isomorphism type of the result.
        rng = random.Random(58)
        for i, (m, n) in enumerate(coprime_pairs(rng, 100)):
            cover = build_cover(m, n)
            a, _ra = blow_down_minimize(cover.lift.graph,
                                        rng=random.Random(2 * i))
            b, _rb = blow_down_minimize(cover.lift.graph,
                                        rng=random.Random(2 * i + 1))
            key_a = canonical_form(a, fields=("self_int",))
            key_b = canonical_form(b, fields=("self_int",))
            assert key_a == key_b, (m, n)
            assert key_a == canonical_form(cover.minimal.graph,
                                           fields=("self_int",)), (m, n)

    def test_determinant_preserved_by_blow_down(self):
        rng = random.Random(59)
        for m, n in coprime_pairs(rng, 30):
            cover = build_cover(m, n)
            _ids, before = intersection_matrix(cover.lift.graph)
            _ids2, after = intersection_matrix(cover.minimal.graph)
            assert abs(det_exact(before)) == abs(det_exact(after)), (m, n)


class TestIntersectionForms:
    def test_minimal_graphs_negative_definite(self):
        rng = random.Random(60)
        for m, n in coprime_pairs(rng, 40):
            _ids, rows = intersection_matrix(build_cover(m, n).minimal.graph)
            assert is_negative_definite(rows), (m, n)

    def test_both_odd_unimodular(self):
        # x^m + y^n + z^2 with m, n odd links a homology sphere
        for m in range(3, 26, 2):
            for n in range(3, 26, 2):
                if math.gcd(m, n) != 1:
                    continue
                _ids, rows = intersection_matrix(
                    build_cover(m, n).minimal.graph)
                assert abs(det_exact(rows)) == 1, (m, n)

    def test_downstairs_mini_graphs_unimodular(self):
        # embedded resolutions of smooth ambient (C^2) are unimodular
        rng = random.Random(61)
        for m, n in coprime_pairs(rng, 30):
            cover = build_cover(m, n)
            _ids, rows = intersection_matrix(cover.gamma_f)
            assert abs(det_exact(rows)) == 1, (m, n)


class TestCharacteristicProperties:
    def test_wu_check_never_mismatches(self):
        # Dense GF(2) elimination on the Wu system Q x = diag Q is the
        # oracle: it must find a unique solution exactly when the status
        # (from the parity of det Q) says so, and a mod 2 must solve it.
        rng = random.Random(62)
        for m, n in coprime_pairs(rng, 60):
            cover = build_cover(m, n)
            for cg in (cover.lift, cover.minimal):
                cd = canonical_coefficients(cg)
                ids, rows = intersection_matrix(cg.graph)
                diag = [rows[i][i] for i in range(len(ids))]
                a2 = tuple(cd.a[v] % 2 for v in ids)
                result = solve_gf2(rows, diag)
                assert result.status != GF2_INCONSISTENT, (m, n)
                unique = result.status == GF2_UNIQUE
                assert unique == (cd.wu_status == WU_CONFIRMED_UNIQUE), (m, n)
                if unique:
                    assert result.solution == a2, (m, n)
                for i, row in enumerate(rows):
                    assert sum(q * x for q, x in zip(row, a2)) % 2 == diag[i] % 2

    def test_w_is_conj_invariant_under_both_signs(self):
        rng = random.Random(63)
        for m, n in coprime_pairs(rng, 40):
            cover = build_cover(m, n)
            for sign in ("plus", "minus"):
                marked = mark_real_structure(cover.minimal, sign)
                cd = canonical_coefficients(marked)
                assert {marked.conj[v] for v in cd.w} == set(cd.w), (m, n, sign)

    def test_canonical_class_self_pairing_parity(self):
        # K^2 + V is even on each minimal cover (Wu/van der Blij).
        rng = random.Random(64)
        for m, n in coprime_pairs(rng, 25):
            cg = build_cover(m, n).minimal
            g = cg.graph
            cd = canonical_coefficients(cg)
            ids, rows = intersection_matrix(g)
            index = {v: i for i, v in enumerate(ids)}
            ksq = sum(
                cd.a[u] * rows[index[u]][index[v]] * cd.a[v]
                for u in ids for v in ids
            )
            assert (ksq + len(ids)) % 2 == 0, (m, n)


class TestGaugeInvariance:
    def test_lift_independent_of_edge_gauge(self):
        # crossing the copy-to-copy identification over a downstairs edge
        # between two doubled curves yields an isomorphic cover graph
        rng = random.Random(65)
        flips = 0
        for m, n in coprime_pairs(rng, 20):
            cover = build_cover(m, n)
            lift = cover.lift
            doubled = [(lifts_of(lift, u), lifts_of(lift, v))
                       for u, v in cover.gamma_f_prime.edges()
                       if len(lifts_of(lift, u)) == len(lifts_of(lift, v)) == 2]
            if not doubled:
                continue
            (a0, a1), (b0, b1) = doubled[rng.randrange(len(doubled))]
            flipped = lift.graph.copy()
            flipped.remove_edge(a0, b0)
            flipped.remove_edge(a1, b1)
            flipped.add_edge(a0, b1)
            flipped.add_edge(a1, b0)
            flips += 1
            assert (canonical_form(lift.graph, fields=("self_int",))
                    == canonical_form(flipped.freeze(), fields=("self_int",))), (m, n)
        assert flips > 0


class TestExponentSymmetry:
    def test_tb_symmetric_in_exponents(self):
        from tbcalc import tb

        rng = random.Random(66)
        for m, n in coprime_pairs(rng, 25):
            for sign in ("minus", "plus"):
                assert tb(m, n, sign).value == tb(n, m, sign).value, (m, n)
