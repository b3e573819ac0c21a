from fractions import Fraction
from math import gcd

import pytest

from tbcalc import (
    CoverGraph,
    DecoratedGraph,
    InconsistentAnnotation,
    ZeroDenominator,
    arm_is_imaginary,
    arm_weight,
    arms,
    build_cover,
    evaluation_graph,
    n_prime,
    tb,
    tb_from_graph,
)
from tbcalc import charclass
from conftest import build_star12_graph, make_chain, make_star

# Values frozen from independent evaluations of the construction: each
# entry was cross-checked against the adjunction system, the identity
# theorems (periodicity, symmetry) and hand-reduced small cases.
FROZEN = {
    (3, 2): (Fraction(1), Fraction(-1, 3)),
    (3, 4): (Fraction(5), Fraction(1)),
    (3, 5): (Fraction(7), Fraction(7)),
    (3, 7): (Fraction(-9), Fraction(-9)),
    (3, 8): (Fraction(-7), Fraction(-3)),
    (3, 10): (Fraction(-3), Fraction(-5, 3)),
    (4, 3): (Fraction(5), Fraction(1)),
    (5, 2): (Fraction(3), Fraction(-1, 5)),
    (5, 8): (Fraction(3), Fraction(3)),
    (5, 12): (Fraction(-5), Fraction(-5)),
    (5, 18): (Fraction(-5), Fraction(-9, 5)),
    (5, 28): (Fraction(3), Fraction(3)),
    (6, 5): (Fraction(-1), Fraction(3, 5)),
    (6, 17): (Fraction(3), Fraction(11, 17)),
    (11, 6): (Fraction(1), Fraction(7, 11)),
    (2, 7): (Fraction(5), Fraction(-1, 7)),
}


class TestTbValues:
    @pytest.mark.parametrize("m,n", sorted(FROZEN))
    def test_frozen_table(self, m, n):
        exp_minus, exp_plus = FROZEN[(m, n)]
        assert tb(m, n, "minus").value == exp_minus
        assert tb(m, n, "plus").value == exp_plus

    def test_exponent_symmetry(self):
        for m, n in [(3, 2), (5, 8), (11, 6), (4, 7)]:
            for sign in ("minus", "plus"):
                assert tb(m, n, sign).value == tb(n, m, sign).value

    def test_result_metadata(self):
        r = tb(11, 6, "plus")
        assert r.n_real == 2
        assert r.level == "minimal"
        assert len(r.wr) == 1
        (e,) = r.wr
        assert r.n_prime_contrib[e] == Fraction(-4, 11)
        assert r.arm_weights[e] == (Fraction(-11, 9), Fraction(-11, 9))
        assert not r.is_integer

    def test_minus_n_real_counts_everything(self):
        r = tb(5, 8, "minus")
        assert r.n_real == 8
        assert r.is_integer

    def test_plus_fallback_level(self):
        assert tb(3, 2, "plus").level == "lift"
        assert tb(11, 6, "plus").level == "minimal"

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            tb(3, 2, "either")


class TestEvaluationGraph:
    @pytest.mark.parametrize("m,n,solved", [(11, 6, ("minimal",)),
                                            (3, 2, ("lift", "minimal"))])
    def test_one_adjunction_solve_per_graph(self, monkeypatch, m, n, solved):
        # Both signs, and repeated calls, share the solve of each graph
        # they evaluate on; (3, 2) plus falls back to the lift.
        sizes = []
        inner = charclass.solve_intersection_system

        def counting(g, rhs):
            sizes.append(len(g.vertices))
            return inner(g, rhs)

        monkeypatch.setattr(charclass, "solve_intersection_system", counting)
        build_cover.cache_clear()
        for sign in ("plus", "minus", "minus"):
            tb(m, n, sign)
        cover = build_cover(m, n)
        assert sizes == [len(getattr(cover, level).graph.vertices)
                         for level in solved]

    def test_tb_reads_cached_graphs_without_copying(self, monkeypatch):
        # A cold build_cover copies once per stage that changes its graph:
        # odd-odd separation for (5, 8) and (3, 7), blow-down for (3, 2)
        # and (3, 7), neither for (11, 6). tb then neither copies nor marks
        # the cached graphs, on the minimal graph or the lift fallback of
        # (3, 2).
        copies = []
        inner = DecoratedGraph.copy

        def counting(g):
            copies.append(len(g.vertices))
            return inner(g)

        monkeypatch.setattr(DecoratedGraph, "copy", counting)
        build_cover.cache_clear()
        pairs = {(11, 6): 0, (5, 8): 1, (3, 2): 1, (3, 7): 2}
        for (m, n), expected in pairs.items():
            copies.clear()
            build_cover(m, n)
            assert len(copies) == expected, (m, n)
        copies.clear()
        for m, n in pairs:
            for sign in ("plus", "minus"):
                tb(m, n, sign)
        assert copies == []
        assert tb(3, 2, "plus").level == "lift"
        for m, n in pairs:
            for cg in (build_cover(m, n).lift, build_cover(m, n).minimal):
                assert all(d.real is None for d in cg.graph.vertices.values())
                assert cg.conj == {} and cg.sign is None

    def test_marked_graph_and_shared_data(self):
        cover = build_cover(3, 2)
        for sign, level in (("plus", "lift"), ("minus", "minimal")):
            marked, cd, got = evaluation_graph(3, 2, sign)
            assert got == level == tb(3, 2, sign).level
            assert marked.sign == sign
            assert cd is getattr(cover, level).characteristic


class TestImaginaryArms:
    def test_matches_per_vertex_arms(self):
        # The one-pass arm walk against arms() + arm_is_imaginary() and
        # n_prime() at each W_R vertex of every evaluation graph.
        checked = 0
        for m in range(2, 13):
            for n in range(2, 81):
                if gcd(m, n) != 1:
                    continue
                for sign in ("minus", "plus"):
                    marked, _cd, _level = evaluation_graph(m, n, sign)
                    g = marked.graph
                    r = tb(m, n, sign)
                    for e in r.wr:
                        assert r.arm_weights[e] == tuple(
                            arm_weight(g, e, a) for a in arms(g, e)
                            if arm_is_imaginary(g, a))
                        assert r.n_prime_contrib[e] == n_prime(g, e)
                        checked += bool(r.arm_weights[e])
        assert checked


class TestTbFromGraph:
    def test_star12_minus(self, star12_minus):
        cg, _w = star12_minus
        r = tb_from_graph(cg)
        assert r.value == Fraction(1)
        assert r.n_real == 12
        assert r.level == "graph"

    def test_star12_plus(self, star12_plus):
        cg, _w = star12_plus
        r = tb_from_graph(cg)
        assert r.value == Fraction(7, 11)
        assert r.n_real == 2

    def test_explicit_wr_override(self, star12_plus):
        cg, _w = star12_plus
        r = tb_from_graph(cg, wr=[cg.e0_lift])
        assert r.value == Fraction(7, 11)

    def test_empty_wr_gives_euler_count(self):
        # fully real graph, empty wr: tb = N - 1
        g, _ids = make_chain([-2, -2, -2])
        for v in g.vertex_ids():
            g.vertices[v].real = True
        cg = CoverGraph(graph=g, m=None, n=None, e0_lift=None, deck={},
                        downstairs={}, conj={}, sign=None)
        assert tb_from_graph(cg, wr=[]).value == Fraction(2)

    def test_missing_real_flags_rejected(self):
        g, _ids = make_chain([-2, -2])
        cg = CoverGraph(graph=g, m=None, n=None, e0_lift=None, deck={},
                        downstairs={}, conj={}, sign=None)
        with pytest.raises(InconsistentAnnotation):
            tb_from_graph(cg)

    def test_wr_outside_real_locus_rejected(self, star12_plus):
        cg, w = star12_plus
        imaginary_w = sorted(w - {cg.e0_lift})
        with pytest.raises(InconsistentAnnotation):
            tb_from_graph(cg, wr=[imaginary_w[0]])

    def test_non_involutive_conj_rejected(self):
        g, ids = make_chain([-2, -2, -2])
        for v in ids:
            g.vertices[v].real = v == ids[1]
        conj = {ids[0]: ids[1], ids[1]: ids[2], ids[2]: ids[0]}
        cg = CoverGraph(graph=g, m=None, n=None, e0_lift=None, deck={},
                        downstairs={}, conj=conj, sign=None)
        with pytest.raises(InconsistentAnnotation):
            tb_from_graph(cg)

    def test_conj_fixed_points_must_be_real(self):
        g, ids = make_chain([-2, -2])
        g.vertices[ids[0]].real = False
        g.vertices[ids[1]].real = False
        conj = {ids[0]: ids[0], ids[1]: ids[1]}
        cg = CoverGraph(graph=g, m=None, n=None, e0_lift=None, deck={},
                        downstairs={}, conj=conj, sign=None)
        with pytest.raises(InconsistentAnnotation):
            tb_from_graph(cg, wr=[])

    def test_conj_must_preserve_self_ints(self):
        g, ids = make_chain([-2, -3, -2])
        # swap a (-2) with the (-3): not an automorphism of weights
        g.vertices[ids[1]].real = False
        g.vertices[ids[0]].real = False
        g.vertices[ids[2]].real = True
        conj = {ids[0]: ids[1], ids[1]: ids[0], ids[2]: ids[2]}
        cg = CoverGraph(graph=g, m=None, n=None, e0_lift=None, deck={},
                        downstairs={}, conj=conj, sign=None)
        with pytest.raises(InconsistentAnnotation):
            tb_from_graph(cg, wr=[])

    def test_zero_imaginary_arm_weight_rejected(self):
        # a real (-2) center with two conjugate imaginary (0)-arms: the
        # arm weight 0 has no reciprocal in n'
        g, center, ((left,), (right,)) = make_star(-2, [(0,), (0,)])
        g.vertices[center].real = True
        g.vertices[left].real = False
        g.vertices[right].real = False
        conj = {center: center, left: right, right: left}
        cg = CoverGraph(graph=g, m=None, n=None, e0_lift=None, deck={},
                        downstairs={}, conj=conj, sign=None)
        with pytest.raises(ZeroDenominator):
            tb_from_graph(cg, wr=[center])

    def test_branched_imaginary_arms(self):
        # Real (-2) center with a real (-3) arm and two conjugate imaginary
        # arms, each a (-3) head with (-2) and (-3) leaves:
        # weight -3 - (1/-2 + 1/-3) = -13/6, n' = -2 + 12/13 = -14/13,
        # tb = N - 1 + n' = 1 - 14/13.
        g, center, ((real_arm,), (left,), (right,)) = make_star(
            -2, [(-3,), (-3,), (-3,)])
        conj = {center: center, real_arm: real_arm, left: right, right: left}
        for self_int in (-2, -3):
            x, y = (g.add_vertex(self_int) for _ in range(2))
            g.add_edge(left, x)
            g.add_edge(right, y)
            conj.update({x: y, y: x})
        for v in g.vertex_ids():
            g.vertices[v].real = conj[v] == v
        cg = CoverGraph(graph=g, m=None, n=None, e0_lift=None, deck={},
                        downstairs={}, conj=conj, sign=None)
        r = tb_from_graph(cg, wr=[center])
        assert r.arm_weights == {center: (Fraction(-13, 6), Fraction(-13, 6))}
        assert r.n_prime_contrib[center] == Fraction(-14, 13) == n_prime(g, center)
        assert r.value == Fraction(-1, 13)

    def test_imaginary_set_between_real_vertices_is_no_arm(self):
        # a - b - c with b imaginary between the real a and c, and an
        # imaginary (-2) leaf d on a: only d is an arm (of a).
        g, (a, b, c) = make_chain([-2, -3, -2])
        d = g.add_vertex(-2)
        g.add_edge(a, d)
        for v in g.vertex_ids():
            g.vertices[v].real = v in (a, c)
        cg = CoverGraph(graph=g, m=None, n=None, e0_lift=None, deck={},
                        downstairs={}, conj={}, sign=None)
        r = tb_from_graph(cg, wr=[a, c])
        assert r.arm_weights == {a: (Fraction(-2),), c: ()}
        assert r.n_prime_contrib == {a: Fraction(-3, 2), c: Fraction(-2)}
        assert r.value == Fraction(1) - Fraction(3, 2) - Fraction(2)
