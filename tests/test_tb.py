from fractions import Fraction

import pytest

from tbcalc import (
    CoverGraph,
    InconsistentAnnotation,
    ZeroDenominator,
    tb,
    tb_from_graph,
)
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
