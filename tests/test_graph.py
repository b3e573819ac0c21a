import random
from fractions import Fraction

import pytest

from tbcalc import (
    DecoratedGraph,
    InconsistentAnnotation,
    InvalidDocument,
    IsolatedMinusOne,
    SingularMatrix,
    ZeroDenominator,
    arm_is_imaginary,
    arm_weight,
    arms,
    blow_down_minimize,
    build_cover,
    canonical_form,
    cf_eval,
    det_exact,
    intersection_matrix,
    is_negative_definite,
    is_rupture,
    n_prime,
    solve_intersection_system,
)
from tbcalc import graph, numeric
from tbcalc.graph import _tree_det
from conftest import make_chain, make_star


class TestGraphBasics:
    def test_add_and_neighbors(self):
        g, ids = make_chain([-2, -3, -2])
        assert g.neighbors(ids[1]) == (ids[0], ids[2])
        assert g.degree(ids[0]) == 1
        assert g.degree(ids[1]) == 2

    def test_no_loops(self):
        g = DecoratedGraph()
        v = g.add_vertex(-1)
        with pytest.raises(ValueError):
            g.add_edge(v, v)

    def test_no_duplicate_edges(self):
        g, ids = make_chain([-2, -2])
        with pytest.raises(ValueError):
            g.add_edge(ids[0], ids[1])

    def test_validate_rejects_cycle(self):
        g, ids = make_chain([-2, -2, -2])
        g.add_edge(ids[0], ids[2])
        with pytest.raises(InvalidDocument):
            g.validate()

    def test_validate_rejects_disconnected(self):
        g = DecoratedGraph()
        g.add_vertex(-2)
        g.add_vertex(-2)
        with pytest.raises(InvalidDocument):
            g.validate()

    def test_copy_is_deep(self):
        g, ids = make_chain([-2, -2])
        h = g.copy()
        h.vertices[ids[0]].self_int = -7
        assert g.vertices[ids[0]].self_int == -2


class TestArms:
    def test_terminal_vertex_of_path(self):
        g, ids = make_chain([-2, -3])
        assert len(arms(g, ids[0])) == 1
        assert len(arms(g, ids[1])) == 1

    def test_degree_one_vertex_has_one_arm(self):
        g, ids = make_chain([-2, -3, -5])
        (arm,) = arms(g, ids[0])
        assert arm.vertices == (ids[1], ids[2])
        assert arm.is_bamboo

    def test_star_center(self):
        g, center, arm_ids = make_star(-1, [(-2,), (-3,), (-7,)])
        got = arms(g, center)
        assert len(got) == 3
        assert {a.vertices for a in got} == {tuple(ids) for ids in arm_ids}
        assert all(a.is_bamboo for a in got)

    def test_non_bamboo_arm(self):
        g, center, arm_ids = make_star(-1, [(-2, -2), (-3,)])
        fork = g.add_vertex(-5)
        g.add_edge(arm_ids[0][0], fork)
        by_head = {a.head: a for a in arms(g, center)}
        assert not by_head[arm_ids[0][0]].is_bamboo
        assert by_head[arm_ids[1][0]].is_bamboo

    def test_is_rupture(self):
        g, center, _ = make_star(-1, [(-2,), (-2,)])
        assert not is_rupture(g, center)
        g.arrows.append(center)
        assert is_rupture(g, center)


class TestArmWeight:
    def test_bamboo_weight_is_continued_fraction(self):
        g, center, (ids,) = make_star(-2, [(-2, -2, -2, -2, -3)])
        (arm,) = arms(g, center)
        assert arm_weight(g, center, arm) == Fraction(-11, 9)

    def test_single_vertex_arm(self):
        g, center, (ids,) = make_star(-2, [(-2,)])
        (arm,) = arms(g, center)
        assert arm_weight(g, center, arm) == Fraction(-2)

    def test_branched_arm_folds_like_cf(self):
        # head with two leaf children of weight -2 each:
        # weight = -3 - (1/-2 + 1/-2) = -2
        g = DecoratedGraph()
        anchor = g.add_vertex(-1)
        head = g.add_vertex(-3)
        g.add_edge(anchor, head)
        for _ in range(2):
            leaf = g.add_vertex(-2)
            g.add_edge(head, leaf)
        (arm,) = arms(g, anchor)
        assert not arm.is_bamboo
        assert arm_weight(g, anchor, arm) == Fraction(-2)

    def test_deep_branched_arm(self):
        # A 3000-vertex path from the head to a (-3) fork with two (-2)
        # leaves: the fork folds to -2, so the arm weighs like a path of
        # 3000 (-2)s. Needs no recursion.
        g, ids = make_chain([-1] + [-2] * 2999 + [-3])
        for _ in range(2):
            g.add_edge(ids[-1], g.add_vertex(-2))
        (arm,) = arms(g, ids[0])
        assert not arm.is_bamboo
        assert arm_weight(g, ids[0], arm) == cf_eval([-2] * 3000)


class TestNPrime:
    def test_all_real_arms_contribute_nothing(self):
        g, center, _ = make_star(-2, [(-3,), (-3,)])
        for v in g.vertex_ids():
            g.vertices[v].real = True
        assert n_prime(g, center) == Fraction(-2)

    def test_two_imaginary_arms(self):
        # the worked n' = -2 - 2/(-11/9) = -4/11
        g, center, arm_ids = make_star(
            -2, [(-2, -2, -2, -2, -3), (-2, -2, -2, -2, -3), (-3,)])
        g.vertices[center].real = True
        g.vertices[arm_ids[2][0]].real = True
        for ids in arm_ids[:2]:
            for v in ids:
                g.vertices[v].real = False
        assert n_prime(g, center) == Fraction(-4, 11)

    def test_one_imaginary_arm(self):
        # n' = -3 - 1/(-2) = -5/2
        g, center, arm_ids = make_star(-3, [(-2,), (-2,)])
        g.vertices[center].real = True
        g.vertices[arm_ids[0][0]].real = False
        g.vertices[arm_ids[1][0]].real = True
        assert n_prime(g, center) == Fraction(-5, 2)


class TestIntersectionMatrix:
    def test_chain_matrix(self):
        g, ids = make_chain([-2, -3, -2])
        got_ids, rows = intersection_matrix(g)
        assert list(got_ids) == ids
        assert rows == [[-2, 1, 0], [1, -3, 1], [0, 1, -2]]

    def test_negative_definite_chain(self):
        g, _ = make_chain([-2, -2, -2])
        _ids, rows = intersection_matrix(g)
        assert is_negative_definite(rows)

    def test_not_negative_definite(self):
        g, _ = make_chain([-1, 2])
        _ids, rows = intersection_matrix(g)
        assert not is_negative_definite(rows)

    def test_a2_determinant(self):
        g, _ = make_chain([-2, -2])
        _ids, rows = intersection_matrix(g)
        assert det_exact(rows) == 3


class TestSolveIntersectionSystem:
    def test_single_vertex(self):
        g = DecoratedGraph()
        v = g.add_vertex(-1)
        assert solve_intersection_system(g, {v: Fraction(-1)}) == {v: Fraction(1)}

    def test_matches_dense_solver(self):
        rng = random.Random(20260815)
        for _ in range(25):
            size = rng.randrange(2, 9)
            g = DecoratedGraph()
            ids = [g.add_vertex(-rng.randrange(1, 6)) for _ in range(size)]
            for i in range(1, size):
                g.add_edge(ids[rng.randrange(i)], ids[i])
            rhs = {v: Fraction(rng.randrange(-5, 6)) for v in ids}
            x = solve_intersection_system(g, rhs)
            _ids, rows = intersection_matrix(g)
            for r, v in enumerate(_ids):
                total = sum(
                    Fraction(rows[r][c]) * x[u] for c, u in enumerate(_ids))
                assert total == rhs[v]

    def test_indefinite_singular_and_fractional(self, monkeypatch):
        # Self-intersections in -4..2 give indefinite and singular forms
        # and vanishing subtree determinants; right-hand sides have
        # non-unit denominators. Dense solve_rational is the oracle, and
        # the solver's own fallback to it must run and agree.
        fallbacks = []

        def counting(matrix, rhs):
            fallbacks.append(len(matrix))
            return numeric.solve_rational(matrix, rhs)

        monkeypatch.setattr(graph, "solve_rational", counting)
        rng = random.Random(20261018)
        singular = solved = 0
        for _ in range(300):
            size = rng.randrange(1, 9)
            g = DecoratedGraph()
            ids = [g.add_vertex(rng.randrange(-4, 3)) for _ in range(size)]
            for i in range(1, size):
                g.add_edge(ids[rng.randrange(i)], ids[i])
            rhs = {v: Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
                   for v in ids}
            _ids, rows = intersection_matrix(g)
            if det_exact(rows) == 0:
                with pytest.raises(SingularMatrix):
                    solve_intersection_system(g, rhs)
                singular += 1
                continue
            x = solve_intersection_system(g, rhs)
            dense = numeric.solve_rational(rows, [rhs[v] for v in _ids])
            assert x == dict(zip(_ids, dense))
            assert all(type(value) is Fraction for value in x.values())
            solved += 1
        assert singular and solved
        # Each singular form reaches the fallback (its root has D = det Q
        # = 0); at least one nonsingular form must reach it as well.
        assert len(fallbacks) > singular

    def test_disconnected_is_singular(self):
        g, _ids = make_chain([-2])
        g.add_vertex(-2)
        with pytest.raises(SingularMatrix):
            solve_intersection_system(g, {})


class TestTreeDeterminant:
    def test_empty_and_single_vertex(self):
        assert _tree_det(DecoratedGraph()) == 1
        for self_int in (-3, 0, 2):
            g, _ids = make_chain([self_int])
            assert _tree_det(g) == self_int

    def test_matches_dense_determinant(self):
        # Self-intersections in -4..2 give singular and indefinite forms
        # as well as definite ones; some graphs are forests.
        rng = random.Random(20261017)
        seen_zero = False
        for _ in range(300):
            size = rng.randrange(1, 10)
            g = DecoratedGraph()
            ids = [g.add_vertex(rng.randrange(-4, 3)) for _ in range(size)]
            for i in range(1, size):
                if rng.random() < 0.9:
                    g.add_edge(ids[rng.randrange(i)], ids[i])
            _ids, rows = intersection_matrix(g)
            det = _tree_det(g)
            assert det == det_exact(rows)
            seen_zero = seen_zero or det == 0
        assert seen_zero


class TestBlowDown:
    def test_interior_minus_one_collapses_chain(self):
        g, _ = make_chain([-2, -1, -2])
        result, removed = blow_down_minimize(g)
        assert [result.vertices[v].self_int for v in result.vertex_ids()] == [0]
        assert len(removed) == 2

    def test_chain_contraction_pattern(self):
        # (-1, -4, -1, 2n2) contracts to (-2, 2n2 + 1)
        for n2 in (-3, -2):
            g, _ = make_chain([-1, -4, -1, 2 * n2])
            result, _removed = blow_down_minimize(g)
            selfs = sorted(result.vertices[v].self_int
                           for v in result.vertex_ids())
            assert selfs == sorted([-2, 2 * n2 + 1])

    def test_arrowed_vertex_not_contracted(self):
        g, ids = make_chain([-1, -2], arrow_on=0)
        result, removed = blow_down_minimize(g)
        assert removed == []
        assert set(result.vertex_ids()) == set(ids)

    def test_isolated_minus_one(self):
        g = DecoratedGraph()
        g.add_vertex(-1)
        with pytest.raises(IsolatedMinusOne):
            blow_down_minimize(g)

    def test_imaginary_contraction_next_to_real_rejected(self):
        g, ids = make_chain([-2, -1, -2])
        g.vertices[ids[0]].real = True
        g.vertices[ids[1]].real = False
        g.vertices[ids[2]].real = False
        with pytest.raises(InconsistentAnnotation):
            blow_down_minimize(g)

    def test_already_minimal(self):
        g, ids = make_chain([-2, -3, -2])
        result, removed = blow_down_minimize(g)
        assert removed == []
        assert canonical_form(result) == canonical_form(g)


class TestCanonicalForm:
    def test_relabel_invariance(self):
        g1, _ = make_chain([-2, -3, -5])
        g2 = DecoratedGraph()
        c = g2.add_vertex(-3)
        a = g2.add_vertex(-5)
        b = g2.add_vertex(-2)
        g2.add_edge(c, a)
        g2.add_edge(c, b)
        assert canonical_form(g1) == canonical_form(g2)

    def test_distinguishes_self_ints(self):
        g1, _ = make_chain([-2, -2])
        g2, _ = make_chain([-2, -3])
        assert canonical_form(g1) != canonical_form(g2)

    def test_arrow_sensitivity(self):
        g1, _ = make_chain([-2, -2], arrow_on=0)
        g2, _ = make_chain([-2, -2])
        assert canonical_form(g1) != canonical_form(g2)

    def test_field_subset(self):
        g1, ids1 = make_chain([-2, -2])
        g2, ids2 = make_chain([-2, -2])
        g1.vertices[ids1[0]].mult = 4
        g2.vertices[ids2[0]].mult = 6
        assert canonical_form(g1) != canonical_form(g2)
        assert (canonical_form(g1, fields=("self_int",))
                == canonical_form(g2, fields=("self_int",)))

    def test_deep_lift(self):
        # Two 1250-vertex arms: deeper than the interpreter's recursion
        # limit, and equal, so sorting them must not descend through them.
        lift = build_cover(2, 2501).lift
        deco, subs = canonical_form(lift.graph, fields=("self_int",))
        assert deco == (("+", lift.graph.vertices[lift.e0_lift].self_int),
                        ("arrows", 0))
        lengths = []
        for node in subs:
            length = 0
            while node:
                length += 1
                node = node[1][0] if node[1] else None
            lengths.append(length)
        assert lengths == [1250, 1250, 1]
