import math
import random
import statistics
import time
from fractions import Fraction

import pytest

from tbcalc import (
    DecoratedGraph,
    FrozenGraph,
    InconsistentAnnotation,
    InternalInvariantError,
    InvalidDocument,
    IsolatedMinusOne,
    SingularMatrix,
    arm_weight,
    arms,
    blow_down_minimize,
    build_cover,
    canonical_coefficients,
    cf_eval,
    intersection_matrix,
    multiplicities,
    n_prime,
    solve_intersection_system,
    VertexMap,
)
from tbcalc import graph
from tbcalc.graph import Arm, _tree_det
from conftest import make_chain, make_star, make_zero_arm, neighbours
from oracles import canonical_form, det_exact, is_negative_definite, solve_rational


class TestGraphBasics:
    def test_add_and_neighbors(self):
        g, ids = make_chain([-2, -3, -2])
        assert [a.head for a in arms(g, ids[1])] == [ids[0], ids[2]]
        assert len(arms(g, ids[0])) == 1
        assert len(arms(g, ids[1])) == 2

    def test_no_loops(self):
        g = DecoratedGraph()
        v = g.add_vertex(-1)
        with pytest.raises(ValueError):
            g.add_edge(v, v)

    def test_no_duplicate_edges(self):
        g, ids = make_chain([-2, -2])
        with pytest.raises(ValueError):
            g.copy().add_edge(ids[0], ids[1])

    def test_validate_rejects_cycle(self):
        g, ids = make_chain([-2, -2, -2])
        b = g.copy()
        b.add_edge(ids[0], ids[2])
        with pytest.raises(InvalidDocument):
            b.freeze().validate()

    def test_validate_rejects_disconnected(self):
        b = DecoratedGraph()
        b.add_vertex(-2)
        b.add_vertex(-2)
        with pytest.raises(InvalidDocument):
            b.freeze().validate()

    def test_validate_rejects_tree_edge_count_without_connection(self):
        # A triangle and a separate vertex: as many edges as a tree has.
        g = FrozenGraph.from_columns([-2] * 4, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(InvalidDocument, match="not connected"):
            g.validate()

    def test_validate_rejects_arrow_on_unknown_vertex(self):
        g = FrozenGraph.from_columns([-2, -2], [(0, 1)], arrows=(5,))
        with pytest.raises(InvalidDocument, match="unknown vertex 5"):
            g.validate()

    def test_no_edge_to_missing_vertex(self):
        g = DecoratedGraph()
        v = g.add_vertex(-2)
        with pytest.raises(ValueError, match="not a vertex"):
            g.add_edge(v, v + 1)

    def test_no_reused_vertex_id(self):
        g = DecoratedGraph()
        v = g.add_vertex(-2)
        with pytest.raises(ValueError, match=f"vertex id {v} already in use"):
            g.add_vertex(-2, vid=v)

    def test_copy_is_deep(self):
        g, ids = make_chain([-2, -2])
        b = g.copy()
        h = b.copy()
        h.vertices[ids[0]].self_int = -7
        assert b.vertices[ids[0]].self_int == -2


class TestFrozenGraph:
    @staticmethod
    def random_forest(rng):
        g = DecoratedGraph()
        ids = [g.add_vertex(rng.randrange(-4, 0), vid=3 * i + rng.randrange(3),
                            mult=rng.choice((None, 2, 5)),
                            arm_label=rng.choice((None, "n_arm(0)")))
               for i in range(rng.randrange(1, 12))]
        for i in range(1, len(ids)):
            if rng.random() < 0.9:
                g.add_edge(ids[rng.randrange(i)], ids[i])
        g.arrows.append(rng.choice(ids))
        return g

    def test_reads_match_the_builder(self):
        # The frozen reads against what the builder stores: its vertices,
        # its adjacency sets and its arrows.
        rng = random.Random(20261018)
        for _ in range(100):
            g = self.random_forest(rng)
            f = g.freeze()
            assert f.freeze(root=f.ids[0]) is f and f.vertex_ids() == sorted(g.vertices)
            assert dict(f.vertices) == {v: tuple(vars_of(d)) for v, d in g.vertices.items()}
            for v in g.vertices:
                assert [a.head for a in arms(f, v)] == sorted(g._adj[v])
                assert f.arrows.count(v) == g.arrows.count(v)
            assert f.edges() == sorted((u, v) for u, near in g._adj.items()
                                       for v in near if u < v)
            assert f.arrows == tuple(g.arrows)
            h = f.copy()
            assert (h.vertices, h._adj, h.arrows) == (g.vertices, g._adj, g.arrows)
            assert h.freeze() == f
            assert canonical_form(h.freeze()) == canonical_form(f)
            assert _tree_det(h.freeze()) == _tree_det(f)
            assert h.add_vertex(-1) == g.copy().add_vertex(-1)

    def test_order_walks_every_component_parents_first(self):
        rng = random.Random(20261019)
        for _ in range(100):
            g = self.random_forest(rng)
            root = rng.choice(sorted(g.vertices))
            f = g.freeze().freeze(root=root)
            assert f.ids[f.order[0]] == root
            assert sorted(f.order) == list(range(len(f.ids)))
            rank = {p: i for i, p in enumerate(f.order)}
            roots = [p for p in f.order if f.parent[p] == -1]
            reached, todo = set(), [root]
            while todo:
                v = todo.pop()
                if v not in reached:
                    reached.add(v)
                    todo += g._adj[v]
            assert (len(roots) == 1) == (len(reached) == len(g.vertices))
            for p, q in enumerate(f.parent):
                if q >= 0:
                    assert rank[q] < rank[p]
                    assert f.ids[q] in g._adj[f.ids[p]]
            assert f.freeze(root=f.ids[0]).order == g.freeze().order

    def test_vertex_map_is_a_read_only_column(self):
        f, ids = make_chain([-2, -3, -2])
        column = VertexMap(f, ["a", "b", "c"])
        assert column == dict(zip(ids, "abc")) and column[ids[1]] == "b"
        assert dict(column.items()) == dict(zip(ids, "abc"))
        with pytest.raises(KeyError):
            column[99]
        with pytest.raises(TypeError):
            column[ids[0]] = "z"
        with pytest.raises(ValueError):
            VertexMap(f, ["a"])

    @pytest.mark.parametrize("key", ["x", None, (0,)])
    def test_a_key_that_is_no_int_is_missing(self, key):
        # Such a key does not compare with the int ids; every lookup
        # reports it missing instead of raising TypeError.
        f, _ids = make_chain([-2, -3, -2])
        assert key not in f.vertices and key not in VertexMap(f, "abc")
        for lookup in (f.pos, f.vertices.__getitem__, VertexMap(f, "abc").__getitem__):
            with pytest.raises(KeyError):
                lookup(key)


def vars_of(data):
    return (data.self_int, data.mult, data.c1_coeff, data.real, data.arm_label)


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
        star, center, arm_ids = make_star(-1, [(-2, -2), (-3,)])
        b = star.copy()
        b.add_edge(arm_ids[0][0], b.add_vertex(-5))
        g = b.freeze()
        by_head = {a.head: a for a in arms(g, center)}
        assert not by_head[arm_ids[0][0]].is_bamboo
        assert by_head[arm_ids[1][0]].is_bamboo

    @pytest.mark.parametrize("key", [99, "x"])
    def test_unknown_vertex(self, key):
        g, _ids = make_chain([-2, -3])
        with pytest.raises(ValueError, match="not in graph"):
            arms(g, key)

    def test_matches_a_breadth_first_reference(self):
        # Every vertex of random forests and trees, on the stored walk and
        # on walks from another root, so most calls are not walked from e;
        # then the rupture vertices of the pipeline's graphs, where Gamma_f
        # and Gamma'_f are stored walked from id 0.
        rng = random.Random(20261021)
        graphs = [TestFrozenGraph.random_forest(rng).freeze() for _ in range(150)]
        for _ in range(50):
            b = DecoratedGraph()
            ids = [b.add_vertex(-2) for _ in range(rng.randrange(1, 40))]
            for i in range(1, len(ids)):
                b.add_edge(ids[rng.randrange(max(0, i - 4), i)], ids[i])
            b.arrows += rng.sample(ids, min(len(ids), rng.randrange(3)))
            graphs.append(b.freeze())
        # Every vertex is also read walked from itself: a tree then takes
        # the stored walk, a forest the walk from each head.
        walked = stored = 0
        for f in graphs:
            for g in (f, f.freeze(root=rng.choice(f.ids))):
                for e in g.ids:
                    assert arms(g, e) == reference_arms(g, e)
                    walked += g.ids[g.order[0]] != e
            for e in f.ids:
                assert arms(f.freeze(root=e), e) == reference_arms(f, e)
                stored += f.parent.count(-1) == 1
        assert walked > 1000 and stored > 500
        walked = 0
        for m in range(2, 13):
            for n in range(2, 61):
                if math.gcd(m, n) != 1:
                    continue
                cover = build_cover(m, n)
                for g, e in ((cover.gamma_f, cover.rupture),
                             (cover.gamma_f_prime, cover.rupture),
                             (cover.lift.graph, cover.lift.e0_lift),
                             (cover.minimal.graph, cover.minimal.e0_lift)):
                    if e is not None:
                        assert arms(g, e) == reference_arms(g, e), (m, n)
                        walked += g.ids[g.order[0]] != e
        assert walked > 500

    def test_stored_walk_reads_like_a_walk_from_each_head(self):
        # The lift is stored walked from e^0, and so is Gamma(m,n) while
        # e^0 survives: _arm_positions reads their stored walk, and must
        # give each arm's positions in the order a breadth-first walk from
        # its head gives them, heads in position order.
        stored = 0
        for m in range(2, 17):
            for n in range(2, 81):
                if math.gcd(m, n) != 1:
                    continue
                cover = build_cover(m, n)
                for cg in (cover.lift, cover.minimal):
                    if cg.e0_lift is None:
                        continue
                    g = cg.graph
                    p = g.pos(cg.e0_lift)
                    stored += g.order[0] == p
                    assert graph._arm_positions(g, p) == reference_arm_positions(g, p), (m, n)
        assert stored > 1000

    def test_a_cycle_is_read_once(self):
        # A caller's graph with a cycle 0-1-2-3 and a tail 2-4 beside an
        # isolated vertex 5, so V - 1 edges: each vertex of e's component is
        # listed once, in the arm of the first head whose walk reaches it,
        # and the heads are e's neighbours; walked from e or not, the arms
        # are the same.
        g = FrozenGraph.from_columns([-2] * 6, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4)])
        near = neighbours(g)
        expected = {0: [(1, (1, 2, 4)), (3, (3,))], 1: [(0, (0, 3)), (2, (2, 4))],
                    2: [(1, (1, 0)), (3, (3,)), (4, (4,))], 3: [(0, (0, 1)), (2, (2, 4))],
                    4: [(2, (2, 1, 3, 0))]}
        for e in range(5):
            for h in (g, g.freeze(root=e)):
                got = arms(h, e)
                assert [arm.head for arm in got] == near[e]
                assert [(arm.head, arm.vertices) for arm in got] == expected[e]

    def test_is_rupture(self):
        # A rupture vertex meets at least three other curves, arrows
        # included, and an arm through one is no bamboo.
        g, center, ((left,), _right) = make_star(-1, [(-2,), (-2,)])
        assert [a.is_bamboo for a in arms(g, left)] == [True]
        b = g.copy()
        b.arrows.append(center)
        assert [a.is_bamboo for a in arms(b.freeze(), left)] == [False]


def reference_arm_positions(g, p):
    """_arm_positions as a breadth-first walk from each head of position p
    in turn, one seen mark shared by all, set on p and on every head."""
    adj, start = g.adj, g.adj_start
    heads = adj[start[p]:start[p + 1]]
    seen = {p, *heads}
    out = []
    for h in heads:
        where = [h]
        for q in where:
            for r in adj[start[q]:start[q + 1]]:
                if r not in seen:
                    seen.add(r)
                    where.append(r)
        out.append(where)
    return out


def reference_arms(g, e):
    """arms() as a breadth-first walk of its own from each head of e, the
    vertices of an arm sorted by depth below the head, then by id."""
    ids, adj, start = g.ids, g.adj, g.adj_start
    try:
        root = g.pos(e)
    except KeyError:
        raise ValueError(f"vertex {e} not in graph") from None
    meets = [start[p + 1] - start[p] for p in range(len(ids))]
    for p in map(g.pos, g.arrows):
        meets[p] += 1
    depth = [-1] * len(ids)
    depth[root] = 0
    out = []
    for head in adj[start[root]:start[root + 1]]:
        depth[head] = 0
        order = [head]
        for p in order:
            for q in adj[start[p]:start[p + 1]]:
                if depth[q] < 0:
                    depth[q] = depth[p] + 1
                    order.append(q)
        order.sort()
        order.sort(key=depth.__getitem__)
        bamboo = max(map(meets.__getitem__, order)) < 3
        out.append(Arm(head=ids[head], vertices=tuple(map(ids.__getitem__, order)),
                       is_bamboo=bamboo))
    return out


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
        b = DecoratedGraph()
        anchor = b.add_vertex(-1)
        head = b.add_vertex(-3)
        b.add_edge(anchor, head)
        for _ in range(2):
            leaf = b.add_vertex(-2)
            b.add_edge(head, leaf)
        g = b.freeze()
        (arm,) = arms(g, anchor)
        assert not arm.is_bamboo
        assert arm_weight(g, anchor, arm) == Fraction(-2)

    def test_deep_branched_arm(self):
        # A 3000-vertex path from the head to a (-3) fork with two (-2)
        # leaves: the fork folds to -2, so the arm weighs like a path of
        # 3000 (-2)s. Needs no recursion.
        chain, ids = make_chain([-1] + [-2] * 2999 + [-3])
        b = chain.copy()
        for _ in range(2):
            b.add_edge(ids[-1], b.add_vertex(-2))
        g = b.freeze()
        (arm,) = arms(g, ids[0])
        assert not arm.is_bamboo
        assert arm_weight(g, ids[0], arm) == cf_eval([-2] * 3000)

    def test_zero_below_the_head_is_named(self):
        # The (0)-curve makes the form singular; the walk from the center
        # first meets a pivot that is not negative at the head.
        g, center, (head, _zero) = make_zero_arm((-2, 0))
        (arm,) = [a for a in arms(g, center) if a.head == head]
        with pytest.raises(SingularMatrix,
                           match=f"^intersection form is not negative definite at vertex {head}$"):
            arm_weight(g, center, arm)

    def test_zero_head_is_refused(self):
        # A (0)-curve head weighs 0; its form is singular, so there is no
        # weight to return. The first pivot that is not negative is the center's.
        g, center, (head,) = make_zero_arm((0,))
        (arm,) = [a for a in arms(g, center) if a.head == head]
        with pytest.raises(SingularMatrix,
                           match=f"^intersection form is not negative definite at vertex {center}$"):
            arm_weight(g, center, arm)


class TestNPrime:
    def test_all_real_arms_contribute_nothing(self):
        star, center, _ = make_star(-2, [(-3,), (-3,)])
        b = star.copy()
        for v in star.vertex_ids():
            b.vertices[v].real = True
        assert n_prime(b.freeze(), center) == Fraction(-2)

    def test_two_imaginary_arms(self):
        # the worked n' = -2 - 2/(-11/9) = -4/11
        star, center, arm_ids = make_star(
            -2, [(-2, -2, -2, -2, -3), (-2, -2, -2, -2, -3), (-3,)])
        b = star.copy()
        b.vertices[center].real = True
        b.vertices[arm_ids[2][0]].real = True
        for ids in arm_ids[:2]:
            for v in ids:
                b.vertices[v].real = False
        assert n_prime(b.freeze(), center) == Fraction(-4, 11)

    def test_one_pass_for_all_arms(self, monkeypatch):
        passes = []
        inner = graph._branches

        def counting(g, marked):
            passes.append(len(marked))
            return inner(g, marked)

        monkeypatch.setattr(graph, "_branches", counting)
        star, center, arm_ids = make_star(-2, [(-2, -3), (-3,), (-2,), (-5,)])
        b = star.copy()
        b.vertices[center].real = True
        for ids in arm_ids:
            for v in ids:
                b.vertices[v].real = False
        g = b.freeze()
        # n' = -2 - 1/(-5/3) - 1/(-3) - 1/(-2) - 1/(-5)
        assert n_prime(g, center) == Fraction(-11, 30)
        assert passes == [len(g.vertices)]

    @pytest.mark.parametrize("selfs", [(-2, 0), (0,)], ids=["broken", "zero"])
    def test_zero_arm_messages(self, selfs):
        # A (0)-curve in an imaginary arm makes the form singular: n_prime
        # names the first vertex from the center whose pivot is not negative.
        g, center, arm = make_zero_arm(selfs)
        bad = arm[0] if len(arm) > 1 else center
        with pytest.raises(SingularMatrix,
                           match=f"^intersection form is not negative definite at vertex {bad}$"):
            n_prime(g, center)

    def test_makes_no_arms_walk(self, monkeypatch):
        # n_prime reads its arms off the _branches fold it shares with tb.
        monkeypatch.setattr(graph, "arms", None)
        star, center, arm_ids = make_star(-3, [(-2,), (-2, -2)])
        b = star.copy()
        for v in b.vertices:
            b.vertices[v].real = v == center or v in arm_ids[0]
        # n' = -3 - 1/(-3/2)
        assert n_prime(b.freeze(), center) == Fraction(-7, 3)

    def test_one_imaginary_arm(self):
        # n' = -3 - 1/(-2) = -5/2
        star, center, arm_ids = make_star(-3, [(-2,), (-2,)])
        b = star.copy()
        b.vertices[center].real = True
        b.vertices[arm_ids[0][0]].real = False
        b.vertices[arm_ids[1][0]].real = True
        assert n_prime(b.freeze(), center) == Fraction(-5, 2)


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
        b = DecoratedGraph()
        v = b.add_vertex(-1)
        assert solve_intersection_system(b.freeze(), {v: Fraction(-1)}) == ({v: 1}, -1)

    @staticmethod
    def _sweep(seed, trees, denominators):
        """Solve trees random trees of 1-9 curves with self-intersections in
        -4..2 against the dense oracles. A tree is refused exactly when its
        form is not negative definite; otherwise the solution is the dense
        one, an int wherever it is integral, and det is det Q. Returns how
        many forms were refused as singular, refused as nonsingular but
        indefinite, and solved."""
        rng = random.Random(seed)
        singular = indefinite = solved = 0
        for _ in range(trees):
            size = rng.randrange(1, 10)
            b = DecoratedGraph()
            ids = [b.add_vertex(rng.randrange(-4, 3)) for _ in range(size)]
            for i in range(1, size):
                b.add_edge(ids[rng.randrange(i)], ids[i])
            g = b.freeze()
            rhs = {v: Fraction(rng.randrange(-9, 10), rng.choice(denominators))
                   for v in ids}
            _ids, rows = intersection_matrix(g)
            if not is_negative_definite(rows):
                with pytest.raises(SingularMatrix, match="not negative definite"):
                    solve_intersection_system(g, rhs)
                if det_exact(rows) == 0:
                    singular += 1
                else:
                    indefinite += 1
                continue
            x, det = solve_intersection_system(g, rhs)
            assert x == dict(zip(_ids, solve_rational(rows, [rhs[v] for v in _ids])))
            assert det == det_exact(rows)
            assert all(type(value) is (int if value.denominator == 1 else Fraction)
                       for value in x.values())
            solved += 1
        return singular, indefinite, solved

    def test_matches_dense_solver(self):
        # Integral right-hand sides skip the lcm scaling.
        singular, indefinite, solved = self._sweep(20260815, 1000, [1])
        assert singular and indefinite and solved >= 100

    def test_indefinite_singular_and_fractional(self):
        # Right-hand sides with non-unit denominators go through the lcm
        # scaling; singular and nonsingular indefinite forms are both refused.
        singular, indefinite, solved = self._sweep(20261018, 1000, range(1, 7))
        assert singular and indefinite and solved >= 100

    def test_disconnected_is_singular(self):
        g, _ids = make_chain([-2])
        b = g.copy()
        b.add_vertex(-2)
        with pytest.raises(SingularMatrix, match="^graph is not a tree$"):
            solve_intersection_system(b.freeze(), {})

    def test_cycle_is_not_a_tree(self):
        # The elimination would walk a spanning tree of the triangle and
        # miss its third edge; the triangle is refused before it solves.
        chain, (a, b, c) = make_chain([-2, -2, -2])
        triangle = chain.copy()
        triangle.add_edge(a, c)
        rhs = {a: Fraction(1), b: Fraction(2), c: Fraction(3)}
        with pytest.raises(SingularMatrix, match="^graph is not a tree$"):
            solve_intersection_system(triangle.freeze(), rhs)

    def test_loop_fills_its_own_two_slots(self):
        # A loop at 2 lists 2 twice among 2's neighbours, and no phantom
        # edge 0-2 appears; the 2(V - 1) slot count refuses the graph.
        g = FrozenGraph.from_columns([-2] * 3, [(0, 1), (1, 2), (2, 2)])
        assert g.adj == (1, 0, 2, 1, 2, 2)
        assert g.adj[g.adj_start[2]:g.adj_start[3]] == (1, 2, 2)
        with pytest.raises(SingularMatrix, match="^graph is not a tree$"):
            solve_intersection_system(g, {})

    def test_self_check_catches_a_corrupt_row(self, monkeypatch):
        # One row of Q x comes back off by one for one call: the self-check
        # names its vertex, and the next call solves again.
        inner, calls = graph._form_times, []

        def corrupt(g, x):
            rows = inner(g, x)
            if not calls:
                rows[1] += 1
            calls.append(len(rows))
            return rows

        monkeypatch.setattr(graph, "_form_times", corrupt)
        g, ids = make_chain([-2, -3, -2])
        with pytest.raises(InternalInvariantError,
                           match=f"^tree solver self-check failed at vertex {ids[1]}$"):
            solve_intersection_system(g, {ids[1]: 1})
        assert solve_intersection_system(g, {ids[1]: 1})[1] == -8
        assert calls == [3, 3]

    @pytest.mark.parametrize("extra", ["cycle", "double"])
    def test_every_reader_refuses_a_graph_that_is_not_a_tree(self, extra):
        # A triangle of (-3)-curves, or two (-2)-curves joined twice: each
        # form reader raises SingularMatrix, none a self-check's error.
        if extra == "cycle":
            g = FrozenGraph.from_columns([-3] * 3, [(0, 1), (1, 2), (0, 2)], real=[True] * 3)
        else:
            g = FrozenGraph.from_columns([-2] * 2, [(0, 1), (0, 1)], real=[True] * 2)
        readers = [lambda: solve_intersection_system(g, {}), lambda: n_prime(g, 0),
                   lambda: arm_weight(g, 0, arms(g, 0)[0]),
                   lambda: canonical_coefficients(g), lambda: multiplicities(g)]
        for read in readers:
            with pytest.raises(SingularMatrix, match="^graph is not a tree$"):
                read()


class TestTreeDeterminant:
    def test_empty_and_single_vertex(self):
        assert _tree_det(DecoratedGraph().freeze()) == 1
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
            b = DecoratedGraph()
            ids = [b.add_vertex(rng.randrange(-4, 3)) for _ in range(size)]
            for i in range(1, size):
                if rng.random() < 0.9:
                    b.add_edge(ids[rng.randrange(i)], ids[i])
            g = b.freeze()
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
        b = DecoratedGraph()
        b.add_vertex(-1)
        with pytest.raises(IsolatedMinusOne):
            blow_down_minimize(b.freeze())

    def test_imaginary_contraction_next_to_real_rejected(self):
        g, ids = make_chain([-2, -1, -2])
        b = g.copy()
        b.vertices[ids[0]].real = True
        b.vertices[ids[1]].real = False
        b.vertices[ids[2]].real = False
        with pytest.raises(InconsistentAnnotation):
            blow_down_minimize(b.freeze())

    def test_already_minimal(self):
        g, ids = make_chain([-2, -3, -2])
        result, removed = blow_down_minimize(g)
        assert removed == []
        assert canonical_form(result) == canonical_form(g)

    def test_cost_is_linear_on_odd_exponent_lifts(self):
        # For odd m about half of the lift contracts. A rebuild that tests
        # each touched position against the list of removed ones grows like
        # the square of the lift: the 4x larger lift took 10-11x as long.
        small, large = (build_cover(3, n).lift.graph for n in (5002, 20002))
        assert (len(small.ids), len(large.ids)) == (1672, 6672)
        times = {small: [], large: []}
        for _ in range(5):
            for g in times:
                start = time.perf_counter()
                blow_down_minimize(g)
                times[g].append(time.perf_counter() - start)
        ratio = statistics.median(times[large]) / statistics.median(times[small])
        assert ratio < 7, ratio

    @staticmethod
    def random_graph(rng):
        # Mostly (-1)-curves, so chains contract and (-1)-curves of degree
        # 0 to 3 occur; now and then a missing edge (a forest) or an extra
        # one (a cycle, which blow-down must refuse to close twice).
        g = DecoratedGraph()
        ids = [g.add_vertex(rng.choice((-1, -1, -1, -2, -3)), vid=2 * i + rng.randrange(2),
                            mult=rng.choice((None, 3)), arm_label=rng.choice((None, "x")),
                            real=rng.choice((None, None, True, False)))
               for i in range(rng.randrange(1, 12))]
        for i in range(1, len(ids)):
            if rng.random() < 0.95:
                g.add_edge(ids[rng.randrange(i)], ids[i])
        if len(ids) > 2 and rng.random() < 0.1:
            u, v = rng.sample(ids, 2)
            if v not in g._adj[u]:
                g.add_edge(u, v)
        for _ in range(rng.randrange(3)):
            g.arrows.append(rng.choice(ids))
        return g.freeze()

    def test_matches_a_dict_reference(self):
        rng = random.Random(20261020)
        outcomes = set()
        for trial in range(600):
            g = self.random_graph(rng)
            seed = rng.randrange(10**6) if trial % 2 else None
            results = []
            for contract in (blow_down_minimize, reference_blow_down):
                try:
                    results.append(contract(g, None if seed is None else random.Random(seed)))
                except (IsolatedMinusOne, InconsistentAnnotation,
                        InternalInvariantError) as exc:
                    results.append(type(exc))
            got, want = results
            if isinstance(want, type):
                assert got is want, trial
                outcomes.add(want)
                continue
            (result, removed), (expected, expected_removed) = got, want
            assert removed == expected_removed, trial
            assert result == expected._replace(next_id=g.next_id)
            outcomes.add(bool(removed))
        assert outcomes == {True, False, IsolatedMinusOne, InconsistentAnnotation,
                            InternalInvariantError}

    def test_matches_the_dict_reference_on_pipeline_lifts(self):
        # The random graphs above have at most 11 curves. Every lift of the
        # pinned grid is contracted smallest-first and in 3 seeded orders;
        # the result keeps the lift's walk root where it survives.
        contracted = 0
        for m in range(2, 17):
            for n in range(2, 81):
                if math.gcd(m, n) != 1:
                    continue
                g = build_cover(m, n).lift.graph
                root = g.ids[g.order[0]]
                for seed in (None, 1, 2, 3):
                    (result, removed), (expected, expected_removed) = (
                        contract(g, None if seed is None else random.Random(seed))
                        for contract in (blow_down_minimize, reference_blow_down))
                    assert removed == expected_removed, (m, n, seed)
                    if root in expected.ids:
                        expected = expected.freeze(root)
                    assert result == expected._replace(next_id=g.next_id), (m, n, seed)
                    if not removed:
                        break  # no order to vary
                contracted += bool(removed)
        assert contracted > 500, contracted  # 556 of the 696 lifts


def reference_blow_down(g, rng=None):
    """blow_down_minimize on plain dicts: after each contraction the
    removable ids are listed afresh, sorted, and rng picks among them as
    blow_down_minimize does. Returns the frozen result and the removed ids."""
    data = {v: d._asdict() for v, d in g.vertices.items()}
    near = {v: set(adjacent) for v, adjacent in neighbours(g).items()}

    def eligible():
        return [v for v in sorted(data) if data[v]["self_int"] == -1
                and len(near[v]) <= 2 and v not in g.arrows]

    removed = []
    while todo := eligible():
        v = todo[rng.randrange(len(todo)) if rng else 0]
        nbrs = near.pop(v)
        if data[v]["real"] is False and any(data[u]["real"] is True for u in nbrs):
            raise InconsistentAnnotation(v)
        if not nbrs:
            raise IsolatedMinusOne(v)
        if len(nbrs) == 2 and max(nbrs) in near[min(nbrs)]:
            raise InternalInvariantError(v)
        for u in nbrs:
            near[u] = (near[u] | nbrs) - {u, v}
            data[u]["self_int"] += 1
        del data[v]
        removed.append(v)
    out = DecoratedGraph()
    for v, fields in data.items():
        out.add_vertex(fields.pop("self_int"), vid=v, **fields)
    for u, v in {tuple(sorted((u, v))) for u in near for v in near[u]}:
        out.add_edge(u, v)
    out.arrows = list(g.arrows)
    return out.freeze(), removed


class TestCanonicalForm:
    def test_relabel_invariance(self):
        g1, _ = make_chain([-2, -3, -5])
        g2 = DecoratedGraph()
        c = g2.add_vertex(-3)
        a = g2.add_vertex(-5)
        b = g2.add_vertex(-2)
        g2.add_edge(c, a)
        g2.add_edge(c, b)
        assert canonical_form(g1) == canonical_form(g2.freeze())

    def test_distinguishes_self_ints(self):
        g1, _ = make_chain([-2, -2])
        g2, _ = make_chain([-2, -3])
        assert canonical_form(g1) != canonical_form(g2)

    def test_arrow_sensitivity(self):
        g1, _ = make_chain([-2, -2], arrow_on=0)
        g2, _ = make_chain([-2, -2])
        assert canonical_form(g1) != canonical_form(g2)

    def test_field_subset(self):
        chain, ids = make_chain([-2, -2])
        b1, b2 = chain.copy(), chain.copy()
        b1.vertices[ids[0]].mult = 4
        b2.vertices[ids[0]].mult = 6
        g1, g2 = b1.freeze(), b2.freeze()
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
