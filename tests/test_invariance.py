"""tb is an invariant of the singularity, so any very good resolution marked
with its real structure must give the same value.

Each evaluation graph is blown up once per equivariant kind
(oracles.BLOW_UP_KINDS), and tb_from_graph on the result must give the
value tb reads off the graph itself; the adjunction solve on the result
must pull c1 back by the blow-up rule. A real smooth point anchors the
value itself: its link is the unknot, of tb -1, on every resolution.

The plus structure falls back to the lift on the pairs with an exponent 2,
where e^0 blows down and Gamma(m,n) joins one curve to its conjugate. One
real blow-up of that point must then give the value tb reads off the lift.
"""

import math
from collections import Counter

from tbcalc import (CoverGraph, FrozenGraph, build_cover, canonical_coefficients,
                    evaluation_graph, mark_real_structure, tb, tb_from_graph)
from oracles import BLOW_UP_KINDS, assemble_dense, blow_up, blow_up_sites

GRID = [(m, n) for m in range(2, 16) for n in range(2, 60) if math.gcd(m, n) == 1]


def blow_ups(pairs=GRID):
    """Each evaluation graph of the pairs, both signs, with its
    characteristic data and its blow-ups: one per kind that has a site, at
    the first."""
    for m, n in pairs:
        for sign in ("minus", "plus"):
            marked, cd, _level = evaluation_graph(m, n, sign)
            blown_up = []
            for kind in BLOW_UP_KINDS:
                sites = blow_up_sites(marked, kind)
                if sites:
                    blown_up.append((kind, blow_up(marked, kind, sites[0])))
            yield m, n, sign, cd, blown_up


def test_tb_is_invariant_under_each_kind_of_blow_up():
    kinds = Counter()
    for m, n, sign, _cd, blown_up in blow_ups():
        value = tb(m, n, sign).value
        for kind, blown in blown_up:
            assert tb_from_graph(blown).value == value, (m, n, sign, kind)
            kinds[kind] += 1
    # 486 pairs, each with two evaluation graphs; the imaginary kinds need
    # the plus structure of a pair with an even exponent.
    assert kinds == {"real_point": 972, "real_edge": 972, "real_curve_pair": 972,
                     "imaginary_curve_pair": 332, "edge_pair": 332}


def test_assembly_matches_the_dense_schur_complement_on_blown_up_graphs():
    # tb_from_graph's n' sum over its tree folds against assemble_dense,
    # which reads the dense form of the same caller graph and its W; every
    # fifth pair of GRID keeps the dense solves to about a second.
    kinds = Counter()
    for m, n, sign, _cd, blown_up in blow_ups(GRID[::5]):
        for kind, blown in blown_up:
            w = canonical_coefficients(blown).w
            assert tb_from_graph(blown).value == assemble_dense(blown.graph, w), (
                m, n, sign, kind)
            kinds[kind] += 1
    assert kinds == {"real_point": 196, "real_edge": 196, "real_curve_pair": 196,
                     "imaginary_curve_pair": 65, "edge_pair": 65}


def test_c1_follows_the_blow_up_rule():
    # A new curve at a point of v gets a_v - 1, one at u meet v gets
    # a_u + a_v - 1, and every old curve keeps its coefficient.
    for m, n, sign, cd, blown_up in blow_ups():
        for kind, blown in blown_up:
            a = canonical_coefficients(blown).a
            new = [v for v in blown.graph.ids if v not in cd.a]
            assert len(new) == 1 + (kind not in ("real_point", "real_edge"))
            assert all(a[v] == cd.a[v] for v in cd.a), (m, n, sign, kind)
            for e in new:
                centre = [u if v == e else v for u, v in blown.graph.edges() if e in (u, v)]
                assert a[e] == sum(map(cd.a.__getitem__, centre)) - 1, (m, n, sign, kind)


def test_blown_up_smooth_point_gives_the_unknot():
    # A real (-1)-curve resolves a real smooth point, whose link is the
    # unknot of tb -1, and so does every tower of equivariant blow-ups over
    # it: here all 107 of height at most 3, imaginary curves included.
    point = CoverGraph(graph=FrozenGraph.from_columns([-1], [], real=[True]), m=None,
                       n=None, e0_lift=None, deck={}, downstairs={}, conj={0: 0}, sign=None)
    towers = level = [point]
    for _height in range(3):
        level = [blow_up(cg, kind, where) for cg in level for kind in BLOW_UP_KINDS
                 for where in blow_up_sites(cg, kind)]
        towers = towers + level
    for cg in towers:
        assert tb_from_graph(cg).value == -1, cg.graph
    assert len(towers) == 107
    assert any(False in cg.graph.real for cg in towers)


def test_lift_fallback_is_one_real_blow_up_of_gamma():
    # On 2 <= m <= 40, 2 <= n <= 300 the plus pairs that fall back are the
    # 168 with an exponent 2 (149 with m = 2 and 19 with n = 2).
    pairs = [(m, n) for m in range(2, 41) for n in range(2, 301)
             if 2 in (m, n) and math.gcd(m, n) == 1]
    assert len(pairs) == 168
    for m, n in pairs:
        result = tb(m, n, "plus")
        assert result.level == "lift", (m, n)
        marked = mark_real_structure(build_cover(m, n).minimal, "plus")
        meeting = [(u, v) for u, v in marked.graph.edges() if marked.conj[u] == v]
        assert len(meeting) == 1, (m, n)
        blown = blow_up(marked, "real_edge", meeting[0])
        # The new curve is real and fixed by conj, and each of the two
        # curves it separates is lowered by 1.
        (e,) = set(blown.graph.ids) - set(marked.graph.ids)
        assert blown.conj[e] == e and blown.graph.vertices[e].real
        assert [blown.graph.vertices[v].self_int for v in meeting[0]] == [
            marked.graph.vertices[v].self_int - 1 for v in meeting[0]]
        assert tb_from_graph(blown).value == result.value, (m, n)
