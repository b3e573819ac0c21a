"""Shared fixtures: hand-built graphs used across the test modules."""

from fractions import Fraction

import pytest

from tbcalc import CoverGraph, DecoratedGraph, build_cover


def make_chain(selfs, arrow_on=None):
    """A path graph with the given self-intersections, optionally with one
    arrow. Returns (frozen graph, [ids in chain order])."""
    g = DecoratedGraph()
    ids = [g.add_vertex(s) for s in selfs]
    for a, b in zip(ids, ids[1:]):
        g.add_edge(a, b)
    if arrow_on is not None:
        g.arrows.append(ids[arrow_on])
    return g.freeze(), ids


def make_star(center_self, arm_selfs):
    """A star: one center and one bamboo per entry of arm_selfs, each
    given head-to-terminal. Returns (frozen graph, center, [arm id lists])."""
    g = DecoratedGraph()
    center = g.add_vertex(center_self)
    arm_ids = []
    for selfs in arm_selfs:
        prev = center
        ids = []
        for s in selfs:
            v = g.add_vertex(s)
            g.add_edge(prev, v)
            ids.append(v)
            prev = v
        arm_ids.append(ids)
    return g.freeze(), center, arm_ids


def make_zero_arm(arm_selfs):
    """A real (-2) center with a real (-3) leaf and one imaginary bamboo,
    given head-to-terminal, whose weight breaks ((-2, 0): a zero below the
    head) or is zero ((0,)). Returns (frozen graph, center, arm ids)."""
    star, center, (_leaf, arm) = make_star(-2, [(-3,), arm_selfs])
    g = star.copy()
    for v in g.vertices:
        g.vertices[v].real = v not in arm
    return g.freeze(), center, arm


def neighbours(g):
    """The neighbour ids of each vertex of a frozen graph, sorted, read
    from its edge list."""
    near = {v: [] for v in g.ids}
    for u, v in g.edges():
        near[u].append(v)
        near[v].append(u)
    return near


def lifts_of(cover_graph, down):
    """The sorted ids of the lift's vertices over the downstairs id down."""
    return tuple(sorted(v for v, d in cover_graph.downstairs.items() if d == down))


def build_star12_graph(sign):
    """The 12-vertex star graph with rupture self -2, one (-3) arm and two
    (-2,-2,-2,-2,-3) arms, annotated with the real structure of the given
    sign. This is the minimal cover graph whose tb values are 1 (minus)
    and 7/11 (plus).

    Returns (CoverGraph, w) with w the characteristic set: the rupture and
    the second and fourth vertices of each long arm, counted from the
    rupture (the unique solution of the adjunction system).
    """
    star, center, (arm_a, arm_b, arm_c) = make_star(
        -2, [(-3,), (-2, -2, -2, -2, -3), (-2, -2, -2, -2, -3)])
    w = frozenset({center, arm_b[1], arm_b[3], arm_c[1], arm_c[3]})
    g = star.copy()
    if sign == "minus":
        conj = {v: v for v in star.vertex_ids()}
        for v in star.vertex_ids():
            g.vertices[v].real = True
    else:
        conj = {center: center, arm_a[0]: arm_a[0]}
        for b, c in zip(arm_b, arm_c):
            conj[b] = c
            conj[c] = b
        for v in star.vertex_ids():
            g.vertices[v].real = conj[v] == v
    return CoverGraph(
        graph=g.freeze(), m=None, n=None, e0_lift=center, deck={},
        downstairs={}, conj=conj, sign=sign,
    ), w


@pytest.fixture
def plant_w():
    """plant(m, n, flip) builds the cover of (m, n) afresh and puts W ^ flip
    (every curve when flip is None) on its lift as the characteristic set,
    where the parity suite reads it; it returns the lift. The cover cache is
    cleared before and after, so no planted W reaches another test."""
    def plant(m, n, flip=None):
        lift = build_cover(m, n).lift
        cd = lift.characteristic
        flip = lift.graph.ids if flip is None else flip
        vars(lift)["characteristic"] = cd._replace(w=cd.w ^ frozenset(flip))
        return lift

    build_cover.cache_clear()
    yield plant
    build_cover.cache_clear()


@pytest.fixture
def star12_minus():
    return build_star12_graph("minus")


@pytest.fixture
def star12_plus():
    return build_star12_graph("plus")


def F(num, den=1):
    return Fraction(num, den)
