"""Decorated resolution graphs.

A graph is a tree of rational curves: vertices carry the decorations used
at the various pipeline stages (self-intersection, multiplicity, first
Chern coefficient, real/imaginary flag, arm label) and arrows model
transverse branches of the associated curve. Arrows are vertex
attachments, not vertices.

A graph comes in two forms. DecoratedGraph is the mutable builder the
pipeline stages edit: one VertexData and one adjacency set per vertex.
Its freeze() makes a FrozenGraph in one pass: the immutable value that
build_cover caches and every reader takes. A FrozenGraph keeps no
per-vertex objects, only flat tuples: the sorted ids, one column per
decoration, a breadth-first order with the parent of each position, and
sorted neighbour lists. Writing to it raises (FrozenInstanceError, or
AttributeError on a vertex record), its freeze() returns itself, and its
copy() returns a new builder to edit.

This module also provides the arm machinery (arms, weights, corrected
self-intersections), blow-down minimization, canonical forms for
isomorphism checks, and O(V) exact routines on frozen trees: a solver for
intersection systems and the determinant of the intersection form. These
and the arm weights run one integer recurrence on subtree determinants
over the stored order, and build a Fraction only for a final value that
is not an integer.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, chain, islice
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional, Union

from .errors import (
    InconsistentAnnotation,
    InternalInvariantError,
    InvalidDocument,
    IsolatedMinusOne,
    SingularMatrix,
    ZeroDenominator,
)
from .numeric import solve_rational


@dataclass
class VertexData:
    """Decorations of one exceptional curve of a DecoratedGraph.

    self_int is always present; the rest are filled in as the pipeline
    learns them. Every curve is a rational (genus 0) curve.
    """

    self_int: int
    mult: Optional[int] = None
    c1_coeff: Optional[int] = None
    real: Optional[bool] = None
    arm_label: Optional[str] = None


class DecoratedGraph:
    """A tree with decorated vertices, at most one edge per pair, and arrows.

    Vertex ids are stable small integers assigned at creation and never
    reused, so provenance maps stay valid across graph transformations.
    """

    def __init__(self) -> None:
        self.vertices: dict[int, VertexData] = {}
        self._adj: dict[int, set[int]] = {}
        self.arrows: list[int] = []
        self._next_id = 0

    def add_vertex(
        self,
        self_int: int,
        *,
        vid: Optional[int] = None,
        mult: Optional[int] = None,
        c1_coeff: Optional[int] = None,
        real: Optional[bool] = None,
        arm_label: Optional[str] = None,
    ) -> int:
        if vid is None:
            vid = self._next_id
        if vid in self.vertices:
            raise ValueError(f"vertex id {vid} already in use")
        self.vertices[vid] = VertexData(
            self_int=self_int, mult=mult, c1_coeff=c1_coeff, real=real,
            arm_label=arm_label,
        )
        self._adj[vid] = set()
        self._next_id = max(self._next_id, vid + 1)
        return vid

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError("loops are not allowed")
        if u not in self.vertices or v not in self.vertices:
            raise ValueError("edge endpoint is not a vertex")
        if v in self._adj[u]:
            raise ValueError(f"duplicate edge {u}-{v}")
        self._adj[u].add(v)
        self._adj[v].add(u)

    def remove_edge(self, u: int, v: int) -> None:
        self._adj[u].discard(v)
        self._adj[v].discard(u)

    def remove_vertex(self, v: int) -> None:
        for u in list(self._adj[v]):
            self.remove_edge(u, v)
        del self._adj[v]
        del self.vertices[v]
        self.arrows = [a for a in self.arrows if a != v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(self._adj[v]))

    def _adjacency(self) -> dict[int, set[int]]:
        return self._adj

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def arrow_count(self, v: int) -> int:
        return self.arrows.count(v)

    def vertex_ids(self) -> list[int]:
        return sorted(self.vertices)

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once as (u, v) with u < v, sorted."""
        return sorted((u, v) for u, adj in self._adj.items() for v in adj if u < v)

    def copy(self) -> "DecoratedGraph":
        clone = DecoratedGraph()
        clone._next_id = self._next_id
        clone.arrows = list(self.arrows)
        for vid, d in self.vertices.items():
            clone.vertices[vid] = VertexData(
                d.self_int, d.mult, d.c1_coeff, d.real, d.arm_label)
            clone._adj[vid] = set(self._adj[vid])
        return clone

    def freeze(self, root: Optional[int] = None) -> "FrozenGraph":
        """The graph as a FrozenGraph, walked breadth-first from root (by
        default the smallest id). The builder stays as it is."""
        ids = tuple(sorted(self.vertices))
        index = {v: i for i, v in enumerate(ids)}
        sets = list(map(self._adj.__getitem__, ids))
        adj = tuple(chain.from_iterable(sorted(map(index.__getitem__, s)) for s in sets))
        adj_start = tuple(accumulate(map(len, sets), initial=0))
        data = list(map(self.vertices.__getitem__, ids))
        return FrozenGraph(
            ids, *(tuple(map(attrgetter(name), data)) for name in _COLUMNS),
            *_breadth_first(adj, adj_start, 0 if root is None else index[root]),
            adj_start=adj_start, adj=adj,
            arrows=tuple(self.arrows), next_id=self._next_id,
        )

    def is_connected(self) -> bool:
        ids = self.vertex_ids()
        if not ids:
            return True
        seen = {ids[0]}
        stack = [ids[0]]
        while stack:
            v = stack.pop()
            for u in self._adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(ids)

    def validate(self) -> None:
        """Check the very-good-tree invariants, raising InvalidDocument."""
        self.freeze().validate()


_COLUMNS = ("self_int", "mult", "c1_coeff", "arm_label", "real")


class FrozenVertex(NamedTuple):
    """The decorations of one vertex of a FrozenGraph, read from its
    columns on access. Assigning to a field raises AttributeError."""

    self_int: int
    mult: Optional[int]
    c1_coeff: Optional[int]
    real: Optional[bool]
    arm_label: Optional[str]


@dataclass(frozen=True, slots=True)
class FrozenGraph:
    """An immutable decorated tree, stored by position: position p is the
    vertex ids[p], ids sorted.

    Each decoration is one tuple indexed by position. order lists the
    positions breadth-first from a root (then from each further component's
    smallest position, for a forest); parent[p] is the parent position, -1
    at a root. The neighbours of p are adj[adj_start[p]:adj_start[p + 1]],
    sorted. arrows holds the vertex id of each arrow; next_id is the id a
    builder copy gives its next new vertex.
    """

    ids: tuple[int, ...]
    self_int: tuple[int, ...]
    mult: tuple[Optional[int], ...]
    c1_coeff: tuple[Optional[int], ...]
    arm_label: tuple[Optional[str], ...]
    real: tuple[Optional[bool], ...]
    order: tuple[int, ...]
    parent: tuple[int, ...]
    adj_start: tuple[int, ...]
    adj: tuple[int, ...]
    arrows: tuple[int, ...]
    next_id: int

    def pos(self, v: int) -> int:
        """The position of vertex id v; KeyError when v is no vertex."""
        i = bisect_left(self.ids, v)
        if i == len(self.ids) or self.ids[i] != v:
            raise KeyError(v)
        return i

    def _children(self, p: int) -> list[int]:
        up = self.parent[p]
        return [q for q in self.adj[self.adj_start[p]:self.adj_start[p + 1]] if q != up]

    @property
    def vertices(self) -> Mapping[int, FrozenVertex]:
        return _ByPosition(self, self._vertex)

    def _vertex(self, p: int) -> FrozenVertex:
        return FrozenVertex(self.self_int[p], self.mult[p], self.c1_coeff[p],
                            self.real[p], self.arm_label[p])

    def _adjacency(self) -> dict[int, tuple[int, ...]]:
        """The neighbour ids of every vertex by id, made on each call, for
        walks that read them all."""
        start = self.adj_start
        flat = tuple(map(self.ids.__getitem__, self.adj))
        return {v: flat[start[p]:start[p + 1]] for p, v in enumerate(self.ids)}

    def neighbors(self, v: int) -> tuple[int, ...]:
        p, ids = self.pos(v), self.ids
        return tuple(ids[q] for q in self.adj[self.adj_start[p]:self.adj_start[p + 1]])

    def degree(self, v: int) -> int:
        p = self.pos(v)
        return self.adj_start[p + 1] - self.adj_start[p]

    def arrow_count(self, v: int) -> int:
        return self.arrows.count(v)

    def vertex_ids(self) -> list[int]:
        return list(self.ids)

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once as (u, v) with u < v, sorted."""
        ids, adj, start = self.ids, self.adj, self.adj_start
        return [(ids[p], ids[q]) for p in range(len(ids))
                for q in adj[start[p]:start[p + 1]] if p < q]

    def freeze(self, root: Optional[int] = None) -> "FrozenGraph":
        """self, or the same graph walked breadth-first from root."""
        if root is None or (self.ids and self.ids[self.order[0]] == root):
            return self
        order, parent = _breadth_first(self.adj, self.adj_start, self.pos(root))
        return replace(self, order=order, parent=parent)

    def copy(self) -> DecoratedGraph:
        """A new mutable builder with the same vertices, edges and arrows."""
        out = DecoratedGraph()
        for p, v in enumerate(self.ids):
            out.add_vertex(self.self_int[p], vid=v, mult=self.mult[p],
                           c1_coeff=self.c1_coeff[p], real=self.real[p],
                           arm_label=self.arm_label[p])
        for u, v in self.edges():
            out.add_edge(u, v)
        out.arrows = list(self.arrows)
        out._next_id = self.next_id
        return out

    def validate(self) -> None:
        """Check the very-good-tree invariants, raising InvalidDocument."""
        for a in self.arrows:
            if a not in self.vertices:
                raise InvalidDocument(f"arrow attached to unknown vertex {a}")
        if self.ids and len(self.adj) != 2 * (len(self.ids) - 1):
            raise InvalidDocument("graph is not a tree (wrong edge count)")
        if self.parent.count(-1) > 1:
            raise InvalidDocument("graph is not connected")


Graph = Union[DecoratedGraph, FrozenGraph]


class _ByPosition(Mapping):
    """A read-only map from the vertex ids of a FrozenGraph to the value
    at(p) of each position p, computed on access."""

    __slots__ = ("_graph", "_at")

    def __init__(self, graph: FrozenGraph, at) -> None:
        self._graph = graph
        self._at = at

    def __getitem__(self, v: int):
        ids = self._graph.ids
        p = bisect_left(ids, v)
        if p == len(ids) or ids[p] != v:
            raise KeyError(v)
        return self._at(p)

    def __iter__(self):
        return iter(self._graph.ids)

    def __len__(self) -> int:
        return len(self._graph.ids)

    def items(self) -> "_PositionItems":
        return _PositionItems(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class _PositionItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        m = self._mapping
        return zip(m._graph.ids, map(m._at, range(len(m))))


class VertexMap(_ByPosition):
    """A read-only map from the vertex ids of a FrozenGraph to one value
    each, kept as one tuple in position order."""

    __slots__ = ()

    def __init__(self, graph: FrozenGraph, values: Iterable) -> None:
        values = tuple(values)
        if len(values) != len(graph.ids):
            raise ValueError("a VertexMap needs one value per vertex")
        super().__init__(graph, values.__getitem__)


def _breadth_first(
    adj: tuple[int, ...], start: tuple[int, ...], first: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Breadth-first order and parent positions (-1 at a root) over the
    neighbour positions adj[start[p]:start[p + 1]] of each position p, from
    first and then from each position not yet reached."""
    size = len(start) - 1
    parent = [-2] * size
    order: list[int] = []
    for root in chain((first,), range(size)):
        if len(order) == size:
            break
        if parent[root] != -2:
            continue
        parent[root] = -1
        begin = len(order)
        order.append(root)
        for v in islice(order, begin, None):
            for u in adj[start[v]:start[v + 1]]:
                if parent[u] == -2:
                    parent[u] = v
                    order.append(u)
    return tuple(order), tuple(parent)


@dataclass(frozen=True)
class Arm:
    """One connected component of the graph minus a vertex.

    head is the unique vertex of the arm adjacent to the removed vertex.
    vertices are ordered by distance from the removed vertex; for a bamboo
    this is the path order starting at head. is_bamboo means no vertex of
    the arm is a rupture vertex of the ambient graph.
    """

    head: int
    vertices: tuple[int, ...]
    is_bamboo: bool


def is_rupture(g: Graph, v: int) -> bool:
    """A rupture vertex meets at least three other curves, arrows included."""
    return g.degree(v) + g.arrow_count(v) >= 3


def arms(g: Graph, e: int) -> list[Arm]:
    """The arms of vertex e: one per neighbor, ordered by head id."""
    if e not in g.vertices:
        raise ValueError(f"vertex {e} not in graph")
    out = []
    adj = g._adjacency()
    for head in sorted(adj[e]):
        order, parent = _bfs(adj, head, e)
        dist = {e: -1}
        for v in order:
            dist[v] = dist[parent[v]] + 1
        ordered = tuple(sorted(sorted(order), key=dist.__getitem__))
        bamboo = all(len(adj[v]) + g.arrows.count(v) < 3 for v in order)
        out.append(Arm(head=head, vertices=ordered, is_bamboo=bamboo))
    return out


def _branches(
    g: FrozenGraph, marked: list[bool]
) -> tuple[list[int], list[int], list[bool], list[bool]]:
    """Per position p of g as rooted: D_p and E_p (_subtree_dets), whether
    the subtree of p holds a marked position, and whether some position
    strictly below p has D = 0, where the continued fraction of the branch
    at p breaks."""
    det, rest = _subtree_dets(g)
    holds = list(marked)
    broken = [False] * len(det)
    parent = g.parent
    for c in reversed(g.order):
        p = parent[c]
        if p >= 0:
            holds[p] = holds[p] or holds[c]
            broken[p] = broken[p] or broken[c] or det[c] == 0
    return det, rest, holds, broken


def _branch_weight(
    g: FrozenGraph, head: int, det: list[int], rest: list[int],
    broken: list[bool], children: Iterable[int],
) -> Fraction:
    """The weight of the branch at position head made of head and the
    subtrees of the given children: n_head folded with each child's D/E as
    in _subtree_dets, on a bamboo the negative continued fraction from the
    head. Raises ZeroDenominator on a zero sub-branch."""
    d, e = g.self_int[head], 1
    for c in children:
        if broken[c] or det[c] == 0:
            raise ZeroDenominator(f"an arm weight through vertex {g.ids[c]} is zero")
        d, e = d * det[c] - e * rest[c], e * det[c]
    return Fraction(d, e)


def _arm_weights(g: Graph, e: int, chosen: Iterable[Arm]) -> list[Fraction]:
    """The weights of the chosen arms of e, from one _branches pass over g
    rooted at e. Side branches of a branched arm that hold a vertex marked
    real are left out."""
    g = g.freeze(root=e)
    det, rest, holds, broken = _branches(g, [r is True for r in g.real])
    out = []
    for arm in chosen:
        head = g.pos(arm.head)
        children = g._children(head)
        if not arm.is_bamboo:
            children = [c for c in children if not holds[c]]
        out.append(_branch_weight(g, head, det, rest, broken, children))
    return out


def arm_weight(g: Graph, e: int, arm: Arm) -> Fraction:
    """The weight n^sigma of an arm of e.

    On a bamboo this is the negative continued fraction of the raw
    self-intersections, nearest vertex first. On a branched arm the side
    branches are folded in through corrected self-intersections, which is
    order-free and agrees with the continued fraction along any path of
    the arm. Side branches containing a vertex marked real are the
    business of the anchor vertex, not of this arm, and are skipped.
    """
    (weight,) = _arm_weights(g, e, [arm])
    return weight


def arm_is_imaginary(g: Graph, arm: Arm) -> bool:
    """True when every vertex of the arm is marked imaginary."""
    return all(g.vertices[v].real is False for v in arm.vertices)


def n_prime(g: Graph, e: int) -> Fraction:
    """The corrected self-intersection n'_e.

    n'_e = n_e - sum of 1/n^sigma over the fully imaginary arms sigma, so
    on a graph with no imaginary vertices n'_e equals the raw
    self-intersection. Two conjugate imaginary arms contribute separately.
    """
    value = Fraction(g.vertices[e].self_int)
    imaginary = [arm for arm in arms(g, e) if arm_is_imaginary(g, arm)]
    if not imaginary:
        return value
    for arm, weight in zip(imaginary, _arm_weights(g, e, imaginary)):
        if weight == 0:
            raise ZeroDenominator(f"arm at {arm.head} has weight zero")
        value -= Fraction(1, 1) / weight
    return value


def intersection_matrix(g: Graph) -> tuple[list[int], list[list[int]]]:
    """The symmetric intersection form over vertices sorted by id."""
    ids = g.vertex_ids()
    index = {v: i for i, v in enumerate(ids)}
    size = len(ids)
    q = [[0] * size for _ in range(size)]
    for v in ids:
        q[index[v]][index[v]] = g.vertices[v].self_int
    for u, v in g.edges():
        q[index[u]][index[v]] = 1
        q[index[v]][index[u]] = 1
    return ids, q


def is_negative_definite(matrix: list[list[int]]) -> bool:
    """Exact Sylvester test: all leading principal minors alternate in sign.

    Runs an unpivoted elimination; a definite form never produces a zero
    pivot, and negative definiteness is equivalent to every pivot being
    negative.
    """
    size = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    for k in range(size):
        pivot = a[k][k]
        if pivot >= 0:
            return False
        for i in range(k + 1, size):
            if a[i][k] == 0:
                continue
            factor = a[i][k] / pivot
            for j in range(k + 1, size):
                a[i][j] -= factor * a[k][j]
    return True


def blow_down_minimize(
    g: Graph, rng=None
) -> tuple[Graph, list[int]]:
    """Contract (-1)-spheres meeting at most two other exceptional curves.

    Degree 2: the two neighbors become adjacent and each gains +1 on its
    self-intersection. Degree 1: the neighbor gains +1. Degree 0 raises
    IsolatedMinusOne. Vertices carrying arrows are never contracted, and a
    (-1)-vertex of degree 3 or more is left alone rather than resolved by
    extra blow-ups. Repeats until no removable vertex remains.

    rng, when given, picks the contraction order at random; the result is
    the same decorated graph up to isomorphism regardless (tested
    separately). Returns the minimized graph, a builder, and the removed
    vertex ids in contraction order; g is left alone, and returned itself
    when nothing is removable.
    """
    out = g
    removed: list[int] = []
    while True:
        eligible = [
            v
            for v in out.vertex_ids()
            if out.vertices[v].self_int == -1
            and out.arrow_count(v) == 0
            and out.degree(v) <= 2
        ]
        if not eligible:
            return out, removed
        if out is g:
            out = g.copy()
        v = eligible[rng.randrange(len(eligible))] if rng is not None else eligible[0]
        nbrs = out.neighbors(v)
        if out.vertices[v].real is False and any(
            out.vertices[u].real is True for u in nbrs
        ):
            raise InconsistentAnnotation(
                f"cannot contract imaginary vertex {v} next to a real vertex"
            )
        if len(nbrs) == 0:
            raise IsolatedMinusOne(
                f"vertex {v} is an isolated (-1)-sphere; the configuration "
                "contracts to a smooth point"
            )
        if len(nbrs) == 2:
            a, b = nbrs
            if out.has_edge(a, b):
                raise InternalInvariantError(
                    "contraction would create a double edge in a tree"
                )
            out.add_edge(a, b)
        for u in nbrs:
            out.vertices[u].self_int += 1
        out.remove_vertex(v)
        removed.append(v)


_CANON_FIELDS = ("self_int", "mult", "c1_coeff", "real", "arm_label")


def _tree_centers(g: Graph) -> list[int]:
    ids = g.vertex_ids()
    if len(ids) <= 2:
        return ids
    degree = {v: g.degree(v) for v in ids}
    layer = [v for v in ids if degree[v] <= 1]
    remaining = len(ids)
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            degree[v] = 0
            for u in g.neighbors(v):
                if degree[u] > 1:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
                elif degree[u] == 1:
                    degree[u] = 0
                    nxt.append(u)
        layer = nxt
    return sorted(layer)


def _bfs(
    adj: Mapping[int, Iterable[int]], root: int, anchor: Optional[int] = None
) -> tuple[list[int], dict[int, Optional[int]]]:
    """root's component in breadth-first order (reversed, children come
    before their parents) over the neighbour ids adj[v] of each vertex v
    (a graph's _adjacency()), and each vertex's parent, None at the root.
    A given anchor stays out of the walk, as the root's parent."""
    parent: dict = {anchor: None, root: anchor}
    order = [root]
    for v in order:
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    return order, parent


def canonical_form(g: Graph, fields: Iterable[str] = _CANON_FIELDS):
    """A hashable canonical encoding of the decorated tree.

    Two graphs get equal encodings exactly when some id relabeling matches
    all requested decorations, the arrow counts, and the tree structure.
    """
    fields = tuple(fields)

    def deco(v: int):
        data = g.vertices[v]
        parts = []
        for name in fields:
            value = getattr(data, name)
            parts.append(("-",) if value is None else ("+", value))
        parts.append(("arrows", g.arrow_count(v)))
        return tuple(parts)

    # Equal subtrees are built once and shared, so comparing siblings stops
    # at identical objects instead of descending through them.
    shared: dict = {}
    adj = g._adjacency()

    def encode(root: int):
        order, parent = _bfs(adj, root)
        done: dict[int, tuple] = {}
        for v in reversed(order):
            subs = tuple(sorted(done.pop(u) for u in adj[v] if u != parent[v]))
            key = (deco(v), tuple(map(id, subs)))
            done[v] = shared.setdefault(key, (key[0], subs))
        return done[root]

    ids = g.vertex_ids()
    if not ids:
        return ()
    return min(encode(c) for c in _tree_centers(g))


def _quotient(num, den: int):
    """num / den as an int when it is one, else as a Fraction; num is an
    int or a Fraction."""
    return num // den if num % den == 0 else Fraction(num, den)


def solve_intersection_system(
    g: Graph, rhs: Mapping[int, Union[int, Fraction]]
) -> tuple["VertexMap", int]:
    """Solve Q x = rhs exactly, where Q is the intersection form of g, and
    return x by vertex id (an int wherever it is integral) with det Q.

    Fraction-free O(V) elimination along the stored tree order, on rhs
    (ints or Fractions) scaled by the lcm L of its denominators. With D_v,
    E_v of _subtree_dets, x_v = (N_v - E_v*x_parent) / D_v where, leaves to
    root, N_v = E_v*L*rhs_v - sum over children c of N_c*(E_v/D_c), all
    integers. Root to leaves the divisions stay in ints while they are
    exact, and Q x = L*rhs is re-multiplied over every edge of g as a
    self-check. det Q is D at
    the root. Falls back to dense elimination when some D_v vanishes.
    Raises SingularMatrix when the form is singular or g is disconnected.
    """
    g = g.freeze()
    ids, order, parent = g.ids, g.order, g.parent
    if not ids:
        return VertexMap(g, ()), 1
    if parent.count(-1) > 1:
        raise SingularMatrix("graph is not connected")
    det, rest = _subtree_dets(g)
    if 0 in det:
        matrix_ids, q = intersection_matrix(g)
        dense = solve_rational(q, [rhs.get(v, 0) for v in matrix_ids])
        return VertexMap(g, [_quotient(value, 1) for value in dense]), det[order[0]]

    scale = math.lcm(*(r.denominator for r in rhs.values()))
    target = [0 if (r := rhs.get(v)) is None else r.numerator * (scale // r.denominator)
              for v in ids]
    num = [t * e for t, e in zip(target, rest)]
    for c in reversed(order[1:]):
        p = parent[c]
        num[p] -= num[c] * (rest[p] // det[c])
    x: list = [0] * len(ids)
    for v in order:
        p = parent[v]
        x[v] = _quotient(num[v] if p < 0 else num[v] - rest[v] * x[p], det[v])
    near, start = list(map(x.__getitem__, g.adj)), g.adj_start
    check = [self_int * value + sum(near[start[p]:start[p + 1]])
             for p, (self_int, value) in enumerate(zip(g.self_int, x))]
    if check != target:
        bad = next(v for v, total in enumerate(check) if total != target[v])
        raise InternalInvariantError(f"tree solver self-check failed at vertex {ids[bad]}")
    return VertexMap(g, [_quotient(value, scale) for value in x]), det[order[0]]


def _subtree_dets(g: FrozenGraph) -> tuple[list[int], list[int]]:
    """D_p = det Q(T_p) and E_p = det Q(T_p - p) for every subtree T_p of
    g as rooted by its order, indexed by position, as in Eisenbud-Neumann.
    A vertex starts from (D, E) = (n_p, 1) and folds in each child c as
    D <- D*D_c - E*E_c, E <- E*D_c; no division occurs. D_p/E_p is the
    weight n_p - sum E_c/D_c of the branch at p.
    """
    det = list(g.self_int)
    rest = [1] * len(det)
    parent = g.parent
    for c in reversed(g.order):
        p = parent[c]
        if p >= 0:
            det[p], rest[p] = det[p] * det[c] - rest[p] * rest[c], rest[p] * det[c]
    return det, rest


def _tree_det(g: Graph) -> int:
    """det Q of a forest in O(V) integer steps: the product of D at the
    root of each tree (_subtree_dets)."""
    g = g.freeze()
    det, _rest = _subtree_dets(g)
    return math.prod(det[p] for p in g.order if g.parent[p] < 0)
