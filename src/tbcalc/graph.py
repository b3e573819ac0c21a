"""Decorated resolution graphs.

A DecoratedGraph is a tree of rational curves: vertices carry the
decorations used at the various pipeline stages (self-intersection,
multiplicity, first Chern coefficient, real/imaginary flag, arm label) and
arrows model transverse branches of the associated curve. Arrows are vertex
attachments, not vertices.

This module also provides the arm machinery (arms, weights, corrected
self-intersections), blow-down minimization, canonical forms for
isomorphism checks, and O(V) exact routines on trees: a solver for
intersection systems and the determinant of the intersection form.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .errors import (
    InconsistentAnnotation,
    InternalInvariantError,
    InvalidDocument,
    IsolatedMinusOne,
    SingularMatrix,
    ZeroDenominator,
)
from .numeric import cf_eval, solve_rational


@dataclass
class VertexData:
    """Decorations of one exceptional curve.

    self_int is always present; the rest are filled in as the pipeline
    learns them. genus is zero for every vertex in this package (all
    exceptional curves are spheres) and is kept only so that the blow-down
    rules can refuse to touch anything else.
    """

    self_int: int
    genus: int = 0
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
        genus: int = 0,
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
            self_int=self_int, genus=genus, mult=mult, c1_coeff=c1_coeff, real=real,
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

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def arrow_count(self, v: int) -> int:
        return sum(1 for a in self.arrows if a == v)

    def vertex_ids(self) -> list[int]:
        return sorted(self.vertices)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in self.vertex_ids():
            for v in self._adj[u]:
                if u < v:
                    out.append((u, v))
        return out

    def copy(self) -> "DecoratedGraph":
        clone = DecoratedGraph()
        clone._next_id = self._next_id
        clone.arrows = list(self.arrows)
        for vid, data in self.vertices.items():
            clone.vertices[vid] = replace(data)
            clone._adj[vid] = set(self._adj[vid])
        return clone

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
        for a in self.arrows:
            if a not in self.vertices:
                raise InvalidDocument(f"arrow attached to unknown vertex {a}")
        edge_count = sum(len(s) for s in self._adj.values()) // 2
        if self.vertices and edge_count != len(self.vertices) - 1:
            raise InvalidDocument("graph is not a tree (wrong edge count)")
        if not self.is_connected():
            raise InvalidDocument("graph is not connected")
        for data in self.vertices.values():
            if data.genus != 0:
                raise InvalidDocument("all vertices must have genus 0")


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


def is_rupture(g: DecoratedGraph, v: int) -> bool:
    """A rupture vertex meets at least three other curves, arrows included."""
    return g.degree(v) + g.arrow_count(v) >= 3


def arms(g: DecoratedGraph, e: int) -> list[Arm]:
    """The arms of vertex e: one per neighbor, ordered by head id."""
    if e not in g.vertices:
        raise ValueError(f"vertex {e} not in graph")
    out = []
    for head in g.neighbors(e):
        dist = {head: 0}
        frontier = [head]
        while frontier:
            nxt = []
            for v in frontier:
                for u in g.neighbors(v):
                    if u != e and u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        ordered = tuple(sorted(dist, key=lambda v: (dist[v], v)))
        bamboo = not any(is_rupture(g, v) for v in ordered)
        out.append(Arm(head=head, vertices=ordered, is_bamboo=bamboo))
    return out


def _subtree_has_real(g: DecoratedGraph, start: int, banned: int) -> bool:
    stack = [start]
    seen = {banned, start}
    while stack:
        v = stack.pop()
        if g.vertices[v].real is True:
            return True
        for u in g.neighbors(v):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return False


def _branch_weight(g: DecoratedGraph, v: int, parent: int) -> Fraction:
    """Recursive arm weight: fold every sub-branch into a corrected
    self-intersection. Branches containing a vertex marked real are the
    business of the anchor vertex, not of this arm, and are skipped."""
    value = Fraction(g.vertices[v].self_int)
    for u in g.neighbors(v):
        if u == parent:
            continue
        if _subtree_has_real(g, u, v):
            continue
        w = _branch_weight(g, u, v)
        if w == 0:
            raise ZeroDenominator(f"arm weight through vertex {u} is zero")
        value -= Fraction(1, 1) / w
    return value


def arm_weight(g: DecoratedGraph, e: int, arm: Arm) -> Fraction:
    """The weight n^sigma of an arm of e.

    On a bamboo this is the negative continued fraction of the raw
    self-intersections, nearest vertex first. On a branched arm the side
    branches are folded in recursively through corrected self-intersections,
    which is order-free and agrees with the continued fraction along any
    path of the arm.
    """
    if arm.is_bamboo:
        return cf_eval([g.vertices[v].self_int for v in arm.vertices])
    return _branch_weight(g, arm.head, e)


def arm_is_imaginary(g: DecoratedGraph, arm: Arm) -> bool:
    """True when every vertex of the arm is marked imaginary."""
    return all(g.vertices[v].real is False for v in arm.vertices)


def n_prime(
    g: DecoratedGraph,
    e: int,
    arm_filter: Optional[Callable[[Arm], bool]] = None,
) -> Fraction:
    """The corrected self-intersection n'_e.

    n'_e = n_e - sum of 1/n^sigma over the arms sigma accepted by
    arm_filter. The default filter keeps exactly the fully imaginary arms,
    so on a graph with no imaginary vertices n'_e equals the raw
    self-intersection. Two conjugate imaginary arms contribute separately.
    """
    if arm_filter is None:
        arm_filter = lambda arm: arm_is_imaginary(g, arm)
    value = Fraction(g.vertices[e].self_int)
    for arm in arms(g, e):
        if not arm_filter(arm):
            continue
        weight = arm_weight(g, e, arm)
        if weight == 0:
            raise ZeroDenominator(f"arm at {arm.head} has weight zero")
        value -= Fraction(1, 1) / weight
    return value


def intersection_matrix(g: DecoratedGraph) -> tuple[list[int], list[list[int]]]:
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
    g: DecoratedGraph, rng=None
) -> tuple[DecoratedGraph, list[int]]:
    """Contract (-1)-spheres meeting at most two other exceptional curves.

    Degree 2: the two neighbors become adjacent and each gains +1 on its
    self-intersection. Degree 1: the neighbor gains +1. Degree 0 raises
    IsolatedMinusOne. Vertices carrying arrows are never contracted, and a
    (-1)-vertex of degree 3 or more is left alone rather than resolved by
    extra blow-ups. Repeats until no removable vertex remains.

    rng, when given, picks the contraction order at random; the result is
    the same decorated graph up to isomorphism regardless (tested
    separately). Returns the minimized graph and the removed vertex ids in
    contraction order.
    """
    out = g.copy()
    removed: list[int] = []
    while True:
        eligible = [
            v
            for v in out.vertex_ids()
            if out.vertices[v].self_int == -1
            and out.vertices[v].genus == 0
            and out.arrow_count(v) == 0
            and out.degree(v) <= 2
        ]
        if not eligible:
            return out, removed
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


_CANON_FIELDS = ("self_int", "genus", "mult", "c1_coeff", "real", "arm_label")


def _tree_centers(g: DecoratedGraph) -> list[int]:
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


def canonical_form(g: DecoratedGraph, fields: Iterable[str] = _CANON_FIELDS):
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

    def encode(v: int, parent: Optional[int]):
        subs = sorted(encode(u, v) for u in g.neighbors(v) if u != parent)
        return (deco(v), tuple(subs))

    ids = g.vertex_ids()
    if not ids:
        return ()
    return min(encode(c, None) for c in _tree_centers(g))


def solve_intersection_system(
    g: DecoratedGraph, rhs: dict[int, Fraction]
) -> dict[int, Fraction]:
    """Solve Q x = rhs exactly, where Q is the intersection form of g.

    Uses O(V) elimination along the tree; falls back to dense Gaussian
    elimination in the (never observed) case of a vanishing tree pivot.
    Raises SingularMatrix when the form is singular.
    """
    ids = g.vertex_ids()
    if not ids:
        return {}
    root = ids[0]
    parent: dict[int, Optional[int]] = {root: None}
    order = [root]
    for v in order:
        for u in g.neighbors(v):
            if u not in parent:
                parent[u] = v
                order.append(u)
    if len(order) != len(ids):
        raise SingularMatrix("graph is not connected")

    alpha: dict[int, Fraction] = {}
    beta: dict[int, Fraction] = {}
    fallback = False
    for v in reversed(order):
        pivot = Fraction(g.vertices[v].self_int)
        residual = Fraction(rhs.get(v, 0))
        for u in g.neighbors(v):
            if u == parent[v]:
                continue
            pivot += beta[u]
            residual -= alpha[u]
        if pivot == 0:
            fallback = True
            break
        if parent[v] is None:
            alpha[v] = residual / pivot
            beta[v] = Fraction(0)
        else:
            alpha[v] = residual / pivot
            beta[v] = Fraction(-1, 1) / pivot

    if fallback:
        matrix_ids, q = intersection_matrix(g)
        dense = solve_rational(q, [rhs.get(v, 0) for v in matrix_ids])
        return dict(zip(matrix_ids, dense))

    x: dict[int, Fraction] = {root: alpha[root]}
    for v in order[1:]:
        x[v] = alpha[v] + beta[v] * x[parent[v]]
    for v in ids:
        total = Fraction(g.vertices[v].self_int) * x[v]
        total += sum(x[u] for u in g.neighbors(v))
        if total != Fraction(rhs.get(v, 0)):
            raise InternalInvariantError(
                f"tree solver self-check failed at vertex {v}"
            )
    return x


def _tree_det(g: DecoratedGraph) -> int:
    """det Q of a forest in O(V) integer steps, leaves to root.

    Each subtree T_v carries (D_v, E_v) = (det Q(T_v), det Q(T_v - v)), as
    in Eisenbud-Neumann. A vertex starts from (A, B) = (n_v, 1) and folds
    in each child c as A <- A*D_c - B*E_c, B <- B*D_c; no division occurs.
    """
    det = 1
    parent: dict[int, int] = {}
    for root in g.vertex_ids():
        if root in parent:
            continue
        parent[root] = root
        order = [root]
        for v in order:
            for u in g._adj[v]:
                if u not in parent:
                    parent[u] = v
                    order.append(u)
        pair = {v: (g.vertices[v].self_int, 1) for v in order}
        for c in reversed(order[1:]):
            d_c, e_c = pair[c]
            a, b = pair[parent[c]]
            pair[parent[c]] = (a * d_c - b * e_c, b * d_c)
        det *= pair[root][0]
    return det
