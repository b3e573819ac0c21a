"""Decorated resolution graphs.

A graph is a tree of rational curves: vertices carry the decorations used
at the various pipeline stages (self-intersection, multiplicity, first
Chern coefficient, real/imaginary flag, arm label) and arrows model
transverse branches of the associated curve. Arrows are vertex
attachments, not vertices.

Every reader takes a FrozenGraph: the immutable value every pipeline
stage, blow-down included, emits. from_columns builds one from flat
columns and an edge list; Gamma_f and the lift, which keep their
neighbour lists sorted as they build, hand them to _from_adjacency. A
FrozenGraph keeps no per-vertex objects, only flat tuples: the sorted
ids, one column per decoration, a breadth-first order with the parent of
each position, and sorted neighbour lists. It is a NamedTuple: writing to it raises
AttributeError, _replace gives a changed copy, and freeze(root) walks the
same graph from another root. A DecoratedGraph only builds: a caller adds
vertices and edges to it, or edits the one FrozenGraph.copy() returns, and
hands its freeze() to the readers. These go by position (the columns, adj,
adj_start, arrows); ids become positions only at pos, ids and _column, and
the vertices view and VertexMap serve the same values by id to a caller.

This module also provides the arm machinery (arms, weights, corrected
self-intersections), blow-down minimization, and O(V) exact routines on
frozen trees: a solver for intersection systems and the determinant of
the intersection form. All of these run one integer recurrence on subtree
determinants over the stored order and build a Fraction only for a final
value that is not an integer; an arm weighs D/E of its head, and
_imaginary_arms holds the one n' rule that n_prime and tb share. The
readers of a tree form (the solver, n_prime, arm_weight) have one
precondition, checked on that recurrence by _require_definite_tree: g is
a tree and its form is negative definite, as on every resolution graph
(Mumford, Publ. IHES 9, 1961); anything else raises SingularMatrix, so
no weight they fold has a zero denominator. _form_times gives Q x for the
certificates that re-multiply. Every arm reader takes the
arms of a vertex from _arm_positions, so each is one O(V) pass: on a tree
stored walked from that vertex, as the lift and Gamma(m,n) are from e^0,
it reads the stored walk; on any other graph it walks breadth-first from
each head. Blow-down pays
per curve it removes: a contraction touches only the one or two
neighbours of the removed curve, and the result is built once, each
column compressed through one mask of the kept positions.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import ItemsView, Mapping, Sequence
from fractions import Fraction
from itertools import accumulate, chain, compress, islice
from operator import add, attrgetter, mul, sub
from typing import Iterable, NamedTuple, Optional, Union

from .errors import (
    InconsistentAnnotation,
    InternalInvariantError,
    InvalidDocument,
    IsolatedMinusOne,
    SingularMatrix,
)


class VertexData:
    """Decorations of one exceptional curve of a DecoratedGraph, which a
    caller edits in place.

    self_int is always present; the rest are filled in as the pipeline
    learns them. Every curve is a rational (genus 0) curve.
    """

    __slots__ = ("self_int", "mult", "c1_coeff", "real", "arm_label")

    def __init__(self, self_int: int, mult: Optional[int] = None,
                 c1_coeff: Optional[int] = None, real: Optional[bool] = None,
                 arm_label: Optional[str] = None) -> None:
        self.self_int, self.mult, self.c1_coeff = self_int, mult, c1_coeff
        self.real, self.arm_label = real, arm_label

    def __eq__(self, other) -> bool:
        return type(other) is VertexData and _row(self) == _row(other)

    def __repr__(self) -> str:
        return f"VertexData{_row(self)!r}"


_row = attrgetter(*VertexData.__slots__)


class DecoratedGraph:
    """A builder for a tree with decorated vertices, at most one edge per
    pair, and arrows; freeze() gives the FrozenGraph every reader takes.

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

    def copy(self) -> "DecoratedGraph":
        """A new builder with the same vertices, edges and arrows."""
        return self.freeze().copy()

    def freeze(self) -> "FrozenGraph":
        """The graph as a FrozenGraph, walked breadth-first from the
        smallest id. The builder stays as it is."""
        rows = dict(zip(self.vertices, map(attrgetter(*_COLUMNS), self.vertices.values())))
        edges = [(u, v) for u, near in self._adj.items() for v in near if u < v]
        return _from_rows(rows, edges, self.arrows, self._next_id)


_COLUMNS = ("self_int", "mult", "c1_coeff", "arm_label", "real")


def _from_rows(
    rows: Mapping[int, Sequence], edges: Iterable[tuple[int, int]],
    arrows: Iterable[int], next_id: int,
) -> "FrozenGraph":
    """The FrozenGraph with one row of _COLUMNS per vertex id and edges
    given as id pairs: positions sorted by id, walked from the smallest."""
    ids = tuple(sorted(rows))
    index = {v: p for p, v in enumerate(ids)}
    self_int, *columns = list(zip(*map(rows.__getitem__, ids))) or [()] * len(_COLUMNS)
    return FrozenGraph.from_columns(
        self_int, [(index[u], index[v]) for u, v in edges], ids=ids,
        **dict(zip(_COLUMNS[1:], columns)), arrows=arrows, next_id=next_id)


class FrozenVertex(NamedTuple):
    """The decorations of one vertex of a FrozenGraph, read from its
    columns on access. Assigning to a field raises AttributeError."""

    self_int: int
    mult: Optional[int]
    c1_coeff: Optional[int]
    real: Optional[bool]
    arm_label: Optional[str]


class FrozenGraph(NamedTuple):
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

    @classmethod
    def from_columns(
        cls, self_int: Sequence[int], edges: Iterable[tuple[int, int]], *,
        ids: Optional[tuple[int, ...]] = None, mult: Optional[Sequence] = None,
        c1_coeff: Optional[Sequence] = None, arm_label: Optional[Sequence] = None,
        real: Optional[Sequence] = None, arrows: Iterable[int] = (),
        next_id: Optional[int] = None, root: int = 0,
    ) -> "FrozenGraph":
        """The graph over positions 0..V-1 (V = len(self_int)) with these
        columns, edges given as position pairs and ids naming the positions
        (by default themselves); next_id defaults to V. The columns left out
        or holding only None share one (None,) * V tuple. The neighbour
        lists come from a counting sort of the edges in lexicographic order,
        which fills each list sorted; order and parent walk breadth-first
        from the position root."""
        size = len(self_int)
        pairs = sorted([(p, q) if p < q else (q, p) for p, q in edges])
        degree = [0] * size
        for p, q in pairs:
            degree[p] += 1
            degree[q] += 1
        adj_start = list(accumulate(degree, initial=0))
        fill, slots = adj_start[:-1], [0] * adj_start[-1]
        for p, q in pairs:
            slots[fill[p]] = q
            fill[p] += 1
            slots[fill[q]] = p
            fill[q] += 1
        return cls._from_adjacency(
            self_int, adj_start, slots, ids=ids, mult=mult, c1_coeff=c1_coeff,
            arm_label=arm_label, real=real, arrows=arrows, next_id=next_id, root=root)

    @classmethod
    def _from_adjacency(
        cls, self_int: Sequence[int], adj_start: Sequence[int], adj: Sequence[int], *,
        ids: Optional[tuple[int, ...]] = None, mult: Optional[Sequence] = None,
        c1_coeff: Optional[Sequence] = None, arm_label: Optional[Sequence] = None,
        real: Optional[Sequence] = None, arrows: Iterable[int] = (),
        next_id: Optional[int] = None, root: int = 0,
    ) -> "FrozenGraph":
        """from_columns for a caller that already has the neighbour lists:
        those of position p are adj[adj_start[p]:adj_start[p + 1]], each
        sorted and holding every edge from both ends."""
        size = len(self_int)
        none = (None,) * size
        columns = [none if col is None or col.count(None) == size else tuple(col)
                   for col in (mult, c1_coeff, arm_label, real)]
        adj_start, adj = tuple(adj_start), tuple(adj)
        return cls(tuple(range(size)) if ids is None else ids, tuple(self_int), *columns,
                   *_breadth_first(adj, adj_start, root), adj_start=adj_start, adj=adj,
                   arrows=tuple(arrows), next_id=size if next_id is None else next_id)

    def pos(self, v: int) -> int:
        """The position of vertex id v; KeyError when v is no vertex, a key
        that does not compare with ints included."""
        try:
            i = bisect_left(self.ids, v)
        except TypeError:
            raise KeyError(v) from None
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

    def vertex_ids(self) -> list[int]:
        return list(self.ids)

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once as (u, v) with u < v, sorted."""
        ids = self.ids
        return [(ids[p], ids[q]) for p, q in self._position_edges()]

    def _position_edges(self) -> list[tuple[int, int]]:
        """Each edge once as a pair of positions (p, q) with p < q, sorted."""
        adj, start = self.adj, self.adj_start
        return [(p, q) for p in range(len(self.ids))
                for q in adj[start[p]:start[p + 1]] if p < q]

    def freeze(self, root: int) -> "FrozenGraph":
        """The same graph walked breadth-first from vertex root; self when
        its walk starts there."""
        if self.ids and self.ids[self.order[0]] == root:
            return self
        return self._walked_from(self.pos(root))

    def _walked_from(self, first: int) -> "FrozenGraph":
        """The same graph walked breadth-first from position first."""
        return FrozenGraph(self.ids, self.self_int, self.mult, self.c1_coeff, self.arm_label,
                           self.real, *_breadth_first(self.adj, self.adj_start, first),
                           self.adj_start, self.adj, self.arrows, self.next_id)

    def copy(self) -> DecoratedGraph:
        """A new mutable builder with the same vertices, edges and arrows."""
        ids, start = self.ids, self.adj_start
        near = tuple(map(ids.__getitem__, self.adj))
        out = DecoratedGraph()
        out.vertices = dict(zip(ids, map(VertexData, self.self_int, self.mult,
                                         self.c1_coeff, self.real, self.arm_label)))
        out._adj = {v: set(near[start[p]:start[p + 1]]) for p, v in enumerate(ids)}
        out.arrows = list(self.arrows)
        out._next_id = self.next_id
        return out

    def validate(self) -> None:
        """Check the very-good-tree invariants, raising InvalidDocument."""
        for a in self.arrows:
            try:
                self.pos(a)
            except KeyError:
                raise InvalidDocument(f"arrow attached to unknown vertex {a}") from None
        if self.ids and len(self.adj) != 2 * (len(self.ids) - 1):
            raise InvalidDocument("graph is not a tree (wrong edge count)")
        if self.parent.count(-1) > 1:
            raise InvalidDocument("graph is not connected")


class _ByPosition(Mapping):
    """A read-only map from the vertex ids of a FrozenGraph to the value
    at(p) of each position p, computed on access."""

    __slots__ = ("_graph", "_at")

    def __init__(self, graph: FrozenGraph, at) -> None:
        self._graph = graph
        self._at = at

    def __getitem__(self, v: int):
        return self._at(self._graph.pos(v))

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

    __slots__ = ("_values",)

    def __init__(self, graph: FrozenGraph, values: Iterable) -> None:
        values = tuple(values)
        if len(values) != len(graph.ids):
            raise ValueError("a VertexMap needs one value per vertex")
        super().__init__(graph, values.__getitem__)
        self._values = values


def _column(g: FrozenGraph, values: Mapping) -> Sequence:
    """values[v] for each vertex id v of g in position order, None where
    values has no entry: the stored tuple of a VertexMap over the same ids
    (the stages' maps), else one lookup per id (a caller's dict)."""
    if isinstance(values, VertexMap) and values._graph.ids == g.ids:
        return values._values
    return tuple(map(values.get, g.ids))


def _numbered_by_position(g: FrozenGraph) -> bool:
    """Whether the ids of g are 0 .. V-1, so that each id is its position."""
    return g.ids[:1] == (0,) and g.ids[-1] == len(g.ids) - 1


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


class Arm(NamedTuple):
    """One connected component of the graph minus a vertex.

    head is the unique vertex of the arm adjacent to the removed vertex.
    vertices are ordered by distance from the removed vertex; for a bamboo
    this is the path order starting at head. is_bamboo means no vertex of
    the arm is a rupture vertex of the ambient graph.
    """

    head: int
    vertices: tuple[int, ...]
    is_bamboo: bool


def _arm_positions(g: FrozenGraph, p: int) -> list[list[int]]:
    """For each neighbour h of position p, in position order, the positions
    of the component of g - p holding h, read breadth-first from h along
    the neighbour lists. Each position is taken once, so a cyclic graph
    cannot make it loop; on a bamboo the read is the path from h.

    When g is a tree stored walked from p (one root, 2(V - 1) neighbour
    slots), the read is one pass over the stored order: each position joins
    the arm of its parent, and the heads come first, in position order.
    The breadth-first walk from p restricted to one component is the walk
    from its head, so the result is the same. Any other graph (a forest, a
    cyclic caller graph, a tree walked from elsewhere) is walked from each
    head."""
    adj, start = g.adj, g.adj_start
    heads = adj[start[p]:start[p + 1]]
    order, parent = g.order, g.parent
    if order[0] == p and len(adj) == 2 * (len(order) - 1) and parent.count(-1) == 1:
        arm = [0] * len(order)
        out = []
        for i, h in enumerate(heads):
            arm[h] = i
            out.append([h])
        for q in islice(order, len(heads) + 1, None):
            i = arm[q] = arm[parent[q]]
            out[i].append(q)
        return out
    seen = [False] * len(g.ids)
    for q in (p, *heads):
        seen[q] = True
    out = []
    for h in heads:
        where = [h]
        for q in where:
            for r in adj[start[q]:start[q + 1]]:
                if not seen[r]:
                    seen[r] = True
                    where.append(r)
        out.append(where)
    return out


def arms(g: FrozenGraph, e: int) -> list[Arm]:
    """The arms of vertex e: one per neighbor, ordered by head id, each
    read by _arm_positions. A bamboo comes in path order; a branched arm is
    sorted by depth below its head, then by id, its depths taken by a
    second pass over the read in its breadth-first order."""
    try:
        root = g.pos(e)
    except KeyError:
        raise ValueError(f"vertex {e} not in graph") from None
    ids, meets = g.ids, _degrees(g)
    adj, start = g.adj, g.adj_start
    for p in map(g.pos, g.arrows):
        meets[p] += 1
    out = []
    for where in _arm_positions(g, root):
        bamboo = max(map(meets.__getitem__, where)) < 3
        if not bamboo:
            depth = {root: -1, where[0]: 0}
            for q in where:
                for r in adj[start[q]:start[q + 1]]:
                    depth.setdefault(r, depth[q] + 1)
            where.sort()
            where.sort(key=depth.__getitem__)
        out.append(Arm(head=ids[where[0]], vertices=tuple(map(ids.__getitem__, where)),
                       is_bamboo=bamboo))
    return out


def _degrees(g: FrozenGraph) -> list[int]:
    """The degree of each position."""
    start = g.adj_start
    return list(map(sub, islice(start, 1, None), start))


def _neighbour_sums(g: FrozenGraph, values: Sequence) -> list:
    """For each position p, the sum of values over the neighbours of p."""
    through = list(accumulate(map(values.__getitem__, g.adj), initial=0))
    ends = list(map(through.__getitem__, g.adj_start))
    return list(map(sub, islice(ends, 1, None), ends))


def _form_times(g: FrozenGraph, x: Sequence) -> list:
    """Q x by position: n_p x_p plus the sum of x over the neighbours of p,
    read from the neighbour lists, so that every edge of g counts."""
    return list(map(add, map(mul, g.self_int, x), _neighbour_sums(g, x)))


def _branches(g: FrozenGraph, marked: list[bool]) -> tuple[list[int], list[int], list[bool]]:
    """Per position p of g as rooted: D_p and E_p (_subtree_dets), and
    whether the subtree of p holds a marked position."""
    det, rest = _subtree_dets(g)
    holds = list(marked)
    parent = g.parent
    for c in reversed(g.order):
        p = parent[c]
        if p >= 0:
            holds[p] = holds[p] or holds[c]
    return det, rest, holds


def _branch_weight(
    g: FrozenGraph, head: int, det: list[int], rest: list[int], children: Iterable[int],
) -> Fraction:
    """The weight of the branch at position head made of head and the
    subtrees of the given children: n_head folded with each child's D/E as
    in _subtree_dets, on a bamboo the negative continued fraction from the
    head. Every D is nonzero on a negative definite tree."""
    d, e = g.self_int[head], 1
    for c in children:
        d, e = d * det[c] - e * rest[c], e * det[c]
    return Fraction(d, e)


def _imaginary_arms(
    g: FrozenGraph, p: int, det: list[int], rest: list[int], holds: list[bool],
) -> tuple[tuple[Fraction, ...], Fraction]:
    """The weights D_h/E_h of the children h of p whose subtrees hold no
    marked position, and n'_p = n_p - sum of E_h/D_h. With g rooted at p
    or at a marked vertex, these h head the arms of p that hold no marked
    vertex."""
    heads = [h for h in g._children(p) if not holds[h]]
    weights = tuple(Fraction(det[h], rest[h]) for h in heads)
    return weights, _branch_weight(g, p, det, rest, heads)


def arm_weight(g: FrozenGraph, e: int, arm: Arm) -> Fraction:
    """The weight n^sigma of an arm of e, read off _branches rooted at e.

    On a bamboo this is the negative continued fraction of the raw
    self-intersections, nearest vertex first. On a branched arm the side
    branches are folded in through corrected self-intersections, which is
    order-free and agrees with the continued fraction along any path of
    the arm. Side branches containing a vertex marked real are the
    business of the anchor vertex, not of this arm, and are skipped.
    Raises SingularMatrix unless g is a negative definite tree.
    """
    g = g.freeze(root=e)
    det, rest, holds = _branches(g, [r is True for r in g.real])
    _require_definite_tree(g, det, rest)
    head = g.pos(arm.head)
    children = g._children(head)
    if not arm.is_bamboo:
        children = [c for c in children if not holds[c]]
    return _branch_weight(g, head, det, rest, children)


def n_prime(g: FrozenGraph, e: int) -> Fraction:
    """The corrected self-intersection n'_e.

    n'_e = n_e - sum of 1/n^sigma over the fully imaginary arms sigma (all
    real=False), so with no imaginary vertex n'_e is the raw
    self-intersection. Two conjugate imaginary arms contribute separately.
    Raises SingularMatrix unless g is a negative definite tree.
    """
    g = g.freeze(root=e)
    folds = _branches(g, [r is not False for r in g.real])
    _require_definite_tree(g, *folds[:2])
    return _imaginary_arms(g, g.order[0], *folds)[1]


def intersection_matrix(g: FrozenGraph) -> tuple[list[int], list[list[int]]]:
    """The symmetric intersection form over vertices sorted by id, read
    from the columns by position."""
    # No package code calls this: bench/tracer.py wraps it, tests read the dense form.
    q = [[0] * len(g.ids) for _ in g.ids]
    for p, self_int in enumerate(g.self_int):
        q[p][p] = self_int
    for p, r in g._position_edges():
        q[p][r] = q[r][p] = 1
    return list(g.ids), q


def blow_down_minimize(
    g: FrozenGraph, rng=None
) -> tuple[FrozenGraph, list[int]]:
    """Contract (-1)-spheres meeting at most two other exceptional curves.

    Degree 2: the two neighbors become adjacent and each gains +1 on its
    self-intersection. Degree 1: the neighbor gains +1. Degree 0 raises
    IsolatedMinusOne. Vertices carrying arrows are never contracted, and a
    (-1)-vertex of degree 3 or more is left alone rather than resolved by
    extra blow-ups. Repeats until no removable vertex remains.

    rng, when given, picks the contraction order at random; the result is
    the same decorated graph up to isomorphism regardless (tested
    separately). Returns the minimized graph, frozen and walked from the
    input's root when it survives (else from the smallest survivor), and
    the removed ids in contraction order; g is left alone, and returned
    itself when nothing is removable. The contraction runs on positions:
    the removable ones are kept sorted, largest first so that the next one
    pops off the end. A contraction reads the one or two neighbours of the
    removed position, makes a neighbour list only for a position it touches,
    and re-tests only those: one whose self-intersection rises to 0 leaves
    the removable list, one that rises to -1 may join it. The rebuild
    compresses each column through one mask of the kept positions and hands
    them to FrozenGraph._from_adjacency, which walks them afresh from the root.
    """
    ids, adj, start, real = g.ids, g.adj, g.adj_start, g.real
    arrowed = set(g.arrows)
    self_int = list(g.self_int)
    size = len(ids)
    eligible = [-p for p in range(size) if self_int[p] == -1
                and start[p + 1] - start[p] <= 2 and ids[p] not in arrowed]
    if not eligible:
        return g, []
    eligible.reverse()  # negated positions, ascending: the smallest position is last
    near: dict[int, list[int]] = {}
    removed: list[int] = []
    while eligible:
        v = -eligible.pop(-1 - rng.randrange(len(eligible)) if rng is not None else -1)
        nbrs = near.pop(v) if v in near else adj[start[v]:start[v + 1]]
        if not nbrs:
            raise IsolatedMinusOne(
                f"vertex {ids[v]} is an isolated (-1)-sphere; the configuration "
                "contracts to a smooth point"
            )
        if real[v] is False and (real[nbrs[0]] is True or real[nbrs[-1]] is True):
            raise InconsistentAnnotation(
                f"cannot contract imaginary vertex {ids[v]} next to a real vertex"
            )
        u = nbrs[0]
        at_u = near[u] if u in near else list(adj[start[u]:start[u + 1]])
        if len(nbrs) == 2:
            w = nbrs[1]
            if w in at_u:
                raise InternalInvariantError("contraction would create a double edge in a tree")
            at_w = near[w] if w in near else list(adj[start[w]:start[w + 1]])
            at_u[at_u.index(v)] = w
            at_w[at_w.index(v)] = u
            near[w] = at_w
        else:
            at_u.remove(v)
        near[u] = at_u
        removed.append(v)
        for u in nbrs:
            value = self_int[u] = self_int[u] + 1
            if value == 0:
                i = bisect_left(eligible, -u)
                if i < len(eligible) and eligible[i] == -u:
                    del eligible[i]
            elif value == -1 and len(near[u]) <= 2 and ids[u] not in arrowed:
                eligible.insert(bisect_left(eligible, -u), -u)
    # The kept columns and the neighbour lists of untouched positions pass
    # through one mask and are renumbered: a kept position moves down by
    # the removed ones before it.
    keep = [True] * size
    for p in removed:
        keep[p] = False
    index = list(accumulate(keep, initial=0))
    degree = _degrees(g)
    runs, done = [], 0
    for p in sorted(chain(near, removed)):
        runs.append(adj[start[done]:start[p]])
        if keep[p]:
            degree[p] = len(near[p])
            runs.append(sorted(near[p]))
        done = p + 1
    runs.append(adj[start[done]:])
    root = g.order[0]
    return FrozenGraph._from_adjacency(
        tuple(compress(self_int, keep)), tuple(accumulate(compress(degree, keep), initial=0)),
        tuple(map(index.__getitem__, chain.from_iterable(runs))), ids=tuple(compress(ids, keep)),
        **{name: tuple(compress(getattr(g, name), keep)) for name in _COLUMNS[1:]},
        arrows=g.arrows, next_id=g.next_id, root=index[root] if keep[root] else 0,
    ), list(map(ids.__getitem__, removed))


def _quotient(num, den: int):
    """num / den as an int when it is one, else as a Fraction; num is an
    int or a Fraction."""
    return num // den if num % den == 0 else Fraction(num, den)


def solve_intersection_system(
    g: FrozenGraph, rhs: Mapping[int, Union[int, Fraction]]
) -> tuple["VertexMap", int]:
    """Solve Q x = rhs exactly, where Q is the intersection form of g, and
    return x by vertex id (an int wherever it is integral) with det Q.

    Fraction-free O(V) elimination along the stored tree order, on rhs
    (ints or Fractions; a VertexMap over g is read as its column) scaled by
    the lcm L of its denominators. With D_v, E_v of _subtree_dets, x_v =
    (N_v - E_v*x_parent) / D_v where N_v = E_v*L*rhs_v - sum over children
    c of N_c*(E_v/D_c), all integers: one pass leaves to root folds each
    child c into its parent p as D_p, E_p and N_p <- N_p*D_c - E_p*N_c.
    Root to leaves the divisions stay in ints while they are exact, and
    Q x = L*rhs is re-multiplied (_form_times) as a self-check. det Q is D
    at the root. g must be a negative definite tree, as every resolution
    graph is (_require_definite_tree, which raises SingularMatrix); the
    empty graph solves to ({}, 1).
    """
    ids, order, parent = g.ids, g.order, g.parent
    if not ids:
        return VertexMap(g, ()), 1
    values = _column(g, rhs)
    if None in values:
        values = [0 if r is None else r for r in values]
    if {int}.issuperset(map(type, values)):
        scale, target = 1, list(values)
    else:
        scale = math.lcm(*(r.denominator for r in values))
        target = [r.numerator * (scale // r.denominator) for r in values]
    det, rest, num = list(g.self_int), [1] * len(ids), list(target)
    for c in reversed(order[1:]):
        p = parent[c]
        d, e = det[c], rest[p]
        det[p] = det[p] * d - e * rest[c]
        rest[p] = e * d
        num[p] = num[p] * d - e * num[c]
    _require_definite_tree(g, det, rest)
    x: list = [0] * len(ids)
    for v in order:
        p = parent[v]
        value, d = num[v] if p < 0 else num[v] - rest[v] * x[p], det[v]
        x[v] = value // d if value % d == 0 else Fraction(value, d)
    check = _form_times(g, x)
    if check != target:
        bad = next(v for v, total in enumerate(check) if total != target[v])
        raise InternalInvariantError(f"tree solver self-check failed at vertex {ids[bad]}")
    if scale != 1:
        x = [_quotient(value, scale) for value in x]
    return VertexMap(g, x), det[order[0]]


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


def _indefinite_at(g: FrozenGraph, det: Sequence[int], rest: Sequence[int]) -> Optional[int]:
    """The first position in g's order whose pivot D_p/E_p (_subtree_dets) is
    not negative, or None: a tree's form is negative definite exactly when none is."""
    if max(map(mul, det, rest), default=-1) >= 0:
        return next(p for p in g.order if det[p] * rest[p] >= 0)


def _require_definite_tree(g: FrozenGraph, det: Sequence[int], rest: Sequence[int]) -> None:
    """Raise SingularMatrix unless g is a tree whose form is negative
    definite, det and rest being _subtree_dets over g's order. A graph with
    one root and 2(V - 1) neighbour slots has no cycle, loop or doubled
    edge; the empty graph passes."""
    if g.ids and (g.parent.count(-1) > 1 or len(g.adj) != 2 * (len(g.ids) - 1)):
        raise SingularMatrix("graph is not a tree")
    if (bad := _indefinite_at(g, det, rest)) is not None:
        raise SingularMatrix(f"intersection form is not negative definite at vertex {g.ids[bad]}")


def _tree_det(g: FrozenGraph) -> int:
    """det Q of a forest in O(V) integer steps: the product of D at the
    root of each tree (_subtree_dets)."""
    det, _rest = _subtree_dets(g)
    parent = g.parent
    return math.prod(det[p] for p in g.order if parent[p] < 0)
