"""Oracles that only the tests call: exact dense checks and a canonical
form for isomorphism tests, kept out of the package, which never reads
them.

canonical_form encodes a decorated tree up to relabelling its ids;
is_negative_definite and det_exact are dense exact routines on an integer
matrix such as intersection_matrix returns; restrict_to_real gives W_R on a
marked graph; stepwise_gamma_f runs the blow-up cascade of Gamma_f one
curve at a time; meets_its_conjugate looks for an edge between a curve
and its conjugate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from typing import Iterable, Sequence

from tbcalc.charclass import CharacteristicData
from tbcalc.errors import InconsistentAnnotation
from tbcalc.graph import FrozenGraph


_CANON_FIELDS = ("self_int", "mult", "c1_coeff", "real", "arm_label")


def _tree_centers(g: FrozenGraph) -> list[int]:
    """The ids of the one or two middle vertices of a longest path in the
    tree of the smallest id. Such a path runs between the last vertices of
    two walks: one from any vertex, one from where that walk ends."""
    walk = g.freeze(root=g.ids[0])
    size = next((i for i, p in enumerate(walk.order) if i and walk.parent[p] < 0), len(g.ids))
    back = g.freeze(root=g.ids[walk.order[size - 1]])
    path = [back.order[size - 1]]
    while back.parent[path[-1]] >= 0:
        path.append(back.parent[path[-1]])
    return sorted(g.ids[p] for p in path[(len(path) - 1) // 2:len(path) // 2 + 1])


def canonical_form(g: FrozenGraph, fields: Iterable[str] = _CANON_FIELDS):
    """A hashable canonical encoding of the decorated tree.

    Two graphs get equal encodings exactly when some id relabeling matches
    all requested decorations, the arrow counts, and the tree structure.
    """
    columns = [getattr(g, name) for name in fields]
    arrows = list(map(g.arrows.count, g.ids))

    def deco(p: int):
        parts = [("-",) if column[p] is None else ("+", column[p]) for column in columns]
        return (*parts, ("arrows", arrows[p]))

    # Equal subtrees are built once and shared, so comparing siblings stops
    # at identical objects instead of descending through them.
    shared: dict = {}

    def encode(center: int):
        walk = g.freeze(root=center)
        done: dict[int, tuple] = {}
        for p in reversed(walk.order):
            subs = tuple(sorted(done.pop(c) for c in walk._children(p)))
            key = (deco(p), tuple(map(id, subs)))
            done[p] = shared.setdefault(key, (key[0], subs))
        return done[walk.order[0]]

    if not g.ids:
        return ()
    return min(encode(c) for c in _tree_centers(g))


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


def det_exact(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("det_exact needs a square matrix")
    if size == 0:
        return 1
    a = [[int(x) for x in row] for row in matrix]
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            pivot_row = next((r for r in range(k + 1, size) if a[r][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[size - 1][size - 1]


def restrict_to_real(cd: CharacteristicData, cg) -> frozenset[int]:
    """W_R: the members of W fixed by the real structure."""
    g = cg if isinstance(cg, FrozenGraph) else cg.graph
    if None in g.real:
        raise InconsistentAnnotation(
            f"vertex {g.ids[g.real.index(None)]} has no real/imaginary mark; "
            "mark the real structure first"
        )
    return cd.w & frozenset(compress(g.ids, g.real))


def meets_its_conjugate(cg) -> bool:
    """Whether some edge of cg.graph joins a curve to its image under conj,
    or under deck while cg is unmarked, read edge by edge from dicts."""
    conj = dict((cg.conj or cg.deck).items())
    return any(conj.get(u) == v or conj.get(v) == u for u, v in cg.graph.edges())


def stepwise_gamma_f(m: int, n: int):
    """The blow-up cascade of x^m + y^n one blow-up at a time, for
    comparison with the run-by-run build: the columns self_int, mult and
    c1 and the sorted edges, curve i at position i.

    The new curve gets self-intersection -1, multiplicity min(a, b) and c1
    coefficient -1, each plus the entries of the curves through its
    center; each of those loses 1 on its self-intersection, and the new
    curve meets them instead of their meeting each other.
    """
    self_int: list[int] = []
    mult: list[int] = []
    c1: list[int] = []
    edges: set[tuple[int, int]] = set()
    a, b = m, n
    x_curve = y_curve = None
    while True:
        through = [v for v in (x_curve, y_curve) if v is not None]
        e = len(self_int)
        self_int.append(-1)
        mult.append(min(a, b) + sum(mult[p] for p in through))
        c1.append(-1 + sum(c1[p] for p in through))
        for p in through:
            edges.add((p, e))
            self_int[p] -= 1
        if len(through) == 2:
            edges.remove((min(through), max(through)))
        if (a, b) == (1, 1):
            return self_int, mult, c1, sorted(edges)
        if a > b:
            a -= b
            x_curve = e
        else:
            b -= a
            y_curve = e
