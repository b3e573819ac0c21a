"""Oracles that only the tests call: exact dense checks and a canonical
form for isomorphism tests, kept out of the package, which never reads
them.

canonical_form encodes a decorated tree up to relabelling its ids;
is_negative_definite, det_exact and solve_rational are dense exact
routines on an integer matrix such as intersection_matrix returns, and
solve_rational is the oracle for the package's tree solver on the forms
that solver accepts, the negative definite ones; restrict_to_real gives
W_R on a marked graph; stepwise_gamma_f runs the blow-up cascade of
Gamma_f one curve at a time; meets_its_conjugate looks for an edge
between a curve and its conjugate; blow_up makes one equivariant blow-up
of a marked graph, at a site blow_up_sites lists.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from typing import Iterable, Sequence

from tbcalc.charclass import CharacteristicData
from tbcalc.cover import CoverGraph
from tbcalc.errors import InconsistentAnnotation, InternalInvariantError, SingularMatrix
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


def solve_rational(matrix: Sequence[Sequence[int]], rhs: Sequence) -> list[Fraction]:
    """Solve the square system matrix * x = rhs exactly over the rationals.

    Raises SingularMatrix when no unique solution exists. The result is
    re-multiplied against the input as a self-check.
    """
    size = len(matrix)
    if len(rhs) != size or any(len(row) != size for row in matrix):
        raise ValueError("solve_rational needs a square system")
    a = [[Fraction(x) for x in row] for row in matrix]
    b = [Fraction(x) for x in rhs]
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if a[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrix("matrix is singular over the rationals")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        b[col], b[pivot_row] = b[pivot_row], b[col]
        pivot = a[col][col]
        for r in range(size):
            if r == col or a[r][col] == 0:
                continue
            factor = a[r][col] / pivot
            for c in range(col, size):
                a[r][c] -= factor * a[col][c]
            b[r] -= factor * b[col]
    solution = [b[r] / a[r][r] for r in range(size)]
    for r in range(size):
        total = sum(Fraction(matrix[r][c]) * solution[c] for c in range(size))
        if total != Fraction(rhs[r]):
            raise InternalInvariantError(f"solver self-check failed in row {r}")
    return solution


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


# The equivariant blow-ups of a marked graph, each at a point or a
# conjugate pair of points that conj keeps as a whole: where is a curve for
# the three point kinds and an edge (u, v) of curves for the two edge kinds.
#   real_point:           a real point on the real curve v;
#   real_edge:            the point u meet v, where u and v are both real or
#                         swapped by conj;
#   real_curve_pair:      a conjugate pair of points on the real curve v;
#   imaginary_curve_pair: a point on the imaginary curve v and its conjugate
#                         on conj v;
#   edge_pair:            u meet v, for u real and v imaginary, and its
#                         conjugate u meet conj v.
BLOW_UP_KINDS = ("real_point", "real_edge", "real_curve_pair", "imaginary_curve_pair",
                 "edge_pair")


def _centres(conj: dict, kind: str, where):
    """The centres of the blow-up of kind at where, each the curves through
    one point, or None when where is no site of kind."""
    if kind in ("real_point", "real_curve_pair", "imaginary_curve_pair"):
        v = where
        if (conj[v] == v) == (kind == "imaginary_curve_pair"):
            return None
        return [(v,)] if kind == "real_point" else [(v,), (conj[v],)]
    u, v = where
    if kind == "real_edge":
        return [(u, v)] if {conj[u], conj[v]} == {u, v} else None
    if conj[u] != u:
        u, v = v, u
    return [(u, v), (u, conj[v])] if conj[u] == u and conj[v] != v else None


def blow_up(cg, kind: str, where) -> CoverGraph:
    """The marked cover graph cg blown up once, equivariantly, at where
    (see BLOW_UP_KINDS): one new real (-1)-curve, or two new (-1)-curves
    that conj swaps, with the ids next_id on. Each curve through a centre
    loses 1 on its self-intersection, once per centre on it, and meets the
    new curve instead of the other curve through the centre. The result
    has the real column, conj, self-intersections and edges only: no deck,
    downstairs, multiplicities or labels."""
    g = cg.graph
    conj = dict(cg.conj.items())
    centres = _centres(conj, kind, where)
    if centres is None:
        raise ValueError(f"{where!r} is no site of {kind}")
    ids = list(g.ids)
    self_int, real = dict(zip(ids, g.self_int)), dict(zip(ids, g.real))
    edges = set(g.edges())
    new = list(range(g.next_id, g.next_id + len(centres)))
    for e, centre in zip(new, centres):
        self_int[e], real[e] = -1, len(centres) == 1
        for v in centre:
            self_int[v] -= 1
            edges.add((v, e))
        if len(centre) == 2:
            edges.remove(tuple(sorted(centre)))
    conj.update(zip(new, reversed(new)))
    ids += new
    at = dict(zip(ids, range(len(ids))))
    blown = FrozenGraph.from_columns(
        [self_int[v] for v in ids], [(at[u], at[v]) for u, v in edges], ids=tuple(ids),
        real=[real[v] for v in ids], arrows=g.arrows, next_id=new[-1] + 1)
    return CoverGraph(graph=blown, m=None, n=None, e0_lift=None, deck={}, downstairs={},
                      conj=conj, sign=cg.sign)


def blow_up_sites(cg, kind: str) -> list:
    """Every site of kind on the marked cover graph cg: curves in id order
    for the point kinds, edges in sorted order for the edge kinds."""
    conj = dict(cg.conj.items())
    g = cg.graph
    candidates = g.edges() if kind in ("real_edge", "edge_pair") else g.ids
    return [where for where in candidates if _centres(conj, kind, where) is not None]


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
