"""Oracles that only the tests call: exact dense checks and a canonical
form for isomorphism tests, kept out of the package, which never reads
them.

canonical_form encodes a decorated tree up to relabelling its ids;
is_negative_definite, det_exact and solve_rational are dense exact
routines on an integer matrix such as intersection_matrix returns, and
solve_rational is the oracle for the package's tree solver on the forms
that solver accepts, the negative definite ones; restrict_to_real gives
W_R on a marked graph; real_locus gives the curves a sign's real structure
fixes; stepwise_gamma_f runs the blow-up cascade of
Gamma_f one curve at a time; meets_its_conjugate looks for an edge
between a curve and its conjugate; blow_up makes one equivariant blow-up
of a marked graph, at a site blow_up_sites lists; reference_lift lifts
Gamma'_f through the double cover on a dict of neighbour sets;
assemble_dense evaluates tb on a marked graph from its dense form;
separation_by_edges rebuilds Gamma'_f from an edge list, and
families_by_walks reads the arm families of Gamma'_f by a walk from each
neighbour of e_0.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction
from itertools import compress
from typing import Iterable, Sequence

from tbcalc.charclass import CharacteristicData
from tbcalc.cover import CoverGraph, mark_real_structure
from tbcalc.embedres import ARROW_MULT, _odd_arrow_hosts, _odd_odd_edges, check_mini
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


def assemble_dense(g: FrozenGraph, w: frozenset[int]) -> Fraction:
    """tb = N - 1 + sum of S_ee over the real members e of w, on the dense
    form Q of the marked graph g, where S_ee = Q_ee - Q_eI Q_II^-1 Q_Ie is
    the Schur complement onto e of the imaginary curves I (Neumann's
    plumbing calculus reduces an imaginary arm to its continued fraction
    this way). Q is read from g.edges() and g.self_int, and Q_II^-1 Q_Ie by
    solve_rational, so no tree fold of the package is involved."""
    ids = list(g.ids)
    index = {v: i for i, v in enumerate(ids)}
    q = [[0] * len(ids) for _ in ids]
    for i, self_int in enumerate(g.self_int):
        q[i][i] = self_int
    for u, v in g.edges():
        q[index[u]][index[v]] = q[index[v]][index[u]] = 1
    real = [i for i, flag in enumerate(g.real) if flag]
    imaginary = [i for i, flag in enumerate(g.real) if not flag]
    q_ii = [[q[a][b] for b in imaginary] for a in imaginary]
    total = Fraction(len(real) - 1)
    for e in real:
        if ids[e] in w:
            q_ie = [q[a][e] for a in imaginary]
            x = solve_rational(q_ii, q_ie) if any(q_ie) else [0] * len(q_ie)
            total += q[e][e] - sum(c * y for c, y in zip(q_ie, x))
    return total


def restrict_to_real(cd: CharacteristicData, cg) -> frozenset[int]:
    """W_R: the members of W fixed by the real structure."""
    g = cg if isinstance(cg, FrozenGraph) else cg.graph
    if None in g.real:
        raise InconsistentAnnotation(
            f"vertex {g.ids[g.real.index(None)]} has no real/imaginary mark; "
            "mark the real structure first"
        )
    return cd.w & frozenset(compress(g.ids, g.real))


def real_locus(cg: CoverGraph, sign: str) -> frozenset[int]:
    """The ids of the curves fixed by the real structure of the given sign,
    read off the real column mark_real_structure sets."""
    return frozenset(compress(cg.graph.ids, mark_real_structure(cg, sign).graph.real))


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


def reference_lift(gp: FrozenGraph, rupture: int) -> dict:
    """The lift of Gamma'_f through the double cover branched over its odd
    curves, by the three lifting rules applied on a dict of neighbour sets.

    An odd curve lifts to one curve of half its self-intersection; an even
    curve meeting two odd components (an arrow counts as one) to one curve
    of twice it; an even curve meeting none to two curves of the same
    self-intersection, swapped by deck. The lifts of each curve take the
    next positions, in gp's position order. Over an edge between two
    doubled curves copy c meets copy c; over any other edge every lift
    meets every lift. Returns the columns self_int, deck and downstairs
    by position, the sorted neighbour list of each position, e0_lift, and
    the breadth-first order and parents (-1 at the root) from e0_lift.
    """
    ids = list(gp.ids)
    mult = dict(zip(ids, gp.mult))
    down_self = dict(zip(ids, gp.self_int))
    near: dict[int, set[int]] = {v: set() for v in ids}
    for u, v in gp.edges():
        near[u].add(v)
        near[v].add(u)
    arrows = Counter(gp.arrows)
    lifts: dict[int, list[int]] = {}
    self_int, deck, downstairs = [], [], []
    for v in ids:
        meets = sum(mult[u] % 2 for u in near[v]) + arrows[v]
        if mult[v] % 2:
            assert down_self[v] % 2 == 0, v
            values = [down_self[v] // 2]
        elif meets == 2:
            values = [2 * down_self[v]]
        else:
            assert meets == 0, v
            values = [down_self[v]] * 2
        lifts[v] = list(range(len(self_int), len(self_int) + len(values)))
        self_int += values
        deck += reversed(lifts[v])
        downstairs += [v] * len(values)
    up: dict[int, set[int]] = {p: set() for p in range(len(self_int))}
    for u, v in gp.edges():
        if len(lifts[u]) == len(lifts[v]) == 2:
            pairs = zip(lifts[u], lifts[v])
        else:
            pairs = ((a, b) for a in lifts[u] for b in lifts[v])
        for a, b in pairs:
            up[a].add(b)
            up[b].add(a)
    (root,) = lifts[rupture]
    parent = {root: -1}
    order, queue = [], deque([root])
    while queue:
        p = queue.popleft()
        order.append(p)
        for q in sorted(up[p]):
            if q not in parent:
                parent[q] = p
                queue.append(q)
    return {"self_int": self_int, "deck": deck, "downstairs": downstairs,
            "near": [sorted(up[p]) for p in range(len(self_int))], "e0_lift": root,
            "order": order, "parent": [parent[p] for p in range(len(self_int))]}


def separation_by_edges(g: FrozenGraph) -> FrozenGraph:
    """separate_odd_odd as a rebuild from an edge list: g's edges less the
    odd-odd ones, plus an edge from each insert to each curve through its
    center, sorted and laid out by FrozenGraph.from_columns; the columns
    and arrows are edited as separate_odd_odd edits them."""
    cut = _odd_odd_edges(g)
    hosts = _odd_arrow_hosts(g)
    if not cut and not hosts:
        return g
    ids, self_int, mult, c1 = list(g.ids), list(g.self_int), list(g.mult), list(g.c1_coeff)
    arrows = list(g.arrows)
    removed = set(cut)
    edges = [pair for pair in g._position_edges() if pair not in removed]
    inserts = [((u, v), mult[u] + mult[v]) for u, v in cut]
    inserts += [((u,), mult[u] + ARROW_MULT) for u in hosts]
    for parents, new_mult in inserts:
        w = len(ids)
        ids.append(g.next_id + w - len(g.ids))
        self_int.append(-1)
        mult.append(new_mult)
        c1.append(-1 + sum(c1[p] for p in parents))
        for p in parents:
            edges.append((p, w))
            self_int[p] -= 1
        if len(parents) == 1:
            arrows.remove(ids[parents[0]])
            arrows.append(ids[w])
    added = len(ids) - len(g.ids)
    out = FrozenGraph.from_columns(
        self_int, edges, ids=tuple(ids), mult=mult, c1_coeff=c1,
        arm_label=g.arm_label + (None,) * added, real=g.real + (None,) * added,
        arrows=arrows, next_id=g.next_id + added,
    )
    check_mini(out)
    return out


def families_by_walks(gp: FrozenGraph, r: int, m: int, n: int) -> list:
    """The arm family of each position of Gamma'_f as cover's
    _downstairs_families gives it, each component of Gamma'_f - r read by
    a breadth-first walk from one neighbour of r (one seen mark shared by
    all): "n_arm" where a terminal curve of it has multiplicity m, else
    "m_arm" where one has n, else None, and None off every component."""
    adj, start = gp.adj, gp.adj_start
    heads = adj[start[r]:start[r + 1]]
    seen = {r, *heads}
    families = [None] * len(gp.ids)
    for h in heads:
        where = [h]
        for q in where:
            for x in adj[start[q]:start[q + 1]]:
                if x not in seen:
                    seen.add(x)
                    where.append(x)
        ends = {gp.mult[p] for p in where if start[p + 1] - start[p] == 1}
        family = "n_arm" if m in ends else "m_arm" if n in ends else None
        for p in where:
            families[p] = family
    return families
