"""Embedded resolution of the plane branch x^m + y^n = 0.

The resolution graph Gamma_f is produced by simulating the sequence of
point blow-ups at infinitely near points. The combinatorics follow the
Euclidean algorithm on (m, n): the local model stays x^a + y^b while the
state (a, b) descends by repeated subtraction, and each blow-up creates one
exceptional curve whose multiplicity is min(a, b) plus the multiplicities
of the exceptional curves through the center.

The simulation's center tracking is pinned down by hard post-conditions
(vertex count, terminal and rupture multiplicities, the balance law at
every vertex) and one exact certificate: det Q(Gamma_f) = (-1)^t, with t
the sum of the Euclid quotients, as for every embedded resolution of a
plane branch (unimodular, negative definite of rank t). A nonzero det makes
the balance law uniquely solvable, so the simulated multiplicities are its
only solution, and a bookkeeping bug cannot produce a quietly wrong graph.
Both stages here run on flat lists and emit FrozenGraph values.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import add, mul
from typing import NamedTuple, Optional

from .errors import BadExponents, NonIntegralMultiplicity, StructureMismatch
from .graph import (FrozenGraph, VertexMap, _degrees, _neighbour_sums, _tree_det,
                    solve_intersection_system)

ARROW_MULT = 1

# The largest sum of Euclid quotients (the vertex count t of Gamma_f) that
# euclid_data accepts. The graphs of a pair hold a few times t vertices;
# at the limit they take seconds and a few hundred MB, and a larger pair
# is refused before anything is built.
MAX_QUOTIENT_SUM = 200_000


class EuclidData(NamedTuple):
    """The division chain of the exponent pair.

    quotients are stored in division order: the first divides the larger
    exponent by the smaller, the last divides by 1 exactly.
    """

    m: int
    n: int
    quotients: tuple[int, ...]

    @property
    def t(self) -> int:
        """Vertex count of Gamma_f: the sum of all quotients."""
        return sum(self.quotients)


def euclid_data(m: int, n: int) -> EuclidData:
    """Validate the exponents and compute their division chain, refusing
    a chain whose quotients sum past MAX_QUOTIENT_SUM."""
    if not isinstance(m, int) or not isinstance(n, int) or m < 2 or n < 2:
        raise BadExponents(
            f"exponents must be integers >= 2, got ({m}, {n}); x^m+y^n+/-z^2 "
            "is not an isolated double point otherwise"
        )
    if math.gcd(m, n) != 1:
        raise BadExponents(
            f"gcd(m,n) must be 1 for an isolated Brieskorn double point, "
            f"got gcd({m}, {n}) = {math.gcd(m, n)}"
        )
    quotients = []
    a, b = max(m, n), min(m, n)
    while b > 0:
        quotients.append(a // b)
        a, b = b, a % b
    if sum(quotients) > MAX_QUOTIENT_SUM:
        raise BadExponents(
            f"({m}, {n}) needs {sum(quotients)} curves in its resolution of "
            f"x^m+y^n (the sum of its Euclid quotients); the limit is "
            f"{MAX_QUOTIENT_SUM}"
        )
    return EuclidData(m=m, n=n, quotients=tuple(quotients))


def build_gamma_f(m: int, n: int) -> tuple[FrozenGraph, int]:
    """Resolve x^m + y^n = 0 by the blow-up cascade.

    Returns Gamma_f as a FrozenGraph (multiplicities and c1 coefficients
    filled in, one arrow on the rupture vertex) and the id of the rupture
    curve e_0, the last curve made. The cascade (_cascade) runs on flat
    lists, curve i at position i; the rupture c1 entry is checked here.
    """
    data = euclid_data(m, n)
    self_int, mult, c1, edges = _cascade(m, n)
    rupture = len(self_int) - 1
    expected = -(m + n - 1)
    if c1[rupture] != expected:
        raise StructureMismatch(
            f"rupture c1 coefficient {c1[rupture]} != -(m+n-1) = {expected}"
        )
    g = FrozenGraph.from_columns(self_int, edges, mult=mult, c1_coeff=c1, arrows=(rupture,))
    _check_gamma_f(g, data)
    return g, rupture


def _cascade(m: int, n: int) -> tuple[list[int], list[int], list[int], list[tuple[int, int]]]:
    """The columns self_int, mult and c1 of the blow-up cascade of
    x^m + y^n and the edges as position pairs (p, q), p < q, the last
    curve being the rupture curve.

    The local model at the active center is x^a + y^b; the curve {x=0}
    there is x_curve (an exceptional curve or, initially, nothing) and
    likewise y_curve. A blow-up with a > b leaves the y-curve at the new
    center and replaces the x-curve by the new exceptional curve, and
    symmetrically; (a, b) = (1, 1) gives the rupture curve. The new curve
    has self-intersection -1, multiplicity min(a, b) plus that of the
    curves through the center, c1 coefficient -1 plus theirs, and each of
    those curves loses 1 on its self-intersection; the new curve meets
    them instead of their meeting each other.

    The blow-ups of one Euclid quotient keep one curve K at the center
    and move the other, so they append as one run of k curves: a chain
    whose multiplicities and c1 coefficients step by constants, joined to
    the moving curve before the run at one end and to K at the other.
    The edge through the center, between x_curve and y_curve, is always
    the last edge a run appends, so the next run drops it from the end.
    """
    self_int: list[int] = []
    mult: list[int] = []
    c1: list[int] = []
    edges: list[tuple[int, int]] = []
    a, b = m, n
    x_curve: Optional[int] = None
    y_curve: Optional[int] = None
    while True:
        e = len(self_int)
        x_moves = a >= b
        if (a, b) == (1, 1):
            k, low = 1, 1
        elif x_moves:
            k, low = (a - 1) // b, b
        else:
            k, low = (b - 1) // a, a
        moving, keep = (x_curve, y_curve) if x_moves else (y_curve, x_curve)
        mult_step = low + (0 if keep is None else mult[keep])
        c1_step = -1 + (0 if keep is None else c1[keep])
        mult_first = mult_step + (0 if moving is None else mult[moving])
        c1_first = c1_step + (0 if moving is None else c1[moving])
        mult.extend(range(mult_first, mult_first + k * mult_step, mult_step))
        c1.extend(range(c1_first, c1_first + k * c1_step, c1_step))
        self_int.extend([-2] * (k - 1))
        self_int.append(-1)
        if moving is not None and keep is not None:
            if edges.pop() != (min(moving, keep), max(moving, keep)):
                raise StructureMismatch("the cascade lost the edge through its center")
        if moving is not None:
            self_int[moving] -= 1
            edges.append((moving, e))
        edges += zip(range(e, e + k - 1), range(e + 1, e + k))
        if keep is not None:
            self_int[keep] -= k
            edges.append((keep, e + k - 1))
        if (a, b) == (1, 1):
            return self_int, mult, c1, edges
        if x_moves:
            a -= k * b
            x_curve = e + k - 1
        else:
            b -= k * a
            y_curve = e + k - 1


def _check_gamma_f(g: FrozenGraph, data: EuclidData) -> None:
    """Mandatory post-conditions pinning the cascade bookkeeping down; the
    rupture curve e_0 is the last one."""
    m, n = data.m, data.n
    if len(g.ids) != data.t:
        raise StructureMismatch(
            f"Gamma_f({m},{n}) has {len(g.ids)} vertices, expected "
            f"sum of Euclid quotients {data.t}"
        )
    rupture = len(g.ids) - 1
    if g.arrows != (rupture,):
        raise StructureMismatch("the arrow must sit on the rupture vertex")
    p, degree = g.pos(rupture), _degrees(g)
    if g.mult[p] != m * n:
        raise StructureMismatch(
            f"rupture multiplicity {g.mult[p]} != m*n = {m * n}"
        )
    if degree[p] != 2:
        raise StructureMismatch("rupture vertex of Gamma_f must have 2 neighbors")
    terminal_mults = sorted(compress(g.mult, map((1).__eq__, degree)))
    if terminal_mults != sorted((m, n)):
        raise StructureMismatch(
            f"terminal multiplicities {terminal_mults} != {{m, n}}"
        )
    check_mini(g)
    det = _tree_det(g)
    if det != (-1) ** data.t:
        raise StructureMismatch(
            f"det Q(Gamma_f({m},{n})) = {det}, expected (-1)^{data.t}"
        )


def check_mini(g: FrozenGraph) -> None:
    """Assert the balance law n_k m_k + sum of adjacent mults + arrows = 0,
    read from the columns and neighbour lists."""
    totals = list(map(add, map(mul, g.self_int, g.mult), _neighbour_sums(g, g.mult)))
    for v in g.arrows:
        totals[g.pos(v)] += ARROW_MULT
    if any(totals):
        v, total = next((v, total) for v, total in zip(g.ids, totals) if total != 0)
        raise StructureMismatch(f"balance law fails at vertex {v}: {total} != 0")


def multiplicities(g: FrozenGraph) -> dict[int, int]:
    """Solve the balance law for all multiplicities, independently of the
    simulation. The system is the intersection form against minus the
    arrow counts; the solution must be integral."""
    rhs = VertexMap(g, [-ARROW_MULT * count for count in map(g.arrows.count, g.ids)])
    solution, _det = solve_intersection_system(g, rhs)
    out = {}
    for v, value in solution.items():
        if value.denominator != 1:
            raise NonIntegralMultiplicity(
                f"multiplicity of vertex {v} is {value}, not an integer; "
                "the graph is not a branch resolution graph"
            )
        out[v] = int(value)
    return out


def _odd_odd_edges(g: FrozenGraph) -> list[tuple[int, int]]:
    """The edges joining two odd multiplicities, as sorted position pairs."""
    odd, adj, start = list(map((1).__and__, g.mult)), g.adj, g.adj_start
    return [(p, q) for p in compress(range(len(odd)), odd)
            for q in adj[start[p]:start[p + 1]] if p < q and odd[q]]


def _odd_arrow_hosts(g: FrozenGraph) -> list[int]:
    """The positions of the arrows on odd multiplicities, sorted."""
    return sorted(p for p in map(g.pos, g.arrows) if g.mult[p] % 2 == 1)


def separate_odd_odd(g: FrozenGraph) -> FrozenGraph:
    """Blow up every intersection of two odd-multiplicity components.

    Produces Gamma'_f: for an odd-odd edge the new curve has multiplicity
    the sum of the endpoints'; at an odd-multiplicity vertex met by the
    branch (arrow, multiplicity 1) the new curve has multiplicity m_u + 1
    and the arrow moves onto it. Either way both incident self-intersections
    drop by 1 and the inserted curve starts at -1. Inserted multiplicities
    are even, so one sweep leaves no odd-odd incidence; a post-condition
    checks that. The inserted curves take the next ids at new positions,
    and each appends its c1 to g's column, -1 plus the entries of the
    curves through its center, so g's entries are shared. With nothing to
    separate, g itself is returned.
    """
    if None in g.mult:
        raise StructureMismatch(f"vertex {g.ids[g.mult.index(None)]} has no multiplicity")
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
    if _odd_odd_edges(out) or _odd_arrow_hosts(out):
        raise StructureMismatch("an odd-odd incidence survived separation")
    check_mini(out)
    return out
