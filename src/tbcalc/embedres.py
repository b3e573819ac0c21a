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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import BadExponents, NonIntegralMultiplicity, StructureMismatch
from .graph import DecoratedGraph, _tree_det, solve_intersection_system

ARROW_MULT = 1


@dataclass(frozen=True)
class EuclidData:
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


@dataclass(frozen=True)
class BlowupStep:
    """One blow-up: the curve it creates and the exceptional curves through
    its center."""

    vertex: int
    parents: tuple[int, ...]


@dataclass(frozen=True)
class BlowupTrace:
    """The ordered blow-up history of a resolution graph."""

    m: int
    n: int
    steps: tuple[BlowupStep, ...]
    rupture: int


def euclid_data(m: int, n: int) -> EuclidData:
    """Validate the exponents and compute their division chain."""
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
    return EuclidData(m=m, n=n, quotients=tuple(quotients))


def build_gamma_f(m: int, n: int) -> tuple[DecoratedGraph, BlowupTrace]:
    """Resolve x^m + y^n = 0 by the blow-up cascade.

    Returns the decorated graph Gamma_f (multiplicities filled in, one
    arrow on the rupture vertex) and the blow-up trace. The local model at
    the active center is x^a + y^b; the curve {x=0} there is x_curve (an
    exceptional curve or, initially, nothing) and likewise y_curve. A
    blow-up with a > b leaves the y-curve at the new center and replaces
    the x-curve by the new exceptional curve, and symmetrically.
    """
    data = euclid_data(m, n)
    g = DecoratedGraph()
    steps: list[BlowupStep] = []
    a, b = m, n
    x_curve: Optional[int] = None
    y_curve: Optional[int] = None
    while True:
        parents = tuple(v for v in (x_curve, y_curve) if v is not None)
        mult = min(a, b) + sum(g.vertices[p].mult for p in parents)
        e = g.add_vertex(-1, mult=mult)
        for p in parents:
            g.add_edge(e, p)
            g.vertices[p].self_int -= 1
        if len(parents) == 2 and g.has_edge(parents[0], parents[1]):
            g.remove_edge(parents[0], parents[1])
        steps.append(BlowupStep(vertex=e, parents=parents))
        if (a, b) == (1, 1):
            g.arrows.append(e)
            rupture = e
            break
        if a > b:
            a -= b
            x_curve = e
        else:
            b -= a
            y_curve = e

    trace = BlowupTrace(m=m, n=n, steps=tuple(steps), rupture=rupture)
    _check_gamma_f(g, trace, data)
    return g, trace


def _check_gamma_f(g: DecoratedGraph, trace: BlowupTrace, data: EuclidData) -> None:
    """Mandatory post-conditions pinning the cascade bookkeeping down."""
    m, n = trace.m, trace.n
    if len(g.vertices) != data.t:
        raise StructureMismatch(
            f"Gamma_f({m},{n}) has {len(g.vertices)} vertices, expected "
            f"sum of Euclid quotients {data.t}"
        )
    rupture = trace.rupture
    if g.arrows != [rupture]:
        raise StructureMismatch("the arrow must sit on the rupture vertex")
    if g.vertices[rupture].mult != m * n:
        raise StructureMismatch(
            f"rupture multiplicity {g.vertices[rupture].mult} != m*n = {m * n}"
        )
    if g.degree(rupture) != 2:
        raise StructureMismatch("rupture vertex of Gamma_f must have 2 neighbors")
    terminal_mults = sorted(
        g.vertices[v].mult for v in g.vertex_ids() if g.degree(v) == 1
    )
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


def check_mini(g: DecoratedGraph) -> None:
    """Assert the balance law n_k m_k + sum of adjacent mults + arrows = 0."""
    for v in g.vertex_ids():
        total = g.vertices[v].self_int * g.vertices[v].mult
        total += sum(g.vertices[u].mult for u in g.neighbors(v))
        total += ARROW_MULT * g.arrow_count(v)
        if total != 0:
            raise StructureMismatch(f"balance law fails at vertex {v}: {total} != 0")


def multiplicities(g: DecoratedGraph) -> dict[int, int]:
    """Solve the balance law for all multiplicities, independently of the
    simulation. The system is the intersection form against minus the
    arrow counts; the solution must be integral."""
    rhs = {v: Fraction(-ARROW_MULT * g.arrow_count(v)) for v in g.vertex_ids()}
    solution = solve_intersection_system(g, rhs)
    out = {}
    for v, value in solution.items():
        if value.denominator != 1:
            raise NonIntegralMultiplicity(
                f"multiplicity of vertex {v} is {value}, not an integer; "
                "the graph is not a branch resolution graph"
            )
        out[v] = int(value)
    return out


def c1_coefficients(trace: BlowupTrace) -> dict[int, int]:
    """First Chern class coefficients b_i from the blow-up history.

    Each blow-up creates a curve with coefficient -1 plus the coefficients
    of the exceptional curves through its center; the strict transform of
    the branch contributes nothing. Coefficients of earlier curves never
    change, so the recursion is prefix-stable. The rupture coefficient must
    come out as -(m+n-1).
    """
    b: dict[int, int] = {}
    for step in trace.steps:
        b[step.vertex] = -1 + sum(b[p] for p in step.parents)
    expected = -(trace.m + trace.n - 1)
    if b[trace.rupture] != expected:
        raise StructureMismatch(
            f"rupture c1 coefficient {b[trace.rupture]} != -(m+n-1) = {expected}"
        )
    return b


def _odd_odd_edges(g: DecoratedGraph) -> list[tuple[int, int]]:
    return [
        (u, v)
        for u, v in g.edges()
        if g.vertices[u].mult % 2 == 1 and g.vertices[v].mult % 2 == 1
    ]


def _odd_arrow_hosts(g: DecoratedGraph) -> list[int]:
    return sorted(v for v in g.arrows if g.vertices[v].mult % 2 == 1)


def separate_odd_odd(
    g: DecoratedGraph, trace: BlowupTrace
) -> tuple[DecoratedGraph, BlowupTrace]:
    """Blow up every intersection of two odd-multiplicity components.

    Produces Gamma'_f: for an odd-odd edge the new curve has multiplicity
    the sum of the endpoints'; at an odd-multiplicity vertex met by the
    branch (arrow, multiplicity 1) the new curve has multiplicity m_u + 1
    and the arrow moves onto it. Either way both incident self-intersections
    drop by 1 and the inserted curve starts at -1. Inserted multiplicities
    are even, so one sweep leaves no odd-odd incidence; a post-condition
    checks that. With nothing to separate, (g, trace) itself is returned.
    """
    edges = _odd_odd_edges(g)
    hosts = _odd_arrow_hosts(g)
    if not edges and not hosts:
        return g, trace
    out = g.copy()
    steps = list(trace.steps)
    for u, v in edges:
        w = out.add_vertex(-1, mult=out.vertices[u].mult + out.vertices[v].mult)
        out.remove_edge(u, v)
        out.add_edge(u, w)
        out.add_edge(v, w)
        out.vertices[u].self_int -= 1
        out.vertices[v].self_int -= 1
        steps.append(BlowupStep(vertex=w, parents=(u, v)))
    for u in hosts:
        w = out.add_vertex(-1, mult=out.vertices[u].mult + ARROW_MULT)
        out.add_edge(u, w)
        out.vertices[u].self_int -= 1
        out.arrows.remove(u)
        out.arrows.append(w)
        steps.append(BlowupStep(vertex=w, parents=(u,)))
    if _odd_odd_edges(out) or _odd_arrow_hosts(out):
        raise StructureMismatch("an odd-odd incidence survived separation")
    check_mini(out)
    new_trace = BlowupTrace(m=trace.m, n=trace.n, steps=tuple(steps),
                            rupture=trace.rupture)
    return out, new_trace
