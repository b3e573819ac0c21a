"""Canonical class coefficients and the characteristic set W.

On a negative definite tree of spheres the first Chern class of the
resolved surface is determined by adjunction: Q a = (n_i + 2). The
solution is required to be integral (the singularities handled here are
numerically Gorenstein; a non-integral solution means the input graph is
outside scope). W collects the vertices with odd coefficient; it is the
support of the Wu class.

Each graph gets one exact certificate. A solved graph's is the solve
itself: the solver re-multiplies and raises unless Q a = n + 2 holds. Mod
2 this reads Q a = diag Q, so a mod 2 solves the Wu system over GF(2);
that solution is unique, and then equals a mod 2, exactly when det Q is
odd. The Wu status is therefore the parity of det Q, which the solve's own
pass over the tree returns.

A graph blown down from a solved one is not solved again. Blow-up pulls
the canonical class back with the exceptional curve added, so the
blown-down graph keeps the solved graph's coefficients on its curves
(blown_down_characteristic). Its certificate is Q a = n + 2 re-multiplied
over every row, with det Q = (-1)^k det Q of the solved graph for its k
blow-downs, which gives the Wu status.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import compress
from operator import add, mul
from typing import NamedTuple

from .errors import InternalInvariantError, NotNumericallyGorenstein, StructureMismatch
from .graph import (FrozenGraph, VertexMap, _column, _neighbour_sums, _numbered_by_position,
                    _tree_det, solve_intersection_system)

WU_CONFIRMED_UNIQUE = "confirmed-unique"
WU_CONFIRMED_CONSISTENT = "confirmed-consistent"


class CharacteristicData(NamedTuple):
    """Integral c1 coefficients by vertex id, the odd-coefficient set W, the
    Wu status (confirmed-unique exactly when det Q is odd) and det Q."""

    a: Mapping[int, int]
    w: frozenset[int]
    wu_status: str
    det: int


def canonical_coefficients(cg) -> CharacteristicData:
    """Solve the adjunction system and extract W.

    Accepts a CoverGraph or a bare FrozenGraph. On a CoverGraph, W must be
    invariant under the deck transformation (conjugation preserves the
    canonical class).
    """
    g, deck = (cg, None) if isinstance(cg, FrozenGraph) else (cg.graph, cg.deck)
    a, det = solve_intersection_system(g, VertexMap(g, map((2).__add__, g.self_int)))
    coeffs = _column(g, a)
    if not {int}.issuperset(map(type, coeffs)):
        v, value = next((v, x) for v, x in zip(g.ids, coeffs) if x.denominator != 1)
        raise NotNumericallyGorenstein(
            f"c1 coefficient of vertex {v} is {value}; the graph is not "
            "numerically Gorenstein"
        )
    odd = list(map((1).__and__, coeffs))
    w = frozenset(compress(g.ids, odd))
    if deck and frozenset(compress(_column(g, deck), odd)) != w:
        raise StructureMismatch("W is not invariant under the deck transformation")
    return CharacteristicData(a=a, w=w, wu_status=_wu_status(det), det=det)


def blown_down_characteristic(cg, solved) -> CharacteristicData:
    """The characteristic data of the cover graph cg, which blow-downs made
    from the cover graph solved, taken from solved.characteristic: the
    coefficients on the curves of cg, without a solve. The curves of
    solved are numbered by position, as label_arms requires of a lift, and
    cg keeps their ids.

    Two exact checks certify them, and each raises InternalInvariantError:
    Q a = n + 2 re-multiplied over every row of cg, and det Q(cg) =
    (-1)^k det Q(solved) for its k blow-downs; det Q(cg) gives the Wu
    status. W is solved's W on the curves of cg, so it stays invariant
    under the deck transformation, which restricts to cg.
    """
    g, up, cd = cg.graph, solved.graph, solved.characteristic
    if not _numbered_by_position(up):
        raise InternalInvariantError("a blow-down reads the solved graph's ids as its positions")
    coeffs = list(map(_column(up, cd.a).__getitem__, g.ids))
    if list(map(add, map(mul, g.self_int, coeffs), _neighbour_sums(g, coeffs))) != list(
            map((2).__add__, g.self_int)):
        raise InternalInvariantError(
            "the solved graph's c1 coefficients fail Q a = n + 2 on its blow-down")
    det, k = _tree_det(g), len(up.ids) - len(g.ids)
    if det != (-1) ** k * cd.det:
        raise InternalInvariantError(
            f"det Q = {det} after {k} blow-downs of a graph with det Q = {cd.det}")
    return CharacteristicData(a=VertexMap(g, coeffs), w=cd.w.intersection(g.ids),
                              wu_status=_wu_status(det), det=det)


def _wu_status(det: int) -> str:
    return WU_CONFIRMED_UNIQUE if det % 2 else WU_CONFIRMED_CONSISTENT

