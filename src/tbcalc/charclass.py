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

Gamma(m,n), where curves blew down, is not solved: pulled_back_characteristic
reads its coefficients off Gamma'_f and certifies them by Q a = n + 2 over
every row, on a form whose pivots are all negative, so that a is unique.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import compress
from operator import add, mul
from typing import NamedTuple

from .errors import InternalInvariantError, NotNumericallyGorenstein, StructureMismatch
from .graph import (FrozenGraph, VertexMap, _column, _indefinite_at, _neighbour_sums,
                    _subtree_dets, solve_intersection_system)

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
    return _with_w(g, deck, a, det)


def pulled_back_characteristic(cg, gp: FrozenGraph) -> CharacteristicData:
    """The characteristic data of the cover graph cg without a solve. Over
    the curve of gp with c1 coefficient c and multiplicity mu that downstairs
    names by position, the double cover's canonical class pi^*(K + L)
    (Barth-Hulek-Peters-Van de Ven, Compact Complex Surfaces, I.17) has
    coefficient 2c + mu - 1 for odd mu and c + mu/2 for even mu. A failed
    check raises InternalInvariantError; W is extracted as by canonical_coefficients."""
    g, c1, mult = cg.graph, gp.c1_coeff, gp.mult
    coeffs = [2 * c1[d] + mult[d] - 1 if mult[d] % 2 else c1[d] + mult[d] // 2
              for d in _column(g, cg.downstairs)]
    if list(map(add, map(mul, g.self_int, coeffs), _neighbour_sums(g, coeffs))) != list(
            map((2).__add__, g.self_int)):
        raise InternalInvariantError("the pulled-back c1 coefficients fail Q a = n + 2")
    det, rest = _subtree_dets(g)
    if (bad := _indefinite_at(g, det, rest)) is not None:
        raise InternalInvariantError(f"the form is not negative definite at vertex {g.ids[bad]}")
    return _with_w(g, cg.deck, VertexMap(g, coeffs), det[g.order[0]])


def _with_w(g: FrozenGraph, deck, a: VertexMap, det: int) -> CharacteristicData:
    """Integral a with its odd set W, checked deck-invariant if deck is given, Wu status, det."""
    odd = list(map((1).__and__, _column(g, a)))
    w = frozenset(compress(g.ids, odd))
    if deck and frozenset(compress(_column(g, deck), odd)) != w:
        raise StructureMismatch("W is not invariant under the deck transformation")
    wu_status = WU_CONFIRMED_UNIQUE if det % 2 else WU_CONFIRMED_CONSISTENT
    return CharacteristicData(a=a, w=w, wu_status=wu_status, det=det)
