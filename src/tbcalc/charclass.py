"""Canonical class coefficients and the characteristic set W.

On a negative definite tree of spheres the first Chern class of the
resolved surface is determined by adjunction: Q a = (n_i + 2). The
solution is required to be integral (the singularities handled here are
numerically Gorenstein; a non-integral solution means the input graph is
outside scope). W collects the vertices with odd coefficient; it is the
support of the Wu class.

The adjunction solve is this stage's one exact certificate: the solver
re-multiplies and raises unless Q a = n + 2 holds. Mod 2 this reads
Q a = diag Q, so a mod 2 solves the Wu system over GF(2); that solution is
unique, and then equals a mod 2, exactly when det Q is odd. The Wu status
is therefore the parity of det Q, which the solve's own pass over the tree
returns.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import compress
from typing import NamedTuple

from .errors import (
    InconsistentAnnotation,
    NotNumericallyGorenstein,
    StructureMismatch,
)
from .graph import FrozenGraph, VertexMap, _column, solve_intersection_system

WU_CONFIRMED_UNIQUE = "confirmed-unique"
WU_CONFIRMED_CONSISTENT = "confirmed-consistent"


class CharacteristicData(NamedTuple):
    """Integral c1 coefficients by vertex id, the odd-coefficient set W, and
    the Wu status (confirmed-unique exactly when det Q is odd)."""

    a: Mapping[int, int]
    w: frozenset[int]
    wu_status: str


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
    wu_status = WU_CONFIRMED_UNIQUE if det % 2 else WU_CONFIRMED_CONSISTENT
    return CharacteristicData(a=a, w=w, wu_status=wu_status)


def restrict_to_real(cd: CharacteristicData, cg) -> frozenset[int]:
    """W_R: the members of W fixed by the real structure."""
    g = cg if isinstance(cg, FrozenGraph) else cg.graph
    if None in g.real:
        raise InconsistentAnnotation(
            f"vertex {g.ids[g.real.index(None)]} has no real/imaginary mark; "
            "mark the real structure first"
        )
    return cd.w & frozenset(compress(g.ids, g.real))


def parity_checks(cd: CharacteristicData, cg, downstairs: FrozenGraph) -> dict:
    """Membership laws for W on the pre-minimization lift.

    Checks, for each lifted vertex over a downstairs curve E_j with
    multiplicity m_j and c1 coefficient b_j:

    odd_mult_not_in_w:    m_j odd implies the lift is not in W;
    even_mult_parity_law: for even m_j, the lift is in W iff
                          (m_j = 2 mod 4 and b_j even) or (m_j = 0 mod 4
                          and b_j odd);
    rupture_membership:   with exactly one even exponent, e^0 is in W iff
                          that exponent is 2 mod 4 (skipped otherwise).

    Returns a report dict: each check maps to {"checked": int,
    "violations": [...]}; a missing precondition marks the check skipped.
    """
    report: dict[str, dict] = {}

    odd_violations = []
    odd_checked = 0
    even_violations = []
    even_checked = 0
    at = dict(zip(downstairs.ids, range(len(downstairs.ids))))
    for v, down in sorted(cg.downstairs.items()):
        p = at[down]
        mult, b = downstairs.mult[p], downstairs.c1_coeff[p]
        in_w = v in cd.w
        if mult % 2 == 1:
            odd_checked += 1
            if in_w:
                odd_violations.append(
                    {"vertex": v, "downstairs": down, "mult": mult}
                )
        else:
            even_checked += 1
            expected = (mult % 4 == 2 and b % 2 == 0) or (
                mult % 4 == 0 and b % 2 == 1
            )
            if in_w != expected:
                even_violations.append(
                    {"vertex": v, "downstairs": down, "mult": mult,
                     "b": b, "in_w": in_w}
                )
    report["odd_mult_not_in_w"] = {
        "checked": odd_checked, "violations": odd_violations,
    }
    report["even_mult_parity_law"] = {
        "checked": even_checked, "violations": even_violations,
    }

    m, n = cg.m, cg.n
    one_even = (m % 2 == 0) != (n % 2 == 0)
    if one_even and cg.e0_lift is not None:
        even_exp = m if m % 2 == 0 else n
        in_w = cg.e0_lift in cd.w
        expected = even_exp % 4 == 2
        violations = []
        if in_w != expected:
            violations.append(
                {"vertex": cg.e0_lift, "even_exponent": even_exp, "in_w": in_w}
            )
        report["rupture_membership"] = {"checked": 1, "violations": violations}
    else:
        report["rupture_membership"] = {"checked": 0, "violations": []}
    return report
