"""The resolution graph of the double cover x^m + y^n + z^2 = 0.

Lifts Gamma'_f (the odd-odd separated embedded resolution of the branch
curve) through the double cover branched over the odd-multiplicity
components, minimizes the result to Gamma(m,n), labels the arms of the
rupture vertex, and gives the real loci of conj_plus / conj_minus.

Lifting rules, per downstairs multiplicity:
  odd:   one curve upstairs, self-intersection halved;
  even, meeting exactly two odd-multiplicity components (arrows count):
         one curve upstairs, self-intersection doubled;
  even, meeting none: two disjoint curves, self-intersection unchanged,
         swapped by the deck transformation.
Any other odd-incidence count is an internal inconsistency (the balance
law forces 0 or 2). The branch curve itself lifts to the surface's own
z = 0 locus, so the upstairs graph carries no arrows. Every stage emits
frozen values and every result is one, marked graphs included.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Optional

from .charclass import CharacteristicData, canonical_coefficients
from .errors import (
    BadOddNeighborCount,
    OddSelfIntOnBranch,
    StructureMismatch,
)
from .embedres import ARROW_MULT, build_gamma_f, separate_odd_odd
from .graph import FrozenGraph, VertexMap, arms, blow_down_minimize

_NO_CONJ: Mapping[int, int] = MappingProxyType({})
SIGN_PLUS = "plus"
SIGN_MINUS = "minus"
RUPTURE_LABEL = "rupture"


@dataclass(frozen=True)
class CoverGraph:
    """An upstairs resolution graph with covering provenance.

    deck is the deck transformation of the double cover (identity on
    single lifts, swapping doubled pairs). conj is the relevant real
    structure's action on curves; it is empty until mark_real_structure
    chooses a sign, after which real vertices are exactly its fixed
    points. downstairs maps each vertex to the Gamma'_f curve below it;
    e0_lift is the lift of the rupture vertex e_0 when it survives.

    The fields cannot be rebound, and graph is a FrozenGraph. The stages
    emit read-only cover graphs, with deck and downstairs (and conj, once
    marked) as columns (VertexMap). A caller may build one with dict maps
    for tb_from_graph, freezing a builder once before handing it over.
    """

    graph: FrozenGraph
    m: int
    n: int
    e0_lift: Optional[int]
    deck: Mapping[int, int]
    downstairs: Mapping[int, int]
    conj: Mapping[int, int] = field(default_factory=dict)
    sign: Optional[str] = None

    @cached_property
    def characteristic(self) -> CharacteristicData:
        """The adjunction solution, solved on first use and kept. A real
        structure is a vertex set (real_locus), so both signs share it.
        A marked or otherwise replaced cover graph solves afresh."""
        return canonical_coefficients(self)

    def lifts_of(self, down_id: int) -> tuple[int, ...]:
        return tuple(sorted(v for v, d in self.downstairs.items() if d == down_id))


@dataclass(frozen=True)
class CoverData:
    """What later calls read of the pipeline for one exponent pair, as
    frozen values.

    rupture is the id of e_0 on gamma_f and gamma_f_prime. A stage that
    changes nothing hands on its input: gamma_f_prime is gamma_f when
    there is nothing to separate, and minimal is lift when nothing blows
    down.
    """

    m: int
    n: int
    gamma_f: FrozenGraph
    gamma_f_prime: FrozenGraph
    rupture: int
    lift: CoverGraph
    minimal: CoverGraph


def lift_double_cover(gp: FrozenGraph, rupture: int, m: int, n: int) -> CoverGraph:
    """Lift the separated graph through the branched double cover.

    Reads gp by position and returns the frozen lift, walked from
    e0_lift, with deck and downstairs as columns.
    Over a downstairs edge between two doubled curves the lifts are joined
    copy to copy; the crossed choice gives an isomorphic graph, so every
    computed invariant is independent of it.
    """
    ids, mult, adj, start = gp.ids, gp.mult, gp.adj, gp.adj_start
    if None in mult:
        raise StructureMismatch(f"vertex {ids[mult.index(None)]} has no multiplicity")
    odd = [value % 2 == 1 for value in mult]
    self_int, first, doubled, deck, downstairs = [], [], [], [], []
    for p, (v, value) in enumerate(zip(ids, gp.self_int)):
        a = len(self_int)
        first.append(a)
        if odd[p]:
            if value % 2 != 0:
                raise OddSelfIntOnBranch(
                    f"odd-multiplicity vertex {v} has odd self-intersection "
                    f"{value}; the cover cannot be normalized by these rules"
                )
            self_int.append(value // 2)
        else:
            count = sum(map(odd.__getitem__, adj[start[p]:start[p + 1]]))
            count += gp.arrows.count(v) * (ARROW_MULT % 2)
            if count == 2:
                self_int.append(2 * value)
            elif count == 0:
                self_int += (value, value)
            else:
                raise BadOddNeighborCount(
                    f"even-multiplicity vertex {v} meets {count} odd components; "
                    "the balance law forces 0 or 2"
                )
        doubled.append(len(self_int) - a == 2)
        deck += (a + 1, a) if doubled[p] else (a,)
        downstairs += (v,) * (len(self_int) - a)

    edges = []
    for p, q in gp._position_edges():
        a, b = first[p], first[q]
        if not doubled[p] and not doubled[q]:
            if odd[p] and odd[q]:
                raise StructureMismatch(
                    f"odd-odd edge {ids[p]}-{ids[q]} survived separation"
                )
            if not odd[p] and not odd[q]:
                raise StructureMismatch(
                    f"adjacent even-multiplicity vertices {ids[p]}, {ids[q]} both "
                    "lift connectedly; their lifts would meet twice"
                )
            edges.append((a, b))
        elif doubled[p] and doubled[q]:
            edges += ((a, b), (a + 1, b + 1))
        else:
            single, pair = (b, a) if doubled[p] else (a, b)
            edges += ((single, pair), (single, pair + 1))

    r = gp.pos(rupture)
    up = FrozenGraph.from_columns(self_int, edges, root=first[r])
    if len(edges) != len(self_int) - 1 or up.parent.count(-1) > 1:
        raise StructureMismatch("lifted graph is not a tree")
    if doubled[r]:
        raise StructureMismatch("rupture vertex must have a unique lift")
    return CoverGraph(graph=up, m=m, n=n, e0_lift=first[r],
                      deck=VertexMap(up, deck), downstairs=VertexMap(up, downstairs),
                      conj=_NO_CONJ)


def _downstairs_component_labels(
    gp: FrozenGraph, rupture: int, m: int, n: int
) -> dict[int, Optional[str]]:
    """Map each non-rupture vertex of Gamma'_f to its arm family.

    The component of Gamma'_f minus e_0 whose terminal curve has
    multiplicity m underlies the (n)-arms upstairs; multiplicity n
    underlies the (m)-arms. A third component (the moved branch
    intersection, present exactly when m and n are both odd) stays
    unlabeled.
    """
    start = gp.adj_start
    labels: dict[int, Optional[str]] = {}
    for arm in arms(gp, rupture):
        terminal_mults = [
            gp.mult[p] for p in map(gp.pos, arm.vertices) if start[p + 1] - start[p] == 1
        ]
        if m in terminal_mults:
            family: Optional[str] = "n_arm"
        elif n in terminal_mults:
            family = "m_arm"
        else:
            family = None
        for v in arm.vertices:
            labels[v] = family
    return labels


def label_arms(cg: CoverGraph, gp: FrozenGraph, m: int, n: int) -> CoverGraph:
    """The fresh lift cg with the arms of e^0 labelled in its arm_label
    column, after asserting the arm laws; cg itself is left as it is.

    There are gcd(m,2) arms over the (n)-arm component, gcd(n,2) over the
    (m)-arm component, and e^0 has exactly 3 arms, each a bamboo. With one
    even exponent the deck-fixed curves (real_locus of conj_plus) must be
    the rupture curve and the arm named after the even exponent.
    """
    g = cg.graph
    e0 = cg.e0_lift
    if e0 is None:
        raise StructureMismatch("cannot label arms without the rupture lift")
    below = dict(cg.downstairs.items())
    family_of_down = _downstairs_component_labels(gp, below[e0], m, n)

    labels = {e0: RUPTURE_LABEL}
    expected = {"n_arm": math.gcd(m, 2), "m_arm": math.gcd(n, 2)}
    e0_arms = arms(g, e0)
    if len(e0_arms) != 3:
        raise StructureMismatch(
            f"e^0 has {len(e0_arms)} arms, expected 3"
        )
    counts = {"n_arm": 0, "m_arm": 0, None: 0}
    named_real = {e0}
    even_family = "m_arm" if m % 2 == 0 else "n_arm"
    for arm in e0_arms:
        if not arm.is_bamboo:
            raise StructureMismatch("an arm of e^0 is not a bamboo")
        families = {family_of_down[below[v]] for v in arm.vertices}
        if len(families) != 1:
            raise StructureMismatch(
                "one upstairs arm mixes downstairs arm components"
            )
        family = families.pop()
        index = counts[family]
        counts[family] += 1
        if family is None:
            continue
        if family == even_family:
            named_real.update(arm.vertices)
        labels.update(dict.fromkeys(arm.vertices, f"{family}({index})"))
    for family, want in expected.items():
        if counts[family] != want:
            raise StructureMismatch(
                f"{counts[family]} {family} arms, expected {want}"
            )
    if counts[None] != (1 if m % 2 == 1 and n % 2 == 1 else 0):
        raise StructureMismatch("unexpected branch-side arm count")
    if (m + n) % 2 and named_real != {v for v, w in cg.deck.items() if v == w}:
        raise StructureMismatch(
            "real locus by arm naming disagrees with the deck-fixed locus"
        )
    column = tuple(labels.get(v, label) for v, label in zip(g.ids, g.arm_label))
    return replace(cg, graph=replace(g, arm_label=column))


def minimize_and_label(cg: CoverGraph, rng=None) -> CoverGraph:
    """Blow the lift down to Gamma(m,n), carrying labels and provenance.

    cg must already carry label_arms' labels (the arm laws are provable on
    the lift); they survive on the vertices that remain. The deck map must
    restrict to the survivors; when e^0 itself gets contracted (small
    exponent pairs) e0_lift becomes None. When nothing blows down, cg
    itself is returned; otherwise the minimal graph, walked from e0_lift
    when it survives, with the survivors' deck and downstairs as columns.
    """
    g, removed = blow_down_minimize(cg.graph, rng=rng)
    if not removed:
        return cg
    survivors = set(g.ids)
    deck, below = dict(cg.deck.items()), dict(cg.downstairs.items())
    if any(deck[v] not in survivors for v in survivors):
        raise StructureMismatch(
            "deck transformation does not restrict to the minimal graph"
        )
    e0 = cg.e0_lift if cg.e0_lift in survivors else None
    if e0 is not None:
        e0_arms = arms(g, e0)
        if len(e0_arms) != 3 or not all(a.is_bamboo for a in e0_arms):
            raise StructureMismatch(
                "minimized rupture vertex lost its 3-bamboo-arm shape"
            )
    return replace(cg, graph=g, e0_lift=e0, deck=VertexMap(g, map(deck.__getitem__, g.ids)),
                   downstairs=VertexMap(g, map(below.__getitem__, g.ids)))


def real_locus(cg: CoverGraph, sign: str) -> frozenset[int]:
    """The curves fixed by the real structure of the given sign.

    conj_minus fixes every exceptional curve, as does either structure
    when both exponents are odd. For conj_plus with one even exponent it is
    the deck-fixed curves, which label_arms checks to be the rupture curve
    and the arm named after the even exponent; the other two are swapped.
    """
    if sign not in (SIGN_PLUS, SIGN_MINUS):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    if sign == SIGN_MINUS or (cg.m % 2 == 1 and cg.n % 2 == 1):
        return frozenset(cg.graph.vertices)
    return frozenset(v for v, w in cg.deck.items() if v == w)


def mark_real_structure(cg: CoverGraph, sign: str) -> CoverGraph:
    """cg marked with the real structure of the given sign, as a new frozen
    value: the real column from real_locus, conj fixing the real curves and
    acting as the deck transformation on the others. cg is left as it is."""
    real = real_locus(cg, sign)
    g = cg.graph
    marked = replace(g, real=tuple(v in real for v in g.ids))
    conj = VertexMap(marked, (v if v in real else cg.deck[v] for v in g.ids))
    return replace(cg, graph=marked, conj=conj, sign=sign)


def has_conj_adjacent_pair(cg: CoverGraph) -> bool:
    """True when some curve meets its own conjugate.

    In that configuration the intersection point count of conjugate pairs
    on the graph no longer matches the geometric count used by the weight
    bookkeeping, so callers evaluate on the unminimized lift instead.
    """
    conj = dict((cg.conj or cg.deck).items())
    return any(conj.get(u) == v for u, v in cg.graph.edges())


@lru_cache(maxsize=None)
def build_cover(m: int, n: int) -> CoverData:
    """Run the full graph pipeline for x^m + y^n + z^2.

    Every stage emits a frozen value, so the cached result holds only
    immutable values, no builder is made, and writing to a cached graph
    raises. tb reads the values as they are; mark_real_structure returns a
    new marked value. The blow-up traces are dropped once the c1 coefficients
    are read off.
    """
    gamma_f, trace_f = build_gamma_f(m, n)
    gamma_f_prime, trace = separate_odd_odd(gamma_f, trace_f)
    lift = label_arms(lift_double_cover(gamma_f_prime, trace.rupture, m, n),
                      gamma_f_prime, m, n)
    return CoverData(m=m, n=n, gamma_f=gamma_f, gamma_f_prime=gamma_f_prime,
                     rupture=trace.rupture, lift=lift, minimal=minimize_and_label(lift))
