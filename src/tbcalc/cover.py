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
z = 0 locus, so the upstairs graph carries no arrows.
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
from .embedres import ARROW_MULT, build_gamma_f, c1_coefficients, separate_odd_odd
from .graph import DecoratedGraph, Graph, VertexMap, arms, blow_down_minimize

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

    The fields cannot be rebound. A stage builds a cover graph on a
    DecoratedGraph with dict maps; freeze() turns it into the read-only
    value build_cover caches, and copy() back into a builder.
    """

    graph: Graph
    m: int
    n: int
    e0_lift: Optional[int]
    deck: Mapping[int, int]
    downstairs: Mapping[int, int]
    conj: Mapping[int, int] = field(default_factory=dict)
    sign: Optional[str] = None

    def copy(self) -> "CoverGraph":
        """A builder copy: a DecoratedGraph and dict maps, free to edit."""
        return CoverGraph(
            graph=self.graph.copy(), m=self.m, n=self.n,
            e0_lift=self.e0_lift, deck=dict(self.deck),
            downstairs=dict(self.downstairs), conj=dict(self.conj),
            sign=self.sign,
        )

    def freeze(self) -> "CoverGraph":
        """The read-only form: the graph frozen and walked from e0_lift when
        it survives, deck and downstairs as columns of it."""
        g = self.graph.freeze(root=self.e0_lift)
        return CoverGraph(
            graph=g, m=self.m, n=self.n, e0_lift=self.e0_lift,
            deck=VertexMap(g, (self.deck[v] for v in g.ids)),
            downstairs=VertexMap(g, (self.downstairs[v] for v in g.ids)),
            conj=MappingProxyType(dict(self.conj)) if self.conj else _NO_CONJ,
            sign=self.sign,
        )

    @cached_property
    def characteristic(self) -> CharacteristicData:
        """The adjunction solution, solved on first use and kept. A real
        structure is a vertex set (real_locus), so both signs share it.
        copy() drops it."""
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
    gamma_f: Graph
    gamma_f_prime: Graph
    rupture: int
    lift: CoverGraph
    minimal: CoverGraph


def _odd_incidence_count(gp: Graph, v: int) -> int:
    count = sum(1 for u in gp.neighbors(v) if gp.vertices[u].mult % 2 == 1)
    count += gp.arrow_count(v) * (ARROW_MULT % 2)
    return count


def lift_double_cover(gp: Graph, rupture: int, m: int, n: int) -> CoverGraph:
    """Lift the separated graph through the branched double cover.

    Over a downstairs edge between two doubled curves the lifts are joined
    copy to copy; the crossed choice gives an isomorphic graph, so every
    computed invariant is independent of it.
    """
    up = DecoratedGraph()
    lifts: dict[int, tuple[int, ...]] = {}
    deck: dict[int, int] = {}
    downstairs: dict[int, int] = {}
    for v in gp.vertex_ids():
        mult = gp.vertices[v].mult
        self_int = gp.vertices[v].self_int
        if mult is None:
            raise StructureMismatch(f"vertex {v} has no multiplicity")
        if mult % 2 == 1:
            if self_int % 2 != 0:
                raise OddSelfIntOnBranch(
                    f"odd-multiplicity vertex {v} has odd self-intersection "
                    f"{self_int}; the cover cannot be normalized by these rules"
                )
            a = up.add_vertex(self_int // 2)
            lifts[v] = (a,)
        else:
            count = _odd_incidence_count(gp, v)
            if count == 2:
                a = up.add_vertex(2 * self_int)
                lifts[v] = (a,)
            elif count == 0:
                a = up.add_vertex(self_int)
                b = up.add_vertex(self_int)
                lifts[v] = (a, b)
            else:
                raise BadOddNeighborCount(
                    f"even-multiplicity vertex {v} meets {count} odd components; "
                    "the balance law forces 0 or 2"
                )
        for w in lifts[v]:
            downstairs[w] = v
        if len(lifts[v]) == 2:
            deck[lifts[v][0]] = lifts[v][1]
            deck[lifts[v][1]] = lifts[v][0]
        else:
            deck[lifts[v][0]] = lifts[v][0]

    for u, v in gp.edges():
        lu, lv = lifts[u], lifts[v]
        if len(lu) == 1 and len(lv) == 1:
            odd_u = gp.vertices[u].mult % 2 == 1
            odd_v = gp.vertices[v].mult % 2 == 1
            if odd_u and odd_v:
                raise StructureMismatch(
                    f"odd-odd edge {u}-{v} survived separation"
                )
            if not odd_u and not odd_v:
                raise StructureMismatch(
                    f"adjacent even-multiplicity vertices {u}, {v} both lift "
                    "connectedly; their lifts would meet twice"
                )
            up.add_edge(lu[0], lv[0])
        elif len(lu) == 2 and len(lv) == 2:
            up.add_edge(lu[0], lv[0])
            up.add_edge(lu[1], lv[1])
        else:
            single = lu[0] if len(lu) == 1 else lv[0]
            for w in (lv if len(lu) == 1 else lu):
                up.add_edge(single, w)

    if len(up.edges()) != len(up.vertices) - 1 or not up.is_connected():
        raise StructureMismatch("lifted graph is not a tree")
    if len(lifts[rupture]) != 1:
        raise StructureMismatch("rupture vertex must have a unique lift")
    return CoverGraph(graph=up, m=m, n=n, e0_lift=lifts[rupture][0],
                      deck=deck, downstairs=downstairs)


def _downstairs_component_labels(
    gp: Graph, rupture: int, m: int, n: int
) -> dict[int, Optional[str]]:
    """Map each non-rupture vertex of Gamma'_f to its arm family.

    The component of Gamma'_f minus e_0 whose terminal curve has
    multiplicity m underlies the (n)-arms upstairs; multiplicity n
    underlies the (m)-arms. A third component (the moved branch
    intersection, present exactly when m and n are both odd) stays
    unlabeled.
    """
    labels: dict[int, Optional[str]] = {}
    for arm in arms(gp, rupture):
        terminal_mults = [
            gp.vertices[v].mult for v in arm.vertices if gp.degree(v) == 1
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


def label_arms(cg: CoverGraph, gp: Graph, m: int, n: int) -> CoverGraph:
    """Label the arms of e^0 on the fresh lift cg in place, assert the arm
    laws, and return cg.

    There are gcd(m,2) arms over the (n)-arm component, gcd(n,2) over the
    (m)-arm component, and e^0 has exactly 3 arms, each a bamboo. With one
    even exponent the deck-fixed curves (real_locus of conj_plus) must be
    the rupture curve and the arm named after the even exponent.
    """
    e0 = cg.e0_lift
    if e0 is None:
        raise StructureMismatch("cannot label arms without the rupture lift")
    rupture_down = cg.downstairs[e0]
    family_of_down = _downstairs_component_labels(gp, rupture_down, m, n)

    cg.graph.vertices[e0].arm_label = RUPTURE_LABEL
    expected = {"n_arm": math.gcd(m, 2), "m_arm": math.gcd(n, 2)}
    e0_arms = arms(cg.graph, e0)
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
        families = {family_of_down[cg.downstairs[v]] for v in arm.vertices}
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
        for v in arm.vertices:
            cg.graph.vertices[v].arm_label = f"{family}({index})"
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
    return cg


def minimize_and_label(cg: CoverGraph, rng=None) -> CoverGraph:
    """Blow the lift down to Gamma(m,n), carrying labels and provenance.

    cg must already carry label_arms' labels (the arm laws are provable on
    the lift); they survive on the vertices that remain. The deck map must
    restrict to the survivors; when e^0 itself gets contracted (small
    exponent pairs) e0_lift becomes None. When nothing blows down, cg
    itself is returned.
    """
    minimal_graph, removed = blow_down_minimize(cg.graph, rng=rng)
    if not removed:
        return cg
    gone = set(removed)
    survivors = set(minimal_graph.vertices)
    deck = {}
    for v in survivors:
        image = cg.deck[v]
        if image not in survivors:
            raise StructureMismatch(
                "deck transformation does not restrict to the minimal graph"
            )
        deck[v] = image
    out = CoverGraph(
        graph=minimal_graph, m=cg.m, n=cg.n,
        e0_lift=cg.e0_lift if cg.e0_lift not in gone else None,
        deck=deck,
        downstairs={v: cg.downstairs[v] for v in survivors},
    )
    if out.e0_lift is not None:
        e0_arms = arms(out.graph, out.e0_lift)
        if len(e0_arms) != 3 or not all(a.is_bamboo for a in e0_arms):
            raise StructureMismatch(
                "minimized rupture vertex lost its 3-bamboo-arm shape"
            )
    return out


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
    """A builder copy of cg marked with the real structure of the given
    sign: real flags from real_locus, conj fixing the real curves and
    acting as the deck transformation on the others."""
    real = real_locus(cg, sign)
    out = cg.copy()
    for v, data in out.graph.vertices.items():
        data.real = v in real
    return replace(out, sign=sign, conj={v: v if v in real else out.deck[v]
                                         for v in out.graph.vertices})


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

    The stages build on DecoratedGraphs; each distinct stage result is then
    frozen once, so the cached result holds only immutable values and
    writing to a cached graph raises. tb reads them as they are;
    mark_real_structure returns a marked builder copy. The blow-up traces
    are dropped once the c1 coefficients are read off.
    """
    gamma_f, trace_f = build_gamma_f(m, n)
    gamma_f_prime, trace = separate_odd_odd(gamma_f, trace_f)
    b = c1_coefficients(trace)
    for g in (gamma_f, gamma_f_prime):
        for v in g.vertex_ids():
            g.vertices[v].c1_coeff = b[v]
    lift = label_arms(lift_double_cover(gamma_f_prime, trace.rupture, m, n),
                      gamma_f_prime, m, n)
    minimal = minimize_and_label(lift)
    frozen_f, frozen_lift = gamma_f.freeze(), lift.freeze()
    return CoverData(
        m=m, n=n, gamma_f=frozen_f,
        gamma_f_prime=frozen_f if gamma_f_prime is gamma_f else gamma_f_prime.freeze(),
        rupture=trace.rupture, lift=frozen_lift,
        minimal=frozen_lift if minimal is lift else minimal.freeze(),
    )
