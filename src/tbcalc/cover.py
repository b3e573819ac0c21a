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
from collections.abc import Iterator, Mapping
from functools import cached_property, lru_cache
from itertools import chain, compress, islice
from operator import eq
from types import MappingProxyType
from typing import NamedTuple, Optional

from .charclass import CharacteristicData, canonical_coefficients
from .errors import (
    BadOddNeighborCount,
    OddSelfIntOnBranch,
    StructureMismatch,
)
from .embedres import ARROW_MULT, build_gamma_f, separate_odd_odd
from .graph import (
    FrozenGraph,
    VertexMap,
    _arm_positions,
    _column,
    _degrees,
    _neighbour_sums,
    arms,
    blow_down_minimize,
)

_NO_CONJ: Mapping[int, int] = MappingProxyType({})
_NOBODY = object()  # the parent of a root
SIGN_PLUS = "plus"
SIGN_MINUS = "minus"
RUPTURE_LABEL = "rupture"


class _CoverFields(NamedTuple):
    graph: FrozenGraph
    m: int
    n: int
    e0_lift: Optional[int]
    deck: Mapping[int, int]
    downstairs: Mapping[int, int]
    conj: Mapping[int, int] = _NO_CONJ
    sign: Optional[str] = None


class CoverGraph(_CoverFields):
    """An upstairs resolution graph with covering provenance.

    deck is the deck transformation of the double cover (identity on
    single lifts, swapping doubled pairs). conj is the relevant real
    structure's action on curves; it is empty until mark_real_structure
    chooses a sign, after which real vertices are exactly its fixed
    points. downstairs maps each vertex to the Gamma'_f curve below it;
    e0_lift is the lift of the rupture vertex e_0 when it survives.

    A NamedTuple whose one extra attribute is the cached characteristic;
    no attribute can be assigned, and graph is a FrozenGraph. The stages
    emit read-only cover graphs, with deck and downstairs (and conj, once
    marked) as columns (VertexMap). A caller may build one with dict maps
    for tb_from_graph, freezing a builder once before handing it over.
    """

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r} of a CoverGraph")

    @cached_property
    def characteristic(self) -> CharacteristicData:
        """The adjunction solution, solved on first use and kept. A real
        structure is a vertex set (real_locus), so both signs share it.
        A marked or otherwise replaced cover graph solves afresh."""
        return canonical_coefficients(self)


class CoverData(NamedTuple):
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
    e0_lift, with deck and downstairs as columns. The lifts of each curve
    take the next positions in gp's position order, so the lifted
    neighbour lists come out sorted and are built directly.
    Over a downstairs edge between two doubled curves the lifts are joined
    copy to copy; the crossed choice gives an isomorphic graph, so every
    computed invariant is independent of it.
    """
    ids, mult, adj, start = gp.ids, gp.mult, gp.adj, gp.adj_start
    if None in mult:
        raise StructureMismatch(f"vertex {ids[mult.index(None)]} has no multiplicity")
    odd = [value % 2 == 1 for value in mult]
    odd_near = _neighbour_sums(gp, odd)
    for v in gp.arrows:
        odd_near[gp.pos(v)] += ARROW_MULT % 2
    # kind[p]: 1 for the one lift of an odd curve, 0 for the one lift of an
    # even curve, 2 for the two lifts of an even curve; the lifts of
    # position p are the positions first[p] to end[p] - 1.
    self_int, kind, first, deck, downstairs = [], [], [], [], []
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
            kind.append(1)
        else:
            count = odd_near[p]
            if count == 2:
                self_int.append(2 * value)
                kind.append(0)
            elif count == 0:
                self_int += (value, value)
                kind.append(2)
                deck.append(a + 1)
                downstairs.append(v)
            else:
                raise BadOddNeighborCount(
                    f"even-multiplicity vertex {v} meets {count} odd components; "
                    "the balance law forces 0 or 2"
                )
        deck.append(a)
        downstairs.append(v)

    # A single lift meets every lift of each neighbour; copy c of a doubled
    # curve meets copy c of each doubled neighbour and the single lift of
    # each other one. Two single lifts of one kind must not meet: odd-odd
    # edges are separated, and two even single lifts would meet twice.
    end = first[1:] + [len(self_int)]
    last = list(map((-1).__add__, end))
    up_adj: list[int] = []
    up_start = [0]
    for p, near in enumerate(map(adj.__getitem__, map(slice, start, islice(start, 1, None)))):
        if kind[p] == 2:
            up_adj += map(first.__getitem__, near)
            up_start.append(len(up_adj))
            up_adj += map(last.__getitem__, near)
        elif kind[p] in map(kind.__getitem__, near):
            q = next(q for q in near if kind[q] == kind[p])
            if odd[p]:
                raise StructureMismatch(f"odd-odd edge {ids[p]}-{ids[q]} survived separation")
            raise StructureMismatch(
                f"adjacent even-multiplicity vertices {ids[p]}, {ids[q]} both "
                "lift connectedly; their lifts would meet twice"
            )
        else:
            up_adj += chain.from_iterable(map(range, map(first.__getitem__, near),
                                              map(end.__getitem__, near)))
        up_start.append(len(up_adj))

    r = gp.pos(rupture)
    up = FrozenGraph._from_adjacency(self_int, up_start, up_adj, root=first[r])
    if len(up_adj) != 2 * (len(self_int) - 1) or up.parent.count(-1) > 1:
        raise StructureMismatch("lifted graph is not a tree")
    if kind[r] == 2:
        raise StructureMismatch("rupture vertex must have a unique lift")
    return CoverGraph(graph=up, m=m, n=n, e0_lift=first[r],
                      deck=VertexMap(up, deck), downstairs=VertexMap(up, downstairs))


def _downstairs_component_labels(
    gp: FrozenGraph, rupture: int, m: int, n: int
) -> dict[int, Optional[str]]:
    """Map each non-rupture vertex of Gamma'_f to its arm family.

    The component of Gamma'_f minus e_0 whose terminal curve has
    multiplicity m underlies the (n)-arms upstairs; multiplicity n
    underlies the (m)-arms. A third component (the moved branch
    intersection, present exactly when m and n are both odd) stays
    unlabeled. Each component is read once, by _arm_positions.
    """
    ids, mult, degree = gp.ids, gp.mult, _degrees(gp)
    labels: dict[int, Optional[str]] = {}
    for component in _arm_positions(gp, gp.pos(rupture)):
        terminal_mults = {mult[p] for p in component if degree[p] == 1}
        if m in terminal_mults:
            family: Optional[str] = "n_arm"
        elif n in terminal_mults:
            family = "m_arm"
        else:
            family = None
        labels.update(dict.fromkeys(map(ids.__getitem__, component), family))
    return labels


def label_arms(cg: CoverGraph, gp: FrozenGraph) -> CoverGraph:
    """The fresh lift cg of gp with the arms of e^0 labelled in its
    arm_label column, after asserting the arm laws; cg itself is left as it
    is. The exponents are cg.m and cg.n.

    There are gcd(m,2) arms over the (n)-arm component, gcd(n,2) over the
    (m)-arm component, and e^0 has exactly 3 arms, each a bamboo. With one
    even exponent the deck-fixed curves (real_locus of conj_plus) must be
    the rupture curve and the arm named after the even exponent.
    """
    g, m, n = cg.graph, cg.m, cg.n
    e0 = cg.e0_lift
    if e0 is None:
        raise StructureMismatch("cannot label arms without the rupture lift")
    below = _column(g, cg.downstairs)
    family_of_down = _downstairs_component_labels(gp, below[g.pos(e0)], m, n)
    family_of = dict(zip(g.ids, map(family_of_down.get, below)))

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
        families = set(map(family_of.__getitem__, arm.vertices))
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
    if (m + n) % 2 and named_real != set(_fixed(g, cg.deck)):
        raise StructureMismatch(
            "real locus by arm naming disagrees with the deck-fixed locus"
        )
    column = tuple(map(labels.get, g.ids, g.arm_label))
    return cg._replace(graph=g._replace(arm_label=column))


def minimize_and_label(cg: CoverGraph) -> CoverGraph:
    """Blow the lift down to Gamma(m,n), carrying labels and provenance.

    cg must already carry label_arms' labels (the arm laws are provable on
    the lift); they survive on the vertices that remain. The deck map must
    restrict to the survivors; when e^0 itself gets contracted (small
    exponent pairs) e0_lift becomes None. When nothing blows down, cg
    itself is returned; otherwise the minimal graph, walked from e0_lift
    when it survives, with the survivors' deck and downstairs as columns.
    """
    g, removed = blow_down_minimize(cg.graph)
    if not removed:
        return cg
    lift, survivors = cg.graph, set(g.ids)
    keep = list(map(survivors.__contains__, lift.ids))
    deck = list(compress(_column(lift, cg.deck), keep))
    below = list(compress(_column(lift, cg.downstairs), keep))
    if not survivors.issuperset(deck):
        raise StructureMismatch(
            "deck transformation does not restrict to the minimal graph"
        )
    e0 = cg.e0_lift if cg.e0_lift in survivors else None
    if e0 is not None:
        # On the tree g, e^0 has 3 bamboo arms when it meets 3 curves and
        # no other vertex meets 3 or more, arrows included.
        meets, p0 = _degrees(g), g.pos(e0)
        arm_count, meets[p0] = meets[p0], 0
        for p in map(g.pos, g.arrows):
            meets[p] += 1
        if arm_count != 3 or max(meets) >= 3:
            raise StructureMismatch(
                "minimized rupture vertex lost its 3-bamboo-arm shape"
            )
    return cg._replace(graph=g, e0_lift=e0, deck=VertexMap(g, deck),
                       downstairs=VertexMap(g, below))


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
        return frozenset(cg.graph.ids)
    return frozenset(_fixed(cg.graph, cg.deck))


def _fixed(g: FrozenGraph, deck: Mapping[int, int]) -> Iterator[int]:
    """The vertex ids v of g with deck[v] == v, in id order."""
    return compress(g.ids, map(eq, g.ids, _column(g, deck)))


def mark_real_structure(cg: CoverGraph, sign: str) -> CoverGraph:
    """cg marked with the real structure of the given sign, as a new frozen
    value: the real column from real_locus, conj fixing the real curves and
    acting as the deck transformation on the others. cg is left as it is."""
    real = real_locus(cg, sign)
    g = cg.graph
    marked = g._replace(real=tuple(map(real.__contains__, g.ids)))
    conj = VertexMap(marked, (v if fixed else w for v, fixed, w
                              in zip(g.ids, marked.real, _column(g, cg.deck))))
    return cg._replace(graph=marked, conj=conj, sign=sign)


def has_conj_adjacent_pair(cg: CoverGraph) -> bool:
    """True when some curve meets its own conjugate.

    In that configuration the intersection point count of conjugate pairs
    on the graph no longer matches the geometric count used by the weight
    bookkeeping, so callers evaluate on the unminimized lift instead.
    cg.graph is a tree, so every edge joins a vertex to its parent in the
    stored walk, and conj (or deck, unmarked) is read as a column.
    """
    g = cg.graph
    conj = _column(g, cg.conj or cg.deck)
    above = (*g.ids, _NOBODY).__getitem__
    return (any(map(eq, conj, map(above, g.parent)))
            or any(map(eq, map((*conj, _NOBODY).__getitem__, g.parent), g.ids)))


@lru_cache(maxsize=1024, typed=True)
def build_cover(m: int, n: int) -> CoverData:
    """Run the full graph pipeline for x^m + y^n + z^2.

    Every stage emits a frozen value, so the cached result holds only
    immutable values, no builder is made, and writing to a cached graph
    raises. The cache keeps the 1,024 most recently used pairs. tb reads
    the values as they are; mark_real_structure returns a new marked
    value. Of the blow-up trace only the rupture id is kept: separation
    leaves e_0 where it is.
    """
    gamma_f, trace = build_gamma_f(m, n)
    gamma_f_prime = separate_odd_odd(gamma_f)
    lift = label_arms(lift_double_cover(gamma_f_prime, trace.rupture, m, n), gamma_f_prime)
    return CoverData(m=m, n=n, gamma_f=gamma_f, gamma_f_prime=gamma_f_prime,
                     rupture=trace.rupture, lift=lift, minimal=minimize_and_label(lift))
