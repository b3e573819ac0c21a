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

Swapping x and y changes neither the surface nor its graphs, only which
arms are named after which exponent, so build_cover runs the stages once
per unordered pair, on m < n, and hands (n, m) a view of those values
with the arm families renamed; tb reads the key with m < n.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from functools import cached_property, lru_cache
from itertools import accumulate, chain, compress, islice
from operator import eq
from types import MappingProxyType
from typing import NamedTuple, Optional

from .charclass import CharacteristicData, canonical_coefficients, pulled_back_characteristic
from .errors import (
    BadExponents,
    BadOddNeighborCount,
    OddSelfIntOnBranch,
    StructureMismatch,
)
from .embedres import ARROW_MULT, build_gamma_f, euclid_data, separate_odd_odd
from .graph import (
    FrozenGraph,
    VertexMap,
    _arm_positions,
    _column,
    _degrees,
    _neighbour_sums,
    _numbered_by_position,
    arms,
    blow_down_minimize,
)

_NO_CONJ: Mapping[int, int] = MappingProxyType({})
SIGN_PLUS = "plus"
SIGN_MINUS = "minus"
RUPTURE_LABEL = "rupture"
# How many curves lift each kind of Gamma'_f curve (lift_double_cover).
_LIFT_COUNT = (1, 1, 2, 1)


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

    A NamedTuple whose characteristic is cached on first use, or given at
    build where curves blew down; no attribute can be assigned, and graph
    is a FrozenGraph. characteristic, the one value in the instance dict,
    reads neither arm_label nor the exponents' order, so the swapped pair's
    view shares that dict. The stages emit read-only cover graphs, with deck
    and downstairs (and conj, once marked) as columns (VertexMap). A
    caller may build one with dict maps for tb_from_graph, freezing a
    builder once before handing it over.
    """

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r} of a CoverGraph")

    @cached_property
    def characteristic(self) -> CharacteristicData:
        """The adjunction solution, solved on first use and kept unless
        minimize_and_label gave it. Marking leaves the adjunction system as it
        is, so both signs share the unmarked graph's; a marked or otherwise
        replaced cover graph solves afresh."""
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
    take the next positions in gp's position order. Each curve's kind,
    read off the odd counts, fixes how many lifts it has, so where every
    lift goes is known before one loop over gp's positions writes each
    lifted neighbour list, sorted, and every column.
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
    # even curve meeting two odd ones, 2 for the two lifts of an even curve
    # meeting none, and 3 for an even curve the loop refuses. The lifts of
    # position p are the positions first[p] to last[p]. Each neighbour slot
    # of gp has its own to_first, to_last and near_kind entry, so that the
    # loop slices them.
    kind = [1 if o else 0 if c == 2 else 2 if c == 0 else 3 for o, c in zip(odd, odd_near)]
    first = list(accumulate(map(_LIFT_COUNT.__getitem__, kind), initial=0))
    last = list(map((-1).__add__, islice(first, 1, None)))
    to_first = list(map(first.__getitem__, adj))
    to_last = list(map(last.__getitem__, adj))
    near_kind = list(map(kind.__getitem__, adj))

    # A single lift meets every lift of each neighbour; copy c of a doubled
    # curve meets copy c of each doubled neighbour and the single lift of
    # each other one. Two single lifts of one kind must not meet: odd-odd
    # edges are separated, and two even single lifts would meet twice.
    self_int: list[int] = []
    deck: list[int] = []
    downstairs: list[int] = []
    up_adj: list[int] = []
    up_start = [0]
    for v, value, own, a, s, e in zip(ids, gp.self_int, kind, first,
                                      start, islice(start, 1, None)):
        if own == 2:
            self_int += (value, value)
            deck += (a + 1, a)
            downstairs += (v, v)
            up_adj += to_first[s:e]
            up_start.append(len(up_adj))
            up_adj += to_last[s:e]
        else:
            if own == 1:
                if value % 2 != 0:
                    raise OddSelfIntOnBranch(
                        f"odd-multiplicity vertex {v} has odd self-intersection "
                        f"{value}; the cover cannot be normalized by these rules"
                    )
                self_int.append(value // 2)
            elif own == 0:
                self_int.append(2 * value)
            else:
                raise BadOddNeighborCount(
                    f"even-multiplicity vertex {v} meets {odd_near[gp.pos(v)]} odd "
                    "components; the balance law forces 0 or 2"
                )
            kinds = near_kind[s:e]
            if own in kinds:
                q = adj[s + kinds.index(own)]
                if own:
                    raise StructureMismatch(f"odd-odd edge {v}-{ids[q]} survived separation")
                raise StructureMismatch(
                    f"adjacent even-multiplicity vertices {v}, {ids[q]} both "
                    "lift connectedly; their lifts would meet twice"
                )
            deck.append(a)
            downstairs.append(v)
            if 2 in kinds:
                up_adj += chain.from_iterable(map(range, to_first[s:e],
                                                  map((1).__add__, to_last[s:e])))
            else:
                up_adj += to_first[s:e]
        up_start.append(len(up_adj))

    r = gp.pos(rupture)
    up = FrozenGraph._from_adjacency(self_int, up_start, up_adj, root=first[r])
    if len(up_adj) != 2 * (len(self_int) - 1) or up.parent.count(-1) > 1:
        raise StructureMismatch("lifted graph is not a tree")
    if kind[r] == 2:
        raise StructureMismatch("rupture vertex must have a unique lift")
    return CoverGraph(graph=up, m=m, n=n, e0_lift=first[r],
                      deck=VertexMap(up, deck), downstairs=VertexMap(up, downstairs))


def _downstairs_families(gp: FrozenGraph, r: int, m: int, n: int) -> list[Optional[str]]:
    """The arm family of each position of Gamma'_f, None at the rupture
    position r.

    The component of Gamma'_f minus e_0 whose terminal curve has
    multiplicity m underlies the (n)-arms upstairs; multiplicity n
    underlies the (m)-arms. A third component (the moved branch
    intersection, present exactly when m and n are both odd) stays
    unlabeled. Each component is read once, by _arm_positions.
    """
    mult, degree = gp.mult, _degrees(gp)
    families: list[Optional[str]] = [None] * len(mult)
    for component in _arm_positions(gp, r):
        terminal_mults = {mult[p] for p in component if degree[p] == 1}
        family = "n_arm" if m in terminal_mults else "m_arm" if n in terminal_mults else None
        for p in component:
            families[p] = family
    return families


def label_arms(cg: CoverGraph, gp: FrozenGraph) -> CoverGraph:
    """The fresh lift cg of gp with the arms of e^0 labelled in its
    arm_label column, after asserting the arm laws; cg itself is left as it
    is. The exponents are cg.m and cg.n.

    There are gcd(m,2) arms over the (n)-arm component, gcd(n,2) over the
    (m)-arm component, and e^0 has exactly 3 arms, each a bamboo. With one
    even exponent the deck-fixed curves (the real column of conj_plus) must
    be the rupture curve and the arm named after the even exponent.
    The pipeline numbers the curves of gp and of its lift 0 .. V-1, so an
    id is its position: the families, the labels and the curves named real
    are kept as lists by position, over the one read of e^0's arms.
    """
    g, m, n = cg.graph, cg.m, cg.n
    e0 = cg.e0_lift
    if e0 is None:
        raise StructureMismatch("cannot label arms without the rupture lift")
    if not (_numbered_by_position(g) and _numbered_by_position(gp)):
        raise StructureMismatch("label_arms needs graphs whose ids are their positions")
    below = _column(g, cg.downstairs)
    family_below = _downstairs_families(gp, below[e0], m, n)

    e0_arms = arms(g, e0)
    if len(e0_arms) != 3:
        raise StructureMismatch(
            f"e^0 has {len(e0_arms)} arms, expected 3"
        )
    labels = list(g.arm_label)
    labels[e0] = RUPTURE_LABEL
    named_real = [False] * len(labels)
    named_real[e0] = True
    expected = {"n_arm": math.gcd(m, 2), "m_arm": math.gcd(n, 2)}
    counts = {"n_arm": 0, "m_arm": 0, None: 0}
    even_family = "m_arm" if m % 2 == 0 else "n_arm"
    for arm in e0_arms:
        if not arm.is_bamboo:
            raise StructureMismatch("an arm of e^0 is not a bamboo")
        families = set(map(family_below.__getitem__, map(below.__getitem__, arm.vertices)))
        if len(families) != 1:
            raise StructureMismatch(
                "one upstairs arm mixes downstairs arm components"
            )
        family = families.pop()
        index = counts[family]
        counts[family] += 1
        if family is None:
            continue
        label = f"{family}({index})"
        for p in arm.vertices:
            labels[p] = label
        if family == even_family:
            for p in arm.vertices:
                named_real[p] = True
    # With 3 arms these counts leave 3 - gcd(m,2) - gcd(n,2) branch-side
    # arms: one when m and n are both odd, else none.
    for family, want in expected.items():
        if counts[family] != want:
            raise StructureMismatch(
                f"{counts[family]} {family} arms, expected {want}"
            )
    if (m + n) % 2 and tuple(named_real) != _real_column(cg, SIGN_PLUS):
        raise StructureMismatch(
            "real locus by arm naming disagrees with the deck-fixed locus"
        )
    return cg._replace(graph=g._replace(arm_label=tuple(labels)))


def minimize_and_label(cg: CoverGraph, gp: FrozenGraph) -> CoverGraph:
    """Blow the lift cg down to Gamma(m,n), carrying labels and provenance.

    cg must already carry label_arms' labels (the arm laws are provable on
    the lift); they survive on the vertices that remain. label_arms also
    makes the lift's ids its positions, so the removed ids mark the kept
    positions in one mask, through which the deck map must restrict to the
    survivors; when e^0 itself gets contracted (small exponent pairs)
    e0_lift becomes None. When nothing blows down, cg itself is returned;
    otherwise the minimal graph, walked from e0_lift when it survives, with
    the survivors' deck and downstairs as columns, and with its
    characteristic read off gp, the Gamma'_f below cg, and certified
    (pulled_back_characteristic): it holds no reference to cg.
    """
    g, removed = blow_down_minimize(cg.graph)
    if not removed:
        return cg
    lift = cg.graph
    if not _numbered_by_position(lift):
        raise StructureMismatch("minimize_and_label needs a lift whose ids are its positions")
    keep = [True] * len(lift.ids)
    for v in removed:
        keep[v] = False
    deck = list(compress(_column(lift, cg.deck), keep))
    below = compress(_column(lift, cg.downstairs), keep)
    if not all(map(keep.__getitem__, deck)):
        raise StructureMismatch(
            "deck transformation does not restrict to the minimal graph"
        )
    e0 = cg.e0_lift
    if e0 is not None and not keep[e0]:
        e0 = None
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
    minimal = cg._replace(graph=g, e0_lift=e0, deck=VertexMap(g, deck),
                          downstairs=VertexMap(g, below))
    vars(minimal)["characteristic"] = pulled_back_characteristic(minimal, gp)
    return minimal


def _require_sign(sign: str) -> None:
    """Refuse a sign that names no real structure."""
    if sign not in (SIGN_PLUS, SIGN_MINUS):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")


def _real_column(cg: CoverGraph, sign: str) -> tuple[bool, ...]:
    """Whether the real structure of the given sign fixes each curve, in
    position order: conj_minus fixes every curve, as does either structure
    when both exponents are odd; conj_plus with one even exponent fixes the
    deck-fixed curves, which label_arms checks to be the rupture curve and
    the arm named after the even exponent (the other two are swapped)."""
    _require_sign(sign)
    if sign == SIGN_MINUS or (cg.m % 2 == 1 and cg.n % 2 == 1):
        return (True,) * len(cg.graph.ids)
    return tuple(map(eq, cg.graph.ids, _column(cg.graph, cg.deck)))


def real_locus(cg: CoverGraph, sign: str) -> frozenset[int]:
    """The ids of the curves fixed by the real structure of the given sign."""
    return frozenset(compress(cg.graph.ids, _real_column(cg, sign)))


def mark_real_structure(cg: CoverGraph, sign: str) -> CoverGraph:
    """cg marked with the real structure of the given sign, as a new frozen
    value: the real column, and conj as the deck column when some curve is
    imaginary (the real curves are then the deck-fixed ones), else the
    identity. cg is left as it is."""
    real = _real_column(cg, sign)
    g = cg.graph
    marked = g._replace(real=real)
    conj = VertexMap(marked, g.ids if all(real) else _column(g, cg.deck))
    return cg._replace(graph=marked, conj=conj, sign=sign)


@lru_cache(maxsize=1024, typed=True)
def build_cover(m: int, n: int) -> CoverData:
    """Run the full graph pipeline for x^m + y^n + z^2.

    Every stage emits a frozen value, so the cached result holds only
    immutable values, no builder is made, and writing to a cached graph
    raises. The cache keeps the 1,024 most recently used keys, (m, n) and
    (n, m) counted apart. tb reads the values as they are;
    mark_real_structure returns a new marked value. build_gamma_f hands on
    the id of e_0 with Gamma_f, and separation leaves e_0 where it is.

    The pipeline runs once per unordered pair, on m < n: swapping x and y
    leaves the surface and every graph as they are. So once the exponents
    pass euclid_data in the caller's order, the result for m > n is a view
    of (n, m), m and n swapped and the arm families renamed (_transposed).
    For int exponents with m <= n the refusal is build_gamma_f's own
    euclid_data, which runs first and computes the pair's one chain.
    """
    if not (isinstance(m, int) and isinstance(n, int) and m <= n):
        euclid_data(m, n)  # passes only int exponents, so here m > n
        return _transposed(build_cover(n, m))
    gamma_f, rupture = build_gamma_f(m, n)
    gamma_f_prime = separate_odd_odd(gamma_f)
    lift = label_arms(lift_double_cover(gamma_f_prime, rupture, m, n), gamma_f_prime)
    return CoverData(m=m, n=n, gamma_f=gamma_f, gamma_f_prime=gamma_f_prime, rupture=rupture,
                     lift=lift, minimal=minimize_and_label(lift, gamma_f_prime))


def _transposed(cover: CoverData) -> CoverData:
    """cover for the exponents swapped: each n_arm label becomes the m_arm
    label of the same index and back, one new string per distinct label,
    and every other value is cover's own, each cover graph's instance dict
    included, so one solve serves both pairs in either order. minimal is
    lift, and gamma_f_prime is gamma_f, exactly when they are in cover."""
    labels = {label: label if label in (None, RUPTURE_LABEL) else
              ("m_arm" if label.startswith("n_arm") else "n_arm") + label[5:]
              for label in set(cover.lift.graph.arm_label)}

    def swap(cg: CoverGraph) -> CoverGraph:
        g = cg.graph
        out = cg._replace(graph=g._replace(arm_label=tuple(map(labels.__getitem__, g.arm_label))),
                          m=cg.n, n=cg.m)
        object.__setattr__(out, "__dict__", vars(cg))
        return out

    lift = swap(cover.lift)
    minimal = lift if cover.minimal is cover.lift else swap(cover.minimal)
    return cover._replace(m=cover.n, n=cover.m, lift=lift, minimal=minimal)


def _cover(m: int, n: int) -> CoverData:
    """build_cover(m, n), a non-int exponent refused by euclid_data before
    the cache hashes it, where an unhashable one raises TypeError."""
    if not (isinstance(m, int) and isinstance(n, int)):
        euclid_data(m, n)
    return build_cover(m, n)


def _ordered_cover(m: int, n: int) -> CoverData:
    """The cover tb reads: for int m > n that of (n, m), which differs only
    in arm labels; if it refuses, build_cover(m, n) refuses too (the laws
    are symmetric) and words it as given."""
    if isinstance(m, int) and isinstance(n, int):
        if m > n:
            try:
                return build_cover(n, m)
            except BadExponents:
                pass
        return build_cover(m, n)
    return _cover(m, n)
