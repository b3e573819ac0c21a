"""Thurston-Bennequin invariants of the real links of x^m + y^n +/- z^2.

The invariant is evaluated on a resolution graph with its real column as

    tb = N - 1 + sum over e in W_R of n'_e

where N counts real vertices, W_R is the real part of the characteristic
set, and n'_e corrects the self-intersection of e by the weights of its
fully imaginary arms. tb and tb_from_graph share one assembly, which
takes the real column apart from the graph: tb hands it the cached,
unmarked graph with the real column of its sign, once per pair and sign
while build_cover keeps the pair, and tb_from_graph the caller's marked
graph with its own.

The evaluation runs on Gamma(m,n) unless the plus structure has imaginary
curves and the rupture curve e^0 has blown down; then it runs on the lift,
where conjugate curves never meet. A surviving e^0 is the real centre of
three bamboo arms and conj swaps the two imaginary arms as wholes, so no
curve meets its conjugate across it; once e^0 blows down (some pairs with
an exponent 2), a conjugate pair can meet, and the arm bookkeeping under
the real structure no longer reflects the geometry.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from typing import NamedTuple, Optional

from .charclass import CharacteristicData, canonical_coefficients
from .cover import (
    CoverData,
    CoverGraph,
    _cover,
    _ordered_cover,
    _real_column,
    _require_sign,
    mark_real_structure,
)
from .errors import InconsistentAnnotation, NonIntegralCanonicalClass, NotNumericallyGorenstein
from .graph import FrozenGraph, _column, _imaginary_arms, _require_definite_tree, _subtree_dets
# arms stays bound here: the benchmark's tracer tests wrap tb.arms.
from .graph import arms  # noqa: F401

EVAL_MINIMAL = "minimal"
EVAL_LIFT = "lift"
EVAL_GRAPH = "graph"


class TbResult(NamedTuple):
    """An exact tb value with the data of its evaluation.

    n_real is N of the formula; n_prime_contrib maps each W_R vertex to
    its n' term and arm_weights to the weights of its imaginary arms.
    level records which graph the formula was evaluated on ("minimal",
    "lift", or "graph" for caller-supplied graphs).
    """

    value: Fraction
    n_real: int
    wr: frozenset[int]
    n_prime_contrib: dict[int, Fraction]
    arm_weights: dict[int, tuple[Fraction, ...]]
    sign: Optional[str]
    m: Optional[int]
    n: Optional[int]
    level: str

    @property
    def is_integer(self) -> bool:
        return self.value.denominator == 1


def _source(cover: CoverData, sign: str) -> tuple[CoverGraph, tuple[bool, ...], str]:
    """The cached graph the formula is evaluated on for the sign, as it is,
    with its real column and its level: Gamma(m,n), "minimal", or the lift,
    "lift", when e^0 has blown down and the sign's real column marks some
    curve imaginary."""
    source = cover.minimal
    real = _real_column(source, sign)
    if source.e0_lift is None and not all(real):
        return cover.lift, _real_column(cover.lift, sign), EVAL_LIFT
    return source, real, EVAL_MINIMAL


def evaluation_graph(
    m: int, n: int, sign: str
) -> tuple[CoverGraph, CharacteristicData, str]:
    """The graph tb(m, n, sign) is evaluated on, as build_cover(m, n) holds
    it, marked with the sign's real structure (a new frozen value), its
    characteristic data (the unmarked graph's, shared by both signs and by
    the swapped pair) and its level, as _source chooses them. tb itself
    makes no marked value."""
    _require_sign(sign)  # before a cover is built and cached
    source, _real, level = _source(_cover(m, n), sign)
    return mark_real_structure(source, sign), source.characteristic, level


def _assemble(
    g: FrozenGraph,
    real: tuple[Optional[bool], ...],
    w: frozenset[int],
    sign: Optional[str],
    m: Optional[int],
    n: Optional[int],
    level: str,
) -> TbResult:
    """N - 1 plus n'_e over W_R, the vertices of w that the column real
    marks (by truthiness, by position of g; g's own real column is not
    read), walked as positions, off one _subtree_dets pass over g rooted at a
    real vertex; with no imaginary vertex n'_e = n_e. N is the length of
    the truthy entries of real, filtered in C. The sum runs in integers
    over the lcm of the n' denominators and builds one Fraction."""
    ids = g.ids
    at = [p for p in compress(range(len(ids)), map(w.__contains__, ids)) if real[p]]
    n_real = len(list(filter(None, real)))
    if at and n_real < len(ids):
        marked = list(map(bool, real))
        if not marked[g.order[0]]:
            g = g._walked_from(marked.index(True))
        folds = _subtree_dets(g, marked)
        weights, contrib = {}, {}
        for p in at:
            weights[ids[p]], contrib[ids[p]] = _imaginary_arms(g, p, *folds)
        den = math.lcm(*(term.denominator for term in contrib.values()))
        num = sum(term.numerator * (den // term.denominator) for term in contrib.values())
        value = Fraction(num + (n_real - 1) * den, den)
    else:  # no fold
        self_int = g.self_int
        contrib = {ids[p]: Fraction(self_int[p]) for p in at}
        weights = dict.fromkeys(contrib, ())
        value = Fraction(n_real - 1 + sum(map(self_int.__getitem__, at)))
    return TbResult(
        value=value, n_real=n_real, wr=frozenset(map(ids.__getitem__, at)),
        n_prime_contrib=contrib, arm_weights=weights,
        sign=sign, m=m, n=n, level=level,
    )


def tb(m: int, n: int, sign: str) -> TbResult:
    """Exact tb of the real link of x^m + y^n + z^2 (plus) or - z^2 (minus).

    Evaluated once per sign on the cached graph as it is, beside the sign's
    real column, in the cover _ordered_cover reads, so no marked copy is
    made. The record, without m and n, is kept under the sign in the
    instance dict of that cover's Gamma(m,n), also at level "lift", since
    choosing the level costs a real column, and is never handed out: each
    call returns a new record with the exponents as given and copies of
    its two dicts. A refusal is worded as the exponents are given, and a
    cold call computes one Euclid chain, build_gamma_f's."""
    _require_sign(sign)  # before a cover is built and cached
    cover = _ordered_cover(m, n)
    kept = vars(cover.minimal)
    if sign not in kept:
        cg, real, level = _source(cover, sign)
        kept[sign] = _assemble(cg.graph, real, cg.characteristic.w, sign, None, None, level)
    r = kept[sign]
    return TbResult(r.value, r.n_real, r.wr, dict(r.n_prime_contrib), dict(r.arm_weights),
                    sign, m, n, r.level)


def _check_annotations(cg: CoverGraph, g: FrozenGraph) -> None:
    """Check the real flags, then each law of conj over all positions in
    turn: defined, involutive, keeping self_int, fixing the real vertices
    exactly, keeping edges."""
    g.validate()
    if None in g.real:
        raise InconsistentAnnotation(f"vertex {g.ids[g.real.index(None)]} has no real flag")
    if not cg.conj:
        return
    image = _column(g, cg.conj)
    undefined = [v for v, w in zip(g.ids, image) if w is None and v not in cg.conj]
    if undefined:
        raise InconsistentAnnotation(f"conj is undefined on vertex {undefined[0]}")
    index = dict(zip(g.ids, range(len(g.ids))))
    try:
        to = list(map(index.get, image))
    except TypeError:  # an unhashable image is no vertex
        to = [None]
    if None in to or list(map(to.__getitem__, to)) != list(range(len(to))):
        raise InconsistentAnnotation("conj is not an involution")
    if list(map(g.self_int.__getitem__, to)) != list(g.self_int):
        raise InconsistentAnnotation("conj does not preserve self-intersections")
    wrong = [p for p, q in enumerate(to) if (p == q) != bool(g.real[p])]
    if wrong:
        raise InconsistentAnnotation(
            f"real flag of vertex {g.ids[wrong[0]]} disagrees with the fixed points of conj")
    edges = g._position_edges()
    if sorted((to[p], to[q]) if to[p] < to[q] else (to[q], to[p]) for p, q in edges) != edges:
        raise InconsistentAnnotation("conj is not a graph automorphism")


def tb_from_graph(cg: CoverGraph, wr=None) -> TbResult:
    """Evaluate the formula on a caller-annotated graph.

    cg.graph must be a FrozenGraph; a caller freezes a builder first.
    Real flags must be present; a nonempty
    conj must be an involutive automorphism whose fixed points are the
    real vertices. A form that is not negative definite raises
    SingularMatrix. When wr is omitted it is computed from the adjunction
    system, and one with no integral solution raises NonIntegralCanonicalClass.
    cg.deck is not read: tb depends on the real structure alone.
    """
    g = cg.graph
    _check_annotations(cg, g)
    if wr is None:
        try:
            w = canonical_coefficients(g).w
        except NotNumericallyGorenstein as exc:
            raise NonIntegralCanonicalClass(str(exc)) from exc
    else:
        wr = list(wr)
        for v in wr:  # in the caller's order, so the message is reproducible
            try:
                p = g.pos(v)
            except KeyError:
                raise InconsistentAnnotation(f"wr contains unknown vertex {v}") from None
            if type(v) is not type(g.ids[p]):
                raise InconsistentAnnotation(
                    f"wr contains {v!r}, which is no vertex id but equals vertex {g.ids[p]}")
            if not g.real[p]:
                raise InconsistentAnnotation(
                    f"wr contains imaginary vertex {v}; W_R lies in the real locus")
        _require_definite_tree(g, *_subtree_dets(g)[:2])
        w = frozenset(wr)
    return _assemble(g, g.real, w, cg.sign, cg.m, cg.n, EVAL_GRAPH)
