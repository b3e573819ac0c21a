"""Thurston-Bennequin invariants of the real links of x^m + y^n +/- z^2.

The invariant is evaluated on a resolution graph with its real column as

    tb = N - 1 + sum over e in W_R of n'_e

where N counts real vertices, W_R is the real part of the characteristic
set, and n'_e corrects the self-intersection of e by the weights of its
fully imaginary arms. tb and tb_from_graph share one assembly over a
marked graph, evaluation_graph's or the caller's. The sum runs in
integers, over the lcm of the n' denominators, and builds one Fraction.

The evaluation normally runs on the minimal graph Gamma(m,n). For the plus
structure on very small exponent pairs, minimization can contract the
chain between a conjugate pair of curves until the pair meets; on such
graphs the arm bookkeeping under the real structure no longer reflects the
geometry, so the evaluation falls back to the unminimized lift, where
conjugate curves are never adjacent. The minus structure fixes every
curve and never needs the fallback.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from typing import NamedTuple, Optional

from .charclass import CharacteristicData, canonical_coefficients
from .cover import (
    SIGN_MINUS,
    SIGN_PLUS,
    CoverGraph,
    _real_column,
    build_cover,
    has_conj_adjacent_pair,
    mark_real_structure,
)
from .errors import (
    InconsistentAnnotation,
    NonIntegralCanonicalClass,
    NotNumericallyGorenstein,
)
from .graph import FrozenGraph, _branches, _column, _imaginary_arms
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


def evaluation_graph(
    m: int, n: int, sign: str
) -> tuple[CoverGraph, CharacteristicData, str]:
    """The graph tb(m, n, sign) is evaluated on, marked (a new frozen value),
    its characteristic data (the unmarked graph's, shared by both signs)
    and its level: "minimal", or "lift" when the plus structure has
    imaginary curves and some curve of Gamma(m,n) meets its conjugate."""
    if sign not in (SIGN_PLUS, SIGN_MINUS):  # before a cover is built and cached
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    cover = build_cover(m, n)
    source, level = cover.minimal, EVAL_MINIMAL
    if not all(_real_column(source, sign)) and has_conj_adjacent_pair(source):
        source, level = cover.lift, EVAL_LIFT
    return mark_real_structure(source, sign), source.characteristic, level


def _assemble(
    g: FrozenGraph,
    w: frozenset[int],
    sign: Optional[str],
    m: Optional[int],
    n: Optional[int],
    level: str,
) -> TbResult:
    """N - 1 plus n'_e over W_R, the vertices of w that g.real marks (by
    truthiness), walked as positions, off one _branches pass over g rooted
    at a real vertex; with no imaginary vertex n'_e = n_e. The sum runs in
    integers over the lcm of the n' denominators and builds one Fraction."""
    ids, real = g.ids, g.real
    at = [p for p in compress(range(len(ids)), map(w.__contains__, ids)) if real[p]]
    n_real = sum(map(bool, real))
    if at and n_real < len(ids):
        marked = list(map(bool, real))
        if not marked[g.order[0]]:
            g = g._walked_from(marked.index(True))
        folds = _branches(g, marked)
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
    """Exact tb of the real link of x^m + y^n + z^2 (plus) or - z^2 (minus)."""
    marked, cd, level = evaluation_graph(m, n, sign)
    return _assemble(marked.graph, cd.w, sign, m, n, level)


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
    real vertices. When wr is omitted it is computed from the adjunction
    system of the given graph, and a graph whose adjunction system has no
    integral solution raises NonIntegralCanonicalClass.
    """
    g = cg.graph
    _check_annotations(cg, g)
    if wr is None:
        try:
            w = canonical_coefficients(cg).w
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
        w = frozenset(wr)
    return _assemble(g, w, cg.sign, cg.m, cg.n, EVAL_GRAPH)
