"""Thurston-Bennequin invariants of the real links of x^m + y^n +/- z^2.

The invariant is evaluated on the marked resolution graph as

    tb = N - 1 + sum over e in W_R of n'_e

where N counts real vertices, W_R is the real part of the characteristic
set, and n'_e corrects the self-intersection of e by the weights of its
fully imaginary arms.

The evaluation normally runs on the minimal graph Gamma(m,n). For the plus
structure on very small exponent pairs, minimization can contract the
chain between a conjugate pair of curves until the pair meets; on such
graphs the arm bookkeeping under the real structure no longer reflects the
geometry, so the evaluation falls back to the unminimized lift, where
conjugate curves are never adjacent. The minus structure fixes every
curve and never needs the fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .charclass import canonical_coefficients, restrict_to_real
from .cover import (
    SIGN_MINUS,
    SIGN_PLUS,
    CoverGraph,
    build_cover,
    has_conj_adjacent_pair,
    mark_real_structure,
)
from .errors import InconsistentAnnotation, ZeroDenominator
from .graph import arm_is_imaginary, arm_weight, arms

EVAL_MINIMAL = "minimal"
EVAL_LIFT = "lift"
EVAL_GRAPH = "graph"


@dataclass(frozen=True)
class TbResult:
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


@lru_cache(maxsize=None)
def _evaluation(m: int, n: int, sign: str):
    """The marked graph, characteristic data, W_R and level for (m,n,sign).

    Cached; the returned graph must be treated as immutable.
    """
    cover = build_cover(m, n)
    marked = mark_real_structure(cover.minimal, sign)
    level = EVAL_MINIMAL
    if sign == SIGN_PLUS and has_conj_adjacent_pair(marked):
        marked = mark_real_structure(cover.lift, sign)
        level = EVAL_LIFT
    cd = canonical_coefficients(marked)
    wr = restrict_to_real(cd, marked)
    return marked, cd, wr, level


def _assemble(
    cg: CoverGraph,
    wr: frozenset[int],
    sign: Optional[str],
    m: Optional[int],
    n: Optional[int],
    level: str,
) -> TbResult:
    g = cg.graph
    n_real = sum(1 for v in g.vertex_ids() if g.vertices[v].real)
    contrib: dict[int, Fraction] = {}
    weights: dict[int, tuple[Fraction, ...]] = {}
    for e in sorted(wr):
        weights[e] = tuple(arm_weight(g, e, arm) for arm in arms(g, e)
                           if arm_is_imaginary(g, arm))
        if 0 in weights[e]:
            raise ZeroDenominator(f"an imaginary arm of vertex {e} has weight zero")
        contrib[e] = Fraction(g.vertices[e].self_int) - sum(1 / w for w in weights[e])
    value = Fraction(n_real - 1) + sum(contrib.values(), Fraction(0))
    return TbResult(
        value=value, n_real=n_real, wr=frozenset(wr),
        n_prime_contrib=contrib, arm_weights=weights,
        sign=sign, m=m, n=n, level=level,
    )


def tb(m: int, n: int, sign: str) -> TbResult:
    """Exact tb of the real link of x^m + y^n + z^2 (plus) or - z^2 (minus)."""
    if sign not in (SIGN_PLUS, SIGN_MINUS):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    marked, _cd, wr, level = _evaluation(m, n, sign)
    return _assemble(marked, wr, sign, m, n, level)


def _check_annotations(cg: CoverGraph) -> None:
    g = cg.graph
    g.validate()
    for v in g.vertex_ids():
        if g.vertices[v].real is None:
            raise InconsistentAnnotation(f"vertex {v} has no real flag")
    if not cg.conj:
        return
    for v in g.vertex_ids():
        if v not in cg.conj:
            raise InconsistentAnnotation(f"conj is undefined on vertex {v}")
        w = cg.conj[v]
        if w not in g.vertices or cg.conj.get(w) != v:
            raise InconsistentAnnotation("conj is not an involution")
        if g.vertices[w].self_int != g.vertices[v].self_int:
            raise InconsistentAnnotation(
                "conj does not preserve self-intersections"
            )
        if (cg.conj[v] == v) != bool(g.vertices[v].real):
            raise InconsistentAnnotation(
                f"real flag of vertex {v} disagrees with the fixed points of conj"
            )
    for u, v in g.edges():
        if not g.has_edge(cg.conj[u], cg.conj[v]):
            raise InconsistentAnnotation("conj is not a graph automorphism")


def tb_from_graph(cg: CoverGraph, wr=None) -> TbResult:
    """Evaluate the formula on a caller-annotated graph.

    Real flags must be present; a nonempty conj must be an involutive
    automorphism whose fixed points are the real vertices. When wr is
    omitted it is computed from the adjunction system of the given graph.
    """
    _check_annotations(cg)
    if wr is None:
        cd = canonical_coefficients(cg)
        wr = restrict_to_real(cd, cg)
    else:
        wr = frozenset(wr)
        for v in wr:
            if v not in cg.graph.vertices:
                raise InconsistentAnnotation(f"wr contains unknown vertex {v}")
            if not cg.graph.vertices[v].real:
                raise InconsistentAnnotation(
                    f"wr contains imaginary vertex {v}; W_R lies in the real locus"
                )
    return _assemble(cg, wr, cg.sign, cg.m, cg.n, EVAL_GRAPH)
