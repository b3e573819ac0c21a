"""tb is an invariant of the singularity, so any very good resolution marked
with its real structure must give the same value.

The plus structure falls back to the lift on the pairs with an exponent 2,
where e^0 blows down and Gamma(m,n) joins one curve to its conjugate. One
real blow-up of that point, made on Gamma(m,n) by hand, must then give the
value tb reads off the lift.
"""

import math

from tbcalc import CoverGraph, FrozenGraph, build_cover, mark_real_structure, tb, tb_from_graph


def blow_up_conjugate_edge(marked):
    """marked with its one edge between a curve and its conjugate blown up:
    a new real (-1)-curve between the two, each of them lowered by 1, and
    conj fixing the new curve."""
    g, conj = marked.graph, dict(marked.conj.items())
    edges = g._position_edges()
    meeting = [(p, q) for p, q in edges if conj[g.ids[p]] == g.ids[q]]
    assert len(meeting) == 1
    (p, q), = meeting
    self_int = list(g.self_int)
    self_int[p] -= 1
    self_int[q] -= 1
    new = len(self_int)
    self_int.append(-1)
    blown = FrozenGraph.from_columns(
        self_int, [edge for edge in edges if edge != (p, q)] + [(p, new), (q, new)],
        ids=g.ids + (g.next_id,), real=g.real + (True,), next_id=g.next_id + 1)
    return CoverGraph(graph=blown, m=None, n=None, e0_lift=None, deck={}, downstairs={},
                      conj={**conj, g.next_id: g.next_id}, sign=marked.sign)


def test_lift_fallback_is_one_real_blow_up_of_gamma():
    # On 2 <= m <= 40, 2 <= n <= 300 the plus pairs that fall back are the
    # 168 with an exponent 2 (149 with m = 2 and 19 with n = 2).
    pairs = [(m, n) for m in range(2, 41) for n in range(2, 301)
             if 2 in (m, n) and math.gcd(m, n) == 1]
    assert len(pairs) == 168
    for m, n in pairs:
        result = tb(m, n, "plus")
        assert result.level == "lift", (m, n)
        blown = blow_up_conjugate_edge(mark_real_structure(build_cover(m, n).minimal, "plus"))
        assert tb_from_graph(blown).value == result.value, (m, n)
