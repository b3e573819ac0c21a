import math

import pytest

from tbcalc import (
    BadExponents,
    FrozenGraph,
    NonIntegralMultiplicity,
    StructureMismatch,
    build_cover,
    build_gamma_f,
    canonical_coefficients,
    euclid_data,
    separate_odd_odd,
)
from tbcalc import embedres
from tbcalc.embedres import check_mini, multiplicities
from conftest import neighbours
from oracles import separation_by_edges, stepwise_gamma_f


def chain_of(g):
    """(mult, self_int) pairs read along the path graph from the m-side
    terminal to the n-side terminal."""
    near = neighbours(g)
    terminals = [v for v in g.vertex_ids() if len(near[v]) == 1]
    assert len(terminals) == 2
    start = max(terminals, key=lambda v: g.vertices[v].mult)
    order = [start]
    prev = None
    while True:
        nxt = [u for u in near[order[-1]] if u != prev]
        if not nxt:
            break
        prev = order[-1]
        order.append(nxt[0])
    return [(g.vertices[v].mult, g.vertices[v].self_int) for v in order]


class TestEuclid:
    def test_eight_five(self):
        e = euclid_data(8, 5)
        assert e.quotients == (1, 1, 1, 2)
        assert e.t == 5

    def test_three_two(self):
        e = euclid_data(3, 2)
        assert e.quotients == (1, 2)
        assert e.t == 3

    def test_rejects_small_exponents(self):
        with pytest.raises(BadExponents):
            euclid_data(1, 4)
        with pytest.raises(BadExponents):
            euclid_data(3, 0)

    def test_rejects_common_factor(self):
        with pytest.raises(BadExponents) as info:
            euclid_data(6, 4)
        assert "gcd(m,n) must be 1" in str(info.value)

    def test_rejects_non_integers(self):
        with pytest.raises(BadExponents):
            euclid_data(3.0, 2)

    def test_quotient_sum_limit(self):
        # (2, 200001) has t = 100,002 and is accepted; a pair past the
        # limit is refused before anything is built, naming the limit.
        assert euclid_data(2, 200001).t == 100002
        limit = embedres.MAX_QUOTIENT_SUM
        assert euclid_data(2, 2 * limit - 3).t == limit
        for m, n in [(2, 2 * limit - 1), (2, 10**9 + 1), (10**12 + 1, 3)]:
            with pytest.raises(BadExponents, match=f"the limit is {limit}"):
                euclid_data(m, n)


class TestBuildGammaF:
    def test_three_two(self):
        g, rupture = build_gamma_f(3, 2)
        by_mult = {g.vertices[v].mult: g.vertices[v].self_int
                   for v in g.vertex_ids()}
        assert by_mult == {2: -3, 3: -2, 6: -1}
        assert g.arrows.count(rupture) == 1
        assert g.vertices[rupture].mult == 6
        mult_chain = [mult for mult, _s in chain_of(g)]
        assert mult_chain in ([2, 6, 3], [3, 6, 2])

    def test_five_eight(self):
        g, rupture = build_gamma_f(5, 8)
        by_mult = {g.vertices[v].mult: g.vertices[v].self_int
                   for v in g.vertex_ids()}
        assert by_mult == {5: -3, 15: -3, 40: -1, 24: -2, 8: -3}
        assert g.vertices[rupture].mult == 40
        # adjacency along the chain
        mult_chain = [m for m, _s in chain_of(g)]
        assert mult_chain in ([40, 24, 8], [5, 15, 40, 24, 8],
                              [8, 24, 40, 15, 5])
        assert len(g.vertex_ids()) == sum(euclid_data(5, 8).quotients)

    def test_vertex_count_is_quotient_sum(self):
        for m, n in [(3, 2), (5, 8), (11, 6), (4, 7), (9, 2)]:
            g, _rupture = build_gamma_f(m, n)
            assert len(g.vertex_ids()) == sum(euclid_data(m, n).quotients)

    def test_terminal_multiplicities(self):
        for m, n in [(3, 2), (5, 8), (11, 6)]:
            g, _rupture = build_gamma_f(m, n)
            near = neighbours(g)
            terminal_mults = sorted(
                g.vertices[v].mult for v in g.vertex_ids() if len(near[v]) == 1)
            assert terminal_mults == sorted([m, n])

    def test_rupture_multiplicity_is_product(self):
        for m, n in [(3, 2), (5, 8), (11, 6), (5, 28)]:
            g, rupture = build_gamma_f(m, n)
            assert g.vertices[rupture].mult == m * n


class TestMiniIdentity:
    def test_holds_on_built_graphs(self):
        for m, n in [(3, 2), (5, 8), (11, 6), (6, 17)]:
            g, _rupture = build_gamma_f(m, n)
            check_mini(g)

    def test_detects_corruption(self):
        g, _rupture = build_gamma_f(3, 2)
        bad = g.copy()
        bad.vertices[g.vertex_ids()[0]].mult += 1
        with pytest.raises(StructureMismatch):
            check_mini(bad.freeze())


class TestMultiplicities:
    def test_solve_matches_simulation(self):
        for m, n in [(3, 2), (5, 8), (11, 6), (5, 12)]:
            g, _rupture = build_gamma_f(m, n)
            solved = multiplicities(g)
            for v in g.vertex_ids():
                assert solved[v] == g.vertices[v].mult

    def test_non_integral_solution_is_rejected(self):
        # One (-2)-curve with an arrow: -2 m + 1 = 0 gives m = 1/2.
        g = FrozenGraph.from_columns([-2], [], arrows=(0,))
        with pytest.raises(NonIntegralMultiplicity, match="vertex 0 is 1/2"):
            multiplicities(g)


class TestUnimodularityCertificate:
    def test_wrong_determinant_is_internal_error(self, monkeypatch):
        monkeypatch.setattr(embedres, "_tree_det", lambda g: 0)
        with pytest.raises(StructureMismatch):
            build_gamma_f(5, 8)


class TestC1Coefficients:
    def test_three_two(self):
        g, _rupture = build_gamma_f(3, 2)
        by_mult = {g.vertices[v].mult: g.vertices[v].c1_coeff for v in g.vertex_ids()}
        assert by_mult == {2: -1, 3: -2, 6: -4}

    def test_five_eight(self):
        g, _rupture = build_gamma_f(5, 8)
        by_mult = {g.vertices[v].mult: g.vertices[v].c1_coeff for v in g.vertex_ids()}
        assert by_mult == {5: -1, 8: -2, 15: -4, 24: -7, 40: -12}

    def test_rupture_coefficient(self):
        for m, n in [(3, 2), (5, 8), (11, 6), (6, 17), (9, 8)]:
            g, rupture = build_gamma_f(m, n)
            assert g.vertices[rupture].c1_coeff == -(m + n - 1)


class TestC1Certificate:
    def test_c1_columns_solve_the_adjunction_system(self):
        # The c1 coefficients are the unique solution of Q a = n + 2 on
        # Gamma_f and on Gamma'_f, an oracle that shares no code with the
        # cascade or with separation.
        pairs = 0
        for m in range(2, 25):
            for n in range(2, 100):
                if math.gcd(m, n) != 1:
                    continue
                cover = build_cover(m, n)
                for graph in (cover.gamma_f, cover.gamma_f_prime):
                    solved = canonical_coefficients(graph).a
                    assert list(graph.c1_coeff) == [solved[v] for v in graph.ids], (m, n)
                pairs += 1
        assert pairs == 1348


class TestSeparation:
    def test_five_eight_inserts_one_vertex(self):
        g, _rupture = build_gamma_f(5, 8)
        gp = separate_odd_odd(g)
        assert len(gp.vertex_ids()) == len(g.vertex_ids()) + 1
        inserted = set(gp.vertex_ids()) - set(g.vertex_ids())
        (v,) = inserted
        assert gp.vertices[v].mult == 20  # 5 + 15
        assert gp.vertices[v].self_int == -1
        nbr_mults = sorted(gp.vertices[u].mult for u in neighbours(gp)[v])
        assert nbr_mults == [5, 15]
        check_mini(gp)

    def test_keeps_the_c1_entries_of_gamma_f(self):
        # Gamma'_f extends Gamma_f's c1 column: the entries it keeps are the
        # same int objects. TestC1Certificate checks the values.
        for m, n in [(5, 8), (3, 5), (3, 7), (5, 28)]:
            g, _rupture = build_gamma_f(m, n)
            gp = separate_odd_odd(g)
            assert gp is not g and min(g.c1_coeff) < -5, (m, n)  # past the small-int cache
            assert all(a is b for a, b in zip(gp.c1_coeff, g.c1_coeff)), (m, n)

    def test_eleven_six_needs_none(self):
        g, _rupture = build_gamma_f(11, 6)
        gp = separate_odd_odd(g)
        assert gp is g

    def test_arrow_moves_off_odd_rupture(self):
        # (3,5): rupture mult 15 is odd and carries the arrow, so
        # separation introduces a new even vertex now holding the arrow.
        g, rupture = build_gamma_f(3, 5)
        gp = separate_odd_odd(g)
        assert gp.arrows.count(rupture) == 0
        host = gp.arrows[0]
        assert gp.vertices[host].mult == 16  # 15 + 1
        assert gp.arrows == (host,)
        check_mini(gp)

    def test_missing_multiplicity_is_a_structure_mismatch(self):
        g = FrozenGraph.from_columns([-2, -2, -1], [(0, 1), (1, 2)], mult=[None] * 3,
                                     arrows=[2])
        with pytest.raises(StructureMismatch, match="vertex 0 has no multiplicity"):
            separate_odd_odd(g)

    def test_equals_the_edge_list_rebuild(self):
        # separate_odd_odd rewrites only the neighbour lists its inserts
        # touch; oracles.separation_by_edges rebuilds Gamma'_f from an edge
        # list through from_columns. Every field, the stored walk included,
        # must agree, and each hands g itself on alike.
        separated = 0
        for m, n in SMALL_PAIRS:
            g, _rupture = build_gamma_f(m, n)
            got, want = separate_odd_odd(g), separation_by_edges(g)
            assert got == want and (got is g) == (want is g), (m, n)
            separated += got is not g
        assert separated > 400

    def test_no_odd_odd_incidence_remains(self):
        for m, n in [(3, 2), (5, 8), (3, 5), (5, 28), (9, 8)]:
            g, _rupture = build_gamma_f(m, n)
            gp = separate_odd_odd(g)
            for u, v in gp.edges():
                assert (gp.vertices[u].mult % 2 == 0
                        or gp.vertices[v].mult % 2 == 0)
            for a in gp.arrows:
                assert gp.vertices[a].mult % 2 == 0


SMALL_PAIRS = [(m, n) for m in range(2, 41) for n in range(2, 41) if math.gcd(m, n) == 1]


class TestLongChains:
    # Long Euclid quotients: Gamma_f is appended one run of blow-ups at a
    # time, with c1 computed as it goes; stepwise_gamma_f makes one curve
    # at a time and stays the independent oracle.
    PAIRS = [(2, 4001), (6, 12005), (1999, 2000), (4001, 2), (13, 1000), (89, 55)]

    @staticmethod
    def check_against_the_oracle(m, n):
        g, rupture = build_gamma_f(m, n)
        self_int, mult, c1, edges = stepwise_gamma_f(m, n)
        assert len(g.ids) == euclid_data(m, n).t == len(self_int), (m, n)
        assert list(g.self_int) == self_int and list(g.mult) == mult, (m, n)
        assert list(g.c1_coeff) == c1, (m, n)
        assert g.edges() == edges, (m, n)
        assert list(g.ids) == list(range(len(self_int))), (m, n)
        embedres._check_gamma_f(g, euclid_data(m, n))
        # With Gamma_f comes the id of e_0: its last curve, its only arrow
        # host, and the rupture id the cover keeps.
        assert type(g) is FrozenGraph and type(rupture) is int, (m, n)
        assert rupture == len(g.ids) - 1 and g.arrows == (rupture,), (m, n)
        assert build_cover(m, n).rupture == rupture, (m, n)

    @pytest.mark.parametrize("m,n", PAIRS)
    def test_cascade_matches_the_stepwise_oracles(self, m, n):
        self.check_against_the_oracle(m, n)

    def test_small_pairs_match_the_stepwise_oracle(self):
        assert len(SMALL_PAIRS) == 900
        for m, n in SMALL_PAIRS:
            self.check_against_the_oracle(m, n)

    @pytest.mark.parametrize("m,n", PAIRS[:3])
    def test_rupture_c1_is_checked(self, m, n, monkeypatch):
        # The check raises, so it holds under python -O too.
        cascade = embedres._cascade

        def off_by_one(m, n):
            self_int, mult, c1, near = cascade(m, n)
            c1[-1] += 1
            return self_int, mult, c1, near

        monkeypatch.setattr(embedres, "_cascade", off_by_one)
        with pytest.raises(StructureMismatch, match="rupture c1 coefficient"):
            build_gamma_f(m, n)


class TestGammaFChecks:
    """Each post-condition of the cascade raises StructureMismatch, so it
    holds under python -O too. (5, 8) cascades to the curves 0..4: the
    terminals 0 and 1 (multiplicities 5 and 8), then 2 and 3, and e_0 = 4,
    which meets 2 and 3. The cascade hands back each curve's neighbour
    list, sorted: [2], [3], [0, 4], [1, 4] and [2, 3]."""

    @staticmethod
    def raised(call, *args):
        with pytest.raises(StructureMismatch) as info:
            call(*args)
        return str(info.value)

    def build_with(self, monkeypatch, rewrite):
        cascade = embedres._cascade

        def patched(m, n):
            self_int, mult, c1, near = cascade(m, n)
            rewrite(mult, near)
            return self_int, mult, c1, near

        monkeypatch.setattr(embedres, "_cascade", patched)
        return self.raised(build_gamma_f, 5, 8)

    def test_rupture_multiplicity(self, monkeypatch):
        assert self.build_with(monkeypatch, lambda mult, near: mult.__setitem__(4, 41)) == (
            "rupture multiplicity 41 != m*n = 40")

    def test_rupture_degree(self, monkeypatch):
        # An edge 0-4 entered in both neighbour lists, each kept sorted.
        def join(mult, near):
            near[0].append(4)
            near[4].insert(0, 0)

        assert self.build_with(monkeypatch, join) == (
            "rupture vertex of Gamma_f must have 2 neighbors")

    def test_terminal_multiplicities(self, monkeypatch):
        assert self.build_with(monkeypatch, lambda mult, near: mult.__setitem__(0, 6)) == (
            "terminal multiplicities [6, 8] != {m, n}")

    # build_gamma_f sets the vertex count and the arrow from the cascade's
    # own length, so these two checks are handed a crafted Gamma_f.
    def test_vertex_count(self):
        g, _rupture = build_gamma_f(5, 8)
        data = euclid_data(5, 8)
        assert self.raised(embedres._check_gamma_f, g,
                           data._replace(quotients=(*data.quotients, 1))) == (
            "Gamma_f(5,8) has 5 vertices, expected sum of Euclid quotients 6")

    def test_arrow_on_the_rupture_vertex(self):
        g, _rupture = build_gamma_f(5, 8)
        assert self.raised(embedres._check_gamma_f, g._replace(arrows=(0,)),
                           euclid_data(5, 8)) == "the arrow must sit on the rupture vertex"

    def test_edge_through_the_center(self, monkeypatch):
        # Each run after the second cuts the edge between the two curves
        # through its center, which ends the older curve's neighbour list;
        # dropping that edge from both lists first leaves nothing to cut.
        cut = embedres._cut_center

        def lost(near, p, q):
            near[p].remove(q)
            near[q].remove(p)
            cut(near, p, q)

        monkeypatch.setattr(embedres, "_cut_center", lost)
        assert self.raised(embedres._cascade, 5, 8) == (
            "the cascade lost the edge through its center")
