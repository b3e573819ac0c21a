import pytest

from tbcalc import (
    BadExponents,
    StructureMismatch,
    build_gamma_f,
    c1_coefficients,
    euclid_data,
    multiplicities,
    separate_odd_odd,
)
from tbcalc import embedres
from tbcalc.embedres import check_mini


def chain_of(g, trace):
    """(mult, self_int) pairs read along the path graph from the m-side
    terminal to the n-side terminal."""
    terminals = [v for v in g.vertex_ids() if g.degree(v) == 1]
    assert len(terminals) == 2
    start = max(terminals, key=lambda v: g.vertices[v].mult)
    order = [start]
    prev = None
    while True:
        nxt = [u for u in g.neighbors(order[-1]) if u != prev]
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


class TestBuildGammaF:
    def test_three_two(self):
        g, trace = build_gamma_f(3, 2)
        by_mult = {g.vertices[v].mult: g.vertices[v].self_int
                   for v in g.vertex_ids()}
        assert by_mult == {2: -3, 3: -2, 6: -1}
        assert g.arrow_count(trace.rupture) == 1
        assert g.vertices[trace.rupture].mult == 6
        mult_chain = [mult for mult, _s in chain_of(g, trace)]
        assert mult_chain in ([2, 6, 3], [3, 6, 2])

    def test_five_eight(self):
        g, trace = build_gamma_f(5, 8)
        by_mult = {g.vertices[v].mult: g.vertices[v].self_int
                   for v in g.vertex_ids()}
        assert by_mult == {5: -3, 15: -3, 40: -1, 24: -2, 8: -3}
        assert g.vertices[trace.rupture].mult == 40
        # adjacency along the chain
        mult_chain = [m for m, _s in chain_of(g, trace)]
        assert mult_chain in ([40, 24, 8], [5, 15, 40, 24, 8],
                              [8, 24, 40, 15, 5])
        assert len(g.vertex_ids()) == sum(euclid_data(5, 8).quotients)

    def test_vertex_count_is_quotient_sum(self):
        for m, n in [(3, 2), (5, 8), (11, 6), (4, 7), (9, 2)]:
            g, _trace = build_gamma_f(m, n)
            assert len(g.vertex_ids()) == sum(euclid_data(m, n).quotients)

    def test_terminal_multiplicities(self):
        for m, n in [(3, 2), (5, 8), (11, 6)]:
            g, _trace = build_gamma_f(m, n)
            terminal_mults = sorted(
                g.vertices[v].mult for v in g.vertex_ids() if g.degree(v) == 1)
            assert terminal_mults == sorted([m, n])

    def test_rupture_multiplicity_is_product(self):
        for m, n in [(3, 2), (5, 8), (11, 6), (5, 28)]:
            g, trace = build_gamma_f(m, n)
            assert g.vertices[trace.rupture].mult == m * n


class TestMiniIdentity:
    def test_holds_on_built_graphs(self):
        for m, n in [(3, 2), (5, 8), (11, 6), (6, 17)]:
            g, _trace = build_gamma_f(m, n)
            check_mini(g)

    def test_detects_corruption(self):
        g, _trace = build_gamma_f(3, 2)
        some = g.vertex_ids()[0]
        g.vertices[some].mult += 1
        with pytest.raises(StructureMismatch):
            check_mini(g)


class TestMultiplicities:
    def test_solve_matches_simulation(self):
        for m, n in [(3, 2), (5, 8), (11, 6), (5, 12)]:
            g, _trace = build_gamma_f(m, n)
            solved = multiplicities(g)
            for v in g.vertex_ids():
                assert solved[v] == g.vertices[v].mult


class TestUnimodularityCertificate:
    def test_wrong_determinant_is_internal_error(self, monkeypatch):
        monkeypatch.setattr(embedres, "_tree_det", lambda g: 0)
        with pytest.raises(StructureMismatch):
            build_gamma_f(5, 8)


class TestC1Coefficients:
    def test_three_two(self):
        g, trace = build_gamma_f(3, 2)
        b = c1_coefficients(trace)
        by_mult = {g.vertices[v].mult: b[v] for v in g.vertex_ids()}
        assert by_mult == {2: -1, 3: -2, 6: -4}

    def test_five_eight(self):
        g, trace = build_gamma_f(5, 8)
        b = c1_coefficients(trace)
        by_mult = {g.vertices[v].mult: b[v] for v in g.vertex_ids()}
        assert by_mult == {5: -1, 8: -2, 15: -4, 24: -7, 40: -12}

    def test_rupture_coefficient(self):
        for m, n in [(3, 2), (5, 8), (11, 6), (6, 17), (9, 8)]:
            _g, trace = build_gamma_f(m, n)
            b = c1_coefficients(trace)
            assert b[trace.rupture] == -(m + n - 1)


class TestSeparation:
    def test_five_eight_inserts_one_vertex(self):
        g, trace = build_gamma_f(5, 8)
        gp, trace_p = separate_odd_odd(g, trace)
        assert len(gp.vertex_ids()) == len(g.vertex_ids()) + 1
        inserted = set(gp.vertex_ids()) - set(g.vertex_ids())
        (v,) = inserted
        assert gp.vertices[v].mult == 20  # 5 + 15
        assert gp.vertices[v].self_int == -1
        nbr_mults = sorted(gp.vertices[u].mult for u in gp.neighbors(v))
        assert nbr_mults == [5, 15]
        check_mini(gp)

    def test_eleven_six_needs_none(self):
        g, trace = build_gamma_f(11, 6)
        gp, _trace_p = separate_odd_odd(g, trace)
        assert set(gp.vertex_ids()) == set(g.vertex_ids())

    def test_arrow_moves_off_odd_rupture(self):
        # (3,5): rupture mult 15 is odd and carries the arrow, so
        # separation introduces a new even vertex now holding the arrow.
        g, trace = build_gamma_f(3, 5)
        gp, trace_p = separate_odd_odd(g, trace)
        assert gp.arrow_count(trace.rupture) == 0
        host = gp.arrows[0]
        assert gp.vertices[host].mult == 16  # 15 + 1
        assert gp.arrows == [host]
        check_mini(gp)

    def test_no_odd_odd_incidence_remains(self):
        for m, n in [(3, 2), (5, 8), (3, 5), (5, 28), (9, 8)]:
            g, trace = build_gamma_f(m, n)
            gp, _tp = separate_odd_odd(g, trace)
            for u, v in gp.edges():
                assert (gp.vertices[u].mult % 2 == 0
                        or gp.vertices[v].mult % 2 == 0)
            for a in gp.arrows:
                assert gp.vertices[a].mult % 2 == 0
