import importlib
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import tbcalc
from tbcalc import (
    BadExponents,
    CoverGraph,
    DecoratedGraph,
    FrozenGraph,
    InconsistentAnnotation,
    InternalInvariantError,
    NonIntegralCanonicalClass,
    SingularMatrix,
    UserInputError,
    VertexMap,
    arms,
    build_cover,
    canonical_coefficients,
    evaluation_graph,
    graph_to_document,
    mark_real_structure,
    tb,
    tb_from_graph,
    to_dot,
    verify_identities,
)
from tbcalc import charclass, embedres
from tbcalc.graph import arm_weight, intersection_matrix, n_prime
from tbcalc.numeric import cf_eval
from conftest import make_chain, make_star, make_zero_arm
from oracles import assemble_dense, is_negative_definite


def annotated(g, conj):
    """The frozen builder g as a caller's cover graph, once with conj as a
    dict and once as a VertexMap over the graph's ids."""
    g = g.freeze()
    return [CoverGraph(graph=g, m=None, n=None, e0_lift=None, deck={}, downstairs={},
                       conj=form, sign=None)
            for form in (conj, VertexMap(g, map(conj.get, g.ids)))]

# Values frozen from independent evaluations of the construction: each
# entry was cross-checked against the adjunction system, the identity
# theorems (periodicity, symmetry) and hand-reduced small cases.
FROZEN = {
    (3, 2): (Fraction(1), Fraction(-1, 3)),
    (3, 4): (Fraction(5), Fraction(1)),
    (3, 5): (Fraction(7), Fraction(7)),
    (3, 7): (Fraction(-9), Fraction(-9)),
    (3, 8): (Fraction(-7), Fraction(-3)),
    (3, 10): (Fraction(-3), Fraction(-5, 3)),
    (4, 3): (Fraction(5), Fraction(1)),
    (5, 2): (Fraction(3), Fraction(-1, 5)),
    (5, 8): (Fraction(3), Fraction(3)),
    (5, 12): (Fraction(-5), Fraction(-5)),
    (5, 18): (Fraction(-5), Fraction(-9, 5)),
    (5, 28): (Fraction(3), Fraction(3)),
    (6, 5): (Fraction(-1), Fraction(3, 5)),
    (6, 17): (Fraction(3), Fraction(11, 17)),
    (11, 6): (Fraction(1), Fraction(7, 11)),
    (2, 7): (Fraction(5), Fraction(-1, 7)),
}


class TestTbValues:
    @pytest.mark.parametrize("m,n", sorted(FROZEN))
    def test_frozen_table(self, m, n):
        exp_minus, exp_plus = FROZEN[(m, n)]
        assert tb(m, n, "minus").value == exp_minus
        assert tb(m, n, "plus").value == exp_plus

    def test_exponent_symmetry(self):
        for m, n in [(3, 2), (5, 8), (11, 6), (4, 7)]:
            for sign in ("minus", "plus"):
                assert tb(m, n, sign).value == tb(n, m, sign).value

    def test_result_metadata(self):
        r = tb(11, 6, "plus")
        assert r.n_real == 2
        assert r.level == "minimal"
        assert len(r.wr) == 1
        (e,) = r.wr
        assert r.n_prime_contrib[e] == Fraction(-4, 11)
        assert r.arm_weights[e] == (Fraction(-11, 9), Fraction(-11, 9))
        assert not r.is_integer

    def test_minus_n_real_counts_everything(self):
        r = tb(5, 8, "minus")
        assert r.n_real == 8
        assert r.is_integer

    def test_plus_fallback_level(self):
        assert tb(3, 2, "plus").level == "lift"
        assert tb(11, 6, "plus").level == "minimal"

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            tb(3, 2, "either")

    def test_bad_sign_is_rejected_before_a_cover_is_built(self):
        before = build_cover.cache_info()
        for evaluate in (tb, evaluation_graph):
            with pytest.raises(ValueError, match=re.escape(
                    "sign must be 'plus' or 'minus', got 'Plus'")):
                evaluate(2, 2001, "Plus")
        assert build_cover.cache_info() == before

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_value_is_the_sum_of_its_terms(self, sign):
        # tb adds its n' terms in integers; Fraction arithmetic is the oracle.
        for m in range(2, 31):
            for n in range(2, 121):
                if gcd(m, n) == 1:
                    r = tb(m, n, sign)
                    want = sum(r.n_prime_contrib.values(), Fraction(r.n_real - 1))
                    assert type(r.value) is Fraction and r.value == want, (m, n)

    def test_closed_forms_behind_the_long_chain_values(self):
        # CI's long-chain step expects tb(2, 200001) = -1/200001 (plus) and
        # 199999 (minus), and tb(3, 599993) = 7 in both signs. Those are
        # tb(2, n) = -1/n and n - 2 for odd n, and the odd-m period
        # n -> n + 12 applied to tb(3, 5) = 7, as 599993 = 5 mod 12.
        for n in range(3, 402, 2):
            assert tb(2, n, "plus").value == Fraction(-1, n), n
            assert tb(2, n, "minus").value == n - 2, n
        for n in range(5, 606, 12):
            for sign in ("minus", "plus"):
                assert tb(3, n, sign).value == 7, (n, sign)

    @pytest.mark.parametrize("args,error,message", [
        (("7", 3, "plus"), BadExponents, "exponents must be integers >= 2, got (7, 3); "
         "x^m+y^n+/-z^2 is not an isolated double point otherwise"),
        ((3.0, 2, "plus"), BadExponents, "exponents must be integers >= 2, got (3.0, 2); "
         "x^m+y^n+/-z^2 is not an isolated double point otherwise"),
        ((True, 3, "plus"), BadExponents, "exponents must be integers >= 2, got (True, 3); "
         "x^m+y^n+/-z^2 is not an isolated double point otherwise"),
        ((6, 4, "plus"), BadExponents,
         "gcd(m,n) must be 1 for an isolated Brieskorn double point, got gcd(6, 4) = 2"),
        ((3, 1, "plus"), BadExponents, "exponents must be integers >= 2, got (3, 1); "
         "x^m+y^n+/-z^2 is not an isolated double point otherwise"),
        ((400001, 2, "plus"), BadExponents, "(400001, 2) needs 200002 curves in its "
         "resolution of x^m+y^n (the sum of its Euclid quotients); the limit is 200000"),
        ((6, 11, "both"), ValueError, "sign must be 'plus' or 'minus', got 'both'"),
        ((6, 4, "Plus"), ValueError, "sign must be 'plus' or 'minus', got 'Plus'"),
    ], ids=["str", "float", "bool", "gcd", "one", "too_long", "sign", "sign_first"])
    def test_refusals_keep_their_type_and_message(self, args, error, message):
        # tb compares int exponents before any cover is built, to read the
        # cover of the pair with m < n; each refusal is still the one the
        # exponents get as given, for any argument type, and builds nothing.
        build_cover.cache_clear()
        with pytest.raises(error) as info:
            tb(*args)
        assert type(info.value) is error and str(info.value) == message
        assert build_cover.cache_info().currsize == 0

    def test_one_euclid_chain_per_cold_call(self, monkeypatch):
        # The pair's Euclid chain is computed once by a cold tb in either
        # order, in build_gamma_f, and not at all by a warm one: euclid_data
        # is counted wherever a module of the package binds it.
        chains = []
        inner = embedres.euclid_data

        def counting(m, n):
            chains.append((m, n))
            return inner(m, n)

        for name in ("embedres", "cover", "tb"):
            module = importlib.import_module(f"tbcalc.{name}")
            monkeypatch.setattr(module, "euclid_data", counting, raising=False)
        for m, n in ((2, 3), (6, 11), (2, 1599)):
            for first, second in (((m, n), (n, m)), ((n, m), (m, n))):
                build_cover.cache_clear()
                tb(*first, "plus")
                assert chains == [(m, n)], first
                chains.clear()
                for pair in (first, second):
                    for sign in ("plus", "minus"):
                        tb(*pair, sign)
                assert chains == [], second

    @pytest.mark.parametrize("m", [2.0, Fraction(2)], ids=["float", "fraction"])
    def test_exponents_that_are_not_ints_are_rejected_on_a_warm_cache(self, m):
        # The cache must not hand back the result of the int pair (2, 3).
        tb(2, 3, "plus")
        with pytest.raises(BadExponents, match="must be integers"):
            tb(m, 3, "plus")


class TestEvaluationGraph:
    @staticmethod
    def solved_graphs(monkeypatch, m, n, signs):
        """The graphs a cold tb(m, n, sign) over signs solves, in order."""
        graphs = []
        inner = charclass.solve_intersection_system

        def counting(g, rhs):
            graphs.append(g)
            return inner(g, rhs)

        monkeypatch.setattr(charclass, "solve_intersection_system", counting)
        build_cover.cache_clear()
        for sign in signs:
            tb(m, n, sign)
        return graphs

    @pytest.mark.parametrize("m,n,solved", [(11, 6, ("minimal",)),
                                            (3, 2, ("lift",)),
                                            (2, 1599, ("lift",))])
    def test_one_adjunction_solve_per_graph(self, monkeypatch, m, n, solved):
        # Both signs, in either order, and repeated calls, share one solve.
        # Where plus falls back to the lift, (3, 2) and (2, 1599), Gamma(m,n)
        # took its coefficients from Gamma'_f when it was built.
        for signs in (("plus", "minus", "minus"), ("minus", "plus", "plus")):
            sizes = [len(g.ids) for g in self.solved_graphs(monkeypatch, m, n, signs)]
            cover = build_cover(m, n)
            assert sizes == [len(getattr(cover, level).graph.ids) for level in solved], signs

    @pytest.mark.parametrize("m,n", [(3, 2), (2, 1599)])
    def test_each_sign_order_solves_only_the_lift(self, monkeypatch, m, n):
        # Curves blow down here, so Gamma(m,n) is never solved: each sign
        # order, from a cold cache, solves the lift that plus falls back to,
        # and solves it once. tb reads the cover of the pair with m < n, so
        # for (3, 2) that is the lift of (2, 3).
        for signs in (("minus", "plus", "plus"), ("plus", "minus", "minus")):
            graphs = self.solved_graphs(monkeypatch, m, n, signs)
            cover = build_cover(min(m, n), max(m, n))
            assert cover.minimal is not cover.lift
            assert len(graphs) == 1 and graphs[0] is cover.lift.graph, signs

    @pytest.mark.parametrize("m,n", [(1599, 2), (11, 6), (3, 2)])
    def test_either_exponent_order_solves_once(self, monkeypatch, m, n):
        # From a cold cache, tb in both signs on one order of the exponents
        # and then on the other: both orders read the cover of the pair
        # with m < n, so the one graph that needs a solve is solved once,
        # whichever order comes first.
        solved = []
        inner = charclass.solve_intersection_system

        def counting(g, rhs):
            solved.append(g)
            return inner(g, rhs)

        monkeypatch.setattr(charclass, "solve_intersection_system", counting)
        for first, second in (((n, m), (m, n)), ((m, n), (n, m))):
            build_cover.cache_clear()
            for pair in (first, second):
                for sign in ("plus", "minus"):
                    tb(*pair, sign)
            assert len(solved) == 1, (first, second)
            solved.clear()

    def test_tb_builds_no_marked_value(self, monkeypatch):
        # tb evaluates the cached graph in place, with the real column of
        # its sign beside it: with marking made to raise, a cold tb gives
        # the frozen values in both signs and both exponent orders.
        tb_module = importlib.import_module("tbcalc.tb")
        cover_module = importlib.import_module("tbcalc.cover")

        def refuse(cg, sign):
            raise AssertionError("tb marked a graph")

        for module in (tb_module, cover_module):
            monkeypatch.setattr(module, "mark_real_structure", refuse)
        build_cover.cache_clear()
        for (m, n), (minus, plus) in FROZEN.items():
            for pair in ((m, n), (n, m)):
                assert (tb(*pair, "minus").value, tb(*pair, "plus").value) == (minus, plus)
        monkeypatch.undo()
        # evaluation_graph still marks the graph tb reads: the same graph
        # with the real column tb computed for it, and conj and sign set.
        for m, n in FROZEN:
            for sign in ("plus", "minus"):
                marked, cd, level = evaluation_graph(m, n, sign)
                source, real, got = tb_module._source(build_cover(m, n), sign)
                assert (level, cd) == (got, source.characteristic)
                assert marked.graph.real == real and marked.sign == sign
                assert marked.graph._replace(real=source.graph.real) == source.graph
                assert marked._replace(graph=source.graph, conj={}, sign=None) == source

    def test_only_lifts_are_solved_at_most_once_per_cover(self, monkeypatch):
        # From a cold cache, in either sign order, the adjunction solver runs
        # on the lift only, and at most once per cover: Gamma(m,n) is solved
        # only where it is the lift itself. tb reads the cover of the pair
        # with m < n, so for m > n that is the lift of (n, m).
        solved = []
        inner = charclass.solve_intersection_system

        def counting(g, rhs):
            solved.append(g)
            return inner(g, rhs)

        monkeypatch.setattr(charclass, "solve_intersection_system", counting)
        for m in range(2, 31):
            for n in range(2, 201):
                if gcd(m, n) != 1:
                    continue
                for signs in (("minus", "plus"), ("plus", "minus")):
                    build_cover.cache_clear()
                    lift = build_cover(min(m, n), max(m, n)).lift.graph
                    for sign in signs:
                        tb(m, n, sign)
                    assert len(solved) <= 1 and all(g is lift for g in solved), (m, n, signs)
                    solved.clear()

    @pytest.mark.parametrize("m,n", [(2, 1599), (3, 2), (3, 10), (11, 6)])
    @pytest.mark.parametrize("signs", [("plus", "minus"), ("minus", "plus")],
                             ids=["plus_then_minus", "minus_then_plus"])
    def test_minimal_graph_keeps_only_its_solve_and_lift(self, m, n, signs):
        # Deciding the fallback caches nothing on Gamma(m,n) but the sign's
        # evaluation, and Gamma(m,n) keeps no reference to its lift: its
        # instance dict holds its characteristic, given when it was built
        # where curves blew down and solved on first use where nothing did,
        # (11, 6), and one record under each sign read. tb reads the cover
        # of the pair with m < n, so its Gamma(m,n) is the one checked.
        build_cover.cache_clear()
        base = min(m, n), max(m, n)
        cover = build_cover(*base)
        blown_down = cover.minimal is not cover.lift
        assert set(vars(cover.minimal)) == ({"characteristic"} if blown_down else set())
        for read, sign in enumerate(signs, 1):
            tb(m, n, sign)
            assert set(vars(build_cover(*base).minimal)) == {"characteristic", *signs[:read]}

    def test_tb_reads_cached_graphs_without_copying(self, monkeypatch):
        # A cold build_cover makes no copy, neither where odd-odd separation
        # appends to a frozen value, (11, 6) and (5, 8), nor where curves
        # blow down, (3, 2) and (3, 7). tb then neither copies nor marks the
        # cached graphs, on the minimal graph or the lift fallback of (3, 2).
        copies = []
        for form in (DecoratedGraph, FrozenGraph):
            def counting(g, inner=form.copy):
                copies.append(len(g.vertices))
                return inner(g)

            monkeypatch.setattr(form, "copy", counting)
        build_cover.cache_clear()
        pairs = [(11, 6), (5, 8), (3, 2), (3, 7)]
        for m, n in pairs:
            build_cover(m, n)
        assert copies == []
        for m, n in pairs:
            for sign in ("plus", "minus"):
                tb(m, n, sign)
        assert copies == []
        assert tb(3, 2, "plus").level == "lift"
        for m, n in pairs:
            for cg in (build_cover(m, n).lift, build_cover(m, n).minimal):
                assert all(d.real is None for d in cg.graph.vertices.values())
                assert cg.conj == {} and cg.sign is None

    def test_marked_graph_and_shared_data(self):
        # The marked graph is (3, 2)'s, with its arm labels; the data are
        # those of the graph tb reads, in the cover of (2, 3).
        cover, base = build_cover(3, 2), build_cover(2, 3)
        for sign, level in (("plus", "lift"), ("minus", "minimal")):
            marked, cd, got = evaluation_graph(3, 2, sign)
            assert got == level == tb(3, 2, sign).level
            assert marked.sign == sign
            assert marked.graph.arm_label == getattr(cover, level).graph.arm_label
            assert cd is getattr(base, level).characteristic
            assert cd == getattr(cover, level).characteristic

    @pytest.mark.parametrize("m,n", [(11, 6), (3, 2), (1599, 2)])
    def test_evaluation_graph_then_tb_solves_once(self, monkeypatch, m, n):
        # From a cold cache, evaluation_graph(m, n) with m > n and then tb
        # in plus: the data evaluation_graph hands back are those of the
        # graph tb reads, in the cover of (n, m), so the two calls make one
        # solve between them.
        solved = []
        inner = charclass.solve_intersection_system

        def counting(g, rhs):
            solved.append(g)
            return inner(g, rhs)

        monkeypatch.setattr(charclass, "solve_intersection_system", counting)
        build_cover.cache_clear()
        marked, cd, level = evaluation_graph(m, n, "plus")
        assert tb(m, n, "plus").wr == cd.w & {
            v for v, d in marked.graph.vertices.items() if d.real}
        assert len(solved) == 1 and cd is getattr(build_cover(n, m), level).characteristic

    def test_tb_is_tb_from_graph_of_its_evaluation_graph(self):
        # Two evaluation paths: tb reads the unmarked cached graph of the
        # pair with m < n and the real column it computes, tb_from_graph the
        # marked graph of evaluation_graph(m, n) and its real flags. They
        # agree on every field of the record (value, n_real, wr, the n'
        # terms, the arm weights, sign, m and n) but the level, which names
        # the caller-graph entry; both exponent orders for m, n <= 30.
        for m in range(2, 31):
            for n in range(2, 60):
                if gcd(m, n) != 1:
                    continue
                for sign in ("plus", "minus"):
                    got = tb_from_graph(evaluation_graph(m, n, sign)[0])
                    assert got == tb(m, n, sign)._replace(level="graph"), (m, n, sign)


class TestWarmCalls:
    # tb keeps each sign's evaluation on the cached Gamma(m,n), whose
    # instance dict the swapped pair shares.
    @pytest.mark.parametrize("m,n", [(2, 1593), (11, 6), (3, 2)])
    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_a_warm_call_neither_assembles_nor_solves(self, monkeypatch, m, n, sign):
        # After one tb, a second in either exponent order reaches neither
        # _source nor _assemble and solves nothing. With an exponent 2 the
        # plus structure is evaluated on the lift.
        tb_module = importlib.import_module("tbcalc.tb")
        solved = []
        inner = charclass.solve_intersection_system

        def counting(g, rhs):
            solved.append(g)
            return inner(g, rhs)

        def unreached(*args):
            raise AssertionError("a warm tb evaluated afresh")

        monkeypatch.setattr(charclass, "solve_intersection_system", counting)
        for first in ((m, n), (n, m)):
            build_cover.cache_clear()
            want = tb(*first, sign)
            assert want.level == ("lift" if sign == "plus" and 2 in (m, n) else "minimal")
            solved.clear()
            with monkeypatch.context() as patch:
                patch.setattr(tb_module, "_source", unreached)
                patch.setattr(tb_module, "_assemble", unreached)
                for second in ((m, n), (n, m)):
                    assert tb(*second, sign) == want._replace(m=second[0], n=second[1])
            assert solved == []

    @pytest.mark.parametrize("m,n,sign", [(11, 6, "plus"), (11, 6, "minus"),
                                          (6, 4789, "plus"), (3, 2, "plus")])
    def test_editing_a_result_changes_no_later_one(self, m, n, sign):
        # A caller who adds, deletes or overwrites entries of either dict of
        # a result, the first one included, changes no later result, in
        # either exponent order.
        build_cover.cache_clear()
        got = tb(m, n, sign)
        want = got._replace(n_prime_contrib=dict(got.n_prime_contrib),
                            arm_weights=dict(got.arm_weights))
        for edit in ("add", "delete", "overwrite"):
            for terms in (got.n_prime_contrib, got.arm_weights):
                v = next(iter(terms))
                if edit == "add":
                    terms[max(terms) + 1] = terms[v]
                elif edit == "delete":
                    del terms[v]
                else:
                    terms[v] = None
            assert tb(m, n, sign) == want
            assert tb(n, m, sign) == want._replace(m=n, n=m)
            got = tb(m, n, sign)


class TestImaginaryArms:
    def test_matches_per_vertex_arms(self):
        # The one-pass arm walk against arms(), keeping the arms whose
        # vertices are all imaginary, and n_prime() at each W_R vertex of
        # every evaluation graph.
        checked = bamboos = 0
        for m in range(2, 13):
            for n in range(2, 81):
                if gcd(m, n) != 1:
                    continue
                for sign in ("minus", "plus"):
                    marked, _cd, _level = evaluation_graph(m, n, sign)
                    g = marked.graph
                    r = tb(m, n, sign)
                    for e in r.wr:
                        imaginary = [a for a in arms(g, e)
                                     if all(g.vertices[v].real is False for v in a.vertices)]
                        assert r.arm_weights[e] == tuple(
                            arm_weight(g, e, a) for a in imaginary)
                        assert r.n_prime_contrib[e] == n_prime(g, e)
                        checked += bool(r.arm_weights[e])
                        # cf_eval shares no code with the subtree fold that
                        # tb, n_prime and arm_weight read.
                        assert all(a.is_bamboo for a in imaginary)
                        by_cf = tuple(cf_eval([g.self_int[g.pos(v)] for v in a.vertices])
                                      for a in imaginary)
                        assert r.arm_weights[e] == by_cf
                        assert r.n_prime_contrib[e] == g.self_int[g.pos(e)] - sum(
                            1 / w for w in by_cf)
                        bamboos += len(by_cf)
        assert checked
        assert bamboos == 346

    def test_assembly_matches_the_dense_schur_complement(self):
        # tb's n' sum over its tree folds against assemble_dense, which
        # solves the dense form of the same marked graph and W.
        evaluations = 0
        for m in range(2, 12):
            for n in range(2, 40):
                if gcd(m, n) != 1:
                    continue
                for sign in ("minus", "plus"):
                    marked, cd, _level = evaluation_graph(m, n, sign)
                    assert assemble_dense(marked.graph, cd.w) == tb(m, n, sign).value, (
                        m, n, sign)
                    evaluations += 1
        assert evaluations == 466


class TestTbFromGraph:
    def test_star12_minus(self, star12_minus):
        cg, _w = star12_minus
        r = tb_from_graph(cg)
        assert r.value == Fraction(1)
        assert r.n_real == 12
        assert r.level == "graph"

    def test_star12_plus(self, star12_plus):
        cg, _w = star12_plus
        r = tb_from_graph(cg)
        assert r.value == Fraction(7, 11)
        assert r.n_real == 2

    def test_explicit_wr_override(self, star12_plus):
        cg, _w = star12_plus
        r = tb_from_graph(cg, wr=[cg.e0_lift])
        assert r.value == Fraction(7, 11)

    def test_empty_wr_gives_euler_count(self):
        # fully real graph, empty wr: tb = N - 1
        chain, ids = make_chain([-2, -2, -2])
        g = chain.copy()
        for v in ids:
            g.vertices[v].real = True
        cg = CoverGraph(graph=g.freeze(), m=None, n=None, e0_lift=None, deck={},
                        downstairs={}, conj={}, sign=None)
        assert tb_from_graph(cg, wr=[]).value == Fraction(2)

    @pytest.mark.parametrize("deck", [{}, {0: 2, 1: 1, 2: 0}], ids=["none", "swapped"])
    def test_deck_is_not_read(self, deck):
        # A caller's deck map, even one that moves W = {0} off itself,
        # leaves tb = N - 1 + n_0 = 3 - 1 - 1 = 1 of the real chain.
        g = FrozenGraph.from_columns([-1, -3, -2], [(0, 1), (1, 2)], real=[True] * 3)
        cg = CoverGraph(graph=g, m=None, n=None, e0_lift=None, deck=deck,
                        downstairs={}, conj={}, sign=None)
        assert tb_from_graph(cg).value == 1

    @pytest.mark.parametrize("selfs", [[1], [-2, 0]])
    def test_form_that_is_not_negative_definite_refused(self, selfs):
        # No resolution graph has such a form: a lone (+1)-curve fails at
        # a positive pivot, and the chain (-2, 0) at a vanishing subtree
        # determinant. Each once gave tb 1 without wr.
        chain, ids = make_chain(selfs)
        g = chain.copy()
        for v in ids:
            g.vertices[v].real = True
        cg = CoverGraph(graph=g.freeze(), m=None, n=None, e0_lift=None, deck={},
                        downstairs={}, conj={}, sign=None)
        with pytest.raises(SingularMatrix, match="not negative definite"):
            canonical_coefficients(cg)
        # With wr given no solve runs, and the lone (+1)-curve once gave 1
        # with wr = [v] and 0 with wr = [].
        for wr in (None, [], ids):
            with pytest.raises(SingularMatrix, match="not negative definite"):
                tb_from_graph(cg, wr=wr)

    def test_missing_real_flags_rejected(self):
        g, _ids = make_chain([-2, -2])
        cg = CoverGraph(graph=g, m=None, n=None, e0_lift=None, deck={},
                        downstairs={}, conj={}, sign=None)
        with pytest.raises(InconsistentAnnotation):
            tb_from_graph(cg)

    def test_wr_outside_real_locus_rejected(self, star12_plus):
        cg, w = star12_plus
        imaginary_w = sorted(w - {cg.e0_lift})
        with pytest.raises(InconsistentAnnotation):
            tb_from_graph(cg, wr=[imaginary_w[0]])

    @pytest.mark.parametrize("key", ["x", None])
    def test_wr_key_that_is_no_vertex_id_rejected(self, key):
        marked = mark_real_structure(build_cover(11, 6).minimal, "plus")
        with pytest.raises(InconsistentAnnotation, match="unknown vertex"):
            tb_from_graph(marked, wr={key})

    @pytest.mark.parametrize("member", [0.0, True, Fraction(1)],
                             ids=["float", "bool", "fraction"])
    def test_wr_member_that_only_equals_an_id_rejected(self, member):
        # TbResult.wr would hold the member while its maps are keyed by ids.
        g = FrozenGraph.from_columns([-2, -2], [(0, 1)], real=[True, True])
        cg = CoverGraph(graph=g, m=None, n=None, e0_lift=None, deck={}, downstairs={})
        with pytest.raises(InconsistentAnnotation, match=re.escape(
                f"wr contains {member!r}, which is no vertex id but equals vertex {int(member)}")):
            tb_from_graph(cg, wr=[member])
        assert tb_from_graph(cg, wr=[int(member)]).wr == {int(member)}

    def test_wr_message_does_not_depend_on_the_hash_seed(self):
        # The members are checked in the caller's order, so the salted
        # hash of "x" cannot decide which bad member the message names.
        script = ("from tbcalc import CoverGraph, FrozenGraph, TbcalcError, tb_from_graph\n"
                  "cg = CoverGraph(graph=FrozenGraph.from_columns([], []), m=None, n=None,\n"
                  "                e0_lift=None, deck={}, downstairs={})\n"
                  "try:\n"
                  "    tb_from_graph(cg, wr=[99, 'x', None])\n"
                  "except TbcalcError as exc:\n"
                  "    print(type(exc).__name__, exc)\n")
        src = str(Path(tbcalc.__file__).resolve().parent.parent)
        outputs = [
            subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
                           check=True).stdout
            for seed in ("0", "1")]
        assert outputs == ["InconsistentAnnotation wr contains unknown vertex 99\n"] * 2

    @pytest.mark.parametrize("member", [[1], {}], ids=["list", "dict"])
    def test_unhashable_wr_member_rejected(self, member):
        cg = CoverGraph(graph=FrozenGraph.from_columns([], []), m=None, n=None,
                        e0_lift=None, deck={}, downstairs={})
        with pytest.raises(InconsistentAnnotation,
                           match=re.escape(f"wr contains unknown vertex {member}")):
            tb_from_graph(cg, wr=[member])

    def test_non_involutive_conj_rejected(self):
        chain, ids = make_chain([-2, -2, -2])
        g = chain.copy()
        for v in ids:
            g.vertices[v].real = v == ids[1]
        conj = {ids[0]: ids[1], ids[1]: ids[2], ids[2]: ids[0]}
        for cg in annotated(g, conj):
            with pytest.raises(InconsistentAnnotation, match="^conj is not an involution$"):
                tb_from_graph(cg)

    def test_conj_fixed_points_must_be_real(self):
        chain, ids = make_chain([-2, -2])
        g = chain.copy()
        g.vertices[ids[0]].real = False
        g.vertices[ids[1]].real = False
        conj = {ids[0]: ids[0], ids[1]: ids[1]}
        for cg in annotated(g, conj):
            with pytest.raises(InconsistentAnnotation, match=(
                    f"^real flag of vertex {ids[0]} disagrees with the fixed points of conj")):
                tb_from_graph(cg, wr=[])

    def test_conj_must_preserve_self_ints(self):
        chain, ids = make_chain([-2, -3, -2])
        g = chain.copy()
        # swap a (-2) with the (-3): not an automorphism of weights
        g.vertices[ids[1]].real = False
        g.vertices[ids[0]].real = False
        g.vertices[ids[2]].real = True
        conj = {ids[0]: ids[1], ids[1]: ids[0], ids[2]: ids[2]}
        for cg in annotated(g, conj):
            with pytest.raises(InconsistentAnnotation,
                               match="^conj does not preserve self-intersections$"):
                tb_from_graph(cg, wr=[])

    def test_conj_must_map_edges_to_edges(self):
        # a - b - c - d with a <-> c and b <-> d: an involution keeping the
        # weights with no fixed point, but the edge b - c goes to d - a.
        chain, ids = make_chain([-2, -2, -2, -2])
        g = chain.copy()
        for v in ids:
            g.vertices[v].real = False
        a, b, c, d = ids
        for cg in annotated(g, {a: c, c: a, b: d, d: b}):
            with pytest.raises(InconsistentAnnotation,
                               match="^conj is not a graph automorphism$"):
                tb_from_graph(cg, wr=[])

    @pytest.mark.parametrize("image", [99, "x", [0]])
    def test_conj_image_that_is_no_vertex_rejected(self, image):
        # An image that is no vertex id, unhashable ones included, breaks
        # the involution law.
        chain, ids = make_chain([-2, -2, -2])
        g = chain.copy()
        for v in ids:
            g.vertices[v].real = True
        conj = {v: v for v in ids}
        conj[ids[1]] = image
        for cg in annotated(g, conj):
            with pytest.raises(InconsistentAnnotation, match="^conj is not an involution$"):
                tb_from_graph(cg)

    def test_conj_undefined_on_a_vertex_rejected(self):
        chain, ids = make_chain([-2, -2, -2])
        g = chain.copy()
        for v in ids:
            g.vertices[v].real = True
        frozen = g.freeze()
        kept = (ids[0], ids[2])
        # The VertexMap lives on another graph, one without ids[1].
        other = FrozenGraph.from_columns([-2, -2], [], ids=kept)
        for conj in ({v: v for v in kept}, VertexMap(other, kept)):
            cg = CoverGraph(graph=frozen, m=None, n=None, e0_lift=None, deck={},
                            downstairs={}, conj=conj, sign=None)
            with pytest.raises(InconsistentAnnotation,
                               match=f"^conj is undefined on vertex {ids[1]}$"):
                tb_from_graph(cg)

    def test_zero_imaginary_arm_weight_rejected(self):
        # a real (-2) center with two conjugate imaginary (0)-arms: the
        # arm weight 0 would have no reciprocal in n', but its zero subtree
        # determinant makes the form singular, which n_prime and
        # tb_from_graph both refuse before weighing an arm
        star, center, ((left,), (right,)) = make_star(-2, [(0,), (0,)])
        g = star.copy()
        g.vertices[center].real = True
        g.vertices[left].real = False
        g.vertices[right].real = False
        conj = {center: center, left: right, right: left}
        cg = CoverGraph(graph=g.freeze(), m=None, n=None, e0_lift=None, deck={},
                        downstairs={}, conj=conj, sign=None)
        message = f"^intersection form is not negative definite at vertex {center}$"
        with pytest.raises(SingularMatrix, match=message):
            n_prime(cg.graph, center)
        with pytest.raises(SingularMatrix, match=message):
            tb_from_graph(cg, wr=[center])

    @pytest.mark.parametrize("selfs", [(-2, 0), (0,)], ids=["broken", "zero"])
    def test_zero_arm_messages(self, selfs):
        # n_prime and tb_from_graph refuse the singular form alike, at the
        # first vertex of the walk whose pivot is not negative.
        g, center, arm = make_zero_arm(selfs)
        cg = CoverGraph(graph=g, m=None, n=None, e0_lift=None, deck={},
                        downstairs={}, conj={}, sign=None)
        bad = arm[0] if len(arm) > 1 else center
        message = f"^intersection form is not negative definite at vertex {bad}$"
        with pytest.raises(SingularMatrix, match=message):
            n_prime(g, center)
        with pytest.raises(SingularMatrix, match=message):
            tb_from_graph(cg, wr=[center])

    @pytest.mark.parametrize("wr", [None, []], ids=["solved", "given"])
    def test_no_real_vertex(self, wr):
        # Two (-2) curves that conj swaps: N = 0 and W_R is empty, so
        # tb = -1 with no arm to weigh.
        chain, (a, b) = make_chain([-2, -2])
        g = chain.copy()
        for v in (a, b):
            g.vertices[v].real = False
        for cg in annotated(g, {a: b, b: a}):
            r = tb_from_graph(cg, wr=wr)
            assert (r.value, r.n_real, r.wr, r.n_prime_contrib) == (-1, 0, frozenset(), {})

    def test_all_real_n_prime_is_self_int(self, star12_minus):
        cg, _w = star12_minus
        g = cg.graph
        graphs = [(cg, tb_from_graph(cg, wr=g.ids))]
        for m, n in [(5, 8), (11, 6), (3, 7), (7, 4), (6, 17)]:
            marked, _cd, _level = evaluation_graph(m, n, "minus")
            graphs.append((marked, tb(m, n, "minus")))
        for marked, r in graphs:
            g = marked.graph
            assert all(g.real) and r.wr
            assert r.n_prime_contrib == {e: g.self_int[g.pos(e)] for e in r.wr}
            assert r.arm_weights == {e: () for e in r.wr}

    def test_branched_imaginary_arms(self):
        # Real (-2) center with a real (-3) arm and two conjugate imaginary
        # arms, each a (-3) head with (-2) and (-3) leaves:
        # weight -3 - (1/-2 + 1/-3) = -13/6, n' = -2 + 12/13 = -14/13,
        # tb = N - 1 + n' = 1 - 14/13.
        star, center, ((real_arm,), (left,), (right,)) = make_star(
            -2, [(-3,), (-3,), (-3,)])
        g = star.copy()
        conj = {center: center, real_arm: real_arm, left: right, right: left}
        for self_int in (-2, -3):
            x, y = (g.add_vertex(self_int) for _ in range(2))
            g.add_edge(left, x)
            g.add_edge(right, y)
            conj.update({x: y, y: x})
        for v in g.vertices:
            g.vertices[v].real = conj[v] == v
        cg = CoverGraph(graph=g.freeze(), m=None, n=None, e0_lift=None, deck={},
                        downstairs={}, conj=conj, sign=None)
        r = tb_from_graph(cg, wr=[center])
        assert r.arm_weights == {center: (Fraction(-13, 6), Fraction(-13, 6))}
        assert r.n_prime_contrib[center] == Fraction(-14, 13) == n_prime(cg.graph, center)
        assert r.value == Fraction(-1, 13)

    def test_non_gorenstein_caller_graph_is_a_user_error(self):
        # A single real (-3) curve: -3a = -1 has no integral solution. The
        # graph came from the caller, so this is bad input, not a bug.
        chain, _ids = make_chain([-3])
        g = chain.copy()
        g.vertices[0].real = True
        cg = CoverGraph(graph=g.freeze(), m=None, n=None, e0_lift=None, deck={},
                        downstairs={}, conj={}, sign=None)
        with pytest.raises(NonIntegralCanonicalClass) as info:
            tb_from_graph(cg)
        assert isinstance(info.value, UserInputError)
        assert not isinstance(info.value, InternalInvariantError)

    def test_value_is_the_sum_of_its_terms_on_folded_graphs(self):
        # Random trees with imaginary vertices, so tb folds their arms, each
        # walked from a random root, with W_R a random set of real vertices:
        # the n' denominators differ, and Fraction arithmetic is the oracle.
        # A tree whose form the dense oracle finds not negative definite is
        # refused instead.
        rng = random.Random(20261019)
        denominators, refused = set(), 0
        for _ in range(300):
            b = DecoratedGraph()
            ids = [b.add_vertex(-rng.randrange(2, 6), real=rng.random() < 0.4)
                   for _ in range(rng.randrange(2, 16))]
            for i in range(1, len(ids)):
                b.add_edge(ids[rng.randrange(i)], ids[i])
            b.vertices[rng.choice(ids)].real = True
            real = [v for v in ids if b.vertices[v].real]
            g = b.freeze().freeze(root=rng.choice(ids))
            cg = CoverGraph(graph=g, m=None, n=None, e0_lift=None, deck={}, downstairs={})
            wr = rng.sample(real, rng.randrange(len(real) + 1))
            if not is_negative_definite(intersection_matrix(g)[1]):
                refused += 1
                with pytest.raises(SingularMatrix, match="not negative definite"):
                    tb_from_graph(cg, wr=wr)
                continue
            r = tb_from_graph(cg, wr=wr)
            assert r.value == sum(r.n_prime_contrib.values(), Fraction(r.n_real - 1))
            denominators.update(term.denominator for term in r.n_prime_contrib.values())
            denominators.add(r.value.denominator)
        assert len(denominators) > 20 and refused > 0

    def test_arms_found_when_the_first_vertex_is_imaginary(self):
        # The star12 plus graph with one imaginary arm built first, so the
        # smallest id (the default root of the frozen walk) is imaginary.
        g = DecoratedGraph()
        left = [g.add_vertex(s) for s in (-2, -2, -2, -2, -3)]
        center, short = g.add_vertex(-2), g.add_vertex(-3)
        right = [g.add_vertex(s) for s in (-2, -2, -2, -2, -3)]
        for arm in (left, right):
            for a, b in zip([center] + arm, arm):
                g.add_edge(a, b)
        g.add_edge(center, short)
        conj = {center: center, short: short}
        conj.update(zip(left + right, right + left))
        for v in g.vertices:
            g.vertices[v].real = conj[v] == v
        cg = CoverGraph(graph=g.freeze(), m=None, n=None, e0_lift=center, deck={},
                        downstairs={}, conj=conj, sign="plus")
        r = tb_from_graph(cg)
        assert r.value == Fraction(7, 11)
        assert r.arm_weights == {center: (Fraction(-11, 9), Fraction(-11, 9))}

    def test_imaginary_set_between_real_vertices_is_no_arm(self):
        # a - b - c with b imaginary between the real a and c, and an
        # imaginary (-2) leaf d on a: only d is an arm (of a).
        chain, (a, b, c) = make_chain([-2, -3, -2])
        g = chain.copy()
        d = g.add_vertex(-2)
        g.add_edge(a, d)
        for v in g.vertices:
            g.vertices[v].real = v in (a, c)
        cg = CoverGraph(graph=g.freeze(), m=None, n=None, e0_lift=None, deck={},
                        downstairs={}, conj={}, sign=None)
        r = tb_from_graph(cg, wr=[a, c])
        assert r.arm_weights == {a: (Fraction(-2),), c: ()}
        assert r.n_prime_contrib == {a: Fraction(-3, 2), c: Fraction(-2)}
        assert r.value == Fraction(1) - Fraction(3, 2) - Fraction(2)


class TestReadsByPosition:
    """The readers address vertices by position: no per-id lookup per
    vertex, and no per-vertex record."""

    def test_tb_from_graph_makes_few_id_lookups(self, monkeypatch):
        marked = mark_real_structure(build_cover(6, 4789).minimal, "plus")
        assert len(marked.graph.ids) == 1599
        calls = []
        pos = FrozenGraph.pos
        monkeypatch.setattr(FrozenGraph, "pos", lambda g, v: calls.append(v) or pos(g, v))
        tb_from_graph(marked)
        assert len(calls) < 100

    def test_assemble_makes_no_id_lookup(self, monkeypatch, star12_plus):
        # W_R is walked as positions and its ids are read once for TbResult,
        # also when the fold has to move the walk to a real root: on the
        # unmarked cached graph with the real column tb computes for it, and
        # on marked graphs with their own real column.
        tb_module = importlib.import_module("tbcalc.tb")
        cases = []
        for m, n in [(11, 6), (3, 2), (6, 4789)]:
            for sign in ("plus", "minus"):
                source, real, level = tb_module._source(build_cover(m, n), sign)
                cases.append((source.graph, real, source.characteristic.w, level,
                              tb(m, n, sign)))
                marked, cd, level = evaluation_graph(m, n, sign)
                cases.append((marked.graph, marked.graph.real, cd.w, level, tb(m, n, sign)))
        cg, w = star12_plus
        g = cg.graph.freeze(root=min(v for v, flag in zip(cg.graph.ids, cg.graph.real)
                                     if not flag))
        cases.append((g, g.real, w, "graph", tb_from_graph(cg)))

        def no_lookup(g, v):
            raise AssertionError(f"pos({v}) called")

        monkeypatch.setattr(FrozenGraph, "pos", no_lookup)
        for g, real, w, level, want in cases:
            assert tb_module._assemble(g, real, w, want.sign, want.m, want.n, level) == want

    def test_no_vertex_record_is_built(self, monkeypatch):
        marked = mark_real_structure(build_cover(6, 4789).minimal, "plus")
        built = []
        vertex = FrozenGraph._vertex
        monkeypatch.setattr(FrozenGraph, "_vertex",
                            lambda g, p: built.append(p) or vertex(g, p))
        tb(6, 4789, "plus")
        tb(11, 6, "minus")
        tb_from_graph(marked)
        graph_to_document(marked.graph)
        to_dot(marked.graph, marked.characteristic.w)
        build_cover.cache_clear()  # so verify's reads reach the assembly
        verify_identities(6, 30, 2)
        assert built == []
        assert marked.graph.vertices[marked.e0_lift].self_int < 0 and built
