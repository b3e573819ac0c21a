import math

import pytest

from tbcalc import (
    InconsistentAnnotation,
    NotNumericallyGorenstein,
    WU_CONFIRMED_CONSISTENT,
    WU_CONFIRMED_UNIQUE,
    build_cover,
    canonical_coefficients,
    mark_real_structure,
    verify_identities,
)
from conftest import build_star12_graph, make_chain, neighbours
from oracles import restrict_to_real


class TestCanonicalCoefficients:
    def test_e8_has_empty_w(self):
        # Gamma(3,5) is the E8 plumbing: a = 0, so W is empty
        cover = build_cover(3, 5)
        cd = canonical_coefficients(cover.minimal)
        assert all(value == 0 for value in cd.a.values())
        assert cd.w == frozenset()

    def test_gamma_11_6_w(self):
        cover = build_cover(11, 6)
        cd = canonical_coefficients(cover.minimal)
        assert len(cd.w) == 5
        g = cover.minimal.graph
        assert cover.minimal.e0_lift in cd.w
        assert all(g.vertices[v].self_int == -2 for v in cd.w)

    def test_adjunction_equations_hold(self):
        for m, n in [(5, 8), (11, 6), (3, 7), (6, 5)]:
            cover = build_cover(m, n)
            g = cover.minimal.graph
            cd = canonical_coefficients(cover.minimal)
            near = neighbours(g)
            for v in g.vertex_ids():
                lhs = (g.vertices[v].self_int * cd.a[v]
                       + sum(cd.a[u] for u in near[v]))
                assert lhs == g.vertices[v].self_int + 2

    def test_w_is_parity_of_a(self):
        cover = build_cover(5, 8)
        cd = canonical_coefficients(cover.minimal)
        for v, value in cd.a.items():
            assert (v in cd.w) == (value % 2 == 1)

    def test_wu_status_on_pipeline_graphs(self):
        for m, n in [(3, 2), (5, 8), (11, 6), (6, 17)]:
            cover = build_cover(m, n)
            cd = canonical_coefficients(cover.minimal)
            assert cd.wu_status in (WU_CONFIRMED_UNIQUE,
                                    WU_CONFIRMED_CONSISTENT)

    def test_w_is_deck_invariant(self):
        for m, n in [(5, 8), (11, 6), (6, 5)]:
            cover = build_cover(m, n)
            cd = canonical_coefficients(cover.minimal)
            deck = cover.minimal.deck
            assert {deck[v] for v in cd.w} == set(cd.w)

    def test_non_gorenstein_rejected(self):
        # single (-3) vertex: -3a = -1 has no integer solution
        g, _ids = make_chain([-3])
        with pytest.raises(NotNumericallyGorenstein):
            canonical_coefficients(g)

    def test_plain_graph_accepted(self):
        # bare FrozenGraph input works the same as a CoverGraph
        g, ids = make_chain([-2, -2])
        cd = canonical_coefficients(g)
        assert cd.a == {ids[0]: 0, ids[1]: 0}
        assert cd.w == frozenset()

    def test_wu_status_follows_determinant_parity(self):
        # A2 has det 3: the Wu solution is unique. A single (-2) vertex has
        # det -2: x = 0 and x = 1 both solve -2x = -2 mod 2.
        g, _ids = make_chain([-2, -2])
        assert canonical_coefficients(g).wu_status == WU_CONFIRMED_UNIQUE
        g, _ids = make_chain([-2])
        assert canonical_coefficients(g).wu_status == WU_CONFIRMED_CONSISTENT


class TestStoredCharacteristic:
    def test_marking_leaves_the_solution_alone(self):
        # The solve reads self-intersections, edges and deck; marking a
        # real structure changes none of them.
        for m in range(2, 10):
            for n in range(2, 30):
                if math.gcd(m, n) != 1:
                    continue
                cover = build_cover(m, n)
                for cg in (cover.lift, cover.minimal):
                    for sign in ("plus", "minus"):
                        marked = mark_real_structure(cg, sign)
                        assert canonical_coefficients(marked) == cg.characteristic

    def test_solved_once_and_not_copied(self):
        cg = build_cover(11, 6).minimal
        assert cg.characteristic is cg.characteristic
        assert "characteristic" not in vars(mark_real_structure(cg, "plus"))


class TestRestrictToReal:
    def test_minus_keeps_all_of_w(self):
        cover = build_cover(5, 8)
        marked = mark_real_structure(cover.minimal, "minus")
        cd = canonical_coefficients(marked)
        assert restrict_to_real(cd, marked) == cd.w

    def test_plus_keeps_the_real_part(self):
        marked = mark_real_structure(build_cover(11, 6).minimal, "plus")
        cd = canonical_coefficients(marked)
        wr = restrict_to_real(cd, marked)
        assert wr == frozenset({marked.e0_lift})

    def test_unmarked_graph_rejected(self):
        cover = build_cover(5, 8)
        cd = canonical_coefficients(cover.minimal)
        with pytest.raises(InconsistentAnnotation):
            restrict_to_real(cd, cover.minimal)

    def test_star12_graph_wr(self):
        cg, w = build_star12_graph("plus")
        cd = canonical_coefficients(cg)
        assert cd.w == w
        assert restrict_to_real(cd, cg) == frozenset({cg.e0_lift})


def parity_records(m, n):
    """The parity suite's violation records for (m, n), from a run over
    the grid up to it, with the suite's checked count."""
    (suite,) = verify_identities(m, n, 1, suites=("parity",)).suites
    return [r for r in suite.violations if (r["m"], r["n"]) == (m, n)], suite.checked


class TestParityChecks:
    """canonical_coefficients' W on the lift obeys the parity suite's laws,
    which fire on a W planted by plant_w."""

    def test_report_shape(self, plant_w):
        records, checked = parity_records(5, 8)
        assert records == [] and checked > 0
        plant_w(5, 8)
        records, _checked = parity_records(5, 8)
        assert {r["identity"] for r in records} == {
            "odd_mult_not_in_w", "even_mult_parity_law", "rupture_membership"}

    def test_rupture_membership_cases(self, plant_w):
        # e0 in W iff the unique even exponent is 2 mod 4
        for m, n, expected in [(6, 5, True), (4, 3, False), (11, 6, True),
                               (3, 8, False)]:
            cover = build_cover(m, n)
            cd = canonical_coefficients(cover.lift)
            assert parity_records(m, n)[0] == []
            e0 = cover.lift.e0_lift
            assert (e0 in cd.w) is expected
            # The law is checked on e^0: flipped alone, e^0 (over e_0 of
            # even multiplicity mn) breaks it and the even law.
            plant_w(m, n, flip={e0})
            assert [r["identity"] for r in parity_records(m, n)[0]] == [
                "even_mult_parity_law", "rupture_membership"]

    def test_both_odd_skips_rupture_law(self, plant_w):
        # Flipped alone, e^0 breaks only the law of its odd multiplicity 15.
        cover = build_cover(3, 5)
        plant_w(3, 5, flip={cover.lift.e0_lift})
        detail = {"vertex": cover.lift.e0_lift, "downstairs": cover.rupture, "mult": 15}
        assert parity_records(3, 5)[0] == [
            {"identity": "odd_mult_not_in_w", "detail": str(detail), "m": 3, "n": 5}]

    def test_odd_mult_never_in_w(self):
        for m, n in [(5, 8), (11, 6), (3, 5)]:
            cover = build_cover(m, n)
            cd = canonical_coefficients(cover.lift)
            g = cover.lift.graph
            down = cover.gamma_f_prime
            for v in g.vertex_ids():
                mult = down.vertices[cover.lift.downstairs[v]].mult
                if mult % 2 == 1:
                    assert v not in cd.w
