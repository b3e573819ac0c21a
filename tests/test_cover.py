import math

import pytest

from tbcalc import (
    BadOddNeighborCount,
    DecoratedGraph,
    OddSelfIntOnBranch,
    StructureMismatch,
    build_cover,
    build_gamma_f,
    canonical_form,
    has_conj_adjacent_pair,
    label_arms,
    lift_double_cover,
    mark_real_structure,
    separate_odd_odd,
)
from conftest import build_star12_graph


def star_shape(cg):
    """Map family -> sorted list of self-int chains of the rupture arms."""
    from tbcalc import arms

    g = cg.graph
    shape = {}
    for arm in arms(g, cg.e0_lift):
        label = g.vertices[arm.head].arm_label or "branch"
        family = label.split("(")[0]
        selfs = tuple(g.vertices[v].self_int for v in arm.vertices)
        shape.setdefault(family, []).append(selfs)
    for chains in shape.values():
        chains.sort()
    return shape


class TestLiftRules:
    def test_odd_mult_halves_self_int(self):
        cover = build_cover(11, 6)
        down = cover.gamma_f_prime
        for v in down.vertex_ids():
            if down.vertices[v].mult % 2 == 1:
                (lifted,) = cover.lift.lifts_of(v)
                assert (cover.lift.graph.vertices[lifted].self_int
                        == down.vertices[v].self_int // 2)

    def test_even_mult_with_two_odd_neighbors_doubles(self):
        # (11,6) rupture: mult 66, neighbors of odd mult 11 and the arrow
        cover = build_cover(11, 6)
        down = cover.gamma_f_prime
        rupture = cover.rupture
        (lifted,) = cover.lift.lifts_of(rupture)
        assert (cover.lift.graph.vertices[lifted].self_int
                == 2 * down.vertices[rupture].self_int)

    def test_even_mult_no_odd_neighbors_doubles_up(self):
        cover = build_cover(11, 6)
        down = cover.gamma_f_prime
        rupture = cover.rupture
        for v in down.vertex_ids():
            if down.vertices[v].mult % 2 == 0 and v != rupture:
                pair = cover.lift.lifts_of(v)
                if len(pair) == 2:
                    a, b = pair
                    assert cover.lift.deck[a] == b
                    assert cover.lift.deck[b] == a
                    assert (cover.lift.graph.vertices[a].self_int
                            == down.vertices[v].self_int)

    def test_no_arrows_upstairs(self):
        for m, n in [(3, 2), (5, 8), (11, 6)]:
            assert build_cover(m, n).lift.graph.arrows == []

    def test_lift_is_tree(self):
        for m, n in [(5, 8), (11, 6), (3, 5)]:
            build_cover(m, n).lift.graph.validate()

    def test_odd_self_int_on_branch_rejected(self):
        g = DecoratedGraph()
        a = g.add_vertex(-3, mult=3)
        b = g.add_vertex(-1, mult=6)
        g.add_edge(a, b)
        g.arrows.append(b)
        g.arrows.append(b)
        g.arrows.append(b)
        with pytest.raises(OddSelfIntOnBranch):
            lift_double_cover(g, b, 3, 2)

    def test_bad_odd_neighbor_count_rejected(self):
        # even vertex with exactly one odd neighbor violates the
        # balance law of the branch divisor
        g = DecoratedGraph()
        a = g.add_vertex(-2, mult=3)
        b = g.add_vertex(-2, mult=4)
        g.add_edge(a, b)
        with pytest.raises(BadOddNeighborCount):
            lift_double_cover(g, b, 3, 4)


class TestGammaStructures:
    def test_gamma_5_8_true_shape(self):
        cover = build_cover(5, 8)
        g = cover.minimal.graph
        assert len(g.vertex_ids()) == 8
        assert g.vertices[cover.minimal.e0_lift].self_int == -2
        assert star_shape(cover.minimal) == {
            "n_arm": [(-2, -2, -2)],
            "m_arm": [(-2, -3), (-2, -3)],
        }

    def test_gamma_11_6_is_the_twelve_vertex_star(self):
        cover = build_cover(11, 6)
        g = cover.minimal.graph
        assert len(g.vertex_ids()) == 12
        assert g.vertices[cover.minimal.e0_lift].self_int == -2
        assert star_shape(cover.minimal) == {
            "n_arm": [(-3,)],
            "m_arm": [(-2, -2, -2, -2, -3), (-2, -2, -2, -2, -3)],
        }

    def test_gamma_11_6_matches_hand_built_star(self):
        cover = build_cover(11, 6)
        star, _w = build_star12_graph("minus")
        assert (canonical_form(cover.minimal.graph, fields=("self_int",))
                == canonical_form(star.graph, fields=("self_int",)))

    def test_gamma_3_5_is_e8(self):
        cover = build_cover(3, 5)
        g = cover.minimal.graph
        assert len(g.vertex_ids()) == 8
        assert all(g.vertices[v].self_int == -2 for v in g.vertex_ids())
        degrees = sorted(g.degree(v) for v in g.vertex_ids())
        assert degrees == [1, 1, 1, 2, 2, 2, 2, 3]

    def test_arm_counts_match_parity(self):
        # gcd(m,2) lifts of the (n)-side, gcd(n,2) of the (m)-side
        for m, n, n_arms, m_arms in [(5, 8, 1, 2), (11, 6, 1, 2),
                                     (3, 5, 1, 1), (6, 5, 2, 1)]:
            shape = star_shape(build_cover(m, n).minimal)
            assert len(shape.get("n_arm", [])) == n_arms
            assert len(shape.get("m_arm", [])) == m_arms

    def test_branch_arm_only_when_both_odd(self):
        assert "branch" in star_shape(build_cover(3, 5).minimal)
        assert "branch" not in star_shape(build_cover(5, 8).minimal)
        assert "branch" not in star_shape(build_cover(6, 5).minimal)


class TestRealStructure:
    def test_minus_marks_everything_real(self):
        cover = build_cover(5, 8)
        marked = mark_real_structure(cover.minimal, "minus")
        g = marked.graph
        assert all(g.vertices[v].real for v in g.vertex_ids())
        assert all(marked.conj[v] == v for v in g.vertex_ids())

    def test_both_odd_plus_equals_minus(self):
        cover = build_cover(3, 5)
        plus = mark_real_structure(cover.minimal, "plus")
        assert all(plus.graph.vertices[v].real
                   for v in plus.graph.vertex_ids())

    def test_plus_fixes_even_exponent_arm(self):
        # (11,6): n = 6 even; real locus is e0 and the (n)-arm vertex
        cover = build_cover(11, 6)
        marked = mark_real_structure(cover.minimal, "plus")
        g = marked.graph
        real = {v for v in g.vertex_ids() if g.vertices[v].real}
        assert marked.e0_lift in real
        assert len(real) == 2
        labels = {g.vertices[v].arm_label for v in real}
        assert labels == {"rupture", "n_arm(0)"}

    def test_plus_conj_swaps_pairs(self):
        cover = build_cover(11, 6)
        marked = mark_real_structure(cover.minimal, "plus")
        g = marked.graph
        for v in g.vertex_ids():
            w = marked.conj[v]
            assert marked.conj[w] == v
            assert (w == v) == bool(g.vertices[v].real)

    def test_rejects_unknown_sign(self):
        cover = build_cover(3, 2)
        with pytest.raises(ValueError):
            mark_real_structure(cover.minimal, "both")

    def test_mark_does_not_mutate_input(self):
        cover = build_cover(7, 4)
        before = canonical_form(cover.minimal.graph)
        mark_real_structure(cover.minimal, "plus")
        mark_real_structure(cover.minimal, "minus")
        assert canonical_form(cover.minimal.graph) == before


class TestArmNamingCheck:
    @staticmethod
    def fresh_lift(m, n):
        cover = build_cover(m, n)
        down = cover.gamma_f_prime
        return lift_double_cover(down, cover.rupture, m, n), down

    @pytest.mark.parametrize("m,n", [(11, 6), (6, 5), (3, 2)])
    def test_labels_the_fresh_lift_in_place(self, m, n):
        raw, down = self.fresh_lift(m, n)
        assert label_arms(raw, down, m, n) is raw
        assert canonical_form(raw.graph) == canonical_form(build_cover(m, n).lift.graph)

    @pytest.mark.parametrize("m,n", [(11, 6), (6, 5), (3, 2)])
    def test_deck_disagreeing_with_arm_names_is_rejected(self, m, n):
        # One even exponent: the deck-fixed curves must be the rupture
        # curve and the arm named after the even exponent.
        for tamper in ("identity", "move_rupture"):
            raw, down = self.fresh_lift(m, n)
            if tamper == "identity":
                raw.deck = {v: v for v in raw.deck}
            else:
                other = next(v for v in raw.deck if v != raw.e0_lift)
                raw.deck[raw.e0_lift] = other
            with pytest.raises(StructureMismatch, match="deck-fixed"):
                label_arms(raw, down, m, n)

    def test_both_odd_has_no_naming_check(self):
        raw, down = self.fresh_lift(3, 5)
        raw.deck = {v: v for v in raw.deck}
        label_arms(raw, down, 3, 5)


class TestConjAdjacentFallback:
    def test_degenerate_small_pairs(self):
        # on (3,2) plus, minimization brings a conjugate pair together
        marked = mark_real_structure(build_cover(3, 2).minimal, "plus")
        assert has_conj_adjacent_pair(marked)

    def test_generic_pairs_are_clean(self):
        marked = mark_real_structure(build_cover(11, 6).minimal, "plus")
        assert not has_conj_adjacent_pair(marked)

    def test_lift_never_degenerate(self):
        for m, n in [(3, 2), (2, 7), (5, 2)]:
            marked = mark_real_structure(build_cover(m, n).lift, "plus")
            assert not has_conj_adjacent_pair(marked)


class TestStructuralGuards:
    def test_adjacent_even_singles_rejected(self):
        # two adjacent mult-2 curves each meeting two arrows: both lift
        # as single curves, but their common edge has no consistent lift
        g = DecoratedGraph()
        a = g.add_vertex(-2, mult=2)
        b = g.add_vertex(-2, mult=2)
        g.add_edge(a, b)
        for v in (a, b):
            g.arrows.append(v)
            g.arrows.append(v)
        with pytest.raises(StructureMismatch):
            lift_double_cover(g, a, 2, 2)

    def test_odd_odd_edge_rejected(self):
        g = DecoratedGraph()
        a = g.add_vertex(-2, mult=3)
        b = g.add_vertex(-2, mult=5)
        g.add_edge(a, b)
        with pytest.raises((StructureMismatch, BadOddNeighborCount)):
            lift_double_cover(g, a, 3, 5)


class TestUnchangedStages:
    def test_stage_hands_on_its_input_exactly_when_it_changes_nothing(self):
        for m in range(2, 13):
            for n in range(2, 41):
                if math.gcd(m, n) != 1:
                    continue
                cover = build_cover(m, n)
                g = cover.gamma_f
                odd = {v for v, data in g.vertices.items() if data.mult % 2}
                nothing_to_separate = (
                    not any(u in odd and v in odd for u, v in g.edges())
                    and not odd.intersection(g.arrows)
                )
                assert (cover.gamma_f_prime is g) == nothing_to_separate, (m, n)
                blown_down = (len(cover.minimal.graph.vertices)
                              < len(cover.lift.graph.vertices))
                assert (cover.minimal is cover.lift) != blown_down, (m, n)
