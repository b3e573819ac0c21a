import gc
import hashlib
import math
from fractions import Fraction

import pytest

from tbcalc import (
    BadExponents,
    BadOddNeighborCount,
    CoverGraph,
    DecoratedGraph,
    FrozenGraph,
    InternalInvariantError,
    VertexData,
    OddSelfIntOnBranch,
    StructureMismatch,
    build_cover,
    build_gamma_f,
    VertexMap,
    canonical_coefficients,
    arms,
    label_arms,
    lift_double_cover,
    mark_real_structure,
    minimize_and_label,
    real_locus,
    separate_odd_odd,
    tb,
)
from tbcalc import charclass
from tbcalc import cover as cover_module
from conftest import build_star12_graph, lifts_of, neighbours
from oracles import canonical_form, meets_its_conjugate, reference_lift


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
                (lifted,) = lifts_of(cover.lift, v)
                assert (cover.lift.graph.vertices[lifted].self_int
                        == down.vertices[v].self_int // 2)

    def test_even_mult_with_two_odd_neighbors_doubles(self):
        # (11,6) rupture: mult 66, neighbors of odd mult 11 and the arrow
        cover = build_cover(11, 6)
        down = cover.gamma_f_prime
        rupture = cover.rupture
        (lifted,) = lifts_of(cover.lift, rupture)
        assert (cover.lift.graph.vertices[lifted].self_int
                == 2 * down.vertices[rupture].self_int)

    def test_even_mult_no_odd_neighbors_doubles_up(self):
        cover = build_cover(11, 6)
        down = cover.gamma_f_prime
        rupture = cover.rupture
        for v in down.vertex_ids():
            if down.vertices[v].mult % 2 == 0 and v != rupture:
                pair = lifts_of(cover.lift, v)
                if len(pair) == 2:
                    a, b = pair
                    assert cover.lift.deck[a] == b
                    assert cover.lift.deck[b] == a
                    assert (cover.lift.graph.vertices[a].self_int
                            == down.vertices[v].self_int)

    def test_no_arrows_upstairs(self):
        for m, n in [(3, 2), (5, 8), (11, 6)]:
            assert build_cover(m, n).lift.graph.arrows == ()

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
            lift_double_cover(g.freeze(), b, 3, 2)

    def test_bad_odd_neighbor_count_rejected(self):
        # even vertex with exactly one odd neighbor violates the
        # balance law of the branch divisor
        g = DecoratedGraph()
        a = g.add_vertex(-2, mult=3)
        b = g.add_vertex(-2, mult=4)
        g.add_edge(a, b)
        with pytest.raises(BadOddNeighborCount):
            lift_double_cover(g.freeze(), b, 3, 4)


class TestReferenceLift:
    # Every field of the lift against reference_lift, which applies the
    # lifting rules on neighbour sets and shares no code with the package's
    # lift: the columns, the neighbour lists, e0_lift and the stored walk.
    PAIRS = [(m, n) for m in range(2, 17) for n in range(2, 81) if math.gcd(m, n) == 1]

    def test_lift_matches_the_reference_lift(self):
        assert len(self.PAIRS) == 696
        for m, n in [*self.PAIRS, (2, 1599), (6, 4775)]:
            cover = build_cover(m, n)
            lift = lift_double_cover(cover.gamma_f_prime, cover.rupture, m, n)
            up, ref = lift.graph, reference_lift(cover.gamma_f_prime, cover.rupture)
            start = up.adj_start
            assert list(up.ids) == list(range(len(ref["self_int"]))), (m, n)
            assert list(up.self_int) == ref["self_int"], (m, n)
            assert [list(up.adj[start[p]:start[p + 1]]) for p in up.ids] == ref["near"], (m, n)
            assert [lift.deck[p] for p in up.ids] == ref["deck"], (m, n)
            assert [lift.downstairs[p] for p in up.ids] == ref["downstairs"], (m, n)
            assert lift.e0_lift == ref["e0_lift"], (m, n)
            assert (list(up.order), list(up.parent)) == (ref["order"], ref["parent"]), (m, n)


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
        degrees = sorted(map(len, neighbours(g).values()))
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
        # label_arms returns the lift with its arm_label column filled in
        # and leaves the fresh, frozen lift it was given unlabelled.
        raw, down = self.fresh_lift(m, n)
        labelled = label_arms(raw, down)
        assert set(raw.graph.arm_label) == {None}
        assert labelled.graph == raw.graph._replace(arm_label=labelled.graph.arm_label)
        assert canonical_form(labelled.graph) == canonical_form(build_cover(m, n).lift.graph)

    @pytest.mark.parametrize("m,n", [(11, 6), (6, 5), (3, 2)])
    def test_deck_disagreeing_with_arm_names_is_rejected(self, m, n):
        # One even exponent: the deck-fixed curves must be the rupture
        # curve and the arm named after the even exponent.
        for tamper in ("identity", "move_rupture"):
            raw, down = self.fresh_lift(m, n)
            if tamper == "identity":
                raw = raw._replace(deck={v: v for v in raw.deck})
            else:
                other = next(v for v in raw.deck if v != raw.e0_lift)
                raw = raw._replace(deck={**raw.deck, raw.e0_lift: other})
            with pytest.raises(StructureMismatch, match="deck-fixed"):
                label_arms(raw, down)

    def test_both_odd_has_no_naming_check(self):
        raw, down = self.fresh_lift(3, 5)
        label_arms(raw._replace(deck={v: v for v in raw.deck}), down)


class TestConjAdjacentFallback:
    def test_degenerate_small_pairs(self):
        # on (3,2) plus, minimization brings a conjugate pair together
        marked = mark_real_structure(build_cover(3, 2).minimal, "plus")
        assert meets_its_conjugate(marked)

    def test_generic_pairs_are_clean(self):
        marked = mark_real_structure(build_cover(11, 6).minimal, "plus")
        assert not meets_its_conjugate(marked)

    def test_lift_never_degenerate(self):
        for m, n in [(3, 2), (2, 7), (5, 2)]:
            marked = mark_real_structure(build_cover(m, n).lift, "plus")
            assert not meets_its_conjugate(marked)

    GRID = [(m, n) for m in range(2, 31) for n in range(2, 201) if math.gcd(m, n) == 1]

    def test_lift_level_exactly_where_a_curve_meets_its_conjugate(self):
        # tb decides the fallback by e0_lift and the sign; the oracle looks
        # at every edge of Gamma(m,n) and of the lift.
        lifts = 0
        for m, n in self.GRID:
            cover = build_cover(m, n)
            meets = meets_its_conjugate(cover.minimal)
            assert not meets_its_conjugate(cover.lift), (m, n)
            for sign in ("plus", "minus"):
                level = tb(m, n, sign).level
                assert (level == "lift") == (sign == "plus" and meets), (m, n, sign)
                lifts += level == "lift"
        assert lifts == 113

    def test_deck_swaps_the_two_moving_arms_of_e0(self):
        # The premise of the rule: with one even exponent, deck maps each arm
        # of e^0 that it does not fix onto the other, curve by curve from the
        # head, on the lift and on Gamma(m,n) while e^0 survives.
        graphs = 0
        for m, n in self.GRID:
            if m % 2 and n % 2:
                continue
            cover = build_cover(m, n)
            for cg in (cover.lift, cover.minimal):
                if cg.e0_lift is None:
                    continue
                deck = dict(cg.deck.items())
                moving = [arm.vertices for arm in arms(cg.graph, cg.e0_lift)
                          if any(deck[v] != v for v in arm.vertices)]
                assert len(moving) == 2, (m, n)
                first, second = moving
                assert tuple(map(deck.get, first)) == second, (m, n)
                assert tuple(map(deck.get, second)) == first, (m, n)
                graphs += 1
        assert graphs == 4579


class TestPositionColumns:
    # The stages read deck, downstairs and conj as position columns when
    # they are VertexMaps over the graph, and by lookups when a caller hands
    # in dicts; both must give the same answers.
    PAIRS = [(m, n) for m in range(2, 13) for n in range(2, 61) if math.gcd(m, n) == 1]

    @staticmethod
    def as_dicts(cg):
        return cg._replace(deck=dict(cg.deck.items()), downstairs=dict(cg.downstairs.items()),
                           conj=dict(cg.conj.items()))

    def test_real_structure(self):
        for m, n in self.PAIRS:
            cg = build_cover(m, n).minimal
            for sign in ("plus", "minus"):
                marked = mark_real_structure(cg, sign)
                assert real_locus(self.as_dicts(cg), sign) == real_locus(cg, sign)
                assert dict(mark_real_structure(self.as_dicts(cg), sign).conj.items()) == dict(
                    marked.conj.items())

    def test_deck_invariance_of_w(self):
        for m, n in self.PAIRS:
            cover = build_cover(m, n)
            for cg in (cover.minimal, cover.lift):
                cd = canonical_coefficients(cg)
                by_dict = canonical_coefficients(self.as_dicts(cg))
                assert (dict(by_dict.a.items()), by_dict.w, by_dict.wu_status) == (
                    dict(cd.a.items()), cd.w, cd.wu_status), (m, n)

    def test_deck_moving_w_is_rejected_either_way(self):
        cg = build_cover(11, 6).minimal
        w = canonical_coefficients(cg).w
        inside, outside = min(w), min(set(cg.graph.ids) - w)
        deck = {v: outside if v == inside else inside if v == outside else v
                for v in cg.graph.ids}
        for moved in (deck, VertexMap(cg.graph, map(deck.__getitem__, cg.graph.ids))):
            with pytest.raises(StructureMismatch, match="deck transformation"):
                canonical_coefficients(cg._replace(deck=moved))


class TestCoverCache:
    def test_cache_keeps_the_most_recent_pairs(self):
        assert build_cover.cache_parameters()["maxsize"] == 1024
        build_cover.cache_clear()
        pairs = [(m, n) for n in range(2, 200) for m in range(2, 12) if math.gcd(m, n) == 1]
        pairs = pairs[:1030]
        for m, n in pairs:
            build_cover(m, n)
        assert build_cover.cache_info().currsize == 1024
        misses = build_cover.cache_info().misses
        build_cover(*pairs[-1])
        assert build_cover.cache_info().misses == misses
        # pairs[0] is (3, 2), built from (2, 3): both keys have left the
        # cache, so the transposed pair misses once and its base once.
        assert pairs[0] == (3, 2)
        build_cover(*pairs[0])
        assert build_cover.cache_info().misses == misses + 2

    def test_a_repeat_tb_is_a_cache_hit(self):
        tb(7, 60, "plus")
        before = build_cover.cache_info()
        tb(7, 60, "plus")
        tb(7, 60, "minus")
        after = build_cover.cache_info()
        assert (after.hits, after.misses) == (before.hits + 2, before.misses)


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
            lift_double_cover(g.freeze(), a, 2, 2)

    def test_duplicate_edge_is_not_a_tree(self):
        # a-b twice and no edge to c: the lift has V - 1 edges but is not
        # connected, which the tree check rejects.
        gp = FrozenGraph.from_columns([-2, -2, -2], [(0, 1), (0, 1)], mult=[1, 2, 1])
        with pytest.raises(StructureMismatch, match="not a tree"):
            lift_double_cover(gp, 1, 3, 2)

    def test_odd_odd_edge_rejected(self):
        g = DecoratedGraph()
        a = g.add_vertex(-2, mult=3)
        b = g.add_vertex(-2, mult=5)
        g.add_edge(a, b)
        with pytest.raises((StructureMismatch, BadOddNeighborCount)):
            lift_double_cover(g.freeze(), a, 3, 5)


class TestSelfChecks:
    """Each self-check of the lift, arm-labelling and blow-down stages
    raises StructureMismatch once its stage is handed a crafted lift, or
    arms or blow_down_minimize is patched to break the law it checks."""

    @staticmethod
    def raised(call, *args):
        with pytest.raises(StructureMismatch) as info:
            call(*args)
        return str(info.value)

    def label_with_arms(self, monkeypatch, rewrite):
        # (11, 6): one (n)-arm and two swapped (m)-arms on e^0.
        raw, down = TestArmNamingCheck.fresh_lift(11, 6)
        found = arms(raw.graph, raw.e0_lift)
        monkeypatch.setattr(cover_module, "arms", lambda g, e: rewrite(found))
        return self.raised(label_arms, raw, down)

    def test_lift_needs_multiplicities(self):
        cover = build_cover(11, 6)
        gp = cover.gamma_f_prime
        gp = gp._replace(mult=(None, *gp.mult[1:]))
        assert self.raised(lift_double_cover, gp, cover.rupture, 11, 6) == (
            f"vertex {gp.ids[0]} has no multiplicity")

    def test_rupture_needs_a_unique_lift(self):
        # Even e_0 (position 0) meets only the even curve 1, which meets the
        # odd curves 2 and 3: the lift is a tree with e_0 doubled.
        gp = FrozenGraph.from_columns([-2, -2, -2, -2], [(0, 1), (1, 2), (1, 3)],
                                      mult=[2, 2, 1, 1])
        assert self.raised(lift_double_cover, gp, 0, 3, 2) == (
            "rupture vertex must have a unique lift")

    def test_labelling_needs_the_rupture_lift(self):
        raw, down = TestArmNamingCheck.fresh_lift(11, 6)
        assert self.raised(label_arms, raw._replace(e0_lift=None), down) == (
            "cannot label arms without the rupture lift")

    def test_labelling_reads_ids_as_positions(self):
        raw, down = TestArmNamingCheck.fresh_lift(11, 6)
        moved = raw._replace(graph=raw.graph._replace(ids=tuple(v + 1 for v in raw.graph.ids)))
        gapped = down._replace(ids=(*down.ids[:-1], down.ids[-1] + 1))
        for cg, gp in ((moved, down), (raw, gapped)):
            assert self.raised(label_arms, cg, gp) == (
                "label_arms needs graphs whose ids are their positions")

    def test_minimizing_reads_ids_as_positions(self):
        # (3, 10): one curve blows down; its removed id marks a position.
        cover = build_cover(3, 10)
        lift = cover.lift
        moved = lift._replace(graph=lift.graph._replace(ids=tuple(v + 1 for v in lift.graph.ids)))
        assert self.raised(minimize_and_label, moved, cover.gamma_f_prime) == (
            "minimize_and_label needs a lift whose ids are its positions")

    def test_rupture_has_three_arms(self, monkeypatch):
        assert self.label_with_arms(monkeypatch, lambda found: found[:2]) == (
            "e^0 has 2 arms, expected 3")

    def test_arms_are_bamboos(self, monkeypatch):
        rewrite = lambda found: [arm._replace(is_bamboo=False) for arm in found]  # noqa: E731
        assert self.label_with_arms(monkeypatch, rewrite) == "an arm of e^0 is not a bamboo"

    def test_an_arm_lies_over_one_component(self, monkeypatch):
        def rewrite(found):
            merged = sum((arm.vertices for arm in found), ())
            return [found[0]._replace(vertices=merged), *found[1:]]

        assert self.label_with_arms(monkeypatch, rewrite) == (
            "one upstairs arm mixes downstairs arm components")

    def test_arm_families_are_counted(self, monkeypatch):
        labels = build_cover(11, 6).lift.graph.vertices

        def rewrite(found):
            m_arm = next(arm for arm in found if labels[arm.head].arm_label.startswith("m_arm"))
            return [m_arm] * 3

        assert self.label_with_arms(monkeypatch, rewrite) == "0 n_arm arms, expected 1"

    def minimize_with(self, monkeypatch, rewrite):
        # (3, 10): one curve blows down and e^0 survives.
        cover = build_cover(3, 10)
        lift = cover.lift
        blow_down = cover_module.blow_down_minimize
        monkeypatch.setattr(cover_module, "blow_down_minimize",
                            lambda g: rewrite(lift, *blow_down(g)))
        return self.raised(minimize_and_label, lift, cover.gamma_f_prime)

    def test_deck_restricts_to_the_minimal_graph(self, monkeypatch):
        def rewrite(lift, g, removed):
            # Keep every curve of the lift but one of a swapped pair.
            v = next(v for v in lift.graph.ids if lift.deck[v] != v)
            return lift.graph._replace(ids=tuple(u for u in lift.graph.ids if u != v)), [v]

        assert self.minimize_with(monkeypatch, rewrite) == (
            "deck transformation does not restrict to the minimal graph")

    def test_minimal_rupture_keeps_three_bamboo_arms(self, monkeypatch):
        # An arrow on every curve gives each inner curve of an arm a third
        # meeting.
        def rewrite(lift, g, removed):
            assert removed and lift.e0_lift in g.ids
            return g._replace(arrows=g.ids), removed

        assert self.minimize_with(monkeypatch, rewrite) == (
            "minimized rupture vertex lost its 3-bamboo-arm shape")


class TestFrozenCache:
    WRITE_ERRORS = (AttributeError, TypeError)

    def test_cached_graph_writes_raise(self):
        # Decrementing a self-intersection of a cached graph once made a
        # later tb raise, or, after the characteristic was read, use a
        # stale W. Writes now raise, before and after that read.
        cover = build_cover(5, 8)
        g = cover.minimal.graph
        v = g.vertex_ids()[0]
        with pytest.raises(self.WRITE_ERRORS):
            g.vertices[v].self_int -= 1
        cover.minimal.characteristic
        with pytest.raises(self.WRITE_ERRORS):
            g.vertices[v].self_int -= 1
        assert tb(5, 8, "minus").value == 3

    def test_every_cached_value_is_read_only(self):
        cover = build_cover(11, 6)
        cg, v = cover.minimal, cover.minimal.e0_lift
        writes = [
            lambda: setattr(cg.graph, "self_int", ()),
            lambda: cg.graph.arrows.append(v),
            lambda: cg.deck.__setitem__(v, v),
            lambda: cg.downstairs.__setitem__(v, v),
            lambda: cg.conj.__setitem__(v, v),
            lambda: setattr(cg, "deck", {}),
            lambda: setattr(cg, "characteristic", None),
            lambda: CoverGraph(cg.graph, 11, 6, v, cg.deck, cg.downstairs).conj.__setitem__(v, v),
            lambda: setattr(cover, "minimal", cover.lift),
            lambda: setattr(cover.gamma_f.vertices[cover.rupture], "mult", 1),
        ]
        for write in writes:
            with pytest.raises(self.WRITE_ERRORS):
                write()
        assert tb(11, 6, "plus").value == Fraction(7, 11)

    def test_cache_holds_no_per_vertex_objects(self):
        # What the cached results reach is a few flat values per graph: no
        # VertexData and no adjacency set, and a number of containers that
        # does not grow with the graphs.
        covers = [build_cover(m, n) for m in range(2, 13) for n in range(2, 41)
                  if math.gcd(m, n) == 1]
        for cover in covers[::7]:
            cover.minimal.characteristic
        seen, stack, found = set(), list(covers), []
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, type):
                continue
            seen.add(id(obj))
            found.append(type(obj))
            stack.extend(gc.get_referents(obj))
        assert VertexData not in found and set not in found
        containers = [t for t in found if t not in (int, str, type(None))]
        assert len(containers) < 60 * len(covers)


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


class TestFrozenStages:
    def test_cold_build_makes_no_builder(self, monkeypatch):
        # Every stage emits a frozen value, blow-down included: no pair
        # makes or freezes a builder, whether or not some curve contracts.
        made, frozen = [], []
        init, freeze = DecoratedGraph.__init__, DecoratedGraph.freeze

        def counting_init(g):
            made.append(g)
            init(g)

        def counting_freeze(g):
            frozen.append(g)
            return freeze(g)

        monkeypatch.setattr(DecoratedGraph, "__init__", counting_init)
        monkeypatch.setattr(DecoratedGraph, "freeze", counting_freeze)
        build_cover.cache_clear()
        blown_down = set()
        for m in range(2, 13):
            for n in range(2, 41):
                if math.gcd(m, n) != 1:
                    continue
                cover = build_cover(m, n)
                if cover.minimal is not cover.lift:
                    blown_down.add((m, n))
        assert made == frozen == []
        assert (11, 6) not in blown_down and (3, 7) in blown_down

    def test_all_none_columns_share_one_tuple(self):
        for m, n in [(11, 6), (5, 8), (3, 7), (3, 2)]:
            cover = build_cover(m, n)
            for g in (cover.gamma_f, cover.gamma_f_prime):
                assert g.arm_label is g.real and set(g.real) == {None}, (m, n)
            for cg in (cover.lift, cover.minimal):
                g = cg.graph
                assert g.mult is g.c1_coeff is g.real and set(g.real) == {None}, (m, n)

    def test_each_arm_label_is_one_string(self):
        # The cache keeps one label string per arm, not one per vertex.
        for m, n in [(11, 6), (5, 8), (3, 7), (2, 41)]:
            g = build_cover(m, n).lift.graph
            labels = [label for label in g.arm_label if label is not None]
            assert len(set(map(id, labels))) == len(set(labels)) == 4 - (m * n) % 2, (m, n)


def _graph_fields(g):
    return (g.ids, g.self_int, g.mult, g.c1_coeff, g.arm_label, g.real,
            tuple(g.edges()), g.order, g.parent, g.arrows, g.next_id)


def _cover_fields(cg):
    return (_graph_fields(cg.graph), tuple(cg.deck.items()),
            tuple(cg.downstairs.items()), cg.e0_lift)


class TestPinnedValues:
    # sha256 over every field of every cached graph and of every TbResult
    # for 2 <= m <= 16, 2 <= n <= 80 and both signs. A change to a stage
    # that moves a value, an id, an edge or the stored walk shows here.
    DIGEST = "da2eaa22359583e78f09566920dc22ea6a0fd350dec1d1997312478d268402d1"

    def test_cached_graphs_and_tb_results_are_unchanged(self):
        digest = hashlib.sha256()
        for m in range(2, 17):
            for n in range(2, 81):
                if math.gcd(m, n) != 1:
                    continue
                c = build_cover(m, n)
                digest.update(repr((
                    m, n, c.rupture, _graph_fields(c.gamma_f),
                    _graph_fields(c.gamma_f_prime), _cover_fields(c.lift),
                    _cover_fields(c.minimal))).encode())
                for sign in ("minus", "plus"):
                    r = tb(m, n, sign)
                    digest.update(repr((
                        r.value, r.n_real, sorted(r.wr),
                        sorted(r.n_prime_contrib.items()),
                        sorted(r.arm_weights.items()), r.sign, r.m, r.n,
                        r.level)).encode())
        assert digest.hexdigest() == self.DIGEST


class TestLiftCanonicalClass:
    def test_lift_coefficients_follow_the_branched_cover(self):
        # Over a Gamma'_f curve with c1 entry c and multiplicity mu, the
        # lift's adjunction coefficient is 2c + mu - 1 when mu is odd (the
        # curve is in the branch locus) and c + mu/2 when mu is even; the
        # minimal graph keeps the lift's coefficients on the curves that
        # survive the blow-down.
        for m in range(2, 25):
            for n in range(2, 100):
                if math.gcd(m, n) != 1:
                    continue
                cover = build_cover(m, n)
                down, lift = cover.gamma_f_prime, cover.lift
                a = lift.characteristic.a
                for v, below in lift.downstairs.items():
                    p = down.pos(below)
                    c, mu = down.c1_coeff[p], down.mult[p]
                    assert a[v] == (2 * c + mu - 1 if mu % 2 else c + mu // 2), (m, n, v)
                minimal = cover.minimal
                assert dict(minimal.characteristic.a.items()) == {
                    v: a[v] for v in minimal.graph.ids}, (m, n)

    def test_blown_down_graph_takes_the_solved_lift_coefficients(self, monkeypatch):
        # A cold build of Gamma(m,n) where curves blew down makes no solve,
        # and its characteristic data is what a fresh solve of Gamma(m,n)
        # gives.
        solves = []
        inner = charclass.solve_intersection_system

        def counting(g, rhs):
            solves.append(len(g.ids))
            return inner(g, rhs)

        monkeypatch.setattr(charclass, "solve_intersection_system", counting)
        for m in range(2, 31):
            for n in range(2, 201):
                if math.gcd(m, n) != 1:
                    continue
                build_cover.cache_clear()
                cover = build_cover(m, n)
                if cover.minimal is cover.lift:
                    continue
                pulled_back = cover.minimal.characteristic
                assert solves == [], (m, n)
                assert pulled_back == canonical_coefficients(cover.minimal), (m, n)
                solves.clear()

    def test_a_wrong_lift_coefficient_is_caught(self):
        # +1 on the c1 entry of an odd-multiplicity Gamma'_f curve under a
        # curve that survives the blow-down moves that curve's coefficient
        # by 2: W stays as it is, so only the re-multiplication sees it.
        cover = build_cover(3, 10)
        down = cover.gamma_f_prime
        below = next(d for d in cover.minimal.downstairs.values() if down.mult[d] % 2)
        c1 = list(down.c1_coeff)
        c1[below] += 1
        with pytest.raises(InternalInvariantError, match=r"fail Q a = n \+ 2"):
            minimize_and_label(cover.lift, down._replace(c1_coeff=tuple(c1)))

    def test_a_form_that_is_not_negative_definite_is_caught(self):
        # A lone (+2)-curve over a curve of multiplicity 2 with c1 entry 1
        # takes the coefficient 1 + 2/2 = 2, which passes Q a = n + 2, but
        # no resolution graph has a curve of positive self-intersection.
        down = FrozenGraph.from_columns([-2], [], mult=[2], c1_coeff=[1])
        up = CoverGraph(graph=FrozenGraph.from_columns([2], []), m=None, n=None,
                        e0_lift=None, deck={}, downstairs={0: 0})
        with pytest.raises(InternalInvariantError, match="not negative definite at vertex 0$"):
            charclass.pulled_back_characteristic(up, down)

    def test_a_replaced_minimal_graph_solves_afresh(self):
        cover = build_cover(3, 10)
        assert vars(cover.minimal) == {"characteristic": cover.minimal.characteristic}
        for value in (cover.minimal._replace(), mark_real_structure(cover.minimal, "plus")):
            assert vars(value) == {}
            assert value.characteristic == canonical_coefficients(cover.minimal)


class TestTransposedPairs:
    # build_cover runs the pipeline once per unordered pair, on m < n, and
    # hands (n, m) those values with the exponents and arm families swapped.
    PAIRS = [(m, n) for m in range(2, 17) for n in range(m + 1, 81)
             if math.gcd(m, n) == 1] + [(2, 1599), (6, 4775)]

    def test_swapped_cover_is_what_the_stages_give_on_the_swapped_pair(self):
        build_cover.cache_clear()
        for m, n in self.PAIRS:
            gamma_f, rupture = build_gamma_f(n, m)
            gp = separate_odd_odd(gamma_f)
            lift = label_arms(lift_double_cover(gp, rupture, n, m), gp)
            minimal = minimize_and_label(lift, gp)
            cover = build_cover(n, m)
            assert (cover.m, cover.n, cover.rupture) == (n, m, rupture), (m, n)
            assert cover.gamma_f == gamma_f and cover.gamma_f_prime == gp, (m, n)
            assert (cover.gamma_f_prime is cover.gamma_f) == (gp is gamma_f), (m, n)
            assert (cover.minimal is cover.lift) == (minimal is lift), (m, n)
            for got, want in ((cover.lift, lift), (cover.minimal, minimal)):
                assert (got.m, got.n, got.e0_lift) == (n, m, want.e0_lift), (m, n)
                assert got.graph.arm_label == want.graph.arm_label, (m, n)
                assert got.graph == want.graph, (m, n)
                assert dict(got.deck) == dict(want.deck), (m, n)
                assert dict(got.downstairs) == dict(want.downstairs), (m, n)
                assert got.characteristic == want.characteristic, (m, n)
            # Only the arm labels are new: every other value is the base's.
            base = build_cover(m, n)
            assert cover.gamma_f is base.gamma_f and cover.gamma_f_prime is base.gamma_f_prime
            for got, had in ((cover.lift, base.lift), (cover.minimal, base.minimal)):
                assert got.deck is had.deck and got.downstairs is had.downstairs, (m, n)
                assert all(getattr(got.graph, field) is getattr(had.graph, field)
                           for field in FrozenGraph._fields if field != "arm_label"), (m, n)

    def test_refusals_keep_the_callers_order(self):
        # The exponents are checked as given before (n, m) is looked up, and
        # a refused pair leaves nothing in the cache.
        refusals = {
            (6, 4): "gcd(m,n) must be 1 for an isolated Brieskorn double point, "
                    "got gcd(6, 4) = 2",
            (3, 1): "exponents must be integers >= 2, got (3, 1); x^m+y^n+/-z^2 "
                    "is not an isolated double point otherwise",
            (400001, 2): "(400001, 2) needs 200002 curves in its resolution of x^m+y^n "
                         "(the sum of its Euclid quotients); the limit is 200000",
        }
        build_cover.cache_clear()
        for (m, n), message in refusals.items():
            for sign in ("plus", "minus"):
                with pytest.raises(BadExponents) as caught:
                    tb(m, n, sign)
                assert str(caught.value) == message
        assert build_cover.cache_info().currsize == 0

    @pytest.mark.parametrize("m, n", [(2, 3), (6, 11), (2, 1599)])
    def test_the_swapped_pair_shares_the_solves(self, monkeypatch, m, n):
        solves = []
        inner = charclass.solve_intersection_system

        def counting(g, rhs):
            solves.append(len(g.ids))
            return inner(g, rhs)

        monkeypatch.setattr(charclass, "solve_intersection_system", counting)
        counts = []
        for keys in ([(m, n)], [(m, n), (n, m)]):
            build_cover.cache_clear()
            solves.clear()
            for key in keys:
                for sign in ("plus", "minus"):
                    tb(*key, sign)
            counts.append(len(solves))
        assert counts[1] <= counts[0], counts
