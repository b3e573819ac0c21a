import json

import pytest

from tbcalc import (
    FORMAT_VERSION,
    InvalidDocument,
    build_cover,
    canonical_coefficients,
    graph_from_document,
    graph_to_document,
    mark_real_structure,
    to_dot,
)
from conftest import make_chain
from oracles import canonical_form


class TestDocuments:
    def test_round_trip_plain(self):
        g, _ids = make_chain([-2, -3, -2], arrow_on=1)
        doc = graph_to_document(g)
        again = graph_from_document(doc)
        assert canonical_form(again) == canonical_form(g)

    def test_round_trip_decorated(self):
        marked = mark_real_structure(build_cover(11, 6).minimal, "plus")
        doc = graph_to_document(marked.graph, meta={"m": 11, "n": 6})
        again = graph_from_document(doc)
        assert canonical_form(again) == canonical_form(marked.graph)
        assert doc["meta"] == {"m": 11, "n": 6}

    def test_decodes_cached_graphs_to_equal_values(self):
        # A document keeps no walk root and no next id: the decoded graph
        # is walked from its smallest id and numbers on after its largest.
        for m, n in [(11, 6), (5, 8), (3, 7), (3, 2)]:
            cover = build_cover(m, n)
            for g in (cover.gamma_f, cover.gamma_f_prime, cover.lift.graph,
                      cover.minimal.graph):
                again = graph_from_document(graph_to_document(g))
                assert again == g.freeze(root=g.ids[0])._replace(next_id=g.ids[-1] + 1)
            assert graph_from_document(graph_to_document(cover.gamma_f)) == cover.gamma_f

    def test_document_is_json_serializable(self):
        g, _ids = make_chain([-2, -1])
        text = json.dumps(graph_to_document(g))
        assert graph_from_document(json.loads(text))

    def test_optional_fields_omitted(self):
        chain, ids = make_chain([-2, -2])
        g = chain.copy()
        g.vertices[ids[0]].mult = 4
        doc = graph_to_document(g.freeze())
        first, second = doc["vertices"]
        assert first["mult"] == 4
        assert "mult" not in second
        assert "real" not in first and "arm" not in first

    def test_format_version_present(self):
        g, _ids = make_chain([-2])
        assert graph_to_document(g)["format_version"] == FORMAT_VERSION

    def test_rejects_wrong_version(self):
        g, _ids = make_chain([-2])
        doc = graph_to_document(g)
        doc["format_version"] = "999"
        with pytest.raises(InvalidDocument):
            graph_from_document(doc)

    def test_rejects_duplicate_ids(self):
        doc = {"format_version": FORMAT_VERSION,
               "vertices": [{"id": 0, "self_int": -2},
                            {"id": 0, "self_int": -3}],
               "edges": [], "arrows": [], "meta": {}}
        with pytest.raises(InvalidDocument):
            graph_from_document(doc)

    def test_rejects_unknown_edge_endpoint(self):
        doc = {"format_version": FORMAT_VERSION,
               "vertices": [{"id": 0, "self_int": -2}],
               "edges": [[0, 5]], "arrows": [], "meta": {}}
        with pytest.raises(InvalidDocument):
            graph_from_document(doc)

    def test_rejects_cycle(self):
        doc = {"format_version": FORMAT_VERSION,
               "vertices": [{"id": i, "self_int": -2} for i in range(3)],
               "edges": [[0, 1], [1, 2], [2, 0]], "arrows": [], "meta": {}}
        with pytest.raises(InvalidDocument):
            graph_from_document(doc)

    def test_rejects_boolean_self_int(self):
        doc = {"format_version": FORMAT_VERSION,
               "vertices": [{"id": 0, "self_int": True}],
               "edges": [], "arrows": [], "meta": {}}
        with pytest.raises(InvalidDocument):
            graph_from_document(doc)

    def test_rejects_unknown_arrow_vertex(self):
        doc = {"format_version": FORMAT_VERSION,
               "vertices": [{"id": 0, "self_int": -2}],
               "edges": [], "arrows": [{"vertex": 3}], "meta": {}}
        with pytest.raises(InvalidDocument):
            graph_from_document(doc)

    @pytest.mark.parametrize("where,value", [
        ("edge", [[0], 1]), ("edge", [True, 0]), ("edge", [0, 1.0]),
        ("arrow", {}), ("arrow", True), ("mult", True), ("c1", False),
    ])
    def test_rejects_values_that_are_not_integers(self, where, value):
        # An unhashable id is no TypeError, and a bool or float is not kept
        # to be written back as true or 1.0.
        doc = {"format_version": FORMAT_VERSION,
               "vertices": [{"id": 0, "self_int": -2}, {"id": 1, "self_int": -2}],
               "edges": [[0, 1]], "arrows": [], "meta": {}}
        if where == "edge":
            doc["edges"] = [value]
        elif where == "arrow":
            doc["arrows"] = [{"vertex": value}]
        else:
            doc["vertices"][0][where] = value
        with pytest.raises(InvalidDocument):
            graph_from_document(doc)


class TestDot:
    def test_basic_texture(self):
        marked = mark_real_structure(build_cover(11, 6).minimal, "plus")
        cd = canonical_coefficients(marked)
        dot = to_dot(marked.graph, w=cd.w)
        assert dot.startswith("graph resolution {")
        assert dot.rstrip().endswith("}")
        assert "peripheries=2" in dot
        assert "gray" in dot       # imaginary vertices are dimmed
        assert ":-2R" in dot       # the real rupture label
        assert "--" in dot

    def test_arrows_as_diamonds(self):
        g, _ids = make_chain([-2, -1], arrow_on=1)
        dot = to_dot(g)
        assert "diamond" in dot

    def test_mult_in_label(self):
        chain, ids = make_chain([-2])
        g = chain.copy()
        g.vertices[ids[0]].mult = 6
        assert ":-2:6" in to_dot(g.freeze())
