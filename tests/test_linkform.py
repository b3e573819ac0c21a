import json
from fractions import Fraction
from pathlib import Path

import pytest

from tbcalc import (
    ContractedPoint,
    Decomposition,
    InternalInvariantError,
    LinkingMatrix,
    MalformedDecomposition,
    NonPositiveM,
    Piece,
    contraction_linking_matrix,
    linking_form_from_decomposition,
)
from tbcalc import linkform

FIXTURE = Path(__file__).resolve().parent / "data" / "y-x5y4.json"


class TestContractionMatrix:
    def test_one_sided_m2(self):
        lm = contraction_linking_matrix(2, "one_sided")
        assert lm.entries == ((Fraction(-2),),)

    def test_nonorientable_m2(self):
        lm = contraction_linking_matrix(2, "two_sided_nonorientable")
        assert lm.entries == ((Fraction(-1, 2), Fraction(-1, 2)),
                              (Fraction(-1, 2), Fraction(-1, 2)))

    def test_orientable_m3(self):
        lm = contraction_linking_matrix(3, "two_sided_orientable")
        assert lm.entries == ((Fraction(-3, 4), Fraction(3, 4)),
                              (Fraction(3, 4), Fraction(-3, 4)))

    def test_rational_m(self):
        lm = contraction_linking_matrix(Fraction(5, 2), "one_sided")
        assert lm.entries == ((Fraction(-5, 2),),)

    def test_rejects_non_positive_m(self):
        with pytest.raises(NonPositiveM):
            contraction_linking_matrix(0, "one_sided")
        with pytest.raises(NonPositiveM):
            contraction_linking_matrix(-2, "two_sided_nonorientable")

    def test_rejects_unknown_kind(self):
        with pytest.raises(MalformedDecomposition):
            contraction_linking_matrix(2, "three_sided")

    def test_rejects_a_float_m(self):
        with pytest.raises(NonPositiveM, match=r"^m must be a positive rational, got 1\.5$"):
            contraction_linking_matrix(1.5, "one_sided")

    def test_as_strings(self):
        lm = contraction_linking_matrix(2, "two_sided_nonorientable")
        assert lm.as_strings() == [["-1/2", "-1/2"], ["-1/2", "-1/2"]]


class TestLinkingMatrixContainer:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            LinkingMatrix(entries=((Fraction(0), Fraction(1)),
                                   (Fraction(2), Fraction(0))))

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            LinkingMatrix(entries=((Fraction(0),),
                                   (Fraction(0), Fraction(0))))


def fixture_doc():
    return json.loads(FIXTURE.read_text())


class TestDecomposition:
    def test_fixture_parses(self):
        d = Decomposition.from_json(fixture_doc())
        assert [p.id for p in d.pieces] == ["alpha", "beta"]
        assert len(d.contracted_points) == 6

    def test_fixture_matrix(self):
        d = Decomposition.from_json(fixture_doc())
        lm = linking_form_from_decomposition(d)
        assert lm.entries == (
            (Fraction(3, 2), Fraction(-5, 2)),
            (Fraction(-5, 2), Fraction(3, 2)),
        )

    def test_single_piece_single_point(self):
        # punctured chi = c - 1; entry = -(c - 1) - m
        d = Decomposition(
            pieces=(Piece(id="s", euler_char_closed_piece=2),),
            contracted_points=(ContractedPoint(
                id="x", m_value=Fraction(2), kind="one_sided",
                incidences=(("s", 1),)),),
        )
        lm = linking_form_from_decomposition(d)
        assert lm.entries == ((Fraction(-3),),)

    def test_orientable_shared_point_off_diagonal(self):
        d = Decomposition(
            pieces=(Piece(id="a", euler_char_closed_piece=2),
                    Piece(id="b", euler_char_closed_piece=2)),
            contracted_points=(ContractedPoint(
                id="x", m_value=Fraction(4), kind="two_sided_orientable",
                incidences=(("a", 1), ("b", 1))),),
        )
        lm = linking_form_from_decomposition(d)
        assert lm.entries[0][1] == Fraction(1)
        assert lm.entries[0][0] == Fraction(-1) - Fraction(1)

    def test_double_incidence_on_one_piece(self):
        # a nonorientable point whose both circles lie on the same piece:
        # two punctures, so -(0 - 2) + 2 * 2 * (-1/2) = 2 - 2 = 0
        d = Decomposition(
            pieces=(Piece(id="a", euler_char_closed_piece=0),),
            contracted_points=(ContractedPoint(
                id="x", m_value=Fraction(2), kind="two_sided_nonorientable",
                incidences=(("a", 2),)),),
        )
        lm = linking_form_from_decomposition(d)
        assert lm.entries == ((Fraction(0),),)

    def test_rejects_unknown_piece(self):
        doc = fixture_doc()
        doc["contracted_points"][0]["incidences"] = [["nowhere", 1], ["beta", 1]]
        with pytest.raises(MalformedDecomposition):
            Decomposition.from_json(doc)

    def test_rejects_unknown_kind(self):
        doc = fixture_doc()
        doc["contracted_points"][0]["kind"] = "three_sided"
        with pytest.raises(MalformedDecomposition, match=r"^point p1: unknown kind 'three_sided'$"):
            Decomposition.from_json(doc)

    def test_rejects_a_zero_incidence_count(self):
        # p3's two circles stay on beta, so the total is still 2.
        doc = fixture_doc()
        doc["contracted_points"][2]["incidences"] = [["beta", 2], ["alpha", 0]]
        with pytest.raises(MalformedDecomposition,
                           match=r"^point p3: incidence count must be >= 1$"):
            Decomposition.from_json(doc)

    def test_asymmetric_assembly_is_an_internal_error(self, monkeypatch):
        # p1 puts one circle on alpha and one on beta, so an asymmetric
        # contraction matrix for it makes the assembled form asymmetric.
        original = linkform.contraction_linking_matrix

        def contraction(m, kind):
            if m != 4:
                return original(m, kind)
            return linkform._LinkingEntries(((Fraction(-1), Fraction(0)),
                                             (Fraction(1), Fraction(-1))))

        monkeypatch.setattr(linkform, "contraction_linking_matrix", contraction)
        d = Decomposition.from_json(fixture_doc())
        with pytest.raises(InternalInvariantError, match=r"^linking form must be symmetric$"):
            linking_form_from_decomposition(d)

    def test_rejects_bad_incidence_total(self):
        doc = fixture_doc()
        doc["contracted_points"][0]["incidences"] = [["alpha", 2], ["beta", 1]]
        with pytest.raises(MalformedDecomposition):
            Decomposition.from_json(doc)

    def test_rejects_one_sided_with_two_circles(self):
        doc = fixture_doc()
        doc["contracted_points"][-1]["incidences"] = [["alpha", 1], ["beta", 1]]
        with pytest.raises(MalformedDecomposition):
            Decomposition.from_json(doc)

    def test_rejects_boundary_count_mismatch(self):
        doc = fixture_doc()
        doc["pieces"][0]["boundary_ids"] = ["g1", "g2"]
        with pytest.raises(MalformedDecomposition):
            Decomposition.from_json(doc)

    def test_rejects_euler_char_above_two(self):
        doc = fixture_doc()
        doc["pieces"][0]["euler_char_closed_piece"] = 2
        Decomposition.from_json(doc)
        doc["pieces"][0]["euler_char_closed_piece"] = 7
        with pytest.raises(MalformedDecomposition, match="Euler characteristic above 2"):
            Decomposition.from_json(doc)

    def test_rejects_repeated_boundary_id(self):
        # The count still matches the three circles on alpha.
        doc = fixture_doc()
        doc["pieces"][0]["boundary_ids"] = ["p1.alpha", "p1.alpha", "p4"]
        with pytest.raises(MalformedDecomposition, match="duplicate boundary ids"):
            Decomposition.from_json(doc)

    def test_rejects_duplicate_piece_ids(self):
        doc = fixture_doc()
        doc["pieces"][1]["id"] = "alpha"
        with pytest.raises(MalformedDecomposition):
            Decomposition.from_json(doc)

    def test_rejects_duplicate_point_ids(self):
        doc = fixture_doc()
        doc["contracted_points"][1]["id"] = "p1"
        with pytest.raises(MalformedDecomposition, match=r"^duplicate contracted point ids$"):
            Decomposition.from_json(doc)

    def test_rejects_a_document_that_is_not_an_object(self):
        with pytest.raises(MalformedDecomposition,
                           match=r"^decomposition document must be an object$"):
            Decomposition.from_json([fixture_doc()])

    def test_rejects_pieces_that_are_not_a_list(self):
        doc = fixture_doc()
        doc["pieces"] = {"alpha": doc["pieces"][0]}
        with pytest.raises(MalformedDecomposition,
                           match=r"^pieces and contracted_points must be lists$"):
            Decomposition.from_json(doc)

    def test_rejects_non_positive_m(self):
        doc = fixture_doc()
        doc["contracted_points"][0]["m_value"] = 0
        with pytest.raises(NonPositiveM):
            Decomposition.from_json(doc)

    def test_rejects_decimal_m(self):
        doc = fixture_doc()
        doc["contracted_points"][0]["m_value"] = 2.5
        with pytest.raises(MalformedDecomposition):
            Decomposition.from_json(doc)

    @pytest.mark.parametrize("where,value", [
        ("euler_char", 2.9), ("euler_char", -2.0), ("euler_char", True),
        ("euler_char", "-2"), ("count", True), ("count", 1.0), ("m_value", True),
    ])
    def test_rejects_non_integer_numbers(self, where, value):
        # JSON integers only: no float truncation, no bool as 0 or 1.
        doc = fixture_doc()
        if where == "euler_char":
            doc["pieces"][0]["euler_char_closed_piece"] = value
        elif where == "count":
            doc["contracted_points"][3]["incidences"] = [["alpha", value]]
        else:
            doc["contracted_points"][3]["m_value"] = value
        with pytest.raises(MalformedDecomposition):
            Decomposition.from_json(doc)

    @pytest.mark.parametrize("where,value", [
        ("boundary_ids", "xyz"), ("boundary_ids", ["p1.alpha", "p2.alpha", 4]),
        ("piece_id", 7), ("incidence_piece", 7), ("point_id", 1),
    ])
    def test_rejects_names_that_are_not_strings(self, where, value):
        # Names are JSON strings, not str() of another value: 7 does not
        # match "7", and a string is not a list of names.
        doc = fixture_doc()
        alpha = doc["pieces"][0]
        if where == "boundary_ids":
            alpha["boundary_ids"] = value
        elif where == "point_id":
            doc["contracted_points"][0]["id"] = value
        else:
            alpha["id"], name = ((value, str(value)) if where == "piece_id"
                                 else (str(value), value))
            for point in doc["contracted_points"]:
                point["incidences"] = [[name if piece == "alpha" else piece, count]
                                       for piece, count in point["incidences"]]
        with pytest.raises(MalformedDecomposition):
            Decomposition.from_json(doc)

    def test_accepts_rational_string_m(self):
        doc = fixture_doc()
        doc["contracted_points"][0]["m_value"] = "5/2"
        d = Decomposition.from_json(doc)
        assert d.contracted_points[0].m_value == Fraction(5, 2)

    def test_rejects_missing_keys(self):
        with pytest.raises(MalformedDecomposition):
            Decomposition.from_json({"pieces": []})

    def test_rejects_empty_pieces(self):
        with pytest.raises(MalformedDecomposition):
            Decomposition.from_json({"pieces": [], "contracted_points": []})
