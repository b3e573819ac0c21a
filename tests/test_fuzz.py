"""Fuzz tests of the error contract: random caller graphs may raise only
the package's user errors, each reader of a tree form refuses exactly the
forms that are not negative definite, and random command lines exit 0, 1
or 2 without a traceback. The examples are derandomized, so a run is
reproducible."""

import contextlib
import io
import json
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from tbcalc import (CoverGraph, Decomposition, FrozenGraph, SingularMatrix,  # noqa: E402
                    TbcalcError, UserInputError, arm_weight, arms, cf_eval,
                    graph_from_document, intersection_matrix, linking_form_from_decomposition,
                    n_prime, solve_intersection_system, tb_from_graph)
from tbcalc.cli import main  # noqa: E402
from oracles import is_negative_definite  # noqa: E402

FIXTURE = Path(__file__).resolve().parent / "data" / "y-x5y4.json"
FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

# Values a caller may put where a vertex id or a decoration belongs.
JUNK = [99, -1, "x", None, [0], 1.5, True, {}]


@st.composite
def annotated_documents(draw):
    """A graph document with a real structure, a conj map and a W_R: a
    real tree with conjugate pairs of imaginary branches hung on it, so
    that many examples satisfy every law, then a few random defects.

    Half the trees are blown up instead: a real tree of at most four
    (-2)-curves (a Dynkin diagram, so its canonical class is 0) blown up
    at points of its curves, each time a real (-1)-curve or a conjugate
    pair of them. Each blow-up keeps the form negative definite and the
    canonical class integral, and its new curve has coefficient 1, so
    those that stay free of defects solve to a nonempty W."""
    selfs = st.integers(-4, 1)
    blown_up = draw(st.booleans())
    n_real = draw(st.integers(0, 4))
    self_int = [-2 if blown_up else draw(selfs) for _ in range(n_real)]
    real = [True] * n_real
    edges = [[draw(st.integers(0, p - 1)), p] for p in range(1, n_real)]
    conj = {p: p for p in range(n_real)}
    for _ in range(draw(st.integers(1, 3)) if n_real and blown_up else 0):
        anchor = draw(st.integers(0, n_real - 1))
        copies = draw(st.integers(1, 2))
        first = len(self_int)
        self_int[anchor] -= copies
        self_int += [-1] * copies
        real += [copies == 1] * copies
        edges += [[anchor, q] for q in range(first, first + copies)]
        conj.update({first: first + copies - 1, first + copies - 1: first})
    for _ in range(draw(st.integers(0, 2)) if n_real and not blown_up else 0):
        anchor = draw(st.integers(0, n_real - 1))
        size = draw(st.integers(1, 3))
        branch = [draw(selfs) for _ in range(size)]
        up = [draw(st.integers(0, j - 1)) for j in range(1, size)]
        first = len(self_int)
        for copy in (first, first + size):
            self_int += branch
            real += [False] * size
            edges.append([anchor, copy])
            edges += [[copy + u, copy + j + 1] for j, u in enumerate(up)]
        conj.update({first + j: first + size + j for j in range(size)})
        conj.update({first + size + j: first + j for j in range(size)})
    size = len(self_int)
    ids = draw(st.lists(st.integers(-5, 60), min_size=size, max_size=size, unique=True))
    vertices = [{"id": v, "self_int": s, "real": r} for v, s, r in zip(ids, self_int, real)]
    doc = {"format_version": "1", "vertices": vertices,
           "edges": [[ids[p], ids[q]] for p, q in edges], "arrows": [], "meta": {}}
    conj = {ids[p]: ids[q] for p, q in conj.items()}
    anything = st.sampled_from(ids + JUNK)
    for _ in range(draw(st.integers(0, 3))):
        defect = draw(st.integers(0, 7))
        if defect == 0 and vertices:
            entry = draw(st.sampled_from(vertices))
            entry[draw(st.sampled_from(["self_int", "real", "mult", "c1", "arm", "id"]))] = (
                draw(st.one_of(selfs, st.booleans(), anything)))
        elif defect == 1 and vertices:
            draw(st.sampled_from(vertices)).pop("real", None)
        elif defect == 2 and doc["edges"]:
            doc["edges"].pop(draw(st.integers(0, len(doc["edges"]) - 1)))
        elif defect == 3:
            doc["edges"].append([draw(anything), draw(anything)])
        elif defect == 4:
            doc["arrows"].append({"vertex": draw(anything)})
        elif defect == 5 and conj:
            del conj[draw(st.sampled_from(sorted(conj)))]
        elif defect == 6 and conj:
            conj[draw(st.sampled_from(sorted(conj)))] = draw(anything)
        elif defect == 7:
            conj = {}
    if draw(st.integers(0, 9)) == 0:
        doc[draw(st.sampled_from(["vertices", "edges", "arrows", "format_version"]))] = (
            draw(anything))
    wr = draw(st.one_of(st.none(), st.lists(st.sampled_from(ids + [99, "x", None, [0], {}]),
                                            max_size=3)))
    return doc, conj, wr, draw(decks(ids))


def decks(ids):
    """No deck map, or one that permutes ids at random."""
    return st.one_of(st.just({}), st.permutations(ids).map(lambda image: dict(zip(ids, image))))


@st.composite
def caller_trees(draw, defects=False):
    """A FrozenGraph.from_columns tree of 1-9 curves with self-intersections
    in -4..top for a random top in -2..2 (with top = -2 the form is negative
    definite), a random real column, walked from a random root; with
    defects, now and then one more edge between two random positions: a
    loop, a doubled edge or a cycle."""
    size, top = draw(st.integers(1, 9)), draw(st.integers(-2, 2))
    self_int = [draw(st.integers(-4, top)) for _ in range(size)]
    edges = [(draw(st.integers(0, p - 1)), p) for p in range(1, size)]
    if defects and draw(st.integers(0, 3)) == 0:
        edges.append((draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))))
    real = [draw(st.booleans()) for _ in range(size)]
    return FrozenGraph.from_columns(self_int, edges, real=real,
                                    root=draw(st.integers(0, size - 1)))


def form_readers(g, e, cg):
    """Each public reader of g's form, as a call: the solver, n_prime and
    arm_weight at e (on every arm), and tb_from_graph with W_R given empty."""
    return [lambda: solve_intersection_system(g, {e: 1}), lambda: n_prime(g, e),
            *(lambda arm=arm: arm_weight(g, e, arm) for arm in arms(g, e)),
            lambda: tb_from_graph(cg, wr=[])]


class TestCallerGraphs:
    @FUZZ
    @given(annotated_documents())
    def test_only_package_errors_escape(self, case):
        doc, conj, wr, deck = case
        try:
            g = graph_from_document(doc)
            cg = CoverGraph(graph=g, m=None, n=None, e0_lift=None, deck=deck,
                            downstairs={}, conj=conj, sign=None)
            tb_from_graph(cg, wr=wr)
        except UserInputError:
            pass

    @FUZZ
    @given(caller_trees(defects=True), st.data())
    def test_form_readers_raise_only_user_errors(self, g, data):
        e = data.draw(st.sampled_from(g.ids))
        cg = CoverGraph(graph=g, m=None, n=None, e0_lift=None, deck=data.draw(decks(g.ids)),
                        downstairs={}, conj={}, sign=None)
        for read in [*form_readers(g, e, cg), lambda: tb_from_graph(cg)]:
            try:
                read()
            except UserInputError:
                pass


class TestTreeReaders:
    @FUZZ
    @given(caller_trees(), st.data())
    def test_refused_exactly_when_not_negative_definite(self, g, data):
        e = data.draw(st.sampled_from(g.ids))
        cg = CoverGraph(graph=g, m=None, n=None, e0_lift=None, deck={},
                        downstairs={}, conj={}, sign=None)
        definite = is_negative_definite(intersection_matrix(g)[1])
        for read in form_readers(g, e, cg):
            if definite:
                read()
                continue
            with pytest.raises(SingularMatrix,
                               match="^intersection form is not negative definite at vertex"):
                read()
        for arm in arms(g, e) if definite else ():
            if arm.is_bamboo:
                weights = [g.self_int[g.pos(v)] for v in arm.vertices]
                assert arm_weight(g, e, arm) == cf_eval(weights)


# Values a decomposition document may hold where a field belongs: wrong
# types, bad kinds and rationals, unknown pieces and huge integers.
DOC_JUNK = [None, True, 1.5, float("nan"), "", "x", [], {}, [1], ["alpha", 1], -1, 0, 3,
            10**30, -10**30, 10**4000, "0", "-2", "1/0", "3/4", "1.5", "gamma", "alpha",
            "one_sided", "two_sided_orientable", "two_sided"]


@st.composite
def decomposition_documents(draw):
    """The fixture's decomposition document with a few random defects."""
    doc = json.loads(FIXTURE.read_text(encoding="utf-8"))
    anything = st.sampled_from(DOC_JUNK)
    for _ in range(draw(st.integers(1, 3))):
        pieces, points = doc.get("pieces"), doc.get("contracted_points")
        entries = [e for e in (pieces if isinstance(pieces, list) else [])
                   + (points if isinstance(points, list) else []) if isinstance(e, dict)]
        defect = draw(st.integers(0, 7))
        if defect == 0 and entries:  # a field gets a wrong value or goes
            entry = draw(st.sampled_from(entries))
            key = draw(st.sampled_from(["id", "euler_char_closed_piece", "boundary_ids",
                                        "m_value", "kind", "incidences"]))
            if draw(st.booleans()):
                entry[key] = draw(anything)
            else:
                entry.pop(key, None)
        elif defect == 1 and entries:  # a duplicate id
            first, second = draw(st.sampled_from(entries)), draw(st.sampled_from(entries))
            second["id"] = first.get("id")
        elif defect == 2 and entries:  # an incidence is changed, added or dropped
            entry = draw(st.sampled_from(entries))
            incidences = entry.get("incidences")
            if not isinstance(incidences, list):
                continue
            if incidences and draw(st.booleans()):
                i = draw(st.integers(0, len(incidences) - 1))
                incidences[i] = draw(st.one_of(
                    anything, st.tuples(anything, anything).map(list),
                    st.tuples(st.sampled_from(["alpha", "beta"]), anything).map(list)))
            elif incidences and draw(st.booleans()):
                incidences.pop()
            else:
                incidences.append([draw(anything), draw(st.integers(-2, 3))])
        elif defect == 3 and entries:  # a huge or non-positive number
            entry = draw(st.sampled_from(entries))
            key = "m_value" if "m_value" in entry else "euler_char_closed_piece"
            entry[key] = draw(st.sampled_from([0, -1, "-1/3", "0/5", 10**30, -10**30,
                                               10**4000, f"{10**30}/{10**30 + 1}"]))
        elif defect == 4 and entries:  # an entry is replaced by junk
            container = draw(st.sampled_from([x for x in (pieces, points)
                                              if isinstance(x, list) and x]))
            container[draw(st.integers(0, len(container) - 1))] = draw(anything)
        elif defect == 5:  # a top-level key gets junk or goes
            key = draw(st.sampled_from(["pieces", "contracted_points"]))
            if draw(st.booleans()):
                doc[key] = draw(anything)
            else:
                doc.pop(key, None)
        elif defect == 6 and entries:  # boundary ids that disagree
            entry = draw(st.sampled_from(entries))
            entry["boundary_ids"] = draw(st.lists(st.sampled_from(["p1", "p1", "q", 7]),
                                                  max_size=7))
        elif defect == 7:  # the whole document is junk
            return draw(anything)
    return doc


class TestDecompositionDocuments:
    @FUZZ
    @given(decomposition_documents())
    def test_only_package_errors_escape(self, doc):
        try:
            linking_form_from_decomposition(Decomposition.from_json(doc))
        except TbcalcError:
            pass

    def test_linkform_exit_codes_and_no_traceback(self, tmp_path):
        path = tmp_path / "doc.json"

        @FUZZ
        @given(decomposition_documents(), st.sampled_from([[], ["--json"]]))
        def run(doc, flags):
            path.write_text(json.dumps(doc), encoding="utf-8")
            argv = ["linkform", "--decomposition", str(path), *flags]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (doc, code, err.getvalue())
            assert "Traceback" not in err.getvalue(), doc

        run()


def option(name, values):
    """Either nothing or [name, value] with the value drawn from values."""
    return st.one_of(st.just([]), values.map(lambda value: [name, value]))


def numbers(*good):
    return st.sampled_from([*map(str, good), "-1", "0", "x", "", "1.5", "1e3"])


SIGNS = st.sampled_from(["plus", "minus", "PLUS", "", "zero"])
RANGES = st.sampled_from(["2:6", "3:3", "5:2", "-3:4", "0:1", "7", "a:b", ":", "2:5:8"])
FLAGS = st.sampled_from([[], ["--json"], ["--explain"], ["--help"], ["--bogus"]])


def command_lines(tmp):
    paths = st.sampled_from([str(tmp / "out"), str(tmp / "missing" / "out"), str(tmp),
                             str(tmp / "fixture.json"), str(tmp / "bad.json"), ""])
    compute = st.tuples(st.just(["compute"]), option("--m", numbers(2, 3, 5, 11, 10**30)),
                        option("--n", numbers(2, 6, 7, 8, 301, 10**30)),
                        option("--sign", SIGNS), option("--dot", paths), FLAGS)
    table = st.tuples(st.just(["table"]), option("--m-range", RANGES),
                      option("--n-range", RANGES), option("--sign", SIGNS),
                      option("--out", paths), FLAGS)
    verify = st.tuples(st.just(["verify"]),
                       option("--suite", st.sampled_from(["period", "parity,symmetry",
                                                          ",", "nope", ""])),
                       option("--m-max", numbers(2, 4, 8)),
                       option("--n-max", numbers(2, 20, 30)),
                       option("--k-max", numbers(1, 2)), FLAGS)
    linkform = st.tuples(st.just(["linkform"]), option("--decomposition", paths), FLAGS)
    other = st.tuples(st.sampled_from([[], ["bogus"], ["--help"], ["compute", "table"]]))
    return st.one_of(compute, table, verify, linkform, other).map(
        lambda parts: [token for part in parts for token in part])


class TestCommandLines:
    def test_exit_codes_and_no_traceback(self, tmp_path):
        # The commands write to these paths too, so the fixture is a copy.
        (tmp_path / "fixture.json").write_bytes(FIXTURE.read_bytes())
        (tmp_path / "bad.json").write_text("{", encoding="utf-8")

        @FUZZ
        @given(command_lines(tmp_path))
        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            assert code in (0, 1, 2), (argv, code, err.getvalue())
            assert "Traceback" not in err.getvalue(), argv

        run()
