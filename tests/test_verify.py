import importlib
import math
from collections import Counter
from fractions import Fraction

import pytest

from tbcalc import (FrozenGraph, SUITE_NAMES, build_cover, evaluation_graph, tb, tb_from_graph,
                    verify_identities)
from tbcalc import graph, verify
from tbcalc.cli import main
from tbcalc.numeric import format_rational


class TestVerifyIdentities:
    def test_suite_names(self):
        assert set(SUITE_NAMES) == {"integrality", "period", "symmetry",
                                    "parity", "structure"}

    def test_small_grid_clean(self):
        report = verify_identities(m_max=6, n_max=30, k_max=2)
        assert report.total_violations == 0
        assert {s.name for s in report.suites} == set(SUITE_NAMES)
        for suite in report.suites:
            assert suite.checked > 0

    def test_counts_at_bench_scale(self, capsys):
        # The bench's verify workload runs at m_max 10, k_max 3 and n_max
        # 60-63. Each suite's (checked, skipped) pins every check it makes,
        # so a check that is dropped, doubled or counted twice fails here.
        report = verify_identities(10, 62, 3)
        assert report.total_violations == 0
        assert [(s.name, s.checked, s.skipped) for s in report.suites] == [
            ("integrality", 513, 231), ("period", 636, 231), ("symmetry", 840, 1164),
            ("parity", 5572, 231), ("structure", 1378, 265)]
        # README's example of the verify command.
        assert main(["verify", "--suite", "symmetry", "--m-max", "8", "--n-max", "40",
                     "--k-max", "2"]) == 0
        assert capsys.readouterr().out == "symmetry: checked 278, skipped 388, violations 0\n"

    def test_suite_selection(self):
        report = verify_identities(m_max=4, n_max=10, suites=("integrality",))
        assert [s.name for s in report.suites] == ["integrality"]

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            verify_identities(m_max=4, n_max=10, suites=("integraliy",))

    def test_gcd_pairs_skipped_and_counted(self):
        report = verify_identities(m_max=4, n_max=4, suites=("integrality",))
        (suite,) = report.suites
        # (2,4), (4,2), (2,2), (3,3), (4,4) share a factor and are skipped
        assert suite.skipped == 5

    def test_report_dict_shape(self):
        report = verify_identities(m_max=3, n_max=8, suites=("period",))
        doc = report.to_dict()
        assert doc["m_max"] == 3
        assert doc["suites"][0]["name"] == "period"
        assert doc["suites"][0]["violations"] == []

    def test_symmetry_odd_m_worked_instance(self):
        # m=5, k=1, t=3: partner 17, both signs sum to -2
        from tbcalc import tb
        for sign in ("minus", "plus"):
            total = tb(5, 17, sign).value + tb(5, 3, sign).value
            assert total == -2

    def test_symmetry_even_m_worked_instance(self):
        # m=6, k=1, t=5: partner 7, minus sum is -4 + 4 = 0
        from tbcalc import tb
        assert tb(6, 7, "minus").value + tb(6, 5, "minus").value == 0


def offset(n, sign):
    """A non-integral offset that depends on n and on the sign, so every
    tb identity fails once it is added."""
    return Fraction(1 + (sign == "plus"), 3 * n)


def shifted_value(m, n, sign):
    return tb(m, n, sign).value + offset(n, sign)


def shifted_tb(m, n, sign):
    return tb(m, n, sign)._replace(value=shifted_value(m, n, sign))


def value(m, n, sign):
    return format_rational(shifted_value(m, n, sign))


def coprime_pairs(m_max, n_max):
    return [(m, n) for m in range(2, m_max + 1) for n in range(2, n_max + 1)
            if math.gcd(m, n) == 1]


def flipped_parity_records(m, n):
    """The parity suite's records for (m, n), law by law, once plant_w has
    flipped W on the whole lift: every lifted curve breaks the law of its
    multiplicity's parity, and e^0 the rupture law with one even exponent.
    Read by id, through the maps."""
    lift, down = build_cover(m, n).lift, build_cover(m, n).gamma_f_prime
    w = lift.characteristic.w
    laws = {"odd_mult_not_in_w": [], "even_mult_parity_law": [], "rupture_membership": []}
    for v, below in sorted(lift.downstairs.items()):
        mult, b = down.vertices[below].mult, down.vertices[below].c1_coeff
        if mult % 2:
            laws["odd_mult_not_in_w"].append({"vertex": v, "downstairs": below, "mult": mult})
        else:
            laws["even_mult_parity_law"].append({"vertex": v, "downstairs": below, "mult": mult,
                                                 "b": b, "in_w": v in w})
    if (m + n) % 2:
        laws["rupture_membership"].append({"vertex": lift.e0_lift,
                                           "even_exponent": m if m % 2 == 0 else n,
                                           "in_w": lift.e0_lift in w})
    return laws


@pytest.fixture
def shifted(monkeypatch):
    """verify reads tb through shifted_tb."""
    monkeypatch.setattr(verify, "tb", shifted_tb)


class TestViolations:
    """Each identity of each suite fails once the data are wrong, and
    verify records it with its detail string and instance keys."""

    def test_integrality(self, shifted):
        (suite,) = verify_identities(4, 9, 1, suites=("integrality",)).suites
        assert len(suite.violations) == suite.checked == 21
        expected = []
        for m, n in coprime_pairs(4, 9):
            expected.append({"identity": "tb_minus_integer",
                             "detail": f"tb_-({m},{n}) = {value(m, n, 'minus')}",
                             "m": m, "n": n})
            if (m % 4 == 0 and n % 2 == 1) or (n % 4 == 0 and m % 2 == 1):
                expected.append({"identity": "tb_plus_integer",
                                 "detail": f"tb_+({m},{n}) = {value(m, n, 'plus')}",
                                 "m": m, "n": n})
            if m % 2 == 1 and n % 2 == 1:
                expected.append({"identity": "tb_signs_agree_odd_odd",
                                 "detail": f"tb_+({m},{n}) = {value(m, n, 'plus')} != "
                                           f"tb_-({m},{n}) = {value(m, n, 'minus')}",
                                 "m": m, "n": n})
        assert suite.violations == expected

    def test_period(self, shifted):
        (suite,) = verify_identities(6, 7, 1, suites=("period",)).suites
        assert len(suite.violations) == suite.checked
        first = {}
        for record in suite.violations:
            first.setdefault(record["identity"], record)
        assert first == {
            "period_equal_minus": {
                "identity": "period_equal_minus",
                "detail": f"tb(3,14) = {value(3, 14, 'minus')} != tb(3,2) = {value(3, 2, 'minus')}",
                "m": 3, "n": 2},
            "period_equal_plus": {
                "identity": "period_equal_plus",
                "detail": f"tb(3,14) = {value(3, 14, 'plus')} != tb(3,2) = {value(3, 2, 'plus')}",
                "m": 3, "n": 2},
            "period_minus_shift": {
                "identity": "period_minus_shift",
                "detail": "tb_-(2,7) - tb_-(2,3) = " + format_rational(
                    shifted_value(2, 7, "minus") - shifted_value(2, 3, "minus")) + " != 4",
                "m": 2, "n": 3},
            "period_plus_shift": {
                "identity": "period_plus_shift",
                "detail": "tb_+(2,7) - tb_+(2,3) = " + format_rational(
                    shifted_value(2, 7, "plus") - shifted_value(2, 3, "plus")) + " != 4/21",
                "m": 2, "n": 3},
        }

    def test_symmetry(self, shifted):
        (suite,) = verify_identities(4, 5, 1, suites=("symmetry",)).suites
        assert len(suite.violations) == suite.checked

        def total(m, t, partner, sign):
            return format_rational(shifted_value(m, t, sign) + shifted_value(m, partner, sign))

        odd = [{"identity": f"symmetry_odd_{sign}",
                "detail": f"tb(3,{12 - t}) + tb(3,{t}) = {total(3, t, 12 - t, sign)} != -2",
                "m": 3, "t": t, "k": 1}
               for t in (2, 4, 5) for sign in ("minus", "plus")]
        even = [{"identity": "symmetry_even_minus",
                 "detail": f"tb_-({m},{2 * m - t}) + tb_-({m},{t}) = "
                           f"{total(m, t, 2 * m - t, 'minus')} != {-4 if m % 4 == 0 else 0}",
                 "m": m, "t": t, "k": 1}
                for m, ts in ((2, (3,)), (4, (3, 5))) for t in ts
                if 2 * m - t >= 2]
        assert suite.violations == odd + even

    def test_parity_checks_report_each_law(self, plant_w):
        planted = [(11, 6), (3, 10), (5, 8), (3, 5)]
        for m, n in planted:
            plant_w(m, n)
        # (n, m) shares the lift's solve of (m, n) for m < n, so a W planted
        # on (3, 10), (5, 8) or (3, 5) shows on (10, 3), (8, 5) and (5, 3)
        # too; the one on the transposed (11, 6) stays there.
        pairs = planted + [(10, 3), (8, 5), (5, 3)]
        (suite,) = verify_identities(11, 10, 1, suites=("parity",)).suites
        for m, n in pairs:
            laws = flipped_parity_records(m, n)
            assert laws["odd_mult_not_in_w"] and laws["even_mult_parity_law"]
            assert len(laws["rupture_membership"]) == (m + n) % 2
            assert [r for r in suite.violations if (r["m"], r["n"]) == (m, n)] == [
                {"identity": name, "detail": str(item), "m": m, "n": n}
                for name, items in laws.items() for item in items]
        assert {(r["m"], r["n"]) for r in suite.violations} == set(pairs)
        # Every curve of a lift is checked by one of the two multiplicity
        # laws, and e^0 once more with one even exponent.
        assert suite.checked == sum(len(build_cover(m, n).lift.graph.ids) + (m + n) % 2
                                    for m, n in coprime_pairs(11, 10))

    def test_parity_suite(self, plant_w):
        # Planted on each unordered pair once, with m < n: (3, 2) and (4, 3)
        # take the lift's solve of (2, 3) and (3, 4), planted W included, so
        # a second plant there would flip W back.
        for m, n in coprime_pairs(4, 5):
            if m < n:
                plant_w(m, n)
        (suite,) = verify_identities(4, 5, 1, suites=("parity",)).suites
        assert len(suite.violations) == suite.checked > 0
        expected = [{"identity": name, "detail": str(item), "m": m, "n": n}
                    for m, n in coprime_pairs(4, 5)
                    for name, items in flipped_parity_records(m, n).items()
                    for item in items]
        assert {record["identity"] for record in expected} == {
            "odd_mult_not_in_w", "even_mult_parity_law", "rupture_membership"}
        assert suite.violations == expected

    @staticmethod
    def structure_run(monkeypatch, tamper):
        """The structure suite over a small grid with each cover tampered."""
        real = verify.build_cover
        monkeypatch.setattr(verify, "build_cover", lambda m, n: tamper(real(m, n), n))
        (suite,) = verify_identities(6, 12, 1, suites=("structure",)).suites
        return suite

    @staticmethod
    def shift_self_ints(cg, n, labelled=""):
        """cg with n subtracted from the self-intersection of each curve
        whose arm label starts with labelled, keeping cg's characteristic
        data (the shifted graph need not be numerically Gorenstein)."""
        g = cg.graph
        self_int = tuple(s - n if (label or "").startswith(labelled) else s
                         for s, label in zip(g.self_int, g.arm_label))
        out = cg._replace(graph=g._replace(self_int=self_int))
        out.__dict__["characteristic"] = cg.characteristic
        return out

    def test_gamma_f_growth(self, monkeypatch):
        def tamper(cover, n):
            g = cover.gamma_f
            return cover._replace(gamma_f=g._replace(self_int=tuple(s - n for s in g.self_int)))

        suite = self.structure_run(monkeypatch, tamper)
        pairs = coprime_pairs(6, 12)
        records = [r for r in suite.violations if r["identity"] == "gamma_f_growth"]
        assert records == [
            {"identity": "gamma_f_growth",
             "detail": f"Gamma_f({m},{n + (2 * m if m % 2 else m)}) does not extend "
                       f"Gamma_f({m},{n}) by the expected terminal pattern",
             "m": m, "n": n}
            for m, n in pairs]
        assert records == suite.violations

    def test_cover_growth_frame(self, monkeypatch):
        def tamper(cover, n):
            return cover._replace(minimal=self.shift_self_ints(cover.minimal, n))

        suite = self.structure_run(monkeypatch, tamper)
        assert suite.violations
        for record in suite.violations:
            m, n = record["m"], record["n"]
            assert record == {
                "identity": "cover_growth_frame",
                "detail": f"Gamma({m},{n + 4 * m // math.gcd(m, 2)}) differs from "
                          f"Gamma({m},{n}) outside the (n)-arms",
                "m": m, "n": n}

    def test_cover_n_arm_growth(self, monkeypatch):
        def tamper(cover, n):
            return cover._replace(minimal=self.shift_self_ints(cover.minimal, n, "n_arm"))

        suite = self.structure_run(monkeypatch, tamper)
        assert suite.violations
        for record in suite.violations:
            m, n = record["m"], record["n"]
            assert record == {
                "identity": "cover_n_arm_growth",
                "detail": f"(n)-arm of Gamma({m},{n + 4 * m // math.gcd(m, 2)}) is not "
                          f"the (n)-arm of Gamma({m},{n}) plus two vertices ending in -2",
                "m": m, "n": n}

    def test_cover_n_arm_terminal_w(self, monkeypatch):
        def tamper(cover, n):
            minimal = cover.minimal._replace()
            cd = cover.minimal.characteristic
            minimal.__dict__["characteristic"] = cd._replace(
                w=cd.w ^ frozenset(minimal.graph.ids))
            return cover._replace(minimal=minimal)

        suite = self.structure_run(monkeypatch, tamper)
        details = {2: "appended vertices must both lie outside W"}
        assert {record["m"] % 4 for record in suite.violations} == {0, 1, 2, 3}
        for record in suite.violations:
            assert record == {
                "identity": "cover_n_arm_terminal_w",
                "detail": details.get(record["m"] % 4, "appended terminal vertex must "
                                      "lie in W and its neighbor outside W"),
                "m": record["m"], "n": record["n"]}

    def test_cli_exits_2_on_a_violation(self, shifted, capsys):
        assert main(["verify", "--suite", "integrality", "--m-max", "2", "--n-max", "3"]) == 2
        assert capsys.readouterr().out == (
            "integrality: checked 1, skipped 1, violations 1\n"
            f"  tb_minus_integer: tb_-(2,3) = {value(2, 3, 'minus')}\n")


class TestReadsByPosition:
    def test_verify_makes_few_id_lookups(self, monkeypatch):
        # The arm readers keep one id -> position map per graph instead of
        # a bisect per arm vertex, and the parity suite reads by position.
        calls = []
        pos = FrozenGraph.pos
        monkeypatch.setattr(FrozenGraph, "pos", lambda g, v: calls.append(v) or pos(g, v))
        build_cover.cache_clear()
        verify_identities(6, 30, 2)
        assert len(calls) < 2200

    def test_structure_suite_walks_no_graph(self, monkeypatch):
        # The structure suite reads the arms of e_0 on Gamma_f (stored
        # walked from id 0) and of e^0 on the minimal graphs along their
        # neighbour lists (_arm_positions), so once the covers are cached
        # it walks no graph from a new root.
        verify_identities(6, 30, 1, suites=("structure",))
        walks = []
        walk = graph._breadth_first
        monkeypatch.setattr(graph, "_breadth_first", lambda *args: walks.append(args) or walk(*args))
        (suite,) = verify_identities(6, 30, 1, suites=("structure",)).suites
        assert suite.checked > 0 and suite.violations == [] and walks == []


class TestReadsOnce:
    def test_each_tb_input_is_evaluated_once(self, monkeypatch):
        # tb keeps each sign's evaluation on the cached cover, which (m, n)
        # and (n, m) share, so each pair is assembled once per sign however
        # the suites are split over calls, and the reports are those of a
        # run that evaluates every read afresh. The assembled graphs are
        # held, so no two of them can share an id.
        tb_module = importlib.import_module("tbcalc.tb")
        read, assembled = set(), []
        inner_tb, inner_assemble = verify.tb, tb_module._assemble

        def reading_tb(m, n, sign):
            read.add((min(m, n), max(m, n), sign))
            return inner_tb(m, n, sign)

        def counting_assemble(g, real, w, sign, *rest):
            assembled.append((g, sign))
            return inner_assemble(g, real, w, sign, *rest)

        def assembled_once():
            assert read and len(assembled) == len(read)
            assert len({(id(g), sign) for g, sign in assembled}) == len(assembled)
            keys = set(read)
            read.clear()
            assembled.clear()
            return keys

        monkeypatch.setattr(verify, "tb", reading_tb)
        monkeypatch.setattr(tb_module, "_assemble", counting_assemble)
        build_cover.cache_clear()
        together = verify_identities(6, 30, 2)
        evaluated = assembled_once()
        build_cover.cache_clear()
        split = [verify_identities(6, 30, 2, suites=[name])
                 for _ in range(2) for name in SUITE_NAMES]
        assert assembled_once() == evaluated
        monkeypatch.setattr(verify, "tb", lambda m, n, sign: tb_from_graph(
            evaluation_graph(m, n, sign)[0]))
        afresh = verify_identities(6, 30, 2).to_dict()
        assert together.to_dict() == afresh
        assert [report.to_dict()["suites"] for report in split] == [
            [suite] for suite in afresh["suites"] * 2]

    def test_structure_reads_each_covers_arms_once(self, monkeypatch):
        # A cover's arms are read once per structure run: the sides of its
        # Gamma_f and the arm families of its minimal graph, whether it is
        # the base, grown or upper cover of a pair. (n, m) shares Gamma_f
        # with (m, n), so a graph is read at most once per cover key that
        # holds it.
        verify_identities(6, 30, 2, suites=["structure"])
        reads, covers = [], set()
        read = verify._arm_positions
        monkeypatch.setattr(verify, "_arm_positions",
                            lambda g, p: reads.append(g) or read(g, p))
        cover = verify.build_cover
        monkeypatch.setattr(verify, "build_cover",
                            lambda m, n: covers.add((m, n)) or cover(m, n))
        (suite,) = verify_identities(6, 30, 2, suites=["structure"]).suites
        assert suite.checked > 0 and suite.violations == []
        assert len(reads) <= 2 * len(covers)
        holders = Counter(id(g) for key in covers
                          for g in (cover(*key).gamma_f, cover(*key).minimal.graph))
        read_counts = Counter(map(id, reads))
        assert all(count <= holders[g] for g, count in read_counts.items())
        assert max(holders.values()) == 2 and max(read_counts.values()) == 2
