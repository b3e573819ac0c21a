import math
from fractions import Fraction

import pytest

from tbcalc import (FrozenGraph, SUITE_NAMES, arms, build_cover, parity_checks, tb,
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


class TestViolations:
    """Each identity of each suite fails once the data are wrong, and
    verify records it with its detail string and instance keys."""

    def test_integrality(self, monkeypatch):
        monkeypatch.setattr(verify, "tb", shifted_tb)
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

    def test_period(self, monkeypatch):
        monkeypatch.setattr(verify, "tb", shifted_tb)
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

    def test_symmetry(self, monkeypatch):
        monkeypatch.setattr(verify, "tb", shifted_tb)
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

    def test_parity_checks_report_each_law(self):
        for m, n in [(11, 6), (3, 10), (5, 8), (3, 5)]:
            lift, down = build_cover(m, n).lift, build_cover(m, n).gamma_f_prime
            cd = lift.characteristic
            wrong = cd._replace(w=cd.w ^ frozenset(lift.graph.ids))
            report = parity_checks(wrong, lift, down)
            odd, even = [], []
            for v, below in sorted(lift.downstairs.items()):
                mult, b = down.vertices[below].mult, down.vertices[below].c1_coeff
                if mult % 2:
                    odd.append({"vertex": v, "downstairs": below, "mult": mult})
                else:
                    even.append({"vertex": v, "downstairs": below, "mult": mult,
                                 "b": b, "in_w": v in wrong.w})
            assert odd and even
            assert report["odd_mult_not_in_w"] == {"checked": len(odd), "violations": odd}
            assert report["even_mult_parity_law"] == {"checked": len(even), "violations": even}
            one_even = (m + n) % 2 == 1
            assert report["rupture_membership"] == {
                "checked": int(one_even),
                "violations": [{"vertex": lift.e0_lift, "even_exponent": m if m % 2 == 0 else n,
                                "in_w": lift.e0_lift in wrong.w}] if one_even else []}

    def test_parity_suite(self, monkeypatch):
        def flipped(cd, cg, down):
            return parity_checks(cd._replace(w=cd.w ^ frozenset(cg.graph.ids)), cg, down)

        monkeypatch.setattr(verify, "parity_checks", flipped)
        (suite,) = verify_identities(4, 5, 1, suites=("parity",)).suites
        assert len(suite.violations) == suite.checked > 0
        expected = []
        for m, n in coprime_pairs(4, 5):
            cover = build_cover(m, n)
            for name, data in flipped(cover.lift.characteristic, cover.lift,
                                      cover.gamma_f_prime).items():
                expected += [{"identity": name, "detail": str(item), "m": m, "n": n}
                             for item in data["violations"]]
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

    def test_cli_exits_2_on_a_violation(self, monkeypatch, capsys):
        monkeypatch.setattr(verify, "tb", shifted_tb)
        assert main(["verify", "--suite", "integrality", "--m-max", "2", "--n-max", "3"]) == 2
        assert capsys.readouterr().out == (
            "integrality: checked 1, skipped 1, violations 1\n"
            f"  tb_minus_integer: tb_-(2,3) = {value(2, 3, 'minus')}\n")


class TestReadsByPosition:
    def test_verify_makes_few_id_lookups(self, monkeypatch):
        # The arm readers and the parity checks keep one id -> position
        # map per graph instead of a bisect per arm vertex.
        calls = []
        pos = FrozenGraph.pos
        monkeypatch.setattr(FrozenGraph, "pos", lambda g, v: calls.append(v) or pos(g, v))
        build_cover.cache_clear()
        verify_identities(6, 30, 2)
        assert len(calls) < 2200

    def test_structure_suite_walks_no_graph(self, monkeypatch):
        # The structure suite follows the arms of e_0 on Gamma_f (stored
        # walked from id 0) and of e^0 on the minimal graphs along their
        # neighbour lists, so once the covers are cached it walks nothing.
        verify_identities(6, 30, 1, suites=("structure",))
        walks = []
        walk = graph._breadth_first
        monkeypatch.setattr(graph, "_breadth_first", lambda *args: walks.append(args) or walk(*args))
        (suite,) = verify_identities(6, 30, 1, suites=("structure",)).suites
        assert suite.checked > 0 and suite.violations == [] and walks == []

    def test_bamboo_arms_are_the_arms(self):
        # Positions of each arm in path order, as arms gives them by id.
        for m, n in coprime_pairs(12, 60):
            cover = build_cover(m, n)
            for g, e in ((cover.gamma_f, cover.rupture),
                         (cover.gamma_f_prime, cover.rupture),
                         (cover.lift.graph, cover.lift.e0_lift),
                         (cover.minimal.graph, cover.minimal.e0_lift)):
                if e is None:
                    continue
                read = [tuple(map(g.ids.__getitem__, where))
                        for where in verify._bamboo_arms(g, g.pos(e))]
                assert read == [arm.vertices for arm in arms(g, e)], (m, n)
