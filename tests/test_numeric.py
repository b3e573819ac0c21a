from fractions import Fraction

import pytest

from tbcalc import (
    Gf2Result,
    SingularMatrix,
    ZeroDenominator,
    cf_eval,
    format_rational,
    parse_rational,
    solve_gf2,
)
from tbcalc.numeric import GF2_INCONSISTENT, GF2_MULTIPLE, GF2_UNIQUE
from oracles import det_exact, solve_rational


class TestCfEval:
    def test_single_entry(self):
        assert cf_eval([-3]) == Fraction(-3)

    def test_two_entries(self):
        # -2 - 1/(-2) = -3/2
        assert cf_eval([-2, -2]) == Fraction(-3, 2)

    def test_long_arm_weight(self):
        assert cf_eval([-2, -2, -2, -2, -3]) == Fraction(-11, 9)

    def test_mixed_rationals(self):
        assert cf_eval([Fraction(-5, 2), -2]) == Fraction(-5, 2) - Fraction(1, -2)

    def test_empty_rejected(self):
        with pytest.raises(ZeroDenominator):
            cf_eval([])

    def test_zero_tail_denominator(self):
        with pytest.raises(ZeroDenominator):
            cf_eval([-2, 0])

    def test_zero_intermediate_denominator(self):
        # tail is -1, next is -1 - 1/(-1) = 0, then division by zero
        with pytest.raises(ZeroDenominator):
            cf_eval([-2, -1, -1])


class TestRationalText:
    def test_format_integer(self):
        assert format_rational(Fraction(7)) == "7"

    def test_format_fraction(self):
        assert format_rational(Fraction(-4, 11)) == "-4/11"

    def test_parse_integer(self):
        assert parse_rational("42") == Fraction(42)

    def test_parse_fraction(self):
        assert parse_rational("-5/2") == Fraction(-5, 2)

    def test_round_trip(self):
        for q in (Fraction(0), Fraction(3, 7), Fraction(-11, 9), Fraction(5)):
            assert parse_rational(format_rational(q)) == q

    def test_parse_rejects_floats(self):
        with pytest.raises(ValueError):
            parse_rational("1.5")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("x/y")

    def test_parse_rejects_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational("1/0")


class TestSolveRational:
    def test_identity(self):
        a = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        assert solve_rational(a, [Fraction(3), Fraction(-4)]) == [
            Fraction(3), Fraction(-4)]

    def test_two_by_two(self):
        a = [[Fraction(-2), Fraction(1)], [Fraction(1), Fraction(-2)]]
        x = solve_rational(a, [Fraction(1), Fraction(1)])
        assert x == [Fraction(-1), Fraction(-1)]

    def test_singular(self):
        a = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
        with pytest.raises(SingularMatrix):
            solve_rational(a, [Fraction(0), Fraction(1)])

    def test_needs_square_system(self):
        with pytest.raises(ValueError, match="square system"):
            solve_rational([[1, 0]], [1])


class TestDetExact:
    def test_empty(self):
        assert det_exact([]) == 1

    def test_one_by_one(self):
        assert det_exact([[-2]]) == -2

    def test_a2_cartan(self):
        assert det_exact([[-2, 1], [1, -2]]) == 3

    def test_integer_preserving(self):
        d = det_exact([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
        assert d == 4 and isinstance(d, int)


class TestSolveGf2:
    def test_unique(self):
        res = solve_gf2([[1, 0], [0, 1]], [1, 0])
        assert isinstance(res, Gf2Result)
        assert res.status == GF2_UNIQUE
        assert res.solution == (1, 0)

    def test_multiple(self):
        res = solve_gf2([[1, 1], [1, 1]], [0, 0])
        assert res.status == GF2_MULTIPLE

    def test_inconsistent(self):
        res = solve_gf2([[1, 1], [1, 1]], [0, 1])
        assert res.status == GF2_INCONSISTENT
        assert res.solution is None

    def test_needs_square_system(self):
        with pytest.raises(ValueError, match="square system"):
            solve_gf2([[1, 0]], [1])

    def test_adjunction_mod_two(self):
        # A2 chain with both self-ints -2: Q = [[-2,1],[1,-2]], diag is
        # even, and x = (0,0) is the unique mod-2 solution.
        res = solve_gf2([[0, 1], [1, 0]], [0, 0])
        assert res.status == GF2_UNIQUE
        assert res.solution == (0, 0)
